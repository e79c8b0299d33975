"""A command's run: its settings validated into parameters, grid and solver configuration, and its memory budget.

``oracle``, ``dispersion`` and the commands that solve (``solve``, ``sweep``,
``reproduce``, from ``--modes``) size their arrays from their flags before
they allocate, and exit 1 with a ``MemoryError`` naming the flag above a
budget.
"""

from __future__ import annotations

import math

from ..params import REFERENCE_OFFSET, make_parameters

# bytes a command may plan to allocate; a larger estimate exits 1 before it allocates
_MEMORY_BUDGET = 2 * 2**30
# bytes budgeted per item that a command sizes from its flags: oracle nodes (--x-max/--step), oracle
# samples (--x-max/--dx), dispersion rows and sweep rows (--count) and solve modes (--modes).  The oracle keeps
# only the nodes that bracket a sample, so _NODE_BYTES bounds the node count a run walks, not its memory:
# a --step of 1e-9 would run for hours.  The peaks measured with tracemalloc through main are 233 per
# sample where each sample keeps its own two nodes of five rows (the quintic sampler's temporaries
# included; 1e5-5e5 samples), 48 per dispersion row (2^20 rows), 389 per sweep row (2^13 speeds at l = 16,
# N = 128 that each warn; no warnings registry keeps their messages) and 153 per mode (188 dealiased).  The
# sample and row constants sit at most 2x above their peaks, the mode one 2-2.5x.
_NODE_BYTES, _SAMPLE_BYTES, _ROW_BYTES, _SWEEP_ROW_BYTES, _MODE_BYTES = 40, 448, 96, 768, 384


def _parse_extrapolation(text: str) -> int | None:
    if text == "off":
        return None
    if text == "mpe":
        return 6
    if text.startswith("mpe:"):
        try:
            return int(text[len("mpe:"):])
        except ValueError:
            pass
    raise ValueError(f"unknown extrapolation setting {text!r}; use off or mpe:K")


def build_run(args) -> tuple:
    """Validate every block of the run configuration up front.

    ``args.run`` holds each setting, from its flag, else from the --config file, else from its
    default (``cli.parse_args``); ``args.settings`` names the settings the command reads, and the
    returned description records only those.  Returns the parameters, the grid and solver
    configuration, and the description.  The grid and configuration are built only for a
    command that reads the grid block, as the commands that solve do; ``oracle`` and
    ``dispersion`` get None for both and read their settings from the description.
    """
    keys = args.settings
    run = {block: dict(values) for block, values in args.run.items()}
    p, g, s = run["params"], run["grid"], run["solver"]
    params = make_parameters(p["gamma"], p["delta"])
    if s["cs"] is None:
        s["cs"] = params.c_crit + REFERENCE_OFFSET
    grid = config = None
    if "grid" in keys:
        from ..grid import SpectralGrid
        from ..solver import SolverConfig
        config = SolverConfig(
            speed=s["cs"],
            tol_residual=s["tol_residual"],
            max_iter=s["max_iter"],
            mpe_cycle=_parse_extrapolation(s["extrapolation"]),
            dealias=s["dealias"],
            strict_domain=s["strict"],
        )
        # the solve's arrays (3/2 as many on the padded grid) and the MPE history of K + 2 stacked (zeta, v);
        # a history that alone exceeds the budget is the cycle's fault, unless the grid's alone does too
        n, cycle = g["modes"], config.mpe_cycle
        arrays = n * _MODE_BYTES * (3 if config.dealias else 2) // 2
        history = 0 if cycle is None else (cycle + 2) * 2 * n * 8
        if arrays <= _MEMORY_BUDGET < history:
            check_memory(history, f"{args.command} --extrapolation mpe:{cycle} with --modes {n}",
                         "lower K in --extrapolation mpe:K")
        check_memory(arrays + history, f"{args.command} --modes {n}", "lower --modes")
        grid = SpectralGrid(half_length=g["half_length"], n=n)
        s["extrapolation"] = "off" if config.mpe_cycle is None else f"mpe:{config.mpe_cycle}"
    return params, grid, config, {block: {key: run[block][key] for key in keys[block]} for block in keys}


def check_memory(needed: float, run: str, remedy: str) -> None:
    """Raise MemoryError when ``run`` would need more than _MEMORY_BUDGET bytes; ``remedy`` names the flag.

    Checked before anything is allocated: Linux grants an oversized request, then kills
    the process when it touches the pages.
    """
    if needed > _MEMORY_BUDGET:
        # an integer count beyond float range (a 400-digit --modes) reads as inf GiB
        gib = needed / 2**30 if needed < 2.0**1000 else math.inf
        raise MemoryError(f"{run} needs about {gib:.3g} GiB, above the "
                          f"{_MEMORY_BUDGET / 2**30:g} GiB budget; {remedy}")
