"""Command-line entry: the parse, then the code of the one command it names.

Each subcommand's body is its own module, ``tlwaves.commands.<name>``,
imported by :func:`main` after the arguments are parsed; this module loads
no numpy and none of the numerical modules.  With no bytecode cache (for
instance under ``PYTHONDONTWRITEBYTECODE=1``) every imported line is
compiled again in each process, so the code a command never runs is pure
startup cost: ``--help`` and a usage error load no numpy, and a command
compiles neither another command's body nor, unless it is ``analyze``, the
table reader.  :func:`parse_args` builds the parser of the named
subcommand alone; its flags, help and usage errors are those of the parser
of every command, ``build_parser()``, which the top-level ``--help`` and a
missing or unknown command get.

Besides its own module, ``oracle`` loads ``oracle``; ``dispersion`` loads
``dispersion`` and ``grid``; ``analyze`` loads ``analysis`` and ``grid``;
``solve`` loads ``solver`` with ``oracle``, ``extrapolation`` and ``grid``;
``sweep`` and ``reproduce`` load those and ``analysis``.  Every command but
``analyze`` loads ``commands.runconfig``, and every command
``commands.tables``, which writes the output files (see there).

Exit codes: 0 success, 1 validation failure, 2 non-convergence.  Errors
and warnings are emitted as one-line JSON on stderr,
``{"error": <type>, "message": ...}`` and ``{"warning": <category>, "message": ...}``.
A usage error (an unknown flag, a missing or ill-typed value) is an
``InputFormatError`` with exit 1 like any other; ``--help`` prints the usage
and exits 0.  A ``DomainTooSmallWarning`` is shown on each solve that
raises it, with the ``"always"`` action, which keeps no registry entry for
its message, where ``"default"`` would keep every distinct one to the end.

:func:`run` is the process entry, of the ``tlwaves`` script and of
``python -m tlwaves.cli``.  It turns the interpreter's cyclic collector off
for the whole of :func:`main`: nearly all of the ~22k tracked objects that
the parse and the imports (numpy's included) make stay alive, so the ~30
collections they would set off cost a cold command ~5 ms and free only
~0.23 MiB of numpy's import garbage.  Nor does a command collect once its
module is loaded: a ``gc.callbacks`` counter read 0 collections in
``reproduce all``, the N=16384 sweeps and dealiased solves with their
spectra, ``analyze``, ``oracle``, ``dispersion`` and a solve that exits 2,
and ``sweep --modes 128 --half-length 16 --count 2000`` ran 5 young
collections that freed nothing.  A command that builds cyclic garbage per
item would need the collector on while it works.  On its way out ``run``
turns the collector back on and freezes the heap (``gc.freeze``), so the
collections at exit skip those objects.  :func:`main` leaves the collector
alone, so tests and library callers keep a collectable heap.

numpy's BLAS runs on one thread.  OpenBLAS sizes its thread pool from
``OPENBLAS_NUM_THREADS`` once, when numpy is first imported, so the pin is
set here, before any numpy import (``tlwaves``, ``errors`` and ``params``
load no numpy, so it holds for ``tlwaves ...`` and ``python -m tlwaves.cli``
alike).  Each cold command then starts no pool, and the solver's inner
products at large N sum in one order on any core count, so equal
configurations write equal bytes on any host.  The pin acts only when this
module is loaded before numpy: a library caller that imported numpy before
keeps its pool and its environment.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import sys
import warnings
from pathlib import Path
from typing import NoReturn

if "numpy" not in sys.modules:
    # read once, when numpy loads OpenBLAS (see the module docstring)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .errors import DomainTooSmallWarning, InputFormatError, NotConvergedError, WaveError
from .params import ELEVATION_PAIR, REFERENCE_OFFSET, SWEEP_OFFSETS

# the targets of reproduce, besides all
_TARGETS = ("fig2a", "fig2b", "fig3a", "fig3b", "fig3c", "fig4", "fig5", "fig6", "table1")

# One entry per setting of a run, by block and key: its flag, the type its --config value
# must have, its default and its help.  A default of None is worked out by the command.
_SETTINGS = {
    "params": {
        "gamma": ("--gamma", float, ELEVATION_PAIR[0], "density ratio rho1/rho2"),
        "delta": ("--delta", float, ELEVATION_PAIR[1], "depth ratio d1/d2"),
    },
    "grid": {
        "half_length": ("--half-length", float, 128.0, "domain half-length l"),
        "modes": ("--modes", int, 1024, "collocation points N (even)"),
    },
    "solver": {
        "cs": ("--cs", float, None, f"traveling-wave speed (default c_crit + {REFERENCE_OFFSET:g})"),
        "tol_residual": ("--tol", float, 1e-10, "tolerance of the residual and the update (max norm)"),
        "max_iter": ("--max-iter", int, 500, "iteration cap"),
        "extrapolation": ("--extrapolation", str, "off", "off or mpe:K (default off)"),
        "dealias": ("--dealias", bool, False, "zero-padded quadratic products"),
        "strict": ("--strict", bool, False, "escalate the boundary-decay warning to an error"),
    },
}
# the JSON values a --config file may give a setting of each type; a boolean is never a number
_JSON_TYPES = {float: ((int, float), "a number"), int: (int, "an integer"), bool: (bool, "true or false"),
               str: (str, "a string")}

# the settings each command reads, as blocks of keys: its flags, and the keys its --config may hold
_RUN_KEYS = {block: tuple(entries) for block, entries in _SETTINGS.items()}
# sweep solves at c_crit + each of its offsets, so it takes no cs
_SWEEP_KEYS = {**_RUN_KEYS, "solver": tuple(key for key in _RUN_KEYS["solver"] if key != "cs")}
_ORACLE_KEYS = {"params": ("gamma", "delta"), "solver": ("cs",)}
_DISPERSION_KEYS = {"params": ("gamma", "delta")}
_REPRODUCE_KEYS = {"grid": ("half_length", "modes"), "solver": ("tol_residual",)}


def _load_config_file(path: str | None, keys: dict) -> dict:
    """The blocks of a --config file, each value checked against and converted to its setting's type."""
    if not path:
        return {}
    config = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(config, dict):
        raise InputFormatError(f"config file {path} must hold a JSON object with blocks {list(keys)}")
    for name, block in config.items():
        if name not in keys:
            raise InputFormatError(f"config file {path}: unknown block {name!r}; blocks are {list(keys)}")
        if not isinstance(block, dict):
            raise InputFormatError(f"config file {path}: block {name!r} must be a JSON object")
        unknown = sorted(set(block) - set(keys[name]))
        if unknown:
            raise InputFormatError(
                f"config file {path}: unknown key(s) {unknown} in block {name!r}; it takes {list(keys[name])}"
            )
        for key, value in block.items():
            kind = _SETTINGS[name][key][1]
            types, described = _JSON_TYPES[kind]
            if not isinstance(value, types) or isinstance(value, bool) != (kind is bool):
                raise InputFormatError(f"config file {path}: {name}.{key} must be {described}, got {json.dumps(value)}")
            try:
                block[key] = kind(value)
            except OverflowError:
                raise InputFormatError(f"config file {path}: {name}.{key} must be {described} within float range, "
                                       f"got an integer of {len(str(abs(value)))} digits") from None
    return config


def _resolve_settings(args) -> dict:
    """Each setting of the run, by block and key: from its flag, else from the --config file, else its default."""
    filecfg = _load_config_file(getattr(args, "config", None), args.settings)
    run = {block: {} for block in _SETTINGS}
    for block, entries in _SETTINGS.items():
        for key, (_, _, default, _) in entries.items():
            flag = getattr(args, key, None)
            run[block][key] = filecfg.get(block, {}).get(key, default) if flag is None else flag
    return run


# ----------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors raise InputFormatError (exit 1, one JSON line) instead of exiting 2, the
    code of non-convergence, and which reads ``-1e300``, ``-inf``, ``-infinity`` and ``-nan`` (any case, as
    ``float`` does) as values, as argparse does ``-1`` and ``-1.5``.  ``add_subparsers`` builds each command's
    parser with this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf(inity)?|nan)$", re.I)

    def error(self, message: str) -> NoReturn:
        raise InputFormatError(f"{self.prog}: {message}")


def _add_settings(p: argparse.ArgumentParser, keys: dict, config_file: bool = True) -> None:
    """The flags of the settings ``keys`` names, and --config unless ``config_file`` is false."""
    if config_file:
        p.add_argument("--config", help="JSON config file; flags override its blocks")
    for block, names in keys.items():
        for key in names:
            flag, kind, _, text = _SETTINGS[block][key]
            typed = {"action": "store_const", "const": True} if kind is bool else {"type": kind}
            p.add_argument(flag, dest=key, help=text, **typed)
    p.set_defaults(settings=keys)


def _solve_flags(p: argparse.ArgumentParser) -> None:
    _add_settings(p, _RUN_KEYS)
    p.add_argument("--out", required=True, help="output file (.csv or .json)")
    p.add_argument("--spectrum-out", dest="spectrum_out",
                   help="also write the (k, k', re, im) rfft modes k = 0..N/2 of zeta")


def _sweep_flags(p: argparse.ArgumentParser) -> None:
    _add_settings(p, _SWEEP_KEYS)
    p.add_argument("--offset-min", type=float, default=SWEEP_OFFSETS[0])
    p.add_argument("--offset-max", type=float, default=SWEEP_OFFSETS[1])
    p.add_argument("--count", type=int, default=SWEEP_OFFSETS[2])
    p.add_argument("--out", required=True)


def _oracle_flags(p: argparse.ArgumentParser) -> None:
    _add_settings(p, _ORACLE_KEYS)
    p.add_argument("--x-max", dest="x_max", type=float, default=60.0)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--dx", type=float, default=0.25, help="output sampling interval")
    p.add_argument("--out", required=True)


def _dispersion_flags(p: argparse.ArgumentParser) -> None:
    _add_settings(p, _DISPERSION_KEYS)
    p.add_argument("--k-min", dest="k_min", type=float, default=0.0)
    p.add_argument("--k-max", dest="k_max", type=float, default=50.0)
    p.add_argument("--count", type=int, default=501)
    p.add_argument("--out", required=True)


def _analyze_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("mode", choices=["decay", "spectrum", "phase"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--window", type=float, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--out", required=True)


def _reproduce_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("target", choices=[*_TARGETS, "all"])
    p.add_argument("--out-dir", dest="out_dir", default="results")
    _add_settings(p, _REPRODUCE_KEYS, config_file=False)


# each command's help line and the function that adds its flags, in the order of the top-level help
_COMMANDS = {
    "solve": ("compute one solitary wave profile", _solve_flags),
    "sweep": ("speed sweep with amplitude extraction and power fit", _sweep_flags),
    "oracle": ("ODE-based solitary profile (independent of the spectral solver)", _oracle_flags),
    "dispersion": ("linear symbols omega(k), sigma(k) over a wavenumber range", _dispersion_flags),
    "analyze": ("fits and portraits from profile files", _analyze_flags),
    "reproduce": ("regenerate the reference figure and table data", _reproduce_flags),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or with ``command`` of that one alone, whose parse, help and usage errors
    are those of the parser of every command."""
    parser = _Parser(prog="tlwaves", description="Solitary waves of a two-layer internal wave model")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, add_flags) in _COMMANDS.items():
        if command in (None, name):
            add_flags(sub.add_parser(name, help=text))
    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """argv parsed by the parser of the command it names, with ``args.run`` holding the run's settings."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    if hasattr(args, "settings"):
        args.run = _resolve_settings(args)
    return args


def _stderr_record(kind: str, name: str, message) -> None:
    print(json.dumps({kind: name, "message": str(message)}), file=sys.stderr)


def main(argv=None) -> int:
    """Parse argv, load the module of its command and run it; returns the exit code (see the module docstring)."""
    try:
        args = parse_args(argv)
        # __import__ takes the import statement's path, which -X importtime reports (importlib.import_module's is not)
        execute = __import__(f"tlwaves.commands.{args.command}", fromlist=["execute"]).execute
        with warnings.catch_warnings():
            warnings.simplefilter("always", DomainTooSmallWarning)
            warnings.showwarning = lambda message, category, *_: _stderr_record("warning", category.__name__, message)
            return execute(args)
    except NotConvergedError as exc:
        _stderr_record("error", type(exc).__name__, exc)
        return 2
    except (WaveError, ValueError, OSError, MemoryError) as exc:
        _stderr_record("error", type(exc).__name__, exc)
        return 1


def run(argv=None) -> NoReturn:
    """The process entry: main with the collector off, then exit with a frozen heap (see the module docstring)."""
    gc.disable()
    try:
        code = main(argv)
    finally:
        gc.enable()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
