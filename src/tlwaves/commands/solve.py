"""``tlwaves solve``: one solitary wave, written as its profile and, with --spectrum-out, its half spectrum."""

from __future__ import annotations

from pathlib import Path

from .. import solver
from ..grid import spectrum_columns
from ..params import wave_type
from .runconfig import build_run
from .tables import meta, write_table


def execute(args) -> int:
    params, grid, config, described = build_run(args)
    state, report = solver.solve(grid, params, config)
    write_table(Path(args.out), meta("solve", described, {"report": report.to_dict()}),
                {"x": grid.nodes, "zeta": state.zeta, "v": state.v, "u": state.u})
    if args.spectrum_out:
        write_table(Path(args.spectrum_out), meta("solve-spectrum", described), spectrum_columns(grid, state.zeta))
    print(
        f"solve: {wave_type(params).value} wave at cs={config.speed:.6g}, "
        f"{report.iterations} iterations, residual {report.residual_history[-1]:.3e}, "
        f"{report.wall_time:.2f} s -> {args.out}"
    )
    return 0
