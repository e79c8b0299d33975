"""``tlwaves sweep``: waves at a range of speeds, their amplitudes and the speed-amplitude power fit."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .. import analysis, solver
from ..errors import InsufficientDataError
from .runconfig import _SWEEP_ROW_BYTES, build_run, check_memory
from .tables import meta, write_json, write_table


def execute(args) -> int:
    params, grid, config, described = build_run(args)
    if not np.isfinite(args.offset_max - args.offset_min):  # either is not finite, or the span overflows
        raise ValueError(f"--offset-min and --offset-max must be finite, as must their span, got {args.offset_min} "
                         f"and {args.offset_max}")
    check_memory(args.count * _SWEEP_ROW_BYTES, f"sweep --count {args.count}", "lower --count")
    offsets = np.linspace(args.offset_min, args.offset_max, max(args.count, 0))
    # the fit is over |c_s|: equal offsets, or speeds of opposite sign and equal size, are one abscissa
    if len(set(np.abs(params.c_crit + offsets).tolist())) < 4:
        raise InsufficientDataError("sweep needs at least 4 speeds for the power fit")
    columns = analysis.speed_sweep(solver.solve, grid, params, config, offsets)

    described["sweep"] = {"offset_min": args.offset_min, "offset_max": args.offset_max, "count": args.count}
    header = meta("sweep", described)
    out = Path(args.out)
    write_table(out, header, columns)

    fit = analysis.speed_fit(columns)
    fit_path = out.with_suffix(".fit.json")
    write_json(fit_path, {"meta": header, "fit": fit.to_dict()})
    print(f"sweep: {args.count} speeds -> {out} (fit R^2 = {fit.r_squared:.6f} -> {fit_path})")
    return 0
