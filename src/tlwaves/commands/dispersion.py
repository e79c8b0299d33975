"""``tlwaves dispersion``: the linear symbols omega(k) and sigma(k) over a range of wavenumbers."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .. import dispersion
from .runconfig import _ROW_BYTES, build_run, check_memory
from .tables import meta, write_table


def execute(args) -> int:
    if args.count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    check_memory(args.count * _ROW_BYTES, f"dispersion --count {args.count}", "lower --count")
    if not (np.isfinite(args.k_min) and np.isfinite(args.k_max)):
        raise ValueError(f"--k-min and --k-max must be finite, got {args.k_min} and {args.k_max}")
    params, _, _, described = build_run(args)
    symbols = dispersion.DispersionSymbols(params)
    ks = np.linspace(args.k_min, args.k_max, args.count)
    described["dispersion"] = {"k_min": args.k_min, "k_max": args.k_max, "count": args.count}
    write_table(Path(args.out), meta("dispersion", described),
                {"k": ks, "omega": symbols.omega(ks), "sigma": symbols.sigma(ks)})
    print(f"dispersion: {args.count} wavenumbers -> {args.out}")
    return 0
