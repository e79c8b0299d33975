"""``tlwaves oracle``: the solitary profile from the quadrature of the traveling-wave ODE, not the solver."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .. import oracle
from .runconfig import _NODE_BYTES, _SAMPLE_BYTES, build_run, check_memory
from .tables import meta, write_table


def execute(args) -> int:
    params, _, _, described = build_run(args)
    for flag, value in (("--x-max", args.x_max), ("--step", args.step), ("--dx", args.dx)):
        if not 0.0 < value < np.inf:
            raise ValueError(f"{flag} must be positive and finite, got {value}")
    for flag, spacing, per_item in (("--step", args.step, _NODE_BYTES), ("--dx", args.dx, _SAMPLE_BYTES)):
        # the node count bounds the run's time, the sample count its memory
        check_memory(args.x_max / spacing * per_item, f"oracle --x-max {args.x_max:g} with {flag} {spacing:g}",
                     f"raise {flag} or lower --x-max")
    curve = oracle.potential(oracle.TravelingWaveProblem(params=params, speed=described["solver"]["cs"]))
    xs = np.arange(0.0, args.x_max + 0.5 * args.dx, args.dx)
    profile = oracle.integrate_profile(curve, x_max=args.x_max, step=args.step, samples=xs)
    v = profile.sample_v(xs)
    zeta, u = oracle.reconstruct_zeta(curve, v), oracle.reconstruct_u(curve, v)
    vp = profile.sample_v_prime(xs)
    described["oracle"] = {"x_max": args.x_max, "step": args.step, "dx": args.dx}
    header = meta(
        "oracle",
        described,
        {"turning_point": curve.turning_point, "saddle_rate": curve.saddle_rate, "energy_max": profile.energy_max},
    )
    write_table(Path(args.out), header, {"x": xs, "v": v, "v_prime": vp, "zeta": zeta, "u": u})
    print(f"oracle: turning point {curve.turning_point:.12g}, energy drift {profile.energy_max:.2e} -> {args.out}")
    return 0
