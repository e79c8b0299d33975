"""``tlwaves oracle``: the solitary profile from the quadrature of the traveling-wave ODE, not the solver."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .. import oracle
from .runconfig import _NODE_BYTES, _SAMPLE_BYTES, build_run, check_memory
from .tables import meta, write_table


def execute(args) -> int:
    params, _, _, described = build_run(args)
    if not 0.0 < args.dx < np.inf:
        raise ValueError(f"--dx must be positive and finite, got {args.dx}")
    for flag, spacing, per_item in (("--step", args.step, _NODE_BYTES), ("--dx", args.dx, _SAMPLE_BYTES)):
        # the node count bounds the run's time, the sample count its memory; a setting that is not
        # positive and finite is left to the check that names it
        if 0.0 < args.x_max < np.inf and 0.0 < spacing < np.inf:
            check_memory(args.x_max / spacing * per_item, f"oracle --x-max {args.x_max:g} with {flag} {spacing:g}",
                         f"raise {flag} or lower --x-max")
    speed = described["solver"]["cs"]
    # the right-moving wave at |c_s|; a left-moving one is its image under the sign map
    curve = oracle.potential(oracle.TravelingWaveProblem(params=params, speed=speed))
    xs = np.arange(0.0, args.x_max + 0.5 * args.dx, args.dx)
    profile = oracle.integrate_profile(curve, x_max=args.x_max, step=args.step, samples=xs)
    v = profile.sample_v(xs)
    zeta, u = oracle.reconstruct_zeta(curve, v), oracle.reconstruct_u(curve, v)
    # v' is odd, so the image's -v'(x) is v'(-x), whose crest zero is +0
    vp = profile.sample_v_prime(xs if speed > 0 else -xs)
    vstar = curve.turning_point
    if speed < 0:
        zeta, v, u = oracle.negative_speed_map(zeta, v, u)
        vstar = -vstar
    described["oracle"] = {"x_max": args.x_max, "step": args.step, "dx": args.dx}
    header = meta(
        "oracle",
        described,
        {"turning_point": vstar, "saddle_rate": curve.saddle_rate, "energy_max": profile.energy_max},
    )
    write_table(Path(args.out), header, {"x": xs, "v": v, "v_prime": vp, "zeta": zeta, "u": u})
    print(f"oracle: turning point {vstar:.12g}, energy drift {profile.energy_max:.2e} -> {args.out}")
    return 0
