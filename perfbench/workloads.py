"""The benchmark's workloads: command lines made from a seed, and the checks on their outputs.

An operation is the list of cold ``tlwaves`` processes one workload runs,
each given only generated arguments, plus the check of the files they
leave in the operation's directory.  Seed 0 is the paper's reference pair
(gamma=0.5, delta=0.8) at c_s = c_crit + 0.05.  Any other seed draws the
first pair from the elevation/depression pair below and the offset from
OFFSETS.  Every workload but ``reproduce`` runs the seeded pair and then
its opposite-polarity partner, so both polarities are in every run and a
seed changes the offset and the order, not the kind of wave.

The references the checks compare against are computed with the checked-out
package once per run, in :func:`build`, outside the timed region.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from tlwaves import oracle, solver
from tlwaves.grid import SpectralGrid
from tlwaves.params import make_parameters

PAIRS = {"elevation": (0.5, 0.8), "depression": (0.5, 0.5)}
OFFSETS = (0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09, 0.10)
LARGE = ("--modes", "16384", "--half-length", "2048", "--extrapolation", "mpe:6")
SWEEP_OFFSETS = np.linspace(0.01, 0.3, 10)  # the sweep command's default speed range
REFERENCE_HALF_LENGTH, REFERENCE_MODES = 128.0, 1024
# At the sweep's spacing h = 0.25 every crest lower than TALL_CREST is resolved
# to better than 1e-9 relative, and is held to 1e-8 like the solve and oracle
# crests.  The three tallest elevation waves of the range (crests 9.9 to 14)
# are resolved only to 6e-9 .. 2.2e-7; halving h brings them to ~1e-12, so the
# gap is the grid's, not the program's, and they are held to 1e-6.
TALL_CREST = 9.0

REPRODUCE_FILES = tuple(
    [f"fig2{fam}_offset{off:g}.csv" for fam in "ab" for off in (0.02, 0.05, 0.10)]
    + ["fig3a_amplitudes.csv", "fig3b_fit.json", "fig3c_amplitude_vs_k.csv", "fig4_depression.csv",
       "fig4_elevation.csv", "fig5a_spectrum.csv", "fig5b_profile_fit.csv", "fig6_spectrum_fit.csv", "table1.json"]
)

@dataclass(frozen=True)
class Operation:
    commands: tuple  # argv tuples for `python -m tlwaves.cli`, run in order in the operation's directory
    check: Callable[[Path], list]  # operation directory -> problems found (empty when correct)


def seeded_case(seed: int) -> tuple[tuple[str, str], float]:
    """(seeded pair label, partner label), speed offset above c_crit."""
    if seed == 0:
        return ("elevation", "depression"), 0.05
    rng = random.Random(seed)
    first = rng.choice(sorted(PAIRS))
    offset = rng.choice(OFFSETS)
    return (first, next(label for label in PAIRS if label != first)), offset


def read_csv(path: Path) -> tuple[dict, dict]:
    """(header JSON, column arrays) of a tlwaves CSV file, parsed independently of tlwaves."""
    meta, names = {}, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            body = line[1:].strip()
            if body.startswith("{"):
                meta = json.loads(body)
            elif body.startswith("columns:"):
                names = [n.strip() for n in body[len("columns:"):].split(",")]
    data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    if data.shape[1] != len(names):
        raise ValueError(f"{path.name}: {data.shape[1]} columns for header {names}")
    return meta, {name: data[:, i] for i, name in enumerate(names)}


def _fit_r_squared(path: Path) -> float:
    return float(json.loads(path.read_text(encoding="utf-8"))["fit"]["r_squared"])


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _params(label):
    return make_parameters(*PAIRS[label])


def _curve(label, speed):
    return oracle.potential(oracle.TravelingWaveProblem(params=_params(label), speed=speed))


def _crest(label, speed) -> float:
    curve = _curve(label, speed)
    return float(oracle.reconstruct_zeta(curve, curve.turning_point))


def _solver_profile(label, speed):
    """(nodes, v, zeta) of a plain solve on the reference grid."""
    grid = SpectralGrid(half_length=REFERENCE_HALF_LENGTH, n=REFERENCE_MODES)
    state, _ = solver.solve(grid, _params(label), solver.SolverConfig(speed=speed))
    return grid.nodes, state.v, state.zeta


def _oracle_profile(label, speed):
    """Callable x -> (v, zeta) from the oracle integrated to x_max = l."""
    curve = _curve(label, speed)
    profile = oracle.integrate_profile(curve, x_max=REFERENCE_HALF_LENGTH, step=1e-3)

    def at(x):
        v = profile.sample_v(x)
        return v, oracle.reconstruct_zeta(curve, v)

    return at


def _max_diff(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def _reproduce(labels, offset) -> Operation:
    label = "elevation"
    speed = _params(label).c_crit + 0.05
    oracle_at = _oracle_profile(label, speed)

    def check(opdir: Path) -> list:
        out = opdir / "results"
        missing = [name for name in REPRODUCE_FILES if not (out / name).is_file()]
        if missing:
            return [f"missing outputs {missing}"]
        problems = []
        _, cols = read_csv(out / "fig2a_offset0.05.csv")
        v, zeta = oracle_at(cols["x"])
        err = max(_max_diff(cols["v"], v), _max_diff(cols["zeta"], zeta))
        if not err <= 1e-9:
            problems.append(f"fig2a offset 0.05 differs from the oracle by {err:.3e} (> 1e-9)")
        r2 = _fit_r_squared(out / "fig3b_fit.json")
        if not r2 >= 0.9999:
            problems.append(f"fig3b fit R^2 {r2} < 0.9999")
        return problems

    return Operation(commands=(("reproduce", "all", "--out-dir", "results"),), check=check)


def _pair_flags(label) -> tuple:
    gamma, delta = PAIRS[label]
    return ("--gamma", repr(float(gamma)), "--delta", repr(float(delta)))


def _sweep(labels, offset) -> Operation:
    expected = {}
    for label in labels:
        speeds = _params(label).c_crit + SWEEP_OFFSETS
        expected[label] = (speeds, np.array([_crest(label, float(s)) for s in speeds]))

    def check(opdir: Path) -> list:
        problems = []
        for label in labels:
            _, cols = read_csv(opdir / f"sweep_{label}.csv")
            if not (opdir / f"sweep_{label}.fit.json").is_file():
                problems.append(f"missing sweep_{label}.fit.json")
            speeds, crests = expected[label]
            cs, zmax = cols["cs"], cols["zeta_max"]
            if cs.shape != speeds.shape or _max_diff(cs, speeds) > 1e-15:
                problems.append(f"{label}: sweep speeds {cs} differ from {speeds}")
                continue
            if not np.all(np.diff(np.abs(zmax)) > 0) or not np.all(np.sign(zmax) == np.sign(crests)):
                problems.append(f"{label}: amplitudes are not strictly monotone in speed: {zmax}")
            tol = np.where(np.abs(crests) < TALL_CREST, 1e-8, 1e-6)
            err = np.abs(zmax - crests) / np.abs(crests)
            for k in np.flatnonzero(~(err <= tol)):
                problems.append(f"{label}: zeta_max at cs={cs[k]!r} differs from the oracle crest by "
                                f"{err[k]:.3e} relative (> {tol[k]:g})")
        return problems

    commands = tuple(
        ("sweep", *_pair_flags(label), *LARGE, "--count", "10", "--out", f"sweep_{label}.csv") for label in labels
    )
    return Operation(commands=commands, check=check)


def _solve(labels, offset) -> Operation:
    speeds = {label: _params(label).c_crit + offset for label in labels}
    crests = {label: _crest(label, speeds[label]) for label in labels}

    def check(opdir: Path) -> list:
        problems = []
        for label in labels:
            meta, cols = read_csv(opdir / f"solve_{label}.csv")
            report, tol = meta["report"], meta["config"]["solver"]["tol_residual"]
            if not (report["converged"] and report["residual_final"] <= tol):
                problems.append(f"{label}: report {report} is not converged to {tol}")
            crest = float(cols["zeta"][np.argmax(np.abs(cols["zeta"]))])
            if not _rel(crest, crests[label]) <= 1e-8:
                problems.append(f"{label}: crest {crest!r} differs from the oracle's {crests[label]!r}")
            if not (opdir / f"solve_{label}_spectrum.csv").is_file() or not (opdir / f"analyze_{label}.csv").is_file():
                problems.append(f"{label}: missing spectrum or analyze output")
            r2 = _fit_r_squared(opdir / f"analyze_{label}.fit.json")
            if not r2 >= 0.999:
                problems.append(f"{label}: spectrum fit R^2 {r2} < 0.999")
        return problems

    commands = []
    for label in labels:
        commands.append(("solve", *_pair_flags(label), "--cs", repr(float(speeds[label])), *LARGE, "--dealias",
                         "--out", f"solve_{label}.csv", "--spectrum-out", f"solve_{label}_spectrum.csv"))
        commands.append(("analyze", "spectrum", "--in", f"solve_{label}.csv", "--out", f"analyze_{label}.csv"))
    return Operation(commands=tuple(commands), check=check)


def _oracle(labels, offset) -> Operation:
    speeds = {label: _params(label).c_crit + offset for label in labels}
    crests = {label: _crest(label, speeds[label]) for label in labels}
    solved = {label: _solver_profile(label, speeds[label]) for label in labels}

    def check(opdir: Path) -> list:
        problems = []
        for label in labels:
            _, cols = read_csv(opdir / f"oracle_{label}.csv")
            x = cols["x"]
            if x[0] != 0.0 or not _rel(float(cols["zeta"][0]), crests[label]) <= 1e-8:
                problems.append(f"{label}: crest {cols['zeta'][0]!r} differs from the turning-point value")
            nodes, v, zeta = solved[label]
            common, rows, at = np.intersect1d(x, nodes, return_indices=True)
            if common.size < nodes.size // 2:
                problems.append(f"{label}: only {common.size} oracle samples lie on solver nodes")
                continue
            err = max(_max_diff(cols["v"][rows], v[at]), _max_diff(cols["zeta"][rows], zeta[at]))
            if not err <= 1e-9:
                problems.append(f"{label}: oracle differs from the solver by {err:.3e} (> 1e-9)")
        return problems

    commands = tuple(
        ("oracle", *_pair_flags(label), "--cs", repr(float(speeds[label])), "--x-max", "128", "--step", "1e-3",
         "--out", f"oracle_{label}.csv")
        for label in labels
    )
    return Operation(commands=commands, check=check)


# workload name (as in BENCHMARK.json) -> the function that makes its operation
WORKLOADS = {"reproduce": _reproduce, "sweep_large": _sweep, "solve_large": _solve, "oracle": _oracle}


def build(workload: str, seed: int) -> Operation:
    """The operation of one workload for one seed, with its references computed."""
    return build_case(workload, *seeded_case(seed))


def build_case(workload: str, labels: tuple, offset: float) -> Operation:
    return WORKLOADS[workload](labels, offset)


def all_cases():
    """Every (labels, offset) a seed can draw."""
    for first in PAIRS:
        for offset in OFFSETS:
            yield (first, next(label for label in PAIRS if label != first)), offset
