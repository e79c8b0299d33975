"""Self-tests of the benchmark's own logic: python3 -m pytest perfbench -q"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def span(sid, parent, name, start, end, **fields):
    return {"id": sid, "parent": parent, "name": name, "run": "r", "start": start, "end": end, **fields}


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    tree = [
        span("root", None, "root", 0.0, 10.0),
        span("a", "root", "a", 1.0, 4.0),
        span("b", "root", "b", 3.0, 6.0),  # overlaps a: [1, 6] is covered once
        span("c", "root", "c", 8.0, 12.0),  # runs past the parent: only [8, 10] counts
        span("a1", "a", "a1", 2.0, 3.0),
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx({"root": 3.0, "a": 2.0, "b": 3.0, "c": 4.0, "a1": 1.0})


def test_layer_metrics_on_a_synthetic_solve():
    tree = [
        span("m", None, "cli.main", 0.0, 10.0),
        span("s", "m", "solver.solve", 1.0, 9.0, iterations=2, converged=True, key="k"),
        span("g", "s", "solver.initial_guess", 1.0, 2.0, fft_calls=2, fft_points=8, fft_bytes=100),
        span("t1", "s", "solver.step", 2.0, 4.0, fft_calls=8, fft_points=32, fft_bytes=400),
        span("f1", "t1", "solver.stabilizing", 2.5, 3.0, fft_calls=2, fft_points=8, fft_bytes=100),
        span("t2", "s", "solver.step", 4.0, 6.0, fft_calls=10, fft_points=40, fft_bytes=500),
        span("e", "s", "extrapolation.extrapolate", 6.0, 7.0, fallback=True),
        span("s2", "m", "solver.solve", 9.0, 9.5, iterations=0, converged=False, key="k"),
        span("w", "m", "cli.write", 9.5, 9.75, bytes=1234),
    ]
    got = spans.layer_metrics(tree)
    assert got["solver.solve_calls"] == 2 and got["solver.distinct_solves"] == 1
    assert got["solver.iterations"] == 2
    assert got["solver.fft_calls_per_iter"] == 10.0  # the guess's two transforms are excluded
    assert got["solver.fft_points_per_iter"] == 40.0
    assert got["solver.iter_s"] == pytest.approx((8.5 - 1.0 - 1.0) / 2)
    assert got["solver.step_s"] == pytest.approx(3.5)  # self time: 4.0 minus the stabilizing child
    assert got["solver.step_calls"] == 2
    assert got["solver.converged_share"] == 0.5
    assert got["extrapolation.fallback_share"] == 1.0
    assert got["cli.bytes_written"] == 1234 and got["cli.write_calls"] == 1
    assert got["grid.padded_product_calls"] == 0 and got["oracle.integrate_s"] == 0.0


def test_layer_metrics_cover_every_per_layer_metric_of_the_benchmark():
    derived = set(spans.layer_metrics([])) | {"cli.import_s", "oracle.scipy_import_s", "trace.overhead_s"}
    assert derived == {m["name"] for m in run.load_spec()["per_layer"]}


def test_import_times_parses_the_importtime_tree():
    report = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | site",
        "import time:        50 |        300 |   numpy",
        "import time:        20 |         20 |         scipy._lib",
        "import time:        30 |         50 |       scipy",
        "import time:        70 |        400 |         scipy.special",
        "import time:        10 |        500 |       scipy.interpolate",
        "import time:       200 |       1200 |     tlwaves.oracle",
        "import time:        80 |       1600 | tlwaves.cli",
    ])
    got = spans.import_times(report)
    assert got["cli.import_s"] == pytest.approx(1600e-6)
    assert got["oracle.scipy_import_s"] == pytest.approx(550e-6)  # scipy and scipy.interpolate, not their children


def test_seeds_are_deterministic_and_seed_zero_is_the_reference_pair():
    assert workloads.seeded_case(0) == (("elevation", "depression"), 0.05)
    for seed in range(1, 50):
        labels, offset = workloads.seeded_case(seed)
        assert workloads.seeded_case(seed) == (labels, offset)
        assert sorted(labels) == sorted(workloads.PAIRS) and offset in workloads.OFFSETS


def test_a_host_slowdown_shared_with_the_yardstick_leaves_the_metric_unchanged():
    values, yardstick = [1.0, 2.1, 1.2], [0.5, 1.0, 0.6]
    steady = run.on_reference_host(values, yardstick, 0.55)
    assert steady == pytest.approx(0.55 * 2.0)
    slowed = run.on_reference_host([v * 1.4 for v in values], [y * 1.4 for y in yardstick], 0.55)
    assert slowed == pytest.approx(steady)
    assert run.on_reference_host([v * 1.4 for v in values], yardstick, 0.55) == pytest.approx(1.4 * steady)


def test_the_yardstick_runs_without_tlwaves():
    code = "import sys; sys.modules['tlwaves'] = None; sys.argv = ['calibrate']; import runpy; " \
           f"runpy.run_path({str(HERE / 'calibrate.py')!r}, run_name='__main__')"
    assert subprocess.run([sys.executable, "-c", code], timeout=120).returncode == 0


@pytest.fixture()
def launcher():
    client = run.Launcher(run.child_env())
    yield client
    client.close()


def test_a_corrupted_output_file_counts_as_a_failure(launcher, tmp_path):
    op = workloads.build("oracle", 0)
    assert run.run_operation(launcher, op, tmp_path / "op").problems == []

    path = tmp_path / "op" / "oracle_elevation.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[1][len("# columns: "):].split(",")
    row = lines[40].split(",")
    zeta = header.index("zeta")
    row[zeta] = format(float(row[zeta]) * (1.0 + 1e-6), ".17g")
    lines[40] = ",".join(row)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    problems = op.check(tmp_path / "op")
    assert problems and "oracle differs from the solver" in problems[0]


def test_a_non_zero_exit_counts_as_a_failure(launcher, tmp_path):
    op = workloads.Operation(commands=(("solve", "--cs", "0.1", "--out", "wave.csv"),), check=lambda d: [])
    outcome = run.run_operation(launcher, op, tmp_path / "op")
    assert "command 0 exited 1" in outcome.problems
    assert any(p.startswith("error on stderr") for p in outcome.problems)


def test_a_missing_output_counts_as_a_failure(launcher, tmp_path):
    op = workloads.build("sweep_large", 0)
    outcome = run.run_operation(launcher, workloads.Operation(commands=op.commands[:1], check=op.check),
                                tmp_path / "op")
    assert any("FileNotFoundError" in p for p in outcome.problems)


def write_sweep(directory, perturb):
    """Sweep outputs holding the oracle crests, changed in place by perturb(label, zmax)."""
    for label in workloads.PAIRS:
        speeds = workloads._params(label).c_crit + workloads.SWEEP_OFFSETS
        zmax = np.array([workloads._crest(label, float(s)) for s in speeds])
        perturb(label, zmax)
        rows = "\n".join(f"{float(c)!r},{float(z)!r},0,0" for c, z in zip(speeds, zmax))
        (directory / f"sweep_{label}.csv").write_text(f"# {{}}\n# columns: cs,zeta_max,v_max,u_max\n{rows}\n")
        (directory / f"sweep_{label}.fit.json").write_text("{}")


def test_sweep_check_rejects_non_monotone_amplitudes(tmp_path):
    def swap(label, zmax):
        if label == "elevation":
            zmax[[3, 4]] = zmax[[4, 3]]

    write_sweep(tmp_path, swap)
    problems = workloads.build("sweep_large", 0).check(tmp_path)
    assert any("not strictly monotone" in p for p in problems)
    assert all(p.startswith("elevation:") for p in problems)


def test_sweep_crest_tolerance_is_loose_only_for_the_tallest_crests(tmp_path):
    op = workloads.build("sweep_large", 0)

    def off_by_1e7(label, zmax):
        zmax[0 if label == "depression" else -1] *= 1.0 + 1e-7

    write_sweep(tmp_path, off_by_1e7)
    problems = op.check(tmp_path)
    assert len(problems) == 1 and problems[0].startswith("depression: zeta_max at cs=")
