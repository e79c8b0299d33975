"""Record the benchmark's baseline in perfbench/baseline.json.

From the root of a checkout:

    python3 perfbench/baseline.py

For every workload it measures the end-to-end metrics once per seed in
SEEDS and the per-layer metrics once, traced, for seed 0, each run as long
as BENCHMARK.json's run_seconds (about 25 minutes in all).  It writes each
end-to-end metric's runs, median and quartile spread (q3 - q1 over the
median) over the seeds, the per-layer metrics, the tracing overhead with its
quartiles, the interpreter, numpy and scipy versions, the CPU count, the
exact commands of seed 0, the layers each workload bypasses (where the
prediction is "no change"), the layers no workload measures, and the table
of which end-to-end metric each per-layer metric should move on which
workload.
"""

from __future__ import annotations

import json
import os
import platform
import signal
import statistics
import sys

import run

SEEDS = tuple(range(10))

# Layers of the package that no workload measures, and why.
UNMEASURED = {
    "params": "parameter records and their validation: negligible time in every command",
    "errors": "the error types and their one-line JSON reports: negligible time, and no workload fails",
    "dispersion": "only the dispersion subcommand calls it, and no measured command (reproduce, sweep, solve, "
                  "analyze, oracle) does; ROADMAP item 4 would give it a use inside the system",
}

# workload -> layers (module, or module.function) it never calls, so their metrics read 0 and must not change
BYPASSES = {
    "reproduce": ("extrapolation", "grid.padded_product", "oracle.integrate_profile", "cli.read_table"),
    "sweep_large": ("grid.padded_product", "oracle.integrate_profile", "cli.read_table",
                    "analysis.amplitude_vs_k_study"),
    "solve_large": ("oracle.integrate_profile", "analysis.amplitude_vs_k_study"),
    "oracle": ("solver", "extrapolation", "grid.padded_product", "cli.read_table", "analysis"),
}

# per-layer metric -> (the end-to-end metric it should move, on which workloads)
INTERACTION = {
    "cli.import_s": ("setup_s, peak_rss_mb; wall_s", "all; wall_s most on oracle, reproduce"),
    "oracle.scipy_import_s": ("setup_s, peak_rss_mb; wall_s", "all; wall_s most on oracle, reproduce"),
    "cli.write_s": ("wall_s", "solve_large, reproduce (~0 on sweep_large)"),
    "cli.write_calls": ("wall_s", "solve_large, reproduce"),
    "cli.bytes_written": ("wall_s", "solve_large, reproduce"),
    "cli.read_s": ("wall_s", "solve_large only"),
    "cli.bytes_read": ("wall_s", "solve_large only"),
    "solver.solve_calls": ("wall_s", "reproduce"),
    "solver.distinct_solves": ("wall_s (useful/attempted with solve_calls)", "reproduce"),
    "solver.solve_s": ("wall_s, cpu_s", "sweep_large most, reproduce less"),
    "solver.iterations": ("wall_s, cpu_s", "sweep_large most, reproduce less"),
    "solver.iter_s": ("wall_s, cpu_s", "sweep_large most, reproduce less"),
    "solver.step_s": ("wall_s", "sweep_large"),
    "solver.step_calls": ("wall_s", "sweep_large"),
    "solver.residual_s": ("wall_s", "sweep_large"),
    "solver.residual_calls": ("wall_s", "sweep_large"),
    "solver.stabilizing_s": ("wall_s", "sweep_large"),
    "solver.stabilizing_calls": ("wall_s", "sweep_large"),
    "solver.fft_calls_per_iter": ("wall_s, cpu_s", "sweep_large"),
    "solver.fft_points_per_iter": ("wall_s, cpu_s", "sweep_large"),
    "solver.fft_bytes_per_iter": ("wall_s, cpu_s (bytes computed from array sizes)", "sweep_large"),
    "solver.initial_guess_s": ("wall_s", "reproduce (negligible on sweep_large)"),
    "solver.initial_guess_calls": ("wall_s", "reproduce"),
    "solver.converged_share": ("failed (operations failing their checks)", "all that solve"),
    "extrapolation.calls": ("wall_s", "sweep_large, solve_large (0 on reproduce)"),
    "extrapolation.s": ("wall_s", "sweep_large, solve_large (0 on reproduce)"),
    "extrapolation.fallback_share": ("wall_s", "sweep_large, solve_large"),
    "grid.padded_product_calls": ("wall_s", "solve_large (0 elsewhere)"),
    "grid.padded_product_s": ("wall_s", "solve_large (0 elsewhere)"),
    "oracle.potential_calls": ("wall_s", "reproduce, through the initial guess"),
    "oracle.potential_s": ("wall_s", "reproduce, through the initial guess"),
    "oracle.integrate_calls": ("wall_s", "oracle (0 elsewhere)"),
    "oracle.integrate_s": ("wall_s", "oracle (0 elsewhere)"),
    "oracle.profile_samples": ("wall_s", "oracle (0 elsewhere)"),
    "oracle.sample_s": ("wall_s", "oracle (0 elsewhere)"),
    "analysis.fit_s": ("wall_s", "reproduce"),
    "analysis.study_s": ("wall_s", "reproduce"),
    "trace.overhead_s": ("none: traced minus untraced wall_s", "all"),
}


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def main() -> int:
    spec = run.load_spec()
    seconds = spec["run_seconds"]
    sys.path.insert(0, str(run.SRC))
    sys.path.insert(0, str(run.HERE))
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwinds through run.measure()'s clean-up
    import numpy
    import scipy
    import workloads

    record = {
        "environment": {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
                        "nproc": os.cpu_count(), "seeds": list(SEEDS), "seconds": seconds,
                        "yardstick_on_reference_host_s": {"wall": run.YARDSTICK_WALL_S, "cpu": run.YARDSTICK_CPU_S}},
        "unmeasured": UNMEASURED,
        "interaction": [
            {"metric": m["name"], "moves": INTERACTION[m["name"]][0], "on": INTERACTION[m["name"]][1]}
            for m in spec["per_layer"]
        ],
        "workloads": {},
    }
    lines = []
    for name in (w["name"] for w in spec["workloads"]):
        runs = [run.measure(name, seed, seconds, 0, spec) for seed in SEEDS]
        traced = run.measure(name, SEEDS[0], seconds, 1, spec)
        if not all(r["correct"] for r in runs + [traced]):
            raise SystemExit(f"{name}: a run failed its output checks")
        entry = {
            "bypasses": list(BYPASSES[name]),
            "commands_seed_0": [["python", "-m", "tlwaves.cli", *argv] for argv in workloads.build(name, 0).commands],
            "operations": [r["attempted"] for r in runs],
            "end_to_end": {},
        }
        for metric, value in runs[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in runs]
            stats = quartiles(values)
            entry["end_to_end"][metric] = {"median": stats["median"], "spread": (stats["q3"] - stats["q1"]) /
                                           stats["median"], "unit": value["unit"], "runs": values}
            lines.append(f"{name:<12} {metric:<12} median {stats['median']:.6g} {value['unit']}  "
                         f"spread {entry['end_to_end'][metric]['spread']:.3f}  n={len(values)} seeds")
        entry["per_layer"] = {metric: value["value"] for metric, value in traced["metrics"].items()}
        overhead = quartiles(traced["overhead_s"])
        entry["trace_overhead_s"] = {**overhead, "resolved": not overhead["q1"] <= 0 <= overhead["q3"]}
        record["workloads"][name] = entry
    (run.HERE / "baseline.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
