"""Cold-process benchmark of the tlwaves command line.

From the root of a checkout:

    python3 perfbench/run.py --workload sweep_large --seed 0 --seconds 30 --trace 0

``--workload all`` runs every workload of BENCHMARK.json in turn, each for
--seconds, and prints each one's report.

Each operation of the workload (see workloads.py) runs its tlwaves commands
one at a time as cold ``python -m tlwaves.cli`` processes with the
checkout's ``src`` on PYTHONPATH, then checks their output files outside the
timed region.  Operations repeat until --seconds are spent (at least three);
the --seconds include the yardstick and set-up samples and the output checks.
The processes are started by launcher.py, which says why.

--trace 0 reports the end-to-end metrics:
  wall_s       wall time of one operation, startup included
  cpu_s        user+sys seconds of its processes, from RUSAGE_CHILDREN
  setup_s      wall time of a cold ``python -c "import tlwaves.cli"``, one after each
               operation
  peak_rss_mb  largest max-RSS of any single process in the run, in MiB
and prints failed_share (failed / attempted operations) with them; it is 0
on a correct program, so it is the JSON's ``failed`` and not a metric.

The three times are given in seconds of a reference host.  On a shared
few-core host the speed of the same code drifts by tens of percent over
minutes, and the fastest sample of a run drifts with it.  So every
operation is preceded by a cold run of calibrate.py, a fixed yardstick that
uses no tlwaves code, and each time is divided by the yardstick's time
(wall by wall, cpu by cpu) next to it.  The metric is the median of these
ratios times the yardstick's time on the reference host.  The
raw seconds are printed with them.

--trace 1 alternates untraced operations with traced ones, whose processes
run ``perfbench/spans.py`` (tlwaves.cli.main in-process under span
recording), and reports the per-layer metrics of BENCHMARK.json: medians
over the traced operations, and the tracing overhead as the median
difference between each traced operation and the untraced one before it,
with its quartiles and sample count; it is marked unresolved when the
quartiles span 0.
The spans are written to ``.perfbench/spans-<workload>-<seed>.json``.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; with ``--workload all`` the
metric names are prefixed with ``<workload>.``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
MIN_OPERATIONS = 3
# calibrate.py's wall and cpu seconds on the reference host (2 vCPUs at 2.1 GHz, lightly loaded)
YARDSTICK_WALL_S, YARDSTICK_CPU_S = 0.7, 1.05


@dataclass
class Outcome:
    wall: float
    cpu: float
    peak_rss_mb: float
    problems: list
    spans: list


class Launcher:
    """Client of launcher.py: runs one process at a time and returns its figures."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launcher.py")], cwd=ROOT, env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list, cwd: Path, stderr_path: Path) -> dict:
        request = {"argv": [str(a) for a in argv], "cwd": str(cwd), "stderr": str(stderr_path)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"launcher exited with code {self.proc.wait()}")
        return json.loads(reply)

    def close(self, abort: bool = False) -> None:
        """Let the launcher finish at the end of its input, or on abort stop it and its child."""
        if abort:
            self.proc.terminate()
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("TLWAVES_THREADS", None)  # the package default
    return env


def stderr_problems(text: str) -> list:
    problems = ["traceback on stderr"] if "Traceback (most recent call last)" in text else []
    for line in text.splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict) and "error" in record:
            problems.append(f"error on stderr: {line.strip()}")
    return problems


def run_operation(launcher: Launcher, op, opdir: Path, traced_run: str | None = None) -> Outcome:
    """Run the operation's processes cold, one at a time, then check what they wrote."""
    shutil.rmtree(opdir, ignore_errors=True)
    opdir.mkdir(parents=True)
    figures = []
    for k, argv in enumerate(op.commands):
        if traced_run is None:
            cmd = [sys.executable, "-m", "tlwaves.cli", *argv]
        else:
            cmd = [sys.executable, HERE / "spans.py", opdir / f"spans{k}.json", traced_run, k, "--", *argv]
        figures.append(launcher.run(cmd, opdir, opdir / f"stderr{k}.txt"))

    problems = [f"command {k} exited {f['code']}" for k, f in enumerate(figures) if f["code"] != 0]
    for k in range(len(op.commands)):
        problems += stderr_problems((opdir / f"stderr{k}.txt").read_text(encoding="utf-8", errors="replace"))
    try:
        problems += op.check(opdir)
    except Exception as exc:  # an unreadable or missing output is a failed operation, not a crash
        problems.append(f"check raised {type(exc).__name__}: {exc}")
    return Outcome(
        wall=sum(f["end"] - f["start"] for f in figures),
        cpu=sum(f["cpu"] for f in figures),
        peak_rss_mb=max(f["maxrss_kb"] for f in figures) / 1024.0,
        problems=problems,
        spans=[] if traced_run is None else operation_spans(opdir, traced_run, figures),
    )


def operation_spans(opdir: Path, run_id: str, figures: list) -> list:
    """One tree per operation: the operation, each process under it, and the process's own spans.

    Ids are prefixed with the operation's run id, so they stay unique across a run's operations.
    """
    found = [{"id": f"{run_id}/op", "parent": None, "name": "operation", "run": run_id,
              "start": figures[0]["start"], "end": figures[-1]["end"]}]
    for k, f in enumerate(figures):
        found.append({"id": f"{run_id}/p{k}", "parent": f"{run_id}/op", "name": "process", "run": run_id,
                      "start": f["start"], "end": f["end"]})
        path = opdir / f"spans{k}.json"
        for span in json.loads(path.read_text(encoding="utf-8")) if path.is_file() else []:
            span["id"] = f"{run_id}/{span['id']}"
            span["parent"] = f"{run_id}/{span['parent'] if span['parent'] is not None else f'p{k}'}"
            found.append(span)
    return found


def repeat_for(seconds: float, step) -> None:
    """Call step() at least MIN_OPERATIONS times, then while another call would still end within seconds."""
    started = time.perf_counter()
    done, last = 0, 0.0
    while done < MIN_OPERATIONS or time.perf_counter() - started + last <= seconds:
        t0 = time.perf_counter()
        step()
        last = time.perf_counter() - t0
        done += 1


def on_reference_host(values: list, yardstick: list, reference: float) -> float:
    """Median over the samples of value / yardstick, times the yardstick's time on the reference host."""
    return reference * statistics.median(v / y for v, y in zip(values, yardstick))


def summary(name: str, values: list, unit: str) -> str:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return f"{name:<28} median {med:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}"


def load_spec() -> dict:
    """BENCHMARK.json: the workload and metric names, with their units, that the benchmark reports."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def measure(workload: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    """Run one workload for about `seconds`, print its report, and return its result.

    The result has the keys of the JSON line, plus ``overhead_s``: the traced
    minus untraced wall time of each traced operation (empty when untraced).
    """
    import spans
    import workloads

    op = workloads.build(workload, seed)
    work = STATE / f"work-{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    untraced, traced, setup, yardstick = [], [], [], []
    launcher = Launcher(child_env())
    try:
        def cold_import(*flags) -> dict:
            return launcher.run([sys.executable, *flags, "-c", "import tlwaves.cli"], ROOT, work / "import.txt")

        cold_import()  # fills the bytecode and file caches, which users do not pay on every run

        def untraced_step():
            figures = launcher.run([sys.executable, HERE / "calibrate.py"], ROOT, work / "calibrate.txt")
            if figures["code"] != 0:
                raise RuntimeError(f"calibrate.py exited {figures['code']}")
            yardstick.append(figures)
            untraced.append(run_operation(launcher, op, work / "op"))
            # set-up samples spread over the run, like the operations, rather than bunched at its start
            figures = cold_import()
            setup.append(figures["end"] - figures["start"])

        def traced_step():
            untraced.append(run_operation(launcher, op, work / "op"))
            traced.append(run_operation(launcher, op, work / "op", traced_run=f"{workload}-{seed}-{len(traced)}"))

        repeat_for(seconds, traced_step if trace else untraced_step)
        if trace:
            cold_import("-X", "importtime")
            import_report = (work / "import.txt").read_text(encoding="utf-8")
    except BaseException:
        launcher.close(abort=True)
        raise
    else:
        launcher.close()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    outcomes = untraced + traced
    failed = [o for o in outcomes if o.problems]
    print(f"workload {workload}, seed {seed}, commands per operation: {len(op.commands)}")
    for o in failed[:5]:
        print("failed operation: " + "; ".join(o.problems))
    print(f"{'failed_share':<28} {len(failed)}/{len(outcomes)} = {len(failed) / len(outcomes):.6g}")

    overhead = [t.wall - u.wall for t, u in zip(traced, untraced)]
    if trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = spans.median_metrics([spans.layer_metrics(o.spans) for o in traced])
        metrics.update(spans.import_times(import_report))
        metrics["trace.overhead_s"] = statistics.median(overhead)
        for name, unit in units.items():
            if name == "trace.overhead_s":
                q1, _, q3 = statistics.quantiles(overhead, n=4)
                # the pairs differ by run-to-run drift too; an interval over 0 does not show a cost
                print(summary(name, overhead, unit) + ("  (unresolved: q1..q3 spans 0)" if q1 <= 0 <= q3 else ""))
            else:
                n = 1 if name in ("cli.import_s", "oracle.scipy_import_s") else len(traced)
                print(f"{name:<28} {metrics[name]:.6g} {unit}  n={n}")
        (STATE / f"spans-{workload}-{seed}.json").write_text(
            json.dumps([s for o in traced for s in o.spans]), encoding="utf-8")
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        yard_wall = [f["end"] - f["start"] for f in yardstick]
        yard_cpu = [f["cpu"] for f in yardstick]
        samples = {"wall_s": ([o.wall for o in untraced], yard_wall, YARDSTICK_WALL_S),
                   "cpu_s": ([o.cpu for o in untraced], yard_cpu, YARDSTICK_CPU_S),
                   "setup_s": (setup, yard_wall, YARDSTICK_WALL_S)}
        metrics = {name: on_reference_host(*sample) for name, sample in samples.items()}
        print(summary("calibrate.py wall", yard_wall, "s"))
        print(summary("calibrate.py cpu", yard_cpu, "s"))
        for name, (values, _, _) in samples.items():
            print(f"{name:<28} {metrics[name]:.6g} {units[name]} on the reference host;  raw "
                  + summary("", values, units[name]).lstrip())
        metrics["peak_rss_mb"] = max(o.peak_rss_mb for o in untraced)
        print(f"{'peak_rss_mb':<28} max {metrics['peak_rss_mb']:.6g} {units['peak_rss_mb']} "
              f"over {len(untraced)} operations")

    return {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
        "overhead_s": overhead,
    }


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help=f"one of {', '.join(names)}; or all, one after another")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0, help="per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tlwaves" / "cli.py").is_file():
        print(f"perfbench: no tlwaves package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.workload not in (*names, "all"):
        print(f"perfbench: unknown workload {args.workload!r}; one of {names} or all", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwinds through measure()'s clean-up
    chosen = names if args.workload == "all" else [args.workload]
    results = {name: measure(name, args.seed, args.seconds, args.trace, spec) for name in chosen}
    if args.workload == "all":
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    else:
        result = {key: results[args.workload][key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
