"""Spans around the tlwaves layers, and the per-layer metrics derived from them.

Run as a script, this file is a traced stand-in for ``python -m tlwaves.cli``:

    python3 perfbench/spans.py SPANS_OUT RUN_ID PREFIX -- <tlwaves arguments>

It imports the package, wraps the public functions of each module under the
name their caller looks up (``solver.extrapolate``, not
``extrapolation.extrapolate``, because ``solver`` imported the function by
name), counts the ``numpy.fft`` transforms made inside each span, calls
``tlwaves.cli.main(argv)`` in this process, and writes the spans, kept in
memory until then, as JSON to SPANS_OUT.  Its exit code is main's.

Nothing under ``src/`` knows about these wrappers; a name a later change
removes is skipped, and its metrics read 0 calls.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

FFT_NAMES = ("fft", "ifft", "rfft", "irfft")


class Recorder:
    """Spans of one process: id, parent, name, run id, start and end (``time.perf_counter``)."""

    def __init__(self, run_id: str, prefix: str):
        self.run_id = run_id
        self.prefix = prefix
        self.spans: list[dict] = []
        self._open: list[dict] = []

    def wrap(self, name, fn, describe=None):
        """Record a span around each call of fn; describe(args, result) adds fields after it ends."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": f"{self.prefix}.{len(self.spans)}",
                "parent": self._open[-1]["id"] if self._open else None,
                "name": name,
                "run": self.run_id,
            }
            self.spans.append(span)
            self._open.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if describe is not None:
                span.update(describe(args, result))
            return result

        return traced

    def count_transforms(self, fn):
        """Add each transform's call, length and array bytes to the innermost open span."""

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            if self._open:
                span = self._open[-1]
                span["fft_calls"] = span.get("fft_calls", 0) + 1
                span["fft_points"] = span.get("fft_points", 0) + max(out.size, getattr(a, "size", 0))
                span["fft_bytes"] = span.get("fft_bytes", 0) + out.nbytes + getattr(a, "nbytes", 0)
            return out

        return counted


def _file_bytes(args, result):
    return {"bytes": Path(args[0]).stat().st_size}


def _solve_fields(args, result):
    grid, params, config = args[:3]
    _, report = result
    settings = tuple(
        (f.name, getattr(config, f.name)) for f in dataclasses.fields(config) if f.name != "initial_guess"
    )
    key = (params.gamma, params.delta, grid.half_length, grid.n, settings, config.initial_guess is None)
    return {"iterations": report.iterations, "converged": bool(report.converged), "key": repr(key)}


def _extrapolation_fields(args, result):
    return {"fallback": bool(np.array_equal(result, args[0][-1]))}


def _profile_fields(args, result):
    return {"samples": int(result.x.size)}


def install(recorder: Recorder):
    """Wrap the layer functions and numpy's transforms; return the wrapped ``cli.main``."""
    from tlwaves import analysis, cli, oracle, solver

    targets = (
        (cli, "write_table", "cli.write", _file_bytes),
        (cli, "write_json", "cli.write", _file_bytes),
        (cli, "read_table", "cli.read", _file_bytes),
        (solver, "solve", "solver.solve", _solve_fields),
        (solver, "auto_initial_guess", "solver.initial_guess", None),
        (solver, "petviashvili_step", "solver.step", None),
        (solver, "stabilizing_factor", "solver.stabilizing", None),
        (solver, "residual_norm", "solver.residual", None),
        (solver, "extrapolate", "extrapolation.extrapolate", _extrapolation_fields),
        (solver, "padded_product", "grid.padded_product", None),
        (oracle, "potential", "oracle.potential", None),
        (oracle, "integrate_profile", "oracle.integrate", _profile_fields),
        (oracle.OracleProfile, "sample_v", "oracle.sample", None),
        (oracle.OracleProfile, "sample_v_prime", "oracle.sample", None),
        (analysis, "fit_speed_amplitude", "analysis.fit", None),
        (analysis, "fit_decay_space", "analysis.fit", None),
        (analysis, "fit_decay_spectrum", "analysis.fit", None),
        (analysis, "amplitude_vs_k_study", "analysis.study", None),
    )
    for owner, attr, name, describe in targets:
        fn = getattr(owner, attr, None)
        if fn is not None:
            setattr(owner, attr, recorder.wrap(name, fn, describe))
    for attr in FFT_NAMES:
        setattr(np.fft, attr, recorder.count_transforms(getattr(np.fft, attr)))
    return recorder.wrap("cli.main", cli.main)


# ----------------------------------------------------------------------
# derivation, in run.py's process


def self_times(spans: list[dict]) -> dict:
    """Span id -> duration minus the part of its interval that its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span["start"]
        for child in sorted(children[span["id"]], key=lambda c: c["start"]):
            lo = max(child["start"], cursor)
            hi = min(child["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span["id"]] = span["end"] - span["start"] - covered
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer metrics of one operation from its spans (all of its processes).

    The transform counts per iteration take every transform inside
    ``solver.solve`` except those of the initial guess, so they include the
    state rebuild after each extrapolation restart.
    """
    own = self_times(spans)
    by_id = {span["id"]: span for span in spans}
    named = defaultdict(list)
    for span in spans:
        named[span["name"]].append(span)

    def calls(name):
        return len(named[name])

    def total(name):
        return sum(s["end"] - s["start"] for s in named[name])

    def self_total(name):
        return sum(own[s["id"]] for s in named[name])

    def field_sum(name, key):
        return sum(s.get(key, 0) for s in named[name])

    def in_iteration(span):
        inside = False
        while span is not None:
            if span["name"] == "solver.initial_guess":
                return False
            inside = inside or span["name"] == "solver.solve"
            span = by_id.get(span["parent"])
        return inside

    transform_spans = [s for s in spans if s.get("fft_calls") and in_iteration(s)]
    iterations = field_sum("solver.solve", "iterations")
    solves = named["solver.solve"]
    extrapolations = named["extrapolation.extrapolate"]
    return {
        "cli.write_s": total("cli.write"),
        "cli.write_calls": calls("cli.write"),
        "cli.bytes_written": field_sum("cli.write", "bytes"),
        "cli.read_s": total("cli.read"),
        "cli.bytes_read": field_sum("cli.read", "bytes"),
        "solver.solve_calls": len(solves),
        "solver.distinct_solves": len({s["key"] for s in solves if "key" in s}),
        "solver.solve_s": total("solver.solve"),
        "solver.iterations": iterations,
        "solver.iter_s": _ratio(
            total("solver.solve") - total("solver.initial_guess") - total("extrapolation.extrapolate"), iterations
        ),
        "solver.step_s": self_total("solver.step"),
        "solver.step_calls": calls("solver.step"),
        "solver.residual_s": self_total("solver.residual"),
        "solver.residual_calls": calls("solver.residual"),
        "solver.stabilizing_s": self_total("solver.stabilizing"),
        "solver.stabilizing_calls": calls("solver.stabilizing"),
        "solver.fft_calls_per_iter": _ratio(sum(s["fft_calls"] for s in transform_spans), iterations),
        "solver.fft_points_per_iter": _ratio(sum(s["fft_points"] for s in transform_spans), iterations),
        "solver.fft_bytes_per_iter": _ratio(sum(s["fft_bytes"] for s in transform_spans), iterations),
        "solver.initial_guess_s": total("solver.initial_guess"),
        "solver.initial_guess_calls": calls("solver.initial_guess"),
        "solver.converged_share": _ratio(sum(bool(s.get("converged")) for s in solves), len(solves)),
        "extrapolation.calls": len(extrapolations),
        "extrapolation.s": total("extrapolation.extrapolate"),
        "extrapolation.fallback_share": _ratio(sum(bool(s.get("fallback")) for s in extrapolations),
                                               len(extrapolations)),
        "grid.padded_product_calls": calls("grid.padded_product"),
        "grid.padded_product_s": total("grid.padded_product"),
        "oracle.potential_calls": calls("oracle.potential"),
        "oracle.potential_s": total("oracle.potential"),
        "oracle.integrate_calls": calls("oracle.integrate"),
        "oracle.integrate_s": total("oracle.integrate"),
        "oracle.profile_samples": field_sum("oracle.integrate", "samples"),
        "oracle.sample_s": total("oracle.sample"),
        "analysis.fit_s": total("analysis.fit"),
        "analysis.study_s": self_total("analysis.study"),
    }


def import_times(report: str) -> dict:
    """cli.import_s and oracle.scipy_import_s from ``python -X importtime -c 'import tlwaves.cli'``.

    The first is the cumulative time of the top-level ``tlwaves.cli`` entry.
    The second sums the cumulative time of each scipy module that no other
    scipy module imported.  The report lists children before their parent.
    """
    entries = []
    for line in report.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|", 2)
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        entries.append((depth, int(cumulative) * 1e-6, name.strip()))
    cli_s = sum(s for depth, s, name in entries if depth == 0 and name == "tlwaves.cli")
    scipy_s = 0.0
    ancestors: list[tuple[int, str]] = []
    for depth, seconds, name in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        if name.split(".")[0] == "scipy" and not any(a.split(".")[0] == "scipy" for _, a in ancestors):
            scipy_s += seconds
        ancestors.append((depth, name))
    return {"cli.import_s": cli_s, "oracle.scipy_import_s": scipy_s}


def median_metrics(per_op: list[dict]) -> dict:
    return {name: statistics.median(op[name] for op in per_op) for name in per_op[0]}


def main(argv: list[str]) -> int:
    out, run_id, prefix, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: spans.py SPANS_OUT RUN_ID PREFIX -- <tlwaves arguments>")
    recorder = Recorder(run_id, prefix)
    traced_main = install(recorder)
    try:
        return traced_main(cli_argv)
    finally:
        Path(out).write_text(json.dumps(recorder.spans), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
