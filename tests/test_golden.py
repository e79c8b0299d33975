"""The files of a few commands against a checked-in manifest of their hashes and figures.

``tests/golden/manifest.json`` records, per run, its command lines and, for each file they write, its sha256
and its figures: per CSV column the max |value| and the values of the first, middle and last rows, and per
JSON file the coefficients of each fit it holds.  The runs are ``reproduce all``; ``oracle --x-max 128 --step
1e-3`` at c_s and -c_s of both polarities; ``solve --modes 512 --half-length 64`` at c_s and -c_s;
``dispersion``; and the benchmark's N=16384 MPE(6) shapes for both polarities: ``sweep --count 10``, and the
dealiased ``solve`` with its spectrum followed by ``analyze spectrum`` of its profile.  The manifest also
records the numpy version and the machine that wrote it.  Where both match this process's, the files must have
the manifest's bytes; elsewhere, where numpy's kernels may round differently, every figure must agree within
``RELATIVE_BOUND``.

A change that moves the outputs on purpose regenerates the manifest, in a cold process, with

    PYTHONPATH=src python tests/test_golden.py

and says in its record which figures moved and by how much.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from tlwaves.cli import main
from tlwaves.commands.analyze import read_table
from tlwaves.params import REFERENCE_OFFSET, make_parameters

MANIFEST = Path(__file__).with_name("golden") / "manifest.json"


def _speeds(delta: float) -> tuple:
    """(--cs value, side) of the reference speed c_crit + 0.05 at (0.5, delta) and of its opposite."""
    right = repr(make_parameters(0.5, delta).c_crit + REFERENCE_OFFSET)
    return (right, "right"), (f"-{right}", "left")


POLARITIES = ((0.8, "elevation"), (0.5, "depression"))  # delta at gamma = 0.5
LARGE = ["--modes", "16384", "--half-length", "2048", "--extrapolation", "mpe:6"]  # the benchmark's large grid

# each run's command lines, which write their files into the current directory
RUNS = {
    "reproduce": [["reproduce", "all", "--out-dir", "."]],
    "oracle": [["oracle", "--gamma", "0.5", "--delta", f"{delta:g}", f"--cs={cs}", "--x-max", "128", "--step", "1e-3",
                "--out", f"oracle_{name}_{side}.csv"] for delta, name in POLARITIES for cs, side in _speeds(delta)],
    "solve": [["solve", "--modes", "512", "--half-length", "64", f"--cs={cs}", "--out", f"solve_{side}.csv",
               "--spectrum-out", f"spectrum_{side}.csv"] for cs, side in _speeds(0.8)],
    "dispersion": [["dispersion", "--out", "dispersion.csv"]],
    "sweep_large": [["sweep", "--gamma", "0.5", "--delta", f"{delta:g}", *LARGE, "--count", "10",
                     "--out", f"sweep_{name}.csv"] for delta, name in POLARITIES],
    "solve_large": [argv for delta, name in POLARITIES for argv in (
        ["solve", "--gamma", "0.5", "--delta", f"{delta:g}", f"--cs={_speeds(delta)[0][0]}", *LARGE, "--dealias",
         "--out", f"solve_{name}.csv", "--spectrum-out", f"solve_{name}_spectrum.csv"],
        ["analyze", "spectrum", "--in", f"solve_{name}.csv", "--out", f"analyze_{name}.csv"])],
}

# Where numpy or the machine differ: each figure within this fraction of its column's max |value| (of the
# coefficient itself for a fit).  The solves stop at a residual of 1e-10 and most end near 1e-14; a profile
# moved by 1e-13 of its peak moves the decay fits' exponents by ~1e-7 (see analysis._FIT_FLOOR).  With numpy's
# AVX-512 and AVX2 kernels switched off (NPY_DISABLE_CPU_FEATURES) the worst figure moves 8.5e-9; the bound is
# not checked against another numpy version.
RELATIVE_BOUND = 1e-6


def machine() -> str:
    """The architecture and numpy's SIMD dispatch targets on it, which decide how its kernels round."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:  # numpy < 2.0
        return platform.machine()
    targets = {kind["current"] for kinds in opt_func_info().values() for kind in kinds.values()}
    return " ".join([platform.machine(), *sorted(targets)])


def summarize(directory: Path) -> dict:
    """The manifest's record of each file in ``directory``."""
    files = {}
    for path in sorted(directory.iterdir()):
        record = {"sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
        if path.suffix == ".json":
            data = json.loads(path.read_text(encoding="utf-8"))
            record["fits"] = {key: value["coefficients"] for key, value in data.items()
                              if isinstance(value, dict) and "coefficients" in value}
        else:
            _, columns = read_table(path)
            record["columns"] = {name: {"max_abs": float(np.max(np.abs(values))),
                                        "rows": [float(values[0]), float(values[values.size // 2]), float(values[-1])]}
                                 for name, values in columns.items()}
        files[path.name] = record
    return files


def cold_summary(commands: list) -> dict:
    """``summarize`` of the files that cold ``tlwaves`` processes running ``commands`` write."""
    with tempfile.TemporaryDirectory() as work:
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        for argv in commands:
            subprocess.run([sys.executable, "-m", "tlwaves.cli", *argv], cwd=work, env=env, check=True,
                           stdout=subprocess.DEVNULL)
        return summarize(Path(work))


def figure_gaps(written: dict, golden: dict) -> dict:
    """Each figure's distance from the manifest's, over its scale: the column's max |value|, or the coefficient."""
    gaps = {}
    for name, record in golden.items():
        for column, figures in record.get("columns", {}).items():
            got = written[name]["columns"][column]
            scale = figures["max_abs"] or 1.0
            for key, want, have in [("max_abs", figures["max_abs"], got["max_abs"]),
                                    *zip(("first", "middle", "last"), figures["rows"], got["rows"])]:
                gaps[f"{name}:{column}:{key}"] = abs(have - want) / scale
        for fit, coefficients in record.get("fits", {}).items():
            for key, want in coefficients.items():
                gaps[f"{name}:{fit}:{key}"] = abs(written[name]["fits"][fit][key] - want) / (abs(want) or 1.0)
    return gaps


def check_run(run: str, directory: Path, monkeypatch, capsys) -> None:
    """Run ``run``'s commands through ``main`` in ``directory`` and hold their files to the manifest."""
    golden = json.loads(MANIFEST.read_text(encoding="utf-8"))
    record = golden["runs"][run]
    assert record["commands"] == RUNS[run]
    monkeypatch.chdir(directory)
    for argv in RUNS[run]:
        assert main(argv) == 0
    capsys.readouterr()
    written = summarize(directory)
    assert sorted(written) == sorted(record["files"])
    if (golden["numpy"], golden["machine"]) == (np.__version__, machine()):
        hashes = {name: file["sha256"] for name, file in record["files"].items()}
        if {name: file["sha256"] for name, file in written.items()} != hashes:
            # another test of this process may have changed numpy's state; a cold process has none of it
            written = cold_summary(RUNS[run])
        assert {name: file["sha256"] for name, file in written.items()} == hashes
    else:
        gaps = figure_gaps(written, record["files"])
        worst = max(gaps, key=gaps.get)
        assert gaps[worst] <= RELATIVE_BOUND, (worst, gaps[worst])


def test_reproduce_all_writes_the_golden_outputs(tmp_path, monkeypatch, capsys):
    check_run("reproduce", tmp_path, monkeypatch, capsys)


@pytest.mark.parametrize("run", ["oracle", "solve", "dispersion", "sweep_large", "solve_large"])
def test_a_command_writes_the_golden_outputs(tmp_path, monkeypatch, capsys, run):
    # the oracle and the solver at c_s and -c_s: the left-moving wave's files are pinned as well
    check_run(run, tmp_path, monkeypatch, capsys)


if __name__ == "__main__":
    MANIFEST.parent.mkdir(exist_ok=True)
    runs = {run: {"commands": commands, "files": cold_summary(commands)} for run, commands in RUNS.items()}
    manifest = {"numpy": np.__version__, "machine": machine(), "runs": runs}
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    counts = ", ".join(f"{run} {len(record['files'])}" for run, record in runs.items())
    print(f"{MANIFEST}: files of {counts}; numpy {manifest['numpy']}, {manifest['machine']}")
