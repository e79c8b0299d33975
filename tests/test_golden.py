"""The files of ``reproduce all`` against a checked-in manifest of their hashes and figures.

``tests/golden/manifest.json`` records, for each of the 15 files, its sha256 and its figures: per CSV
column the max |value| and the values of the first, middle and last rows, and per JSON file the
coefficients of each fit it holds.  It also records the numpy version and the machine that wrote it.
Where both match this process's, the files must have the manifest's bytes; elsewhere, where numpy's
kernels may round differently, every figure must agree within ``RELATIVE_BOUND``.

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

from tlwaves.cli import main
from tlwaves.commands.analyze import read_table

MANIFEST = Path(__file__).with_name("golden") / "manifest.json"
COMMAND = ["reproduce", "all"]
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


def cold_summary() -> dict:
    """``summarize`` of the files a cold ``tlwaves`` process writes."""
    with tempfile.TemporaryDirectory() as work:
        out = Path(work) / "results"
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        subprocess.run([sys.executable, "-m", "tlwaves.cli", *COMMAND, "--out-dir", str(out)], env=env, check=True,
                       stdout=subprocess.DEVNULL)
        return summarize(out)


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


def test_reproduce_all_writes_the_golden_outputs(tmp_path, capsys):
    golden = json.loads(MANIFEST.read_text(encoding="utf-8"))
    assert main([*COMMAND, "--out-dir", str(tmp_path / "results")]) == 0
    capsys.readouterr()
    written = summarize(tmp_path / "results")
    assert sorted(written) == sorted(golden["files"])
    if (golden["numpy"], golden["machine"]) == (np.__version__, machine()):
        hashes = {name: record["sha256"] for name, record in golden["files"].items()}
        if {name: record["sha256"] for name, record in written.items()} != hashes:
            # another test of this process may have changed numpy's state; a cold process has none of it
            written = cold_summary()
        assert {name: record["sha256"] for name, record in written.items()} == hashes
    else:
        gaps = figure_gaps(written, golden["files"])
        worst = max(gaps, key=gaps.get)
        assert gaps[worst] <= RELATIVE_BOUND, (worst, gaps[worst])


if __name__ == "__main__":
    MANIFEST.parent.mkdir(exist_ok=True)
    manifest = {"command": COMMAND, "numpy": np.__version__, "machine": machine(), "files": cold_summary()}
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    print(f"{MANIFEST}: {len(manifest['files'])} files, numpy {manifest['numpy']}, {manifest['machine']}")
