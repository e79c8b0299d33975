"""``tlwaves analyze``: decay fits and phase portraits of a profile file, and the table reader.

A CSV table has one width, the value count of its first data row: every
data row must hold that many values, and the last ``# columns:`` line,
wherever it sits, must name that many columns.  All rows are parsed by one
``np.loadtxt`` call, bit-equal to ``float(token)``.  Only when that call
fails are the rows walked, once, for the file line of the first token that
is blank or that loadtxt refuses.

``analyze`` takes a profile's grid from its nodes
(``SpectralGrid.from_nodes``) and reads nothing from its header, which is a
record only.
"""

from __future__ import annotations

import contextlib
import json
from itertools import repeat
from pathlib import Path

import numpy as np

from .. import analysis
from ..errors import InputFormatError
from ..grid import SpectralGrid
from .tables import meta, write_json, write_table


def read_table(path: Path) -> tuple[dict, dict]:
    path = Path(path)
    if path.suffix == ".json":
        payload = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(payload, dict) or not isinstance(payload.get("columns"), dict):
            raise InputFormatError(f"{path} is not a table: expected a JSON object with a 'columns' object")
        meta = payload.get("meta", {})
        if not isinstance(meta, dict):
            raise InputFormatError(f"{path}: 'meta' must be a JSON object")
        columns = payload["columns"]
        # a column that is not a flat array of JSON numbers (booleans excluded) counts as empty
        lengths = {len(c) if isinstance(c, list) and all(type(v) in (int, float) for v in c) else 0
                   for c in columns.values()}
        if len(lengths) != 1 or 0 in lengths:
            raise InputFormatError(f"{path}: the columns must be arrays of numbers, all of one length >= 1")
        return meta, {n: np.asarray(v, dtype=float) for n, v in columns.items()}
    lines = path.read_text(encoding="utf-8").splitlines()
    comments = [line[1:].strip() for line in lines if line[:1] == "#"]
    meta = next((json.loads(c) for c in reversed(comments) if c.startswith("{")), {})
    # the index in lines of each data row, neither a comment nor blank (ints: tuples would wake the collector)
    numbers = [number for number, line in enumerate(lines) if line.strip() and line[:1] != "#"]
    if not numbers:
        raise InputFormatError(f"{path} holds no data rows")
    rows = [lines[number] for number in numbers]
    commas = list(map(str.count, rows, repeat(",")))
    width = commas[0] + 1  # the table's one width: every row holds it, and the last columns line names it
    if commas.count(width - 1) != len(commas):
        j = next(j for j, c in enumerate(commas) if c != width - 1)
        raise InputFormatError(f"{path} line {numbers[j] + 1} holds {commas[j] + 1} values "
                               f"where the table has {width} columns")
    names = next(([n.strip() for n in c[len("columns:"):].split(",")] for c in reversed(comments)
                  if c.startswith("columns:")), [f"col{i}" for i in range(width)])
    if len(names) != width:
        raise InputFormatError(f"{path} names {len(names)} columns but its rows hold {width} values")
    try:  # every value in one C pass, bit-equal to float(token)
        data = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        # only now, so a good table is parsed in one pass: the first token that is blank or that loadtxt refuses
        for number in numbers:
            for token in map(str.strip, lines[number].split(",")):
                with contextlib.suppress(ValueError):  # loadtxt reads a blank token as no data, so it is not tried
                    if token and np.loadtxt([token], delimiter=",", comments=None).size:
                        continue
                raise InputFormatError(f"{path} line {number + 1} holds {token!r}, which is not a number") from None
        raise
    return meta, {name: data[:, i] for i, name in enumerate(names)}


def _profile_values(cols: dict, source, name: str | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The x column and a value column: ``name``, or zeta, or else the first column after x; both finite."""
    if name is None:
        others = [column for column in cols if column != "x"]
        name = "zeta" if "zeta" in cols or not others else others[0]
    for column in ("x", name):
        if column not in cols:
            raise InputFormatError(f"{source} has no column {column!r}; its columns are {list(cols)}")
        if not np.isfinite(cols[column]).all():
            raise InputFormatError(f"{source}: column {column!r} holds a non-finite value")
    return cols["x"], cols[name]


def execute(args) -> int:
    meta_in, cols = read_table(Path(args.infile))
    out = Path(args.out)
    described = {"input": str(args.infile), "source": meta_in.get("config", {})}

    if args.mode == "phase":
        x, v = _profile_values(cols, args.infile, "v")
        write_table(out, meta("analyze-phase", described), analysis.phase_portrait(v, SpectralGrid.from_nodes(x)))
        print(f"analyze phase: {x.size} samples -> {out}")
        return 0

    x, y = _profile_values(cols, args.infile)
    t, values, fitted, fit = analysis.decay_table(args.mode, x, y, args.window and tuple(args.window),
                                                  source=args.infile)
    label = f"analyze-{args.mode}"
    header = meta(label, {**described, "window": list(fit.window)})
    write_table(out, header, {"x" if args.mode == "decay" else "k": t, "value": values, "fitted": fitted})
    write_json(out.with_suffix(".fit.json"), {"meta": header, "fit": fit.to_dict()})
    print(f"{label}: c = {fit.coefficients['c']:.6g}, R^2 = {fit.r_squared:.8f} -> {out}")
    return 0
