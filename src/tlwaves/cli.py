"""Command-line front end and file formats.

Output files are CSV with a JSON metadata header carried in leading
comment lines (17-significant-digit floats, lossless for binary64), or a
single JSON document when the output path ends in ``.json``.  Headers
record the configuration and package versions but no timings, so repeated
runs with the same configuration produce byte-identical files; wall-clock
numbers go to the console log instead.

A CSV body is written in blocks of ``_FORMAT_BLOCK`` values, each formatted
by numpy passes that give the bytes of ``'%.17g' % x`` for every double
(``_format_values``); the few values this cannot settle (zero aside, those
not finite, outside [1e-200, 1e200] or within 1e-9 of a rounding tie) take
Python's ``'%.17g' % x``.

A CSV table has one width, the value count of its first data row: every
data row must hold that many values, and the last ``# columns:`` line,
wherever it sits, must name that many columns.  All rows are parsed by one
``np.loadtxt`` call, bit-equal to ``float(token)``.  Only when that call
fails are the rows walked, once, for the file line of the first token that
is blank or that loadtxt refuses.

``oracle``, ``dispersion`` and the commands that solve (``solve``, ``sweep``,
``reproduce``, from ``--modes``) size their arrays from their flags before
they allocate, and exit 1 with a ``MemoryError`` naming the flag above a
budget.

Exit codes: 0 success, 1 validation failure, 2 non-convergence.  Errors
and warnings are emitted as one-line JSON on stderr,
``{"error": <type>, "message": ...}`` and ``{"warning": <category>, "message": ...}``.
A usage error (an unknown flag, a missing or ill-typed value) is an
``InputFormatError`` with exit 1 like any other; ``--help`` prints the usage
and exits 0.

:func:`run` is the process entry, of the ``tlwaves`` script and of
``python -m tlwaves.cli``: it calls :func:`main`, freezes the heap
(``gc.freeze``) and exits with main's code.  At exit the interpreter's
cyclic collector walks every tracked object, about 22k of them from the
imports of numpy and tlwaves, all still alive; frozen, they are skipped,
which saves a cold command tens of milliseconds.  ``main`` itself freezes
nothing, so tests and library callers keep a collectable heap.

Each subcommand imports the tlwaves modules it runs, inside its function:
with no bytecode cache every imported line is compiled again in each
process, so a module a command never calls is pure startup cost.  At
module level this file imports only the standard library, numpy,
``errors`` and ``params``.  Besides those, ``oracle`` loads ``oracle``;
``dispersion`` loads ``dispersion`` and ``grid``; ``analyze`` loads
``analysis`` and ``grid``; ``solve`` loads ``solver`` with ``oracle``,
``extrapolation`` and ``grid``; ``sweep`` and ``reproduce`` load those
and ``analysis``.

numpy's BLAS runs on one thread.  OpenBLAS sizes its thread pool from
``OPENBLAS_NUM_THREADS`` once, when numpy is first imported, so the pin is
set above ``import numpy`` (``tlwaves`` and ``params`` load no numpy, so it
holds for ``tlwaves ...`` and ``python -m tlwaves.cli`` alike).  Each cold
command then starts no pool, and the solver's inner products at large N
sum in one order on any core count, so equal configurations write equal
bytes on any host.  The pin acts only when this module is the first to
load numpy: a library caller that imported numpy before keeps its pool
and its environment.

``analysis`` builds every derived table (sweep, study, portrait, decay
fits); this module reads, describes and writes.  ``analyze`` takes a
profile's grid from its nodes (``SpectralGrid.from_nodes``) and reads
nothing from its header, which is a record only.  ``reproduce`` calls the
same table functions on its grid's nodes, so its targets equal ``sweep``
and ``analyze`` of its fig2 profiles on every grid; it fits each decay once.
Each ``reproduce`` header records the run's grid and tolerance in ``solve``'s
nested shape, with the wave's ``params`` and, for one wave, ``solver.cs``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import gc
import json
import os
import re
import sys
import warnings
from itertools import repeat
from pathlib import Path
from typing import NoReturn

if "numpy" not in sys.modules:
    # read once, when numpy loads OpenBLAS (see the module docstring)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from . import __version__
from .errors import InputFormatError, InsufficientDataError, NotConvergedError, WaveError
from .params import make_parameters, params_to_config, wave_type

# the reference configuration: (gamma, delta), c_s - c_crit, and the sweep's np.linspace(first, last, count)
_ELEVATION_PAIR = (0.5, 0.8)
_DEPRESSION_PAIR = (0.5, 0.5)
_REFERENCE_OFFSET = 0.05
_SWEEP_OFFSETS = (0.01, 0.3, 10)
_FIG2_OFFSETS = (0.02, 0.05, 0.10)
_FIG3C_DELTAS = (0.5, 0.55, 0.6, 0.65, 0.8, 0.9, 1.0, 1.1, 1.2)
_TARGETS = ("fig2a", "fig2b", "fig3a", "fig3b", "fig3c", "fig4", "fig5", "fig6", "table1")
# bytes a command may plan to allocate; a larger estimate exits 1 before it allocates
_MEMORY_BUDGET = 2 * 2**30
# bytes budgeted per item that a command sizes from its flags: oracle nodes (--x-max/--step), oracle
# samples (--x-max/--dx), dispersion rows and sweep rows (--count) and solve modes (--modes).  The oracle keeps
# only the nodes that bracket a sample, so _NODE_BYTES bounds the node count a run walks, not its memory:
# a --step of 1e-9 would run for hours.  The peaks measured with tracemalloc through main are 233 per
# sample where each sample keeps its own two nodes of five rows (the quintic sampler's temporaries
# included; 1e5-5e5 samples), 48 per dispersion row (2^20 rows), 465 per sweep row (2^13 speeds that each
# warn, whose messages the warnings registry keeps) and 153 per mode (188 dealiased).  The sample and row
# constants sit at most 2x above their peaks, the mode one 2-2.5x.
_NODE_BYTES, _SAMPLE_BYTES, _ROW_BYTES, _SWEEP_ROW_BYTES, _MODE_BYTES = 40, 448, 96, 768, 384
# values per block of the CSV formatter
_FORMAT_BLOCK = 1536


# ----------------------------------------------------------------------
# file formats


def write_table(path: Path, meta: dict, columns: dict) -> None:
    path = Path(path)
    names = list(columns)
    arrays = [np.asarray(columns[name], dtype=float) for name in names]
    if path.suffix == ".json":
        write_json(path, {"meta": meta, "columns": {n: [float(v) for v in a] for n, a in zip(names, arrays)}})
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    header = "# " + json.dumps(meta, sort_keys=True) + "\n# columns: " + ",".join(names) + "\n"
    values = np.column_stack(arrays).ravel()
    with path.open("wb") as out:
        out.write(header.encode("utf-8"))
        for start in range(0, values.size, _FORMAT_BLOCK):
            block = values[start:start + _FORMAT_BLOCK]
            out.writelines(_format_values(block, np.arange(start + 1, start + 1 + block.size) % len(names) == 0))


@functools.cache
def _powers_of_ten(window: int) -> np.ndarray:
    """Rows hi, head, tail, lo by column p - 64 window for p = 64 window .. 64 window + 63: 10**p = hi + lo,
    each rounded once from the exact value, and hi = head + tail, its Dekker halves."""
    columns = []
    for p in range(64 * window, 64 * window + 64):
        n, d = (10**p, 1) if p >= 0 else (1, 10**-p)
        hi = n / d
        hn, hd = hi.as_integer_ratio()
        c = 134217729.0 * hi
        head = c - (c - hi)
        columns.append((hi, head, hi - head, (n * hd - hn * d) / (d * hd)))
    return np.array(columns).T.copy()


def _words(chunks) -> np.ndarray:
    return np.frombuffer(b"".join(chunks), dtype=np.uint64)


@functools.cache
def _token_layout() -> tuple:
    """The byte rows of ``_format_values``: which bytes each kind of token keeps, and the words that fill them.

    A row holds every byte a token may need, in six words: 0 '-', 1-5 '0.000', 6 d0, 7 '.'; 8-39 the
    digits d1 .. d16, each followed by '.', four to a word; 40 'e', 41 the exponent's sign, 42 its
    hundreds, 44-45 its tens and units, 46 the separator (43 and 47 are never kept).
    ``keep[notation * 17 + k - 1]`` marks the bytes after the sign of a token of k digits, of one kind
    of notation: 0-20 fixed with the exponent notation - 4, 21 and 22 an exponent of 2 and 3 digits,
    23 zero.  The words come by d0, by each group of four digits, and by 2 (e + 256) + newline; the
    trailing zeros of a group of four digits by the group, 4 for 0000.
    """
    notation = np.arange(24)[:, None, None]
    k = np.arange(1, 18)[None, :, None]
    col = np.arange(48)
    x = notation - 4
    fixed, scientific, zero = notation <= 20, (notation == 21) | (notation == 22), notation == 23
    small = fixed & (x < 0)
    shown = np.where(fixed & (x >= 0), np.maximum(k, x + 1), k)  # the digits written, the integer part's at least
    j = (col - 6) // 2  # in 6-39, the digit of the column or that the point after it follows
    inner = (col >= 6) & (col < 40)
    keep = np.zeros((24, 17, 48), dtype=bool)
    keep |= (col == 1) & (small | zero)
    keep |= ((col == 2) | (col >= 3) & (col <= 5) & (col - 2 <= -x - 1)) & small
    keep |= inner & (col % 2 == 0) & ~zero & (j < shown)
    keep |= inner & (col % 2 == 1) & (fixed & (j == x) | scientific & (j == 0)) & (j + 1 < shown)
    keep |= ((col == 40) | (col == 41) | (col == 44) | (col == 45)) & scientific
    keep |= (col == 42) & (notation == 22)
    keep |= col == 46
    # the words of four digits and their trailing zeros, from those of the pairs 'a.b.' (00 has 2)
    pairs = np.frombuffer(b"".join(b"%d.%d." % divmod(i, 10) for i in range(100)), dtype=np.uint32)
    pair_zeros = [2 - len((b"%02d" % i).rstrip(b"0")) for i in range(100)]
    groups = np.empty((100, 100, 2), dtype=np.uint32)
    groups[..., 0], groups[..., 1] = pairs[:, None], pairs
    group_zeros = np.empty((100, 100), dtype=np.uint8)
    group_zeros[:] = pair_zeros
    group_zeros[:, 0] = [2 + t for t in pair_zeros]
    endings = (b"e%c%d %02d%c " % (b"-+"[e >= 0], abs(e) // 100, abs(e) % 100, separator)
               for e in range(-256, 256) for separator in b",\n")
    return (keep.reshape(-1, 48), _words(b"-0.000%d." % d for d in range(10)), groups.view(np.uint64).ravel(),
            group_zeros.ravel(), _words(endings))


def _decimal_digits(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17 digits D and the exponent e with |v| = D 10**(e - 16) as ``'%.17g'`` rounds them, and a mask
    of the values they are right for.

    D rounds y = |v| 10**(16 - e), formed exactly as a double-double: Dekker's product of |v| with
    10**(16 - e) = hi + lo, plus |v| lo.  Its tail is exact to about 5e-15, so rounding it half-even
    is exact unless its fraction lies within 1e-9 of 1/2.  e is floor(log10 |v|), checked against the
    doubles nearest 10**e and 10**(e + 1); it is one too large, and D below 10**16, only for the double
    nearest 10**e when that lies below it.  D never rounds up to 10**17: a double that close below
    10**(e + 1) is the one nearest it.  Left unmarked, with D = 10**16, are zero, values not finite or
    outside [1e-200, 1e200], fractions that close to 1/2 and a D below 10**16.
    """
    a = np.abs(v)
    ok = (a >= 1e-200) & (a <= 1e200)
    a[~ok] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    # 10**p for the comparisons (p = e - 1 .. e + 1) and the products (p = 16 - e), from p = first on
    low, high = int(e.min()), int(e.max())
    first, last = min(low - 1, 15 - high) // 64 * 64, max(high + 1, 17 - low)
    powers = np.concatenate([_powers_of_ten(window) for window in range(first // 64, last // 64 + 1)], axis=1)
    e -= a < powers[0].take(e - first)
    e += a >= powers[0].take(e + 1 - first)
    hi, hi_head, hi_tail, lo = powers.take(16 - e - first, axis=1)
    c = 134217729.0 * a
    a_head = c - (c - a)
    a_tail = a - a_head
    head = a * hi
    tail = ((a_head * hi_head - head) + a_head * hi_tail + a_tail * hi_head) + a_tail * hi_tail + a * lo
    floor = np.floor(tail)
    fraction = tail - floor
    digits = head.astype(np.int64) + floor.astype(np.int64)
    ok &= (np.abs(fraction - 0.5) > 1e-9) & (digits >= 10**16)
    digits += fraction > 0.5
    digits[~ok] = 10**16
    return digits, e, ok


def _format_values(v: np.ndarray, newline: np.ndarray) -> list[np.ndarray]:
    """The bytes of each value as ``'%.17g' % v``, then a newline where ``newline`` is set and a comma
    elsewhere, in pieces.

    Each token is one row of ``_token_layout``, filled from its ``_decimal_digits``, and the bytes
    its kind keeps are joined by ``np.compress``, 512 rows at a time so that its index array stays
    small.  Zero has a kind of its own; a value with unmarked digits takes Python's ``'%.17g' % v``.
    """
    keep_table, lead, groups, trailing_zeros, ending = _token_layout()
    digits, e, ok = _decimal_digits(v)
    # the four groups of four digits after d0, from the right
    quads = []
    for _ in range(4):
        q = digits // 10**4
        quads.insert(0, digits - q * 10**4)
        digits = q
    rows = np.empty((v.size, 48), dtype=np.uint8)
    words = rows.view(np.uint64)
    words[:, 0] = lead.take(digits)
    for word, quad in enumerate(quads, 1):
        words[:, word] = groups.take(quad)
    words[:, 5] = ending.take(2 * e + newline + 512)
    # k, the digits left when trailing zeros go: a group of 0000 adds four to those of the groups before it
    trailing = trailing_zeros.take(quads[0])
    for quad in quads[1:]:
        trailing = np.where(quad == 0, trailing + 4, trailing_zeros.take(quad))
    k = 17 - trailing
    size = np.abs(e)
    zero = v == 0
    notation = np.where((e >= -4) & (e <= 16), e + 4, np.where(size < 100, 21, 22))
    notation[zero] = 23
    keep = keep_table.take(notation * 17 + k - 1, axis=0)
    keep[:, 0] = np.signbit(v)
    for i in np.flatnonzero(~(ok | zero)).tolist():
        token = ("%.17g" % v[i] + ("\n" if newline[i] else ",")).encode()
        rows[i, :len(token)] = np.frombuffer(token, dtype=np.uint8)
        keep[i] = np.arange(48) < len(token)
    return [np.compress(keep[i:i + 512].ravel(), rows[i:i + 512].ravel()) for i in range(0, v.size, 512)]


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


def write_json(path: Path, payload: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _meta(command: str, config: dict, extra: dict | None = None) -> dict:
    out = {
        "tool": "tlwaves",
        "version": __version__,
        "numpy": np.__version__,
        "command": command,
        "config": config,
    }
    if extra:
        out.update(extra)
    return out


# ----------------------------------------------------------------------
# configuration plumbing


# One entry per setting of a run, by block and key: its flag, the type its --config value
# must have, its default and its help.  A default of None is worked out by _build_run.
_SETTINGS = {
    "params": {
        "gamma": ("--gamma", float, _ELEVATION_PAIR[0], "density ratio rho1/rho2"),
        "delta": ("--delta", float, _ELEVATION_PAIR[1], "depth ratio d1/d2"),
    },
    "grid": {
        "half_length": ("--half-length", float, 128.0, "domain half-length l"),
        "modes": ("--modes", int, 1024, "collocation points N (even)"),
    },
    "solver": {
        "cs": ("--cs", float, None, f"traveling-wave speed (default c_crit + {_REFERENCE_OFFSET:g})"),
        "tol_residual": ("--tol", float, 1e-10, "tolerance of the residual and the update (max norm)"),
        "max_iter": ("--max-iter", int, 500, "iteration cap"),
        "extrapolation": ("--extrapolation", str, "off", "off or mpe:K (default off)"),
        "dealias": ("--dealias", bool, False, "zero-padded quadratic products"),
        "strict": ("--strict", bool, False, "escalate the boundary-decay warning to an error"),
    },
}
# the JSON values a --config file may give a setting of each type; a boolean is never a number
_JSON_TYPES = {float: ((int, float), "a number"), int: (int, "an integer"), bool: (bool, "true or false"),
               str: (str, "a string")}

# the settings each command reads, as blocks of keys: its flags, and the keys its --config may hold
_RUN_KEYS = {block: tuple(entries) for block, entries in _SETTINGS.items()}
# sweep solves at c_crit + each of its offsets, so it takes no cs
_SWEEP_KEYS = {**_RUN_KEYS, "solver": tuple(key for key in _RUN_KEYS["solver"] if key != "cs")}
_ORACLE_KEYS = {"params": ("gamma", "delta"), "solver": ("cs",)}
_DISPERSION_KEYS = {"params": ("gamma", "delta")}
_REPRODUCE_KEYS = {"grid": ("half_length", "modes"), "solver": ("tol_residual",)}


def _load_config_file(path: str | None, keys: dict) -> dict:
    """The blocks of a --config file, each value checked against and converted to its setting's type."""
    if not path:
        return {}
    config = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(config, dict):
        raise InputFormatError(f"config file {path} must hold a JSON object with blocks {list(keys)}")
    for name, block in config.items():
        if name not in keys:
            raise InputFormatError(f"config file {path}: unknown block {name!r}; blocks are {list(keys)}")
        if not isinstance(block, dict):
            raise InputFormatError(f"config file {path}: block {name!r} must be a JSON object")
        unknown = sorted(set(block) - set(keys[name]))
        if unknown:
            raise InputFormatError(
                f"config file {path}: unknown key(s) {unknown} in block {name!r}; it takes {list(keys[name])}"
            )
        for key, value in block.items():
            kind = _SETTINGS[name][key][1]
            types, described = _JSON_TYPES[kind]
            if not isinstance(value, types) or isinstance(value, bool) != (kind is bool):
                raise InputFormatError(f"config file {path}: {name}.{key} must be {described}, got {json.dumps(value)}")
            try:
                block[key] = kind(value)
            except OverflowError:
                raise InputFormatError(f"config file {path}: {name}.{key} must be {described} within float range, "
                                       f"got an integer of {len(str(abs(value)))} digits") from None
    return config


def _parse_extrapolation(text: str) -> int | None:
    if text == "off":
        return None
    if text == "mpe":
        return 6
    if text.startswith("mpe:"):
        try:
            return int(text[len("mpe:"):])
        except ValueError:
            pass
    raise ValueError(f"unknown extrapolation setting {text!r}; use off or mpe:K")


def _build_run(args) -> tuple:
    """Validate every block of the run configuration up front.

    Each setting comes from its flag, else from the --config file, else from its default.
    ``args.settings`` names the settings the command reads: its config file may hold only
    those, and the returned description records only those.  Returns the parameters, the
    grid and solver configuration, and the description.  The grid and configuration are
    built only for a command that reads the grid block, as the commands that solve do;
    ``oracle`` and ``dispersion`` get None for both and read their settings from the
    description.
    """
    keys = args.settings
    filecfg = _load_config_file(getattr(args, "config", None), keys)
    run = {block: {} for block in _SETTINGS}
    for block, entries in _SETTINGS.items():
        for key, (_, _, default, _) in entries.items():
            flag = getattr(args, key, None)
            run[block][key] = filecfg.get(block, {}).get(key, default) if flag is None else flag
    p, g, s = run["params"], run["grid"], run["solver"]
    params = make_parameters(p["gamma"], p["delta"])
    if s["cs"] is None:
        s["cs"] = params.c_crit + _REFERENCE_OFFSET
    grid = config = None
    if "grid" in keys:
        from .grid import SpectralGrid
        from .solver import SolverConfig
        config = SolverConfig(
            speed=s["cs"],
            tol_residual=s["tol_residual"],
            max_iter=s["max_iter"],
            mpe_cycle=_parse_extrapolation(s["extrapolation"]),
            dealias=s["dealias"],
            strict_domain=s["strict"],
        )
        # the solve's arrays (3/2 as many on the padded grid) and the MPE history of K + 2 stacked (zeta, v);
        # a history that alone exceeds the budget is the cycle's fault, unless the grid's alone does too
        n, cycle = g["modes"], config.mpe_cycle
        arrays = n * _MODE_BYTES * (3 if config.dealias else 2) // 2
        history = 0 if cycle is None else (cycle + 2) * 2 * n * 8
        if arrays <= _MEMORY_BUDGET < history:
            _check_memory(history, f"{args.command} --extrapolation mpe:{cycle} with --modes {n}",
                          "lower K in --extrapolation mpe:K")
        _check_memory(arrays + history, f"{args.command} --modes {n}", "lower --modes")
        grid = SpectralGrid(half_length=g["half_length"], n=n)
        s["extrapolation"] = "off" if config.mpe_cycle is None else f"mpe:{config.mpe_cycle}"
    return params, grid, config, {block: {key: run[block][key] for key in keys[block]} for block in keys}


# ----------------------------------------------------------------------
# subcommands


def cmd_solve(args) -> int:
    from . import solver
    from .grid import spectrum_columns
    params, grid, config, described = _build_run(args)
    state, report = solver.solve(grid, params, config)
    meta = _meta("solve", described, {"report": report.to_dict()})
    write_table(Path(args.out), meta, {"x": grid.nodes, "zeta": state.zeta, "v": state.v, "u": state.u})
    if args.spectrum_out:
        write_table(Path(args.spectrum_out), _meta("solve-spectrum", described), spectrum_columns(grid, state.zeta))
    print(
        f"solve: {wave_type(params).value} wave at cs={config.speed:.6g}, "
        f"{report.iterations} iterations, residual {report.residual_history[-1]:.3e}, "
        f"{report.wall_time:.2f} s -> {args.out}"
    )
    return 0


def cmd_sweep(args) -> int:
    from . import analysis, solver
    params, grid, config, described = _build_run(args)
    if args.count < 4:
        raise InsufficientDataError("sweep needs at least 4 speeds for the power fit")
    if not (np.isfinite(args.offset_min) and np.isfinite(args.offset_max)):
        raise ValueError(f"--offset-min and --offset-max must be finite, got {args.offset_min} and {args.offset_max}")
    _check_memory(args.count * _SWEEP_ROW_BYTES, f"sweep --count {args.count}", "lower --count")
    columns = analysis.speed_sweep(solver.solve, grid, params, config,
                                   np.linspace(args.offset_min, args.offset_max, args.count))

    described["sweep"] = {"offset_min": args.offset_min, "offset_max": args.offset_max, "count": args.count}
    meta = _meta("sweep", described)
    out = Path(args.out)
    write_table(out, meta, columns)

    fit = analysis.speed_fit(columns)
    fit_path = out.with_suffix(".fit.json")
    write_json(fit_path, {"meta": meta, "fit": fit.to_dict()})
    print(f"sweep: {args.count} speeds -> {out} (fit R^2 = {fit.r_squared:.6f} -> {fit_path})")
    return 0


def _check_memory(needed: float, run: str, remedy: str) -> None:
    """Raise MemoryError when ``run`` would need more than _MEMORY_BUDGET bytes; ``remedy`` names the flag.

    Checked before anything is allocated: Linux grants an oversized request, then kills
    the process when it touches the pages.
    """
    if needed > _MEMORY_BUDGET:
        # an integer count beyond float range (a 400-digit --modes) reads as inf GiB
        gib = needed / 2**30 if needed < 2.0**1000 else np.inf
        raise MemoryError(f"{run} needs about {gib:.3g} GiB, above the "
                          f"{_MEMORY_BUDGET / 2**30:g} GiB budget; {remedy}")


def cmd_oracle(args) -> int:
    from . import oracle
    params, _, _, described = _build_run(args)
    if not 0.0 < args.dx < np.inf:
        raise ValueError(f"--dx must be positive and finite, got {args.dx}")
    for flag, spacing, per_item in (("--step", args.step, _NODE_BYTES), ("--dx", args.dx, _SAMPLE_BYTES)):
        # the node count bounds the run's time, the sample count its memory; a setting that is not
        # positive and finite is left to the check that names it
        if 0.0 < args.x_max < np.inf and 0.0 < spacing < np.inf:
            _check_memory(args.x_max / spacing * per_item, f"oracle --x-max {args.x_max:g} with {flag} {spacing:g}",
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
    meta = _meta(
        "oracle",
        described,
        {"turning_point": vstar, "saddle_rate": curve.saddle_rate, "energy_max": profile.energy_max},
    )
    write_table(Path(args.out), meta, {"x": xs, "v": v, "v_prime": vp, "zeta": zeta, "u": u})
    print(f"oracle: turning point {vstar:.12g}, energy drift {profile.energy_max:.2e} -> {args.out}")
    return 0


def cmd_dispersion(args) -> int:
    from . import dispersion
    if args.count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    _check_memory(args.count * _ROW_BYTES, f"dispersion --count {args.count}", "lower --count")
    if not (np.isfinite(args.k_min) and np.isfinite(args.k_max)):
        raise ValueError(f"--k-min and --k-max must be finite, got {args.k_min} and {args.k_max}")
    params, _, _, described = _build_run(args)
    symbols = dispersion.DispersionSymbols(params)
    ks = np.linspace(args.k_min, args.k_max, args.count)
    described["dispersion"] = {"k_min": args.k_min, "k_max": args.k_max, "count": args.count}
    meta = _meta("dispersion", described)
    write_table(Path(args.out), meta, {"k": ks, "omega": symbols.omega(ks), "sigma": symbols.sigma(ks)})
    print(f"dispersion: {args.count} wavenumbers -> {args.out}")
    return 0


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


def cmd_analyze(args) -> int:
    from . import analysis
    from .grid import SpectralGrid
    meta_in, cols = read_table(Path(args.infile))
    out = Path(args.out)
    described = {"input": str(args.infile), "source": meta_in.get("config", {})}

    if args.mode == "phase":
        x, v = _profile_values(cols, args.infile, "v")
        write_table(out, _meta("analyze-phase", described), analysis.phase_portrait(v, SpectralGrid.from_nodes(x)))
        print(f"analyze phase: {x.size} samples -> {out}")
        return 0

    x, y = _profile_values(cols, args.infile)
    t, values, fitted, fit = analysis.decay_table(args.mode, x, y, args.window and tuple(args.window),
                                                  source=args.infile)
    label = f"analyze-{args.mode}"
    meta = _meta(label, {**described, "window": list(fit.window)})
    write_table(out, meta, {"x" if args.mode == "decay" else "k": t, "value": values, "fitted": fitted})
    write_json(out.with_suffix(".fit.json"), {"meta": meta, "fit": fit.to_dict()})
    print(f"{label}: c = {fit.coefficients['c']:.6g}, R^2 = {fit.r_squared:.8f} -> {out}")
    return 0


# ----------------------------------------------------------------------
# reproduction targets


def cmd_reproduce(args) -> int:
    from . import analysis, solver
    outdir = Path(args.out_dir)
    targets = _TARGETS if args.target == "all" else (args.target,)
    # the speed is set per wave; building the run here rejects a bad setting before any file is written
    _, grid, config, run = _build_run(args)
    # each distinct (grid, params, config) is solved once per command: fig2a, fig3c, fig4 and
    # fig5/fig6/table1 share the elevation wave at the reference offset, fig2b, fig3c and fig4 the
    # depression wave there, and fig3a and fig3b the sweep.  Callers only read the cached states.
    solve = functools.cache(solver.solve)

    def describe(params, speed=None):
        """The run's grid and tolerance, the wave's params and its one speed, if any, in ``solve``'s shape."""
        return {**run, "params": params_to_config(params),
                "solver": run["solver"] if speed is None else {**run["solver"], "cs": speed}}

    def wave(pair, offset):
        """The state and report of the wave of ``pair`` at c_crit + offset, and its description."""
        params = make_parameters(*pair)
        wave_config = dataclasses.replace(config, speed=params.c_crit + offset)
        return (*solve(grid, params, wave_config), describe(params, wave_config.speed))

    # the reference elevation wave, whose decay fig5, fig6 and table1 describe
    elevation = functools.partial(wave, _ELEVATION_PAIR, _REFERENCE_OFFSET)

    def reported():
        """The header entry of the reference elevation wave's solve report."""
        return {"report": elevation()[1].to_dict()}

    @functools.cache
    def decay(mode):
        return analysis.decay_table(mode, grid.nodes, elevation()[0].zeta)

    def save(name, write, *data):
        path = outdir / name
        write(path, *data)
        print(f"reproduce: wrote {path}")

    def profiles(target, pair):
        for offset in _FIG2_OFFSETS:
            state, report, described = wave(pair, offset)
            meta = _meta(f"reproduce-{target}", described, {"report": report.to_dict()})
            save(f"{target}_offset{offset:g}.csv", write_table, meta,
                 {"x": grid.nodes, "zeta": state.zeta, "v": state.v, "u": state.u})

    def sweep():
        """The columns of the sweep fig3a and fig3b describe, and its description."""
        params = make_parameters(*_ELEVATION_PAIR)
        columns = analysis.speed_sweep(solve, grid, params, config, np.linspace(*_SWEEP_OFFSETS))
        return columns, describe(params)

    if "fig2a" in targets:
        profiles("fig2a", _ELEVATION_PAIR)
    if "fig2b" in targets:
        profiles("fig2b", _DEPRESSION_PAIR)
    if "fig3a" in targets:
        columns, described = sweep()
        save("fig3a_amplitudes.csv", write_table, _meta("reproduce-fig3a", described), columns)
    if "fig3b" in targets:
        columns, described = sweep()
        save("fig3b_fit.json", write_json, {"meta": _meta("reproduce-fig3b", described),
                                            "fit": analysis.speed_fit(columns).to_dict()})
    if "fig3c" in targets:
        gamma = _ELEVATION_PAIR[0]
        columns, skipped = analysis.amplitude_vs_k_study(gamma, _FIG3C_DELTAS, _REFERENCE_OFFSET, grid, config, solve)
        meta = _meta("reproduce-fig3c", {**run, "gamma": gamma, "deltas": list(_FIG3C_DELTAS),
                                          "offset": _REFERENCE_OFFSET}, {"skipped": skipped})
        save("fig3c_amplitude_vs_k.csv", write_table, meta, columns)
    if "fig4" in targets:
        for label, pair in (("elevation", _ELEVATION_PAIR), ("depression", _DEPRESSION_PAIR)):
            state, report, described = wave(pair, _REFERENCE_OFFSET)
            save(f"fig4_{label}.csv", write_table, _meta("reproduce-fig4", described, {"report": report.to_dict()}),
                 analysis.phase_portrait(state.v, grid))
    if "fig5" in targets:
        state, _, described = elevation()
        kp, mags = analysis.spectrum_magnitudes(grid, state.zeta)
        save("fig5a_spectrum.csv", write_table, _meta("reproduce-fig5a", described, reported()),
             {"k": kp, "magnitude": mags})
        x, zeta, fitted, fit = decay("decay")
        save("fig5b_profile_fit.csv", write_table,
             _meta("reproduce-fig5b", described, {"fit": fit.to_dict(), **reported()}),
             {"x": x, "zeta": zeta, "fitted": fitted})
    if "fig6" in targets:
        kp, mags, fitted, fit = decay("spectrum")
        save("fig6_spectrum_fit.csv", write_table,
             _meta("reproduce-fig6", elevation()[2], {"fit": fit.to_dict(), **reported()}),
             {"k": kp, "magnitude": mags, "fitted": fitted})
    if "table1" in targets:
        save("table1.json", write_json, {
            "meta": _meta("reproduce-table1", elevation()[2], reported()),
            "space_fit": decay("decay")[3].to_dict(),
            "spectrum_fit": decay("spectrum")[3].to_dict(),
        })
    return 0


# ----------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors raise InputFormatError (exit 1, one JSON line) instead of exiting 2, the
    code of non-convergence, and which reads ``-1e300`` as a value, as argparse does ``-1`` and ``-1.5``.
    ``add_subparsers`` builds each command's parser with this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message: str) -> NoReturn:
        raise InputFormatError(f"{self.prog}: {message}")


def _add_settings(p: argparse.ArgumentParser, keys: dict, config_file: bool = True) -> None:
    """The flags of the settings ``keys`` names, and --config unless ``config_file`` is false."""
    if config_file:
        p.add_argument("--config", help="JSON config file; flags override its blocks")
    for block, names in keys.items():
        for key in names:
            flag, kind, _, text = _SETTINGS[block][key]
            typed = {"action": "store_const", "const": True} if kind is bool else {"type": kind}
            p.add_argument(flag, dest=key, help=text, **typed)
    p.set_defaults(settings=keys)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tlwaves", description="Solitary waves of a two-layer internal wave model")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compute one solitary wave profile")
    _add_settings(p, _RUN_KEYS)
    p.add_argument("--out", required=True, help="output file (.csv or .json)")
    p.add_argument("--spectrum-out", dest="spectrum_out",
                   help="also write the (k, k', re, im) rfft modes k = 0..N/2 of zeta")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="speed sweep with amplitude extraction and power fit")
    _add_settings(p, _SWEEP_KEYS)
    p.add_argument("--offset-min", type=float, default=_SWEEP_OFFSETS[0])
    p.add_argument("--offset-max", type=float, default=_SWEEP_OFFSETS[1])
    p.add_argument("--count", type=int, default=_SWEEP_OFFSETS[2])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("oracle", help="ODE-based solitary profile (independent of the spectral solver)")
    _add_settings(p, _ORACLE_KEYS)
    p.add_argument("--x-max", dest="x_max", type=float, default=60.0)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--dx", type=float, default=0.25, help="output sampling interval")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("dispersion", help="linear symbols omega(k), sigma(k) over a wavenumber range")
    _add_settings(p, _DISPERSION_KEYS)
    p.add_argument("--k-min", dest="k_min", type=float, default=0.0)
    p.add_argument("--k-max", dest="k_max", type=float, default=50.0)
    p.add_argument("--count", type=int, default=501)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dispersion)

    p = sub.add_parser("analyze", help="fits and portraits from profile files")
    p.add_argument("mode", choices=["decay", "spectrum", "phase"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--window", type=float, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("reproduce", help="regenerate the reference figure and table data")
    p.add_argument("target", choices=[*_TARGETS, "all"])
    p.add_argument("--out-dir", dest="out_dir", default="results")
    _add_settings(p, _REPRODUCE_KEYS, config_file=False)
    p.set_defaults(func=cmd_reproduce)

    return parser


def _stderr_record(kind: str, name: str, message) -> None:
    print(json.dumps({kind: name, "message": str(message)}), file=sys.stderr)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        with warnings.catch_warnings():
            warnings.showwarning = lambda message, category, *_: _stderr_record("warning", category.__name__, message)
            return args.func(args)
    except NotConvergedError as exc:
        _stderr_record("error", type(exc).__name__, exc)
        return 2
    except (WaveError, ValueError, OSError, MemoryError) as exc:
        _stderr_record("error", type(exc).__name__, exc)
        return 1


def run(argv=None) -> NoReturn:
    """The process entry: main, then exit with a frozen heap (see the module docstring)."""
    code = main(argv)
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
