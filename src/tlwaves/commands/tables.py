"""Output files: CSV tables with a JSON metadata header, and JSON documents.

A CSV table carries its header in leading comment lines, then one row per
line of 17-significant-digit floats (lossless for binary64); an output path
ending in ``.json`` gets a single JSON document instead.  Headers record the
configuration and package versions but no timings, so repeated runs with
the same configuration produce byte-identical files; wall-clock numbers go
to the console instead.

A CSV body is written in blocks of ``_FORMAT_BLOCK`` values, each formatted
by numpy passes that give the bytes of ``'%.17g' % x`` for every double
(``_format_values``); the few values this cannot settle (zero aside, those
not finite, outside [1e-200, 1e200] or within 1e-9 of a rounding tie) take
Python's ``'%.17g' % x``.

Every command writes through this module; only ``analyze`` reads a table,
so the reader lives with it (``commands.analyze.read_table``).
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import numpy as np

from .. import __version__

# values per block of the CSV formatter
_FORMAT_BLOCK = 1536


def meta(command: str, config: dict, extra: dict | None = None) -> dict:
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


def write_json(path: Path, payload: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")
