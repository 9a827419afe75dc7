"""Rows of the trial CSV, "%d,%.17g,%.17g", written in bounded chunks by
vectorized exact arithmetic.

The fast path covers 1e-4 <= |v| < 1e16, where %.17g prints fixed notation.
It lays each value out as the field ",[sign][P].[P]", P being "0000" and the
value's 17 significant digits, and keeps the bytes %.17g prints: the integer
part from the first copy of P, the fraction from the second.  A row is "[-]1",
two fields and a newline.  A row holding any other value (zero, below 1e-4,
from 1e16 up, infinite or nan) is formatted with CSV_ROW itself.

`sampler.write_trials_csv` imports this module on its first call, so
``import cheshire`` neither compiles it nor builds its tables.
"""

from __future__ import annotations

import numpy as np

# one trial-CSV row: the fast path writes its bytes, and the rows it does not
# cover are formatted with it
CSV_ROW = "%d,%.17g,%.17g\n"
# rows per chunk: the chunk's byte buffer and keep mask take 0.76 MB each
CSV_CHUNK_ROWS = 1 << 13

_FIELD = 45
_ROW_TEMPLATE = np.frombuffer(b"-1" + (b",-" + b"0" * 21 + b"." + b"0" * 21) * 2 + b"\n",
                              dtype=np.uint8)
_POW10 = np.array([float(10 ** k) for k in range(23)])  # exact doubles


def _group_digits() -> np.ndarray:
    """The four ASCII digits of each of 0000 ... 9999, each as one opaque
    item so that a gather moves whole groups."""
    digits = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    for j in range(4):
        digits[..., j] = np.arange(ord("0"), ord("9") + 1).reshape((10,) + (1,) * (3 - j))
    return digits.view("V4").reshape(-1)


def _keep_table() -> np.ndarray:
    """Item (neg * 21 + E + 4) * 17 + t: which bytes of the field layout
    %.17g prints for a value of sign neg and decimal exponent E whose 17
    digits end in t zeros."""
    col = np.arange(_FIELD)
    neg = np.arange(2)[:, None, None, None]
    e = np.arange(-4, 17)[:, None, None]
    t = np.arange(17)[:, None]
    integer = (col >= 6 - (e < 0)) & (col <= 6 + np.maximum(e, -1))
    fraction = (col >= 29 + e) & (col <= 44 - t)
    dot = (col == 23) & (e + t <= 15)
    keep = (col == 0) | ((col == 1) & (neg == 1)) | integer | fraction | dot
    return keep.reshape(-1, _FIELD).view(f"V{_FIELD}").reshape(-1)


_GROUP_DIGITS = _group_digits()
_KEEP = _keep_table()


def _split(a):
    """Veltkamp's split of a into two halves of 26 significant bits."""
    c = 134217729.0 * a  # 2**27 + 1
    high = c - (c - a)
    return high, a - high


def _scaled(a: np.ndarray, k: np.ndarray):
    """(hi, lo) with hi + lo = a * 10**k exactly (Dekker's two-product)."""
    b = _POW10[k]
    (a_hi, a_lo), (b_hi, b_lo) = _split(a), _split(b)
    hi = a * b
    return hi, ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _digit_groups(a: np.ndarray):
    """(E, groups) for 1e-4 <= a < 1e16: the 17 significant digits of a,
    rounded half to even as %.17g rounds them, as five groups (the first
    digit, then four groups of four), and E their decimal exponent."""
    e = np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _scaled(a, 16 - e)
    # log10 can miss the decade by one next to a power of ten; the exact
    # hi + lo decides
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))
    wrong = below | above
    if wrong.any():
        e += above
        e -= below
        hi[wrong], lo[wrong] = _scaled(a[wrong], 16 - e[wrong])
    # hi >= 2**53 is even, so rounding lo half to even rounds N half to even.
    # N stays below 10**17: scaled so, the largest double below any 10**(E+1)
    # falls at least 8 short of it.
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    top, low = np.divmod(n, 10 ** 8)
    groups = np.empty(a.shape + (5,), dtype=np.int32)
    head, groups[..., 2] = np.divmod(top.astype(np.int32), 10 ** 4)
    groups[..., 0], groups[..., 1] = np.divmod(head, 10 ** 4)
    groups[..., 3], groups[..., 4] = np.divmod(low.astype(np.int32), 10 ** 4)
    return e, groups


def _lay_out(buf, mask, values) -> np.ndarray:
    """Write the fast layout of each value into its row of `buf` and the
    bytes %.17g keeps of it into `mask`; return which values it covers."""
    rows = values.shape[0]
    size = np.abs(values)
    fast = (size >= 1e-4) & (size < 1e16)
    size[~fast] = 1.0  # a stand-in: rows with such values fall back
    e, groups = _digit_groups(size)
    fields = buf[:, 2:2 + 2 * _FIELD].reshape(rows, 2, _FIELD)
    fields[..., 3:23] = fields[..., 25:45] = (
        np.take(_GROUP_DIGITS, groups).view(np.uint8).reshape(rows, 2, 20))
    # the first digit is nonzero, so argmax finds the last nonzero digit
    trailing = np.argmax(fields[..., 22:2:-1] != ord("0"), axis=-1)
    keep = np.take(_KEEP, (np.signbit(values) * 21 + e + 4) * 17 + trailing)
    mask[:, 2:2 + 2 * _FIELD].reshape(rows, 2, _FIELD)[...] = keep.view(bool).reshape(rows, 2, _FIELD)
    return fast


def _write_chunk(fh, buf, mask, tau, x, y) -> None:
    """Write the rows of one chunk, `buf` and `mask` being its rows of the
    writer's buffers."""
    fast = _lay_out(buf, mask, np.stack((x, y), axis=1))
    mask[:, 0] = tau < 0
    mask[:, 1] = mask[:, -1] = True
    slow = np.flatnonzero(~fast.all(axis=1))
    if slow.size == 0:
        fh.write(buf[mask])
        return
    # a slow row keeps no bytes, so its line goes where its row ends in `out`
    mask[slow] = False
    out = buf[mask]
    ends = np.cumsum(np.count_nonzero(mask, axis=1))[slow]
    pieces = []
    start = 0
    for end, row in zip(ends.tolist(), zip(tau[slow].tolist(), x[slow].tolist(), y[slow].tolist())):
        pieces += (out[start:end], (CSV_ROW % row).encode("ascii"))
        start = end
    pieces.append(out[start:])
    fh.writelines(pieces)


def write_rows(fh, tau: np.ndarray, x: np.ndarray, y: np.ndarray) -> None:
    """Write one CSV_ROW line per trial to the binary file `fh`."""
    n = tau.size
    buf = np.tile(_ROW_TEMPLATE, (min(n, CSV_CHUNK_ROWS), 1))
    mask = np.empty(buf.shape, dtype=bool)
    for start in range(0, n, CSV_CHUNK_ROWS):
        sl = slice(start, start + CSV_CHUNK_ROWS)
        rows = min(CSV_CHUNK_ROWS, n - start)
        _write_chunk(fh, buf[:rows], mask[:rows], tau[sl], x[sl], y[sl])
