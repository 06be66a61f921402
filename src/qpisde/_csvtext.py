"""CSV text of float arrays, each value written exactly as `"%.17g" % v`.

The kernel builds the text of a whole array at once. Let x = floor(log10 |v|).
For x in [-6, 16] the power 10**(16 - x) is an exact double, so Dekker's
two-product (1971) gives |v| * 10**(16 - x) exactly as p + err, with |err| at
most half an ulp of p. When x is the decimal exponent of v, p is an even
integer in [1e16, 1e17], so rounding err half to even rounds p + err half to
even, as Python's dtoa does: q = p + rint(err) is the correctly rounded
17-digit significand, and its digits are laid out by the "%g" rule for x.
Every other value (0, nan, inf, subnormals, |v| below ~1e-6 or from 1e17 up,
and the rare value next to a power of ten for which x is not the exponent)
goes through `"%.17g" %` itself, so the reference is also the fallback.

Text is laid out in a plane, uint8 of shape (_WIDTH, values), whose row j
holds byte j of every field; the layout of exponent x says what: a digit of
the significand (NUL if a trailing zero after the point), the sign or point
(NUL if absent), or a constant byte ('0', '.', 'e', '-', '5', '6', padding).
A chunk is laid out whole in the layout of its most common x, one table
lookup, copy or fill per row; values of any other x get planes of their own.
A field is _WIDTH bytes: the text, padding bytes around it (NUL, or spaces after
a fallback text; a number's text holds none) and a comma as its last byte. `join`
is the one loop over CSV chunks: it ends each line with a newline in place of its
last byte, deletes the padding and yields the text in ASCII chunks, never one buffer.
"""

from __future__ import annotations

import functools

import numpy as np

# values per block of batched work (path blocks, region_scan's mu rows, the CSV writers' chunks)
_BATCH_VALUES = 1 << 16


def _block_rows(values_per_row: int) -> int:
    """Rows in a block of batched work: as many as hold _BATCH_VALUES values, at least one."""
    return max(1, _BATCH_VALUES // values_per_row)

# the longest "%.17g" text is 24 bytes (-2.2250738585072014e-308), then a comma
_WIDTH = 25

_POW10 = np.array([float(10**k) for k in range(23)])  # exact doubles up to 1e22


@functools.cache  # built on first use: a run that writes no CSV never holds them
def _group_tables():
    """For each 4-digit group 0000-9999: the ASCII of its digit i, as row i of a
    (4, 10000) table, and the position (1-4) of its last nonzero digit, -64 for 0000."""
    digits = np.arange(10_000) // np.array([[1000], [100], [10], [1]]) % 10
    last = np.where(digits.any(0), 4 - (digits[::-1] != 0).argmax(0), -64)
    return (digits + ord("0")).astype(np.uint8), last.astype(np.int8)


# a field byte holds digit 0-16 of the significand, the sign, the point, or a constant
_SIGN, _DOT, _NUL, _CONSTANTS = 17, 18, 19, b"\0" b"0.e-56,"  # constants from _NUL on


def _layout(x):
    """What each field byte holds, for exponent x in [-6, 16]."""
    zero, point, e, minus, five, _, comma = range(_NUL + 1, _NUL + 8)
    if x >= 0:  # 123.45
        text = [*range(x + 1), _DOT, *range(x + 1, 17)]
    elif x >= -4:  # 0.0012345
        text = [zero, point] + [zero] * (-x - 1) + [*range(17)]
    else:  # 1.2345e-05
        text = [0, _DOT, *range(1, 17), e, minus, zero, five + (-5 - x)]
    return [_SIGN] + text + [_NUL] * (_WIDTH - 2 - len(text)) + [comma]


_LAYOUTS = [_layout(x) for x in range(-6, 17)]


def _plane(x, columns):
    """The fields of values of exponent x as a plane, from their columns: digit groups
    (digit 0 as 000d, then 4 digits each), count of digits shown, sign and point."""
    digits, _ = _group_tables()
    *groups, shown, sign, dot = columns
    plane = np.empty((_WIDTH, len(shown)), dtype=np.uint8)
    for row, s in zip(plane, _LAYOUTS[x + 6]):
        if s < _SIGN:  # digit s: position (s + 3) % 4 of group (s + 3) // 4
            np.take(digits[(s + 3) % 4], groups[(s + 3) // 4], out=row, mode="clip")
            if s > x:  # after the point: NUL if it is a trailing zero
                row *= shown > s
        else:
            row[...] = (sign, dot, *_CONSTANTS)[s - _SIGN]
    return plane


def _scaled(a, x):
    """(p, err) with p + err == a * 10**(16 - x) exactly, for x in [-6, 16] (Dekker)."""
    b = _POW10.take((16 - x).astype(np.intp), mode="clip")
    p = a * b
    ca, cb = a * 134217729.0, b * 134217729.0  # 2**27 + 1: Veltkamp's split into 26-bit halves
    ah, bh = ca - (ca - a), cb - (cb - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _significand(flat):
    """(x, ok, q): x = floor(log10 |v|) and q its 17-digit significand where ok, else x = -7."""
    with np.errstate(all="ignore"):  # 0, nan and inf fail the range test below
        a = np.abs(flat)
        lg = np.log10(a)
        x = np.where(np.isfinite(lg), np.floor(lg), 99.0)
        p, err = _scaled(a, x)
        r = np.rint(err)
        # x is the exponent iff 1e16 <= p + err and q = p + r < 1e17; next to a power of
        # ten, log10 can be one off or q can round up to 1e17: those go to the fallback
        ok = ((x >= -6) & (x <= 16) & ((p > 1e16) | ((p == 1e16) & (err >= 0)))
              & ((p < 1e17) | ((p == 1e17) & (r < 0))))
        p, r, x = np.where(ok, p, 1e16), np.where(ok, r, 0.0), np.where(ok, x, -7.0).astype(np.int8)
    return x, ok, p.astype(np.int64) + r.astype(np.int64)


def fields(values) -> np.ndarray:
    """The `"%.17g"` text of each value as a field ending in a comma: uint8, shape values.shape + (_WIDTH,)."""
    flat = np.asarray(values, dtype=float).ravel()
    _, last4 = _group_tables()
    x, ok, q = _significand(flat)
    d0, q = np.divmod(q, 10**16)
    hi, lo = np.divmod(q, 10**8)
    groups = np.divmod(hi, 10**4) + np.divmod(lo, 10**4)
    nd = np.ones(len(flat), dtype=np.int8)  # significant digits, trailing zeros dropped
    for k, group in enumerate(groups):
        np.maximum(nd, last4.take(group, mode="clip") + (4 * k + 1), out=nd)
    # trailing zeros after the decimal point are dropped, those before it kept
    shown = np.maximum(nd, x + 1)
    sign = (flat < 0).view(np.uint8) * ord("-")
    dot = (nd > np.maximum(x, 0) + 1).view(np.uint8) * ord(".")
    columns = (d0, *groups, shown, sign, dot)
    cls = x + 6  # -1 for the fallback
    counts = np.bincount(cls + 1, minlength=24)[1:]
    major = int(counts.argmax())
    out = np.empty((len(flat), _WIDTH), dtype=np.uint8)
    out[...] = _plane(major - 6, columns).T  # every value, in the layout of the most common x
    for c in np.flatnonzero(counts).tolist():
        if c != major:
            at = np.flatnonzero(cls == c)
            out[at] = _plane(c - 6, [col[at] for col in columns]).T
    slow = np.flatnonzero(~ok)
    if slow.size:  # one % for all of them, each padded with spaces to _WIDTH - 1 bytes, then a comma
        text = ("%-24.17g," * slow.size % tuple(flat[slow].tolist())).encode("ascii")
        out[slow] = np.frombuffer(text, dtype=np.uint8).reshape(-1, _WIDTH)
    return out.reshape(np.shape(values) + (_WIDTH,))


def join(header: str, n_rows: int, n_values: int, block):
    """Yield a CSV of n_rows rows of n_values values each as ASCII bytes: the
    header line, then one item per chunk of rows, each built when it is asked for.

    block(rows) gives the lines of a slice of rows: uint8 whose last axis is one
    line, fields as `fields` makes them end to end; the newline goes over its last
    byte. It is called on consecutive slices of _block_rows(n_values) rows,
    bounding the memory.
    """
    yield (header + "\n").encode("ascii")
    step = _block_rows(n_values)
    for start in range(0, n_rows, step):
        chunk = block(slice(start, min(start + step, n_rows)))
        chunk[..., -1] = ord("\n")
        yield chunk.tobytes().translate(None, b"\0 ")
