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

Each field is written in place into the row-major (values, _WIDTH) output as
little-endian 32-bit words: [sign, NUL, d0, point], or [sign, '0', '.', d0] for
x in [-4, -1], then q's four 4-digit groups after d0, each a table lookup. A
group followed only by 0000 groups comes from the table's second half, where its
trailing zeros are NUL, and then the point is dropped too. That is the text of
x = 0 and -1. Any other x is a byte move on it: over whole-chunk slices for the
x most common in every 64th value, over gathered rows for the others. The point
moves right past x digits (x >= 1), -x - 1 zeros go in before d0 (x in
[-4, -2]), or `e-05` or `e-06` goes into bytes 20-23. The field ends in padding
(NUL, or spaces after a fallback text) and a comma; `join`, the one loop over
CSV chunks, puts a newline over each line's last byte and deletes the padding.
"""

from __future__ import annotations

import functools

import numpy as np

from .model import _block_rows

# the longest "%.17g" text is 24 bytes (-2.2250738585072014e-308), then a comma
_WIDTH = 25

_POW10 = np.array([float(10**k) for k in range(23)])  # exact doubles up to 1e22


@functools.cache  # built on first use: a run that writes no CSV never holds them
def _group_tables():
    """Words of four ASCII bytes in text order, read as little-endian uint32: each 4-digit group
    g, then g with its trailing zeros as NUL at 10,000 + g; and word 0 of a field, at entry
    d0 + 10 * (no digit after d0 is shown) + 20 * (x in [-4, -1]) + 40 * (v < 0)."""
    chars = (np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
    shown = np.logical_or.accumulate(chars[:, ::-1] != ord("0"), axis=1)[:, ::-1]
    heads = [[sign, ord("0"), ord("."), digit] if lead else [sign, 0, digit, ord(".") * (1 - cut)]
             for sign in (0, ord("-")) for lead in (0, 1) for cut in (0, 1) for digit in b"0123456789"]
    return np.concatenate([chars, chars * shown]).view("<u4")[:, 0], np.array(heads, np.uint8).view("<u4")[:, 0]


def _scaled(a, x):
    """(p, err) with p + err == a * 10**(16 - x) exactly, for x in [-6, 16] (Dekker); a is overwritten."""
    b = _POW10.take((16 - x).astype(np.intp), mode="clip")
    p = a * b
    ah, bh = a * 134217729.0, b * 134217729.0  # 2**27 + 1: Veltkamp's split into 26-bit halves
    ah -= ah - a
    bh -= bh - b
    a -= ah  # a and b become the low halves al and bl
    b -= bh
    err = ah * bh - p  # then + ah * bl + al * bh + al * bl, in that order, in place
    err += np.multiply(ah, b, out=ah)
    err += np.multiply(bh, a, out=bh)
    err += np.multiply(a, b, out=a)
    return p, err


def _divmod(a, d):
    """a // d and a % d for nonnegative integers: numpy's divmod has no fast loop for them."""
    quotient = a // d
    return quotient, a - quotient * d


def _significand(flat):
    """(x, ok, digits): x = floor(log10 |v|) and the digits of its 17-digit significand q
    where ok, else x = -7: uint32 columns of q's first digit, then of its four 4-digit groups."""
    with np.errstate(all="ignore"):
        # numpy's log10 may be an ulp off and differ by host (its SIMD loops), but no byte
        # depends on it: every x is tested below, and a value whose x fails goes to `%`
        x = np.floor(np.log10(np.abs(flat)))  # not finite for 0, nan, inf: they fail the test below
        p, err = _scaled(np.abs(flat), x)
        # x is the exponent iff 1e16 <= p + err and q = p + r < 1e17; next to a power of
        # ten, log10 can be one off or q can round up to 1e17: those go to the fallback
        r = np.rint(err)
        ok = ((x >= -6) & (x <= 16) & ((p > 1e16) | ((p == 1e16) & (err >= 0)))
              & ((p < 1e17) | ((p == 1e17) & (r < 0))))
        p[~ok], r[~ok], x[~ok] = 1e16, 0.0, -7.0
    q = p.astype(np.int64)
    q += r.astype(np.int8)  # |r| <= 8, half an ulp of 1e17
    hi, lo = (h.astype("<u4") for h in _divmod(q, 10**8))  # then uint32: fast loops, half the bytes
    d0, hi = _divmod(hi, np.uint32(10**8))
    return x.astype(np.int8), ok, (d0, *_divmod(hi, np.uint32(10**4)), *_divmod(lo, np.uint32(10**4)))


def _move(rows, x, at=slice(None)):
    """Move fields rows[at] of exponent x from the layout of x = 0 or -1 to their own."""
    if x >= 1:  # the point moves right past x digits, which keep their zeros
        point = (rows[at, 4 + x] != 0) * ord(".")  # kept if a digit after it is
        rows[at, 3:3 + x] = rows[at, 4:4 + x] | ord("0")
        rows[at, 3 + x] = point
    elif -4 <= x <= -2:  # -x - 1 zeros go in before d0
        rows[at, 2 - x:19 - x] = rows[at, 3:20]
        rows[at, 3:2 - x] = ord("0")
    elif x in (-5, -6):
        rows[at, 20:24] = np.frombuffer(b"e-0%d" % -x, dtype=np.uint8)


def fields(values) -> np.ndarray:
    """The `"%.17g"` text of each value as a field ending in a comma: uint8, shape values.shape + (_WIDTH,)."""
    flat = np.asarray(values, dtype=float).ravel()
    words, heads = _group_tables()
    x, ok, (d0, *groups) = _significand(flat)
    out = np.empty((len(flat), _WIDTH), dtype=np.uint8)
    out[:, 17:].view("<u8")[:, 0] = ord(",") << 56  # bytes 20-23 NUL, then the comma
    word = out[:, :20].view("<u4")  # word k is bytes 4k to 4k + 3
    cut = np.ones(len(flat), dtype=bool)  # every group after this one is 0000
    for k in range(4, 0, -1):  # trailing zeros are cut, up to the last nonzero digit
        g = groups[k - 1].astype(np.intp)
        np.add(g, 10_000, out=g, where=cut)
        word[:, k] = words.take(g)
        cut &= groups[k - 1] == 0
    head = d0.astype(np.uint8)
    for on, step in ((cut, 10), ((x < 0) & (x >= -4), 20), (flat < 0, 40)):
        head += on.view(np.uint8) * np.uint8(step)
    word[:, 0] = heads.take(head.astype(np.intp))
    # x = 0 and -1 are done; the most common x in every 64th value moves over the whole chunk, the rest in a copy
    major = int(np.bincount(x[::64] + 7, minlength=24).argmax()) - 7
    at = np.flatnonzero(ok & (x != major) & ((x < -1) | (x > 0) | (major not in (-7, -1, 0))))
    rows, xs = out[at], x[at]
    _move(out, major)  # none for x = -7, -1 or 0
    for c in np.unique(xs).tolist():
        _move(rows, c, np.flatnonzero(xs == c))
    out[at] = rows
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
