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

A field is _WIDTH bytes: the text, padding bytes anywhere around it (NUL,
or spaces after a fallback text), and a last byte left for the separator.
`join` deletes the padding; the text of a number never holds a space.
"""

from __future__ import annotations

import functools

import numpy as np

# values per block of batched array work (the path blocks of convergence_study,
# the row chunks of `join`); bounds its working memory
_BATCH_VALUES = 1 << 16

# the longest "%.17g" text is 24 bytes (-2.2250738585072014e-308), then a separator
_WIDTH = 25

_POW10 = np.array([float(10**k) for k in range(23)])  # exact doubles up to 1e22


@functools.cache  # built on first use: a run that writes no CSV never holds them
def _group_tables():
    """For each 4-digit group 0000-9999: its ASCII digits as one uint32, and the
    position (1-4) of its last nonzero digit, -inf for 0000. Group 100 * i + j
    is the digit pair i followed by the digit pair j."""
    pair = np.frombuffer(b"".join(b"%02d" % k for k in range(100)), dtype=np.uint8).reshape(100, 2)
    text = np.empty((100, 100, 4), dtype=np.uint8)
    text[:, :, :2], text[:, :, 2:] = pair[:, None], pair[None, :]
    last = np.array([2.0 if k % 10 else 1.0 if k else -np.inf for k in range(100)])
    return text.view(np.uint32).ravel(), np.where(last > 0, last + 2, last[:, None]).ravel()


# '0' in the last 4 - c digits of a group: subtracted, it drops those zeros
_ZERO_TAIL = np.frombuffer(b"".join(b"\0" * c + b"0" * (4 - c) for c in range(5)), dtype=np.uint32)

# Per-value source columns: digits 1-16 (four uint32 groups), digit 0, the
# sign, the decimal point when a digit follows it, NUL, then constant text.
_D0, _SIGN, _DOT, _NUL, _CONST = 16, 17, 18, 19, 20
_CONSTANTS = np.frombuffer(b"0.e-56", dtype=np.uint8)
_SRC_WIDTH = 28  # a multiple of 4, for the uint32 view


def _layouts():
    """The source column of each field byte, for each exponent x in [-6, 16]."""
    zero, point, e, minus, five = range(_CONST, _CONST + 5)
    digits = [_D0] + list(range(16))
    table = []
    for x in range(-6, 17):
        if x >= 0:  # 123.45
            text = digits[:x + 1] + [_DOT] + digits[x + 1:]
        elif x >= -4:  # 0.0012345
            text = [zero, point] + [zero] * (-x - 1) + digits
        else:  # 1.2345e-05
            text = digits[:1] + [_DOT] + digits[1:] + [e, minus, zero, five + (-5 - x)]
        table.append([_SIGN] + text + [_NUL] * (_WIDTH - 1 - len(text)))
    return np.array(table)


_LAYOUT = _layouts()


def _split(a):
    """Veltkamp's split: a == hi + lo, each with at most 26 significant bits."""
    c = a * 134217729.0  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _scaled(a, x):
    """(p, err) with p + err == a * 10**(16 - x) exactly, for x in [-6, 16]."""
    b = _POW10.take((16 - x).astype(np.intp), mode="clip")
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def fields(values) -> np.ndarray:
    """The `"%.17g"` text of each value as a field: uint8, shape values.shape + (_WIDTH,)."""
    v = np.asarray(values, dtype=float)
    out = np.empty(v.shape + (_WIDTH,), dtype=np.uint8)
    v, rows = v.ravel(), out.reshape(-1, _WIDTH)
    with np.errstate(all="ignore"):  # 0, nan and inf fail the range test below
        a = np.abs(v)
        lg = np.log10(a)
        x = np.where(np.isfinite(lg), np.floor(lg), 99.0)
        p, err = _scaled(a, x)
        r = np.rint(err)
        # x is the exponent iff 1e16 <= p + err and q = p + r < 1e17. Next to a
        # power of ten, log10 can be one off or q can round up to 1e17: such
        # values go to the fallback
        ok = ((x >= -6) & (x <= 16) & ((p > 1e16) | ((p == 1e16) & (err >= 0)))
              & ((p < 1e17) | ((p == 1e17) & (r < 0))))
        p, r = np.where(ok, p, 1e16), np.where(ok, r, 0.0)
    q = p.astype(np.int64) + r.astype(np.int64)

    src = np.zeros((len(v), _SRC_WIDTH), dtype=np.uint8)
    digit4, last4 = _group_tables()
    d0, q = np.divmod(q, 10**16)
    src[:, _D0] = d0 + ord("0")
    hi, lo = np.divmod(q, 10**8)
    groups = np.divmod(hi, 10**4) + np.divmod(lo, 10**4)
    nd = np.ones(len(v))  # significant digits, trailing zeros dropped
    for k, group in enumerate(groups):
        np.maximum(nd, last4[group] + 4 * k + 1, out=nd)
    # trailing zeros after the decimal point are dropped, those before it kept
    shown = np.maximum(nd, x + 1)
    for k, group in enumerate(groups):
        kept = np.clip(shown - 4 * k - 1, 0, 4).astype(np.intp)
        src.view(np.uint32)[:, k] = digit4[group] - _ZERO_TAIL[kept]
    src[:, _SIGN] = np.where(v < 0, ord("-"), 0)
    src[:, _DOT] = np.where(nd > np.maximum(x, 0) + 1, ord("."), 0)
    src[:, _CONST:_CONST + len(_CONSTANTS)] = _CONSTANTS
    # one byte gather per exponent present, along that exponent's layout
    cls = np.where(ok, x + 6, -1.0)
    for c in np.flatnonzero(np.bincount((cls + 1).astype(np.intp), minlength=24)[1:]).tolist():
        at = np.flatnonzero(cls == c)
        rows[at] = np.take(src[at], _LAYOUT[c], axis=1)
    slow = np.flatnonzero(~ok)
    if slow.size:  # one % for all of them, each padded with spaces to _WIDTH - 1 bytes
        text = ("%-24.17g" * slow.size % tuple(v[slow].tolist())).encode("ascii")
        rows[slow, :-1] = np.frombuffer(text, dtype=np.uint8).reshape(-1, _WIDTH - 1)
        rows[slow, -1] = 0
    return out


def join(header: str, n_rows: int, n_fields: int, block) -> str:
    """The header line, then n_rows CSV rows of n_fields fields each.

    block(rows) gives the fields of a slice of rows, as `fields` makes them:
    uint8, shape (rows, n_fields, _WIDTH). It is called on consecutive slices
    of at most _BATCH_VALUES fields (at least one row), which bounds the
    working memory.
    """
    step = max(1, _BATCH_VALUES // n_fields)
    text = bytearray((header + "\n").encode("ascii"))
    for start in range(0, n_rows, step):
        chunk = block(slice(start, min(start + step, n_rows)))
        chunk[:, :-1, -1] = ord(",")
        chunk[:, -1, -1] = ord("\n")
        text += chunk.tobytes().translate(None, b"\0 ")
    return text.decode("ascii")
