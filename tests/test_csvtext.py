"""The CSV float writer against its specification, `"%.17g" % v` per value."""

from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qpisde import _csvtext


def reference(values):
    return ["%.17g" % v for v in np.ravel(values).tolist()]


def texts(fields):
    """The text of each field: its bytes without the padding."""
    rows = fields.reshape(-1, fields.shape[-1])
    assert (rows[:, -1] == 0).all()  # the separator byte is left free
    return [bytes(r).translate(None, b"\0 ").decode("ascii") for r in rows]


def ties(rng):
    """m / 2**(s + 1), m odd, with 18 significant digits: the last is a 5, so the
    17-digit rounding is an exact tie. s = 0 has none: m would need 55 bits."""
    out = []
    for s in range(23):
        lo = 10.0 ** (16 - s) * 2.0 ** (s + 1)
        hi = min(10 * lo, 2.0**53)
        if lo < hi:
            m = rng.integers(int(lo) // 2, int(hi) // 2, 1500) * 2 + 1
            out.append(m[(lo <= m) & (m < hi)] / 2.0 ** (s + 1))
    return np.concatenate(out)


def sample():
    rng = np.random.default_rng(20240728)
    powers = 10.0 ** np.arange(-7, 18)
    return np.concatenate([
        rng.integers(0, 2**64, 85_000, dtype=np.uint64, endpoint=False).view(float),
        10.0 ** rng.uniform(-8, 18, 85_000) * rng.choice([-1.0, 1.0], 85_000),
        ties(rng),
        powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
        [0.0, -0.0, np.inf, -np.inf],  # no random bit pattern hits one of the two infinities
    ])


def test_fields_equal_percent_format_on_fixed_sample():
    values = sample()
    assert values.size > 200_000
    assert np.isnan(values).any() and np.isinf(values).any()
    assert ((0 < np.abs(values)) & (np.abs(values) < 2.2e-308)).any()  # subnormals
    assert texts(_csvtext.fields(values)) == reference(values)


def test_ties_round_half_to_even():
    values = ties(np.random.default_rng(1))
    expected = reference(values)
    # every value is a tie, and the sample holds ties that round down and up
    down = [Decimal(t) < Decimal(v) for t, v in zip(expected, values.tolist())]
    assert all(Decimal(t) != Decimal(v) for t, v in zip(expected, values.tolist()))
    assert any(down) and not all(down)
    assert texts(_csvtext.fields(values)) == expected


def test_fields_keep_the_shape():
    values = np.array([[1.5, -2.0, 1e-7], [0.0, np.nan, 3e17]])
    fields = _csvtext.fields(values)
    assert fields.shape == (2, 3, _csvtext._WIDTH)
    assert texts(fields) == ["1.5", "-2", "9.9999999999999995e-08", "0", "nan", "3e+17"]


@settings(max_examples=300, deadline=None)
@given(arrays(float, st.integers(1, 40), elements=st.floats()))
def test_fields_equal_percent_format(values):
    assert texts(_csvtext.fields(values)) == reference(values)


def csv_reference(header, table):
    return header + "\n" + "".join(",".join(reference(row)) + "\n" for row in table)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([1, 3]).flatmap(
    lambda cols: arrays(float, st.tuples(st.integers(1, 23), st.just(cols)), elements=st.floats())))
def test_join_equals_percent_format(table):
    # 7 values per chunk: chunks of 7 rows of one column or 2 rows of three
    rows, cols = table.shape
    step = max(1, 7 // cols)
    chunks = []

    def block(r):
        chunks.append(r.stop - r.start)
        return _csvtext.fields(table[r])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_csvtext, "_BATCH_VALUES", 7)
        text = _csvtext.join("a,b", rows, cols, block)
    assert text == csv_reference("a,b", table)
    assert chunks == [min(step, rows - start) for start in range(0, rows, step)]


@pytest.mark.parametrize("cols", [1, 3])
def test_join_fixed_sample(cols, monkeypatch):
    monkeypatch.setattr(_csvtext, "_BATCH_VALUES", 1000)
    table = sample()[:199_999 // cols * cols].reshape(-1, cols)
    rows = table.shape[0]
    assert rows % (1000 // cols) != 0
    text = _csvtext.join("h", rows, cols, lambda r: _csvtext.fields(table[r]))
    assert text == csv_reference("h", table)
