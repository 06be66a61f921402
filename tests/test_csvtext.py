"""The CSV float writer against its specification, `"%.17g" % v` per value."""

import os
import pathlib
import subprocess
import sys
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qpisde import _csvtext, model
from same_text import assert_same_text


def reference(values):
    return ["%.17g" % v for v in np.ravel(values).tolist()]


def texts(fields):
    """The text of each field: its bytes before the comma, without the padding."""
    rows = fields.reshape(-1, fields.shape[-1])
    assert (rows[:, -1] == ord(",")).all()  # every field ends in its comma
    return [bytes(r[:-1]).translate(None, b"\0 ").decode("ascii") for r in rows]


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


def significant_digits(text):
    """The count of significant digits in a `%.17g` text of exponent -1 or 0."""
    return len(text.lstrip("-").replace(".", "").lstrip("0"))


@pytest.mark.parametrize("x", [-1, 0])
def test_every_count_of_digits_at_x_minus_1_and_0(x):
    # m / 2**k with m odd has k decimals, the last a 5: 1 to 17 significant digits, so the
    # last digit shown, and with it the cut, falls in each of the five words of a field
    rng = np.random.default_rng(11 + x)
    values = []
    for digits in range(1, 18):
        k = digits - 1 - x
        lo, hi = (2**k, 10 * 2**k) if x == 0 else (-(-2**k // 10), 2**k)
        m = rng.integers(lo // 2, (hi + 1) // 2, 20) * 2 + 1
        values.append(m[(lo <= m) & (m < hi)] / 2.0**k)
    values = np.concatenate(values)
    values = np.concatenate([values, -values])
    expected = reference(values)
    assert sorted({significant_digits(t) for t in expected}) == list(range(1, 18))
    assert texts(_csvtext.fields(values)) == expected


def test_neighbours_of_the_powers_where_the_layout_changes():
    powers = np.array([0.1, 1.0, 10.0])
    values = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    values = np.concatenate([values, -values])
    assert texts(_csvtext.fields(values)) == reference(values)


def test_word_table_holds_each_group_as_its_ascii_digits():
    words, _ = _csvtext._group_tables()
    assert words.dtype == np.dtype("<u4") and words.shape == (20_000,)
    digits = [b"%04d" % g for g in range(10_000)]
    assert words[:10_000].tobytes() == b"".join(digits)
    assert words[10_000:].tobytes() == b"".join(d.rstrip(b"0").ljust(4, b"\0") for d in digits)


# numpy picks its log10 loop by CPU; every exponent is verified, so the text does not depend on it
HOST_SCRIPT = """
from qpisde import _csvtext
from test_csvtext import reference, sample, texts
values = sample()
assert texts(_csvtext.fields(values)) == reference(values)
"""


def test_text_without_the_avx512_loops():
    tests = pathlib.Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)]),
           "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
    done = subprocess.run([sys.executable, "-c", HOST_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]


def csv_reference(header, table):
    return header + "\n" + "".join(",".join(reference(row)) + "\n" for row in table)


def lines(table):
    """The fields of a table's rows as `join` takes them: one line per row."""
    return _csvtext.fields(table).reshape(len(table), -1)


def text(chunks):
    """The text of `join`'s chunks: their ASCII bytes in order."""
    return b"".join(chunks).decode("ascii")


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
        return lines(table[r])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_BATCH_VALUES", 7)
        out = list(_csvtext.join("a,b", rows, cols, block))
    assert_same_text(text(out), csv_reference("a,b", table))
    assert chunks == [min(step, rows - start) for start in range(0, rows, step)]


@pytest.mark.parametrize("cols", [1, 3])
def test_join_fixed_sample(cols, monkeypatch):
    monkeypatch.setattr(model, "_BATCH_VALUES", 1000)
    table = sample()[:199_999 // cols * cols].reshape(-1, cols)
    rows = table.shape[0]
    assert rows % (1000 // cols) != 0
    chunks = _csvtext.join("h", rows, cols, lambda r: lines(table[r]))
    assert_same_text(text(chunks), csv_reference("h", table))


# One value of each kind the kernel leaves to `%`: zeros, nan, infinities,
# subnormals, magnitudes from 1e17 up and below 1e-6
FALLBACK = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -1.5e-310, 1e17, -3.25e200, 2.5e-7]


def with_exponent(x, size, rng):
    """size values of decimal exponent x, of both signs, with 1 to 17 significant digits."""
    scale = 10.0 ** rng.integers(0, 17, size)
    m = np.floor(rng.uniform(1, 10, size) * scale) / scale
    return m * 10.0**x * rng.choice([-1.0, 1.0], size)


def majority_chunk(major, rng, size=500):
    """size values, shuffled, most of exponent `major` (None: fallback values),
    mixed with 3 values of every other exponent and each fallback value."""
    parts = [with_exponent(x, 3, rng) for x in range(-6, 17) if x != major]
    minor = sum(map(len, parts)) + (0 if major is None else len(FALLBACK))
    if major is None:
        parts.append(np.resize(FALLBACK, size - minor))
    else:
        parts += [FALLBACK, with_exponent(major, size - minor, rng)]
    values = np.concatenate(parts)
    rng.shuffle(values)
    return values


def majority_share(values, major):
    """The share of values of exponent `major` (None: outside [-6, 16], or not finite)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.floor(np.log10(np.abs(values)))
    return (~np.isin(x, np.arange(-6, 17)) if major is None else x == major).mean()


def test_every_field_ends_in_its_one_comma():
    # numbers of every exponent and every kind of fallback text, which `%` pads with spaces
    rng = np.random.default_rng(5)
    values = np.concatenate([sample(), FALLBACK, *(majority_chunk(m, rng) for m in (-6, 0, 16, None))])
    fields = _csvtext.fields(values).reshape(-1, _csvtext._WIDTH)
    assert (fields[:, -1] == ord(",")).all()
    assert not (fields[:, :-1] == ord(",")).any()


@pytest.mark.parametrize("major", [*range(-6, 17), None])
def test_fields_with_a_majority_exponent(major):
    values = majority_chunk(major, np.random.default_rng(99 if major is None else major + 6))
    assert majority_share(values, major) > 0.8
    assert texts(_csvtext.fields(values)) == reference(values)


def test_join_chunks_with_different_majorities(monkeypatch):
    # 300 values per chunk, 100 rows of three; each chunk has its own majority
    monkeypatch.setattr(model, "_BATCH_VALUES", 300)
    rng = np.random.default_rng(7)
    majors = [-5, 3, None, 16, -1]
    table = np.concatenate([majority_chunk(m, rng, size=300) for m in majors]).reshape(-1, 3)
    shares = []

    def block(rows):
        shares.append(majority_share(table[rows], majors[len(shares)]))
        return lines(table[rows])

    assert_same_text(text(_csvtext.join("a,b,c", len(table), 3, block)), csv_reference("a,b,c", table))
    assert len(shares) == len(majors) and min(shares) > 0.5


def test_join_builds_each_chunk_when_asked(monkeypatch):
    # 3 chunks of one row: nothing is built for the header, then one chunk per item taken
    monkeypatch.setattr(model, "_BATCH_VALUES", 2)
    table, built = np.arange(6.0).reshape(3, 2), []
    chunks = _csvtext.join("a,b", 3, 2, lambda r: built.append(r.start) or lines(table[r]))
    assert next(chunks) == b"a,b\n" and built == []
    assert next(chunks) == b"0,1\n" and built == [0]
    assert list(chunks) == [b"2,3\n", b"4,5\n"] and built == [0, 1, 2]


@pytest.mark.parametrize("cols", [1, 3, 7, 1000, 1001])
def test_join_hands_out_one_item_per_chunk(cols, monkeypatch):
    # the header line, then each chunk's rows on their own: no item holds the whole text
    monkeypatch.setattr(model, "_BATCH_VALUES", 1000)
    table = sample()[:5000 // cols * cols].reshape(-1, cols)
    rows = table.shape[0]
    chunks = list(_csvtext.join("h", rows, cols, lambda r: lines(table[r])))
    step = 1000 // cols or 1
    assert chunks[0] == b"h\n" and len(chunks) == 1 + -(-rows // step)
    for start, chunk in zip(range(0, rows, step), chunks[1:]):
        assert type(chunk) is bytes and chunk.endswith(b"\n")
        assert chunk.count(b"\n") == min(step, rows - start)
        assert len(chunk) <= max(1000, cols) * _csvtext._WIDTH
    assert_same_text(text(chunks), csv_reference("h", table))
