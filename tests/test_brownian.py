import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import errstate, ndtri

from qpisde import InvalidInputError, brownian, coarsen, generate_path, mix_seed
from qpisde.brownian import _seed_words, _standard_normal


def path_from_increments(increments):
    return np.concatenate(([0.0], np.cumsum(np.asarray(increments, dtype=float))))


def test_determinism_same_seed():
    a = generate_path(1234, 1.0, 4)
    b = generate_path(1234, 1.0, 4)
    assert np.array_equal(np.diff(a), np.diff(b))
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = generate_path(1, 1.0, 64)
    b = generate_path(2, 1.0, 64)
    assert not np.array_equal(np.diff(a), np.diff(b))


def test_increment_moments():
    n = 10**6
    p = generate_path(7, 1.0, n)
    dt = 1.0 / n
    assert abs(np.diff(p).mean()) <= 4.0 * math.sqrt(dt / n)
    assert np.diff(p).var() == pytest.approx(dt, rel=0.01)


def test_normality_ks():
    n = 10**5
    for seed in (0, 1, 2):
        p = generate_path(seed, 1.0, n)
        z = np.diff(p) / math.sqrt(1.0 / n)
        _, pvalue = stats.kstest(z, "norm")
        assert pvalue > 0.001


def test_coarsen_pairwise_sums():
    p = path_from_increments([0.1, -0.2, 0.3, 0.4])
    c = coarsen(p, 2)
    assert len(c) - 1 == 2
    assert np.diff(c) == pytest.approx([-0.1, 0.7], abs=1e-15)


def test_coarsen_identity():
    p = generate_path(5, 2.0, 8)
    c = coarsen(p, 1)
    assert np.array_equal(np.diff(c), np.diff(p))


def test_coarsen_preserves_endpoint_exactly():
    p = generate_path(9, 1.0, 64)
    for f in (2, 4, 8, 16):
        assert coarsen(p, f)[-1] == p[-1]


def test_coarsen_composition_exact():
    p = generate_path(13, 1.0, 128)
    for a, b in [(2, 2), (2, 4), (4, 2), (8, 4)]:
        lhs = coarsen(coarsen(p, a), b)
        rhs = coarsen(p, a * b)
        assert np.array_equal(np.diff(lhs), np.diff(rhs))
        assert np.array_equal(lhs, rhs)


def test_coarsen_node_restriction_exact():
    p = generate_path(17, 1.0, 96)
    for f in (2, 3, 4, 6, 8):
        c = coarsen(p, f)
        assert np.array_equal(c, p[::f])


def test_coarsen_invalid_factor():
    p = generate_path(1, 1.0, 10)
    with pytest.raises(InvalidInputError):
        coarsen(p, 3)
    with pytest.raises(InvalidInputError):
        coarsen(p, 0)


def test_node_values_examples():
    assert np.array_equal(path_from_increments([0.5]), [0.0, 0.5])
    nv = path_from_increments([0.1, -0.1])
    assert nv[0] == 0.0
    assert nv == pytest.approx([0.0, 0.1, 0.0], abs=1e-16)


def test_generate_validation():
    with pytest.raises(InvalidInputError):
        generate_path(0, 1.0, 0)
    with pytest.raises(InvalidInputError):
        generate_path(0, 0.0, 4)
    with pytest.raises(InvalidInputError):
        generate_path(0, -1.0, 4)


def test_mix_seed_streams():
    seeds = {mix_seed(42, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert mix_seed(42, 0) != mix_seed(43, 0)
    assert all(0 <= s < 2**64 for s in seeds)


@pytest.mark.parametrize("master_seed", [-1, 2**64, True, 1.0, np.int64(-1)])
def test_mix_seed_takes_a_seed(master_seed):
    # the master seed has the path seed's contract: no wrap mod 2^64, no bool
    with pytest.raises(InvalidInputError, match="seed must be an integer in"):
        mix_seed(master_seed, 0)


def test_mix_seed_takes_a_numpy_master_seed():
    for numpy_seed, seed in ((np.uint64(5), 5), (np.uint64(2**64 - 1), 2**64 - 1), (np.int32(7), 7)):
        assert [mix_seed(numpy_seed, k) for k in range(3)] == [mix_seed(seed, k) for k in range(3)]


def splitmix64(master, index):
    """mix_seed's documented steps on Python ints, reduced mod 2^64 by hand."""
    mask = 2**64 - 1
    z = (master + (index + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


INDICES = [0, 1, 2, 999, 2**32, 2**63 - 1, 2**63, 2**64 - 2, 2**64 - 1]


@pytest.mark.parametrize("master", [0, 85, 2**64 - 1])
def test_mix_seed_equals_python_int_splitmix64(master):
    expected = [splitmix64(master, k) for k in INDICES]
    with warnings.catch_warnings():
        # numpy scalars warn on overflow; the steps must wrap on arrays silently
        warnings.simplefilter("error")
        seeds = mix_seed(master, np.array(INDICES, dtype=np.uint64))
        singles = [mix_seed(master, k) for k in INDICES]
        signed = mix_seed(master, np.arange(6, dtype=np.int64).reshape(2, 3))
    assert seeds.dtype == np.uint64 and seeds.tolist() == expected
    assert all(type(s) is int for s in singles) and singles == expected
    assert signed.dtype == np.uint64 and signed.tolist() == [[splitmix64(master, k) for k in row]
                                                             for row in ((0, 1, 2), (3, 4, 5))]
    assert mix_seed(master, np.arange(0)).shape == (0,)


@pytest.mark.parametrize("index", [True, False, -1, 2**64, 2**70, 3.0, np.float64(1.0), "1", None,
                                   np.bool_(True), np.array(3)],
                         ids=["true", "false", "negative", "2^64", "2^70", "float", "numpy-float", "str",
                              "none", "numpy-bool", "0-d-array"])
def test_mix_seed_index_is_a_seed(index):
    # True once mixed as 1, -1 was taken and 2^70 wrapped mod 2^64
    with pytest.raises(InvalidInputError, match="index must be an integer in"):
        mix_seed(0, index)


@pytest.mark.parametrize("indices", [np.array([True, False]), np.array([0, -1]), np.array([0.0, 1.0]),
                                     np.array(["1"]), [0, 1]],
                         ids=["bool", "negative", "float", "str", "list"])
def test_mix_seed_indices_are_a_numpy_integer_array(indices):
    with pytest.raises(InvalidInputError, match="indices must be a numpy array of integers"):
        mix_seed(0, indices)


def test_generate_path_takes_a_uint64_seed_array(monkeypatch):
    seeds = mix_seed(85, np.arange(5))
    expected = generate_path(seeds.tolist(), 1.0, 16)

    def unchecked(s, what="seed"):
        raise AssertionError("a uint64 seed array is checked one seed at a time")
    monkeypatch.setattr(brownian, "_seed", unchecked)
    assert np.array_equal(generate_path(seeds, 1.0, 16), expected)


def test_mix_seed_paths_independent():
    a = generate_path(mix_seed(0, 0), 1.0, 1000)
    b = generate_path(mix_seed(0, 1), 1.0, 1000)
    r = np.corrcoef(np.diff(a), np.diff(b))[0, 1]
    assert abs(r) < 0.1


TOP_DRAWS = np.array([0, 2**52, 2**53 - 2, 2**53 - 1], dtype=np.uint64)


def test_standard_normal_finite_at_top_draw():
    # k = 2^53 - 1 makes k + 0.5 round to 2^53, so u = 1 would map to +inf
    z = _standard_normal(TOP_DRAWS * 2.0**-53)
    assert np.all(np.isfinite(z))
    expected = ndtri((TOP_DRAWS[:3] + 0.5) / float(1 << 53))
    assert np.array_equal(z[:3].view(np.uint64), expected.view(np.uint64))


SEEDS = [0, 85, 2**64 - 1] + [mix_seed(m, k) for m, k in ((0, 0), (7, 3), (85, 999))]


@pytest.mark.parametrize("seed", SEEDS)
def test_integers_equal_top_bits_of_raw_words(seed):
    # the identity the documented method rests on: for a power-of-two range, numpy's
    # bounded draw (Lemire's method) never rejects a word and keeps its top 53 bits
    k = np.random.Generator(np.random.PCG64(seed)).integers(0, 2**53, size=4096, dtype=np.uint64)
    assert np.array_equal(k, np.random.PCG64(seed).random_raw(4096) >> np.uint64(11))


@pytest.mark.parametrize("seed", SEEDS)
def test_random_equals_top_bits_of_raw_words_over_2_53(seed):
    # the identity the draw rests on: Generator.random gives k / 2^53 from the same words as k
    u = np.random.Generator(np.random.PCG64(seed)).random(4096)
    expected = (np.random.PCG64(seed).random_raw(4096) >> np.uint64(11)) * 2.0**-53
    assert np.array_equal(u.view(np.uint64), expected.view(np.uint64))


def test_draw_allocates_no_word_buffer():
    # uniforms, normals and nodes are computed in the out buffer: no buffer of words is allocated
    buf = np.empty(2**20 + 1)
    generate_path(7, 1.0, 2**20, out=buf)  # imports and registrations happen outside the trace
    tracemalloc.start()
    try:
        generate_path(7, 1.0, 2**20, out=buf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_draw_ignores_what_its_buffer_held():
    # no stale value reaches ndtri, not even in a row's first slot, where the
    # flat pass over the buffer sees it: ndtri raises on nan and -inf here
    seeds = np.array([3, 2**64 - 1], dtype=np.uint64)
    stale = np.full((2, 65), np.nan)
    stale[:, ::3] = np.inf
    stale[1, 0] = -np.inf
    with warnings.catch_warnings(), np.errstate(all="raise"), errstate(all="raise"):
        warnings.simplefilter("error")
        w = generate_path(seeds, 2.0, 64, out=stale)
    assert w is stale
    assert np.array_equal(w.view(np.uint64), generate_path(seeds, 2.0, 64, out=np.zeros((2, 65))).view(np.uint64))


def documented_path(seed, t_end, n):
    """One path by the method README states: integers, uniforms, ndtri, scale, cumsum."""
    k = np.random.default_rng(seed).integers(0, 2**53, size=n, dtype=np.uint64)
    u = np.minimum((k + 0.5) / 2.0**53, 1.0 - 2.0**-53)
    return np.concatenate(([0.0], np.cumsum(ndtri(u) * math.sqrt(t_end / n))))


@settings(max_examples=50, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
       n=st.integers(1, 300), t_end=st.floats(0.01, 100.0))
def test_generate_path_equals_documented_method(seeds, n, t_end):
    w = generate_path(seeds, t_end, n)
    for row, s in zip(w, seeds, strict=True):
        assert np.array_equal(row.view(np.uint64), documented_path(s, t_end, n).view(np.uint64))


@pytest.mark.parametrize("seed", [None, True, False, -1, 2**64, 1.5, "3", np.float64(2.0),
                                  np.bool_(True), [1, -1]],
                         ids=["none", "true", "false", "negative", "2^64", "float", "str",
                              "numpy-float", "numpy-bool", "bad-in-list"])
def test_seed_must_be_an_integer_below_2_64(seed):
    with pytest.raises(InvalidInputError, match="seed must be an integer in") as err:
        generate_path(seed, 1.0, 4)
    assert repr(seed if np.ndim(seed) == 0 else seed[-1]) in str(err.value)


def test_seed_may_be_a_numpy_integer():
    for numpy_seed, seed in ((np.uint64(2**64 - 1), 2**64 - 1), (np.int8(3), 3), (np.uint32(7), 7)):
        assert np.array_equal(generate_path(numpy_seed, 1.0, 8), generate_path(seed, 1.0, 8))


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def assert_states_and_draws_match(seeds):
    # the batched hash gives each seed's SeedSequence words, the seed of PCG64(s), as a C-contiguous row
    words = _seed_words(np.array(seeds, dtype=np.uint64))
    assert words.dtype == np.uint64 and words.flags.c_contiguous
    assert words.tolist() == [np.random.SeedSequence(s).generate_state(4, np.uint64).tolist() for s in seeds]
    for row, s in zip(generate_path(seeds, 1.0, 64), seeds, strict=True):
        assert np.array_equal(row.view(np.uint64), documented_path(s, 1.0, 64).view(np.uint64))


def test_batched_pcg64_states_at_word_edges():
    # one and two uint32 words, the top bit of each, and a batch of one seed
    assert_states_and_draws_match(EDGE_SEEDS)
    for s in EDGE_SEEDS:
        assert_states_and_draws_match([s])


@settings(max_examples=100, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8))
def test_batched_pcg64_states_equal_seeded_bit_generators(seeds):
    assert_states_and_draws_match(seeds)
