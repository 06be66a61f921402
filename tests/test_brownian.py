import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtri

from qpisde import InvalidInputError, coarsen, generate_path, mix_seed
from qpisde.brownian import _standard_normal


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


def test_mix_seed_paths_independent():
    a = generate_path(mix_seed(0, 0), 1.0, 1000)
    b = generate_path(mix_seed(0, 1), 1.0, 1000)
    r = np.corrcoef(np.diff(a), np.diff(b))[0, 1]
    assert abs(r) < 0.1


class TopDrawGenerator:
    """Stands in for np.random.Generator: four fixed 53-bit draws, the highest included."""

    K = np.array([0, 2**52, 2**53 - 2, 2**53 - 1], dtype=np.uint64)

    def integers(self, low, high, size, dtype):
        assert (low, high, size, dtype) == (0, 1 << 53, 4, np.uint64)
        return self.K.copy()


def test_standard_normal_finite_at_top_draw():
    # k = 2^53 - 1 makes k + 0.5 round to 2^53, so u = 1 would map to +inf
    z = _standard_normal(TopDrawGenerator(), 4)
    assert np.all(np.isfinite(z))
    expected = ndtri((TopDrawGenerator.K[:3] + 0.5) / float(1 << 53))
    assert np.array_equal(z[:3].view(np.uint64), expected.view(np.uint64))
