import math

import numpy as np
import pytest
from scipy import stats

from qpisde import (BrownianPath, InvalidInputError, coarsen, generate_path,
                    mix_seed)


def path_from_increments(increments, t_end=1.0):
    increments = np.asarray(increments, dtype=float)
    nodes = np.concatenate(([0.0], np.cumsum(increments)))
    return BrownianPath(seed=0, t_end=t_end, n_fine=len(increments),
                        increments=np.diff(nodes), nodes=nodes)


def test_determinism_same_seed():
    a = generate_path(1234, 1.0, 4)
    b = generate_path(1234, 1.0, 4)
    assert np.array_equal(a.increments, b.increments)
    assert np.array_equal(a.nodes, b.nodes)


def test_different_seeds_differ():
    a = generate_path(1, 1.0, 64)
    b = generate_path(2, 1.0, 64)
    assert not np.array_equal(a.increments, b.increments)


def test_increment_moments():
    n = 10**6
    p = generate_path(7, 1.0, n)
    dt = 1.0 / n
    assert abs(p.increments.mean()) <= 4.0 * math.sqrt(dt / n)
    assert p.increments.var() == pytest.approx(dt, rel=0.01)


def test_normality_ks():
    n = 10**5
    for seed in (0, 1, 2):
        p = generate_path(seed, 1.0, n)
        z = p.increments / math.sqrt(1.0 / n)
        _, pvalue = stats.kstest(z, "norm")
        assert pvalue > 0.001


def test_coarsen_pairwise_sums():
    p = path_from_increments([0.1, -0.2, 0.3, 0.4])
    c = coarsen(p, 2)
    assert c.n_fine == 2
    assert c.increments == pytest.approx([-0.1, 0.7], abs=1e-15)


def test_coarsen_identity():
    p = generate_path(5, 2.0, 8)
    c = coarsen(p, 1)
    assert np.array_equal(c.increments, p.increments)


def test_coarsen_preserves_endpoint_exactly():
    p = generate_path(9, 1.0, 64)
    for f in (2, 4, 8, 16):
        assert coarsen(p, f).nodes[-1] == p.nodes[-1]


def test_coarsen_composition_exact():
    p = generate_path(13, 1.0, 128)
    for a, b in [(2, 2), (2, 4), (4, 2), (8, 4)]:
        lhs = coarsen(coarsen(p, a), b)
        rhs = coarsen(p, a * b)
        assert np.array_equal(lhs.increments, rhs.increments)
        assert np.array_equal(lhs.nodes, rhs.nodes)


def test_coarsen_node_restriction_exact():
    p = generate_path(17, 1.0, 96)
    for f in (2, 3, 4, 6, 8):
        c = coarsen(p, f)
        assert np.array_equal(c.nodes, p.nodes[::f])


def test_coarsen_invalid_factor():
    p = generate_path(1, 1.0, 10)
    with pytest.raises(InvalidInputError):
        coarsen(p, 3)
    with pytest.raises(InvalidInputError):
        coarsen(p, 0)


def test_node_values_examples():
    assert np.array_equal(path_from_increments([0.5]).nodes, [0.0, 0.5])
    nv = path_from_increments([0.1, -0.1]).nodes
    assert nv[0] == 0.0
    assert nv == pytest.approx([0.0, 0.1, 0.0], abs=1e-16)
    degenerate = BrownianPath(seed=0, t_end=1.0, n_fine=0,
                              increments=np.array([]), nodes=np.array([0.0]))
    assert np.array_equal(degenerate.nodes, [0.0])


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
    r = np.corrcoef(a.increments, b.increments)[0, 1]
    assert abs(r) < 0.1
