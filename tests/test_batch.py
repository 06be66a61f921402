"""The path layers act on arrays with the nodes on the last axis, one row per
path: a batched call must equal the single-row calls bit for bit, a
trajectory must be exactly linear in x0, the closed-form block must agree
with the linear-solve oracle, and a convergence study must not depend on how
its paths are split into blocks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpisde import (GbmParams, SchemeId, TimeGrid, analysis, coarsen,
                    convergence_study, error_norms, exact_solution,
                    generate_path, integrate, mix_seed, qpi_block_solve_oracle)
from qpisde.schemes import _qpi_alpha_beta

SEEDS = st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=5)
# mu*dt <= 1/2 keeps every scheme away from its singular step
PARAMS = st.builds(GbmParams, mu=st.floats(-3.0, 1.0), sigma=st.floats(0.0, 2.0),
                   x0=st.floats(-5.0, 5.0))


@settings(max_examples=50, deadline=None)
@given(seeds=SEEDS, n=st.integers(1, 64), t_end=st.floats(0.1, 10.0))
def test_generate_path_rows_equal_single_seed(seeds, n, t_end):
    w = generate_path(seeds, t_end, n)
    assert w.shape == (len(seeds), n + 1)
    for row, seed in zip(w, seeds):
        single = generate_path(seed, t_end, n)
        assert single.shape == (n + 1,) and single[0] == 0.0
        assert np.array_equal(row, single)


@settings(max_examples=100, deadline=None)
@given(seeds=SEEDS, half=st.integers(1, 32), params=PARAMS,
       scheme=st.sampled_from(list(SchemeId)),
       sign=st.sampled_from(["standard", "paper"]))
def test_batched_layers_equal_single_rows(seeds, half, params, scheme, sign):
    grid = TimeGrid(t_end=1.0, n_steps=2 * half)
    w = generate_path(seeds, 1.0, 2 * half)
    exact = exact_solution(params, grid, w)
    approx = integrate(scheme, params, grid, w, milstein_sign=sign)
    norms = error_norms(exact, approx)
    assert exact.shape == approx.shape == w.shape
    assert all(v.shape == (len(seeds),) for v in norms)
    for k, row in enumerate(w):
        exact_k = exact_solution(params, grid, row)
        approx_k = integrate(scheme, params, grid, row, milstein_sign=sign)
        assert np.array_equal(exact[k], exact_k)
        assert np.array_equal(approx[k], approx_k)
        assert tuple(v[k] for v in norms) == error_norms(exact_k, approx_k)
    # leading axes beyond one broadcast the same way
    stacked = np.stack([w, w])
    assert np.array_equal(integrate(scheme, params, grid, stacked, milstein_sign=sign),
                          np.stack([approx, approx]))


@settings(max_examples=100, deadline=None)
@given(seeds=SEEDS, half=st.integers(1, 32), params=PARAMS,
       scheme=st.sampled_from(list(SchemeId)),
       sign=st.sampled_from(["standard", "paper"]))
def test_integrate_exactly_linear_in_x0(seeds, half, params, scheme, sign):
    grid = TimeGrid(t_end=1.0, n_steps=2 * half)
    w = generate_path(seeds, 1.0, 2 * half)
    unit = GbmParams(mu=params.mu, sigma=params.sigma, x0=1.0)
    assert np.array_equal(integrate(scheme, params, grid, w, milstein_sign=sign),
                          params.x0 * integrate(scheme, unit, grid, w, milstein_sign=sign))


@settings(max_examples=200, deadline=None)
@given(h=st.floats(-0.5, 0.5), dt=st.floats(0.01, 1.0), sigma=st.floats(0.0, 2.0),
       za=st.floats(-3.0, 3.0), zb=st.floats(-3.0, 3.0))
def test_closed_form_agrees_with_oracle(h, dt, sigma, za, zb):
    mu = h / dt
    dwa, dwb = za * np.sqrt(dt), zb * np.sqrt(dt)
    alpha, beta = _qpi_alpha_beta(mu, sigma, dt, dwa, dwb)
    oracle = qpi_block_solve_oracle(GbmParams(mu=mu, sigma=sigma), dt, dwa, dwb)
    assert alpha == pytest.approx(oracle.alpha, rel=1e-12, abs=1e-12)
    assert beta == pytest.approx(oracle.beta, rel=1e-12, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(seeds=SEEDS, a=st.integers(1, 4), b=st.integers(1, 4), m=st.integers(1, 4))
def test_coarsen_commutes_on_rows(seeds, a, b, m):
    w = generate_path(seeds, 1.0, a * b * m)
    assert np.array_equal(coarsen(coarsen(w, a), b), coarsen(w, a * b))
    assert np.array_equal(coarsen(coarsen(w, a), b), coarsen(coarsen(w, b), a))
    for k, row in enumerate(w):
        assert np.array_equal(coarsen(w, a)[k], coarsen(row, a))


SCHEMES = ["qpi", "iem", "milstein"]
P = GbmParams(mu=-1.0, sigma=0.5)
N_LIST = [4, 64, 1024]
N_PATHS = 70  # two blocks at the default size: 63 rows, then 7


def per_path_table(seed):
    """Mean norms from one single-row call per path, summed in path order."""
    acc = {}
    for k in range(N_PATHS):
        fine = generate_path(mix_seed(seed, k), 1.0, N_LIST[-1])
        for n in N_LIST:
            grid = TimeGrid(t_end=1.0, n_steps=n)
            w = coarsen(fine, N_LIST[-1] // n)
            exact = exact_solution(P, grid, w)
            for s in SCHEMES:
                norms = np.array(error_norms(exact, integrate(SchemeId(s), P, grid, w)))
                acc[(s, n)] = acc[(s, n)] + norms if (s, n) in acc else norms
    return {key: tuple(v / N_PATHS) for key, v in acc.items()}


@pytest.mark.parametrize("batch_values", [1, 3 * (N_LIST[-1] + 1), analysis._BATCH_VALUES],
                         ids=["one-row", "three-rows", "default"])
def test_convergence_table_independent_of_block_size(batch_values, monkeypatch):
    reference = convergence_study(SCHEMES, P, N_LIST, N_PATHS, 7)
    monkeypatch.setattr(analysis, "_BATCH_VALUES", batch_values)
    table = convergence_study(SCHEMES, P, N_LIST, N_PATHS, 7)
    assert table.to_csv() == reference.to_csv()
    expected = per_path_table(7)
    assert {(r.scheme.value, r.n_steps): (r.l1, r.l2, r.linf) for r in table.rows} == expected
