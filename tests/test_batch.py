"""The path layers act on arrays with the nodes on the last axis, one row per
path: a batched call must equal the single-row calls bit for bit, a
trajectory must be exactly linear in x0, the closed-form block must agree
with the linear-solve oracle, and a convergence study must not depend on how
its paths are split into blocks."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpisde import (GbmParams, InvalidInputError, SchemeId, analysis, brownian, coarsen,
                    convergence_study, error_norms, exact_solution,
                    generate_path, integrate, mix_seed, model, qpi_block_solve_oracle)
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


def same_bits(a, b):
    return np.shape(a) == np.shape(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()


@settings(max_examples=100, deadline=None)
@given(seeds=SEEDS, half=st.integers(1, 32), params=PARAMS,
       scheme=st.sampled_from(list(SchemeId)))
def test_batched_layers_equal_single_rows(seeds, half, params, scheme):
    fine = generate_path(seeds, 1.0, 4 * half)
    w = coarsen(fine, 2)  # strided, as in a convergence study
    exact = exact_solution(params, 1.0, w)
    approx = integrate(scheme, params, 1.0, w)
    norms = error_norms(exact, approx)
    assert exact.shape == approx.shape == w.shape
    assert all(v.shape == (len(seeds),) for v in norms)
    for k, row in enumerate(w):
        exact_k = exact_solution(params, 1.0, row)
        approx_k = integrate(scheme, params, 1.0, row)
        assert np.array_equal(exact[k], exact_k)
        assert np.array_equal(approx[k], approx_k)
        assert tuple(v[k] for v in norms) == error_norms(exact_k, approx_k)
    # leading axes beyond one broadcast the same way
    stacked = np.stack([w, w])
    assert np.array_equal(integrate(scheme, params, 1.0, stacked),
                          np.stack([approx, approx]))
    # writing into a caller's arrays gives the allocating calls' bits for
    # contiguous views of a larger buffer (a convergence study's workspace)
    buffer = np.full(4 * fine.size, np.nan)
    out_exact, out, scratch = (buffer[k * w.size:(k + 1) * w.size].reshape(w.shape) for k in range(3))
    assert exact_solution(params, 1.0, w, out=out_exact) is out_exact
    assert same_bits(out_exact, exact)
    for s in SchemeId:
        assert integrate(s, params, 1.0, w, out=out, scratch=scratch) is out
        assert same_bits(out, integrate(s, params, 1.0, w))
        for got, want in zip(error_norms(exact, out, scratch=scratch), error_norms(exact, out)):
            assert same_bits(got, want)
    out_fine = buffer[1:fine.size + 1].reshape(fine.shape)
    assert generate_path(seeds, 1.0, 4 * half, out=out_fine) is out_fine
    assert same_bits(out_fine, fine)
    # and strided ones are refused, with nothing written
    strided = np.full((3, *w.shape[:-1], 2 * w.shape[-1]), np.nan)[..., ::2]
    strided_fine = np.full((*fine.shape[:-1], 2 * fine.shape[-1]), np.nan)[..., ::2]
    for call in (lambda: exact_solution(params, 1.0, w, out=strided[0]),
                 lambda: integrate(scheme, params, 1.0, w, out=strided[1]),
                 lambda: integrate(scheme, params, 1.0, w, scratch=strided[2]),
                 lambda: error_norms(exact, approx, scratch=strided[2]),
                 lambda: generate_path(seeds, 1.0, 4 * half, out=strided_fine)):
        with pytest.raises(InvalidInputError, match="C-contiguous"):
            call()
    assert np.isnan(strided).all() and np.isnan(strided_fine).all()


def read_only(shape):
    a = np.full(shape, np.nan)
    a.flags.writeable = False
    return a


# the kinds of out= and scratch= a caller might pass for a kernel input w, as (out, scratch)
BUFFERS = {
    "contiguous": lambda w: (np.full(w.shape, np.nan), np.full(w.shape, np.nan)),
    "workspace view": lambda w: tuple(np.full(3 * w.size + 1, np.nan)[1:].reshape(3, *w.shape)[:2]),
    "strided": lambda w: tuple(np.full((2, *w.shape[:-1], 2 * w.shape[-1]), np.nan)[..., ::2]),
    "float32": lambda w: (np.full(w.shape, np.nan, np.float32), np.full(w.shape, np.nan, np.float32)),
    "wrong shape": lambda w: (np.full((2, *w.shape), np.nan), np.full((2, *w.shape), np.nan)),
    "read-only": lambda w: (read_only(w.shape), read_only(w.shape)),
    "out is w": lambda w: (w, None),
    "scratch is w": lambda w: (None, w),
    "scratch is out": lambda w: (np.full(w.shape, np.nan),) * 2,
}


# with any of these, every kernel either equals its allocating call bit for bit or raises
# InvalidInputError, and a contiguous buffer is never refused
@settings(max_examples=40, deadline=None)
@given(seeds=SEEDS, half=st.integers(1, 16), params=PARAMS)
def test_kernel_buffers_give_the_allocating_bits_or_raise(seeds, half, params):
    w = generate_path(seeds, 1.0, 2 * half)
    exact = exact_solution(params, 1.0, w)
    # each kernel as a call on its input w (a path block) with out= and scratch=; one without
    # an out= or a scratch= ignores it
    kernels = {
        "generate_path": lambda w, out, scratch: generate_path(seeds, 1.0, 2 * half, out=out),
        "exact_solution": lambda w, out, scratch: exact_solution(params, 1.0, w, out=out),
        "error_norms": lambda w, out, scratch: error_norms(exact, w, scratch=scratch),
        **{s.value: lambda w, out, scratch, s=s: integrate(s, params, 1.0, w, out=out, scratch=scratch)
           for s in SchemeId},
    }
    for name, kernel in kernels.items():
        want = np.asarray(kernel(w.copy(), None, None))
        for variant, buffers in BUFFERS.items():
            w_in = w.copy()
            try:
                got = np.asarray(kernel(w_in, *buffers(w_in)))
            except InvalidInputError:
                assert variant not in ("contiguous", "workspace view"), (name, variant)
                assert same_bits(w_in, w), (name, variant)  # a refused call writes nothing
            else:
                assert same_bits(got, want), (name, variant)


@settings(max_examples=100, deadline=None)
@given(seeds=SEEDS, half=st.integers(1, 32), params=PARAMS,
       scheme=st.sampled_from(list(SchemeId)))
def test_integrate_exactly_linear_in_x0(seeds, half, params, scheme):
    w = generate_path(seeds, 1.0, 2 * half)
    unit = GbmParams(mu=params.mu, sigma=params.sigma, x0=1.0)
    assert np.array_equal(integrate(scheme, params, 1.0, w),
                          params.x0 * integrate(scheme, unit, 1.0, w))


@settings(max_examples=200, deadline=None)
@given(h=st.floats(-0.5, 0.5), dt=st.floats(0.01, 1.0), sigma=st.floats(0.0, 2.0),
       za=st.floats(-3.0, 3.0), zb=st.floats(-3.0, 3.0))
def test_closed_form_agrees_with_oracle(h, dt, sigma, za, zb):
    mu = h / dt
    dwa, dwb = za * np.sqrt(dt), zb * np.sqrt(dt)
    alpha, beta = _qpi_alpha_beta(mu, sigma, dt, dwa, dwb)
    o_alpha, o_beta = qpi_block_solve_oracle(GbmParams(mu=mu, sigma=sigma), dt, dwa, dwb)
    assert alpha == pytest.approx(o_alpha, rel=1e-12, abs=1e-12)
    assert beta == pytest.approx(o_beta, rel=1e-12, abs=1e-12)


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
            w = coarsen(fine, N_LIST[-1] // n)
            exact = exact_solution(P, 1.0, w)
            for s in SCHEMES:
                norms = np.array(error_norms(exact, integrate(SchemeId(s), P, 1.0, w)))
                acc[(s, n)] = acc[(s, n)] + norms if (s, n) in acc else norms
    return {key: tuple(v / N_PATHS) for key, v in acc.items()}


# blocks of 4 rows: the fine grid's last block holds 2 paths, the n = 64 buffer
# (60 rows) ends with 10 and the n = 4 buffer (72 rows) is never full, so no
# buffer's size divides N_PATHS
@pytest.mark.parametrize("batch_values", [1, 3 * (N_LIST[-1] + 1), 4 * (N_LIST[-1] + 1),
                                          model._BATCH_VALUES],
                         ids=["one-row", "three-rows", "four-rows", "default"])
def test_convergence_table_independent_of_block_size(batch_values, monkeypatch):
    reference = convergence_study(SCHEMES, P, N_LIST, N_PATHS, 7)
    monkeypatch.setattr(model, "_BATCH_VALUES", batch_values)
    table = convergence_study(SCHEMES, P, N_LIST, N_PATHS, 7)
    assert table.to_csv() == reference.to_csv()
    expected = per_path_table(7)
    assert {(r.scheme.value, r.n_steps): (r.l1, r.l2, r.linf) for r in table.rows} == expected


def test_coarser_grids_run_on_buffers_of_whole_blocks(monkeypatch):
    # the fine grid runs per block of 63 paths (63, then 7); each coarser grid
    # collects both blocks in one buffer and runs once, on all 70 paths
    calls = {"exact_solution": [], "integrate": [], "error_norms": []}
    for name, shapes in calls.items():
        def counting(*args, kernel=getattr(analysis, name), shapes=shapes, **kwargs):
            shapes.append(np.shape(args[-1]))
            return kernel(*args, **kwargs)
        monkeypatch.setattr(analysis, name, counting)
    table = convergence_study(SCHEMES, P, N_LIST, N_PATHS, 7)
    assert calls["exact_solution"] == [(63, 1025), (7, 1025), (70, 5), (70, 65)]
    assert calls["integrate"] == [shape for shape in calls["exact_solution"] for _ in SCHEMES]
    assert calls["error_norms"] == calls["integrate"]  # 12 each, 18 with one call per block and grid
    assert {(r.scheme.value, r.n_steps): (r.l1, r.l2, r.linf) for r in table.rows} == per_path_table(7)


def test_seeds_hashed_once_per_call(monkeypatch):
    # a call hashes its seeds in one batch: generate_path all of them, a convergence
    # study each block's and local_error_study each dt's one; every PCG64 is seeded
    # from a row of those words, never from an int seed that numpy would hash again
    hashed, built = [], []
    seed_words, pcg64 = brownian._seed_words, np.random.PCG64

    def hashing(seeds):
        hashed.append(len(seeds))
        return seed_words(seeds)

    def building(seed):
        built.append(seed)
        return pcg64(seed)
    monkeypatch.setattr(brownian, "_seed_words", hashing)
    monkeypatch.setattr(np.random, "PCG64", building)
    monkeypatch.setattr(model, "_BATCH_VALUES", 3 * (N_LIST[-1] + 1))  # blocks of 3 paths
    for call, batches in ((lambda: generate_path([mix_seed(7, k) for k in range(N_PATHS)], 1.0, 16), [N_PATHS]),
                          (lambda: convergence_study(SCHEMES, P, N_LIST, N_PATHS, 7), [3] * 23 + [1]),
                          (lambda: analysis.local_error_study(P, [0.5, 0.25], 10, 7), [1, 1])):
        hashed.clear()
        built.clear()
        call()
        assert hashed == batches
        assert len(built) == sum(batches)
        assert all(isinstance(seed, brownian._Hashed) for seed in built)


def test_draws_are_thread_safe():
    # every path gets a PCG64 of its own, built inside the draw, so a thread
    # switch between seeding a generator and drawing from it cannot hand a
    # row another path's words, as it could with a generator shared by threads
    blocks = [[mix_seed(master, k) for k in range(63)] for master in (11, 12)]
    expected = [generate_path(seeds, 1.0, 32) for seeds in blocks]

    def draw_many(seeds):
        return [generate_path(seeds, 1.0, 32) for _ in range(20)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(2) as pool:
            drawn = list(pool.map(draw_many, blocks))
    finally:
        sys.setswitchinterval(interval)
    for paths, reference in zip(drawn, expected):
        assert all(np.array_equal(w, reference) for w in paths)
