"""End-to-end acceptance gate.

Each test prints one `[acceptance] criterion N: PASS/FAIL` line and then
asserts, so the full verdict is visible in the captured output even when a
criterion is red.

Criteria 3 and 4 gate the strong-convergence experiment on the properties
of the two-step block as defined, not on the tabulated QPI column:

* The block is the one the published stability quotient describes. With
  D = 1 - h + h^2/3, E = 1 - h/3 and h = mu*dt, the block multiplier
  satisfies beta*D*E = a1 + sigma*a2*(dWa+dWb) + sigma*a3*dWa, where a1,
  a2, a3 are the coefficients of `qpi_paper_lhs`. The diffusion is frozen
  at the block's left node and there is no 1/2 sigma^2 (dW^2 - dt) term.
* Such a block has strong order 1/2 (Kloeden & Platen, 1992). Criterion 3
  asserts a fitted L2 order in [0.4, 0.7]; the measured order is 0.56-0.58
  over master seeds 1, 2, 3, 7, 11 and 85. An order-1 block (the block
  plus a Milstein correction) fits 1.01. Euler-Maruyama has order 1/2 as
  well (0.62), so this gate does not separate it from the block;
  criterion 4 does.
* The missing term has mean square 2 sigma^4 dt^2 per two-step block,
  against sigma^4 dt^2 / 2 per drift-implicit EM step, so the error
  variance per unit time is twice IEM's and the QPI/IEM error ratio tends
  to sqrt(2). Criterion 4 asserts that ratio lies in [1.25, 1.6] in every
  norm at N >= 16; the measured range is 1.31-1.47 over the same seeds.
  Euler-Maruyama in place of the block gives 0.99-1.12, an order-1 block
  gives less than 1.
* The tabulated QPI column decays at order ~0.9 and no reading of the
  block reproduces it: the frozen-diffusion block is 8-46x above it, the
  block plus a Milstein correction 3-7x. REFERENCE_L2_QPI is kept and its
  ratios are printed by criterion 3 for comparison. The harness is held to
  the table's Milstein L1 column instead, which it reproduces within a
  factor of 1.5 at every N.
"""

import math
import time

import numpy as np
import pytest

from qpisde import (GbmParams, SchemeId, convergence_study,
                    generate_path, integrate, local_error_study, mix_seed,
                    qpi_block_solve_oracle, qpi_exact_amplification, qpi_paper_lhs)
from qpisde.cli import main
from qpisde.schemes import _qpi_alpha_beta

P = GbmParams(mu=-1.0, sigma=0.5)
MASTER_SEED = 7
N_LIST = [4, 16, 64, 256, 1024]

REFERENCE_L2_QPI = [7.6716e-03, 3.1373e-03, 8.9318e-04, 2.3630e-04, 6.3238e-05]
REFERENCE_L1_MILSTEIN = [4.7405e-02, 1.2747e-02, 3.2850e-03, 8.3239e-04, 2.0978e-04]


def report(num, ok, detail=""):
    print(f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'}"
          + (f" - {detail}" if detail else ""))


def column(table, scheme, norm):
    """(step counts, mean errors) of one scheme and norm, ascending in n."""
    rows = sorted((r for r in table.rows if r.scheme is scheme), key=lambda r: r.n_steps)
    return [r.n_steps for r in rows], [getattr(r, norm) for r in rows]


def fitted_order(n_list, errors):
    """Closed-form least-squares slope of log(error) against log(1/n)."""
    x = np.log(1.0 / np.asarray(n_list, dtype=float))
    y = np.log(errors)
    return float(np.sum((x - x.mean()) * (y - y.mean())) / np.sum((x - x.mean()) ** 2))


@pytest.fixture(scope="module")
def convergence_table():
    return convergence_study(["qpi", "iem", "milstein"], P, N_LIST,
                             n_paths=500, master_seed=MASTER_SEED)


def test_criterion_1_coefficient_oracle_equivalence():
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(10**4):
        mu_dt = rng.uniform(-2.0, 0.9)
        dt = rng.uniform(0.01, 1.0)
        sigma = rng.uniform(0.0, 2.0)
        s = math.sqrt(dt)
        dwa, dwb = rng.uniform(-3 * s, 3 * s, size=2)
        p = GbmParams(mu=mu_dt / dt, sigma=sigma)
        alpha, beta = _qpi_alpha_beta(p.mu, p.sigma, dt, dwa, dwb)
        o_alpha, o_beta = qpi_block_solve_oracle(p, dt, dwa, dwb)
        worst = max(worst,
                    abs(alpha - o_alpha) / max(abs(o_alpha), 1e-300),
                    abs(beta - o_beta) / max(abs(o_beta), 1e-300))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    report(1, ok, f"worst rel diff {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_2_deterministic_limit():
    p = GbmParams(mu=-1.0, sigma=0.0)
    errs = {}
    for n in (10, 40):
        traj = integrate(SchemeId.QPI, p, 1.0, np.zeros(n + 1))
        errs[n] = float(np.max(np.abs(traj - np.exp(-np.linspace(0.0, 1.0, n + 1)))))
    ratio = errs[10] / errs[40]
    ok = errs[10] <= 1e-4 and ratio >= 30.0
    report(2, ok, f"Linf(N=10)={errs[10]:.2e}, ratio={ratio:.1f}")
    assert errs[10] <= 1e-4
    assert ratio >= 30.0


def test_criterion_3_strong_convergence_anchor(convergence_table):
    ns, errs = column(convergence_table, SchemeId.QPI, "l2")
    ratios = [e / r for e, r in zip(errs, REFERENCE_L2_QPI)]
    monotone = all(a > b for a, b in zip(errs, errs[1:]))
    order = fitted_order(ns, errs)
    _, mil = column(convergence_table, SchemeId.MILSTEIN, "l1")
    mil_ratios = [e / r for e, r in zip(mil, REFERENCE_L1_MILSTEIN)]
    mil_anchored = all(1 / 1.5 <= r <= 1.5 for r in mil_ratios)
    ok = monotone and mil_anchored and 0.4 <= order <= 0.7
    report(3, ok,
           f"monotone={monotone}, order={order:.2f}, "
           f"milstein/reference ratios {[f'{r:.2f}' for r in mil_ratios]} "
           f"(qpi/reference ratios {[f'{r:.1f}' for r in ratios]})")
    assert monotone
    assert mil_anchored, f"mean Milstein L1 off reference by factors {mil_ratios}"
    assert 0.4 <= order <= 0.7, f"fitted order {order}"


def test_criterion_4_scheme_ordering(convergence_table):
    ratios = []
    for norm in ("l1", "l2", "linf"):
        ns, qpi = column(convergence_table, SchemeId.QPI, norm)
        _, iem = column(convergence_table, SchemeId.IMPLICIT_EM, norm)
        ratios += [(norm, n, a / b) for n, a, b in zip(ns, qpi, iem) if n >= 16]
    failures = [x for x in ratios if not 1.25 <= x[2] <= 1.6]
    values = [r for _, _, r in ratios]
    ok = not failures
    report(4, ok, f"qpi/iem ratios in [{min(values):.3f}, {max(values):.3f}]"
           + ("" if ok else f", outside [1.25, 1.6] at {failures[:3]}..."))
    assert not failures, f"qpi/iem error ratio outside [1.25, 1.6] at {failures}"


def test_criterion_5_stability_condition_values():
    def reference(mu, sigma, dt):
        h = mu * dt
        num = (abs(1 + 2 * h / 3 - h**3 / 9) ** 2
               + dt * abs(sigma * (1 - h + 2 * h**2 / 9)) ** 2
               + dt * abs(sigma * (4 * h / 3) * (1 - h / 3)) ** 2
               + dt * abs(sigma**2 * (4 * h / 3) * (1 - h / 3)
                          * (1 - h + 2 * h**2 / 9)))
        return num / (abs(1 - h + h**2 / 3) ** 2 * abs(1 - h / 3) ** 2)

    stable_ok = all(qpi_paper_lhs(-1.0, 0.5, 2.0**-k) < 1.0 for k in range(1, 9))
    unstable_ok = qpi_paper_lhs(1.0, 0.5, 0.5) > 1.0
    v_stable = qpi_paper_lhs(-1.0, 0.5, 0.5)
    v_unstable = qpi_paper_lhs(1.0, 0.5, 0.5)
    anchors_ok = (abs(v_stable - reference(-1.0, 0.5, 0.5)) <= 1e-3 * v_stable
                  and abs(v_unstable - reference(1.0, 0.5, 0.5)) <= 1e-3 * v_unstable
                  and v_stable == pytest.approx(0.2909, rel=1e-3)
                  and v_unstable == pytest.approx(7.857, rel=1e-3))
    ok = stable_ok and unstable_ok and anchors_ok
    report(5, ok, f"lhs(-1,0.5,0.5)={v_stable:.4f}, lhs(1,0.5,0.5)={v_unstable:.3f}")
    assert stable_ok and unstable_ok and anchors_ok


def test_criterion_6_exact_amplification_vs_monte_carlo():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    n = 10**6
    checked = 0
    worst_z = 0.0
    while checked < 50:
        mu = rng.uniform(-3.0, 1.5)
        dt = rng.uniform(0.05, 1.0)
        if abs(mu * dt) > 1.5:
            continue
        sigma = rng.uniform(0.0, 2.0)
        dwa = rng.standard_normal(n) * math.sqrt(dt)
        dwb = rng.standard_normal(n) * math.sqrt(dt)
        _, beta = _qpi_alpha_beta(mu, sigma, dt, dwa, dwb)
        b2 = beta * beta
        se = b2.std() / math.sqrt(n)
        z = abs(qpi_exact_amplification(mu, sigma, dt) - b2.mean()) / se
        worst_z = max(worst_z, z)
        checked += 1
    anchor = qpi_exact_amplification(-1.0, 0.5, 0.5)
    elapsed = time.perf_counter() - t0
    ok = worst_z <= 3.0 and anchor == pytest.approx(0.24654, rel=1e-3) and elapsed < 60
    report(6, ok, f"worst |z|={worst_z:.2f}, anchor={anchor:.5f}, {elapsed:.1f}s")
    assert worst_z <= 3.0
    assert anchor == pytest.approx(0.24654, rel=1e-3)
    assert elapsed < 60


def test_criterion_7_empirical_stability():
    t0 = time.perf_counter()

    def mean_square_final(mu, n_paths=10**4):
        p = GbmParams(mu=mu, sigma=0.5)
        total = 0.0
        for k in range(n_paths):
            path = generate_path(mix_seed(2024, k), 20.0, 320)  # dt = 2^-4
            total += integrate(SchemeId.QPI, p, 20.0, path)[-1] ** 2
        return total / n_paths

    stable = mean_square_final(-1.0)
    unstable = mean_square_final(1.0)
    elapsed = time.perf_counter() - t0
    ok = stable < 0.1 and unstable > 10.0 and elapsed < 60
    report(7, ok, f"mean|X_N|^2: mu=-1 -> {stable:.2e}, mu=+1 -> {unstable:.2e}, {elapsed:.1f}s")
    assert stable < 0.1
    assert unstable > 10.0
    assert elapsed < 60


def test_criterion_8_consistency_slope():
    t0 = time.perf_counter()
    dts = [2.0**-k for k in range(3, 9)]
    rep = local_error_study(P, dts, n_paths=10**5, master_seed=8)
    slope = rep.slope()
    elapsed = time.perf_counter() - t0
    ok = slope >= 0.85 and elapsed < 60
    report(8, ok, f"slope={slope:.2f}, {elapsed:.1f}s")
    assert slope >= 0.85
    assert elapsed < 60


def test_criterion_9_cli_determinism(tmp_path):
    runs = {
        "simulate": ["simulate", "--n", "64", "--seed", "5"],
        "converge": ["converge", "--n-list", "4,16", "--paths", "3", "--seed", "5"],
        "stability": ["stability", "--grid", "10"],
        "local-error": ["local-error", "--dt-list", "0.25,0.125",
                        "--samples", "500", "--seed", "5"],
    }
    ok = True
    for name, args in runs.items():
        a = tmp_path / f"{name}-a.out"
        b = tmp_path / f"{name}-b.out"
        assert main(args + ["-o", str(a)]) == 0
        assert main(args + ["-o", str(b)]) == 0
        if a.read_bytes() != b.read_bytes():
            ok = False
    report(9, ok, "all subcommands byte-identical on rerun")
    assert ok
