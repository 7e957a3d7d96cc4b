"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines inline.  Every tolerance is pinned here; the heavy regret experiments
use two worker processes and finish well inside their runtime budgets.
"""

import math
import time

import numpy as np
import pytest
from brentq_oracle import kkt_residual
from mc_oracle import phi_monte_carlo

from pllab import duality, harness, selection
from pllab.distributions import (
    AsymmetricPareto,
    Frechet,
    GeneralizedPareto,
    Gumbel,
    Laplace,
    LaplacePareto,
    SymmetricPareto,
    Truncated,
    parse_dist,
)
from pllab.policies import PolicyState, Tsallis, ftrl_select, ftrl_update, geometric_resample

BERN8 = "bern:" + ",".join(["0.1"] + ["0.3"] * 7)  # K=8, unique best arm, gap 0.2


def report(number, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"\nacceptance {number:>2}: {status}  ({detail}; {elapsed:.1f}s of {budget:.0f}s budget)")
    assert ok, f"criterion {number}: {detail}"
    assert elapsed <= budget, f"criterion {number} exceeded runtime budget ({elapsed:.1f}s)"


def test_criterion_01_normalization_and_oracle():
    t0 = time.time()
    rng = np.random.default_rng(20260810)
    pool = [
        SymmetricPareto(2.0), SymmetricPareto(3.0), LaplacePareto(),
        AsymmetricPareto(2.0, 3.0), Gumbel(), Laplace(1.0),
        GeneralizedPareto(2.0), Frechet(2.0), Truncated(Frechet(2.0)),
    ]
    worst_sum = 0.0
    worst_dev = 0.0
    n = 10**6
    for _ in range(50):
        k = int(rng.choice([2, 3, 5, 10]))
        lam = rng.uniform(0.0, 6.0, size=k)
        dist = pool[int(rng.integers(len(pool)))]
        probe = selection.phi_quadrature(lam, dist, tol=1e-8)
        worst_sum = max(worst_sum, abs(probe.phi.sum() - 1.0))
        phat, ci = phi_monte_carlo(lam, dist, n, rng)
        tol = np.maximum(3.0 * ci, 3.0 * 3.0 / n)  # rule-of-three floor for zero counts
        worst_dev = max(worst_dev, float(np.max(np.abs(probe.phi - phat) - tol)))
    elapsed = time.time() - t0
    ok = worst_sum <= 1e-7 and worst_dev <= 0.0
    report(1, ok, f"max |sum(phi)-1|={worst_sum:.2e}, worst MC excess={worst_dev:.2e}", elapsed, 120)


def test_criterion_02_gumbel_logit_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(7)
    g = Gumbel()
    worst = 0.0
    for _ in range(100):
        k = int(rng.choice([2, 3, 5]))
        lam = rng.uniform(0.0, 8.0, size=k)
        probe = selection.phi_quadrature(lam, g, tol=1e-9)
        z = -(lam - lam.min())
        soft = np.exp(z) / np.exp(z).sum()
        worst = max(worst, float(np.max(np.abs(probe.phi - soft))))
    elapsed = time.time() - t0
    report(2, worst <= 1e-6, f"max |phi - softmax| = {worst:.2e}", elapsed, 30)


def test_criterion_03_two_arm_upper_constants():
    t0 = time.time()
    sp = SymmetricPareto(2.0)
    grid = np.linspace(0.0, 200.0, 400)
    sup_i1 = 0.0
    sup_i2 = 0.0
    sup_i2_tail = 0.0
    for c in grid:
        probe = selection.phi_quadrature([0.0, c], sp, tol=1e-8)
        sup_i1 = max(sup_i1, float(probe.ratio_32[0]))
        sup_i2 = max(sup_i2, float(probe.ratio_32[1]))
        if c >= 1.5:
            sup_i2_tail = max(sup_i2_tail, float(probe.ratio_32[1]))
    elapsed = time.time() - t0
    ok = sup_i2 <= 125.0 and sup_i1 <= 2.0 * math.sqrt(2.0) + 0.01 and sup_i2_tail <= 121.5
    report(
        3, ok,
        f"sup ratio32: i1={sup_i1:.3f}<=2.84, i2={sup_i2:.3f}<=125, i2|c>=1.5={sup_i2_tail:.3f}<=121.5",
        elapsed, 120,
    )


def test_criterion_04_three_arm_counterexample():
    t0 = time.time()
    grid = np.arange(2.0 * math.sqrt(3.0), 100.0 + 1e-9, 1.0)
    probes = selection.counterexample_scan(SymmetricPareto(2.0), 3, grid)
    ratio_1 = np.array([p.ratio_1[1] for p in probes])  # arm 2
    ratio_32 = np.array([p.ratio_32[1] for p in probes])
    ok_r1 = bool(np.all(ratio_1 >= 1.0 / 31.0))
    ok_r32 = bool(np.all(ratio_32 >= (grid + 1.0) / 11.0))
    slope = np.polyfit(grid, ratio_32, 1)[0]
    increasing = np.all(np.diff(ratio_32) > 0.0)
    elapsed = time.time() - t0
    ok = ok_r1 and ok_r32 and slope >= 1.0 / 11.0 and increasing
    report(4, ok, f"lower bounds hold={ok_r1 and ok_r32}, slope={slope:.4f}>=1/11, increasing={increasing}", elapsed, 60)


def _regret_table(horizon, runs=20, seed=20260810):
    cfg = harness.ExperimentConfig(
        policy="ftpl:lp:m=0.23", env=BERN8, horizon=horizon, runs=runs, seed=seed, threads=2
    )
    return harness.run_experiment(cfg)


def test_criterion_05_adversarial_envelope():
    t0 = time.time()
    table = _regret_table(horizon=20000)
    rep = harness.verdict(table, "advlp")
    elapsed = time.time() - t0
    margin = min(b - (m + 2 * s) for (_, m, s, b, _) in rep.rows)
    report(5, rep.all_pass, f"mean+2se below AdvLP at all {len(rep.rows)} checkpoints (min margin {margin:.1f})", elapsed, 300)


def test_criterion_06_logarithmic_regime():
    t0 = time.time()
    table = _regret_table(horizon=10**5)
    T = int(table.checkpoints[-1])
    slope, _, r2 = harness.log_growth_fit(table.checkpoints, table.mean, T // 2, T)
    env = harness.StoLP(m=0.23, gaps=(0.0,) + (0.2,) * 7)
    bound = float(env.evaluate(T))
    final_ok = table.mean[-1] + 2 * table.stderr[-1] <= bound
    elapsed = time.time() - t0
    ok = r2 >= 0.9 and slope > 0.0 and final_ok
    report(
        6, ok,
        f"log-fit on [T/2,T]: R2={r2:.3f}>=0.9, slope={slope:.2f}>0; final {table.mean[-1]:.0f} <= StoLP {bound:.0f}",
        elapsed, 900,
    )


def test_criterion_07_duality_gradient_identity():
    t0 = time.time()
    rng = np.random.default_rng(4242)
    pool = [
        SymmetricPareto(2.0), SymmetricPareto(3.0), LaplacePareto(),
        AsymmetricPareto(2.0, 3.0), Gumbel(), Laplace(1.0),
    ]
    worst = 0.0
    for _ in range(30):
        k = int(rng.choice([2, 3]))
        nu = rng.uniform(-2.5, 2.5, size=k)
        dist = pool[int(rng.integers(len(pool)))]
        probe = duality.duality_probe(nu, dist)
        worst = max(worst, probe.grad_check)
    elapsed = time.time() - t0
    report(7, worst <= 1e-5, f"max |dPhi/dnu - phi| = {worst:.2e} over 30 probes", elapsed, 120)


def test_criterion_08_three_arm_regularizer_envelope():
    t0 = time.time()
    xs = np.linspace(0.34, 0.999, 50)
    rows = duality.three_arm_regularizer_scan(xs, SymmetricPareto(2.0))
    ok = all(r["lower"] <= r["c"] <= r["upper"] for r in rows)
    elapsed = time.time() - t0
    worst_lo = min(r["c"] - r["lower"] for r in rows)
    worst_hi = min(r["upper"] - r["c"] for r in rows)
    report(8, ok, f"c(x) inside envelope at all 50 points (margins {worst_lo:.3f}/{worst_hi:.3f})", elapsed, 180)


def test_criterion_09_ift_pipeline():
    t0 = time.time()
    normal = duality.normal_ift_pipeline()
    ref = np.exp(-normal.x_grid**2) / math.sqrt(math.pi)
    sup = float(np.max(np.abs(normal.pdf - ref)))

    res = duality.tsallis_ift_pipeline(beta=0.5, x_min=-20.0, x_max=20.0, n=2048)
    cdf_final = float(res.cdf[-1])
    max_imag = float(np.max(np.abs(res.imag_residual)))
    mask = np.abs(res.x_grid) <= 5.0
    l1_sp = float(np.sum(np.abs(res.pdf[mask] - np.asarray(SymmetricPareto(2.0).pdf(res.x_grid[mask])))) * res.dx)
    l1_lap = float(np.sum(np.abs(res.pdf[mask] - 0.5 * np.exp(-np.abs(res.x_grid[mask])))) * res.dx)
    elapsed = time.time() - t0
    ok = sup <= 1e-3 and 0.98 <= cdf_final <= 1.02 and max_imag <= 1e-10 and l1_sp < l1_lap
    report(
        9, ok,
        f"normal sup={sup:.1e}<=1e-3; cdf={cdf_final:.4f} in [0.98,1.02]; "
        f"imag={max_imag:.1e}<=1e-10; L1 sPareto {l1_sp:.3f} < Laplace {l1_lap:.3f}",
        elapsed, 60,
    )


def test_criterion_10_estimator_properties():
    t0 = time.time()
    # geometric resampling unbiasedness at controlled win probabilities
    ok_resample = True
    details = []
    for w in (0.05, 0.25, 0.5):
        state = PolicyState.fresh(2, 1.0, np.random.default_rng((808, int(w * 100))), resample_cap=10**6)
        state.lhat = np.array([0.0, math.log(w / (1.0 - w))])
        n = 10**5
        vals = np.fromiter(
            (geometric_resample(state, Gumbel(), 0) for _ in range(n)), dtype=float, count=n
        )
        sigma_mean = math.sqrt(1.0 - w) / w / math.sqrt(n)
        dev = abs(vals.mean() - 1.0 / w)
        ok_resample &= dev <= 3.0 * sigma_mean
        details.append(f"w={w}: dev={dev:.3f}<= {3*sigma_mean:.3f}")

    # KKT residual across a full Tsallis run
    env_rng = np.random.default_rng(313)
    state = PolicyState.fresh(3, 0.23, np.random.default_rng(314))
    mu = np.array([0.1, 0.3, 0.3])
    worst_kkt = 0.0
    for t in range(1, 2001):
        arm, p = ftrl_select(state, Tsallis(0.5))
        worst_kkt = max(worst_kkt, kkt_residual(state.eta * state.lhat, p, 0.5))
        loss = float(env_rng.random() < mu[arm])
        ftrl_update(state, arm, loss, p)
    elapsed = time.time() - t0
    ok = ok_resample and worst_kkt <= 1e-8
    report(10, ok, "; ".join(details) + f"; max KKT residual={worst_kkt:.1e}<=1e-8", elapsed, 120)
