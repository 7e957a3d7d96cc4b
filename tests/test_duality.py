"""Potential/regularizer duality, quantile laws, and the inversion pipeline."""

import math

import numpy as np
import pytest

from pllab import duality, selection
from pllab.distributions import (
    AsymmetricPareto,
    Frechet,
    Gumbel,
    Laplace,
    LaplacePareto,
    ParetoLomax,
    SymmetricPareto,
    parse_dist,
)
from pllab.errors import DomainError, GridError, NonIntegrable, SupportError

FULL_SUPPORT = [
    SymmetricPareto(2.0),
    SymmetricPareto(3.0),
    LaplacePareto(),
    AsymmetricPareto(2.0, 3.0),
    Gumbel(),
    Laplace(1.0),
]


class TestPotential:
    def test_monte_carlo_oracle_at_origin(self):
        rng = np.random.default_rng(21)
        for dist in (SymmetricPareto(2.0), Laplace(1.0)):
            value = duality.potential([0.0, 0.0], dist)
            draws = dist.sample_array((10**6, 2), rng)
            mc = draws.max(axis=1)
            se = mc.std() / math.sqrt(len(mc))
            assert value > 0.0
            assert abs(value - mc.mean()) <= 3 * se

    def test_runaway_coordinate_limit(self):
        # Phi((c, 0)) - c -> E[r] as c grows
        lp = LaplacePareto()
        for c in (30.0, 60.0):
            assert duality.potential([c, 0.0], lp) - c == pytest.approx(0.25, abs=2e-2)

    def test_rejects_heavy_tail(self):
        with pytest.raises(NonIntegrable):
            duality.potential([0.0, 0.0], SymmetricPareto(0.8))

    def test_preconditions(self):
        for nu, tol in (([0.5], 1e-9), ([0.0, np.inf], 1e-9), ([0.0, 1.0], 1e-3)):
            with pytest.raises(DomainError):
                duality.potential(nu, SymmetricPareto(2.0), tol)

    def test_gradient_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(6):
            k = int(rng.choice([2, 3]))
            nu = rng.uniform(-2.0, 2.0, size=k)
            dist = FULL_SUPPORT[int(rng.integers(len(FULL_SUPPORT)))]
            probe = duality.duality_probe(nu, dist)
            assert probe.grad_check <= 1e-5, (nu, dist)

    def test_semi_infinite_allowed_for_potential(self):
        value = duality.potential([0.0, 0.0], ParetoLomax(2.0))
        assert value > 0.0


class TestRegularizer:
    def test_gumbel_recovers_logit_rewards(self):
        value, nu = duality.regularizer_value([2.0 / 3.0, 1.0 / 3.0], Gumbel())
        np.testing.assert_allclose(nu, [math.log(2.0), 0.0], atol=1e-8)

    def test_gumbel_matches_shannon_up_to_constant(self):
        shannon = lambda p: float(sum(v * math.log(v) for v in p))
        v_ref, _ = duality.regularizer_value([0.5, 0.5], Gumbel())
        offset = v_ref - shannon([0.5, 0.5])
        for p in ([2.0 / 3.0, 1.0 / 3.0], [0.8, 0.2], [0.35, 0.65]):
            v, _ = duality.regularizer_value(p, Gumbel())
            assert abs(v - shannon(p) - offset) <= 1e-6

    def test_permutation_invariance(self):
        p = [0.55, 0.3, 0.15]
        v1, _ = duality.regularizer_value(p, SymmetricPareto(2.0))
        v2, _ = duality.regularizer_value(p[::-1], SymmetricPareto(2.0))
        assert abs(v1 - v2) <= 1e-8

    def test_uniform_point_is_negative_potential_at_zero(self):
        dist = LaplacePareto()
        v, nu = duality.regularizer_value([0.25] * 4, dist)
        np.testing.assert_allclose(nu, 0.0, atol=1e-7)
        assert v == pytest.approx(-duality.potential(np.zeros(4), dist), abs=1e-7)

    def test_legendre_consistency(self):
        # Phi(nu) + V(phi(nu)) = <phi(nu), nu> at solved probes
        rng = np.random.default_rng(77)
        for dist in (SymmetricPareto(2.0), Gumbel(), LaplacePareto()):
            nu0 = np.append(rng.uniform(-1.5, 1.5, size=2), 0.0)
            p = selection.phi_values(-nu0, dist, tol=1e-10)
            v, nu = duality.regularizer_value(p, dist)
            np.testing.assert_allclose(nu, nu0, atol=1e-6)
            gap = duality.potential(nu0, dist) + v - float(np.dot(p, nu0))
            assert abs(gap) <= 1e-7

    def test_support_and_domain_errors(self):
        with pytest.raises(SupportError):
            duality.regularizer_value([0.5, 0.5], ParetoLomax(2.0))
        with pytest.raises(DomainError):
            duality.regularizer_value([0.7, 0.4], Gumbel())


class TestTwoArmQuantile:
    def test_iid_median_is_zero(self):
        for dist in (SymmetricPareto(2.0), Gumbel(), LaplacePareto()):
            assert abs(duality.two_arm_quantile(0.5, dist)) <= 1e-9

    def test_gumbel_logistic_difference(self):
        # difference of two Gumbels is logistic: c(x) = log(x/(1-x))
        for x in (2.0 / 3.0, 0.25, 0.9):
            want = math.log(x / (1.0 - x))
            assert duality.two_arm_quantile(x, Gumbel()) == pytest.approx(want, abs=1e-8)

    def test_symmetric_pareto_tail_envelope(self):
        # two-sided bounds on the suboptimal-arm probability give
        # 1/2 <= (c+1) sqrt(1-x) <= 2 as x -> 1
        sp = SymmetricPareto(2.0)
        for x in (0.9, 0.99, 0.999, 0.9999):
            c = duality.two_arm_quantile(x, sp)
            scaled = (c + 1.0) * math.sqrt(1.0 - x)
            assert 0.5 <= scaled <= 2.0, (x, scaled)


class TestTsallisLaw:
    def test_quantile_values(self):
        assert duality.tsallis_quantile(0.5, 0.5) == 0.0
        assert duality.tsallis_quantile(0.25, 0.5) == pytest.approx(-(2.0 - 2.0 / math.sqrt(3.0)), abs=1e-12)

    def test_antisymmetry(self):
        ps = np.linspace(0.01, 0.99, 37)
        for beta in (0.3, 0.5, 0.7):
            c = duality.tsallis_quantile(ps, beta)
            np.testing.assert_allclose(c + c[::-1], 0.0, atol=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            duality.tsallis_quantile(0.0, 0.5)
        with pytest.raises(DomainError):
            duality.tsallis_quantile(0.5, 1.0)

    def test_von_mises_limit(self):
        assert duality.tsallis_von_mises_ratio(1.0 - 1e-6, 0.5) == pytest.approx(2.0, abs=0.05)
        assert duality.tsallis_von_mises_ratio(1.0 - 1e-7, 0.25) == pytest.approx(1.0 / 0.75, abs=0.05)

    def test_quantile_round_trip_inversion(self):
        # numeric inversion of the closed-form quantile reproduces it
        from scipy.optimize import brentq

        for x in np.linspace(0.1, 0.9, 9):
            c = duality.tsallis_quantile(x, 0.5)
            x_back = brentq(lambda p: duality.tsallis_quantile(p, 0.5) - c, 1e-9, 1 - 1e-9)
            assert abs(duality.tsallis_quantile(x_back, 0.5) - c) <= 1e-3

    def test_correlated_sampler_difference_law(self):
        rng = np.random.default_rng(1312)
        r1, r2 = duality.correlated_tsallis_sampler(0.5, rng, size=10**6)
        diff = r2 - r1
        assert abs(np.median(diff)) <= 0.01
        # empirical CDF at the closed-form quantile, within a DKW band
        for x in (0.1, 0.25, 0.5, 0.75, 0.9):
            c = duality.tsallis_quantile(x, 0.5)
            assert abs(np.mean(diff <= c) - x) <= 0.002

    def test_correlated_sampler_two_arm_selection(self):
        rng = np.random.default_rng(99)
        x = 0.7
        c = duality.tsallis_quantile(x, 0.5)
        r1, r2 = duality.correlated_tsallis_sampler(0.5, rng, size=10**6)
        freq = np.mean(c + r1 >= r2)
        sigma = math.sqrt(x * (1 - x) / 1e6)
        assert abs(freq - x) <= 3 * sigma


class TestCharFn:
    def test_at_zero(self):
        val = duality.char_fn(0.0, lambda p: duality.tsallis_quantile(p, 0.5))
        assert val == pytest.approx(1.0 - 2e-4, abs=1e-12)

    def test_real_positive_for_tsallis(self):
        for t in (0.3, 1.0, 2.5, 6.0):
            val = duality.char_fn(t, lambda p: duality.tsallis_quantile(p, 0.5))
            assert abs(val.imag) <= 1e-7
            assert val.real > 0.0

    def test_modulus_bound(self):
        for t in (0.5, 2.0, 11.0):
            val = duality.char_fn(t, lambda p: duality.tsallis_quantile(p, 0.5))
            assert abs(val) <= 1.0

    def test_grid_matches_pointwise(self):
        q = lambda p: duality.tsallis_quantile(p, 0.5)
        ts = np.array([0.4, 1.7, 5.0, 12.0])
        grid = duality.char_fn_grid(ts, q)
        for t, g in zip(ts, grid):
            assert abs(g - duality.char_fn(t, q)) <= 1e-9

    def test_eps_domain(self):
        with pytest.raises(DomainError):
            duality.char_fn(1.0, lambda p: p, eps=0.01)


class TestIft:
    def test_grid_errors(self):
        with pytest.raises(GridError):
            duality.ift_density(np.zeros(100), n=100)
        with pytest.raises(GridError):
            duality.ift_density(np.zeros(64), n=128)

    def test_normal_sanity(self):
        res = duality.normal_ift_pipeline()
        ref = np.exp(-res.x_grid**2) / math.sqrt(math.pi)
        assert np.max(np.abs(res.pdf - ref)) <= 1e-3

    def test_tsallis_half_pipeline_bands(self):
        res = duality.tsallis_ift_pipeline()
        assert 0.98 <= res.cdf[-1] <= 1.02
        assert np.max(np.abs(res.imag_residual)) <= 1e-10

    def test_tsallis_closer_to_symmetric_pareto_than_laplace(self):
        res = duality.tsallis_ift_pipeline()
        mask = np.abs(res.x_grid) <= 5.0
        sp = np.asarray(SymmetricPareto(2.0).pdf(res.x_grid[mask]))
        lap = 0.5 * np.exp(-np.abs(res.x_grid[mask]))
        l1_sp = float(np.sum(np.abs(res.pdf[mask] - sp)) * res.dx)
        l1_lap = float(np.sum(np.abs(res.pdf[mask] - lap)) * res.dx)
        assert l1_sp < l1_lap


class TestThreeArmScan:
    def test_iid_point(self):
        # phi_1(0, 0, 0) rounds to 1/3 + 5.6e-17 for lp, asp:2,3 and laplace,
        # so there the bracket's fixed end c = 0 is already the root
        for spec in ("splareto:a=2", "lp", "asp:2,3", "laplace"):
            rows = duality.three_arm_regularizer_scan([1.0 / 3.0], parse_dist(spec))
            assert abs(rows[0]["c"]) <= 1e-9, spec

    def test_envelope_examples(self):
        rows = duality.three_arm_regularizer_scan([0.99], SymmetricPareto(2.0))
        r = rows[0]
        assert r["lower"] == pytest.approx(4.0, abs=1e-9)
        assert r["upper"] == pytest.approx(2 * math.sqrt(2.0) / 0.1 - 1.0, abs=1e-9)
        assert r["lower"] <= r["c"] <= r["upper"]

    def test_ratio_to_tsallis_reference_bounded(self):
        xs = np.linspace(0.5, 0.995, 12)
        rows = duality.three_arm_regularizer_scan(xs, SymmetricPareto(2.0))
        ratios = [r["c"] / (math.sqrt(2.0) / math.sqrt(1.0 - r["x"])) for r in rows]
        assert 0.1 <= min(ratios) and max(ratios) <= 2.5

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            duality.three_arm_regularizer_scan([0.2], SymmetricPareto(2.0))
        with pytest.raises(SupportError):
            duality.three_arm_regularizer_scan([0.5], Frechet(2.0))
