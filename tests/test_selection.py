"""Quadrature selection probabilities against closed forms, Monte Carlo, and scans."""

import math

import numpy as np
import pytest

from pllab import selection
from pllab.distributions import (
    AsymmetricPareto,
    Frechet,
    Gumbel,
    Laplace,
    LaplacePareto,
    ParetoLomax,
    SymmetricPareto,
    Truncated,
    parse_dist,
)
from pllab.errors import DomainError
from pllab.selection import (
    counterexample_scan,
    phi_monte_carlo,
    phi_quadrature,
    phi_scan,
    phi_values,
    stability_envelope_scan,
)


def softmax_neg(lam):
    z = -np.asarray(lam, dtype=float)
    z -= z.max()
    w = np.exp(z)
    return w / w.sum()


# keyed by the test id: the constructor call that built each law
MIXED = {
    "SymmetricPareto(a=2)": SymmetricPareto(2.0),
    "LaplacePareto()": LaplacePareto(),
    "AsymmetricPareto(2,3)": AsymmetricPareto(2.0, 3.0),
    "Gumbel()": Gumbel(),
    "Laplace(rate=1)": Laplace(1.0),
    "ParetoLomax(2)": ParetoLomax(2.0),
    "Frechet(2)": Frechet(2.0),
    "Truncated(Frechet(2))": Truncated(Frechet(2.0)),
}
MIXED_DISTS = list(MIXED.values())


class TestBasics:
    @pytest.mark.parametrize("dist", MIXED_DISTS, ids=list(MIXED))
    def test_uniform_lambda_is_uniform(self, dist):
        for k, c in ((2, 0.0), (3, 1.7), (5, 4.2)):
            probe = phi_quadrature(np.full(k, c), dist, tol=1e-8)
            np.testing.assert_allclose(probe.phi, 1.0 / k, atol=1e-8)

    def test_symmetric_two_arms(self):
        probe = phi_quadrature([0.0, 0.0], SymmetricPareto(2.0), tol=1e-9)
        np.testing.assert_allclose(probe.phi, 0.5, atol=1e-9)

    def test_gumbel_is_multinomial_logit(self):
        probe = phi_quadrature([0.0, math.log(2.0)], Gumbel(), tol=1e-9)
        np.testing.assert_allclose(probe.phi, [2.0 / 3.0, 1.0 / 3.0], atol=1e-8)

    def test_preconditions(self):
        with pytest.raises(DomainError):
            phi_quadrature([1.0], SymmetricPareto(2.0))
        with pytest.raises(DomainError):
            phi_quadrature([0.0, np.inf], SymmetricPareto(2.0))
        with pytest.raises(DomainError):
            phi_quadrature([0.0, 1.0], SymmetricPareto(2.0), tol=1e-3)
        with pytest.raises(DomainError):
            phi_values([1.0], SymmetricPareto(2.0))
        with pytest.raises(DomainError):
            phi_values([0.0, np.inf], SymmetricPareto(2.0))
        with pytest.raises(DomainError):
            phi_values([0.0, 1.0], SymmetricPareto(2.0), tol=1e-3)

    def test_ranks_break_ties_by_index(self):
        probe = phi_quadrature([1.0, 0.0, 1.0], SymmetricPareto(2.0), tol=1e-8)
        assert probe.rank.tolist() == [2, 1, 3]


class TestStructuralInvariants:
    def rand_cases(self, n=12):
        rng = np.random.default_rng(31)
        cases = []
        for _ in range(n):
            k = int(rng.choice([2, 3, 5]))
            lam = rng.uniform(0.0, 5.0, size=k)
            dist = MIXED_DISTS[int(rng.integers(len(MIXED_DISTS)))]
            cases.append((lam, dist))
        return cases

    def test_sum_to_one(self):
        for lam, dist in self.rand_cases():
            probe = phi_quadrature(lam, dist, tol=1e-8)
            assert abs(probe.phi.sum() - 1.0) <= 1e-7, (lam, dist)

    def test_phi_prime_nonpositive(self):
        for lam, dist in self.rand_cases():
            probe = phi_quadrature(lam, dist, tol=1e-8)
            assert np.all(probe.phi_prime <= 1e-9), (lam, dist)

    def test_translation_invariance(self):
        for lam, dist in self.rand_cases(6):
            a = phi_quadrature(lam, dist, tol=1e-9)
            b = phi_quadrature(lam + 3.25, dist, tol=1e-9)
            np.testing.assert_allclose(a.phi, b.phi, atol=1e-9)
            np.testing.assert_allclose(a.phi_prime, b.phi_prime, atol=1e-9)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        for lam, dist in self.rand_cases(6):
            perm = rng.permutation(len(lam))
            a = phi_quadrature(lam, dist, tol=1e-9)
            b = phi_quadrature(lam[perm], dist, tol=1e-9)
            np.testing.assert_allclose(b.phi, a.phi[perm], atol=1e-9)

    def test_derivative_matches_finite_difference(self):
        h = 1e-4
        rng = np.random.default_rng(77)
        for _ in range(10):
            k = int(rng.choice([2, 3]))
            lam = rng.uniform(0.0, 4.0, size=k)
            dist = MIXED_DISTS[int(rng.integers(len(MIXED_DISTS)))]
            probe = phi_quadrature(lam, dist, tol=1e-9)
            for i in range(k):
                e = np.zeros(k)
                e[i] = h
                fd = (
                    phi_quadrature(lam + e, dist, tol=1e-10).phi[i]
                    - phi_quadrature(lam - e, dist, tol=1e-10).phi[i]
                ) / (2 * h)
                assert abs(fd - probe.phi_prime[i]) <= 1e-5, (lam, dist, i)

    def test_monotone_arm_suppression(self):
        rng = np.random.default_rng(99)
        for _ in range(8):
            k = int(rng.choice([2, 3]))
            lam = rng.uniform(0.0, 3.0, size=k)
            dist = MIXED_DISTS[int(rng.integers(len(MIXED_DISTS)))]
            i = int(rng.integers(k))
            base = phi_quadrature(lam, dist, tol=1e-9).phi[i]
            bumped = lam.copy()
            bumped[i] += 0.5
            assert phi_quadrature(bumped, dist, tol=1e-9).phi[i] < base

    def test_phi_values_matches_full_probe(self):
        lam = np.array([0.0, 1.0, 2.0])
        for dist in (SymmetricPareto(2.0), Gumbel()):
            np.testing.assert_allclose(
                phi_values(lam, dist, tol=1e-10),
                phi_quadrature(lam, dist, tol=1e-8).phi,
                atol=1e-9,
            )


class TestMonteCarlo:
    def test_uniform_case(self):
        phat, ci = phi_monte_carlo([0.0, 0.0, 0.0], SymmetricPareto(2.0), 10**6, np.random.default_rng(1))
        assert np.all(np.abs(phat - 1.0 / 3.0) <= 3.0 * ci)

    def test_needs_enough_samples(self):
        with pytest.raises(DomainError):
            phi_monte_carlo([0.0, 1.0], Gumbel(), 100, np.random.default_rng(0))

    def test_two_sided_envelope_at_c5(self):
        # lambda = (0, 5), symmetric Pareto(2): the suboptimal arm's probability
        # is pinned by the two-sided lower/upper envelope 1/(4(c+1)^2) .. 12.5/(c+2)^2
        phat, _ = phi_monte_carlo([0.0, 5.0], SymmetricPareto(2.0), 10**6, np.random.default_rng(2))
        assert 1.0 / 144.0 <= phat[1] <= 12.5 / 49.0

    def test_gumbel_matches_softmax(self):
        lam = np.array([0.0, 1.0])
        phat, ci = phi_monte_carlo(lam, Gumbel(), 10**6, np.random.default_rng(3))
        assert np.all(np.abs(phat - softmax_neg(lam)) <= 3.0 * ci)

    def test_quadrature_agrees_with_monte_carlo(self):
        rng = np.random.default_rng(13)
        for _ in range(6):
            k = int(rng.choice([2, 3, 5]))
            lam = rng.uniform(0.0, 4.0, size=k)
            dist = MIXED_DISTS[int(rng.integers(len(MIXED_DISTS)))]
            probe = phi_quadrature(lam, dist, tol=1e-8)
            phat, ci = phi_monte_carlo(lam, dist, 200_000, rng)
            tol = np.maximum(3.0 * ci, 3.0 * 3.0 / 200_000)  # rule-of-three floor for zero counts
            assert np.all(np.abs(probe.phi - phat) <= tol), (lam, dist)


class TestScans:
    def test_phi_scan_rows_are_probe_components(self):
        dist = LaplacePareto()
        rows = phi_scan(dist, lambda c: [c, 0.0, 2.0 * c], [0.0, 1.5], tol=1e-8)
        assert [(r["c"], r["i"]) for r in rows] == [(0.0, 1), (0.0, 2), (0.0, 3), (1.5, 1), (1.5, 2), (1.5, 3)]
        probe = phi_quadrature([1.5, 0.0, 3.0], dist, tol=1e-8)
        for i, r in enumerate(rows[3:]):
            assert r["sigma_i"] == probe.rank[i] and r["lambda_gap"] == probe.lambda_gap[i]
            assert (r["phi"], r["phi_prime"]) == (probe.phi[i], probe.phi_prime[i])
            assert (r["ratio_1"], r["ratio_32"]) == (probe.ratio_1[i], probe.ratio_32[i])
            assert r["quad_error"] == probe.quad_error

    def test_scans_extend_phi_scan_rows(self):
        dist, grid = LaplacePareto(), [2.0 * math.sqrt(3.0), 5.0]
        base = phi_scan(dist, lambda c: [0.0, c, c], grid)
        assert counterexample_scan(dist, 3, grid) == base
        env = stability_envelope_scan(dist, 3, lambda c: [0.0, c, c], grid)
        assert [{k: r[k] for k in base[0]} for r in env] == base
        assert all({"bound_rank", "bound_gap", "empirical_constant"} <= r.keys() for r in env)
        with pytest.raises(DomainError):
            stability_envelope_scan(dist, 4, lambda c: [0.0, c, c], grid)

    def test_envelope_scan_requires_light_left_tail(self):
        with pytest.raises(DomainError):
            stability_envelope_scan(AsymmetricPareto(2.0, 3.0), 4, lambda c: [0.0, c, c, c], [1.0])
        with pytest.raises(DomainError):
            stability_envelope_scan(ParetoLomax(2.0), 3, lambda c: [0.0, c, c], [1.0])

    def test_envelope_scan_bounded_constant_for_laplace_pareto(self):
        rows = stability_envelope_scan(
            LaplacePareto(), 4, lambda c: np.array([0.0, c, c, c]), np.arange(1.0, 51.0, 7.0)
        )
        # gap-branch product ratio_1 * gap stays bounded across the scan
        prods = [r["ratio_1"] * r["lambda_gap"] for r in rows if r["lambda_gap"] > 0]
        assert max(prods) < 10.0
        assert rows[-1]["empirical_constant"] < 10.0

    def test_envelope_scan_all_ratios_equal_at_zero(self):
        rows = stability_envelope_scan(LaplacePareto(), 3, lambda c: np.array([c, c, c]), [0.0])
        vals = [r["ratio_1"] for r in rows]
        assert np.allclose(vals, vals[0], atol=1e-9)
        assert all(math.isfinite(v) for v in vals)

    def test_counterexample_grid_restriction(self):
        with pytest.raises(DomainError):
            counterexample_scan(SymmetricPareto(2.0), 3, [1.0, 10.0])

    def test_counterexample_k3_lower_bounds(self):
        rows = counterexample_scan(SymmetricPareto(2.0), 3, [2 * math.sqrt(3.0), 10.0, 40.0])
        sub = [r for r in rows if r["i"] >= 2]
        for r in sub:
            assert r["ratio_1"] >= 1.0 / 31.0
            assert r["ratio_32"] >= (r["c"] + 1.0) / 11.0

    def test_counterexample_k2_allows_zero_and_stays_bounded(self):
        rows = counterexample_scan(SymmetricPareto(2.0), 2, np.linspace(0.0, 50.0, 11))
        assert max(r["ratio_32"] for r in rows) <= 125.0

    def test_laplace_pareto_ratio32_no_linear_growth(self):
        grid = np.linspace(2 * math.sqrt(3.0), 80.0, 12)
        rows = counterexample_scan(LaplacePareto(), 3, grid)
        sub = np.array([r["ratio_32"] for r in rows if r["i"] == 2])
        slope = np.polyfit(grid, sub, 1)[0]
        assert abs(slope) < 0.01  # bounded, in contrast with the symmetric case


class TestWork:
    """QUADPACK calls per evaluation: each distinct gap once, only the arms read."""

    @staticmethod
    def count_quad(monkeypatch):
        calls = []
        quad = selection.quad
        monkeypatch.setattr(selection, "quad", lambda *a, **kw: calls.append(a[1:3]) or quad(*a, **kw))
        return calls

    def test_equal_gaps_integrated_once(self, monkeypatch):
        calls = self.count_quad(monkeypatch)
        phi = phi_values([0.0, 2.0, 2.0], parse_dist("splareto:a=2"), tol=1e-10)
        assert len(calls) == 10  # five pieces for arm 1 and five for arm 2; arm 3 shares arm 2's gap
        assert phi[1] == phi[2]

    def test_inversion_step_integrates_arm_1_only(self, monkeypatch):
        dist = parse_dist("splareto:a=2")
        full = phi_values([0.0, 2.0, 2.0], dist, tol=1e-10)
        calls = self.count_quad(monkeypatch)
        values = selection._phi([0.0, 2.0, 2.0], dist, 1e-10, with_prime=False, arms=(0,))[2]
        assert len(calls) == 5
        assert values[0, 0] == full[0]
