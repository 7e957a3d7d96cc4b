"""Closed-form values, calculus consistency, sampling, and the assumption checker."""

import math

import numpy as np
import pytest
import quadpack_oracle
from scipy.integrate import quad

from pllab.distributions import (
    AsymmetricPareto,
    Frechet,
    GeneralizedPareto,
    Gumbel,
    Hybrid,
    Laplace,
    LaplacePareto,
    SymmetricPareto,
    Truncated,
    check_assumptions,
    parse_dist,
)
from pllab.errors import DomainError

# keyed by the test id: the constructor call that built each law
ALL_DISTS = {
    "SymmetricPareto(a=2)": SymmetricPareto(2.0),
    "SymmetricPareto(a=3.5)": SymmetricPareto(3.5),
    "LaplacePareto()": LaplacePareto(),
    "AsymmetricPareto(2,3)": AsymmetricPareto(2.0, 3.0),
    "Frechet(2)": Frechet(2.0),
    "GeneralizedPareto(2)": GeneralizedPareto(2.0),
    "GeneralizedPareto(3,scale=1.5)": GeneralizedPareto(3.0, 1.5),
    "Gumbel()": Gumbel(),
    "Laplace(rate=1)": Laplace(1.0),
    "Laplace(rate=2)": Laplace(2.0),
    "Hybrid(right=GeneralizedPareto(2), left=GeneralizedPareto(4))": Hybrid(
        right=GeneralizedPareto(2.0), left=GeneralizedPareto(4.0)
    ),
    "Truncated(Frechet(2))": Truncated(Frechet(2.0)),
    "Truncated(SymmetricPareto(a=2))": Truncated(SymmetricPareto(2.0)),
}


def named(laws):
    return [pytest.param(d, id=name) for name, d in laws.items()]


class TestClosedForms:
    def test_laplace_pareto_values(self):
        lp = LaplacePareto()
        assert lp.cdf(0.0) == 0.5
        assert lp.cdf(1.0) == pytest.approx(0.875, abs=1e-15)
        assert lp.pdf(-0.5) == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_symmetric_pareto_values(self):
        sp = SymmetricPareto(2.0)
        assert sp.cdf(0.0) == 0.5
        assert sp.pdf(0.0) == 1.0
        # differentiate (x+1)^-3 at x=1; cross-checked below by finite differences
        assert sp.pdf_prime(1.0) == pytest.approx(-3.0 / 2.0**4, abs=1e-15)
        h = 1e-6
        fd = (sp.pdf(1.0 + h) - sp.pdf(1.0 - h)) / (2 * h)
        assert sp.pdf_prime(1.0) == pytest.approx(fd, rel=1e-6)

    def test_quantile_examples(self):
        assert SymmetricPareto(2.0).quantile(0.5) == 0.0
        assert LaplacePareto().quantile(0.875) == pytest.approx(1.0, abs=1e-12)
        assert Gumbel().quantile(math.exp(-1.0)) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("spec,u,scale,beta", [("pareto:2", 1e-20, 1.0, 2.0), ("gpd:3,1.5", 1e-18, 1.5, 3.0)])
    def test_quantile_near_zero_is_relatively_exact(self, spec, u, scale, beta):
        # Q(u) = scale u / beta + O(u^2): the level 1 - u would round to 1
        assert parse_dist(spec).quantile(u) == pytest.approx(scale * u / beta, rel=1e-12, abs=0.0)

    def test_quantile_domain(self):
        with pytest.raises(DomainError):
            SymmetricPareto(2.0).quantile(0.0)
        with pytest.raises(DomainError):
            SymmetricPareto(2.0).quantile(1.0)

    def test_kink_flagging(self):
        lp = LaplacePareto()
        assert lp.kinks == (0.0,)
        assert lp.pdf_prime(0.0) == pytest.approx(-3.0)  # right-hand branch


class TestCalculusConsistency:
    @pytest.mark.parametrize("dist", named(ALL_DISTS))
    def test_normalization(self, dist):
        lo, hi = dist.support
        pieces = sorted({lo, hi, *dist.kinks})
        total = 0.0
        for a, b in zip(pieces[:-1], pieces[1:]):
            total += quad(dist.pdf, a, b, limit=200)[0]
        assert total == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("dist", named(ALL_DISTS))
    def test_cdf_pdf_consistency(self, dist):
        # |F(x+h) - F(x) - h f(x)| <= C h^2 away from kinks
        rng = np.random.default_rng(11)
        h = 1e-5
        lo, hi = dist.support
        a = max(lo, -20.0) + 0.1
        b = min(hi, 20.0)
        xs = rng.uniform(a, b, size=100)
        for k in dist.kinks:
            xs = xs[np.abs(xs - k) > 10 * h]
        lhs = np.abs(dist.cdf(xs + h) - dist.cdf(xs) - h * dist.pdf(xs))
        assert np.all(lhs <= 50.0 * h**2)

    @pytest.mark.parametrize("dist", named(ALL_DISTS))
    def test_pdf_prime_matches_pdf(self, dist):
        rng = np.random.default_rng(12)
        h = 1e-6
        lo, hi = dist.support
        xs = rng.uniform(max(lo, -15.0) + 0.2, min(hi, 15.0), size=60)
        for k in dist.kinks:
            xs = xs[np.abs(xs - k) > 10 * h]
        fd = (dist.pdf(xs + h) - dist.pdf(xs - h)) / (2 * h)
        exact = np.asarray(dist.pdf_prime(xs))
        scale = np.maximum(np.abs(exact), 1e-3)
        assert np.all(np.abs(fd - exact) / scale <= 1e-6)

    @pytest.mark.parametrize("dist", named(ALL_DISTS))
    def test_quantile_round_trip(self, dist):
        u = (np.arange(1000) + 0.5) / 1000.0
        x = dist.quantile(u)
        assert np.max(np.abs(np.asarray(dist.cdf(x)) - u)) <= 1e-10

    @pytest.mark.parametrize("dist", named(ALL_DISTS))
    def test_cdf_monotone_with_limits(self, dist):
        xs = np.linspace(-50, 50, 2001)
        F = np.asarray(dist.cdf(xs))
        assert np.all(np.diff(F) >= -1e-15)
        assert dist.cdf(-1e9) <= 1e-6
        assert dist.cdf(1e9) >= 1.0 - 1e-6


class TestComposition:
    def test_hybrid_is_half_half(self):
        h = Hybrid(right=GeneralizedPareto(2.0), left=GeneralizedPareto(4.0))
        assert h.cdf(0.0) == 0.5
        assert Hybrid(right=Truncated(Gumbel()), left=Frechet(1.0)).cdf(0.0) == 0.5
        xs = np.linspace(0.0, 30.0, 200)
        np.testing.assert_allclose(h.cdf(xs), 0.5 + 0.5 * np.asarray(GeneralizedPareto(2.0).cdf(xs)), atol=1e-15)
        np.testing.assert_allclose(h.cdf(-xs[1:]), 0.5 - 0.5 * np.asarray(GeneralizedPareto(4.0).cdf(xs[1:])), atol=1e-15)
        assert h.tail_index_right == 2.0
        assert h.tail_index_left == 4.0

    def test_hybrid_reproduces_asymmetric_pareto(self):
        h = Hybrid(right=GeneralizedPareto(2.0), left=GeneralizedPareto(beta=3.0, scale=1.5))
        asp = AsymmetricPareto(2.0, 3.0)
        xs = np.linspace(-40.0, 40.0, 4001)
        assert np.max(np.abs(np.asarray(h.cdf(xs)) - np.asarray(asp.cdf(xs)))) <= 1e-12

    def test_hybrid_rejects_two_sided_halves(self):
        with pytest.raises(DomainError):
            Hybrid(right=SymmetricPareto(2.0), left=GeneralizedPareto(2.0))

    def test_hybrid_far_left_tail_keeps_relative_accuracy(self):
        h = parse_dist("hybrid:right=pareto:2,left=pareto:4")
        for x in (-1e4, -1e5):
            want = 0.5 * (1.0 + abs(x)) ** -4.0
            assert abs(h.cdf(x) - want) <= 1e-12 * want

    def test_hybrid_density_jump_is_exact(self):
        h = parse_dist("hybrid:right=frechet:2,left=pareto:3")
        assert quadpack_oracle.density_jumps(h) == ((0.0, -1.5),)

    @pytest.mark.parametrize(
        "spec",
        ["hybrid:right=pareto:2,left=pareto:4", "hybrid:right=pareto:2,left=frechet:2",
         "hybrid:right=frechet:2,left=gpd:3,1.5", "lp", "splareto:a=2", "laplace:1"],
    )
    def test_hybrid_quantile_round_trip_in_far_left_tail(self, spec):
        dist = parse_dist(spec)
        u = np.geomspace(1e-300, 0.499, 400)
        rel = np.abs(np.asarray(dist.cdf(dist.quantile(u))) - u) / u
        assert np.max(rel) <= 1e-12

    def test_truncated_cdf_at_origin_and_form(self):
        base = Frechet(2.0)
        tr = Truncated(base)
        assert tr.cdf(0.0) == 0.0
        assert tr.cdf(1e-12) == pytest.approx(0.0, abs=1e-9)
        x = 3.7
        want = (base.cdf(x + 1.0) - base.cdf(1.0)) / (1.0 - base.cdf(1.0))
        assert tr.cdf(x) == pytest.approx(want, abs=1e-15)

    def test_truncated_tail_slope(self):
        # 1 - F*(x) = Theta((x+1)^-alpha): log-log slope within +-0.1 of -alpha
        for base, alpha in [(Frechet(2.0), 2.0), (SymmetricPareto(2.0), 2.0), (GeneralizedPareto(3.0), 3.0)]:
            tr = Truncated(base)
            xs = np.geomspace(10.0, 1e3, 60)
            tail = 1.0 - np.asarray(tr.cdf(xs))
            slope = np.polyfit(np.log(xs + 1.0), np.log(tail), 1)[0]
            assert abs(slope + alpha) <= 0.1, (base, slope)


class TestSampling:
    def test_replay_determinism(self):
        for dist in (LaplacePareto(), Gumbel(), Truncated(Frechet(2.0))):
            a = dist.sample_array(64, np.random.default_rng(123))
            b = dist.sample_array(64, np.random.default_rng(123))
            np.testing.assert_array_equal(a, b)

    def test_laplace_pareto_mean(self):
        rng = np.random.default_rng(2024)
        draws = LaplacePareto().sample_array(10**6, rng)
        assert np.mean(draws) == pytest.approx(0.25, abs=0.01)

    def test_symmetric_pareto_median(self):
        rng = np.random.default_rng(2025)
        draws = SymmetricPareto(2.0).sample_array(10**6, rng)
        assert np.median(draws) == pytest.approx(0.0, abs=0.01)

    @pytest.mark.parametrize(
        "dist",
        named({k: ALL_DISTS[k] for k in ("LaplacePareto()", "SymmetricPareto(a=2)", "Gumbel()", "Frechet(2)")}),
    )
    def test_kolmogorov_smirnov(self, dist):
        rng = np.random.default_rng(7)
        n = 10**6
        xs = np.sort(dist.sample_array(n, rng))
        F = np.asarray(dist.cdf(xs))
        i = np.arange(1, n + 1)
        ks = max(np.max(np.abs(F - i / n)), np.max(np.abs(F - (i - 1) / n)))
        assert ks <= 0.002

    def test_sample_vector_shape(self):
        rng = np.random.default_rng(0)
        assert Gumbel().sample_array(5, rng).shape == (5,)
        assert Gumbel().sample_array((2, 3), rng).shape == (2, 3)


class TestSpecParser:
    def test_round_trip_specs(self):
        assert parse_dist("lp") == LaplacePareto()
        assert parse_dist("splareto:a=2") == SymmetricPareto(2.0)
        assert parse_dist("splareto:3") == SymmetricPareto(3.0)
        assert parse_dist("asp:2,3") == AsymmetricPareto(2.0, 3.0)
        assert parse_dist("frechet:2") == Frechet(2.0)
        assert parse_dist("pareto:2.5") == GeneralizedPareto(2.5)
        assert isinstance(parse_dist("gumbel"), Gumbel)
        assert parse_dist("laplace:2") == Laplace(2.0)
        h = parse_dist("hybrid:right=pareto:2,left=pareto:4")
        assert isinstance(h, Hybrid) and h.right == GeneralizedPareto(2.0)
        t = parse_dist("trunc(frechet:2)")
        assert isinstance(t, Truncated) and t.inner == Frechet(2.0)
        nested = parse_dist("hybrid:right=trunc(hybrid:right=pareto:2,left=pareto:3),left=pareto:2")
        inner = Hybrid(right=GeneralizedPareto(2.0), left=GeneralizedPareto(3.0))
        assert nested == Hybrid(right=Truncated(inner), left=GeneralizedPareto(2.0))

    def test_bad_specs(self):
        for bad in ("nope", "hybrid:left=pareto:2", "splareto:a=-1",
                    "frechet:abc", "asp:2", "splareto:a=x", "gpd:", "pareto:nan"):
            with pytest.raises(DomainError):
                parse_dist(bad)


class TestAssumptionChecker:
    def test_pareto_lomax_clean(self):
        report = check_assumptions(GeneralizedPareto(2.0))
        assert report.ff_monotone
        assert report.von_mises_limit == pytest.approx(2.0, abs=0.01)
        assert report.hazard_sup <= 2.0 + 1e-9
        assert "NonFiniteEstimate" not in report.flags

    def test_asymmetric_pareto_violates_monotonicity(self):
        report = check_assumptions(AsymmetricPareto(2.0, 3.0))
        assert not report.ff_monotone
        assert report.ff_first_violation is not None
        assert report.ff_first_violation < 0.0

    def test_frechet_von_mises(self):
        report = check_assumptions(Frechet(2.0))
        assert report.von_mises_limit == pytest.approx(2.0, abs=0.01)

    def test_gumbel_tail_flagged_but_hazard_bounded(self):
        report = check_assumptions(Gumbel())
        assert "von_mises" in report.flags  # exponential tail: x f/(1-F) grows
        assert "hazard" not in report.flags
        assert report.hazard_sup <= 1.1

    def test_block_maxima_recorded(self):
        report = check_assumptions(GeneralizedPareto(2.0))
        assert {row[3] for row in report.rows() if row[0] == "block_maxima"} == {"mc:20000x[8, 32, 128, 512]"}
        assert math.isfinite(report.block_max_mu)
        assert math.isfinite(report.block_max_ml)
        a_lo, a_hi = report.a_k_fit
        assert 0.0 < a_lo <= a_hi < 2.0

    def test_overflowing_block_maxima_are_flagged(self):
        # draws reach (1 - u)^(-100) = inf, so the mean over a_k is inf and
        # its interval nan
        report = check_assumptions(parse_dist("gpd:0.01"))
        assert report.block_max_mu == math.inf and math.isnan(report.block_max_mu_ci)
        assert {"block_maxima", "NonFiniteEstimate"} <= report.flags

    @pytest.mark.parametrize("spec", ["gpd:0.001", "frechet:1e-300"])
    def test_block_sizes_with_an_infinite_a_k_are_skipped(self, spec):
        # a_k = quantile(1 - 1/k) overflows, so every block maximum over a_k
        # read 0 and the reciprocal's interval divided by sqrt(0)
        report = check_assumptions(parse_dist(spec))
        assert [n for n in report.notes if "not finite" in n] == [
            f"k={k}: a_k = inf is not finite, block statistic skipped" for k in (8, 32, 128, 512)
        ]
        assert math.isnan(report.block_max_mu) and math.isnan(report.block_max_ml)
