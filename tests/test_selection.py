"""Quadrature selection probabilities against closed forms, Monte Carlo, and scans."""

import math

import numpy as np
import panels_oracle
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mc_oracle import phi_monte_carlo
from test_far_tails import any_law

from pllab import cli, duality, selection
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
from pllab.errors import DomainError, NonIntegrable, ToleranceNotMet
from pllab.selection import counterexample_scan, phi_quadrature, phi_values


@st.composite
def gap_vectors(draw):
    """lam - min(lam) for K in [2, 12] arms on a few levels (ties and all-zero gaps), spread up to 2^40."""
    K = draw(st.integers(2, 12))
    n = draw(st.integers(1, K))  # distinct levels, each on at least one arm
    levels = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    picks = draw(st.permutations([*range(n), *draw(st.lists(st.integers(0, n - 1), min_size=K - n, max_size=K - n))]))
    lam = 2.0 ** draw(st.floats(-10.0, 40.0)) * np.array(levels)[picks]
    return lam - lam.min()


@st.composite
def gap_batches(draw):
    """One to five gap vectors of one length K in [2, 10], each on a few levels (ties and all-zero gaps included)."""
    K = draw(st.integers(2, 10))
    batch = []
    for _ in range(draw(st.integers(1, 5))):
        levels = draw(st.lists(st.floats(0.0, 1.0), min_size=K, max_size=K))
        picks = draw(st.lists(st.integers(0, draw(st.integers(0, K - 1))), min_size=K, max_size=K))
        lam = 2.0 ** draw(st.floats(-6.0, 8.0)) * np.array(levels)[picks]
        batch.append(lam - lam.min())
    return batch


def _outcome_bits(outcome):
    """A kernel outcome as comparable bits: each array's shape and bytes, or the error's type and fields."""
    if isinstance(outcome, Exception):
        return type(outcome), str(outcome), repr(vars(outcome))
    values, errs, n_evals, n_panels = outcome
    return values.shape, values.tobytes(), errs.shape, errs.tobytes(), n_evals, n_panels


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
    "GeneralizedPareto(2)": GeneralizedPareto(2.0),
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
        for short in ([], [1.0]):
            with pytest.raises(DomainError):
                phi_quadrature(short, SymmetricPareto(2.0))
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

    def test_loss_spread_beyond_resolution(self):
        # past a spread of 2^40 the shifted nodes collapse onto a few floats:
        # phi at a gap of 1e16 missed by 2.7e-9 under a 4e-10 estimate, and
        # potential([0, -1e300]) returned NaN
        lam = [0.0, 2.0**40 * (1.0 + 2.0**-52)]
        for fn in (phi_quadrature, phi_values, duality.potential):
            with pytest.raises(DomainError):
                fn(lam, SymmetricPareto(2.0))
        assert phi_values([0.0, 2.0**40], SymmetricPareto(2.0))[1] <= 1e-12

    @pytest.mark.parametrize("spec", ["frechet:1", "splareto:a=1", "frechet:0.5", "splareto:a=0.8",
                                      "hybrid:right=frechet:3,left=pareto:1"])
    def test_kernel_needs_a_tail_index_above_its_moment(self, spec):
        # at a tail index equal to the moment the tail's map u^-p had p = 2 / 0
        dist = parse_dist(spec)
        for prime in (False, True):
            (result,) = selection._component_integrals(dist, [np.array([0.0, 1.0])], 1e-9, moment=1, prime=prime)
            assert isinstance(result, NonIntegrable)
        assert selection._component_integrals(dist, [np.array([0.0, 1.0])], 1e-9)[0][0].shape == (2, 1)

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

    @pytest.mark.parametrize(
        "spec", ["splareto:a=2", "splareto:3.5", "lp", "gumbel", "laplace", "frechet:2", "trunc(frechet:2)",
                 "hybrid:right=frechet:2,left=pareto:3"]
    )
    def test_sum_to_one_at_far_gaps_within_the_error_estimate(self, spec):
        # the panels reach out to 10x the largest gap; none may be so wide
        # that its nodes miss the narrow bump of mass next to an arm's location
        dist = parse_dist(spec)
        for lam in ([0.0, 200.0], [0.0, 40.0, 40.0], [0.0, 0.5, 80.0]):
            probe = phi_quadrature(lam, dist, tol=1e-8)
            assert abs(probe.phi.sum() - 1.0) <= len(lam) * probe.quad_error + 1e-15, lam

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

    @pytest.mark.parametrize("spec", ["pareto:2", "trunc(splareto:2)", "hybrid:right=frechet:2,left=pareto:3"])
    def test_derivative_matches_finite_difference_at_a_density_jump(self, spec):
        # phi' by parts carries no jump term: central differences of phi check
        # it with no help from the QUADPACK oracle's f' and jump masses
        h = 1e-4
        dist = parse_dist(spec)
        rng = np.random.default_rng(78)
        for k in (2, 3, 3):
            lam = rng.uniform(0.0, 4.0, size=k)
            probe = phi_quadrature(lam, dist, tol=1e-9)
            for i in range(k):
                e = np.zeros(k)
                e[i] = h
                fd = (phi_quadrature(lam + e, dist, tol=1e-10).phi[i]
                      - phi_quadrature(lam - e, dist, tol=1e-10).phi[i]) / (2 * h)
                assert abs(fd - probe.phi_prime[i]) <= 1e-5, (lam, i)

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
    def test_analyze_phi_rows_are_probe_fields(self, tmp_path):
        # unequal gaps, so rank, phi and both ratios differ arm by arm; .17g round-trips a float
        out = tmp_path / "scan.csv"
        argv = ["analyze-phi", "--dist", "lp", "--lambda", "c,0,2c", "--c-grid", "0:1.5:1.5", "--out", str(out)]
        assert cli.main(argv) == 0
        header, *lines = out.read_text().splitlines()
        assert header == "c,i,sigma_i,phi,phi_prime,ratio_1,ratio_32,quad_error"
        rows = [line.split(",") for line in lines]
        assert [(float(r[0]), int(r[1])) for r in rows] == [(0.0, 1), (0.0, 2), (0.0, 3), (1.5, 1), (1.5, 2), (1.5, 3)]
        for c, arms in ((0.0, rows[:3]), (1.5, rows[3:])):
            probe = phi_quadrature([c, 0.0, 2.0 * c], LaplacePareto(), tol=1e-8)
            fields = (probe.rank, probe.phi, probe.phi_prime, probe.ratio_1, probe.ratio_32)
            assert [[int(r[2]), *map(float, r[3:7])] for r in arms] == [list(arm) for arm in zip(*fields)]
            assert {r[7] for r in arms} == {f"{probe.quad_error:.3g}"}

    def test_counterexample_scan_probes_are_phi_quadrature(self):
        dist, grid = LaplacePareto(), [2.0 * math.sqrt(3.0), 5.0]
        for c, probe in zip(grid, counterexample_scan(dist, 3, grid), strict=True):
            direct = phi_quadrature([0.0, c, c], dist)
            assert np.array_equal(probe.lam, direct.lam)
            assert np.array_equal(probe.phi, direct.phi) and np.array_equal(probe.phi_prime, direct.phi_prime)

    def test_counterexample_scan_takes_an_empty_grid(self):
        assert counterexample_scan(SymmetricPareto(2.0), 3, []) == []

    def test_laplace_pareto_ratio_within_rank_and_gap_envelope(self):
        # light left tail: -phi'/phi <= C min(rank^(-1/alpha), 1/gap) with one
        # constant C across the scan, alpha the right tail index
        dist = LaplacePareto()
        probes = [phi_quadrature([0.0, c, c, c], dist) for c in np.arange(1.0, 51.0, 7.0)]
        ratio_1, gap, rank = (np.concatenate([getattr(p, f) for p in probes])
                              for f in ("ratio_1", "lambda_gap", "rank"))
        # gap-branch product ratio_1 * gap stays bounded across the scan
        assert max((ratio_1 * gap)[gap > 0]) < 10.0
        with np.errstate(divide="ignore"):
            bounds = np.minimum(rank ** (-1.0 / dist.tail_index_right), np.where(gap > 0.0, 1.0 / gap, math.inf))
        assert max(ratio_1 / bounds) < 10.0

    def test_all_ratios_equal_at_zero(self):
        vals = phi_quadrature([0.0, 0.0, 0.0], LaplacePareto()).ratio_1
        assert np.allclose(vals, vals[0], atol=1e-9)
        assert np.all(np.isfinite(vals))

    def test_ratio_32_where_phi_to_the_1_5_underflows(self):
        probe = phi_quadrature([0.0, 600.0], Gumbel())
        assert 0.0 < probe.phi[1] < 1e-200 and probe.phi[1] ** 1.5 == 0.0
        # -phi'/phi^1.5 = phi^(-1/2) for the logit: phi_2' = -phi_1 phi_2
        assert probe.ratio_32[1] == pytest.approx(probe.phi[0] / math.sqrt(probe.phi[1]), rel=1e-12)
        assert probe.ratio_32[1] == pytest.approx(1.94e130, rel=1e-2)

    def test_ratios_read_nan_without_a_warning_where_phi_underflows(self):
        probe = phi_quadrature([0.0, 800.0], Gumbel())  # warnings are errors under the suite's filter
        assert probe.phi[1] == 0.0
        assert math.isnan(probe.ratio_1[1]) and math.isnan(probe.ratio_32[1])
        assert (probe.ratio_1[0], probe.ratio_32[0]) == (0.0, 0.0)

    def test_counterexample_grid_restriction(self):
        with pytest.raises(DomainError):
            counterexample_scan(SymmetricPareto(2.0), 3, [1.0, 10.0])

    def test_counterexample_k3_lower_bounds(self):
        grid = [2 * math.sqrt(3.0), 10.0, 40.0]
        for c, probe in zip(grid, counterexample_scan(SymmetricPareto(2.0), 3, grid)):
            assert np.all(probe.ratio_1[1:] >= 1.0 / 31.0)
            assert np.all(probe.ratio_32[1:] >= (c + 1.0) / 11.0)

    def test_counterexample_k2_allows_zero_and_stays_bounded(self):
        probes = counterexample_scan(SymmetricPareto(2.0), 2, np.linspace(0.0, 50.0, 11))
        assert max(float(p.ratio_32.max()) for p in probes) <= 125.0

    def test_laplace_pareto_ratio32_no_linear_growth(self):
        grid = np.linspace(2 * math.sqrt(3.0), 80.0, 12)
        sub = [p.ratio_32[1] for p in counterexample_scan(LaplacePareto(), 3, grid)]
        slope = np.polyfit(grid, sub, 1)[0]
        assert abs(slope) < 0.01  # bounded, in contrast with the symmetric case


class TestWork:
    """Kernel work per evaluation: each distinct gap once, only the arms read."""

    def test_equal_gaps_integrated_once(self):
        dist = parse_dist("splareto:a=2")
        _, _, tied, _, n_evals, n_panels = selection._phi([0.0, 2.0, 2.0], dist, 1e-10, with_prime=False)
        pair = selection._phi([0.0, 2.0], dist, 1e-10, with_prime=False)
        assert (n_evals, n_panels) == pair[4:]  # arm 3 shares arm 2's gap
        assert n_evals == 2 * 15 * n_panels  # 15 nodes per panel for each of two distinct gaps
        assert tied[1, 0] == tied[2, 0]

    def test_inversion_step_integrates_arm_1_only(self):
        dist = parse_dist("splareto:a=2")
        full = selection._phi([0.0, 2.0, 2.0], dist, 1e-10, with_prime=True)
        _, _, values, errs, n_evals, n_panels = selection._phi([0.0, 2.0, 2.0], dist, 1e-10, with_prime=True,
                                                               arms=(0,))
        assert n_evals == 15 * n_panels
        # arm 1 alone refines on its own error estimate, so its panels may differ from the all-arms run's
        assert values.shape == (1, 2) and np.all(np.abs(values[0] - full[2][0]) <= errs[0] + full[3][0])

    def test_probe_reports_its_work(self):
        probe = phi_quadrature([0.0, 1.0, 1.0, 3.0], SymmetricPareto(2.0), tol=1e-8)
        assert probe.n_panels > 0 and probe.n_evals == 3 * 15 * probe.n_panels

    @settings(max_examples=150, deadline=None)
    @given(any_law, gap_batches(), st.sampled_from([0, 1]), st.booleans(), st.sampled_from([None, (0,)]),
           st.just(2.5e-9))
    @example("splareto:a=2", [np.array([0.0, c, c]) for c in (1.0, 0.0, 4.0)], 0, True, None, 2.5e-9)
    @example("gumbel", [np.array([0.0, c]) for c in (0.0, 1.0, 20.0, 0.5)], 0, False, None, 1e-18)
    @example("frechet:1", [np.array([0.0, 1.0]), np.array([0.0, 0.0])], 1, False, None, 2.5e-9)
    @example("lp", [np.array([0.0, 0.5, 3.0]), np.array([0.0, 4.0, 1.5])], 0, False, (0,), 2.5e-9)
    def test_batched_kernel_is_each_vector_alone(self, spec, gaps, moment, prime, arms, budget):
        # one refinement loop for many gap vectors changes no bit of any vector's
        # integrals, error estimates, counts or error.  The examples mix distinct-gap
        # counts, put vectors that hit the work cap beside two that converge, take a
        # tail index at the moment, and sum a single column, which numpy sums pairwise
        try:
            dist = parse_dist(spec)
        except DomainError:
            assume(False)
        batched = selection._component_integrals(dist, gaps, budget, arms, moment, prime)
        for gap, got in zip(gaps, batched, strict=True):
            (alone,) = selection._component_integrals(dist, [gap], budget, arms, moment, prime)
            assert _outcome_bits(got) == _outcome_bits(alone), (spec, gap)

    @settings(max_examples=400, deadline=None)
    @given(any_law, gap_vectors(), st.sampled_from([None, 0, -1]), st.sampled_from([0, 1]))
    @example("lp", np.zeros(3), None, 0)
    @example("splareto:a=2", np.array([2.0**40, 0.0, 2.0**40]), -1, 1)
    def test_starting_panels_match_the_numpy_set_up(self, spec, gap, arm, moment):
        try:
            dist = parse_dist(spec)
        except DomainError:
            assume(False)
        arms = None if arm is None else (arm % len(gap),)  # (0,) or (K - 1,)
        outcomes = []
        for setup in (panels_oracle.starting_panels, selection._starting_panels):
            try:
                outcomes.append(setup(dist, gap, arms, moment, 2.5e-9))
            except (NonIntegrable, ToleranceNotMet) as exc:
                outcomes.append(type(exc))
        want, got = outcomes
        if isinstance(want, type):
            assert got is want
            return
        assert type(got[4]) is type(want[4])  # cut
        for w, g in zip(map(np.asarray, want), map(np.asarray, got), strict=True):
            assert w.dtype == g.dtype and np.array_equal(w, g), (spec, gap, w, g)
            assert np.array_equal(np.signbit(w), np.signbit(g)), (spec, gap, w, g)
