"""Learner behavior: selection, resampling, updates, and the exact FTRL solver."""

import math

import ftpl_oracle
import numpy as np
import pytest
from brentq_oracle import kkt_residual
from ftpl_oracle import ftpl_select
from ftrl_oracle import ftrl_select, ftrl_update

from pllab import duality
from pllab.distributions import Gumbel, LaplacePareto, PerturbationDistribution, SymmetricPareto, parse_dist
from pllab.errors import DomainError, SolverDiverged
from pllab.harness import COUNTERS
from pllab.policies import (
    TAPE_CHUNK,
    FtplPolicy,
    FtrlPolicy,
    PolicyState,
    Shannon,
    Tsallis,
    _draw,
    _perturbations,
    ftpl_update,
    geometric_resample,
    parse_policy,
    shannon_weights,
    tsallis_weights,
)
from pllab.selection import phi_quadrature


def gumbel_state_with_w(w, m=1.0, seed=0, cap=10**6):
    """Two-arm state whose FTPL-Gumbel selection probability of arm 0 is exactly w."""
    state = PolicyState.fresh(2, m, np.random.default_rng(seed), resample_cap=cap)
    state.lhat = np.array([0.0, math.log(w / (1.0 - w))]) / state.eta
    return state


class TestFtplSelect:
    def test_replay_determinism(self):
        picks_a = []
        picks_b = []
        for seed_set in (picks_a, picks_b):
            state = PolicyState.fresh(4, 0.5, np.random.default_rng(42))
            for _ in range(50):
                seed_set.append(ftpl_select(state, LaplacePareto()))
        assert picks_a == picks_b

    def test_dominant_arm(self):
        # phi_1 ~ 1 when every other arm carries a huge estimated loss
        state = PolicyState.fresh(3, 0.23, np.random.default_rng(3))
        state.lhat = np.array([0.0, 1e6, 1e6])
        picks = [ftpl_select(state, LaplacePareto()) for _ in range(10**4)]
        assert np.mean(np.asarray(picks) == 0) >= 0.999

    def test_uniform_frequencies(self):
        state = PolicyState.fresh(4, 0.5, np.random.default_rng(8))
        counts = np.bincount(
            [ftpl_select(state, SymmetricPareto(2.0)) for _ in range(10**5)], minlength=4
        )
        freq = counts / 1e5
        sigma = math.sqrt(0.25 * 0.75 / 1e5)
        assert np.all(np.abs(freq - 0.25) <= 3 * sigma + 1e-12)

    def test_does_not_mutate_lhat(self):
        state = PolicyState.fresh(3, 1.0, np.random.default_rng(0))
        state.lhat = np.array([0.5, 0.1, 0.9])
        before = state.lhat.copy()
        ftpl_select(state, Gumbel())
        np.testing.assert_array_equal(state.lhat, before)


# the nine FTPL laws of tests/test_golden.py
GOLDEN_LAWS = ["lp", "splareto:a=2", "asp:2,3", "laplace:1", "pareto:2", "gpd:3,1.5", "frechet:2", "gumbel",
               "trunc(splareto:2)"]


class TestTape:
    @pytest.mark.parametrize("spec", GOLDEN_LAWS)
    def test_reads_equal_one_bulk_draw(self, spec):
        dist, k = parse_dist(spec), 8
        state = PolicyState.fresh(k, 1.0, np.random.default_rng(31))
        # selections, resampling blocks and a read longer than one chunk
        rows = [1, 16, 1, 64, 256, 1, 16, 1024, 1, 4096, 3, 16]
        reads = np.concatenate([_perturbations(state, dist, b).ravel() for b in rows])
        bulk = dist.sample_array(sum(rows) * k, np.random.default_rng(31))
        # one draw per read, as ftpl_select and geometric_resample drew before the tape
        rng = np.random.default_rng(31)
        per_read = np.concatenate([dist.sample_array((b, k), rng).ravel() for b in rows])
        assert reads.tobytes() == bulk.tobytes() == per_read.tobytes()
        assert state.vectors_drawn == sum(rows)

    def test_refills_in_chunks(self, monkeypatch):
        sizes = []
        sample = PerturbationDistribution.sample_array
        monkeypatch.setattr(PerturbationDistribution, "sample_array",
                            lambda self, shape, rng: sizes.append(shape) or sample(self, shape, rng))
        state = PolicyState.fresh(4, 1.0, np.random.default_rng(0))
        dist = LaplacePareto()
        for _ in range(3000):
            ftpl_select(state, dist)
        assert sizes == [TAPE_CHUNK] * 3
        _perturbations(state, dist, 2 * TAPE_CHUNK)
        assert sizes[-1] == 2 * TAPE_CHUNK * 4 - (3 * TAPE_CHUNK - 3000 * 4)

    def test_one_law_per_tape(self):
        state = PolicyState.fresh(3, 1.0, np.random.default_rng(0))
        ftpl_select(state, LaplacePareto())
        ftpl_select(state, LaplacePareto())  # an equal law reads on
        with pytest.raises(DomainError):
            ftpl_select(state, Gumbel())


class TestGeometricResample:
    def test_half_weight_mean(self):
        state = PolicyState.fresh(2, 1.0, np.random.default_rng(17), resample_cap=10**6)
        vals = [geometric_resample(state, SymmetricPareto(2.0), 0) for _ in range(10**5)]
        assert np.mean(vals) == pytest.approx(2.0, abs=0.03)

    def test_degenerate_single_arm(self):
        state = PolicyState.fresh(1, 1.0, np.random.default_rng(0))
        for _ in range(20):
            assert geometric_resample(state, Gumbel(), 0) == 1

    def test_cap_respected(self):
        state = PolicyState.fresh(2, 1.0, np.random.default_rng(5), resample_cap=7)
        state.lhat = np.array([0.0, 1e9])  # arm 1 essentially never wins
        assert geometric_resample(state, Gumbel(), 1) == 7
        assert (state.cap_hits, state.resample_trials, state.vectors_drawn) == (1, 7, 7)

    def test_counters(self):
        state = PolicyState.fresh(2, 1.0, np.random.default_rng(5), resample_cap=10**6)
        vals = [geometric_resample(state, SymmetricPareto(2.0), 0) for _ in range(200)]
        assert state.resample_trials == sum(vals)
        assert state.cap_hits == 0
        # whole blocks are read, so at least one vector per trial
        assert state.vectors_drawn >= sum(vals)

    def test_dynamic_cap_formula(self):
        state = PolicyState.fresh(3, 1.0, np.random.default_rng(0))
        state.t = 49
        assert state.cap() == math.ceil(2 * 3 * 7.0)

    @pytest.mark.parametrize("w", [0.05, 0.25, 0.5])
    def test_unbiased_inverse_weight(self, w):
        state = gumbel_state_with_w(w, seed=101)
        n = 10**5
        vals = np.array([geometric_resample(state, Gumbel(), 0) for _ in range(n)])
        sigma_mean = math.sqrt(1.0 - w) / w / math.sqrt(n)
        assert abs(vals.mean() - 1.0 / w) <= 3.0 * sigma_mean

    def test_mean_matches_quadrature_inverse(self):
        state = PolicyState.fresh(3, 1.0, np.random.default_rng(7), resample_cap=10**6)
        state.lhat = np.array([0.0, 5.0, 5.0])
        probe = phi_quadrature(state.eta * state.lhat, SymmetricPareto(2.0), tol=1e-8)
        n = 4000
        vals = np.array([geometric_resample(state, SymmetricPareto(2.0), 1) for _ in range(n)])
        w = probe.phi[1]
        sigma_mean = math.sqrt(1.0 - w) / w / math.sqrt(n)
        assert abs(vals.mean() - 1.0 / w) <= 3.0 * sigma_mean


class TestUpdates:
    def test_zero_loss_keeps_lhat(self):
        state = PolicyState.fresh(2, 1.0, np.random.default_rng(0))
        ftpl_update(state, 0, 0.0, 11)
        np.testing.assert_array_equal(state.lhat, [0.0, 0.0])
        assert state.t == 2

    def test_weighted_increment(self):
        state = PolicyState.fresh(2, 1.0, np.random.default_rng(0))
        ftpl_update(state, 1, 1.0, 4)
        assert state.lhat[1] == 4.0
        assert state.eta == pytest.approx(1.0 / math.sqrt(2.0))

    def test_loss_range_enforced(self):
        state = PolicyState.fresh(2, 1.0, np.random.default_rng(0))
        with pytest.raises(DomainError):
            ftpl_update(state, 0, 1.5, 1)

    def test_ftpl_estimator_unbiased(self):
        # mean of lhat/t approaches the true means (law of large numbers)
        mu = np.array([0.1, 0.9])
        ends = []
        for seed in range(5):
            env_rng = np.random.default_rng((900, seed))
            state = PolicyState.fresh(2, 0.3, np.random.default_rng((901, seed)), resample_cap=10**6)
            T = 20000
            for t in range(1, T + 1):
                arm = ftpl_select(state, LaplacePareto())
                loss = float(env_rng.random() < mu[arm])
                west = geometric_resample(state, LaplacePareto(), arm)
                ftpl_update(state, arm, loss, west)
            ends.append(state.lhat / T)
        ends = np.asarray(ends)
        err = np.abs(ends.mean(axis=0) - mu)
        stderr = ends.std(axis=0, ddof=1) / math.sqrt(len(ends))
        assert np.all(err <= 3.0 * stderr + 0.01)

    def test_ftrl_estimator_unbiased(self):
        mu = np.array([0.2, 0.6])
        ends = []
        for seed in range(5):
            env_rng = np.random.default_rng((910, seed))
            state = PolicyState.fresh(2, 0.3, np.random.default_rng((911, seed)))
            T = 20000
            for t in range(1, T + 1):
                arm, p = ftrl_select(state, Tsallis(0.5))
                loss = float(env_rng.random() < mu[arm])
                ftrl_update(state, arm, loss, p)
            ends.append(state.lhat / T)
        ends = np.asarray(ends)
        err = np.abs(ends.mean(axis=0) - mu)
        stderr = ends.std(axis=0, ddof=1) / math.sqrt(len(ends))
        assert np.all(err <= 3.0 * stderr + 0.01)


class TestFtrlSolver:
    def test_uniform_at_zero_loss(self):
        state = PolicyState.fresh(5, 1.0, np.random.default_rng(0))
        _, p = ftrl_select(state, Tsallis(0.5))
        np.testing.assert_allclose(p, 0.2, atol=1e-12)
        _, p = ftrl_select(state, Shannon())
        np.testing.assert_allclose(p, 0.2, atol=1e-15)

    def test_shannon_closed_form(self):
        state = PolicyState.fresh(2, 1.0, np.random.default_rng(0))
        state.lhat = np.array([0.0, math.log(2.0) / state.eta])
        _, p = ftrl_select(state, Shannon())
        np.testing.assert_allclose(p, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    def test_two_arm_tsallis_quantile_identity(self):
        # eta (lhat_1 - lhat_2) = x^{-1/2} - (1-x)^{-1/2} at the solved p = (x, 1-x)
        state = PolicyState.fresh(2, 0.4, np.random.default_rng(0))
        state.lhat = np.array([0.3, 2.1])
        state.t = 9
        _, p = ftrl_select(state, Tsallis(0.5))
        x = p[0]
        lhs = state.eta * (state.lhat[0] - state.lhat[1])
        rhs = x ** -0.5 - (1.0 - x) ** -0.5
        assert abs(lhs - rhs) <= 1e-8

    @pytest.mark.parametrize("beta", [0.2, 0.5, 0.8])
    def test_two_arm_weight_at_tsallis_quantile_gap(self, beta):
        # a scaled loss gap eta (lhat_2 - lhat_1) = tsallis_quantile(x) gives
        # arm 1 weight x: the difference law induces the beta-Tsallis policy
        state = PolicyState.fresh(2, 0.4, np.random.default_rng(0))
        for x in (0.05, 0.3, 0.5, 0.7, 0.95):
            state.lhat = np.array([0.0, duality.tsallis_quantile(x, beta) / state.eta])
            _, p = ftrl_select(state, Tsallis(beta))
            assert abs(p[0] - x) <= 1e-9, (beta, x)

    @pytest.mark.parametrize("beta", [0.2, 0.5, 0.8])
    def test_kkt_residual_small(self, beta):
        rng = np.random.default_rng(4)
        for _ in range(25):
            q = rng.uniform(0.0, 30.0, size=int(rng.choice([2, 3, 8])))
            p, c, _ = tsallis_weights(q, beta)
            assert abs(p.sum() - 1.0) <= 1e-10
            assert kkt_residual(q, p, beta) <= 1e-8

    @pytest.mark.parametrize("beta", [0.0546875, 0.3, 0.5, 0.7])
    def test_single_arm_has_weight_one(self, beta):
        # with one arm, defect(hi) can round below 0 (at beta = 0.0546875 and 0.3 here)
        p, _, _ = tsallis_weights([1.0], beta)
        assert p.tolist() == [1.0]

    def test_warm_start_from_previous_root(self):
        state = PolicyState.fresh(8, 0.23, np.random.default_rng(2))
        evals = []
        for _ in range(200):
            before = state.root_evals
            arm, p = ftrl_select(state, Tsallis(0.5))
            evals.append(state.root_evals - before)
            cold = tsallis_weights(state.eta * state.lhat, 0.5)
            ulp = abs(np.spacing(cold[1]))
            assert abs(state.last_c - cold[1]) <= 4 * ulp
            np.testing.assert_allclose(p, cold[0], rtol=0, atol=1e-15)
            # restarted at its own root, the solver stays within an ulp or two in 1-3 evaluations
            warm = tsallis_weights(state.eta * state.lhat, 0.5, cold[1])
            assert abs(warm[1] - cold[1]) <= 2 * ulp and warm[2] <= 3
            ftrl_update(state, arm, 1.0 if arm else 0.0, p)
        assert min(evals) >= 1 and sum(evals) / len(evals) < 6
        ftrl_select(state, Shannon())
        assert state.root_evals == sum(evals)

    def test_simplex_output(self):
        rng = np.random.default_rng(9)
        state = PolicyState.fresh(6, 0.7, rng)
        state.lhat = rng.uniform(0, 50, size=6)
        _, p = ftrl_select(state, Tsallis(0.5))
        assert np.all(p > 0.0)
        assert abs(p.sum() - 1.0) <= 1e-10

    @pytest.mark.parametrize("bad", [math.nan, -math.inf], ids=["nan", "-inf"])
    @pytest.mark.parametrize("where", [0, 3, -1], ids=["first", "middle", "last"])
    def test_nan_or_minus_inf_loss_raises_wherever_it_sits(self, where, bad):
        # Python's min() passes over a NaN that is not first; the defect must still see it
        for beta in (0.3, 0.5):
            q = [0.5, 1.0, 2.0, 0.0, 3.0]
            q[where] = bad
            with pytest.raises(SolverDiverged):
                tsallis_weights(q, beta)
            with pytest.raises(SolverDiverged):
                tsallis_weights(np.array(q), beta, 0.0)

    @pytest.mark.parametrize("beta", [0.0, 1.0, 1.5, math.nan])
    def test_beta_outside_the_unit_interval_is_a_domain_error(self, beta):
        # not a ZeroDivisionError, nor an OverflowError from x ** expo once expo > 0
        with pytest.raises(DomainError):
            tsallis_weights([0.0, 1e200], beta)

    @pytest.mark.parametrize("where", [0, 2, -1], ids=["first", "middle", "last"])
    def test_infinite_loss_gets_weight_zero(self, where):
        q = [0.5, 1.0, 2.0, 0.25]
        finite = [v for i, v in enumerate(q) if i != where % len(q)]
        q[where] = math.inf
        for start in (None, -5.0):
            p, c, _ = tsallis_weights(q, 0.5, start)
            assert p[where] == 0.0 and abs(p.sum() - 1.0) <= 1e-15
            p_finite, c_finite, _ = tsallis_weights(finite, 0.5)
            np.testing.assert_allclose(np.delete(p, where % len(q)), p_finite, rtol=0, atol=1e-15)
            assert abs(c - c_finite) <= 1e-14


class TestFtrlDraw:
    """``FtrlPolicy.play`` draws its arm as min(searchsorted(cumsum(p), u, side="right"), K - 1)."""

    @staticmethod
    def _reference(p, u):
        return min(int(np.searchsorted(np.cumsum(p), u, side="right")), len(p) - 1)

    def test_seeded_weights(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            k = int(rng.choice([1, 2, 3, 8, 50]))
            p = rng.dirichlet(np.full(k, rng.choice([0.1, 1.0, 10.0])))
            u = rng.random()
            assert _draw(p.tolist(), u) == self._reference(p, u)

    @pytest.mark.parametrize("p", [[0.25, 0.25, 0.5], [0.0, 0.5, 0.5], [0.1, 0.2, 0.3, 0.4]])
    def test_uniform_equal_to_a_partial_sum(self, p):
        # u equal to a partial sum goes to the next arm with positive weight, as side="right" does
        for u in [0.0, *np.cumsum(p)[:-1].tolist()]:
            assert _draw(p, u) == self._reference(p, u)
        assert _draw([0.0, 0.5, 0.5], 0.0) == 1

    def test_partial_sums_one_ulp_below_one_clip_to_the_last_arm(self):
        p = [0.1] * 10
        total = np.cumsum(p)[-1]
        assert total == np.nextafter(1.0, 0.0)
        # the largest double below 1, a value Generator.random can return
        for u in (float(total), float(np.nextafter(total, 0.0))):
            assert self._reference(p, u) == _draw(p, u)
        assert _draw(p, float(total)) == 9


class TestExp3Equivalence:
    def test_gumbel_ftpl_matches_shannon_ftrl(self):
        # run Shannon-FTRL to produce states, then replay FTPL-Gumbel there
        env_rng = np.random.default_rng(555)
        state = PolicyState.fresh(3, 0.3, np.random.default_rng(556))
        mu = np.array([0.2, 0.5, 0.8])
        snapshots = []
        for t in range(1, 61):
            arm, p = ftrl_select(state, Shannon())
            loss = float(env_rng.random() < mu[arm])
            ftrl_update(state, arm, loss, p)
            if t in (20, 40, 60):
                snapshots.append((state.t, state.lhat.copy()))
        rng = np.random.default_rng(557)
        # 9 simultaneous frequency comparisons: use a family-wise 3.7 sigma
        # band (alpha ~ 2e-3 overall) instead of 3 sigma per coordinate
        for t, lhat in snapshots:
            eta = 0.3 / math.sqrt(t)
            p_closed = shannon_weights(eta * lhat)
            r = Gumbel().sample_array((10**5, 3), rng)
            wins = np.argmin(lhat[None, :] - r / eta, axis=1)
            freq = np.bincount(wins, minlength=3) / 1e5
            sigma = np.sqrt(p_closed * (1 - p_closed) / 1e5)
            assert np.all(np.abs(freq - p_closed) <= 3.7 * sigma + 1e-12)


def _explicit_round(policy, state, row):
    """One round of ``policy`` by the per-round oracles; return the arm."""
    if isinstance(policy, FtplPolicy):
        return ftpl_oracle.explicit_round(state, policy.dist, row)
    arm, p = ftrl_select(state, policy.regularizer)
    ftrl_update(state, arm, float(row[arm]), p)
    return arm


def _snapshot(state):
    """Everything a round reads or writes in ``state``, the rng's position included."""
    return (state.lhat.tobytes(), state.t, state.last_c, state.tape.tobytes(), state.tape_pos, state.tape_law,
            [getattr(state, key) for key in COUNTERS], state.rng.bit_generator.state)


PLAY_SPECS = ["ftpl:lp:m=0.23", "ftpl:lp:m=0.23:cap=3", "ftrl:tsallis:beta=0.5:m=0.23", "ftrl:shannon:m=0.1"]


class TestPolicyStep:
    @pytest.mark.parametrize(
        "spec,k,tail",
        [pytest.param(spec, 3, False, id=spec) for spec in PLAY_SPECS]
        # caps at and around the first resampling block's 16 rows, one arm,
        # and a large m, whose played non-leaders have a w low enough that the
        # first block misses and the 64-row tail runs
        + [pytest.param(f"ftpl:lp:m=0.23:cap={cap}", 3, False, id=f"ftpl:lp:m=0.23:cap={cap}") for cap in (1, 16, 17)]
        + [pytest.param("ftpl:lp:m=0.23", 1, False, id="ftpl:lp:m=0.23-K=1"),
           pytest.param("ftpl:lp:m=8", 3, True, id="ftpl:lp:m=8-low-w")],
    )
    def test_step_equals_explicit_round(self, spec, k, tail):
        # play over 200 rows against the per-round oracles, one round at a time
        policy = parse_policy(spec)
        loss_rows = (np.random.default_rng(12).random((200, k)) < [0.1, 0.4, 0.5][:k]).astype(float)
        state = policy.fresh_state(k, np.random.default_rng(13))
        twin = policy.fresh_state(k, np.random.default_rng(13))
        arms = policy.play(state, loss_rows).tolist()
        twin_arms, tails = [], 0
        for row in loss_rows:
            drawn = twin.vectors_drawn
            twin_arms.append(_explicit_round(policy, twin, row))
            tails += twin.vectors_drawn - drawn > 1 + 16
        assert arms == twin_arms and len(set(arms)) == k
        assert tails > 0 or not tail
        assert state.lhat.tobytes() == twin.lhat.tobytes()
        assert (state.t, state.last_c) == (twin.t, twin.last_c) and state.t == 201
        assert [getattr(state, key) for key in COUNTERS] == [getattr(twin, key) for key in COUNTERS]

    @pytest.mark.parametrize("spec", PLAY_SPECS)
    def test_split_play_equals_one_call(self, spec):
        policy = parse_policy(spec)
        loss_rows = (np.random.default_rng(14).random((300, 3)) < [0.1, 0.4, 0.5]).astype(float)
        whole = policy.fresh_state(3, np.random.default_rng(15))
        split = policy.fresh_state(3, np.random.default_rng(15))
        arms = policy.play(whole, loss_rows)
        parts = [policy.play(split, loss_rows[:137]), policy.play(split, loss_rows[137:])]
        assert np.concatenate(parts).tolist() == arms.tolist()
        assert _snapshot(split) == _snapshot(whole) and whole.t == 301

    @pytest.mark.parametrize("spec", PLAY_SPECS)
    def test_zero_rows_leave_the_state_unchanged(self, spec):
        policy = parse_policy(spec)
        state = policy.fresh_state(3, np.random.default_rng(16))
        policy.play(state, (np.random.default_rng(17).random((50, 3)) < 0.4).astype(float))
        before = _snapshot(state)
        arms = policy.play(state, np.empty((0, 3)))
        assert arms.shape == (0,) and _snapshot(state) == before

    @pytest.mark.parametrize("spec", PLAY_SPECS)
    def test_a_raising_round_keeps_the_rounds_before_it(self, spec):
        # a loss outside [0, 1] in round 6 raises; the state holds rounds 1-5 and
        # whatever round 6 did before the raise, as the per-round oracle leaves it
        policy = parse_policy(spec)
        loss_rows = (np.random.default_rng(18).random((10, 3)) < [0.1, 0.4, 0.5]).astype(float)
        loss_rows[5] = 2.0
        state = policy.fresh_state(3, np.random.default_rng(19))
        twin = policy.fresh_state(3, np.random.default_rng(19))
        with pytest.raises(DomainError):
            policy.play(state, loss_rows)
        for row in loss_rows[:5]:
            _explicit_round(policy, twin, row)
        with pytest.raises(DomainError):
            _explicit_round(policy, twin, loss_rows[5])
        assert _snapshot(state) == _snapshot(twin) and state.t == 6


class TestPolicyParsing:
    def test_ftpl_spec(self):
        pol = parse_policy("ftpl:lp:m=0.23")
        assert isinstance(pol, FtplPolicy)
        assert pol.dist == LaplacePareto()
        assert pol.m == 0.23

    def test_ftpl_nested_dist_spec(self):
        pol = parse_policy("ftpl:hybrid:right=pareto:2,left=pareto:4:m=0.1:cap=500")
        assert pol.resample_cap == 500
        assert pol.dist.tail_index_left == 4.0

    def test_ftrl_specs(self):
        pol = parse_policy("ftrl:tsallis:beta=0.5:m=0.23")
        assert isinstance(pol, FtrlPolicy)
        assert pol.regularizer == Tsallis(0.5)
        pol = parse_policy("ftrl:shannon:m=0.1")
        assert pol.regularizer == Shannon()

    def test_bad_specs(self):
        for bad in ("ftpl:lp", "ftrl:tsallis:beta=0.5", "nope:m=1", "ftrl:huber:m=1", "ftpl:lp:m=0.2:cap=0",
                    "ftpl:lp:m=0.2:cap=-3"):
            with pytest.raises(DomainError):
                parse_policy(bad)

    @pytest.mark.parametrize("m", [0.0, -1.0, math.nan, math.inf])
    def test_fresh_state_needs_finite_positive_m(self, m):
        with pytest.raises(DomainError):
            PolicyState.fresh(3, m, np.random.default_rng(0))
