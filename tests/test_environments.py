"""Loss generation and regret accounting."""

import math

import numpy as np
import pytest

from pllab.environments import (
    FixedSchedule,
    StochasticBernoulli,
    SwitchingAdversary,
    check_horizon,
    checkpoint_grid,
    loss_rows,
    next_loss,
    parse_environment,
    regret,
)
from pllab.errors import DomainError, ScheduleExhausted


class TestLossGeneration:
    def test_all_zero_means(self):
        model = StochasticBernoulli(mu=(0.0, 0.0))
        rng = np.random.default_rng(0)
        for t in range(1, 50):
            np.testing.assert_array_equal(next_loss(model, t, rng), [0.0, 0.0])

    def test_fixed_schedule_pass_through(self):
        model = FixedSchedule(losses=np.array([[0.3, 0.7], [0.1, 0.2]]))
        rng = np.random.default_rng(0)
        np.testing.assert_array_equal(next_loss(model, 1, rng), [0.3, 0.7])
        np.testing.assert_array_equal(next_loss(model, 2, rng), [0.1, 0.2])
        with pytest.raises(ScheduleExhausted):
            next_loss(model, 3, rng)

    def test_bernoulli_lln(self):
        model = StochasticBernoulli(mu=(0.1, 0.5))
        rng = np.random.default_rng(42)
        total = np.zeros(2)
        n = 10**6
        for chunk in range(10):
            draws = rng.random((n // 10, 2)) < np.asarray(model.mu)
            total += draws.sum(axis=0)
        freq = total / n
        sigma = np.sqrt(np.asarray(model.mu) * (1 - np.asarray(model.mu)) / n)
        assert np.all(np.abs(freq - model.mu) <= 3 * sigma)

    def test_switching_phases(self):
        model = SwitchingAdversary(phase=3, mu1=(0.0, 1.0), mu2=(1.0, 0.0))
        assert model.mean_at(1) == (0.0, 1.0)
        assert model.mean_at(3) == (0.0, 1.0)
        assert model.mean_at(4) == (1.0, 0.0)
        assert model.mean_at(7) == (0.0, 1.0)
        rng = np.random.default_rng(0)
        assert next_loss(model, 1, rng).tolist() == [0.0, 1.0]  # deterministic means

    @pytest.mark.parametrize("spec", ["bern:0.1,0.3,0.3,0.5", "switch:phase=7,mu1=0.2|0.5|0.5|0.9,mu2=0.9|0.5|0.5|0.2"])
    def test_loss_rows_equal_stacked_next_loss(self, spec):
        model = parse_environment(spec)
        T = 300
        one_block = loss_rows(model, 1, T, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        per_round = np.vstack([next_loss(model, t, rng) for t in range(1, T + 1)])
        rng = np.random.default_rng(5)
        split = np.vstack([loss_rows(model, t0, n, rng) for t0, n in ((1, 13), (14, 100), (114, 187))])
        assert one_block.tobytes() == per_round.tobytes() == split.tobytes()
        # the per-round draw that next_loss made before loss_rows existed
        mean_at = getattr(model, "mean_at", lambda t: model.mu)
        rng = np.random.default_rng(5)
        reference = np.vstack([(rng.random(model.k) < np.asarray(mean_at(t))).astype(float) for t in range(1, T + 1)])
        assert one_block.tobytes() == reference.tobytes()

    def test_loss_rows_of_a_schedule(self):
        model = FixedSchedule(losses=np.array([[0.3, 0.7], [0.1, 0.2], [0.5, 0.5]]))
        np.testing.assert_array_equal(loss_rows(model, 2, 2, None), [[0.1, 0.2], [0.5, 0.5]])
        with pytest.raises(ScheduleExhausted):
            loss_rows(model, 2, 3, None)  # raises before handing out any row
        with pytest.raises(DomainError):
            loss_rows(model, 0, 1, None)

    def test_check_horizon(self):
        model = FixedSchedule(losses=np.zeros((4, 2)))
        check_horizon(model, 4)
        with pytest.raises(ScheduleExhausted, match="4 rounds, asked for 5"):
            check_horizon(model, 5)
        check_horizon(StochasticBernoulli(mu=(0.1, 0.2)), 10**9)

    def test_gap_metadata(self):
        model = StochasticBernoulli(mu=(0.3, 0.1, 0.5))
        np.testing.assert_allclose(model.gaps, [0.2, 0.0, 0.4])

    def test_validation(self):
        with pytest.raises(DomainError):
            StochasticBernoulli(mu=(0.5, 1.2))
        with pytest.raises(DomainError):
            FixedSchedule(losses=np.array([[2.0]]))
        with pytest.raises(DomainError):
            SwitchingAdversary(phase=0, mu1=(0.1,), mu2=(0.2,))
        # NaN compares false both ways, so it must fail the range check
        with pytest.raises(DomainError):
            StochasticBernoulli(mu=(0.1, math.nan))
        with pytest.raises(DomainError):
            FixedSchedule(losses=np.array([[0.1, math.nan]]))
        with pytest.raises(DomainError):
            SwitchingAdversary(phase=5, mu1=(0.1, 0.2), mu2=(0.3, math.nan))


class TestRegret:
    def test_optimal_play_has_zero_pseudo_regret(self):
        model = StochasticBernoulli(mu=(0.1, 0.6))
        T = 100
        arms = np.zeros(T, dtype=int)
        losses = np.zeros((T, 2))
        _, curve = regret(arms, losses, model)
        assert np.all(curve == 0.0)

    def test_always_worst_arm_fixed_schedule(self):
        T = 50
        model = FixedSchedule(losses=np.tile([0.0, 1.0], (T, 1)))
        arms = np.ones(T, dtype=int)
        cps, curve = regret(arms, np.tile([0.0, 1.0], (T, 1)), model)
        np.testing.assert_allclose(curve, cps.astype(float))
        assert curve[-1] == T

    def test_uniform_play_expected_gap_rate(self):
        delta, k = 0.3, 4
        model = StochasticBernoulli(mu=(0.0,) + (delta,) * (k - 1))
        rng = np.random.default_rng(3)
        T = 10**5
        arms = rng.integers(0, k, size=T)
        losses = np.zeros((T, k))
        final = regret(arms, losses, model)[1][-1]
        p = (k - 1) / k
        expect = T * delta * p
        sigma = delta * np.sqrt(p * (1 - p) * T)
        assert abs(final - expect) <= 3 * sigma

    def test_pseudo_regret_nondecreasing(self):
        model = StochasticBernoulli(mu=(0.2, 0.5, 0.9))
        rng = np.random.default_rng(1)
        T = 4000
        arms = rng.integers(0, 3, size=T)
        _, curve = regret(arms, np.zeros((T, 3)), model)
        assert np.all(np.diff(curve) >= 0.0)

    def test_adversarial_matches_naive_recount(self):
        rng = np.random.default_rng(11)
        T, k = 500, 3
        losses = rng.random((T, k))
        arms = rng.integers(0, k, size=T)
        model = FixedSchedule(losses=losses)
        cps, curve = regret(arms, losses, model)
        # brute-force oracle
        for idx, t in enumerate(cps):
            played = sum(losses[s, arms[s]] for s in range(t))
            best = min(losses[:t, i].sum() for i in range(k))
            assert abs(curve[idx] - (played - best)) <= 1e-9 + k

    @pytest.mark.parametrize("T", [1, 2, 7, 333])
    def test_regret_reports_on_checkpoint_grid(self, T):
        rng = np.random.default_rng(T)
        losses = rng.random((T, 3))
        arms = rng.integers(0, 3, size=T)
        cps, curve = regret(arms, losses, FixedSchedule(losses=losses))
        np.testing.assert_array_equal(cps, checkpoint_grid(T))
        assert curve.shape == cps.shape

    def test_checkpoint_grid_shape(self):
        grid = checkpoint_grid(1000)
        assert grid[0] == 1
        assert grid[-1] == 1000
        assert np.all(np.diff(grid) > 0)


class TestEnvParsing:
    def test_bern(self):
        model = parse_environment("bern:0.1,0.3,0.3")
        assert isinstance(model, StochasticBernoulli)
        assert model.mu == (0.1, 0.3, 0.3)

    def test_switch(self):
        model = parse_environment("switch:phase=1000,mu1=0.1|0.9,mu2=0.9|0.1")
        assert model.phase == 1000
        assert model.mu1 == (0.1, 0.9)

    def test_sched(self, tmp_path):
        path = tmp_path / "sched.csv"
        np.savetxt(path, np.array([[0.1, 0.9], [0.5, 0.5]]), delimiter=",")
        model = parse_environment(f"sched:{path}")
        assert isinstance(model, FixedSchedule)
        assert model.horizon == 2

    def test_unknown(self):
        with pytest.raises(DomainError):
            parse_environment("chaos:1")
