"""Determinism, envelopes, verdicts, config handling, and CLI plumbing."""

import math
import os
import warnings

import numpy as np
import pytest

from pllab import cli, duality, harness, selection
from pllab.distributions import PerturbationDistribution, SymmetricPareto
from pllab.environments import checkpoint_grid
from pllab.errors import DomainError, ScheduleExhausted


def small_config(tmp_path, name="out.csv", **kw):
    defaults = dict(
        policy="ftpl:lp:m=0.23",
        env="bern:0.1,0.4",
        horizon=200,
        runs=3,
        seed=11,
        out=str(tmp_path / name),
        threads=1,
    )
    defaults.update(kw)
    return harness.ExperimentConfig(**defaults)


class TestDeterminism:
    def test_rerun_identical_bytes(self, tmp_path):
        c1 = small_config(tmp_path, "a.csv")
        c2 = small_config(tmp_path, "b.csv")
        harness.run_experiment(c1)
        harness.run_experiment(c2)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_parallel_equals_serial(self, tmp_path):
        harness.run_experiment(small_config(tmp_path, "s.csv", threads=1))
        harness.run_experiment(small_config(tmp_path, "p.csv", threads=2))
        assert (tmp_path / "s.csv").read_bytes() == (tmp_path / "p.csv").read_bytes()

    def test_stream_is_pure_function(self):
        a1, p1 = harness.run_streams(5, 2)
        a2, p2 = harness.run_streams(5, 2)
        assert a1.random(4).tolist() == a2.random(4).tolist()
        assert p1.random(4).tolist() == p2.random(4).tolist()
        b, _ = harness.run_streams(5, 3)
        assert a1.random(4).tolist() != b.random(4).tolist()

    def test_csv_round_trip(self, tmp_path):
        cfg = small_config(tmp_path, "r.csv")
        table = harness.run_experiment(cfg)
        back = harness.RegretTable.read_csv(cfg.out)
        np.testing.assert_array_equal(back.checkpoints, table.checkpoints)
        np.testing.assert_allclose(back.curves, table.curves, rtol=0, atol=0)
        assert back.metadata["policy"] == cfg.policy
        assert back.metadata["config_hash"] == cfg.semantic_hash()


def read_meta(path):
    return dict(line.split("=", 1) for line in open(path).read().splitlines())


class TestRunMetadata:
    def test_meta_totals_do_not_depend_on_threads(self, tmp_path):
        totals = {}
        for policy in ("ftpl:lp:m=0.23", "ftrl:tsallis:beta=0.5:m=0.23"):
            serial = small_config(tmp_path, "s.csv", policy=policy, runs=4, threads=1)
            parallel = small_config(tmp_path, "p.csv", policy=policy, runs=4, threads=2)
            harness.run_experiment(serial)
            harness.run_experiment(parallel)
            timing = {"wall_time_s", "parallel_degree", "run_wall_s"}
            s, p = read_meta(serial.out + ".meta"), read_meta(parallel.out + ".meta")
            assert (s["parallel_degree"], p["parallel_degree"]) == ("1", "2")
            assert len(p["run_wall_s"].split(",")) == 4
            counts = {k: v for k, v in s.items() if k not in timing}
            assert counts == {k: v for k, v in p.items() if k not in timing}
            for key in harness.COUNTERS:
                per_run = [int(v) for v in counts["run_" + key].split(",")]
                assert len(per_run) == 4 and sum(per_run) == int(counts[key])
            assert float(counts["cap_hit_rate"]) == int(counts["cap_hits"]) / (4 * 200)
            totals[policy.partition(":")[0]] = {key: int(counts[key]) for key in harness.COUNTERS}
        ftpl, ftrl = totals["ftpl"], totals["ftrl"]
        assert ftpl["vectors_drawn"] >= ftpl["resample_trials"] >= 4 * 200 and ftpl["root_evals"] == 0
        # at least one defect evaluation per round, and no perturbations
        assert ftrl["root_evals"] >= 4 * 200
        assert ftrl["vectors_drawn"] == ftrl["resample_trials"] == ftrl["cap_hits"] == 0

    def test_ftpl_run_reads_perturbations_in_chunks(self, monkeypatch):
        calls = []
        sample = PerturbationDistribution.sample_array
        monkeypatch.setattr(PerturbationDistribution, "sample_array",
                            lambda self, shape, rng: calls.append(shape) or sample(self, shape, rng))
        # the regret-ftpl benchmark config, one run
        cfg = harness.ExperimentConfig(policy="ftpl:lp:m=0.23", env="bern:0.1" + ",0.3" * 7,
                                       horizon=3000, runs=1, seed=1)
        harness.simulate_run(cfg, 0)
        assert 0 < len(calls) < cfg.horizon / 10

    def test_run_curve_lies_on_the_table_checkpoints(self, tmp_path):
        # 37 rounds: the last checkpoint is the horizon, not a grid power
        cfg = small_config(tmp_path, policy="ftrl:shannon:m=0.1", horizon=37, runs=1)
        checkpoints, curve, _ = harness.simulate_run(cfg, 0)
        np.testing.assert_array_equal(checkpoints, checkpoint_grid(cfg.horizon))
        assert curve.shape == checkpoints.shape

    def test_short_schedule_fails_before_any_run(self, tmp_path, monkeypatch):
        (tmp_path / "two.csv").write_text("0.1,0.2\n0.3,0.4\n")
        monkeypatch.setattr(harness, "simulate_run", lambda *job: pytest.fail("a run started"))
        cfg = small_config(tmp_path, env=f"sched:{tmp_path / 'two.csv'}", horizon=5, runs=2, threads=2)
        with pytest.raises(ScheduleExhausted):
            harness.run_experiment(cfg)


class TestConfigFile:
    def test_parse_and_run(self, tmp_path):
        path = tmp_path / "exp.ini"
        out = tmp_path / "x.csv"
        path.write_text(
            "[experiment]\n"
            "policy = ftrl:shannon:m=0.1\n"
            "env = bern:0.2,0.5\n"
            "T = 50\n"
            "runs = 2\n"
            "seed = 1\n"
            f"out = {out}\n"
        )
        cfg = harness.ExperimentConfig.from_file(path)
        assert cfg.horizon == 50
        harness.run_experiment(cfg)
        assert out.exists()

    def test_missing_file_and_fields(self, tmp_path):
        with pytest.raises(DomainError):
            harness.ExperimentConfig.from_file(tmp_path / "nope.ini")
        bad = tmp_path / "bad.ini"
        bad.write_text("[experiment]\npolicy = ftpl:lp:m=0.1\n")
        with pytest.raises(DomainError):
            harness.ExperimentConfig.from_file(bad)
        notint = tmp_path / "notint.ini"
        notint.write_text(
            "[experiment]\npolicy = ftpl:lp:m=0.1\nenv = bern:0.1,0.2\nT = soon\nruns = 1\nseed = 0\n"
        )
        with pytest.raises(DomainError):
            harness.ExperimentConfig.from_file(notint)


class TestEnvelopes:
    def test_advlp_leading_coefficient(self):
        env = harness.AdvLP(m=0.23, k=8)
        want = 60 * 0.23 * math.sqrt(math.pi) + 5.7 / 0.23
        assert env.leading_coefficient == pytest.approx(want, abs=1e-12)
        assert 49.20 <= env.leading_coefficient <= 49.30

    def test_advlp_formula_terms(self):
        env = harness.AdvLP(m=0.5, k=2)
        t = 100.0
        want = (
            (60 * 0.5 * math.sqrt(math.pi) + 5.7 / 0.5) * math.sqrt(2 * t)
            + (4.0 / 27.0 + math.e**2) * math.log(t + 1.0)
            + math.sqrt(2 * math.pi) / 1.0
        )
        assert float(env.evaluate(t)) == pytest.approx(want, rel=1e-12)

    def test_stolp_dominated_by_log_term(self):
        env = harness.StoLP(m=0.23, gaps=(0.0, 0.2, 0.2))
        assert float(env.evaluate(10.0)) < float(env.evaluate(10000.0))
        with pytest.raises(DomainError):
            harness.StoLP(m=0.23, gaps=(0.0, 0.0))


class TestVerdict:
    def make_table(self, curves, k=2, m=0.23, gaps=None):
        cps = np.array([1, 10, 100])
        meta = {"K": k, "m": m}
        if gaps is not None:
            meta["gaps"] = ",".join(str(g) for g in gaps)
        return harness.RegretTable(checkpoints=cps, curves=np.asarray(curves, float), metadata=meta)

    def test_zero_regret_passes(self):
        table = self.make_table([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        report = harness.verdict(table, "advlp")
        assert report.all_pass

    def test_synthetic_double_envelope_fails_everywhere(self):
        env = harness.AdvLP(m=0.23, k=2)
        bounds = env.evaluate(np.array([1, 10, 100], dtype=float))
        table = self.make_table([2.0 * bounds])
        report = harness.verdict(table, "advlp")
        assert not report.all_pass
        assert all(not ok for (_, _, _, _, ok) in report.rows)

    def test_envelope_is_built_from_table_metadata(self):
        cps = np.array([1.0, 10.0, 100.0])
        table = self.make_table([[0.0, 0.0, 0.0]], k=3, m=0.5, gaps=(0.0, 0.2, 0.4))
        for kind, env in [("advlp", harness.AdvLP(m=0.5, k=3)),
                          ("stolp", harness.StoLP(m=0.5, gaps=(0.0, 0.2, 0.4))),
                          ("tsallisref", harness.TsallisRef(k=3))]:
            bounds = [bound for (_, _, _, bound, _) in harness.verdict(table, kind).rows]
            assert bounds == env.evaluate(cps).tolist()

    @pytest.mark.parametrize(
        "drop,kind",
        [("K", "advlp"), ("m", "advlp"), ("gaps", "stolp"), ("K", "tsallisref"), (None, "nope")],
        ids=["advlp-no-K", "advlp-no-m", "stolp-no-gaps", "tsallisref-no-K", "unknown-kind"],
    )
    def test_missing_metadata_or_unknown_kind_is_domain_error(self, drop, kind):
        table = self.make_table([[0.0, 0.0, 0.0]], gaps=(0.0, 0.2))
        table.metadata.pop(drop, None)
        with pytest.raises(DomainError):
            harness.verdict(table, kind)

    def test_log_growth_fit_recovers_log_curve(self):
        t = np.unique(np.geomspace(10, 10000, 40).astype(int))
        y = 3.0 + 2.0 * np.log(t)
        slope, intercept, r2 = harness.log_growth_fit(t, y, 100, 10000)
        assert slope == pytest.approx(2.0, abs=1e-9)
        assert r2 >= 0.999999

    def test_log_growth_fit_window_guard(self):
        with pytest.raises(DomainError):
            harness.log_growth_fit([10, 20], [1.0, 2.0], 1000, 2000)


class TestCli:
    def test_simulate_and_verdict_flow(self, tmp_path):
        out = tmp_path / "sim.csv"
        rc = cli.main(
            [
                "simulate", "--policy", "ftpl:lp:m=0.23", "--env", "bern:0.1,0.4",
                "--T", "150", "--runs", "2", "--seed", "4", "--out", str(out),
                "--threads", "1",
            ]
        )
        assert rc == 0
        assert out.exists()
        assert cli.main(["verdict", "--csv", str(out), "--envelope", "advlp"]) == 0
        assert cli.main(["verdict", "--csv", str(out), "--envelope", "stolp", "--log-fit"]) == 0

    def test_simulate_usage_error(self):
        assert cli.main(["simulate", "--policy", "ftpl:lp:m=0.23"]) == 2

    @pytest.mark.parametrize(
        "extra",
        [[], ["--threads", "1"], ["--out", "flag.csv"], ["--out", "flag.csv", "--threads", "1"]],
        ids=["config", "threads", "out", "out-threads"],
    )
    def test_simulate_flags_override_config(self, tmp_path, monkeypatch, extra):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "x.ini").write_text(
            "[experiment]\npolicy = ftpl:lp:m=0.1\nenv = bern:0.1,0.2\nT = 10\nruns = 1\nseed = 0\n"
            "out = ini.csv\nthreads = 2\n"
        )
        seen = []

        def fake_run(config):
            seen.append(config)
            return harness.RegretTable(checkpoints=np.array([1]), curves=np.zeros((1, 1)), metadata={})

        monkeypatch.setattr(harness, "run_experiment", fake_run)
        assert cli.main(["simulate", "--config", "x.ini", *extra]) == 0
        assert seen[0].threads == (1 if "--threads" in extra else 2)
        assert seen[0].out == ("flag.csv" if "--out" in extra else "ini.csv")

    @pytest.mark.parametrize("m", ["1e6", "1e300"])
    def test_tsallis_at_large_m_runs(self, m):
        # the Tsallis root is solved relative to min q, so no m is too large for float resolution
        argv = ["simulate", "--policy", f"ftrl:tsallis:beta=0.5:m={m}", "--env", "bern:0.1,0.3", "--T", "500",
                "--runs", "1", "--seed", "0"]
        assert cli.main(argv) == 0

    def test_ftpl_at_tiny_m_runs(self):
        # r / eta overflows to +-inf, as a perturbation that overflows when drawn does; under the
        # warnings-as-errors filter a numpy overflow warning would fail the run
        argv = ["simulate", "--policy", "ftpl:frechet:0.5:m=1e-300", "--env", "bern:0.5,0.1", "--T", "200",
                "--runs", "1", "--seed", "1", "--threads", "1"]
        assert cli.main(argv) == 0

    def test_bad_policy_spec_is_usage_error(self, tmp_path):
        rc = cli.main(
            ["simulate", "--policy", "ftpl:nope:m=1", "--env", "bern:0.1,0.2",
             "--T", "10", "--runs", "1", "--seed", "0"]
        )
        assert rc == 2

    def test_analyze_phi(self, tmp_path):
        out = tmp_path / "scan.csv"
        rc = cli.main(
            ["analyze-phi", "--dist", "splareto:a=2", "--lambda", "0,c,c",
             "--c-grid", "4:6:1", "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("c,i,sigma_i,phi")
        assert len(lines) == 1 + 3 * 3

    @pytest.mark.parametrize("spec,grid", [("1:1", [1.0]), ("6:4:-1", [6.0, 5.0, 4.0]), ("1:3:2", [1.0, 3.0])])
    def test_grid_spec_is_inclusive(self, spec, grid):
        assert cli._parse_grid(spec).tolist() == grid

    def test_out_file_is_replaced_whole(self, tmp_path):
        argv = ["analyze-phi", "--dist", "lp", "--lambda", "0,c", "--c-grid", "1:1"]
        assert cli.main(argv + ["--out", str(tmp_path / "fresh.csv")]) == 0
        out = tmp_path / "reused.csv"
        out.write_text("stale\n" * 1000)
        assert cli.main(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == (tmp_path / "fresh.csv").read_bytes()
        reg = ["duality", "regscan", "--x", "0.4:0.5", "--points", "2", "--out", str(out)]
        assert cli.main(reg) == 0
        assert out.read_text().splitlines()[0] == "x,c,lower,upper,tsallis_ref"
        assert len(out.read_text().splitlines()) == 3
        assert cli.main(argv + ["--out", os.devnull]) == 0
        sim = ["simulate", "--policy", "ftpl:lp:m=0.23", "--env", "bern:0.1,0.4", "--T", "50", "--runs", "2",
               "--seed", "3", "--threads", "1"]
        assert cli.main(sim + ["--out", str(tmp_path / "fresh_sim.csv")]) == 0
        for suffix in ("", ".meta"):
            (tmp_path / ("reused_sim.csv" + suffix)).write_text("stale\n" * 1000)
        assert cli.main(sim + ["--out", str(tmp_path / "reused_sim.csv")]) == 0
        assert (tmp_path / "reused_sim.csv").read_bytes() == (tmp_path / "fresh_sim.csv").read_bytes()
        meta = (tmp_path / "reused_sim.csv.meta").read_text()
        assert "stale" not in meta
        assert meta.splitlines()[0].startswith("wall_time_s=")
        assert len(meta.splitlines()) == len((tmp_path / "fresh_sim.csv.meta").read_text().splitlines())

    def test_analyze_phi_stats_go_to_stderr(self, tmp_path, capsys):
        argv = ["analyze-phi", "--dist", "lp", "--lambda", "0,c,c", "--c-grid", "1:3:2"]
        assert cli.main(argv + ["--out", str(tmp_path / "plain.csv")]) == 0
        capsys.readouterr()
        assert cli.main(argv + ["--out", str(tmp_path / "stats.csv"), "--stats"]) == 0
        err = capsys.readouterr().err.splitlines()
        assert (tmp_path / "stats.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
        assert [line.split()[1] for line in err] == ["c=1", "c=3"]
        assert all(line.startswith("stats: ") and "evals=" in line and "panels=" in line for line in err)

    @staticmethod
    def _one_point_calls(capsys, tmp_path, argv, grid):
        """(exit code, CSV rows, stderr) of ``argv`` at each c of ``grid`` as a one-point grid."""
        calls = []
        for c in grid:
            out = tmp_path / "point.csv"
            out.unlink(missing_ok=True)
            rc = cli.main([*argv, f"--c-grid={float(c)!r}:{float(c)!r}", "--out", str(out)])
            rows = out.read_text().splitlines()[1:] if rc == 0 else None
            calls.append((rc, rows, capsys.readouterr().err))
        return calls

    def test_analyze_phi_grid_is_its_one_point_calls(self, capsys, tmp_path):
        # the grid spans several kernel calls, and its c = 0 point has one distinct gap where the others have two
        argv = ["analyze-phi", "--dist", "lp", "--lambda", "0,c,c", "--stats"]
        grid = cli._parse_grid("-0.5:0.49:0.01")
        assert 0.0 in grid and len(grid) > 2 * (selection._SCAN_ENTRIES // 3)
        calls = self._one_point_calls(capsys, tmp_path, argv, grid)
        assert all(rc == 0 for rc, _, _ in calls)
        out = tmp_path / "grid.csv"
        assert cli.main([*argv, "--c-grid=-0.5:0.49:0.01", "--out", str(out)]) == 0
        header, *rows = out.read_text().splitlines()
        assert header == "c,i,sigma_i,phi,phi_prime,ratio_1,ratio_32,quad_error"
        assert rows == [row for _, point_rows, _ in calls for row in point_rows]
        assert capsys.readouterr().err == "".join(err for _, _, err in calls)

    @pytest.mark.parametrize("argv,spec", [
        # c = 0 meets its 1.75e-17 budget down to about 5e-18; c = 1 hits the work cap at about 5e-17
        (["--dist", "splareto:a=2", "--lambda", "0,c,c", "--tol", "7e-17"], "0:2:1"),
        (["--dist", "lp", "--lambda", "0,c"], "0:3e12:1e12"),  # a loss spread past 2^40 at c = 2e12
    ])
    def test_analyze_phi_grid_fails_at_its_first_failing_point(self, capsys, tmp_path, argv, spec):
        argv = ["analyze-phi", *argv]
        calls = self._one_point_calls(capsys, tmp_path, argv, cli._parse_grid(spec))
        k = next(i for i, (rc, _, _) in enumerate(calls) if rc != 0)
        assert k >= 1 and calls[k][0] == 2 and len(calls[k][2].splitlines()) == 1
        out = tmp_path / "grid.csv"
        assert cli.main([*argv, "--c-grid", spec, "--out", str(out)]) == 2
        assert capsys.readouterr().err == calls[k][2] and not out.exists()

    @staticmethod
    def _regscan_point_calls(capsys, tmp_path, argv, xs):
        """(exit code, CSV rows, stderr) of regscan ``argv`` at each x of ``xs`` as a one-point grid."""
        calls = []
        for x in xs:
            out = tmp_path / "point.csv"
            out.unlink(missing_ok=True)
            rc = cli.main([*argv, f"--x={float(x)!r}:{float(x)!r}", "--points", "1", "--out", str(out)])
            rows = out.read_text().splitlines()[1:] if rc != 2 else None
            calls.append((rc, rows, capsys.readouterr().err))
        return calls

    def test_regscan_grid_is_its_one_point_calls(self, capsys, tmp_path):
        # the first Newton step spans two kernel calls; x = 1/3 is the (0, c, c) family's end c = 0
        argv = ["duality", "regscan", "--dist", "lp"]
        xs = np.linspace(1.0 / 3.0, 0.999, 45)
        assert len(xs) > selection._SCAN_ENTRIES // 3
        calls = self._regscan_point_calls(capsys, tmp_path, argv, xs)
        assert all(rc == 0 for rc, _, _ in calls)
        out = tmp_path / "grid.csv"
        assert cli.main([*argv, f"--x={1.0 / 3.0!r}:0.999", "--points", "45", "--out", str(out)]) == 0
        header, *rows = out.read_text().splitlines()
        assert header == "x,c,lower,upper,tsallis_ref" and rows[0].split(",")[1] == "0"
        assert rows == [row for _, point_rows, _ in calls for row in point_rows]

    @pytest.mark.parametrize("dist,spec,points", [
        ("splareto:a=0.3", "0.5:0.9998", 3),  # only x = 0.9998's root lies past the bracket's 1e9 cap
        ("splareto:a=0.2", "0.9:0.9998", 6),  # the last two roots lie past it, each with its own residual
    ])
    def test_regscan_grid_fails_at_its_first_failing_point(self, capsys, tmp_path, dist, spec, points):
        argv = ["duality", "regscan", "--dist", dist]
        lo, hi = map(float, spec.split(":"))
        calls = self._regscan_point_calls(capsys, tmp_path, argv, np.linspace(lo, hi, points))
        k = next(i for i, (rc, _, _) in enumerate(calls) if rc == 2)  # 1 is a violated envelope
        assert k >= 1 and len(calls[k][2].splitlines()) == 1 and "bracket expansion" in calls[k][2]
        out = tmp_path / "grid.csv"
        assert cli.main([*argv, "--x", spec, "--points", str(points), "--out", str(out)]) == 2
        assert capsys.readouterr().err == calls[k][2] and not out.exists()

    @pytest.mark.parametrize("bad", ["frechet:abc", "asp:2", "splareto:a=x", "gpd:"])
    def test_bad_dist_spec_is_usage_error(self, capsys, bad):
        assert cli.main(["check-dist", "--dist", bad]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1

    SIM = ["simulate", "--T", "10", "--runs", "1", "--seed", "0"]
    PHI = ["analyze-phi", "--dist", "splareto:a=2"]

    @pytest.mark.parametrize(
        "argv",
        [
            SIM + ["--policy", "ftpl:lp:m=x", "--env", "bern:0.1,0.2"],
            SIM + ["--policy", "ftpl:lp:m=0.2:cap=q", "--env", "bern:0.1,0.2"],
            SIM + ["--policy", "ftrl:tsallis:beta=0.5:m=nan", "--env", "bern:0.1,0.2"],
            SIM + ["--policy", "ftrl:tsallis:beta=0.5:m=inf", "--env", "bern:0.1,0.2"],
            SIM + ["--policy", "ftpl:lp:m=nan", "--env", "bern:0.1,0.2"],
            SIM + ["--policy", "ftrl:shannon:m=nan", "--env", "bern:0.1,0.2"],
            SIM + ["--policy", "ftpl:lp:m=0.2:cap=0", "--env", "bern:0.1,0.2"],
            SIM + ["--policy", "ftpl:lp:m=0.2:cap=-3", "--env", "bern:0.1,0.2"],
            SIM + ["--policy", "ftpl:lp:m=0.2", "--env", "switch:phase=10"],
            SIM + ["--policy", "ftpl:lp:m=0.2", "--env", "bern:0.1,x"],
            SIM + ["--policy", "ftpl:lp:m=0.2", "--env", "sched:bad.csv"],
            SIM + ["--policy", "ftpl:lp:m=0.2", "--env", "sched:two.csv", "--T", "5", "--runs", "2",
                   "--threads", "2"],
            SIM + ["--policy", "ftpl:lp:m=0.2", "--env", "bern:0.1,0.2", "--seed", "-1"],
            SIM + ["--policy", "ftpl:lp:m=0.2", "--env", "bern:0.1,0.2", "--threads", "0"],
            SIM + ["--policy", "ftpl:lp:m=0.2", "--env", "bern:0.1,0.2", "--threads", "-2"],
            SIM + ["--policy", "ftpl:lp:m=0.2", "--env", "bern:0.1,nan"],
            SIM + ["--policy", "ftpl:lp:m=0.2", "--env", "switch:phase=5,mu1=0.1|0.2,mu2=0.3|nan"],
            SIM + ["--policy", "ftpl:lp:m=0.2", "--env", "sched:nan.csv", "--T", "2"],
            SIM + ["--config", "old.ini"],
            # INI files that configparser cannot read
            SIM + ["--config", "no_header.ini"],
            SIM + ["--config", "two_sections.ini"],
            SIM + ["--config", "two_keys.ini"],
            SIM + ["--config", "no_equals.ini"],
            SIM + ["--config", "latin1.ini"],
            SIM + ["--config", "percent.ini"],
            ["verdict", "--csv", "plain.csv", "--envelope", "advlp"],
            ["verdict", "--csv", "no_gaps.csv", "--envelope", "stolp"],
            ["verdict", "--csv", "bad.csv", "--envelope", "advlp"],
            ["verdict", "--csv", "bad_cell.csv", "--envelope", "advlp"],
            ["verdict", "--csv", "short_row.csv", "--envelope", "advlp"],
            ["verdict", "--csv", "no_run.csv", "--envelope", "advlp"],
            ["verdict", "--csv", "no_gaps.csv", "--envelope", "nope"],
            PHI + ["--lambda", "0,q", "--c-grid", "1:2"],
            PHI + ["--lambda", "0,2-c", "--c-grid", "1:2"],
            PHI + ["--lambda", "0,c", "--c-grid", "1:x"],
            PHI + ["--lambda", "0,c", "--c-grid", "1:2:0"],
            PHI + ["--lambda", "0,c", "--c-grid", "1:0"],
            ["duality", "regscan", "--x", "0.4", "--out", "unused.csv"],
            ["duality", "regscan", "--x", "0.4:0.5", "--points", "-1", "--out", "unused.csv"],
            ["duality", "regscan", "--x", "0.4:0.5", "--points", "0", "--out", "unused.csv"],
            ["duality", "ift", "--n", "0", "--out", "unused.csv"],
            ["duality", "ift", "--n", "-4", "--out", "unused.csv"],
            ["duality", "ift", "--n", "3000", "--out", "unused.csv"],
            ["duality", "ift", "--xmin", "5", "--xmax", "5", "--out", "unused.csv"],
            ["duality", "sanity-normal", "--n", "0"],
            ["duality", "sanity-normal", "--n", "3000"],
            ["duality", "ift", "--n", "1", "--out", "unused.csv"],
            ["duality", "sanity-normal", "--n", "1"],
            ["duality", "ift", "--xmax", "inf", "--out", "unused.csv"],
            ["duality", "ift", "--n", "64", "--out", "."],
            ["duality", "regscan", "--x", "0.4:0.5", "--points", "1", "--out", "."],
            SIM + ["--policy", "ftpl:lp:m=0.2", "--env", "bern:0.1,0.2", "--out", "."],
            ["verdict", "--csv", ".", "--envelope", "advlp"],
            SIM + ["--policy", "ftpl:lp:m=0.2", "--env", "bern:0.1,0.2", "--out", "unused.csv"],
            ["duality", "ift", "--beta", "1", "--out", "unused.csv"],
            ["analyze-phi", "--dist", "splareto:a=0.5", "--lambda", "0,1e16", "--c-grid", "1:1"],
            ["analyze-phi", "--dist", "splareto", "--lambda", "0,1e306", "--c-grid", "1:1"],
            ["analyze-phi", "--dist", "lp", "--lambda", "0,-1e308,1e308", "--c-grid", "1:1"],
            PHI + ["--lambda", "0,c", "--c-grid", "0:1e300:1e-300"],
            PHI + ["--lambda", "0,c", "--c-grid", "0:5e9"],
            ["duality", "regscan", "--x", "0.4:0.5", "--points", "1000001", "--out", "unused.csv"],
            # phi that misses 1 by far more than its error estimate: (0.5, 0) for a true (1, 0) ...
            ["analyze-phi", "--dist", "laplace:1e4", "--lambda", "0,c", "--c-grid", "0.5:0.5"],
            # ... (0, 0) under an estimate of 0, and NaN rows
            ["analyze-phi", "--dist", "splareto:a=1e20", "--lambda", "0,c", "--c-grid", "1:1"],
            ["analyze-phi", "--dist", "splareto:a=1e300", "--lambda", "0,c", "--c-grid", "1:1"],
            # TiB requests, which numpy refuses before touching any memory
            ["duality", "ift", "--n", "1099511627776", "--out", "unused.csv"],
            ["duality", "sanity-normal", "--n", "1099511627776"],
            SIM + ["--policy", "ftpl:lp:m=0.2", "--env", "bern:0.1,0.2", "--T", "100000000000", "--threads", "1"],
            # a generalized Pareto scale^shape beyond the float range, raised or underflowed to 0
            ["analyze-phi", "--dist", "gpd:2,1e308", "--lambda", "0,c", "--c-grid", "1:1"],
            ["analyze-phi", "--dist", "asp:2,1e300", "--lambda", "0,c", "--c-grid", "1:1"],
            ["check-dist", "--dist", "gpd:2,1e308"],
            ["check-dist", "--dist", "gpd:2,1e-200"],
            # spec tokens that no parser reads
            SIM + ["--policy", "ftrl:shannon:extra:m=1", "--env", "bern:0.1,0.2"],
            SIM + ["--policy", "ftpl:lp:m=1:beta=0.3", "--env", "bern:0.1,0.2"],
            SIM + ["--policy", "ftrl:tsallis:m=1:cap=5", "--env", "bern:0.1,0.2"],
            SIM + ["--policy", "ftrl:shannon:beta=0.3:m=1", "--env", "bern:0.1,0.2"],
            SIM + ["--policy", "ftpl:lp:m=1:m=2", "--env", "bern:0.1,0.2"],
            SIM + ["--policy", "ftpl:lp:m=0.2", "--env", "switch:phase=2,mu1=0.1|0.2,mu2=0.2|0.1,foo=3"],
            SIM + ["--policy", "ftpl:lp:m=0.2", "--env", "switch:phase=2,mu1=0.1|0.2,mu2=0.2|0.1,x"],
            ["analyze-phi", "--dist", "lp:5", "--lambda", "0,c", "--c-grid", "1:1"],
            ["analyze-phi", "--dist", "gumbel:3", "--lambda", "0,c", "--c-grid", "1:1"],
            ["analyze-phi", "--dist", "gpd:2,", "--lambda", "0,c", "--c-grid", "1:1"],
            # regret-table metadata that would divide by zero, raise, or make any curve pass or fail
            ["verdict", "--csv", "m_zero.csv", "--envelope", "advlp"],
            ["verdict", "--csv", "m_zero.csv", "--envelope", "stolp"],
            ["verdict", "--csv", "k_negative.csv", "--envelope", "advlp"],
            ["verdict", "--csv", "k_negative.csv", "--envelope", "tsallisref"],
            ["verdict", "--csv", "m_inf.csv", "--envelope", "advlp"],
            ["verdict", "--csv", "m_nan.csv", "--envelope", "advlp"],
            ["verdict", "--csv", "gap_nan.csv", "--envelope", "stolp"],
            ["verdict", "--csv", "gap_negative.csv", "--envelope", "stolp"],
            # a Laplace rate whose rate^2, the factor of f', overflows
            ["check-dist", "--dist", "laplace:1e155"],
            ["analyze-phi", "--dist", "laplace:1e308", "--lambda", "0,c", "--c-grid", "1:1"],
            SIM + ["--policy", "ftpl:laplace:1e155:m=1", "--env", "bern:0.1,0.2"],
            # a generalized Pareto scale^-(shape+2), the power in f' at 0, beyond the float range
            ["check-dist", "--dist", "gpd:320,0.1"],
            # finite ends whose top frequency, or whose width, overflows
            ["duality", "ift", "--xmin=0", "--xmax", "1e-308", "--n", "4", "--out", "unused.csv"],
            ["duality", "ift", "--xmin=-1e308", "--xmax", "1e308", "--out", "unused.csv"],
        ],
        ids=["policy-m", "policy-cap", "tsallis-m-nan", "tsallis-m-inf", "ftpl-m-nan", "shannon-m-nan", "cap-zero",
             "cap-negative", "switch-missing-mu", "bern-number", "sched-number", "sched-short",
             "seed-negative", "threads-zero", "threads-negative", "bern-nan", "switch-nan", "sched-nan", "config-unknown-key",
             "config-no-header", "config-two-sections", "config-two-keys", "config-no-equals", "config-not-utf8",
             "config-bad-interpolation",
             "verdict-no-K", "verdict-no-gaps", "verdict-no-rows", "verdict-bad-cell", "verdict-short-row",
             "verdict-no-run-column", "verdict-unknown-envelope", "lambda-number",
             "lambda-scaled-number", "grid-number", "grid-zero-step", "grid-step-away", "regscan-x-no-colon",
             "regscan-points-negative", "regscan-points-zero", "ift-n-zero", "ift-n-negative",
             "ift-n-not-power-of-two", "ift-empty-x-range", "sanity-n-zero", "sanity-n-not-power-of-two",
             "ift-n-one", "sanity-n-one", "ift-infinite-x-range", "ift-out-directory", "regscan-out-directory",
             "simulate-out-directory", "verdict-csv-directory", "simulate-meta-directory", "ift-beta-one",
             "loss-spread-1e16", "loss-spread-nan-rows", "loss-spread-overflow", "grid-count-overflow",
             "grid-count-above-cap", "regscan-points-above-cap", "phi-misses-one", "phi-all-zero", "phi-nan-rows",
             "ift-n-allocation", "sanity-n-allocation", "simulate-T-allocation", "gpd-scale-overflow",
             "asp-scale-overflow", "check-dist-gpd-overflow", "check-dist-gpd-underflow", "ftrl-extra-token",
             "ftpl-beta", "tsallis-cap", "shannon-beta", "policy-m-twice", "switch-unknown-key",
             "switch-bare-token", "lp-parameter", "gumbel-parameter", "gpd-empty-scale", "verdict-m-zero-advlp",
             "verdict-m-zero-stolp", "verdict-K-negative-advlp", "verdict-K-negative-tsallisref",
             "verdict-m-inf", "verdict-m-nan", "verdict-gap-nan", "verdict-gap-negative",
             "check-dist-laplace-rate-squared-overflow", "phi-laplace-rate-squared-overflow",
             "ftpl-laplace-rate-squared-overflow", "check-dist-gpd-density-overflow", "ift-top-frequency-overflow",
             "ift-width-overflow"],
    )
    def test_bad_input_is_usage_error(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.csv").write_text("0.1,x\n")
        (tmp_path / "two.csv").write_text("0.1,0.2\n0.3,0.4\n")
        (tmp_path / "plain.csv").write_text("t,mean,stderr,run0\n1,0.5,0,0.5\n")
        (tmp_path / "no_gaps.csv").write_text("# K=2\n# m=0.2\nt,mean,stderr,run0\n1,0.5,0,0.5\n")
        (tmp_path / "bad_cell.csv").write_text("# K=2\n# m=0.2\nt,mean,stderr,run0\n1,0.5,0,x\n")
        (tmp_path / "short_row.csv").write_text("# K=2\n# m=0.2\nt,mean,stderr,run0\n1,0.5,0\n")
        (tmp_path / "no_run.csv").write_text("# K=2\n# m=0.2\nt,mean,stderr\n1,0.5,0\n")
        (tmp_path / "nan.csv").write_text("0.1,0.2\n0.3,nan\n")
        for name, meta in [("m_zero", "K=2\n# m=0\n# gaps=0,0.1"), ("k_negative", "K=-3\n# m=0.2"),
                           ("m_inf", "K=2\n# m=inf"), ("m_nan", "K=2\n# m=nan"),
                           ("gap_nan", "K=2\n# m=0.2\n# gaps=0.2,nan"), ("gap_negative", "K=2\n# m=0.2\n# gaps=0.2,-0.1")]:
            (tmp_path / f"{name}.csv").write_text(f"# {meta}\nt,mean,stderr,run0\n1,0.5,0,0.5\n")
        (tmp_path / "unused.csv.meta").mkdir()
        # a key this version does not read; 2.0 keeps the grid finite where it was still read
        (tmp_path / "old.ini").write_text(
            "[experiment]\npolicy = ftpl:lp:m=0.2\nenv = bern:0.1,0.2\nT = 10\nruns = 1\nseed = 0\n"
            "checkpoint_ratio = 2.0\n"
        )
        good = "[experiment]\npolicy = ftpl:lp:m=0.2\nenv = bern:0.1,0.2\nT = 10\nruns = 1\nseed = 0\n"
        (tmp_path / "no_header.ini").write_text(good.split("\n", 1)[1])
        (tmp_path / "two_sections.ini").write_text(good + "[experiment]\n")
        (tmp_path / "two_keys.ini").write_text(good + "seed = 1\n")
        (tmp_path / "no_equals.ini").write_text(good + "threads\n")
        (tmp_path / "latin1.ini").write_bytes(good.encode() + "out = r\xe9gret.csv\n".encode("latin-1"))
        (tmp_path / "percent.ini").write_text(good + "out = 50%.csv\n")
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "unused.csv").exists()

    @pytest.mark.parametrize("argv", [
        # c is a Python float, so 1e308 c overflows to inf without a numpy scalar's warning
        ["analyze-phi", "--dist", "lp", "--lambda", "0,1e308c", "--c-grid", "10:10"],
        # a non-finite end, rejected before np.linspace would warn of an invalid value
        ["duality", "regscan", "--x", "0.4:inf", "--points", "2", "--out", "unused.csv"],
        ["duality", "regscan", "--x", "inf:inf", "--points", "1", "--out", "unused.csv"],
        # a schedule file without data rows, of which np.loadtxt warns
        SIM + ["--policy", "ftpl:lp:m=0.2", "--env", "sched:empty.csv", "--out", "unused.csv"],
    ], ids=["lambda-overflow", "regscan-x-inf", "regscan-x-both-inf", "sched-empty"])
    def test_usage_error_prints_no_warning(self, capsys, tmp_path, monkeypatch, argv):
        # numpy's own warnings are attributed to numpy, out of reach of the pyproject filter: record them all
        monkeypatch.chdir(tmp_path)
        (tmp_path / "empty.csv").write_text("")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert [str(w.message) for w in caught] == []
        assert not (tmp_path / "unused.csv").exists()

    def test_ift_takes_no_eps(self, tmp_path):
        # the Tsallis tail is exact, so there is no truncation to choose
        with pytest.raises(SystemExit) as exc:
            cli.main(["duality", "ift", "--eps", "1e-4", "--out", str(tmp_path / "ift.csv")])
        assert exc.value.code == 2
        assert not (tmp_path / "ift.csv").exists()

    @pytest.mark.parametrize("out", ["missing/x.csv", "."])
    def test_missing_out_dir_fails_before_any_run(self, capsys, tmp_path, monkeypatch, out):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(harness, "simulate_run", lambda *job: pytest.fail("a run started"))
        argv = self.SIM + ["--policy", "ftpl:lp:m=0.2", "--env", "bern:0.1,0.2", "--out", out]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1

    def test_check_dist(self, tmp_path):
        out = tmp_path / "rep.csv"
        assert cli.main(["check-dist", "--dist", "pareto:2", "--out", str(out)]) == 0
        assert "von_mises" in out.read_text()

    def test_sanity_normal_holds_at_large_n(self, capsys):
        assert cli.main(["duality", "sanity-normal", "--n", "32768"]) == 0
        sup = float(capsys.readouterr().out.split("= ")[1].split()[0])
        assert sup <= 1e-4

    @pytest.mark.parametrize("n", [64, 2048])
    def test_ift_csv_round_trips(self, tmp_path, n):
        # every .17g field reads back as the float it was written from; imag has 3 digits
        out = tmp_path / "ift.csv"
        argv = ["duality", "ift", "--out", str(out)] + (["--n", str(n)] if n != 2048 else [])
        assert cli.main(argv) == 0
        header, *rows = out.read_text().splitlines()
        assert header == "x,pdf,imag,cdf,ref_splareto2,ref_laplace" and len(rows) == n
        res = duality.tsallis_ift_pipeline(n=n)
        columns = [res.x_grid, res.pdf, res.cdf, SymmetricPareto(2.0).pdf(res.x_grid),
                   0.5 * np.exp(-np.abs(res.x_grid))]
        fields = [row.split(",") for row in rows]
        for j, column in zip((0, 1, 3, 4, 5), columns):
            assert [float(f[j]) for f in fields] == np.asarray(column).tolist(), header.split(",")[j]
        assert [f[2] for f in fields] == [format(v, ".3g") for v in res.imag_residual.tolist()]

    def test_duality_subcommands(self, tmp_path):
        assert cli.main(["duality", "sanity-normal"]) == 0
        ift_out = tmp_path / "ift.csv"
        assert cli.main(["duality", "ift", "--out", str(ift_out)]) == 0
        header = ift_out.read_text().splitlines()[0]
        assert header == "x,pdf,imag,cdf,ref_splareto2,ref_laplace"
        reg_out = tmp_path / "reg.csv"
        assert cli.main(
            ["duality", "regscan", "--x", "0.4:0.9", "--points", "6", "--out", str(reg_out)]
        ) == 0
        # x = 1/3 is the grid's lower end; lp's phi_1(0, 0, 0) rounds above it
        assert cli.main(
            ["duality", "regscan", "--dist", "lp", "--x", "0.3333333333333333:0.5", "--points", "3",
             "--out", str(reg_out)]
        ) == 0
