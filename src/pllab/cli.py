"""Command-line entry point.

Subcommands: simulate, verdict, analyze-phi, check-dist, and the duality
group (ift / regscan / sanity-normal).  Exit code 0 means every requested
verdict passed, 1 means some verdict failed, 2 means a usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

import numpy as np

from . import duality, harness, selection
from .distributions import SymmetricPareto, _number, check_assumptions, parse_dist
from .errors import PllabError

__all__ = ["build_parser", "main"]


_MAX_GRID_POINTS = 10**6  # at 0.14 to 0.23 ms a grid point (K = 2 to 10, 2-vCPU VM), 10^6 points already take 2.5 to 4 minutes


def _parse_grid(text):
    """start:stop[:step] -> inclusive numpy grid."""
    parts = [_number(v, text) for v in text.split(":")]
    if len(parts) == 2:
        start, stop, step = parts[0], parts[1], 1.0
    elif len(parts) == 3:
        start, stop, step = parts
    else:
        raise PllabError(f"grid spec {text!r} must read start:stop[:step]")
    if step == 0.0 or not all(math.isfinite(v) for v in (start, stop, step)):
        raise PllabError(f"grid spec {text!r} needs finite numbers and a nonzero step")
    count = (stop - start) / step + 1e-9
    if count >= _MAX_GRID_POINTS:  # inf included
        raise PllabError(f"grid spec {text!r} asks for {count:.3g} points, more than {_MAX_GRID_POINTS}")
    n = int(math.floor(count)) + 1
    if n < 1:
        raise PllabError(f"grid spec {text!r} steps away from its stop")
    return start + step * np.arange(n)


def _lambda_template(text):
    """Turn '0,c,c' into a callable of c (plain numbers stay fixed)."""
    fields = text.split(",")

    def build(c):
        out = []
        for f in fields:
            f = f.strip()
            if f == "c":
                out.append(c)
            elif f.endswith("c"):
                out.append(_number(f[:-1], text) * c)
            else:
                out.append(_number(f, text))
        return np.asarray(out)

    return build


def _cmd_simulate(args):
    if args.config:
        config = harness.ExperimentConfig.from_file(args.config)
    else:
        missing = [k for k in ("policy", "env", "T", "runs", "seed") if getattr(args, k) is None]
        if missing:
            raise PllabError(f"simulate needs --config or all of --policy/--env/--T/--runs/--seed (missing {missing})")
        config = harness.ExperimentConfig(
            policy=args.policy,
            env=args.env,
            horizon=args.T,
            runs=args.runs,
            seed=args.seed,
        )
    given = {k: getattr(args, k) for k in ("out", "threads") if getattr(args, k) is not None}
    config = dataclasses.replace(config, **given)
    table = harness.run_experiment(config)
    print(f"runs={config.runs} T={config.horizon} final mean regret {table.mean[-1]:.4f} "
          f"(stderr {table.stderr[-1]:.4f})")
    if config.out:
        print(f"wrote {config.out}")
    return 0


def _cmd_verdict(args):
    table = harness.RegretTable.read_csv(args.csv)
    report = harness.verdict(table, args.envelope)
    print(report)
    if args.log_fit:
        t_hi = int(table.checkpoints[-1])
        slope, intercept, r2 = harness.log_growth_fit(
            table.checkpoints, table.mean, t_hi // 2, t_hi
        )
        print(f"log-fit on [{t_hi//2}, {t_hi}]: slope={slope:.4f} r2={r2:.4f}")
    return 0 if report.all_pass else 1


def _cmd_analyze_phi(args):
    dist = parse_dist(args.dist)
    grid = _parse_grid(args.c_grid)
    lam = _lambda_template(args.lam)
    lines = ["c,i,sigma_i,phi,phi_prime,ratio_1,ratio_32,quad_error"]
    for c, probe in zip(grid.tolist(), selection._scan((lam(c) for c in grid), dist, args.tol)):
        if args.stats:
            print(f"stats: c={c:.17g} evals={probe.n_evals} panels={probe.n_panels} "
                  f"quad_error={probe.quad_error:.3g}", file=sys.stderr)
        # Python floats format as numpy's do, without a numpy scalar made for each value
        columns = (probe.rank, probe.phi, probe.phi_prime, probe.ratio_1, probe.ratio_32)
        lines += [f"{c:.17g},{i},{rank},{phi:.17g},{phi_prime:.17g},{ratio_1:.17g},{ratio_32:.17g},"
                  f"{probe.quad_error:.3g}"
                  for i, (rank, phi, phi_prime, ratio_1, ratio_32) in enumerate(zip(*(v.tolist() for v in columns)), 1)]
    text = "\n".join(lines) + "\n"
    if args.out:
        harness._write_text(args.out, text)
        print(f"wrote {args.out} ({len(grid)} grid points)")
    else:
        print(text, end="")
    return 0


def _cmd_check_dist(args):
    dist = parse_dist(args.dist)
    report = check_assumptions(dist)
    lines = ["assumption,statistic,value,grid_or_mc,notes"]
    for assumption, stat, value, src, note in report.rows():
        lines.append(f'{assumption},"{stat}",{value:.10g},{src},"{note}"')
    text = "\n".join(lines) + "\n"
    if args.out:
        harness._write_text(args.out, text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    for note in report.notes:
        print(f"note: {note}", file=sys.stderr)
    if report.flags:
        print(f"flags: {sorted(report.flags)}", file=sys.stderr)
    return 0


def _cmd_duality_ift(args):
    res = duality.tsallis_ift_pipeline(
        beta=args.beta, x_min=args.xmin, x_max=args.xmax, n=args.n
    )
    sp = SymmetricPareto(a=2.0)
    ref_sp = np.asarray(sp.pdf(res.x_grid))
    ref_lap = 0.5 * np.exp(-np.abs(res.x_grid))
    columns = (res.x_grid, res.pdf, res.imag_residual, res.cdf, ref_sp, ref_lap)
    lines = ["x,pdf,imag,cdf,ref_splareto2,ref_laplace"]
    # rows from Python floats, 256 at a time: the floats of all n rows at once
    # would raise the process's peak memory by about 200 bytes a row
    for start in range(0, len(res.x_grid), 256):
        block = (col[start:start + 256].tolist() for col in columns)
        lines += ["%.17g,%.17g,%.3g,%.17g,%.17g,%.17g" % row for row in zip(*block)]
    harness._write_text(args.out, "\n".join(lines) + "\n")
    final = res.cdf[-1]
    max_imag = float(np.max(np.abs(res.imag_residual)))
    print(f"wrote {args.out}; cdf final {final:.4f}, max |imag| {max_imag:.2e}")
    return 0 if (0.98 <= final <= 1.02 and max_imag <= 1e-10) else 1


def _cmd_duality_regscan(args):
    dist = parse_dist(args.dist)
    lo, colon, hi = args.x.partition(":")
    if not colon:
        raise PllabError(f"--x {args.x!r} must read lo:hi")
    if not 1 <= args.points <= _MAX_GRID_POINTS:
        raise PllabError(f"--points must lie in [1, {_MAX_GRID_POINTS}], got {args.points}")
    grid = np.linspace(_number(lo, args.x), _number(hi, args.x), args.points)
    rows = duality.three_arm_regularizer_scan(grid, dist)
    lines = ["x,c,lower,upper,tsallis_ref"]
    ok = True
    for row in rows:
        lines.append(
            f"{row['x']:.17g},{row['c']:.17g},{row['lower']:.17g},"
            f"{row['upper']:.17g},{row['tsallis_ref']:.17g}"
        )
        ok &= row["lower"] <= row["c"] <= row["upper"]
    harness._write_text(args.out, "\n".join(lines) + "\n")
    print(f"wrote {args.out}; envelope {'holds' if ok else 'VIOLATED'} at all {len(rows)} points")
    return 0 if ok else 1


def _cmd_duality_sanity(args):
    res = duality.normal_ift_pipeline(n=args.n)
    ref = np.exp(-res.x_grid**2) / math.sqrt(math.pi)  # N(0, 1/sqrt(2)) density
    sup = float(np.max(np.abs(res.pdf - ref)))
    print(f"normal sanity: sup |pdf - N(0,1/sqrt(2))| = {sup:.3e} (threshold 1e-3)")
    return 0 if sup <= 1e-3 else 1


def build_parser():
    p = argparse.ArgumentParser(prog="pllab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a regret experiment")
    sim.add_argument("--config", help="INI file with an [experiment] section")
    sim.add_argument("--policy")
    sim.add_argument("--env")
    sim.add_argument("--T", type=int)
    sim.add_argument("--runs", type=int)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--out")
    sim.add_argument("--threads", type=int)
    sim.set_defaults(fn=_cmd_simulate)

    ver = sub.add_parser("verdict", help="compare a regret CSV against a bound envelope")
    ver.add_argument("--csv", required=True)
    ver.add_argument("--envelope", required=True, help="advlp | stolp | tsallisref")
    ver.add_argument("--log-fit", action="store_true")
    ver.set_defaults(fn=_cmd_verdict)

    phi = sub.add_parser("analyze-phi", help="selection-probability scan over a loss family")
    phi.add_argument("--dist", required=True)
    phi.add_argument("--lambda", dest="lam", required=True, help="e.g. 0,c,c")
    phi.add_argument("--c-grid", required=True, help="start:stop[:step]")
    phi.add_argument("--tol", type=float, default=1e-8)
    phi.add_argument("--out")
    phi.add_argument("--stats", action="store_true",
                     help="print each probe's evaluations, panels and error estimate to stderr")
    phi.set_defaults(fn=_cmd_analyze_phi)

    chk = sub.add_parser("check-dist", help="regularity diagnostics for a distribution")
    chk.add_argument("--dist", required=True)
    chk.add_argument("--out")
    chk.set_defaults(fn=_cmd_check_dist)

    dual = sub.add_parser("duality", help="duality pipelines")
    dsub = dual.add_subparsers(dest="subcommand", required=True)

    ift = dsub.add_parser("ift", help="characteristic-function inversion for the Tsallis law")
    ift.add_argument("--beta", type=float, default=0.5)
    ift.add_argument("--xmin", type=float, default=-20.0)
    ift.add_argument("--xmax", type=float, default=20.0)
    ift.add_argument("--n", type=int, default=2048)
    ift.add_argument("--out", required=True)
    ift.set_defaults(fn=_cmd_duality_ift)

    reg = dsub.add_parser("regscan", help="three-arm regularizer derivative scan")
    reg.add_argument("--dist", default="splareto:a=2")
    reg.add_argument("--x", default="0.34:0.999", help="lo:hi")
    reg.add_argument("--points", type=int, default=50)
    reg.add_argument("--out", required=True)
    reg.set_defaults(fn=_cmd_duality_regscan)

    san = dsub.add_parser("sanity-normal", help="normal-distribution pipeline check")
    san.add_argument("--n", type=int, default=2048)
    san.set_defaults(fn=_cmd_duality_sanity)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (PllabError, OSError, MemoryError) as exc:  # MemoryError: numpy refused an allocation
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
