"""pllab benchmark: one workload per invocation, one JSON result line.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from its
``src/`` directory.  With ``--trace 0`` the run repeats the workload's pass
for ``--seconds`` seconds with no wrappers installed and reports the
end-to-end metrics, every timing at reference host speed (hostspeed.py).
With ``--trace 1`` it alternates untraced and traced passes (see
tracing.py) and reports the per-layer metrics, counts per pass, plus the
tracing overhead.  Human-readable lines come first; the last line
of standard output is the JSON result.  Scratch files and span dumps go to
``.bench_out/`` in the checkout.  See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostspeed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_REPEATS = 7

END_TO_END = [  # (name, unit)
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("work_per_s", "1/s"),
    ("op_ms", "ms"),
]

# a fresh interpreter imports the program and parses the workload's specs,
# then reports the monotonic clock (shared across processes on Linux)
SETUP_CHILD = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
from pllab import cli
from pllab.distributions import parse_dist
from pllab.environments import parse_environment
from pllab.policies import parse_policy
parsers = {"dist": parse_dist, "env": parse_environment, "policy": parse_policy}
cli.build_parser()
for kind, spec in json.loads(sys.argv[2]):
    parsers[kind](spec)
print(repr(time.monotonic()))
"""


def measure_setup(workload, repeats):
    """Median seconds, at reference spawn speed, from spawning a fresh
    interpreter to its first timed call."""

    def spawn():
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), json.dumps(workload.specs())],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        return float(done.stdout.strip().splitlines()[-1]) - t0

    times, before = [], hostspeed.bare_start()
    for _ in range(repeats):
        seconds = spawn()
        after = hostspeed.bare_start()
        times.append(seconds * hostspeed.BARE_START_REFERENCE_S / (0.5 * (before + after)))
        before = after
    return statistics.median(times)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def op_medians(passes):
    """Median seconds at reference speed of each operation of the pass, by position.

    Every pass of a run makes the same calls on the same inputs, so the
    operation at one position is one measurement repeated.
    """
    kinds = [op.kind for op in passes[0]]
    if any([op.kind for op in p] != kinds for p in passes):
        raise RuntimeError("the passes of one run made different calls")
    return [statistics.median(p[j].ref_seconds for p in passes) for j in range(len(kinds))]


def run_passes(workload, ctx, seconds, traced=False):
    """Repeat the pass for ``seconds``; with ``traced`` alternate untraced/traced.

    Returns (untraced passes, traced passes as (ops, tracer) pairs).
    """
    from tracing import Tracer

    plain, traced_passes = [], []
    t_end = time.perf_counter() + seconds
    while True:
        plain.append(workload.run_pass(ctx))
        if traced:
            with Tracer() as tracer:
                ops = workload.run_pass(ctx)
            traced_passes.append((ops, tracer))
        unit_ops = sum(op.kind in workload.unit_kinds for p in plain for op in p)
        if time.perf_counter() >= t_end and unit_ops >= (0 if ctx.tiny else workload.min_unit_ops):
            return plain, traced_passes


def end_to_end(workload, passes, setup_s):
    """Timings from the per-operation medians at reference host speed."""
    medians = op_medians(passes)
    ops = passes[0]
    unit = [j for j, op in enumerate(ops) if op.kind in workload.unit_kinds]
    latency = [medians[j] for j, op in enumerate(ops) if op.kind == workload.latency_kind]
    return {
        "setup_s": setup_s,
        "wall_s": sum(medians),
        "peak_rss_mb": peak_rss_mb(),
        "work_per_s": sum(ops[j].units for j in unit) / sum(medians[j] for j in unit),
        "op_ms": 1e3 * statistics.mean(latency),
    }


def per_layer(plain, traced_passes, ctx, workload_name):
    """Per-layer metrics: counts from the first traced pass, times as medians."""
    from layers import COUNT_METRICS, derive

    derived = [derive(*tracer.stats(), tracer.extra) for _, tracer in traced_passes]
    consistent = all(d[k] == derived[0][k] for d in derived for k in COUNT_METRICS)
    metrics = {k: statistics.median(d[k] for d in derived) for k in derived[0]}
    metrics.update({k: derived[0][k] for k in COUNT_METRICS})
    untraced = sum(op_medians(plain))
    traced = sum(op_medians([ops for ops, _ in traced_passes]))
    metrics["trace.overhead_frac"] = traced / untraced - 1.0
    traced_passes[-1][1].save(OUT_DIR / f"trace-{workload_name}-seed{ctx.seed}.npz")
    return metrics, consistent


def measure(workload_name, seed, seconds, trace, tiny=False):
    """Run one workload; returns (JSON result, workload, untraced passes)."""
    import workloads
    from layers import UNITS

    workload = workloads.WORKLOADS[workload_name]
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload_name}-", dir=OUT_DIR))
    try:
        reference = workloads.load_reference()
        if not tiny:  # first-call costs (lazy imports, caches) stay out of the timings
            workload.run_pass(workloads.Context(seed, scratch, tiny=True, reference=reference))
        ctx = workloads.Context(seed, scratch, tiny=tiny, reference=reference)
        setup_s = None if trace else measure_setup(workload, 1 if tiny else SETUP_REPEATS)
        plain, traced_passes = run_passes(workload, ctx, seconds, traced=bool(trace))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    ops = [op for p in plain for op in p] + [op for p, _ in traced_passes for op in p]
    attempted = len(ops)
    failed = sum(not op.ok for op in ops)
    if trace:
        values, consistent = per_layer(plain, traced_passes, ctx, workload_name)
        if not consistent:
            print("check failed: counts differ between traced passes of the same inputs", file=sys.stderr)
            attempted += 1
            failed += 1
        units = UNITS
    else:
        values = end_to_end(workload, plain, setup_s)
        units = dict(END_TO_END)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }, workload, plain


def report_lines(result, workload, plain, trace):
    """Readable lines: every metric with its unit, under the workload's own names."""
    lines = [f"workload {workload.name}: {workload.why}"]
    n_units = sum(op.kind in workload.unit_kinds for p in plain for op in p)
    n_latency = sum(op.kind == workload.latency_kind for p in plain for op in p)
    lines.append(f"passes {len(plain)} untraced; {n_units} {'/'.join(workload.unit_kinds)} calls timed; "
                 f"op_ms over {n_latency} {workload.latency_kind} calls")
    host = statistics.median(op.host_s for p in plain for op in p)
    raw = statistics.median(sum(op.seconds for op in p) for p in plain)
    lines.append(f"host kernel median {1e3 * host:.2f} ms against {1e3 * hostspeed.REFERENCE_S:.0f} ms "
                 f"at reference speed; raw median pass {raw:.4g} s")
    for name, m in result["metrics"].items():
        alias = "" if trace else workload.aliases.get(name, "")
        lines.append(f"{name:<48} {m['value']:>16.6g} {m['unit']:<6} {alias}")
    if not trace:
        latency_ms = [1e3 * op.ref_seconds for p in plain for op in p if op.kind == workload.latency_kind]
        # percentiles of single calls, where at least ten samples lie beyond p90
        if len(latency_ms) >= 100:
            p90 = statistics.quantiles(latency_ms, n=10, method="inclusive")[8]
            for q, value in ((50, statistics.median(latency_ms)), (90, p90)):
                lines.append(f"{workload.latency_kind + f'_ms_p{q}':<48} {value:>16.6g} ms     "
                             f"({len(latency_ms)} samples)")
        ift = [op.ref_seconds for p in plain for op in p if op.kind == "ift"]
        if ift:
            lines.append(f"{'ift_s':<48} {statistics.median(ift):>16.6g} s")
    failed_frac = result["failed"] / result["attempted"]
    lines.append(f"{'failed_frac':<48} {failed_frac:>16.6g} ratio  ({result['failed']}/{result['attempted']} ops)")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description="pllab benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes (not for measurement)")
    args = parser.parse_args(argv)

    if not (SRC / "pllab" / "__init__.py").is_file():
        print(f"error: no pllab sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pllab

    if Path(pllab.__file__).resolve().parent != (SRC / "pllab").resolve():
        print(f"error: imported pllab from {pllab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    result, workload, plain = measure(args.workload, args.seed, args.seconds, args.trace, args.tiny)
    for line in report_lines(result, workload, plain, args.trace):
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
