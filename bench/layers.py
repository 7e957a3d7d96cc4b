"""Per-layer metrics derived from the spans of one traced pass.

Every metric is named ``<module>.<function>.<stat>``.  Each is reported on
every workload; a workload that never reaches a layer reports 0 for it.
Counts (unit ``count`` or ``ratio``) repeat exactly for a given seed; times
are seconds of one pass (``us_per_round`` and ``ms_per_component`` are per
unit of work).  README.md maps each metric to the end-to-end metric it
should move.
"""

from __future__ import annotations

# (name, unit, better)
PER_LAYER = [
    ("distributions.sample_array.calls", "count", "lower"),
    ("distributions.sample_array.self_s", "s", "lower"),
    ("distributions.sample_array.draws", "count", "lower"),
    ("distributions.cdf.calls", "count", "lower"),
    ("distributions.cdf.points", "count", "lower"),
    ("distributions.cdf.self_s", "s", "lower"),
    ("distributions.cdf.points_per_call", "count", "higher"),
    ("distributions.pdf.calls", "count", "lower"),
    ("distributions.pdf.points", "count", "lower"),
    ("distributions.pdf.self_s", "s", "lower"),
    ("distributions.pdf_prime.calls", "count", "lower"),
    ("distributions.pdf_prime.points", "count", "lower"),
    ("distributions.pdf_prime.self_s", "s", "lower"),
    ("selection.phi_quadrature.calls", "count", "lower"),
    ("selection.phi_quadrature.total_s", "s", "lower"),
    ("selection.phi_quadrature.self_s", "s", "lower"),
    ("selection.phi_values.calls", "count", "lower"),
    ("selection.phi_values.total_s", "s", "lower"),
    ("selection.phi_values.self_s", "s", "lower"),
    ("selection.quad.calls", "count", "lower"),
    ("selection.quad.evals", "count", "lower"),
    ("selection.quad.self_s", "s", "lower"),
    ("selection.segments_per_probe", "count", "lower"),
    ("selection.evals_per_probe", "count", "lower"),
    ("selection.ms_per_component", "ms", "lower"),
    ("policies.ftpl_select.calls", "count", "lower"),
    ("policies.ftpl_select.self_s", "s", "lower"),
    ("policies.ftpl_update.calls", "count", "lower"),
    ("policies.ftpl_update.self_s", "s", "lower"),
    ("policies.ftrl_select.calls", "count", "lower"),
    ("policies.ftrl_select.self_s", "s", "lower"),
    ("policies.ftrl_update.calls", "count", "lower"),
    ("policies.ftrl_update.self_s", "s", "lower"),
    ("policies.geometric_resample.calls", "count", "lower"),
    ("policies.geometric_resample.self_s", "s", "lower"),
    ("policies.geometric_resample.draws", "count", "lower"),
    ("policies.geometric_resample.cap_hits", "count", "lower"),
    ("policies.geometric_resample.cap_hit_rate", "ratio", "lower"),
    ("policies.tsallis_weights.calls", "count", "lower"),
    ("policies.tsallis_weights.self_s", "s", "lower"),
    ("policies.tsallis_weights.root_evals", "count", "lower"),
    ("environments.next_loss.calls", "count", "lower"),
    ("environments.next_loss.self_s", "s", "lower"),
    ("harness.simulate_run.calls", "count", "lower"),
    ("harness.simulate_run.total_s", "s", "lower"),
    ("harness.simulate_run.self_s", "s", "lower"),
    ("harness.us_per_round.sample", "us", "lower"),
    ("harness.us_per_round.select", "us", "lower"),
    ("harness.us_per_round.resample", "us", "lower"),
    ("harness.us_per_round.loss", "us", "lower"),
    ("harness.us_per_round.accounting", "us", "lower"),
    ("harness.run_experiment.self_s", "s", "lower"),
    ("harness.verdict.total_s", "s", "lower"),
    ("duality.potential.calls", "count", "lower"),
    ("duality.potential.total_s", "s", "lower"),
    ("duality.potential.self_s", "s", "lower"),
    ("duality.brentq.calls", "count", "lower"),
    ("duality.brentq.root_evals", "count", "lower"),
    ("duality.char_fn_grid.total_s", "s", "lower"),
    ("duality.char_fn_grid.self_s", "s", "lower"),
    ("duality.ift_density.total_s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.total_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

UNITS = {name: unit for name, unit, _ in PER_LAYER}

# metrics that must repeat exactly between traced passes of the same inputs
COUNT_METRICS = [n for n, u, _ in PER_LAYER if u in ("count", "ratio") and n != "trace.overhead_frac"]

_STAT_FIELD = {"calls": "calls", "total_s": "total_s", "self_s": "self_s",
               "points": "count", "draws": "count", "evals": "count"}


def _ratio(num, den):
    return num / den if den else 0.0


def derive(by_name, by_edge, extra):
    """Per-layer metrics (all but trace.overhead_frac) from ``Tracer.stats()``."""

    def s(span, stat):
        return by_name.get(span, {}).get(stat, 0.0)

    def e(parent, child, stat):
        return by_edge.get((parent, child), {}).get(stat, 0.0)

    m = {}
    for name, _, _ in PER_LAYER:
        span, _, stat = name.rpartition(".")
        if stat in _STAT_FIELD and span in by_name:
            m[name] = s(span, _STAT_FIELD[stat])

    m["distributions.cdf.points_per_call"] = _ratio(s("distributions.cdf", "count"), s("distributions.cdf", "calls"))

    probes = s("selection.phi_quadrature", "calls")
    m["selection.segments_per_probe"] = _ratio(e("selection.phi_quadrature", "selection.quad", "calls"), probes)
    m["selection.evals_per_probe"] = _ratio(e("selection.phi_quadrature", "selection.quad", "count"), probes)
    m["selection.ms_per_component"] = 1e3 * _ratio(
        s("selection.phi_quadrature", "total_s"), s("selection.phi_quadrature", "count")
    )

    resample = "policies.geometric_resample"
    m[f"{resample}.cap_hits"] = extra.get(f"{resample}.cap_hits", 0.0)
    m[f"{resample}.cap_hit_rate"] = _ratio(m[f"{resample}.cap_hits"], s(resample, "calls"))
    m["policies.tsallis_weights.root_evals"] = e("policies.tsallis_weights", "policies.brentq", "count")
    m["duality.brentq.root_evals"] = s("duality.brentq", "count")

    # one next_loss call per simulated round; the five phases partition the
    # simulate_run span apart from its spec parsing and set-up children
    run = "harness.simulate_run"
    rounds = e(run, "environments.next_loss", "calls")
    sample = e("policies.ftpl_select", "distributions.sample_array", "total_s")
    phases = {
        "sample": sample,
        "select": s("policies.ftpl_select", "total_s") + s("policies.ftrl_select", "total_s") - sample,
        "resample": s(resample, "total_s"),
        "loss": e(run, "environments.next_loss", "total_s"),
        "accounting": s(run, "self_s") + s("policies.ftpl_update", "total_s") + s("policies.ftrl_update", "total_s"),
    }
    for phase, seconds in phases.items():
        m[f"harness.us_per_round.{phase}"] = 1e6 * _ratio(seconds, rounds)

    return {name: m.get(name, 0.0) for name, _, _ in PER_LAYER if name != "trace.overhead_frac"}
