"""The four pllab benchmark workloads: inputs, timed calls and output checks.

A workload is a fixed *pass* of work, built from the workload seed and
repeated for the length of a run.  Each pass is a list of timed operations
(``Op``); every operation is checked for correctness as it completes, and
any failure - including a ``ToleranceNotMet`` or ``RootFindFailed`` - marks
that operation failed.  Everything goes through ``pllab.cli.main`` in
process where a subcommand exists, and through the public API otherwise.
Regret runs use ``--threads 1`` so that the numbers measure the program,
not the process scheduler.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import hostspeed
from pllab import cli, duality
from pllab.distributions import parse_dist
from pllab.errors import PllabError

DEFAULT_SEED = 1
REFERENCE_PATH = Path(__file__).with_name("reference.json")

BERN8 = "bern:" + ",".join(["0.1"] + ["0.3"] * 7)
SWITCH8 = "switch:phase=500,mu1={},mu2={}".format(
    "|".join(["0.2"] + ["0.5"] * 7), "|".join(["0.5"] * 7 + ["0.2"])
)

# stored phi / phi' agree with the reference to this absolute tolerance; the
# probes ask for 1e-8 per component, so a correct kernel lands well inside
PHI_REFERENCE_TOL = 1e-7
PHI_SUM_TOL = 1e-7
GUMBEL_SOFTMAX_TOL = 1e-6
GRAD_CHECK_TOL = 1e-5


@dataclass
class Op:
    """One timed call: kind, wall seconds, kernel seconds around it, work units, check result."""

    kind: str
    seconds: float
    host_s: float
    units: int
    ok: bool

    @property
    def ref_seconds(self):
        """Wall seconds at reference host speed (see hostspeed.py)."""
        return self.seconds * hostspeed.REFERENCE_S / self.host_s


@dataclass
class Context:
    """Per-run state shared by the passes of one workload."""

    seed: int
    out_dir: Path
    tiny: bool = False
    reference: dict = field(default_factory=dict)
    memo: dict = field(default_factory=dict)
    clock: hostspeed.HostClock = field(default_factory=hostspeed.HostClock)

    @property
    def at_reference(self):
        """True when the inputs are the ones the stored reference was taken at."""
        return self.seed == DEFAULT_SEED and not self.tiny

    def path(self, name):
        return str(self.out_dir / name)


def load_reference():
    return json.loads(REFERENCE_PATH.read_text())


def call_cli(argv, clock):
    """Run ``pllab.cli.main(argv)`` in process, timed by ``clock``.

    Returns (exit code, (seconds, kernel seconds around the call), stdout).
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc, seconds, host_s = clock.timed(cli.main, argv)
    if rc != 0:
        print(f"pllab {' '.join(argv[:2])} exited {rc}: {err.getvalue().strip()}", file=sys.stderr)
    return rc, (seconds, host_s), out.getvalue()


def _fail(what):
    print(f"check failed: {what}", file=sys.stderr)
    return False


def _read_csv_rows(path):
    """(header fields, float rows, '# key=value' metadata) of a pllab CSV."""
    header, rows, meta = None, [], {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                key, sep, val = line[1:].strip().partition("=")
                if sep:
                    meta[key.strip()] = val.strip()
            elif header is None:
                header = line.split(",")
            elif line:
                rows.append([float(v) for v in line.split(",")])
    return header, np.asarray(rows, dtype=float), meta


class Workload:
    """Base class: ``run_pass`` returns the pass's checked operations."""

    name = ""
    why = ""
    unit_kinds = ()     # op kinds whose units / seconds give work_per_s
    latency_kind = ""   # op kind whose mean seconds per pass give op_ms
    min_unit_ops = 0    # a run continues until it has timed this many
    aliases: dict = {}  # end-to-end metric -> the workload's own name for it

    def specs(self):
        """(parser, spec) pairs parsed during set-up."""
        return []

    def run_pass(self, ctx: Context) -> list[Op]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# regret workloads
# ---------------------------------------------------------------------------

class Regret(Workload):
    unit_kinds = ("simulate",)
    latency_kind = "simulate"
    aliases = {"work_per_s": "rounds_per_s", "op_ms": "simulate_ms"}

    def __init__(self, name, why, policy, env, envelope, horizon, runs):
        self.name, self.why = name, why
        self.policy, self.env, self.envelope = policy, env, envelope
        self.horizon, self.runs = horizon, runs

    def specs(self):
        return [("policy", self.policy), ("env", self.env)]

    def size(self, tiny=False):
        """(horizon, runs) of one simulate call."""
        return (self.horizon // 10, 2) if tiny else (self.horizon, self.runs)

    def simulate_argv(self, seed, csv, tiny=False):
        horizon, runs = self.size(tiny)
        return ["simulate", "--policy", self.policy, "--env", self.env, "--T", str(horizon),
                "--runs", str(runs), "--seed", str(seed), "--threads", "1", "--out", csv]

    def run_pass(self, ctx):
        csv = ctx.path(f"{self.name}.csv")
        rc, timing, _ = call_cli(self.simulate_argv(ctx.seed, csv, ctx.tiny), ctx.clock)
        horizon, runs = self.size(ctx.tiny)
        ops = [Op("simulate", *timing, horizon * runs, rc == 0 and self.check_csv(csv, ctx))]
        rc, timing, _ = call_cli(["verdict", "--csv", csv, "--envelope", self.envelope], ctx.clock)
        ops.append(Op("verdict", *timing, 0, rc == 0 or _fail(f"{self.name} verdict exit {rc}")))
        return ops

    def check_csv(self, csv, ctx):
        data = Path(csv).read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        first = ctx.memo.setdefault("csv_sha256", digest)
        if digest != first:
            return _fail(f"{self.name}: CSV differs between passes of one run")
        if ctx.at_reference and digest != ctx.reference.get(self.name, {}).get("csv_sha256"):
            return _fail(f"{self.name}: CSV sha256 {digest} differs from the golden hash")
        _, rows, meta = _read_csv_rows(csv)
        t, curves = rows[:, :1], rows[:, 3:]
        if not np.all(np.isfinite(rows)):
            return _fail(f"{self.name}: non-finite regret value")
        # pseudo-regret sums nonnegative gaps; realized (adversarial) regret
        # against the best arm in hindsight can dip below 0, never below -t
        lower = 0.0 if meta.get("regret_kind") == "pseudo" else -t
        if np.any(curves < lower) or np.any(curves > t):
            return _fail(f"{self.name}: regret curve outside its range")
        return True


# ---------------------------------------------------------------------------
# phi-scan
# ---------------------------------------------------------------------------

FAMILY_LAWS = ("splareto:a=2", "lp", "gumbel")
FAMILY_KS = (2, 3, 10)
FAMILY_CS = (1.0, 4.0)
SEEDED_K = 3
SEEDED_GAP = 6.0


@dataclass(frozen=True)
class Probe:
    label: str
    law: str
    template: str   # analyze-phi --lambda
    c: float
    seeded: bool

    def lam(self):
        return np.asarray([self.c if f == "c" else float(f) for f in self.template.split(",")])

    def argv(self, csv):
        grid = f"{self.c!r}:{self.c!r}"
        return ["analyze-phi", "--dist", self.law, "--lambda", self.template,
                "--c-grid", grid, "--tol", "1e-8", "--out", csv]


def phi_probes(seed, tiny=False):
    """The probe list of one phi-scan pass: fixed families, then seeded vectors."""
    probes = []
    for law in FAMILY_LAWS:
        for k in FAMILY_KS[:1] if tiny else FAMILY_KS:
            template = ",".join(["0"] + ["c"] * (k - 1))
            for c in FAMILY_CS[:1] if tiny else FAMILY_CS:
                probes.append(Probe(f"{law} K={k} c={c:g}", law, template, c, False))
    rng = np.random.default_rng(seed)
    for law in FAMILY_LAWS:
        template = ",".join(repr(float(v)) for v in rng.uniform(0.0, SEEDED_GAP, size=SEEDED_K))
        probes.append(Probe(f"{law} seeded", law, template, 0.0, True))
    return probes


def read_phi_csv(path):
    """(phi, phi_prime) in component order from an analyze-phi CSV."""
    header, rows, _ = _read_csv_rows(path)
    col = {name: i for i, name in enumerate(header)}
    order = np.argsort(rows[:, col["i"]])
    return rows[order, col["phi"]], rows[order, col["phi_prime"]]


class PhiScan(Workload):
    name = "phi-scan"
    why = "selection quadrature calling scalar cdf/pdf evaluators, (0,c,..,c) at K=2,3,10 plus seeded vectors"
    # probe latency covers the fixed families only: the seeded vectors change
    # the probe mix with the seed, and with it the latency
    unit_kinds = ("probe", "seeded_probe")
    latency_kind = "probe"
    min_unit_ops = 100
    aliases = {"work_per_s": "probes_per_s", "op_ms": "probe_ms"}

    def specs(self):
        return [("dist", law) for law in FAMILY_LAWS]

    def run_pass(self, ctx):
        csv = ctx.path("phi.csv")
        ops = []
        for probe in phi_probes(ctx.seed, ctx.tiny):
            rc, timing, _ = call_cli(probe.argv(csv), ctx.clock)
            ok = rc == 0 and self.check(probe, *read_phi_csv(csv), ctx)
            ops.append(Op("seeded_probe" if probe.seeded else "probe", *timing, 1, ok))
        return ops

    def check(self, probe, phi, phi_prime, ctx):
        if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(phi_prime))):
            return _fail(f"{probe.label}: non-finite phi or phi'")
        if abs(phi.sum() - 1.0) > PHI_SUM_TOL:
            return _fail(f"{probe.label}: |sum phi - 1| = {abs(phi.sum() - 1.0):.2e}")
        if probe.law == "gumbel":
            z = -(probe.lam() - probe.lam().min())
            soft = np.exp(z) / np.exp(z).sum()
            if np.max(np.abs(phi - soft)) > GUMBEL_SOFTMAX_TOL:
                return _fail(f"{probe.label}: phi differs from the softmax")
        if probe.seeded and not ctx.at_reference:
            return True
        ref = ctx.reference.get(self.name, {}).get(probe.label)
        if ref is None:
            return _fail(f"{probe.label}: no stored reference")
        if (np.max(np.abs(phi - ref["phi"])) > PHI_REFERENCE_TOL
                or np.max(np.abs(phi_prime - ref["phi_prime"])) > PHI_REFERENCE_TOL):
            return _fail(f"{probe.label}: phi/phi' differ from the stored reference")
        return True


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------

DUALITY_LAW = "splareto:a=2"
# one regscan call per point, so that each timed call stays short
REGSCAN_XS = ("0.4", "0.95")
PROBE_KS = (2, 3)
NU_RANGE = 2.5


def _duality_probe(nu, dist):
    """(grad_check, None) of one probe, or (None, the PllabError it raised)."""
    try:
        return duality.duality_probe(nu, dist).grad_check, None
    except PllabError as exc:
        return None, exc


class Duality(Workload):
    name = "duality"
    why = "phi only under brentq (regscan), potential integrals (duality_probe) and the FFT pipeline (ift)"
    unit_kinds = ("regscan",)
    latency_kind = "duality_probe"
    aliases = {"work_per_s": "scan_points_per_s", "op_ms": "duality_probe_ms"}

    def specs(self):
        return [("dist", DUALITY_LAW)]

    def run_pass(self, ctx):
        csv = ctx.path("regscan.csv")
        ops = []
        for x in REGSCAN_XS[:1] if ctx.tiny else REGSCAN_XS:
            rc, timing, _ = call_cli([
                "duality", "regscan", "--dist", DUALITY_LAW, "--x", f"{x}:{x}", "--points", "1", "--out", csv,
            ], ctx.clock)
            ok = rc == 0 and (len(_read_csv_rows(csv)[1]) == 1 or _fail("regscan row count"))
            ops.append(Op("regscan", *timing, 1, ok))

        rng = np.random.default_rng(seed=ctx.seed)
        dist = parse_dist(DUALITY_LAW)
        nus = [rng.uniform(-NU_RANGE, NU_RANGE, size=k) for k in PROBE_KS]
        for nu in nus[:1] if ctx.tiny else nus:
            (grad_check, exc), *timing = ctx.clock.timed(_duality_probe, nu, dist)
            if exc is not None:
                ok = _fail(f"duality_probe: {exc}")
            else:
                ok = grad_check <= GRAD_CHECK_TOL or _fail(f"grad_check {grad_check:.2e}")
            ops.append(Op("duality_probe", *timing, 1, ok))

        n = "512" if ctx.tiny else "2048"
        ift_argv = ["duality", "ift", "--beta", "0.5", "--n", n, "--out", ctx.path("ift.csv")]
        rc, timing, _ = call_cli(ift_argv, ctx.clock)
        ops.append(Op("ift", *timing, 1, rc == 0))
        return ops


WORKLOADS = {
    w.name: w
    for w in (
        Regret(
            "regret-ftpl",
            "per-round sampling, geometric resampling, next_loss and accounting; no quadrature",
            "ftpl:lp:m=0.23", BERN8, "advlp", horizon=3000, runs=4,
        ),
        Regret(
            "regret-ftrl",
            "same loop without perturbations: one exact Tsallis root-find per round, adversarial accounting",
            "ftrl:tsallis:beta=0.5:m=0.23", SWITCH8, "tsallisref", horizon=3000, runs=3,
        ),
        PhiScan(),
        Duality(),
    )
}
