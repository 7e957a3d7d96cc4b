"""Write reference.json: the golden outputs the benchmark checks against.

    python3 bench/make_reference.py

Records, at the default workload seed and full size, the sha256 of each
regret workload's CSV and phi / phi' of every phi-scan probe.  The stored
values were taken from the QUADPACK quadrature path and the per-round
simulator of the commit that introduced the benchmark; regenerate them only
when a change is meant to alter these outputs, and say so.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import workloads  # noqa: E402


def main():
    ref = {"default_seed": workloads.DEFAULT_SEED}
    clock = hostspeed.HostClock()
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for name in ("regret-ftpl", "regret-ftrl"):
            w = workloads.WORKLOADS[name]
            csv = str(Path(tmp) / "regret.csv")
            rc, _, _ = workloads.call_cli(w.simulate_argv(workloads.DEFAULT_SEED, csv), clock)
            if rc != 0:
                raise SystemExit(f"{name}: simulate exited {rc}")
            ref[name] = {"csv_sha256": hashlib.sha256(Path(csv).read_bytes()).hexdigest()}
        probes = {}
        csv = str(Path(tmp) / "phi.csv")
        for probe in workloads.phi_probes(workloads.DEFAULT_SEED):
            rc, _, _ = workloads.call_cli(probe.argv(csv), clock)
            if rc != 0:
                raise SystemExit(f"{probe.label}: analyze-phi exited {rc}")
            phi, phi_prime = workloads.read_phi_csv(csv)
            probes[probe.label] = {"lam": probe.lam().tolist(), "phi": phi.tolist(), "phi_prime": phi_prime.tolist()}
        ref["phi-scan"] = probes
    workloads.REFERENCE_PATH.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
