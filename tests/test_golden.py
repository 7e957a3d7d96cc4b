"""Golden sha256 hashes of small regret and ``analyze-phi`` CSVs, and exact
quadrature values.

A regret CSV is a pure function of its config (see ``harness``), so these
hashes pin the sampling path of every perturbation law end to end: a change
that moves any draw by enough to change an arm choice changes the bytes.
The ``analyze-phi`` hashes and the exact ``phi_values`` / ``potential``
values pin the selection quadrature to the last bit, ``trunc(...)``
included for its finite-support edges.  To regenerate after an intended
change, print ``_digest(tmp_path, policy)``, ``_phi_digest(tmp_path, spec,
lam)`` and the values for each entry below.
"""

import hashlib

import pytest

from pllab import cli, duality, harness, selection
from pllab.distributions import parse_dist

ENV = "bern:0.1,0.3,0.5"

GOLDEN = {
    "ftpl:lp:m=0.23": "7f8919fc03c33a7af86ac4ab3161c12e1bdfe3db23625853b2af413b6fce96ae",
    "ftpl:splareto:a=2:m=0.23": "ce18df6ad8f3c30ad4d784714bf9e7948246036f9c3cf4f837b97bac85cd656f",
    "ftpl:asp:2,3:m=0.23": "7c9b7d76c1099b123ecf2b797c6a86d49c80e3b832cf08682452e3c827ade02f",
    "ftpl:laplace:1:m=0.23": "623a703ac3a6ffeb0d495644cd7c858a5ee4e4f5884379775b723d5e1ad0507d",
    "ftpl:pareto:2:m=0.23": "3a3605439252b3f0ae2b1f18d5a3d820454f551956b96af798789039a1ab1e3b",
    "ftpl:gpd:3,1.5:m=0.23": "f82c76e4ed01bda7770772a386937d8d6905cc98e28dc493d2298bcf04ac7799",
    "ftpl:frechet:2:m=0.23": "1bcdefe913012108fb9cb6bdcd92a663bf2ce59528bbf304c298d68233647585",
    "ftpl:gumbel:m=0.23": "e7c86501cdbe3b5e6a1aafbe3da029a8519e19bf7254f90d7846c32fc595d114",
    "ftpl:trunc(splareto:2):m=0.23": "bcb93999b49a324be9fd7f25fa77fc2d60570bde805e86046d7fc6e6fad1567f",
    "ftrl:tsallis:beta=0.5:m=0.23": "7e7314278d28213ae90a456b2f410a34ac3091a13243f3211cc390621037d2ec",
}


def _digest(tmp_path, policy):
    out = tmp_path / "golden.csv"
    cfg = harness.ExperimentConfig(
        policy=policy, env=ENV, horizon=300, runs=2, seed=7, out=str(out), threads=1
    )
    harness.run_experiment(cfg)
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("policy", sorted(GOLDEN))
def test_regret_csv_hash(tmp_path, policy):
    assert _digest(tmp_path, policy) == GOLDEN[policy]


PHI_GOLDEN = {
    ("splareto:a=2", "0,c"): "8b6fada20d9e3b58f496baf5a5d35b259450b8d9c752cc1905a1783ccfca263d",
    ("splareto:a=2", "0,c,c"): "f0caf1bfcb2624b3fba917cb68aa08e9e46a48f3b6c6669415b5502ba3d9e131",
    ("splareto:a=2", "0,0.5c,2c"): "ba3d172da985fb55b1f7d60e5de2a6b7bf067aba85bb99c9b05173951b252963",
    ("lp", "0,c"): "f58de3a6cef18c7190a12d0eb20a7cec8dfe644b09d2ac35a4505a0dec74be54",
    ("lp", "0,c,c"): "921db0ab6cee14478bf3c8589a3933ee59124d006de4eaed7ab4e4eacde6b08c",
    ("gumbel", "0,c"): "96a63f8690e900b1e57bc21b8fd0fadb570c0aad51b1a706cbe97e8a1b266f7d",
    ("gumbel", "0,c,c"): "dcfabee162728b017ee576c41419e8a51593a016f2919ebb1ae2ea6e5067f6e3",
    ("asp:2,3", "0,c"): "aeb012ec06a9132818079529e0d71d8e871d9ea8c2b1e64504cfe701c5c71f34",
    ("asp:2,3", "0,c,c"): "337a5c88aa8068b8cd1620605749b7a303307fb3291c5dd966df73d486d860c7",
    ("trunc(splareto:2)", "0,c"): "3f5d88c8f2026c0d0d7d81340a11c35351a91be48d557d5ba3abd1dfdcafc27d",
    ("trunc(splareto:2)", "0,c,c"): "38fc042ac7de81b59fbb3f58676879d5a65a0a40e635367bd0274582f24873f4",
}

VECTORS = ((0.0, 0.7), (0.3, -0.5, 1.3))

# (phi_values, potential) at each of VECTORS, default tolerances
VALUES_GOLDEN = {
    "splareto:a=2": [
        ([0.7251104257765519, 0.27488957422344795], 1.2698086323876332),
        ([0.2302827132437589, 0.6984668123918918, 0.07125047436434757], 1.9815304327957852),
    ],
    "trunc(splareto:2)": [
        ([0.6928588965591028, 0.3071411034408974], 3.7593205784571975),
        ([0.25566678082846134, 0.5980397418843393, 0.14629347728719938], 5.0107602554511),
    ],
}


def _phi_digest(tmp_path, spec, lam):
    out = tmp_path / "phi.csv"
    argv = ["analyze-phi", "--dist", spec, "--lambda", lam, "--c-grid", "0:4:2", "--out", str(out)]
    assert cli.main(argv) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("spec,lam", sorted(PHI_GOLDEN))
def test_analyze_phi_csv_hash(tmp_path, spec, lam):
    assert _phi_digest(tmp_path, spec, lam) == PHI_GOLDEN[spec, lam]


@pytest.mark.parametrize("spec", sorted(VALUES_GOLDEN))
def test_phi_values_and_potential_exact(spec):
    dist = parse_dist(spec)
    for v, (phi, pot) in zip(VECTORS, VALUES_GOLDEN[spec]):
        assert selection.phi_values(v, dist).tolist() == phi
        assert duality.potential(v, dist) == pot
