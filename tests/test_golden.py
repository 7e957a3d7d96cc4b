"""Golden sha256 hashes of small regret and ``analyze-phi`` CSVs, and exact
quadrature values.

A regret CSV is a pure function of its config (see ``harness``), so these
hashes pin the sampling path of every perturbation law end to end: a change
that moves any draw by enough to change an arm choice changes the bytes.
The Tsallis FTRL hashes, at beta 0.3, 0.5 and 0.7 and on a switching
environment, pin the exact simplex solver the same way.
The ``analyze-phi`` hashes pin the selection kernel to the last bit,
``trunc(...)`` included for its finite-support edges; the exact
``two_arm_quantile`` and ``three_arm_regularizer_scan`` roots pin the phi
inversions on top of it.  The exact ``phi_values`` / ``potential`` values
pin the QUADPACK oracle in ``quadpack_oracle``, which the kernel must match
to tolerance.  To regenerate after an intended change, print
``_digest(tmp_path, policy, env)``, ``_phi_digest(tmp_path, spec, lam)`` and the
values for each entry below.
"""

import hashlib

import numpy as np
import pytest
import quadpack_oracle

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

# Tsallis FTRL away from beta = 1/2, and on an adversarial (switching) environment
SWITCH = "switch:phase=100,mu1=0.2|0.5|0.5,mu2=0.5|0.5|0.2"
FTRL_GOLDEN = {
    ("ftrl:tsallis:beta=0.3:m=0.23", ENV): "7174a2d6e2a02b8edb823607d21f1b07bb79cb855fc0a3cec7d40bb915735431",
    ("ftrl:tsallis:beta=0.7:m=0.23", ENV): "b169371293f1b6bc6afe221536c2c7c67dd27830aafd2d25e3ccc64f61433718",
    ("ftrl:tsallis:beta=0.5:m=0.23", SWITCH): "9f5bbbc486e1140047eb4fac49b962abfaff69aef13b5b4d7446f80ca8bea824",
}


def _digest(tmp_path, policy, env=ENV):
    out = tmp_path / "golden.csv"
    cfg = harness.ExperimentConfig(
        policy=policy, env=env, horizon=300, runs=2, seed=7, out=str(out), threads=1
    )
    harness.run_experiment(cfg)
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("policy", sorted(GOLDEN))
def test_regret_csv_hash(tmp_path, policy):
    assert _digest(tmp_path, policy) == GOLDEN[policy]


@pytest.mark.parametrize("policy,env", sorted(FTRL_GOLDEN))
def test_ftrl_regret_csv_hash(tmp_path, policy, env):
    assert _digest(tmp_path, policy, env) == FTRL_GOLDEN[policy, env]


PHI_GOLDEN = {
    ("splareto:a=2", "0,c"): "77b93a050395cd7a69e1e2ada2c8bdf4e0d549b5cf175e1b7d3fb6b2a628eca6",
    ("splareto:a=2", "0,c,c"): "d0a1d697140c6a6881f2b26f3ca5b6c4f6051a1aeb6a703b821a31e4b8a11f90",
    ("splareto:a=2", "0,0.5c,2c"): "4d0d444d99dc3d9a73ffc1f832cc2d3f8a6510df41c1f99a307cc5b5e4f94840",
    ("lp", "0,c"): "c00959f4dabce1fa96452a73124c9a8abcc530fe3d8212e34f0e89dd9b0bef06",
    ("lp", "0,c,c"): "20c0851b518cf207645896cdb03ebba1a219f677975538121f78e68c627453a9",
    ("gumbel", "0,c"): "7a68bb0fac921445c3d052fe7dd6e3a705ecba7bace3c2e1e1770e2642e0ef40",
    ("gumbel", "0,c,c"): "54060efec1cbe0b0778360a9f80c9a67c58b587d8d9b0f70d47b108cd686c0f1",
    ("asp:2,3", "0,c"): "11a26422e641ed2bbf86ad4cb9a0ce80bb566e1c587749c1b7b7868492e0f01f",
    ("asp:2,3", "0,c,c"): "9d7c5fee8c4405337635fc230a0364b3345636bdc844677e91e9eb2dd0d1e06a",
    ("trunc(splareto:2)", "0,c"): "a6cd7f19ac7eddfb55d0e2c4e26f9b5b2f897aa04ae12c43f2ef6ab06c1ca2b7",
    ("trunc(splareto:2)", "0,c,c"): "e733cbc8e5d5c167b5c30fba708120f20a0d95a5a9a1837b224719da6be7e5bc",
}

VECTORS = ((0.0, 0.7), (0.3, -0.5, 1.3))

# (phi_values, potential) of the QUADPACK oracle at each of VECTORS, default tolerances
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
        assert quadpack_oracle.phi_values(v, dist)[0].tolist() == phi
        assert quadpack_oracle.potential(v, dist)[0] == pot
        # the kernel, at the same default tolerances (1e-9 for both)
        assert np.max(np.abs(selection.phi_values(v, dist) - phi)) <= 1e-9
        assert abs(duality.potential(v, dist) - pot) <= 1e-9


# the two phi_1 inversions, splareto:a=2 (regscan's x are the benchmark's)
TWO_ARM_GOLDEN = {0.3: -0.5955594105028886, 0.9: 2.154444739878279}
REGSCAN_GOLDEN = {0.4: 0.16238701406622055, 0.95: 4.743193192895689}


def test_phi_inversions_exact():
    dist = parse_dist("splareto:a=2")
    for x, c in TWO_ARM_GOLDEN.items():
        assert duality.two_arm_quantile(x, dist) == c
    rows = duality.three_arm_regularizer_scan(sorted(REGSCAN_GOLDEN), dist)
    assert [r["c"] for r in rows] == [REGSCAN_GOLDEN[x] for x in sorted(REGSCAN_GOLDEN)]
