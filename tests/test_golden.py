"""Golden sha256 hashes of small regret and ``analyze-phi`` CSVs, and exact
quadrature values.

A regret CSV is a pure function of its config (see ``harness``), so these
hashes pin the sampling path of every perturbation law end to end: a change
that moves any draw by enough to change an arm choice changes the bytes.
The Tsallis FTRL hashes, at beta 0.3, 0.5 and 0.7 and on a switching
environment, pin the exact simplex solver the same way.
The ``analyze-phi`` hashes pin the selection kernel to the last bit,
``trunc(...)`` included for its finite-support edges; the
``two_arm_quantile`` and ``three_arm_regularizer_scan`` roots, each within
its own error bound, pin the phi inversions on top of it.  The exact
``phi_values`` / ``potential`` values pin the QUADPACK oracle in
``quadpack_oracle``, which the kernel must match to tolerance.  The scalar hash pins ``cdf`` / ``sf`` / ``pdf`` / ``pdf_prime``
of four glued laws at Python-float arguments out to |x| = 1e300.  The
``check-dist`` hashes pin the regularity diagnostics: the evaluation grid and
the seeded block-maximum design.  The IFT values pin ``duality ift``'s
density and the normal sanity figure to 1e-10, and its gbar at a few
frequencies to 1e-14.  To regenerate after an intended change, print
``_digest(tmp_path, policy, env)``, ``_phi_digest(tmp_path, spec, lam)``,
``_scalar_digest()``, ``_check_dist_digest(tmp_path, spec)`` and the values
for each entry below.
"""

import hashlib
import struct

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


# the .meta sidecar's per-run FTPL counters (vectors_drawn, resample_trials,
# cap_hits) of each GOLDEN config, and of a cap below the first resampling
# block: they pin how much of the perturbation tape each round reads, which
# the CSV hashes see only through the arms it changes
META_GOLDEN = {
    "ftpl:lp:m=0.23": ((5603, 5379), (1042, 843), (0, 0)),
    "ftpl:splareto:a=2:m=0.23": ((5417, 5129), (908, 840), (1, 0)),
    "ftpl:asp:2,3:m=0.23": ((5283, 5199), (976, 917), (0, 0)),
    "ftpl:laplace:1:m=0.23": ((5414, 5318), (954, 954), (2, 0)),
    "ftpl:pareto:2:m=0.23": ((5425, 5318), (909, 903), (0, 0)),
    "ftpl:gpd:3,1.5:m=0.23": ((5289, 5667), (867, 953), (1, 0)),
    "ftpl:frechet:2:m=0.23": ((5413, 5129), (939, 859), (0, 0)),
    "ftpl:gumbel:m=0.23": ((5347, 5219), (980, 931), (0, 0)),
    "ftpl:trunc(splareto:2):m=0.23": ((5146, 5318), (831, 995), (0, 0)),
    "ftpl:lp:m=0.23:cap=3": ((1200, 1200), (612, 614), (88, 85)),
}


@pytest.mark.parametrize("policy", sorted(META_GOLDEN))
def test_ftpl_meta_counters(tmp_path, policy):
    _digest(tmp_path, policy)
    meta = dict(line.split("=", 1) for line in (tmp_path / "golden.csv.meta").read_text().split())
    counters = tuple(tuple(map(int, meta[f"run_{key}"].split(",")))
                     for key in ("vectors_drawn", "resample_trials", "cap_hits"))
    assert counters == META_GOLDEN[policy]


PHI_GOLDEN = {
    ("splareto:a=2", "0,c"): "e58553ad150bbe6db9b888acfa662a5bcdbaf4d49704d35f8a26094b685bb71d",
    ("splareto:a=2", "0,c,c"): "548a0ab2c1f129c845f30a85d11ce1b338af9552de755432c919c54b7ea4beb7",
    ("splareto:a=2", "0,0.5c,2c"): "3631e0e0f2feef66179da14cd18da2b437fce6efd8855f7b9d81892ab820d427",
    ("lp", "0,c"): "02a4f7105b3007abd861917fd4384d663167cde8aad647f79aa0501977576fce",
    ("lp", "0,c,c"): "41500b21237ea9936936df02b9673f49c1c031f5219ee374d212971291dd0245",
    ("gumbel", "0,c"): "0e9fa720560c16701abdb8b23edcd36bf72d618d576d8fdffb598203fdf7f132",
    ("gumbel", "0,c,c"): "2a9c2c2565f950037654b8deebc86ddd93f13502c54f0748a9875cde9ec33ed8",
    ("asp:2,3", "0,c"): "f7a9d07cc6c41d13aaca3a1e8c63679b238fe0d0c2dea98f157ded796fa7b725",
    ("asp:2,3", "0,c,c"): "044b9b77121ed08d64627f498a483e55b6712c7361902feffa2207652ae8ad5e",
    ("trunc(splareto:2)", "0,c"): "350d32759fdcd991b6809ec1298f5b3bc03e736f52409cf46128b1ee98568fc0",
    ("trunc(splareto:2)", "0,c,c"): "3e58d1992510593b0679e0d81e4628d6d553072e4d9d206c0daa2dcc96457e25",
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


# the two phi_1 inversions, splareto:a=2 (regscan's x are the benchmark's): each
# root with its own error bound, 1e-10 / |phi_1'| at the root rounded up, as the
# kernel integrates phi_1 to 1e-10.  Its last digits follow the kernel's rounding
# and the iterate the solver stops at, not the law.
TWO_ARM_GOLDEN = {0.3: (-0.5955594105028554, 4.0e-10), 0.9: (2.1544447398752045, 1.8e-9)}
REGSCAN_GOLDEN = {0.4: (0.16238701406607625, 2.5e-10), 0.95: (4.743193192847999, 5.8e-9)}


def test_phi_inversion_values():
    dist = parse_dist("splareto:a=2")
    for x, (c, tol) in TWO_ARM_GOLDEN.items():
        assert abs(duality.two_arm_quantile(x, dist) - c) <= tol, x
    rows = duality.three_arm_regularizer_scan(sorted(REGSCAN_GOLDEN), dist)
    for row, x in zip(rows, sorted(REGSCAN_GOLDEN)):
        c, tol = REGSCAN_GOLDEN[x]
        assert abs(row["c"] - c) <= tol, x


# duality ift at its defaults (beta 1/2, x in [-20, 20], n = 2048; gbar
# exact to rounding, no truncation): the pdf linearly interpolated at x and
# the last cdf entry; and the sup |pdf - N(0, 1/sqrt(2))| of the normal
# sanity pipeline.  Values with a tolerance, not hashes, but the 1e-10 does
# not absorb a change of summation order inside char_fn_grid: many default
# gbar entries are rounding residue near 0 (467 of the 1,024 are negative),
# and the square root turns a residue of 1e-16 into 1e-8.  The
# per-frequency recursion oracle on the same nodes gives a Tsallis pdf
# 2.5e-8 away and a normal sup of 3.65e-7, so a BLAS that sums in another
# order can fail these pins without any error in the method.
IFT_PDF_GOLDEN = {
    0.0: 0.6598280815572335,
    1.0: 0.13751803184093508,
    -1.0: 0.13751803184093592,
    5.0: 0.004315389253502606,
    -5.0: 0.0043153892534981845,
}
IFT_CDF_GOLDEN = 0.9959407749936744
NORMAL_SUP_GOLDEN = 3.7006741759881834e-07


def test_ift_pipeline_values():
    res = duality.tsallis_ift_pipeline()
    for x, want in IFT_PDF_GOLDEN.items():
        assert abs(np.interp(x, res.x_grid, res.pdf) - want) <= 1e-10, x
    assert abs(res.cdf[-1] - IFT_CDF_GOLDEN) <= 1e-10
    normal = duality.normal_ift_pipeline()
    sup = np.max(np.abs(normal.pdf - np.exp(-normal.x_grid**2) / np.sqrt(np.pi)))
    assert abs(sup - NORMAL_SUP_GOLDEN) <= 1e-10


# gbar of duality ift's defaults at a few indices of its upper half grid
# (t = 0.0785, 0.236, 0.864, 1.65, 7.93, 15.8).  It agrees across summation
# orders to about 1e-15, so where the pdf pins above fail and these hold,
# the summation order moved, not the method.
GBAR_GOLDEN = {
    0: 0.9752158880637126,
    1: 0.8777998862794162,
    5: 0.4866779571261103,
    10: 0.21526443655925465,
    50: 0.00029309883161483303,
    100: 8.932815679389105e-08,
}


def test_tsallis_gbar_values():
    gbar = duality._tsallis_gbar(0.5, -20.0, 20.0, 2048, duality._tail_start(0.5, -20.0, 20.0))
    for i, want in GBAR_GOLDEN.items():
        assert abs(gbar[i] - want) <= 1e-14, i


# scalar evaluations (Python floats in and out) of glued laws, far tails included
SCALAR_SPECS = ("splareto:a=2", "lp", "asp:2,3", "hybrid:right=trunc(frechet:2),left=gpd:3,1.5")
_G = np.geomspace(1e-6, 1e300, 241)
SCALAR_XS = np.concatenate([-_G[::-1], [0.0], _G])
SCALAR_GOLDEN = "cc789e1d2fa1bf800a8b7acb2a9afeac9a22585b440852ed88ec32441a619c2b"


def _scalar_digest():
    h = hashlib.sha256()
    for spec in SCALAR_SPECS:
        dist = parse_dist(spec)
        for m in ("cdf", "sf", "pdf", "pdf_prime"):
            for x in SCALAR_XS:
                v = getattr(dist, m)(float(x))
                assert type(v) is float, (spec, m, x, type(v))
                h.update(struct.pack("<d", v))
    return h.hexdigest()


def test_scalar_evaluators_exact():
    assert _scalar_digest() == SCALAR_GOLDEN


CHECK_DIST_GOLDEN = {
    "pareto:2": "e61d2a4604175c7c0b3427f4461626e130fedfa2b51f9c122472080dbb11c855",
    "lp": "307ea57eb0b4fb452fdab2b9b2e04bd2097df3ec21a98935bf41b26d0bc74577",
    "asp:2,3": "a582efda985bb65b5e93fb4f6929c917b68d01c725fcda2afa084ad87b542d4c",
    "gumbel": "65d4b47de2bc181718db817d1e263d31f4e343e5488bdf7a1dd2a333d7f04826",
    "frechet:2": "b7a289040a0df83db9dc44133489dc275c645ed55f3c2b05a2a55ac403421899",
    "trunc(frechet:2)": "6b60a450b79aed35018b0ad9b7b984e74dfd84e86c40f78a482c9bd0e5dfbd81",
}


def _check_dist_digest(tmp_path, spec):
    out = tmp_path / "check.csv"
    assert cli.main(["check-dist", "--dist", spec, "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("spec", sorted(CHECK_DIST_GOLDEN))
def test_check_dist_csv_hash(tmp_path, spec):
    assert _check_dist_digest(tmp_path, spec) == CHECK_DIST_GOLDEN[spec]
