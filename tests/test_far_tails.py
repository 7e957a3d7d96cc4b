"""Far-tail robustness of every law the spec language can build.

Each evaluator must stay finite out to |x| = 1e300 and return a Python
float for a float argument, and the separately computed CDF and survival
function must still add up to 1.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pllab.distributions import parse_dist

_G = np.geomspace(1e-6, 1e300, 241)
XS = np.concatenate([-_G[::-1], [0.0], _G])

shape = st.floats(0.5, 8.0).map(lambda v: round(v, 3))
scale = st.floats(0.25, 4.0).map(lambda v: round(v, 3))

two_sided = st.one_of(
    st.sampled_from(["lp", "gumbel", "splareto", "laplace"]),
    shape.map(lambda a: f"splareto:a={a}"),
    shape.map(lambda a: f"splareto:{a}"),
    st.tuples(shape, shape).map(lambda p: f"asp:{p[0]},{p[1]}"),
    scale.map(lambda r: f"laplace:{r}"),
)
primitive = st.one_of(
    shape.map(lambda a: f"pareto:{a}"),
    shape.map(lambda a: f"gpd:{a}"),
    st.tuples(shape, scale).map(lambda p: f"gpd:{p[0]},{p[1]}"),
    shape.map(lambda a: f"frechet:{a}"),
)
one_sided = st.one_of(primitive, st.one_of(primitive, two_sided).map(lambda s: f"trunc({s})"))
hybrid = st.tuples(one_sided, one_sided).map(lambda p: f"hybrid:right={p[0]},left={p[1]}")
any_law = st.one_of(two_sided, one_sided, hybrid, hybrid.map(lambda s: f"trunc({s})"))


@settings(max_examples=80, deadline=None)
@given(any_law)
def test_evaluators_finite_and_cdf_plus_sf_is_one(spec):
    dist = parse_dist(spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = {m: np.asarray(getattr(dist, m)(XS)) for m in ("cdf", "sf", "pdf", "pdf_prime")}
        for m, v in values.items():
            assert np.all(np.isfinite(v)), (spec, m, XS[~np.isfinite(v)])
            for x in XS[::12]:
                s = getattr(dist, m)(float(x))
                assert type(s) is float and np.isfinite(s), (spec, m, x, s)
    assert np.max(np.abs(values["cdf"] + values["sf"] - 1.0)) <= 4e-16, spec
