"""The warm-started Newton Tsallis solver against the bracketed brentq oracle.

For K = 1, 2, 3, 8 and 50 arms, loss vectors with ties spread over up to
1e6, and tsallis_beta across (0.05, 0.95), ``tsallis_weights`` must return
the oracle's weights to 1e-13 from every kind of warm start: none, +inf,
far left of the root and one ulp either side of it.  Where the oracle's
bracket fails, the closest arm's weight must be 1 to the same tolerance.
"""

import numpy as np
import pytest
from brentq_oracle import tsallis_weights as oracle_weights
from hypothesis import given, settings
from hypothesis import strategies as st

from pllab.errors import SolverDiverged
from pllab.policies import NEWTON_MAX_EVALS, _tsallis_root, kkt_residual, tsallis_weights


@st.composite
def loss_vectors(draw):
    """K entries from at most four levels, shifted to min 0 and scaled to a spread up to 1e6.

    c lies within O(1) of min q, so its resolution is that of min q; at min q
    = 1e6 both solvers miss the 1e-10 residual check by rounding alone.
    """
    k = draw(st.sampled_from([1, 2, 3, 8, 50]))
    spread = draw(st.sampled_from([0.0, 1e-3, 1.0, 30.0, 1e3, 1e6]))
    levels = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4, unique=True))
    q = np.array(draw(st.lists(st.sampled_from(levels), min_size=k, max_size=k)))
    return spread * (q - q.min())


def _starts(c):
    return [None, np.inf, c - 1e3, -1e300, np.nextafter(c, -np.inf), np.nextafter(c, np.inf), np.nan]


@settings(max_examples=150, deadline=None)
@given(loss_vectors(), st.floats(0.05, 0.95))
def test_newton_agrees_with_brentq(q, beta):
    try:
        p_oracle, c_oracle = oracle_weights(q, beta)
    except ValueError:
        # brentq finds no sign change when defect(hi) rounds below 0, that is when
        # the closest arm holds the whole mass to rounding (K = 1, for instance)
        p_oracle, c_oracle = np.eye(len(q))[q.argmin()], tsallis_weights(q, beta)[1]
    for start in _starts(c_oracle):
        p, c, evals = _tsallis_root(q, beta, start)
        assert np.max(np.abs(p - p_oracle)) <= 1e-13, start
        assert abs(p.sum() - 1.0) <= 1e-10
        assert kkt_residual(q, p, beta) <= 1e-8
        assert evals < NEWTON_MAX_EVALS
        assert tsallis_weights(q, beta, start)[0].tolist() == p.tolist()


@pytest.mark.parametrize("start", [None, 0.0, -np.inf])
def test_spread_below_float_resolution_raises(start):
    # q = eta * lhat at m = 1e300: min q - beta/(1-beta) rounds to min q itself
    q = 1e300 * np.array([0.1, 0.3, 0.5])
    with pytest.raises(SolverDiverged):
        tsallis_weights(q, 0.5, start)
