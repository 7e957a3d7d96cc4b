"""The quadrature kernel's set-up in numpy: the byte oracle for ``selection._starting_panels``.

``_starting_panels`` builds the distinct gaps, the read arms' columns and
the starting panels in Python floats.  Here the same set-up runs as the
kernel ran it before, on numpy arrays: ``np.unique`` for the distinct gaps,
the columns and the edges, ``np.clip`` for the centers and ``np.diff`` for
each center's distance to its neighbours.  Every value is the same IEEE
operation on the same operands, so the two must agree on every array,
dtype and sign of zero included.
"""

import math

import numpy as np

from pllab.errors import NonIntegrable, ToleranceNotMet
from pllab.selection import _TAIL_CUT


def starting_panels(dist, gap, arms, moment, budget):
    """(gaps, mult, cols, rows, cut, a, b, power, share), as ``selection._starting_panels`` returns them."""
    if min(dist.tail_index_left, dist.tail_index_right) <= moment:
        raise NonIntegrable(f"the integral of z^{moment} f needs tail indices above {moment}")
    gaps, inverse, mult = np.unique(gap, return_inverse=True, return_counts=True)
    cols, rows = np.unique(inverse[list(range(len(gap)) if arms is None else arms)], return_inverse=True)
    cut = max(_TAIL_CUT, 10.0 * float(gaps[-1]))
    centers = np.unique(np.clip([k - s for k in (0.0, *dist.kinks, *dist.support) if math.isfinite(k)
                                 for s in gaps], -cut, cut))
    below, above = np.diff(centers, prepend=-cut)[:, None], np.diff(centers, append=cut)[:, None]
    steps = 2.0 ** np.arange(math.ceil(math.log2(cut)) + 1)
    edges = np.unique(np.concatenate([[-cut, cut], centers, (centers[:, None] - steps)[steps < below],
                                      (centers[:, None] + steps)[steps < above]]))
    p_left, p_right = (max(1.0, 2.0 / (index - moment))
                       for index in (dist.tail_index_left, dist.tail_index_right))
    if max(p_left, p_right) > 18.0:
        raise ToleranceNotMet(math.inf, budget)
    a = np.concatenate([edges[:-1], [0.0, 0.0]])
    b = np.concatenate([edges[1:], [1.0, 1.0]])
    power = np.concatenate([np.zeros(len(edges) - 1), [-p_left, p_right]])
    share = np.full(len(a), budget / len(a))
    return gaps, mult, cols, rows, cut, a, b, power, share
