"""Per-frequency recursion oracle for ``duality.char_fn_grid``.

This is the summation ``char_fn_grid`` ran before its blocked matrix
product: over the nodes c and weights w it is given, the phase factors
z = exp(i t_k c) advance by the constant multiplier exp(i dt c), one
frequency at a time.  It makes m passes over every node, so only tests
call it.  Over half a quantile's range the complex sum also carries a sine
part, so its real part is returned.
"""

import numpy as np

from pllab import duality


def char_fn_grid(x_min, x_max, n, c_nodes, wts):
    ts = duality.ift_frequencies(x_min, x_max, n)[n // 2:]
    dt = ts[1] - ts[0] if len(ts) > 1 else 0.0

    # exp(i t_k c) = exp(i t_0 c) * step^k
    out = np.empty(len(ts), dtype=complex)
    z = np.exp(1j * ts[0] * c_nodes)
    step = np.exp(1j * dt * c_nodes)
    for k in range(len(ts)):
        out[k] = z @ wts
        z *= step
    return out.real
