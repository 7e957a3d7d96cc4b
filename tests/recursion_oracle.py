"""Per-frequency recursion oracle for ``duality.char_fn_grid``.

This is the summation ``char_fn_grid`` ran before its blocked matrix
product: over the same Gauss-Legendre nodes, the phase factors
z = exp(i t_k c) advance by the constant multiplier exp(i dt c), one
frequency at a time.  It makes m passes over every node, so only tests
call it.  Over the half range of ``_char_fn_nodes`` the complex sum also
carries a sine part, so its real part is returned.
"""

import numpy as np

from pllab import duality


def char_fn_grid(quantile, x_min, x_max, n, eps):
    ts, c_nodes, wts = duality._char_fn_nodes(quantile, x_min, x_max, n, eps)
    dt = ts[1] - ts[0] if len(ts) > 1 else 0.0

    # exp(i t_k c) = exp(i t_0 c) * step^k
    out = np.empty(len(ts), dtype=complex)
    z = np.exp(1j * ts[0] * c_nodes)
    step = np.exp(1j * dt * c_nodes)
    for k in range(len(ts)):
        out[k] = z @ wts
        z *= step
    return out.real
