"""The vectorized Gauss-Kronrod kernel against the scalar QUADPACK oracle.

For every kind of law ``parse_dist`` builds - both density-jump laws and
tails of index 0.5 and 1.5 included - and loss vectors of K = 2, 3 and 10
arms with tied gaps, phi, phi' and (where the mean is finite) the potential
must agree with the oracle to the requested tolerance and to the sum of the
two error estimates, so that the kernel's estimate is an honest bound.  The
two take phi' by different routes: the kernel by parts from f alone, the
oracle from f' and a point mass at each density jump.

The oracle runs at ``ORACLE_TOL`` whatever the kernel's tolerance: at 1e-8
and 1e-10 QUADPACK's own estimate understates its error on some of these
laws (phi of ``pareto:0.5`` at K = 10, gaps (0, 9.08), was 1.5e-9 off under
an 8e-12 estimate, and phi' of ``gpd:3,1.5`` 4.3e-11 off under 8.3e-12;
at 1e-12 both agree with a 1e-13 run).
"""

import numpy as np
import pytest
import quadpack_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from pllab import duality, selection
from pllab.distributions import parse_dist

LAWS = (
    "pareto:2",
    "gpd:3,1.5",
    "frechet:2",
    "trunc(splareto:2)",  # density jump +1 at 0
    "hybrid:right=frechet:2,left=pareto:3",  # density jump -1.5 at 0
    "splareto:a=2",
    "lp",
    "asp:2,3",
    "laplace:2",
    "gumbel",
    "frechet:0.5",  # under z = cut/u, phi's tail integrand would grow like u^-0.5
    "frechet:1.5",  # and the potential's like u^-0.5
    "splareto:a=1.5",
    "hybrid:right=frechet:3,left=pareto:1.5",
)


ORACLE_TOL = 1e-12


@st.composite
def loss_vectors(draw):
    """K entries drawn from at most three levels, so that K = 3 and 10 always tie."""
    k = draw(st.sampled_from([2, 3, 10]))
    levels = draw(st.lists(st.floats(0.0, 40.0), min_size=1, max_size=3, unique=True))
    return np.array(draw(st.lists(st.sampled_from(levels), min_size=k, max_size=k)))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(LAWS), loss_vectors(), st.sampled_from([1e-8, 1e-10]))
def test_kernel_agrees_with_quadpack(spec, lam, tol):
    dist = parse_dist(spec)
    probe = selection.phi_quadrature(lam, dist, tol)
    phi, phi_prime, err = quadpack_oracle.phi_quadrature(lam, dist, ORACLE_TOL)
    bound = min(tol, probe.quad_error + err)
    assert np.max(np.abs(probe.phi - phi)) <= bound
    assert np.max(np.abs(probe.phi_prime - phi_prime)) <= bound

    if min(dist.tail_index_left, dist.tail_index_right) <= 1.0:
        return  # no finite mean, no potential
    nu = -lam
    value, err = quadpack_oracle.potential(nu, dist, ORACLE_TOL)
    # the kernel's summed estimate at the budget ``duality.potential`` uses
    (result,) = selection._component_integrals(dist, [nu.max() - nu], tol / (2.0 * len(nu)), moment=1)
    kernel_errs = result[1]
    assert abs(duality.potential(nu, dist, tol) - value) <= min(tol, kernel_errs.sum() + err)


@pytest.mark.parametrize("tol", [1e-8, 1e-10])
def test_kernel_keeps_its_estimate_where_quadpack_does_not(tol):
    # QUADPACK is no reference for a one-sided tail of index 0.5: its phi of
    # (24.5 x 6, 0 x 4) sums to 1 + 6.8e-11 under a 5.7e-13 estimate at any
    # tolerance down to 1e-14, so the kernel is held to the sum and to itself
    dist = parse_dist("pareto:0.5")
    for lam in ([24.5] * 6 + [0.0] * 4, [29.2] * 3 + [20.1] * 7, [0.0, 1.0, 3.0], [0.0, 40.0]):
        probe = selection.phi_quadrature(lam, dist, tol)
        fine = selection.phi_quadrature(lam, dist, 1e-13)
        assert abs(probe.phi.sum() - 1.0) <= len(lam) * probe.quad_error + 1e-15
        bound = probe.quad_error + fine.quad_error
        assert np.max(np.abs(probe.phi - fine.phi)) <= bound
        assert np.max(np.abs(probe.phi_prime - fine.phi_prime)) <= bound
