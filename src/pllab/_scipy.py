"""scipy's ``quad`` and ``brentq``, imported on their first call.

No pllab path calls either, and scipy is not a runtime dependency: it is
installed with the ``test`` extra.  The names stay because
``bench/tracing.py`` wraps ``selection.quad``, ``policies.brentq`` and
``duality.brentq`` by looking each one up in its module's dict, so they are
functions bound in the importing module's namespace.  Each imports scipy's
function of the same name when it is first called and forwards every
argument, so ``import pllab`` loads no scipy module.
"""

from __future__ import annotations

__all__ = ["quad", "brentq"]


def quad(*args, **kwargs):
    """``scipy.integrate.quad``."""
    from scipy import integrate

    return integrate.quad(*args, **kwargs)


def brentq(*args, **kwargs):
    """``scipy.optimize.brentq``."""
    from scipy import optimize

    return optimize.brentq(*args, **kwargs)
