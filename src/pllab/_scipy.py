"""scipy's ``quad`` and ``brentq``, imported on their first call.

Importing scipy costs a process about 0.5 s and 45 MB (2-vCPU VM, scipy
1.17), and most pllab commands never call it.  Each function here imports
scipy's function of the same name when it is first called and forwards
every argument, so ``import pllab`` loads no scipy module.  They are functions bound in the
importing module's namespace, not a lazy module attribute, because
``bench/tracing.py`` wraps ``selection.quad``, ``policies.brentq`` and
``duality.brentq`` by looking each name up in that module's dict.
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
