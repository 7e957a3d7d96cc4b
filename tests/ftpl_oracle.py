"""The unfused FTPL round: the byte oracle for ``FtplPolicy.step``.

``FtplPolicy.step`` reads the selection vector and the first resampling
block off the perturbation tape as one slice and takes one argmin over it.
Here the round runs as two separate reads: ``ftpl_select`` reads one vector
and plays its argmin, then ``geometric_resample`` reads blocks of 16, 64,
256, ... vectors until the played arm wins again.  The tape order is the
same, so the two must agree on every arm, every bit of ``lhat`` and every
counter.
"""

from pllab.policies import PolicyState, _perturbations, ftpl_update


def ftpl_select(state: PolicyState, dist) -> int:
    """Play argmin_i lhat_i - r_i / eta_t with fresh perturbations r ~ dist^K."""
    r = _perturbations(state, dist, 1)[0]
    return int((state.lhat - r / state.eta).argmin())


def geometric_resample(state: PolicyState, dist, chosen: int) -> int:
    """Redraw perturbation vectors until ``chosen`` wins again; return the count.

    The count includes the successful trial and is capped at M = state.cap();
    a call in which none of the M trials wins counts as a cap hit.
    """
    cap = state.cap()
    lhat, eta = state.lhat, state.eta
    drawn = 0
    block = 16
    while drawn < cap:
        b = min(block, cap - drawn)
        r = _perturbations(state, dist, b)
        wins = (lhat - r / eta).argmin(axis=1) == chosen
        if wins.any():
            trials = drawn + int(wins.argmax()) + 1
            break
        drawn += b
        block = min(block * 4, 4096)
    else:
        trials = cap
        state.cap_hits += 1
    state.resample_trials += trials
    return trials


def explicit_round(state: PolicyState, dist, loss_row) -> int:
    """One FTPL round as select, resample, update; return the arm."""
    arm = ftpl_select(state, dist)
    west = geometric_resample(state, dist, arm)
    ftpl_update(state, arm, float(loss_row[arm]), west)
    return arm
