"""Helpers shared by the adjoint-gradient checks: central differences, and
the coordinates at which they can check the dose functional."""

import numpy as np

from epinetopt import ControlSchedule, evaluate_cost, simulate_grouped


def _schedule(problem, x):
    """The schedule a flat decision vector (vaccination rates, then treatment) holds."""
    m, n = problem.cg.n_control, problem.grid.n_points
    return ControlSchedule(x[: m * n].reshape(m, n), x[m * n :].reshape(m, n), problem.grid)


def _simulate(problem, sched):
    return simulate_grouped(problem.gd, problem.cg, sched, problem.params, problem.grid)


def finite_difference_gradient(problem, x, indices, relative_step=1e-6):
    """Central-difference derivatives of J at ``indices`` of the decision vector.

    The step is ``relative_step * max(|x_i|, 1)``; both side points must
    stay nonnegative. J is priced by the public simulate + cost path.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty(len(indices))
    for row, idx in enumerate(indices):
        h = relative_step * max(abs(x[idx]), 1.0)
        j = []
        for sign in (+1, -1):
            xs = x.copy()
            xs[idx] += sign * h
            sched = _schedule(problem, xs)
            j.append(evaluate_cost(_simulate(problem, sched), sched, problem.cg, problem.cost).J)
        out[row] = (j[0] - j[1]) / (2 * h)
    return out


def dosed_coordinates(problem, x, floor=0.05):
    """Decision-vector indices whose control group still has >= floor of its mass to dose.

    Under the dose functional a rate acting on a block with (almost) no
    one left to dose has a derivative below the ~1e-9 noise floor of
    central differences, so only these coordinates can be checked.
    """
    traj = _simulate(problem, _schedule(problem, x))
    p = problem.gd.p_hat[:, None]
    dosed = [np.add.reduceat(p * state, problem.cg.starts) / problem.cg.x[:, None]
             for state in (traj.s_hat, traj.i_hat)]
    return np.flatnonzero(np.concatenate([d.ravel() for d in dosed]) >= floor)
