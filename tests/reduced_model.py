"""An independent oracle for the epidemic model: its exact reduction, integrated with RK4.

In ds_z/dt = -(beta k_z Theta + u_m) s_z each susceptible fraction is
linear given Theta, so s_z(t) = s0 exp(-beta k_z phi(t) - U_m(t)) with
phi = int Theta dt and U_m = int u_m dt, m the control block of group z.
What remains of any grouping, the full model included, is 3M + 1 scalar
ODEs for M blocks (Miller, J. Math. Biol. 62, 349, 2011; Miller, Slim &
Volz, J. R. Soc. Interface 9, 890, 2012):

    phi'   = sum_m Theta_m,            U_m' = u_m,
    rho_m' = (gamma + v_m) Theta_m + u_m sum_{z in m} q_z s_z,
    R_m'   = (gamma + v_m) I_m     + u_m sum_{z in m} p_z s_z,

where Theta_m = Q_m - sum_{z in m} q_z s_z - rho_m is block m's share of
the infection pressure, I_m = P_m - sum_{z in m} p_z s_z - R_m its
infected mass, R_m its recovered and vaccinated mass, and P_m, Q_m its
total mass and edge-end weight (every group starts with s + i = 1).
"""

import numpy as np


def reduced_aggregates(p, q, k, block, u, v, params, grid):
    """Aggregate (s, i, r) on ``grid``'s nodes, by classical RK4 on the reduction.

    ``p``, ``q``, ``k`` are per-group masses, edge-end weights and mean
    degrees; ``block[z]`` is the control block of group z; ``u(t)`` and
    ``v(t)`` return the blocks' vaccination and treatment rates at time t.
    """
    m = int(block.max()) + 1
    mass, weight = np.bincount(block, p, m), np.bincount(block, q, m)
    s0, beta, gamma = 1.0 - params.i0, params.beta, params.gamma

    def susceptible_sums(x):
        s = s0 * np.exp(-beta * k * x[0] - x[1:m + 1][block])
        return np.bincount(block, q * s, m), np.bincount(block, p * s, m)

    def f(t, x):
        qs, ps = susceptible_sums(x)
        rho, recovered = x[m + 1:2 * m + 1], x[2 * m + 1:]
        theta, infected = weight - qs - rho, mass - ps - recovered
        um, vm = u(t), v(t)
        return np.concatenate([
            [theta.sum()], um, (gamma + vm) * theta + um * qs, (gamma + vm) * infected + um * ps,
        ])

    dt, x = grid.dt, np.zeros(3 * m + 1)
    s, i, r = np.empty(grid.n_points), np.empty(grid.n_points), np.empty(grid.n_points)
    for n, t in enumerate(grid.t):
        if n:
            t0 = t - dt
            k1 = f(t0, x)
            k2 = f(t0 + dt / 2, x + dt / 2 * k1)
            k3 = f(t0 + dt / 2, x + dt / 2 * k2)
            k4 = f(t, x + dt * k3)
            x = x + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        _, ps = susceptible_sums(x)
        recovered = x[2 * m + 1:]
        s[n], r[n] = ps.sum(), recovered.sum()
        i[n] = (mass - ps - recovered).sum()
    return s, i, r
