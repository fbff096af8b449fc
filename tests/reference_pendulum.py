"""Stacked-matrix reference forms of the double pendulum.

The library computes the pendulum dynamics in closed form on the scalar
groupings of ``DoublePendulumParams.terms``. This module keeps the stacked
rigid-body forms those closed forms must reproduce bit for bit: the inertia
matrix and velocity torque as stacked arrays, the data policy that builds its
torque from them, a per-sample operating-box check and the offline rollout
that uses both. It also keeps the closed-form kernel as it was before it wrote
its partials into the caller's array (``_accelerations`` and
``_window_accelerations``), which the library's kernel must equal bit for bit.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ddnpc import plant
from ddnpc.plant import DoublePendulumParams, gravity_vector


def inertia_matrix(p: DoublePendulumParams, q2) -> np.ndarray:
    """Joint-space inertia matrix; depends only on the second joint angle.

    Vectorized over ``q2``: scalar input gives ``(2, 2)``, an array of shape
    ``(...,)`` gives ``(..., 2, 2)``.
    """
    q2 = np.asarray(q2, dtype=float)
    c2 = np.cos(q2)
    M11 = p.m1 * p.lc1**2 + p.I1 + p.m2 * (p.l1**2 + p.lc2**2 + 2 * p.l1 * p.lc2 * c2) + p.I2
    M12 = p.m2 * p.l1 * p.lc2 * c2 + p.m2 * p.lc2**2 + p.I2
    M22 = np.broadcast_to(p.m2 * p.lc2**2 + p.I2, q2.shape)
    return np.stack([np.stack([M11, M12], axis=-1), np.stack([M12, M22], axis=-1)], axis=-2)


def coriolis_times_velocity(p: DoublePendulumParams, q2, qd1, qd2) -> np.ndarray:
    """Product ``C(q, qd) qd`` of the velocity-dependent terms, vectorized."""
    q2, qd1, qd2 = np.broadcast_arrays(
        np.asarray(q2, dtype=float), np.asarray(qd1, dtype=float), np.asarray(qd2, dtype=float)
    )
    h = p.m2 * p.l1 * p.lc2 * np.sin(q2)
    c1 = -h * qd2 * (2.0 * qd1 + qd2)
    c2 = h * qd1**2
    return np.stack([c1, c2], axis=-1)


def pendulum_state_to_window(p: DoublePendulumParams, x: np.ndarray) -> np.ndarray:
    """Window state implied by a physical state: ``(q1, q1 + Ts qd1, q2, q2 + Ts qd2)``."""
    x = np.asarray(x, dtype=float).reshape(-1)
    return np.array([x[0], x[0] + p.Ts * x[1], x[2], x[2] + p.Ts * x[3]])


def random_points(box, count: int, seed: int = 0):
    """``count`` uniform random points of ``box`` as ``(U, XI)``."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(box.lower, box.upper, size=(count, box.lower.size))
    return pts[:, : box.m], pts[:, box.m :]


def box_contains(box, u, xi) -> bool:
    """Whether the single point ``(u, xi)`` lies in the closed box."""
    u = np.asarray(u, dtype=float).reshape(-1)
    xi = np.asarray(xi, dtype=float).reshape(-1)
    ok_u = np.all(u >= box.u_lower) and np.all(u <= box.u_upper)
    ok_x = np.all(xi >= box.xi_lower) and np.all(xi <= box.xi_upper)
    return bool(ok_u and ok_x)


class StackedPdPolicy(plant.PendulumPdPolicy):
    """The pendulum data policy with its torque built from the stacked inertia
    matrix and torque vectors; same fields, seed and draws."""

    def __call__(self, k: int, x: np.ndarray) -> np.ndarray:
        q = x[[0, 2]]
        qd = x[[1, 3]]
        if self._ref is None or k % self.redraw_every == 0:
            base = q if self._ref is None else self._ref
            self._ref = np.clip(
                base + self._rng.uniform(-self.ref_step, self.ref_step, size=2),
                self.ref_low,
                self.ref_high,
            )
        accel = self.kp * (self._ref - q) - self.kd * qd
        M = inertia_matrix(self.params, q[1])
        comp = coriolis_times_velocity(self.params, q[1], qd[0], qd[1]) + gravity_vector(
            self.params, q[0], q[1]
        )
        tau = M @ accel + comp
        if np.any(tau > self.u_high) or np.any(tau < self.u_low):
            Ma = M @ accel
            scale = 1.0
            for i in range(2):
                if Ma[i] > 0:
                    scale = min(scale, (self.u_high[i] - comp[i]) / Ma[i])
                elif Ma[i] < 0:
                    scale = min(scale, (self.u_low[i] - comp[i]) / Ma[i])
            tau = max(scale, 0.0) * Ma + comp
        amp = np.broadcast_to(np.asarray(self.dither, dtype=float), (2,)).copy()
        edge = np.max(np.abs(np.concatenate([q, q + self.params.Ts * qd])))
        amp = amp * np.clip((self.dither_edge - edge) / 0.5, 0.1, 1.0)
        tau = tau + self._rng.uniform(-amp, amp)
        return np.clip(tau, self.u_low, self.u_high)


def stacked_policy(policy: plant.PendulumPdPolicy) -> StackedPdPolicy:
    """A fresh ``StackedPdPolicy`` with the fields of ``policy``."""
    return StackedPdPolicy(**{f.name: getattr(policy, f.name) for f in dataclasses.fields(policy)})


def first_violation(box, traj) -> int | None:
    """First step ``k < N`` whose ``(u_k, xi_k)`` leaves ``box``, checked one
    sample at a time; None when every sample stays inside."""
    for k in range(traj.N):
        if not box_contains(box, traj.u[k], traj.xi.data[k]):
            return k
    return None


def stacked_collect(exp, seed: int, w_star: float = 0.01, N: int = 200) -> plant.Trajectory:
    """``exp.collect`` under the stacked-matrix policy, with the box verdict
    taken one sample at a time."""
    policy = stacked_policy(exp.policy(seed))
    noise = plant.NoiseModel(w_star=w_star, seed=10_000 + seed)
    traj = plant.collect_offline_data(exp.plant_model, policy, N, exp.structure, noise)
    k = first_violation(exp.box, traj)
    return dataclasses.replace(traj, stayed_in_box=k is None, first_violation=k)


def _accelerations(p: DoublePendulumParams, tau1, tau2, q1, qd1, q2, qd2, partials=False):
    """Joint accelerations ``M(q)^-1 (tau - C(q, qd) qd - G(q))`` in closed form.

    Elementwise over scalars or arrays of one shape. The terms are those of
    ``PendulumTerms``, each rounded as in the stacked inertia matrix and
    torque vectors, so the accelerations equal the stacked-matrix form bit
    for bit. Returns ``(a1, a2, det)``, ``det`` the
    determinant of ``M``. With ``partials``, for scalars or columns of length
    ``P``, also ``D`` of shape ``(2, 6)`` or ``(P, 2, 6)``: ``D[..., i, j]``
    is the partial of ``a_i`` w.r.t. argument ``j`` of
    ``(tau1, tau2, q1, qd1, q2, qd2)``.
    """
    t = p.terms
    h, M22 = t.h, t.M22
    c2 = np.cos(q2)
    M11 = t.M11_base + p.m2 * (t.M11_sq + t.M11_cos * c2) + p.I2
    M12 = h * c2 + t.M12_base + p.I2
    det = M11 * M22 - M12 * M12
    hs = h * np.sin(q2)
    q12 = q1 + q2
    cq1, cq12 = np.cos(q1), np.cos(q12)
    # r = tau - C qd - G
    r1 = (
        tau1 + hs * qd2 * (2.0 * qd1 + qd2)
        - (t.g1 * cq1 + t.m2g * (p.lc2 * cq12 + p.l1 * cq1))
    )
    # qd1 * qd1, not qd1**2: on a numpy scalar ** calls pow(), which can
    # differ from the product in the last bit
    r2 = tau2 - hs * (qd1 * qd1) - t.g2 * cq12
    a1 = (M22 * r1 - M12 * r2) / det
    a2 = (M11 * r2 - M12 * r1) / det
    if not partials:
        return a1, a2, det
    # E[j, i]: partial of r_i w.r.t. argument j, with the inertia's
    # dependence on q2, -(dM/dq2) a = hs * (2 a1 + a2, a1), added to dr/dq2;
    # then D = M^-1 E, transposed.
    sq1, sq12 = np.sin(q1), np.sin(q12)
    gs12 = t.g2 * sq12
    E = np.zeros((6, 2) + np.shape(a1))
    E[0, 0] = E[1, 1] = 1.0
    E[2, 0] = t.g1 * sq1 + t.m2g * (p.lc2 * sq12 + p.l1 * sq1)
    E[2, 1] = gs12
    E[3, 0] = 2.0 * hs * qd2
    E[3, 1] = -2.0 * hs * qd1
    E[4, 0] = h * c2 * qd2 * (2.0 * qd1 + qd2) + gs12 + hs * (2.0 * a1 + a2)
    E[4, 1] = gs12 - h * c2 * (qd1 * qd1) + hs * a1
    E[5, 0] = 2.0 * hs * (qd1 + qd2)
    D = np.empty_like(E)
    D[:, 0] = (M22 * E[:, 0] - M12 * E[:, 1]) / det
    D[:, 1] = (M11 * E[:, 1] - M12 * E[:, 0]) / det
    return a1, a2, det, D.T


def _window_accelerations(p: DoublePendulumParams, u, xi, partials=False):
    """``_accelerations`` at ``(u, xi)``, ``xi`` the window state
    ``(q1_k, q1_{k+1}, q2_k, q2_{k+1})`` with velocities recovered by divided
    differences; the partials are w.r.t. ``(u, xi)``."""
    x1, x2, x3, x4 = xi[..., 0], xi[..., 1], xi[..., 2], xi[..., 3]
    out = _accelerations(
        p, u[..., 0], u[..., 1], x1, (x2 - x1) / p.Ts, x3, (x4 - x3) / p.Ts, partials
    )
    if partials:
        D = out[3]
        D[..., 3::2] /= p.Ts  # d/dx2, d/dx4
        D[..., 2::2] -= D[..., 3::2]  # d/dx1, d/dx3
    return out
