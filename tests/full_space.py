"""The receding-horizon problem in full space: the reference the reduced forms
are checked against.

The decision is the builder's packed vector (combination vector, input
window, output windows and, in robust mode, the feature slack), with the
feature equality as a nonlinear equality. Nominal mode adds the state
equality ``H_xi alpha = xi``; relaxed robust mode penalizes the derived state
slack ``H_xi alpha - xi`` with the feature slack, boxes the feature slack and
bounds the state slack by ``c_slack * slack_level`` (as an equality when that
bound is zero). The cost is one least-squares residual: stage rows, then in
robust mode the ridge, feature slack and state slack rows.
"""

import math

import numpy as np

from ddnpc import solver


def _sigma_xi_jacobian(builder):
    """Constant jacobian of the derived state slack ``H_xi alpha - xi``."""
    nrow = builder.H_xi.shape[0]
    J = np.zeros((nrow, builder.dim))
    J[:, : builder.M] = builder.H_xi
    J[np.arange(nrow), builder.XI_COLS] -= 1.0
    return J


def ls_form(builder):
    """``(J, b)`` with the cost ``||J z - b||^2``."""
    spec = builder.spec
    m, dim = builder.m, builder.dim
    L_R = np.linalg.cholesky(spec.R).T
    L_Q = np.linalg.cholesky(spec.Q).T
    rows, rhs = [], []
    for k in range(builder.L):
        Ju = np.zeros((m, dim))
        Ju[:, builder.U_STAGE[k * m : (k + 1) * m]] = L_R
        rows.append(Ju)
        rhs.append(L_R @ spec.u_setpoint)
        Jy = np.zeros((m, dim))
        Jy[:, builder.Y_STAGE[k]] = L_Q
        rows.append(Jy)
        rhs.append(L_Q @ spec.y_setpoint)
    if builder.has_sigma:
        ra = math.sqrt(spec.lambda_alpha * spec.slack_level)
        Ja = np.zeros((builder.M, dim))
        Ja[:, : builder.M] = ra * np.eye(builder.M)
        rows.append(Ja)
        rhs.append(ra * builder.alpha_s)
        rs = math.sqrt(spec.lambda_sigma)
        Js = np.zeros((builder.n_sigma, dim))
        Js[:, builder.off_s : builder.off_s + builder.n_sigma] = rs * np.eye(builder.n_sigma)
        rows.append(Js)
        rhs.append(np.zeros(builder.n_sigma))
        rows.append(rs * _sigma_xi_jacobian(builder))
        rhs.append(np.zeros(builder.H_xi.shape[0]))
    return np.vstack(rows), np.concatenate(rhs)


def problem(builder, history_u, history_y, z0=None):
    """The full-space problem for one measured history, nominal or relaxed
    robust mode; ``z0`` is a packed guess, the builder's cold start when
    None."""
    spec = builder.spec
    if spec.mode == "robust" and spec.slack_mode != "relaxed":
        raise ValueError("the full-space reference covers nominal and relaxed robust mode")
    history_u = np.asarray(history_u, dtype=float).reshape(builder.d_max, builder.m)
    history_y = np.asarray(history_y, dtype=float).reshape(builder.d_max, builder.m)
    lo, hi = builder._bounds(history_u, history_y)
    if z0 is None:
        z0 = builder.initial_guess(history_u, history_y)
    J, b = ls_form(builder)
    A = _sigma_xi_jacobian(builder)
    bound = spec.c_slack * spec.slack_level if builder.has_sigma else 0.0
    if builder.has_sigma:
        lo[builder.off_s : builder.off_s + builder.n_sigma] = -bound
        hi[builder.off_s : builder.off_s + builder.n_sigma] = bound

    def features(z, need_jac):
        u = builder.u_of(z)
        xi = builder.xi_flat(z)[: builder.Lp * builder.n].reshape(builder.Lp, builder.n)
        dic = spec.blocks.dictionary
        return dic.value_batch(u, xi), dic.jacobian_batch(u, xi) if need_jac else None

    def feature_residual(z):
        psi, _ = features(z, False)
        c = psi.reshape(-1) - builder.H_psi @ z[: builder.M]
        if builder.has_sigma:
            c = c + builder.sigma_of(z)
        return c

    def feature_jacobian(z):
        _, jpsi = features(z, True)
        m, n, r = builder.m, builder.n, builder.r
        Jc = np.zeros((r * builder.Lp, builder.dim))
        Jc[:, : builder.M] = -builder.H_psi
        for k in range(builder.Lp):
            rows = slice(k * r, (k + 1) * r)
            Jc[rows, builder.off_u + k * m : builder.off_u + (k + 1) * m] = jpsi[k, :, :m]
            Jc[rows, builder.XI_COLS[k * n : (k + 1) * n]] = jpsi[k, :, m:]
        if builder.has_sigma:
            Jc[:, builder.off_s : builder.off_s + builder.n_sigma] = np.eye(builder.n_sigma)
        return Jc

    eq_residual, eq_jacobian = feature_residual, feature_jacobian
    ineq = {}
    if bound == 0.0:
        def eq_residual(z):
            return np.concatenate([feature_residual(z), A @ z])

        def eq_jacobian(z):
            return np.vstack([feature_jacobian(z), A])
    else:
        ineq = dict(
            ineq_residual=lambda z: np.concatenate([A @ z - bound, -A @ z - bound]),
            ineq_jacobian=lambda z: np.vstack([A, -A]),
        )
    return solver.NlpProblem(
        dim=builder.dim,
        x0=np.clip(z0, lo, hi),
        lower=lo,
        upper=hi,
        ls_residual=lambda z: J @ z - b,
        ls_jacobian=lambda z: J,
        eq_residual=eq_residual,
        eq_jacobian=eq_jacobian,
        **ineq,
    )


def constraint_violation(problem, z) -> float:
    """Sup-norm violation of every constraint group at a candidate point."""
    z = np.asarray(z, dtype=float)
    v = float(np.max(np.maximum(problem.lower - z, z - problem.upper)))
    if problem.eq_residual is not None:
        v = max(v, float(np.max(np.abs(problem.eq_residual(z)))))
    if problem.ineq_residual is not None:
        v = max(v, float(np.max(np.maximum(0.0, problem.ineq_residual(z)))))
    return v
