"""The data-driven window fit as it was before its factors were split by
query kind: every query builds its own ``K`` and factors the whole cost
matrix ``C`` with a dense QR. The library's ``behavior._fit_window`` builds
``K`` and the QR of ``C`` but its last column once per query kind and
appends the query's column; its results are checked against these. Both
start from the minimum-norm combination vector of the initial window state.

``fixed_point_start`` keeps the start the library took before, on which
``solver.reduced_lsq`` crawls (ROADMAP item 2); ``simulate`` takes it on
request.
"""

import math

import numpy as np
from scipy.linalg import null_space

from ddnpc import solver
from ddnpc.behavior import (
    ConvergenceError,
    InfeasibleInitialConditionError,
    WindowFeatures,
    geometric_sum,
)
from ddnpc.plant import window_states


def fixed_point_start(blocks, A, V, s, xi0, u_idx, xi_idx, fixed):
    """Free samples of the fixed-point start: four steps of the unregularized
    linear fit ``A a = [psi; s]`` with the features ``psi`` frozen at the
    previous trajectory and taken as values alone (``value_batch``), each
    projected back onto the initial window state."""
    H0 = blocks.xi_block_row(0)
    A_pinv, H0_pinv = np.linalg.pinv(A), np.linalg.pinv(H0)
    alpha = H0_pinv @ xi0
    for _ in range(4):
        c = np.concatenate([V @ alpha, fixed])
        psi = blocks.dictionary.value_batch(c[u_idx], c[xi_idx])
        alpha = A_pinv @ np.append(psi.reshape(-1), s)
        alpha -= H0_pinv @ (H0 @ alpha - xi0)
    return V @ alpha


def _fit_window(blocks, xi0, V, S, s, u_idx, xi_idx, fixed, gain, what,
                lambda_alpha, eps_star, k_xi, maxiter, fixed_point=False):
    n_psi, n_v = blocks.H_psi.shape[0], V.shape[0]
    H0 = blocks.xi_block_row(0)
    A = np.vstack([blocks.H_psi, S])
    E = np.vstack([V, H0])
    # T @ h is the target of A @ a, E_h @ h the right-hand side of E @ a.
    T = np.zeros((A.shape[0], n_psi + n_v + 1))
    T[:n_psi, :n_psi] = np.eye(n_psi)
    T[n_psi:, -1] = s
    E_h = np.zeros((E.shape[0], n_psi + n_v + 1))
    E_h[:n_v, n_psi:-1] = np.eye(n_v)
    E_h[n_v:, -1] = xi0

    reg = lambda_alpha * eps_star
    N = null_space(E)
    E_pinv = np.linalg.pinv(E)
    G = np.linalg.pinv(np.vstack([A @ N, math.sqrt(reg) * np.eye(N.shape[1])]))
    K = E_pinv @ E_h + N @ (G[:, : A.shape[0]] @ (T - A @ E_pinv @ E_h))
    R = np.linalg.qr(np.vstack([A @ K - T, math.sqrt(reg) * K]), mode="r")
    core = WindowFeatures(
        blocks.dictionary, u_idx, xi_idx, np.append(np.arange(n_v), n_v + fixed.size), n_v, R
    )
    core.set_fixed(np.append(fixed, 1.0))

    def alpha_of(h):
        alpha, e = K @ h, E_h @ h
        gap = float(np.linalg.norm(E @ alpha - e))
        if gap > 1e-9 * max(1.0, float(np.linalg.norm(e))):
            raise InfeasibleInitialConditionError(
                f"query window unreachable from data (residual {gap:.3e})"
            )
        return alpha

    if fixed_point:
        v0 = fixed_point_start(blocks, A, V, s, xi0, u_idx, xi_idx, fixed)
    else:
        v0 = V @ (np.linalg.pinv(H0) @ xi0)
    alpha_of(core.stacked(v0))

    unbounded = np.full(n_v, np.inf)
    res = solver.reduced_lsq(core.rows, core.jacobian, v0, -unbounded, unbounded, maxiter, 1e-14)
    h = core.stacked(res.x)
    f = core.rows(res.x)
    gnorm = float(np.max(np.abs(2.0 * (core.jacobian(res.x).T @ f))))
    if gnorm > 1e-4 * max(1.0, float(f @ f)):
        raise ConvergenceError(f"data-driven {what} solve stalled", gnorm)
    alpha = alpha_of(h)

    mism = A @ alpha - T @ h
    ridge = reg * float(alpha @ alpha)
    objective = float(mism @ mism) + ridge
    residual_sq = max(objective - ridge, 0.0)
    alpha_l1 = float(np.sum(np.abs(alpha)))
    budget = eps_star * (1.0 + alpha_l1) + gain * math.sqrt(residual_sq)
    envelope = [geometric_sum(k_xi, k) * budget for k in range(blocks.horizon)]
    return dict(
        alpha=alpha,
        residual_sq=residual_sq,
        bounds=[np.concatenate([np.zeros(d), envelope]) for d in blocks.structure.degrees],
        alpha_l1=alpha_l1,
        objective=objective,
        gradient_norm=gnorm,
        iterations=res.nfev,
        clamped=objective - ridge < 0,
    )


def simulate(blocks, u_new, xi0, lambda_alpha=1e3, eps_star=0.0, k_xi=0.0, g_row_norm=0.0,
             maxiter=800, fixed_point=False):
    """``behavior.simulate_data_driven``'s fit, from ``fixed_point_start``
    when ``fixed_point``; adds ``outputs``."""
    L, st = blocks.horizon, blocks.structure
    m, n = st.m, st.n
    u_new = np.asarray(u_new, dtype=float).reshape(L, m)
    xi0 = np.asarray(xi0, dtype=float).reshape(-1)
    y_idx = [
        np.concatenate([L * m + off + np.arange(d), i * L + np.arange(L)])
        for i, (off, d) in enumerate(zip(st.channel_offsets(), st.degrees))
    ]
    fit = _fit_window(
        blocks, xi0,
        V=np.vstack([Hy[d:] for Hy, d in zip(blocks.H_y, st.degrees)]),
        S=blocks.xi_block_row(0), s=xi0,
        u_idx=L * m + n + np.arange(L * m).reshape(L, m),
        xi_idx=window_states(y_idx, st).data[:L].astype(int),
        fixed=np.concatenate([xi0, u_new.reshape(-1)]),
        gain=g_row_norm, what="simulation",
        lambda_alpha=lambda_alpha, eps_star=eps_star, k_xi=k_xi, maxiter=maxiter,
        fixed_point=fixed_point,
    )
    fit["outputs"] = [Hy @ fit["alpha"] for Hy in blocks.H_y]
    return fit


def match(blocks, y_refs, lambda_alpha=1e3, eps_star=0.0, k_xi=0.0, g_row_norm=0.0,
          maxiter=800):
    """``behavior.match_output_data_driven``'s fit; adds ``u``."""
    L, st = blocks.horizon, blocks.structure
    m, n = st.m, st.n
    ys = [np.asarray(y, dtype=float).reshape(-1) for y in y_refs]
    xi_bar = window_states(ys, st).data
    fit = _fit_window(
        blocks, xi_bar[0],
        V=blocks.H_u,
        S=blocks.H_xi, s=xi_bar.reshape(-1),
        u_idx=np.arange(L * m).reshape(L, m),
        xi_idx=L * m + np.arange(L * n).reshape(L, n),
        fixed=xi_bar[:L].reshape(-1),
        gain=g_row_norm + 1.0, what="output-matching",
        lambda_alpha=lambda_alpha, eps_star=eps_star, k_xi=k_xi, maxiter=maxiter,
    )
    fit["u"] = (blocks.H_u @ fit["alpha"]).reshape(L, m)
    return fit
