"""The receding-horizon problem in full space: the reference the reduced forms
are checked against.

The decision is a packed vector (``Packed``: combination vector, input
window, output windows and, in robust mode, the feature slack), with the
feature equality as a nonlinear equality. Nominal mode adds the state
equality ``H_xi alpha = xi``; relaxed robust mode penalizes the derived state
slack ``H_xi alpha - xi`` with the feature slack, and drops the slack bound,
as the direct form does: a test that compares a solution with it checks
first that the bound is inactive there. The cost is one least-squares
residual: stage rows, then in robust mode the ridge, feature slack and state
slack rows.
"""

import math

import numpy as np

from ddnpc import solver


def window(builder, u_bar, y_bar) -> np.ndarray:
    """The window ``c = [zf; fixed]`` of ``builder`` holding the input window
    ``u_bar`` and the output windows ``y_bar``."""
    c = np.empty(builder.u_idx.size + sum(builder.y_lens))
    c[builder.u_idx] = u_bar
    for idx, y in zip(builder.y_idx, y_bar):
        c[idx] = y
    return c


class Packed:
    """The packed decision vector of one builder: the combination vector,
    the input window (time-major), the output windows (channel by channel)
    and, in robust mode, the feature slack."""

    def __init__(self, builder):
        self.b = builder
        M, Lp, m = builder.M, builder.Lp, builder.m
        self.off_u = M
        self.off_y = M + Lp * m
        self.y_offsets = np.cumsum([0] + builder.y_lens[:-1]) + self.off_y
        self.off_s = self.off_y + sum(builder.y_lens)
        self.n_sigma = builder.r * Lp if builder.has_sigma else 0
        self.dim = self.off_s + self.n_sigma
        # column of each window entry c = [zf; fixed]
        col = np.empty(builder.u_idx.size + sum(builder.y_lens), dtype=int)
        col[builder.u_idx] = self.off_u + np.arange(Lp * m).reshape(Lp, m)
        for i, y in enumerate(builder.y_idx):
            col[y] = self.y_offsets[i] + np.arange(y.size)
        self.window_cols = col
        self.xi_cols = col[builder.xi_idx].reshape(-1)
        self.u_stage = col[: builder.L * m]
        self.y_stage = col[builder.L * m : builder.n_free].reshape(m, builder.L).T

    def pack(self, decision) -> np.ndarray:
        b = self.b
        z = np.zeros(self.dim)
        z[: b.M] = decision.alpha
        z[self.off_u : self.off_y] = decision.u_bar.reshape(-1)
        for o, y in zip(self.y_offsets, decision.y_bar):
            z[o : o + y.size] = y
        if self.n_sigma and decision.sigma_psi is not None:
            z[self.off_s :] = decision.sigma_psi
        return z

    def unpack(self, z):
        b = self.b
        y_bar = [z[o : o + n] for o, n in zip(self.y_offsets, b.y_lens)]
        sigma = z[self.off_s :] if self.n_sigma else None
        u_bar = z[self.off_u : self.off_y].reshape(b.Lp, b.m)
        return b.window_decision(z[: b.M], window(b, u_bar, y_bar), sigma)

    def bounds(self, history_u, history_y):
        """The builder's bounds and pins on the packed vector: the boxes on
        the free slots, the history and terminal pins as equal bounds. The
        combination vector and the slack are unbounded."""
        nf = self.b.n_free
        lo = np.full(self.dim, -np.inf)
        hi = np.full(self.dim, np.inf)
        lo[self.window_cols[:nf]], hi[self.window_cols[:nf]] = self.b.lo, self.b.hi
        lo[self.window_cols[nf:]] = hi[self.window_cols[nf:]] = self.b.pins(history_u, history_y)
        return lo, hi


def _sigma_xi_jacobian(packed):
    """Constant jacobian of the derived state slack ``H_xi alpha - xi``."""
    b = packed.b
    nrow = b.H_xi.shape[0]
    J = np.zeros((nrow, packed.dim))
    J[:, : b.M] = b.H_xi
    J[np.arange(nrow), packed.xi_cols] -= 1.0
    return J


def ls_form(packed):
    """``(J, b)`` with the cost ``||J z - b||^2``."""
    builder = packed.b
    spec = builder.spec
    m, dim = builder.m, packed.dim
    L_R = np.linalg.cholesky(spec.R).T
    L_Q = np.linalg.cholesky(spec.Q).T
    rows, rhs = [], []
    for k in range(builder.L):
        Ju = np.zeros((m, dim))
        Ju[:, packed.u_stage[k * m : (k + 1) * m]] = L_R
        rows.append(Ju)
        rhs.append(L_R @ spec.u_setpoint)
        Jy = np.zeros((m, dim))
        Jy[:, packed.y_stage[k]] = L_Q
        rows.append(Jy)
        rhs.append(L_Q @ spec.y_setpoint)
    if builder.has_sigma:
        ra = math.sqrt(spec.lambda_alpha * spec.slack_level)
        Ja = np.zeros((builder.M, dim))
        Ja[:, : builder.M] = ra * np.eye(builder.M)
        rows.append(Ja)
        rhs.append(ra * builder.alpha_s)
        rs = math.sqrt(spec.lambda_sigma)
        Js = np.zeros((packed.n_sigma, dim))
        Js[:, packed.off_s :] = rs * np.eye(packed.n_sigma)
        rows.append(Js)
        rhs.append(np.zeros(packed.n_sigma))
        rows.append(rs * _sigma_xi_jacobian(packed))
        rhs.append(np.zeros(builder.H_xi.shape[0]))
    return np.vstack(rows), np.concatenate(rhs)


def problem(builder, history_u, history_y, guess=None):
    """The full-space problem for one measured history, nominal mode or
    relaxed robust mode with a positive slack bound (dropped); ``guess`` is a
    decision that starts the solve, the builder's cold start when None."""
    spec = builder.spec
    if spec.mode == "robust" and (spec.slack_mode != "relaxed" or spec.slack_bound() <= 0):
        raise ValueError(
            "the full-space reference covers nominal mode and relaxed robust mode with a "
            "positive slack bound"
        )
    packed = Packed(builder)
    history_u = np.asarray(history_u, dtype=float).reshape(builder.d_max, builder.m)
    history_y = np.asarray(history_y, dtype=float).reshape(builder.d_max, builder.m)
    lo, hi = packed.bounds(history_u, history_y)
    if guess is None:
        builder.set_history(history_u, history_y)
        guess = builder.unpack(builder.initial_guess(history_y))
    J, b = ls_form(packed)
    A = _sigma_xi_jacobian(packed)

    def features(z, need_jac):
        u = z[packed.off_u : packed.off_y].reshape(builder.Lp, builder.m)
        xi = z[packed.xi_cols][: builder.Lp * builder.n].reshape(builder.Lp, builder.n)
        dic = spec.blocks.dictionary
        return dic.value_batch(u, xi), dic.jacobian_batch(u, xi) if need_jac else None

    def feature_residual(z):
        psi, _ = features(z, False)
        c = psi.reshape(-1) - builder.H_psi @ z[: builder.M]
        if builder.has_sigma:
            c = c + z[packed.off_s :]
        return c

    def feature_jacobian(z):
        _, jpsi = features(z, True)
        m, n, r = builder.m, builder.n, builder.r
        Jc = np.zeros((r * builder.Lp, packed.dim))
        Jc[:, : builder.M] = -builder.H_psi
        for k in range(builder.Lp):
            rows = slice(k * r, (k + 1) * r)
            Jc[rows, packed.off_u + k * m : packed.off_u + (k + 1) * m] = jpsi[k, :, :m]
            Jc[rows, packed.xi_cols[k * n : (k + 1) * n]] = jpsi[k, :, m:]
        if builder.has_sigma:
            Jc[:, packed.off_s :] = np.eye(packed.n_sigma)
        return Jc

    eq_residual, eq_jacobian = feature_residual, feature_jacobian
    if not builder.has_sigma:
        def eq_residual(z):
            return np.concatenate([feature_residual(z), A @ z])

        def eq_jacobian(z):
            return np.vstack([feature_jacobian(z), A])
    return solver.NlpProblem(
        x0=np.clip(packed.pack(guess), lo, hi),
        lower=lo,
        upper=hi,
        ls_residual=lambda z: J @ z - b,
        ls_jacobian=lambda z: J,
        eq_residual=eq_residual,
        eq_jacobian=eq_jacobian,
    )


def constraint_violation(problem, z) -> float:
    """Sup-norm violation of every constraint group at a candidate point."""
    z = np.asarray(z, dtype=float)
    v = float(np.max(np.maximum(problem.lower - z, z - problem.upper)))
    if problem.eq_residual is not None:
        v = max(v, float(np.max(np.abs(problem.eq_residual(z)))))
    return v
