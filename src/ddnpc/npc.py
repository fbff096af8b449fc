"""Nominal and robust data-driven predictive controllers.

The optimal control problem couples three decision groups: a combination
vector over the offline data columns, the predicted input window, and the
predicted per-channel output windows (the robust variant adds a slack on the
feature block). The feature block of the data representation is a nonlinear
equality; the state block is linear and, in the robust variant, absorbed into
a derived state slack that is penalized and norm-bounded. Past input/output
samples pin the window head, terminal equalities pin the final window state to
the setpoint, and the input box is enforced on every slot.

Every mode is solved on the free window slots (``_WindowRestriction``), with
the pins as constants. Robust solves with a positive slack bound take the
direct solve first, where the combination vector and the slack are affine
functions of the window's features and states, and pose the bounded problem,
with the combination vector as variables, only when the bound is active at
the direct solution. Nominal mode, and robust mode with zero bounds, solve
exact membership.

The closed-loop runner applies the first ``stride`` inputs of each solve
(one for the nominal single-step scheme, ``d_max`` for the robust multi-step
scheme), warm-starts the next solve by shifting, and logs everything needed
to evaluate the runtime error bounds afterwards.
"""

from __future__ import annotations

import functools
import math
import time
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .plant import BrunovskyStructure, NoiseModel, PlantModel, window_states
from .behavior import (
    DataDictionaryBlocks,
    ErrorBoundInputs,
    feature_jacobian_scatter,
    prediction_error_bound,
)
from . import solver as _solver


class MissingCertificateError(ValueError):
    """Robust mode needs certificate constants that were not supplied."""


@dataclass
class OcpSpec:
    """Static description of one receding-horizon problem family."""

    mode: str                              # "nominal" | "robust"
    L: int
    structure: BrunovskyStructure
    blocks: DataDictionaryBlocks
    Q: np.ndarray
    R: np.ndarray
    u_setpoint: np.ndarray
    y_setpoint: np.ndarray
    u_min: np.ndarray
    u_max: np.ndarray
    y_min: Optional[np.ndarray] = None
    y_max: Optional[np.ndarray] = None
    lambda_alpha: float = 1e4
    lambda_sigma: float = 1e8
    eps_star: float = 0.0
    w_star: float = 0.0
    slack_mode: str = "relaxed"            # "relaxed" | "exact"
    c_slack: float = 10.0
    k_psi: float = 0.0
    k_w: float = 0.0
    g_dagger_norm: float = 0.0

    def __post_init__(self):
        if self.mode not in ("nominal", "robust"):
            raise ValueError(f"unknown mode '{self.mode}'")
        if self.slack_mode not in ("relaxed", "exact"):
            raise ValueError(f"unknown slack mode '{self.slack_mode}'")
        m = self.structure.m
        self.Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        self.R = np.atleast_2d(np.asarray(self.R, dtype=float))
        np.linalg.cholesky(self.Q)
        np.linalg.cholesky(self.R)
        for name in ("u_setpoint", "y_setpoint", "u_min", "u_max"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float).reshape(m))
        if self.y_min is not None:
            self.y_min = np.asarray(self.y_min, dtype=float).reshape(m)
            self.y_max = np.asarray(self.y_max, dtype=float).reshape(m)
        d_max = self.structure.d_max
        if self.mode == "robust" and self.L < d_max:
            raise ValueError(f"robust mode needs horizon >= {d_max}, got {self.L}")
        if self.blocks.horizon != self.L + d_max:
            raise ValueError(
                f"blocks depth {self.blocks.horizon} != L + d_max = {self.L + d_max}"
            )
        if not (np.all(self.u_setpoint > self.u_min) and np.all(self.u_setpoint < self.u_max)):
            raise ValueError("input setpoint must be strictly inside the input box")
        if self.y_min is not None and not (
            np.all(self.y_setpoint > self.y_min) and np.all(self.y_setpoint < self.y_max)
        ):
            raise ValueError("output setpoint must be strictly inside the output box")
        if self.mode == "robust" and self.slack_mode == "exact":
            if self.g_dagger_norm <= 0:
                raise MissingCertificateError(
                    "exact slack bound needs the right-inverse norm bound"
                )
        if not self.blocks.pe_ok:
            warnings.warn(
                "offline feature sequence failed the excitation check for "
                f"order {self.blocks.horizon + self.structure.n}",
                RuntimeWarning,
            )

    @property
    def d_max(self) -> int:
        return self.structure.d_max

    @property
    def horizon_total(self) -> int:
        return self.L + self.d_max

    @property
    def slack_level(self) -> float:
        return max(self.eps_star, self.w_star)

    @property
    def slack_gain(self) -> float:
        """Growth of the slack bound per unit of ``||alpha||_1``: ``(eps* +
        k_w w*) ||G^dagger||`` in exact mode, zero in relaxed mode."""
        if self.slack_mode == "relaxed":
            return 0.0
        return (self.eps_star + self.k_w * self.w_star) * self.g_dagger_norm

    def slack_bound(self, alpha_l1: float = 0.0) -> float:
        """Sup-norm bound on the slack of a robust decision whose combination
        vector has 1-norm ``alpha_l1``: ``c_slack * slack_level`` in relaxed
        mode, the paper's ``k_psi w* + (eps* + k_w w*) ||G^dagger|| (1 +
        ||alpha||_1)`` in exact mode."""
        if self.slack_mode == "relaxed":
            return self.c_slack * self.slack_level
        return self.k_psi * self.w_star + self.slack_gain * (1.0 + alpha_l1)


@dataclass
class OcpDecision:
    """Unpacked solution of one receding-horizon problem (absolute units)."""

    alpha: np.ndarray
    u_bar: np.ndarray                 # (L + d_max, m); row 0 is time -d_max
    y_bar: list                       # channel i: (L + d_max + d_i,)
    sigma_psi: Optional[np.ndarray]
    sigma_xi: Optional[np.ndarray]
    xi_bar: np.ndarray                # (L + d_max + 1, n)

    @property
    def alpha_l1(self) -> float:
        return float(np.sum(np.abs(self.alpha)))

    @property
    def sigma_inf(self) -> float:
        parts = [s for s in (self.sigma_psi, self.sigma_xi) if s is not None]
        if not parts:
            return 0.0
        return float(max(np.max(np.abs(s)) for s in parts))

    def planned_inputs(self, d_max: int, count: int) -> np.ndarray:
        """First ``count`` inputs of the prediction window (time 0 onward)."""
        return self.u_bar[d_max : d_max + count]


class OcpBuilder:
    """Caches the index maps and Hankel blocks of one problem family: the
    packed decision layout, the pins a measured history sets, and the guesses
    and warm starts. Its reduced form (``reduced_form``) poses the problem on
    the free window slots.

    A packed decision vector holds the combination vector, the input window
    (time-major), the output windows (channel by channel) and, in robust
    mode, the feature slack."""

    def __init__(self, spec: OcpSpec):
        self.spec = spec
        st = spec.structure
        self.m, self.n, self.r = st.m, st.n, spec.blocks.r
        self.Lp = spec.horizon_total
        self.L = spec.L
        self.d_max = spec.d_max
        self.degrees = st.degrees
        self.M = spec.blocks.columns
        self.has_sigma = spec.mode == "robust"

        m, n, r, Lp = self.m, self.n, self.r, self.Lp
        self.n_u = Lp * m
        self.y_lens = [Lp + d for d in self.degrees]
        self.n_y = sum(self.y_lens)
        self.n_sigma = r * Lp if self.has_sigma else 0
        self.dim = self.M + self.n_u + self.n_y + self.n_sigma

        self.off_u = self.M
        self.off_y = self.off_u + self.n_u
        self.off_s = self.off_y + self.n_y
        self.y_offsets = np.cumsum([0] + self.y_lens[:-1]) + self.off_y

        # Window-state gather: xi_flat[j] = z[XI_COLS[j]] for states 0..Lp.
        off_n = st.channel_offsets()
        cols = np.empty(n * (Lp + 1), dtype=int)
        for k in range(Lp + 1):
            for i, d in enumerate(self.degrees):
                for j in range(d):
                    cols[k * n + off_n[i] + j] = self.y_offsets[i] + k + j
        self.XI_COLS = cols

        # Stage-cost gathers (prediction times 0..L-1).
        self.U_STAGE = self.off_u + (np.arange(self.d_max * m, Lp * m))
        ys = np.empty((self.L, m), dtype=int)
        for i in range(m):
            ys[:, i] = self.y_offsets[i] + self.d_max + np.arange(self.L)
        self.Y_STAGE = ys

        # Canonical decision count: combination vector, both windows, and the
        # feature slack.
        self.audit_count = self.M + self.n_u + self.n_y + r * Lp
        N = self.M + Lp - 1
        expected = N + (2 * m + r - 1) * Lp + n + 1
        assert self.audit_count == expected, (self.audit_count, expected)

        self.H_psi = spec.blocks.H_psi
        self.H_xi = spec.blocks.H_xi
        # The robust ridge pulls the combination vector toward the one that
        # represents the window resting at the setpoint, so that the setpoint
        # is a zero-cost fixed point; it vanishes when the setpoint's features
        # and window states do.
        self.alpha_s = self._setpoint_alpha() if self.has_sigma else np.zeros(self.M)

    # -- decision packing -------------------------------------------------

    def u_of(self, z: np.ndarray) -> np.ndarray:
        return z[self.off_u : self.off_u + self.n_u].reshape(self.Lp, self.m)

    def y_of(self, z: np.ndarray) -> list:
        return [
            z[self.y_offsets[i] : self.y_offsets[i] + self.y_lens[i]]
            for i in range(self.m)
        ]

    def sigma_of(self, z: np.ndarray) -> Optional[np.ndarray]:
        if not self.has_sigma:
            return None
        return z[self.off_s : self.off_s + self.n_sigma]

    def xi_flat(self, z: np.ndarray) -> np.ndarray:
        return z[self.XI_COLS]

    def pack(self, alpha, u_bar, y_bar, sigma_psi=None) -> np.ndarray:
        z = np.zeros(self.dim)
        z[: self.M] = alpha
        z[self.off_u : self.off_u + self.n_u] = np.asarray(u_bar).reshape(-1)
        for i in range(self.m):
            z[self.y_offsets[i] : self.y_offsets[i] + self.y_lens[i]] = y_bar[i]
        if self.has_sigma and sigma_psi is not None:
            z[self.off_s : self.off_s + self.n_sigma] = sigma_psi
        return z

    def unpack(self, z: np.ndarray) -> OcpDecision:
        alpha = z[: self.M]
        sigma_psi = self.sigma_of(z)
        sigma_xi = None
        if self.has_sigma:
            sigma_xi = self.H_xi @ alpha - self.xi_flat(z)
        return OcpDecision(
            alpha=alpha.copy(),
            u_bar=self.u_of(z).copy(),
            y_bar=[y.copy() for y in self.y_of(z)],
            sigma_psi=None if sigma_psi is None else sigma_psi.copy(),
            sigma_xi=sigma_xi,
            xi_bar=self.xi_flat(z).reshape(self.Lp + 1, self.n),
        )

    # -- problem assembly --------------------------------------------------

    def _bounds(self, history_u: np.ndarray, history_y: np.ndarray):
        """Bounds on the packed vector: the input box, the output box when the
        spec has one, and the history and terminal pins (equal bounds). The
        combination vector and the slack are unbounded."""
        spec = self.spec
        lo = np.full(self.dim, -np.inf)
        hi = np.full(self.dim, np.inf)
        u_lo = np.tile(spec.u_min, self.Lp)
        u_hi = np.tile(spec.u_max, self.Lp)
        u_lo[: self.d_max * self.m] = history_u.reshape(-1)
        u_hi[: self.d_max * self.m] = history_u.reshape(-1)
        lo[self.off_u : self.off_u + self.n_u] = u_lo
        hi[self.off_u : self.off_u + self.n_u] = u_hi
        for i in range(self.m):
            o = self.y_offsets[i]
            if spec.y_min is not None:
                lo[o + self.d_max : o + self.Lp] = spec.y_min[i]
                hi[o + self.d_max : o + self.Lp] = spec.y_max[i]
            lo[o : o + self.d_max] = history_y[:, i]
            hi[o : o + self.d_max] = history_y[:, i]
            lo[o + self.Lp : o + self.y_lens[i]] = spec.y_setpoint[i]
            hi[o + self.Lp : o + self.y_lens[i]] = spec.y_setpoint[i]
        return lo, hi

    def reduced_form(self):
        """The mode's problem on the free window slots. A robust mode with a
        positive slack bound gets the direct form (``_RelaxedDirect``), whose
        ``build`` poses the bound-active problem; nominal mode, and robust
        mode with zero bounds, get the nominal core (``_NominalCore``)."""
        spec = self.spec
        if spec.mode == "robust" and spec.slack_bound() > 0:
            return _RelaxedDirect(self)
        return _NominalCore(self)

    def build(self, history_u: np.ndarray, history_y: np.ndarray, z0=None):
        """The mode's constrained problem for one measured history, posed by a
        fresh ``reduced_form()``. That form is not kept, so a caller that
        needs the decision (a closed loop, say) keeps a reduced form and calls
        its ``build`` and ``unpack``.

        ``history_u`` and ``history_y`` hold the last ``d_max`` applied inputs
        and measured outputs, oldest first; ``z0`` is a packed guess, the cold
        start when None.
        """
        return self.reduced_form().build(history_u, history_y, z0)

    # -- guesses and warm starts -------------------------------------------

    @functools.cached_property
    def pinv_stack(self) -> np.ndarray:
        """Pseudo-inverse of the stacked blocks ``[H_psi; H_xi]``."""
        return np.linalg.pinv(np.vstack([self.H_psi, self.H_xi]))

    def _fit_window(self, u_bar, y_bar):
        """Pseudo-inverse combination vector of a window, and the stacked
        features and window states ``[psi; xi]`` it is fitted to."""
        xi = window_states(y_bar, self.spec.structure).data
        psi = self.spec.blocks.dictionary.value_batch(u_bar, xi[: self.Lp])
        g = np.concatenate([psi.reshape(-1), xi.reshape(-1)])
        return self.pinv_stack @ g, g

    def _setpoint_alpha(self):
        """Combination vector of the window resting at the setpoint."""
        spec = self.spec
        u_bar = np.tile(spec.u_setpoint, (self.Lp, 1))
        y_bar = [np.full(n, spec.y_setpoint[i]) for i, n in enumerate(self.y_lens)]
        return self._fit_window(u_bar, y_bar)[0]

    def initial_guess(self, history_u, history_y) -> np.ndarray:
        """Cold-start guess: ramp the outputs to the setpoint, hold the input
        setpoint, and fit the combination vector to that trajectory."""
        spec = self.spec
        u_bar = np.tile(spec.u_setpoint, (self.Lp, 1))
        u_bar[: self.d_max] = history_u
        y_bar = []
        for i in range(self.m):
            y = np.empty(self.y_lens[i])
            y[: self.d_max] = history_y[:, i]
            ramp = np.linspace(history_y[-1, i], spec.y_setpoint[i], self.L + 1)[1:]
            y[self.d_max : self.d_max + self.L] = ramp
            y[self.d_max + self.L :] = spec.y_setpoint[i]
            y_bar.append(y)
        alpha, g = self._fit_window(u_bar, y_bar)
        sigma = self.H_psi @ alpha - g[: self.H_psi.shape[0]] if self.has_sigma else None
        return self.pack(alpha, u_bar, y_bar, sigma)

    def shifted_guess(self, decision: OcpDecision, shift: int) -> np.ndarray:
        """Warm start from ``decision`` advanced ``shift`` steps: the input and
        output windows move forward with the setpoint padded at the tail, the
        combination vector is refitted to the shifted window by the
        pseudo-inverse, and the feature slack restarts at zero."""
        spec = self.spec
        u_bar = np.vstack([decision.u_bar[shift:], np.tile(spec.u_setpoint, (shift, 1))])
        y_bar = [
            np.concatenate([y[shift:], np.full(shift, spec.y_setpoint[i])])
            for i, y in enumerate(decision.y_bar)
        ]
        return self.pack(self._fit_window(u_bar, y_bar)[0], u_bar, y_bar)


class _WindowRestriction:
    """The problem restricted to its free columns, the input and output slots
    of the prediction window.

    The history and terminal pins are constants taken from the builder's
    bounds, and the stage cost is ``||J_stage @ zf - b_stage||^2`` on the free
    slots ``zf``. The rest of the problem depends on ``zf`` only through
    ``g``, the features and window states stacked, and each mode makes it
    affine in ``g`` with two constant maps: ``P``, with ``alpha = alpha_s + P
    @ (g - g_s)``, and ``T``, whose image of ``g - g_s`` is the mode's own
    rows. ``alpha_s`` is the builder's ridge anchor and ``g_s = [H_psi; H_xi]
    @ alpha_s``. ``build`` poses the mode's problem for the AL solver and
    ``unpack`` takes a solution back to a decision.
    """

    def __init__(self, builder: OcpBuilder, P: np.ndarray, T: np.ndarray):
        self.b = builder
        spec = builder.spec
        m, L, Lp, n, r = builder.m, builder.L, builder.Lp, builder.n, builder.r

        # Reduced vector: the free input slots (time-major), then the free
        # output slots (channel-major); cols[j] is the builder column of entry j.
        self.cols = np.concatenate([builder.U_STAGE, builder.Y_STAGE.T.reshape(-1)])
        self.dim = self.cols.size
        pos = np.full(builder.dim, -1)
        pos[self.cols] = np.arange(self.dim)
        # Reduced column of each window-state entry, -1 where it is pinned.
        self.y_state_cols = pos[builder.XI_COLS]
        self.D_xi = (self.y_state_cols[:, None] == np.arange(self.dim)).astype(float)

        self.P = P
        self.alpha_s = builder.alpha_s
        self.g_s = np.concatenate([builder.H_psi @ self.alpha_s, builder.H_xi @ self.alpha_s])
        n_psi = r * Lp
        self.T = T
        self.T_psi = T[:, :n_psi]
        self.TD_xi = T[:, n_psi:] @ self.D_xi

        # Scatter of the dictionary jacobian (Lp, r, m + n) into d psi / d zf:
        # col_of[k, j] is the reduced column that partial j at window time k
        # feeds, -1 where that slot is pinned.
        u_cols = builder.off_u + np.arange(Lp * m).reshape(Lp, m)
        col_of = pos[np.hstack([u_cols, builder.XI_COLS[: Lp * n].reshape(Lp, n)])]
        self._scatter = feature_jacobian_scatter(col_of, r)

        # Stage rows: the input rows of every prediction time, then the output
        # rows, each the Cholesky factor of its weight on that time's slots.
        L_R = np.linalg.cholesky(spec.R).T
        L_Q = np.linalg.cholesky(spec.Q).T
        self.J_stage = np.zeros((2 * L * m, self.dim))
        for k in range(L):
            self.J_stage[k * m : (k + 1) * m, k * m : (k + 1) * m] = L_R
            self.J_stage[(L + k) * m : (L + k + 1) * m, L * m + k + L * np.arange(m)] = L_Q
        self.b_stage = np.concatenate(
            [np.tile(L_R @ spec.u_setpoint, L), np.tile(L_Q @ spec.y_setpoint, L)]
        )
        self._z_pinned = None
        # [zf, psi, xi_flat, raw jacobian, dpsi or None] of the latest
        # dictionary evaluation
        self._last = None

    def set_history(self, hist_u, hist_y):
        b = self.b
        lo, hi = b._bounds(
            np.asarray(hist_u, dtype=float).reshape(b.d_max, b.m),
            np.asarray(hist_y, dtype=float).reshape(b.d_max, b.m),
        )
        self.lo, self.hi = lo[self.cols], hi[self.cols]
        self._z_pinned = np.where(lo == hi, lo, 0.0)
        # the same reduced point under another history has other features
        self._last = None

    def _start(self, history_u, history_y, z0):
        """Set the history and return the packed guess ``z0``, the builder's
        cold start when it is None."""
        b = self.b
        history_u = np.asarray(history_u, dtype=float).reshape(b.d_max, b.m)
        history_y = np.asarray(history_y, dtype=float).reshape(b.d_max, b.m)
        self.set_history(history_u, history_y)
        if z0 is None:
            z0 = b.initial_guess(history_u, history_y)
        return z0

    def _embed(self, zf):
        """Builder decision vector with the free slots set to ``zf`` and the
        pins to the history and setpoint; combination vector and slack zero."""
        z = self._z_pinned.copy()
        z[self.cols] = zf
        return z

    def _pieces(self, zf, need_jac):
        """Features, window states and, if asked, the feature jacobian at
        ``zf``. A new point gets values and partials from one dictionary
        pass; the solvers ask for the jacobian at the point they last
        evaluated, so it is scattered there from the kept partials."""
        b = self.b
        if self._last is None or not np.array_equal(self._last[0], zf):
            z = self._embed(zf)
            xi_flat = b.xi_flat(z)
            psi, jpsi = b.spec.blocks.dictionary.value_and_jacobian_batch(
                b.u_of(z), xi_flat.reshape(b.Lp + 1, b.n)[: b.Lp]
            )
            self._last = [zf.copy(), psi.reshape(-1), xi_flat, jpsi, None]
        _, psi, xi_flat, jpsi, dpsi = self._last
        if not need_jac:
            return psi, xi_flat, None
        if dpsi is None:
            dpsi = np.zeros((b.r * b.Lp, self.dim))
            rows, cols, src = self._scatter
            dpsi[rows, cols] = jpsi.reshape(-1)[src]
            self._last[4] = dpsi
        return psi, xi_flat, dpsi

    def stage_residual(self, zf):
        return self.J_stage @ zf - self.b_stage

    def mapped(self, zf):
        """The mode's rows, ``T @ (g - g_s)``."""
        psi, xi_flat, _ = self._pieces(zf, False)
        return self.T @ (np.concatenate([psi, xi_flat]) - self.g_s)

    def mapped_jacobian(self, zf, out=None):
        """``T_psi @ dpsi + TD_xi``, written into ``out`` when given."""
        _, _, dpsi = self._pieces(zf, True)
        out = np.matmul(self.T_psi, dpsi, out=out)
        out += self.TD_xi
        return out

    def unpack(self, x: np.ndarray) -> OcpDecision:
        """The decision at ``x``: the free slots, followed by the combination
        vector when the problem keeps it as a variable. Without it the
        combination vector is ``alpha_s + P @ (g - g_s)``. The feature slack
        closes the feature rows."""
        b = self.b
        zf = x[: self.dim]
        psi, xi_flat, _ = self._pieces(zf, False)
        if x.size > self.dim:
            alpha = x[self.dim :]
        else:
            alpha = self.alpha_s + self.P @ (np.concatenate([psi, xi_flat]) - self.g_s)
        z = self._embed(zf)
        return b.unpack(b.pack(alpha, b.u_of(z), b.y_of(z), b.H_psi @ alpha - psi))


class _RelaxedDirect(_WindowRestriction):
    """Variable-projection form of the robust problem with its slack bound
    dropped, both slack modes.

    On the free slots, the feature equality pins the feature slack, and for
    fixed windows the remaining objective is a ridge least-squares in the
    combination vector; both are eliminated with one precomputed linear map
    ``P``. What is left is a small bounded nonlinear least-squares over the
    free slots. It is the robust problem whenever the slack bound is
    inactive at the optimum, which is checked afterwards; ``build`` poses the
    problem with the bound for when it is not.

    The residual is the builder's stage rows followed by ``T @ (g - g_s)``,
    where ``T`` is the triangular factor of the constant matrix that maps
    ``g - g_s`` to the ridge, feature slack and state slack rows. The cost,
    ``J^T J`` and ``J^T r`` equal those of the uncompressed residual, so
    every Gauss-Newton step is unchanged.
    """

    def __init__(self, builder: OcpBuilder):
        spec = builder.spec
        if spec.mode != "robust" or spec.slack_bound() <= 0:
            raise ValueError("direct solve needs robust mode with a positive slack bound")
        M, n_psi = builder.M, builder.r * builder.Lp
        n_xi = builder.XI_COLS.size

        # Ridge elimination of the combination vector: for fixed windows,
        # alpha minimizes lam_s*||Hs a - g||^2 + ra^2*||a - a_s||^2 with
        # constant Hs, so alpha = a_s + P @ (g - Hs a_s).
        self.rs = math.sqrt(spec.lambda_sigma)
        self.ra = math.sqrt(spec.lambda_alpha * spec.slack_level)
        self.Hs = Hs = np.vstack([builder.H_psi, builder.H_xi])
        A = np.vstack([self.rs * Hs, self.ra * np.eye(M)])
        P = np.linalg.pinv(A)[:, : Hs.shape[0]] * self.rs

        # Every residual row past the stage rows is C @ (g - g_s) with the
        # constant C below (ridge rows, feature slack rows, state slack rows),
        # because g_s = Hs a_s. Only ||C h||^2 and its derivatives matter, so
        # C is replaced by the triangle of its QR factorization: same cost,
        # same J^T J and J^T r, far fewer rows.
        C = np.vstack(
            [
                self.ra * P,
                self.rs * (builder.H_psi @ P - np.eye(n_psi, n_psi + n_xi)),
                self.rs * (builder.H_xi @ P - np.eye(n_xi, n_psi + n_xi, n_psi)),
            ]
        )
        super().__init__(builder, P, np.linalg.qr(C, mode="r"))

    def residual(self, zf):
        return np.concatenate([self.stage_residual(zf), self.mapped(zf)])

    def jacobian(self, zf):
        n_stage = self.J_stage.shape[0]
        J = np.empty((n_stage + self.T.shape[0], self.dim))
        J[:n_stage] = self.J_stage
        self.mapped_jacobian(zf, out=J[n_stage:])
        return J

    def build(self, history_u, history_y, z0=None) -> _solver.NlpProblem:
        """The bound-active problem for one measured history. Once the bound
        is active the ridge map no longer gives the best combination vector,
        so the variables are the free slots followed by the combination
        vector. The residual is the stage rows, the ridge rows ``ra * (alpha
        - alpha_s)`` and the slack rows ``rs * sigma``, with ``sigma = Hs @
        alpha - g`` (the feature slack, then the state slack); the bound is
        the inequality rows ``|sigma_j| <= bound``. ``z0`` is a packed guess,
        as for ``OcpBuilder.build``, its combination vector included.

        The exact-mode bound grows with ``||alpha||_1``. The rows take it at
        ``s^T alpha``, with ``s`` the signs of the combination vector of the
        guess: linear, never above ``||alpha||_1`` and equal to it while no
        entry changes sign, so every point that meets the rows meets the
        paper's bound."""
        spec = self.b.spec
        nf, M = self.dim, self.b.M
        z0 = self._start(history_u, history_y, z0)
        s = np.sign(z0[:M])
        Hs = self.Hs
        n_stage = self.J_stage.shape[0]
        J = np.zeros((n_stage + M + Hs.shape[0], nf + M))
        J[:n_stage, :nf] = self.J_stage
        J[n_stage : n_stage + M, nf:] = self.ra * np.eye(M)
        J[n_stage + M :, nf:] = self.rs * Hs
        dbound = spec.slack_gain * s  # d bound / d alpha

        def sigma(x):
            psi, xi_flat, _ = self._pieces(x[:nf], False)
            return Hs @ x[nf:] - np.concatenate([psi, xi_flat])

        def dg(x):
            """Jacobian of ``g`` in the free slots."""
            return np.vstack([self._pieces(x[:nf], True)[2], self.D_xi])

        def residual(x):
            return np.concatenate(
                [self.stage_residual(x[:nf]), self.ra * (x[nf:] - self.alpha_s), self.rs * sigma(x)]
            )

        def jacobian(x):
            Jx = J.copy()
            Jx[n_stage + M :, :nf] = -self.rs * dg(x)
            return Jx

        def slack_rows(x):
            sig, bound = sigma(x), spec.slack_bound(float(s @ x[nf:]))
            return np.concatenate([sig - bound, -sig - bound])

        def slack_jacobian(x):
            d = dg(x)
            return np.block([[-d, Hs - dbound], [d, -Hs - dbound]])

        return _solver.NlpProblem(
            dim=nf + M,
            x0=np.concatenate([z0[self.cols], z0[:M]]),
            lower=np.concatenate([self.lo, np.full(M, -np.inf)]),
            upper=np.concatenate([self.hi, np.full(M, np.inf)]),
            ls_residual=residual,
            ls_jacobian=jacobian,
            ineq_residual=slack_rows,
            ineq_jacobian=slack_jacobian,
        )

    def violation(self, x) -> float:
        """Slack-bound violation of the decision at ``x``, the bound taken at
        its own ``||alpha||_1``."""
        decision = self.unpack(x)
        return max(0.0, decision.sigma_inf - self.b.spec.slack_bound(decision.alpha_l1))


class _NominalCore(_WindowRestriction):
    """Exact membership on the free slots: nominal mode, and robust mode with
    zero slack bounds.

    Exact membership asks that ``g`` lie in the span of ``Hs = [H_psi;
    H_xi]``. ``Hs`` is rank-deficient, so membership is the few equalities
    ``N^T g = 0``, with the columns of ``N`` an orthonormal basis of its left
    null space, and the combination vector is ``alpha_s + pinv(Hs) @ (g -
    g_s)``, the member closest to the ridge anchor (``pinv(Hs) @ g`` in
    nominal mode, whose anchor is zero). ``build`` poses that problem to the
    augmented-Lagrangian solver with the stage rows as its least-squares
    objective; ``violation`` is the equality violation of the decision a
    solution unpacks to.
    """

    def __init__(self, builder: OcpBuilder):
        self.Hs = np.vstack([builder.H_psi, builder.H_xi])
        rank = np.linalg.matrix_rank(self.Hs)
        N = np.linalg.svd(self.Hs)[0][:, rank:]
        super().__init__(builder, builder.pinv_stack, N.T)

    def build(self, history_u, history_y, z0=None) -> _solver.NlpProblem:
        """Solver-ready problem for one measured history; ``z0`` is a packed
        guess, as for ``OcpBuilder.build``."""
        return _solver.NlpProblem(
            dim=self.dim,
            x0=self._start(history_u, history_y, z0)[self.cols],
            lower=self.lo,
            upper=self.hi,
            ls_residual=self.stage_residual,
            ls_jacobian=lambda zf: self.J_stage,
            eq_residual=self.mapped,
            eq_jacobian=self.mapped_jacobian,
        )

    def violation(self, zf) -> float:
        """``||Hs alpha - g||_inf`` of the decision at ``zf``: its equality
        violation, the pins and bounds being exact."""
        psi, xi_flat, _ = self._pieces(zf, False)
        g = np.concatenate([psi, xi_flat])
        alpha = self.alpha_s + self.P @ (g - self.g_s)
        return float(np.max(np.abs(self.Hs @ alpha - g)))


def solve_relaxed_direct(
    builder,
    history_u,
    history_y,
    z0: Optional[np.ndarray] = None,
    maxiter: int = 60,
):
    """Solve the robust problem with its slack bound dropped, by slack and
    combination elimination, and check the bound afterwards.

    ``builder`` is an ``OcpBuilder`` or its ``_RelaxedDirect`` form; a closed
    loop passes the form it owns, so that the form is set up once per loop.
    ``z0`` is a packed guess, as for ``OcpBuilder.build``; its free input and
    output slots start the solve. Returns ``(decision, info)`` where ``info``
    carries the objective, solver iterations, whether the slack bound held at
    the optimum (when it does not, the caller must fall back to the bounded
    problem, the form's ``build``) and the measured constraint violation. The
    solver, ``solver.reduced_lsq`` (box-constrained Levenberg-Marquardt),
    keeps the free slots inside the builder's bounds (the input box, and the
    output box when the spec has one) and the feature equality holds by
    construction, so the only constraint that can be violated is the slack
    bound: ``max_violation = max(0, sigma_inf - bound)``, with the mode's
    bound (``OcpSpec.slack_bound``) at the decision's own ``||alpha||_1``.
    ``maxiter`` bounds the solver's residual evaluations.
    """
    direct = builder if isinstance(builder, _RelaxedDirect) else _RelaxedDirect(builder)
    zf0 = direct._start(history_u, history_y, z0)[direct.cols]
    res = _solver.reduced_lsq(
        direct.residual, direct.jacobian, zf0, direct.lo, direct.hi, maxiter, 1e-10
    )
    decision = direct.unpack(res.x)
    bound = direct.b.spec.slack_bound(decision.alpha_l1)
    bound_ok = decision.sigma_inf <= bound + 1e-9
    if not bound_ok:
        status = "bound-active"
    elif res.converged:
        status = "converged"
    else:
        status = "max-iter"
    info = {
        "objective": res.objective,
        "iterations": res.nfev,
        "status": status,
        "bound_ok": bound_ok,
        "max_violation": max(0.0, decision.sigma_inf - bound),
    }
    return decision, info


# ---------------------------------------------------------------------------
# Closed loop
# ---------------------------------------------------------------------------


@dataclass
class SolveRecord:
    t: int
    status: str
    path: str                        # direct | al-gn | held
    objective: float
    alpha_l1: float
    sigma_inf: float
    iterations: int
    max_violation: float
    applied: bool
    predicted_outputs: list          # channel i: prediction times 0..L+d_i-1
    wall_s: float                    # warm start and solve, wall-clock seconds
    decision: Optional[OcpDecision] = None
    error: str = ""                  # exception text of a failed solve


@dataclass
class ClosedLoopLog:
    stride: int
    degrees: tuple
    u_setpoint: np.ndarray
    y_setpoint: np.ndarray
    bootstrap_steps: int
    times: list = field(default_factory=list)
    inputs: list = field(default_factory=list)
    outputs_clean: list = field(default_factory=list)
    outputs_measured: list = field(default_factory=list)
    stage_costs: list = field(default_factory=list)
    solves: list = field(default_factory=list)

    def settled_error(self, last: int = 50) -> float:
        """Time-averaged sup-norm output error over the final ``last`` steps."""
        y = np.asarray(self.outputs_clean[-last:])
        return float(np.mean(np.max(np.abs(y - self.y_setpoint), axis=1)))

    def as_arrays(self) -> dict:
        return {
            "t": np.asarray(self.times),
            "u": np.asarray(self.inputs),
            "y": np.asarray(self.outputs_clean),
            "y_measured": np.asarray(self.outputs_measured),
            "stage_cost": np.asarray(self.stage_costs),
        }


def run_closed_loop(
    spec: OcpSpec,
    plant_model: PlantModel,
    noise: NoiseModel,
    x0: np.ndarray,
    total_steps: int,
    stride: Optional[int] = None,
    hold_input: Optional[np.ndarray] = None,
    solver_options: Optional[_solver.SolverOptions] = None,
    keep_decisions: bool = False,
) -> ClosedLoopLog:
    """Receding-horizon loop on a ground-truth plant.

    Before the first solve the plant is pre-rolled ``d_max`` steps holding
    ``hold_input`` (default: the input setpoint) to populate the history
    pins. Measurement noise affects only what the controller sees; the clean
    outputs are logged alongside for evaluation. A solve that neither
    converges nor reaches near-feasibility is not applied: the previous
    input is held for one stride and the event is flagged in the log. A
    feasible solve that stopped at its iteration limit is applied, as
    suboptimal predictive control allows; its record keeps the status and
    the measured constraint violation. A solve that raises a runtime, value
    or arithmetic error (solver callbacks, dictionary evaluation, linear
    algebra) is recorded as ``solver-error`` with the exception text; any
    other exception propagates. Each record names the path that produced its
    decision: the direct solve, the AL solver with Gauss-Newton inner steps
    (``al-gn``), or ``held`` when no solve returned one, and the wall-clock
    time of its warm start and solve. Every solve runs on the reduced form of
    the problem (``OcpBuilder.reduced_form``), the free window slots. A robust
    mode with a positive slack bound, relaxed or exact, takes the direct
    solve, and the AL solver on the bounded problem when the bound is active
    at the direct solution, started there; the record then keeps the
    decision's own slack-bound violation. Nominal mode, and robust mode with
    zero bounds, run the AL solver under the membership equalities, and the
    record keeps the equality violation of the decision.
    """
    mode_stride = spec.d_max if spec.mode == "robust" else 1
    stride = mode_stride if stride is None else stride
    if total_steps % stride != 0:
        raise ValueError(f"total steps must be a multiple of the stride {stride}")
    builder = OcpBuilder(spec)
    # The reduced form holds the builder, so the loop owns it: cached on the
    # builder it would make a reference cycle that outlives the loop.
    form = builder.reduced_form()
    use_direct = isinstance(form, _RelaxedDirect)
    opts = solver_options or _solver.SolverOptions()
    d_max = spec.d_max
    m = spec.structure.m

    w = noise.samples(d_max + total_steps, m)
    hold = spec.u_setpoint if hold_input is None else np.asarray(hold_input, dtype=float)

    log = ClosedLoopLog(
        stride=stride,
        degrees=spec.structure.degrees,
        u_setpoint=spec.u_setpoint.copy(),
        y_setpoint=spec.y_setpoint.copy(),
        bootstrap_steps=d_max,
    )

    x = np.asarray(x0, dtype=float).reshape(-1).copy()
    hist_u = np.empty((d_max, m))
    hist_y = np.empty((d_max, m))

    def record(t, u):
        nonlocal x
        y_clean = plant_model.measure(x)
        y_meas = y_clean + w[t]
        du = u - spec.u_setpoint
        dy = y_clean - spec.y_setpoint
        log.times.append(t - d_max)
        log.inputs.append(u.copy())
        log.outputs_clean.append(y_clean)
        log.outputs_measured.append(y_meas)
        log.stage_costs.append(float(du @ spec.R @ du + dy @ spec.Q @ dy))
        x = np.asarray(plant_model.step(x, u), dtype=float).reshape(-1)
        return y_meas

    for t in range(d_max):
        y_meas = record(t, hold.copy())
        hist_u[t] = hold
        hist_y[t] = y_meas

    prev_decision = None
    prev_applied = np.tile(hold, (stride, 1))

    for t0 in range(0, total_steps, stride):
        if not np.all(np.isfinite(x)):
            raise RuntimeError(f"plant state diverged at step {t0}")
        decision = None
        error = ""
        started = time.perf_counter()
        try:
            warm = None if prev_decision is None else builder.shifted_guess(prev_decision, stride)
            start = warm
            if use_direct:
                decision, info = solve_relaxed_direct(form, hist_u, hist_y, warm)
                if info["bound_ok"]:
                    status, objective = info["status"], info["objective"]
                    iterations, max_violation = info["iterations"], info["max_violation"]
                    path = "direct"
                else:
                    # slack bound active: solve the bounded problem from here
                    start = builder.pack(decision.alpha, decision.u_bar, decision.y_bar)
                    decision = None
            if decision is None:
                report = _solver.solve(form.build(hist_u, hist_y, z0=start), opts)
                decision = form.unpack(report.x)
                status, objective, iterations = report.status, report.objective, report.iterations
                max_violation = form.violation(report.x)
                path = "al-gn"
        except (RuntimeError, ValueError, ArithmeticError) as exc:
            decision = None
            error = f"{type(exc).__name__}: {exc}"
        wall_s = time.perf_counter() - started
        if decision is None:
            decision = prev_decision
            if decision is None:
                # A placeholder that evaluates no dictionary, so it cannot
                # raise: the history, then the setpoint, at the setpoint's alpha.
                u_bar = np.vstack([hist_u, np.tile(spec.u_setpoint, (builder.Lp - d_max, 1))])
                y_bar = [
                    np.concatenate([hist_y[:, i], np.full(n_y - d_max, spec.y_setpoint[i])])
                    for i, n_y in enumerate(builder.y_lens)
                ]
                decision = builder.unpack(builder.pack(builder.alpha_s, u_bar, y_bar))
            status, objective, iterations, max_violation = "solver-error", np.inf, 0, np.inf
            path = "held"
        accept = status == "converged" or max_violation <= 1e-5
        if accept:
            inputs = decision.planned_inputs(d_max, stride)
            prev_decision = decision
        else:
            inputs = prev_applied.copy()
        rec = SolveRecord(
            t=t0,
            status=status,
            path=path,
            objective=objective,
            alpha_l1=decision.alpha_l1,
            sigma_inf=decision.sigma_inf,
            iterations=iterations,
            max_violation=max_violation,
            applied=accept,
            predicted_outputs=[y[d_max:].copy() for y in decision.y_bar],
            wall_s=wall_s,
            decision=decision if keep_decisions else None,
            error=error,
        )
        log.solves.append(rec)
        for j in range(stride):
            u = np.clip(inputs[j], spec.u_min, spec.u_max)
            y_meas = record(d_max + t0 + j, u)
            hist_u = np.vstack([hist_u[1:], u])
            hist_y = np.vstack([hist_y[1:], y_meas])
        prev_applied = inputs.copy()

    return log


def evaluate_runtime_bounds(
    log: ClosedLoopLog,
    eps_star: float,
    w_star: float,
    k_xi: float,
    k_w: float,
    g_norm_inf: float,
) -> list:
    """Pair each applied solve's realized prediction errors with their bound.

    Returns rows ``(solve_time, k, channel, realized, bound)`` for the steps
    each solve actually applied, using that solve's combination-vector and
    slack norms in the error budget.
    """
    rows = []
    y = np.asarray(log.outputs_clean)
    for rec in log.solves:
        if not rec.applied:
            continue
        inputs = ErrorBoundInputs(
            eps_star=eps_star,
            w_star=w_star,
            k_xi=k_xi,
            k_w=k_w,
            g_norm_inf=g_norm_inf,
            alpha_l1=rec.alpha_l1,
            sigma_inf=rec.sigma_inf,
            degrees=log.degrees,
        )
        for k in range(log.stride):
            step = log.bootstrap_steps + rec.t + k
            for i in range(len(log.degrees)):
                realized = abs(y[step, i] - rec.predicted_outputs[i][k])
                bound = prediction_error_bound(inputs, i, k)
                rows.append((rec.t, k, i, realized, bound))
    return rows
