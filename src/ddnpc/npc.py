"""Nominal and robust data-driven predictive controllers.

The optimal control problem couples three decision groups: a combination
vector over the offline data columns, the predicted input window, and the
predicted per-channel output windows (the robust variant adds a slack on the
feature block). The feature block of the data representation is a nonlinear
equality; the state block is linear and, in the robust variant, absorbed into
a derived state slack that is penalized and norm-bounded. Past input/output
samples pin the window head, terminal equalities pin the final window state to
the setpoint, and the input box is enforced on every slot.

Every mode is solved on the free window slots, with the pins as constants, by
one object per problem family (``OcpBuilder``). Robust solves with a positive
slack bound take the direct solve, where the combination vector and the slack
are affine functions of the window's features and states; when its decision
breaks the slack bound, the same form is solved again with the slack weight
raised a decade at a time until the bound holds. Nominal mode, and robust mode
with zero bounds, solve exact membership with the augmented-Lagrangian solver.

The closed-loop runner applies the first ``stride`` inputs of each solve
(one for the nominal single-step scheme, ``d_max`` for the robust multi-step
scheme), warm-starts the next solve by shifting, and logs everything needed
to evaluate the runtime error bounds afterwards.
"""

from __future__ import annotations

import copy
import math
import time
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .plant import BrunovskyStructure, NoiseModel, PlantModel, window_states
from .behavior import (
    DataDictionaryBlocks,
    ErrorBoundInputs,
    WindowFeatures,
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
        if self.L < 1:
            raise ValueError(f"horizon L must be at least 1, got {self.L}")
        for name in ("lambda_alpha", "lambda_sigma", "c_slack"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        m = self.structure.m
        for name in ("Q", "R"):
            weight = np.atleast_2d(np.asarray(getattr(self, name), dtype=float))
            if weight.shape != (m, m):
                raise ValueError(f"{name} must be {m} x {m}, got shape {weight.shape}")
            np.linalg.cholesky(weight)
            setattr(self, name, weight)
        if (self.y_min is None) != (self.y_max is None):
            raise ValueError("y_min and y_max must be given together")
        vectors = ("u_setpoint", "y_setpoint", "u_min", "u_max")
        for name in vectors + (() if self.y_min is None else ("y_min", "y_max")):
            value = np.asarray(getattr(self, name), dtype=float)
            if value.size != m:
                raise ValueError(f"{name} has {value.size} entries; the plant has {m} channels")
            setattr(self, name, value.reshape(m))
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
    def stride(self) -> int:
        """Inputs a loop applies per solve by default: one nominal, ``d_max`` robust."""
        return self.d_max if self.mode == "robust" else 1

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
    """Solution of one receding-horizon problem (absolute units)."""

    alpha: np.ndarray
    u_bar: np.ndarray                 # (L + d_max, m); row 0 is time -d_max
    y_bar: list                       # channel i: (L + d_max + d_i,)
    sigma_psi: Optional[np.ndarray]
    sigma_xi: Optional[np.ndarray]

    # Norms a solve and its record read, taken once per decision.
    @cached_property
    def alpha_l1(self) -> float:
        return float(np.sum(np.abs(self.alpha)))

    @cached_property
    def sigma_inf(self) -> float:
        parts = [s for s in (self.sigma_psi, self.sigma_xi) if s is not None]
        if not parts:
            return 0.0
        return float(max(np.max(np.abs(s)) for s in parts))

    def planned_inputs(self, d_max: int, count: int) -> np.ndarray:
        """First ``count`` inputs of the prediction window (time 0 onward)."""
        return self.u_bar[d_max : d_max + count]


class OcpBuilder:
    """One problem family on the free window slots ``zf``: the window layout,
    the bounds on the free slots (``lo``, ``hi``: the input box, and the
    output box when the spec has one), the pins a measured history sets, the
    cold and warm starts, as free slots, and the problem's rows.
    ``OcpBuilder(spec)`` is the form of the spec's mode: the direct form
    (``_RelaxedDirect``) for a robust mode with a positive slack bound, the
    nominal core (``_NominalCore``) for nominal mode and robust mode with zero
    bounds. A closed loop builds one, so the layout and the ridge anchor are
    computed once per loop.

    A window is one vector ``c = [zf; fixed]``. ``zf`` holds the free input
    slots (time-major), then the free output slots (channel-major); ``fixed``
    holds the input history, then per channel the output history and the
    terminal samples. ``u_idx`` (``(L + d_max, m)``), ``y_idx`` (channel
    ``i``: ``L + d_max + d_i`` entries) and ``xi_idx`` (``(L + d_max + 1,
    n)``) index the input window, the output windows and the window states
    in ``c``.

    The history and terminal pins are the fixed part of the window
    (``pins``), and the stage cost is ``||J_stage @ zf - b_stage||^2``. The
    rest of the problem depends on ``zf`` only through ``g``, the features
    and window states stacked, and each mode makes it affine in ``g`` with
    two constant maps: ``P``, with ``alpha = alpha_s + P @ (g - g_s)``, and
    ``T``, whose image of ``g - g_s`` is the mode's own rows
    (``features.rows``). ``alpha_s`` is the ridge anchor and ``g_s = Hs @
    alpha_s``, ``Hs = [H_psi; H_xi]`` the blocks' ``H_stack``, whose one SVD
    gives both maps. ``build`` poses the mode's problem as an ``NlpProblem``,
    ``unpack`` takes free slots to a decision, and ``solve`` runs the whole
    solve of one measured history.
    """

    def __new__(cls, spec: Optional[OcpSpec] = None):
        # OcpBuilder(spec) makes the form of the spec's mode; a form class
        # makes its own, and so does copy.copy, which passes no spec.
        if cls is OcpBuilder:
            direct = spec.mode == "robust" and spec.slack_bound() > 0
            cls = _RelaxedDirect if direct else _NominalCore
        return super().__new__(cls)

    def __init__(self, spec: OcpSpec, P: np.ndarray, T: np.ndarray):
        self.spec = spec
        st = spec.structure
        self.m, self.n, self.r = st.m, st.n, spec.blocks.r
        self.Lp = spec.horizon_total
        self.L = spec.L
        self.d_max = spec.d_max
        self.degrees = st.degrees
        self.M = spec.blocks.columns
        self.has_sigma = spec.mode == "robust"

        m, L, Lp, d_max = self.m, self.L, self.Lp, self.d_max
        self.y_lens = [Lp + d for d in self.degrees]
        self.n_free = 2 * L * m
        self.u_idx = np.vstack(
            [self.n_free + np.arange(d_max * m).reshape(d_max, m), np.arange(L * m).reshape(L, m)]
        )
        self.y_idx = []
        start = self.n_free + d_max * m
        for i, d in enumerate(self.degrees):
            pinned = start + np.arange(d_max + d)
            start += d_max + d
            free = L * (m + i) + np.arange(L)
            self.y_idx.append(np.concatenate([pinned[:d_max], free, pinned[d_max:]]))
        self.xi_idx = window_states(self.y_idx, st).data.astype(int)
        unboxed = np.full(m, np.inf)
        y_min = -unboxed if spec.y_min is None else spec.y_min
        y_max = unboxed if spec.y_max is None else spec.y_max
        self.lo = np.concatenate([np.tile(spec.u_min, L), np.repeat(y_min, L)])
        self.hi = np.concatenate([np.tile(spec.u_max, L), np.repeat(y_max, L)])
        self.lo.flags.writeable = self.hi.flags.writeable = False  # shared by every solve

        self.H_psi = spec.blocks.H_psi
        self.H_xi = spec.blocks.H_xi
        self.Hs = spec.blocks.H_stack
        # The robust ridge pulls the combination vector toward the one that
        # represents the window resting at the setpoint, so that the setpoint
        # is a zero-cost fixed point; it vanishes when the setpoint's features
        # and window states do.
        self.alpha_s = self._setpoint_alpha() if self.has_sigma else np.zeros(self.M)
        self.P = P
        self.g_s = np.concatenate([self.H_psi @ self.alpha_s, self.H_xi @ self.alpha_s])
        self.T = T
        # g = [psi(c[u_idx], c[xi_idx]); c[xi_idx]] on the window c = [zf; fixed]
        self.features = WindowFeatures(
            spec.blocks.dictionary, self.u_idx, self.xi_idx[:Lp], self.xi_idx.reshape(-1),
            self.n_free, T, self.g_s,
        )

        # Stage rows: the input rows of every prediction time, then the output
        # rows, each the Cholesky factor of its weight on that time's slots.
        L_R = np.linalg.cholesky(spec.R).T
        L_Q = np.linalg.cholesky(spec.Q).T
        self.J_stage = np.zeros((2 * L * m, self.n_free))
        for k in range(L):
            self.J_stage[k * m : (k + 1) * m, k * m : (k + 1) * m] = L_R
            self.J_stage[(L + k) * m : (L + k + 1) * m, L * m + k + L * np.arange(m)] = L_Q
        self.b_stage = np.concatenate(
            [np.tile(L_R @ spec.u_setpoint, L), np.tile(L_Q @ spec.y_setpoint, L)]
        )

    # -- window layout -----------------------------------------------------

    def pins(self, history_u: np.ndarray, history_y: np.ndarray) -> np.ndarray:
        """The fixed part of the window for one measured history: the
        history and the terminal samples at the setpoint."""
        spec = self.spec
        history_y = np.asarray(history_y, dtype=float).reshape(self.d_max, self.m)
        return np.concatenate(
            [np.asarray(history_u, dtype=float).reshape(-1)]
            + [
                np.concatenate([history_y[:, i], np.full(d, spec.y_setpoint[i])])
                for i, d in enumerate(self.degrees)
            ]
        )

    def window(self, u_bar, y_bar) -> np.ndarray:
        """The window ``c`` holding the input window ``u_bar`` and the output
        windows ``y_bar``."""
        c = np.empty(self.u_idx.size + sum(self.y_lens))
        c[self.u_idx] = u_bar
        for idx, y in zip(self.y_idx, y_bar):
            c[idx] = y
        return c

    def window_decision(self, alpha, c, sigma_psi=None) -> OcpDecision:
        """The decision with combination vector ``alpha`` and window ``c``,
        its windows read into copies. A robust decision carries the feature
        slack ``sigma_psi``, zero when None, and the state slack ``H_xi alpha
        - xi``, ``xi`` the window states ``c[xi_idx]``; a nominal one carries
        no slack, and its window states are not gathered."""
        alpha = np.array(alpha, dtype=float)
        sigma_xi = None
        if not self.has_sigma:
            sigma_psi = None
        else:
            sigma_psi = np.zeros(self.r * self.Lp) if sigma_psi is None else np.array(sigma_psi)
            sigma_xi = self.H_xi @ alpha - c[self.xi_idx].reshape(-1)
        return OcpDecision(
            alpha=alpha,
            u_bar=c[self.u_idx],
            y_bar=[c[idx] for idx in self.y_idx],
            sigma_psi=sigma_psi,
            sigma_xi=sigma_xi,
        )

    # -- problem on the free slots -----------------------------------------

    def set_history(self, history_u, history_y):
        self.features.set_fixed(self.pins(history_u, history_y))

    def _start(self, history_u, history_y, guess):
        """Set the history and return the free slots ``guess``, the cold
        start when it is None."""
        self.set_history(history_u, history_y)
        return self.initial_guess(history_y) if guess is None else guess

    def build(self, history_u: np.ndarray, history_y: np.ndarray, guess=None):
        """The mode's problem for one measured history, as an ``NlpProblem``
        on the free slots within ``lo`` and ``hi``: the membership problem of
        the nominal core, or the direct form's least-squares problem with its
        slack bound dropped. The problem alone: ``solve`` runs the whole
        solve and returns the decision.

        ``history_u`` and ``history_y`` hold the last ``d_max`` applied inputs
        and measured outputs, oldest first. ``guess`` holds the free slots
        that start the solve (``initial_guess``, ``shifted_guess``), the cold
        start when None: a start is its free slots, since every form derives
        the rest of the decision from them.
        """
        return _solver.NlpProblem(
            x0=self._start(history_u, history_y, guess), lower=self.lo, upper=self.hi,
            **self._callbacks(),
        )

    def stage_residual(self, zf):
        return self.J_stage @ zf - self.b_stage

    def combination(self, zf):
        """The combination vector at the free slots ``zf``: ``alpha_s + P @
        (g - g_s)``."""
        return self.alpha_s + self.P @ (self.features.stacked(zf) - self.g_s)

    def unpack(self, zf: np.ndarray) -> OcpDecision:
        """The decision at the free slots ``zf``: the combination vector
        ``alpha_s + P @ (g - g_s)`` and, in robust mode, the feature slack
        that closes the feature rows."""
        alpha = self.combination(zf)
        sigma_psi = None
        if self.has_sigma:
            sigma_psi = self.H_psi @ alpha - self.features.stacked(zf)[: self.features.n_psi]
        return self.window_decision(alpha, self.features.window(zf), sigma_psi)

    # -- starts -------------------------------------------------------------

    def _setpoint_alpha(self):
        """Pseudo-inverse combination vector of the window resting at the
        setpoint."""
        spec = self.spec
        u_bar = np.tile(spec.u_setpoint, (self.Lp, 1))
        y_bar = [np.full(n, spec.y_setpoint[i]) for i, n in enumerate(self.y_lens)]
        c = self.window(u_bar, y_bar)
        xi = c[self.xi_idx]
        psi = spec.blocks.dictionary.value_batch(c[self.u_idx], xi[: self.Lp])
        return spec.blocks.H_stack_pinv @ np.concatenate([psi.reshape(-1), xi.reshape(-1)])

    def initial_guess(self, history_y) -> np.ndarray:
        """Cold start, as free slots: the input setpoint, then each output
        ramped from its last measured value to the setpoint."""
        spec, L = self.spec, self.L
        last = np.asarray(history_y, dtype=float).reshape(self.d_max, self.m)[-1]
        ramps = [np.linspace(last[i], spec.y_setpoint[i], L + 1)[1:] for i in range(self.m)]
        return np.concatenate([np.tile(spec.u_setpoint, L), *ramps])

    def shifted_guess(self, decision: OcpDecision, shift: int) -> np.ndarray:
        """Warm start, as free slots: the input and output windows of
        ``decision`` advanced ``shift`` steps, the setpoint padded at the
        tail."""
        spec, d = self.spec, self.d_max
        u_bar = np.vstack([decision.u_bar[shift:], np.tile(spec.u_setpoint, (shift, 1))])
        y_free = [
            np.concatenate([y[shift:], np.full(shift, spec.y_setpoint[i])])[d : self.Lp]
            for i, y in enumerate(decision.y_bar)
        ]
        return np.concatenate([u_bar[d:].reshape(-1), *y_free])


def _direct_maps(svd, rs: float, ra: float):
    """The direct form's ``P`` and ``T`` at the slack weight ``rs`` and the
    ridge weight ``ra``: diagonal filters of the stack's SVD ``svd``
    (``DataDictionaryBlocks.H_stack_svd``)."""
    U, s, Vt, rank = svd
    s = s[:rank]
    d = (rs * s) ** 2 + ra**2
    d[d == 0] = np.inf  # both weights zero: P and T vanish
    t = np.full(U.shape[0], rs)
    t[:rank] = rs * ra / np.sqrt(d)
    return (Vt[:rank].T * (rs * rs * s / d)) @ U[:, :rank].T, t[:, None] * U.T


class _RelaxedDirect(OcpBuilder):
    """Variable-projection form of the robust problem with its slack bound
    dropped, both slack modes.

    On the free slots, the feature equality pins the feature slack, and for
    fixed windows the remaining objective is a ridge least-squares in the
    combination vector; both are eliminated with one precomputed linear map
    ``P``. What is left is a small bounded nonlinear least-squares over the
    free slots. It is the robust problem whenever the slack bound is
    inactive at the optimum, which is checked afterwards; where it is not,
    ``solve`` raises the slack weight until the bound holds.

    The residual is the stage rows followed by ``T @ (g - g_s)``.
    ``C = [ra P; rs (Hs P - I)]`` maps ``g - g_s`` to the ridge, feature
    slack and state slack rows, and ``T^T T = C^T C``, so the cost, ``J^T
    J`` and ``J^T r`` equal those of the uncompressed residual and every
    Gauss-Newton step is unchanged. Both maps are diagonal filters of the
    blocks' SVD ``Hs = U diag(s) V^T`` (``H_stack_svd``; Tikhonov filter
    factors): ``P = V diag(rs^2 s / (rs^2 s^2 + ra^2)) U^T`` and ``T =
    diag(t) U^T``, with ``t = rs ra / sqrt(rs^2 s^2 + ra^2)`` for the first
    ``rank`` singular values and ``t = rs`` past them.
    """

    def __init__(self, spec: OcpSpec):
        if spec.mode != "robust" or spec.slack_bound() <= 0:
            raise ValueError("direct solve needs robust mode with a positive slack bound")

        # For fixed windows, alpha = a_s + P @ (g - Hs a_s) minimizes
        # rs^2*||Hs a - g||^2 + ra^2*||a - a_s||^2.
        self.rs = math.sqrt(spec.lambda_sigma)
        self.ra = math.sqrt(spec.lambda_alpha * spec.slack_level)
        super().__init__(spec, *_direct_maps(spec.blocks.H_stack_svd, self.rs, self.ra))

    def weighted(self, lambda_sigma: float) -> "_RelaxedDirect":
        """This form with the slack weight ``lambda_sigma``: new filters of the
        same SVD, and a feature core of its own."""
        form = copy.copy(self)
        form.rs = math.sqrt(lambda_sigma)
        form.P, form.T = _direct_maps(self.spec.blocks.H_stack_svd, form.rs, self.ra)
        form.features = self.features.with_rows(form.T)
        return form

    def residual(self, zf):
        n_stage = self.J_stage.shape[0]
        r = np.empty(n_stage + self.T.shape[0])
        np.matmul(self.J_stage, zf, out=r[:n_stage])
        r[:n_stage] -= self.b_stage
        self.features.rows(zf, out=r[n_stage:])
        return r

    def jacobian(self, zf):
        n_stage = self.J_stage.shape[0]
        J = np.empty((n_stage + self.T.shape[0], self.n_free))
        J[:n_stage] = self.J_stage
        self.features.jacobian(zf, out=J[n_stage:])
        return J

    def _callbacks(self):
        # least squares alone, constrained only by the bounds on the free slots
        return {"ls_residual": self.residual, "ls_jacobian": self.jacobian}

    def cost(self, zf, decision: OcpDecision) -> float:
        """The robust problem's cost at ``decision``, whose free slots are
        ``zf``: the stage rows, the ridge rows and the slack rows, at the
        spec's weights."""
        stage = self.stage_residual(zf)
        ridge = decision.alpha - self.alpha_s
        sigma = np.concatenate([decision.sigma_psi, decision.sigma_xi])
        return float(stage @ stage + self.ra**2 * (ridge @ ridge) + self.rs**2 * (sigma @ sigma))

    def violation(self, zf, decision: OcpDecision) -> float:
        """Slack-bound violation of ``decision`` (unpacked from ``zf``), the
        bound taken at its own ``||alpha||_1``."""
        return max(0.0, decision.sigma_inf - self.spec.slack_bound(decision.alpha_l1))

    def solve(self, history_u, history_y, guess):
        """The direct solve (``solve_relaxed_direct``, path ``direct``). When
        its decision breaks the slack bound, the slack-weight continuation
        (path ``fallback``): decade ``k`` solves the form again at
        ``lambda_sigma * 10^k`` from the free slots of the decade before (the
        direct solution's for the first), which pulls the windows toward the
        span of the data. It stops at the first decade whose decision meets
        the bound at its own ``||alpha||_1``, or, still ``bound-active``, at
        the first decade that does not lower ``sigma_inf``, keeping the
        decision of the decade before. Returns ``(decision, status,
        objective, iterations, max_violation, path)``: the objective at the
        spec's weights, the residual evaluations of every decade."""
        decision, info = solve_relaxed_direct(self, history_u, history_y, guess)
        path, iterations, decade = "direct", info["iterations"], 0
        while info["status"] == "bound-active":
            path, decade = "fallback", decade + 1
            form = self.weighted(self.spec.lambda_sigma * 10.0**decade)
            next_decision, next_info = solve_relaxed_direct(form, history_u, history_y, info["zf"])
            iterations += next_info["iterations"]
            if not next_decision.sigma_inf < decision.sigma_inf:
                break
            decision, info = next_decision, next_info
        objective = info["objective"] if decade == 0 else self.cost(info["zf"], decision)
        return decision, info["status"], objective, iterations, info["max_violation"], path


class _NominalCore(OcpBuilder):
    """Exact membership on the free slots: nominal mode, and robust mode with
    zero slack bounds.

    Exact membership asks that ``g`` lie in the span of ``Hs = [H_psi;
    H_xi]``. ``Hs`` is rank-deficient, so membership is the few equalities
    ``N^T g = 0``, with the columns of ``N`` an orthonormal basis of its left
    null space, and the combination vector is ``alpha_s + pinv(Hs) @ (g -
    g_s)``, the member closest to the ridge anchor (``pinv(Hs) @ g`` in
    nominal mode, whose anchor is zero). ``N^T`` and ``pinv(Hs)`` are the
    blocks' read-only ``H_stack_null`` and ``H_stack_pinv``, read from their
    one SVD of ``Hs``. ``build`` poses that problem to the augmented-Lagrangian
    solver with the stage rows as its least-squares objective; ``violation``
    is the equality violation of the decision a solution unpacks to.
    """

    def __init__(self, spec: OcpSpec):
        super().__init__(spec, spec.blocks.H_stack_pinv, spec.blocks.H_stack_null)

    def _callbacks(self):
        # the stage rows as the objective, the membership rows as equalities
        return {
            "ls_residual": self.stage_residual, "ls_jacobian": lambda zf: self.J_stage,
            "eq_residual": self.features.rows, "eq_jacobian": self.features.jacobian,
        }

    def violation(self, zf, decision: OcpDecision) -> float:
        """``||Hs alpha - g||_inf`` of ``decision``, unpacked from ``zf``: its
        equality violation, the pins and bounds being exact."""
        return float(np.max(np.abs(self.Hs @ decision.alpha - self.features.stacked(zf))))

    def solve(self, history_u, history_y, guess):
        """Solve the membership problem for one measured history from the
        free slots ``guess`` (the cold start when None): the AL solver on
        ``build``'s problem. Returns ``(decision, status, objective,
        iterations, max_violation, path)``, with the decision's measured
        violation (``violation``) and the path ``al-gn``."""
        report = _solver.solve(self.build(history_u, history_y, guess))
        decision = self.unpack(report.x)
        max_violation = self.violation(report.x, decision)
        return decision, report.status, report.objective, report.iterations, max_violation, "al-gn"


# Residual evaluations a direct solve may spend.
DIRECT_MAXITER = 60


def solve_relaxed_direct(
    direct: _RelaxedDirect,
    history_u,
    history_y,
    guess: Optional[np.ndarray] = None,
):
    """Solve the robust problem with its slack bound dropped, by slack and
    combination elimination, and check the bound afterwards.

    ``direct`` is the problem's direct form (``OcpBuilder(spec)`` of a
    robust mode with a positive slack bound), or that form at a raised slack
    weight (``_RelaxedDirect.weighted``); its ``solve`` calls this, once per
    decade of its continuation. A closed loop owns its form, so that the
    form is set up once per loop. ``guess`` holds the free slots that start
    the solve, as for ``OcpBuilder.build``. Returns ``(decision, info)``
    where ``info`` carries the objective at the form's weights, solver
    iterations, the status, the measured constraint violation and the
    solution's free slots ``zf``. The status is ``bound-active`` when the
    decision breaks the slack bound, by any amount; the form's ``solve``
    then continues from ``zf``. The solver, ``solver.reduced_lsq``
    (box-constrained Levenberg-Marquardt), keeps the free slots inside the
    form's bounds (the input box, and the output box when the spec has
    one) and the feature equality holds by construction, so the only
    constraint that can be violated is the slack bound: ``max_violation =
    max(0, sigma_inf - bound)`` (the form's ``violation``), with the mode's
    bound (``OcpSpec.slack_bound``) at the decision's own ``||alpha||_1``.
    ``DIRECT_MAXITER`` bounds the solver's residual evaluations.
    """
    zf0 = direct._start(history_u, history_y, guess)
    res = _solver.reduced_lsq(
        direct.residual, direct.jacobian, zf0, direct.lo, direct.hi, DIRECT_MAXITER, 1e-10
    )
    decision = direct.unpack(res.x)
    max_violation = direct.violation(res.x, decision)
    if max_violation > 0.0:
        status = "bound-active"
    elif res.converged:
        status = "converged"
    else:
        status = "max-iter"
    info = {
        "objective": res.objective,
        "iterations": res.nfev,
        "status": status,
        "max_violation": max_violation,
        "zf": res.x,
    }
    return decision, info


# ---------------------------------------------------------------------------
# Closed loop
# ---------------------------------------------------------------------------


@dataclass
class SolveRecord:
    t: int
    status: str
    path: str                        # direct | fallback | al-gn | held
    objective: float
    alpha_l1: float
    sigma_inf: float
    iterations: int
    max_violation: float
    applied: bool
    predicted_outputs: list          # channel i: prediction times 0..L+d_i-1
    wall_s: float                    # warm start and solve, wall-clock seconds
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


def run_closed_loop(
    spec: OcpSpec,
    plant_model: PlantModel,
    noise: NoiseModel,
    x0: np.ndarray,
    total_steps: int,
    stride: Optional[int] = None,
    hold_input: Optional[np.ndarray] = None,
) -> ClosedLoopLog:
    """Receding-horizon loop on a ground-truth plant.

    Before the first solve the plant is pre-rolled ``d_max`` steps holding
    ``hold_input`` (default: the input setpoint) to populate the history
    pins. Measurement noise affects only what the controller sees; the clean
    outputs are logged alongside for evaluation. A solve is applied when it
    converged, or when it stopped at its iteration limit within 1e-5 of
    feasibility, as suboptimal predictive control allows; its record keeps
    the status and the measured constraint violation. Any other solve, a
    robust decision that breaks its slack bound (``bound-active``) among
    them, is not applied: the previous input is held for one stride and the
    event is flagged in the log. A solve that raises a runtime, value or
    arithmetic error (solver callbacks, dictionary evaluation, linear
    algebra) is recorded as ``solver-error`` with the exception text; any
    other exception propagates. Each record names the path that produced its
    decision: the direct solve, its slack-weight continuation
    (``fallback``), the AL solver with Gauss-Newton inner steps (``al-gn``),
    or ``held`` when no solve returned one, and the wall-clock time of its
    warm start and solve. Every solve is the ``solve`` of the loop's one
    form (``OcpBuilder(spec)``), on the free window slots, from the history
    of the log's last ``d_max`` inputs and measured outputs. A robust mode
    with a positive slack bound, relaxed or exact, takes the direct solve,
    and when its decision breaks the bound, the direct form again at a
    slack weight raised a decade at a time, from the free slots of the solve
    before; the record keeps the decision's own slack-bound violation.
    Nominal mode, and robust mode with zero bounds, run the AL solver under
    the membership equalities, and the record keeps the equality violation
    of the decision.
    """
    stride = spec.stride if stride is None else stride
    if stride < 1 or total_steps < 0 or total_steps % stride:
        raise ValueError(f"need a stride >= 1 dividing the steps >= 0, got {stride}, {total_steps}")
    form = OcpBuilder(spec)
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

    for t in range(d_max):
        record(t, hold.copy())

    prev_decision = None
    prev_applied = np.tile(hold, (stride, 1))

    for t0 in range(0, total_steps, stride):
        if not np.all(np.isfinite(x)):
            raise RuntimeError(f"plant state diverged at step {t0}")
        history = log.inputs[-d_max:], log.outputs_measured[-d_max:]
        error = ""
        started = time.perf_counter()
        try:
            warm = None if prev_decision is None else form.shifted_guess(prev_decision, stride)
            decision, status, objective, iterations, max_violation, path = form.solve(
                *history, warm
            )
        except (RuntimeError, ValueError, ArithmeticError) as exc:
            decision = None
            error = f"{type(exc).__name__}: {exc}"
        wall_s = time.perf_counter() - started
        if decision is None:
            decision = prev_decision
            if decision is None:
                # A placeholder that evaluates no dictionary, so it cannot
                # raise: the setpoint in every free slot, at the setpoint's alpha.
                rest = [np.tile(spec.u_setpoint, spec.L), np.repeat(spec.y_setpoint, spec.L)]
                c = np.concatenate([*rest, form.pins(*history)])
                decision = form.window_decision(form.alpha_s, c)
            status, objective, iterations, max_violation = "solver-error", np.inf, 0, np.inf
            path = "held"
        accept = status == "converged" or status == "max-iter" and max_violation <= 1e-5
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
            error=error,
        )
        log.solves.append(rec)
        for j in range(stride):
            record(d_max + t0 + j, np.clip(inputs[j], spec.u_min, spec.u_max))
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
