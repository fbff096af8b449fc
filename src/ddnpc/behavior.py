"""Data-based trajectory representation, simulation and output matching.

The key object stacks two Hankel matrices built from one offline trajectory:
the dictionary features evaluated along the data on top, the window states
below. A candidate input/output window belongs to the plant behavior exactly
when some combination vector reproduces both its feature sequence and its
state sequence from those blocks; simulation and output matching solve
regularized least-squares problems over that combination vector and come with
computable per-step error bounds.

Simulation and matching share one solve. Once the window's free samples (the
predicted outputs in simulation, the inputs in matching) are fixed, the
combination vector solves a ridge least squares with constant matrices and
linear equalities, so it is eliminated in closed form and the nonlinear solve
runs over those ``L*m`` samples only.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .trajlib import Sequence, build_hankel, is_persistently_exciting
from .plant import BrunovskyStructure, Trajectory, window_states
from .basis import BasisDictionary, evaluate_along
from . import solver as _solver


class InfeasibleInitialConditionError(RuntimeError):
    """The requested window is not reachable from the data: its initial state,
    or the free samples the solve settles on."""


class DictionaryLacksInputError(ValueError):
    """Output matching needs the raw input as the leading dictionary entries."""


class ConvergenceError(RuntimeError):
    """The simulation or output-matching solve did not converge."""

    def __init__(self, message: str, gradient_norm: float):
        super().__init__(f"{message} (final gradient norm {gradient_norm:.3e})")
        self.gradient_norm = gradient_norm


# ---------------------------------------------------------------------------
# Hankel blocks of one offline trajectory
# ---------------------------------------------------------------------------


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class DataDictionaryBlocks:
    """Feature and state Hankel blocks of one recorded trajectory.

    ``H_psi`` has depth ``horizon`` over the feature sequence, ``H_xi`` depth
    ``horizon + 1`` over the window states; both share their column count.
    Whether the feature sequence is persistently exciting of order
    ``horizon + n`` is recorded at construction.

    Every controller on these blocks reads the stack ``[H_psi; H_xi]``
    (``H_stack``) through one full SVD (``H_stack_svd``), taken on first use
    and kept here, read-only, so each data set factors its stack once however
    many closed loops run on it. Its pseudo-inverse (``H_stack_pinv``), its
    left null space (``H_stack_null``) and the robust ridge map are read from
    that SVD. A copy made by ``dataclasses.replace`` starts without them.
    """

    horizon: int
    structure: BrunovskyStructure
    dictionary: BasisDictionary
    H_psi: np.ndarray
    H_xi: np.ndarray
    H_u: np.ndarray
    H_y: list
    pe_ok: bool

    @property
    def columns(self) -> int:
        return self.H_psi.shape[1]

    @property
    def r(self) -> int:
        return self.dictionary.r

    @classmethod
    def from_trajectory(
        cls,
        dictionary: BasisDictionary,
        traj: Trajectory,
        horizon: int,
        use_noisy: bool = False,
    ) -> "DataDictionaryBlocks":
        xi_seq = traj.xi_noisy if use_noisy else traj.xi
        outputs = traj.outputs_noisy if use_noisy else traj.outputs
        N = traj.N
        feats = evaluate_along(dictionary, traj.u, xi_seq.data[:N])
        feat_seq = Sequence(feats)
        H_psi = build_hankel(feat_seq, horizon)
        H_xi = build_hankel(xi_seq, horizon + 1)
        if H_psi.shape[1] != H_xi.shape[1]:
            raise ValueError("feature and state Hankel column counts disagree")
        H_u = build_hankel(Sequence(traj.u), horizon)
        H_y = [
            build_hankel(Sequence(y), horizon + d)
            for y, d in zip(outputs, traj.structure.degrees)
        ]
        order = horizon + traj.structure.n
        pe_ok = N >= order and is_persistently_exciting(feat_seq, order).is_pe
        return cls(
            horizon=horizon,
            structure=traj.structure,
            dictionary=dictionary,
            H_psi=H_psi,
            H_xi=H_xi,
            H_u=H_u,
            H_y=H_y,
            pe_ok=pe_ok,
        )

    @cached_property
    def _window_factors(self) -> dict:
        """Factors of ``_fit_window`` that depend on the blocks alone, keyed
        by query kind and ridge weight."""
        return {}

    @cached_property
    def H_stack(self) -> np.ndarray:
        """The stacked blocks ``[H_psi; H_xi]``."""
        return _read_only(np.vstack([self.H_psi, self.H_xi]))

    @cached_property
    def H_stack_svd(self) -> tuple:
        """``(U, s, Vt, rank)``: the full SVD of ``H_stack``, read-only, with
        the rank at ``np.linalg.matrix_rank``'s default tolerance. Singular
        values past the rank count as zero."""
        U, s, Vt = np.linalg.svd(self.H_stack)
        tol = s.max() * max(self.H_stack.shape) * np.finfo(s.dtype).eps
        rank = int(np.count_nonzero(s > tol))
        return _read_only(U), _read_only(s), _read_only(Vt), rank

    @cached_property
    def H_stack_pinv(self) -> np.ndarray:
        """Pseudo-inverse of ``H_stack``, ``V_r diag(1/s_r) U_r^T`` from its SVD."""
        U, s, Vt, rank = self.H_stack_svd
        return _read_only(Vt[:rank].T @ (U[:, :rank].T / s[:rank, None]))

    @cached_property
    def H_stack_null(self) -> np.ndarray:
        """Orthonormal rows spanning the left null space of ``H_stack``, ``U[:, rank:].T``."""
        U, _, _, rank = self.H_stack_svd
        return U[:, rank:].T

    def xi_block_row(self, k: int) -> np.ndarray:
        """Rows of state block ``k``: the map from a combination vector to the
        implied window state at step ``k``."""
        n = self.structure.n
        return self.H_xi[k * n : (k + 1) * n, :]


# ---------------------------------------------------------------------------
# Error-bound calculators
# ---------------------------------------------------------------------------


def geometric_sum(ratio: float, k: int) -> float:
    """Sum ``1 + ratio + ... + ratio**k``, stable near ratio one."""
    if k < 0:
        raise ValueError("k must be a non-negative integer")
    if ratio < 0:
        raise ValueError("ratio must be non-negative")
    if abs(ratio - 1.0) <= 1e-12:
        return float(k + 1)
    return float((1.0 - ratio ** (k + 1)) / (1.0 - ratio))


@dataclass(frozen=True)
class ErrorBoundInputs:
    """Constants entering the closed-loop prediction error bound."""

    eps_star: float
    w_star: float
    k_xi: float
    k_w: float
    g_norm_inf: float
    alpha_l1: float
    sigma_inf: float
    degrees: tuple

    def __post_init__(self):
        vals = (
            self.eps_star,
            self.w_star,
            self.k_xi,
            self.k_w,
            self.g_norm_inf,
            self.alpha_l1,
            self.sigma_inf,
        )
        if any(v < 0 for v in vals):
            raise ValueError("error-bound inputs must be non-negative")

    @property
    def d_max(self) -> int:
        return int(max(self.degrees))


def prediction_error_bound(inputs: ErrorBoundInputs, channel: int, k: int) -> float:
    """Bound on the gap between an optimal predicted output and the output the
    plant actually produces under the optimal input, ``k`` steps into the
    prediction window of the given channel.

    The bound is the geometric factor in the state Lipschitz constant times
    the one-step error budget from approximation error, measurement noise and
    slack.
    """
    d_i = inputs.degrees[channel]
    if k < 0:
        raise ValueError("step index must be non-negative")
    budget = (
        inputs.eps_star * (1.0 + inputs.alpha_l1)
        + (1.0 + inputs.k_w) * inputs.w_star * inputs.alpha_l1
        + (1.0 + inputs.g_norm_inf) * inputs.sigma_inf
    )
    return geometric_sum(inputs.k_xi, k + inputs.d_max - d_i) * budget


# ---------------------------------------------------------------------------
# Simulation and output matching: one solve over the free window samples
# ---------------------------------------------------------------------------


@dataclass
class WindowFit:
    """What both data-driven window fits return, simulation and matching."""

    alpha: np.ndarray
    residual_sq: float            # squared feature mismatch at the optimum
    bounds: list                  # channel i: (L + d_i,) per-step error bound
    alpha_l1: float
    objective: float              # residual_sq plus the ridge term
    gradient_norm: float
    iterations: int               # residual evaluations of the solve


@dataclass
class SimulationResult(WindowFit):
    outputs: list                 # channel i: (L + d_i,), the predicted outputs


@dataclass
class MatchingResult(WindowFit):
    u: np.ndarray                 # (L, m), the recovered input


class WindowFeatures:
    """Feature rows of a window ``c = [v; fixed]`` with free samples ``v``.

    The dictionary argument at window step ``k`` is ``(c[u_idx[k]],
    c[xi_idx[k]])``, and ``h = [psi; c[lin_idx]]`` stacks the features of
    every step over the window entries the rows take linearly. The rows are
    ``R @ (h - offset)`` and their jacobian in ``v`` is ``R_psi @ dpsi + R_lin
    @ D_lin``, with ``dpsi`` the feature jacobian and ``D_lin`` the constant
    selection of the free entries of ``c[lin_idx]``. A new point gets values
    and partials from one dictionary pass; the solvers ask for the jacobian at
    the point they last evaluated, so the partials are kept for it and
    scattered into ``dpsi`` only when asked.
    """

    def __init__(self, dictionary, u_idx, xi_idx, lin_idx, n_free, R, offset=0.0):
        self.dictionary = dictionary
        self.u_idx, self.xi_idx, self.lin_idx = u_idx, xi_idx, lin_idx
        self.n_free = n_free
        self.n_psi = dictionary.r * u_idx.shape[0]
        self.D_lin = (lin_idx[:, None] == np.arange(n_free)).astype(float)
        self.R, self.offset = R, offset
        self.R_psi = R[:, : self.n_psi]
        self.RD_lin = R[:, self.n_psi :] @ self.D_lin
        # Scatter of the dictionary jacobian (K, r, m + n) into dpsi: argument
        # j at step k feeds column arg[k, j] when that entry is free. No
        # column appears twice in one step, so each entry gets one value.
        arg = np.hstack([u_idx, xi_idx])
        k, j = np.nonzero(arg < n_free)
        rows = k[:, None] * dictionary.r + np.arange(dictionary.r)
        src = rows * arg.shape[1] + j[:, None]
        dst = rows * n_free + arg[k, j][:, None]
        self._scatter = dst.ravel(), src.ravel()  # flat indices into dpsi and the raw jacobian
        self.fixed = None
        self._c = None  # the window of the latest pass, its free part rewritten by the next
        self._last = None  # [v's bytes, h, raw jacobian, dpsi or None] of the latest pass

    def with_rows(self, R):
        """A copy with the rows ``R``, which keeps no point of this one."""
        core = copy.copy(self)
        core.R, core.R_psi = R, R[:, : self.n_psi]
        core.RD_lin = R[:, self.n_psi :] @ self.D_lin
        core.set_fixed(self.fixed)
        return core

    def with_last_column(self, col, fixed):
        """A copy with ``col`` as the last column of ``R``, which the jacobian
        never reads when the last stacked entry is the window's constant."""
        core = copy.copy(self)
        core.R = np.column_stack([self.R[:, :-1], col])
        core.set_fixed(fixed)
        return core

    def set_fixed(self, fixed):
        """Set the fixed part of the window; the same ``v`` under other fixed
        entries has other features."""
        self.fixed = fixed
        self._c = self._last = None

    def window(self, v):
        return np.concatenate([v, self.fixed])

    def _evaluate(self, v):
        key = v.tobytes()  # a point is the latest one when its bytes are
        last = self._last
        if last is None or last[0] != key:
            if self._c is None:
                self._c = self.window(v)
            else:
                self._c[: self.n_free] = v
            c = self._c
            psi, jac = self.dictionary.value_and_jacobian_batch(c[self.u_idx], c[self.xi_idx])
            last = self._last = [key, np.concatenate([psi.reshape(-1), c[self.lin_idx]]), jac, None]
        return last

    def stacked(self, v):
        """``h`` at ``v``."""
        return self._evaluate(v)[1]

    def rows(self, v, out=None):
        """The rows at ``v``, written into ``out`` when given."""
        return np.matmul(self.R, self.stacked(v) - self.offset, out=out)

    def dpsi(self, v):
        """Jacobian of the stacked features in ``v``."""
        last = self._evaluate(v)
        if last[3] is None:
            dst, src = self._scatter
            d = np.zeros(self.n_psi * self.n_free)
            d[dst] = last[2].reshape(-1)[src]
            last[3] = d.reshape(self.n_psi, self.n_free)
        return last[3]

    def jacobian(self, v, out=None):
        """Jacobian of the rows, written into ``out`` when given."""
        out = np.matmul(self.R_psi, self.dpsi(v), out=out)
        out += self.RD_lin
        return out


@dataclass(frozen=True)
class _WindowFactors:
    """The read-only part of ``_fit_window`` that depends on the blocks and
    the query kind alone: ``a = K [h[:-1]; s]`` and ``C = [Q0 R0 | C_s s]``."""

    A: np.ndarray  # [H_psi; S], the rows the cost compares
    E: np.ndarray  # [V; H_xi0], the rows the window pins
    K: np.ndarray
    C_s: np.ndarray
    Q0: np.ndarray
    H0_pinv: np.ndarray  # pinv(H_xi0), which maps xi0 to the start's combination vector
    features: WindowFeatures  # R = [[R0, 0], [0, 0]]

    def __post_init__(self):
        for a in (*vars(self).values(), *vars(self.features).values()):
            if isinstance(a, np.ndarray):
                a.flags.writeable = False


def _kind_factors(blocks, what, reg) -> _WindowFactors:
    """Build the factors of query kind ``what`` at ridge weight ``reg`` and
    keep them on ``blocks``."""
    from scipy.linalg import block_diag

    L, st = blocks.horizon, blocks.structure
    m, n = st.m, st.n
    H0 = blocks.xi_block_row(0)
    if what == "simulation":
        # c = [y; xi0; u]: output channel i is its entries of the initial
        # window state, then its L free samples.
        V = np.vstack([Hy[d:] for Hy, d in zip(blocks.H_y, st.degrees)])
        S, n_fixed = H0, n + L * m
        y_idx = [
            np.concatenate([L * m + off + np.arange(d), i * L + np.arange(L)])
            for i, (off, d) in enumerate(zip(st.channel_offsets(), st.degrees))
        ]
        u_idx = L * m + n + np.arange(L * m).reshape(L, m)
        xi_idx = window_states(y_idx, st).data[:L].astype(int)
    else:
        # c = [u; xi_bar[:L]], with the reference's whole state window fixed
        V, S, n_fixed = blocks.H_u, blocks.H_xi, L * n
        u_idx = np.arange(L * m).reshape(L, m)
        xi_idx = L * m + np.arange(L * n).reshape(L, n)

    n_psi, n_v, n_s = blocks.H_psi.shape[0], V.shape[0], S.shape[0]
    A, E = np.vstack([blocks.H_psi, S]), np.vstack([V, H0])
    # T @ [h[:-1]; s] is the target of A @ a, E_h @ [h[:-1]; s] the right side of E @ a.
    T = block_diag(np.eye(n_psi), np.zeros((0, n_v)), np.eye(n_s))
    E_h = block_diag(np.zeros((0, n_psi)), np.eye(n_v), np.eye(n, n_s))
    # a = E^+ e + N b with N spanning the null space of E; since E^+ e is
    # orthogonal to N, b solves a ridge least squares in N. Both come from one
    # full SVD of E, with the rank at matrix_rank's default tolerance.
    U, sv, Vt = np.linalg.svd(E)
    rank = int(np.count_nonzero(sv > sv.max() * max(E.shape) * np.finfo(sv.dtype).eps))
    N, E_pinv = Vt[rank:].T, Vt[:rank].T @ (U[:, :rank].T / sv[:rank, None])
    G = np.linalg.pinv(np.vstack([A @ N, math.sqrt(reg) * np.eye(N.shape[1])]))
    K = E_pinv @ E_h + N @ (G[:, : A.shape[0]] @ (T - A @ E_pinv @ E_h))
    C = np.vstack([A @ K - T, math.sqrt(reg) * K])
    Q0, R0 = np.linalg.qr(C[:, : n_psi + n_v])
    lin_idx = np.append(np.arange(n_v), n_v + n_fixed)
    features = WindowFeatures(blocks.dictionary, u_idx, xi_idx, lin_idx, n_v, block_diag(R0, 0.0))
    factors = blocks._window_factors[what, reg] = _WindowFactors(
        A, E, K, C[:, n_psi + n_v :], Q0, np.linalg.pinv(H0), features
    )
    return factors


def _appended_column(Q, c):
    """Last column ``[Q^T c; rho]`` of the triangle of ``[Q R0 | c]``, ``rho``
    the distance of ``c`` from ``span(Q)``, projected twice ("twice is enough")."""
    q = Q.T @ c
    w = c - Q @ q
    dq = Q.T @ w
    return np.append(q + dq, np.linalg.norm(w - Q @ dq))


def _fit_window(blocks, what, s, fixed, gain, lambda_alpha, eps_star, k_xi):
    """Fit a combination vector to a query window with ``L*m`` free samples.

    The free samples ``v = V @ alpha`` are the predicted outputs in
    simulation and the inputs in matching. The dictionary argument
    ``(u_k, xi_k)`` at window step ``k`` is ``(c[u_idx[k]], c[xi_idx[k]])``
    with ``c = [v; fixed; 1]``. The problem is

        min ||H_psi a - psi(v)||^2 + ||S a - s||^2 + lambda_alpha*eps_star*||a||^2
        s.t. V a = v,  H_xi0 a = xi0,

    where ``S`` holds the state rows the query fixes, the initial window
    state's first, and ``s`` their values.
    For fixed ``v`` the optimal ``a`` is ``K h`` with ``h = [psi(v); v; 1]``
    and a constant ``K``, and the stacked residual is ``C h`` with a constant
    ``C``. So ``solver.reduced_lsq``, with infinite bounds, runs over ``v``
    alone on ``R h`` (``WindowFeatures.rows``), ``R`` a triangle with ``R^T R
    = C^T C``: same cost, gradient and Gauss-Newton matrix. This minimizes
    over ``a`` exactly when the window the solve settles on is reachable from
    the data, which is checked at the start and at the returned point.

    The solve starts at ``v = V a0``, with ``a0 = H_xi0^+ xi0`` the
    minimum-norm combination vector that reproduces the initial window
    state: the start takes no dictionary pass of its own.

    All but the query's values ``s`` depends on the blocks and the query kind
    alone and is built once per ``(what, ridge weight)`` (``_kind_factors``):
    ``C`` but its last column ``c = C_s s``, with its QR factors ``Q0 R0``.
    A query appends ``c``: ``R = [[R0, Q0^T c], [0, rho]]``.
    """
    reg = lambda_alpha * eps_star
    kind = blocks._window_factors.get((what, reg)) or _kind_factors(blocks, what, reg)
    n_psi, n_v = blocks.H_psi.shape[0], kind.features.n_free
    xi0 = s[: blocks.structure.n]
    col = _appended_column(kind.Q0, kind.C_s @ s)
    core = kind.features.with_last_column(col, np.append(fixed, 1.0))

    def alpha_of(h):
        alpha, e = kind.K @ np.append(h[:-1], s), np.append(h[n_psi:-1], xi0)
        gap = float(np.linalg.norm(kind.E @ alpha - e))
        if gap > 1e-9 * max(1.0, float(np.linalg.norm(e))):
            raise InfeasibleInitialConditionError(
                f"query window unreachable from data (residual {gap:.3e})"
            )
        return alpha

    # The minimum-norm start; its dictionary pass serves the solve's first
    # residual too.
    v0 = kind.E[:n_v] @ (kind.H0_pinv @ xi0)
    alpha_of(core.stacked(v0))

    unbounded = np.full(n_v, np.inf)
    res = _solver.reduced_lsq(core.rows, core.jacobian, v0, -unbounded, unbounded, 800, 1e-14)
    h = core.stacked(res.x)
    f = core.rows(res.x)
    gnorm = float(np.max(np.abs(2.0 * (core.jacobian(res.x).T @ f))))
    if gnorm > 1e-4 * max(1.0, float(f @ f)):
        raise ConvergenceError(f"data-driven {what} solve stalled", gnorm)
    alpha = alpha_of(h)

    mism = kind.A @ alpha - np.append(h[:n_psi], s)
    ridge = reg * float(alpha @ alpha)
    objective = float(mism @ mism) + ridge
    residual_sq = objective - ridge  # >= +0: the rounded sum is at least ridge
    alpha_l1 = float(np.sum(np.abs(alpha)))
    budget = eps_star * (1.0 + alpha_l1) + gain * math.sqrt(residual_sq)
    envelope = [geometric_sum(k_xi, k) * budget for k in range(blocks.horizon)]
    return dict(
        alpha=alpha,
        residual_sq=residual_sq,
        # exact zeros over the pinned initial window, then the envelope
        bounds=[np.concatenate([np.zeros(d), envelope]) for d in blocks.structure.degrees],
        alpha_l1=alpha_l1,
        objective=objective,
        gradient_norm=gnorm,
        iterations=res.nfev,
    )


def simulate_data_driven(
    blocks: DataDictionaryBlocks,
    u_new: np.ndarray,
    xi0: np.ndarray,
    lambda_alpha: float = 1e3,
    eps_star: float = 0.0,
    k_xi: float = 0.0,
    g_row_norm: float = 0.0,
) -> SimulationResult:
    """Simulate a new input from data only, with a certified error envelope.

    Minimizes the squared mismatch between the data-combined feature windows
    and the dictionary evaluated on the implied trajectory, plus a ridge term
    ``lambda_alpha * eps_star * ||alpha||^2``, subject to the combination
    reproducing the requested initial window state. The solve runs over the
    ``L*m`` predicted output samples, with the combination vector eliminated
    in closed form for each trajectory.

    The first ``d_i`` returned samples of channel ``i`` equal the initial
    window exactly; later samples carry bounds built from ``eps_star``,
    ``k_xi`` and the coefficient row norm (or its model-free upper bound).
    """
    L = blocks.horizon
    st = blocks.structure
    u_new = np.atleast_2d(np.asarray(u_new, dtype=float))
    if u_new.shape != (L, st.m):
        raise ValueError(f"new input must have shape ({L}, {st.m})")
    xi0 = np.asarray(xi0, dtype=float).reshape(-1)
    if xi0.size != st.n:
        raise ValueError(f"initial window state must have length {st.n}")

    fit = _fit_window(
        blocks, "simulation", xi0, np.concatenate([xi0, u_new.reshape(-1)]), g_row_norm,
        lambda_alpha, eps_star, k_xi,
    )
    return SimulationResult(outputs=[Hy @ fit["alpha"] for Hy in blocks.H_y], **fit)


def match_output_data_driven(
    blocks: DataDictionaryBlocks,
    y_refs: list,
    lambda_alpha: float = 1e3,
    eps_star: float = 0.0,
    k_xi: float = 0.0,
    g_row_norm: float = 0.0,
) -> MatchingResult:
    """Recover the input that tracks a reference output window from data only.

    Dual of the simulation solve: the combination vector now implies the
    input (through the input Hankel block) while the reference fixes the full
    state window; the mismatch covers both the feature block and the state
    block. The solve runs over the ``L*m`` input samples. The dictionary must
    expose the raw input as its leading entries so the input can be read
    back out.
    """
    if not blocks.dictionary.u_prefix:
        raise DictionaryLacksInputError(
            "output matching requires the raw input as the first dictionary entries"
        )
    L = blocks.horizon
    st = blocks.structure
    ys = [np.asarray(y, dtype=float).reshape(-1) for y in y_refs]
    for i, (y, d) in enumerate(zip(ys, st.degrees)):
        if y.size != L + d:
            raise ValueError(f"reference output {i} must have length {L + d}")
    xi_bar = window_states(ys, st).data  # (L+1, n)

    fit = _fit_window(
        blocks, "output-matching", xi_bar.reshape(-1), xi_bar[:L].reshape(-1), g_row_norm + 1.0,
        lambda_alpha, eps_star, k_xi,
    )
    return MatchingResult(u=(blocks.H_u @ fit["alpha"]).reshape(L, st.m), **fit)
