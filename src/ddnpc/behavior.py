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

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

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


@dataclass(frozen=True)
class DataDictionaryBlocks:
    """Feature and state Hankel blocks of one recorded trajectory.

    ``H_psi`` has depth ``horizon`` over the feature sequence, ``H_xi`` depth
    ``horizon + 1`` over the window states; both share their column count.
    Whether the feature sequence is persistently exciting of order
    ``horizon + n`` is recorded at construction.
    """

    horizon: int
    structure: BrunovskyStructure
    dictionary: BasisDictionary
    H_psi: np.ndarray
    H_xi: np.ndarray
    H_u: np.ndarray
    H_y: list
    pe_ok: bool
    pe_sigma_min: float
    noisy: bool

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
        pe_order_extra: Optional[int] = None,
    ) -> "DataDictionaryBlocks":
        xi_seq = traj.xi_noisy if use_noisy else traj.xi
        outputs = traj.outputs_noisy if use_noisy else traj.outputs
        N = traj.N
        feats = evaluate_along(dictionary, traj.u, xi_seq.data[:N])
        feat_seq = Sequence(feats)
        H_psi = build_hankel(feat_seq, horizon).entries
        H_xi = build_hankel(xi_seq, horizon + 1).entries
        if H_psi.shape[1] != H_xi.shape[1]:
            raise ValueError("feature and state Hankel column counts disagree")
        H_u = build_hankel(Sequence(traj.u), horizon).entries
        H_y = [
            build_hankel(Sequence(y), horizon + d).entries
            for y, d in zip(outputs, traj.structure.degrees)
        ]
        order = horizon + (pe_order_extra if pe_order_extra is not None else traj.structure.n)
        if N >= order:
            pe = is_persistently_exciting(feat_seq, order)
            pe_ok, pe_sigma = pe.is_pe, pe.sigma_min
        else:
            pe_ok, pe_sigma = False, 0.0
        return cls(
            horizon=horizon,
            structure=traj.structure,
            dictionary=dictionary,
            H_psi=H_psi,
            H_xi=H_xi,
            H_u=H_u,
            H_y=H_y,
            pe_ok=pe_ok,
            pe_sigma_min=pe_sigma,
            noisy=use_noisy,
        )

    @cached_property
    def _window_factors(self) -> dict:
        """Factors of ``_fit_window`` that depend on the blocks alone, keyed
        by query kind and ridge weight."""
        return {}

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
# Membership residual
# ---------------------------------------------------------------------------


def representation_residual(
    blocks: DataDictionaryBlocks,
    u_candidate: np.ndarray,
    y_candidates: list,
):
    """Least-squares membership test of a candidate window.

    The candidate input must span ``horizon`` steps and output channel ``i``
    must span ``horizon + d_i`` steps. Returns ``(residual, alpha)`` where the
    residual is the relative distance of the stacked candidate from the range
    of the data blocks; values near zero certify membership for noiseless
    data with an exactly representable dictionary.
    """
    L = blocks.horizon
    st = blocks.structure
    u_candidate = np.atleast_2d(np.asarray(u_candidate, dtype=float))
    if u_candidate.shape != (L, st.m):
        raise ValueError(f"candidate input must have shape ({L}, {st.m})")
    ys = [np.asarray(y, dtype=float).reshape(-1) for y in y_candidates]
    for i, (y, d) in enumerate(zip(ys, st.degrees)):
        if y.size != L + d:
            raise ValueError(f"candidate output {i} must have length {L + d}")
    xi_bar = window_states(ys, st)
    feats = evaluate_along(blocks.dictionary, u_candidate, xi_bar.data[:L])
    rhs = np.concatenate([feats.reshape(-1), xi_bar.data.reshape(-1)])
    A = np.vstack([blocks.H_psi, blocks.H_xi])
    alpha, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    denom = max(1.0, float(np.linalg.norm(rhs)))
    residual = float(np.linalg.norm(A @ alpha - rhs)) / denom
    return residual, alpha


# ---------------------------------------------------------------------------
# Simulation and output matching: one solve over the free window samples
# ---------------------------------------------------------------------------


@dataclass
class SimulationResult:
    outputs: list                 # channel i: (L + d_i,)
    alpha: np.ndarray
    residual_sq: float            # squared feature mismatch at the optimum
    bounds: list                  # channel i: (L + d_i,) per-step error bound
    alpha_l1: float
    objective: float
    gradient_norm: float
    iterations: int
    clamped: bool = False         # residual_sq clipped at zero


@dataclass
class MatchingResult:
    u: np.ndarray                 # (L, m)
    alpha: np.ndarray
    residual_sq: float
    bounds: list
    alpha_l1: float
    objective: float
    gradient_norm: float
    iterations: int
    clamped: bool = False


def feature_jacobian_scatter(col_of: np.ndarray, r: int):
    """Index arrays that scatter a dictionary jacobian of shape ``(K, r, q)``
    into the ``(K * r, columns)`` jacobian of the stacked features.

    ``col_of[k, j]`` is the column that argument ``j`` at step ``k`` feeds,
    -1 where it feeds none. Returns ``(rows, cols, src)`` for
    ``out[rows, cols] = jac.reshape(-1)[src]``; no column may appear twice
    in one step, so that each target entry gets at most one value.
    """
    k, j = np.nonzero(col_of >= 0)
    feature_rows = k[:, None] * r + np.arange(r)
    src = feature_rows * col_of.shape[1] + j[:, None]
    return feature_rows.ravel(), np.repeat(col_of[k, j], r), src.ravel()


def _fit_window(blocks, xi0, V, S, s, z_idx, z_fixed, gain, what,
                lambda_alpha, eps_star, k_xi, maxiter):
    """Fit a combination vector to a query window with ``L*m`` free samples.

    The free samples ``v = V @ alpha`` are the predicted outputs in
    simulation and the inputs in matching. The dictionary argument
    ``(u_k, xi_k)`` at window step ``k`` is ``c[z_idx[k]]`` with
    ``c = [v; z_fixed]``. The problem is

        min ||H_psi a - psi(v)||^2 + ||S a - s||^2 + lambda_alpha*eps_star*||a||^2
        s.t. V a = v,  H_xi0 a = xi0,

    where ``S`` holds the state rows the query fixes and ``s`` their values.
    For fixed ``v`` the optimal ``a`` is ``K h`` with ``h = [psi(v); v; 1]``
    and a constant ``K``, and the stacked residual is ``C h`` with a constant
    ``C``. So ``solver.reduced_lsq``, with infinite bounds, runs over ``v``
    alone on ``R h``, ``R`` the triangle of ``qr(C)``: same cost, gradient
    and Gauss-Newton matrix. This minimizes over ``a`` exactly when the
    window the solve settles on is reachable from the data, which is checked
    at the start and at the returned point.

    ``V`` and ``S`` are fixed by ``what``, so the pseudo-inverses and the null
    space built from them alone are computed once per ``(what, ridge
    weight)`` and kept on ``blocks``; a query enters only ``T`` and ``E_h``.
    """
    from scipy.linalg import null_space

    m = blocks.structure.m
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

    # a = E^+ e + N b with N spanning the null space of E; since E^+ e is
    # orthogonal to N, b solves a ridge least squares in N.
    reg = lambda_alpha * eps_star
    factors = blocks._window_factors.get((what, reg))
    if factors is None:
        N = null_space(E)
        factors = blocks._window_factors[what, reg] = (
            N,
            np.linalg.pinv(E),
            np.linalg.pinv(np.vstack([A @ N, math.sqrt(reg) * np.eye(N.shape[1])])),
            np.linalg.pinv(A),
            np.linalg.pinv(H0),
        )
    N, E_pinv, G, A_pinv, H0_pinv = factors
    K = E_pinv @ E_h + N @ (G[:, : A.shape[0]] @ (T - A @ E_pinv @ E_h))
    R = np.linalg.qr(np.vstack([A @ K - T, math.sqrt(reg) * K]), mode="r")
    r = blocks.dictionary.r
    rows, cols, src = feature_jacobian_scatter(np.where(z_idx < n_v, z_idx, -1), r)

    def args(v):
        z = np.concatenate([v, z_fixed])[z_idx]
        return z[:, :m], z[:, m:]

    def stack(v, psi):
        return np.concatenate([psi.reshape(-1), v, [1.0]])

    # (v, features, raw feature jacobian) of the latest evaluation: the solver
    # asks for the jacobian at the point it last evaluated
    last = [None]

    def evaluate(v):
        if last[0] is None or not np.array_equal(last[0][0], v):
            last[0] = (v.copy(), *blocks.dictionary.value_and_jacobian_batch(*args(v)))
        return last[0]

    def h_of(v):
        return stack(v, evaluate(v)[1])

    def jac(v):
        dpsi = np.zeros((n_psi, n_v))
        dpsi[rows, cols] = evaluate(v)[2].reshape(-1)[src]
        return R[:, :n_psi] @ dpsi + R[:, n_psi:-1]

    def alpha_of(h):
        alpha, e = K @ h, E_h @ h
        gap = float(np.linalg.norm(E @ alpha - e))
        if gap > 1e-9 * max(1.0, float(np.linalg.norm(e))):
            raise InfeasibleInitialConditionError(
                f"query window unreachable from data (residual {gap:.3e})"
            )
        return alpha

    # Fixed-point start: the unregularized linear fit with the features frozen
    # at the previous trajectory, projected back onto the initial state.
    alpha = H0_pinv @ xi0
    for _ in range(4):
        v = V @ alpha
        alpha = A_pinv @ (T @ stack(v, blocks.dictionary.value_batch(*args(v))))
        alpha -= H0_pinv @ (H0 @ alpha - xi0)
    v0 = V @ alpha
    alpha_of(h_of(v0))

    unbounded = np.full(n_v, np.inf)
    res = _solver.reduced_lsq(lambda v: R @ h_of(v), jac, v0, -unbounded, unbounded, maxiter, 1e-14)
    h = h_of(res.x)
    f = R @ h
    gnorm = float(np.max(np.abs(2.0 * (jac(res.x).T @ f))))
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
        # exact zeros over the pinned initial window, then the envelope
        bounds=[np.concatenate([np.zeros(d), envelope]) for d in blocks.structure.degrees],
        alpha_l1=alpha_l1,
        objective=objective,
        gradient_norm=gnorm,
        iterations=res.nfev,
        clamped=objective - ridge < 0,
    )


def simulate_data_driven(
    blocks: DataDictionaryBlocks,
    u_new: np.ndarray,
    xi0: np.ndarray,
    lambda_alpha: float = 1e3,
    eps_star: float = 0.0,
    k_xi: float = 0.0,
    g_row_norm: float = 0.0,
    maxiter: int = 800,
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

    # Output samples as indices into c = [v; xi0; u_new]: channel i starts
    # with its entries of the initial window state, then its L free samples.
    m, n = st.m, st.n
    y_idx = [
        np.concatenate([L * m + off + np.arange(d), i * L + np.arange(L)])
        for i, (off, d) in enumerate(zip(st.channel_offsets(), st.degrees))
    ]
    xi_idx = window_states(y_idx, st).data[:L].astype(int)
    u_idx = L * m + n + np.arange(L * m).reshape(L, m)
    fit = _fit_window(
        blocks, xi0,
        V=np.vstack([Hy[d:] for Hy, d in zip(blocks.H_y, st.degrees)]),
        S=blocks.xi_block_row(0), s=xi0,
        z_idx=np.hstack([u_idx, xi_idx]),
        z_fixed=np.concatenate([xi0, u_new.reshape(-1)]),
        gain=g_row_norm, what="simulation",
        lambda_alpha=lambda_alpha, eps_star=eps_star, k_xi=k_xi, maxiter=maxiter,
    )
    return SimulationResult(outputs=[Hy @ fit["alpha"] for Hy in blocks.H_y], **fit)


def match_output_data_driven(
    blocks: DataDictionaryBlocks,
    y_refs: list,
    lambda_alpha: float = 1e3,
    eps_star: float = 0.0,
    k_xi: float = 0.0,
    g_row_norm: float = 0.0,
    maxiter: int = 800,
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

    m, n = st.m, st.n
    fit = _fit_window(
        blocks, xi_bar[0],
        V=blocks.H_u,
        S=blocks.H_xi, s=xi_bar.reshape(-1),
        z_idx=np.hstack([
            np.arange(L * m).reshape(L, m), L * m + np.arange(L * n).reshape(L, n)
        ]),
        z_fixed=xi_bar[:L].reshape(-1),
        gain=g_row_norm + 1.0, what="output-matching",
        lambda_alpha=lambda_alpha, eps_star=eps_star, k_xi=k_xi, maxiter=maxiter,
    )
    return MatchingResult(u=(blocks.H_u @ fit["alpha"]).reshape(L, m), **fit)
