"""Basis-function dictionaries and grid-based approximation certificates.

A dictionary maps an input/window-state pair ``(u, xi)`` to a vector of ``r``
scalar features. Fitting the true transformed-input map onto a dictionary over
a compact operating box yields the certificate quantities consumed by the
robust controller and the error-bound calculators: the residual sup bound
``eps_star``, Lipschitz estimates, the coefficient-matrix norm and its
model-free upper bound, and the right-inverse norm bound.

The coefficient fit itself is a test oracle: the controller never needs the
fitted matrix, only the certificate scalars.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from typing import Callable, Optional

import numpy as np

from . import plant as _plant
from .solver import CallbackError


class SingularGramError(RuntimeError):
    """Gram matrix of the dictionary is numerically singular on the grid."""


class RankDeficientError(RuntimeError):
    """Fitted coefficient matrix does not have full row rank."""


class DictionaryEvaluationError(CallbackError):
    """A basis function returned a non-finite value. A ``CallbackError``, so
    that a solver trial point where the features fail is a rejected step."""


# ---------------------------------------------------------------------------
# Operating box and quadrature grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OperatingBox:
    """Axis-aligned compact subset of the input/window-state space.

    Carries the grid resolution used for all quadrature on the box; the grid
    places points at cell midpoints so sums of ``f * cell_volume`` approximate
    integrals (midpoint rule).
    """

    u_lower: np.ndarray
    u_upper: np.ndarray
    xi_lower: np.ndarray
    xi_upper: np.ndarray
    grid_points: int = 7

    def __post_init__(self):
        for name in ("u_lower", "u_upper", "xi_lower", "xi_upper"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float).reshape(-1))
        if self.u_lower.shape != self.u_upper.shape or self.xi_lower.shape != self.xi_upper.shape:
            raise ValueError("lower/upper bound shapes disagree")
        if not (np.all(self.u_lower < self.u_upper) and np.all(self.xi_lower < self.xi_upper)):
            raise ValueError("box bounds must satisfy lower < upper componentwise")
        if self.grid_points < 2:
            raise ValueError("grid resolution must be at least 2 per axis")

    @property
    def m(self) -> int:
        return self.u_lower.size

    @property
    def n(self) -> int:
        return self.xi_lower.size

    @property
    def lower(self) -> np.ndarray:
        return np.concatenate([self.u_lower, self.xi_lower])

    @property
    def upper(self) -> np.ndarray:
        return np.concatenate([self.u_upper, self.xi_upper])

    def contains_rows(self, U: np.ndarray, XI: np.ndarray) -> np.ndarray:
        """Per row of ``U`` (``(P, m)``) and ``XI`` (``(P, n)``): whether the
        point lies in the closed box. NaN lies outside."""
        return np.all((U >= self.u_lower) & (U <= self.u_upper), axis=1) & np.all(
            (XI >= self.xi_lower) & (XI <= self.xi_upper), axis=1
        )

    def axis_steps(self) -> np.ndarray:
        return (self.upper - self.lower) / self.grid_points

    def cell_volume(self) -> float:
        return float(np.prod(self.axis_steps()))

    def grid_axes(self) -> list[np.ndarray]:
        steps = self.axis_steps()
        return [
            self.lower[i] + (np.arange(self.grid_points) + 0.5) * steps[i]
            for i in range(self.lower.size)
        ]

    def grid_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """The midpoint grid's two factors: its ``(nu, m)`` input rows and
        ``(nx, n)`` state rows, each with its first axis varying slowest."""
        axes = self.grid_axes()
        return _mesh_rows(axes[: self.m]), _mesh_rows(axes[self.m :])

    def grid(self) -> tuple[np.ndarray, np.ndarray]:
        """Midpoint grid as ``(U, XI)`` arrays of shape ``(P, m)`` / ``(P, n)``,
        ``P = nu * nx``: row ``a * nx + b`` pairs input row ``a`` with state
        row ``b`` of ``grid_factors()``."""
        U_rows, XI_rows = self.grid_factors()
        return np.repeat(U_rows, len(XI_rows), axis=0), np.tile(XI_rows, (len(U_rows), 1))


def _mesh_rows(axes: list[np.ndarray]) -> np.ndarray:
    """Every combination of the axes' values, one per row, the first axis
    varying slowest."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.reshape(-1) for g in mesh], axis=-1)


# ---------------------------------------------------------------------------
# Dictionaries
# ---------------------------------------------------------------------------


class BasisDictionary:
    """Ordered family of scalar basis functions over ``(u, xi)``.

    Subclasses implement ``value_batch`` and ``jacobian_batch``; the batched
    jacobian is laid out ``(P, r, m + n)`` with input partials first. A
    subclass whose values and partials share work overrides
    ``value_and_jacobian_batch`` to compute both in one pass. The
    ``u_prefix`` flag records whether the raw input occupies the first ``m``
    entries, which output-matching control requires.
    """

    name: str = "base"
    u_prefix: bool = False

    def __init__(self, m: int, n: int, r: int):
        self.m = m
        self.n = n
        self.r = r

    def value_batch(self, U: np.ndarray, XI: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def jacobian_batch(self, U: np.ndarray, XI: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def value_and_jacobian_batch(self, U: np.ndarray, XI: np.ndarray):
        """``(value_batch(U, XI), jacobian_batch(U, XI))``, as the solvers
        ask for both at every point they accept."""
        return self.value_batch(U, XI), self.jacobian_batch(U, XI)


class IdentityDictionary(BasisDictionary):
    """Raw coordinates ``(u, xi)`` themselves; exact for plants whose
    transformed input is linear in input and state."""

    name = "identity"
    u_prefix = True

    def __init__(self, m: int, n: int):
        super().__init__(m, n, m + n)

    def value_batch(self, U, XI):
        return np.concatenate([U, XI], axis=-1)

    def jacobian_batch(self, U, XI):
        P = U.shape[0]
        return np.broadcast_to(np.eye(self.r), (P, self.r, self.r)).copy()


class InputDictionary(BasisDictionary):
    """The raw inputs alone; exact whenever the transformed input equals the
    plant input (chained-integrator plants)."""

    name = "input"
    u_prefix = True

    def __init__(self, m: int, n: int):
        super().__init__(m, n, m)

    def value_batch(self, U, XI):
        return U.copy()

    def jacobian_batch(self, U, XI):
        P = U.shape[0]
        J = np.zeros((P, self.m, self.m + self.n))
        J[:, :, : self.m] = np.eye(self.m)
        return J


class FlatToyDictionary(BasisDictionary):
    """The flat toy's transformed input, spanned exactly: ``u``, ``xi_2^2``
    and ``sin(xi_1) - c cos(2 xi_1)``. A nonzero ``c`` distorts the sine
    entry to dial in a known approximation-error level.

    Each entry is computed on the whole batch and equals its scalar form,
    ``xi[1] ** 2`` and ``np.sin(xi[0]) - c * np.cos(2 * xi[0])`` on one row,
    bit for bit. The square is ``float_power``: it rounds as numpy's scalar
    power does, where ``x * x`` and ``np.power`` differ in about one entry in
    a thousand.
    """

    u_prefix = True

    def __init__(self, c: float = 0.0):
        super().__init__(1, 2, 3)
        self.c = c
        self.name = "flat_exact" if c == 0.0 else f"flat_distorted_{c:g}"

    def value_batch(self, U, XI):
        x0 = XI[:, 0]
        out = np.empty((U.shape[0], 3))
        out[:, 0] = U[:, 0]
        out[:, 1] = np.float_power(XI[:, 1], 2)
        out[:, 2] = np.sin(x0) - self.c * np.cos(2 * x0)
        if not np.isfinite(out).all():
            p, j = np.argwhere(~np.isfinite(out))[0]
            raise DictionaryEvaluationError(
                f"basis function {j} returned a non-finite value at step {p}"
            )
        return out

    def jacobian_batch(self, U, XI):
        x0 = XI[:, 0]
        J = np.zeros((U.shape[0], 3, 3))
        J[:, 0, 0] = 1.0
        J[:, 1, 2] = 2 * XI[:, 1]
        J[:, 2, 1] = np.cos(x0) + (2 * self.c) * np.sin(2 * x0)
        return J


class PolynomialDictionary(BasisDictionary):
    """Constant, raw coordinates and all degree-two monomials of ``(u, xi)``."""

    name = "poly2"
    u_prefix = False

    def __init__(self, m: int, n: int):
        dim = m + n
        self._pairs = [(a, b) for a in range(dim) for b in range(a, dim)]
        super().__init__(m, n, 1 + dim + len(self._pairs))

    def value_batch(self, U, XI):
        Z = np.concatenate([U, XI], axis=-1)
        P = Z.shape[0]
        quad = np.stack([Z[:, a] * Z[:, b] for a, b in self._pairs], axis=-1)
        return np.concatenate([np.ones((P, 1)), Z, quad], axis=-1)

    def jacobian_batch(self, U, XI):
        Z = np.concatenate([U, XI], axis=-1)
        P, dim = Z.shape
        J = np.zeros((P, self.r, dim))
        J[:, 1 : 1 + dim, :] = np.eye(dim)
        for j, (a, b) in enumerate(self._pairs):
            J[:, 1 + dim + j, a] += Z[:, b]
            J[:, 1 + dim + j, b] += Z[:, a]
        return J


class TrigDictionary(BasisDictionary):
    """Raw inputs plus sine and cosine of every window-state component."""

    name = "trig"
    u_prefix = True

    def __init__(self, m: int, n: int):
        super().__init__(m, n, m + 2 * n)

    def value_batch(self, U, XI):
        return np.concatenate([U, np.sin(XI), np.cos(XI)], axis=-1)

    def jacobian_batch(self, U, XI):
        P = U.shape[0]
        J = np.zeros((P, self.r, self.m + self.n))
        J[:, : self.m, : self.m] = np.eye(self.m)
        for i in range(self.n):
            J[:, self.m + i, self.m + i] = np.cos(XI[:, i])
            J[:, self.m + self.n + i, self.m + i] = -np.sin(XI[:, i])
        return J


class PendulumModelDictionary(BasisDictionary):
    """Model-structured features for the double pendulum.

    Entries are the two raw torques followed by the two joint accelerations
    predicted from user-supplied parameter estimates: the estimated inertia
    inverse applied to torque minus estimated velocity and gravity terms, with
    joint velocities recovered from the window state by divided differences.
    Only the parameter values are estimates; the structural form is the
    standard rigid-body one.
    """

    name = "pendulum_model"
    u_prefix = True

    def __init__(self, estimates: "_plant.DoublePendulumParams"):
        super().__init__(m=2, n=4, r=4)
        self.estimates = estimates

    def value_batch(self, U, XI):
        return self._features(U, _plant._window_accelerations(self.estimates, U, XI))

    def jacobian_batch(self, U, XI):
        return self._kernel_pass(U, XI)[1]

    def value_and_jacobian_batch(self, U, XI):
        """Values and partials from one kernel pass; the accelerations are
        those ``value_batch`` computes, bit for bit."""
        return self._kernel_pass(U, XI)

    def _kernel_pass(self, U, XI):
        """``(psi, J)`` from one kernel pass, which writes the partials into
        ``J``."""
        J = np.zeros((U.shape[0], 4, 6))
        J[:, 0, 0] = J[:, 1, 1] = 1.0
        acc = _plant._window_accelerations(self.estimates, U, XI, jac=J[:, 2:])
        return self._features(U, acc), J

    @staticmethod
    def _features(U, acc):
        """``[U, a1, a2]`` row by row. The accelerations are copied in, not
        written into the strided columns by the kernel: on the certificate's
        117,649-row grid that write is the slower one."""
        psi = np.empty((U.shape[0], 4))
        psi[:, :2] = U
        psi[:, 2], psi[:, 3] = acc[0], acc[1]
        return psi


def make_pendulum_dictionary(
    true_params: "_plant.DoublePendulumParams",
    perturbation: float = 0.1,
    seed: int = 0,
) -> PendulumModelDictionary:
    """Pendulum dictionary with masses and lengths perturbed by up to the
    given relative amount (uniform, seeded draw). Zero perturbation reproduces
    the true parameters exactly."""
    rng = np.random.default_rng(seed)
    factors = 1.0 + perturbation * rng.uniform(-1.0, 1.0, size=4)
    est = _plant.DoublePendulumParams(
        m1=true_params.m1 * factors[0],
        m2=true_params.m2 * factors[1],
        l1=true_params.l1 * factors[2],
        l2=true_params.l2 * factors[3],
        g=true_params.g,
        Ts=true_params.Ts,
    )
    return PendulumModelDictionary(est)


# ---------------------------------------------------------------------------
# Evaluation along trajectories
# ---------------------------------------------------------------------------


def evaluate_along(dictionary: BasisDictionary, u_seq, xi_seq):
    """Evaluate the dictionary pointwise along paired input/state arrays of
    equal length; returns the ``(K, r)`` feature array. Reports the basis
    index and step of the first non-finite value.
    """
    U = np.atleast_2d(np.asarray(u_seq, dtype=float))
    XI = np.atleast_2d(np.asarray(xi_seq, dtype=float))
    if U.shape[0] != XI.shape[0]:
        raise ValueError(f"length mismatch: {U.shape[0]} inputs vs {XI.shape[0]} states")
    vals = dictionary.value_batch(U, XI)
    if not np.all(np.isfinite(vals)):
        k, j = np.argwhere(~np.isfinite(vals))[0]
        raise DictionaryEvaluationError(
            f"basis function {j} produced a non-finite value at step {k}"
        )
    return vals


# ---------------------------------------------------------------------------
# Grid fitting, Lipschitz estimation and norm bounds
# ---------------------------------------------------------------------------

# Grid rows per call of phi: each call's temporaries stay in cache.
_CORNER_BLOCK = 16_384


@dataclass(frozen=True)
class GridEvaluation:
    """The dictionary and the true map on the midpoint grid of a box.

    ``U_rows`` (``(nu, m)``) and ``XI_rows`` (``(nx, n)``) are the grid's two
    factors, ``box.grid_factors()``. ``PSI`` is ``(P, r)`` and ``PHI`` is
    ``(P, q)``, ``P = nu * nx``, rows in ``box.grid()`` order. ``gram`` is the
    quadrature Gram matrix ``PSI^T PSI * cell_volume`` and ``gram_svals`` its
    singular values; the fit and the norm bound share both.
    """

    box: OperatingBox
    U_rows: np.ndarray
    XI_rows: np.ndarray
    PSI: np.ndarray
    PHI: np.ndarray
    gram: np.ndarray
    gram_svals: np.ndarray


def _grid_chunks(nu: int, nx: int):
    """``(input rows, state rows)`` slice pairs that tile the factored grid,
    each covering at most ``_CORNER_BLOCK`` grid rows: ``_CORNER_BLOCK // nx``
    input combinations with every state row, or one input combination with a
    slice of the state rows where ``nx`` alone exceeds the block."""
    k = max(1, _CORNER_BLOCK // nx)
    s = min(nx, _CORNER_BLOCK)
    for a in range(0, nu, k):
        for b in range(0, nx, s):
            yield slice(a, a + k), slice(b, b + s)


def _phi_chunk(phi, U_rows: np.ndarray, XI_rows: np.ndarray) -> np.ndarray:
    """``phi`` at every pair of the given input and state rows, ``(k, s, q)``.

    One call on the factors, ``phi(U_rows[:, None, :], XI_rows[None, :, :])``,
    so the terms that depend on the state alone are computed once per state
    row. ``phi`` must work elementwise over broadcast leading axes and return
    ``(..., q)``; a result that depends on one factor only is broadcast.
    """
    out = np.asarray(phi(U_rows[:, None, :], XI_rows[None, :, :]), dtype=float)
    if out.ndim != 3:
        raise ValueError(
            f"phi returned shape {out.shape}; it must return (..., q) over the "
            "broadcast leading axes of its arguments"
        )
    return np.broadcast_to(out, (len(U_rows), len(XI_rows), out.shape[-1]))


def evaluate_grid(
    dictionary: BasisDictionary,
    phi: Callable[[np.ndarray, np.ndarray], np.ndarray],
    box: OperatingBox,
) -> GridEvaluation:
    """Build the box grid once and evaluate ``dictionary`` and ``phi`` on it,
    with the Gram matrix and its singular values.

    The dictionary takes the dense grid in one ``value_batch`` call. ``phi``
    takes the grid's factors, one call per chunk of at most
    ``_CORNER_BLOCK`` grid rows (``_phi_chunk``); its values are those of one
    dense call, bit for bit, since ``phi`` is elementwise.
    """
    U, XI = box.grid()
    PSI = dictionary.value_batch(U, XI)
    U_rows, XI_rows = box.grid_factors()
    PHI = None
    for inputs, states in _grid_chunks(len(U_rows), len(XI_rows)):
        chunk = _phi_chunk(phi, U_rows[inputs], XI_rows[states])
        if PHI is None:
            PHI = np.empty((len(U_rows), len(XI_rows), chunk.shape[-1]))
        PHI[inputs, states] = chunk
    PHI = PHI.reshape(len(U), -1)
    gamma = PSI.T @ PSI * box.cell_volume()
    svals = np.linalg.svd(gamma, compute_uv=False)
    return GridEvaluation(box, U_rows, XI_rows, PSI, PHI, gamma, svals)


def fit_coefficient_matrix(grid: GridEvaluation):
    """Least-squares fit of the true map onto the dictionary (oracle).

    Minimizes the quadrature-weighted squared residual over the box grid and
    returns ``(G_hat, eps_star)`` where ``eps_star`` is the largest residual
    sup-norm seen at any grid point. ``G_hat`` must come out with full row
    rank; the normal equations share the Gram matrix with the model-free norm
    bound so the bound provably dominates the fit on the same grid. Works on
    the evaluated grid alone: two ``(P, r)`` products, no evaluation.
    """
    svals = grid.gram_svals
    if svals[-1] <= 1e-8 * svals[0] or svals[-1] <= 0:
        raise SingularGramError(
            f"Gram matrix singular: sigma_min/sigma_max = {svals[-1] / svals[0]:.3e}"
        )
    zeta = grid.PSI.T @ grid.PHI * grid.box.cell_volume()  # (r, m)
    G = np.linalg.solve(grid.gram, zeta).T  # (m, r)
    m = G.shape[0]
    if np.linalg.matrix_rank(G, tol=1e-10 * max(1.0, np.linalg.norm(G))) < m:
        raise RankDeficientError("fitted coefficient matrix is rank deficient")
    resid = grid.PHI - grid.PSI @ G.T
    eps_star = float(np.max(np.abs(resid)))
    return G, eps_star


def estimate_lipschitz(values: np.ndarray, box: OperatingBox) -> float:
    """Grid estimate of the Lipschitz constant of a map w.r.t. the state.

    ``values`` holds the map on ``box.grid()``, ``(P, q)`` in grid order.
    Takes the largest ratio of output change (sup norm) to state change (sup
    norm) over grid-adjacent point pairs along each state axis, the input held
    fixed. This is a lower estimate of the true constant on the box. One
    difference pass per state axis; no evaluation.
    """
    shape = (box.grid_points,) * (box.m + box.n)
    F = np.asarray(values, dtype=float).reshape(shape + (-1,))
    steps = box.axis_steps()
    K = 0.0
    for ax in range(box.m, box.m + box.n):
        diffs = np.abs(np.diff(F, axis=ax))
        if diffs.size:
            K = max(K, float(np.max(diffs)) / steps[ax])
    return K


def estimate_noise_gain(
    phi: Callable[[np.ndarray, np.ndarray], np.ndarray],
    grid: GridEvaluation,
    w_star: float,
) -> float:
    """Largest observed ``|phi(u, xi) - phi(u, xi + w)| / w*`` over the grid
    with sign-corner state perturbations of magnitude ``w*``.

    The unperturbed values are ``grid.PHI``. The perturbed ones take one
    ``phi`` call per corner and chunk of the factored grid (``_grid_chunks``,
    ``_phi_chunk``), every corner on a chunk before the next chunk, so each
    call's temporaries stay in cache and the state-only terms are computed
    once per state row of a chunk. The maximum does not depend on the order,
    so the result is the same as one dense full-grid call per corner. This
    sweep is most of a certificate's cost: ``2^n`` evaluations of ``phi`` on
    the grid, one per corner, corner ``c`` taking sign ``+`` on axis ``i``
    where bit ``i`` of ``c`` is set.
    """
    if w_star == 0.0:
        return 0.0
    n = grid.box.n
    corners = np.array(
        [[(1 if (c >> i) & 1 else -1) for i in range(n)] for c in range(2**n)],
        dtype=float,
    )
    shifts = [w_star * s for s in corners]
    nu, nx = len(grid.U_rows), len(grid.XI_rows)
    PHI = grid.PHI.reshape(nu, nx, -1)
    worst = 0.0
    for inputs, states in _grid_chunks(nu, nx):
        U_rows, XI_rows, base = grid.U_rows[inputs], grid.XI_rows[states], PHI[inputs, states]
        for shift in shifts:
            pert = _phi_chunk(phi, U_rows, XI_rows + shift)
            worst = max(worst, float(np.max(np.abs(base - pert))))
    return worst / w_star


def coefficient_norm_bound(grid: GridEvaluation, v_star: float) -> float:
    """Model-free upper bound on the sup-induced norm of the coefficient fit.

    Requires the Gram matrix of the dictionary on the box to be invertible;
    the bound is ``v* * ||Gamma^-1||_1 * sum_j integral |psi_j|`` with the
    integrals taken by the same midpoint quadrature as the fit, so it
    dominates the oracle norm computed on the same grid. Works on the
    evaluated grid alone: one ``r x r`` inverse and one pass over ``PSI``.
    """
    svals = grid.gram_svals
    if svals[-1] <= 1e-12 * svals[0]:
        raise SingularGramError("Gram matrix singular; cannot form the norm bound")
    gamma_inv = np.linalg.inv(grid.gram)
    gamma_inv_norm1 = float(np.max(np.sum(np.abs(gamma_inv), axis=0)))
    abs_integrals = float(np.sum(np.abs(grid.PSI)) * grid.box.cell_volume())
    return v_star * gamma_inv_norm1 * abs_integrals


def right_inverse_norm_bound(G: np.ndarray) -> float:
    """Upper bound ``sqrt(r) / sigma_min`` on the sup norm of the right inverse."""
    G = np.atleast_2d(np.asarray(G, dtype=float))
    r = G.shape[1]
    sigma_min = float(np.linalg.svd(G, compute_uv=False)[-1])
    if sigma_min <= 0:
        raise ValueError("smallest singular value is zero; no right inverse")
    return float(np.sqrt(r)) / sigma_min


# ---------------------------------------------------------------------------
# Certificate
# ---------------------------------------------------------------------------


@dataclass
class ApproximationCertificate:
    """Grid-certified constants for one dictionary/plant/box combination.

    ``eps_star`` and the Lipschitz numbers are estimates taken at grid points
    only; callers that use them as bounds should inflate them (the acceptance
    configuration uses a 10 percent margin). ``g_inf_bound`` is the model-free
    bound, ``g_norm_inf`` the oracle value it must dominate.
    """

    dictionary_name: str
    m: int
    n: int
    r: int
    degrees: tuple
    eps_star: float
    k_xi: float
    k_psi: float
    k_w: float
    w_star: float
    v_star: float
    g_hat: list
    g_norm_inf: float
    g_dagger_norm_inf: float
    g_inf_bound: float
    g_dagger_inf_bound: float
    grid_points: int
    box_lower: list
    box_upper: list
    seed: Optional[int] = None
    noise_gain_skipped: bool = False

    def __post_init__(self):
        if self.eps_star < 0 or min(self.k_xi, self.k_psi, self.k_w) < 0:
            raise ValueError("certificate constants must be non-negative")
        if self.g_dagger_norm_inf > self.g_dagger_inf_bound * (1 + 1e-9) + 1e-12:
            raise ValueError(
                "right-inverse norm exceeds its singular-value bound; "
                "certificate inconsistent"
            )

    def to_dict(self) -> dict:
        d = asdict(self)
        d["degrees"] = list(self.degrees)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ApproximationCertificate":
        d = dict(d)
        d["degrees"] = tuple(d["degrees"])
        return cls(**d)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)

    @classmethod
    def load(cls, path) -> "ApproximationCertificate":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def build_certificate(
    dictionary: BasisDictionary,
    phi: Callable[[np.ndarray, np.ndarray], np.ndarray],
    box: OperatingBox,
    degrees,
    w_star: float = 0.0,
    seed: Optional[int] = None,
) -> ApproximationCertificate:
    """Run the full grid pipeline and package the resulting constants.

    The grid is built once and ``dictionary`` and ``phi`` are evaluated on it
    once each (``evaluate_grid``): the dictionary on the dense grid, ``phi``
    on the grid's factors, input combinations times state rows. The fit,
    ``v*``, both Lipschitz estimates and the norm bound work on those arrays.
    Only the noise-gain sweep calls ``phi`` again, on the factors with the
    state rows shifted to each of the ``2^n`` noise corners. With a zero
    noise bound that sweep is skipped and the gain recorded as identically
    zero. ``phi`` must work elementwise over broadcast leading axes and
    return ``(..., q)``.
    """
    grid = evaluate_grid(dictionary, phi, box)
    G, eps_star = fit_coefficient_matrix(grid)
    v_star = float(np.max(np.abs(grid.PHI)))
    k_xi = estimate_lipschitz(grid.PHI, box)
    k_psi = estimate_lipschitz(grid.PSI, box)
    skipped = w_star == 0.0
    k_w = 0.0 if skipped else estimate_noise_gain(phi, grid, w_star)
    g_norm_inf = float(np.max(np.sum(np.abs(G), axis=1)))
    g_dagger = np.linalg.pinv(G)
    g_dagger_norm_inf = float(np.max(np.sum(np.abs(g_dagger), axis=1)))
    return ApproximationCertificate(
        dictionary_name=dictionary.name,
        m=dictionary.m,
        n=dictionary.n,
        r=dictionary.r,
        degrees=tuple(int(d) for d in degrees),
        eps_star=eps_star,
        k_xi=k_xi,
        k_psi=k_psi,
        k_w=k_w,
        w_star=float(w_star),
        v_star=v_star,
        g_hat=[[float(v) for v in row] for row in G],
        g_norm_inf=g_norm_inf,
        g_dagger_norm_inf=g_dagger_norm_inf,
        g_inf_bound=coefficient_norm_bound(grid, v_star),
        g_dagger_inf_bound=right_inverse_norm_bound(G),
        grid_points=box.grid_points,
        box_lower=[float(v) for v in box.lower],
        box_upper=[float(v) for v in box.upper],
        seed=seed,
        noise_gain_skipped=skipped,
    )
