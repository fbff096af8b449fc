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

    def contains(self, u: np.ndarray, xi: np.ndarray, atol: float = 0.0) -> bool:
        u = np.asarray(u, dtype=float).reshape(-1)
        xi = np.asarray(xi, dtype=float).reshape(-1)
        ok_u = np.all(u >= self.u_lower - atol) and np.all(u <= self.u_upper + atol)
        ok_x = np.all(xi >= self.xi_lower - atol) and np.all(xi <= self.xi_upper + atol)
        return bool(ok_u and ok_x)

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

    def grid(self) -> tuple[np.ndarray, np.ndarray]:
        """Midpoint grid as ``(U, XI)`` arrays of shape ``(P, m)`` / ``(P, n)``."""
        mesh = np.meshgrid(*self.grid_axes(), indexing="ij")
        pts = np.stack([g.reshape(-1) for g in mesh], axis=-1)
        return pts[:, : self.m], pts[:, self.m :]

    def random_points(self, count: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """Uniform random points for high-dimensional boxes where the tensor
        grid is too large."""
        rng = np.random.default_rng(seed)
        pts = rng.uniform(self.lower, self.upper, size=(count, self.lower.size))
        return pts[:, : self.m], pts[:, self.m :]


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

    def value(self, u: np.ndarray, xi: np.ndarray) -> np.ndarray:
        return self.value_batch(
            np.asarray(u, dtype=float).reshape(1, -1),
            np.asarray(xi, dtype=float).reshape(1, -1),
        )[0]

    def jacobian(self, u: np.ndarray, xi: np.ndarray) -> np.ndarray:
        return self.jacobian_batch(
            np.asarray(u, dtype=float).reshape(1, -1),
            np.asarray(xi, dtype=float).reshape(1, -1),
        )[0]

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


class CustomDictionary(BasisDictionary):
    """Dictionary assembled from scalar callables ``f(u, xi)``.

    Gradients may be supplied alongside each function; when omitted, the
    jacobian falls back to central finite differences (test-grade only).
    """

    u_prefix = False

    def __init__(self, m, n, funcs, grads=None, name="custom", u_prefix=False):
        super().__init__(m, n, len(funcs))
        self.funcs = list(funcs)
        self.grads = list(grads) if grads is not None else None
        self.name = name
        self.u_prefix = u_prefix

    def value_batch(self, U, XI):
        P = U.shape[0]
        out = np.empty((P, self.r))
        for p in range(P):
            for j, f in enumerate(self.funcs):
                out[p, j] = f(U[p], XI[p])
        if not np.all(np.isfinite(out)):
            p, j = np.argwhere(~np.isfinite(out))[0]
            raise DictionaryEvaluationError(
                f"basis function {j} returned a non-finite value at step {p}"
            )
        return out

    def jacobian_batch(self, U, XI):
        P = U.shape[0]
        dim = self.m + self.n
        out = np.empty((P, self.r, dim))
        if self.grads is not None:
            for p in range(P):
                for j, g in enumerate(self.grads):
                    out[p, j] = np.asarray(g(U[p], XI[p]), dtype=float).reshape(dim)
            return out
        h = 1e-6
        for p in range(P):
            z = np.concatenate([U[p], XI[p]])
            for d in range(dim):
                zp, zm = z.copy(), z.copy()
                zp[d] += h
                zm[d] -= h
                fp = [f(zp[: self.m], zp[self.m :]) for f in self.funcs]
                fm = [f(zm[: self.m], zm[self.m :]) for f in self.funcs]
                out[p, :, d] = (np.array(fp) - np.array(fm)) / (2 * h)
        return out


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
        a1, a2, _ = _plant._window_accelerations(self.estimates, U, XI)
        return np.column_stack([U, a1, a2])

    def jacobian_batch(self, U, XI):
        return self.value_and_jacobian_batch(U, XI)[1]

    def value_and_jacobian_batch(self, U, XI):
        """Values and partials from one kernel pass; the accelerations are
        those ``value_batch`` computes, bit for bit."""
        a1, a2, _, D = _plant._window_accelerations(self.estimates, U, XI, partials=True)
        J = np.zeros((U.shape[0], 4, 6))
        J[:, 0, 0] = J[:, 1, 1] = 1.0
        J[:, 2:] = D
        return np.column_stack([U, a1, a2]), J


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
    """Evaluate the dictionary pointwise along paired input/state sequences.

    Accepts ``trajlib.Sequence`` or plain arrays of equal length; returns the
    ``(K, r)`` feature array. Reports the basis index and step of the first
    non-finite value.
    """
    from .trajlib import Sequence as _Seq

    U = u_seq.data if isinstance(u_seq, _Seq) else np.atleast_2d(np.asarray(u_seq, dtype=float))
    XI = xi_seq.data if isinstance(xi_seq, _Seq) else np.atleast_2d(np.asarray(xi_seq, dtype=float))
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


def _grid_eval(dictionary: BasisDictionary, phi, box: OperatingBox):
    U, XI = box.grid()
    PSI = dictionary.value_batch(U, XI)
    PHI = np.atleast_2d(np.asarray(phi(U, XI), dtype=float))
    if PHI.shape[0] != U.shape[0]:
        PHI = PHI.T
    return U, XI, PSI, PHI


def fit_coefficient_matrix(
    dictionary: BasisDictionary,
    phi: Callable[[np.ndarray, np.ndarray], np.ndarray],
    box: OperatingBox,
    gram_rtol: float = 1e-8,
):
    """Least-squares fit of the true map ``phi`` onto the dictionary (oracle).

    Minimizes the quadrature-weighted squared residual over the box grid and
    returns ``(G_hat, eps_star)`` where ``eps_star`` is the largest residual
    sup-norm seen at any grid point. ``G_hat`` must come out with full row
    rank; the normal equations share the Gram matrix with the model-free norm
    bound so the bound provably dominates the fit on the same grid.
    """
    U, XI, PSI, PHI = _grid_eval(dictionary, phi, box)
    dv = box.cell_volume()
    gamma = PSI.T @ PSI * dv
    svals = np.linalg.svd(gamma, compute_uv=False)
    if svals[-1] <= gram_rtol * svals[0] or svals[-1] <= 0:
        raise SingularGramError(
            f"Gram matrix singular: sigma_min/sigma_max = {svals[-1] / svals[0]:.3e}"
        )
    zeta = PSI.T @ PHI * dv  # (r, m)
    G = np.linalg.solve(gamma, zeta).T  # (m, r)
    m = G.shape[0]
    if np.linalg.matrix_rank(G, tol=1e-10 * max(1.0, np.linalg.norm(G))) < m:
        raise RankDeficientError("fitted coefficient matrix is rank deficient")
    resid = PHI - PSI @ G.T
    eps_star = float(np.max(np.abs(resid)))
    return G, eps_star


def estimate_lipschitz(
    fun: Callable[[np.ndarray, np.ndarray], np.ndarray],
    box: OperatingBox,
) -> float:
    """Grid estimate of the Lipschitz constant of ``fun`` w.r.t. the state.

    Takes the largest ratio of output change (sup norm) to state change (sup
    norm) over grid-adjacent point pairs along each state axis, the input held
    fixed. This is a lower estimate of the true constant on the box.
    """
    axes = box.grid_axes()
    shape = tuple(len(a) for a in axes)
    U, XI = box.grid()
    F = np.atleast_2d(np.asarray(fun(U, XI), dtype=float))
    if F.shape[0] != U.shape[0]:
        F = F.T
    q = F.shape[1]
    F = F.reshape(shape + (q,))
    steps = box.axis_steps()
    K = 0.0
    for ax in range(box.m, box.m + box.n):
        diffs = np.abs(np.diff(F, axis=ax))
        if diffs.size:
            K = max(K, float(np.max(diffs)) / steps[ax])
    return K


def estimate_noise_gain(
    phi: Callable[[np.ndarray, np.ndarray], np.ndarray],
    box: OperatingBox,
    w_star: float,
    max_corners: int = 64,
    seed: int = 0,
) -> float:
    """Largest observed ``|phi(u, xi) - phi(u, xi + w)| / w*`` over the grid
    with sign-corner state perturbations of magnitude ``w*``."""
    if w_star == 0.0:
        return 0.0
    U, XI = box.grid()
    base = np.atleast_2d(np.asarray(phi(U, XI), dtype=float))
    n = box.n
    if 2**n <= max_corners:
        corners = np.array(
            [[(1 if (c >> i) & 1 else -1) for i in range(n)] for c in range(2**n)],
            dtype=float,
        )
    else:
        rng = np.random.default_rng(seed)
        corners = rng.choice([-1.0, 1.0], size=(max_corners, n))
    worst = 0.0
    for s in corners:
        pert = np.atleast_2d(np.asarray(phi(U, XI + w_star * s), dtype=float))
        worst = max(worst, float(np.max(np.abs(base - pert))))
    return worst / w_star


def coefficient_norm_bound(
    dictionary: BasisDictionary, box: OperatingBox, v_star: float
) -> float:
    """Model-free upper bound on the sup-induced norm of the coefficient fit.

    Requires the Gram matrix of the dictionary on the box to be invertible;
    the bound is ``v* * ||Gamma^-1||_1 * sum_j integral |psi_j|`` with the
    integrals taken by the same midpoint quadrature as the fit, so it
    dominates the oracle norm computed on the same grid.
    """
    U, XI = box.grid()
    PSI = dictionary.value_batch(U, XI)
    dv = box.cell_volume()
    gamma = PSI.T @ PSI * dv
    svals = np.linalg.svd(gamma, compute_uv=False)
    if svals[-1] <= 1e-12 * svals[0]:
        raise SingularGramError("Gram matrix singular; cannot form the norm bound")
    gamma_inv = np.linalg.inv(gamma)
    gamma_inv_norm1 = float(np.max(np.sum(np.abs(gamma_inv), axis=0)))
    abs_integrals = float(np.sum(np.abs(PSI)) * dv)
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

    @property
    def g_matrix(self) -> np.ndarray:
        return np.asarray(self.g_hat, dtype=float)

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

    With a zero noise bound the noise-gain estimation is skipped and recorded
    as identically zero.
    """
    G, eps_star = fit_coefficient_matrix(dictionary, phi, box)
    U, XI = box.grid()
    PHI = np.atleast_2d(np.asarray(phi(U, XI), dtype=float))
    if PHI.shape[0] != U.shape[0]:
        PHI = PHI.T
    v_star = float(np.max(np.abs(PHI)))
    k_xi = estimate_lipschitz(phi, box)
    k_psi = estimate_lipschitz(dictionary.value_batch, box)
    skipped = w_star == 0.0
    k_w = 0.0 if skipped else estimate_noise_gain(phi, box, w_star)
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
        g_inf_bound=coefficient_norm_bound(dictionary, box, v_star),
        g_dagger_inf_bound=right_inverse_norm_bound(G),
        grid_points=box.grid_points,
        box_lower=[float(v) for v in box.lower],
        box_upper=[float(v) for v in box.upper],
        seed=seed,
        noise_gain_skipped=skipped,
    )
