"""General constrained nonlinear least squares used by the predictive layers.

Least-squares objective, nonlinear equality and inequality constraints and
box bounds. Equalities and inequalities are handled by an
augmented-Lagrangian outer loop (multiplier updates, penalty growth when
feasibility stalls); each inner subproblem is the augmented Lagrangian
written as least-squares rows (the objective rows, then the shifted equality
rows and the hinged inequality rows, scaled by the penalty) over the box.
Identical problems, options and guesses give identical reports.

``reduced_lsq`` is the one box-constrained least-squares solver. It runs the
augmented-Lagrangian inner subproblems, the controller's relaxed direct solve
(the small problem left once its equalities are eliminated) and the
data-driven simulation and output-matching fits of ``behavior``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg.lapack import dposv


def __getattr__(name):
    """``solver.minimize``, scipy's, imported on first lookup, so that
    importing ddnpc does not load ``scipy.optimize``. Nothing here calls it;
    the benchmark's traced run patches it (ROADMAP item 5)."""
    if name == "minimize":
        from scipy.optimize import minimize

        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# The augmented-Lagrangian penalty: start, growth when feasibility stalls, cap.
PENALTY_INIT, PENALTY_GROWTH, PENALTY_MAX = 10.0, 10.0, 1e12


class CallbackError(RuntimeError):
    """A problem callback raised or returned non-finite values."""


@dataclass
class NlpProblem:
    """Problem data in callback form: minimize ``||ls_residual(z)||^2``.

    ``ls_jacobian`` is the jacobian of ``ls_residual``. ``eq_residual`` /
    ``eq_jacobian`` describe equalities ``c(z) = 0``; ``ineq_residual`` /
    ``ineq_jacobian`` describe ``g(z) <= 0``. Bounds with equal lower and
    upper entry pin a variable.
    """

    dim: int
    ls_residual: Callable[[np.ndarray], np.ndarray]
    ls_jacobian: Callable[[np.ndarray], np.ndarray]
    x0: np.ndarray
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None
    eq_residual: Optional[Callable[[np.ndarray], np.ndarray]] = None
    eq_jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    ineq_residual: Optional[Callable[[np.ndarray], np.ndarray]] = None
    ineq_jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        self.x0 = np.asarray(self.x0, dtype=float).reshape(-1)
        if self.x0.size != self.dim:
            raise ValueError(f"initial guess has size {self.x0.size}, expected {self.dim}")
        if self.lower is None:
            self.lower = np.full(self.dim, -np.inf)
        if self.upper is None:
            self.upper = np.full(self.dim, np.inf)
        self.lower = np.asarray(self.lower, dtype=float).reshape(-1)
        self.upper = np.asarray(self.upper, dtype=float).reshape(-1)
        if self.lower.size != self.dim or self.upper.size != self.dim:
            raise ValueError("bound sizes do not match the decision dimension")
        f0, g0 = self.objective(np.clip(self.x0, self.lower, self.upper))
        if not (np.isfinite(f0) and np.all(np.isfinite(g0))):
            raise CallbackError("objective not finite at the initial guess")

    def objective(self, z):
        """``(f, grad f)`` with ``f = ||r||^2`` and ``grad f = 2 J^T r``."""
        r = self.ls_residual(z)
        return float(r @ r), 2.0 * (self.ls_jacobian(z).T @ r)


@dataclass
class SolverOptions:
    feasibility_tol: float = 1e-7
    optimality_tol: float = 1e-6
    max_outer: int = 20
    inner_maxiter: int = 500


@dataclass
class SolverReport:
    x: np.ndarray
    objective: float
    max_eq_violation: float
    max_ineq_violation: float
    iterations: int
    kkt_residual: float
    status: str  # converged | max-iter | infeasible-detected

    @property
    def max_violation(self) -> float:
        return max(self.max_eq_violation, self.max_ineq_violation)


def solve(problem: NlpProblem, options: Optional[SolverOptions] = None) -> SolverReport:
    """Minimize the problem with an augmented-Lagrangian loop.

    Each inner solve is ``reduced_lsq`` on the augmented Lagrangian's
    least-squares rows over the whole box, which holds pinned entries.
    Feasibility is measured in the sup norm over all constraints; optimality
    by the projected gradient ``2 J^T r`` of those rows at the returned
    point. Slow convergence yields a ``max-iter`` report rather than an
    exception; a stalled penalty at its cap with large violation is reported
    as ``infeasible-detected``.
    """
    opts = options or SolverOptions()

    eq_res, eq_jac = problem.eq_residual, problem.eq_jacobian
    in_res, in_jac = problem.ineq_residual, problem.ineq_jacobian

    z = np.clip(problem.x0.copy(), problem.lower, problem.upper)
    n_eq = eq_res(z).size if eq_res is not None else 0
    n_in = np.asarray(in_res(z)).size if in_res is not None else 0

    mu = np.zeros(n_eq)
    nu = np.zeros(n_in)
    rho = PENALTY_INIT
    total_inner = 0
    prev_violation = np.inf

    # The augmented Lagrangian as least-squares rows: its value is their
    # squared norm up to a constant in the multipliers.
    def al_residual(zz):
        sr = math.sqrt(0.5 * rho)
        rows = [problem.ls_residual(zz)]
        if eq_res is not None:
            rows.append(sr * (eq_res(zz) + mu / rho))
        if in_res is not None:
            gi = np.asarray(in_res(zz), dtype=float).reshape(-1)
            rows.append(sr * np.maximum(0.0, gi + nu / rho))
        return np.concatenate(rows)

    def al_jacobian(zz):
        sr = math.sqrt(0.5 * rho)
        rows = [np.atleast_2d(problem.ls_jacobian(zz))]
        if eq_res is not None:
            rows.append(sr * eq_jac(zz))
        if in_res is not None:
            gi = np.asarray(in_res(zz), dtype=float).reshape(-1)
            Ji = np.atleast_2d(np.asarray(in_jac(zz), dtype=float))
            rows.append(sr * (Ji * ((gi + nu / rho) > 0)[:, None]))
        return np.vstack(rows)

    def violations(zz):
        ve = float(np.max(np.abs(eq_res(zz)))) if n_eq else 0.0
        vi = float(np.max(np.maximum(0.0, in_res(zz)))) if n_in else 0.0
        return ve, vi

    def kkt_residual(zz):
        g = 2.0 * (al_jacobian(zz).T @ al_residual(zz))
        proj = np.clip(zz - g, problem.lower, problem.upper) - zz
        return float(np.max(np.abs(proj))) if proj.size else 0.0

    status = "max-iter"
    for _ in range(opts.max_outer):
        inner = reduced_lsq(
            al_residual, al_jacobian, z, problem.lower, problem.upper, opts.inner_maxiter, 1e-14
        )
        z = inner.x
        total_inner += inner.nfev
        violation = max(violations(z))
        if violation <= opts.feasibility_tol and kkt_residual(z) <= opts.optimality_tol:
            status = "converged"
            break
        if n_eq:
            mu = mu + rho * eq_res(z)
        if n_in:
            nu = np.maximum(0.0, nu + rho * np.asarray(in_res(z), dtype=float).reshape(-1))
        if violation > opts.feasibility_tol and violation > 0.25 * prev_violation:
            if rho >= PENALTY_MAX:
                if violation > 1e3 * opts.feasibility_tol and violation > 0.9 * prev_violation:
                    status = "infeasible-detected"
                    break
            rho = min(rho * PENALTY_GROWTH, PENALTY_MAX)
        prev_violation = violation

    ve, vi = violations(z)
    f, _ = problem.objective(z)
    return SolverReport(
        x=z,
        objective=float(f),
        max_eq_violation=ve,
        max_ineq_violation=vi,
        iterations=total_inner,
        kkt_residual=kkt_residual(z),
        status=status,
    )


# ---------------------------------------------------------------------------
# Box-constrained nonlinear least squares
# ---------------------------------------------------------------------------


def _chol_solve(M, b):
    """``M^-1 b`` for a symmetric positive definite ``M``: one LAPACK call,
    dposv, which runs potrf and potrs on the upper triangle, as
    ``cho_factor``/``cho_solve`` call them, without their per-call wrapper
    cost. A Fortran-ordered ``M`` is factored in place, so it is overwritten;
    any other is copied first."""
    _, x, info = dposv(M, b, lower=0, overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"Cholesky solve failed (LAPACK info {info})")
    return x


def _damped_solve(A, d, b):
    """``(A + diag(d))^-1 b`` for a symmetric ``A``, factored in place on a
    Fortran-ordered copy."""
    M = np.array(A, order="F")
    M.ravel(order="F")[:: M.shape[0] + 1] += d
    return _chol_solve(M, b)


# The convergence test is not factored when its lower bounds exceed both of
# its thresholds by this factor, far more than the rounding of either side.
_SKIP_MARGIN = 4.0


@dataclass
class LsqReport:
    x: np.ndarray
    objective: float  # ||residual(x)||^2
    nfev: int  # residual evaluations, the first one included
    converged: bool


def reduced_lsq(residual, jacobian, x0, lo, hi, maxiter: int, tol: float) -> LsqReport:
    """Minimize ``||residual(x)||^2`` over the box ``lo <= x <= hi``.

    Levenberg-Marquardt with Marquardt scaling (Moré 1978): the step solves
    ``(A + mu*diag(D)) s = -g`` on the free variables, with ``A = J^T J``,
    ``g = J^T r`` and ``D`` the running maximum of ``diag(A)``. A variable
    within ``1e-10`` of the box width of a bound is held there while its
    gradient points out of the box, so an entry with ``lo == hi`` never
    moves. Infinite bounds are allowed and are never within reach, so with
    no finite bound every variable is free and no step is cut. The iterates
    stay inside the box: a step that would leave it is cut to 0.995 of the
    distance to the first bound it meets (Coleman & Li 1996), so a free
    variable on a bound whose step points out of the box makes the step
    zero, and it is rejected. ``mu`` starts at 1e-8, shrinks or grows with
    the gain ratio and jumps to at least 1e-3 on a rejected step. A trial
    point whose residual is not finite, or whose residual raises
    ``CallbackError`` (as a dictionary that cannot be evaluated there does),
    is a rejected step.

    The solve converges when the Gauss-Newton step on the free variables,
    ``-A_f^-1 g_f``, promises a decrease ``g_f^T A_f^-1 g_f`` of at most
    ``tol * f`` or is itself below ``1e-12`` relative to ``x``. The step is
    solved with ``M = A_f + 1e-12 * diag(D_f)``, and only when the test could
    pass: by Cauchy-Schwarz the decrease ``g_f^T M^-1 g_f`` is at least
    ``(g_f^T g_f)^2 / g_f^T M g_f`` and the step's length at least that over
    ``||g_f||``, and where both bounds exceed their thresholds 4 times over,
    far beyond the rounding of either side, the test fails without factoring
    ``M``. So the verdict and every iterate are those of a loop that factors
    at every test. The damped
    step taken is not tested: it is short when ``mu`` is large or the box
    cuts it, not because the solve is done. The solve stops unconverged, at
    the last accepted point, after ``maxiter`` residual evaluations, or once
    the damping ``mu * max(D_f)`` overflows: there no step has lowered the
    cost in floating point, and none will. The relaxed direct solve passes
    ``tol = 1e-10``; the augmented-Lagrangian inner solve and the
    data-driven window fit, whose results are tested for stationarity, pass
    ``1e-14``. Raises ``CallbackError`` when the residual at ``x0`` or a
    jacobian is not finite; the jacobian is tested through ``diag(J^T J)``,
    so a column whose sum of squares overflows counts too. Exceptions from
    the callbacks propagate, except a ``CallbackError`` from a trial
    residual.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    r = np.asarray(residual(x), dtype=float)
    nfev = 1
    if not np.isfinite(r).all():
        raise CallbackError("residual not finite at the initial guess")
    f = float(np.dot(r, r))
    # Only an entry with a finite bound can be held or cut the step: an
    # infinite bound is never within reach, so the tests run on whole vectors.
    boxed = bool(np.isfinite(lo).any() or np.isfinite(hi).any())
    width = hi - lo
    near = np.where(np.isfinite(width), 1e-10 * width, 0.0)
    below = -near
    D = np.zeros(x.size)
    mu = 1e-8
    while True:
        J = np.asarray(jacobian(x), dtype=float)
        A, g = J.T @ J, J.T @ r
        np.maximum(D, A.diagonal(), out=D)
        # D where positive, else 1; D only grows, so once no entry is zero
        # it is the scale itself
        scale = D if np.count_nonzero(D) == D.size else D + (D == 0.0)
        scale_max = float(scale.max())
        # A non-finite entry of J makes its column's diagonal entry of A, a
        # sum of squares, NaN or inf; D and scale keep it.
        if not scale_max < math.inf:
            raise CallbackError("jacobian not finite")
        n_held = 0
        if boxed:
            room_lo, room_hi = lo - x, hi - x
            at_lo, at_hi = room_lo >= below, room_hi <= near
            # only a variable within reach of a bound can be held
            if np.count_nonzero(at_lo | at_hi):
                held = (at_lo & (g >= 0)) | (at_hi & (g <= 0))
                n_held = np.count_nonzero(held)
        if n_held == x.size:
            return LsqReport(x, f, nfev, True)
        if n_held:
            free = ~held
            A_f, g_f, scale_f, Jg = A[np.ix_(free, free)], g[free], scale[free], J @ (g * free)
            scale_max = float(scale_f.max())
        else:
            A_f, g_f, scale_f, Jg = A, g, scale, J @ g
        # The Gauss-Newton step is -M^-1 g_f, M = A_f + 1e-12*diag(scale_f):
        # the 1e-12 keeps it defined for a singular A_f. gMg is at least
        # g_f^T M g_f, so gg^2 / gMg and gg^1.5 / gMg bound the step's promised
        # decrease and its length from below.
        gg = float(np.dot(g_f, g_f))
        gMg = float(np.dot(Jg, Jg)) + 1e-12 * scale_max * gg
        x_norm = math.sqrt(np.dot(x, x))
        if not (
            gg * gg > _SKIP_MARGIN * tol * f * gMg
            and gg * gg > _SKIP_MARGIN * 1e-12 * (1e-12 + x_norm) * math.sqrt(gg) * gMg
        ):
            gn = _damped_solve(A_f, 1e-12 * scale_f, g_f)
            if np.dot(g_f, gn) <= tol * f or math.sqrt(np.dot(gn, gn)) <= 1e-12 * (1e-12 + x_norm):
                return LsqReport(x, f, nfev, True)
        while True:
            if nfev >= maxiter or mu * scale_max == math.inf:
                return LsqReport(x, f, nfev, False)
            step = -_damped_solve(A_f, mu * scale_f, g_f)
            if n_held:
                s = np.zeros(x.size)
                s[free] = step
            else:
                s = step
            if boxed:
                # x is in the box, so only a step past a bound reaches it
                # before t = 1; the ratios are taken only then.
                if np.count_nonzero((s > room_hi) | (s < room_lo)):
                    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                        reach = np.where(
                            s > 0, room_hi / s, np.where(s < 0, room_lo / s, np.inf)
                        )
                    t = reach.min()
                    if t < 1.0:
                        s *= 0.995 * t
                x_new = x + s
                x_new.clip(lo, hi, out=x_new)  # np.clip's ufunc, without its wrapper
            else:
                x_new = x + s
            nfev += 1
            try:
                r_new = np.asarray(residual(x_new), dtype=float)
                f_new = float(np.dot(r_new, r_new))
            except CallbackError:
                f_new = np.inf
            if f_new < f:  # never true for a non-finite residual
                break
            mu = max(10.0 * mu, 1e-3)
        predicted = -(2.0 * np.dot(g, s) + np.dot(s @ A, s))
        gain = (f - f_new) / predicted if predicted > 0 else 0.0
        if gain > 0.75:
            mu /= 3.0
        elif gain < 0.25:
            mu *= 2.0
        x, r, f = x_new, r_new, f_new
