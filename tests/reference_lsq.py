"""The box-constrained Levenberg-Marquardt loop of ``solver.reduced_lsq``
before its per-iteration overhead was trimmed: the reference its iterates
are checked against, bit for bit.

The library's loop skips the free mask, the box cut and the clip when no
bound is finite, skips the gathers when every variable is free, adds the
damping to the diagonal of one Fortran-ordered copy and stops once the
damping overflows. None of this may change an iterate, ``nfev`` or the
report on a problem where this loop emits no warning.
"""

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from ddnpc.solver import CallbackError, LsqReport


def _chol_solve(M, b):
    """``M^-1 b`` for a symmetric positive definite ``M``: LAPACK potrf/potrs
    on the upper triangle, as ``cho_factor``/``cho_solve`` call them, without
    their per-call wrapper cost."""
    c, info = dpotrf(M, lower=0, clean=0)
    if info == 0:
        x, info = dpotrs(c, b, lower=0)
    if info != 0:
        raise np.linalg.LinAlgError(f"Cholesky solve failed (LAPACK info {info})")
    return x


def reduced_lsq(residual, jacobian, x0, lo, hi, maxiter: int, tol: float) -> LsqReport:
    """``solver.reduced_lsq`` as it was before its loop was trimmed."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    r = np.asarray(residual(x), dtype=float)
    nfev = 1
    if not np.all(np.isfinite(r)):
        raise CallbackError("residual not finite at the initial guess")
    f = float(r @ r)
    width = hi - lo
    near = np.where(np.isfinite(width), 1e-10 * width, 0.0)
    D = np.zeros(x.size)
    mu = 1e-8
    while True:
        J = np.asarray(jacobian(x), dtype=float)
        if not np.all(np.isfinite(J)):
            raise CallbackError("jacobian not finite")
        A, g = J.T @ J, J.T @ r
        D = np.maximum(D, np.diag(A))
        scale = np.where(D > 0, D, 1.0)
        at_lo, at_hi = x - lo <= near, hi - x <= near
        free = ~((at_lo & (g >= 0)) | (at_hi & (g <= 0)))
        if not free.any():
            return LsqReport(x, f, nfev, True)
        A_f, g_f, scale_f = A[np.ix_(free, free)], g[free], np.diag(scale[free])
        # minus the Gauss-Newton step; the 1e-12 keeps it defined for a singular A_f
        gn = _chol_solve(A_f + 1e-12 * scale_f, g_f)
        if g_f @ gn <= tol * f or np.linalg.norm(gn) <= 1e-12 * (1e-12 + np.linalg.norm(x)):
            return LsqReport(x, f, nfev, True)
        while True:
            if nfev >= maxiter:
                return LsqReport(x, f, nfev, False)
            s = np.zeros(x.size)
            s[free] = -_chol_solve(A_f + mu * scale_f, g_f)
            with np.errstate(divide="ignore", invalid="ignore"):
                reach = np.where(s > 0, (hi - x) / s, np.where(s < 0, (lo - x) / s, np.inf))
            t = reach.min()
            if t < 1.0:
                s *= 0.995 * t
            x_new = np.clip(x + s, lo, hi)
            nfev += 1
            try:
                r_new = np.asarray(residual(x_new), dtype=float)
                f_new = float(r_new @ r_new)
            except CallbackError:
                f_new = np.inf
            if f_new < f:  # never true for a non-finite residual
                break
            mu = max(10.0 * mu, 1e-3)
        predicted = -(2.0 * (g @ s) + s @ A @ s)
        gain = (f - f_new) / predicted if predicted > 0 else 0.0
        if gain > 0.75:
            mu /= 3.0
        elif gain < 0.25:
            mu *= 2.0
        x, r, f = x_new, r_new, f_new
