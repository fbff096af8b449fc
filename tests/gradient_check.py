"""Central-difference check of a problem's analytic gradients and jacobians."""

import numpy as np

from ddnpc.solver import NlpProblem


def _fd_gradient(fun, z, step):
    g = np.empty_like(z)
    for i in range(z.size):
        zp, zm = z.copy(), z.copy()
        zp[i] += step
        zm[i] -= step
        g[i] = (fun(zp) - fun(zm)) / (2 * step)
    return g


def check_gradients(
    problem: NlpProblem,
    n_points: int = 5,
    step: float = 1e-6,
    tol: float = 1e-4,
    seed: int = 0,
    scale: float = 0.1,
) -> float:
    """Compare analytic gradients/jacobians against central differences.

    Samples points around the initial guess (inside the box), checks the
    objective gradient and every equality jacobian row, and raises on the
    first relative mismatch beyond ``tol``. Returns the worst relative error.
    """
    rng = np.random.default_rng(seed)
    lo = np.where(np.isfinite(problem.lower), problem.lower, -1e3)
    hi = np.where(np.isfinite(problem.upper), problem.upper, 1e3)
    worst = 0.0

    def rel_err(analytic, fd):
        denom = max(1.0, float(np.max(np.abs(analytic))), float(np.max(np.abs(fd))))
        return float(np.max(np.abs(analytic - fd))) / denom

    for _ in range(n_points):
        z = np.clip(problem.x0 + scale * rng.standard_normal(problem.x0.size), lo, hi)
        _, g = problem.objective(z)
        g_fd = _fd_gradient(lambda zz: problem.objective(zz)[0], z, step)
        err = rel_err(g, g_fd)
        worst = max(worst, err)
        if err > tol:
            raise AssertionError(f"objective gradient mismatch: rel err {err:.2e}")
        res = problem.eq_residual
        if res is None:
            continue
        J = np.atleast_2d(np.asarray(problem.eq_jacobian(z), dtype=float))
        J_fd = np.empty_like(J)
        for i in range(z.size):
            zp, zm = z.copy(), z.copy()
            zp[i] += step
            zm[i] -= step
            J_fd[:, i] = (
                np.asarray(res(zp), dtype=float).reshape(-1)
                - np.asarray(res(zm), dtype=float).reshape(-1)
            ) / (2 * step)
        err = rel_err(J, J_fd)
        worst = max(worst, err)
        if err > tol:
            raise AssertionError(f"equality jacobian mismatch: rel err {err:.2e}")
    return worst
