"""The approximation-certificate pipeline before it evaluated the grid once:
the reference its constants are checked against, bit for bit.

Every estimator here builds the box grid and evaluates what it needs on it
itself (six grid builds, twenty full-grid ``phi`` calls and three dictionary
calls per certificate with a noise bound), and the noise gain takes each
sign corner over the whole grid in one call. The library evaluates the grid
once and sweeps the corners block by block; none of that may change a
constant.
"""

from typing import Callable, Optional

import numpy as np

from ddnpc.basis import (
    ApproximationCertificate,
    BasisDictionary,
    OperatingBox,
    RankDeficientError,
    SingularGramError,
    right_inverse_norm_bound,
)


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
) -> float:
    """Largest observed ``|phi(u, xi) - phi(u, xi + w)| / w*`` over the grid
    with all ``2^n`` sign-corner state perturbations of magnitude ``w*``."""
    if w_star == 0.0:
        return 0.0
    U, XI = box.grid()
    base = np.atleast_2d(np.asarray(phi(U, XI), dtype=float))
    n = box.n
    corners = np.array(
        [[(1 if (c >> i) & 1 else -1) for i in range(n)] for c in range(2**n)],
        dtype=float,
    )
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
