"""Checks on plants and data that only the tests make: the relative-degree
probe of a plant, the chain matrices of a Brunovsky structure, the
least-squares membership residual of a candidate window, and the stacked
vector of a sequence window.

The library takes each plant's degrees from its ``BrunovskyStructure`` and
decides window membership inside its solves; these direct forms check both.
"""

import numpy as np

from ddnpc.basis import evaluate_along
from ddnpc.plant import PlantModel, simulate, window_states
from ddnpc.trajlib import Sequence


class NoResponseError(RuntimeError):
    """An output never responded to any input within the probe horizon."""


def probe_relative_degrees(
    plant: PlantModel,
    magnitude: float = 1e-3,
    horizon: int = 10,
    tolerance: float = 1e-9,
) -> tuple[int, ...]:
    """Relative degrees found by perturbing the plant from rest at the origin.

    For each output the degree is the first step at which some single input
    applied at time zero moves that output away from the unforced response.
    A degree of zero (direct feedthrough) is returned as-is; downstream
    predictive machinery rejects it.
    """
    if magnitude <= 0:
        raise ValueError("perturbation magnitude must be positive")
    x0 = np.zeros(plant.n)
    zero_u = np.zeros((horizon + 1, plant.m))
    _, y_base = simulate(plant, x0, zero_u)
    first_change = np.full(plant.m, -1, dtype=int)
    for j in range(plant.m):
        u = zero_u.copy()
        u[0, j] = magnitude
        _, y_pert = simulate(plant, x0, u)
        moved = np.abs(y_pert - y_base) > tolerance  # (horizon+1, m)
        for i in range(plant.m):
            ks = np.nonzero(moved[:, i])[0]
            if ks.size and (first_change[i] < 0 or ks[0] < first_change[i]):
                first_change[i] = ks[0]
    if np.any(first_change < 0):
        silent = [i + 1 for i in range(plant.m) if first_change[i] < 0]
        raise NoResponseError(
            f"outputs {silent} of '{plant.name}' never responded within "
            f"{horizon} steps"
        )
    return tuple(int(k) for k in first_change)


def chain_matrices(degrees) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(A, B, C)`` of the integrator chains of lengths ``degrees``, in
    window-state coordinates: ``A`` block diagonal with shift blocks, each
    ``B_i`` the last unit vector and each ``C_i`` the first unit row, so that
    ``xi+ = A xi + B v`` and ``y = C xi``."""
    n, m = sum(degrees), len(degrees)
    A, B, C = np.zeros((n, n)), np.zeros((n, m)), np.zeros((m, n))
    off = 0
    for i, d in enumerate(degrees):
        A[off : off + d - 1, off + 1 : off + d] = np.eye(d - 1)
        B[off + d - 1, i] = 1.0
        C[i, off] = 1.0
        off += d
    return A, B, C


def representation_residual(blocks, u_candidate, y_candidates: list):
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


def stack(seq: Sequence, a: int, b: int) -> np.ndarray:
    """Stacked vector of ``seq`` over the window ``a..b`` (inclusive): rows
    concatenated in time order."""
    return seq.data[a : b + 1].reshape(-1).copy()
