"""Sequences, stacked vectors, Hankel matrices and persistency of excitation.

This module is the shared algebraic substrate of the package: every data-driven
representation downstream is built from sliding windows of multi-channel time
series. The conventions are fixed here once:

* a sequence is time-major, row ``k`` is the sample ``z_k`` (shape ``(N, eta)``),
* the stacked vector of a window concatenates rows in time order,
* the depth-``L`` Hankel matrix has the stacked window ``z_[j, j+L-1]`` as its
  ``j``-th column.

All objects are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class HankelDepthError(ValueError):
    """Requested Hankel depth exceeds the sequence length."""


@dataclass(frozen=True)
class Sequence:
    """A finite multi-channel time series, row ``k`` holding the sample ``z_k``.

    The data matrix has shape ``(N, eta)`` with ``N >= 1`` time steps and
    ``eta >= 1`` channels; all entries must be finite. One-dimensional input is
    promoted to a single channel. The backing array is copied and frozen.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.array(self.data, dtype=float)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2:
            raise ValueError(f"sequence data must be 1-D or 2-D, got ndim={arr.ndim}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"sequence needs N >= 1 and eta >= 1, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("sequence entries must all be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def length(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


def build_hankel(seq: Sequence, depth: int) -> np.ndarray:
    """Read-only Hankel matrix of ``seq`` with ``depth`` block rows: column
    ``j`` is the stacked window ``z_[j, j+depth-1]``. Shape ``(eta * depth,
    N - depth + 1)``."""
    N, eta = seq.length, seq.width
    if not (1 <= depth <= N):
        raise HankelDepthError(f"depth {depth} exceeds sequence length {N}")
    cols = N - depth + 1
    mat = np.empty((eta * depth, cols))
    for j in range(cols):
        mat[:, j] = seq.data[j : j + depth].reshape(-1)
    mat.setflags(write=False)
    return mat


class PersistencyResult(NamedTuple):
    is_pe: bool
    sigma_min: float
    rank: int
    required_rank: int


def is_persistently_exciting(seq: Sequence, order: int) -> PersistencyResult:
    """Check persistency of excitation of a given order.

    The sequence is persistently exciting of order ``L`` when its depth-``L``
    Hankel matrix has full row rank ``eta * L``. Rank is the number of singular
    values above ``1e-10 * sigma_max``; the smallest singular value is
    returned for diagnostics.
    """
    svals = np.linalg.svd(build_hankel(seq, order), compute_uv=False)
    sigma_max = svals[0] if svals.size else 0.0
    rank = int(np.sum(svals > 1e-10 * sigma_max)) if sigma_max > 0 else 0
    required = seq.width * order
    # sigma_min of the (possibly wide) Hankel matrix: smallest of the
    # min(rows, cols) singular values that svd reports.
    sigma_min = float(svals[-1]) if svals.size else 0.0
    return PersistencyResult(rank == required, sigma_min, rank, required)


# ---------------------------------------------------------------------------
# Project-wide trajectory CSV format: header k,u_1..u_m,y_1..y_m, one row per
# step, '.' decimal separator. Input and per-channel output windows may have
# different lengths; missing cells are left empty.
# ---------------------------------------------------------------------------

FLOAT_FMT = "%.17g"


def write_trajectory_csv(path, u: np.ndarray, outputs: list[np.ndarray]) -> None:
    """Write inputs ``u`` (shape ``(N, m)``) and per-channel outputs to CSV.

    Output channel ``i`` may be longer than ``N``; rows past the end of a
    column are left blank so the file stays rectangular.
    """
    u = np.atleast_2d(np.asarray(u, dtype=float))
    m = u.shape[1]
    p = len(outputs)
    ys = [np.asarray(y, dtype=float).reshape(-1) for y in outputs]
    n_rows = max([u.shape[0]] + [y.size for y in ys])
    header = ["k"] + [f"u_{i+1}" for i in range(m)] + [f"y_{i+1}" for i in range(p)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(n_rows):
            row = [str(k)]
            for i in range(m):
                row.append(FLOAT_FMT % u[k, i] if k < u.shape[0] else "")
            for y in ys:
                row.append(FLOAT_FMT % y[k] if k < y.size else "")
            writer.writerow(row)


def read_trajectory_csv(path) -> tuple[np.ndarray, list[np.ndarray]]:
    """Parse a trajectory CSV back into ``(u, outputs)``.

    Raises ``ValueError`` with the offending line number on malformed input.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        m = sum(1 for name in header if name.startswith("u_"))
        p = sum(1 for name in header if name.startswith("y_"))
        if header[0] != "k" or m == 0 or p == 0:
            raise ValueError(f"{path}: line 1: expected header k,u_1..,y_1..")
        u_rows: list[list[float]] = []
        y_cols: list[list[float]] = [[] for _ in range(p)]
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 1 + m + p:
                raise ValueError(f"{path}: line {lineno}: expected {1+m+p} cells")
            try:
                u_cells = row[1 : 1 + m]
                if any(c != "" for c in u_cells):
                    u_rows.append([float(c) for c in u_cells])
                for i, c in enumerate(row[1 + m :]):
                    if c != "":
                        y_cols[i].append(float(c))
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
    u = np.array(u_rows, dtype=float).reshape(len(u_rows), m)
    return u, [np.array(col, dtype=float) for col in y_cols]
