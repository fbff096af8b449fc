import numpy as np
import pytest
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from ddnpc import trajlib
from ddnpc.trajlib import (
    HankelDepthError,
    Sequence,
    build_hankel,
    is_persistently_exciting,
)
from reference_checks import stack


def test_hankel_scalar_definition():
    H = build_hankel(Sequence([1, 2, 3, 4]), 2)
    np.testing.assert_array_equal(H, [[1, 2, 3], [2, 3, 4]])
    assert not H.flags.writeable


def test_hankel_full_depth_single_column():
    seq = Sequence(np.arange(12.0).reshape(4, 3))
    H = build_hankel(seq, 4)
    assert H.shape == (12, 1)
    np.testing.assert_array_equal(H[:, 0], stack(seq, 0, 3))


def test_hankel_two_channel():
    seq = Sequence([(1, 0), (0, 1), (1, 1)])
    H = build_hankel(seq, 2)
    np.testing.assert_array_equal(H, [[1, 0], [0, 1], [0, 1], [1, 1]])


def test_hankel_depth_error():
    with pytest.raises(HankelDepthError):
        build_hankel(Sequence([1, 2, 3]), 4)


def test_stack_examples():
    np.testing.assert_array_equal(stack(Sequence([1, 2, 3]), 0, 2), [1, 2, 3])
    np.testing.assert_array_equal(stack(Sequence([(1, 2), (3, 4)]), 0, 1), [1, 2, 3, 4])
    np.testing.assert_array_equal(stack(Sequence([(1, 2), (3, 4)]), 1, 1), [3, 4])


def test_sequence_rejects_nonfinite():
    with pytest.raises(ValueError):
        Sequence([1.0, np.nan])


def test_pe_constant_sequence_fails():
    res = is_persistently_exciting(Sequence([3.0] * 9), 2)
    assert not res.is_pe
    assert res.rank == 1


def test_pe_binary_sequence_holds():
    res = is_persistently_exciting(Sequence([1, 0, 0, 1, 1, 0, 1]), 2)
    assert res.is_pe
    assert res.sigma_min > 0


def test_pe_random_sequences_hold():
    # i.i.d. sequences of length >= 2L-1 are persistently exciting of order L
    for seed in range(100):
        rng = np.random.default_rng(seed)
        L = int(rng.integers(2, 6))
        seq = Sequence(rng.standard_normal(2 * L - 1 + int(rng.integers(0, 4))))
        assert is_persistently_exciting(seq, L).is_pe


def _exact_rank(mat):
    rows = [[Fraction(int(v)) for v in row] for row in mat.astype(int)]
    rank, pivot_col = 0, 0
    n_rows, n_cols = len(rows), len(rows[0])
    for col in range(n_cols):
        pivot = next((r for r in range(rank, n_rows) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for r in range(n_rows):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] / lead
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == n_rows:
            break
    return rank


def test_pe_agrees_with_exact_rational_rank():
    rng = np.random.default_rng(7)
    for _ in range(40):
        N = int(rng.integers(4, 10))
        L = int(rng.integers(1, 4))
        if N < L:
            continue
        seq = Sequence(rng.integers(-2, 3, size=N).astype(float))
        H = build_hankel(seq, L)
        res = is_persistently_exciting(seq, L)
        assert res.rank == _exact_rank(H)


@settings(max_examples=50, deadline=None)
@given(
    data=st.lists(
        st.lists(st.floats(-10, 10, allow_nan=False), min_size=2, max_size=2),
        min_size=2,
        max_size=12,
    ),
    depth=st.integers(1, 12),
)
def test_hankel_columns_are_stacked_windows(data, depth):
    seq = Sequence(np.array(data))
    if depth > seq.length:
        with pytest.raises(HankelDepthError):
            build_hankel(seq, depth)
        return
    H = build_hankel(seq, depth)
    for j in range(H.shape[1]):
        np.testing.assert_allclose(H[:, j], stack(seq, j, j + depth - 1))


def _random_controllable_lti(rng, n, m):
    for _ in range(50):
        A = rng.uniform(-0.9, 0.9, (n, n))
        B = rng.uniform(-1, 1, (n, m))
        C = rng.uniform(-1, 1, (m, n))
        D = rng.uniform(-1, 1, (m, m))
        ctrb = np.hstack([np.linalg.matrix_power(A, k) @ B for k in range(n)])
        if np.linalg.matrix_rank(ctrb) == n:
            return A, B, C, D
    raise RuntimeError("no controllable draw")


def _lti_outputs(A, B, C, D, x0, u):
    x = x0.copy()
    ys = []
    for uk in u:
        ys.append(C @ x + D @ uk)
        x = A @ x + B @ uk
    return np.array(ys)


def test_lti_membership_round_trip():
    """Any trajectory is a data combination, and any combination is a
    trajectory reproduced by simulating the plant from the fitted state."""
    rng = np.random.default_rng(11)
    L = 6
    for trial in range(30):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 3))
        A, B, C, D = _random_controllable_lti(rng, n, m)
        N = (m + 1) * (L + n) + n + 10
        u_d = rng.standard_normal((N, m))
        assert is_persistently_exciting(Sequence(u_d), L + n).is_pe
        y_d = _lti_outputs(A, B, C, D, rng.standard_normal(n), u_d)
        Hu = build_hankel(Sequence(u_d), L)
        Hy = build_hankel(Sequence(y_d), L)
        G = np.vstack([Hu, Hy])

        # forward: fresh trajectory must lie in the column span
        u_new = rng.standard_normal((L, m))
        y_new = _lti_outputs(A, B, C, D, rng.standard_normal(n), u_new)
        rhs = np.concatenate([u_new.reshape(-1), y_new.reshape(-1)])
        alpha, *_ = np.linalg.lstsq(G, rhs, rcond=None)
        assert np.linalg.norm(G @ alpha - rhs) < 1e-8 * max(1, np.linalg.norm(rhs))

        # converse: any combination simulates from some initial state
        alpha = rng.standard_normal(G.shape[1])
        w = G @ alpha
        u_c = w[: L * m].reshape(L, m)
        y_c = w[L * m :].reshape(L, m)
        # least-squares initial state from the combined trajectory
        obs_rows, free = [], []
        x_basis = np.eye(n)
        for k in range(L):
            xk_of_x0 = np.linalg.matrix_power(A, k)
            forced = np.zeros(m)
            for j in range(k):
                forced = forced + C @ np.linalg.matrix_power(A, k - 1 - j) @ B @ u_c[j]
            obs_rows.append(C @ xk_of_x0)
            free.append(y_c[k] - D @ u_c[k] - forced)
        O = np.vstack(obs_rows)
        b = np.concatenate(free)
        x0, *_ = np.linalg.lstsq(O, b, rcond=None)
        y_sim = _lti_outputs(A, B, C, D, x0, u_c)
        assert np.max(np.abs(y_sim - y_c)) < 1e-8


def test_trajectory_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    u = rng.standard_normal((5, 2))
    ys = [rng.standard_normal(7), rng.standard_normal(6)]
    path = tmp_path / "traj.csv"
    trajlib.write_trajectory_csv(path, u, ys)
    u2, ys2 = trajlib.read_trajectory_csv(path)
    np.testing.assert_array_equal(u, u2)
    for a, b in zip(ys, ys2):
        np.testing.assert_array_equal(a, b)


def test_trajectory_csv_reports_bad_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("k,u_1,y_1\n0,1.0,2.0\n1,xyz,3.0\n")
    with pytest.raises(ValueError, match="line 3"):
        trajlib.read_trajectory_csv(path)
