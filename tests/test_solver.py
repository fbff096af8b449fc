import numpy as np
import pytest

from ddnpc import solver
from ddnpc.solver import (
    LinearEquality,
    NlpProblem,
    SolverOptions,
    check_gradients,
    solve,
)


def quadratic_problem(center, dim, **kw):
    center = np.asarray(center, dtype=float)

    def obj(z):
        d = z - center
        return float(d @ d), 2.0 * d

    return NlpProblem(dim=dim, objective=obj, x0=np.zeros(dim), **kw)


def test_unconstrained_quadratic():
    rep = solve(quadratic_problem([1.0, -2.0, 0.5], 3))
    assert rep.status == "converged"
    np.testing.assert_allclose(rep.x, [1.0, -2.0, 0.5], atol=1e-7)


def test_equality_constrained_quadratic():
    prob = quadratic_problem([0.0, 0.0], 2,
                             linear_eq=LinearEquality(A=np.array([[1.0, 1.0]]), b=np.array([1.0])))
    rep = solve(prob)
    assert rep.status == "converged"
    np.testing.assert_allclose(rep.x, [0.5, 0.5], atol=1e-6)
    assert rep.max_eq_violation <= 1e-7


def test_rosenbrock_in_box():
    def obj(z):
        x, y = z
        f = (1 - x) ** 2 + 100 * (y - x**2) ** 2
        g = np.array([-2 * (1 - x) - 400 * x * (y - x**2), 200 * (y - x**2)])
        return f, g

    prob = NlpProblem(dim=2, objective=obj, x0=np.array([-1.5, 1.5]),
                      lower=np.array([-2.0, -2.0]), upper=np.array([2.0, 2.0]))
    rep = solve(prob, SolverOptions(inner_maxiter=2000))
    np.testing.assert_allclose(rep.x, [1.0, 1.0], atol=1e-5)


def test_matches_direct_kkt_on_random_qps():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n, p = 6, 2
        Aq = rng.standard_normal((n, n))
        H = Aq @ Aq.T + n * np.eye(n)
        c = rng.standard_normal(n)
        A = rng.standard_normal((p, n))
        b = rng.standard_normal(p)

        def obj(z, H=H, c=c):
            return float(0.5 * z @ H @ z + c @ z), H @ z + c

        prob = NlpProblem(dim=n, objective=obj, x0=np.zeros(n),
                          linear_eq=LinearEquality(A=A, b=b))
        rep = solve(prob)
        kkt = np.block([[H, A.T], [A, np.zeros((p, p))]])
        sol = np.linalg.solve(kkt, np.concatenate([-c, b]))
        np.testing.assert_allclose(rep.x, sol[:n], atol=1e-6)


def test_inequality_constraint():
    # minimize ||z - (2, 0)||^2 subject to z_1 <= 1
    prob = quadratic_problem([2.0, 0.0], 2,
                             ineq_residual=lambda z: np.array([z[0] - 1.0]),
                             ineq_jacobian=lambda z: np.array([[1.0, 0.0]]))
    rep = solve(prob)
    np.testing.assert_allclose(rep.x, [1.0, 0.0], atol=1e-6)
    assert rep.max_ineq_violation <= 1e-7


def test_infeasible_detected():
    # x = 0 and x = 1 simultaneously
    prob = quadratic_problem([0.0], 1,
                             linear_eq=LinearEquality(A=np.array([[1.0], [1.0]]),
                                                      b=np.array([0.0, 1.0])))
    rep = solve(prob, SolverOptions(max_outer=30))
    assert rep.status in ("infeasible-detected", "max-iter")
    assert rep.max_eq_violation > 1e-3


def test_gauss_newton_path_matches_quasi_newton():
    """With the sum-of-squares form supplied the inner method changes but the
    minimizer must not."""
    center = np.array([0.3, -0.7, 1.1])
    A = np.array([[1.0, 1.0, 0.0]])
    b = np.array([0.5])

    def obj(z):
        d = z - center
        return float(d @ d), 2.0 * d

    base = NlpProblem(dim=3, objective=obj, x0=np.zeros(3),
                      linear_eq=LinearEquality(A=A, b=b))
    gn = NlpProblem(dim=3, objective=obj, x0=np.zeros(3),
                    linear_eq=LinearEquality(A=A, b=b),
                    ls_residual=lambda z: z - center,
                    ls_jacobian=lambda z: np.eye(3))
    r1, r2 = solve(base), solve(gn)
    np.testing.assert_allclose(r1.x, r2.x, atol=1e-6)


def test_determinism():
    prob = quadratic_problem([1.0, 2.0], 2,
                             linear_eq=LinearEquality(A=np.array([[1.0, -1.0]]), b=np.array([0.3])))
    r1 = solve(prob)
    r2 = solve(prob)
    assert np.array_equal(r1.x, r2.x)
    assert r1.objective == r2.objective and r1.iterations == r2.iterations


def test_callback_failure_at_start():
    def bad(z):
        return np.nan, np.zeros(1)

    with pytest.raises(solver.CallbackError):
        NlpProblem(dim=1, objective=bad, x0=np.zeros(1))


def test_check_gradients_catches_wrong_gradient():
    def obj(z):
        return float(z @ z), 2.0 * z + 0.05  # deliberately off

    prob = NlpProblem(dim=3, objective=obj, x0=np.ones(3))
    with pytest.raises(AssertionError, match="objective gradient"):
        check_gradients(prob, n_points=2)



# ---------------------------------------------------------------------------
# warm-start shifting (OcpBuilder.shifted_guess)
# ---------------------------------------------------------------------------


def _toy_builder(y_s):
    from ddnpc.npc import OcpBuilder
    from test_npc import flat_toy_relaxed_spec

    return OcpBuilder(flat_toy_relaxed_spec(y_s))


def test_shift_all_zero_solution_stays_zero():
    builder = _toy_builder(0.0)
    assert builder.spec.u_setpoint[0] == 0.0
    prev = builder.unpack(np.zeros(builder.dim))
    out = builder.unpack(builder.shifted_guess(prev, 2))
    assert not np.any(out.u_bar) and not np.any(out.y_bar[0]) and not np.any(out.sigma_psi)


def test_shift_moves_blocks_and_pads():
    builder = _toy_builder(0.3)
    Lp, ny = builder.Lp, builder.y_lens[0]
    u_s, y_s = builder.spec.u_setpoint[0], builder.spec.y_setpoint[0]
    z = builder.pack(
        np.zeros(builder.M), np.arange(float(Lp)).reshape(Lp, 1), [np.arange(float(ny))]
    )
    out = builder.unpack(builder.shifted_guess(builder.unpack(z), 2))
    np.testing.assert_array_equal(out.u_bar[:, 0], [*range(2, Lp), u_s, u_s])
    np.testing.assert_array_equal(out.y_bar[0], [*range(2, ny), y_s, y_s])
