from unittest import mock

import numpy as np
import pytest

from scipy.optimize import least_squares, lsq_linear

import full_space
import reference_lsq
from gradient_check import check_gradients
from ddnpc import solver
from ddnpc.solver import (
    NlpProblem,
    reduced_lsq,
    solve,
)


def linear_equality(A, b):
    """Equality callbacks for ``A z = b``."""
    A, b = np.asarray(A, dtype=float), np.asarray(b, dtype=float)
    return dict(eq_residual=lambda z: A @ z - b, eq_jacobian=lambda z: A)


def quadratic_problem(center, dim, **kw):
    center = np.asarray(center, dtype=float)
    return NlpProblem(ls_residual=lambda z: z - center,
                      ls_jacobian=lambda z: np.eye(dim), x0=np.zeros(dim), **kw)


def test_unconstrained_quadratic():
    rep = solve(quadratic_problem([1.0, -2.0, 0.5], 3))
    assert rep.status == "converged"
    np.testing.assert_allclose(rep.x, [1.0, -2.0, 0.5], atol=1e-7)


def test_equality_constrained_quadratic():
    prob = quadratic_problem([0.0, 0.0], 2, **linear_equality([[1.0, 1.0]], [1.0]))
    rep = solve(prob)
    assert rep.status == "converged"
    np.testing.assert_allclose(rep.x, [0.5, 0.5], atol=1e-6)
    assert full_space.constraint_violation(prob, rep.x) <= 1e-7


def test_rosenbrock_in_box(monkeypatch):
    def residual(z):
        x, y = z
        return np.array([1 - x, 10 * (y - x**2)])

    def jacobian(z):
        return np.array([[-1.0, 0.0], [-20 * z[0], 10.0]])

    prob = NlpProblem(ls_residual=residual, ls_jacobian=jacobian, x0=np.array([-1.5, 1.5]),
                      lower=np.array([-2.0, -2.0]), upper=np.array([2.0, 2.0]))
    monkeypatch.setattr(solver, "INNER_MAXITER", 2000)
    rep = solve(prob)
    np.testing.assert_allclose(rep.x, [1.0, 1.0], atol=1e-5)


def test_matches_direct_kkt_on_random_qps():
    """``z^T H z / 2 + c^T z`` is ``||F^T z + F^-1 c||^2 / 2`` up to a
    constant, with ``H = F F^T``."""
    rng = np.random.default_rng(6)
    for _ in range(10):
        n, p = 6, 2
        Aq = rng.standard_normal((n, n))
        H = Aq @ Aq.T + n * np.eye(n)
        c = rng.standard_normal(n)
        A = rng.standard_normal((p, n))
        b = rng.standard_normal(p)
        F = np.linalg.cholesky(H)
        Fc = np.linalg.solve(F, c)

        prob = NlpProblem(ls_residual=lambda z, F=F, Fc=Fc: (F.T @ z + Fc) / np.sqrt(2.0),
                          ls_jacobian=lambda z, F=F: F.T / np.sqrt(2.0), x0=np.zeros(n),
                          **linear_equality(A, b))
        rep = solve(prob)
        kkt = np.block([[H, A.T], [A, np.zeros((p, p))]])
        sol = np.linalg.solve(kkt, np.concatenate([-c, b]))
        np.testing.assert_allclose(rep.x, sol[:n], atol=1e-6)


def test_infeasible_detected(monkeypatch):
    # x = 0 and x = 1 simultaneously
    prob = quadratic_problem([0.0], 1, **linear_equality([[1.0], [1.0]], [0.0, 1.0]))
    monkeypatch.setattr(solver, "MAX_OUTER", 30)
    rep = solve(prob)
    assert rep.status in ("infeasible-detected", "max-iter")
    assert full_space.constraint_violation(prob, rep.x) > 1e-3


def test_objective_comes_from_the_least_squares_form():
    """The objective and its gradient are ``||r||^2`` and ``2 J^T r``."""
    rng = np.random.default_rng(2)
    J, b = rng.standard_normal((5, 3)), rng.standard_normal(5)
    prob = NlpProblem(ls_residual=lambda z: J @ z - b, ls_jacobian=lambda z: J,
                      x0=np.zeros(3))
    z = rng.standard_normal(3)
    f, g = prob.objective(z)
    assert f == float((J @ z - b) @ (J @ z - b))
    np.testing.assert_array_equal(g, 2.0 * (J.T @ (J @ z - b)))


def test_determinism():
    prob = quadratic_problem([1.0, 2.0], 2, **linear_equality([[1.0, -1.0]], [0.3]))
    r1 = solve(prob)
    r2 = solve(prob)
    assert np.array_equal(r1.x, r2.x)
    assert r1.objective == r2.objective and r1.iterations == r2.iterations


def test_callback_failure_at_start():
    with pytest.raises(solver.CallbackError):
        NlpProblem(ls_residual=lambda z: np.array([np.nan]),
                   ls_jacobian=lambda z: np.ones((1, 1)), x0=np.zeros(1))


def test_check_gradients_catches_wrong_gradient():
    prob = NlpProblem(ls_residual=lambda z: z,
                      ls_jacobian=lambda z: np.eye(3) + 0.05,  # deliberately off
                      x0=np.ones(3))
    with pytest.raises(AssertionError, match="objective gradient"):
        check_gradients(prob, n_points=2)


# ---------------------------------------------------------------------------
# box-constrained least squares (reduced_lsq)
# ---------------------------------------------------------------------------


def linear_box_problem(seed):
    """Random 30x8 linear least squares on the box [-1, 1]^8, with a
    right-hand side large enough that several bounds are active."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((30, 8)) @ np.diag(np.logspace(0, 1, 8))
    b = 20.0 * rng.standard_normal(30)
    return A, b, -np.ones(8), np.ones(8)


# A free variable on a bound whose step points out of the box blocks every
# step until the damping turns the step inward; where the coupling keeps
# turning it back out, the solve crawls and its damping overflows.
STALL = "reduced_lsq stalls when a variable on a bound blocks the step"


@pytest.mark.parametrize(
    "seed",
    [
        0, 1, 2, pytest.param(3, marks=pytest.mark.xfail(strict=True, reason=STALL)), 4,
        pytest.param(None, id="unbounded"),
    ],
)
def test_reduced_lsq_matches_lsq_linear(seed):
    """From the centre of the box, the linear problem ends at the bounded
    least-squares optimum that scipy's active-set solver finds. With
    infinite bounds, as the data-driven window fit poses them, it ends at
    the unconstrained least-squares solution."""
    if seed is None:
        A, b, _, _ = linear_box_problem(0)
        lo, hi = np.full(8, -np.inf), np.full(8, np.inf)
        x_ref = np.linalg.lstsq(A, b, rcond=None)[0]
    else:
        A, b, lo, hi = linear_box_problem(seed)
        x_ref = lsq_linear(A, b, bounds=(lo, hi), method="bvls", tol=1e-14).x
    f_ref = float(np.sum((A @ x_ref - b) ** 2))
    rep = reduced_lsq(lambda x: A @ x - b, lambda x: A, np.zeros(8), lo, hi, 100, 1e-10)
    assert rep.converged
    assert np.all(rep.x >= lo) and np.all(rep.x <= hi)
    assert abs(rep.objective - f_ref) <= 1e-10 * f_ref
    assert rep.objective == pytest.approx(float(np.sum((A @ rep.x - b) ** 2)), rel=1e-14)


def test_reduced_lsq_holds_pinned_entries_exactly():
    """Entries with ``lo == hi`` keep their value bit for bit, and the others
    reach the optimum of the problem with those entries substituted, as the
    augmented-Lagrangian inner solve relies on."""
    A, b, lo, hi = linear_box_problem(0)
    pinned, free = np.array([2, 5]), np.array([0, 1, 3, 4, 6, 7])
    lo[pinned] = hi[pinned] = [0.3, -0.7]
    rep = reduced_lsq(lambda x: A @ x - b, lambda x: A, np.zeros(8), lo, hi, 100, 1e-10)
    assert rep.converged
    assert rep.x[2] == 0.3 and rep.x[5] == -0.7
    b_free = b - A[:, pinned] @ hi[pinned]
    ref = lsq_linear(A[:, free], b_free, bounds=(lo[free], hi[free]), method="bvls", tol=1e-14)
    f_ref = float(np.sum((A[:, free] @ ref.x - b_free) ** 2))
    assert abs(rep.objective - f_ref) <= 1e-10 * f_ref


def test_reduced_lsq_returns_its_start_when_every_variable_is_held():
    """A start on the box's faces with every gradient entry pointing out of
    the box holds every variable: the start is the constrained optimum, and
    the solve returns it converged after its one residual evaluation."""
    c = np.array([2.0, -1.0, 3.0])
    lo, hi = np.zeros(3), np.ones(3)
    x0 = np.array([1.0, 0.0, 1.0])
    rep = reduced_lsq(lambda x: x - c, lambda x: np.eye(3), x0, lo, hi, 100, 1e-10)
    assert rep.converged
    assert rep.nfev == 1
    np.testing.assert_array_equal(rep.x, x0)
    assert rep.objective == 6.0


def test_cholesky_solve_matches_scipy_and_raises_on_indefinite():
    from scipy.linalg import cho_factor, cho_solve

    rng = np.random.default_rng(4)
    for n in (1, 5, 40):
        J = rng.standard_normal((n + 3, n))
        M, b = J.T @ J + 1e-8 * np.eye(n), rng.standard_normal(n)
        want = cho_solve(cho_factor(M, check_finite=False), b, check_finite=False)
        np.testing.assert_array_equal(solver._chol_solve(M, b), want)
    with pytest.raises(np.linalg.LinAlgError):
        solver._chol_solve(np.diag([1.0, -1.0]), np.ones(2))


def test_reduced_lsq_iteration_limit():
    A, b, lo, hi = linear_box_problem(0)
    rep = reduced_lsq(lambda x: A @ x - b, lambda x: A, np.zeros(8), lo, hi, 1, 1e-10)
    assert not rep.converged
    assert rep.nfev == 1
    np.testing.assert_array_equal(rep.x, np.zeros(8))


def test_reduced_lsq_nonfinite_start_raises():
    with pytest.raises(solver.CallbackError):
        reduced_lsq(lambda x: np.array([np.nan, 1.0]), lambda x: np.eye(2),
                    np.zeros(2), -np.ones(2), np.ones(2), 10, 1e-10)


def test_reduced_lsq_nonfinite_trial_is_rejected():
    """A trial point where the residual is not finite, or where it raises
    ``CallbackError`` (a dictionary that cannot be evaluated there raises
    its subclass ``DictionaryEvaluationError``), is rejected like a step
    that raises the cost: the solve goes on from the last point and still
    reaches the optimum, having spent one evaluation on the rejected trial.
    Any other exception at a trial point propagates."""
    from ddnpc.basis import DictionaryEvaluationError

    A, b, lo, hi = linear_box_problem(1)
    clean = reduced_lsq(lambda x: A @ x - b, lambda x: A, np.zeros(8), lo, hi, 100, 1e-10)

    def failing_second_call(failure, calls):
        def residual(x):
            calls.append(x.copy())
            r = A @ x - b
            if len(calls) != 2:
                return r
            if isinstance(failure, float):
                r[3] = failure
                return r
            raise failure

        return residual

    for failure in (np.inf, -np.inf, np.nan, solver.CallbackError("residual failed"),
                    DictionaryEvaluationError("features not finite")):
        calls = []
        rep = reduced_lsq(failing_second_call(failure, calls), lambda x: A, np.zeros(8), lo, hi,
                          100, 1e-10)
        assert rep.converged and rep.nfev == len(calls)
        assert not np.array_equal(rep.x, calls[1])
        assert abs(rep.objective - clean.objective) <= 1e-10 * clean.objective

    residual = failing_second_call(RuntimeError("not a callback failure"), [])
    with pytest.raises(RuntimeError, match="not a callback failure"):
        reduced_lsq(residual, lambda x: A, np.zeros(8), lo, hi, 100, 1e-10)


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("call", [1, 3])
def test_reduced_lsq_nonfinite_jacobian_raises(entry, call):
    """A jacobian with one NaN or infinite entry raises ``CallbackError``,
    at the start and after accepted steps, wherever the entry sits: here in
    the column of an entry that starts on its bound."""
    A, b, lo, hi = linear_box_problem(2)
    x0 = np.zeros(8)
    x0[5] = lo[5]
    calls = []

    def jacobian(x):
        calls.append(None)
        J = A.copy()
        if len(calls) == call:
            J[4, 5] = entry
        return J

    with pytest.raises(solver.CallbackError, match="jacobian not finite"):
        reduced_lsq(lambda x: A @ x - b, jacobian, x0, lo, hi, 100, 1e-10)
    assert len(calls) == call


def test_reduced_lsq_refuses_a_jacobian_whose_products_overflow():
    """Jacobian entries of 1e100 at a residual of order one: ``J^T J`` and
    ``J^T r`` are finite, but ``||J J^T r||^2`` is not. The bound ``(n
    max(D))^2 f`` overflows first, so the solve raises ``CallbackError``,
    which a closed loop records as a solver error, and emits no
    ``RuntimeWarning``."""
    J = np.array([[1.0, -2.0], [3.0, 1.0], [-1.0, 2.0]]) * 1e100
    b = np.array([1.0, -2.0, 0.5])
    with pytest.raises(solver.CallbackError, match="gradient products overflow"):
        reduced_lsq(lambda x: J @ x - b, lambda x: J, np.zeros(2),
                    np.full(2, -np.inf), np.full(2, np.inf), 100, 1e-10)


def test_reduced_lsq_stops_when_no_step_lowers_the_cost():
    """With a jacobian of the wrong sign every step points uphill, so every
    trial is rejected. The solve stops unconverged at its start once the
    damping overflows, well before its budget, and without a warning."""
    rep = reduced_lsq(lambda x: x - 1.0, lambda x: -np.eye(3), np.zeros(3),
                      np.full(3, -np.inf), np.full(3, np.inf), 10_000, 1e-10)
    assert not rep.converged
    assert rep.nfev < 1000
    np.testing.assert_array_equal(rep.x, np.zeros(3))
    assert rep.objective == 3.0


def nonlinear_box_problem(seed):
    """The linear box problem plus a smooth coupling term."""
    A, b, lo, hi = linear_box_problem(seed)
    c = np.random.default_rng(seed + 100).standard_normal(30)
    return (lambda x: A @ x - b + c * np.sin(x).sum(),
            lambda x: A + np.outer(c, np.cos(x)), lo, hi)


def rosenbrock_chain(n):
    """The chained Rosenbrock residual in ``n`` variables and its jacobian."""
    i = np.arange(n - 1)

    def residual(x):
        return np.concatenate([10.0 * (x[1:] - x[:-1] ** 2), 1.0 - x[:-1]])

    def jacobian(x):
        J = np.zeros((2 * (n - 1), n))
        J[i, i + 1] = 10.0
        J[i, i] = -20.0 * x[:-1]
        J[n - 1 + i, i] = -1.0
        return J

    return residual, jacobian


def weak_direction_problem():
    """A 12x6 least squares with condition number 1e6 and a small nonlinear
    term along its weakest singular pair. Near the optimum the promised
    decrease comes from the weak direction, which the Cauchy-Schwarz bound,
    weighted by the strong ones, underrates, so the bound cannot decide
    the convergence test there."""
    rng = np.random.default_rng(2)
    U = np.linalg.qr(rng.standard_normal((12, 6)))[0]
    V = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    A = U @ np.diag(np.logspace(0, -6, 6)) @ V.T
    b = A @ rng.standard_normal(6) + 1e-3 * rng.standard_normal(12)
    c, w = 1e-3 * U[:, -1], V[:, -1]
    return (lambda x: A @ x - b + c * np.sin(w @ x),
            lambda x: A + np.outer(c, np.cos(w @ x) * w))


def lsq_cases():
    """``(residual, jacobian, x0, lo, hi, maxiter, tol)`` for the loops to
    agree on: box problems started at the centre, inside and at a corner,
    a nonlinear one, pinned entries, infinite and half-infinite bounds, the
    pendulum direct problem from hanging and a recorded swing-up solve that
    holds an input on the box (``pendulum-held``), a long solve whose
    convergence tests the cheap bound decides (``skip-most``), an
    ill-conditioned one where it cannot (``weak-direction``), held, pinned
    and infinite-bound entries in one box (``mixed-bounds``), and a step so
    small in one entry that its ratio to that entry's room overflows while
    another entry is cut (``tiny-step-overflow``)."""
    cases = {}
    for seed in (0, 1, 2, 4):
        A, b, lo, hi = linear_box_problem(seed)
        inside = np.random.default_rng(seed).uniform(-0.9, 0.9, 8)
        for start, x0 in (("centre", np.zeros(8)), ("inside", inside), ("corner", hi.copy())):
            cases[f"linear{seed}-{start}"] = (lambda x, A=A, b=b: A @ x - b, lambda x, A=A: A,
                                              x0, lo, hi, 100, 1e-10)
        res, jac, lo, hi = nonlinear_box_problem(seed)
        cases[f"nonlinear{seed}"] = (res, jac, np.zeros(8), lo, hi, 200, 1e-14)
    A, b, lo, hi = linear_box_problem(0)
    lo[[2, 5]] = hi[[2, 5]] = [0.3, -0.7]
    cases["pinned"] = (lambda x: A @ x - b, lambda x: A, np.zeros(8), lo, hi, 100, 1e-10)
    res, jac, _, _ = nonlinear_box_problem(1)
    cases["unbounded"] = (res, jac, np.zeros(8), np.full(8, -np.inf), np.full(8, np.inf), 200, 1e-14)
    cases["half-bounded"] = (res, jac, np.zeros(8), np.full(8, -0.2), np.full(8, np.inf), 200, 1e-14)
    res, jac = rosenbrock_chain(6)
    cases["skip-most"] = (res, jac, np.full(6, -1.2), np.full(6, -np.inf), np.full(6, np.inf), 500,
                          1e-14)
    res, jac = weak_direction_problem()
    cases["weak-direction"] = (res, jac, np.zeros(6), np.full(6, -np.inf), np.full(6, np.inf), 200,
                               1e-14)
    A, b, _, _ = linear_box_problem(7)
    lo = np.array([-1.0, -np.inf, 0.3, -np.inf, -1.0, -0.5, -np.inf, -1.0])
    hi = np.array([1.0, np.inf, 0.3, 0.5, np.inf, -0.5, np.inf, 1.0])
    cases["mixed-bounds"] = (lambda x: A @ x - b, lambda x: A, np.zeros(8), lo, hi, 100, 1e-10)
    cases["tiny-step-overflow"] = (lambda x: np.array([x[0] - 5.0, x[1] - 1e-309]),
                                   lambda x: np.eye(2), np.zeros(2), -np.ones(2), np.ones(2), 50,
                                   1e-10)

    from ddnpc import npc, plant
    from test_npc import pendulum_relaxed_builder

    exp, _, spec, builder = pendulum_relaxed_builder()
    direct = npc._RelaxedDirect(builder.spec)
    hu = np.tile(exp.hold_input, (spec.d_max, 1))
    hy = np.tile(exp.x0[[0, 2]], (spec.d_max, 1))
    direct.set_history(hu, hy)
    zf0 = builder.initial_guess(hy)
    cases["pendulum-direct"] = (direct.residual, direct.jacobian, zf0, builder.lo, builder.hi, 60,
                                1e-10)

    # The second solve of data seed 3's noise-free swing-up from hanging, as
    # the closed loop poses it: warm-started, it holds an input on the box.
    exp, _, spec, _ = pendulum_relaxed_builder(data_seed=3)
    with mock.patch.object(npc, "solve_relaxed_direct", wraps=npc.solve_relaxed_direct) as spy:
        npc.run_closed_loop(spec, exp.plant_model, plant.NoiseModel(), x0=exp.x0, total_steps=4,
                            hold_input=exp.hold_input)
    form, hu, hy, guess = spy.call_args_list[1].args
    form.set_history(hu, hy)
    cases["pendulum-held"] = (form.residual, form.jacobian, guess, form.lo, form.hi, 60,
                              1e-10)
    return cases


LSQ_CASES = lsq_cases()
# The reference loop's step cut lets this overflow warn; the library's must not.
REFERENCE_OVERFLOWS = {"tiny-step-overflow"}


@pytest.mark.parametrize("case", LSQ_CASES)
def test_reduced_lsq_iterates_match_reference_loop(case):
    """The trimmed loop takes the reference loop's iterates bit for bit: same
    point, cost, evaluation count and verdict (``tests/reference_lsq.py``;
    a warning from either fails the test, but for the reference's overflow
    in the ``REFERENCE_OVERFLOWS`` cases)."""
    args = LSQ_CASES[case]
    with np.errstate(over="ignore" if case in REFERENCE_OVERFLOWS else "warn"):
        want = reference_lsq.reduced_lsq(*args)
    got = reduced_lsq(*args)
    np.testing.assert_array_equal(got.x, want.x)
    assert got.objective == want.objective
    assert (got.nfev, got.converged) == (want.nfev, want.converged)


def test_pendulum_held_case_holds_an_input(monkeypatch):
    """The recorded swing-up case runs the held-set path: some damped solve
    is on fewer than all free slots, and the solve still converges."""
    sizes = []
    damped_solve = solver._damped_solve

    def sized(A, d, b):
        sizes.append(A.shape[0])
        return damped_solve(A, d, b)

    monkeypatch.setattr(solver, "_damped_solve", sized)
    residual, jacobian, x0, *rest = LSQ_CASES["pendulum-held"]
    rep = reduced_lsq(residual, jacobian, x0, *rest)
    assert rep.converged
    assert min(sizes) < x0.size


def count_factored_tests(monkeypatch, case):
    """``(outer iterations, convergence tests factored, report)`` of one
    solve: each outer iteration calls the jacobian once, and every damped
    solve that is not a trial step's is a convergence test."""
    residual, jacobian, *rest = LSQ_CASES[case]
    calls = {"jacobian": 0, "damped": 0}
    damped_solve = solver._damped_solve

    def counted_jacobian(x):
        calls["jacobian"] += 1
        return jacobian(x)

    def counted_damped_solve(*args):
        calls["damped"] += 1
        return damped_solve(*args)

    monkeypatch.setattr(solver, "_damped_solve", counted_damped_solve)
    rep = reduced_lsq(residual, counted_jacobian, *rest)
    return calls["jacobian"], calls["damped"] - (rep.nfev - 1), rep


def test_convergence_test_factors_only_when_its_bound_cannot_decide(monkeypatch):
    """Far from the optimum the Cauchy-Schwarz bound decides the convergence
    test without a factorization: the Rosenbrock chain factors 2 of its 22
    tests, the one that ends the solve and one before it. Near the optimum
    of the ill-conditioned problem the bound cannot decide, and the tests it
    leaves to the factorization (4 of its 8) include some that do not end
    the solve."""
    outer, factored, rep = count_factored_tests(monkeypatch, "skip-most")
    assert rep.converged and outer >= 20 and factored <= 2
    outer, factored, rep = count_factored_tests(monkeypatch, "weak-direction")
    assert rep.converged and factored >= 2


@pytest.mark.parametrize(
    "drop", [1.0, pytest.param(3.0, marks=pytest.mark.xfail(strict=True, reason=STALL))]
)
def test_reduced_lsq_start_on_the_box_is_not_stopped_early(drop):
    """Every planned input of the pendulum controller starts on its lower
    bound, so the first steps are cut short by the box. Short steps are no
    sign of convergence: the returned point is a local minimum, which
    scipy's trust-region solver started from it cannot improve. The history
    rests ``drop`` rad below the setpoint on both angles."""
    from ddnpc import npc
    from test_npc import pendulum_relaxed_builder

    exp, _, spec, builder = pendulum_relaxed_builder()
    direct = npc._RelaxedDirect(builder.spec)
    hu = np.tile(exp.hold_input, (spec.d_max, 1))
    hy = np.tile(exp.y_setpoint - drop, (spec.d_max, 1))
    direct.set_history(hu, hy)
    zf0 = builder.initial_guess(hy)
    n_u = builder.L * builder.m
    zf0[:n_u] = builder.lo[:n_u]
    rep = reduced_lsq(direct.residual, direct.jacobian, zf0, builder.lo, builder.hi, 2000, 1e-10)
    assert rep.converged
    polish = least_squares(direct.residual, rep.x, jac=direct.jacobian, bounds=(builder.lo, builder.hi),
                           method="trf", xtol=1e-12, ftol=1e-12, gtol=1e-10, max_nfev=2000)
    assert 2.0 * polish.cost >= rep.objective * (1.0 - 1e-8)


def test_every_least_squares_solve_runs_on_reduced_lsq(monkeypatch):
    """Data-driven simulation and output matching, the augmented-Lagrangian
    inner solves and the relaxed direct solve all run on
    ``solver.reduced_lsq``, looked up when they are called, so one wrapper
    sees every least-squares solve."""
    import dataclasses

    from ddnpc import behavior, npc, presets
    from ddnpc.behavior import DataDictionaryBlocks

    toy, st, phi, traj, d = presets.flat_toy_setup()
    blocks = DataDictionaryBlocks.from_trajectory(d, traj, horizon=10)
    spec = npc.OcpSpec(
        mode="nominal", L=8, structure=st, blocks=blocks, Q=np.eye(1), R=np.eye(1),
        u_setpoint=[0.0], y_setpoint=[0.0], u_min=[-3.0], u_max=[3.0],
    )
    relaxed = dataclasses.replace(
        spec, mode="robust", eps_star=0.02, w_star=0.005, k_psi=1.0, k_w=1.0, g_dagger_norm=5.0
    )
    hu, hy = np.zeros((2, 1)), np.array([[0.2], [0.19]])
    nfev = []

    def counting(*args):
        rep = inner(*args)
        nfev.append(rep.nfev)
        return rep

    inner = solver.reduced_lsq
    monkeypatch.setattr(solver, "reduced_lsq", counting)

    sim = behavior.simulate_data_driven(blocks, traj.u[7:17], traj.xi.data[7])
    assert nfev == [sim.iterations]
    nfev.clear()
    match = behavior.match_output_data_driven(blocks, [traj.outputs[0][9:21]])
    assert nfev == [match.iterations]
    nfev.clear()
    report = solver.solve(npc.OcpBuilder(spec).build(hu, hy))
    assert nfev and sum(nfev) == report.iterations
    nfev.clear()
    _, info = npc.solve_relaxed_direct(npc.OcpBuilder(relaxed), hu, hy)
    assert nfev == [info["iterations"]]


def test_scipy_optimizers_stay_out_of_src():
    """``solver.reduced_lsq`` is the library's only least-squares solver: no
    module of ``src/ddnpc`` imports from ``scipy.optimize``, except the lazy
    ``minimize`` import of ``solver.__getattr__``, which only the benchmark's
    traced run looks up and replaces."""
    import ast
    from pathlib import Path

    def optimize_imports(node):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy.optimize"):
            return [alias.name for alias in node.names]
        if isinstance(node, ast.ImportFrom) and node.module == "scipy":
            return [alias.name for alias in node.names if alias.name == "optimize"]
        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names if alias.name.startswith("scipy.optimize")]
        return []

    found = {
        (path.name, name)
        for path in sorted(Path(solver.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        for name in optimize_imports(node)
    }
    assert found == {("solver.py", "minimize")}


def test_one_robust_path_and_no_inequality_rows_in_src():
    """The augmented-Lagrangian solver serves only the nominal core's
    membership equalities: ``solver.solve`` is called at one place in
    ``src/ddnpc``, ``_NominalCore.solve``, and no module names an ``ineq``
    field, argument or function, so the robust form has the one path of the
    direct form and its slack-weight continuation."""
    import ast
    from pathlib import Path

    names = {
        ast.Name: lambda n: n.id, ast.Attribute: lambda n: n.attr,
        ast.keyword: lambda n: n.arg, ast.arg: lambda n: n.arg,
        ast.FunctionDef: lambda n: n.name, ast.alias: lambda n: n.name,
    }
    sites, ineq = set(), set()
    for path in sorted(Path(solver.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        scopes = [
            (f"{cls.name}.{fn.name}", fn)
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for fn in cls.body if isinstance(fn, ast.FunctionDef)
        ] + [(fn.name, fn) for fn in tree.body if isinstance(fn, ast.FunctionDef)]
        for scope, fn in scopes:
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "solve"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in ("solver", "_solver")
                ):
                    sites.add((path.name, scope))
        for node in ast.walk(tree):
            name = names.get(type(node), lambda n: None)(node)
            if name and "ineq" in name:
                ineq.add((path.name, name))
    assert sites == {("npc.py", "_NominalCore.solve")}
    assert ineq == set()
    assert not {"ineq_residual", "ineq_jacobian"} & set(solver.NlpProblem.__dataclass_fields__)


def test_importing_the_cli_leaves_scipy_optimize_unloaded():
    """``import ddnpc.cli``, which imports every module of the library,
    loads no ``scipy.optimize``; ``solver.minimize`` still resolves on
    lookup."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    code = (
        "import sys, ddnpc.cli\n"
        "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize loaded'\n"
        "from ddnpc import solver\n"
        "import scipy.optimize\n"
        "assert solver.minimize is scipy.optimize.minimize\n"
    )
    src = str(Path(solver.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


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
    packed = full_space.Packed(builder)
    prev = packed.unpack(np.zeros(packed.dim))
    out = builder.shifted_guess(prev, 2)
    assert out.shape == (builder.n_free,) and not np.any(out)


def test_shift_moves_blocks_and_pads():
    """The warm start's free slots: the inputs from time ``d_max + 2`` on,
    padded with the input setpoint, then the outputs from time ``d_max + 2``
    on, which reach into the terminal samples."""
    builder = _toy_builder(0.3)
    d, Lp, ny = builder.d_max, builder.Lp, builder.y_lens[0]
    u_s = builder.spec.u_setpoint[0]
    prev = builder.window_decision(
        np.zeros(builder.M),
        builder.window(np.arange(float(Lp)).reshape(Lp, 1), [np.arange(float(ny))]),
    )
    out = builder.shifted_guess(prev, 2)
    np.testing.assert_array_equal(out, [*range(d + 2, Lp), u_s, u_s, *range(d + 2, Lp + 2)])
