import dataclasses
import gc
import inspect
import time
import warnings
import weakref
from collections import Counter

import numpy as np
import pytest

from ddnpc import basis, behavior, npc, plant, presets, solver
from ddnpc.behavior import DataDictionaryBlocks
from ddnpc.npc import (
    OcpBuilder,
    OcpSpec,
    evaluate_runtime_bounds,
    run_closed_loop,
    solve_relaxed_direct,
)

import full_space
from gradient_check import check_gradients
from reference_checks import chain_matrices, log_arrays


def chain_spec(mode="nominal", L=8, eps_star=0.0, w_star=0.0, **kw):
    toy, st, phi, traj, d = presets.chain_toy_setup()
    blocks = DataDictionaryBlocks.from_trajectory(d, traj, horizon=L + st.d_max)
    spec = OcpSpec(
        mode=mode,
        L=L,
        structure=st,
        blocks=blocks,
        Q=np.eye(2),
        R=np.eye(2),
        u_setpoint=np.zeros(2),
        y_setpoint=np.zeros(2),
        u_min=np.array([-5.0, -5.0]),
        u_max=np.array([5.0, 5.0]),
        eps_star=eps_star,
        w_star=w_star,
        **kw,
    )
    return toy, st, phi, traj, d, spec


def chain_history(toy, st, x0, steps=2):
    """Pre-roll the plant with zero input to produce a consistent history."""
    x = np.asarray(x0, dtype=float).copy()
    hu, hy = [], []
    for _ in range(steps):
        hy.append(toy.measure(x))
        hu.append(np.zeros(2))
        x = toy.step(x, np.zeros(2))
    return np.array(hu), np.array(hy), x


# ---------------------------------------------------------------------------
# model-based oracle for the linear chain toy
# ---------------------------------------------------------------------------


def model_mpc_oracle(st, history_u, history_y, L, Q, R):
    """Condensed equality-constrained QP: minimize the stage cost subject to
    the chain dynamics and a terminal zero state, history pinned."""
    A, B, C = chain_matrices(st.degrees)
    n, m = st.n, st.m
    xi_hist = np.array([history_y[0, 0], history_y[1, 0], history_y[0, 1]])
    xi0 = xi_hist.copy()
    for u in history_u:
        xi0 = A @ xi0 + B @ u

    # xi_k = A^k xi0 + sum_j A^(k-1-j) B u_j
    powers = [np.linalg.matrix_power(A, k) for k in range(L + 1)]
    Suu = np.zeros((L + 1, L, n, m))
    for k in range(1, L + 1):
        for j in range(k):
            Suu[k, j] = powers[k - 1 - j] @ B
    nU = L * m
    H = np.zeros((nU, nU))
    c = np.zeros(nU)
    for k in range(L):
        # input cost
        H[k * m : (k + 1) * m, k * m : (k + 1) * m] += 2.0 * R
        # output cost through the dynamics
        Gk = np.zeros((m, nU))
        for j in range(k):
            Gk[:, j * m : (j + 1) * m] = C @ Suu[k, j]
        hk = C @ powers[k] @ xi0
        H += 2.0 * Gk.T @ Q @ Gk
        c += 2.0 * Gk.T @ Q @ hk
    E = np.zeros((n, nU))
    for j in range(L):
        E[:, j * m : (j + 1) * m] = Suu[L, j]
    f = -powers[L] @ xi0
    kkt = np.block([[H, E.T], [E, np.zeros((n, n))]])
    rhs = np.concatenate([-c, f])
    sol = np.linalg.solve(kkt, rhs)
    return sol[:nU].reshape(L, m)


def test_nominal_matches_model_based_mpc():
    toy, st, phi, traj, d, spec = chain_spec()
    hu, hy, _ = chain_history(toy, st, np.array([0.3, -0.2, 0.25]))
    form = OcpBuilder(spec)
    report = solver.solve(form.build(hu, hy))
    assert report.status == "converged"
    decision = form.unpack(report.x)
    u_oracle = model_mpc_oracle(st, hu, hy, spec.L, spec.Q, spec.R)
    np.testing.assert_allclose(decision.u_bar[st.d_max :], u_oracle, atol=1e-5)


def test_nominal_equilibrium_is_zero_cost():
    toy, st, phi, traj, d, spec = chain_spec()
    hu = np.zeros((2, 2))
    hy = np.zeros((2, 2))
    problem = OcpBuilder(spec).build(hu, hy)
    report = solver.solve(problem)
    assert report.status == "converged"
    assert report.objective <= 1e-10


def test_nominal_infeasible_history_detected(monkeypatch):
    toy, st, phi, traj, d, spec = chain_spec()
    hu = np.zeros((2, 2))
    hy = np.array([[50.0, -40.0], [-60.0, 55.0]])  # unreachable with |u| <= 5
    problem = OcpBuilder(spec).build(hu, hy)
    monkeypatch.setattr(solver, "MAX_OUTER", 25)
    monkeypatch.setattr(solver, "INNER_MAXITER", 80)
    report = solver.solve(problem)
    assert report.status in ("infeasible-detected", "max-iter")
    assert full_space.constraint_violation(problem, report.x) > 1e-3


def test_decision_count_audit_pendulum_exact_mode():
    """The full-space decision of the paper's exact-slack problem (combination
    vector, both windows, feature slack) has the paper's count."""
    exp = presets.pendulum_experiment(grid_points=3)
    d = exp.dictionary(seed=3)
    traj = exp.collect(seed=0)
    blocks = exp.blocks(d, traj)
    spec = exp.ocp_spec(
        blocks, eps_star=4.5, slack_mode="exact", k_psi=3.0, k_w=5.0, g_dagger_norm=50.0
    )
    builder = OcpBuilder(spec)
    N, m, r, L, d_max, n = 200, 2, 4, 10, 2, 4
    expected = N + (2 * m + r - 1) * (L + d_max) + n + 1
    assert full_space.Packed(builder).dim == expected == 289


def paper_bound(spec, decision):
    """The paper's slack bound with the decision's own ``||alpha||_1``; a
    solve record carries it too."""
    gain = (spec.eps_star + spec.k_w * spec.w_star) * spec.g_dagger_norm
    return spec.k_psi * spec.w_star + gain * (1 + decision.alpha_l1)


def test_exact_mode_solves_on_toy():
    """An exact-mode solve of the robust form, from the cold start: its
    decision meets the paper's slack bound at its own combination vector,
    with no tolerance."""
    toy, st, phi = plant.make_chain_lti()
    policy = plant.StateFeedbackDitherPolicy(
        K=np.array([[0.2, 0.4, 0.0], [0.0, 0.0, 0.3]]), dither=0.7, seed=4
    )
    traj = plant.collect_offline_data(toy, policy, 40, st, plant.NoiseModel())
    d = basis.InputDictionary(2, 3)
    blocks = DataDictionaryBlocks.from_trajectory(d, traj, horizon=6)
    spec = OcpSpec(
        mode="robust", L=4, structure=st, blocks=blocks, Q=np.eye(2), R=np.eye(2),
        u_setpoint=np.zeros(2), y_setpoint=np.zeros(2),
        u_min=np.array([-5.0, -5.0]), u_max=np.array([5.0, 5.0]),
        eps_star=0.01, w_star=0.0, slack_mode="exact",
        k_psi=1.0, k_w=1.0, g_dagger_norm=5.0,
    )
    hu, hy, _ = chain_history(toy, st, np.array([0.2, 0.0, -0.1]))
    form = OcpBuilder(spec)
    decision, status, _, _, max_violation, _ = form.solve(hu, hy, None)
    assert status == "converged"
    assert decision.sigma_inf <= paper_bound(spec, decision)
    assert max_violation == 0.0


def test_exact_mode_member_of_the_benchmark_converges_on_direct():
    """The chain toy's exact-slack member of the benchmark: one solve of
    stride two from (0.2, 0, -0.1) converges on the direct path, inside the
    paper's bound taken with its own combination vector."""
    toy, st, _, _, _, spec = chain_spec(
        mode="robust", slack_mode="exact", eps_star=0.01, w_star=0.0,
        k_psi=1.0, k_w=1.0, g_dagger_norm=5.0,
    )
    log = run_closed_loop(
        spec, toy, plant.NoiseModel(), np.array([0.2, 0.0, -0.1]), total_steps=2,
    )
    (rec,) = log.solves
    assert (rec.path, rec.status) == ("direct", "converged")
    assert rec.sigma_inf <= paper_bound(spec, rec)
    assert rec.max_violation == 0.0


def test_applied_bounded_decision_meets_a_bound_below_the_feasibility_tolerance():
    """The same solve with ``||G^dagger|| = 1e-7``: the slack bound (about
    1.4e-9, below the AL solver's feasibility tolerance of 1e-7) is active
    at the direct solution, and the continuation's decision is applied, so
    it must meet that bound at its own combination vector."""
    toy, _, _, _, _, spec = chain_spec(
        mode="robust", slack_mode="exact", eps_star=0.01, w_star=0.0,
        k_psi=1.0, k_w=1.0, g_dagger_norm=1e-7,
    )
    log = run_closed_loop(
        spec, toy, plant.NoiseModel(), np.array([0.2, 0.0, -0.1]), total_steps=2,
    )
    (rec,) = log.solves
    assert (rec.path, rec.status, rec.applied) == ("fallback", "converged", True)
    assert rec.sigma_inf <= spec.slack_bound(rec.alpha_l1)


def test_robust_zero_bounds_reduce_to_nominal_single_solve():
    toy, st, phi, traj, d, spec_n = chain_spec(mode="nominal")
    _, _, _, _, _, spec_r = chain_spec(mode="robust", eps_star=0.0, w_star=0.0)
    hu, hy, _ = chain_history(toy, st, np.array([0.3, -0.2, 0.25]))
    f_n = OcpBuilder(spec_n)
    f_r = OcpBuilder(spec_r)
    u_n = f_n.unpack(solver.solve(f_n.build(hu, hy)).x).u_bar
    u_r = f_r.unpack(solver.solve(f_r.build(hu, hy)).x).u_bar
    np.testing.assert_allclose(u_n, u_r, atol=1e-5)


def test_robust_free_slack_beats_pinned_slack():
    """With noisy data, forcing the slack to zero can only raise the cost."""
    toy, st, phi = plant.make_scalar_flat()
    policy = plant.StateFeedbackDitherPolicy(K=np.array([[0.25, 0.55]]), dither=0.6, seed=3)
    traj = plant.collect_offline_data(
        toy, policy, 60, st, plant.NoiseModel(w_star=0.01, seed=1)
    )
    d = basis.FlatToyDictionary()
    blocks = DataDictionaryBlocks.from_trajectory(d, traj, horizon=10, use_noisy=True)
    common = dict(
        mode="robust", L=8, structure=st, blocks=blocks, Q=np.eye(1), R=np.eye(1),
        u_setpoint=[0.0], y_setpoint=[0.0], u_min=[-3.0], u_max=[3.0],
        eps_star=0.02, w_star=0.01, k_psi=1.0, k_w=1.0, g_dagger_norm=5.0,
    )
    hu = np.zeros((2, 1))
    hy = np.array([[0.21], [0.2]])
    free = OcpBuilder(OcpSpec(slack_mode="relaxed", c_slack=100.0, **common))
    d_free, _, objective_free, _, _, _ = free.solve(hu, hy, None)
    pinned = OcpBuilder(OcpSpec(slack_mode="relaxed", c_slack=1e-9, **common))
    d_pinned, _, objective_pinned, _, _, path = pinned.solve(hu, hy, None)
    assert path == "fallback" and d_pinned.sigma_inf <= pinned.spec.slack_bound()
    assert d_free.sigma_inf > 1e-9
    assert objective_free < objective_pinned - 1e-6


def test_blocks_depth_validated():
    toy, st, phi, traj, d = presets.chain_toy_setup()
    blocks = DataDictionaryBlocks.from_trajectory(d, traj, horizon=9)  # wrong depth
    with pytest.raises(ValueError, match="blocks depth"):
        OcpSpec(
            mode="nominal", L=8, structure=st, blocks=blocks, Q=np.eye(2), R=np.eye(2),
            u_setpoint=np.zeros(2), y_setpoint=np.zeros(2),
            u_min=-np.ones(2), u_max=np.ones(2),
        )


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("Q", np.eye(3), "Q must be 2 x 2"),
        ("R", np.ones((1, 2)), "R must be 2 x 2"),
        ("u_min", -np.ones(3), "u_min has 3 entries"),
        ("y_setpoint", np.zeros(1), "y_setpoint has 1 entries"),
        ("y_min", -np.ones(2), "y_min and y_max"),
    ],
)
def test_weight_and_vector_shapes_validated(field, value, message):
    """A weight that is not m x m, a vector that has not m entries and an
    output box given on one side only are rejected, naming the field."""
    toy, st, phi, traj, d = presets.chain_toy_setup()
    common = dict(
        mode="nominal", L=8, structure=st,
        blocks=DataDictionaryBlocks.from_trajectory(d, traj, horizon=10), Q=np.eye(2),
        R=np.eye(2), u_setpoint=np.zeros(2), y_setpoint=np.zeros(2),
        u_min=-np.ones(2), u_max=np.ones(2),
    )
    with pytest.raises(ValueError, match=message):
        OcpSpec(**{**common, field: value})


def test_setpoint_interiority_validated():
    toy, st, phi, traj, d = presets.chain_toy_setup()
    blocks = DataDictionaryBlocks.from_trajectory(d, traj, horizon=10)
    with pytest.raises(ValueError, match="strictly inside"):
        OcpSpec(
            mode="nominal", L=8, structure=st, blocks=blocks, Q=np.eye(2), R=np.eye(2),
            u_setpoint=np.array([1.0, 0.0]), y_setpoint=np.zeros(2),
            u_min=-np.ones(2), u_max=np.ones(2),
        )


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def test_ocp_gradients_match_finite_differences():
    toy, st, phi, traj, d, spec_n = chain_spec(mode="nominal")
    hu, hy, _ = chain_history(toy, st, np.array([0.2, -0.1, 0.15]))
    p_n = OcpBuilder(spec_n).build(hu, hy)
    check_gradients(p_n, n_points=5, tol=1e-4)

    _, _, _, _, _, spec_r = chain_spec(
        mode="robust", eps_star=0.05, w_star=0.01, slack_mode="relaxed", c_slack=10.0,
        k_psi=1.0, k_w=1.0, g_dagger_norm=5.0,
    )
    p_r = OcpBuilder(spec_r).build(hu, hy)
    check_gradients(p_r, n_points=5, tol=1e-4)

    _, _, _, _, _, spec_e = chain_spec(
        mode="robust", eps_star=0.05, w_star=0.01, slack_mode="exact",
        k_psi=1.0, k_w=1.0, g_dagger_norm=5.0,
    )
    p_e = OcpBuilder(spec_e).build(hu, hy)
    check_gradients(p_e, n_points=5, tol=1e-4)


# ---------------------------------------------------------------------------
# closed loop
# ---------------------------------------------------------------------------


def test_nominal_closed_loop_descent_and_convergence():
    toy, st, phi, traj, d = presets.flat_toy_setup()
    blocks = DataDictionaryBlocks.from_trajectory(d, traj, horizon=10)
    spec = OcpSpec(
        mode="nominal", L=8, structure=st, blocks=blocks, Q=np.eye(1), R=np.eye(1),
        u_setpoint=[0.0], y_setpoint=[0.0], u_min=[-3.0], u_max=[3.0],
    )
    log = run_closed_loop(
        spec, toy, plant.NoiseModel(), x0=np.array([0.45, -0.3]), total_steps=50
    )
    arr = log_arrays(log)
    J = [s.objective for s in log.solves]
    for k in range(len(J) - 1):
        stage = log.stage_costs[log.bootstrap_steps + k]
        assert J[k + 1] <= J[k] - stage + 1e-6
    assert np.max(np.abs(arr["y"][-1])) < 1e-4
    assert np.all(arr["u"] >= -3.0) and np.all(arr["u"] <= 3.0)


def test_recursive_feasibility_candidate():
    """The shifted previous solution, unpacked under the new history (its
    combination vector the pseudo-inverse fit of the window), is feasible for
    the next problem."""
    toy, st, phi, traj, d = presets.flat_toy_setup()
    blocks = DataDictionaryBlocks.from_trajectory(d, traj, horizon=10)
    spec = OcpSpec(
        mode="nominal", L=8, structure=st, blocks=blocks, Q=np.eye(1), R=np.eye(1),
        u_setpoint=[0.0], y_setpoint=[0.0], u_min=[-3.0], u_max=[3.0],
    )
    builder = OcpBuilder(spec)
    x = np.array([0.35, -0.2])
    hist_u, hist_y = [], []
    for _ in range(2):
        hist_y.append(toy.measure(x))
        hist_u.append(np.zeros(1))
        x = toy.step(x, np.zeros(1))
    hist_u, hist_y = np.array(hist_u), np.array(hist_y)
    for step in range(10):
        problem = builder.build(hist_u, hist_y)
        report = solver.solve(problem)
        violation = full_space.constraint_violation(problem, report.x)
        assert report.status == "converged" or violation <= 1e-7
        decision = builder.unpack(report.x)
        u_apply = decision.planned_inputs(st.d_max, 1)[0]
        y_meas = toy.measure(x)
        x = toy.step(x, u_apply)
        hist_u = np.vstack([hist_u[1:], u_apply])
        hist_y = np.vstack([hist_y[1:], y_meas])
        builder.set_history(hist_u, hist_y)
        candidate = builder.unpack(builder.shifted_guess(decision, 1))
        next_problem = full_space.problem(builder, hist_u, hist_y, guess=candidate)
        z = full_space.Packed(builder).pack(candidate)
        assert full_space.constraint_violation(next_problem, z) <= 1e-6


def test_robust_equals_nominal_closed_loop_with_zero_bounds():
    toy, st, phi, traj, d, spec_n = chain_spec(mode="nominal")
    _, _, _, _, _, spec_r = chain_spec(mode="robust", eps_star=0.0, w_star=0.0)
    x0 = np.array([0.3, -0.1, 0.2])
    log_n = run_closed_loop(spec_n, toy, plant.NoiseModel(), x0, total_steps=30, stride=st.d_max)
    log_r = run_closed_loop(spec_r, toy, plant.NoiseModel(), x0, total_steps=30)
    u_n = log_arrays(log_n)["u"]
    u_r = log_arrays(log_r)["u"]
    np.testing.assert_allclose(u_n, u_r, atol=1e-5)


def flat_toy_relaxed_spec(y_s):
    """Relaxed robust flat toy, setpoint ``y_s`` held by its equilibrium
    input."""
    toy, st, phi = plant.make_scalar_flat()
    u_s = y_s - 0.15 * y_s**2 - 0.3 * np.sin(y_s)
    policy = plant.StateFeedbackDitherPolicy(K=np.array([[0.25, 0.55]]), dither=0.6, seed=3)
    traj = plant.collect_offline_data(
        toy, policy, 60, st, plant.NoiseModel(w_star=0.005, seed=1)
    )
    d = basis.FlatToyDictionary()
    blocks = DataDictionaryBlocks.from_trajectory(d, traj, horizon=10, use_noisy=True)
    return OcpSpec(
        mode="robust", L=8, structure=st, blocks=blocks, Q=np.eye(1), R=np.eye(1),
        u_setpoint=[u_s], y_setpoint=[y_s], u_min=[-3.0], u_max=[3.0],
        eps_star=0.02, w_star=0.005, slack_mode="relaxed", c_slack=100.0,
        k_psi=1.0, k_w=1.0, g_dagger_norm=5.0,
    )


# Slack bounds below the direct solutions' slack on the noisy flat toy.
BOUND_ACTIVE = pytest.mark.parametrize(
    "fields",
    [dict(c_slack=3e-5), dict(slack_mode="exact", k_psi=0.0, g_dagger_norm=1e-5)],
    ids=["relaxed", "exact"],
)


@BOUND_ACTIVE
def test_bound_active_fallback_in_closed_loop(fields):
    """With a slack bound below the direct solutions' slack, the first solves
    of a noisy flat-toy loop take the slack-weight continuation
    (``fallback``). Every applied decision meets the mode's bound, ``c_slack
    * slack_level`` or the paper's bound at its own combination vector, with
    no tolerance, and each record keeps its decision's measured violation."""
    spec = dataclasses.replace(flat_toy_relaxed_spec(0.0), **fields)
    toy, _, _ = plant.make_scalar_flat()
    log = run_closed_loop(
        spec, toy, plant.NoiseModel(w_star=0.005, seed=7), np.array([0.2, 0.1]),
        total_steps=20,
    )
    fallbacks = [rec for rec in log.solves if rec.path == "fallback"]
    assert len(fallbacks) >= 3
    assert {rec.path for rec in log.solves} == {"direct", "fallback"}
    assert {rec.status for rec in fallbacks} == {"converged"}
    for rec in log.solves:
        if spec.slack_mode == "exact":
            bound = paper_bound(spec, rec)
        else:
            bound = spec.c_slack * spec.slack_level
        assert rec.max_violation == max(0.0, rec.sigma_inf - bound)
        if rec.applied:
            assert rec.sigma_inf <= bound


@BOUND_ACTIVE
def test_bound_active_fallback_starts_at_the_direct_decision(monkeypatch, fields):
    """The first decade of the continuation is the direct form at ten times
    the slack weight, started at only the direct solution's free slots: its
    guess is the direct decision's free slots bit for bit."""
    spec = dataclasses.replace(flat_toy_relaxed_spec(0.0), **fields)
    toy, _, _ = plant.make_scalar_flat()
    calls = []
    solve_direct = npc.solve_relaxed_direct

    def recording_direct(direct, history_u, history_y, guess=None):
        out = solve_direct(direct, history_u, history_y, guess)
        calls.append((direct.rs, None if guess is None else guess.copy(), *out))
        return out

    monkeypatch.setattr(npc, "solve_relaxed_direct", recording_direct)
    run_closed_loop(
        spec, toy, plant.NoiseModel(w_star=0.005, seed=7), np.array([0.2, 0.1]), total_steps=20
    )
    builder = OcpBuilder(spec)
    rs = np.sqrt(spec.lambda_sigma)
    firsts = 0
    for (weight, _, decision, info), (next_weight, guess, *_) in zip(calls, calls[1:]):
        if weight == rs and info["status"] == "bound-active":
            firsts += 1
            assert next_weight == np.sqrt(10.0 * spec.lambda_sigma)
            np.testing.assert_array_equal(guess, builder.shifted_guess(decision, 0))
    assert firsts >= 3


def test_continuation_that_cannot_meet_its_bound_is_held(monkeypatch):
    """A noisy history that no window in the span of the clean chain-toy data
    continues: no slack weight brings the slack below the bound (1e-4), so
    each continuation stops at the first decade that does not lower
    ``sigma_inf`` and reports ``bound-active``, keeping the last decision
    that did lower it. Its record keeps that decision's measured violation,
    and the loop holds the previous input, here the bootstrap's, on every
    step."""
    toy, st, _, _, _, spec = chain_spec(mode="robust", eps_star=0.01, w_star=0.01, c_slack=0.01)
    rs = np.sqrt(spec.lambda_sigma)
    solves, solve_direct = [], npc.solve_relaxed_direct

    def recording(direct, *args):
        decision, info = solve_direct(direct, *args)
        if direct.rs == rs:
            solves.append([])
        solves[-1].append(decision.sigma_inf)
        return decision, info

    monkeypatch.setattr(npc, "solve_relaxed_direct", recording)
    log = run_closed_loop(
        spec, toy, plant.NoiseModel(w_star=0.01, seed=5), np.array([0.2, 0.0, -0.1]), total_steps=6
    )
    bound = spec.slack_bound()
    assert len(log.solves) == len(solves) == 3
    for rec, sigmas in zip(log.solves, solves, strict=True):
        assert (rec.path, rec.status, rec.applied) == ("fallback", "bound-active", False)
        assert rec.max_violation == rec.sigma_inf - bound > 0.0
        assert 2 < len(sigmas) < 20
        assert all(b < a for a, b in zip(sigmas[:-2], sigmas[1:-1]))
        assert sigmas[-1] >= sigmas[-2] == rec.sigma_inf
    np.testing.assert_array_equal(log.inputs[st.d_max :], np.zeros((6, 2)))


def test_the_loop_calls_one_solve_and_the_solvers_take_no_options():
    """The closed loop calls its reduced form's ``solve`` and names neither a
    form class nor a solver. The AL solver takes the problem alone and the
    direct solve no iteration budget: their settings are module constants."""
    source = inspect.getsource(npc.run_closed_loop)
    for name in ("_RelaxedDirect", "solve_relaxed_direct", "_solver"):
        assert name not in source, name
    assert list(inspect.signature(solver.solve).parameters) == ["problem"]
    assert "maxiter" not in inspect.signature(npc.solve_relaxed_direct).parameters
    assert not hasattr(solver, "SolverOptions")


@pytest.mark.parametrize("shift", [0, 2, 3])
def test_shifted_guess(shift):
    """The warm start is the free slots of the input and output windows
    advanced by ``shift`` steps and padded with the setpoint (shift 0 keeps
    them). On the flat toy, of output degree 2, a shift of 3 moves the
    padding into the free output slots."""
    spec = flat_toy_relaxed_spec(0.3)
    builder = OcpBuilder(spec)
    packed = full_space.Packed(builder)
    decision = packed.unpack(np.random.default_rng(5).standard_normal(packed.dim))
    zf = builder.shifted_guess(decision, shift)

    L, d, Lp = builder.L, builder.d_max, builder.Lp
    u_free = zf[:L].reshape(L, 1)
    np.testing.assert_array_equal(u_free[: L - shift], decision.u_bar[d + shift :])
    np.testing.assert_array_equal(u_free[L - shift :], np.tile(spec.u_setpoint, (shift, 1)))
    (y_old,) = decision.y_bar
    kept = y_old.size - d - shift
    np.testing.assert_array_equal(zf[L : L + min(L, kept)], y_old[d + shift : Lp + shift])
    np.testing.assert_array_equal(zf[L + kept :], spec.y_setpoint[0])
    assert zf.shape == (builder.n_free,)


def test_starts_make_no_dictionary_call(monkeypatch):
    """A start is its free slots: the cold start and the warm start fit no
    combination vector, so neither evaluates the dictionary. Unpacking a
    start, as a form does, evaluates it."""
    spec = flat_toy_relaxed_spec(0.3)
    builder = OcpBuilder(spec)
    packed = full_space.Packed(builder)
    decision = packed.unpack(np.random.default_rng(5).standard_normal(packed.dim))
    hu, hy = np.zeros((2, 1)), np.array([[0.2], [0.19]])
    dictionary = spec.blocks.dictionary
    calls = Counter()
    for name in ("value_batch", "value_and_jacobian_batch"):
        def counting(*args, _name=name, _method=getattr(dictionary, name)):
            calls[_name] += 1
            return _method(*args)

        monkeypatch.setattr(dictionary, name, counting)
    warm = builder.shifted_guess(decision, 2)
    cold = builder.initial_guess(hy)
    assert not calls
    builder.set_history(hu, hy)
    builder.unpack(warm)
    builder.unpack(cold)
    assert sum(calls.values()) >= 2


def assert_direct_agrees_with_constrained(monkeypatch, y_s):
    """The direct elimination and the full-space AL reference solve the same
    relaxed robust problem on the flat toy at setpoint ``y_s``. Both drop
    the slack bound, so the comparison first checks that the bound is
    inactive at both solutions."""
    builder = OcpBuilder(flat_toy_relaxed_spec(y_s))
    spec = builder.spec
    hu = np.zeros((2, 1))
    hy = np.array([[0.2], [0.19]])
    monkeypatch.setattr(npc, "DIRECT_MAXITER", 300)
    dec_fast, info = solve_relaxed_direct(builder, hu, hy)
    monkeypatch.setattr(solver, "FEASIBILITY_TOL", 1e-9)
    monkeypatch.setattr(solver, "OPTIMALITY_TOL", 1e-7)
    rep = solver.solve(full_space.problem(builder, hu, hy))
    dec_slow = full_space.Packed(builder).unpack(rep.x)
    assert info["status"] != "bound-active"
    assert dec_slow.sigma_inf <= spec.slack_bound()
    np.testing.assert_allclose(dec_fast.u_bar[spec.d_max], dec_slow.u_bar[spec.d_max], atol=2e-4)
    assert abs(info["objective"] - rep.objective) <= 1e-4 * max(1.0, rep.objective)
    return builder


def test_direct_solver_agrees_with_constrained_path(monkeypatch):
    assert_direct_agrees_with_constrained(monkeypatch, 0.0)


def test_direct_solver_agrees_with_constrained_path_nonzero_setpoint(monkeypatch):
    """At a setpoint with nonzero features the ridge anchor is nonzero, so a
    change to only one path's anchor shows here."""
    builder = assert_direct_agrees_with_constrained(monkeypatch, 0.3)
    assert np.max(np.abs(builder.alpha_s)) > 1e-3


def pendulum_relaxed_builder(data_seed=2):
    """Reference pendulum controller, relaxed robust mode, on data seed 2
    unless another is given."""
    exp = presets.pendulum_experiment(grid_points=3)
    d = exp.dictionary(perturbation=0.1, seed=3)
    blocks = exp.blocks(d, exp.collect(seed=data_seed, w_star=0.01))
    spec = exp.ocp_spec(blocks, eps_star=6.65, w_star=0.01)
    return exp, d, spec, OcpBuilder(spec)


def test_direct_solve_makes_one_kernel_pass_per_point(monkeypatch):
    """From hanging, each point the direct solve evaluates costs one pass of
    the pendulum kernel, values and partials together: the jacobian reuses
    the pass of the point it was last asked about, and unpacking the result
    adds at most one pass, where the last trial was rejected."""
    exp, _, spec, builder = pendulum_relaxed_builder()
    hu = np.tile(exp.hold_input, (spec.d_max, 1))
    hy = np.tile(exp.x0[[0, 2]], (spec.d_max, 1))
    guess = builder.initial_guess(hy)
    calls = []
    kernel = plant._window_accelerations

    def counting(*args, **kwargs):
        calls.append(kwargs.get("jac") is not None)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(plant, "_window_accelerations", counting)
    _, info = solve_relaxed_direct(builder, hu, hy, guess=guess)
    assert info["iterations"] > 5
    assert len(calls) <= info["iterations"] + 1
    assert all(calls)


def test_robust_equilibrium_is_zero_cost():
    """Robust counterpart of the nominal equilibrium test on the pendulum,
    whose setpoint has nonzero features and window states: resting at the
    setpoint costs nothing, so the controller plans to stay there."""
    exp, d, spec, builder = pendulum_relaxed_builder()
    hu = np.tile(exp.u_setpoint, (spec.d_max, 1))
    hy = np.tile(exp.y_setpoint, (spec.d_max, 1))
    decision, info = solve_relaxed_direct(builder, hu, hy)
    assert info["status"] != "bound-active"
    assert info["objective"] <= 1e-8
    np.testing.assert_allclose(
        decision.planned_inputs(spec.d_max, spec.L), np.tile(exp.u_setpoint, (spec.L, 1)),
        atol=1e-6,
    )

    u_bar = np.tile(exp.u_setpoint, (builder.Lp, 1))
    y_bar = [np.full(n, exp.y_setpoint[i]) for i, n in enumerate(builder.y_lens)]
    xi = plant.window_states(y_bar, spec.structure).data
    psi = d.value_batch(u_bar, xi[: builder.Lp]).reshape(-1)
    alpha = builder.alpha_s
    decision = builder.window_decision(
        alpha, full_space.window(builder, u_bar, y_bar), builder.H_psi @ alpha - psi
    )
    z = full_space.Packed(builder).pack(decision)
    objective, _ = full_space.problem(builder, hu, hy).objective(z)
    assert objective <= 1e-8


@pytest.fixture(scope="module")
def direct_builders():
    """Builders for the direct-form checks: the pendulum reference controller
    and the flat toy at a nonzero setpoint."""
    return [pendulum_relaxed_builder()[3], OcpBuilder(flat_toy_relaxed_spec(0.3))]


def random_history(builder, rng):
    spec = builder.spec
    hu = spec.u_setpoint + 0.3 * rng.standard_normal((builder.d_max, builder.m))
    hy = spec.y_setpoint + 0.3 * rng.standard_normal((builder.d_max, builder.m))
    return hu, hy


def random_reduced_point(direct, rng):
    spec = direct.spec
    u = spec.u_setpoint + 0.3 * rng.standard_normal((direct.L, direct.m))
    y = spec.y_setpoint[:, None] + 0.3 * rng.standard_normal((direct.m, direct.L))
    return np.concatenate([np.clip(u, spec.u_min, spec.u_max).reshape(-1), y.reshape(-1)])


def uncompressed_residual_and_jacobian(direct, zf):
    """Reference: the direct form's residual without the square ``T``, with
    stage rows, ridge rows, feature slack rows and state slack rows."""
    g, dpsi = direct.features.stacked(zf), direct.features.dpsi(zf)
    psi, xi_flat = g[: dpsi.shape[0]], g[dpsi.shape[0] :]
    h = g - direct.g_s
    psi_s = direct.H_psi @ direct.alpha_s
    xi_s = direct.H_xi @ direct.alpha_s
    HpsiP = direct.H_psi @ direct.P
    HxiP = direct.H_xi @ direct.P
    r = np.concatenate([
        direct.J_stage @ zf - direct.b_stage,
        direct.ra * direct.P @ h,
        direct.rs * (HpsiP @ h + psi_s - psi),
        direct.rs * (HxiP @ h + xi_s - xi_flat),
    ])
    D_xi = direct.features.D_lin
    dg = np.vstack([dpsi, D_xi])
    J = np.vstack([
        direct.J_stage,
        direct.ra * direct.P @ dg,
        direct.rs * (HpsiP @ dg - dpsi),
        direct.rs * (HxiP @ dg - D_xi),
    ])
    return r, J


def test_reduced_direct_residual_matches_uncompressed(direct_builders):
    """Replacing the constant tail by the square ``T`` read off the blocks'
    SVD keeps the cost, J^T J and J^T r, so the trust-region steps are those
    of the full residual."""
    rng = np.random.default_rng(11)
    for builder in direct_builders:
        direct = npc._RelaxedDirect(builder.spec)
        for _ in range(5):
            direct.set_history(*random_history(builder, rng))
            zf = random_reduced_point(direct, rng)
            r_full, J_full = uncompressed_residual_and_jacobian(direct, zf)
            r, J = direct.residual(zf), direct.jacobian(zf)
            assert r.size < r_full.size
            assert abs(r @ r - r_full @ r_full) <= 1e-10 * (r_full @ r_full)
            for got, want in ((J.T @ J, J_full.T @ J_full), (J.T @ r, J_full.T @ r_full)):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 * np.max(np.abs(want)))


def test_direct_cost_equals_full_objective(direct_builders):
    """The eliminated problem is the builder's problem: at the full decision a
    reduced point stands for, with its combination vector and feature slack,
    the builder's objective equals the direct form's cost."""
    rng = np.random.default_rng(14)
    for builder in direct_builders:
        direct = npc._RelaxedDirect(builder.spec)
        for _ in range(5):
            hu, hy = random_history(builder, rng)
            direct.set_history(hu, hy)
            zf = random_reduced_point(direct, rng)
            r = direct.residual(zf)
            z = full_space.Packed(builder).pack(direct.unpack(zf))
            objective, _ = full_space.problem(builder, hu, hy).objective(z)
            assert abs(r @ r - objective) <= 1e-10 * objective


def test_direct_history_change_drops_cached_features(direct_builders):
    """The features cached for a reduced point belong to one history: at the
    same point under another history the residual and jacobian are those of a
    fresh direct form."""
    rng = np.random.default_rng(12)
    for builder in direct_builders:
        direct = npc._RelaxedDirect(builder.spec)
        history_a = random_history(builder, rng)
        history_b = random_history(builder, rng)
        direct.set_history(*history_a)
        zf = random_reduced_point(direct, rng)
        direct.residual(zf)
        direct.set_history(*history_b)
        fresh = npc._RelaxedDirect(builder.spec)
        fresh.set_history(*history_b)
        np.testing.assert_array_equal(direct.residual(zf), fresh.residual(zf))
        np.testing.assert_array_equal(direct.jacobian(zf), fresh.jacobian(zf))


def test_direct_feature_jacobian_scatter_matches_loop(direct_builders):
    """The index scatter of the dictionary jacobian reproduces the per-slot
    loop exactly."""
    rng = np.random.default_rng(13)
    for builder in direct_builders:
        direct = npc._RelaxedDirect(builder.spec)
        direct.set_history(*random_history(builder, rng))
        zf = random_reduced_point(direct, rng)
        dpsi = direct.features.dpsi(zf)
        m, n, r = direct.m, direct.n, direct.r
        c = direct.features.window(zf)
        dictionary = direct.spec.blocks.dictionary
        jpsi = dictionary.jacobian_batch(c[direct.u_idx], c[direct.xi_idx[: direct.Lp]])
        y_state_cols = np.where(direct.xi_idx < direct.n_free, direct.xi_idx, -1).reshape(-1)
        want = np.zeros((r * direct.Lp, direct.n_free))
        for k in range(direct.Lp):
            rows = slice(k * r, (k + 1) * r)
            if k >= direct.d_max:
                ku = k - direct.d_max
                want[rows, ku * m : (ku + 1) * m] = jpsi[k, :, :m]
            cols = y_state_cols[k * n : (k + 1) * n]
            for q in range(n):
                if cols[q] >= 0:
                    want[rows, cols[q]] += jpsi[k, :, m + q]
        np.testing.assert_array_equal(dpsi, want)


def test_direct_solver_agrees_with_trust_region_on_closed_loop_solves(monkeypatch):
    """Per-solve agreement of ``solver.reduced_lsq`` with scipy's trust-region
    solver on the problems a noisy reference loop actually poses: each
    solve's history and warm start are recorded, and both solvers run to
    convergence from the same start. The first ten solves, the swing-up
    transient, are left out: there the two solvers can settle in different
    local minima, with either one lower."""
    from scipy.optimize import least_squares

    exp, _, spec, builder = pendulum_relaxed_builder()
    recorded = []
    solve = npc.solve_relaxed_direct

    def recording(direct, history_u, history_y, guess=None):
        recorded.append((np.array(history_u), np.array(history_y), guess))
        return solve(direct, history_u, history_y, guess)

    monkeypatch.setattr(npc, "solve_relaxed_direct", recording)
    run_closed_loop(
        spec, exp.plant_model, plant.NoiseModel(w_star=0.01, seed=2002), x0=exp.x0,
        total_steps=80, hold_input=exp.hold_input,
    )
    direct = npc._RelaxedDirect(builder.spec)
    assert len(recorded) == 40
    for hu, hy, guess in recorded[10:]:
        direct.set_history(hu, hy)
        zf0 = np.clip(guess, builder.lo, builder.hi)
        rep = solver.reduced_lsq(
            direct.residual, direct.jacobian, zf0, builder.lo, builder.hi, 2000, 1e-10
        )
        ref = least_squares(direct.residual, zf0, jac=direct.jacobian, bounds=(builder.lo, builder.hi),
                            method="trf", xtol=1e-12, ftol=1e-12, gtol=1e-10, max_nfev=2000)
        assert rep.converged
        assert abs(rep.objective - 2.0 * ref.cost) <= 1e-8 * 2.0 * ref.cost


def test_direct_iteration_limit_reports_measured_violation(monkeypatch):
    """A direct solve stopped by its iteration limit reports the slack-bound
    violation it measured, not an assumed zero."""
    exp, _, spec, builder = pendulum_relaxed_builder()
    hu = np.tile(exp.hold_input, (spec.d_max, 1))
    hy = np.tile(exp.y_setpoint - 1.0, (spec.d_max, 1))
    monkeypatch.setattr(npc, "DIRECT_MAXITER", 1)
    decision, info = solve_relaxed_direct(builder, hu, hy)
    assert info["status"] == "max-iter"
    bound = spec.c_slack * spec.slack_level
    assert np.isfinite(info["max_violation"]) and info["max_violation"] >= 0.0
    assert info["max_violation"] == max(0.0, decision.sigma_inf - bound)


def flat_toy_loop_spec(mode, setpoint=0.0):
    """The relaxed robust flat toy at ``setpoint``, or its nominal
    counterpart on the same data."""
    spec = flat_toy_relaxed_spec(setpoint)
    if mode == "robust":
        return spec
    return OcpSpec(
        mode="nominal", L=spec.L, structure=spec.structure, blocks=spec.blocks,
        Q=spec.Q, R=spec.R, u_setpoint=spec.u_setpoint, y_setpoint=spec.y_setpoint,
        u_min=spec.u_min, u_max=spec.u_max,
    )


@pytest.mark.parametrize(
    "mode,failing_call,failed_solve",
    [
        pytest.param("robust", 2, 0, id="robust-2"),
        pytest.param("nominal", 1, 0, id="nominal-1"),
        pytest.param("robust", 13, 1, id="robust-13"),
        pytest.param("robust", 14, 1, id="robust-14"),
        pytest.param("robust", 20, 1, id="robust-20"),
    ],
)
def test_solver_error_records_exception_text(mode, failing_call, failed_solve):
    """A solve that raises is held and recorded as ``solver-error`` with the
    exception text, on the direct path (robust) and the AL path (nominal).
    The robust builder evaluates the dictionary once at construction, so its
    first solve makes the second call. That solve's 11 residual evaluations
    are calls 2 to 12 (its returned point's features are kept), and the warm
    start evaluates no dictionary, so call 13 is the second solve's first
    residual, at its warm start, and calls 14 and 20 fall later inside it.
    Other calls succeed. The failed solve holds the previous decision and is
    recorded on the ``held`` path; the others name the path they ran."""
    spec = flat_toy_loop_spec(mode)
    d = spec.blocks.dictionary
    value_batch = d.value_batch
    calls = []

    def failing_value_batch(U, XI):
        calls.append(None)
        if len(calls) == failing_call:
            raise RuntimeError("dictionary offline")
        return value_batch(U, XI)

    d.value_batch = failing_value_batch
    toy, _, _ = plant.make_scalar_flat()
    log = run_closed_loop(spec, toy, plant.NoiseModel(), np.array([0.2, 0.1]), total_steps=6)
    assert [i for i, rec in enumerate(log.solves) if rec.error] == [failed_solve]
    failed = log.solves[failed_solve]
    assert failed.status == "solver-error"
    assert failed.error == "RuntimeError: dictionary offline"
    assert not failed.applied
    assert len(log.solves) > failed_solve + 1
    solved = "direct" if mode == "robust" else "al-gn"
    assert [rec.path for rec in log.solves] == [
        "held" if i == failed_solve else solved for i in range(len(log.solves))
    ]


@BOUND_ACTIVE
def test_solver_error_in_a_continuation_decade_is_recorded(monkeypatch, fields):
    """A dictionary that fails inside the first decade of the first
    continuation (the direct form at a raised slack weight) makes that solve
    a ``solver-error`` with the exception text, held and not applied; the
    loop goes on, and later continuations run their decades."""
    spec = dataclasses.replace(flat_toy_relaxed_spec(0.0), **fields)
    d = spec.blocks.dictionary
    value_batch, solve_direct = d.value_batch, npc.solve_relaxed_direct
    rs = np.sqrt(spec.lambda_sigma)
    decades = []

    def counted_direct(direct, *args):
        if direct.rs == rs:
            return solve_direct(direct, *args)
        decades.append("open")
        try:
            return solve_direct(direct, *args)
        finally:
            decades[-1] = "closed"

    def failing_value_batch(U, XI):
        if decades == ["open"]:
            raise RuntimeError("dictionary offline")
        return value_batch(U, XI)

    monkeypatch.setattr(npc, "solve_relaxed_direct", counted_direct)
    monkeypatch.setattr(d, "value_batch", failing_value_batch)
    toy, _, _ = plant.make_scalar_flat()
    log = run_closed_loop(spec, toy, plant.NoiseModel(w_star=0.005, seed=7), np.array([0.2, 0.1]),
                          total_steps=20)
    failed = [rec for rec in log.solves if rec.error]
    assert len(failed) == 1
    assert failed[0].status == "solver-error"
    assert failed[0].error == "RuntimeError: dictionary offline"
    assert failed[0].path == "held" and not failed[0].applied
    assert len(decades) >= 2
    assert "fallback" in {rec.path for rec in log.solves}


@pytest.mark.parametrize("mode,construction_calls", [("robust", 1), ("nominal", 0)])
def test_solve_records_time_their_solves(mode, construction_calls):
    """Each record's ``wall_s`` spans its warm start and solve: together the
    records cover every dictionary evaluation after the builder's
    construction, and they fit inside the loop's own time."""
    spec = flat_toy_loop_spec(mode)
    d = spec.blocks.dictionary
    value_batch = d.value_batch
    spent = []

    def slow_value_batch(U, XI):
        started = time.perf_counter()
        time.sleep(1e-3)
        out = value_batch(U, XI)
        spent.append(time.perf_counter() - started)
        return out

    d.value_batch = slow_value_batch
    toy, _, _ = plant.make_scalar_flat()
    started = time.perf_counter()
    log = run_closed_loop(spec, toy, plant.NoiseModel(), np.array([0.2, 0.1]), total_steps=6)
    elapsed = time.perf_counter() - started
    walls = [rec.wall_s for rec in log.solves]
    assert min(walls) > 0.0
    assert sum(spent[construction_calls:]) <= sum(walls) <= elapsed


@pytest.mark.parametrize("mode,construction_calls", [("robust", 1), ("nominal", 0)])
def test_solver_error_without_any_success_is_recorded(mode, construction_calls):
    """A dictionary that raises on every call after the builder is built:
    no solve ever succeeds, and the held placeholder must not evaluate the
    dictionary, so the loop still returns a log of ``solver-error`` solves.
    The placeholder is the window resting at the setpoint in every free
    slot, at the ridge anchor of a form built while the dictionary worked
    (nonzero in robust mode, at a nonzero setpoint)."""
    spec = flat_toy_loop_spec(mode, setpoint=0.3)
    alpha_s = OcpBuilder(spec).alpha_s
    d = spec.blocks.dictionary
    value_batch = d.value_batch
    calls = []

    def failing_value_batch(U, XI):
        calls.append(None)
        if len(calls) > construction_calls:
            raise RuntimeError("dictionary offline")
        return value_batch(U, XI)

    d.value_batch = failing_value_batch
    toy, _, _ = plant.make_scalar_flat()
    log = run_closed_loop(spec, toy, plant.NoiseModel(), np.array([0.2, 0.1]), total_steps=6)
    assert log.solves
    for rec in log.solves:
        assert rec.status == "solver-error"
        assert rec.path == "held"
        assert not rec.applied
        assert rec.error == "RuntimeError: dictionary offline"
        for y, d_i, y_s in zip(rec.predicted_outputs, spec.structure.degrees, spec.y_setpoint):
            np.testing.assert_array_equal(y, np.full(spec.L + d_i, y_s))
        assert rec.alpha_l1 == np.sum(np.abs(alpha_s))
        assert np.isfinite(rec.sigma_inf)


@pytest.mark.parametrize("mode,construction_calls", [("robust", 1), ("nominal", 0)])
def test_unexpected_dictionary_error_propagates(mode, construction_calls):
    """Only runtime, value and arithmetic errors (solver callbacks,
    dictionary evaluation, linear algebra) turn a solve into a held
    ``solver-error`` record; a dictionary that raises a ``TypeError`` in the
    first solve is a programming error, and it leaves the loop."""
    spec = flat_toy_loop_spec(mode)
    d = spec.blocks.dictionary
    value_batch = d.value_batch
    calls = []

    def failing_value_batch(U, XI):
        calls.append(None)
        if len(calls) > construction_calls:
            raise TypeError("dictionary called with the wrong arguments")
        return value_batch(U, XI)

    d.value_batch = failing_value_batch
    toy, _, _ = plant.make_scalar_flat()
    with pytest.raises(TypeError, match="wrong arguments"):
        run_closed_loop(spec, toy, plant.NoiseModel(), np.array([0.2, 0.1]), total_steps=6)


@pytest.mark.parametrize("mode,path", [("robust", "direct"), ("nominal", "al-gn")])
def test_finished_loop_frees_its_builder(monkeypatch, mode, path):
    """A closed loop builds one problem object, the form of its mode, and
    owns it: with the cyclic garbage collector off, that object is freed by
    reference counting alone once the loop finishes, so no reference cycle
    keeps it."""
    spec = flat_toy_loop_spec(mode)
    forms = []
    init = OcpBuilder.__init__

    def recording_init(self, *args):
        init(self, *args)
        forms.append(weakref.ref(self))

    monkeypatch.setattr(OcpBuilder, "__init__", recording_init)
    toy, _, _ = plant.make_scalar_flat()
    gc.collect()
    gc.disable()
    try:
        log = run_closed_loop(spec, toy, plant.NoiseModel(), np.array([0.2, 0.1]), total_steps=6)
        alive = [ref() is not None for ref in forms]
    finally:
        gc.enable()
    assert alive == [False]
    assert {rec.path for rec in log.solves} == {path}


def test_robust_form_evaluates_the_dictionary_once(monkeypatch):
    """Building a robust loop's problem object lays out the window once and
    evaluates the dictionary once, for the ridge anchor: the object is its
    own builder, with no second object that computes the layout again."""
    spec = flat_toy_relaxed_spec(0.3)
    dictionary = spec.blocks.dictionary
    calls = []
    value_batch = dictionary.value_batch

    def counting(*args):
        calls.append(args)
        return value_batch(*args)

    monkeypatch.setattr(dictionary, "value_batch", counting)
    form = OcpBuilder(spec)
    assert isinstance(form, npc._RelaxedDirect) and len(calls) == 1
    assert np.any(form.alpha_s != 0.0)


def nominal_toy_builders():
    """Nominal builders on the flat and chain toys, with their plants."""
    flat, st, _, traj, d = presets.flat_toy_setup()
    flat_spec = OcpSpec(
        mode="nominal", L=8, structure=st,
        blocks=DataDictionaryBlocks.from_trajectory(d, traj, horizon=8 + st.d_max),
        Q=np.eye(1), R=np.eye(1), u_setpoint=[0.0], y_setpoint=[0.0], u_min=[-3.0], u_max=[3.0],
    )
    chain, _, _, _, _, spec = chain_spec()
    return {"flat": (flat, OcpBuilder(flat_spec)), "chain": (chain, OcpBuilder(spec))}


@pytest.mark.parametrize("case", ["flat", "chain", "pendulum"])
def test_nominal_core_rank_is_matrix_rank(case):
    """The blocks take the rank of ``Hs = [H_psi; H_xi]`` from their one full
    SVD (``H_stack_svd``), at ``matrix_rank``'s default tolerance: the
    nominal core keeps one membership row per direction of the left null
    space."""
    if case == "pendulum":
        spec = pendulum_relaxed_builder()[2]
        builder = OcpBuilder(dataclasses.replace(spec, mode="nominal", eps_star=0.0, w_star=0.0))
    else:
        builder = nominal_toy_builders()[case][1]
    core = npc._NominalCore(builder.spec)
    rank = np.linalg.matrix_rank(core.Hs)
    assert 0 < rank < core.Hs.shape[0]
    assert core.T.shape == (core.Hs.shape[0] - rank, core.Hs.shape[0])


def test_stack_factors_are_taken_once_per_data_set_and_read_only():
    """A robust and a nominal builder on one set of blocks read the same
    stack factors, kept on the blocks: one full SVD of the stack, and the
    pseudo-inverse and left null space read from it. The pseudo-inverse
    meets the four Penrose conditions and agrees with ``np.linalg.pinv``.
    None of the factors can be written. A copy of the blocks starts without
    them."""
    robust = flat_toy_loop_spec("robust")
    blocks = robust.blocks
    direct, core = OcpBuilder(robust), OcpBuilder(dataclasses.replace(robust, mode="nominal"))
    assert isinstance(direct, npc._RelaxedDirect) and isinstance(core, npc._NominalCore)
    assert core.P is blocks.H_stack_pinv
    assert direct.Hs is core.Hs is blocks.H_stack
    assert core.T is blocks.H_stack_null
    stack = np.vstack([blocks.H_psi, blocks.H_xi])
    np.testing.assert_array_equal(blocks.H_stack, stack)
    X = blocks.H_stack_pinv
    for got, want in (
        (stack @ X @ stack, stack), (X @ stack @ X, X),
        ((stack @ X).T, stack @ X), ((X @ stack).T, X @ stack),
    ):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 * np.max(np.abs(want)))
    ref = np.linalg.pinv(stack)
    np.testing.assert_allclose(X, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))
    U, s, Vt, _ = blocks.H_stack_svd
    for a in (blocks.H_stack, X, blocks.H_stack_null, U, s, Vt):
        with pytest.raises(ValueError):
            a.flat[0] = 1.0
    fresh = dataclasses.replace(blocks)
    assert not {"H_stack", "H_stack_svd", "H_stack_pinv", "H_stack_null"} & set(vars(fresh))


def robust_spec(case):
    """A relaxed robust spec on the flat toy (setpoint 0.3), the chain toy
    (slack level 0.01) or the reference pendulum."""
    if case == "pendulum":
        return pendulum_relaxed_builder()[2]
    if case == "chain":
        return chain_spec(mode="robust", eps_star=0.01)[-1]
    return flat_toy_relaxed_spec(0.3)


@pytest.mark.parametrize("case", ["flat", "chain", "pendulum"])
def test_direct_form_maps_are_filters_of_the_stack_svd(case):
    """The direct form's ``P``, read off the blocks' SVD, solves the ridge
    normal equations ``(rs^2 Hs^T Hs + ra^2 I) P = rs^2 Hs^T``, and its
    ``T`` has the Gram matrix of the slack map ``C = [ra P; rs (Hs P -
    I)]``: in both slack modes, and at ``lambda_alpha = 0`` and both weights
    zero, where no warning is raised."""
    base = robust_spec(case)
    exact = dict(slack_mode="exact", k_psi=1.0, k_w=1.0, g_dagger_norm=5.0)
    for fields in ({}, exact, dict(lambda_alpha=0.0), dict(lambda_alpha=0.0, lambda_sigma=0.0)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            direct = npc._RelaxedDirect(dataclasses.replace(base, **fields))
        Hs, P, rs, ra = direct.Hs, direct.P, direct.rs, direct.ra
        n_g, M = Hs.shape
        rhs = rs**2 * Hs.T
        gap = (rs**2 * Hs.T @ Hs + ra**2 * np.eye(M)) @ P - rhs
        assert np.linalg.norm(gap) <= 1e-10 * np.linalg.norm(rhs)
        C = np.vstack([ra * P, rs * (Hs @ P - np.eye(n_g))])
        gram = C.T @ C
        np.testing.assert_allclose(
            direct.T.T @ direct.T, gram, rtol=0, atol=1e-12 * np.max(np.abs(gram))
        )


def test_one_svd_of_the_stack_serves_every_controller_form(monkeypatch):
    """On a fresh copy of the blocks, two robust closed loops and one nominal
    loop factor the stack once: one ``np.linalg.svd`` call, and no ``pinv``
    or ``qr``."""
    spec = flat_toy_loop_spec("robust")
    robust = dataclasses.replace(spec, blocks=dataclasses.replace(spec.blocks))
    nominal = dataclasses.replace(robust, mode="nominal")
    calls = Counter()

    def counting(name, call):
        def counted(*args, **kwargs):
            calls[name] += 1
            return call(*args, **kwargs)
        return counted

    for name in ("svd", "pinv", "qr"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    toy, _, _ = plant.make_scalar_flat()
    for s in (robust, robust, nominal):
        run_closed_loop(s, toy, plant.NoiseModel(w_star=0.005, seed=7), np.array([0.3, -0.2]),
                        total_steps=4)
    assert calls == {"svd": 1}


def assert_logs_equal(a, b):
    """Two closed-loop logs agree bit for bit, but for the solve times."""
    for key, value in log_arrays(a).items():
        np.testing.assert_array_equal(log_arrays(b)[key], value)
    assert len(a.solves) == len(b.solves)
    for ra, rb in zip(a.solves, b.solves):
        assert dataclasses.replace(ra, wall_s=0.0, predicted_outputs=None) == dataclasses.replace(
            rb, wall_s=0.0, predicted_outputs=None
        )
        for ya, yb in zip(ra.predicted_outputs, rb.predicted_outputs):
            np.testing.assert_array_equal(ya, yb)


@pytest.mark.parametrize("mode", ["robust", "nominal"])
def test_closed_loops_repeat_with_the_stack_factors_kept(mode):
    """The stack factors are taken inside the first loop on a data set, not
    when its blocks are built. A second loop on the same spec, which finds
    them kept, and a loop on a fresh copy of the blocks, which takes them
    again, log the first loop's trajectory and solves bit for bit."""
    spec = flat_toy_loop_spec(mode)
    toy, _, _ = plant.make_scalar_flat()

    def loop(s):
        noise = plant.NoiseModel(w_star=0.005, seed=7)
        return run_closed_loop(s, toy, noise, np.array([0.3, -0.2]), total_steps=12)

    assert "H_stack_pinv" not in vars(spec.blocks)
    first = loop(spec)
    assert "H_stack_pinv" in vars(spec.blocks)
    assert_logs_equal(first, loop(spec))
    assert_logs_equal(first, loop(dataclasses.replace(spec, blocks=dataclasses.replace(spec.blocks))))


def test_controller_classes_take_no_stack_factorization():
    """``OcpBuilder`` and the two forms derived from it call no SVD,
    pseudo-inverse or QR: the stack factors they read come from the one SVD
    of the stack kept on the blocks (``DataDictionaryBlocks.H_stack_svd``,
    ``H_stack_pinv``, ``H_stack_null``), so a closed loop does not factor
    the stack again."""
    import ast
    from pathlib import Path

    factorizations = {"svd", "pinv", "qr", "matrix_rank", "null_space"}
    tree = ast.parse(Path(npc.__file__).read_text())
    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
    called = {
        (name, node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id)
        for name in ("OcpBuilder", "_RelaxedDirect", "_NominalCore")
        for node in ast.walk(classes[name])
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Attribute, ast.Name))
    }
    assert {(name, call) for name, call in called if call in factorizations} == set()
    assert ("OcpBuilder", "value_batch") in called and ("OcpBuilder", "cholesky") in called
    assert ("_RelaxedDirect", "__init__") in called and ("_NominalCore", "__init__") in called
    assert npc._RelaxedDirect.__bases__ == npc._NominalCore.__bases__ == (OcpBuilder,)


def plant_history(toy, builder, rng):
    """The last ``d_max`` inputs and outputs of the plant, started at a
    random state and driven by random inputs: a history the data can
    continue exactly."""
    x = rng.uniform(-0.3, 0.3, size=builder.n)
    hu, hy = [], []
    for _ in range(builder.d_max):
        u = builder.spec.u_setpoint + rng.uniform(-0.5, 0.5, size=builder.m)
        hy.append(toy.measure(x))
        hu.append(u)
        x = toy.step(x, u)
    return np.array(hu), np.array(hy)


def full_space_violation(builder, decision):
    """The full-space constraint violation at ``decision``, for the history
    that pins its window head."""
    d_max = builder.d_max
    hy = np.column_stack([y[:d_max] for y in decision.y_bar])
    problem = full_space.problem(builder, decision.u_bar[:d_max], hy)
    z = full_space.Packed(builder).pack(decision)
    return full_space.constraint_violation(problem, z)


@pytest.mark.parametrize("toy_name", ["flat", "chain"])
def test_reduced_nominal_solve_agrees_with_full_space(toy_name):
    """The nominal problem on its reduced core (the free window slots under
    ``N^T g = 0``) is the builder's problem: on random feasible histories its
    solve and the full-space AL solve reach the same objective and plan, and
    the decision it unpacks to meets the full-space constraints.

    Both solves stop once the equalities hold to the feasibility tolerance,
    and moving along them by that much moves the objective: here the two
    objectives differ by up to 3.4e-7 relative (5e-8 absolute), and each
    lies up to 5e-7 relative below a solve to 1e-12. The objectives are
    compared to 1e-8 relative plus the feasibility tolerance."""
    toy, builder = nominal_toy_builders()[toy_name]
    core = npc._NominalCore(builder.spec)
    packed = full_space.Packed(builder)
    assert core.n_free < packed.dim
    rng = np.random.default_rng(31)
    for _ in range(5):
        hu, hy = plant_history(toy, builder, rng)
        full = full_space.problem(builder, hu, hy)
        ref = solver.solve(full)
        rep = solver.solve(core.build(hu, hy))
        assert rep.status == "converged"
        assert abs(rep.objective - ref.objective) <= (
            1e-8 * ref.objective + solver.FEASIBILITY_TOL
        )
        got, want = core.unpack(rep.x), packed.unpack(ref.x)
        np.testing.assert_allclose(
            got.planned_inputs(builder.d_max, builder.L),
            want.planned_inputs(builder.d_max, builder.L),
            rtol=0, atol=1e-6,
        )
        z = packed.pack(got)
        assert full_space.constraint_violation(full, z) <= 1e-7
        assert abs(core.violation(rep.x, got) - full_space_violation(builder, got)) <= 1e-14


def test_nominal_record_keeps_full_space_violation(monkeypatch):
    """A nominal solve record's ``max_violation`` is the builder's equality
    violation ``||[H_psi; H_xi] alpha - g||_inf`` at the returned decision,
    not the violation of the reduced equalities. The decisions are caught
    where the loop unpacks them."""
    toy, builder = nominal_toy_builders()["flat"]
    decisions = []
    unpack = npc._NominalCore.unpack

    def recording_unpack(form, x):
        decisions.append(unpack(form, x))
        return decisions[-1]

    monkeypatch.setattr(npc._NominalCore, "unpack", recording_unpack)
    log = run_closed_loop(
        builder.spec, toy, plant.NoiseModel(w_star=0.005, seed=7), np.array([0.45, -0.3]),
        total_steps=12,
    )
    monkeypatch.undo()
    for rec, decision in zip(log.solves, decisions, strict=True):
        assert rec.path == "al-gn"
        want = full_space_violation(builder, decision)
        assert abs(rec.max_violation - want) <= 1e-14
    assert max(rec.max_violation for rec in log.solves) > 0.0


def test_runtime_bounds_trace_nominal_noiseless():
    toy, st, phi, traj, d = presets.flat_toy_setup()
    blocks = DataDictionaryBlocks.from_trajectory(d, traj, horizon=10)
    spec = OcpSpec(
        mode="nominal", L=8, structure=st, blocks=blocks, Q=np.eye(1), R=np.eye(1),
        u_setpoint=[0.0], y_setpoint=[0.0], u_min=[-3.0], u_max=[3.0],
    )
    log = run_closed_loop(spec, toy, plant.NoiseModel(), np.array([0.3, -0.2]), 20)
    rows = evaluate_runtime_bounds(log, eps_star=0.0, w_star=0.0, k_xi=0.8, k_w=0.0, g_norm_inf=1.0)
    assert rows
    for _, _, _, realized, bound in rows:
        assert realized <= 1e-6 + bound
        assert bound <= 1e-9


def test_runtime_bounds_sound_and_monotone_robust_toy():
    toy, st, phi = plant.make_scalar_flat()
    policy = plant.StateFeedbackDitherPolicy(K=np.array([[0.25, 0.55]]), dither=0.6, seed=3)
    traj = plant.collect_offline_data(
        toy, policy, 60, st, plant.NoiseModel(w_star=0.005, seed=2)
    )
    d = basis.FlatToyDictionary(0.02)
    blocks = DataDictionaryBlocks.from_trajectory(d, traj, horizon=10, use_noisy=True)
    spec = OcpSpec(
        mode="robust", L=8, structure=st, blocks=blocks, Q=np.eye(1), R=np.eye(1),
        u_setpoint=[0.0], y_setpoint=[0.0], u_min=[-3.0], u_max=[3.0],
        eps_star=0.05, w_star=0.005, slack_mode="relaxed", c_slack=100.0,
        k_psi=1.0, k_w=2.0, g_dagger_norm=5.0,
    )
    log = run_closed_loop(
        spec, toy, plant.NoiseModel(w_star=0.005, seed=7), np.array([0.3, -0.2]), 30
    )
    rows = evaluate_runtime_bounds(log, eps_star=0.05, w_star=0.005, k_xi=0.8, k_w=2.0, g_norm_inf=1.5)
    assert rows
    by_solve = {}
    for t, k, i, realized, bound in rows:
        assert realized <= bound + 1e-9
        by_solve.setdefault((t, i), []).append((k, bound))
    for seq in by_solve.values():
        seq.sort()
        bounds = [b for _, b in seq]
        assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(bounds, bounds[1:]))


def test_nominal_output_box_respected_in_closed_loop():
    toy, st, phi, traj, d = presets.flat_toy_setup()
    blocks = DataDictionaryBlocks.from_trajectory(d, traj, horizon=10)
    spec = OcpSpec(
        mode="nominal", L=8, structure=st, blocks=blocks, Q=np.eye(1), R=np.eye(1),
        u_setpoint=[0.0], y_setpoint=[0.0], u_min=[-3.0], u_max=[3.0],
        y_min=[-0.5], y_max=[0.5],
    )
    log = run_closed_loop(
        spec, toy, plant.NoiseModel(), x0=np.array([0.4, -0.25]), total_steps=40
    )
    arr = log_arrays(log)
    assert np.all(arr["u"] >= -3.0) and np.all(arr["u"] <= 3.0)
    main = arr["y"][log.bootstrap_steps :]
    assert np.all(main >= -0.5 - 1e-6) and np.all(main <= 0.5 + 1e-6)
