import dataclasses
import gc
import time
import weakref

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
    A, B, C = st.A, st.B, st.C
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
    form = OcpBuilder(spec).reduced_form()
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


def test_nominal_infeasible_history_detected():
    toy, st, phi, traj, d, spec = chain_spec()
    hu = np.zeros((2, 2))
    hy = np.array([[50.0, -40.0], [-60.0, 55.0]])  # unreachable with |u| <= 5
    problem = OcpBuilder(spec).build(hu, hy)
    report = solver.solve(problem, solver.SolverOptions(max_outer=25, inner_maxiter=80))
    assert report.status in ("infeasible-detected", "max-iter")
    assert report.max_violation > 1e-3


def test_decision_count_audit_pendulum_exact_mode():
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
    assert builder.audit_count == expected == 289


def paper_bound(spec, decision):
    """The paper's slack bound with the decision's own ``||alpha||_1``."""
    gain = (spec.eps_star + spec.k_w * spec.w_star) * spec.g_dagger_norm
    return spec.k_psi * spec.w_star + gain * (1 + decision.alpha_l1)


def test_exact_mode_solves_on_toy():
    """The bounded exact-mode problem on the reduced core, from the cold
    start: its solution meets the paper's slack bound."""
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
    form = OcpBuilder(spec).reduced_form()
    report = solver.solve(form.build(hu, hy), solver.SolverOptions(max_outer=20, inner_maxiter=800))
    assert report.max_violation <= 1e-7
    decision = form.unpack(report.x)
    assert decision.sigma_inf <= paper_bound(spec, decision) + 1e-6
    assert form.violation(report.x) == 0.0


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
        keep_decisions=True,
    )
    (rec,) = log.solves
    assert (rec.path, rec.status) == ("direct", "converged")
    assert rec.sigma_inf <= paper_bound(spec, rec.decision)
    assert rec.max_violation == 0.0


def test_robust_zero_bounds_reduce_to_nominal_single_solve():
    toy, st, phi, traj, d, spec_n = chain_spec(mode="nominal")
    _, _, _, _, _, spec_r = chain_spec(mode="robust", eps_star=0.0, w_star=0.0)
    hu, hy, _ = chain_history(toy, st, np.array([0.3, -0.2, 0.25]))
    f_n = OcpBuilder(spec_n).reduced_form()
    f_r = OcpBuilder(spec_r).reduced_form()
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
    d = presets.flat_toy_dictionary()
    blocks = DataDictionaryBlocks.from_trajectory(d, traj, horizon=10, use_noisy=True)
    common = dict(
        mode="robust", L=8, structure=st, blocks=blocks, Q=np.eye(1), R=np.eye(1),
        u_setpoint=[0.0], y_setpoint=[0.0], u_min=[-3.0], u_max=[3.0],
        eps_star=0.02, w_star=0.01, k_psi=1.0, k_w=1.0, g_dagger_norm=5.0,
    )
    hu = np.zeros((2, 1))
    hy = np.array([[0.21], [0.2]])
    free = OcpBuilder(OcpSpec(slack_mode="relaxed", c_slack=100.0, **common)).reduced_form()
    rf = solver.solve(free.build(hu, hy))
    pinned = OcpBuilder(OcpSpec(slack_mode="relaxed", c_slack=1e-9, **common)).reduced_form()
    rp = solver.solve(pinned.build(hu, hy))
    assert free.unpack(rf.x).sigma_inf > 1e-9
    assert rf.objective < rp.objective - 1e-6


def test_blocks_depth_validated():
    toy, st, phi, traj, d = presets.chain_toy_setup()
    blocks = DataDictionaryBlocks.from_trajectory(d, traj, horizon=9)  # wrong depth
    with pytest.raises(ValueError, match="blocks depth"):
        OcpSpec(
            mode="nominal", L=8, structure=st, blocks=blocks, Q=np.eye(2), R=np.eye(2),
            u_setpoint=np.zeros(2), y_setpoint=np.zeros(2),
            u_min=-np.ones(2), u_max=np.ones(2),
        )


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
    solver.check_gradients(p_n, n_points=5, tol=1e-4)

    _, _, _, _, _, spec_r = chain_spec(
        mode="robust", eps_star=0.05, w_star=0.01, slack_mode="relaxed", c_slack=10.0,
        k_psi=1.0, k_w=1.0, g_dagger_norm=5.0,
    )
    p_r = OcpBuilder(spec_r).build(hu, hy)
    solver.check_gradients(p_r, n_points=5, tol=1e-4)

    _, _, _, _, _, spec_e = chain_spec(
        mode="robust", eps_star=0.05, w_star=0.01, slack_mode="exact",
        k_psi=1.0, k_w=1.0, g_dagger_norm=5.0,
    )
    p_e = OcpBuilder(spec_e).build(hu, hy)
    solver.check_gradients(p_e, n_points=5, tol=1e-4)


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
    arr = log.as_arrays()
    J = [s.objective for s in log.solves]
    for k in range(len(J) - 1):
        stage = log.stage_costs[log.bootstrap_steps + k]
        assert J[k + 1] <= J[k] - stage + 1e-6
    assert np.max(np.abs(arr["y"][-1])) < 1e-4
    assert np.all(arr["u"] >= -3.0) and np.all(arr["u"] <= 3.0)


def test_recursive_feasibility_candidate():
    """The shifted previous solution with the combination vector re-fitted is
    feasible for the next problem."""
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
    core = builder.reduced_form()
    for step in range(10):
        report = solver.solve(core.build(hist_u, hist_y))
        assert report.status == "converged" or report.max_violation <= 1e-7
        decision = core.unpack(report.x)
        u_apply = decision.planned_inputs(st.d_max, 1)[0]
        y_meas = toy.measure(x)
        x = toy.step(x, u_apply)
        hist_u = np.vstack([hist_u[1:], u_apply])
        hist_y = np.vstack([hist_y[1:], y_meas])
        candidate = builder.shifted_guess(decision, 1)
        next_problem = full_space.problem(builder, hist_u, hist_y, z0=candidate)
        assert full_space.constraint_violation(next_problem, candidate) <= 1e-6


def test_robust_equals_nominal_closed_loop_with_zero_bounds():
    toy, st, phi, traj, d, spec_n = chain_spec(mode="nominal")
    _, _, _, _, _, spec_r = chain_spec(mode="robust", eps_star=0.0, w_star=0.0)
    x0 = np.array([0.3, -0.1, 0.2])
    log_n = run_closed_loop(spec_n, toy, plant.NoiseModel(), x0, total_steps=30, stride=st.d_max)
    log_r = run_closed_loop(spec_r, toy, plant.NoiseModel(), x0, total_steps=30)
    u_n = log_n.as_arrays()["u"]
    u_r = log_r.as_arrays()["u"]
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
    d = presets.flat_toy_dictionary()
    blocks = DataDictionaryBlocks.from_trajectory(d, traj, horizon=10, use_noisy=True)
    return OcpSpec(
        mode="robust", L=8, structure=st, blocks=blocks, Q=np.eye(1), R=np.eye(1),
        u_setpoint=[u_s], y_setpoint=[y_s], u_min=[-3.0], u_max=[3.0],
        eps_star=0.02, w_star=0.005, slack_mode="relaxed", c_slack=100.0,
        k_psi=1.0, k_w=1.0, g_dagger_norm=5.0,
    )


@pytest.mark.parametrize(
    "fields",
    [dict(c_slack=3e-5), dict(slack_mode="exact", k_psi=0.0, g_dagger_norm=1e-5)],
    ids=["relaxed", "exact"],
)
def test_bound_active_fallback_in_closed_loop(fields):
    """With a slack bound below the direct solutions' slack, the first solves
    of a noisy flat-toy loop take the bounded problem (``al-gn``). Every
    applied decision meets the mode's bound, ``c_slack * slack_level`` or the
    paper's bound at its own combination vector, to the solver's feasibility
    tolerance, and each record keeps its decision's measured violation."""
    spec = dataclasses.replace(flat_toy_relaxed_spec(0.0), **fields)
    toy, _, _ = plant.make_scalar_flat()
    log = run_closed_loop(
        spec, toy, plant.NoiseModel(w_star=0.005, seed=7), np.array([0.2, 0.1]),
        total_steps=20, keep_decisions=True,
    )
    fallbacks = [rec for rec in log.solves if rec.path == "al-gn"]
    assert len(fallbacks) >= 3
    assert {rec.path for rec in log.solves} == {"direct", "al-gn"}
    assert {rec.status for rec in fallbacks} == {"converged"}
    for rec in log.solves:
        if spec.slack_mode == "exact":
            bound = paper_bound(spec, rec.decision)
        else:
            bound = spec.c_slack * spec.slack_level
        assert rec.max_violation == max(0.0, rec.decision.sigma_inf - bound)
        if rec.applied:
            assert rec.sigma_inf <= bound + solver.SolverOptions().feasibility_tol


@pytest.mark.parametrize("shift", [0, 2])
def test_shifted_guess(shift):
    """The warm start advances the input and output windows by ``shift``
    steps and pads them with the setpoint (shift 0 keeps them), restarts the
    feature slack at zero and refits the combination vector to the shifted
    window by the pseudo-inverse."""
    spec = flat_toy_relaxed_spec(0.3)
    builder = OcpBuilder(spec)
    decision = builder.unpack(np.random.default_rng(5).standard_normal(builder.dim))
    guess = builder.unpack(builder.shifted_guess(decision, shift))

    Lp = builder.Lp
    np.testing.assert_array_equal(guess.u_bar[: Lp - shift], decision.u_bar[shift:])
    np.testing.assert_array_equal(guess.u_bar[Lp - shift :], np.tile(spec.u_setpoint, (shift, 1)))
    for i, (y_new, y_old) in enumerate(zip(guess.y_bar, decision.y_bar)):
        np.testing.assert_array_equal(y_new[: y_old.size - shift], y_old[shift:])
        np.testing.assert_array_equal(y_new[y_old.size - shift :], spec.y_setpoint[i])
    assert np.any(decision.sigma_psi) and not np.any(guess.sigma_psi)

    xi = plant.window_states(guess.y_bar, spec.structure).data
    psi = spec.blocks.dictionary.value_batch(guess.u_bar, xi[:Lp])
    rhs = np.concatenate([psi.reshape(-1), xi.reshape(-1)])
    alpha = np.linalg.pinv(np.vstack([builder.H_psi, builder.H_xi])) @ rhs
    np.testing.assert_allclose(guess.alpha, alpha, rtol=0, atol=1e-12 * np.max(np.abs(alpha)))


def assert_direct_agrees_with_constrained(y_s):
    """The direct elimination, the bounded problem on the reduced core and
    the full-space AL reference solve the same relaxed robust problem on the
    flat toy at setpoint ``y_s``, where the slack bound is inactive."""
    builder = OcpBuilder(flat_toy_relaxed_spec(y_s))
    st = builder.spec.structure
    hu = np.zeros((2, 1))
    hy = np.array([[0.2], [0.19]])
    dec_fast, info = solve_relaxed_direct(builder, hu, hy, maxiter=300)
    assert info["bound_ok"]
    opts = solver.SolverOptions(feasibility_tol=1e-9, optimality_tol=1e-7)
    rep = solver.solve(full_space.problem(builder, hu, hy), opts)
    dec_slow = builder.unpack(rep.x)
    form = builder.reduced_form()
    bounded = solver.solve(form.build(hu, hy), opts)
    for objective, decision in (
        (rep.objective, dec_slow), (bounded.objective, form.unpack(bounded.x))
    ):
        np.testing.assert_allclose(
            dec_fast.u_bar[st.d_max], decision.u_bar[st.d_max], atol=2e-4
        )
        assert abs(info["objective"] - objective) <= 1e-4 * max(1.0, objective)
    return builder


def test_direct_solver_agrees_with_constrained_path():
    assert_direct_agrees_with_constrained(0.0)


def test_direct_solver_agrees_with_constrained_path_nonzero_setpoint():
    """At a setpoint with nonzero features the ridge anchor is nonzero, so a
    change to only one path's anchor shows here."""
    builder = assert_direct_agrees_with_constrained(0.3)
    assert np.max(np.abs(builder.alpha_s)) > 1e-3


def pendulum_relaxed_builder():
    """Reference pendulum controller, relaxed robust mode, on data seed 2."""
    exp = presets.pendulum_experiment(grid_points=3)
    d = exp.dictionary(perturbation=0.1, seed=3)
    blocks = exp.blocks(d, exp.collect(seed=2, w_star=0.01))
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
    z0 = builder.initial_guess(hu, hy)
    calls = []
    kernel = plant._window_accelerations

    def counting(*args, **kwargs):
        calls.append(kwargs.get("partials", False))
        return kernel(*args, **kwargs)

    monkeypatch.setattr(plant, "_window_accelerations", counting)
    _, info = solve_relaxed_direct(builder, hu, hy, z0=z0)
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
    assert info["bound_ok"]
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
    z = builder.pack(alpha, u_bar, y_bar, builder.H_psi @ alpha - psi)
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
    spec = direct.b.spec
    u = spec.u_setpoint + 0.3 * rng.standard_normal((direct.b.L, direct.b.m))
    y = spec.y_setpoint[:, None] + 0.3 * rng.standard_normal((direct.b.m, direct.b.L))
    return np.concatenate([np.clip(u, spec.u_min, spec.u_max).reshape(-1), y.reshape(-1)])


def uncompressed_residual_and_jacobian(direct, zf):
    """Reference: the direct form's residual without the QR reduction, with
    stage rows, ridge rows, feature slack rows and state slack rows."""
    b = direct.b
    psi, xi_flat, dpsi = direct._pieces(zf, True)
    h = np.concatenate([psi, xi_flat]) - direct.g_s
    psi_s = b.H_psi @ direct.alpha_s
    xi_s = b.H_xi @ direct.alpha_s
    HpsiP = b.H_psi @ direct.P
    HxiP = b.H_xi @ direct.P
    r = np.concatenate([
        direct.J_stage @ zf - direct.b_stage,
        direct.ra * direct.P @ h,
        direct.rs * (HpsiP @ h + psi_s - psi),
        direct.rs * (HxiP @ h + xi_s - xi_flat),
    ])
    dg = np.vstack([dpsi, direct.D_xi])
    J = np.vstack([
        direct.J_stage,
        direct.ra * direct.P @ dg,
        direct.rs * (HpsiP @ dg - dpsi),
        direct.rs * (HxiP @ dg - direct.D_xi),
    ])
    return r, J


def test_reduced_direct_residual_matches_uncompressed(direct_builders):
    """Replacing the constant tail by its QR triangle keeps the cost, J^T J
    and J^T r, so the trust-region steps are those of the full residual."""
    rng = np.random.default_rng(11)
    for builder in direct_builders:
        direct = npc._RelaxedDirect(builder)
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
        direct = npc._RelaxedDirect(builder)
        for _ in range(5):
            hu, hy = random_history(builder, rng)
            direct.set_history(hu, hy)
            zf = random_reduced_point(direct, rng)
            r = direct.residual(zf)
            d = direct.unpack(zf)
            z = builder.pack(d.alpha, d.u_bar, d.y_bar, d.sigma_psi)
            objective, _ = full_space.problem(builder, hu, hy).objective(z)
            assert abs(r @ r - objective) <= 1e-10 * objective


def test_direct_history_change_drops_cached_features(direct_builders):
    """The features cached for a reduced point belong to one history: at the
    same point under another history the residual and jacobian are those of a
    fresh direct form."""
    rng = np.random.default_rng(12)
    for builder in direct_builders:
        direct = npc._RelaxedDirect(builder)
        history_a = random_history(builder, rng)
        history_b = random_history(builder, rng)
        direct.set_history(*history_a)
        zf = random_reduced_point(direct, rng)
        direct.residual(zf)
        direct.set_history(*history_b)
        fresh = npc._RelaxedDirect(builder)
        fresh.set_history(*history_b)
        np.testing.assert_array_equal(direct.residual(zf), fresh.residual(zf))
        np.testing.assert_array_equal(direct.jacobian(zf), fresh.jacobian(zf))


def test_direct_feature_jacobian_scatter_matches_loop(direct_builders):
    """The index scatter of the dictionary jacobian reproduces the per-slot
    loop exactly."""
    rng = np.random.default_rng(13)
    for builder in direct_builders:
        direct = npc._RelaxedDirect(builder)
        direct.set_history(*random_history(builder, rng))
        zf = random_reduced_point(direct, rng)
        _, xi_flat, dpsi = direct._pieces(zf, True)
        b = direct.b
        m, n, r = b.m, b.n, b.r
        xi = xi_flat.reshape(b.Lp + 1, n)[: b.Lp]
        jpsi = b.spec.blocks.dictionary.jacobian_batch(b.u_of(direct._embed(zf)), xi)
        want = np.zeros((r * b.Lp, direct.dim))
        for k in range(b.Lp):
            rows = slice(k * r, (k + 1) * r)
            if k >= b.d_max:
                ku = k - b.d_max
                want[rows, ku * m : (ku + 1) * m] = jpsi[k, :, :m]
            cols = direct.y_state_cols[k * n : (k + 1) * n]
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

    def recording(builder, history_u, history_y, z0=None, maxiter=60):
        recorded.append((np.array(history_u), np.array(history_y), np.array(z0)))
        return solve(builder, history_u, history_y, z0, maxiter)

    monkeypatch.setattr(npc, "solve_relaxed_direct", recording)
    run_closed_loop(
        spec, exp.plant_model, plant.NoiseModel(w_star=0.01, seed=2002), x0=exp.x0,
        total_steps=80, hold_input=exp.hold_input,
    )
    direct = npc._RelaxedDirect(builder)
    assert len(recorded) == 40
    for hu, hy, z0 in recorded[10:]:
        direct.set_history(hu, hy)
        zf0 = np.clip(z0[direct.cols], direct.lo, direct.hi)
        rep = solver.reduced_lsq(
            direct.residual, direct.jacobian, zf0, direct.lo, direct.hi, 2000, 1e-10
        )
        ref = least_squares(direct.residual, zf0, jac=direct.jacobian, bounds=(direct.lo, direct.hi),
                            method="trf", xtol=1e-12, ftol=1e-12, gtol=1e-10, max_nfev=2000)
        assert rep.converged
        assert abs(rep.objective - 2.0 * ref.cost) <= 1e-8 * 2.0 * ref.cost


def test_direct_iteration_limit_reports_measured_violation():
    """A direct solve stopped by its iteration limit reports the slack-bound
    violation it measured, not an assumed zero."""
    exp, _, spec, builder = pendulum_relaxed_builder()
    hu = np.tile(exp.hold_input, (spec.d_max, 1))
    hy = np.tile(exp.y_setpoint - 1.0, (spec.d_max, 1))
    decision, info = solve_relaxed_direct(builder, hu, hy, maxiter=1)
    assert info["status"] == "max-iter"
    bound = spec.c_slack * spec.slack_level
    assert np.isfinite(info["max_violation"]) and info["max_violation"] >= 0.0
    assert info["max_violation"] == max(0.0, decision.sigma_inf - bound)


def flat_toy_loop_spec(mode):
    """The relaxed robust flat toy at setpoint zero, or its nominal
    counterpart on the same data."""
    spec = flat_toy_relaxed_spec(0.0)
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
        pytest.param("robust", 14, 1, id="robust-14"),
        pytest.param("robust", 20, 1, id="robust-20"),
    ],
)
def test_solver_error_records_exception_text(mode, failing_call, failed_solve):
    """A solve that raises is held and recorded as ``solver-error`` with the
    exception text, on the direct path (robust) and the AL path (nominal).
    The robust builder evaluates the dictionary once at construction, so its
    first solve makes the second call. That solve's 11 residual evaluations
    and the features of its returned point bring the warm start of the
    second solve to call 14; call 20 falls inside the second solve. Other
    calls succeed. The failed solve holds the previous decision and is
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
    dictionary, so the loop still returns a log of ``solver-error`` solves."""
    spec = flat_toy_loop_spec(mode)
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
    """The reduced forms hold the builder, and the loop owns them: with the
    cyclic garbage collector off, the builder of a finished loop is freed by
    reference counting alone, so no reference cycle keeps it."""
    spec = flat_toy_loop_spec(mode)
    builders = []

    class RecordedBuilder(OcpBuilder):
        def __init__(self, spec):
            super().__init__(spec)
            builders.append(weakref.ref(self))

    monkeypatch.setattr(npc, "OcpBuilder", RecordedBuilder)
    toy, _, _ = plant.make_scalar_flat()
    gc.collect()
    gc.disable()
    try:
        log = run_closed_loop(spec, toy, plant.NoiseModel(), np.array([0.2, 0.1]), total_steps=6)
        alive = [ref() is not None for ref in builders]
    finally:
        gc.enable()
    assert alive == [False]
    assert {rec.path for rec in log.solves} == {path}


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
    z = builder.pack(decision.alpha, decision.u_bar, decision.y_bar)
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
    core = npc._NominalCore(builder)
    assert core.dim < builder.dim
    opts = solver.SolverOptions()
    rng = np.random.default_rng(31)
    for _ in range(5):
        hu, hy = plant_history(toy, builder, rng)
        full = full_space.problem(builder, hu, hy)
        ref = solver.solve(full, opts)
        rep = solver.solve(core.build(hu, hy), opts)
        assert rep.status == "converged"
        assert abs(rep.objective - ref.objective) <= (
            1e-8 * ref.objective + opts.feasibility_tol
        )
        got, want = core.unpack(rep.x), builder.unpack(ref.x)
        np.testing.assert_allclose(
            got.planned_inputs(builder.d_max, builder.L),
            want.planned_inputs(builder.d_max, builder.L),
            rtol=0, atol=1e-6,
        )
        z = builder.pack(got.alpha, got.u_bar, got.y_bar)
        assert full_space.constraint_violation(full, z) <= 1e-7
        assert abs(core.violation(rep.x) - full_space_violation(builder, got)) <= 1e-14


def test_nominal_record_keeps_full_space_violation():
    """A nominal solve record's ``max_violation`` is the builder's equality
    violation ``||[H_psi; H_xi] alpha - g||_inf`` at the returned decision,
    not the violation of the reduced equalities."""
    toy, builder = nominal_toy_builders()["flat"]
    log = run_closed_loop(
        builder.spec, toy, plant.NoiseModel(w_star=0.005, seed=7), np.array([0.45, -0.3]),
        total_steps=12, keep_decisions=True,
    )
    for rec in log.solves:
        assert rec.path == "al-gn"
        want = full_space_violation(builder, rec.decision)
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
    d = presets.flat_toy_dictionary(extra=0.02)
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
    arr = log.as_arrays()
    assert np.all(arr["u"] >= -3.0) and np.all(arr["u"] <= 3.0)
    main = arr["y"][log.bootstrap_steps :]
    assert np.all(main >= -0.5 - 1e-6) and np.all(main <= 0.5 + 1e-6)
