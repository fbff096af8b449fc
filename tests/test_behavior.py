import numpy as np
import pytest

from ddnpc import behavior, plant, presets
from ddnpc.behavior import (
    DataDictionaryBlocks,
    DictionaryLacksInputError,
    ErrorBoundInputs,
    InfeasibleInitialConditionError,
    geometric_sum,
    match_output_data_driven,
    prediction_error_bound,
    representation_residual,
    simulate_data_driven,
)


# ---------------------------------------------------------------------------
# geometric sum and error bound
# ---------------------------------------------------------------------------


def test_geometric_sum_values():
    assert geometric_sum(0.7, 0) == 1.0
    assert geometric_sum(1.0, 4) == 5.0
    np.testing.assert_allclose(geometric_sum(0.5, 3), 1.875)


def test_geometric_sum_matches_naive():
    rng = np.random.default_rng(2)
    for _ in range(50):
        k = int(rng.integers(0, 12))
        ratio = float(rng.uniform(0, 2.5))
        naive = sum(ratio**j for j in range(k + 1))
        np.testing.assert_allclose(geometric_sum(ratio, k), naive, rtol=1e-12)


def bound_inputs(**kw):
    base = dict(
        eps_star=0.0, w_star=0.0, k_xi=0.0, k_w=0.0,
        g_norm_inf=0.0, alpha_l1=0.0, sigma_inf=0.0, degrees=(2, 2),
    )
    base.update(kw)
    return ErrorBoundInputs(**base)


def test_bound_zero_in_nominal_case():
    inp = bound_inputs(alpha_l1=3.0, k_xi=0.8)
    for k in range(12):
        assert prediction_error_bound(inp, 0, k) == 0.0


def test_bound_earliest_step_is_bare_budget():
    inp = bound_inputs(eps_star=0.2, alpha_l1=1.5, degrees=(1, 3))
    # channel with the largest delay sees the degree-zero polynomial at k = 0
    budget = 0.2 * (1 + 1.5)
    np.testing.assert_allclose(prediction_error_bound(inp, 1, 0), budget)


def test_bound_plug_in_arithmetic():
    inp = bound_inputs(eps_star=0.1, alpha_l1=2.0, k_xi=0.5, degrees=(2, 2))
    np.testing.assert_allclose(prediction_error_bound(inp, 0, 3), 1.875 * 0.3)


def test_bound_monotone_in_every_argument():
    rng = np.random.default_rng(4)
    names = ["eps_star", "w_star", "alpha_l1", "sigma_inf", "k_xi"]
    for _ in range(50):
        kw = dict(
            eps_star=rng.uniform(0, 1), w_star=rng.uniform(0, 0.1),
            k_xi=rng.uniform(0, 2), k_w=rng.uniform(0, 2),
            g_norm_inf=rng.uniform(0, 3), alpha_l1=rng.uniform(0, 5),
            sigma_inf=rng.uniform(0, 0.5),
        )
        k = int(rng.integers(0, 8))
        base_val = prediction_error_bound(bound_inputs(**kw), 0, k)
        assert prediction_error_bound(bound_inputs(**kw), 0, k + 1) >= base_val
        for name in names:
            kw2 = dict(kw)
            kw2[name] = kw[name] + 0.1
            assert prediction_error_bound(bound_inputs(**kw2), 0, k) >= base_val


def test_bound_converges_for_contractive_lipschitz():
    inp = bound_inputs(eps_star=0.2, alpha_l1=1.0, k_xi=0.6)
    budget = 0.2 * 2.0
    limit = budget / (1 - 0.6)
    assert prediction_error_bound(inp, 0, 1000) <= limit + 1e-9


# ---------------------------------------------------------------------------
# blocks and membership
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def flat_blocks():
    toy, st, phi, traj, d = presets.flat_toy_setup()
    blocks = DataDictionaryBlocks.from_trajectory(d, traj, horizon=10)
    return toy, st, phi, traj, d, blocks


def test_blocks_columns_and_pe(flat_blocks):
    toy, st, phi, traj, d, blocks = flat_blocks
    assert blocks.H_psi.shape[1] == blocks.H_xi.shape[1] == traj.N - 10 + 1
    assert blocks.pe_ok


def test_membership_of_recorded_window(flat_blocks):
    toy, st, phi, traj, d, blocks = flat_blocks
    res, _ = representation_residual(blocks, traj.u[5:15], [traj.outputs[0][5:17]])
    assert res < 1e-8


def test_membership_rejects_corrupted_windows(flat_blocks):
    toy, st, phi, traj, d, blocks = flat_blocks
    rng = np.random.default_rng(1)
    for _ in range(100):
        u = traj.u[5:15] + rng.uniform(-0.5, 0.5, (10, 1))
        y = traj.outputs[0][5:17] + rng.uniform(0.2, 0.8, 12) * rng.choice([-1, 1], 12)
        res, _ = representation_residual(blocks, u, [y])
        assert res > 1e-3


def test_membership_matches_linear_combination_for_chain_toy():
    toy, st, phi, traj, d = presets.chain_toy_setup()
    blocks = DataDictionaryBlocks.from_trajectory(d, traj, horizon=8)
    # for the identity dictionary the feature block is the raw input block,
    # so membership coincides with the classical linear characterization
    from ddnpc.trajlib import Sequence, build_hankel

    Hu = build_hankel(Sequence(traj.u), 8).entries
    Hys = [build_hankel(Sequence(y), 8 + dd).entries for y, dd in zip(traj.outputs, st.degrees)]
    rng = np.random.default_rng(3)
    alpha = rng.standard_normal(Hu.shape[1]) * 0.2
    u_c = (Hu @ alpha).reshape(8, 2)
    y_c = [H @ alpha for H in Hys]
    res, _ = representation_residual(blocks, u_c, y_c)
    assert res < 1e-8


# ---------------------------------------------------------------------------
# data-driven simulation
# ---------------------------------------------------------------------------


def test_simulation_matches_plant(flat_blocks):
    toy, st, phi, traj, d, blocks = flat_blocks
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(20):
        x0 = rng.uniform(-0.3, 0.3, 2)
        u_new = rng.uniform(-0.8, 0.8, (10, 1))
        xs, ys = plant.simulate(toy, x0, np.vstack([u_new, np.zeros((1, 1))]))
        sim = simulate_data_driven(blocks, u_new, np.array([ys[0, 0], ys[1, 0]]))
        worst = max(worst, float(np.max(np.abs(sim.outputs[0] - ys[:12, 0]))))
        assert sim.bounds[0][0] == 0.0 and sim.bounds[0][1] == 0.0
    assert worst < 1e-6


def test_simulation_reproduces_recorded_continuation(flat_blocks):
    toy, st, phi, traj, d, blocks = flat_blocks
    k0 = 7
    u_new = traj.u[k0 : k0 + 10]
    xi0 = traj.xi.data[k0]
    sim = simulate_data_driven(blocks, u_new, xi0)
    np.testing.assert_allclose(sim.outputs[0], traj.outputs[0][k0 : k0 + 12], atol=1e-7)


def test_simulation_zero_input_from_origin(flat_blocks):
    toy, st, phi, traj, d, blocks = flat_blocks
    sim = simulate_data_driven(blocks, np.zeros((10, 1)), np.zeros(2))
    assert np.max(np.abs(sim.outputs[0])) < 1e-7


def test_simulation_initial_errors_are_zero_and_certified(flat_blocks):
    toy, st, phi, traj, d, blocks = flat_blocks
    rng = np.random.default_rng(9)
    x0 = rng.uniform(-0.2, 0.2, 2)
    u_new = rng.uniform(-0.5, 0.5, (10, 1))
    xs, ys = plant.simulate(toy, x0, np.vstack([u_new, np.zeros((1, 1))]))
    xi0 = np.array([ys[0, 0], ys[1, 0]])
    sim = simulate_data_driven(blocks, u_new, xi0)
    np.testing.assert_allclose(sim.outputs[0][:2], xi0, atol=1e-9)


def test_simulation_infeasible_initial_state():
    # one output channel with a rank-deficient state block: a constant-zero
    # trajectory cannot reproduce a nonzero initial window
    toy, st, phi, traj, d = presets.flat_toy_setup()
    quiet = plant.collect_offline_data(
        toy, lambda k, x: np.zeros(1), 40, st, plant.NoiseModel()
    )
    blocks = DataDictionaryBlocks.from_trajectory(d, quiet, horizon=10)
    with pytest.raises(InfeasibleInitialConditionError):
        simulate_data_driven(blocks, np.zeros((10, 1)), np.array([0.5, 0.5]))


def test_simulation_bound_is_sound_over_random_instances():
    """Noisy data and an inexact dictionary: the certified envelope must
    dominate the realized error in every randomized instance."""
    toy, st, phi = plant.make_scalar_flat()
    rng = np.random.default_rng(12)
    violations = 0
    checked = 0
    for trial in range(25):
        policy = plant.StateFeedbackDitherPolicy(
            K=np.array([[0.25, 0.55]]), dither=0.6, seed=100 + trial
        )
        w_star = float(rng.choice([0.0, 0.002, 0.005]))
        traj = plant.collect_offline_data(
            toy, policy, 60, st, plant.NoiseModel(w_star=w_star, seed=trial)
        )
        c_err = float(rng.choice([0.02, 0.05, 0.1]))
        d = presets.flat_toy_dictionary(extra=c_err)
        blocks = DataDictionaryBlocks.from_trajectory(d, traj, horizon=10, use_noisy=True)
        # conservative certificate constants for this family on the data range
        box_amp = float(np.max(np.abs(traj.xi.data))) + 0.2
        eps_star = 0.3 * c_err + 2.0 * w_star  # |sin residual| <= c plus noise slack
        k_xi = 0.3 + 2 * 0.15 * box_amp
        g_norm = 1.5
        for _ in range(8):
            x0 = rng.uniform(-0.25, 0.25, 2)
            u_new = rng.uniform(-0.6, 0.6, (10, 1))
            xs, ys = plant.simulate(toy, x0, np.vstack([u_new, np.zeros((1, 1))]))
            xi0 = np.array([ys[0, 0], ys[1, 0]])
            sim = simulate_data_driven(
                blocks, u_new, xi0, eps_star=eps_star, k_xi=k_xi, g_row_norm=g_norm
            )
            err = np.abs(sim.outputs[0] - ys[:12, 0])
            checked += 1
            if np.any(err > sim.bounds[0] + 1e-9):
                violations += 1
    assert checked >= 200
    assert violations == 0


def test_simulation_error_vanishes_with_dictionary_quality():
    toy, st, phi, traj, _ = presets.flat_toy_setup()
    rng = np.random.default_rng(5)
    x0 = rng.uniform(-0.2, 0.2, 2)
    u_new = rng.uniform(-0.6, 0.6, (10, 1))
    xs, ys = plant.simulate(toy, x0, np.vstack([u_new, np.zeros((1, 1))]))
    xi0 = np.array([ys[0, 0], ys[1, 0]])
    errors = []
    for c_err in (0.5, 0.05, 0.005, 0.0):
        d = presets.flat_toy_dictionary(extra=c_err if c_err else None)
        blocks = DataDictionaryBlocks.from_trajectory(d, traj, horizon=10)
        sim = simulate_data_driven(blocks, u_new, xi0, eps_star=0.3 * c_err)
        errors.append(float(np.max(np.abs(sim.outputs[0] - ys[:12, 0]))))
    assert errors[0] >= errors[1] >= errors[2] >= errors[3]
    assert errors[-1] < 1e-6


def test_simulation_residual_clamped_flag(flat_blocks):
    toy, st, phi, traj, d, blocks = flat_blocks
    sim = simulate_data_driven(blocks, np.zeros((10, 1)), np.zeros(2), eps_star=0.0)
    assert sim.residual_sq >= 0.0


# ---------------------------------------------------------------------------
# output matching
# ---------------------------------------------------------------------------


def test_matching_recovers_recorded_input(flat_blocks):
    toy, st, phi, traj, d, blocks = flat_blocks
    k0 = 9
    ref = [traj.outputs[0][k0 : k0 + 12]]
    res = match_output_data_driven(blocks, ref)
    np.testing.assert_allclose(res.u, traj.u[k0 : k0 + 10], atol=1e-6)


def test_matching_tracks_fresh_reference(flat_blocks):
    toy, st, phi, traj, d, blocks = flat_blocks
    rng = np.random.default_rng(14)
    x0 = rng.uniform(-0.2, 0.2, 2)
    u_ref = rng.uniform(-0.5, 0.5, (11, 1))
    xs, ys = plant.simulate(toy, x0, u_ref)
    ref = [ys[:12, 0]]
    res = match_output_data_driven(blocks, ref)
    xs2, ys2 = plant.simulate(toy, x0, np.vstack([res.u, np.zeros((1, 1))]))
    assert np.max(np.abs(ys2[:12, 0] - ref[0])) < 1e-6


def test_matching_requires_input_prefix(flat_blocks):
    toy, st, phi, traj, d, blocks = flat_blocks
    from ddnpc.basis import CustomDictionary

    no_u = CustomDictionary(
        1, 2,
        funcs=[lambda u, xi: u[0] ** 3, lambda u, xi: xi[1] ** 2, lambda u, xi: np.sin(xi[0])],
        u_prefix=False,
    )
    bad = DataDictionaryBlocks.from_trajectory(no_u, traj, horizon=10)
    with pytest.raises(DictionaryLacksInputError):
        match_output_data_driven(bad, [traj.outputs[0][0:12]])


def test_matching_infeasible_reference():
    toy, st, phi, traj, d = presets.flat_toy_setup()
    quiet = plant.collect_offline_data(
        toy, lambda k, x: np.zeros(1), 40, st, plant.NoiseModel()
    )
    blocks = DataDictionaryBlocks.from_trajectory(d, quiet, horizon=10)
    with pytest.raises(InfeasibleInitialConditionError):
        match_output_data_driven(blocks, [np.full(12, 0.4)])


# ---------------------------------------------------------------------------
# simulation and matching on the pendulum blocks
# ---------------------------------------------------------------------------


PENDULUM_EPS = 6.655
PENDULUM_WINDOWS = range(0, 600, 60)


@pytest.fixture(scope="module")
def pendulum_queries():
    """The benchmark's identification blocks (noisy data, perturbed
    dictionary, L = 10) and query windows of a fresh plant trajectory."""
    exp = presets.pendulum_experiment()
    d = exp.dictionary(perturbation=0.1, seed=3)
    blocks = DataDictionaryBlocks.from_trajectory(
        d, exp.collect(seed=0, w_star=0.01), 10, use_noisy=True
    )
    fresh = plant.collect_offline_data(
        exp.plant_model, exp.policy(1), 612, exp.structure, plant.NoiseModel(), box=exp.box
    )

    def window(k0):
        ys = [y[k0 : k0 + 12] for y in fresh.outputs]
        return fresh.u[k0 : k0 + 10], fresh.xi.data[k0], ys

    return blocks, window


def projected_gradient(blocks, alpha, u, xi_traj, H_arg, arg_cols, soft):
    """Sup norm of the gradient of the combination-vector objective
    ``||H_psi a - psi(u, xi)||^2 + lam ||a||^2`` (plus ``||H_xi a - xi||^2``
    when ``soft``), projected onto the null space of the initial-state rows.
    ``H_arg`` maps ``a`` to the dictionary arguments that depend on it and
    ``arg_cols`` picks their jacobian columns. Returns (gradient, objective)."""
    from scipy.linalg import null_space

    L, r = blocks.horizon, blocks.r
    lam = 1e3 * PENDULUM_EPS
    psi = blocks.dictionary.value_batch(u, xi_traj[:L]).reshape(-1)
    jac = blocks.dictionary.jacobian_batch(u, xi_traj[:L])[:, :, arg_cols]
    k = jac.shape[2]
    D = np.vstack([jac[j] @ H_arg[j * k : (j + 1) * k] for j in range(L)])
    mism = blocks.H_psi @ alpha - psi
    grad = 2 * (blocks.H_psi - D).T @ mism + 2 * lam * alpha
    f = mism @ mism + lam * alpha @ alpha
    if soft:
        gap = blocks.H_xi @ alpha - xi_traj.reshape(-1)
        grad += 2 * blocks.H_xi.T @ gap
        f += gap @ gap
    Z = null_space(blocks.xi_block_row(0))
    return float(np.max(np.abs(Z.T @ grad))), float(f)


def test_pendulum_results_are_stationary_in_alpha(pendulum_queries):
    """The solve runs over the free window samples; the combination vector
    it returns must still be a stationary point of the objective over the
    combination vector, with the initial window state reproduced."""
    blocks, window = pendulum_queries
    st = blocks.structure
    m, n = st.m, st.n
    for k0 in PENDULUM_WINDOWS:
        u, xi0, ys = window(k0)
        sim = simulate_data_driven(blocks, u, xi0, eps_star=PENDULUM_EPS)
        xi_sim = (blocks.H_xi @ sim.alpha).reshape(-1, n)
        g, f = projected_gradient(
            blocks, sim.alpha, u, xi_sim, blocks.H_xi, slice(m, m + n), soft=False
        )
        assert g <= 1e-5 * max(1.0, f), (k0, "simulation", g, f)
        np.testing.assert_allclose(blocks.xi_block_row(0) @ sim.alpha, xi0, rtol=0, atol=1e-9)

        match = match_output_data_driven(blocks, ys, eps_star=PENDULUM_EPS)
        xi_ref = plant.window_states(ys, st).data
        g, f = projected_gradient(
            blocks, match.alpha, match.u, xi_ref, blocks.H_u, slice(0, m), soft=True
        )
        assert g <= 1e-5 * max(1.0, f), (k0, "matching", g, f)
        np.testing.assert_allclose(blocks.xi_block_row(0) @ match.alpha, xi0, rtol=0, atol=1e-9)


@pytest.mark.parametrize(
    "k0,sim_objective,match_objective",
    # Returned by the solve over the full combination vector (commit b10b6bc).
    [
        (0, 1007.7011941074878, 127.82711801254311),
        (240, 171.43192759304418, 103.41808506254317),
        (540, 982.6167598406104, 545.7644425389781),
    ],
)
def test_pendulum_objectives_match_full_vector_solve(
    pendulum_queries, k0, sim_objective, match_objective
):
    blocks, window = pendulum_queries
    u, xi0, ys = window(k0)
    sim = simulate_data_driven(blocks, u, xi0, eps_star=PENDULUM_EPS)
    match = match_output_data_driven(blocks, ys, eps_star=PENDULUM_EPS)
    np.testing.assert_allclose(sim.objective, sim_objective, rtol=1e-8)
    np.testing.assert_allclose(match.objective, match_objective, rtol=1e-8)


@pytest.mark.parametrize("k0", [0, 240])
def test_pendulum_simulation_makes_one_kernel_pass_per_point(pendulum_queries, monkeypatch, k0):
    """Each point the window fit evaluates costs one pass of the pendulum
    kernel, values and partials together: four passes of the fixed-point
    start, one per residual evaluation (the start point's included, the
    jacobian reusing it) and at most one more at the returned point."""
    blocks, window = pendulum_queries
    u, xi0, _ = window(k0)
    calls = []
    kernel = plant._window_accelerations

    def counting(*args, **kwargs):
        calls.append(kwargs.get("partials", False))
        return kernel(*args, **kwargs)

    monkeypatch.setattr(plant, "_window_accelerations", counting)
    sim = behavior.simulate_data_driven(blocks, u, xi0, eps_star=PENDULUM_EPS)
    assert len(calls) <= sim.iterations + 5
