import numpy as np
import pytest

import reference_pendulum
from reference_certificate import dense_grid
from reference_checks import NoResponseError, chain_matrices, probe_relative_degrees
from ddnpc import basis, plant, presets
from ddnpc.plant import (
    BrunovskyStructure,
    DoublePendulumParams,
    InsufficientSamplesError,
    NoiseModel,
    PlantModel,
    SingularInertiaError,
    collect_offline_data,
    equilibrium_torque,
    gravity_vector,
    make_chain_lti,
    make_double_pendulum,
    make_scalar_flat,
    pendulum_synthetic_input,
    simulate,
    step_euler_pendulum,
    window_states,
)
from reference_pendulum import (
    coriolis_times_velocity,
    inertia_matrix,
    pendulum_state_to_window,
    random_points,
)


# ---------------------------------------------------------------------------
# double pendulum dynamics
# ---------------------------------------------------------------------------


def test_equilibrium_torque_holds_setpoint():
    p = DoublePendulumParams()
    q_s = np.array([np.pi / 6, np.pi / 3])
    tau = equilibrium_torque(p, q_s)
    np.testing.assert_allclose(tau, [6.3718, 0.0], atol=5e-4)
    x = np.array([q_s[0], 0.0, q_s[1], 0.0])
    x_next = step_euler_pendulum(p, x, tau)
    np.testing.assert_allclose(x_next, x, atol=1e-4)


def test_zero_state_gravity_kick():
    p = DoublePendulumParams()
    x_next = step_euler_pendulum(p, np.zeros(4), np.zeros(2))
    M0 = inertia_matrix(p, 0.0)
    g0 = gravity_vector(p, 0.0, 0.0)
    accel = -np.linalg.solve(M0, g0)
    expected = np.array([0.0, p.Ts * accel[0], 0.0, p.Ts * accel[1]])
    np.testing.assert_allclose(x_next, expected, atol=1e-12)
    # gravity vector at zero from the rigid-body formulas directly
    g_manual = np.array(
        [
            p.m1 * p.lc1 * p.g + p.m2 * p.g * (p.lc2 + p.l1),
            p.m2 * p.lc2 * p.g,
        ]
    )
    np.testing.assert_allclose(g0, g_manual)


def test_zero_sampling_time_is_identity():
    p = DoublePendulumParams(Ts=0.0)
    x = np.array([0.3, -1.0, 0.8, 2.0])
    np.testing.assert_array_equal(step_euler_pendulum(p, x, [5.0, -3.0]), x)


def test_singular_inertia_raises():
    p = DoublePendulumParams()

    class Broken(DoublePendulumParams):
        pass

    # shrink the second link until the inertia matrix is numerically singular
    with pytest.raises(SingularInertiaError):
        bad = DoublePendulumParams(m2=1e-14, l2=1e-14)
        step_euler_pendulum(bad, np.zeros(4), np.zeros(2))


def stacked_matrix_accelerations(p, tau, q1, qd1, q2, qd2):
    """``M^-1 (tau - C qd - G)`` from the stacked inertia matrix and the
    stacked velocity and gravity terms, the form the closed-form kernel must
    reproduce bit for bit. ``tau`` has shape ``(..., 2)``."""
    M = inertia_matrix(p, q2)
    rhs = tau - coriolis_times_velocity(p, q2, qd1, qd2) - gravity_vector(p, q1, q2)
    det = M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]
    a1 = (M[..., 1, 1] * rhs[..., 0] - M[..., 0, 1] * rhs[..., 1]) / det
    a2 = (-M[..., 1, 0] * rhs[..., 0] + M[..., 0, 0] * rhs[..., 1]) / det
    return a1, a2


def window_accelerations(p, U, XI):
    x1, x2, x3, x4 = XI[:, 0], XI[:, 1], XI[:, 2], XI[:, 3]
    return stacked_matrix_accelerations(p, U, x1, (x2 - x1) / p.Ts, x3, (x4 - x3) / p.Ts)


def pendulum_points():
    """Random points well outside the operating box, then a slice of the
    certificate grid."""
    exp = presets.pendulum_experiment()
    U, XI = random_points(exp.box, 4000, seed=7)
    G_U, G_XI = dense_grid(exp.box)
    return [(3.0 * U, 2.5 * XI), (G_U[::11], G_XI[::11])]


def test_step_matches_stacked_matrix_form_bitwise():
    p = DoublePendulumParams(m1=1.3, l2=0.45)
    rng = np.random.default_rng(21)
    states = rng.uniform(-4.0, 4.0, (2000, 4))
    # The step works on scalars, where ** calls pow(): add first-joint
    # velocities whose pow() square differs from the product in the last bit.
    speeds = [v for v in rng.uniform(-4.0, 4.0, 300_000).tolist() if v**2 != v * v]
    tricky = rng.uniform(-4.0, 4.0, (len(speeds), 4))
    tricky[:, 1] = speeds
    states = np.vstack([states, tricky])
    torques = rng.uniform(-25.0, 25.0, (len(states), 2))
    for x, tau in zip(states, torques):
        q1, qd1, q2, qd2 = x
        a1, a2 = stacked_matrix_accelerations(p, tau, q1, qd1, q2, qd2)
        want = x + p.Ts * np.array([qd1, a1, qd2, a2])
        np.testing.assert_array_equal(step_euler_pendulum(p, x, tau), want)


def test_synthetic_input_matches_stacked_matrix_form_bitwise():
    p = DoublePendulumParams()
    for U, XI in pendulum_points():
        a1, a2 = window_accelerations(p, U, XI)
        want = np.stack(
            [2.0 * XI[:, 1] - XI[:, 0] + p.Ts**2 * a1, 2.0 * XI[:, 3] - XI[:, 2] + p.Ts**2 * a2],
            axis=-1,
        )
        np.testing.assert_array_equal(pendulum_synthetic_input(p, U, XI), want)


def test_pendulum_dictionary_matches_stacked_matrix_form_bitwise():
    d = basis.make_pendulum_dictionary(DoublePendulumParams(), perturbation=0.1, seed=3)
    for U, XI in pendulum_points():
        a1, a2 = window_accelerations(d.estimates, U, XI)
        np.testing.assert_array_equal(d.value_batch(U, XI), np.column_stack([U, a1, a2]))


def bits(a):
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("rows", [None, 1, 2, 12, 13, 120])
def test_kernel_matches_reference_kernel_bitwise(rows):
    """The kernel, which writes its partials into the caller's array, gives
    the values and partials of the kernel it replaced
    (``reference_pendulum._window_accelerations``) bit for bit: on scalars
    (0-d arrays, and Python floats for the plant step's values) and on
    columns whose lengths cover numpy's SIMD blocks and their scalar tails.
    Zero velocities and points far outside the operating box are included."""
    p = basis.make_pendulum_dictionary(DoublePendulumParams(), perturbation=0.1, seed=3).estimates
    rng = np.random.default_rng(0 if rows is None else rows)
    shape = () if rows is None else (rows,)
    for draw in range(40):
        U = rng.uniform(-60.0, 60.0, shape + (2,))
        XI = rng.uniform(-6.0, 6.0, shape + (4,))
        if draw % 4 == 0:
            XI[..., 1], XI[..., 3] = XI[..., 0], XI[..., 2]
        *want, D = reference_pendulum._window_accelerations(p, U, XI, partials=True)
        jac = np.empty(shape + (2, 6))
        got = plant._window_accelerations(p, U, XI, jac=jac)
        values = plant._window_accelerations(p, U, XI)
        assert [bits(a) for a in got] == [bits(a) for a in want] == [bits(a) for a in values]
        assert bits(jac) == bits(D)
        if rows is None:
            args = (*U.tolist(), XI[0], (XI[1] - XI[0]) / p.Ts, XI[2], (XI[3] - XI[2]) / p.Ts)
            want = reference_pendulum._accelerations(p, *args)
            assert [bits(a) for a in plant._accelerations(p, *args)] == [bits(a) for a in want]


def test_kernel_matches_reference_kernel_on_grid_factors():
    """φ's values on the broadcast ``(k, 1) x (1, s)`` factor shapes that
    ``basis._phi_chunk`` passes equal the reference kernel's bit for bit:
    every chunk of the pendulum's certificate grid, and small factor shapes
    whose broadcast rows end in scalar tails."""
    exp = presets.pendulum_experiment()
    p = exp.params
    U_rows, XI_rows = exp.box.grid_factors()
    pairs = [(U_rows[a], XI_rows[b]) for a, b in basis._grid_chunks(len(U_rows), len(XI_rows))]
    rng = np.random.default_rng(5)
    pairs += [(rng.uniform(-20.0, 20.0, (k, 2)), rng.uniform(-2.0, 2.0, (s, 4)))
              for k, s in ((1, 1), (2, 3), (3, 13), (7, 5))]
    for U, XI in pairs:
        u, xi = U[:, None, :], XI[None, :, :]
        want = reference_pendulum._window_accelerations(p, u, xi)
        assert [bits(a) for a in plant._window_accelerations(p, u, xi)] == [bits(a) for a in want]


# ---------------------------------------------------------------------------
# relative-degree probe
# ---------------------------------------------------------------------------


def test_probe_pendulum_degrees():
    degrees = probe_relative_degrees(make_double_pendulum())
    assert degrees == (2, 2)
    assert sum(degrees) == 4


def test_probe_chain_degree_two():
    def step(x, u):
        return np.array([x[1], u[0]])

    chain = PlantModel("chain2", n=2, m=1, step=step, output=lambda x: np.array([x[0]]))
    assert probe_relative_degrees(chain) == (2,)


@pytest.mark.parametrize("degrees", [(0,), (2, 0)])
def test_structure_rejects_degree_zero(degrees):
    with pytest.raises(ValueError, match="relative degrees must be >= 1"):
        BrunovskyStructure(degrees=degrees)


def test_probe_no_response_error():
    dead = PlantModel(
        "dead",
        n=1,
        m=1,
        step=lambda x, u: np.array([0.5 * x[0]]),
        output=lambda x: np.array([x[0]]),
    )
    with pytest.raises(NoResponseError):
        probe_relative_degrees(dead, horizon=6)


# ---------------------------------------------------------------------------
# chain structure and window states
# ---------------------------------------------------------------------------


def test_structure_matrices():
    st = BrunovskyStructure(degrees=(2, 1))
    A, B, C = chain_matrices(st.degrees)
    np.testing.assert_array_equal(A, [[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    np.testing.assert_array_equal(B, [[0, 0], [1, 0], [0, 1]])
    np.testing.assert_array_equal(C, [[1, 0, 0], [0, 0, 1]])
    assert st.n == 3 and st.d_max == 2 and st.m == 2
    for degrees in [(1,), (2, 1), (2, 2), (3, 1, 2)]:
        A, B, _ = chain_matrices(degrees)
        ctrb = np.hstack([np.linalg.matrix_power(A, k) @ B for k in range(sum(degrees))])
        assert np.linalg.matrix_rank(ctrb) == sum(degrees)


def test_window_states_scalar():
    st = BrunovskyStructure(degrees=(2,))
    xi = window_states([np.array([1.0, 2.0, 3.0])], st)
    np.testing.assert_array_equal(xi.data, [[1, 2], [2, 3]])


def test_window_states_zero_and_short():
    st = BrunovskyStructure(degrees=(2, 1))
    xi = window_states([np.zeros(5), np.zeros(4)], st)
    assert not np.any(xi.data)
    with pytest.raises(InsufficientSamplesError):
        window_states([np.zeros(1), np.zeros(4)], st)


def test_pendulum_window_matches_state_transform():
    p = DoublePendulumParams()
    pend = make_double_pendulum(p)
    st = BrunovskyStructure(degrees=(2, 2))
    rng = np.random.default_rng(3)
    x0 = rng.uniform(-0.3, 0.3, 4)
    u = equilibrium_torque(p, x0[[0, 2]]) + rng.uniform(-1, 1, (8, 2))
    xs, ys = simulate(pend, x0, u)
    xi = window_states([ys[:8, 0], ys[:8, 1]], st)
    expected = np.array([pendulum_state_to_window(p, xs[k]) for k in range(7)])
    np.testing.assert_allclose(xi.data, expected, atol=1e-12)


def test_pendulum_chain_and_output_identities():
    """The window states follow the chain dynamics driven by the transformed
    input, and each output equals that input delayed by its degree."""
    p = DoublePendulumParams()
    pend = make_double_pendulum(p)
    st = BrunovskyStructure(degrees=(2, 2))
    policy = plant.PendulumPdPolicy(
        params=p,
        ref_low=np.array([-0.8, -0.3]),
        ref_high=np.array([0.8, 0.9]),
        u_low=np.array([-20.0, -20.0]),
        u_high=np.array([20.0, 20.0]),
        seed=1,
    )
    traj = collect_offline_data(pend, policy, 60, st, NoiseModel())
    v = pendulum_synthetic_input(p, traj.u, traj.xi.data[:60])
    A, B, _ = chain_matrices(st.degrees)
    stepped = traj.xi.data[:60] @ A.T + v @ B.T
    assert np.max(np.abs(stepped - traj.xi.data[1:61])) < 1e-10
    for i, d in enumerate(st.degrees):
        err = np.max(np.abs(traj.outputs[i][d : 60 + d] - v[:60, i]))
        assert err < 1e-10


# ---------------------------------------------------------------------------
# noise and data collection
# ---------------------------------------------------------------------------


def test_noise_bounded_and_reproducible():
    nm = NoiseModel(w_star=0.05, seed=9)
    w1 = nm.samples(500, 3)
    w2 = nm.samples(500, 3)
    np.testing.assert_array_equal(w1, w2)
    assert np.max(np.abs(w1)) <= 0.05
    assert np.max(np.abs(w1)) > 0.04  # actually exercises the range


def test_collect_zero_noise_outputs_match():
    toy, st, _ = make_scalar_flat()
    policy = plant.StateFeedbackDitherPolicy(K=np.array([[0.25, 0.55]]), dither=0.5, seed=1)
    traj = collect_offline_data(toy, policy, 40, st, NoiseModel(w_star=0.0))
    for y, yn in zip(traj.outputs, traj.outputs_noisy):
        np.testing.assert_array_equal(y, yn)


def test_collect_shapes_pendulum():
    p = DoublePendulumParams()
    pend = make_double_pendulum(p)
    st = BrunovskyStructure(degrees=(2, 2))
    policy = plant.PendulumPdPolicy(
        params=p,
        ref_low=np.array([-0.6, 0.05]),
        ref_high=np.array([0.95, 1.15]),
        u_low=np.array([-20.0, -20.0]),
        u_high=np.array([20.0, 20.0]),
        seed=0,
    )
    traj = collect_offline_data(pend, policy, 200, st, NoiseModel(w_star=0.01, seed=5))
    assert traj.u.shape == (200, 2)
    assert [y.size for y in traj.outputs] == [202, 202]
    assert traj.xi.data.shape == (201, 4)


def flat_toy_in_box(xi_bound, u_bound=10.0):
    toy, st, _ = make_scalar_flat()
    box = basis.OperatingBox(
        u_lower=[-u_bound], u_upper=[u_bound], xi_lower=[-xi_bound] * 2, xi_upper=[xi_bound] * 2
    )
    policy = plant.StateFeedbackDitherPolicy(K=np.array([[0.25, 0.55]]), dither=0.5, seed=1)
    return toy, policy, 30, st, NoiseModel(), box


def pendulum_in_box():
    exp = presets.pendulum_experiment()
    noise = NoiseModel(w_star=0.01, seed=10_003)
    return exp.plant_model, exp.policy(3), 200, exp.structure, noise, exp.box


def test_collect_box_violation_strict():
    """The first sample outside the box, against a per-sample check: at the
    first step off the origin (tight box), at step 3 with later re-entries,
    and none for the reference pendulum collection. Strict mode names the
    step, or returns the same data."""
    for case, expected in (
        (lambda: flat_toy_in_box(0.01), 1),
        (lambda: flat_toy_in_box(0.5, u_bound=1.0), 3),
        (pendulum_in_box, None),
    ):
        model, policy, N, st, noise, box = case()
        traj = collect_offline_data(model, policy, N, st, noise, box=box, strict=False)
        first = reference_pendulum.first_violation(box, traj)
        assert first == expected
        assert traj.first_violation == first
        assert traj.stayed_in_box == (first is None)
        model, policy, N, st, noise, box = case()
        if first is not None:
            with pytest.raises(plant.BoxViolationError, match=rf"^sample {first} left"):
                collect_offline_data(model, policy, N, st, noise, box=box, strict=True)
        else:
            strict = collect_offline_data(model, policy, N, st, noise, box=box, strict=True)
            np.testing.assert_array_equal(strict.u, traj.u)


def assert_same_data(got, want):
    """Inputs, outputs and window states of two records equal byte for byte."""
    for a, b in [
        (got.u, want.u),
        *zip(got.outputs, want.outputs),
        *zip(got.outputs_noisy, want.outputs_noisy),
        (got.xi.data, want.xi.data),
        (got.xi_noisy.data, want.xi_noisy.data),
    ]:
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def test_collect_matches_stacked_rollout_bitwise():
    """The closed-form data policy and the batch box check reproduce the
    stacked-matrix policy and the per-sample check byte for byte."""
    exp = presets.pendulum_experiment()
    for w_star in (0.0, 0.01):
        for seed in range(10):
            got = exp.collect(seed, w_star=w_star)
            want = reference_pendulum.stacked_collect(exp, seed, w_star=w_star)
            assert_same_data(got, want)
            assert got.stayed_in_box is want.stayed_in_box
            assert got.first_violation == want.first_violation


@pytest.mark.parametrize(
    "setup, make, gain, dither, seed, N",
    [
        (presets.flat_toy_setup, make_scalar_flat, presets.FLAT_TOY_GAIN, 0.6, 2, 60),
        (presets.chain_toy_setup, make_chain_lti, presets.CHAIN_TOY_GAIN, 0.7, 4, 80),
    ],
    ids=["flat", "chain"],
)
def test_toy_setups_match_an_unclipped_collection_bitwise(setup, make, gain, dither, seed, N):
    """The toy setups collect through the assembly, whose policy clips to the
    toy box; their data equals an unclipped collection byte for byte, so the
    clip never binds and the data stays inside the box."""
    traj = setup()[3]
    model, st, _ = make()
    policy = plant.StateFeedbackDitherPolicy(K=np.array(gain), dither=dither, seed=seed)
    assert_same_data(traj, collect_offline_data(model, policy, N, st, NoiseModel()))
    assert traj.stayed_in_box and traj.first_violation is None


def test_pd_policy_matches_stacked_form_bitwise():
    """Single policy calls, saturated or not, including first-joint speeds
    whose pow() square differs from the product in the last bit."""
    exp = presets.pendulum_experiment()
    rng = np.random.default_rng(22)
    states = rng.uniform(-4.0, 4.0, (2000, 4))
    speeds = [v for v in rng.uniform(-4.0, 4.0, 300_000).tolist() if v**2 != v * v]
    tricky = rng.uniform(-1.5, 1.5, (len(speeds), 4))
    tricky[:, 1] = speeds
    states = np.vstack([states, tricky])
    policy = exp.policy(5)
    stacked = reference_pendulum.stacked_policy(policy)
    clipped = 0
    for k, x in enumerate(states):
        u = policy(k, x)
        assert u.tobytes() == stacked(k, x).tobytes()
        clipped += np.any(np.abs(u) == 20.0)
    assert 0 < clipped < len(states)


@pytest.mark.parametrize("make", [make_chain_lti, make_scalar_flat])
def test_toys_rest_at_the_origin(make):
    """f(0, 0) = 0 and h(0) = 0: a toy's data collection and closed loops
    start from rest at the origin."""
    toy = make()[0]
    np.testing.assert_array_equal(toy.step(np.zeros(toy.n), np.zeros(toy.m)), np.zeros(toy.n))
    np.testing.assert_array_equal(toy.measure(np.zeros(toy.n)), np.zeros(toy.m))


def test_chain_lti_registry_plant():
    toy, st, phi = make_chain_lti()
    assert probe_relative_degrees(toy) == st.degrees
    u = np.array([[0.5, -0.25]])
    np.testing.assert_array_equal(phi(u, np.zeros((1, 3))), u)
