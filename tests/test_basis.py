import json

import numpy as np
import pytest

from ddnpc import basis, plant, presets
from ddnpc.basis import (
    ApproximationCertificate,
    CustomDictionary,
    IdentityDictionary,
    InputDictionary,
    OperatingBox,
    PendulumModelDictionary,
    PolynomialDictionary,
    SingularGramError,
    TrigDictionary,
    build_certificate,
    coefficient_norm_bound,
    estimate_lipschitz,
    estimate_noise_gain,
    evaluate_along,
    fit_coefficient_matrix,
    make_pendulum_dictionary,
    right_inverse_norm_bound,
)


def unit_box(m, n, grid=21):
    return OperatingBox(
        u_lower=-np.ones(m), u_upper=np.ones(m),
        xi_lower=-np.ones(n), xi_upper=np.ones(n), grid_points=grid,
    )


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_identity_dictionary_returns_point():
    d = IdentityDictionary(2, 3)
    u = np.array([1.0, -2.0])
    xi = np.array([0.5, 0.0, 3.0])
    np.testing.assert_array_equal(d.value(u, xi), [1, -2, 0.5, 0, 3])


def test_constant_entry_gives_ones():
    d = CustomDictionary(1, 1, funcs=[lambda u, xi: 1.0], grads=[lambda u, xi: [0, 0]])
    vals = evaluate_along(d, np.zeros((5, 1)), np.linspace(-1, 1, 5).reshape(-1, 1))
    np.testing.assert_array_equal(vals, np.ones((5, 1)))


def test_pendulum_dictionary_at_zero():
    p = plant.DoublePendulumParams()
    est = plant.DoublePendulumParams(m1=1.1, m2=0.95, l1=0.52, l2=0.48)
    d = PendulumModelDictionary(est)
    val = d.value(np.zeros(2), np.zeros(4))
    np.testing.assert_array_equal(val[:2], [0.0, 0.0])
    M0 = plant.inertia_matrix(est, 0.0)
    g0 = plant.gravity_vector(est, 0.0, 0.0)
    np.testing.assert_allclose(val[2:], -np.linalg.solve(M0, g0), atol=1e-12)


def einsum_pendulum_jacobian(p, U, XI):
    """Partials of the model accelerations w.r.t. ``(u, xi)``, ``(P, 2, 6)``,
    by ``W = M^-1`` applied to the stacked right-hand-side partials."""
    P = U.shape[0]
    x1, x2, x3, x4 = XI.T
    Ts = p.Ts
    qd1, qd2 = (x2 - x1) / Ts, (x4 - x3) / Ts
    h = p.m2 * p.l1 * p.lc2
    s3, c3, s13 = np.sin(x3), np.cos(x3), np.sin(x1 + x3)
    W = np.linalg.inv(plant.inertia_matrix(p, x3))
    rhs = U - plant.coriolis_times_velocity(p, x3, qd1, qd2) - plant.gravity_vector(p, x1, x3)
    dc_dqd1 = np.stack([-2 * h * s3 * qd2, 2 * h * s3 * qd1], axis=-1)
    dc_dqd2 = np.stack([-2 * h * s3 * (qd1 + qd2), np.zeros(P)], axis=-1)
    dc_dx3 = np.stack([-h * c3 * qd2 * (2 * qd1 + qd2), h * c3 * qd1**2], axis=-1)
    dG_dx1 = np.stack(
        [
            -p.m1 * p.lc1 * p.g * np.sin(x1) - p.m2 * p.g * (p.lc2 * s13 + p.l1 * np.sin(x1)),
            -p.m2 * p.lc2 * p.g * s13,
        ],
        axis=-1,
    )
    dG_dx3 = np.stack([-p.m2 * p.g * p.lc2 * s13, -p.m2 * p.lc2 * p.g * s13], axis=-1)
    db = np.stack(
        [dc_dqd1 / Ts - dG_dx1, -dc_dqd1 / Ts, -dc_dx3 + dc_dqd2 / Ts - dG_dx3, -dc_dqd2 / Ts],
        axis=-1,
    )
    ds_dxi = np.einsum("pij,pjk->pik", W, db)
    dM = np.zeros((P, 2, 2))
    dM[:, 0, 0] = -2 * h * s3
    dM[:, 0, 1] = dM[:, 1, 0] = -h * s3
    ds_dxi[:, :, 2] -= np.einsum("pij,pjk,pk->pi", W, dM, np.einsum("pij,pj->pi", W, rhs))
    return np.concatenate([W, ds_dxi], axis=-1)


def test_pendulum_jacobian_matches_einsum_formula():
    exp = presets.pendulum_experiment()
    d = exp.dictionary(perturbation=0.1, seed=3)
    U, XI = exp.box.random_points(3000, seed=8)
    G_U, G_XI = exp.box.grid()
    for U, XI in ((3.0 * U, 2.5 * XI), (G_U[::13], G_XI[::13])):
        J = d.jacobian_batch(U, XI)
        want = einsum_pendulum_jacobian(d.estimates, U, XI)
        scale = np.max(np.abs(want), axis=(1, 2))
        assert np.max(np.max(np.abs(J[:, 2:] - want), axis=(1, 2)) / scale) < 1e-14
        np.testing.assert_array_equal(J[:, :2], np.broadcast_to(np.eye(2, 6), (U.shape[0], 2, 6)))


def test_synthetic_input_is_window_step_plus_exact_model_accelerations():
    """With the true parameters the dictionary's accelerations are those of
    the transformed input, bit for bit."""
    exp = presets.pendulum_experiment()
    d = exp.dictionary(perturbation=0.0, seed=3)
    U, XI = exp.box.grid()
    U, XI = U[::5], XI[::5]
    A = d.value_batch(U, XI)[:, 2:]
    want = 2.0 * XI[:, 1::2] - XI[:, 0::2] + exp.params.Ts**2 * A
    np.testing.assert_array_equal(exp.phi(U, XI), want)


def test_evaluate_along_length_mismatch():
    d = IdentityDictionary(1, 1)
    with pytest.raises(ValueError, match="length mismatch"):
        evaluate_along(d, np.zeros((3, 1)), np.zeros((4, 1)))


@pytest.mark.filterwarnings("ignore:divide by zero")
def test_evaluate_along_reports_nonfinite():
    d = CustomDictionary(1, 1, funcs=[lambda u, xi: 1.0 / xi[0]])
    with pytest.raises(basis.DictionaryEvaluationError, match="step 1"):
        evaluate_along(d, np.zeros((3, 1)), np.array([[1.0], [0.0], [2.0]]))


@pytest.mark.parametrize(
    "dictionary",
    [
        IdentityDictionary(2, 4),
        PolynomialDictionary(1, 2),
        TrigDictionary(2, 3),
        PendulumModelDictionary(plant.DoublePendulumParams(m1=1.05, l2=0.47)),
    ],
)
def test_dictionary_jacobians_match_finite_differences(dictionary):
    rng = np.random.default_rng(5)
    m, n = dictionary.m, dictionary.n
    U = rng.uniform(-2, 2, (6, m))
    XI = rng.uniform(-1.2, 1.2, (6, n))
    J = dictionary.jacobian_batch(U, XI)
    h = 1e-6
    for p_ in range(6):
        z = np.concatenate([U[p_], XI[p_]])
        for c in range(m + n):
            zp, zm = z.copy(), z.copy()
            zp[c] += h
            zm[c] -= h
            fd = (dictionary.value(zp[:m], zp[m:]) - dictionary.value(zm[:m], zm[m:])) / (2 * h)
            denom = max(1.0, np.max(np.abs(fd)))
            assert np.max(np.abs(fd - J[p_, :, c])) / denom < 1e-5


@pytest.mark.parametrize(
    "dictionary",
    [
        IdentityDictionary(2, 4),
        InputDictionary(2, 3),
        PolynomialDictionary(1, 2),
        TrigDictionary(2, 3),
        presets.flat_toy_dictionary(extra=0.05),
        CustomDictionary(1, 2, funcs=[lambda u, xi: u[0] * np.cos(xi[1]), lambda u, xi: xi[0] ** 3]),
        PendulumModelDictionary(plant.DoublePendulumParams(m1=1.05, l2=0.47)),
    ],
    ids=["identity", "input", "poly2", "trig", "custom", "custom_fd", "pendulum"],
)
def test_value_and_jacobian_batch_equals_both_batches(dictionary):
    """The solvers take values and partials from one call; they are the
    separate batches bit for bit."""
    rng = np.random.default_rng(8)
    U = rng.uniform(-2, 2, (7, dictionary.m))
    XI = rng.uniform(-1.2, 1.2, (7, dictionary.n))
    value, jac = dictionary.value_and_jacobian_batch(U, XI)
    np.testing.assert_array_equal(value, dictionary.value_batch(U, XI))
    np.testing.assert_array_equal(jac, dictionary.jacobian_batch(U, XI))


# ---------------------------------------------------------------------------
# coefficient fit
# ---------------------------------------------------------------------------


def test_fit_exact_span_recovers_coefficients():
    d = IdentityDictionary(1, 2)
    G_true = np.array([[2.0, -0.5, 0.25]])

    def phi(U, XI):
        return np.concatenate([U, XI], axis=1) @ G_true.T

    box = unit_box(1, 2, grid=6)
    G, eps = fit_coefficient_matrix(d, phi, box)
    np.testing.assert_allclose(G, G_true, atol=1e-10)
    assert eps < 1e-8


def test_fit_pendulum_exact_parameters():
    exp = presets.pendulum_experiment(grid_points=5)
    d = PendulumModelDictionary(exp.params)
    # subtract the window-linear part: the remainder lies exactly in the span
    def phi_nonlinear(U, XI):
        v = exp.phi(U, XI)
        lin = np.stack([2 * XI[:, 1] - XI[:, 0], 2 * XI[:, 3] - XI[:, 2]], axis=1)
        return v - lin

    G, eps = fit_coefficient_matrix(d, phi_nonlinear, exp.box)
    assert eps < 1e-8
    np.testing.assert_allclose(G, np.hstack([np.zeros((2, 2)), exp.params.Ts**2 * np.eye(2)]), atol=1e-9)


def test_fit_pendulum_perturbed_order_of_magnitude():
    exp = presets.pendulum_experiment(grid_points=5)
    d = make_pendulum_dictionary(exp.params, perturbation=0.1, seed=3)
    G, eps = fit_coefficient_matrix(d, exp.phi, exp.box)
    # the full map includes a window-linear part outside the span, so the
    # residual lands above the reported reference level but within its decade
    assert 0.12893 <= eps <= 12.893
    assert np.linalg.matrix_rank(G) == 2


def test_fit_singular_gram_raises():
    d = CustomDictionary(
        1, 1, funcs=[lambda u, xi: u[0], lambda u, xi: 2.0 * u[0]]
    )
    with pytest.raises(SingularGramError):
        fit_coefficient_matrix(d, lambda U, XI: U, unit_box(1, 1, grid=9))


def test_fit_is_least_squares_minimum():
    d = presets.flat_toy_dictionary(extra=0.05)
    toy, st, phi, *_ = presets.flat_toy_setup()
    box = unit_box(1, 2, grid=7)

    def phi_b(U, XI):
        return phi(U, XI)

    G, eps = fit_coefficient_matrix(d, phi_b, box)
    U, XI = box.grid()
    PSI = d.value_batch(U, XI)
    PHI = phi_b(U, XI)
    base = np.sum((PHI - PSI @ G.T) ** 2)
    rng = np.random.default_rng(0)
    for _ in range(30):
        G2 = G.copy()
        G2[rng.integers(0, G.shape[0]), rng.integers(0, G.shape[1])] += rng.choice([-1e-4, 1e-4])
        assert np.sum((PHI - PSI @ G2.T) ** 2) >= base - 1e-15


def test_eps_monotone_under_nested_dictionaries():
    def phi(U, XI):
        return (U[:, 0] + 0.5 * np.sin(XI[:, 0]) + 0.2 * XI[:, 1] ** 2).reshape(-1, 1)

    box = unit_box(1, 2, grid=9)
    funcs = [
        lambda u, xi: u[0],
        lambda u, xi: np.sin(xi[0]),
        lambda u, xi: xi[1] ** 2,
    ]
    eps_values = []
    for r in (1, 2, 3):
        d = CustomDictionary(1, 2, funcs=funcs[:r])
        _, eps = fit_coefficient_matrix(d, phi, box)
        eps_values.append(eps)
    assert eps_values[0] >= eps_values[1] >= eps_values[2]
    assert eps_values[2] < 1e-8


# ---------------------------------------------------------------------------
# Lipschitz and noise-gain estimates
# ---------------------------------------------------------------------------


def test_lipschitz_linear_function():
    K = estimate_lipschitz(lambda U, XI: 2.0 * XI[:, [0]], unit_box(1, 2, grid=15))
    np.testing.assert_allclose(K, 2.0, rtol=1e-9)


def test_lipschitz_constant_function():
    K = estimate_lipschitz(lambda U, XI: np.ones((U.shape[0], 1)), unit_box(1, 1, grid=9))
    assert K == 0.0


def test_lipschitz_sine_refines_to_one():
    box_coarse = OperatingBox([-1], [1], [-np.pi / 2], [np.pi / 2], grid_points=5)
    box_fine = OperatingBox([-1], [1], [-np.pi / 2], [np.pi / 2], grid_points=201)
    f = lambda U, XI: np.sin(XI[:, [0]])
    K_coarse = estimate_lipschitz(f, box_coarse)
    K_fine = estimate_lipschitz(f, box_fine)
    assert K_coarse <= K_fine <= 1.0
    np.testing.assert_allclose(K_fine, 1.0, atol=1e-3)


def test_noise_gain_zero_noise_skipped():
    gain = estimate_noise_gain(lambda U, XI: XI, unit_box(1, 2, grid=5), 0.0)
    assert gain == 0.0


def test_noise_gain_linear_map():
    # f(xi) = 3 xi_1: corner perturbations give exactly 3 w* / w* = 3
    gain = estimate_noise_gain(
        lambda U, XI: 3.0 * XI[:, [0]], unit_box(1, 2, grid=4), w_star=0.05
    )
    np.testing.assert_allclose(gain, 3.0, rtol=1e-9)


# ---------------------------------------------------------------------------
# norm bounds
# ---------------------------------------------------------------------------


def test_norm_bound_constant_dictionary_tight():
    # psi = 1 on a unit-volume box: Gamma = 1, integral |psi| = 1, phi = c
    box = OperatingBox([0.0], [1.0], [0.0], [1.0], grid_points=10)
    d = CustomDictionary(1, 1, funcs=[lambda u, xi: 1.0])
    c = -3.7
    bound = coefficient_norm_bound(d, box, v_star=abs(c))
    np.testing.assert_allclose(bound, abs(c), rtol=1e-12)
    G, _ = fit_coefficient_matrix(d, lambda U, XI: np.full((U.shape[0], 1), c), box)
    assert bound >= np.max(np.sum(np.abs(G), axis=1)) - 1e-12


def test_norm_bound_orthonormal_dictionary():
    # Legendre pair on [0,1]^2, orthonormal so the Gram inverse has unit norm
    box = OperatingBox([0.0], [1.0], [0.0], [1.0], grid_points=400)
    d = CustomDictionary(
        1, 1,
        funcs=[lambda u, xi: 1.0, lambda u, xi: np.sqrt(3.0) * (2 * xi[0] - 1.0)],
    )
    U, XI = box.grid()
    PSI = d.value_batch(U, XI)
    v_star = 2.0
    expected = v_star * 1.0 * np.sum(np.abs(PSI)) * box.cell_volume()
    bound = coefficient_norm_bound(d, box, v_star)
    np.testing.assert_allclose(bound, expected, rtol=1e-2)


def test_norm_bound_dominates_fit_on_shared_dictionaries():
    cases = []
    toy, st, phi, traj, d_flat = presets.flat_toy_setup()
    cases.append((d_flat, phi, unit_box(1, 2, grid=9)))
    chain, st2, phi2, _, d_id = presets.chain_toy_setup()
    cases.append((d_id, phi2, unit_box(2, 3, grid=5)))
    exp = presets.pendulum_experiment(grid_points=5)
    cases.append((make_pendulum_dictionary(exp.params, 0.1, 3), exp.phi, exp.box))
    for d, phi_fn, box in cases:
        G, _ = fit_coefficient_matrix(d, phi_fn, box)
        U, XI = box.grid()
        PHI = np.atleast_2d(phi_fn(U, XI))
        if PHI.shape[0] != U.shape[0]:
            PHI = PHI.T
        v_star = float(np.max(np.abs(PHI)))
        bound = coefficient_norm_bound(d, box, v_star)
        oracle = float(np.max(np.sum(np.abs(G), axis=1)))
        assert bound >= oracle - 1e-9, (d.name, bound, oracle)


def test_right_inverse_bound_examples():
    np.testing.assert_allclose(right_inverse_norm_bound(np.eye(2)), np.sqrt(2))
    np.testing.assert_allclose(right_inverse_norm_bound(np.diag([2.0, 1.0])), np.sqrt(2))
    G = np.random.default_rng(1).uniform(-1, 1, (2, 5))
    bound = right_inverse_norm_bound(G)
    direct = np.max(np.sum(np.abs(np.linalg.pinv(G)), axis=1))
    assert bound >= direct - 1e-12


# ---------------------------------------------------------------------------
# certificate
# ---------------------------------------------------------------------------


def test_certificate_roundtrip_and_flags(tmp_path):
    toy, st, phi, traj, d = presets.flat_toy_setup()
    box = unit_box(1, 2, grid=7)
    cert = build_certificate(d, phi, box, degrees=st.degrees, w_star=0.0, seed=4)
    assert cert.noise_gain_skipped and cert.k_w == 0.0
    path = tmp_path / "cert.json"
    cert.save(path)
    cert2 = ApproximationCertificate.load(path)
    assert cert2.to_dict() == cert.to_dict()
    data = json.loads(path.read_text())
    assert data["eps_star"] == cert.eps_star


def test_certificate_noise_gain_property():
    """Sampled noise-window errors stay below the estimated gain times the
    noise bound, and the zero window gives a zero error."""
    toy, st, phi, traj, d = presets.flat_toy_setup()
    box = unit_box(1, 2, grid=7)
    w_star = 0.02
    cert = build_certificate(d, phi, box, degrees=st.degrees, w_star=w_star, seed=4)
    rng = np.random.default_rng(8)
    U, XI = box.grid()
    take = rng.choice(U.shape[0], size=200, replace=False)
    worst = 0.0
    for idx in take:
        w = rng.uniform(-w_star, w_star, size=2)
        delta = phi(U[[idx]], XI[[idx]]) - phi(U[[idx]], XI[[idx]] + w)
        worst = max(worst, float(np.max(np.abs(delta))))
    assert worst <= cert.k_w * w_star + 1e-12
    same = phi(U[:5], XI[:5]) - phi(U[:5], XI[:5] + 0.0)
    assert np.max(np.abs(same)) == 0.0


def test_certificate_right_inverse_consistency():
    exp = presets.pendulum_experiment(grid_points=5)
    d = make_pendulum_dictionary(exp.params, 0.1, 3)
    cert = build_certificate(d, exp.phi, exp.box, degrees=(2, 2), w_star=0.01, seed=3)
    assert cert.g_dagger_norm_inf <= cert.g_dagger_inf_bound + 1e-9
    assert cert.g_inf_bound >= cert.g_norm_inf - 1e-9
    assert cert.eps_star > 0 and cert.k_xi > 0 and cert.k_psi > 0 and cert.k_w > 0
