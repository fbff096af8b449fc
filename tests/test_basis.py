import json

import numpy as np
import pytest

import reference_certificate
from ddnpc import basis, plant, presets
from ddnpc.basis import (
    ApproximationCertificate,
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
    evaluate_grid,
    fit_coefficient_matrix,
    make_pendulum_dictionary,
    right_inverse_norm_bound,
)
from reference_dictionary import CustomDictionary, flat_toy_callables
from reference_pendulum import coriolis_times_velocity, inertia_matrix, random_points


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
    np.testing.assert_array_equal(d.value_batch(u[None], xi[None])[0], [1, -2, 0.5, 0, 3])


def test_constant_entry_gives_ones():
    d = CustomDictionary(1, 1, funcs=[lambda u, xi: 1.0], grads=[lambda u, xi: [0, 0]])
    vals = evaluate_along(d, np.zeros((5, 1)), np.linspace(-1, 1, 5).reshape(-1, 1))
    np.testing.assert_array_equal(vals, np.ones((5, 1)))


def test_pendulum_dictionary_at_zero():
    p = plant.DoublePendulumParams()
    est = plant.DoublePendulumParams(m1=1.1, m2=0.95, l1=0.52, l2=0.48)
    d = PendulumModelDictionary(est)
    val = d.value_batch(np.zeros((1, 2)), np.zeros((1, 4)))[0]
    np.testing.assert_array_equal(val[:2], [0.0, 0.0])
    M0 = inertia_matrix(est, 0.0)
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
    W = np.linalg.inv(inertia_matrix(p, x3))
    rhs = U - coriolis_times_velocity(p, x3, qd1, qd2) - plant.gravity_vector(p, x1, x3)
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
    U, XI = random_points(exp.box, 3000, seed=8)
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


@pytest.mark.parametrize("extra", [None, 0.02, 0.05])
def test_flat_dictionary_equals_scalar_callables_bitwise(extra):
    """The flat toy's batched dictionary is its scalar-callable form bit for
    bit, values and partials, on 12,000 points spread over several scales."""
    d = basis.FlatToyDictionary() if extra is None else basis.FlatToyDictionary(extra)
    ref = flat_toy_callables(extra)
    assert (d.name, d.u_prefix, d.m, d.n, d.r) == (ref.name, ref.u_prefix, ref.m, ref.n, ref.r)
    rng = np.random.default_rng(11)
    for scale in (0.1, 1.5, 4.0, 1e3):
        U = rng.uniform(-3.0, 3.0, (3000, 1))
        XI = rng.uniform(-scale, scale, (3000, 2))
        np.testing.assert_array_equal(d.value_batch(U, XI), ref.value_batch(U, XI))
        np.testing.assert_array_equal(d.jacobian_batch(U, XI), ref.jacobian_batch(U, XI))
    for P in (1, 7, 12):
        for fn in ("value_batch", "jacobian_batch"):
            want = getattr(ref, fn)(U[:P], XI[:P])
            np.testing.assert_array_equal(getattr(d, fn)(U[:P], XI[:P]), want)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("column", [0, 1, 2])
def test_flat_dictionary_rejects_nonfinite_values(bad, column):
    """A non-finite input or window state raises ``DictionaryEvaluationError``
    with the scalar form's message, naming the first basis function and row
    that went non-finite."""
    Z = np.zeros((4, 3))
    Z[2, column] = bad
    messages = []
    with np.errstate(invalid="ignore"):
        for d in (basis.FlatToyDictionary(0.05), flat_toy_callables(0.05)):
            with pytest.raises(basis.DictionaryEvaluationError, match="step 2") as err:
                d.value_batch(Z[:, :1], Z[:, 1:])
            messages.append(str(err.value))
    assert messages[0] == messages[1]


def _defined_names(tree):
    """Every name a module defines: functions, classes and assigned names,
    ``Class.member`` for the methods and fields of a class, and
    ``function(parameter)`` for the parameters of a function."""
    import ast

    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, ast.FunctionDef):
            names |= {f"{node.name}({a.arg})" for a in node.args.args + node.args.kwonlyargs}
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    names.add(f"{node.name}.{item.name}")
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    names.add(f"{node.name}.{item.target.id}")
        if isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    return names


def test_test_only_helpers_stay_out_of_src():
    """Code that only the tests call lives in their reference modules: no
    module of ``src/ddnpc`` defines the scalar-callable dictionary, the
    relative-degree probe, the membership residual or the window stack.
    Settable values and structure that no caller outside the tests used
    stay out too: the Hankel wrapper, single-point dictionary evaluation,
    sequence windows, the chain matrices, plant feedthrough and the origin
    self-check, and the parameters no caller set."""
    import ast
    from pathlib import Path

    moved = {"CustomDictionary", "probe_relative_degrees", "NoResponseError",
             "representation_residual", "stack"}
    removed = {
        "HankelMatrix", "WindowError", "DEFAULT_RANK_RTOL", "Sequence.window",
        "BasisDictionary.value", "BasisDictionary.jacobian",
        "BrunovskyStructure.A", "BrunovskyStructure.B", "BrunovskyStructure.C",
        "PlantModel.feedthrough", "PlantModel.origin_equilibrium", "measure(u)",
        "run_closed_loop(solver_options)", "estimate_noise_gain(max_corners)",
        "estimate_noise_gain(seed)", "fit_coefficient_matrix(gram_rtol)",
        "is_persistently_exciting(tolerance)", "collect_offline_data(x0)",
        "simulate_data_driven(maxiter)", "match_output_data_driven(maxiter)",
    }
    found = {
        (path.name, name)
        for path in sorted(Path(basis.__file__).parent.glob("*.py"))
        for name in _defined_names(ast.parse(path.read_text(), filename=str(path)))
        if name in moved | removed
    }
    assert found == set()


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
        basis.FlatToyDictionary(0.05),
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
            fd = (dictionary.value_batch(zp[None, :m], zp[None, m:])[0]
                  - dictionary.value_batch(zm[None, :m], zm[None, m:])[0]) / (2 * h)
            denom = max(1.0, np.max(np.abs(fd)))
            assert np.max(np.abs(fd - J[p_, :, c])) / denom < 1e-5


@pytest.mark.parametrize(
    "dictionary",
    [
        IdentityDictionary(2, 4),
        InputDictionary(2, 3),
        PolynomialDictionary(1, 2),
        TrigDictionary(2, 3),
        basis.FlatToyDictionary(0.05),
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
        return U @ G_true[:, :1].T + XI @ G_true[:, 1:].T

    box = unit_box(1, 2, grid=6)
    G, eps = fit_coefficient_matrix(evaluate_grid(d, phi, box))
    np.testing.assert_allclose(G, G_true, atol=1e-10)
    assert eps < 1e-8


def test_fit_pendulum_exact_parameters():
    exp = presets.pendulum_experiment(grid_points=5)
    d = PendulumModelDictionary(exp.params)
    # subtract the window-linear part: the remainder lies exactly in the span
    def phi_nonlinear(U, XI):
        v = exp.phi(U, XI)
        lin = np.stack([2 * XI[..., 1] - XI[..., 0], 2 * XI[..., 3] - XI[..., 2]], axis=-1)
        return v - lin

    G, eps = fit_coefficient_matrix(evaluate_grid(d, phi_nonlinear, exp.box))
    assert eps < 1e-8
    np.testing.assert_allclose(G, np.hstack([np.zeros((2, 2)), exp.params.Ts**2 * np.eye(2)]), atol=1e-9)


def test_fit_pendulum_perturbed_order_of_magnitude():
    exp = presets.pendulum_experiment(grid_points=5)
    d = make_pendulum_dictionary(exp.params, perturbation=0.1, seed=3)
    G, eps = fit_coefficient_matrix(evaluate_grid(d, exp.phi, exp.box))
    # the full map includes a window-linear part outside the span, so the
    # residual lands above the reported reference level but within its decade
    assert 0.12893 <= eps <= 12.893
    assert np.linalg.matrix_rank(G) == 2


def test_fit_singular_gram_raises():
    d = CustomDictionary(
        1, 1, funcs=[lambda u, xi: u[0], lambda u, xi: 2.0 * u[0]]
    )
    with pytest.raises(SingularGramError):
        fit_coefficient_matrix(evaluate_grid(d, lambda U, XI: U, unit_box(1, 1, grid=9)))


def test_fit_is_least_squares_minimum():
    d = basis.FlatToyDictionary(0.05)
    toy, st, phi, *_ = presets.flat_toy_setup()
    box = unit_box(1, 2, grid=7)

    def phi_b(U, XI):
        return phi(U, XI)

    G, eps = fit_coefficient_matrix(evaluate_grid(d, phi_b, box))
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
        return (U[..., 0] + 0.5 * np.sin(XI[..., 0]) + 0.2 * XI[..., 1] ** 2)[..., None]

    box = unit_box(1, 2, grid=9)
    funcs = [
        lambda u, xi: u[0],
        lambda u, xi: np.sin(xi[0]),
        lambda u, xi: xi[1] ** 2,
    ]
    eps_values = []
    for r in (1, 2, 3):
        d = CustomDictionary(1, 2, funcs=funcs[:r])
        _, eps = fit_coefficient_matrix(evaluate_grid(d, phi, box))
        eps_values.append(eps)
    assert eps_values[0] >= eps_values[1] >= eps_values[2]
    assert eps_values[2] < 1e-8


# ---------------------------------------------------------------------------
# Lipschitz and noise-gain estimates
# ---------------------------------------------------------------------------


def test_lipschitz_linear_function():
    box = unit_box(1, 2, grid=15)
    U, XI = box.grid()
    K = estimate_lipschitz(2.0 * XI[:, [0]], box)
    np.testing.assert_allclose(K, 2.0, rtol=1e-9)


def test_lipschitz_constant_function():
    box = unit_box(1, 1, grid=9)
    U, XI = box.grid()
    K = estimate_lipschitz(np.ones((U.shape[0], 1)), box)
    assert K == 0.0


def test_lipschitz_sine_refines_to_one():
    box_coarse = OperatingBox([-1], [1], [-np.pi / 2], [np.pi / 2], grid_points=5)
    box_fine = OperatingBox([-1], [1], [-np.pi / 2], [np.pi / 2], grid_points=201)
    f = lambda U, XI: np.sin(XI[:, [0]])
    K_coarse = estimate_lipschitz(f(*box_coarse.grid()), box_coarse)
    K_fine = estimate_lipschitz(f(*box_fine.grid()), box_fine)
    assert K_coarse <= K_fine <= 1.0
    np.testing.assert_allclose(K_fine, 1.0, atol=1e-3)


def test_noise_gain_zero_noise_skipped():
    f = lambda U, XI: XI
    grid = evaluate_grid(IdentityDictionary(1, 2), f, unit_box(1, 2, grid=5))
    gain = estimate_noise_gain(f, grid, 0.0)
    assert gain == 0.0


def test_noise_gain_linear_map():
    # f(xi) = 3 xi_1: corner perturbations give exactly 3 w* / w* = 3
    f = lambda U, XI: 3.0 * XI[..., [0]]
    grid = evaluate_grid(IdentityDictionary(1, 2), f, unit_box(1, 2, grid=4))
    gain = estimate_noise_gain(f, grid, w_star=0.05)
    np.testing.assert_allclose(gain, 3.0, rtol=1e-9)


# ---------------------------------------------------------------------------
# norm bounds
# ---------------------------------------------------------------------------


def test_norm_bound_constant_dictionary_tight():
    # psi = 1 on a unit-volume box: Gamma = 1, integral |psi| = 1, phi = c
    box = OperatingBox([0.0], [1.0], [0.0], [1.0], grid_points=10)
    d = CustomDictionary(1, 1, funcs=[lambda u, xi: 1.0])
    c = -3.7
    grid = evaluate_grid(d, lambda U, XI: np.full(U.shape[:-1] + (1,), c), box)
    bound = coefficient_norm_bound(grid, v_star=abs(c))
    np.testing.assert_allclose(bound, abs(c), rtol=1e-12)
    G, _ = fit_coefficient_matrix(grid)
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
    bound = coefficient_norm_bound(evaluate_grid(d, lambda U, XI: U, box), v_star)
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
        grid = evaluate_grid(d, phi_fn, box)
        G, _ = fit_coefficient_matrix(grid)
        U, XI = box.grid()
        PHI = np.atleast_2d(phi_fn(U, XI))
        if PHI.shape[0] != U.shape[0]:
            PHI = PHI.T
        v_star = float(np.max(np.abs(PHI)))
        bound = coefficient_norm_bound(grid, v_star)
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


# ---------------------------------------------------------------------------
# one grid evaluation, phi on the factored grid
# ---------------------------------------------------------------------------


def test_grid_pairs_the_factor_rows_in_order():
    """Grid row ``a * nx + b`` pairs input row ``a`` with state row ``b``, and
    the grid is the full meshgrid of the axes, the first varying slowest."""
    box = OperatingBox([-1.0, 0.0], [1.0, 2.0], [-1.0, -2.0, 0.0], [1.0, 2.0, 3.0], grid_points=3)
    U_rows, XI_rows = box.grid_factors()
    U, XI = box.grid()
    assert U_rows.shape == (9, 2) and XI_rows.shape == (27, 3)
    np.testing.assert_array_equal(U.reshape(9, 27, 2), np.broadcast_to(U_rows[:, None], (9, 27, 2)))
    np.testing.assert_array_equal(XI.reshape(9, 27, 3), np.broadcast_to(XI_rows[None], (9, 27, 3)))
    mesh = np.meshgrid(*box.grid_axes(), indexing="ij")
    np.testing.assert_array_equal(
        np.hstack([U, XI]), np.stack([g.reshape(-1) for g in mesh], axis=-1)
    )


def _coupled_phi(U, XI):
    """Two channels that depend on the state nonlinearly, ``(..., 2)``."""
    return np.stack(
        [U[..., 0] + np.sin(XI[..., 0]) * XI[..., 1], U[..., 1] * XI[..., 2] ** 2], axis=-1
    )


def _certificate_case(name):
    """``(dictionary, phi, box, degrees, w_star, seed)`` of one case."""
    if name == "pendulum_reference":
        exp = presets.pendulum_experiment()
        d = exp.dictionary(perturbation=0.1, seed=3)
        return d, exp.phi, exp.box, exp.structure.degrees, 0.01, 3
    if name == "flat":
        _, st, phi, _, d = presets.flat_toy_setup()
        box = OperatingBox([-3.0], [3.0], [-1.0] * 2, [1.0] * 2, grid_points=9)
        return d, phi, box, st.degrees, 0.01, None
    if name == "chain":
        _, st, phi, _, d = presets.chain_toy_setup()
        box = OperatingBox([-5.0] * 2, [5.0] * 2, [-1.0] * 3, [1.0] * 3, grid_points=7)
        return d, phi, box, st.degrees, 0.01, None
    if name == "coupled_phi_Pm":
        return IdentityDictionary(2, 3), _coupled_phi, unit_box(2, 3, grid=7), (1, 2), 0.02, None
    if name == "bilinear_max_in_last_block":
        # |u| is largest on the last grid rows, and so is the noise gain
        box = OperatingBox([0.0], [2.0], [-1.0] * 2, [1.0] * 2, grid_points=26)
        phi = lambda U, XI: U * XI[..., :1]
        return IdentityDictionary(1, 2), phi, box, (2,), 0.05, None
    if name == "seven_states":
        # all 2^7 = 128 sign corners
        box = unit_box(1, 7, grid=2)

        def phi(U, XI):
            return (U[..., 0] * np.sin(XI[..., 0]) + XI[..., 3] * XI[..., 6] ** 2)[..., None]

        return IdentityDictionary(1, 7), phi, box, (7,), 0.05, None
    raise KeyError(name)


@pytest.mark.parametrize(
    "name, block",
    [
        # 49 input combinations x 2,401 state rows: chunks of 334 state rows
        # with every combination, the last of 63
        ("pendulum_reference", None),
        ("flat", None),  # 729 rows, fewer than one block
        ("chain", None),  # 49 x 343 rows: chunks of 334 state rows and 9
        ("coupled_phi_Pm", None),  # as the chain
        ("coupled_phi_Pm", 2058),  # chunks of 42 state rows, the last of 7
        ("coupled_phi_Pm", 100),  # chunks of 2 state rows, the last of one
        # 49 combinations exceed the block: one state row per call, the
        # combinations sliced into 20, 20 and 9
        ("coupled_phi_Pm", 20),
        ("bilinear_max_in_last_block", None),  # 26 x 676 rows: 630 state rows and 46
        ("seven_states", None),  # 2 x 128 rows, one chunk
    ],
)
def test_certificate_matches_reference_pipeline(name, block, monkeypatch):
    """One grid evaluation, with ``phi`` on the factored grid in chunks, gives
    the separate dense passes' certificate bit for bit
    (``tests/reference_certificate.py``)."""
    if block is not None:
        monkeypatch.setattr(basis, "_CORNER_BLOCK", block)
    d, phi, box, degrees, w_star, seed = _certificate_case(name)
    want = reference_certificate.build_certificate(d, phi, box, degrees, w_star=w_star, seed=seed)
    got = build_certificate(d, phi, box, degrees, w_star=w_star, seed=seed)
    assert got.to_dict() == want.to_dict()
    assert got.k_w > 0 or name == "chain"


def test_certificate_evaluates_the_grid_once(monkeypatch):
    """One grid build and one dictionary call on the dense grid. ``phi`` takes
    the grid's factors: no call sees more than one copy of the state rows or
    more than the block size, and the calls cover the grid once unperturbed
    and once per noise corner. Each of those passes sees each state row
    once, so the state-only terms are computed once per row and pass."""
    d, phi, box, degrees, w_star, seed = _certificate_case("pendulum_reference")
    builds, psi_rows, phi_states, phi_sizes = [], [], [], []
    grid = OperatingBox.grid

    def counted_grid(self):
        builds.append(self)
        return grid(self)

    def counted_phi(U, XI):
        phi_states.append(int(np.prod(XI.shape[:-1])))
        phi_sizes.append(int(np.prod(np.broadcast_shapes(U.shape[:-1], XI.shape[:-1]))))
        return phi(U, XI)

    def counted_psi(U, XI, value_batch=d.value_batch):
        psi_rows.append(len(U))
        return value_batch(U, XI)

    monkeypatch.setattr(OperatingBox, "grid", counted_grid)
    d.value_batch = counted_psi
    build_certificate(d, counted_phi, box, degrees, w_star=w_star, seed=seed)
    P = box.grid_points ** (box.m + box.n)
    assert len(builds) == 1
    assert psi_rows == [P]
    assert max(phi_states) <= box.grid_points**box.n
    assert sum(phi_sizes) == (1 + 2**box.n) * P
    assert max(phi_sizes) <= basis._CORNER_BLOCK
    assert sum(phi_states) == (1 + 2**box.n) * box.grid_points**box.n


def test_phi_must_return_a_trailing_channel_axis():
    """A map that returns one value per grid row without the channel axis is
    refused instead of being broadcast against the wrong axis."""
    box = unit_box(1, 2, grid=5)
    with pytest.raises(ValueError, match=r"\(\.\.\., q\)"):
        evaluate_grid(IdentityDictionary(1, 2), lambda U, XI: U[..., 0] * XI[..., 0], box)
