"""The benchmark's traced run finds the library by attribute name.

``bench/layers.py`` replaces module attributes where their callers look them
up at call time (``npc.solve_relaxed_direct``, ``OcpBuilder.build``,
``OcpBuilder.shifted_guess``, ``solver.solve``, ``solver.minimize``, the
certificate entry point and its four estimators), reads
``NlpProblem.ls_residual`` to name the solver path, and counts the
data-driven queries' solver evaluations from their results; it also
replaces ``plant.collect_offline_data``, which the pendulum experiment's
data collection calls by module attribute. A rename would
silently drop spans from the traced run; this test fails instead. It also
checks that the evaluation counters the traced run reports match the
results and the closed-loop log, and that every workload's set-up runs
against the library and passes its output checks.
"""

import contextlib
import dataclasses
from collections import Counter
from pathlib import Path

import numpy as np

from ddnpc import basis, behavior, npc, plant, presets, solver
from ddnpc.behavior import DataDictionaryBlocks

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_layers_trace_behavior_and_solver_calls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import harness
    import layers

    toy, st, phi, traj, d = presets.flat_toy_setup()
    blocks = DataDictionaryBlocks.from_trajectory(d, traj, horizon=10)
    spec = npc.OcpSpec(
        mode="nominal", L=8, structure=st, blocks=blocks, Q=np.eye(1), R=np.eye(1),
        u_setpoint=[0.0], y_setpoint=[0.0], u_min=[-3.0], u_max=[3.0],
    )
    relaxed = dataclasses.replace(
        spec, mode="robust", eps_star=0.02, w_star=0.005, k_psi=1.0, k_w=1.0, g_dagger_norm=5.0
    )
    tracer = harness.Tracer(enabled=True)
    with contextlib.ExitStack() as stack:
        layers.install(tracer, stack)
        sim = behavior.simulate_data_driven(blocks, traj.u[7:17], traj.xi.data[7])
        match = behavior.match_output_data_driven(blocks, [traj.outputs[0][9:21]])
        log = npc.run_closed_loop(
            relaxed, toy, plant.NoiseModel(), np.array([0.2, 0.1]), total_steps=4
        )
        problem = npc.OcpBuilder(spec).build(np.zeros((2, 1)), np.array([[0.2], [0.19]]))
        solver.solve(problem)
    recorded = set(tracer.names)
    for span in (
        "behavior.simulate", "behavior.match", "solver.solve",
        "npc.direct", "npc.warm_start", "npc.build",
    ):
        assert span in recorded, span
    assert tracer.counts["solver.path.gn"] == 1
    assert tracer.counts["behavior.simulate.nfev"] == sim.iterations
    assert tracer.counts["behavior.match.nfev"] == match.iterations

    # The direct-solve counters agree with the closed-loop log.
    direct = [rec for rec in log.solves if rec.path == "direct"]
    assert direct and len(direct) == len(log.solves)
    assert tracer.counts["npc.direct.nfev"] == sum(rec.iterations for rec in direct)
    statuses = {
        name.removeprefix("npc.direct.status."): n
        for name, n in tracer.counts.items()
        if name.startswith("npc.direct.status.")
    }
    assert statuses == Counter(rec.status for rec in direct)


def test_layers_trace_certificate_spans(monkeypatch):
    """``build_certificate`` calls its estimators by module attribute, so the
    traced run records one span for each. The dictionary and ``phi`` are
    evaluated once each on the grid, ``phi`` again at every noise corner."""
    monkeypatch.syspath_prepend(str(BENCH))
    import harness
    import layers

    _, st, phi, _, d = presets.flat_toy_setup()
    box = basis.OperatingBox(
        u_lower=[-3.0], u_upper=[3.0], xi_lower=[-1.0] * 2, xi_upper=[1.0] * 2, grid_points=9
    )
    tracer = harness.Tracer(enabled=True)
    with contextlib.ExitStack() as stack:
        layers.install(tracer, stack)
        cert = basis.build_certificate(
            layers.dictionary(tracer, d), layers.phi(tracer, phi), box,
            degrees=st.degrees, w_star=0.01,
        )
    assert cert.k_w > 0
    recorded = set(tracer.names)
    for span in (
        "basis.certificate", "basis.fit", "basis.lipschitz",
        "basis.noise_gain", "basis.norm_bound",
    ):
        assert span in recorded, span
    # phi takes the grid's factors, all 9 input combinations against the 81
    # state rows in one call on the grid and one per noise corner; the
    # counter reads len(U), the input combinations, so only the dictionary's
    # dense call counts as a grid pass
    assert tracer.counts["basis.grid_passes"] == 1
    assert tracer.counts["basis.phi.rows"] == (1 + 2**box.n) * 9


def test_layers_trace_one_collect_span(monkeypatch):
    """The pendulum experiment collects through ``plant.collect_offline_data``
    by module attribute, so a traced collection records one
    ``plant.collect`` span that covers it."""
    monkeypatch.syspath_prepend(str(BENCH))
    import harness
    import layers

    exp = presets.pendulum_experiment()
    tracer = harness.Tracer(enabled=True)
    with contextlib.ExitStack() as stack:
        layers.install(tracer, stack)
        traj = exp.collect(0, N=40)
    assert traj.N == 40
    assert tracer.names.count("plant.collect") == 1
    index = tracer.names.index("plant.collect")
    assert tracer.ends[index] > tracer.starts[index]


def test_workload_setups_pass_their_checks(monkeypatch):
    """Every workload's untraced set-up runs against the library, so a name
    or keyword the workloads use that the library no longer has fails here
    and not only in a benchmark run, and its output checks (certificate
    bounds, excitation) find no problem."""
    monkeypatch.syspath_prepend(str(BENCH))
    import harness
    import workloads

    for name, workload in workloads.WORKLOADS.items():
        setup = workload(0).setup(harness.Tracer(enabled=False))
        assert setup.problems == [], name
