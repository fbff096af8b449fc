"""Spans around the calls into each ddnpc module.

Every span is opened from the benchmark's own files: a module attribute is
replaced where its caller looks it up at call time, and the dictionary,
``phi`` and plant objects the benchmark builds are wrapped before use. The
library itself is not modified.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

from harness import StepClock, Tracer

# Spans that own the scipy solver calls made under them: a trust-region or
# L-BFGS run is charged to the innermost of these that is open.
SOLVER_OWNERS = {
    "npc.direct": "npc.direct",
    "solver.solve": "solver.gn",
    "behavior.simulate": "behavior",
    "behavior.match": "behavior",
}


def install(tracer: Tracer, stack) -> None:
    """Patch the library entry points until ``stack`` (a
    ``contextlib.ExitStack``) closes. With tracing off only the two solver
    entry points whose exceptions the closed loop swallows are wrapped."""
    import scipy.optimize
    from ddnpc import basis, behavior, npc, plant, solver, trajlib

    def patch(owner, attr, value):
        stack.enter_context(mock.patch.object(owner, attr, value))

    def direct_after(out):
        _, info = out
        tracer.count("npc.direct.nfev", info["iterations"])
        tracer.count(f"npc.direct.status.{info['status']}")

    def solve_before(args):
        path = "lbfgs" if args[0].ls_residual is None else "gn"
        tracer.count(f"solver.path.{path}")

    def solve_after(report):
        tracer.count("solver.inner_iters", report.iterations)
        tracer.count(f"solver.status.{report.status}")

    patch(npc, "solve_relaxed_direct",
          tracer.wrap("npc.direct", npc.solve_relaxed_direct, after=direct_after))
    patch(solver, "solve",
          tracer.wrap("solver.solve", solver.solve, before=solve_before, after=solve_after))
    if not tracer.enabled:
        return

    def cert_before(args):
        box = args[2]
        rows = 1
        for axis in box.grid_axes():
            rows *= len(axis)
        tracer.grid_rows = rows

    def cert_after(_):
        tracer.grid_rows = None

    patch(basis, "build_certificate",
          tracer.wrap("basis.certificate", basis.build_certificate,
                      before=cert_before, after=cert_after))
    for attr, name in (
        ("fit_coefficient_matrix", "basis.fit"),
        ("estimate_lipschitz", "basis.lipschitz"),
        ("estimate_noise_gain", "basis.noise_gain"),
        ("coefficient_norm_bound", "basis.norm_bound"),
    ):
        patch(basis, attr, tracer.wrap(name, getattr(basis, attr)))

    patch(plant, "collect_offline_data",
          tracer.wrap("plant.collect", plant.collect_offline_data))

    for owner in (behavior, trajlib):
        patch(owner, "build_hankel", tracer.wrap("trajlib.hankel", owner.build_hankel))
    patch(behavior, "is_persistently_exciting",
          tracer.wrap("trajlib.pe_check", behavior.is_persistently_exciting))
    blocks_cls = behavior.DataDictionaryBlocks
    patch(blocks_cls, "from_trajectory", classmethod(
        tracer.wrap("behavior.blocks", blocks_cls.__dict__["from_trajectory"].__func__)))

    def nfev(name):
        return lambda res: tracer.count(name, res.iterations)

    patch(behavior, "simulate_data_driven",
          tracer.wrap("behavior.simulate", behavior.simulate_data_driven,
                      after=nfev("behavior.simulate.nfev")))
    patch(behavior, "match_output_data_driven",
          tracer.wrap("behavior.match", behavior.match_output_data_driven,
                      after=nfev("behavior.match.nfev")))

    patch(npc, "run_closed_loop", tracer.wrap("npc.loop", npc.run_closed_loop))
    patch(npc.OcpBuilder, "build", tracer.wrap("npc.build", npc.OcpBuilder.build))
    patch(npc.OcpBuilder, "shifted_guess",
          tracer.wrap("npc.warm_start", npc.OcpBuilder.shifted_guess))

    least_squares = scipy.optimize.least_squares

    def traced_least_squares(fun, x0, *args, **kwargs):
        prefix = SOLVER_OWNERS.get(tracer.innermost(SOLVER_OWNERS), "other")
        fun = tracer.wrap(prefix + ".callback", fun)
        if callable(kwargs.get("jac")):
            kwargs["jac"] = tracer.wrap(prefix + ".callback", kwargs["jac"])
        with tracer.span(prefix + ".trf"):
            return least_squares(fun, x0, *args, **kwargs)

    patch(scipy.optimize, "least_squares", traced_least_squares)

    minimize = solver.minimize

    def traced_minimize(fun, x0, *args, **kwargs):
        with tracer.span("solver.lbfgs"):
            return minimize(tracer.wrap("solver.lbfgs.callback", fun), x0, *args, **kwargs)

    patch(solver, "minimize", traced_minimize)


def _batch(tracer: Tracer, name, fn, grid_counted):
    def before(args):
        rows = len(args[0])
        tracer.count(name + ".rows", rows)
        if grid_counted and rows == tracer.grid_rows:
            tracer.count("basis.grid_passes")

    return tracer.wrap(name, fn, before=before)


def dictionary(tracer: Tracer, d):
    """Wrap a dictionary's batch evaluations in place (instance attributes
    shadow the class methods)."""
    if tracer.enabled:
        d.value_batch = _batch(tracer, "basis.value_batch", d.value_batch, True)
        d.jacobian_batch = _batch(tracer, "basis.jacobian_batch", d.jacobian_batch, False)
    return d


def phi(tracer: Tracer, fn):
    """The true transformed-input map, counted like a dictionary evaluation."""
    return _batch(tracer, "basis.phi", fn, True) if tracer.enabled else fn


def plant_model(tracer: Tracer, model):
    """A copy of ``model`` whose step is a span. Only the model a closed loop
    steps is wrapped, so ``plant.step`` excludes data collection."""
    if not tracer.enabled:
        return model
    return dataclasses.replace(model, step=tracer.wrap("plant.step", model.step))


def clocked(model, inside=None):
    """A copy of ``model`` whose step records call and return times, and the
    clock. The clock starts empty even if construction stepped the plant.
    ``inside`` runs within each step's recorded interval."""
    clock = StepClock(model.step, inside=inside)
    copy = dataclasses.replace(model, step=clock)
    clock.take()
    return copy, clock
