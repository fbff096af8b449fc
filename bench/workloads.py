"""The three benchmark workloads.

Each workload has a set-up (identification: data collection, certificate,
Hankel blocks with the excitation check, plus whatever the timed section
needs) and a pass: one fixed panel of operations run as a closed loop with one
client. A pass can interleave extra set-ups between its members, so that
set-up times are sampled across the whole run and not only at its start.
Passes record clock readings, not durations, so that ``run.py`` can rescale
every interval by the host speed measured around it (``HostSpeed``): solves
and queries by ``solve_kernel``, set-ups by ``grid_kernel``.

The panel is the same for every workload seed; the seed only sets the order
in which its members run. Every input, and with it every trajectory, status
and accuracy figure, is therefore a property of the code alone, which is what
lets ``settle_peak_rad`` and ``fail_frac`` repeat exactly and lets two commits
be compared pass for pass.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import least_squares  # bound before layers patches it

from ddnpc import basis, behavior, npc, plant, presets
from ddnpc.npc import OcpSpec

import layers
from harness import solve_intervals

SETTLE_STEPS = 50
ENVELOPE_TOL = 1e-9
KERNEL_EVERY = 5  # plant steps between two solve-kernel samples in a closed loop
SOLVE_KERNEL_REF_S = 0.0025  # the kernels' times on the reference host
GRID_KERNEL_REF_S = 0.005

_KERNEL_RNG = np.random.default_rng(0)
_KERNEL_A = _KERNEL_RNG.standard_normal((24, 12)) * 0.3
_KERNEL_B = _KERNEL_RNG.standard_normal(24)
_KERNEL_GRID = _KERNEL_RNG.uniform(-1.0, 1.0, size=(20000, 6))
_KERNEL_FEATURES = np.empty((20000, 21))


def solve_kernel():
    """Fixed work of about 2.5 ms that uses no ddnpc code: eight iterations
    of scipy's trust-region least squares on a fixed 24 x 12 problem. The
    solves and queries are the same kind of work, and of the kernels tried
    (plain interpreter work, large array passes, small matrix products, a
    mix of these) this one followed their slowdowns best."""

    def residual(x):
        return np.tanh(_KERNEL_A @ x) - _KERNEL_B

    def jacobian(x):
        return (1.0 - np.tanh(_KERNEL_A @ x)[:, None] ** 2) * _KERNEL_A

    return least_squares(residual, np.zeros(12), jac=jacobian, method="trf", max_nfev=8).x


def grid_kernel():
    """Fixed work of about 5 ms that uses no ddnpc code: features of a
    20000-point grid in six dimensions and their column maxima, like a
    certificate's grid passes. Around the pendulum set-up it followed the
    identification time better than the solve kernel did (per set-up spread
    6 % against 12 %). The features go into a preallocated buffer: a fresh
    3 MB array costs page faults or not depending on the allocator's state,
    which the program sets, and the kernel must follow the host alone."""
    x, f = _KERNEL_GRID, _KERNEL_FEATURES
    f[:, :6] = x
    np.square(x, out=f[:, 6:12])
    np.sin(x, out=f[:, 12:18])
    np.multiply(x[:, :3], x[:, 3:], out=f[:, 18:])
    np.abs(f, out=f)
    return f.max(axis=0).sum()


def panel_order(size: int, seed: int) -> list:
    order = list(range(size))
    random.Random(seed).shuffle(order)
    return order


def members(order, every: int, between):
    """Yield the panel's members and call ``between`` (if given) after every
    ``every``-th one, outside the timed operations."""
    for i, member in enumerate(order, 1):
        yield member
        if between is not None and i % every == 0:
            between()


@dataclass
class PassResult:
    """What one pass over a workload's panel produced."""

    wall: list = field(default_factory=list)  # (start, end) of the timed sections
    ops: list = field(default_factory=list)   # (start, end) of each operation
    attempted: int = 0
    failed: int = 0
    accuracy: list = field(default_factory=list)  # per loop or query, in rad
    fingerprints: dict = field(default_factory=dict)
    statuses: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    problems: list = field(default_factory=list)  # failed output checks

    def wall_s(self, seconds=lambda t0, t1: t1 - t0) -> float:
        """Time spent in the timed sections, each measured by ``seconds``."""
        return sum(seconds(t0, t1) for t0, t1 in self.wall)


@dataclass
class Setup:
    identify: tuple  # (start, end) of collect + certificate + blocks
    problems: list
    data: dict


def _certificate_checks(cert, label):
    if not cert.g_inf_bound >= cert.g_norm_inf:
        return [f"{label}: g_inf_bound {cert.g_inf_bound!r} < g_norm_inf {cert.g_norm_inf!r}"]
    return []


def _loop(out: PassResult, speed, key, spec, model, noise, x0, steps, hold=None):
    """One closed loop on a clocked copy of ``model``; records solve intervals,
    statuses, the trajectory fingerprint and the input/finiteness checks.
    ``speed`` (a ``HostSpeed`` or None) is ticked inside the plant steps."""
    loop_model, clock = layers.clocked(model, None if speed is None else speed.tick)
    t0 = time.perf_counter()
    log = npc.run_closed_loop(spec, loop_model, noise, x0=x0, total_steps=steps, hold_input=hold)
    out.wall.append((t0, time.perf_counter()))
    calls, returns = clock.take()
    out.ops += solve_intervals(calls, returns, log.bootstrap_steps, log.stride)
    statuses = [rec.status for rec in log.solves]
    out.attempted += len(statuses)
    out.failed += sum(s != "converged" for s in statuses)
    out.statuses[key] = statuses

    u = np.asarray(log.inputs)
    y = np.asarray(log.outputs_clean)
    x_final = np.asarray(clock.last, dtype=float)
    if np.any(u < spec.u_min) or np.any(u > spec.u_max):
        out.problems.append(f"{key}: an applied input left the input box")
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(y)) and np.all(np.isfinite(x_final))):
        out.problems.append(f"{key}: non-finite input, output or state")
    tail = y[-SETTLE_STEPS:]
    out.accuracy.append(float(np.max(np.abs(tail - spec.y_setpoint))))
    out.fingerprints[key] = {
        "y_final": tail.tolist(),
        "x_final": x_final.tolist(),
    }
    return log


# ---------------------------------------------------------------------------
# swing_up
# ---------------------------------------------------------------------------


class SwingUp:
    """Reference robust controller, relaxed slack, 300 steps from hanging,
    over the reference data seeds (noise seed 2000 + data seed)."""

    name = "swing_up"
    DATA_SEEDS = (0, 1, 2)
    W_STAR = 0.01
    STEPS = 300
    SETUP_EVERY = 1  # panel members between two set-ups interleaved in a pass
    PASSES = 1  # passes a run makes at least; a pass takes over 20 s

    def __init__(self, seed: int):
        self.order = [self.DATA_SEEDS[i] for i in panel_order(len(self.DATA_SEEDS), seed)]

    def setup(self, tracer) -> Setup:
        exp = presets.pendulum_experiment()
        d = layers.dictionary(tracer, exp.dictionary(perturbation=0.1, seed=3))
        phi = layers.phi(tracer, exp.phi)
        t0 = time.perf_counter()
        cert = basis.build_certificate(
            d, phi, exp.box, degrees=exp.structure.degrees, w_star=self.W_STAR, seed=3
        )
        blocks = {s: exp.blocks(d, exp.collect(seed=s, w_star=self.W_STAR)) for s in self.order}
        identify = (t0, time.perf_counter())
        problems = _certificate_checks(cert, "pendulum certificate")
        problems += [f"data seed {s}: not persistently exciting" for s, b in blocks.items() if not b.pe_ok]
        eps = cert.eps_star * 1.1
        specs = {
            s: exp.ocp_spec(b, eps_star=eps, w_star=self.W_STAR, k_psi=cert.k_psi,
                            k_w=cert.k_w, g_dagger_norm=cert.g_dagger_inf_bound)
            for s, b in blocks.items()
        }
        return Setup(identify, problems, {
            "exp": exp, "plant": layers.plant_model(tracer, exp.plant_model),
            "cert": cert, "eps": eps, "specs": specs,
        })

    def run_pass(self, setup: Setup, speed=None, between=None) -> PassResult:
        exp, cert, eps = setup.data["exp"], setup.data["cert"], setup.data["eps"]
        out = PassResult()
        for s in members(self.order, self.SETUP_EVERY, between):
            noise = plant.NoiseModel(w_star=self.W_STAR, seed=2000 + s)
            log = _loop(out, speed, f"data_seed_{s}", setup.data["specs"][s], setup.data["plant"],
                        noise, exp.x0, self.STEPS, exp.hold_input)
            rows = npc.evaluate_runtime_bounds(
                log, eps_star=eps, w_star=self.W_STAR, k_xi=cert.k_xi, k_w=cert.k_w,
                g_norm_inf=cert.g_inf_bound,
            )
            violations = sum(realized > bound for *_, realized, bound in rows)
            if violations:
                out.problems.append(f"data seed {s}: {violations} prediction-bound violations")
        return out


# ---------------------------------------------------------------------------
# constrained_al
# ---------------------------------------------------------------------------


class ConstrainedAL:
    """Nominal closed loops on the flat and chain toys (AL, Gauss-Newton
    inner) and one exact-slack robust solve on the chain toy (AL, L-BFGS
    inner), all through ``solver.solve``."""

    name = "constrained_al"
    L = 8
    # Noise keeps every flat-toy solve non-trivial (with noise the chain
    # problem is infeasible). The noise-free chain toy reaches its setpoint
    # exactly within two steps, after which each solve takes a single inner
    # iteration, so each chain loop makes only its first, transient solve.
    # Many short loops, shuffled, spread each population over the whole run,
    # so that no percentile rests on a few seconds of a host whose speed
    # changes. The single exact-slack solve of a pass stays at the top, under
    # 1 % of all solves; it costs about a third of a pass. A run makes two
    # passes, so every solve is timed twice: on a busy host a few percent of
    # these 25-50 ms solves are stalled by 10-60 ms, right where p90 lies.
    FLAT_STARTS = ((0.45, -0.3), (-0.4, 0.35), (0.3, 0.4), (-0.35, -0.25))
    FLAT_STEPS = 60
    FLAT_NOISE = 0.005
    CHAIN_STARTS = 40
    EXACT = ("exact", (0.2, 0.0, -0.1), 2, 0.0)  # one robust solve of stride two
    NOISE_SEED = 7
    SETUP_EVERY = 3
    PASSES = 2

    def __init__(self, seed: int):
        starts = np.random.default_rng(11).uniform(-0.3, 0.3, size=(self.CHAIN_STARTS, 3))
        flat = [("flat", x0, self.FLAT_STEPS, self.FLAT_NOISE) for x0 in self.FLAT_STARTS]
        chain = [("chain", tuple(x0), 1, 0.0) for x0 in starts.round(4).tolist()]
        panel = [*flat, *chain, self.EXACT]
        self.order = [panel[i] for i in panel_order(len(panel), seed)]

    def setup(self, tracer) -> Setup:
        t0 = time.perf_counter()
        flat, flat_st, flat_phi, flat_traj, flat_d = presets.flat_toy_setup()
        chain, chain_st, chain_phi, chain_traj, chain_d = presets.chain_toy_setup()
        flat_d = layers.dictionary(tracer, flat_d)
        chain_d = layers.dictionary(tracer, chain_d)
        flat_box = basis.OperatingBox(
            u_lower=[-3.0], u_upper=[3.0], xi_lower=[-1.0] * 2, xi_upper=[1.0] * 2, grid_points=9
        )
        chain_box = basis.OperatingBox(
            u_lower=[-5.0] * 2, u_upper=[5.0] * 2, xi_lower=[-1.0] * 3, xi_upper=[1.0] * 3,
            grid_points=7,
        )
        certs = {
            "flat": basis.build_certificate(flat_d, layers.phi(tracer, flat_phi), flat_box,
                                            degrees=flat_st.degrees),
            "chain": basis.build_certificate(chain_d, layers.phi(tracer, chain_phi), chain_box,
                                             degrees=chain_st.degrees),
        }
        flat_blocks = behavior.DataDictionaryBlocks.from_trajectory(
            flat_d, flat_traj, self.L + flat_st.d_max
        )
        chain_blocks = behavior.DataDictionaryBlocks.from_trajectory(
            chain_d, chain_traj, self.L + chain_st.d_max
        )
        identify = (t0, time.perf_counter())
        problems = []
        for label, cert in certs.items():
            problems += _certificate_checks(cert, f"{label} toy certificate")
        for label, b in (("flat", flat_blocks), ("chain", chain_blocks)):
            if not b.pe_ok:
                problems.append(f"{label} toy data: not persistently exciting")

        def spec(blocks, st, m, u_max, **kw):
            return OcpSpec(
                L=self.L, structure=st, blocks=blocks, Q=np.eye(m), R=np.eye(m),
                u_setpoint=np.zeros(m), y_setpoint=np.zeros(m),
                u_min=-np.full(m, u_max), u_max=np.full(m, u_max), **kw,
            )

        data = {
            "flat": (layers.plant_model(tracer, flat),
                     spec(flat_blocks, flat_st, 1, 3.0, mode="nominal")),
            "chain": (layers.plant_model(tracer, chain),
                      spec(chain_blocks, chain_st, 2, 5.0, mode="nominal")),
        }
        data["exact"] = (data["chain"][0], spec(
            chain_blocks, chain_st, 2, 5.0, mode="robust", slack_mode="exact",
            eps_star=0.01, w_star=0.0, k_psi=1.0, k_w=1.0, g_dagger_norm=5.0,
        ))
        return Setup(identify, problems, data)

    def run_pass(self, setup: Setup, speed=None, between=None) -> PassResult:
        out = PassResult()
        for kind, x0, steps, w_star in members(self.order, self.SETUP_EVERY, between):
            model, spec = setup.data[kind]
            key = f"{kind}_" + "_".join(f"{v:g}" for v in x0)
            noise = plant.NoiseModel(w_star=w_star, seed=self.NOISE_SEED)
            _loop(out, speed, key, spec, model, noise, np.array(x0), steps)
            if kind != "flat":
                out.accuracy.pop()  # too short to settle; not part of the settle average
        return out


# ---------------------------------------------------------------------------
# offline_identify
# ---------------------------------------------------------------------------


class OfflineIdentify:
    """Identification on the pendulum, then simulate+match queries on windows
    of a fresh plant trajectory."""

    name = "offline_identify"
    W_STAR = 0.01
    L = 10
    # The 100 queries that p90 needs fill one pass of about 20 s; a query
    # takes 100-500 ms (one stalls for 7 s), so a host stall of a few tens of
    # milliseconds barely moves its time.
    QUERIES = 100
    WINDOW_STEP = 6
    FRESH_POLICY_SEED = 1
    SETUP_EVERY = 25
    PASSES = 1

    def __init__(self, seed: int):
        self.order = panel_order(self.QUERIES, seed)

    def setup(self, tracer) -> Setup:
        exp = presets.pendulum_experiment()
        d = layers.dictionary(tracer, exp.dictionary(perturbation=0.1, seed=3))
        phi = layers.phi(tracer, exp.phi)
        t0 = time.perf_counter()
        traj = exp.collect(seed=0, w_star=self.W_STAR)
        cert = basis.build_certificate(
            d, phi, exp.box, degrees=exp.structure.degrees, w_star=self.W_STAR, seed=3
        )
        blocks = behavior.DataDictionaryBlocks.from_trajectory(d, traj, self.L, use_noisy=True)
        identify = (t0, time.perf_counter())
        problems = _certificate_checks(cert, "pendulum certificate")
        if not blocks.pe_ok:
            problems.append("identification data: not persistently exciting")
        span = self.WINDOW_STEP * self.QUERIES
        fresh = plant.collect_offline_data(
            exp.plant_model, exp.policy(self.FRESH_POLICY_SEED), span + self.L + 2,
            exp.structure, plant.NoiseModel(), box=exp.box,
        )
        degrees = exp.structure.degrees
        windows = []
        for q in range(self.QUERIES):
            k0 = q * self.WINDOW_STEP
            windows.append((
                k0,
                fresh.u[k0 : k0 + self.L],
                fresh.xi.data[k0],
                [y[k0 : k0 + self.L + dd] for y, dd in zip(fresh.outputs, degrees)],
            ))
        return Setup(identify, problems, {
            "cert": cert, "blocks": blocks, "eps": cert.eps_star * 1.1, "windows": windows,
        })

    def run_pass(self, setup: Setup, speed=None, between=None) -> PassResult:
        cert, blocks, eps = setup.data["cert"], setup.data["blocks"], setup.data["eps"]
        bounds = {"eps_star": eps, "k_xi": cert.k_xi, "g_row_norm": cert.g_inf_bound}
        out = PassResult()
        for q in members(self.order, self.SETUP_EVERY, between):
            k0, u, xi0, ys = setup.data["windows"][q]
            key = f"window_{k0}"
            out.attempted += 1
            if speed is not None:
                speed.sample()
            t0 = time.perf_counter()
            try:
                sim = behavior.simulate_data_driven(blocks, u, xi0, **bounds)
                match = behavior.match_output_data_driven(blocks, ys, **bounds)
            except (behavior.ConvergenceError, behavior.InfeasibleInitialConditionError) as exc:
                interval = (t0, time.perf_counter())
                out.failed += 1
                out.errors.append((key, f"{type(exc).__name__}: {exc}"))
                out.statuses[key] = ["raised"]
            else:
                interval = (t0, time.perf_counter())
                out.statuses[key] = ["ok"]
                err = [np.abs(s - y) for s, y in zip(sim.outputs, ys)]
                if any(np.any(e > b + ENVELOPE_TOL) for e, b in zip(err, sim.bounds)):
                    out.problems.append(f"{key}: simulated output outside its certified envelope")
                if not np.all(np.isfinite(match.u)):
                    out.problems.append(f"{key}: matched input not finite")
                out.accuracy.append(float(max(np.max(e) for e in err)))
                out.fingerprints[key] = {
                    "y_sim": [s.tolist() for s in sim.outputs],
                    "u_match": match.u.tolist(),
                }
            out.wall.append(interval)
            out.ops.append(interval)
        return out


WORKLOADS = {w.name: w for w in (SwingUp, ConstrainedAL, OfflineIdentify)}
