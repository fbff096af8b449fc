"""Command-line entry point.

Subcommands: ``collect`` (offline data plus certificate), ``check-pe``
(excitation report for a recorded dataset), ``simulate`` / ``match-output``
(data-driven simulation and tracking with certified bound columns),
``npc-run`` (closed-loop experiment) and ``sweep`` (fan out several runs).
Each subcommand reads the config, runs the experiment ``presets.Experiment``
builds and writes its files; per-plant facts, defaults and the loop live there.
Every experiment is described by one JSON config file with fixed sections and
mandatory seeds; reruns of the same config give byte-identical outputs, except
for the measured solve times (``solve_ms``) in ``npc-run``'s
``summary.json``. Exit codes:
0 success, 2 config error, 3 assumption violated (strict mode), 4 solver
failure.
"""

from __future__ import annotations

import os

# Results depend on the BLAS thread count: one thread, pinned before numpy
# loads, unless the caller set a count.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in _THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import csv  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from . import basis, behavior, npc, plant, presets, trajlib  # noqa: E402

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ASSUMPTION = 3
EXIT_SOLVER = 4

FLOAT_FMT = trajlib.FLOAT_FMT


ConfigError = presets.ConfigError


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

_SCHEMA = {
    "plant": {"name", "params"},
    "data": {"N", "seed", "policy"},
    "dictionary": {"name", "perturbation", "seed"},
    "box": {"u_lower", "u_upper", "xi_lower", "xi_upper", "grid_points"},
    "noise": {"w_star", "seed"},
    "ocp": {
        "mode", "L", "Q", "R", "u_setpoint", "y_setpoint", "u_min", "u_max",
        "y_min", "y_max", "lambda_alpha", "lambda_sigma", "slack_mode",
        "c_slack", "eps_inflation", "stride",
    },
    "run": {"total_steps", "seed", "x0", "hold_input"},
    "simulate": {"L", "lambda_alpha", "u_file", "xi0"},
    "match": {"L", "lambda_alpha", "y_file"},
    "files": {"data", "data_noisy", "certificate"},
    "sweep": {"vary", "values", "seeds"},
}


def load_config(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        cfg = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be an object")
    for section, content in cfg.items():
        if section not in _SCHEMA:
            raise ConfigError(f"{path}: unknown section '{section}'")
        if not isinstance(content, dict):
            raise ConfigError(f"{path}: section '{section}' must be an object")
        allowed = _SCHEMA[section]
        for key in content:
            if key not in allowed:
                raise ConfigError(f"{path}: unknown key '{section}.{key}'")
    for section in ("data", "noise", "run"):
        if section in cfg and "seed" not in cfg[section]:
            raise ConfigError(f"{path}: section '{section}' requires an explicit seed")
    if "files" in cfg:
        for key, value in cfg["files"].items():
            ref = (path.parent / value) if not Path(value).is_absolute() else Path(value)
            if not ref.exists():
                raise ConfigError(f"{path}: files.{key} does not exist: {ref}")
    return cfg


def _resolve(path, base: Path) -> Path:
    p = Path(path)
    return p if p.is_absolute() else base / p


# ---------------------------------------------------------------------------
# emission helpers
# ---------------------------------------------------------------------------


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [FLOAT_FMT % v if isinstance(v, float) else str(v) for v in row]
            )


def _blas_threads():
    """The BLAS thread count this process asks for: ``OPENBLAS_NUM_THREADS``,
    which OpenBLAS reads first. It is the count in use when ``ddnpc`` is the
    entry point, since the pin above runs before numpy loads."""
    value = os.environ["OPENBLAS_NUM_THREADS"]
    return int(value) if value.isdigit() else value


def _summary(path, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_collect(cfg, base, out_dir: Path, strict: bool) -> int:
    exp = presets.Experiment(cfg)
    traj = exp.collect(exp.setting("data.seed", int, 0), strict=strict)
    if not traj.stayed_in_box:
        print(f"warning: trajectory left the operating box at step {traj.first_violation}")
    dictionary = exp.dictionary()
    cert = exp.certificate()
    trajlib.write_trajectory_csv(out_dir / "data.csv", traj.u, traj.outputs)
    trajlib.write_trajectory_csv(out_dir / "data_noisy.csv", traj.u, traj.outputs_noisy)
    cert.save(out_dir / "certificate.json")

    order, pe = _excitation(exp, dictionary, traj)
    print(
        f"excitation check: order {order}, rank {pe.rank}/{pe.required_rank}, "
        f"smallest singular value {pe.sigma_min:.6g}"
    )
    lower_bound = (dictionary.r + 1) * order - 1
    if traj.N < lower_bound:
        print(
            f"warning: N = {traj.N} is below the excitation budget "
            f"(r + 1)(L + d_max + n) - 1 = {lower_bound}"
        )
    if exp.w_star == 0.0:
        print("noise bound is zero: noise-gain estimation skipped (identically zero)")
    print(f"eps_star = {cert.eps_star:.6g}")
    run_cfg = json.loads(json.dumps(cfg))
    run_cfg["files"] = {
        "data": str((out_dir / "data.csv").resolve()),
        "data_noisy": str((out_dir / "data_noisy.csv").resolve()),
        "certificate": str((out_dir / "certificate.json").resolve()),
    }
    with open(out_dir / "run_config.json", "w") as fh:
        json.dump(run_cfg, fh, indent=2, sort_keys=True)
    if strict and not pe.is_pe:
        return EXIT_ASSUMPTION
    return EXIT_OK


def _excitation(exp, dictionary, traj, order=None):
    """Excitation report of the recorded feature sequence (noisy window
    states) at ``order``, the ``--order`` flag; by default L + d_max + n, the
    order the controller of horizon ``ocp.L`` needs."""
    key = "--order"
    if order is None:
        key = "ocp.L"
        order = exp.L + exp.structure.d_max + exp.structure.n
    feats = basis.evaluate_along(dictionary, traj.u, traj.xi_noisy.data[: traj.N])
    with presets.depth_of(key):
        return order, trajlib.is_persistently_exciting(trajlib.Sequence(feats), int(order))


def _read_csv(key, path, base: Path):
    """The trajectory CSV that the config key ``key`` names; a missing or
    malformed file is a config error naming the key."""
    try:
        return trajlib.read_trajectory_csv(_resolve(path, base))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _load_trajectory(exp: presets.Experiment, cfg, base: Path):
    files = cfg.get("files", {})
    if "data" not in files:
        raise ConfigError("this command needs files.data (run collect first)")
    u, outputs = _read_csv("files.data", files["data"], base)
    noisy = outputs
    if "data_noisy" in files:
        _, noisy = _read_csv("files.data_noisy", files["data_noisy"], base)
    return plant.Trajectory(u, outputs, noisy, exp.structure)


def _load_certificate(cfg, base: Path):
    files = cfg.get("files", {})
    if "certificate" not in files:
        raise ConfigError(
            "this command needs files.certificate; produce one with collect"
        )
    try:
        return basis.ApproximationCertificate.load(_resolve(files["certificate"], base))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"files.certificate is not a certificate ({exc!r})") from None


def cmd_check_pe(cfg, base, out_dir, strict, order=None) -> int:
    exp = presets.Experiment(cfg)
    traj = _load_trajectory(exp, cfg, base)
    order, pe = _excitation(exp, exp.dictionary(), traj, order)
    print(
        f"order {order}: rank {pe.rank}, required {pe.required_rank}, "
        f"smallest singular value {pe.sigma_min:.6g} -> "
        + ("excitation holds" if pe.is_pe else "excitation FAILS")
    )
    return EXIT_OK if pe.is_pe else EXIT_ASSUMPTION


def _query(cfg, base, section):
    """A data-driven query's experiment, its config section, the window
    length ``L``, the blocks of depth ``L`` on the recorded data and the
    certificate's keyword arguments to the query."""
    exp = presets.Experiment(cfg)
    traj = _load_trajectory(exp, cfg, base)
    cert = _load_certificate(cfg, base)
    sec = cfg.get(section, {})
    L = exp.setting(f"{section}.L", int, 10)
    with presets.depth_of(f"{section}.L"):
        blocks = behavior.DataDictionaryBlocks.from_trajectory(exp.dictionary(), traj, horizon=L)
    return exp, sec, L, blocks, dict(
        eps_star=cert.eps_star, k_xi=cert.k_xi, g_row_norm=cert.g_inf_bound,
        **exp.settings(section, {"lambda_alpha": float}),
    )


def cmd_simulate(cfg, base, out_dir, strict) -> int:
    exp, sim_cfg, L, blocks, certified = _query(cfg, base, "simulate")
    if "u_file" in sim_cfg:
        u_new, _ = _read_csv("simulate.u_file", sim_cfg["u_file"], base)
        if u_new.shape[1] != exp.structure.m:
            raise ConfigError(
                f"simulate.u_file has {u_new.shape[1]} input channels; the plant has "
                f"{exp.structure.m}"
            )
        if len(u_new) < L:
            raise ConfigError(f"simulate.u_file has {len(u_new)} inputs; simulate.L needs {L}")
        u_new = u_new[:L]
    else:
        u_new = np.tile(np.zeros(exp.structure.m), (L, 1))
    n = exp.structure.n
    xi0 = exp.vector("simulate.xi0", n, np.zeros(n))
    result = behavior.simulate_data_driven(blocks, u_new, xi0, **certified)
    # oracle column: the window state determines the physical state, so the
    # true response is available whenever the plant model is configured
    x0 = exp.state_from_window(xi0)
    pad = np.vstack([u_new, np.zeros((exp.structure.d_max, exp.structure.m))])
    _, y_true = plant.simulate(exp.plant_model, x0, pad)
    rows = []
    for i, (y_hat, bound) in enumerate(zip(result.outputs, result.bounds)):
        for k in range(y_hat.size):
            rows.append(
                (i + 1, k, float(y_hat[k]), float(bound[k]), float(y_true[k, i]))
            )
    _write_csv(
        out_dir / "simulation.csv",
        ["channel", "k", "y_hat", "bound", "y_true"],
        rows,
    )
    print(f"combination norm {result.alpha_l1:.6g}, residual {result.residual_sq:.3e}")
    return EXIT_OK


def cmd_match(cfg, base, out_dir, strict) -> int:
    exp, m_cfg, L, blocks, certified = _query(cfg, base, "match")
    if "y_file" not in m_cfg:
        raise ConfigError("match needs match.y_file with the reference outputs")
    _, refs = _read_csv("match.y_file", m_cfg["y_file"], base)
    if len(refs) != exp.structure.m:
        raise ConfigError(
            f"match.y_file has {len(refs)} output channels; the plant has {exp.structure.m}"
        )
    for i, (y, d) in enumerate(zip(refs, exp.structure.degrees)):
        if y.size < L + d:
            raise ConfigError(
                f"match.y_file has {y.size} samples of output {i + 1}; match.L needs {L + d}"
            )
    refs = [y[: L + d] for y, d in zip(refs, exp.structure.degrees)]
    result = behavior.match_output_data_driven(blocks, refs, **certified)
    rows = []
    for k in range(L):
        rows.append(tuple([k] + [float(v) for v in result.u[k]]))
    _write_csv(
        out_dir / "matched_input.csv",
        ["k"] + [f"u_{i+1}" for i in range(exp.structure.m)],
        rows,
    )
    print(f"combination norm {result.alpha_l1:.6g}, residual {result.residual_sq:.3e}")
    return EXIT_OK


def cmd_npc_run(cfg, base, out_dir: Path, strict) -> int:
    exp = presets.Experiment(cfg)
    cert = _load_certificate(cfg, base)
    spec, eps_star, log = exp.closed_loop(_load_trajectory(exp, cfg, base), cert, exp.run_noise)
    m = spec.structure.m
    bound_rows = npc.evaluate_runtime_bounds(
        log, eps_star=eps_star, w_star=spec.w_star, k_xi=cert.k_xi, k_w=cert.k_w,
        g_norm_inf=cert.g_inf_bound,
    )
    _write_csv(
        out_dir / "bound_trace.csv",
        ["solve_t", "k", "channel", "realized", "bound"],
        [(int(t), int(k), int(i) + 1, float(r), float(b)) for t, k, i, r, b in bound_rows],
    )
    bound_by_step = {}
    for t, k, i, r, b in bound_rows:
        bound_by_step[t + k] = max(bound_by_step.get(t + k, 0.0), b)

    def two(v):  # plot_data.csv shows two channels, a missing one as 0
        return [float(x) for x in v[:2]] + [0.0] * (2 - len(v[:2]))

    # One pass over the log writes every step to log.csv and each step from
    # t = 0 on to plot_data.csv; the solve that planned step t >= 0 is
    # log.solves[t // stride].
    rows, plot_rows = [], []
    series = zip(log.times, log.inputs, log.outputs_measured, log.outputs_clean, log.stage_costs)
    for t, u, y_meas, y, stage_cost in series:
        solve = ["", "", "", "bootstrap", ""]
        if t >= 0:
            s = log.solves[t // log.stride]
            solve = [float(s.objective), float(s.alpha_l1), float(s.sigma_inf), s.status, s.path]
            plot_rows.append(
                (t, *two(y), *two(spec.y_setpoint), *two(u), solve[0],
                 float(bound_by_step.get(t, 0.0)))
            )
        rows.append((t, *map(float, u), *map(float, y_meas), *map(float, y), *solve, stage_cost))
    header = ["t", *(f"{name}_{i + 1}" for name in ("u", "y_meas", "y") for i in range(m)),
              "J", "alpha_l1", "sigma_inf", "status", "path", "stage_cost"]
    _write_csv(out_dir / "log.csv", header, rows)
    _write_csv(
        out_dir / "plot_data.csv",
        ["t", "y_1", "y_2", "y_1_set", "y_2_set", "u_1", "u_2", "J", "bound"],
        plot_rows,
    )

    settled = log.settled_error(last=min(50, len(log.times)))
    inputs = np.asarray(log.inputs)
    statuses = [s.status for s in log.solves]
    held = sum(1 for s in log.solves if not s.applied)
    # solver-tolerance slack: exact certificates give bounds below the
    # achievable constraint accuracy
    violations = sum(1 for t, k, i, r, b in bound_rows if r > b + 1e-6)
    solve_ms = 1e3 * np.array([s.wall_s for s in log.solves])
    percentiles = (("p50", 50), ("p95", 95), ("max", 100))
    _summary(
        out_dir / "summary.json",
        {
            "settled_error": settled,
            "mean_iterations": (
                float(np.mean([s.iterations for s in log.solves])) if log.solves else None
            ),
            "solves": len(log.solves),
            "held_steps": held,
            "statuses": sorted(set(statuses)),
            "status_counts": dict(Counter(statuses)),
            "path_counts": dict(Counter(s.path for s in log.solves)),
            "solve_ms": {
                key: float(np.percentile(solve_ms, q)) for key, q in percentiles
            } if log.solves else None,
            "bound_violations": violations,
            "blas_threads": _blas_threads(),
            "all_inputs_in_box": bool(
                np.all(inputs >= spec.u_min - 1e-12) and np.all(inputs <= spec.u_max + 1e-12)
            ),
        },
    )
    print(f"settled error {settled:.6g}, {held} held solves, {violations} bound violations")
    if held and strict:
        return EXIT_SOLVER
    return EXIT_OK


def cmd_sweep(cfg, base, out_dir: Path, strict) -> int:
    sweep_cfg = cfg.get("sweep")
    if not sweep_cfg:
        raise ConfigError("sweep needs a [sweep] section (vary, values, seeds)")
    vary, values = (presets.require(sweep_cfg, "sweep", key) for key in ("vary", "values"))
    section, _, key = str(vary).partition(".")
    if key not in _SCHEMA.get(section, ()):
        raise ConfigError(f"sweep.vary must name a config key 'section.key', not '{vary}'")
    if section in ("data", "box", "files", "dictionary") or vary == "noise.seed":
        # Only collect and the certificate read these keys, and the sweep
        # loads the recorded files once: every value would repeat one loop,
        # or build a swept dictionary's blocks against the recorded
        # certificate of the configured one.
        raise ConfigError(
            f"sweep.vary '{vary}' is read only by collect, the certificate or the sweep's "
            "one load of the recorded files; a sweep re-runs the loop on the recorded data "
            "and certificate"
        )
    seeds = sweep_cfg.get("seeds", [0])
    for name, value in (("values", values), ("seeds", seeds)):
        if not isinstance(value, list):
            raise ConfigError(f"sweep.{name} must be a list, not {value!r}")
    if not seeds:
        raise ConfigError("sweep.seeds must name at least one seed")
    exp = presets.Experiment(cfg)
    traj, cert = _load_trajectory(exp, cfg, base), _load_certificate(cfg, base)
    ordered = []  # the mean settled error of each value, by position
    for value in values:
        settled_by_seed = []
        for seed in seeds:
            sub = json.loads(json.dumps(cfg))
            sub.pop("sweep")
            sub.setdefault(section, {})[key] = value
            sub.setdefault("run", {})["seed"] = seed
            run_dir = out_dir / f"{vary.replace('.', '_')}_{value}_seed{seed}"
            run_dir.mkdir(parents=True, exist_ok=True)
            exp = presets.Experiment(sub)
            log = exp.closed_loop(traj, cert, exp.run_noise)[-1]
            settled = log.settled_error(last=min(50, len(log.times)))
            settled_by_seed.append(settled)
            _summary(
                run_dir / "summary.json", {"value": value, "seed": seed, "settled_error": settled}
            )
            print(f"{vary} = {value}, seed {seed}: settled error {settled:.6g}")
        ordered.append(float(np.mean(settled_by_seed)))
    _summary(
        out_dir / "sweep_summary.json",
        {"vary": vary, "values": values, "settled_errors": ordered},
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ddnpc",
        description="Data-driven nonlinear predictive control experiments",
    )
    parser.add_argument("command", choices=[
        "collect", "check-pe", "simulate", "match-output", "npc-run", "sweep",
    ])
    parser.add_argument("--config", required=True, help="JSON experiment config")
    parser.add_argument("--out-dir", default=".", help="output directory")
    parser.add_argument("--strict", action="store_true",
                        help="exit nonzero on any assumption-check failure")
    parser.add_argument("--seed-override", type=int, default=None,
                        help="replace the run seed from the config")
    parser.add_argument("--order", type=int, default=None,
                        help="excitation order for check-pe")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.seed_override is not None:
        cfg.setdefault("run", {})["seed"] = args.seed_override
    base = Path(args.config).resolve().parent
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    dispatch = {
        "collect": cmd_collect,
        "check-pe": lambda *a: cmd_check_pe(*a, order=args.order),
        "simulate": cmd_simulate,
        "match-output": cmd_match,
        "npc-run": cmd_npc_run,
        "sweep": cmd_sweep,
    }
    try:
        return dispatch[args.command](cfg, base, out_dir, args.strict)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (behavior.ConvergenceError, behavior.InfeasibleInitialConditionError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except plant.BoxViolationError as exc:
        print(f"assumption violated: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION


if __name__ == "__main__":
    sys.exit(main())
