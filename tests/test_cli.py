import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from ddnpc import cli, presets, trajlib

REFERENCE = Path(__file__).resolve().parents[1] / "configs" / "pendulum_reference.json"


def toy_config(tmp_path, **extra):
    cfg = {
        "plant": {"name": "scalar_flat"},
        "data": {"N": 60, "seed": 2},
        "dictionary": {"name": "flat_exact"},
        "box": {
            "u_lower": [-3.0], "u_upper": [3.0],
            "xi_lower": [-1.2, -1.2], "xi_upper": [1.2, 1.2],
            "grid_points": 7,
        },
        "noise": {"w_star": 0.0, "seed": 0},
        "ocp": {
            "mode": "nominal", "L": 8,
            "u_setpoint": [0.0], "y_setpoint": [0.0],
            "u_min": [-3.0], "u_max": [3.0],
        },
        "run": {"total_steps": 20, "seed": 0, "x0": [0.3, -0.2]},
    }
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg, indent=1))
    return path, cfg


def reference_config(tmp_path):
    cfg = json.loads(REFERENCE.read_text())
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg, indent=1))
    return path, cfg


def run_cli(args):
    return cli.main([str(a) for a in args])


def test_unknown_section_rejected(tmp_path):
    path, cfg = toy_config(tmp_path)
    cfg["mystery"] = {}
    path.write_text(json.dumps(cfg))
    assert run_cli(["collect", "--config", path, "--out-dir", tmp_path]) == cli.EXIT_CONFIG


def test_unknown_key_rejected(tmp_path):
    path, cfg = toy_config(tmp_path)
    cfg["ocp"]["typo_key"] = 1
    path.write_text(json.dumps(cfg))
    assert run_cli(["collect", "--config", path, "--out-dir", tmp_path]) == cli.EXIT_CONFIG


def spoil_first_input(path):
    """Write a non-numeric first input cell into the trajectory CSV ``path``."""
    lines = Path(path).read_text().splitlines()
    cells = lines[1].split(",")
    lines[1] = ",".join([cells[0], "abc", *cells[2:]])
    Path(path).write_text("\n".join(lines) + "\n")


def first_rows(path, rows):
    """A copy of the trajectory CSV ``path`` with its first ``rows`` samples
    only, beside it; returns the copy's path."""
    short = Path(path).with_name("short.csv")
    short.write_text("\n".join(Path(path).read_text().splitlines()[: rows + 1]) + "\n")
    return str(short)


@pytest.mark.parametrize(
    "command, make, edit, key",
    [
        ("collect", toy_config, lambda cfg: cfg["plant"].update(params={"bogus": 1}),
         "plant.params.bogus"),
        ("collect", reference_config, lambda cfg: cfg["plant"].update(params={"m1": 0.0}),
         "plant.params"),
        ("collect", reference_config, lambda cfg: cfg["data"].update(policy={"K": [[1.0]]}),
         "data.policy.K"),
        ("collect", toy_config, lambda cfg: cfg["data"].update(policy={"seed": 1}),
         "data.policy.seed"),
        ("collect", toy_config, lambda cfg: cfg["data"].update(policy={"kp": 1.0}),
         "data.policy.kp"),
        ("sweep", toy_config, lambda cfg: cfg.update(sweep={"values": [0.0], "seeds": [0]}),
         "sweep.vary"),
        ("sweep", toy_config, lambda cfg: cfg.update(sweep={"vary": "noise", "values": [0.0]}),
         "sweep.vary"),
        # keys only collect and the certificate read, and the files a sweep loads once
        ("sweep", toy_config, lambda cfg: cfg.update(sweep={"vary": "data.seed", "values": [0, 1]}),
         "sweep.vary 'data.seed'"),
        ("sweep", toy_config,
         lambda cfg: cfg.update(sweep={"vary": "box.grid_points", "values": [5, 7]}),
         "sweep.vary 'box.grid_points'"),
        ("sweep", toy_config,
         lambda cfg: cfg.update(sweep={"vary": "files.data", "values": ["a.csv", "b.csv"]}),
         "sweep.vary 'files.data'"),
        ("sweep", toy_config,
         lambda cfg: cfg.update(sweep={"vary": "noise.seed", "values": [1, 2]}),
         "sweep.vary 'noise.seed'"),
        ("sweep", toy_config,
         lambda cfg: cfg.update(sweep={"vary": "dictionary.perturbation", "values": [0.0, 0.1]}),
         "sweep.vary 'dictionary.perturbation'"),
        ("npc-run", toy_config, lambda cfg: cfg["ocp"].pop("u_setpoint"), "ocp.u_setpoint"),
        # a 7-state box on the 4-state pendulum
        ("collect", reference_config,
         lambda cfg: cfg["box"].update(xi_lower=[-1.0] * 7, xi_upper=[1.0] * 7), "box.xi_lower"),
        ("collect", toy_config, lambda cfg: cfg["box"].update(u_upper=[3.0, 3.0]), "box.u_upper"),
        ("collect", toy_config, lambda cfg: cfg["box"].update(u_lower=[3.0], u_upper=[-3.0]),
         "box: box bounds must satisfy lower < upper"),
        ("collect", toy_config, lambda cfg: cfg["box"].update(grid_points=1),
         "box: grid resolution must be at least 2"),
        ("npc-run", toy_config, lambda cfg: cfg["ocp"].update(mode="robustt"),
         "ocp: unknown mode"),
        ("npc-run", toy_config, lambda cfg: cfg["ocp"].update(mode="robust", slack_mode="exactt"),
         "ocp: unknown slack mode"),
        ("npc-run", toy_config, lambda cfg: cfg["ocp"].update(L=0), "ocp: horizon L"),
        ("npc-run", toy_config, lambda cfg: cfg["ocp"].update(mode="robust", L=1),
         "ocp: robust mode needs horizon"),
        ("npc-run", toy_config, lambda cfg: cfg["ocp"].update(u_setpoint=[5.0]),
         "ocp: input setpoint"),
        ("npc-run", toy_config, lambda cfg: cfg["ocp"].update(mode="robust", lambda_sigma=-1),
         "ocp: lambda_sigma"),
        ("npc-run", toy_config, lambda cfg: cfg["ocp"].update(mode="robust", lambda_alpha=-1),
         "ocp: lambda_alpha"),
        ("npc-run", toy_config, lambda cfg: cfg["ocp"].update(mode="robust", c_slack=-1),
         "ocp: c_slack"),
        # Hankel depths the 60 recorded samples cannot fill
        ("collect", toy_config, lambda cfg: cfg["ocp"].update(L=1000), "ocp.L"),
        ("npc-run", toy_config, lambda cfg: cfg["ocp"].update(L=1000), "ocp.L"),
        ("check-pe --order 1000", toy_config, lambda cfg: None, "--order"),
        ("simulate", toy_config, lambda cfg: cfg.update(simulate={"L": 1000}), "simulate.L"),
        ("npc-run", toy_config, lambda cfg: cfg["ocp"].update(stride=0), "ocp.stride"),
        # 3 does not divide the 20 steps
        ("npc-run", toy_config, lambda cfg: cfg["ocp"].update(stride=3), "ocp.stride"),
        ("npc-run", toy_config, lambda cfg: cfg["run"].update(total_steps=-2), "run.total_steps"),
        ("npc-run", toy_config, lambda cfg: cfg["ocp"].update(eps_inflation=-1),
         "ocp.eps_inflation"),
        # one entry on the 2-state toy
        ("simulate", toy_config, lambda cfg: cfg.update(simulate={"xi0": [0.0]}), "simulate.xi0"),
        # values of the wrong type
        ("npc-run", toy_config, lambda cfg: cfg["ocp"].update(L="ten"), "ocp.L"),
        ("npc-run", toy_config, lambda cfg: cfg["ocp"].update(lambda_alpha="abc"),
         "ocp.lambda_alpha"),
        ("npc-run", toy_config, lambda cfg: cfg["ocp"].update(c_slack=None), "ocp.c_slack"),
        ("npc-run", toy_config, lambda cfg: cfg["ocp"].update(stride="two"), "ocp.stride"),
        ("npc-run", toy_config, lambda cfg: cfg["run"].update(total_steps="x"), "run.total_steps"),
        ("npc-run", toy_config, lambda cfg: cfg["noise"].update(w_star="big"), "noise.w_star"),
        ("collect", toy_config, lambda cfg: cfg["data"].update(N="x"), "data.N"),
        ("simulate", toy_config, lambda cfg: cfg.update(simulate={"L": "x"}), "simulate.L"),
        # arrays of the wrong size on the 2-state, 1-channel toy
        ("npc-run", toy_config, lambda cfg: cfg["run"].update(x0=[0.3, -0.2, 0.1]), "run.x0"),
        ("npc-run", toy_config, lambda cfg: cfg["run"].update(x0=[0.3]), "run.x0"),
        ("npc-run", toy_config, lambda cfg: cfg["run"].update(hold_input=[0.0, 0.0]),
         "run.hold_input"),
        ("npc-run", toy_config, lambda cfg: cfg["run"].update(hold_input=None), "run.hold_input"),
        ("npc-run", toy_config, lambda cfg: cfg["run"].update(x0=[None, 0.1]), "run.x0"),
        ("npc-run", toy_config, lambda cfg: cfg["ocp"].update(Q=np.eye(2).tolist()), "ocp: Q"),
        ("npc-run", toy_config, lambda cfg: cfg["ocp"].update(R=[[1.0, 0.0]]), "ocp: R"),
        # files the commands read themselves; simulate.L and match.L default to 10
        ("check-pe", toy_config, lambda cfg: spoil_first_input(cfg["files"]["data"]),
         "files.data"),
        ("npc-run", toy_config,
         lambda cfg: Path(cfg["files"]["certificate"]).write_text("not json"),
         "files.certificate"),
        ("simulate", toy_config, lambda cfg: cfg.update(simulate={"u_file": "missing.csv"}),
         "simulate.u_file"),
        ("simulate", toy_config,
         lambda cfg: cfg.update(simulate={"u_file": first_rows(cfg["files"]["data"], 5)}),
         "simulate.u_file"),
        ("match-output", toy_config,
         lambda cfg: cfg.update(match={"y_file": first_rows(cfg["files"]["data"], 11)}),
         "match.y_file"),
        ("sweep", toy_config, lambda cfg: cfg.update(sweep={"vary": "ocp.L", "values": 5}),
         "sweep.values"),
    ],
    ids=[
        "plant_params", "plant_params_out_of_range", "pendulum_policy_K", "policy_seed",
        "toy_policy_kp", "sweep_without_vary", "sweep_vary_not_a_key", "sweep_vary_data_seed",
        "sweep_vary_box_grid_points", "sweep_vary_files_data", "sweep_vary_noise_seed",
        "sweep_vary_dictionary_perturbation", "no_u_setpoint",
        "box_states", "box_inputs", "box_lower_above_upper", "box_grid_points",
        "ocp_mode", "ocp_slack_mode", "ocp_L_zero", "ocp_robust_L_below_d_max",
        "ocp_u_setpoint_outside_box", "ocp_lambda_sigma_negative",
        "ocp_lambda_alpha_negative", "ocp_c_slack_negative",
        "collect_L_too_deep", "ocp_L_too_deep", "check_pe_order_too_deep", "simulate_L_too_deep",
        "ocp_stride_zero", "ocp_stride_not_a_divisor", "run_total_steps_negative",
        "ocp_eps_inflation_negative", "simulate_xi0_size",
        "ocp_L_text", "ocp_lambda_alpha_text", "ocp_c_slack_null", "ocp_stride_text",
        "run_total_steps_text", "noise_w_star_text", "data_N_text", "simulate_L_text",
        "run_x0_three_entries", "run_x0_one_entry", "run_hold_input_size",
        "run_hold_input_null", "run_x0_null_entry", "ocp_Q_shape",
        "ocp_R_shape", "check_pe_data_not_a_number", "npc_run_certificate_not_json",
        "simulate_u_file_missing", "simulate_u_file_short", "match_y_file_short",
        "sweep_values_not_a_list",
    ],
)
def test_config_error_names_the_key(tmp_path, capsys, command, make, edit, key):
    """A bad config value or flag exits with the config-error code and a
    message naming it. A later stage reads the run config that ``collect``
    writes, and the edit is made to that."""
    path, cfg = make(tmp_path)
    out = tmp_path / "out"
    args = command.split()
    if args[0] not in ("collect", "sweep"):
        assert run_cli(["collect", "--config", path, "--out-dir", out]) == cli.EXIT_OK
        path = out / "run_config.json"
        cfg = json.loads(path.read_text())
    edit(cfg)
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert run_cli([*args, "--config", path, "--out-dir", out]) == cli.EXIT_CONFIG
    assert key in capsys.readouterr().err


def test_seed_required(tmp_path):
    path, cfg = toy_config(tmp_path)
    del cfg["data"]["seed"]
    path.write_text(json.dumps(cfg))
    assert run_cli(["collect", "--config", path, "--out-dir", tmp_path]) == cli.EXIT_CONFIG


def test_missing_referenced_file(tmp_path):
    path, cfg = toy_config(tmp_path)
    cfg["files"] = {"data": "nope.csv"}
    path.write_text(json.dumps(cfg))
    assert run_cli(["check-pe", "--config", path, "--out-dir", tmp_path]) == cli.EXIT_CONFIG


def test_missing_certificate_actionable(tmp_path, capsys):
    path, cfg = toy_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli(["collect", "--config", path, "--out-dir", out]) == cli.EXIT_OK
    cfg["files"] = {"data": str(out / "data.csv")}
    path.write_text(json.dumps(cfg))
    code = run_cli(["npc-run", "--config", path, "--out-dir", out])
    captured = capsys.readouterr()
    assert code == cli.EXIT_CONFIG
    assert "collect" in captured.err


def test_collect_simulate_run_pipeline(tmp_path, capsys):
    path, cfg = toy_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli(["collect", "--config", path, "--out-dir", out]) == cli.EXIT_OK
    captured = capsys.readouterr()
    assert "excitation check" in captured.out
    assert (out / "data.csv").exists()
    assert (out / "certificate.json").exists()

    cfg["files"] = {
        "data": str(out / "data.csv"),
        "data_noisy": str(out / "data_noisy.csv"),
        "certificate": str(out / "certificate.json"),
    }
    cfg["simulate"] = {"L": 10, "xi0": [0.0, 0.0]}
    path.write_text(json.dumps(cfg))
    assert run_cli(["simulate", "--config", path, "--out-dir", out]) == cli.EXIT_OK
    sim_lines = (out / "simulation.csv").read_text().strip().splitlines()
    assert sim_lines[0] == "channel,k,y_hat,bound,y_true"
    # zero input from the origin: predictions, truth and bounds all zero
    for line in sim_lines[1:]:
        _, _, y_hat, bound, y_true = line.split(",")
        assert abs(float(y_hat)) < 1e-6
        assert abs(float(y_true)) < 1e-12
        assert float(bound) >= 0.0

    assert run_cli(["check-pe", "--config", path, "--out-dir", out]) == cli.EXIT_OK

    code = run_cli(["npc-run", "--config", path, "--out-dir", out])
    assert code == cli.EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["bound_violations"] == 0
    assert summary["all_inputs_in_box"]
    for counts in (summary["status_counts"], summary["path_counts"]):
        assert sum(counts.values()) == summary["solves"]
    assert set(summary["status_counts"]) == set(summary["statuses"])
    assert set(summary["path_counts"]) <= {"direct", "fallback", "al-gn", "held"}
    solve_ms = summary["solve_ms"]
    assert set(solve_ms) == {"p50", "p95", "max"}
    assert 0.0 < solve_ms["p50"] <= solve_ms["p95"] <= solve_ms["max"]
    assert (out / "log.csv").exists() and (out / "plot_data.csv").exists()
    lines = (out / "log.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    y_col = header.index("y_1")
    tail = [abs(float(line.split(",")[y_col])) for line in lines[-5:]]
    assert max(tail) < 1e-4
    # stride 1: one row per solve after the bootstrap rows, which name no path
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    solved = [row for row in rows if row["status"] != "bootstrap"]
    assert len(solved) == summary["solves"]
    assert {row["path"] for row in rows if row["status"] == "bootstrap"} == {""}
    assert Counter(row["path"] for row in solved) == summary["path_counts"]


def test_npc_run_files_agree_row_by_row(tmp_path):
    """``npc-run``'s files agree with each other. On a robust flat-toy run
    with stride 2, half of whose solves are held: each ``plot_data.csv`` row
    carries the ``t``, output, setpoint, input and ``J`` of its ``log.csv``
    row, channel 2 padded with 0 on this one-channel plant, and its
    ``bound`` is the largest ``bound_trace.csv`` bound with ``solve_t + k ==
    t``, 0 where a held solve left none."""
    path, cfg = toy_config(tmp_path)
    cfg["ocp"].update(mode="robust", stride=2, c_slack=1e-3)
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run_cli(["collect", "--config", path, "--out-dir", out]) == cli.EXIT_OK
    assert run_cli(["npc-run", "--config", out / "run_config.json", "--out-dir", out]) == 0

    def table(name):
        lines = (out / name).read_text().splitlines()
        return [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]

    log = {row["t"]: row for row in table("log.csv")}
    plot = table("plot_data.csv")
    bounds = {}
    for row in table("bound_trace.csv"):
        step = str(int(row["solve_t"]) + int(row["k"]))
        bounds.setdefault(step, []).append(float(row["bound"]))
    assert [row["t"] for row in plot] == [t for t in log if int(t) >= 0]
    for row in plot:
        want = log[row["t"]]
        assert (row["y_1"], row["u_1"], row["J"]) == (want["y_1"], want["u_1"], want["J"])
        assert float(row["y_1_set"]) == cfg["ocp"]["y_setpoint"][0]
        assert row["y_2"] == row["y_2_set"] == row["u_2"] == "0"
        assert float(row["bound"]) == max(bounds.get(row["t"], [0.0]))
    held = [row for row in log.values() if row["status"] == "bound-active"]
    assert held and 0 < len(bounds) < len(plot)


def test_npc_run_reruns_identical_but_for_solve_times(tmp_path):
    path, cfg = toy_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli(["collect", "--config", path, "--out-dir", out]) == cli.EXIT_OK
    cfg["files"] = {
        "data": str(out / "data.csv"),
        "certificate": str(out / "certificate.json"),
    }
    path.write_text(json.dumps(cfg))
    runs = [tmp_path / "a", tmp_path / "b"]
    for run in runs:
        assert run_cli(["npc-run", "--config", path, "--out-dir", run]) == cli.EXIT_OK
    for name in ("log.csv", "bound_trace.csv", "plot_data.csv"):
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()
    summaries = [json.loads((run / "summary.json").read_text()) for run in runs]
    for summary in summaries:
        assert summary.pop("solve_ms").keys() == {"p50", "p95", "max"}
        assert summary["blas_threads"] == int(os.environ["OPENBLAS_NUM_THREADS"])
    assert summaries[0] == summaries[1]


@pytest.mark.parametrize("given, pinned", [(None, "1"), ("2", "2")])
def test_cli_pins_blas_threads_before_numpy_loads(given, pinned):
    """Importing the entry point sets every BLAS thread variable to one before
    numpy loads, and keeps a count the caller set."""
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    script = (
        "import os, sys, ddnpc; loaded = 'numpy' in sys.modules; import ddnpc.cli; "
        "print(loaded, *(os.environ[v] for v in ddnpc.cli._THREAD_VARS))"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert out == ["False", pinned, "1", "1"]


def test_seed_override_replaces_the_run_seed(tmp_path):
    """``npc-run --seed-override k`` writes the log of the config whose
    ``run.seed`` is ``k``; with online noise, another seed writes another."""
    path, cfg = toy_config(tmp_path, noise={"w_star": 0.005, "seed": 0})
    out = tmp_path / "out"
    assert run_cli(["collect", "--config", path, "--out-dir", out]) == cli.EXIT_OK
    cfg["files"] = {
        "data": str(out / "data.csv"),
        "certificate": str(out / "certificate.json"),
    }
    path.write_text(json.dumps(cfg))
    seeded = tmp_path / "seeded.json"
    seeded.write_text(json.dumps(dict(cfg, run=dict(cfg["run"], seed=5))))
    runs = {name: tmp_path / name for name in ("override", "seeded", "unseeded")}
    assert run_cli(["npc-run", "--config", path, "--out-dir", runs["override"],
                    "--seed-override", 5]) == cli.EXIT_OK
    assert run_cli(["npc-run", "--config", seeded, "--out-dir", runs["seeded"]]) == cli.EXIT_OK
    assert run_cli(["npc-run", "--config", path, "--out-dir", runs["unseeded"]]) == cli.EXIT_OK
    logs = {name: (run / "log.csv").read_bytes() for name, run in runs.items()}
    assert logs["override"] == logs["seeded"]
    assert logs["override"] != logs["unseeded"]


def test_npc_run_without_solves_has_no_solve_statistics(tmp_path):
    path, cfg = toy_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli(["collect", "--config", path, "--out-dir", out]) == cli.EXIT_OK
    cfg["files"] = {
        "data": str(out / "data.csv"),
        "certificate": str(out / "certificate.json"),
    }
    cfg["run"]["total_steps"] = 0
    path.write_text(json.dumps(cfg))
    assert run_cli(["npc-run", "--config", path, "--out-dir", out]) == cli.EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["solves"] == 0
    assert summary["mean_iterations"] is None and summary["solve_ms"] is None


def test_check_pe_fails_on_constant_input(tmp_path):
    path, cfg = toy_config(tmp_path)
    out = tmp_path / "out"
    run_cli(["collect", "--config", path, "--out-dir", out])
    # overwrite the dataset with a constant-input run
    from ddnpc import plant, trajlib

    toy, st, phi = plant.make_scalar_flat()
    traj = plant.collect_offline_data(
        toy, lambda k, x: np.zeros(1), 60, st, plant.NoiseModel()
    )
    trajlib.write_trajectory_csv(out / "data.csv", traj.u, traj.outputs)
    trajlib.write_trajectory_csv(out / "data_noisy.csv", traj.u, traj.outputs)
    cfg["files"] = {
        "data": str(out / "data.csv"),
        "data_noisy": str(out / "data_noisy.csv"),
        "certificate": str(out / "certificate.json"),
    }
    path.write_text(json.dumps(cfg))
    assert run_cli(["check-pe", "--config", path, "--out-dir", out]) == cli.EXIT_ASSUMPTION
    # order 1 still holds on any nontrivial dataset
    path2 = tmp_path / "config2.json"
    path2.write_text(json.dumps(cfg))
    assert run_cli(["check-pe", "--config", path2, "--out-dir", out, "--order", "1"]) in (
        cli.EXIT_OK,
        cli.EXIT_ASSUMPTION,
    )


def test_match_output_self_consistency(tmp_path):
    path, cfg = toy_config(tmp_path)
    out = tmp_path / "out"
    run_cli(["collect", "--config", path, "--out-dir", out])
    from ddnpc import trajlib

    u, outputs = trajlib.read_trajectory_csv(out / "data.csv")
    ref = outputs[0][5 : 5 + 12]
    trajlib.write_trajectory_csv(out / "ref.csv", np.zeros((0, 1)), [ref])
    cfg["files"] = {
        "data": str(out / "data.csv"),
        "certificate": str(out / "certificate.json"),
    }
    cfg["match"] = {"L": 10, "y_file": str(out / "ref.csv")}
    path.write_text(json.dumps(cfg))
    assert run_cli(["match-output", "--config", path, "--out-dir", out]) == cli.EXIT_OK
    matched, _ = trajlib.read_trajectory_csv(out / "matched_input.csv") if False else (None, None)
    lines = (out / "matched_input.csv").read_text().strip().splitlines()[1:]
    u_hat = np.array([[float(v) for v in line.split(",")[1:]] for line in lines])
    np.testing.assert_allclose(u_hat, u[5:15], atol=1e-5)


def test_deterministic_reruns_byte_identical(tmp_path):
    path, cfg = toy_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(["collect", "--config", path, "--out-dir", out1]) == cli.EXIT_OK
    assert run_cli(["collect", "--config", path, "--out-dir", out2]) == cli.EXIT_OK
    for name in ("data.csv", "data_noisy.csv", "certificate.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_sweep_noise_levels_non_increasing(tmp_path):
    path, cfg = toy_config(tmp_path)
    out = tmp_path / "out"
    run_cli(["collect", "--config", path, "--out-dir", out])
    cfg["files"] = {
        "data": str(out / "data.csv"),
        "data_noisy": str(out / "data_noisy.csv"),
        "certificate": str(out / "certificate.json"),
    }
    cfg["ocp"]["mode"] = "robust"
    cfg["sweep"] = {"vary": "noise.w_star", "values": [0.01, 0.001, 0.0], "seeds": [0]}
    cfg["run"]["total_steps"] = 30
    path.write_text(json.dumps(cfg))
    assert run_cli(["sweep", "--config", path, "--out-dir", out]) == cli.EXIT_OK
    summary = json.loads((out / "sweep_summary.json").read_text())
    errs = summary["settled_errors"]
    assert errs[0] >= errs[1] >= errs[2] - 1e-12


def test_collect_warns_when_data_too_short(tmp_path, capsys):
    path, cfg = toy_config(tmp_path)
    cfg["data"]["N"] = 20  # below (r + 1)(L + d_max + n) - 1 = 47
    path.write_text(json.dumps(cfg))
    assert run_cli(["collect", "--config", path, "--out-dir", tmp_path / "o"]) in (
        cli.EXIT_OK,
        cli.EXIT_ASSUMPTION,
    )
    out = capsys.readouterr().out
    assert "below the excitation budget" in out


def test_collect_strict_box_violation(tmp_path):
    path, cfg = toy_config(tmp_path)
    cfg["box"]["xi_lower"] = [-0.001, -0.001]
    cfg["box"]["xi_upper"] = [0.001, 0.001]
    path.write_text(json.dumps(cfg))
    assert run_cli(
        ["collect", "--config", path, "--out-dir", tmp_path / "o", "--strict"]
    ) == cli.EXIT_ASSUMPTION


def test_collect_writes_the_assembly_collection(tmp_path):
    """``collect`` writes ``Experiment.collect``'s data. Its noise takes the
    config's ``noise.seed``, and ``10_000 + data seed`` where the config sets
    none."""
    from ddnpc import trajlib

    path, cfg = toy_config(tmp_path, noise={"w_star": 0.02, "seed": 5})
    out = tmp_path / "out"
    assert run_cli(["collect", "--config", path, "--out-dir", out]) == cli.EXIT_OK
    traj = presets.Experiment(cfg).collect(2, w_star=0.02, N=60)
    trajlib.write_trajectory_csv(tmp_path / "want.csv", traj.u, traj.outputs_noisy)
    assert (out / "data_noisy.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    bare = {key: value for key, value in cfg.items() if key != "noise"}
    explicit = dict(bare, noise={"w_star": 0.02, "seed": 10_002})
    noisy = [presets.Experiment(c).collect(2, w_star=0.02, N=60).outputs_noisy[0]
             for c in (bare, explicit)]
    np.testing.assert_array_equal(noisy[0], noisy[1])
    assert not np.array_equal(noisy[0], traj.outputs_noisy[0])


def test_simulate_emits_true_value_column(tmp_path):
    path, cfg = toy_config(tmp_path)
    out = tmp_path / "out"
    run_cli(["collect", "--config", path, "--out-dir", out])
    cfg["files"] = {
        "data": str(out / "data.csv"),
        "certificate": str(out / "certificate.json"),
    }
    cfg["simulate"] = {"L": 10, "xi0": [0.1, 0.12]}
    path.write_text(json.dumps(cfg))
    assert run_cli(["simulate", "--config", path, "--out-dir", out]) == cli.EXIT_OK
    lines = (out / "simulation.csv").read_text().strip().splitlines()
    assert lines[0] == "channel,k,y_hat,bound,y_true"
    for line in lines[1:]:
        _, _, y_hat, bound, y_true = line.split(",")
        assert abs(float(y_hat) - float(y_true)) <= float(bound) + 1e-6


@pytest.fixture(scope="module")
def pendulum_recorded(tmp_path_factory):
    """``ddnpc collect`` on the reference config: the output directory and
    the config with ``files`` pointing at the recorded data and certificate."""
    out = tmp_path_factory.mktemp("pendulum")
    path, cfg = reference_config(out)
    assert run_cli(["collect", "--config", path, "--out-dir", out]) == cli.EXIT_OK
    cfg["files"] = {
        "data": str(out / "data.csv"),
        "data_noisy": str(out / "data_noisy.csv"),
        "certificate": str(out / "certificate.json"),
    }
    return out, cfg


def _simulate(out, cfg, name, simulate):
    path = out / f"{name}.json"
    path.write_text(json.dumps(dict(cfg, simulate=simulate)))
    code = run_cli(["simulate", "--config", path, "--out-dir", out / name])
    return code, out / name / "simulation.csv"


@pytest.mark.parametrize("start", [0, 50])
def test_simulate_pendulum_on_a_window_of_the_recorded_data(pendulum_recorded, start):
    """``ddnpc simulate`` on the reference config, queried with the inputs
    of a window of the recorded data (``simulate.u_file``) from its window
    state. The true column, simulated from the plant state that
    ``Experiment.state_from_window`` rebuilds, is the recorded response,
    and every prediction lies within its bound of it. The data starts at
    the origin, so the window at step 0 takes the default ``xi0``."""
    out, cfg = pendulum_recorded
    lines = (out / "data.csv").read_text().splitlines()
    u_file = out / f"window_{start}.csv"
    u_file.write_text("\n".join([lines[0]] + lines[1 + start :]) + "\n")
    _, recorded = trajlib.read_trajectory_csv(out / "data.csv")
    simulate = {"L": 10, "u_file": str(u_file)}
    if start:
        simulate["xi0"] = [float(y[start + j]) for y in recorded for j in (0, 1)]
    code, csv_path = _simulate(out, cfg, f"simulate_{start}", simulate)
    assert code == cli.EXIT_OK
    rows = csv_path.read_text().strip().splitlines()[1:]
    assert len(rows) == 2 * (10 + 2)
    for row in rows:
        channel, k, y_hat, bound, y_true = row.split(",")
        assert abs(float(y_true) - recorded[int(channel) - 1][start + int(k)]) <= 1e-9
        assert abs(float(y_hat) - float(y_true)) <= float(bound) + 1e-6


def test_simulate_pendulum_default_query(pendulum_recorded):
    """With no ``simulate.u_file`` or ``xi0`` the query is zero torques from
    the zero window state, which lies outside the swing-up data; on the
    reference config it succeeds, and every prediction lies within its
    bound of the true response."""
    out, cfg = pendulum_recorded
    code, csv_path = _simulate(out, cfg, "simulate_default", {"L": 10})
    assert code == cli.EXIT_OK
    rows = csv_path.read_text().strip().splitlines()[1:]
    assert len(rows) == 2 * (10 + 2)
    for row in rows:
        _, _, y_hat, bound, y_true = row.split(",")
        assert abs(float(y_hat) - float(y_true)) <= float(bound) + 1e-6


def _reference_pair():
    """The reference config as the assembly reads it, and the reference
    preset, with the preset's receding-horizon problem on seed-0 data."""
    cfg = json.loads(REFERENCE.read_text())
    exp = presets.pendulum_experiment()
    blocks = exp.blocks(exp.dictionary(), exp.collect(seed=0))
    return cfg, presets.Experiment(cfg), exp, exp.ocp_spec(blocks, eps_star=1.0)


def test_reference_config_matches_the_reference_preset():
    """``configs/pendulum_reference.json`` states the preset's box, setpoint,
    start, weights, input limits, dictionary and noise bound exactly."""
    cfg, from_cfg, exp, spec = _reference_pair()
    dictionaries = (from_cfg.dictionary(), exp.dictionary())
    assert dictionaries[0].name == dictionaries[1].name
    assert dictionaries[0].estimates == dictionaries[1].estimates
    assert from_cfg.cfg["dictionary"]["seed"] == exp.cfg["dictionary"]["seed"]
    assert from_cfg.w_star == exp.w_star
    for name in ("u_lower", "u_upper", "xi_lower", "xi_upper"):
        np.testing.assert_array_equal(getattr(from_cfg.box, name), getattr(exp.box, name))
    assert from_cfg.box.grid_points == exp.box.grid_points
    np.testing.assert_array_equal(from_cfg.y_setpoint, exp.y_setpoint)
    np.testing.assert_array_equal(from_cfg.x0, exp.x0)
    for key in ("Q", "R", "u_min", "u_max"):
        np.testing.assert_array_equal(np.asarray(cfg["ocp"][key], dtype=float), getattr(spec, key))


def test_reference_config_u_setpoint_matches_the_reference_preset():
    _, from_cfg, exp, _ = _reference_pair()
    np.testing.assert_array_equal(from_cfg.u_setpoint, exp.u_setpoint)


@pytest.mark.parametrize("path", sorted(REFERENCE.parent.glob("*.json")), ids=lambda p: p.name)
def test_shipped_config_builds_an_experiment(path):
    """Every config in ``configs/`` loads and builds an experiment with a
    finite setpoint for each input and output channel."""
    exp = presets.Experiment(cli.load_config(path))
    for setpoint in (exp.u_setpoint, exp.y_setpoint):
        assert setpoint.shape == (exp.structure.m,)
        assert np.all(np.isfinite(setpoint))


def test_one_experiment_assembly():
    """``presets.Experiment`` is the one experiment class in ``src/ddnpc``
    and the one place in ``presets`` that builds a toy policy or collects
    data. The CLI names no plant: no ``"double_pendulum"`` literal, no
    pendulum policy, plant factory, hold torque or ``presets.PENDULUM_*``,
    no table of policy keys of its own, and no collection of its own. Nor
    does it assemble a closed loop: no certificate build, receding-horizon
    problem or loop of its own."""
    import ast

    package = Path(cli.__file__).parent
    classes = [
        (path.name, node.name)
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ClassDef) and "Experiment" in node.name
    ]
    assert classes == [("presets.py", "Experiment")]

    def names_in(*roots):
        nodes = [node for root in roots for node in ast.walk(root)]
        return (
            {node.id for node in nodes if isinstance(node, ast.Name)}
            | {node.attr for node in nodes if isinstance(node, ast.Attribute)}
            | {node.name for node in nodes if isinstance(node, ast.alias)}
        )

    body = ast.parse((package / "presets.py").read_text()).body
    experiment = [node for node in body if isinstance(node, ast.ClassDef) and node.name == "Experiment"]
    builders = {"StateFeedbackDitherPolicy", "collect_offline_data"}
    assert builders <= names_in(*experiment)
    assert not builders & names_in(*(node for node in body if node not in experiment))

    tree = ast.parse(Path(cli.__file__).read_text())
    names = names_in(tree)
    strings = [
        n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)
    ]
    assert not any("double_pendulum" in text for text in strings)
    assert not names & {
        "PendulumPdPolicy", "make_double_pendulum", "equilibrium_torque", "collect_offline_data",
        "run_closed_loop", "ocp_spec", "OcpSpec", "build_certificate",
    }
    assert not [name for name in names if name.startswith("PENDULUM_")]
    assert "_POLICY_KEYS" not in names
