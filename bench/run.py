"""ddnpc benchmark: one workload per invocation, closed loop, one client.

    python3 bench/run.py --workload swing_up --seed 1 --seconds 30 --trace 0

Run from the root of a ddnpc checkout; the package is imported from its
``src`` directory. With ``--trace 0`` the last line of standard output is a
JSON object with the end-to-end metrics, every time rescaled to the reference
host speed (see ``harness.HostSpeed``); with ``--trace 1`` it carries the
per-layer metrics of one traced set-up and pass, and the tracing overhead,
as measured.
Full results, trajectory fingerprints and spans go to ``.bench_out/``.
Exits 1 when an output check fails and 2 when the checkout has no ddnpc.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads: results depend on the BLAS thread count
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from harness import HostSpeed, Tracer, percentile  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPS = 3  # set-ups before the first pass; passes interleave more
SETUP_BURST = 2  # grid-kernel samples on each side of a set-up

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "solve_ms_p50": "ms",
    "solve_ms_p90": "ms",
    "identify_s": "s",
    "fail_frac": "ratio",
    "settle_peak_rad": "rad",
    "peak_rss_mb": "MB",
}


def git_sha(root: Path):
    """Commit of the checkout, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def same_results(a, b) -> bool:
    return a.statuses == b.statuses and a.fingerprints == b.fingerprints


def timed_setup(workload, tracer, speed, setups, identifies):
    """One set-up between two bursts of grid-kernel samples (``speed``);
    appends its interval and its identification interval. A set-up runs for
    up to a second with no sample inside it, so it is bracketed by several."""
    for _ in range(SETUP_BURST):
        speed.sample()
    t0 = time.perf_counter()
    setup = workload.setup(tracer)
    setups.append((t0, time.perf_counter()))
    identifies.append(setup.identify)
    for _ in range(SETUP_BURST):
        speed.sample()
    return setup


def run_untraced(workload, seconds: float, solve_speed, grid_speed):
    """``SETUP_REPS`` set-ups, then passes until ``seconds`` would be exceeded
    (but at least ``workload.PASSES``). The passes interleave further set-ups
    between panel members, so that set-ups are sampled across the whole run,
    and sample the solve kernel as they go."""
    tracer = Tracer(enabled=False)
    import layers

    setups, identifies = [], []
    with contextlib.ExitStack() as stack:
        layers.install(tracer, stack)
        for _ in range(SETUP_REPS):
            setup = timed_setup(workload, tracer, grid_speed, setups, identifies)
        between = functools.partial(timed_setup, workload, tracer, grid_speed, setups, identifies)
        passes = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            passes.append(workload.run_pass(setup, solve_speed, between))
            last = time.perf_counter() - t0
            if len(passes) >= workload.PASSES and time.perf_counter() - start + last > seconds:
                break
    return setup, setups, identifies, passes, tracer


def run_traced(workload):
    """One untraced pass, then a traced set-up and pass in the same process."""
    import layers

    quiet = Tracer(enabled=False)
    with contextlib.ExitStack() as stack:
        layers.install(quiet, stack)
        plain = workload.run_pass(workload.setup(quiet))
    tracer = Tracer(enabled=True)
    with contextlib.ExitStack() as stack:
        layers.install(tracer, stack)
        setup = workload.setup(tracer)
        traced = workload.run_pass(setup)
    return setup, plain, traced, tracer


def layer_metrics(tracer, plain, traced) -> dict:
    tot = tracer.totals()
    c = tracer.counts

    def s(name, key="s"):
        return tot.get(name, {}).get(key, 0.0)

    def calls(name):
        return tot.get(name, {}).get("calls", 0)

    n_cert = calls("basis.certificate")
    m = {
        "plant.step.calls": (calls("plant.step"), "count"),
        "plant.step.self_s": (s("plant.step", "self_s"), "s"),
        "plant.collect.s": (s("plant.collect"), "s"),
        "basis.certificate.s": (s("basis.certificate"), "s"),
        "basis.fit.s": (s("basis.fit"), "s"),
        "basis.lipschitz.s": (s("basis.lipschitz"), "s"),
        "basis.noise_gain.s": (s("basis.noise_gain"), "s"),
        "basis.norm_bound.s": (s("basis.norm_bound"), "s"),
        "basis.grid_passes": (c["basis.grid_passes"] / n_cert if n_cert else 0.0, "count"),
        "trajlib.hankel.calls": (calls("trajlib.hankel"), "count"),
        "trajlib.hankel.s": (s("trajlib.hankel"), "s"),
        "trajlib.pe_check.s": (s("trajlib.pe_check"), "s"),
        "behavior.blocks.s": (s("behavior.blocks"), "s"),
        "behavior.trf_self_s": (s("behavior.trf", "self_s"), "s"),
        "behavior.callback_s": (s("behavior.callback"), "s"),
        "solver.solve.calls": (calls("solver.solve"), "count"),
        "solver.solve.s": (s("solver.solve"), "s"),
        "solver.inner_iters": (c["solver.inner_iters"], "count"),
        "solver.gn.trf_self_s": (s("solver.gn.trf", "self_s"), "s"),
        "solver.lbfgs.self_s": (s("solver.lbfgs", "self_s"), "s"),
        "solver.callback_s": (s("solver.gn.callback") + s("solver.lbfgs.callback"), "s"),
        "npc.direct.calls": (calls("npc.direct"), "count"),
        "npc.direct.s": (s("npc.direct"), "s"),
        "npc.direct.nfev": (c["npc.direct.nfev"], "count"),
        "npc.direct.trf_self_s": (s("npc.direct.trf", "self_s"), "s"),
        "npc.direct.assembly_s": (s("npc.direct.callback", "self_s"), "s"),
        "npc.warm_start.s": (s("npc.warm_start"), "s"),
        "npc.build.s": (s("npc.build"), "s"),
        "npc.loop_self_s": (s("npc.loop", "self_s"), "s"),
        "trace.wall_s": (traced.wall_s(), "s"),
        "trace.overhead_s": (traced.wall_s() - plain.wall_s(), "s"),
    }
    for kind in ("value_batch", "jacobian_batch"):
        name = f"basis.{kind}"
        m[name + ".calls"] = (calls(name), "count")
        m[name + ".rows"] = (c[name + ".rows"], "count")
        m[name + ".self_s"] = (s(name, "self_s"), "s")
    for kind in ("simulate", "match"):
        name = f"behavior.{kind}"
        m[name + ".calls"] = (calls(name), "count")
        m[name + ".s"] = (s(name), "s")
        m[name + ".nfev"] = (c[name + ".nfev"], "count")
    for path in ("gn", "lbfgs"):
        m[f"solver.path.{path}"] = (c[f"solver.path.{path}"], "count")
    for status in ("converged", "max-iter", "infeasible-detected"):
        m[f"solver.status.{status}"] = (c[f"solver.status.{status}"], "count")
    for status in ("converged", "max-iter", "bound-active"):
        m[f"npc.direct.status.{status}"] = (c[f"npc.direct.status.{status}"], "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in sorted(m.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "ddnpc" / "__init__.py").is_file():
        print(f"error: no ddnpc package under {src}", file=sys.stderr)
        return 2
    t_import = time.perf_counter()
    sys.path.insert(0, str(src))
    import workloads  # noqa: E402  (imports numpy, scipy and ddnpc)

    import_interval = (t_import, time.perf_counter())
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed)

    if args.trace:
        setup, plain, traced, tracer = run_traced(workload)
        passes = [plain, traced]
        metrics = layer_metrics(tracer, plain, traced)
        errors = tracer.errors
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_jsonl(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        covered = metrics["npc.direct.s"]["value"] + metrics["plant.step.self_s"]["value"]
        extra = {"direct_plant_share": covered / traced.wall_s()}
    else:
        for kernel in (workloads.solve_kernel, workloads.grid_kernel):
            kernel()  # the first call is slower; it is not a sample
        solve_speed = HostSpeed(workloads.solve_kernel, workloads.SOLVE_KERNEL_REF_S,
                                every=workloads.KERNEL_EVERY)
        grid_speed = HostSpeed(workloads.grid_kernel, workloads.GRID_KERNEL_REF_S)
        setup, setups, identifies, passes, tracer = run_untraced(
            workload, args.seconds, solve_speed, grid_speed)
        errors = tracer.errors
        norm, grid_norm = solve_speed.normalise, grid_speed.normalise
        # Every pass runs the same operations in the same order. A host stall
        # only ever adds time, so an operation's latency is its least
        # rescaled time over the passes; the percentiles are over operations.
        latencies = [
            min(norm(*iv) for iv in timings) * 1e3
            for timings in zip(*(p.ops for p in passes), strict=True)
        ]
        accuracy = passes[0].accuracy
        values = {
            # Import time is given as measured: it is mostly loading and
            # linking, which neither kernel follows.
            "setup_s": (import_interval[1] - import_interval[0]
                        + statistics.median(grid_norm(*iv) for iv in setups)),
            "wall_s": statistics.median(p.wall_s(norm) for p in passes),
            "solve_ms_p50": percentile(latencies, 50),
            "solve_ms_p90": percentile(latencies, 90),
            "identify_s": statistics.median(grid_norm(*iv) for iv in identifies),
            "fail_frac": sum(p.failed for p in passes) / sum(p.attempted for p in passes),
            "settle_peak_rad": sum(accuracy) / len(accuracy),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        speeds = {"solve": solve_speed, "grid": grid_speed}
        extra = {
            "latency_samples": len(latencies),
            "kernel_samples": {k: len(v.starts) for k, v in speeds.items()},
            "slowdown_quartiles": {
                k: statistics.quantiles(v.slowdowns(), n=4) for k, v in speeds.items()
            },
            # every interval as measured, so that a result can be checked
            # or rescaled again without running again
            "clock": {
                "import": import_interval,
                "setups": setups,
                "identifies": identifies,
                "passes": [{"wall": p.wall, "ops": p.ops} for p in passes],
                "kernels": {k: list(zip(v.starts, v.ends)) for k, v in speeds.items()},
            },
        }

    problems = list(setup.problems)
    for p in passes:
        problems += p.problems
    if any(not same_results(passes[0], p) for p in passes[1:]):
        problems.append("repeated passes over the same panel gave different results")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    result = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        "passes": len(passes),
        "problems": problems,
        "errors": errors + [e for p in passes for e in p.errors],
        "statuses": passes[0].statuses,
        "fingerprints": passes[0].fingerprints,
        "metrics": metrics,
        **extra,
    }
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    details = ("workload", "environment", "passes", "problems", *extra)
    print(json.dumps({k: result[k] for k in details if k != "clock"}))
    for name, text in result["errors"]:
        print(f"error in {name}: {text}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
