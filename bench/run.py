"""Benchmark of the heterognn package: one workload, one run, one JSON line.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload sweep-small --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the checkout; a directory without it
is refused with exit code 1. With ``--trace 0`` the last line of standard
output holds the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run, and the spans go to
``.bench_out/trace-<workload>-seed<seed>.npz``. Every run also writes its
result, with the environment it ran in, to ``.bench_out/``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "step_s.shallow": "s",
    "step_s.deep": "s",
    "peak_rss_mb": "MiB",
}


def cap_threads():
    """Cap BLAS/OpenMP pools at the CPUs this process may use (before numpy)."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def git_sha():
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_package():
    src = ROOT / "src"
    if not (src / "heterognn" / "__init__.py").is_file():
        sys.exit(f"error: no heterognn package under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import importlib.resources
    import heterognn
    from heterognn import autodiff, csbm, graphs, model, multiset, signed, training
    if Path(heterognn.__file__).resolve().parent != (src / "heterognn").resolve():
        sys.exit(f"error: imported heterognn from {heterognn.__file__}, not {src}")
    return {
        "autodiff": autodiff, "csbm": csbm, "graphs": graphs, "model": model,
        "multiset": multiset, "signed": signed, "training": training,
        "configs": importlib.resources.files("heterognn").joinpath("configs"),
    }


def environment(nproc):
    import numpy
    import scipy
    return {
        "git_sha": git_sha(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def median(values):
    return statistics.median(values) if values else float("nan")


def run(workload, pkg, seed, seconds, tracer):
    """Set up, warm up, then run passes until ``seconds`` would be exceeded.

    Each pass runs ``workload.setups_per_pass`` timed set-ups at a point the
    workload chooses, so set-up time is sampled across the whole run like
    everything else. A
    traced run alternates untraced and traced passes, so both sides of the
    overhead estimate see the same machine conditions; the per-layer
    numbers come from the traced passes alone.
    """
    from workloads import Runner

    runner = Runner()
    m = SimpleNamespace(setup_s=[], pass_s=[], untraced_pass_s=[],
                        traced_setups=0, traced_epochs=0)
    work_dir = OUT_DIR / f"inputs-{os.getpid()}"

    def timed_setups(count):
        if tracer:
            tracer.phase = 0
            m.traced_setups += count if tracer.installed else 0
        for _ in range(count):
            t0 = time.perf_counter()
            workload.setup(pkg)
            m.setup_s.append(time.perf_counter() - t0)
        if tracer:
            tracer.phase = 1

    def one_pass(state):
        runner.pass_seconds = 0.0
        workload.run_pass(pkg, runner, state,
                          lambda: timed_setups(workload.setups_per_pass))
        return runner.pass_seconds

    def traced_pass(state):
        m.untraced_pass_s.append(one_pass(state))
        epochs = runner.epochs
        tracer.install(pkg)
        try:
            seconds = one_pass(state)
        finally:
            tracer.uninstall()
        m.traced_epochs += runner.epochs - epochs
        return seconds

    try:
        workload.make_inputs(pkg, seed, str(work_dir))
        if tracer:
            tracer.install(pkg)
        try:
            timed_setups(workload.setups_per_pass - 1)
            if tracer:
                tracer.phase = 0
            state, secs = runner.call("set-up", lambda: workload.setup(pkg),
                                      workload.check_setup)
        finally:
            if tracer:
                tracer.uninstall()
        m.setup_s.append(secs)
        m.traced_setups += 1 if tracer else 0
        if state is None:
            sys.exit("error: set-up failed: " + "; ".join(runner.problems))

        workload.warm_up(pkg, runner, state)
        runner.reset_measurements()
        start = time.perf_counter()
        while True:
            m.pass_s.append(traced_pass(state) if tracer else one_pass(state))
            longest = max(m.pass_s) + max(m.untraced_pass_s, default=0.0)
            if time.perf_counter() - start + longest > seconds:
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return runner, m


def per_layer_values(tracer, m):
    """Per-layer metrics: per set-up for set-up spans, per pass otherwise."""
    from spans import REPORTED_SPANS, time_metric_name

    seconds, calls = tracer.layer_totals({0: m.traced_setups, 1: len(m.pass_s)})
    values = {}
    for span in REPORTED_SPANS:
        values[time_metric_name(span)] = seconds.get(span, 0.0)
        values[span + ".calls"] = calls.get(span, 0.0)
    epochs = m.traced_epochs
    values["autodiff.tape_nodes"] = (tracer.counters[(1, "tape_nodes")] / epochs
                                     if epochs else 0.0)
    values["autodiff.recorded_mb"] = (tracer.counters[(1, "recorded_bytes")] / epochs
                                      / 2**20 if epochs else 0.0)
    values["csbm.sample_peak_mb"] = max(tracer.sample_peaks, default=0) / 2**20
    values["bench.trace_overhead_s"] = median(m.pass_s) - median(m.untraced_pass_s)
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = cap_threads()
    # numpy, imported by the package and by these modules, must load after
    # the thread caps are set
    pkg = load_package()
    from spans import Tracer, per_layer_metric_units
    from workloads import SHALLOW, DEEP, WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    tracer = Tracer() if args.trace else None
    runner, m = run(workload, pkg, args.seed, args.seconds, tracer)

    env = environment(nproc)
    details = {
        "passes": len(m.pass_s),
        "pass_s": m.pass_s,
        "steps_s": runner.steps,
        "setups": len(m.setup_s),
        **{k: median(v) for k, v in runner.notes.items()},
        **workload.report(),
    }
    if tracer:
        units = per_layer_metric_units()
        values = per_layer_values(tracer, m)
        details["untraced_pass_s"] = m.untraced_pass_s
        if m.traced_epochs:
            details["eval_tape_nodes_per_epoch"] = (
                tracer.counters[(1, "eval_tape_nodes")] / m.traced_epochs)
            details["eval_recorded_mb_per_epoch"] = (
                tracer.counters[(1, "eval_recorded_bytes")] / m.traced_epochs / 2**20)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.npz"
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(trace_path, {"setups": m.traced_setups, "passes": len(m.pass_s)})
        details["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        units = END_TO_END
        values = {
            "setup_s": median(m.setup_s),
            "run_s": median(m.pass_s),
            "step_s.shallow": median(runner.steps[SHALLOW]),
            "step_s.deep": median(runner.steps[DEEP]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in units.items()}
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "details": details, **result}
    out_path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=2) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"environment={json.dumps(env, sort_keys=True)}")
    for key, value in details.items():
        print(f"# {key} = {value}")
    for problem in runner.problems:
        print(f"# FAILED {problem}")
    print(f"# fail_ratio = {runner.failed} / {runner.attempted}")
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
