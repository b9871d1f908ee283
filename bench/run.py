"""Benchmark of the simcompose pipeline on one workload.

    python3 bench/run.py --workload {demo,ring,wide} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  The run starts its worker processes one after another: a probe
that sets up and checks the trajectory against an exact propagation,
one more set-up sample, and the measuring process, which repeats the
pipeline for ``--seconds`` and checks every result (see README.md).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Lines before it
give the machine, the sample counts and, from 40 operations on, the p90.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("demo", "ring", "wide")

# One BLAS/OpenMP thread: steadier figures on a small shared machine, and
# the per-step loop the workloads stress is single-threaded anyway.
BLAS_THREADS = 1
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Set-up samples per run: the probe, SETUP_REPEATS more, and the measuring process.
SETUP_REPEATS = 1
# All workers of one run must end within this many seconds.
RUN_TIMEOUT_S = 170

END_TO_END = {"pipeline_s": "s", "certify_s": "s", "export_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Per-layer metrics that are not times in seconds.
PER_LAYER_UNITS = {
    "abstraction.calls": "count",
    "linalg.solve_lyapunov.calls": "count",
    "linalg.solve_lyapunov.kron_mb": "MB",
    "geometry.image_kernel.calls": "count",
    "simulate.state_steps_per_s": "1/s",
    "simulate.joint_states": "count",
    "simulate.steps": "count",
    "simulate.write_csv_mb": "MB",
    "trace.overhead_pct": "%",
}


def machine(threads: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "blas_threads": threads, "python": platform.python_version()}


def _worker(role, args, work, env, deadline) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", work]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{role} worker did not end within the run's {RUN_TIMEOUT_S} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{role} worker exited with {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(lines[-1])


def _summary(values) -> dict:
    values = sorted(values)
    row = {"mean": statistics.fmean(values), "median": statistics.median(values), "n": len(values)}
    if len(values) >= 40:
        row["p90"] = statistics.quantiles(values, n=10)[-1]
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="simcompose pipeline benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "simcompose", "__init__.py")):
        print(f"error: no simcompose sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    env = dict(os.environ)
    env.update({var: str(threads) for var in THREAD_VARIABLES})
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    work = os.path.join(ROOT, ".bench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        runs = [_worker("probe", args, work, env, deadline)]
        runs += [_worker("setup", args, work, env, deadline) for _ in range(SETUP_REPEATS)]
        main_run = _worker("measure", args, work, env, deadline)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    runs.append(main_run)

    setup_problems = [p for r in runs for p in r["problems"]]
    ops = main_run["ops"]
    failures = main_run["failures"]
    for line in setup_problems + failures:
        print(f"check failed: {line}", file=sys.stderr)
    ok_ops = [r for r in ops if r["ok"]]
    timed = [r for r in ok_ops if not r["traced"]]
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": {**machine(threads), **main_run["versions"]},
        "attempted": len(ops), "failed": len(ops) - len(ok_ops),
    }
    if args.trace == 0:
        samples = {k: [r[k] for r in timed] for k in ("pipeline_s", "certify_s", "export_s")}
        # Operation times are reported as means.  On a shared machine single
        # operations fall into a fast and a slow mode (demo: about 0.09 s and
        # 0.15 s); the median jumps between them as the mix shifts, the mean
        # moves in proportion.  The median is printed beside it.
        metrics = {name: statistics.fmean(v) for name, v in samples.items() if v}
        samples["setup_s"] = [r["setup_s"] for r in runs]
        metrics["setup_s"] = statistics.median(samples["setup_s"])
        metrics["peak_rss_mb"] = main_run["peak_rss_mb"]
        summary["samples"] = {name: _summary(v) for name, v in samples.items() if v}
        summary["per_operation"] = samples
        units = END_TO_END
    else:
        layers = main_run["layers"]
        metrics = {}
        if layers:
            metrics = {name: statistics.fmean(row[name] for row in layers) for name in layers[0]}
        metrics.update(main_run["sizes"])
        untraced = [r["pipeline_s"] for r in timed]
        if untraced and layers:
            base = statistics.fmean(untraced)
            metrics["trace.untraced_pipeline_s"] = base
            metrics["trace.overhead_pct"] = 100.0 * (metrics["trace.pipeline_s"] / base - 1.0)
        summary["samples"] = {"traced_ops": len(layers), "untraced_ops": len(untraced)}
        summary["missing_boundaries"] = main_run["missing_boundaries"]
        units = {name: PER_LAYER_UNITS.get(name, "s") for name in metrics}
    print(json.dumps(summary))
    correct = not setup_problems and bool(timed if args.trace == 0 else main_run.get("layers"))
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": len(ops) - len(ok_ops),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
