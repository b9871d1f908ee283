"""One workload in one process: set up, run the timed loop, check every result.

Started by ``run.py``, never by hand.  The BLAS thread count is already
fixed in the environment when this process starts.  The last line of
standard output is one JSON object the parent reads.

Roles:

* ``probe`` sets up once (import, generate, write, warm-up operation),
  then checks the warm-up result, including the once-per-run comparison
  of the trajectory with an exact propagation, and writes the checked
  states for the measuring process.
* ``setup`` sets up once more and checks the warm-up result, for another
  sample of the set-up time.
* ``measure`` sets up the same way and then repeats the operation for
  ``--seconds``.  With ``--trace 1`` every second operation runs with the
  span recorder installed; the others give the untraced reference for
  the tracing overhead.
"""

import argparse
import gc
import hashlib
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _import_program():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import simcompose
    from simcompose import abstraction, cli, geometry, simulate

    if not os.path.abspath(simcompose.__file__).startswith(src + os.sep):
        raise ImportError(f"simcompose was imported from {simcompose.__file__}, not {src}")
    return {"cli": cli, "abstraction": abstraction, "geometry": geometry, "simulate": simulate}


class Operation:
    """One pass from the project file to a checked report and exported run.

    Every call goes through the module attribute, so a span wrapper
    installed on it is seen.
    """

    def __init__(self, modules, work):
        self.cli = modules["cli"]
        self.simulate = modules["simulate"]
        self.project_path = os.path.join(work, "project.json")
        self.csv_path = os.path.join(work, "trajectory.csv")
        self.gp_path = os.path.join(work, "trajectory.gp")

    def __call__(self) -> dict:
        cli, simulate = self.cli, self.simulate
        t0 = time.perf_counter()
        project = cli.load_project(self.project_path)
        results = cli.build_abstractions(project)
        gm, path, composed = cli.run_compose(project, results)
        t1 = time.perf_counter()
        sim = project.simulation
        uhat = cli.build_input_signal(project, results, sim.t_final)
        xhat0, x0 = cli.resolve_initial_states(project, results)
        run = simulate.refine_and_run(
            project.interconnection, results, composed, x0, xhat0, uhat,
            t_final=sim.t_final, dt=sim.dt,
        )
        report = simulate.bound_report(run, composed, gm, uhat)
        t2 = time.perf_counter()
        simulate.write_csv(self.csv_path, run)
        simulate.write_gnuplot(self.gp_path, os.path.basename(self.csv_path), run)
        t3 = time.perf_counter()
        # finish the write-back now, so it does not run during the next operation
        for exported in (self.csv_path, self.gp_path):
            with open(exported, "rb") as fh:
                os.fsync(fh.fileno())
        return {
            "certify_s": t1 - t0, "pipeline_s": t2 - t0, "export_s": t3 - t2,
            "project": project, "results": results, "gm": gm, "path": path,
            "composed": composed, "run": run, "report": report,
        }


class Checker:
    """Checks of one operation's outputs (see ``check.py``)."""

    def __init__(self, doc, workload, modules, op: Operation):
        # imported here, after set-up is timed: scipy is the checker's, not the program's
        import numpy as np

        import check

        self.np, self.check = np, check
        self.doc, self.workload, self.cli, self.op = doc, workload, modules["cli"], op
        self.subs = check.parse(doc)
        self.reference = None  # states of the run checked against the exact propagation
        self.verified_csv = None  # (table, digest) of the last CSV read back in full

    def uhat(self, out):
        widths = [out["results"][s.name].system.B.shape[1] for s in self.subs]
        return self.check.input_samples(self.doc, widths, out["run"].times)

    def __call__(self, out) -> list:
        check, np = self.check, self.np
        results, run = out["results"], out["run"]
        problems = []
        for sub in self.subs:
            problems += check.check_subsystem(sub, results[sub.name])
        problems += check.check_network(self.subs, results, out["gm"], out["path"], out["composed"])
        uhat = self.uhat(out)
        problems += check.check_run(self.subs, results, out["composed"], run, out["report"], uhat)
        if self.workload == "demo":
            _, _, published = self.cli.run_compose(
                out["project"], results,
                eta=np.array(check.PUBLISHED_ETA), epsilon=check.PUBLISHED_EPSILON,
            )
            problems += check.check_published(self.doc, self.subs, results, published)
        if self.reference is not None:
            states = np.hstack([run.abstract.states, run.concrete.states])
            if states.shape != self.reference.shape or np.max(np.abs(states - self.reference)) > 1e-12 * max(1.0, np.max(np.abs(self.reference))):
                problems.append("states differ from the run checked against the exact propagation")
        problems += self.check_csv(run)
        problems += check.check_gnuplot(self.op.gp_path, os.path.basename(self.op.csv_path))
        return problems

    def check_csv(self, run) -> list:
        """Read the CSV back in full, unless it is byte for byte a file that
        was read back in full and matched the same arrays."""
        table = self.check.expected_table(run)
        digest = hashlib.sha256()
        with open(self.op.csv_path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
        digest = digest.digest()
        if self.verified_csv is not None:
            verified_table, verified_digest = self.verified_csv
            if digest == verified_digest and self.np.array_equal(table, verified_table):
                return []
        problems = self.check.check_csv(self.op.csv_path, run)
        if not problems:
            self.verified_csv = (table, digest)
        return problems

    def exact(self, out) -> list:
        run = out["run"]
        return self.check.check_trajectory(
            self.subs, out["results"], run, self.uhat(out), float(self.doc["simulation"]["dt"])
        )


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _versions() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {"numpy": numpy.__version__, "scipy": scipy.__version__, "blas": openblas}


def _layers(tracer, ops, state_steps: int) -> list:
    """Per-operation layer figures of the traced operations."""
    import spans

    per_op = spans.summarize(tracer.spans)
    rows = []
    for record in ops:
        if not record["traced"] or not record["ok"]:
            continue
        totals = per_op.get(record["id"], {})

        def get(name, field="total_s"):
            t = totals.get(name)
            return getattr(t, field) if t is not None else 0

        run_s = get("simulate.refine_and_run")
        row = {
            "cli.load_project_s": get("cli.load_project"),
            "cli.build_abstractions_s": get("cli.build_abstractions"),
            "cli.run_compose_s": get("cli.run_compose"),
            "cli.inputs_s": get("cli.build_input_signal") + get("cli.resolve_initial_states"),
            "abstraction.build_abstraction_s": get("abstraction.build_abstraction"),
            "abstraction.build_abstraction.self_s": get("abstraction.build_abstraction", "self_s"),
            "abstraction.check_P_conditions_s": get("abstraction.check_P_conditions"),
            "abstraction.decay_certificate_s": get("abstraction.decay_certificate"),
            "abstraction.calls": get("abstraction.build_abstraction", "calls"),
            "linalg.solve_lyapunov_s": get("linalg.solve_lyapunov"),
            "linalg.solve_lyapunov.calls": get("linalg.solve_lyapunov", "calls"),
            "linalg.solve_lyapunov.kron_mb": get("linalg.solve_lyapunov", "kron_bytes") / 1e6,
            "linalg.stabilize_s": get("linalg.stabilize"),
            "geometry.image_kernel_s": get("geometry.image_kernel"),
            "geometry.image_kernel.calls": get("geometry.image_kernel", "calls"),
            "compose.gain_matrices_s": get("compose.gain_matrices"),
            "compose.small_gain_s": get("compose.small_gain"),
            "compose.compose_simfn_s": get("compose.compose_simfn"),
            "systems.build_monolithic_s": get("systems.build_monolithic"),
            "simulate.refine_and_run_s": run_s,
            "simulate.refine_and_run.self_s": get("simulate.refine_and_run", "self_s"),
            "simulate.state_steps_per_s": state_steps / run_s if run_s else 0.0,
            "simulate.bound_report_s": get("simulate.bound_report"),
            "simulate.write_csv_s": get("simulate.write_csv"),
            "simulate.write_gnuplot_s": get("simulate.write_gnuplot"),
            "trace.pipeline_s": record["pipeline_s"],
            "trace.remainder_s": record["pipeline_s"] - get("top"),
        }
        rows.append(row)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", choices=("probe", "setup", "measure"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    args = parser.parse_args(argv)
    os.makedirs(args.work, exist_ok=True)
    # one CPU for the whole process: no migrations mid-operation, and the
    # kernel's write-back of the exported files runs on another CPU
    pinned_cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {pinned_cpu})

    # set-up: what a user pays before the first result, minus interpreter start-up
    t0 = time.perf_counter()
    modules = _import_program()
    import workloads

    doc = workloads.generate(args.workload, args.seed)
    op = Operation(modules, args.work)
    with open(op.project_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    warm = op()
    setup_s = time.perf_counter() - t0

    checker = Checker(doc, args.workload, modules, op)
    problems = checker(warm)
    result = {"setup_s": setup_s, "problems": problems}
    reference_path = os.path.join(args.work, "reference.npy")
    np = checker.np
    if args.role == "probe":
        problems += checker.exact(warm)
        if not problems:
            np.save(reference_path, np.hstack([warm["run"].abstract.states, warm["run"].concrete.states]))
    if args.role != "measure":
        print(json.dumps(result))
        return 0

    if os.path.exists(reference_path):  # absent when the probe's checks failed
        checker.reference = np.load(reference_path)
    run = warm["run"]
    joint_states = run.abstract.states.shape[1] + run.concrete.states.shape[1]
    steps = len(run.times) - 1
    sizes = {
        "simulate.joint_states": joint_states,
        "simulate.steps": steps,
        "simulate.write_csv_mb": os.path.getsize(op.csv_path) / 1e6,
    }
    del warm, run

    import spans

    tracer = spans.Tracer(modules)
    ops, failures = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        index = len(ops)
        traced = bool(args.trace) and index % 2 == 1
        record = {"id": index, "traced": traced, "ok": False}
        tracer.op = index
        # start every operation from an empty collector, so garbage left by
        # the previous operation's checks is not collected on its clock
        gc.collect()
        if traced:
            tracer.install()
        try:
            out = op()
        except Exception as exc:  # a failed operation is counted, not fatal
            failures.append(f"operation {index}: {type(exc).__name__}: {exc}")
            out = None
        finally:
            tracer.remove()
        if out is not None:
            record.update({k: out[k] for k in ("certify_s", "pipeline_s", "export_s")})
            found = checker(out)
            failures += [f"operation {index}: {p}" for p in found]
            record["ok"] = not found
        ops.append(record)
        del out
        # a traced run needs one traced and one untraced operation at least
        if time.perf_counter() >= deadline and len(ops) >= 1 + args.trace:
            break

    result.update({
        "ops": ops,
        "failures": failures,
        "peak_rss_mb": _peak_rss_mb(),
        "sizes": sizes,
        "versions": {**_versions(), "pinned_cpu": pinned_cpu},
    })
    if args.trace:
        result["layers"] = _layers(tracer, ops, joint_states * steps)
        result["missing_boundaries"] = tracer.missing
        with open(os.path.join(args.work, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump([vars(s) for s in tracer.spans], fh)
    for path in (op.csv_path, op.gp_path):
        os.remove(path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
