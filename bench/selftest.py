"""Self-test of the benchmark's checker.

    python3 bench/selftest.py

Runs the pipeline once on the bundled example and once on a small ring
with computed certificates, confirms that the checker accepts both
results, then feeds it deliberately corrupted copies and confirms each one
is rejected:

* ``M`` halved in one certificate;
* one trajectory sample perturbed;
* a gain-matrix entry raised past the small-gain threshold;
* one digit of the exported CSV changed.

Exits 0 when every clean result passes and every corrupted one fails.
"""

import copy
import dataclasses
import json
import os
import shutil
import sys

import worker

import numpy as np


def _setup(modules, name, doc):
    work = os.path.join(worker.ROOT, ".bench_work", f"selftest-{name}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    op = worker.Operation(modules, work)
    with open(op.project_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    out = op()
    return op, out, worker.Checker(doc, name, modules, op)


def _perturbed_run(run, row, col, delta):
    states = run.concrete.states.copy()
    states[row, col] += delta
    concrete = dataclasses.replace(run.concrete, states=states)
    return dataclasses.replace(run, concrete=concrete)


def main() -> int:
    modules = worker._import_program()
    import check
    import workloads

    verdicts = []

    def expect(label, problems, should_fail):
        ok = bool(problems) == should_fail
        verdicts.append(ok)
        shown = problems[0] if problems else "no problem found"
        state = "rejected" if problems else "accepted"
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {state} ({shown})")

    # clean results
    op_demo, out_demo, checker_demo = _setup(modules, "demo", workloads.generate("demo", 0))
    expect("demo, clean", checker_demo(out_demo) + checker_demo.exact(out_demo), False)
    ring_doc = workloads.ring_project(np.random.default_rng(7), size=4)
    op, out, checker = _setup(modules, "ring", ring_doc)
    expect("ring of 4, clean", checker(out) + checker.exact(out), False)
    subs, results = checker.subs, out["results"]

    # M halved
    bad = copy.deepcopy(results)
    name = subs[1].name
    bad[name].simfn.M = 0.5 * bad[name].simfn.M
    expect("M halved", check.check_subsystem(subs[1], bad[name]), True)

    # one trajectory sample perturbed
    run = out["run"]
    row = len(run.times) // 2
    scale = float(np.max(np.abs(run.concrete.states)))
    bad_run = _perturbed_run(run, row, 0, 1e-3 * scale)
    expect("trajectory sample perturbed (exact propagation)",
           check.check_trajectory(subs, results, bad_run, checker.uhat(out), 1e-3), True)
    expect("trajectory sample perturbed (deviations)",
           check.check_run(subs, results, out["composed"], bad_run, out["report"], checker.uhat(out)), True)

    # a gain-matrix entry raised past the small-gain threshold: the ring's
    # radius is the geometric mean of its cycle gains, so raising one entry
    # by (1.5 / radius)^N lifts it to 1.5
    gm, path = out["gm"], out["path"]
    raise_by = (1.5 / path.rho_spec) ** len(subs)
    gamma = gm.gamma.copy()
    i, j = 1, 0
    gamma[i, j] *= raise_by
    bad_gm = dataclasses.replace(gm, gamma=gamma)
    expect("gain entry raised (gain matrices)",
           check.check_network(subs, results, bad_gm, path, out["composed"]), True)
    # the same entry raised at its source, consistently in the gains and Gamma
    bad = copy.deepcopy(results)
    gains = bad[subs[i].name].gains
    bad[subs[i].name].gains = dataclasses.replace(gains, mu=tuple(m * raise_by for m in gains.mu))
    problems = check.check_network(subs, bad, bad_gm, path, out["composed"])
    expect("gain entry raised (per-subsystem gain)",
           [p for p in problems if "spectral radius" in p or "strict" in p], True)

    # one CSV digit changed
    with open(op.csv_path, encoding="ascii") as fh:
        lines = fh.readlines()
    target = lines[len(lines) // 2]
    pos = max(k for k, ch in enumerate(target) if ch.isdigit() and ch != "0" and k < target.find(","))
    lines[len(lines) // 2] = target[:pos] + str((int(target[pos]) + 1) % 10) + target[pos + 1:]
    with open(op.csv_path, "w", encoding="ascii") as fh:
        fh.writelines(lines)
    expect("CSV digit changed", check.check_csv(op.csv_path, run), True)

    for item in (op_demo, op):
        shutil.rmtree(os.path.dirname(item.project_path), ignore_errors=True)
    passed = all(verdicts)
    print(f"self-test {'passed' if passed else 'FAILED'}: {sum(verdicts)} of {len(verdicts)} verdicts as expected")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
