"""Smoke test of the benchmark at tiny sizes; run from the repository root.

    python3 perfbench/smoke.py

Checks that BENCHMARK.json and run.py name the same workloads and
metrics, that every workload emits every named metric with its unit in
both modes, that the trace wraps every binding site, that the gate trips
on a deliberately perturbed series, and that the benchmark refuses to
run without the source tree.  Exits 1 on the first failure.
"""

import json
import os
import shutil
import subprocess
import sys

import run

ROOT = os.getcwd()
RUN = os.path.join(run.HERE, "run.py")


def bench(*args, cwd=ROOT):
    argv = [sys.executable, RUN, "--seconds", "1", "--size", "tiny", "--seed", "3", *args]
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None), proc


def expect(ok, what, detail=""):
    if not ok:
        raise SystemExit("smoke: FAILED %s\n%s" % (what, detail))
    print("smoke: ok", what)


def check_declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS),
           "BENCHMARK.json workloads match run.py")
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
           "BENCHMARK.json end_to_end matches run.py")
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER),
           "BENCHMARK.json per_layer matches run.py")
    expect(all(set(names) <= set(run.PER_LAYER_NAMES) for names in run.MOVES.values()),
           "MOVES names are per-layer metrics")


def check_tracer_binding_sites():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import tracer
    from assoclab import dmr, lab, models

    tracer.install()
    for where, name in ((lab, "check_pentagon"), (lab, "check_5cycle"), (lab, "substitute"),
                        (models, "substitute"), (dmr, "_solve_affine"), (lab, "_solve_affine")):
        expect(hasattr(getattr(where, name), "__wrapped__"),
               "tracer wraps %s.%s" % (where.__name__, name))


def check_workloads():
    for workload in sorted(run.WORKLOADS):
        for trace, declared in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            code, result, proc = bench("--workload", workload, "--trace", str(trace))
            expect(code == 0 and result is not None, "%s trace=%d exits 0" % (workload, trace),
                   proc.stdout[-3000:] + proc.stderr[-3000:])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   "%s trace=%d result keys" % (workload, trace))
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   "%s trace=%d all checks pass" % (workload, trace))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == dict(declared), "%s trace=%d emits every metric with its unit" % (
                workload, trace))


def check_gate_trips():
    code, result, _ = bench("--workload", "associator", "--trace", "0", "--fault")
    expect(code == 1 and result is not None and not result["correct"] and result["failed"] >= 1,
           "gate trips on a perturbed series")


def check_needs_source():
    bare = os.path.join(ROOT, ".perfbench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    code, result, _ = bench("--workload", "suites", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    expect(code != 0 and result is None, "refuses to run without src/assoclab")


if __name__ == "__main__":
    check_declared()
    check_tracer_binding_sites()
    check_gate_trips()
    check_needs_source()
    check_workloads()
