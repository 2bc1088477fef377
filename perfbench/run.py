"""The assoclab benchmark: user-shaped batch jobs, each in a fresh interpreter.

    python3 perfbench/run.py --workload associator --seed 1 --seconds 35 --trace 0

Run it from the root of a checkout; it imports assoclab from `src/` of
that checkout and nowhere else.  Each job is one `assoclab` command line
(through `assoclab.cli.main`) or one seeded library job, run to
completion in its own process, one at a time, so no job sees a cache a
previous job filled.  One iteration of a workload is a reference job
(fixed work that does not import assoclab) followed by the workload's
jobs; the run repeats iterations until `--seconds` would be exceeded.
Every exit code and report is checked exactly against the known answer.

With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics; `wall_ref` is the median over iterations of the
iteration time over the time of the reference job run just before it,
which cancels the slow periods of a shared machine.  With `--trace 1`
untraced and traced iterations alternate and the object holds the
per-layer metrics of the traced ones plus the tracing overhead.  Lines
before it are a readable report.  The exit code is 1 when a check
failed, 2 when the source tree is missing.
Scratch files and the trace spans go to `.perfbench_work/<workload>/`.
"""

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
JOB = os.path.join(HERE, "job.py")
HASHSEED = "0"
SETUP_STARTS = 15
JOB_TIMEOUT_S = 150

SIZES = {
    "full": {
        "degree": 5, "reject_degree": 4, "hexagon_degree": 4,
        "dmr_dims": 8, "lemmas": 5, "bar": 5, "p5": 5, "a4": 4,
        "hopf_cases": 10, "hopf_triples": 10,
    },
    "tiny": {
        "degree": 4, "reject_degree": 4, "hexagon_degree": 4,
        "dmr_dims": 5, "lemmas": 3, "bar": 3, "p5": 3, "a4": 3,
        "hopf_cases": 5, "hopf_triples": 5,
    },
}

END_TO_END = (
    ("wall_ref", "ref"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

_TIMES = ("s", "self_s", "dimension_s", "overhead_s")
_UNITS = {"hit_ratio": "ratio", "file_bytes": "bytes"}

PER_LAYER_NAMES = (
    "models.normalize.calls", "models.normalize.self_s",
    "models.normalize.terms_in", "models.normalize.terms_out",
    "models.mul.calls", "models.mul.self_s",
    "models.evaluate.calls", "models.evaluate.s",
    "models.exp.s", "models.inverse.s",
    "models.check_pentagon.s", "models.check_5cycle.s", "models.check_hexagons.s",
    "models.straighten_cache.a4.entries", "models.straighten_cache.p5.entries",
    "series.Series.mul.calls", "series.Series.mul.self_s",
    "series.substitute.calls", "series.substitute.self_s",
    "series.Series.exp.s", "series.Series.log.s",
    "series.coproduct.calls", "series.coproduct.self_s",
    "series.is_group_like.calls", "series.is_group_like.s",
    "series.from_text.s", "series.to_text.s", "series.file_bytes",
    "lab.pentagon_linear_map.calls", "lab.pentagon_linear_map.s",
    "lab.solve_affine.calls", "lab.solve_affine.s", "lab.solve_affine.rows",
    "lab.solve_affine.unknowns", "lab.solve_affine.rank",
    "lab.verify_theorem_main.s", "lab.verify_theorem_gamma.s",
    "lab.group_law.calls", "lab.group_law.s",
    "lie.lie_basis.calls", "lie.lie_basis.s", "lie.lie_basis.elements",
    "lie.bracketing.cache_entries", "lie.bracketing.hit_ratio",
    "yside.check_double_shuffle.s", "yside.phi_star.s",
    "yside.delta_star.calls", "yside.delta_star.self_s", "yside.delta_star.terms_out",
    "words.shuffle_words.cache_entries", "words.shuffle_words.hit_ratio",
    "rings.QuadElt.mul.calls",
    "presented.a4.dimension_s", "presented.p5.dimension_s",
    "presented.echelon.calls", "presented.echelon.self_s",
    "presented.echelon.rows_in", "presented.echelon.pivots_out",
    "presented.solve_pivots.s",
    "barcx.build_l2.calls", "barcx.build_l2.self_s", "barcx.l2_cache.entries",
    "barcx.check_integrability.calls", "barcx.check_integrability.s",
    "barcx.check_series_shuffle_bar.calls", "barcx.check_series_shuffle_bar.s",
    "barcx.BarElement.shuffle.calls", "barcx.BarElement.shuffle.self_s",
    "dmr.solve_dmr0.s", "dmr.solve_dmr0.self_s",
    "dmr.lemma_derivation_check.calls", "dmr.lemma_derivation_check.s",
    "dmr.lemma_coproduct_check.calls", "dmr.lemma_coproduct_check.s",
    "dmr.lemma_telescoping_check.calls", "dmr.lemma_telescoping_check.s",
    "dmr.qualifying_basis.s", "dmr.ihara_bracket.s", "dmr.is_dmr0.s",
    "runtime.gc.collections", "runtime.gc.s",
    "cli.emit.s",
    "trace.overhead_s",
)


def unit_of(name):
    stat = name.rsplit(".", 1)[1]
    if stat in _TIMES:
        return "s"
    return _UNITS.get(stat, "count")


PER_LAYER = tuple((name, unit_of(name)) for name in PER_LAYER_NAMES)

# Per-layer metrics that must be nonzero in a traced iteration of each
# workload: the layers each workload is meant to exercise.
MOVES = {
    "associator": (
        "models.normalize.calls", "models.mul.calls", "models.evaluate.calls",
        "models.check_pentagon.s", "models.check_5cycle.s",
        "models.straighten_cache.a4.entries", "models.straighten_cache.p5.entries",
        "series.Series.mul.calls", "series.substitute.calls", "series.Series.exp.s",
        "series.coproduct.calls", "series.is_group_like.calls",
        "series.from_text.s", "series.to_text.s", "series.file_bytes",
        "lab.pentagon_linear_map.calls", "lab.solve_affine.calls",
        "lab.verify_theorem_main.s", "lab.verify_theorem_gamma.s",
        "lie.lie_basis.calls", "lie.bracketing.cache_entries",
        "yside.check_double_shuffle.s", "yside.phi_star.s", "yside.delta_star.calls",
        "words.shuffle_words.cache_entries", "cli.emit.s",
    ),
    "hexagon": (
        "models.normalize.calls", "models.mul.calls", "models.evaluate.calls",
        "models.exp.s", "models.inverse.s", "models.check_hexagons.s",
        "models.straighten_cache.a4.entries",
        "series.Series.mul.calls", "series.substitute.calls",
        "series.from_text.s", "series.to_text.s", "series.file_bytes",
        "lab.pentagon_linear_map.calls", "lab.solve_affine.calls",
        "rings.QuadElt.mul.calls", "cli.emit.s",
    ),
    "suites": (
        "series.Series.log.s", "series.coproduct.calls", "series.is_group_like.calls",
        "series.from_text.s", "lab.solve_affine.calls", "lab.group_law.calls",
        "lie.lie_basis.calls", "lie.bracketing.cache_entries",
        "yside.delta_star.calls", "words.shuffle_words.cache_entries",
        "presented.a4.dimension_s", "presented.p5.dimension_s",
        "presented.echelon.calls", "presented.solve_pivots.s",
        "barcx.build_l2.calls", "barcx.l2_cache.entries",
        "barcx.check_integrability.calls", "barcx.check_series_shuffle_bar.calls",
        "barcx.BarElement.shuffle.calls",
        "dmr.solve_dmr0.s", "dmr.lemma_derivation_check.calls",
        "dmr.lemma_coproduct_check.calls", "dmr.lemma_telescoping_check.calls",
        "dmr.qualifying_basis.s", "dmr.ihara_bracket.s", "dmr.is_dmr0.s",
        "cli.emit.s",
    ),
}

KERNEL_DIMS = {3: 1, 4: 0, 5: 1, 6: 0, 7: 1}  # pentagon kernel per degree
A4_DIMS = [1, 6, 25, 90, 301, 966]
DMR_DIMS = [0, 1, 0, 1, 0, 1, 1, 1, 1]  # degrees 2..10


class Gate:
    """Exact correctness checks, counted."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, what, ok):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


class Runner:
    """Runs jobs one at a time in fresh interpreters and records each."""

    def __init__(self, root, work, gate):
        self.work = work
        self.gate = gate
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED=HASHSEED)
        self.trace_dir = None  # set while a traced iteration runs
        self.records = []  # (group, wall s, maxrss KB, trace file or None)
        self._n = 0

    def spawn(self, argv):
        """Run argv to completion; return (exit code, stdout, wall s, maxrss KB)."""
        self._n += 1
        out_path = os.path.join(self.work, "job%d.out" % self._n)
        err_path = os.path.join(self.work, "job%d.err" % self._n)
        with open(out_path, "w+") as out, open(err_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=out, stderr=err)
            killer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            text = out.read()
        os.unlink(out_path)
        if not os.path.getsize(err_path):
            os.unlink(err_path)  # a nonempty one stays for inspection
        return proc.returncode, text, wall, usage.ru_maxrss

    def job(self, group, kind, *args):
        argv = [sys.executable, JOB]
        trace_file = None
        if self.trace_dir and kind != "reference":
            trace_file = os.path.join(self.trace_dir, "%s-%d.json" % (group, self._n + 1))
            argv += ["--trace", trace_file]
        argv += [kind] + [str(a) for a in args]
        rc, text, wall, rss = self.spawn(argv)
        self.records.append((group, wall, rss, trace_file))
        return rc, text

    def cli(self, group, args, expect_rc=0):
        """Run one CLI command with --report json; gate exit code and status."""
        rc, text = self.job(group, "cli", *args, "--report", "json")
        name = " ".join(args)
        self.gate.check("%s: exit %s, want %d" % (name, rc, expect_rc), rc == expect_rc)
        try:
            report = json.loads(text)
        except ValueError:
            report = {}
        want = "pass" if expect_rc == 0 else "fail"
        self.gate.check("%s: status %r, want %r" % (name, report.get("status"), want),
                        report.get("status") == want)
        return report


def expect_checks(gate, name, report, keys):
    checks = report.get("checks", {})
    gate.check("%s: checks %r" % (name, checks), checks == {k: True for k in keys})


# -- series files -------------------------------------------------------


def read_terms(path):
    """Word -> Fraction table of a series file (the library's text format)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    terms = {}
    for ln in lines[2:]:
        word, _, coeff = ln[1:].partition('"')
        terms[word] = Fraction(coeff.strip())
    return lines[:2], terms


def write_terms(path, header, terms):
    with open(path, "w") as fh:
        fh.write("\n".join(header + ['"%s" %s' % (w, c) for w, c in terms.items()]) + "\n")


def words_of_degree(d):
    out = [""]
    for _ in range(d):
        out = [w + ("." if w else "") + x for w in out for x in ("X0", "X1")]
    return out


def perturbed_copy(src, dst, degree, rng):
    """src truncated to `degree` with one coefficient of degree 2..degree changed."""
    header, terms = read_terms(src)
    header = [header[0], "degree: %d" % degree]
    kept = {w: c for w, c in terms.items() if w == "1" or w.count(".") < degree}
    word = rng.choice([w for d in range(2, degree + 1) for w in words_of_degree(d)])
    delta = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4))
    kept[word] = kept.get(word, Fraction(0)) + delta
    write_terms(dst, header, {w: "%d/%d" % (c.numerator, c.denominator) for w, c in kept.items() if c})
    return word, delta


# -- workloads ----------------------------------------------------------


def kernel_dims(degree):
    return {str(d): n for d, n in KERNEL_DIMS.items() if d <= degree}


def associator(run, rng, size, fault):
    """solve-pentagon with c2 = 0, verify main and gamma, then a rejection."""
    gate, deg = run.gate, size["degree"]
    report = run.cli("solve", ["solve-pentagon", "--degree", str(deg), "--c2-zero", "-o", "phi.series"])
    gate.check("solve: kernel_dims %r" % report.get("kernel_dims"),
               report.get("kernel_dims") == kernel_dims(deg) and report.get("degree") == deg)
    _, terms = read_terms(os.path.join(run.work, "phi.series"))
    gate.check("solve: c_X0X1 must be 0", "X0.X1" not in terms)
    if fault:
        perturbed_copy(os.path.join(run.work, "phi.series"), os.path.join(run.work, "phi.series"),
                       deg, rng)
    report = run.cli("verify", ["verify", "main", "--phi", "phi.series"])
    expect_checks(gate, "verify main", report, ("pentagon_zero", "five_cycle_zero", "double_shuffle"))
    report = run.cli("verify", ["verify", "gamma", "--phi", "phi.series"])
    expect_checks(gate, "verify gamma", report, (
        "factorization", "log_gamma_matches_phi", "correction_is_inverse_gamma",
        "binomial_sums_on_lie_generators"))
    word, delta = perturbed_copy(os.path.join(run.work, "phi.series"),
                                 os.path.join(run.work, "bad.series"), size["reject_degree"], rng)
    report = run.cli("reject", ["verify", "main", "--phi", "bad.series"], expect_rc=1)
    gate.check("reject %s += %s: some check false" % (word, delta),
               not all(report.get("checks", {"": True}).values()))


def hexagon(run, rng, size, fault):
    """solve-pentagon with a seeded nonzero c2 = p/q, then verify hexagon."""
    gate, deg = run.gate, size["hexagon_degree"]
    c2 = Fraction(0)
    while c2.denominator < 5:  # no easy small-denominator draws
        c2 = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(5, 9))
    report = run.cli("solve", ["solve-pentagon", "--degree", str(deg), "--c2=%s" % c2, "-o", "phi.series"])
    gate.check("solve c2=%s: kernel_dims %r" % (c2, report.get("kernel_dims")),
               report.get("kernel_dims") == kernel_dims(deg) and report.get("degree") == deg)
    _, terms = read_terms(os.path.join(run.work, "phi.series"))
    gate.check("solve c2=%s: c_X0X1 = %s" % (c2, terms.get("X0.X1")), terms.get("X0.X1") == c2)
    report = run.cli("verify", ["verify", "hexagon", "--phi", "phi.series"])
    expect_checks(gate, "verify hexagon c2=%s" % c2, report, ("hexagon_one_zero", "hexagon_two_zero"))


def suites(run, rng, size, fault):
    """dmr, dims, bar and Hopf suites; no call into models or the pentagon solver."""
    gate = run.gate
    top = size["dmr_dims"]
    report = run.cli("dmr", ["dmr", "dims", "--max-degree", str(top)])
    want = {str(d): n for d, n in zip(range(2, top + 1), DMR_DIMS)}
    gate.check("dmr dims %r" % report.get("dims"), report.get("dims") == want)
    report = run.cli("dmr", ["dmr", "lemmas", "--degree", str(size["lemmas"])])
    expect_checks(gate, "dmr lemmas", report,
                  ("derivation_identity", "coproduct_identity", "telescoping_identity"))
    report = run.cli("dmr", ["dmr", "bracket", "--lhs", "psi3.series", "--rhs", "psi5.series", "--check"])
    expect_checks(gate, "dmr bracket", report, ("bracket_is_lie", "bracket_in_double_shuffle"))
    gate.check("dmr bracket degree %r" % report.get("degree"), report.get("degree") == 8)
    report = run.cli("bar", ["bar", "shuffle", "--max-weight", str(size["bar"])])
    expect_checks(gate, "bar shuffle", report, ("series_shuffle_exhaustive",))
    for algebra, top, want in (
        ("p5", size["p5"], [3 ** (d + 1) - 2 ** (d + 1) for d in range(size["p5"] + 1)]),
        ("a4", size["a4"], A4_DIMS[: size["a4"] + 1]),
    ):
        report = run.cli("dims", ["dims", "--algebra", algebra, "--max-degree", str(top),
                                  "--engine", "generic"])
        gate.check("dims %s %r" % (algebra, report.get("dims")),
                   report.get("dims") == {str(d): n for d, n in enumerate(want)})
    cases, triples = size["hopf_cases"], size["hopf_triples"]
    rc, text = run.job("hopf", "hopf", rng.randrange(2 ** 31), cases, triples)
    try:
        result = json.loads(text)
    except ValueError:
        result = {}
    gate.check("hopf: exit %s, %s" % (rc, text.strip()[-200:]),
               rc == 0 and result == {"cases": cases, "triples": triples, "mismatches": []})


WORKLOADS = {"associator": associator, "hexagon": hexagon, "suites": suites}


def prepare(workload, run):
    """Inputs that do not depend on the seed: psi3 and psi5 for the bracket job."""
    if workload != "suites":
        return
    code = (
        "from assoclab import dmr\n"
        "from assoclab.series import to_text\n"
        "for d in (3, 5):\n"
        "    (psi,) = dmr.solve_dmr0(d)\n"
        "    open('psi%d.series' % d, 'w').write(to_text(psi))\n"
    )
    rc, text, _, _ = run.spawn([sys.executable, "-c", code])
    if rc != 0:
        raise RuntimeError("preparing psi3/psi5 failed:\n" + text)


def probe(run, root):
    """Import assoclab once (this also writes its bytecode) and describe it."""
    code = (
        "import json, sys, assoclab.cli, assoclab.rationals as r\n"
        "print(json.dumps({'file': assoclab.cli.__file__, 'backend': r.QQ.__module__,"
        " 'python': sys.version.split()[0]}))\n"
    )
    rc, text, _, _ = run.spawn([sys.executable, "-c", code])
    if rc != 0:
        return None
    info = json.loads(text)
    src = os.path.join(root, "src", "assoclab")
    if os.path.dirname(os.path.realpath(info["file"])) != os.path.realpath(src):
        return None
    return info


def setup_time(run):
    """Median wall time of a fresh interpreter that imports assoclab.cli."""
    times = [run.spawn([sys.executable, "-c", "import assoclab.cli"])[2] for _ in range(SETUP_STARTS)]
    return statistics.median(times)


# -- metrics ------------------------------------------------------------


def per_iteration(records):
    """Sum the job records of one iteration by group, keeping each job's times."""
    out = {"wall_s": 0.0, "rss_kb": 0, "groups": {}, "jobs": [], "traces": []}
    for group, wall, rss, trace_file in records:
        if group == "reference":
            out["reference_s"] = wall
            continue
        out["wall_s"] += wall
        out["rss_kb"] = max(out["rss_kb"], rss)
        out["groups"][group] = out["groups"].get(group, 0.0) + wall
        out["jobs"].append(wall)
        if trace_file:
            out["traces"].append(trace_file)
    return out


def best_of(iterations):
    """Sum over the jobs of an iteration of each job's fastest run.

    Other tenants of a shared machine slow runs in bursts; the fastest of
    several runs of the same job is far steadier than their median,
    which the report prints alongside.
    """
    return sum(min(runs) for runs in zip(*(it["jobs"] for it in iterations)))


def layer_metrics(trace_files):
    """Per-layer metrics of one traced iteration from its jobs' trace files."""
    counters, peaks = {}, {}
    for path in trace_files:
        with open(path) as fh:
            data = json.load(fh)
        for k, v in data["counters"].items():
            counters[k] = counters.get(k, 0) + v
        for k, v in data["peaks"].items():
            peaks[k] = max(peaks.get(k, 0), v)
    out = {}
    for name in PER_LAYER_NAMES:
        if name.endswith(".hit_ratio"):
            base = name[: -len(".hit_ratio")]
            hits, misses = counters.get(base + ".hits", 0), counters.get(base + ".misses", 0)
            out[name] = hits / (hits + misses) if hits + misses else 0.0
        elif name.endswith(".dimension_s"):
            out[name] = counters.get(name[: -len("_s")] + ".s", 0.0)
        elif name in peaks:
            out[name] = peaks[name]
        else:
            out[name] = counters.get(name, 0)
    return out


def summary_line(name, values, unit):
    return "%-20s median %9.4f  max %9.4f  min %9.4f %s  n=%d" % (
        name, statistics.median(values), max(values), min(values), unit, len(values))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full",
                    help="problem sizes; 'tiny' is for the smoke test")
    ap.add_argument("--fault", action="store_true",
                    help="perturb the solved series before it is verified (the gate must trip)")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "assoclab", "cli.py")):
        print("error: no src/assoclab in %s; run from the repository root" % root, file=sys.stderr)
        return 2
    work = os.path.join(root, ".perfbench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    gate = Gate()
    run = Runner(root, work, gate)
    info = probe(run, root)
    if info is None:
        print("error: cannot import assoclab from %s/src" % root, file=sys.stderr)
        return 2
    size = SIZES[args.size]
    setup_s = setup_time(run)
    prepare(args.workload, run)
    run.records.clear()

    rng = random.Random(args.seed)
    body = WORKLOADS[args.workload]
    iterations = []  # (traced, per_iteration dict, seconds)
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = bool(args.trace) and len(iterations) % 2 == 1
        run.trace_dir = os.path.join(work, "trace%d" % len(iterations)) if traced else None
        if traced:
            os.makedirs(run.trace_dir)
        run.records = []
        start = time.perf_counter()
        rc, _ = run.job("reference", "reference")
        gate.check("reference job exit %d" % rc, rc == 0)
        try:
            body(run, rng, size, args.fault)
        except (OSError, ValueError) as exc:
            # a job left no usable output; counted, and the run stops here
            gate.check("%s iteration %d: %r" % (args.workload, len(iterations), exc), False)
            if not run.records:
                break
        iterations.append((traced, per_iteration(run.records), time.perf_counter() - start))
        if gate.failures:
            break
        kinds = {t for t, _, _ in iterations}
        if len(kinds) < 1 + args.trace:
            continue
        nxt = bool(args.trace) and len(iterations) % 2 == 1
        longest = max(s for t, _, s in iterations if t == nxt)
        if time.perf_counter() + longest > deadline:
            break

    plain = [it for t, it, _ in iterations if not t]
    if not plain:
        print("\n".join(["no iteration completed"] + gate.failures), file=sys.stderr)
        return 1
    lines = ["assoclab benchmark: workload=%s seed=%d size=%s trace=%d" % (
        args.workload, args.seed, args.size, args.trace),
        "backend=%s python=%s PYTHONHASHSEED=%s nproc=%d platform=%s" % (
        info["backend"], info["python"], HASHSEED, os.cpu_count() or 0, platform.machine()),
        "sizes: %s" % json.dumps(size, sort_keys=True),
        summary_line("setup_s", [setup_s], "s") + " (median of %d starts)" % SETUP_STARTS]
    lines.append(summary_line("iteration wall_s", [it["wall_s"] for it in plain], "s"))
    lines.append("%-20s %9.4f s (each job at its fastest of n)" % ("wall_s", best_of(plain)))
    lines.append(summary_line("reference job", [it["reference_s"] for it in plain], "s"))
    # Each iteration is timed against the reference job run just before
    # it, so a slow period of a shared machine slows both and cancels.
    ratios = [it["wall_s"] / it["reference_s"] for it in plain]
    wall_ref = statistics.median(ratios)
    lines.append(summary_line("wall_ref", ratios, "ref"))
    for group in plain[0]["groups"]:
        lines.append(summary_line(group + "_s", [it["groups"][group] for it in plain], "s"))
    peak_mb = max(it["rss_kb"] for it in plain) / 1024.0
    lines.append("%-20s %9.1f MB" % ("peak_rss_mb", peak_mb))
    with open(os.path.join(work, "iterations.json"), "w") as fh:
        json.dump([{"traced": t, "seconds": sec, "reference_s": it["reference_s"], "jobs": it["jobs"]}
                   for t, it, sec in iterations], fh)

    if args.trace:
        traced = [it for t, it, _ in iterations if t]
        layers = [layer_metrics(it["traces"]) for it in traced]
        metrics = {name: statistics.median(m[name] for m in layers) for name, _ in PER_LAYER}
        overhead = best_of(traced) - best_of(plain)
        metrics["trace.overhead_s"] = overhead
        for name in MOVES[args.workload]:
            gate.check("traced %s: %s is zero" % (args.workload, name), metrics[name] != 0)
        lines.append("traced iterations: %d, tracing overhead %.3f s per iteration" % (
            len(traced), overhead))
        for name, unit in PER_LAYER:
            lines.append("  %-44s %14.6g %s" % (name, metrics[name], unit))
        with open(os.path.join(work, "layers.json"), "w") as fh:
            json.dump(layers, fh, indent=1)
        units = dict(PER_LAYER)
    else:
        metrics = {
            "wall_ref": wall_ref,
            "peak_rss_mb": peak_mb,
            "setup_s": setup_s,
        }
        units = dict(END_TO_END)
    lines.append("checks: %d attempted, %d failed" % (gate.attempted, len(gate.failures)))
    lines.extend("  FAILED " + f for f in gate.failures)
    print("\n".join(lines))
    result = {
        "correct": not gate.failures,
        "attempted": gate.attempted,
        "failed": len(gate.failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result), flush=True)
    return 0 if not gate.failures else 1


if __name__ == "__main__":
    sys.exit(main())
