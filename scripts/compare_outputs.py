"""Run a fixed matrix of `assoclab` commands on two checkouts and compare.

    python3 scripts/compare_outputs.py OLD_TREE NEW_TREE

Each checkout runs the same commands, in the same order, in a fresh
interpreter that imports assoclab from its `src/`, with its own empty
working directory as the current directory, so paths in messages and
written files are the same relative names on both sides.  After each
command the script compares stdout, stderr, the exit code and every file
in the working directory; the first difference is printed and the script
exits 1.  Exit 0 means every output of the matrix is byte-identical.

Series files that later commands read are written by the matrix itself
(`solve-pentagon -o`, `group-law -o`, `dmr bracket -o`, and the dmr_0
generators of degrees 3 and 5 from `dmr.solve_dmr0`), so they are
compared before they are read.  The malformed inputs are fixed texts.
The matrix covers `solve-pentagon` with c2 = 1, 0 and -2/5 and rejected
arguments; the five `verify` checks on solved, perturbed, malformed,
zero-denominator, wrong-alphabet, constant-0 and missing files; `dims`
with both engines, and the generic engine on a4 to degree 6 and p5 to
degree 7; `dmr dims|lemmas|bracket`; `bar check|shuffle`, the exhaustive
shuffle to weights 6 and 7; `group-law`.
Each command runs with the text report and with `--report json`.
"""

import difflib
import os
import subprocess
import sys
import tempfile
from fractions import Fraction

WRITE_PSI = """
from assoclab import dmr
from assoclab.series import to_text
for d in (3, 5):
    (psi,) = dmr.solve_dmr0(d)
    with open("psi%d.series" % d, "w") as fh:
        fh.write(to_text(psi))
"""

# read by the last step only, so the verify steps above it stay as they were
Y_FILE = "y_above_weight.series"
FIXED_INPUTS = {
    "malformed.series": "alphabet: X0 X1\ndegree: 3\nnot a term\n",
    "no_header.series": '"1" 1/1\n',
    "zero_den.series": 'alphabet: X0 X1\ndegree: 2\n"1" 1/1\n"X0" 1/0\n',
    "wrong_alphabet.series": 'alphabet: Y1 Y2\ndegree: 2\n"1" 1/1\n',
    "constant0.series": 'alphabet: X0 X1\ndegree: 2\n"X0.X1" 1/2\n',
    "above_degree.series": 'alphabet: X0 X1\ndegree: 1\n"1" 1/1\n"X0.X1" 1/1\n',
    Y_FILE: 'alphabet: Y1 Y2\ndegree: 2\n"Y2.Y1" 1/1\n',
}


def perturbed(text):
    """The series text with 1/7 added to the coefficient of its last term."""
    lines = text.rstrip("\n").split("\n")
    word, _, coeff = lines[-1].rpartition(" ")
    c = Fraction(coeff) + Fraction(1, 7)
    lines[-1] = "%s %d/%d" % (word, c.numerator, c.denominator)
    return "\n".join(lines) + "\n"


def matrix():
    """The commands, in order: argument lists for `assoclab`, or a
    ("python", code) step, or a ("perturb", src, dst) step."""
    phis = ["phi6.series", "phi6z.series", "phi6q.series"]
    fixed = sorted(set(FIXED_INPUTS) - {Y_FILE})
    inputs = phis + ["phi6p.series", "phi7.series"] + fixed + ["missing.series"]
    steps = [
        ["solve-pentagon", "--degree", "6", "-o", "phi6.series"],
        ["solve-pentagon", "--degree", "6", "--c2-zero", "-o", "phi6z.series"],
        ["solve-pentagon", "--degree", "6", "--c2", "-2/5", "-o", "phi6q.series"],
        ["solve-pentagon", "--degree", "7", "-o", "phi7.series"],
        ["solve-pentagon", "--degree", "4", "--c2", "3/7"],
        ["solve-pentagon", "--degree", "0"],
        ["solve-pentagon", "--degree", "-1", "-o", "neg.series"],
        ["solve-pentagon", "--degree", "4", "--c2", "1/0"],
        ["solve-pentagon", "--degree", "4", "--c2", "abc"],
        ("perturb", "phi6.series", "phi6p.series"),
        ("python", WRITE_PSI),
    ]
    for what in ("main", "gamma", "hexagon", "5cycle", "double-shuffle"):
        steps += [["verify", what, "--phi", name] for name in inputs]
    for engine in ("model", "generic"):
        for algebra in ("a4", "p5"):
            steps.append(["dims", "--algebra", algebra, "--max-degree", "5", "--engine", engine])
        steps.append(["dims", "--algebra", "a4", "--max-degree", "-1", "--engine", engine])
    steps += [["dims", "--algebra", "a4", "--max-degree", "6", "--engine", "generic"],
              ["dims", "--algebra", "p5", "--max-degree", "7", "--engine", "generic"]]
    steps += [
        ["dmr", "dims", "--max-degree", "9"],
        ["dmr", "dims", "--max-degree", "-2"],
        ["dmr", "lemmas", "--degree", "5"],
        ["dmr", "lemmas", "--degree", "-1"],
        ["dmr", "bracket", "--lhs", "psi3.series", "--rhs", "psi5.series"],
        ["dmr", "bracket", "--lhs", "psi3.series", "--rhs", "psi5.series", "--check",
         "-o", "bracket.series"],
        ["dmr", "bracket", "--lhs", "phi6.series", "--rhs", "psi3.series", "--check"],
        ["dmr", "bracket", "--lhs", "missing.series", "--rhs", "psi3.series"],
        ["bar", "check", "--index", "3,1", "--tags", "x,y,xy"],
        ["bar", "check", "--index", "2,1", "--index-b", "1"],
        ["bar", "check", "--index", "2", "--tags", "z"],
        ["bar", "check", "--index", "0,1"],
        ["bar", "shuffle", "--index-a", "2,1", "--index-b", "1"],
        ["bar", "shuffle", "--max-weight", "6"],
        ["bar", "shuffle", "--max-weight", "-1"],
        ["bar", "shuffle", "--index-a", "2"],
        ["group-law", "--lhs", "phi6.series", "--rhs", "phi6z.series", "-o", "composed.series"],
        ["group-law", "--lhs", "phi6.series", "--rhs", "constant0.series"],
        ["group-law", "--lhs", "phi6.series", "--rhs", "wrong_alphabet.series"],
        ["group-law", "--lhs", "missing.series", "--rhs", "phi6.series"],
        # last, so the rest is compared first: before 0 was accepted here it exited 2
        ["bar", "shuffle", "--max-weight", "0"],
        # last, so the rest is compared first: --max-weight with the indices
        # used to drop the indices and pass; it now exits 2
        ["bar", "shuffle", "--max-weight", "2", "--index-a", "2", "--index-b", "1"],
        # last, so the rest is compared first: conflicting options used to
        # drop one of them (the value of --c2, the tags) and pass; they now exit 2
        ["solve-pentagon", "--degree", "4", "--c2-zero", "--c2", "5"],
        ["bar", "check", "--index", "2", "--index-b", "1", "--tags", "bogus"],
        # last, so the rest is compared first: a Y-alphabet file used to be
        # read with weights and fail on its degree; it now fails on its alphabet
        ["verify", "main", "--phi", Y_FILE],
        # last, so the rest is compared first: every quasi-shuffle of total
        # weight 7 through the series shuffle formula
        ["bar", "shuffle", "--max-weight", "7"],
    ]
    out = []
    for step in steps:
        if isinstance(step, list):
            out += [step, step + ["--report", "json"]]
        else:
            out.append(step)
    return out


def run(tree, work, step):
    """(exit code, stdout, stderr) of one step of the matrix in tree."""
    if step[0] == "perturb":
        with open(os.path.join(work, step[1])) as fh:
            text = perturbed(fh.read())
        with open(os.path.join(work, step[2]), "w") as fh:
            fh.write(text)
        return 0, b"", b""
    if step[0] == "python":
        argv = [sys.executable, "-c", step[1]]
    else:
        argv = [sys.executable, "-m", "assoclab.cli"] + step
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    proc = subprocess.run(argv, cwd=work, env=env, capture_output=True, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def files(work):
    out = {}
    for name in sorted(os.listdir(work)):
        with open(os.path.join(work, name), "rb") as fh:
            out[name] = fh.read()
    return out


def show(label, old, new):
    """A short unified diff of two byte strings."""
    lines = difflib.unified_diff(
        old.decode(errors="replace").splitlines(), new.decode(errors="replace").splitlines(),
        "old " + label, "new " + label, lineterm="", n=1,
    )
    for i, line in enumerate(lines):
        if i == 40:
            print("...")
            break
        print(line)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2 or not all(os.path.isdir(os.path.join(t, "src", "assoclab")) for t in argv):
        print("usage: compare_outputs.py OLD_TREE NEW_TREE (checkouts with src/assoclab)",
              file=sys.stderr)
        return 2
    old_tree, new_tree = argv
    steps = matrix()
    with tempfile.TemporaryDirectory() as old_work, tempfile.TemporaryDirectory() as new_work:
        for work in (old_work, new_work):
            for name, text in FIXED_INPUTS.items():
                with open(os.path.join(work, name), "w") as fh:
                    fh.write(text)
        for n, step in enumerate(steps, 1):
            label = " ".join(step) if isinstance(step, list) else step[0]
            old, new = run(old_tree, old_work, step), run(new_tree, new_work, step)
            diffs = [what for what, a, b in zip(("exit code", "stdout", "stderr"), old, new) if a != b]
            old_files, new_files = files(old_work), files(new_work)
            names = sorted(set(old_files) | set(new_files))
            diffs += ["file " + f for f in names if old_files.get(f) != new_files.get(f)]
            if diffs:
                print("step %d of %d differs: %s" % (n, len(steps), label))
                print("  in: " + ", ".join(diffs))
                if old[0] != new[0]:
                    print("  exit code %d -> %d" % (old[0], new[0]))
                for what, a, b in zip(("stdout", "stderr"), old[1:], new[1:]):
                    if a != b:
                        show(what, a, b)
                for f in names:
                    if old_files.get(f) != new_files.get(f):
                        show(f, old_files.get(f, b""), new_files.get(f, b""))
                return 1
            print("same  %s  (exit %d)" % (label, old[0]))
    print("%d steps, every output byte-identical" % len(steps))
    return 0


if __name__ == "__main__":
    sys.exit(main())
