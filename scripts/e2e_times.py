"""End-to-end wall times and peak memory of one checkout, printed as one JSON object.

    python3 scripts/e2e_times.py [--repo DIR]

Times, each in a fresh interpreter that imports assoclab from `src/` of
the checkout (the current directory unless --repo is given):

- `assoclab solve-pentagon --degree 8 -o FILE` (the default c2 = 1);
- `assoclab verify main --phi FILE` on that file;
- `assoclab verify hexagon --phi FILE` on that file, the model products,
  exp and inverse over the quadratic extension Q(mu);
- `assoclab dmr dims --max-degree 9`, the Lie-level path that spends its
  time in the exact echelon, and the same to degree 11, where the dmr_0
  rows and the echelon set the peak memory;
- `assoclab dims --engine generic --algebra p5 --max-degree 7`, the
  degreewise presentation engine (`presented.Presentation`), and the
  same for a4 to degree 6, whose time is in the exact echelon; then
  p5 to degree 8 and a4 to degree 7 (`dims_p5_large`, `dims_a4_large`),
  which a checkout before the relation basis of the engine runs for many
  minutes, so compare two checkouts on `dims_p5` and `dims_a4`;
- `assoclab dmr lemmas --degree 6`, the operator identities on the
  qualifying inputs (`dmr.qualifying_basis`);
- `assoclab dmr bracket --lhs psi3.series --rhs psi7.series --check`, the
  degree-10 Ihara bracket of the dmr_0 generators of degrees 3 and 7 and
  its membership test, which run both coproducts (`series.coproduct` and
  `yside.delta_star`) at degree 10; `dmr.solve_dmr0` writes the two
  inputs beforehand, untimed;
- the tier-1 suite, `python -m pytest -q --continue-on-collection-errors`.

Each entry holds the command, its exit code, its wall time in seconds,
its peak resident set size in MB (`ru_maxrss` from `os.wait4`) and the
last line of its output.  The scalar backend, the Python version and
the CPU count are recorded beside them.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time

DEGREE = 8
DMR_DEGREE = 9
DMR_DEGREE_LARGE = 11
P5_DEGREE = 7
A4_DEGREE = 6
P5_DEGREE_LARGE = 8
A4_DEGREE_LARGE = 7
LEMMAS_DEGREE = 6
BRACKET_DEGREES = (3, 7)
WRITE_PSI = """
import sys
from assoclab import dmr
from assoclab.series import to_text
for d in map(int, sys.argv[1:]):
    (psi,) = dmr.solve_dmr0(d)
    with open("psi%d.series" % d, "w") as fh:
        fh.write(to_text(psi))
"""


def timed(argv, cwd, env):
    """Run one command; its output goes to a file, so that os.wait4 can
    reap the process and read its peak resident set size."""
    with tempfile.TemporaryFile("w+") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable] + argv, cwd=cwd, env=env, stdout=log, stderr=subprocess.STDOUT
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        log.seek(0)
        lines = log.read().strip().splitlines()
    return {
        "command": " ".join(argv),
        "exit": proc.returncode,
        "wall_s": round(wall, 2),
        "maxrss_mb": round(usage.ru_maxrss / 1024, 1),
        "last_line": lines[-1] if lines else "",
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repo", default=os.getcwd())
    args = parser.parse_args()
    repo = os.path.abspath(args.repo)
    src = os.path.join(repo, "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    backend = subprocess.run(
        [sys.executable, "-c", "from assoclab.rationals import QQ; print(QQ.__module__)"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()
    out = {
        "backend": backend,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "degree": DEGREE,
    }
    cli = ["-m", "assoclab.cli"]
    with tempfile.TemporaryDirectory() as tmp:
        out["solve_pentagon"] = timed(
            cli + ["solve-pentagon", "--degree", str(DEGREE), "-o", "phi.series"], tmp, env
        )
        out["verify_main"] = timed(cli + ["verify", "main", "--phi", "phi.series"], tmp, env)
        out["verify_hexagon"] = timed(cli + ["verify", "hexagon", "--phi", "phi.series"], tmp, env)
        out["dmr_dims"] = timed(cli + ["dmr", "dims", "--max-degree", str(DMR_DEGREE)], tmp, env)
        out["dmr_dims_large"] = timed(
            cli + ["dmr", "dims", "--max-degree", str(DMR_DEGREE_LARGE)], tmp, env
        )
        for key, algebra, degree in (
            ("dims_p5", "p5", P5_DEGREE), ("dims_a4", "a4", A4_DEGREE),
            ("dims_p5_large", "p5", P5_DEGREE_LARGE), ("dims_a4_large", "a4", A4_DEGREE_LARGE),
        ):
            out[key] = timed(
                cli + ["dims", "--engine", "generic", "--algebra", algebra, "--max-degree", str(degree)],
                tmp, env,
            )
        out["dmr_lemmas"] = timed(cli + ["dmr", "lemmas", "--degree", str(LEMMAS_DEGREE)], tmp, env)
        lhs, rhs = ("psi%d.series" % d for d in BRACKET_DEGREES)
        subprocess.run(
            [sys.executable, "-c", WRITE_PSI, *map(str, BRACKET_DEGREES)],
            cwd=tmp, env=env, check=True,
        )
        out["dmr_bracket"] = timed(
            cli + ["dmr", "bracket", "--lhs", lhs, "--rhs", rhs, "--check"], tmp, env
        )
    out["tier1"] = timed(
        ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"],
        repo, env,
    )
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
