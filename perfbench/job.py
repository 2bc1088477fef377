"""One benchmark job, run in a fresh interpreter by run.py.

    python3 perfbench/job.py [--trace OUT.json] cli ARGS...
    python3 perfbench/job.py [--trace OUT.json] hopf SEED CASES TRIPLES

`cli` calls `assoclab.cli.main(ARGS)` exactly as the `assoclab` command
does and exits with its code.  `hopf` is the seeded library job: CASES
random series at truncation 5, half of them group-like and half with one
coefficient perturbed, on which the coproduct test, the Lie test of the
logarithm and `is_group_like` must all give the expected answer; then
TRIPLES associativity checks of the group law at truncation 4.  It
prints one JSON line and exits 1 on any disagreement.

With `--trace`, the wrappers of tracer.py are installed before the job
runs and their aggregates are written to OUT.json when it ends.
"""

import json
import random
import sys


def random_rational(rng, bound):
    from assoclab.rationals import qq

    return qq(rng.randint(-bound, bound), rng.randint(1, 4))


def random_group_like(rng, trunc, bound=3):
    """exp of a random rational combination of the Lyndon basis, degrees 1..trunc."""
    from assoclab.lie import lie_basis
    from assoclab.series import zero
    from assoclab.words import X_ALPHABET

    s = zero(X_ALPHABET, trunc)
    for d in range(1, trunc + 1):
        for _, e in lie_basis(X_ALPHABET, d, trunc):
            c = random_rational(rng, bound)
            if c != 0:
                s = s.add(e.scale(c))
    return s.exp()


def hopf(seed, cases, triples):
    from assoclab.rationals import qq
    from assoclab.series import Series, coproduct, is_group_like, is_lie, tensor_square
    from assoclab.lab import group_law
    from assoclab.words import X_ALPHABET

    rng = random.Random(seed)
    words = [w for d in range(2, 6) for w in X_ALPHABET.words_of_degree(d)]
    mismatches = []
    for case in range(cases):
        s = random_group_like(rng, 5)
        expected = case % 2 == 0
        if not expected:
            # one nonzero change to one coefficient of degree >= 2 breaks
            # the shuffle relation c(a)c(w') = sum over sh(a, w')
            w = rng.choice(words)
            delta = qq(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4))
            terms = dict(s.terms)
            terms[w] = terms.get(w, qq(0)) + delta
            s = Series(X_ALPHABET, 5, s.ring, terms)
        answers = (
            coproduct(s) == tensor_square(s),
            is_lie(s.log()),
            is_group_like(s),
        )
        if answers != (expected,) * 3:
            mismatches.append(["hopf", case, expected, list(answers)])
    for case in range(triples):
        a, b, c = (random_group_like(rng, 4) for _ in range(3))
        if group_law(group_law(a, b), c) != group_law(a, group_law(b, c)):
            mismatches.append(["group_law", case])
    print(json.dumps({"cases": cases, "triples": triples, "mismatches": mismatches}))
    return 1 if mismatches else 0


def reference():
    """Fixed pure-Python work that does not touch assoclab: the machine's pace."""
    from fractions import Fraction

    total, table = Fraction(0), {}
    for i in range(1, 20000):
        total += Fraction(i % 89 + 1, i % 97 + 1)
        table[(i % 211, i % 7)] = total
    return 0 if total > 0 and table else 1


def run(kind, args):
    if kind == "cli":
        from assoclab.cli import main

        return main(args)
    if kind == "hopf":
        return hopf(*(int(a) for a in args))
    if kind == "reference":
        return reference()
    raise SystemExit("unknown job kind %r" % kind)


def main(argv):
    trace_out = None
    if argv[:1] == ["--trace"]:
        trace_out, argv = argv[1], argv[2:]
    if trace_out is None:
        return run(argv[0], argv[1:])
    import tracer

    session = tracer.install()
    try:
        return run(argv[0], argv[1:])
    finally:
        session.dump(trace_out)


if __name__ == "__main__":
    code = main(sys.argv[1:])
    sys.stdout.flush()
    sys.exit(code)
