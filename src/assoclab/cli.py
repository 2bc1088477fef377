"""Command-line front end.

Subcommands orchestrate the solvers and verifier suites and emit
deterministic reports.  Exit code 0 means every requested check passed
exactly, 1 means some check failed, 2 means malformed input, 3 means
the run ran out of memory.
"""

import argparse
import json
import sys

from . import __version__
from .rationals import parse_rational, qq
from .series import AlgebraError, Series, from_text, is_lie, to_text
from .words import X_ALPHABET


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--report",
        choices=("text", "json"),
        default=argparse.SUPPRESS,
        help="output format (default text)",
    )
    parser = argparse.ArgumentParser(
        prog="assoclab",
        description="Exact verification of associator identities at desk scale.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        kw.setdefault("parents", [common])
        return sub.add_parser(name, **kw)

    p = add_parser("solve-pentagon", help="solve the pentagon equation degreewise")
    p.add_argument("--degree", type=int, default=6)
    # no default for --c2: the group tells a given value from the default by identity
    c2 = p.add_mutually_exclusive_group()
    c2.add_argument("--c2-zero", action="store_true", help="normalize c_{X0X1} = 0")
    c2.add_argument("--c2", help="value of c_{X0X1} as p/q (default 1)")
    p.add_argument("-o", "--output", help="write the series file here")

    p = add_parser("verify", help="verify an identity for a series file")
    p.add_argument(
        "what", choices=("main", "gamma", "hexagon", "5cycle", "double-shuffle")
    )
    p.add_argument("--phi", required=True, help="series file over X0, X1")

    p = add_parser("dims", help="graded dimensions of the braid algebras")
    p.add_argument("--algebra", choices=("a4", "p5"), required=True)
    p.add_argument("--max-degree", type=int, default=5)
    p.add_argument(
        "--engine",
        choices=("model", "generic"),
        default="model",
        help="count straightened normal words or run the presentation engine",
    )

    p = add_parser("dmr", help="double shuffle Lie algebra tools")
    dsub = p.add_subparsers(dest="dmr_command", required=True)
    q = dsub.add_parser("dims", parents=[common], help="solution-space dimensions per degree")
    q.add_argument("--max-degree", type=int, default=5)
    q = dsub.add_parser("bracket", parents=[common], help="Ihara bracket of two Lie series")
    q.add_argument("--lhs", required=True)
    q.add_argument("--rhs", required=True)
    q.add_argument("--check", action="store_true", help="test membership of the result")
    q.add_argument("-o", "--output")
    q = dsub.add_parser("lemmas", parents=[common], help="operator identities on qualifying inputs")
    q.add_argument("--degree", type=int, default=5)

    p = add_parser("bar", help="bar-construction elements")
    bsub = p.add_subparsers(dest="bar_command", required=True)
    q = bsub.add_parser("check", parents=[common], help="build l-elements and check integrability")
    q.add_argument("--index", required=True, help="first index, e.g. 2,1")
    kind = q.add_mutually_exclusive_group()
    kind.add_argument("--index-b", help="second index for the two-variable elements")
    kind.add_argument(
        "--tags", help="comma-separated subset of x,y,xy (one-variable builders; default all)"
    )
    q = bsub.add_parser("shuffle", parents=[common], help="the series shuffle formula for bar elements")
    q.add_argument("--index-a", help="first index, e.g. 2,1")
    q.add_argument("--index-b", help="second index")
    q.add_argument(
        "--max-weight", type=int, help="exhaustive check over all pairs up to this weight"
    )

    p = add_parser("group-law", help="compose two group-like series")
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p.add_argument("-o", "--output")

    return parser


# -- helpers -------------------------------------------------------------


class InputError(ValueError):
    pass


def _load_series(path):
    """A series file over exactly X0 X1, as every command that reads one needs."""
    try:
        with open(path) as fh:
            s = from_text(fh.read())
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc))
    except (AlgebraError, ValueError, KeyError) as exc:
        raise InputError("malformed series file %s: %s" % (path, exc))
    if s.alphabet != X_ALPHABET:
        raise InputError(
            "series file %s is over %s, not X0 X1" % (path, " ".join(s.alphabet.names))
        )
    return s


def _parse_index(text):
    try:
        idx = tuple(int(t) for t in text.split(","))
    except ValueError:
        raise InputError("malformed index %r" % text)
    if not idx or any(n < 1 for n in idx):
        raise InputError("index entries must be positive: %r" % text)
    return idx


def _check_size(name, value):
    """A degree or weight bound must not be negative."""
    if value is not None and value < 0:
        raise InputError("negative %s %d" % (name, value))


# -- subcommands ---------------------------------------------------------


def cmd_solve_pentagon(args):
    from .lab import solve_pentagon

    try:
        c2 = qq(0) if args.c2_zero else parse_rational("1" if args.c2 is None else args.c2)
    except (ValueError, ZeroDivisionError):
        raise InputError("malformed rational %r" % args.c2)
    _check_size("degree", args.degree)
    result = solve_pentagon(args.degree, c2=c2)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(to_text(result["phi"]))
    checks = {"pentagon_solved": True}
    extras = {
        "degree": args.degree,
        "kernel_dims": {str(d): n for d, n in sorted(result["kernel_dims"].items())},
    }
    return checks, extras


def cmd_verify(args):
    phi = _load_series(args.phi)
    extras = {"degree": phi.trunc}
    if args.what == "main":
        from .lab import verify_theorem_main

        checks = verify_theorem_main(phi)
    elif args.what == "gamma":
        from . import dmr
        from .lab import verify_theorem_gamma

        checks = dict(verify_theorem_gamma(phi))
        ok = True
        for d in (3, 5):
            if d > phi.trunc:
                continue
            for psi in dmr.solve_dmr0(d):
                ok = ok and dmr.check_binomial_sums(psi)
        checks["binomial_sums_on_lie_generators"] = ok
        # meta_abelian supplies the constant 1 itself, so no check above reads phi's
        if phi.constant_term() != 1:
            checks = dict.fromkeys(checks, False)
    elif args.what == "hexagon":
        from .models import check_hexagons

        ok = [False, False]
        # the two sides' constant terms agree only when phi's is 1 (at 0 it has no inverse)
        if phi.constant_term() == 1:
            ok = [r.is_zero() for r in check_hexagons(phi)]
        checks = {"hexagon_one_zero": ok[0], "hexagon_two_zero": ok[1]}
    elif args.what == "5cycle":
        from .models import check_5cycle

        checks = {"five_cycle_zero": check_5cycle(phi).is_zero()}
    else:
        from .yside import check_double_shuffle

        checks = {"double_shuffle": check_double_shuffle(phi)}
    return checks, extras


def cmd_dims(args):
    _check_size("degree", args.max_degree)
    extras = {"algebra": args.algebra, "engine": args.engine}
    dims = {}
    if args.engine == "generic":
        from .presented import Presentation

        pres = Presentation.builtin(args.algebra)
        for d in range(args.max_degree + 1):
            dims[str(d)] = pres.dimension(d)
    else:
        from .models import a4_model, p5_model

        model = (a4_model if args.algebra == "a4" else p5_model)(args.max_degree)
        for d in range(args.max_degree + 1):
            dims[str(d)] = sum(
                1 for w in model.alphabet.words_of_degree(d) if model.is_normal(w)
            )
    extras["dims"] = dims
    return {"dims_computed": True}, extras


def cmd_dmr(args):
    from . import dmr

    if args.dmr_command == "dims":
        _check_size("degree", args.max_degree)
        dims = {
            str(d): len(dmr.solve_dmr0(d)) for d in range(2, args.max_degree + 1)
        }
        return {"dims_computed": True}, {"dims": dims}
    if args.dmr_command == "bracket":
        lhs = _load_series(args.lhs)
        rhs = _load_series(args.rhs)
        for path, s in ((args.lhs, lhs), (args.rhs, rhs)):
            if not is_lie(s):
                raise InputError("%s is not a Lie series" % path)
        total = lhs.trunc + rhs.trunc
        lhs, rhs = (Series(s.alphabet, total, s.ring, s.terms) for s in (lhs, rhs))
        out = dmr.ihara_bracket(lhs, rhs)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(to_text(out))
        in_dmr = args.check and dmr.is_dmr0(out)
        checks = {"bracket_is_lie": in_dmr or is_lie(out)}
        if args.check:
            checks["bracket_in_double_shuffle"] = in_dmr
        return checks, {"degree": out.trunc}
    # lemma suites over all qualifying inputs up to the requested weight
    _check_size("degree", args.degree)
    checks = {}
    top = args.degree
    trunc = top + 3
    from .lie import lie_basis

    ok = True
    for d in range(2, top + 1):
        for _, f in lie_basis(X_ALPHABET, d, trunc):
            for n in range(1, trunc - d + 1):
                ok = ok and dmr.lemma_derivation_check(f, n)
    checks["derivation_identity"] = ok
    ok9 = ok8 = True
    for w in range(1, top + 1):
        for g in dmr.qualifying_basis(w, trunc):
            section = dmr.qualifying_section(g)
            for n in range(1, trunc - w + 1):
                ok9 = ok9 and dmr.lemma_coproduct_check(section, n)
            for k in range(w + 1):
                ok8 = ok8 and dmr.lemma_telescoping_check(section, k)
    checks["coproduct_identity"] = ok9
    checks["telescoping_identity"] = ok8
    return checks, {"degree": top}


def cmd_bar(args):
    from . import barcx
    from .yside import all_indices

    if args.bar_command == "check":
        a = _parse_index(args.index)
        checks = {}
        if args.index_b:
            b = _parse_index(args.index_b)
            e = barcx.build_l2(a, b)
            checks["two_variable_integrable"] = barcx.check_integrability(e)
            checks["two_variable_swapped_integrable"] = barcx.check_integrability(
                barcx.build_l2_yx(a, b)
            )
        else:
            tags = [t for t in ("x,y,xy" if args.tags is None else args.tags).split(",") if t]
            if not tags:
                raise InputError("no tag in %r" % args.tags)
            for tag in tags:
                if tag not in ("x", "y", "xy"):
                    raise InputError("unknown tag %r" % tag)
                e = barcx.build_l(a, tag)
                checks["l_%s_integrable" % tag] = barcx.check_integrability(e)
        return checks, {"index": list(a)}
    # shuffle
    _check_size("weight", args.max_weight)
    top = args.max_weight
    if top is not None:
        if args.index_a is not None or args.index_b is not None:
            raise InputError("--max-weight excludes --index-a and --index-b")
        idx = all_indices(top)
        ok = all(barcx.check_series_shuffle_bar(a, b)
                 for a in idx for b in idx if sum(a) + sum(b) <= top)
        return {"series_shuffle_exhaustive": ok}, {"max_weight": top}
    if not (args.index_a and args.index_b):
        raise InputError("need --index-a and --index-b or --max-weight")
    a, b = _parse_index(args.index_a), _parse_index(args.index_b)
    checks = {"series_shuffle": barcx.check_series_shuffle_bar(a, b)}
    return checks, {"index_a": list(a), "index_b": list(b)}


def cmd_group_law(args):
    from .lab import group_law

    lhs = _load_series(args.lhs)
    rhs = _load_series(args.rhs)
    if lhs.trunc != rhs.trunc:
        raise InputError(
            "%s has degree %d but %s has degree %d" % (args.lhs, lhs.trunc, args.rhs, rhs.trunc)
        )
    if rhs.constant_term() != 1:
        raise InputError("%s has no inverse: its constant term is not 1" % args.rhs)
    out = group_law(lhs, rhs)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(to_text(out))
    return {"group_law_forms_agree": True}, {"degree": out.trunc}


# -- entry point ---------------------------------------------------------

COMMANDS = {
    "solve-pentagon": cmd_solve_pentagon,
    "verify": cmd_verify,
    "dims": cmd_dims,
    "dmr": cmd_dmr,
    "bar": cmd_bar,
    "group-law": cmd_group_law,
}


def emit(args, checks, extras):
    """Print the report; extras hold ints, strs, lists of ints and
    str -> int dicts, which JSON takes as they are."""
    passed = all(bool(v) for v in checks.values())
    if args.report == "json":
        report = {
            "version": __version__,
            "command": args.command,
            "checks": {k: bool(v) for k, v in sorted(checks.items())},
            "status": "pass" if passed else "fail",
        }
        report.update(sorted(extras.items()))
        print(json.dumps(report, indent=2, sort_keys=False))
    else:
        for k in sorted(checks):
            print("%-40s %s" % (k, "pass" if checks[k] else "FAIL"))
        for k in sorted(extras):
            v = extras[k]
            if isinstance(v, dict):
                for k2 in sorted(v, key=lambda t: (len(str(t)), str(t))):
                    print("%s[%s] = %s" % (k, k2, v[k2]))
            else:
                print("%s = %s" % (k, v))
    return 0 if passed else 1


def _attach_c2(argv):
    """argv with "--c2 -2/5" joined into "--c2=-2/5".  argparse takes a
    token that starts with "-" and is not a plain negative number for an
    option, which would leave --c2 without its value."""
    out = []
    for arg in argv:
        if out and out[-1] == "--c2" and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] = "--c2=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(_attach_c2(sys.argv[1:] if argv is None else argv))
    if not hasattr(args, "report"):
        args.report = "text"
    try:
        checks, extras = COMMANDS[args.command](args)
    except InputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 3
    return emit(args, checks, extras)


if __name__ == "__main__":
    sys.exit(main())
