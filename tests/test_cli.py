import ast
import json
import os
import pathlib
import random
import re
import subprocess
import sys

import pytest

from assoclab.cli import main
from assoclab.rationals import qq
from assoclab.series import from_text, is_group_like, to_text

from support import random_group_like, widen

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def phi_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "phi4.series"
    code = main(["solve-pentagon", "--degree", "4", "--c2-zero", "-o", str(path)])
    assert code == 0
    return str(path)


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_solve_reports_kernel_dims(capsys, phi_file):
    code, out = run(
        capsys, ["solve-pentagon", "--degree", "4", "--c2-zero", "--report", "json"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "pass"
    assert report["kernel_dims"] == {"3": 1, "4": 0}


def test_solved_series_file_roundtrips(phi_file):
    with open(phi_file) as fh:
        phi = from_text(fh.read())
    assert is_group_like(phi)
    assert from_text(to_text(phi)) == phi


def test_verify_main_passes(capsys, phi_file):
    code, out = run(capsys, ["verify", "main", "--phi", phi_file])
    assert code == 0
    assert "pentagon_zero" in out and "FAIL" not in out


def test_verify_gamma_passes(capsys, phi_file):
    code, out = run(capsys, ["verify", "gamma", "--phi", phi_file, "--report", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["checks"]["factorization"] is True


def test_verify_5cycle_and_double_shuffle(capsys, phi_file):
    assert run(capsys, ["verify", "5cycle", "--phi", phi_file])[0] == 0
    assert run(capsys, ["verify", "double-shuffle", "--phi", phi_file])[0] == 0


def test_verify_hexagon_with_c2(capsys, tmp_path):
    path = tmp_path / "phi_c2.series"
    assert main(["solve-pentagon", "--degree", "4", "--c2", "1", "-o", str(path)]) == 0
    assert main(["verify", "hexagon", "--phi", str(path)]) == 0


def test_negative_c2_as_its_own_argument(capsys, tmp_path):
    # "--c2 -2/5" is the same request as "--c2=-2/5"
    outputs = []
    for i, c2 in enumerate((["--c2", "-2/5"], ["--c2=-2/5"])):
        path = tmp_path / ("phi%d.series" % i)
        argv = ["solve-pentagon", "--degree", "3", *c2, "-o", str(path), "--report", "json"]
        code, out = run(capsys, argv)
        assert code == 0
        outputs.append((out, path.read_text()))
    assert outputs[0] == outputs[1]
    assert from_text(outputs[0][1]).coefficient((0, 1)) == qq(-2, 5)
    # a missing or malformed value is still rejected by the parser
    for c2 in (["--c2", "--degree", "3"], ["--c2", "-x"]):
        with pytest.raises(SystemExit) as exc:
            main(["solve-pentagon", *c2])
        assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("c2", [["--c2-zero", "--c2", "5"], ["--c2", "5", "--c2-zero"],
                                ["--c2-zero", "--c2", "1"], ["--c2", "1", "--c2-zero"]])
def test_c2_zero_with_c2_exits_two(capsys, c2):
    # two values for one coefficient are rejected, whichever comes first
    with pytest.raises(SystemExit) as exc:
        main(["solve-pentagon", "--degree", "3", *c2])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


def test_failing_check_exits_one(capsys, tmp_path):
    rng = random.Random(90)
    path = tmp_path / "generic.series"
    path.write_text(to_text(random_group_like(rng, 4)))
    code, out = run(capsys, ["verify", "double-shuffle", "--phi", str(path)])
    assert code == 1
    assert "FAIL" in out


def test_malformed_inputs_exit_two(capsys, tmp_path):
    assert main(["verify", "main", "--phi", str(tmp_path / "nothere")]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.series"
    bad.write_text("this is not a series file\n")
    assert main(["verify", "main", "--phi", str(bad)]) == 2
    capsys.readouterr()
    assert main(["bar", "check", "--index", "2,x"]) == 2
    capsys.readouterr()
    assert main(["solve-pentagon", "--degree", "3", "--c2", "1/0x"]) == 2
    capsys.readouterr()


HEADER = 'alphabet: X0 X1\ndegree: 2\n"1" 1/1\n'


@pytest.mark.parametrize(
    "text",
    [
        HEADER + '"X0.X1" 1/0\n',
        HEADER + '"X0.X1" 1/2\n"X0.X1" 1/3\n',
        HEADER + '"X0.X0.X1" 5/1\n',
        "alphabet: X0 X1\ndegree: -1\n",
    ],
    ids=["zero-denominator", "repeated-word", "above-degree", "negative-degree"],
)
def test_malformed_series_file_exits_two(capsys, tmp_path, text):
    path = tmp_path / "bad.series"
    path.write_text(text)
    p = str(path)
    for what in ("main", "gamma", "hexagon", "5cycle", "double-shuffle"):
        assert main(["verify", what, "--phi", p]) == 2, what
    assert main(["group-law", "--lhs", p, "--rhs", p]) == 2
    assert main(["dmr", "bracket", "--lhs", p, "--rhs", p, "--check"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("error: malformed series file") == 7


def test_constant_term_other_than_one(capsys, tmp_path):
    # no hexagon holds for such a series, and no composition with it exists
    path = tmp_path / "half.series"
    path.write_text('alphabet: X0 X1\ndegree: 4\n"X0" 1/2\n')
    code, out = run(capsys, ["verify", "hexagon", "--phi", str(path), "--report", "json"])
    assert code == 1
    assert json.loads(out)["checks"] == {"hexagon_one_zero": False, "hexagon_two_zero": False}
    # the gamma checks read phi through its meta-abelian part, whose constant is always 1
    code, out = run(capsys, ["verify", "gamma", "--phi", str(path), "--report", "json"])
    assert code == 1
    checks = json.loads(out)["checks"]
    assert len(checks) == 4 and not any(checks.values())
    assert main(["group-law", "--lhs", str(DATA / "phi4.series"), "--rhs", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "constant term" in err


def test_group_law_rejects_two_truncations(capsys, tmp_path):
    phi4 = from_text((DATA / "phi4.series").read_text())
    path = tmp_path / "phi4-at-5.series"
    path.write_text(to_text(widen(phi4, 5)))
    assert main(["group-law", "--lhs", str(DATA / "phi4.series"), "--rhs", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "degree 4" in err and "degree 5" in err


def test_dmr_bracket_rejects_non_lie_input(capsys, tmp_path):
    word = 'alphabet: X0 X1\ndegree: 2\n"X0.X1" 1/1\n'
    pairs = [(word, word + '"X1" 1/1\n')]
    phi4 = from_text((DATA / "phi4.series").read_text())
    pairs.append((to_text(phi4), to_text(widen(phi4, 5))))
    for lhs, rhs in pairs:
        lhs_path, rhs_path = tmp_path / "lhs.series", tmp_path / "rhs.series"
        lhs_path.write_text(lhs)
        rhs_path.write_text(rhs)
        argv = ["dmr", "bracket", "--lhs", str(lhs_path), "--rhs", str(rhs_path), "--check"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "not a Lie series" in err


@pytest.mark.parametrize("names", [("X1", "X0"), ("A", "B"), ("Y1", "Y2"), ("X0", "X1", "X2")])
def test_series_file_over_another_alphabet_exits_two(capsys, tmp_path, names):
    path = tmp_path / "other.series"
    a, b = names[:2]
    path.write_text(
        "alphabet: %s\ndegree: 3\n\"1\" 1/1\n\"%s.%s\" 1/2\n\"%s.%s\" -1/2\n"
        % (" ".join(names), a, b, b, a)
    )
    p = str(path)
    for what in ("main", "gamma", "hexagon", "5cycle", "double-shuffle"):
        assert main(["verify", what, "--phi", p]) == 2, what
    assert main(["group-law", "--lhs", p, "--rhs", p]) == 2
    assert main(["dmr", "bracket", "--lhs", p, "--rhs", p]) == 2
    assert "not X0 X1" in capsys.readouterr().err


def test_negative_solve_degree_exits_two(capsys, tmp_path):
    path = tmp_path / "f.series"
    assert main(["solve-pentagon", "--degree", "-1", "-o", str(path)]) == 2
    assert not path.exists()
    assert main(["solve-pentagon", "--degree", "0", "-o", str(path)]) == 0


def assert_rejected(capsys, argv):
    """Exit 2 with an error on stderr and no report on stdout."""
    capsys.readouterr()
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: negative")


@pytest.mark.parametrize("engine", ["model", "generic"])
def test_negative_dims_degree_exits_two(capsys, engine):
    assert_rejected(capsys, ["dims", "--algebra", "a4", "--max-degree", "-1", "--engine", engine])


def test_negative_dmr_dims_degree_exits_two(capsys):
    assert_rejected(capsys, ["dmr", "dims", "--max-degree", "-2"])


def test_negative_dmr_lemmas_degree_exits_two(capsys):
    assert_rejected(capsys, ["dmr", "lemmas", "--degree", "-1"])


def test_negative_bar_shuffle_weight_exits_two(capsys):
    assert_rejected(capsys, ["bar", "shuffle", "--max-weight", "-1"])


def test_bar_shuffle_weight_zero_runs_the_empty_check(capsys):
    # --max-weight 0 is given, so it is the exhaustive check over no pair
    code, out = run(capsys, ["bar", "shuffle", "--max-weight", "0", "--report", "json"])
    report = json.loads(out)
    assert code == 0 and report["max_weight"] == 0
    assert report["checks"] == {"series_shuffle_exhaustive": True}


@pytest.mark.parametrize("indices", [["--index-a", "2", "--index-b", "1"], ["--index-a", "2"],
                                     ["--index-b", "1"]])
def test_bar_shuffle_rejects_a_weight_with_indices(capsys, indices):
    # --max-weight runs the exhaustive check, which would drop the indices
    capsys.readouterr()
    assert main(["bar", "shuffle", "--max-weight", "2"] + indices) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


def test_out_of_memory_exits_three(capsys, monkeypatch):
    # a failing check exits 1; running out of memory is reported apart
    from assoclab import dmr

    def exhausted(degree):
        raise MemoryError

    monkeypatch.setattr(dmr, "solve_dmr0", exhausted)
    capsys.readouterr()
    assert main(["dmr", "dims", "--max-degree", "3", "--report", "json"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == "error: out of memory\n"


def test_threads_flag_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "2", "dims", "--algebra", "a4", "--max-degree", "1"])
    assert exc.value.code == 2


def test_outputs_match_recorded_bytes(capsys, tmp_path):
    # files recorded from the CLI; any change to the series file or a
    # JSON report, down to the byte, is a change of output format
    path = tmp_path / "phi4.series"
    assert main(["solve-pentagon", "--degree", "4", "--c2-zero", "-o", str(path)]) == 0
    assert path.read_bytes() == (DATA / "phi4.series").read_bytes()
    cases = {
        "verify_main_phi4.json": ["verify", "main", "--phi", str(DATA / "phi4.series")],
        "dims_generic_p5_3.json": [
            "dims", "--engine", "generic", "--algebra", "p5", "--max-degree", "3"
        ],
        "dmr_dims_5.json": ["dmr", "dims", "--max-degree", "5"],
        "bar_shuffle_3.json": ["bar", "shuffle", "--max-weight", "3"],
    }
    capsys.readouterr()
    for name, argv in cases.items():
        code, out = run(capsys, argv + ["--report", "json"])
        assert code == 0
        assert out.encode() == (DATA / name).read_bytes(), name


def test_dims_engines_agree(capsys):
    reports = {}
    for engine in ("model", "generic"):
        code, out = run(
            capsys,
            ["dims", "--algebra", "p5", "--max-degree", "4",
             "--engine", engine, "--report", "json"],
        )
        assert code == 0
        reports[engine] = json.loads(out)["dims"]
    assert reports["model"] == reports["generic"]
    assert reports["model"]["4"] == 3 ** 5 - 2 ** 5


def test_dmr_dims(capsys):
    code, out = run(capsys, ["dmr", "dims", "--max-degree", "5", "--report", "json"])
    assert code == 0
    assert json.loads(out)["dims"] == {"2": 0, "3": 1, "4": 0, "5": 1}


def test_dmr_bracket_and_check(capsys, tmp_path):
    lhs = tmp_path / "psi3.series"
    # write the degree-3 generator by hand through the solver API
    from assoclab import dmr as dmr_mod

    lhs.write_text(to_text(dmr_mod.solve_dmr0(3)[0]))
    code, out = run(
        capsys,
        ["dmr", "bracket", "--lhs", str(lhs), "--rhs", str(lhs), "--check"],
    )
    assert code == 0


@pytest.mark.parametrize("check", [False, True])
def test_dmr_bracket_reports_a_non_lie_bracket(capsys, monkeypatch, tmp_path, psi3, check):
    # bracket_is_lie is read off the bracket, with or without --check
    from assoclab import dmr

    not_lie = from_text('alphabet: X0 X1\ndegree: 6\n"X0.X1" 1/1\n')
    monkeypatch.setattr(dmr, "ihara_bracket", lambda lhs, rhs: not_lie)
    path = tmp_path / "psi3.series"
    path.write_text(to_text(psi3))
    argv = ["dmr", "bracket", "--lhs", str(path), "--rhs", str(path)]
    code, out = run(capsys, argv + (["--check"] if check else []))
    assert code == 1
    assert ("bracket_is_lie", "FAIL") in [tuple(line.split()) for line in out.splitlines()]


def test_dmr_bracket_widens_equal_truncations(capsys, tmp_path, psi3, psi5):
    # psi3 saved at degree 5 has the same truncation as psi5; the bracket
    # must still be taken at degree 10, not cut off at 5
    pairs = {"narrow": (psi3, psi5), "wide": (widen(psi3, 5), psi5)}
    terms = {}
    for name, (lhs, rhs) in pairs.items():
        lhs_path, rhs_path = tmp_path / (name + "-lhs"), tmp_path / (name + "-rhs")
        out_path = tmp_path / (name + "-out")
        lhs_path.write_text(to_text(lhs))
        rhs_path.write_text(to_text(rhs))
        argv = ["dmr", "bracket", "--lhs", str(lhs_path), "--rhs", str(rhs_path)]
        code, _ = run(capsys, argv + ["-o", str(out_path)])
        assert code == 0
        terms[name] = from_text(out_path.read_text()).terms
    assert terms["wide"] and terms["wide"] == terms["narrow"]


def test_dmr_lemmas(capsys):
    assert run(capsys, ["dmr", "lemmas", "--degree", "3"])[0] == 0


def test_bar_commands(capsys):
    assert run(capsys, ["bar", "check", "--index", "2", "--index-b", "1"])[0] == 0
    assert run(capsys, ["bar", "check", "--index", "3", "--tags", "x,xy"])[0] == 0
    assert run(capsys, ["bar", "shuffle", "--index-a", "2", "--index-b", "1"])[0] == 0
    assert run(capsys, ["bar", "shuffle", "--max-weight", "3"])[0] == 0


@pytest.mark.parametrize("tags", ["", ",", "x,z"])
def test_bar_check_rejects_empty_and_unknown_tags(capsys, tags):
    # a check command that would check nothing exits 2, as an unknown tag does
    capsys.readouterr()
    assert main(["bar", "check", "--index", "2,1", "--tags", tags]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize("argv", [["--index-b", "1", "--tags", "bogus"],
                                  ["--tags", "x", "--index-b", "1"]])
def test_bar_check_rejects_tags_with_index_b(capsys, argv):
    # the two-variable check takes no tags, so a tag given with it is not ignored
    with pytest.raises(SystemExit) as exc:
        main(["bar", "check", "--index", "2", *argv])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "not allowed with" in err


def test_group_law_cli(capsys, tmp_path, phi_file):
    out_path = tmp_path / "composed.series"
    code, _ = run(
        capsys,
        ["group-law", "--lhs", phi_file, "--rhs", phi_file, "-o", str(out_path)],
    )
    assert code == 0
    composed = from_text(out_path.read_text())
    assert is_group_like(composed)


def test_json_reports_are_deterministic(capsys):
    outs = []
    for _ in range(2):
        code, out = run(
            capsys,
            ["dims", "--algebra", "a4", "--max-degree", "3", "--report", "json"],
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    code, out1 = run(
        capsys, ["dmr", "dims", "--max-degree", "4", "--report", "json"]
    )
    code2, out2 = run(
        capsys, ["dmr", "dims", "--max-degree", "4", "--report", "json"]
    )
    assert out1 == out2


def test_fraction_backend_reproduces_recorded_bytes(tmp_path):
    # the recorded outputs hold for the fractions.Fraction fallback too, even
    # where gmpy2 is installed: None in sys.modules makes its import fail
    src = str(pathlib.Path(__file__).parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    script = (
        "import sys; sys.modules['gmpy2'] = None\n"
        "import fractions\n"
        "from assoclab import rationals\n"
        "from assoclab.cli import main\n"
        "if rationals.QQ is not fractions.Fraction: sys.exit(3)\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )

    def cli(*argv):
        return subprocess.run(
            [sys.executable, "-c", script, *argv], env=env, capture_output=True, check=True
        ).stdout

    path = tmp_path / "phi4.series"
    cli("solve-pentagon", "--degree", "4", "--c2-zero", "-o", str(path))
    assert path.read_bytes() == (DATA / "phi4.series").read_bytes()
    out = cli("verify", "main", "--phi", str(DATA / "phi4.series"), "--report", "json")
    assert out == (DATA / "verify_main_phi4.json").read_bytes()


def test_cli_import_loads_only_its_own_modules():
    # the start-up path of every command: keep it free of the heavy modules
    src = str(pathlib.Path(__file__).parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = (
        "import json, sys, assoclab.cli; "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('assoclab'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    loaded = json.loads(out.stdout)
    assert loaded == [
        "assoclab", "assoclab.cli", "assoclab.rationals", "assoclab.rings",
        "assoclab.series", "assoclab.words",
    ]
    # every start compiles these from source: their size is the start-up budget
    sizes = [len((pathlib.Path(src) / (m.replace(".", "/") + ".py")).read_text().splitlines())
             for m in loaded[1:]]
    assert sum(sizes) <= 1405


def test_every_definition_in_src_is_named_elsewhere_in_src():
    """Every function, class and method of src/assoclab is named somewhere
    in src/ outside its own definition, so no code there is reached only
    from the tests; dunder methods are exempt.  This is a name check on
    the source text: a name mentioned only in prose passes it."""
    texts = {p: p.read_text() for p in sorted((pathlib.Path(__file__).parent.parent
                                               / "src" / "assoclab").glob("*.py"))}
    unnamed = []
    for path, text in texts.items():
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("__"):
                rest = "\n".join(lines[: node.lineno - 1] + lines[node.end_lineno :])
                named = re.compile(r"\b%s\b" % re.escape(node.name))
                if not any(named.search(rest if p == path else t) for p, t in texts.items()):
                    unnamed.append("%s.%s" % (path.stem, node.name))
    assert unnamed == []


def modules_loaded_by(argv):
    """[exit code, the assoclab modules loaded] when a fresh interpreter that
    has imported assoclab.cli runs main(argv)."""
    src = str(pathlib.Path(__file__).parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = (
        "import io, json, sys, contextlib, assoclab.cli\n"
        "before = set(sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = assoclab.cli.main(%r)\n"
        "print(json.dumps([code, sorted(m for m in set(sys.modules) - before"
        " if m.startswith('assoclab'))]))" % (argv,)
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout)


@pytest.mark.parametrize("what, loaded", [
    ("hexagon", ["assoclab.lie", "assoclab.models"]),
    ("5cycle", ["assoclab.lie", "assoclab.models"]),
    ("double-shuffle", ["assoclab.yside"]),
])
def test_verify_imports_only_what_its_check_runs(phi_file, what, loaded):
    assert modules_loaded_by(["verify", what, "--phi", str(phi_file)]) == [0, loaded]


def test_solve_pentagon_imports_only_what_it_runs(tmp_path):
    # the first job of the associator and hexagon workloads compiles no yside
    argv = ["solve-pentagon", "--degree", "4", "--c2=3/7", "-o", str(tmp_path / "phi.series")]
    assert modules_loaded_by(argv) == [
        0, ["assoclab.lab", "assoclab.lie", "assoclab.models", "assoclab.presented"]
    ]
