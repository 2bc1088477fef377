import os
import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from assoclab.lab import _solve_affine
from assoclab.models import a4_model, p5_model
from assoclab.presented import Presentation, PresentationError, echelon, integer_row, solve_pivots
from assoclab.rationals import QQ, qq
from assoclab.rings import RATIONALS
from assoclab.series import Series

from support import normal_form, word_split


def p5_dim(d):
    return 3 ** (d + 1) - 2 ** (d + 1)


def a4_dim(d):
    # the four-strand braid Lie algebra splits off a one-dimensional
    # center, so the graded dimensions gain a polynomial factor
    return (3 ** (d + 2) - 2 ** (d + 3) + 1) // 2


def hilbert_product(factors, top):
    """Coefficients of prod_k 1/(1 - k t) up to t^top: the Hilbert series of
    an iterated semidirect product of free algebras on k generators."""
    coeffs = [1] + [0] * top
    for k in factors:
        for d in range(1, top + 1):
            coeffs[d] += k * coeffs[d - 1]
    return coeffs


def assert_generic_dimensions(monkeypatch, name, factors, closed_form, top, independent=False):
    """The generic engine's dimensions of a builtin presentation against its
    splitting and its closed form.  Every row the degree builder hands to the
    echelon is already a primitive integer row, and from degree 3 on the rows
    are the degree-2 relation basis right-multiplied by the basis words of
    degree d - 2; with `independent` they are linearly independent, so their
    count is the rank n.dim(d - 1) - dim(d)."""
    import assoclab.presented as presented

    seen = []

    def spy(rows):
        seen.append(rows)
        return echelon(rows)

    monkeypatch.setattr(presented, "echelon", spy)
    pres = Presentation.builtin(name)
    dims = [pres.dimension(d) for d in range(top + 1)]
    assert dims == hilbert_product(factors, top) == [closed_form(d) for d in range(top + 1)]
    # seen[0] holds the linear relations; one call per degree 2..top follows
    built = [row for rows in seen[1:] for row in rows]
    assert len(seen) == top and built
    for row in built:
        assert all(type(c) is int for c in row.values()) and gcd(*row.values()) == 1
    n = dims[1]
    assert len(pres.quadratic) == n * n - dims[2]
    for d in range(3, top + 1):
        rows = len(seen[d - 1])
        assert rows == len(pres.quadratic) * dims[d - 2]
        if independent:
            assert rows == n * dims[d - 1] - dims[d]


def test_p5_generic_dimensions(monkeypatch):
    # p5 splits as free(X12, X23) x free(X34, X45, X24)
    assert_generic_dimensions(monkeypatch, "p5", (2, 3), p5_dim, 7, independent=True)


def test_a4_generic_dimensions(monkeypatch):
    # a4 splits as the center times free(t12, t23) x free(t14, t24, t34)
    assert_generic_dimensions(monkeypatch, "a4", (1, 2, 3), a4_dim, 6)


def test_dependent_relations_give_the_same_relation_basis():
    # a repeated relation and the sum of two relations add nothing to the
    # span, so the relation basis, and with it every dimension, is unchanged
    import assoclab.presented as presented

    path = os.path.join(os.path.dirname(presented.__file__), "data", "p5.presentation")
    with open(path) as fh:
        lines = fh.read().splitlines()
    quad = [ln for ln in lines if ln.startswith("relation:") and "." in ln]
    first, second = (ln.split(":", 1)[1] for ln in quad[:2])
    extra = [quad[3], "relation:%s + %s" % (first, second)]
    pres = Presentation.parse("\n".join(lines + extra), name="p5")
    builtin = Presentation.builtin("p5")
    assert [pres.dimension(d) for d in range(6)] == [builtin.dimension(d) for d in range(6)]
    assert pres.quadratic == builtin.quadratic


def test_p5_model_counts_match_generic():
    model = p5_model(6)
    for d in range(7):
        count = sum(1 for w in model.alphabet.words_of_degree(d) if model.is_normal(w))
        assert count == p5_dim(d)


def test_a4_model_counts_match_generic():
    model = a4_model(5)
    for d in range(6):
        count = sum(1 for w in model.alphabet.words_of_degree(d) if model.is_normal(w))
        assert count == a4_dim(d)


def relation_series(pres, row, trunc):
    return Series(pres.alphabet, trunc, RATIONALS, dict(row))


def test_relations_reduce_to_zero():
    for name in ("a4", "p5"):
        pres = Presentation.builtin(name)
        for row in pres.quadratic:
            assert normal_form(pres, relation_series(pres, row, 2)).is_zero()


def test_two_sided_ideal_elements_reduce_to_zero():
    pres = Presentation.builtin("p5")
    n = len(pres.letters)
    for row in pres.quadratic:
        for letter in range(n):
            left = {(letter,) + w: c for w, c in row.items()}
            right = {w + (letter,): c for w, c in row.items()}
            for terms in (left, right):
                s = Series(pres.alphabet, 3, RATIONALS, terms)
                assert normal_form(pres, s).is_zero()


def test_degree_four_ideal_elements_reduce_to_zero():
    pres = Presentation.builtin("p5")
    n = len(pres.letters)
    row = pres.quadratic[0]
    for a in range(n):
        for b in range(n):
            terms = {(a,) + w + (b,): c for w, c in row.items()}
            s = Series(pres.alphabet, 4, RATIONALS, terms)
            assert normal_form(pres, s).is_zero()


def test_normal_form_is_idempotent_and_linear():
    pres = Presentation.builtin("p5")
    s = Series(
        pres.alphabet,
        3,
        RATIONALS,
        {(0, 1, 2): qq(2), (4, 3, 0): qq(-1), (1,): qq(5)},
    )
    nf = normal_form(pres, s)
    assert normal_form(pres, nf) == nf
    assert normal_form(pres, s.scale(qq(2))) == nf.scale(qq(2))


def test_normal_form_respects_products():
    # NF(u . v) = NF(NF(u) . v) on a handful of words
    pres = Presentation.builtin("p5")
    words = [(0, 3), (3, 0), (4, 2), (2, 4, 1)]
    for u in words:
        for v in words:
            den, tables = word_split(pres, u + v)
            direct = {w: QQ(m, den) for w, m in tables.get(0, {}).items()}
            d1, t1 = word_split(pres, u)
            recombined = {}
            for w1, c1 in t1.get(0, {}).items():
                d2, t2 = word_split(pres, w1 + v)
                for w2, c2 in t2.get(0, {}).items():
                    recombined[w2] = recombined.get(w2, qq(0)) + QQ(c1, d1) * QQ(c2, d2)
            recombined = {w: c for w, c in recombined.items() if c != 0}
            assert direct == recombined


def test_parse_roundtrip_and_errors():
    pres = Presentation.parse(
        "generators: a b\nrelation: a.b - b.a\n", name="abelian2"
    )
    for d in range(5):
        assert pres.dimension(d) == d + 1
    with pytest.raises(PresentationError):
        Presentation.parse("relation: a.b\n")
    with pytest.raises((PresentationError, KeyError)):
        Presentation.parse("generators: a b\nrelation: a.nosuch\n")
    with pytest.raises(PresentationError):
        Presentation.parse("generators: a b\nrelation: a.b.a\n")


# -- the integer echelon against a plain Fraction Gauss-Jordan oracle ----


def gauss_jordan(rows):
    """Reduced row echelon form by dense Fraction elimination: pivot -> monic row."""
    coords = sorted({k for row in rows for k in row})
    matrix = [[Fraction(row.get(k, 0)) for k in coords] for row in rows]
    top = 0
    for col in range(len(coords)):
        hit = next((i for i in range(top, len(matrix)) if matrix[i][col]), None)
        if hit is None:
            continue
        matrix[top], matrix[hit] = matrix[hit], matrix[top]
        lead = matrix[top][col]
        matrix[top] = [x / lead for x in matrix[top]]
        for i, row in enumerate(matrix):
            if i != top and row[col]:
                f = row[col]
                matrix[i] = [x - f * y for x, y in zip(row, matrix[top])]
        top += 1
    out = {}
    for row in matrix[:top]:
        nonzero = {coords[j]: x for j, x in enumerate(row) if x}
        out[min(nonzero)] = nonzero
    return out


BIG_DENOMINATORS = (10**12 + 39, 10**12 + 37)


def random_system(rng, n_rows, n_coords, density=0.4):
    """Sparse rational rows with zero rows, repeated rows, combinations of
    earlier rows and entries over large coprime denominators."""
    rows = []
    for _ in range(n_rows):
        pick = rng.random()
        if pick < 0.1:
            rows.append({})
        elif pick < 0.2 and rows:
            rows.append(dict(rng.choice(rows)))
        elif pick < 0.35 and len(rows) >= 2:
            a, b = rng.sample(rows, 2)
            p, q = qq(rng.randint(-3, 3), rng.randint(1, 5)), rng.choice(BIG_DENOMINATORS)
            keys = set(a) | set(b)
            combo = {k: p * a.get(k, 0) + qq(1, q) * b.get(k, 0) for k in keys}
            rows.append({k: c for k, c in combo.items() if c})
        else:
            row = {}
            for k in range(n_coords):
                if rng.random() < density:
                    den = rng.choice((1, 2, 3, 7) + BIG_DENOMINATORS)
                    c = qq(rng.randint(-9, 9) * rng.choice((1, 10**9 + 7)), den)
                    if c:
                        row[k] = c
            rows.append(row)
    return rows


@pytest.mark.parametrize("seed", range(8))
def test_solve_pivots_matches_gauss_jordan(seed):
    rng = random.Random(1200 + seed)
    n_coords = rng.randint(3, 9)
    rows = random_system(rng, rng.randint(2, 14), n_coords)
    expected = gauss_jordan(rows)
    pivots = echelon([integer_row(row) for row in rows])
    assert set(pivots) == set(expected)
    assert solve_pivots(pivots) == expected


def test_solve_pivots_on_tuple_coordinates():
    rng = random.Random(1299)
    words = [(a, b) for a in range(3) for b in range(3)]
    rows = [{words[k]: c for k, c in row.items()} for row in random_system(rng, 12, 9)]
    assert solve_pivots(echelon([integer_row(row) for row in rows])) == gauss_jordan(rows)


def test_echelon_leaves_its_rows_intact():
    # integer rows enter the echelon as they are; it eliminates in place,
    # so it must work on copies
    rng = random.Random(1298)
    rows = [{k: rng.choice((-3, -1, 1, 2, 4)) for k in rng.sample(range(8), rng.randint(1, 5))}
            for _ in range(14)]
    rows += [{0: 2, 1: 4}, {0: 3, 1: 6, 2: 3}]
    before = [dict(row) for row in rows]
    assert solve_pivots(echelon(rows)) == gauss_jordan(before)
    assert rows == before


@pytest.mark.parametrize("seed", range(6))
def test_solve_affine_matches_gauss_jordan(seed):
    # columns over large coprime denominators; the right-hand side is a
    # combination of the columns (consistent) or moves off it (inconsistent)
    rng = random.Random(1300 + seed)
    n = rng.randint(2, 6)
    words = ["w%d" % i for i in range(n + 3)]
    columns = [{words[k]: c for k, c in r.items()} for r in random_system(rng, n, len(words))]
    x = [qq(rng.randint(-4, 4), rng.choice(BIG_DENOMINATORS)) for _ in range(n)]
    rhs = {}
    for xi, col in zip(x, columns):
        for w, c in col.items():
            rhs[w] = rhs.get(w, 0) + xi * c
    rhs = {w: c for w, c in rhs.items() if c}
    if seed % 2:
        w = rng.choice(words)
        rhs[w] = rhs.get(w, 0) + qq(1, BIG_DENOMINATORS[0])
    rows = {}
    for i, col in enumerate(columns):
        for w, c in col.items():
            rows.setdefault(w, {})[i] = c
    for w, c in rhs.items():
        rows.setdefault(w, {})[n] = c
    expected = gauss_jordan([rows[w] for w in sorted(rows)])
    solved = _solve_affine(columns, rhs, n)
    if n in expected:
        assert solved is None
        return
    particular, kernel = solved
    assert particular == [expected[p].get(n, 0) if p in expected else 0 for p in range(n)]
    assert len(kernel) == n - len(expected)
    for vec in kernel:
        for col_w in rows:
            assert sum(v * rows[col_w].get(i, 0) for i, v in enumerate(vec)) == 0


def test_solve_affine_inconsistent_over_large_denominators():
    p, q = BIG_DENOMINATORS
    columns = [{"a": qq(1, p), "b": qq(1, q)}, {"a": qq(1, q), "b": qq(1, p)}, {"c": qq(2, p)}]
    rhs = {"a": qq(1), "b": qq(1), "c": qq(3, q)}
    assert _solve_affine(columns, rhs, 3) is not None
    # with two equal columns, rows a and b read x0 + x1 = p and x0 + x1 = q + 1
    columns[1] = dict(columns[0])
    rhs["b"] = qq(1) + qq(1, q)
    assert _solve_affine(columns, rhs, 3) is None


def test_explicit_zero_entries_are_dropped():
    # a zero entry must not become a pivot lead, where the echelon would divide by it
    assert _solve_affine([{"x": qq(0), "y": qq(1)}, {"x": qq(1)}], {"x": qq(1)}, 2) == ([0, 1], [])
    pres = Presentation(["a", "b", "c"], [{(0,): qq(0), (1,): qq(1)}])
    assert pres.letters == [0, 2]
    assert [pres.dimension(d) for d in range(4)] == [1, 2, 4, 8]


# -- reductions over a common denominator --------------------------------


def test_reductions_over_a_common_denominator_match_the_ideal():
    # leading coefficients other than +-1 give reductions (D, word -> int)
    # with D > 1, so each row and normal form sums them scaled to one
    # denominator; the oracle is the dense span of the ideal elements u.r.v
    text = "generators: a b c\nrelation: 2*a.b - 3*b.a\nrelation: 5*b.c - c.b + 7*a.a\n"
    relations = [{(0, 1): 2, (1, 0): -3}, {(1, 2): 5, (2, 1): -1, (0, 0): 7}]
    pres = Presentation.parse(text, name="scaled")
    top = 5
    dims = [pres.dimension(d) for d in range(top + 1)]
    assert any(den > 1 for red in pres.reduction.values() for den, _ in red.values())
    for d in range(2, top + 1):
        ideal = gauss_jordan([
            {u + w + v: c for w, c in r.items()}
            for r in relations for k in range(d - 1)
            for u in product(range(3), repeat=k) for v in product(range(3), repeat=d - 2 - k)
        ])
        assert dims[d] == 3 ** d - len(ideal)
        for w in product(range(3), repeat=d):
            den, tables = word_split(pres, w)
            nf = tables.get(0, {})
            assert set(nf) <= set(pres.basis[d])
            # w - NF(w) lies in the ideal: it reduces to zero against the RREF
            rest = {k: -QQ(c, den) for k, c in nf.items()}
            rest[w] = rest.get(w, 0) + 1
            for lead, row in ideal.items():
                c = rest.get(lead, 0)
                if c:
                    for k, x in row.items():
                        rest[k] = rest.get(k, 0) - c * x
            assert not any(rest.values())
    s = Series(pres.alphabet, 3, RATIONALS, {(0, 1, 2): qq(2, 3), (2, 1, 0): qq(-1, 5), (1,): qq(4)})
    expected = {}
    for w, c in s.terms.items():
        den, tables = word_split(pres, w)
        for v, m in tables.get(0, {}).items():
            expected[v] = expected.get(v, 0) + c * QQ(m, den)
    assert normal_form(pres, s).terms == {v: c for v, c in expected.items() if c}
