"""Acceptance criteria for the verification engine.

One test per criterion; every comparison is exact (tolerance zero).
The tests marked slow repeat the headline theorems at truncation
degree 8.
"""

import random
import time

import pytest

from assoclab import barcx, dmr, yside
from assoclab.lab import (
    gamma_at_minus_y1,
    gamma_factorize,
    group_law,
    solve_pentagon,
    verify_theorem_main,
)
from assoclab.lie import lie_basis
from assoclab.models import p5_model
from assoclab.presented import Presentation
from assoclab.rationals import qq
from assoclab.rings import RATIONALS
from assoclab.series import (
    Series,
    coproduct,
    is_group_like,
    is_lie,
    one,
    tensor_square,
)
from assoclab.words import X_ALPHABET, y_alphabet

from support import (Poly, all_indices, coderivation_check, integral_regularized, map_L,
                     random_group_like, random_lie, random_series, series_regularized, tensor_pairs)
from test_yside import stuffle_oracle


def test_criterion_1_pentagon_implies_double_shuffle():
    start = time.monotonic()
    result = solve_pentagon(6, c2=0)
    phi = result["phi"]
    report = verify_theorem_main(phi)
    elapsed = time.monotonic() - start
    assert report["pentagon_zero"]
    assert report["five_cycle_zero"]
    assert report["double_shuffle"]
    assert elapsed < 300


@pytest.mark.slow
def test_criterion_1_extended_degree_8(pentagon8):
    report = verify_theorem_main(pentagon8["phi"])
    assert report == {
        "pentagon_zero": True,
        "five_cycle_zero": True,
        "double_shuffle": True,
    }


def test_criterion_2_gamma_factorization(phi6):
    report = gamma_factorize(phi6)
    assert report["success"]
    for n in range(2, 7):
        expected = -phi6.coefficient((0,) * (n - 1) + (1,)) / n
        assert report["coefficients"][n] == expected
    corr = yside.correction_exponent(phi6).exp()
    gamma = gamma_at_minus_y1(report["coefficients"], phi6.trunc)
    assert corr == gamma.inverse()


def test_criterion_3_solution_space_dimensions():
    assert [len(dmr.solve_dmr0(d)) for d in range(2, 6)] == [0, 1, 0, 1]


@pytest.mark.slow
def test_criterion_3_bracket_membership_degree_8(psi3, psi5):
    from support import widen

    bracket = dmr.ihara_bracket(widen(psi3, 8), widen(psi5, 8))
    assert not bracket.is_zero()
    assert dmr.is_dmr0(bracket)


def test_criterion_4_five_strand_dimensions():
    pres = Presentation.builtin("p5")
    model = p5_model(6)
    for d in range(7):
        expected = 3 ** (d + 1) - 2 ** (d + 1)
        assert pres.dimension(d) == expected
        count = sum(
            1 for w in model.alphabet.words_of_degree(d) if model.is_normal(w)
        )
        assert count == expected


def test_criterion_5_bar_construction_suite():
    # the reference two-variable element, letter for letter
    A0, A1, B0, B1, G = barcx.A0, barcx.A1, barcx.B0, barcx.B1, barcx.G
    expected = barcx.BarElement(
        {
            (B1, A0, G): qq(1),
            (B1, B0, G): qq(1),
            (A0, B1, G): qq(1),
            (A0, A1, B1): qq(1),
            (A0, A0, G): qq(-1),
            (A0, A1, G): qq(-1),
        },
    )
    assert barcx.build_l2((2,), (1,)) == expected
    # integrability of every built element of weight <= 5
    idx5 = all_indices(5)
    for a in idx5:
        for tag in ("x", "y", "xy"):
            assert barcx.check_integrability(barcx.build_l(a, tag))
    for a in idx5:
        for b in idx5:
            if sum(a) + sum(b) > 5:
                continue
            assert barcx.check_integrability(barcx.build_l2(a, b))
            assert barcx.check_integrability(barcx.build_l2_yx(a, b))
    # the series shuffle formula, exhaustively up to total weight 5
    for a in idx5:
        for b in idx5:
            if sum(a) + sum(b) <= 5:
                assert barcx.check_series_shuffle_bar(a, b)


def test_criterion_6_regularization(phi6):
    apply_L = map_L(phi6)
    cache = {}
    for a in all_indices(5):
        lhs = series_regularized(a, phi6, cache)
        rhs = apply_L(integral_regularized(a, phi6))
        assert lhs == rhs
    fact = 1
    for m in range(1, 6):
        fact *= m
        expected = Poly([qq(0)] * m + [qq((-1) ** m, fact)])
        assert integral_regularized((1,) * m, phi6) == expected


def test_criterion_7_operator_identity_suite(psi3, psi5):
    from support import widen

    # the derivation identity on every Lie basis element of degree <= 5
    for d in range(2, 6):
        for _, f in lie_basis(X_ALPHABET, d, 6):
            for n in range(1, 6 - d + 1):
                assert dmr.lemma_derivation_check(f, n)
    # the coproduct and telescoping identities on every qualifying
    # homogeneous input of weight <= 5
    for w in range(1, 6):
        for g in dmr.qualifying_basis(w, 7):
            section = dmr.qualifying_section(g)
            for n in range(1, 7 - w + 1):
                assert dmr.lemma_coproduct_check(section, n)
            for k in range(w + 1):
                assert dmr.lemma_telescoping_check(section, k)
    # the coderivation property on the double shuffle generators
    assert coderivation_check(widen(psi3, 6), max_weight=3)
    assert coderivation_check(widen(psi5, 7), max_weight=2)
    # 100 seeded random degree-6 inputs for the derivation identity
    # (the other two identities have no qualifying inputs of degree 6:
    # their hypothesis space is empty in even weights up to 6)
    rng = random.Random(2026)
    for case in range(100):
        f = random_lie(rng, 6, 7)
        assert dmr.lemma_derivation_check(f, 1)


def test_criterion_8_hopf_sanity_suites():
    start = time.monotonic()
    # group-likeness: coproduct characterization vs Lie logarithm
    rng = random.Random(8801)
    for case in range(100):
        if case % 2 == 0:
            s = random_group_like(rng, 5)
        else:
            s = random_group_like(rng, 5).add(
                random_series(rng, X_ALPHABET, 5, density=0.1)
            )
        if s.constant_term() != 1:
            s = s.add(one(X_ALPHABET, 5)).sub(
                Series(X_ALPHABET, 5, RATIONALS, {(): s.constant_term()})
            )
        coproduct_answer = coproduct(s) == tensor_square(s)
        friedrichs_answer = is_lie(s.log())
        assert coproduct_answer == friedrichs_answer
        assert is_group_like(s) == coproduct_answer
    # shuffle-stuffle duality: the quasi-shuffle coproduct against the
    # quasi-shuffle product of words
    rng = random.Random(8802)
    ya = y_alphabet(5)
    words = [w for d in range(1, 6) for w in ya.words_of_degree(d)]
    for case in range(100):
        w = rng.choice(words)
        d = yside.delta_star(Series(ya, 5, RATIONALS, {w: qq(1)}))
        for (u, v), c in tensor_pairs(d):
            wu = tuple(i + 1 for i in u)
            wv = tuple(i + 1 for i in v)
            ww = tuple(i + 1 for i in w)
            assert qq(stuffle_oracle(wu, wv).get(ww, 0)) == c
    # pi_Y composed with the section is the identity
    rng = random.Random(8803)
    for case in range(100):
        g = random_series(rng, ya, 5)
        assert yside.pi_y(yside.sec(g)) == g
    # group law: two-form agreement (asserted inside group_law) and
    # associativity
    rng = random.Random(8804)
    for case in range(100):
        a = random_group_like(rng, 4)
        b = random_group_like(rng, 4)
        ab = group_law(a, b)
        assert is_group_like(ab)
        c = random_group_like(rng, 4)
        assert group_law(ab, c) == group_law(a, group_law(b, c))
    assert time.monotonic() - start < 120
