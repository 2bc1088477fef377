import json
import os
import pathlib
import random
import subprocess
import sys
from math import gcd

import pytest

from assoclab import dmr, yside
from assoclab.lab import abelian_x1_part, gamma_shape, meta_abelian
from assoclab.models import ab_model
from assoclab.lie import lie_basis
from assoclab.rationals import qq
from assoclab.rings import RATIONALS
from assoclab.series import (
    Series,
    from_word,
    is_group_like,
    is_lie,
    primitive_tensor,
    tensor_image,
    zero,
)
from assoclab.words import X_ALPHABET, y_alphabet

from support import (coderivation_check, exp_dmr, random_lie, random_lie_mixed, random_series,
                     tensor_pairs, widen)

TRUNC = 7


# -- membership and the solver ----------------------------------------------


def test_solution_space_dimensions():
    assert [len(dmr.solve_dmr0(d)) for d in range(2, 6)] == [0, 1, 0, 1]


def test_generators_are_members(psi3, psi5):
    assert dmr.is_dmr0(psi3)
    assert dmr.is_dmr0(psi5)
    for psi in (psi3, psi5):
        assert is_lie(psi)
        assert psi.coefficient((0, 1)) == 0


def test_generic_lie_element_is_not_member():
    rng = random.Random(70)
    f = random_lie(rng, 4, 4)
    assert not dmr.is_dmr0(f)


def test_depth_one_normalization_is_enforced(psi3):
    bad = psi3.add(
        Series(X_ALPHABET, psi3.trunc, RATIONALS, {(0, 1): qq(1), (1, 0): qq(-1)})
    )
    assert is_lie(bad)
    assert not dmr.is_dmr0(bad)


DMR_DIMS = {3: 1, 4: 0, 5: 1, 6: 0, 7: 1, 8: 1}


@pytest.mark.parametrize("degree", sorted(DMR_DIMS))
def test_solver_and_membership_read_one_defect(degree):
    # the solved vectors have an empty defect and are members; adding the
    # last Lyndon basis element leaves dmr_0 in both readings
    last = lie_basis(X_ALPHABET, degree, degree)[-1][1]
    assert dmr.dmr0_defect(last)[1]
    solved = dmr.solve_dmr0(degree)
    assert len(solved) == DMR_DIMS[degree]
    for psi in solved:
        assert dmr.dmr0_defect(psi) == (1, {})
        assert dmr.is_dmr0(psi)
        bad = psi.add(last)
        assert dmr.dmr0_defect(bad)[1]
        assert not dmr.is_dmr0(bad)


def test_importing_dmr_compiles_neither_lab_nor_models():
    src = str(pathlib.Path(__file__).parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = (
        "import json, sys, assoclab.dmr; "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('assoclab'))))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    loaded = json.loads(out.stdout)
    assert "assoclab.dmr" in loaded
    assert "assoclab.lab" not in loaded and "assoclab.models" not in loaded


# -- the halved dmr_0 rows ----------------------------------------------------


def full_star_defect(s):
    """Delta_*(s) - (1 (x) s + s (x) 1) on every pair (u, v), through the
    Delta_* that dmr reads."""
    return dict(tensor_pairs(dmr.delta_star(s).sub(primitive_tensor(s))))


def flip_asymmetry(table):
    """The entries of a (u, v) -> c table whose flip (v, u) differs."""
    return {(u, v): c for (u, v), c in table.items() if table.get((v, u)) != c}


@pytest.mark.parametrize("seed", range(4))
def test_star_defect_is_flip_symmetric(seed):
    rng = random.Random(3100 + seed)
    g = random_series(rng, y_alphabet(6), 6, density=0.3)
    table = full_star_defect(g)
    assert table and not flip_asymmetry(table)
    table = full_star_defect(yside.psi_star(random_lie_mixed(rng, 6)))
    assert table and not flip_asymmetry(table)


def test_halved_defect_is_empty_exactly_when_the_full_one_is(psi3, psi5):
    rng = random.Random(3110)
    cases = [psi3, psi5, *dmr.solve_dmr0(7), *dmr.solve_dmr0(8)]
    # solve_dmr0(d) is homogeneous of degree d = its truncation
    cases += [psi.add(random_lie(rng, psi.trunc, psi.trunc, 1)) for psi in cases]
    cases += [random_lie(rng, d, d) for d in (3, 5, 6)]
    for psi in cases:
        full = full_star_defect(yside.psi_star(psi))
        den, tables = dmr.dmr0_defect(psi)
        entries = [m for t in tables.values() for m in t.values()]
        assert all(tables.values()) and all(entries) and gcd(den, *entries) == 1
        halved = {k: qq(m, den) for k, m in tables.get(0, {}).items()}
        kept = {(u, v): c for (u, v), c in full.items() if u <= v}
        assert {k[1:]: c for k, c in halved.items() if k[0] == "t"} == kept
        assert bool(kept) == bool(full)
        assert dmr.is_dmr0(psi) == (not full and not psi.coefficient((0, 1)))


def test_a_non_symmetric_delta_star_is_caught(monkeypatch, psi5):
    def skewed(s):
        # Delta_*(Y3) without its Y2 (x) Y1 term: no longer flip-symmetric
        letters = [
            [
                ((i - 1,) if i else (), (n - i - 1,) if i < n else ())
                for i in range(n + 1)
                if (n, i) != (3, 2)
            ]
            for n in range(1, len(s.alphabet) + 1)
        ]
        return tensor_image(s, letters)

    assert not flip_asymmetry(full_star_defect(yside.psi_star(psi5)))
    monkeypatch.setattr(dmr, "delta_star", skewed)
    assert flip_asymmetry(full_star_defect(yside.psi_star(psi5)))
    g = random_series(random.Random(3120), y_alphabet(6), 6, density=0.3)
    assert flip_asymmetry(full_star_defect(g))


# -- the Ihara bracket ---------------------------------------------------------


def test_bracket_antisymmetric():
    rng = random.Random(71)
    a = random_lie(rng, 2, 5)
    b = random_lie(rng, 3, 5)
    assert dmr.ihara_bracket(a, b) == dmr.ihara_bracket(b, a).neg()
    assert dmr.ihara_bracket(a, a).is_zero()


def test_bracket_jacobi():
    rng = random.Random(72)
    a = random_lie(rng, 2, TRUNC)
    b = random_lie(rng, 2, TRUNC)
    c = random_lie(rng, 3, TRUNC)
    jac = (
        dmr.ihara_bracket(a, dmr.ihara_bracket(b, c))
        .add(dmr.ihara_bracket(b, dmr.ihara_bracket(c, a)))
        .add(dmr.ihara_bracket(c, dmr.ihara_bracket(a, b)))
    )
    assert jac.is_zero()


def test_bracket_of_lie_series_is_lie():
    rng = random.Random(80)
    for d1, d2 in ((1, 2), (2, 3), (2, 4), (3, 3)):
        a = random_lie(rng, d1, d1 + d2)
        b = random_lie(rng, d2, d1 + d2)
        assert is_lie(dmr.ihara_bracket(a, b))
    a, b = random_lie_mixed(rng, 5), random_lie_mixed(rng, 5)
    assert is_lie(dmr.ihara_bracket(a, b))


def test_bracket_closure(psi3):
    # {psi3, psi3} = 0 and {psi3, psi5} stays in the double shuffle
    # Lie algebra (the degree-8 check lives in the acceptance suite)
    p = widen(psi3, 6)
    assert dmr.ihara_bracket(p, p).is_zero()


# -- the operator calculus -----------------------------------------------------


def test_s_map_antihomomorphism_for_the_bracket():
    rng = random.Random(73)
    p1 = random_lie(rng, 2, 6)
    p2 = random_lie(rng, 2, 6)
    v = random_series(rng, X_ALPHABET, 6)
    br = dmr.ihara_bracket(p1, p2)
    s1, s2 = dmr.s_f_map(p1), dmr.s_f_map(p2)
    lhs = dmr.s_f_map(br)(v)
    rhs = s2(s1(v)).sub(s1(s2(v)))
    assert lhs == rhs


def test_s_map_commutes_with_x1_powers():
    rng = random.Random(74)
    psi = random_lie(rng, 3, 6)
    x1 = Series(X_ALPHABET, 6, RATIONALS, {(1,): qq(1)})
    x1n = x1.mul(x1)
    v = random_series(rng, X_ALPHABET, 6)
    s_psi, s_x1n = dmr.s_f_map(psi), dmr.s_f_map(x1n)
    assert s_psi(s_x1n(v)) == s_x1n(s_psi(v))


def test_s_map_descends_along_pi_y():
    rng = random.Random(75)
    f = random_lie(rng, 2, 6)
    v = random_series(rng, X_ALPHABET, 6)
    assert yside.pi_y(dmr.s_f_map(f)(v)) == dmr.s_f_y_map(f)(yside.pi_y(v))


def test_big_d_y_is_a_derivation():
    rng = random.Random(76)
    f = random_lie(rng, 2, 6)
    ya = y_alphabet(6)
    u = widen(random_series(rng, ya, 2), 6)
    v = widen(random_series(rng, ya, 2), 6)
    d_y = dmr.big_d_y_map(f)
    lhs = d_y(u.mul(v))
    rhs = d_y(u).mul(v).add(u.mul(d_y(v)))
    assert lhs == rhs


def test_d_psi_is_a_derivation():
    rng = random.Random(77)
    psi = random_lie(rng, 2, 6)
    a = widen(random_series(rng, X_ALPHABET, 2), 6)
    b = widen(random_series(rng, X_ALPHABET, 2), 6)
    lhs = dmr.d_psi(psi, a.mul(b))
    rhs = dmr.d_psi(psi, a).mul(b).add(a.mul(dmr.d_psi(psi, b)))
    assert lhs == rhs


# -- the X0-power decomposition ------------------------------------------------


def test_x_decomposition_roundtrip():
    rng = random.Random(78)
    f = random_lie(rng, 4, 6)
    p, comps = dmr.x_decomposition(f)
    assert p == 4
    # f = sum_i f_i X0^i
    recomposed = zero(X_ALPHABET, 6)
    for i, fi in enumerate(comps):
        recomposed = recomposed.add(yside.embed_y(fi).mul(from_word(X_ALPHABET, 6, (0,) * i)))
    assert recomposed == f


def test_x_decomposition_requires_homogeneous():
    rng = random.Random(79)
    f = random_lie(rng, 2, 6).add(random_lie(rng, 3, 6))
    with pytest.raises(ValueError):
        dmr.x_decomposition(f)


# -- the three operator identities ---------------------------------------------


def test_derivation_identity_on_lie_basis():
    for d in range(2, 5):
        for _, f in lie_basis(X_ALPHABET, d, 6):
            for n in range(1, 6 - d + 1):
                assert dmr.lemma_derivation_check(f, n)


def test_derivation_identity_requires_antipode_hypothesis():
    # a non-Lie element fails the hypothesis
    s = Series(X_ALPHABET, 6, RATIONALS, {(0, 1): qq(1)})
    with pytest.raises(ValueError):
        dmr.lemma_derivation_check(s, 1)


def test_coproduct_identity_on_qualifying_inputs():
    for w in (1, 3):
        for g in dmr.qualifying_basis(w, 6):
            section = dmr.qualifying_section(g)
            for n in range(1, 6 - w + 1):
                assert dmr.lemma_coproduct_check(section, n)


def test_section_holds_d_y_on_words():
    for w in (1, 3):
        for g in dmr.qualifying_basis(w, 6):
            _, f, d_y, _ = dmr.qualifying_section(g)
            for m in range(1, 6 - w + 1):
                letter = Series(y_alphabet(6), 6, RATIONALS, {(m - 1,): qq(1)})
                assert d_y((m - 1,)) == dmr.big_d_y_map(f)(letter)
                assert d_y((m - 1,)) is d_y((m - 1,))
            assert d_y(()).is_zero()


def test_telescoping_identity_on_qualifying_inputs():
    for w in (1, 3):
        for g in dmr.qualifying_basis(w, 6):
            section = dmr.qualifying_section(g)
            for k in range(w + 1):
                assert dmr.lemma_telescoping_check(section, k)


def test_section_diagonals_are_the_pairing_sums():
    # d[k] = sum_{i=k}^p f_{i,i-k}, summed directly; Y_1 added to any one
    # diagonal fails both pairing checks
    y1 = Series(y_alphabet(8), 8, RATIONALS, {(0,): qq(1)})
    for w in range(1, 6):
        for g in dmr.qualifying_basis(w, 8):
            section = dmr.qualifying_section(g)
            diagonals = section[3]
            p, comps = dmr.x_decomposition(section[1])
            assert len(diagonals) == p + 1
            assert dmr.lemma_telescoping_check(section, p + 1)  # an empty sum
            for k in range(p + 1):
                direct = zero(y_alphabet(8), 8)
                for i in range(k, p + 1):
                    direct = direct.add(dmr.f_pair(p, comps, i, i - k, 8))
                assert diagonals[k] == direct
                bad = section[:3] + (diagonals[:k] + [diagonals[k].add(y1)] + diagonals[k + 1 :],)
                assert not dmr.lemma_coproduct_check(bad, 1)
                assert not dmr.lemma_telescoping_check(bad, k)


def test_coproduct_identity_needs_the_antipode_hypothesis():
    # U2 = Y2 - Y1^2/2 is primitive but sec(U2) is not antipode-odd;
    # the identity genuinely fails there, so no section of it reaches the
    # coproduct and telescoping checks
    u2 = dmr.u_generators(4)[1]
    assert yside.is_primitive_star(u2)
    with pytest.raises(ValueError):
        dmr.qualifying_section(u2)


def test_qualifying_basis_has_empty_defect():
    for w in range(1, 6):
        for g in dmr.qualifying_basis(w, w + 2):
            assert dmr.qualifying_defect(g) == (1, {})
    # U2 is primitive but fails the hypothesis, as the lemma checks say
    assert dmr.qualifying_defect(dmr.u_generators(4)[1])[1]


def test_qualifying_space_dimensions():
    dims = [len(dmr.qualifying_basis(w, w + 2)) for w in range(1, 6)]
    assert dims == [1, 0, 1, 0, 2]


def test_coderivation_property(psi3):
    assert coderivation_check(widen(psi3, 6), max_weight=3)


@pytest.mark.parametrize("seed", [1, 2])
def test_coderivation_property_fails_outside_dmr0(seed):
    f = random_lie(random.Random(seed), 3, 3)
    assert not dmr.is_dmr0(f)
    assert not coderivation_check(widen(f, 6), max_weight=3)


# -- the exponential map ---------------------------------------------------------


def test_exp_dmr_lands_in_the_group(psi3):
    e = exp_dmr(widen(psi3, 6))
    assert is_group_like(e)
    assert yside.check_double_shuffle(e)


def test_exp_dmr_differs_from_plain_exp(psi3):
    p = widen(psi3, 6)
    assert exp_dmr(p) != p.exp()


def test_meta_abelian_image_of_exp(psi3):
    p = widen(psi3, 6)
    e = exp_dmr(p)
    ab = ab_model(6)
    mlog = ab.log(meta_abelian(e))
    x1part = Series(
        X_ALPHABET, 6, RATIONALS,
        {w: c for w, c in p.terms.items() if w and w[-1] == 1},
    )
    assert mlog == ab.normalize(x1part)


# -- change of generators ----------------------------------------------------------


def test_u_generators_small_cases():
    us = dmr.u_generators(3)
    assert us[0].terms == {(0,): qq(1)}
    assert us[1].terms == {(1,): qq(1), (0, 0): qq(-1, 2)}
    assert us[2].terms == {
        (2,): qq(1),
        (0, 1): qq(-1, 2),
        (1, 0): qq(-1, 2),
        (0, 0, 0): qq(1, 3),
    }


def test_u_generators_are_primitive():
    for u in dmr.u_generators(4):
        assert yside.is_primitive_star(u)


def test_lie_y_basis_is_primitive_star():
    for w in range(1, 5):
        for g in dmr.lie_y_basis(w, 5):
            assert yside.is_primitive_star(g)


def test_weighted_lyndon_words_are_the_brute_force_filter():
    # every composition of w, cut at the positions of a bit mask, kept when
    # it is strictly smaller than each of its proper rotations
    for w in range(1, 10):
        words = []
        for mask in range(1 << (w - 1)):
            parts, start = [], 0
            for i in range(1, w):
                if mask >> (i - 1) & 1:
                    parts.append(i - start)
                    start = i
            a = tuple(parts) + (w - start,)
            if all(a < a[i:] + a[:i] for i in range(1, len(a))):
                words.append(a)
        assert dmr._weighted_lyndon(w) == sorted(words)


def test_lie_y_basis_dimensions():
    # free Lie algebra on generators of weights 1, 2, 3, ...: the number
    # of weighted Lyndon words (1, 1, 2, 3, 6, ...)
    assert [len(dmr.lie_y_basis(w, w + 1)) for w in range(1, 6)] == [1, 1, 2, 3, 6]


def test_lie_y_basis_above_its_weight_is_primitive_star():
    # the weighted Lyndon counts up to weight 6, each element primitive for
    # Delta_* at a truncation two above its weight
    bases = [dmr.lie_y_basis(w, w + 2) for w in range(1, 7)]
    assert [len(b) for b in bases] == [1, 1, 2, 3, 6, 9]
    assert all(yside.is_primitive_star(g) for b in bases for g in b)


# -- depth-graded sums and the gamma image -------------------------------------------


def test_binomial_sums(psi3, psi5):
    assert dmr.check_binomial_sums(psi3)
    assert dmr.check_binomial_sums(psi5)


def test_binomial_sums_fail_generically():
    rng = random.Random(80)
    f = random_lie(rng, 4, 4)
    assert not dmr.check_binomial_sums(f)


def test_gamma_image(psi3, psi5):
    m3 = abelian_x1_part(psi3)
    coeffs3, shape3 = gamma_shape(m3)
    assert m3 == shape3
    assert coeffs3[3] == -psi3.coefficient((0, 0, 1)) / 3
    m5 = abelian_x1_part(psi5)
    assert m5 == gamma_shape(m5)[1]
