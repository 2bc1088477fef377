import random
from functools import lru_cache

import pytest

from assoclab import yside
from assoclab.lab import solve_pentagon
from assoclab.lie import lie_basis
from assoclab.rationals import qq
from assoclab.rings import RATIONALS
from assoclab.series import Series, from_word, is_group_like, one
from assoclab.words import X_ALPHABET, y_alphabet

from support import (all_indices, index_to_word, is_admissible, random_group_like, random_series,
                     stuffle, tensor_model, tensor_pairs)

TRUNC = 5


def y_word_series(word, trunc=TRUNC):
    return Series(y_alphabet(trunc), trunc, RATIONALS, {word: qq(1)})


def index_x_word(a):
    w = []
    for n in reversed(a):
        w.extend([0] * (n - 1))
        w.append(1)
    return tuple(w)


# -- projection and embedding -------------------------------------------


def test_pi_y_kills_words_ending_in_x0():
    s = from_word(X_ALPHABET, TRUNC, (1, 0))
    assert yside.pi_y(s).is_zero()


def test_pi_y_sign_is_minus_one_to_the_depth():
    # X0X1 X1 has two blocks: (-1)^2 Y2 Y1
    s = from_word(X_ALPHABET, TRUNC, (0, 1, 1))
    assert yside.pi_y(s).terms == {(1, 0): qq(1)}
    s = from_word(X_ALPHABET, TRUNC, (0, 0, 1))
    assert yside.pi_y(s).terms == {(2,): qq(-1)}


def test_embed_single_letter():
    for m in range(1, TRUNC + 1):
        s = y_word_series((m - 1,))
        expected = {(0,) * (m - 1) + (1,): qq(-1)}
        assert yside.embed_y(s).terms == expected


def test_pi_y_embed_y_roundtrip():
    rng = random.Random(21)
    for _ in range(10):
        s = random_series(rng, y_alphabet(TRUNC), TRUNC)
        assert yside.pi_y(yside.embed_y(s)) == s


def test_sec_is_a_section_of_pi_y():
    rng = random.Random(22)
    for _ in range(10):
        g = random_series(rng, y_alphabet(TRUNC), TRUNC)
        assert yside.pi_y(yside.sec(g)) == g


def test_sec_lands_in_kernel_of_partial0():
    rng = random.Random(23)
    g = random_series(rng, y_alphabet(TRUNC), TRUNC)
    assert yside.partial0(yside.sec(g)).is_zero()


# -- the quasi-shuffle coproduct ----------------------------------------


def test_delta_star_on_a_letter():
    for n in range(1, TRUNC + 1):
        d = yside.delta_star(y_word_series((n - 1,)))
        expected = {((), (n - 1,)): qq(1), ((n - 1,), ()): qq(1)}
        for i in range(1, n):
            expected[((i - 1,), (n - i - 1,))] = qq(1)
        assert dict(tensor_pairs(d)) == expected


def test_delta_star_is_algebra_morphism():
    rng = random.Random(24)
    a = random_series(rng, y_alphabet(4), 4)
    b = random_series(rng, y_alphabet(4), 4)
    product = tensor_model(y_alphabet(4), 4).mul(yside.delta_star(a), yside.delta_star(b))
    assert yside.delta_star(a.mul(b)) == product


def test_delta_star_coassociative_on_words():
    # (Delta (x) id) Delta = (id (x) Delta) Delta, checked coefficientwise
    ya = y_alphabet(4)

    def word_delta(w):
        return yside.delta_star(Series(ya, 4, RATIONALS, {w: qq(1)}))

    for w in ya.words_of_degree(4):
        d = word_delta(w)
        left = {}
        right = {}
        for (u, v), c in tensor_pairs(d):
            for (p, q), m in tensor_pairs(word_delta(u)):
                key = (p, q, v)
                left[key] = left.get(key, qq(0)) + c * m
            for (p, q), m in tensor_pairs(word_delta(v)):
                key = (u, p, q)
                right[key] = right.get(key, qq(0)) + c * m
        left = {k: v for k, v in left.items() if v != 0}
        right = {k: v for k, v in right.items() if v != 0}
        assert left == right


# -- stuffle: an independent oracle ---------------------------------------


@lru_cache(maxsize=None)
def stuffle_oracle(a, b):
    """Index-level quasi-shuffle, recursing on the last (innermost) entry."""
    if not a:
        return {b: 1}
    if not b:
        return {a: 1}
    out = {}
    for c, m in stuffle_oracle(a[:-1], b).items():
        c = c + (a[-1],)
        out[c] = out.get(c, 0) + m
    for c, m in stuffle_oracle(a, b[:-1]).items():
        c = c + (b[-1],)
        out[c] = out.get(c, 0) + m
    for c, m in stuffle_oracle(a[:-1], b[:-1]).items():
        c = c + (a[-1] + b[-1],)
        out[c] = out.get(c, 0) + m
    return out


def test_stuffle_matches_oracle():
    idx = all_indices(4)
    for a in idx:
        for b in idx:
            assert stuffle(a, b) == stuffle_oracle(a, b)


def test_stuffle_terms_cover_the_product():
    idx = all_indices(4)
    for a in idx:
        for b in idx:
            table = {}
            for (_, tag, full) in yside.stuffle_terms(a, b):
                assert tag in ("xy", "x,y", "y,x")
                table[full] = table.get(full, 0) + 1
            assert table == stuffle_oracle(a, b)


def test_stuffle_terms_tags():
    terms = yside.stuffle_terms((2,), (1,))
    tags = sorted((tag, pair) for (pair, tag, _) in terms)
    assert tags == [
        ("x,y", ((2,), (1,))),
        ("xy", ((3,), ())),
        ("y,x", ((1,), (2,))),
    ]


def test_delta_star_dual_to_stuffle():
    # <Delta_*(w), u (x) v> equals the multiplicity of w in u * v
    ya = y_alphabet(4)

    def weights(word):
        return tuple(i + 1 for i in word)

    words = [w for d in range(1, 5) for w in ya.words_of_degree(d)]
    for w in words:
        d = yside.delta_star(Series(ya, 4, RATIONALS, {w: qq(1)}))
        for (u, v), c in tensor_pairs(d):
            got = stuffle_oracle(weights(u), weights(v)).get(weights(w), 0)
            assert qq(got) == c


# -- regularization and double shuffle ------------------------------------


def test_correction_exponent_formula():
    rng = random.Random(25)
    phi = random_group_like(rng, TRUNC)
    corr = yside.correction_exponent(phi)
    for n in range(1, TRUNC + 1):
        c = phi.coefficient((0,) * (n - 1) + (1,))
        expected = c * qq(-1 if n % 2 else 1, n)
        assert corr.coefficient((0,) * n) == expected
    assert all(set(w) == {0} for w in corr.terms)


def test_phi_star_of_exp_x1():
    # phi = exp(c X1): pi_Y gives exp(-c Y1) and the correction another
    # exp(-c Y1), so phi_* = exp(-2c Y1) (a group-like series)
    phi = Series(X_ALPHABET, TRUNC, RATIONALS, {(1,): qq(3)}).exp()
    expected = Series(y_alphabet(TRUNC), TRUNC, RATIONALS, {(0,): qq(-6)}).exp()
    assert yside.phi_star(phi) == expected
    assert yside.is_group_like_star(yside.phi_star(phi))


def test_is_group_like_star_on_products_of_letters():
    # exp(Y1) is group-like for Delta_* since Y1 is primitive
    g = Series(y_alphabet(TRUNC), TRUNC, RATIONALS, {(0,): qq(1)}).exp()
    assert yside.is_group_like_star(g)
    assert yside.is_primitive_star(g.log())
    bad = g.add(y_word_series((1,)))
    assert not yside.is_group_like_star(bad)


def test_check_double_shuffle_fails_generically(phi5):
    rng = random.Random(26)
    assert yside.check_double_shuffle(phi5)
    generic = random_group_like(rng, TRUNC)
    assert is_group_like(generic)
    assert not yside.check_double_shuffle(generic)


# -- mutation: a group-like perturbation breaks double shuffle ---------------


@pytest.fixture(scope="module")
def phi4():
    return solve_pentagon(4)["phi"]


LIE_BASIS_4 = lie_basis(X_ALPHABET, 4, 4)


@pytest.mark.parametrize(
    "lie", [e for _, e in LIE_BASIS_4], ids=[X_ALPHABET.format_word(lw) for lw, _ in LIE_BASIS_4]
)
def test_perturbed_solution_fails_double_shuffle(phi4, lie):
    # dim dmr_0 = 0 in degree 4, so phi4 exp(L/3) stays group-like for the
    # shuffle coproduct but fails Delta_* for every Lyndon element L
    assert yside.check_double_shuffle(phi4)
    phi = phi4.mul(lie.scale(qq(1, 3)).exp())
    assert is_group_like(phi)
    assert not yside.check_double_shuffle(phi)


# -- indices and coefficient functionals ----------------------------------


def test_index_word_roundtrip():
    for a in all_indices(5):
        assert yside.word_to_index(index_to_word(a)) == a
    assert is_admissible((1, 2))
    assert not is_admissible((2, 1))


def test_l_value_x_sign_convention():
    rng = random.Random(27)
    phi = random_group_like(rng, TRUNC)
    for a in all_indices(4):
        expected = phi.coefficient(index_x_word(a)) * qq(-1 if len(a) % 2 else 1)
        assert yside.l_value_x(a, phi) == expected
        assert yside.pi_y(phi).coefficient(index_to_word(a)) == expected


def test_l_values_satisfy_stuffle_for_double_shuffle_elements(phi5):
    star = yside.phi_star(phi5)
    for a in all_indices(2):
        for b in all_indices(2):
            lhs = star.coefficient(index_to_word(a)) * star.coefficient(index_to_word(b))
            rhs = qq(0)
            for c, m in stuffle(a, b).items():
                rhs = rhs + qq(m) * star.coefficient(index_to_word(c))
            assert lhs == rhs


# -- operators -------------------------------------------------------------


def test_partial0_is_a_derivation():
    # the identity needs headroom: products must not hit the truncation
    from support import widen

    rng = random.Random(28)
    a = widen(random_series(rng, X_ALPHABET, 2), 4)
    b = widen(random_series(rng, X_ALPHABET, 2), 4)
    lhs = yside.partial0(a.mul(b))
    rhs = yside.partial0(a).mul(b).add(a.mul(yside.partial0(b)))
    assert lhs == rhs


def test_antipode_x_is_an_involutive_antiautomorphism():
    rng = random.Random(29)
    a = random_series(rng, X_ALPHABET, 4)
    b = random_series(rng, X_ALPHABET, 4)
    assert yside.antipode_x(yside.antipode_x(a)) == a
    assert yside.antipode_x(a.mul(b)) == yside.antipode_x(b).mul(yside.antipode_x(a))


def test_antipode_x_inverts_group_like_series():
    rng = random.Random(30)
    g = random_group_like(rng, 4)
    assert yside.antipode_x(g).mul(g) == one(X_ALPHABET, 4)


def test_reverse_y_is_an_involutive_antiautomorphism():
    rng = random.Random(31)
    a = random_series(rng, y_alphabet(4), 4)
    b = random_series(rng, y_alphabet(4), 4)
    assert yside.reverse_y(yside.reverse_y(a)) == a
    assert yside.reverse_y(a.mul(b)) == yside.reverse_y(b).mul(yside.reverse_y(a))
