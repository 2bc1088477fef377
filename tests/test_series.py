import random

import pytest

from assoclab import yside
from assoclab.lie import lie_basis
from assoclab.models import ab_model
from assoclab.rationals import qq
from assoclab.rings import RATIONALS, QuadraticExtension, accumulate
from assoclab.series import (
    AlphabetMismatch,
    Series,
    SeriesAlgebra,
    coproduct,
    from_text,
    is_group_like,
    is_lie,
    letter,
    one,
    primed,
    substitute,
    tensor,
    tensor_alphabet,
    tensor_square,
    to_text,
    zero,
)
from assoclab.words import X_ALPHABET, y_alphabet

from support import (PolynomialRing, random_group_like, random_lie_mixed, random_rational,
                     random_series, tensor_model, tensor_pairs)

TRUNC = 5


def x0x1(trunc=TRUNC):
    return letter(X_ALPHABET, trunc, "X0"), letter(X_ALPHABET, trunc, "X1")


def test_concatenation_example():
    x0, x1 = x0x1()
    p = x0.mul(x1)
    assert p.terms == {(0, 1): qq(1)}
    q = one(X_ALPHABET, TRUNC).add(x0).mul(x1)
    assert q.terms == {(1,): qq(1), (0, 1): qq(1)}


def test_truncation_drops_high_words():
    x0, _ = x0x1(2)
    assert x0.mul(x0).mul(x0).is_zero()


def test_alphabet_mismatch_raises():
    x0, _ = x0x1()
    ys = zero(y_alphabet(TRUNC), TRUNC)
    with pytest.raises(AlphabetMismatch):
        x0.add(ys)


def test_shuffle_example():
    x0, x1 = x0x1()
    s = x0.shuffle_mul(x1)
    assert s.terms == {(0, 1): qq(1), (1, 0): qq(1)}
    assert x0.shuffle_mul(x0).terms == {(0, 0): qq(2)}


def test_shuffle_commutative_associative():
    rng = random.Random(11)
    a = random_series(rng, X_ALPHABET, 4)
    b = random_series(rng, X_ALPHABET, 4)
    c = random_series(rng, X_ALPHABET, 4)
    assert a.shuffle_mul(b) == b.shuffle_mul(a)
    assert a.shuffle_mul(b).shuffle_mul(c) == a.shuffle_mul(b.shuffle_mul(c))


def test_exp_log_inverse_of_each_other():
    rng = random.Random(12)
    p = random_lie_mixed(rng, TRUNC)
    assert p.exp().log() == p
    g = random_group_like(rng, TRUNC)
    assert g.log().exp() == g


def test_inverse():
    rng = random.Random(13)
    g = random_group_like(rng, TRUNC)
    assert g.mul(g.inverse()) == one(X_ALPHABET, TRUNC)
    assert g.inverse().mul(g) == one(X_ALPHABET, TRUNC)


def test_coproduct_is_algebra_morphism():
    rng = random.Random(14)
    a = random_series(rng, X_ALPHABET, 4)
    b = random_series(rng, X_ALPHABET, 4)
    lhs = coproduct(a.mul(b))
    rhs = tensor_model(X_ALPHABET, 4).mul(coproduct(a), coproduct(b))
    assert lhs == rhs


def test_coproduct_dual_to_shuffle():
    # <Delta(w), u (x) v> equals the coefficient of w in u sha v
    rng = random.Random(15)
    for _ in range(20):
        w = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 4)))
        ws = Series(X_ALPHABET, 4, RATIONALS, {w: qq(1)})
        dw = coproduct(ws)
        for (u, v), c in tensor_pairs(dw):
            us = Series(X_ALPHABET, 4, RATIONALS, {u: qq(1)})
            vs = Series(X_ALPHABET, 4, RATIONALS, {v: qq(1)})
            assert us.shuffle_mul(vs).coefficient(w) == c


def test_group_like_iff_exp_of_lie():
    rng = random.Random(16)
    g = random_group_like(rng, TRUNC)
    assert is_group_like(g)
    assert coproduct(g) == tensor_square(g)
    bad = g.add(Series(X_ALPHABET, TRUNC, RATIONALS, {(0, 1): qq(1)}))
    assert not is_group_like(bad)


def test_is_lie_two_characterizations_agree():
    rng = random.Random(17)
    for _ in range(10):
        p = random_lie_mixed(rng, 4)
        assert is_lie(p)
        s = random_series(rng, X_ALPHABET, 4)
        # primitivity under the coproduct is the reference answer
        assert is_lie(s) == (coproduct(s) == _primitive_image(s))


def test_bounded_shuffle_memo_gives_the_unbounded_sums(monkeypatch):
    from functools import lru_cache

    from assoclab import series, words

    words.shuffle_words.cache_clear()
    s = lie_basis(X_ALPHABET, 10, 10)[-1][1]
    assert is_lie(s)  # cross-checked by the Dynkin map, with no shuffle
    assert words.shuffle_words.cache_info().currsize == 0
    # off the Lie algebra, so that the sums are not all zero
    s = s.add(random_series(random.Random(18), X_ALPHABET, 10, density=0.01))
    assert not is_lie(s)
    tables = series.split_terms(s.terms, s.ring)[1]
    bounded = list(series._shuffle_sums(s, tables))
    info = words.shuffle_words.cache_info()
    assert info.maxsize is not None and 0 < info.currsize <= info.maxsize
    assert any(sums for _, _, sums in bounded)
    unbounded = lru_cache(maxsize=None)(words.shuffle_words.__wrapped__)
    monkeypatch.setattr(words, "shuffle_words", unbounded)
    monkeypatch.setattr(series, "shuffle_words", unbounded)
    assert list(series._shuffle_sums(s, tables)) == bounded
    assert unbounded.cache_info().currsize > info.maxsize


def _primitive_image(s):
    terms = {}
    for w, c in s.terms.items():
        if w:
            terms[w] = c
            terms[primed(w)] = terms.get(primed(w), qq(0)) + c
    return Series(tensor_alphabet(s.alphabet), s.trunc, s.ring, terms, _clean=True)


def test_substitute_is_homomorphism():
    rng = random.Random(18)
    alg = SeriesAlgebra(X_ALPHABET, 4)
    x0, x1 = x0x1(4)
    images = [x0.add(x1), x1.mul(x0)]
    a = random_series(rng, X_ALPHABET, 4)
    b = random_series(rng, X_ALPHABET, 4)
    assert substitute(a.mul(b), images, alg) == substitute(a, images, alg).mul(
        substitute(b, images, alg)
    )


def test_abelianize_counts_letters():
    x0, x1 = x0x1(3)
    ab = ab_model(3)
    m = ab.normalize(x0.mul(x1).add(x1.mul(x0)))
    assert m.coefficient((0, 1)) == 2
    g = ab.normalize(x0.add(x1).exp())
    # exp(x0 + x1) abelianizes to exp(x0)exp(x1)
    assert g.coefficient((0, 0, 1)) == qq(1, 2)
    assert g.coefficient((0, 1)) == qq(1)


def test_text_roundtrip():
    rng = random.Random(19)
    s = random_series(rng, X_ALPHABET, 4).add(one(X_ALPHABET, 4))
    assert from_text(to_text(s)) == s


def test_text_roundtrip_weighted_alphabet():
    rng = random.Random(20)
    ya = y_alphabet(4)
    s = random_series(rng, ya, 4)
    assert from_text(to_text(s), weights=ya.weights) == s


def test_accumulate_drops_cancelled_keys():
    out = accumulate({"a": qq(1)}, [("a", qq(-1)), ("b", qq(2)), ("c", qq(0))])
    assert out == {"b": qq(2)}


def test_zero_divisor_products_store_no_term():
    # in Q[mu]/(mu^2 - 1), (1 + mu)(1 - mu) = 1 - mu^2 = 0
    ring = QuadraticExtension(1)
    a, b = ring.one + ring.mu, ring.one - ring.mu
    assert a and b and not a * b
    x0 = Series(X_ALPHABET, 2, ring, {(0,): a})
    x1 = Series(X_ALPHABET, 2, ring, {(1,): b})
    assert x0.mul(x1).terms == {}
    assert tensor(x0, x1).terms == {}
    assert Series(X_ALPHABET, 2, ring, {(0, 1): a * b}).terms == {}
    poly = PolynomialRing()
    assert poly.gen and not poly.zero and not poly.gen - poly.gen


# -- the shuffle cross-checks over a ring with two basis elements ----------

QUAD = QuadraticExtension(qq(-2, 5))


def quad_lie(seed, trunc=TRUNC):
    """A Lie series over Q(mu), mu^2 = -2/5, with a + b mu coordinates."""
    rng = random.Random(seed)
    s = zero(X_ALPHABET, trunc, QUAD)
    for d in range(1, trunc + 1):
        for _, e in lie_basis(X_ALPHABET, d, trunc, QUAD):
            c = QUAD.embed(random_rational(rng, 3)) + QUAD.mu * QUAD.embed(random_rational(rng, 3))
            s = s.add(e.scale(c))
    return s


def test_cross_checks_accept_exp_and_log_over_quadratic_extension():
    lie = quad_lie(31)
    assert any(c.b for c in lie.terms.values())
    g = lie.exp()
    assert is_group_like(g)
    assert is_lie(g.log())


@pytest.mark.parametrize("word", [(0, 1), (1, 0, 0), (0, 1, 1, 0), (0, 1, 1, 0, 1)])
def test_cross_checks_reject_one_perturbed_mu_coordinate(word):
    # only the nu = 5 mu coordinate of one word moves; a degree-5 word is
    # reached only by the pairs whose degrees sum to the truncation
    lie = quad_lie(32)
    bump = Series(X_ALPHABET, TRUNC, QUAD, {word: QUAD.mu * QUAD.embed(qq(1, 7))})
    assert not is_group_like(lie.exp().add(bump))
    assert not is_lie(lie.add(bump))


# -- the coproducts against brute-force oracles ----------------------------


def dense_series(rng, alphabet, trunc, ring, unit):
    """Every word up to trunc, with coefficient a + b unit for random a, b."""
    terms = {}
    for d in range(trunc + 1):
        for w in alphabet.words_of_degree(d):
            terms[w] = ring.embed(random_rational(rng)) + unit * ring.embed(random_rational(rng))
    return Series(alphabet, trunc, ring, terms)


def subset_coproduct(s):
    """Delta(w) = sum over the subsets S of the positions of w of w|S (x) w|not S."""
    out = {}
    for w, c in s.terms.items():
        for mask in range(2 ** len(w)):
            u = tuple(x for i, x in enumerate(w) if mask >> i & 1)
            v = tuple(x for i, x in enumerate(w) if not mask >> i & 1)
            out[u, v] = out.get((u, v), s.ring.zero) + c
    return {k: c for k, c in out.items() if c}


@pytest.mark.parametrize("ring, unit", [(RATIONALS, qq(1)), (QUAD, QUAD.mu)], ids=["q", "quad"])
def test_coproduct_matches_subset_expansion(ring, unit):
    s = dense_series(random.Random(41), X_ALPHABET, 6, ring, unit)
    expected = subset_coproduct(s)
    assert dict(tensor_pairs(coproduct(s))) == expected
    bump = Series(X_ALPHABET, 6, ring, {(1, 0, 0, 1, 1, 0): unit * ring.embed(qq(1, 7))})
    assert dict(tensor_pairs(coproduct(s.add(bump)))) != expected


def product_of_letter_images(s):
    """Delta_*(s) as sum_w c_w prod_i Delta_*(Y_{n_i}) over the letters of
    each word w, the letter images sum_j Yj (x) Y_{n-j} (Y0 = 1) written
    out and multiplied in the tensor square."""
    trunc, ya = s.trunc, s.alphabet
    model = tensor_model(ya, trunc)
    y = [one(ya, trunc)] + [Series(ya, trunc, RATIONALS, {(i,): qq(1)}) for i in range(trunc)]
    images = []
    for n in range(1, trunc + 1):
        image = zero(tensor_alphabet(ya), trunc)
        for j in range(n + 1):
            image = image.add(tensor(y[j], y[n - j]))
        images.append(image)
    total = zero(tensor_alphabet(ya), trunc)
    for w, c in s.terms.items():
        image = one(tensor_alphabet(ya), trunc)
        for x in w:
            image = model.mul(image, images[x])
        total = total.add(image.scale(c))
    return total


def test_delta_star_matches_product_of_letter_images():
    # every word of weight 3 to 6 with two letters or more, weights mixed
    rng = random.Random(42)
    ya = y_alphabet(6)
    words = [w for d in range(3, 7) for w in ya.words_of_degree(d) if len(w) > 1]
    s = Series(ya, 6, RATIONALS, {w: random_rational(rng) or qq(1) for w in words})
    expected = product_of_letter_images(s)
    assert yside.delta_star(s) == expected
    bump = Series(ya, 6, RATIONALS, {(1, 0, 2): qq(1, 7)})
    assert yside.delta_star(s.add(bump)) != expected
