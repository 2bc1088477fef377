"""The integer kernel: integral bases of the rings, model products and
power series checked against a coefficient-ring oracle, and the split
routines, `combine`, `linear_map` and `bilinear`, against term-by-term
ring loops.

The oracle multiplies in the coefficient ring itself, as
normalize(a.mul(b)), and sums the power series term by term; the kernel
must give the same series exactly.
"""

import copy
import random
from itertools import product
from math import factorial, gcd

import pytest

from assoclab.lie import lie_basis
from assoclab.models import a4_model, ab_model, check_hexagons, lift_series, p5_model
from assoclab.presented import Presentation
from assoclab.rationals import QQ, qq
from assoclab.rings import INTEGERS, RATIONALS, QuadElt, QuadraticExtension
from assoclab.series import (
    Series,
    SeriesAlgebra,
    combine,
    coproduct,
    derivation,
    is_group_like,
    is_lie,
    join_series,
    kernel_mul,
    linear_map,
    primed,
    primitive_tensor,
    reduced,
    split_series,
    split_terms,
    tensor,
    tensor_alphabet,
)
from assoclab.words import X_ALPHABET, shuffle_words, y_alphabet
from assoclab.yside import delta_star, pi_y

from support import T_RING, Poly, random_lie_mixed, word_split

HEX_Q = 24 * qq(-2, 5)  # mu^2 for c2 = -2/5: P/R = -48/5, not an integer
HEX_RING = QuadraticExtension(HEX_Q)
RINGS = {"Q": RATIONALS, "Q(mu)": HEX_RING, "Q[T]": T_RING}


def random_rational(rng, bound=5):
    return qq(rng.randint(-bound, bound), rng.randint(1, 6))


def random_element(rng, ring):
    if ring is RATIONALS:
        return random_rational(rng)
    if isinstance(ring, QuadraticExtension):
        return QuadElt(random_rational(rng), random_rational(rng), ring.q)
    return Poly([random_rational(rng) for _ in range(rng.randint(1, 3))])


def random_series(rng, model, density, constant=None):
    terms = {(): constant} if constant is not None else {}
    for d in range(1, model.trunc + 1):
        for w in model.alphabet.words_of_degree(d):
            if rng.random() < density:
                terms[w] = random_element(rng, model.ring)
    return Series(model.alphabet, model.trunc, model.ring, terms)


# -- integral bases -----------------------------------------------------------


@pytest.mark.parametrize("name", RINGS)
def test_split_join_round_trip(name):
    ring = RINGS[name]
    rng = random.Random(80)
    for _ in range(50):
        c = random_element(rng, ring)
        coords = ring.split(c)
        assert all(isinstance(x, QQ) for x in coords)
        assert ring.join(coords) == c
    assert ring.join(ring.split(ring.one)) == ring.one


def test_quadratic_basis_is_nu_equals_r_mu():
    # q = -48/5: nu = 5 mu, so mu has coordinates (0, 1/5) and nu^2 = -240
    assert HEX_RING.split(HEX_RING.mu) == (0, qq(1, 5))
    nu = HEX_RING.join((0, 1))
    assert nu == HEX_RING.mu * HEX_RING.embed(5)
    assert nu * nu == HEX_RING.embed(-240)
    assert HEX_RING.split(HEX_RING.embed(qq(3, 7))) == (qq(3, 7), 0)


@pytest.mark.parametrize("name", RINGS)
def test_basis_products_are_the_ring_products(name):
    ring = RINGS[name]
    rank = {"Q": 1, "Q(mu)": 2, "Q[T]": 4}[name]  # the first four T^i for Q[T]
    basis = [ring.join([1 if i == k else 0 for i in range(k + 1)]) for k in range(rank)]
    for i, ei in enumerate(basis):
        for j, ej in enumerate(basis):
            expected = ring.zero
            for k, m in ring.basis_product(i, j):
                assert isinstance(m, int)
                expected = expected + ring.join([m if t == k else 0 for t in range(k + 1)])
            assert ei * ej == expected


def test_integers_ring():
    assert INTEGERS.embed(qq(6, 3)) == 2 and isinstance(INTEGERS.embed(qq(6, 3)), int)
    with pytest.raises(ValueError):
        INTEGERS.embed(qq(1, 2))
    assert INTEGERS.join(INTEGERS.split(-7)) == -7


@pytest.mark.parametrize("name", RINGS)
def test_split_series_round_trip(name):
    ring = RINGS[name]
    rng = random.Random(81)
    m = a4_model(3, ring)
    s = random_series(rng, m, 0.2, random_element(rng, ring))
    den, parts = split_series(s)
    assert all(type(p) is dict and p for p in parts.values())
    assert all(type(c) is int and c for p in parts.values() for c in p.values())
    assert join_series((den, parts), m) == s


# -- kernel products and power series against the ring oracle ----------------


def oracle_mul(m, *factors):
    out = m.one()
    for f in factors:
        out = m.normalize(out.mul(f))
    return out


def oracle_power_series(m, coefficient, u):
    out, power = m.one().scale_q(coefficient(0)), m.one()
    for k in range(1, m.trunc + 1):
        power = oracle_mul(m, power, u)
        out = out.add(power.scale_q(coefficient(k)))
    return out


MODELS = {"a4": (a4_model, 3, 0.12), "p5": (p5_model, 3, 0.15), "ab": (ab_model, 5, 0.5)}
CASES = [(model, ring) for model in MODELS for ring in RINGS]


def kernel_inputs(model, ring, seed):
    make, trunc, density = MODELS[model]
    m = make(trunc, RINGS[ring])
    rng = random.Random(seed)
    return m, rng


@pytest.mark.parametrize("model,ring", CASES)
def test_kernel_products_match_the_oracle(model, ring):
    m, rng = kernel_inputs(model, ring, 82)
    density = MODELS[model][2]
    a, b, c = (random_series(rng, m, density, random_element(rng, m.ring)) for _ in range(3))
    assert m.mul(a, b) == oracle_mul(m, a, b)
    assert m.mul(a, b, c) == oracle_mul(m, a, b, c)
    assert m.mul(a) == m.normalize(a)
    assert m.mul() == m.one()


@pytest.mark.parametrize("model,ring", CASES)
def test_kernel_power_series_match_the_oracle(model, ring):
    m, rng = kernel_inputs(model, ring, 83)
    density = MODELS[model][2]
    u = m.normalize(random_series(rng, m, density))
    one = m.one()
    assert m.exp(u) == oracle_power_series(m, lambda k: qq(1, factorial(k)), u)
    g = one.add(u)
    log = oracle_power_series(m, lambda k: qq((-1) ** (k + 1), k) if k else 0, u)
    assert m.log(g) == log
    assert m.inverse(g) == oracle_power_series(m, lambda k: 1, one.sub(g))


def test_kernel_keeps_large_denominators_exact():
    # coefficients with coprime denominators in both coordinates of Q(mu)
    m = a4_model(4, HEX_RING)
    t12, t23 = m.letter("t12"), m.letter("t23")
    a = t12.scale(QuadElt(qq(1, 7), qq(2, 11), HEX_Q)).add(m.one())
    b = t23.scale(QuadElt(qq(-3, 13), qq(1, 17), HEX_Q)).add(m.one())
    assert m.mul(a, b, a) == oracle_mul(m, a, b, a)
    assert m.exp(t12.scale(HEX_RING.mu)) == oracle_power_series(
        m, lambda k: qq(1, factorial(k)), t12.scale(HEX_RING.mu)
    )


def test_free_algebra_power_series_match_the_oracle():
    rng = random.Random(84)
    for ring in RINGS.values():
        terms = {w: random_element(rng, ring) for d in (1, 2) for w in X_ALPHABET.words_of_degree(d)}
        u = Series(X_ALPHABET, 4, ring, terms)
        expected, power = Series(X_ALPHABET, 4, ring, {(): ring.one}), None
        for k in range(1, 5):
            power = u if power is None else power.mul(u)
            expected = expected.add(power.scale_q(qq(1, factorial(k))))
        assert u.exp() == expected


# -- held splits ----------------------------------------------------------------
#
# A kernel result holds its split and joins its terms when they are first read.
# The oracle joins a split word by word, one ring.join of the coordinates m / D
# per word, whatever the common factor of D and the entries.


def join_by_word(x, ring):
    den, parts = x
    words = {w for p in parts.values() for w in p}
    rank = max(parts, default=0) + 1
    coords = ([QQ(parts[k].get(w, 0), den) if k in parts else 0 for k in range(rank)]
              for w in words)
    return dict(zip(words, map(ring.join, coords)))


def holds_terms(s):
    """Whether s has built its ring terms, read without building them."""
    try:
        Series.__dict__["terms"].__get__(s, Series)
    except AttributeError:
        return False
    return True


def plain(s):
    """A series with the ring terms of s and no split."""
    return Series(s.alphabet, s.trunc, s.ring, dict(s.terms), _clean=True)


def large_element(rng, ring):
    """A coefficient with large coprime denominators (in both coordinates of Q(mu))."""
    primes = (10007, 10009, 10037, 10039, 10061, 10067)

    def big():
        return qq(rng.randint(-10 ** 6, 10 ** 6), rng.choice(primes) * rng.choice(primes))

    if ring is HEX_RING:
        return QuadElt(big(), big(), HEX_Q)
    return big() if ring is RATIONALS else Poly([big() for _ in range(rng.randint(1, 3))])


def held_pair(rng, ring, factor):
    """(held, s): a random series s over ring and a held split of it whose
    denominator and entries carry the extra common factor."""
    m = a4_model(3, ring)
    terms = {w: large_element(rng, ring) for w in m.alphabet.words_of_degree(2) if rng.random() < 0.5}
    terms[()] = large_element(rng, ring)
    s = Series(m.alphabet, m.trunc, ring, terms)
    den, parts = split_series(plain(s))
    scaled = {k: {w: factor * c for w, c in p.items()} for k, p in parts.items()}
    return join_series((factor * den, scaled), m), s


@pytest.mark.parametrize("name", RINGS)
def test_held_terms_are_the_word_by_word_join(name):
    ring = RINGS[name]
    rng = random.Random(90)
    for factor in (1, 6, 10007):
        held, s = held_pair(rng, ring, factor)
        assert not holds_terms(held)
        den, parts = held._split
        assert held.terms == join_by_word((den, parts), ring) == s.terms
        assert holds_terms(held)


@pytest.mark.parametrize("name", RINGS)
def test_held_split_is_at_the_least_denominator(name):
    ring = RINGS[name]
    rng = random.Random(91)
    for factor in (6, 10007):
        held, s = held_pair(rng, ring, factor)
        den, tables = split_terms(s.terms, ring)
        assert split_series(held) == (den, tables)
    m = a4_model(3, ring)
    a, b = (random_series(rng, m, 0.15, random_element(rng, ring)) for _ in range(2))
    product = m.mul(a, b)
    assert split_series(product) == split_terms(join_by_word(split_series(product), ring), ring)


@pytest.mark.parametrize("name", RINGS)
def test_held_linear_operations_agree_with_terms(name):
    ring = RINGS[name]
    rng = random.Random(92)
    (ha, a), (hb, b) = held_pair(rng, ring, 6), held_pair(rng, ring, 35)
    for sign, op in ((1, "add"), (-1, "sub")):
        expected = getattr(plain(a), op)(plain(b)).terms
        assert plain(a).add(plain(b), sign).terms == expected
        for x, y in ((ha, hb), (ha, plain(b)), (plain(a), hb)):
            result = getattr(x, op)(y)
            assert not holds_terms(result)
            assert result.terms == expected
    assert ha == plain(a) and plain(a) == ha and ha == join_series(split_series(ha), ha)
    assert not ha == hb and ha != plain(b) and plain(b) != ha
    assert ha.sub(plain(a)).is_zero() and plain(a).sub(ha).is_zero()
    assert not ha.sub(hb).is_zero() and not ha.is_zero()
    zero = ha.sub(ha)
    assert zero.is_zero() and zero.terms == {} and not holds_terms(ha)
    words = set(a.terms) | set(b.terms) | {(0,), (5, 5)}
    for w in words:
        assert ha.coefficient(w) == plain(a).coefficient(w) == a.terms.get(w, ring.zero)
    assert ha.constant_term() == a.terms[()]
    assert not holds_terms(ha)


def test_held_checks_catch_a_nu_only_perturbation():
    rng = random.Random(93)
    held, s = held_pair(rng, HEX_RING, 6)
    for w, c in s.terms.items():
        bad = dict(s.terms)
        bad[w] = QuadElt(c.a, c.b + qq(1, 10007 * 10009), HEX_Q)
        assert HEX_RING.split(bad[w])[0] == HEX_RING.split(c)[0]
        fresh = join_series(split_series(held), held)
        assert not fresh == Series(s.alphabet, s.trunc, HEX_RING, bad)
        assert not fresh.sub(Series(s.alphabet, s.trunc, HEX_RING, bad)).is_zero()
        assert fresh == plain(s) and fresh.sub(plain(s)).is_zero()
        assert not holds_terms(fresh)


def test_passing_hexagon_check_joins_no_coefficient(monkeypatch, phi5_c2):
    joins, join = [], QuadraticExtension.join
    monkeypatch.setattr(QuadraticExtension, "join", lambda ring, cs: joins.append(cs) or join(ring, cs))
    assert [r.is_zero() for r in check_hexagons(phi5_c2)] == [True, True]
    assert joins == []
    # a group-like and a not group-like perturbation each fail both hexagons
    (_, e), *_ = lie_basis(X_ALPHABET, 5, 5)
    bad = dict(phi5_c2.terms)
    bad[(0, 0, 1)] = bad.get((0, 0, 1), 0) + qq(1, 7)
    for phi in (phi5_c2.log().add(e.scale(qq(1, 7))).exp(), Series(X_ALPHABET, 5, RATIONALS, bad)):
        assert [r.is_zero() for r in check_hexagons(phi)] == [False, False]


def held_inputs(ring, seed):
    """Held-split series over ring: an exp() result, the Lie series log of
    it, a join_series output and an exp() over the Y alphabet."""
    rng = random.Random(seed)
    scale = ring.one if ring is RATIONALS else QuadElt(qq(1, 3), qq(2, 7), HEX_Q)
    lie = lift_series(random_lie_mixed(rng, 4), ring).scale(scale)
    group = lie.exp()
    y = Series(y_alphabet(4), 4, ring, {w: random_element(rng, ring) for d in (1, 2)
                                        for w in y_alphabet(4).words_of_degree(d)})
    return [group, group.log(), held_pair(rng, ring, 6)[0], y.exp()]


@pytest.mark.parametrize("name", ["Q", "Q(mu)"])
def test_consumers_leave_a_held_split_untouched(name):
    ring = RINGS[name]
    for s in held_inputs(ring, 95):
        assert not holds_terms(s)
        before = copy.deepcopy(split_series(s))
        coproduct(s)
        if s.alphabet == y_alphabet(4):
            delta_star(s)
        is_lie(s)
        is_group_like(s)
        s.shuffle_mul(s)
        assert split_series(s) == before


def one_format(x):
    """Whether the split x has only nonempty tables of nonzero ints, at the least denominator."""
    den, tables = x
    entries = [m for t in tables.values() for m in t.values()]
    return (all(type(t) is dict and t for t in tables.values())
            and all(type(m) is int and m for m in entries) and den > 0 and gcd(den, *entries) == 1)


@pytest.mark.parametrize("name", RINGS)
def test_held_splits_are_in_the_one_format(name):
    ring = RINGS[name]
    rng = random.Random(96)
    m = a4_model(3, ring)
    a, b = (random_series(rng, m, 0.15, random_element(rng, ring)) for _ in range(2))
    product = kernel_mul(split_series(a), split_series(b), m)
    results = [m.mul(a, b), m.exp(m.normalize(a.sub(a.degree_part(0)))), a.add(m.mul(b)),
               m.mul(a).sub(m.mul(a)), join_series(product, m)]
    if ring is not T_RING:
        results += held_inputs(ring, 97)
        y = results[-1]
        results += [coproduct(results[-2]), delta_star(y), y.shuffle_mul(y)]
    for s in results:
        assert s._split is not None and one_format(s._split)
    assert results[3].is_zero() and results[3]._split == (1, {})
    # join_series drops empty tables and divides by the gcd of D and the entries
    joined = join_series((6, {0: {}, 1: {(0,): 12, (1,): -18}}), m)
    assert joined._split == (1, {1: {(0,): 2, (1,): -3}})


@pytest.mark.parametrize("name", RINGS)
def test_split_maps_are_in_the_one_format(name):
    # each map below keeps fewer words than it reads or multiplies two splits,
    # so its split comes out with a common factor of D and the entries unless
    # it is reduced; an unreduced split makes == report equal series unequal
    ring = RINGS[name]
    rng = random.Random(99)
    half, two = ring.embed(qq(1, 2)), ring.embed(2)

    def series(alphabet, terms):
        return Series(alphabet, 4, ring, terms)

    ya, ta = y_alphabet(4), tensor_alphabet(X_ALPHABET)
    g = series(X_ALPHABET, {(0, 1): ring.one, (1, 0): half})  # (1/2) X1X0 ends in X0
    a, b = series(X_ALPHABET, {(0,): half}), series(X_ALPHABET, {(1,): two})
    s = series(X_ALPHABET, {(): half, (0,): ring.one})
    expected = [
        (pi_y(g), series(ya, {(1,): ring.embed(-1)})),
        (primitive_tensor(s), series(ta, {(0,): ring.one, primed((0,)): ring.one})),
        (tensor(a, b), series(ta, {(0,) + primed((1,)): ring.one})),
        (a.mul(b), series(X_ALPHABET, {(0, 1): ring.one})),
        (combine([(qq(1, 2), b)], b), series(X_ALPHABET, {(1,): ring.one})),
        (derivation(b, {1: a}), series(X_ALPHABET, {(0,): ring.one})),
        (g.scale_q(qq(2, 3)).neg(), series(X_ALPHABET, {(0, 1): ring.embed(qq(-2, 3)),
                                                          (1, 0): ring.embed(qq(-1, 3))})),
    ]
    for got, want in expected:
        assert got._split is not None and one_format(got._split)
        assert got == want and got.terms == want.terms
    # on random inputs too, against the ring-coefficient terms
    alg = SeriesAlgebra(X_ALPHABET, 4, ring)
    x, y = (random_series(rng, alg, 0.3, random_element(rng, ring)) for _ in range(2))
    for got in (pi_y(x), primitive_tensor(x), tensor(x, y), x.mul(y),
                combine([(qq(3, 4), x), (qq(-5, 6), y)], x), derivation(x, {0: y})):
        assert one_format(got._split)


def ring_loop_mul(a, b):
    """The concatenation product summed in the coefficient ring, word pair by
    word pair: the oracle of `Series.mul`."""
    deg = a.alphabet.degree
    terms = {}
    for u, x in a.terms.items():
        for v, y in b.terms.items():
            if deg(u) + deg(v) <= a.trunc:
                terms[u + v] = terms.get(u + v, a.ring.zero) + x * y
    return Series(a.alphabet, a.trunc, a.ring, terms)


@pytest.mark.parametrize("name", RINGS)
def test_free_products_match_the_ring_loop(name):
    ring = RINGS[name]
    rng = random.Random(100)
    alg = SeriesAlgebra(X_ALPHABET, 4, ring)
    a, b = (random_series(rng, alg, 0.35, random_element(rng, ring)) for _ in range(2))
    assert a.mul(b) == ring_loop_mul(a, b) == ring_loop_mul(plain(a), plain(b))
    assert a.mul(b).mul(a) == ring_loop_mul(ring_loop_mul(a, b), a)
    assert tensor(a, b) == ring_loop_tensor(a, b)


def ring_loop_tensor(a, b):
    """a (x) b as the ring-loop product of a and b primed, with no word pair
    cancelling: the oracle of `tensor`."""
    ta = tensor_alphabet(a.alphabet)
    bp = Series(ta, a.trunc, a.ring, {primed(v): c for v, c in b.terms.items()})
    return ring_loop_mul(Series(ta, a.trunc, a.ring, dict(a.terms)), bp)


# -- the split routines ---------------------------------------------------------


def term_sum(pairs, like):
    """The oracle of `combine`: sum q s term by term in the coefficient ring."""
    ring, terms = like.ring, {}
    for q, s in pairs:
        for w, c in s.terms.items():
            terms[w] = terms.get(w, ring.zero) + ring.embed(q) * c
    return Series(like.alphabet, like.trunc, ring, terms)


@pytest.mark.parametrize("name", RINGS)
def test_combine_matches_the_term_sum(name):
    ring = RINGS[name]
    rng = random.Random(101)
    alg = SeriesAlgebra(X_ALPHABET, 4, ring)
    x, y = (random_series(rng, alg, 0.3, random_element(rng, ring)) for _ in range(2))
    words = [w for d in (1, 2, 3) for w in X_ALPHABET.words_of_degree(d)]
    big = [Series(X_ALPHABET, 4, ring, {w: large_element(rng, ring) for w in words}) for _ in range(2)]
    xy = x.mul(y)
    cases = {
        "empty": [],
        "zero coefficients": [(qq(0), x), (0, y), (qq(0), xy)],
        "cancelling": [(qq(2, 3), xy), (qq(-2, 3), plain(xy)), (qq(1, 5), y), (qq(-1, 5), y)],
        "large coprime denominators": [(qq(7, 10009), big[0]), (qq(-3, 10037), big[1]),
                                       (qq(5, 10061), xy)],
        "mixed": [(qq(3, 4), x), (qq(-5, 6), y), (1, xy), (-1, x)],
    }
    for case, pairs in cases.items():
        got, want = combine(pairs, alg), term_sum(pairs, alg)
        assert one_format(got._split), case
        assert got == want and got.terms == want.terms, case
        assert got.is_zero() == (case in ("empty", "zero coefficients", "cancelling")), case


def ring_loop_shuffle(a, b):
    """The shuffle product summed in the coefficient ring, word pair by word
    pair: the oracle of `Series.shuffle_mul`."""
    deg, ring, terms = a.alphabet.degree, a.ring, {}
    for u, x in a.terms.items():
        for v, y in b.terms.items():
            if deg(u) + deg(v) <= a.trunc:
                for w, n in shuffle_words(u, v).items():
                    terms[w] = terms.get(w, ring.zero) + x * y * ring.embed(n)
    return Series(a.alphabet, a.trunc, ring, terms)


def random_pairs(ring, seed):
    rng = random.Random(seed)
    alg = SeriesAlgebra(X_ALPHABET, 4, ring)
    return [[random_series(rng, alg, 0.35, random_element(rng, ring)) for _ in range(2)]
            for _ in range(2)]


def split_products(a, b):
    """(kernel result, ring-loop oracle) for the three products that run on
    `bilinear`: `kernel_mul` (through `Series.mul`), `shuffle_mul` and `tensor`."""
    return [(a.mul(b), ring_loop_mul(a, b)), (a.shuffle_mul(b), ring_loop_shuffle(a, b)),
            (tensor(a, b), ring_loop_tensor(a, b))]


class GoldenRing(QuadraticExtension):
    """Q(sqrt 5) on the integral basis e_0 = 1, e_1 = (1 + mu)/2, whose
    structure constant e_1 e_1 = e_0 + e_1 has two terms."""

    def __init__(self):
        super().__init__(5)
        self._products = (((0, 1),), ((1, 1),), ((1, 1),), ((0, 1), (1, 1)))

    def split(self, c):
        return (c.a - c.b, 2 * c.b)

    def join(self, coords):
        x, y = (list(coords) + [0, 0])[:2]
        return QuadElt(QQ(x) + QQ(y) / 2, QQ(y) / 2, self.q)


class WrongNuSquare(QuadraticExtension):
    """Q(mu) with one wrong structure constant: nu^2 = P R + 1."""

    def __init__(self, q):
        super().__init__(q)
        self._products = self._products[:3] + (((0, self.q.numerator * self._r + 1),),)


@pytest.mark.parametrize("name", [*RINGS, "golden"])
def test_bilinear_products_match_the_ring_loops(name):
    ring = GoldenRing() if name == "golden" else RINGS[name]
    # the e_1 tables come first, so the product of the two reaches e_0 and e_1
    # before either holds a table, and later products add to both
    e1 = ring.join((0, 1))
    first = [Series(X_ALPHABET, 4, ring, {(i,): e1, (1 - i,): ring.one}) for i in (0, 1)]
    for a, b in [first, *random_pairs(ring, 102)]:
        for got, want in split_products(a, b):
            assert one_format(got._split)
            assert got == want and got.terms == want.terms


def test_a_wrong_structure_constant_fails_the_ring_loops():
    for a, b in random_pairs(WrongNuSquare(HEX_Q), 102):
        for got, want in split_products(a, b):
            assert got != want and got.terms != want.terms


def ring_loop_linear_map(coeffs, images, like):
    """The oracle of `linear_map`: sum_w coeffs[w] images[w], term by term in
    the coefficient ring."""
    ring, terms = like.ring, {}
    for w, x in coeffs.items():
        for v, c in images[w].terms.items():
            terms[v] = terms.get(v, ring.zero) + x * c
    return Series(like.alphabet, like.trunc, ring, terms)


def large_coefficient(rng, ring):
    """`large_element` over any of the test rings, the two-term ring too."""
    if isinstance(ring, QuadraticExtension) and ring is not HEX_RING:
        return QuadElt(large_element(rng, RATIONALS), large_element(rng, RATIONALS), ring.q)
    return large_element(rng, ring)


def linear_map_cases(ring, seed):
    """(algebra, images, cases): series images by key, sharing words, and
    one table of ring coefficients over the keys per case."""
    rng = random.Random(seed)
    alg = SeriesAlgebra(X_ALPHABET, 4, ring)
    a, b = (random_series(rng, alg, 0.3, random_element(rng, ring)) for _ in range(2))
    assert set(a.terms) & set(b.terms) & set(a.mul(b).terms)
    words = [w for d in (1, 2, 3) for w in X_ALPHABET.words_of_degree(d)]
    big = Series(X_ALPHABET, 4, ring, {w: large_coefficient(rng, ring) for w in words})
    images = {"a": a, "b": b, "ab": a.mul(b), "-a": a.neg(), "zero": alg.zero(), "big": big}
    c, e1 = large_coefficient(rng, ring), ring.join((0, 1))
    cases = {
        "empty": {},
        "zero image": {"zero": c},
        "cancelling": {"a": c, "-a": c, "zero": e1 or c},
        "shared keys": {"a": random_element(rng, ring) or c, "b": e1 or c, "ab": c},
        "large coprime denominators": {"big": c, "ab": large_coefficient(rng, ring),
                                       "b": large_coefficient(rng, ring)},
    }
    return alg, images, cases


@pytest.mark.parametrize("name", [*RINGS, "golden"])
def test_linear_map_matches_the_ring_loop(name):
    ring = GoldenRing() if name == "golden" else RINGS[name]
    alg, images, cases = linear_map_cases(ring, 103)
    for case, coeffs in cases.items():
        read = []

        def image(w):
            read.append(w)
            return split_series(images[w])

        x = linear_map(split_terms(coeffs, ring), image, ring)
        got, want = join_series(x, alg), ring_loop_linear_map(coeffs, images, alg)
        assert sorted(read) == sorted(coeffs), case  # each image is read once
        assert one_format(got._split), case
        assert got == want and got.terms == want.terms, case
        assert got.is_zero() == (case in ("empty", "zero image", "cancelling")), case


def test_a_wrong_structure_constant_fails_linear_map():
    ring = WrongNuSquare(HEX_Q)
    alg, images, cases = linear_map_cases(ring, 103)
    for case in ("shared keys", "large coprime denominators"):
        coeffs = cases[case]
        x = linear_map(split_terms(coeffs, ring), lambda w: split_series(images[w]), ring)
        got, want = join_series(x, alg), ring_loop_linear_map(coeffs, images, alg)
        assert got != want and got.terms != want.terms, case


SCALED = "generators: a b c\nrelation: 2*a.b - 3*b.a\nrelation: 5*b.c - c.b + 7*a.a\n"


@pytest.mark.parametrize("name,top", [("a4", 4), ("p5", 5), ("scaled", 5)])
def test_presentation_splits_are_in_the_one_format(name, top):
    # reductions and normal forms are splits (D, {0: table}) at the least
    # denominator, as `linear_map` sums them
    pres = Presentation.parse(SCALED, name=name) if name == "scaled" else Presentation.builtin(name)
    pres.extend_to(top)
    splits = [x for d in range(2, top + 1) for x in pres.reduction[d].values()]
    splits += [word_split(pres, w) for d in range(top + 1)
               for w in product(range(len(pres.letters)), repeat=d)]
    for x in splits:
        assert one_format(x) and reduced(x) == x and set(x[1]) <= {0}
    assert any(x[0] > 1 for x in splits) == (name == "scaled")
