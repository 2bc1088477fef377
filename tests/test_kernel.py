"""The integer kernel: integral bases of the rings, and model products and
power series checked against a coefficient-ring oracle.

The oracle multiplies in the coefficient ring itself, as
normalize(a.mul(b)), and sums the power series term by term; the kernel
must give the same series exactly.
"""

import random
from math import factorial

import pytest

from assoclab.models import a4_model, ab_model, p5_model
from assoclab.rationals import QQ, qq
from assoclab.rings import INTEGERS, RATIONALS, Poly, PolynomialRing, QuadElt, QuadraticExtension
from assoclab.series import Series, join_series, split_series
from assoclab.words import X_ALPHABET

HEX_Q = 24 * qq(-2, 5)  # mu^2 for c2 = -2/5: P/R = -48/5, not an integer
HEX_RING = QuadraticExtension(HEX_Q)
T_RING = PolynomialRing("T")
RINGS = {"Q": RATIONALS, "Q(mu)": HEX_RING, "Q[T]": T_RING}


def random_rational(rng, bound=5):
    return qq(rng.randint(-bound, bound), rng.randint(1, 6))


def random_element(rng, ring):
    if ring is RATIONALS:
        return random_rational(rng)
    if ring is HEX_RING:
        return QuadElt(random_rational(rng), random_rational(rng), HEX_Q)
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
    assert all(p.ring is INTEGERS and p.terms for p in parts.values())
    assert all(isinstance(c, int) for p in parts.values() for c in p.terms.values())
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
