"""Shared helpers for the test suite: index enumeration and seeded
random elements (Lie series, group-like series, plain series).
"""

from assoclab.lie import lie_basis
from assoclab.rationals import qq
from assoclab.rings import RATIONALS
from assoclab.series import Series, zero
from assoclab.words import X_ALPHABET
from assoclab.yside import all_indices  # noqa: F401  (re-exported for the tests)


def widen(s, trunc):
    """The same series viewed at a higher truncation degree."""
    return Series(s.alphabet, trunc, s.ring, dict(s.terms))


def random_rational(rng, bound=5):
    return qq(rng.randint(-bound, bound), rng.randint(1, 4))


def random_lie(rng, degree, trunc, bound=5):
    """Random rational combination of the Lyndon basis in one degree."""
    s = zero(X_ALPHABET, trunc)
    for _, e in lie_basis(X_ALPHABET, degree, trunc):
        c = random_rational(rng, bound)
        if c != 0:
            s = s.add(e.scale(c))
    return s


def random_lie_mixed(rng, trunc, bound=3):
    """Random Lie series with components in every degree up to trunc."""
    s = zero(X_ALPHABET, trunc)
    for d in range(1, trunc + 1):
        s = s.add(random_lie(rng, d, trunc, bound))
    return s


def random_group_like(rng, trunc, bound=3):
    return random_lie_mixed(rng, trunc, bound).exp()


def random_series(rng, alphabet, trunc, bound=5, density=0.5):
    """Random series with no constant term over an arbitrary alphabet."""
    terms = {}
    for d in range(1, trunc + 1):
        for w in alphabet.words_of_degree(d):
            if rng.random() < density:
                c = random_rational(rng, bound)
                if c != 0:
                    terms[w] = c
    return Series(alphabet, trunc, RATIONALS, terms)
