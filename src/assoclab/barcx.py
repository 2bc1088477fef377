"""Bar-construction elements on the genus-zero moduli space M_{0,5}.

Bar elements are linear combinations of tensor words in logarithmic
1-forms: a0 = dx/x, a1 = dx/(1-x), b0 = dy/y, b1 = dy/(1-y) and
g = (y dx + x dy)/(1-xy) on the two-variable space.  They are Series
over these letters, and their product is the shuffle product.  Words are
stored left to right, [w_{i_m}|...|w_{i_1}], matching the left-to-right
order of the dual monomials.

Every 1-form is represented exactly as a pair of polynomial numerators
(P, Q), integer series of the commutative quotient `models.ab_model`, with
form = (P dx + Q dy)/D over the common denominator
D = xy(1-x)(1-y)(1-xy), so wedge products and the integrability
condition reduce to polynomial identities.

The l-elements of the one- and two-variable multiple polylogarithms are
built from their differential equations.  They pair with group-like
elements of the five-strand braid enveloping algebra through the
connection form Omega_5 = X12 dx/x + X23 dx/(x-1) + X45 dy/y
+ X34 dy/(y-1) + X24 (y dx + x dy)/(xy-1); the tier-1 tests check that
pairing against the coefficient functionals l_a.
"""

from .models import ab_model
from .rings import INTEGERS, accumulate
from .series import Series
from .words import Alphabet
from .yside import quasi_shuffles, x_word

A0, A1, B0, B1, G = range(5)

M05_NAMES = ("a0", "a1", "b0", "b1", "g")


class BarError(ValueError):
    pass


# -- exact two-variable polynomials ------------------------------------

# x^i y^j is the word X0^i X1^j of the commutative quotient over the
# integers; the numerators have degree at most 5, so their wedges have
# degree at most 10.
_AB = ab_model(10, INTEGERS)
_PX = _AB.letter("X0")
_PY = _AB.letter("X1")
_P0 = _AB.zero()
_OMX = _AB.one().sub(_PX)
_OMY = _AB.one().sub(_PY)
_OMXY = _AB.one().sub(_AB.mul(_PX, _PY))

# (P, Q) numerators of each letter over D = xy(1-x)(1-y)(1-xy).
FORM_NUMERATORS = {
    A0: (_AB.mul(_PY, _OMX, _OMY, _OMXY), _P0),
    A1: (_AB.mul(_PX, _PY, _OMY, _OMXY), _P0),
    B0: (_P0, _AB.mul(_PX, _OMX, _OMY, _OMXY)),
    B1: (_P0, _AB.mul(_PX, _PY, _OMX, _OMXY)),
    G: (
        _AB.mul(_PX, _PY, _PY, _OMX, _OMY),
        _AB.mul(_PX, _PX, _PY, _OMX, _OMY),
    ),
}


def wedge(i, j):
    """Numerator of form_i ^ form_j over D^2, as a multiple of dx^dy."""
    pi, qi = FORM_NUMERATORS[i]
    pj, qj = FORM_NUMERATORS[j]
    return _AB.mul(pi, qj).sub(_AB.mul(qi, pj))


WEDGE = {(i, j): wedge(i, j) for i in range(5) for j in range(5)}


# -- bar elements -------------------------------------------------------

M05 = Alphabet(M05_NAMES)


class BarElement(Series):
    """A bar element on M_{0,5}: an integer Series over its 1-forms,
    truncated at its weight.  Every letter is a 1-form, so the weight is
    the length of the longest word and no term is dropped."""

    __slots__ = ()

    def __init__(self, terms):
        terms = {w: c for w, c in terms.items() if c}
        trunc = max(map(len, terms), default=0)
        super().__init__(M05, trunc, INTEGERS, terms, _clean=True)

    def shuffle(self, other):
        """Product dual to deconcatenation: the shuffle product, at the sum
        of the two weights."""
        n = self.trunc + other.trunc
        a, b = (Series(e.alphabet, n, e.ring, e.terms, _clean=True) for e in (self, other))
        return a.shuffle_mul(b)


# -- integrability ------------------------------------------------------


def check_integrability(e):
    """Slot-wise vanishing of the adjacent wedge contractions.

    For each slot j the sum of c_I [..|w_{i_{j+1}} ^ w_{i_j}|..] must be
    zero; terms are grouped by slot position and surrounding word and
    the integer wedge numerators summed over the integers, on the integer
    terms of e.
    """
    acc = {}
    for w, c in e.terms.items():
        for pos in range(len(w) - 1):
            table = acc.setdefault((pos, w[:pos], w[pos + 2 :]), {})
            accumulate(table, ((m, c * v) for m, v in WEDGE[(w[pos], w[pos + 1])].terms.items()))
    return not any(acc.values())


# -- l-elements from the differential equations -------------------------


_ONE_VAR_SUB = {
    "x": {0: (A0,), 1: (A1,)},
    "y": {0: (B0,), 1: (B1,)},
    "xy": {0: (A0, B0), 1: (G,)},
}


def build_l(a, tag):
    """Bar element of the one-variable polylogarithm Li_a in x, y or xy.

    The sign (-1)^{dp(a)} of the coefficient functional l_a is carried
    by the pairing (each letter dual to X23, X34 or X24 contributes a
    minus sign), so the element itself has positive coefficients.
    """
    a = tuple(a)
    try:
        sub = _ONE_VAR_SUB[tag]
    except KeyError:
        raise BarError("unknown tag %r" % tag)
    words = {(): 1}
    for ch in x_word(a):
        nxt = {}
        for w, c in words.items():
            for letter in sub[ch]:
                nxt[w + (letter,)] = c
        words = nxt
    return BarElement(words)


def _prepend(out, heads, e):
    """Add sign * [letter| e ] into the terms out, over (letter, sign) pairs."""
    accumulate(out, (((letter,) + w, sign * c) for letter, sign in heads for w, c in e.terms.items()))


# (a, b) -> build_l2(a, b), for the life of one command.  `bar shuffle` at
# weights 5 to 9 keeps 49, 129, 321, 769 and 1,793 entries.  It is not
# bounded: build_l2 recurses through it, so an evicted entry is rebuilt
# with everything under it (weight 9 under a 1,024 bound: 4 times the time).
_L2_CACHE = {}


def build_l2(a, b):
    """Bar element of the two-variable polylogarithm Li_{a,b}(x, y).

    Built from the differential equations: the d/dx part dispatches on
    whether a_k = 1 and whether a or b is exhausted, the d/dy part on
    b_l; each case prepends the corresponding 1-form and recurses.
    """
    a, b = tuple(a), tuple(b)
    if not a or not b:
        raise BarError("both indices must be nonempty")
    key = (a, b)
    try:
        return _L2_CACHE[key]
    except KeyError:
        pass
    k, l = len(a), len(b)
    terms = {}
    # terms with dx: d/dx Li_{a,b}
    if a[-1] != 1:
        _prepend(terms, ((A0, 1),), build_l2(a[:-1] + (a[-1] - 1,), b))
    else:
        first = build_l2(a[:-1], b) if k > 1 else build_l(b, "y")
        _prepend(terms, ((A1, 1),), first)
        merged = a[:-1] + (b[0],)
        second = build_l2(merged, b[1:]) if l > 1 else build_l(merged, "xy")
        _prepend(terms, ((A0, -1), (A1, -1)), second)
    # terms with dy: d/dy Li_{a,b}
    if b[-1] != 1:
        _prepend(terms, ((B0, 1),), build_l2(a, b[:-1] + (b[-1] - 1,)))
    elif l > 1:
        _prepend(terms, ((B1, 1),), build_l2(a, b[:-1]))
    else:
        _prepend(terms, ((B1, 1),), build_l(a, "xy"))
    e = BarElement(terms)
    if not check_integrability(e):
        raise BarError("two-variable element failed integrability: %r" % (key,))
    _L2_CACHE[key] = e
    return e


_SWAP = {A0: B0, A1: B1, B0: A0, B1: A1, G: G}


def swap_xy(e):
    """Exchange the roles of the two coordinates: a-letters <-> b-letters."""
    return BarElement({tuple(_SWAP[i] for i in w): c for w, c in e.terms.items()})


def build_l2_yx(a, b):
    """Bar element of Li_{a,b}(y, x), by exchanging coordinates."""
    return swap_xy(build_l2(a, b))


# -- the series shuffle formula -----------------------------------------


def series_shuffle_rhs(a, b):
    """Right-hand side of the series shuffle formula for l^x_a . l^y_b: the
    sum over the quasi-shuffles (c, i, j) of a and b, with i and j the
    positions in c of the last entries of a and of b.  A term is Li_c(xy)
    when they share a slot (i == j), Li_{c[:i], c[i:]}(x, y) when b ends c
    (j == len(c)) and Li_{c[:j], c[j:]}(y, x) when a ends it."""
    terms = {}
    for c, i, j in quasi_shuffles(a, b):
        if i == j:
            e = build_l(c, "xy")
        elif j == len(c):
            e = build_l2(c[:i], c[i:])
        else:
            e = build_l2_yx(c[:j], c[j:])
        accumulate(terms, e.terms.items())
    return BarElement(terms)


def check_series_shuffle_bar(a, b):
    """l^x_a . l^y_b equals the quasi-shuffle sum, as exact bar elements."""
    lhs = build_l(a, "x").shuffle(build_l(b, "y"))
    return lhs == series_shuffle_rhs(a, b)
