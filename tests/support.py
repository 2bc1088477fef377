"""Shared helpers for the test suite: index enumeration, seeded random
elements (Lie series, group-like series, plain series), and the reference
code that tests compare against and no command runs, from index helpers
to the regularizations over the test ring Q[T] and Exp on dmr_0.
"""

from functools import lru_cache, partial
from math import factorial

from assoclab import yside
from assoclab.barcx import A0, A1, B0, B1, G, M05, BarError
from assoclab.dmr import _on_each_factor, _on_words, s_f_map, s_f_y_map
from assoclab.lie import lie_basis
from assoclab.models import BASE, FIBER, PBWModel, lift_series, p5_generators
from assoclab.presented import PresentationError
from assoclab.rationals import QQ, qq
from assoclab.rings import RATIONALS
from assoclab.series import (POWER_ALPHABET, Series, SeriesAlgebra, combine, exp_coefficient,
                             from_word, join_series, letter, linear_map, one, reduced,
                             split_series, substitute, tensor_alphabet, tensor_factors, zero)
from assoclab.words import Alphabet, X_ALPHABET, y_alphabet
from assoclab.yside import all_indices, stuffle_terms  # noqa: F401  (all_indices is re-exported)


def widen(s, trunc):
    """The same series viewed at another truncation degree; words above it drop."""
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


# -- indices, brackets and tensors ---------------------------------------


def is_admissible(a):
    return bool(a) and a[-1] > 1


def index_to_word(a):
    """Index (a1,...,ak) as the Y-word Yak...Ya1 (letter indices)."""
    return tuple(n - 1 for n in reversed(a))


def stuffle(a, b):
    """Quasi-shuffle product of two indices, as an index -> multiplicity table."""
    out = {}
    for _, _, c in stuffle_terms(a, b):
        out[c] = out.get(c, 0) + 1
    return out


def lie_bracket(a, b):
    return a.mul(b).sub(b.mul(a))


def tensor_pairs(t):
    """The terms of a tensor series t as ((u, v), c) for u (x) v."""
    return ((tensor_factors(p), c) for p, c in t.terms.items())


def tensor_model(alphabet, trunc, ring=RATIONALS):
    """The tensor square of the free algebra on alphabet; its normal words
    u.v' over tensor_alphabet(alphabet) are the tensors u (x) v."""
    n = len(alphabet)
    name = "tensor %s %s" % (alphabet.names, alphabet.weights)
    return PBWModel(name, tensor_alphabet(alphabet), (FIBER,) * n + (BASE,) * n, {}, trunc, ring)


# -- homomorphisms between the five-strand algebra and U<<X0,X1>> -------


def projection_images(which, trunc, ring=RATIONALS):
    """Images of the model letters X34, X45, X24, X12, X23 under p2, p3, p4."""
    x0 = letter(X_ALPHABET, trunc, "X0", ring)
    x1 = letter(X_ALPHABET, trunc, "X1", ring)
    z = zero(X_ALPHABET, trunc, ring)
    if which == "p4":
        return [z, z, z, x0, x1]
    if which == "p2":
        return [x1, x0, z, z, z]
    if which == "p3":
        return [z, x0, x1, x0, z]
    raise ValueError("unknown projection %r" % which)


def embedding_images(which, model):
    """Images of X0, X1 under i123, i451, i432, i215 in the five-strand model."""
    g = p5_generators(model)
    if which == "i123":
        return [g["X12"], g["X23"]]
    if which == "i451":
        return [g["X45"], g["X51"]]
    if which == "i432":
        return [g["X34"], g["X23"]]
    if which == "i215":
        return [g["X12"], g["X15"]]
    raise ValueError("unknown embedding %r" % which)


def tau_images(p5m):
    """Images of the four-strand model letters under tau in the five-strand model."""
    g = p5_generators(p5m)
    return [g["X14"], g["X24"], g["X34"], g["X12"], g["X23"], p5m.zero()]


# -- pairing bar elements with five-strand series --------------------------

# Omega_5 has the coefficient forms dy/(y-1), dy/y, (y dx + x dy)/(xy-1),
# dx/x and dx/(x-1) on the model letters X34, X45, X24, X12, X23; each
# letter's form is +-1 times one of them: letter -> (model letter, sign).
M05_DUAL = {A0: (3, 1), A1: (4, -1), B0: (1, 1), B1: (0, -1), G: (2, -1)}


def pair_p5(e, g):
    """Pair a two-variable bar element with a five-strand model series.

    The model series (taken in its straightened normal form, which is a
    particular lift to the free algebra) is read against the dual basis
    of the letters X34, X45, X24, X12, X23 with the signs derived from
    the connection form.  Integrability of e makes the value independent
    of the lift.
    """
    if e.alphabet != M05:
        raise BarError("pair_p5 expects a two-variable element")
    ring = g.ring
    total = ring.zero
    for w, c in e.terms.items():
        word = tuple(M05_DUAL[i][0] for i in w)
        coef = g.coefficient(word)
        if not coef:
            continue
        sign = 1
        for i in w:
            sign *= M05_DUAL[i][1]
        total = total + coef * ring.embed(c * sign)
    return total


# -- normal forms of a presentation -----------------------------------------


@lru_cache(maxsize=None)
def word_split(pres, word):
    """The normal form of a word over the letter basis of pres, as a split:
    the first letter times the normal form of the rest.  Memoized per
    presentation and word."""
    if not word:
        return 1, {0: {(): 1}}
    d = len(word)
    pres.extend_to(d)
    return reduced(linear_map(word_split(pres, word[1:]), partial(pres._reduce_letter, d, word[0]),
                              RATIONALS))


def normal_form(pres, s):
    """Normal form of a rational Series over the letter basis or the full
    generator alphabet of pres, summed over the integers on its split."""
    if s.alphabet != pres.alphabet:
        if s.alphabet != Alphabet(pres.generator_names):
            raise PresentationError("series alphabet does not match presentation")
        images = [Series(pres.alphabet, s.trunc, RATIONALS, {(j,): c for j, c in img.items()})
                  for img in pres.generator_images]
        s = substitute(s, images, SeriesAlgebra(pres.alphabet, s.trunc))
    return join_series(linear_map(split_series(s), partial(word_split, pres), s.ring), s)


# -- regularization over Q[T] ------------------------------------------------


class Poly:
    """Dense univariate polynomial over the rationals."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        n = len(coeffs)
        while n > 0 and coeffs[n - 1] == 0:
            n -= 1
        self.coeffs = tuple(coeffs[:n])

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other):
        if not self.coeffs or not other.coeffs:
            return Poly(())
        out = [qq(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return "Poly(%r)" % (self.coeffs,)


class PolynomialRing:
    """QQ[var] for a named formal variable (e.g. the regularization parameter),
    with the integral basis {var^i}."""

    def __init__(self, var="T"):
        self.var = var
        self.zero = Poly(())
        self.one = Poly((qq(1),))
        self.gen = Poly((qq(0), qq(1)))

    def embed(self, c):
        c = QQ(c)
        return Poly((c,)) if c != 0 else self.zero

    def split(self, c):
        return c.coeffs

    def join(self, coords):
        return Poly([QQ(x) for x in coords])

    def basis_product(self, i, j):
        return ((i + j, 1),)


T_RING = PolynomialRing("T")


def integral_regularized(a, phi):
    """l^I_a(phi) = l_a(e^{T X1} phi), a polynomial in T."""
    phi_t = lift_series(phi, T_RING)
    x1 = Series(X_ALPHABET, phi.trunc, T_RING, {(1,): T_RING.gen})
    return yside.l_value_x(a, x1.exp().mul(phi_t))


def series_regularized(a, phi, _cache=None):
    """l^S_a(phi): l_a on admissible indices, -T on (1), and otherwise the
    unique values keeping the quasi-shuffle product formula valid."""
    if _cache is None:
        _cache = {}
    if a in _cache:
        return _cache[a]
    if a == ():
        out = T_RING.one
    elif a == (1,):
        out = Poly((qq(0), qq(-1)))
    elif is_admissible(a):
        out = T_RING.embed(yside.l_value_x(a, phi))
    else:
        b = a[:-1]
        terms = dict(stuffle(b, (1,)))
        mult = terms.pop(a)
        val = series_regularized(b, phi, _cache) * Poly((qq(0), qq(-1)))
        for c, m in terms.items():
            val = val - series_regularized(c, phi, _cache) * T_RING.embed(m)
        out = val * T_RING.embed(qq(1, mult))
    _cache[a] = out
    return out


def map_L(phi):
    """The linear map on k[T] defined by L(exp Tu) = exp{Tu - sum l_n u^n/n}.

    Returns a function Poly -> Poly; internally the images of the powers
    T^n are read off the generating series in u up to the truncation.
    """
    n_max = phi.trunc
    # exponent: T u - sum_{n>=1} l_n(phi) u^n / n as a u-series over k[T]
    expo = {(0,) * n: T_RING.embed(-yside.l_value_x((n,), phi) / n) for n in range(1, n_max + 1)}
    if n_max >= 1:
        expo[(0,)] = expo[(0,)] + T_RING.gen
    series = Series(POWER_ALPHABET, n_max, T_RING, expo).exp()
    images = [series.coefficient((0,) * n) * T_RING.embed(factorial(n)) for n in range(n_max + 1)]

    def apply(p):
        out = T_RING.zero
        for n, c in enumerate(p.coeffs):
            if c == 0:
                continue
            if n >= len(images):
                raise ValueError("degree beyond truncation")
            out = out + images[n] * T_RING.embed(c)
        return out

    return apply


# -- dmr_0: the coderivation check and Exp ----------------------------------


def coderivation_check(psi, max_weight=None):
    """s^Y_f for f = sec(psi_*) is a coderivation of the Y Hopf algebra.

    Also checks the building block sec(psi_*) = psi + psi_corr (the
    correction sum embedded in U<<X0, X1>>) and S_X(sec psi_*) = -sec psi_*.
    Verified on all Y-words up to max_weight (default: everything the
    truncation allows).
    """
    trunc = psi.trunc
    ring = psi.ring
    star = yside.psi_star(psi)
    f = yside.sec(star)
    section = psi.add(yside.embed_y(yside.correction_exponent(psi)))
    if f != section:
        return False
    if yside.antipode_x(f) != f.neg():
        return False
    degs = sorted({len(w) for w in psi.terms})
    dmin = degs[0] if degs else trunc
    top = max_weight if max_weight is not None else trunc - dmin
    ya = y_alphabet(trunc)
    s_y = _on_words(s_f_y_map(f), trunc, ring)
    for wgt in range(0, top + 1):
        for w in ya.words_of_degree(wgt):
            ws = from_word(ya, trunc, w, ring)
            if yside.delta_star(s_y(w)) != _on_each_factor(s_y, yside.delta_star(ws)):
                return False
    return True


def exp_dmr(psi):
    """Exp(psi) = sum_i (1/i!) (mu_psi + d_psi)^i (1), with s = mu + d."""
    powers = [one(psi.alphabet, psi.trunc, psi.ring)]
    s = s_f_map(psi)
    for _ in range(psi.trunc):
        power = s(powers[-1])
        if power.is_zero():
            break
        powers.append(power)
    return combine(((exp_coefficient(i), x) for i, x in enumerate(powers)), psi)
