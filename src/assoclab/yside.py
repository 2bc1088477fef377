"""The quasi-shuffle (harmonic) side of the double shuffle relations.

Series over the alphabet Y1, Y2, ... (letter Yn has weight n) carry the
coproduct Delta_* with Delta_*(Yn) = sum_{i+j=n} Yi (x) Yj, Y0 = 1, whose
values are tensor series as in `series` (u (x) v is the word u.v').  The
projection pi_Y and the correction term turn a group-like series over
X0, X1 into its star-regularization, whose group-likeness for Delta_* is
the generalized double shuffle relation.
"""

from functools import lru_cache
from math import factorial

from .rationals import qq
from .series import (
    Series,
    SeriesAlgebra,
    combine,
    derivation,
    letter,
    one,
    primitive_tensor,
    tensor_image,
    tensor_square,
    word_map,
)
from .words import X_ALPHABET, y_alphabet


# -- projection and embedding -----------------------------------------


def _y_word(w):
    """(Ynm...Yn1, (-1)^m) for w = X0^{n_m-1}X1...X0^{n_1-1}X1, None for a word ending in X0."""
    letters, run = [], 0
    for ch in w:
        if ch == 0:
            run += 1
        else:
            letters.append(run)
            run = 0
    return None if run else (tuple(letters), -1 if len(letters) % 2 else 1)


def pi_y(s):
    """Kill words ending in X0; X0^{n_m-1}X1...X0^{n_1-1}X1 -> (-1)^m Ynm...Yn1.
    Distinct X-words give distinct Y-words, so nothing can cancel."""
    return word_map(s, _y_word, SeriesAlgebra(y_alphabet(s.trunc), s.trunc, s.ring))


def embed_y(s):
    """Algebra map Yn -> -X0^{n-1}X1, inverse to pi_y on its image."""
    return word_map(s, lambda w: (x_word(word_to_index(w)), -1 if len(w) % 2 else 1),
                    SeriesAlgebra(X_ALPHABET, s.trunc, s.ring))


# -- the quasi-shuffle coproduct --------------------------------------


def delta_star(s):
    """Delta_*(Yn) = sum_{i=0}^n Yi (x) Y_{n-i}, extended as an algebra map."""
    # letter index n - 1 is Yn; Y0 = 1 is the empty word
    letters = [
        [((i - 1,) if i else (), (n - i - 1,) if i < n else ()) for i in range(n + 1)]
        for n in range(1, len(s.alphabet) + 1)
    ]
    return tensor_image(s, letters)


# -- star regularization ----------------------------------------------


def correction_exponent(phi):
    """sum_{n>=1} (-1)^n/n c_{X0^{n-1}X1}(phi) Y1^n, as a Y-series."""
    ya = y_alphabet(phi.trunc)
    ring = phi.ring
    out = {}
    for n in range(1, phi.trunc + 1):
        c = phi.coefficient((0,) * (n - 1) + (1,))
        if not c:
            continue
        out[(0,) * n] = c * ring.embed(qq(-1 if n % 2 else 1, n))
    return Series(ya, phi.trunc, ring, out, _clean=True)


def phi_star(phi):
    """exp(correction) * pi_Y(phi), the group-like star regularization."""
    return correction_exponent(phi).exp().mul(pi_y(phi))


def psi_star(psi):
    """correction + pi_Y(psi), the Lie-algebra star regularization."""
    return correction_exponent(psi).add(pi_y(psi))


def is_group_like_star(g):
    return g.constant_term() == g.ring.one and delta_star(g) == tensor_square(g)


def is_primitive_star(g):
    if g.constant_term():
        return False
    return delta_star(g) == primitive_tensor(g)


def check_double_shuffle(phi):
    """Group-likeness on both sides: shuffle for phi, quasi-shuffle for phi_*."""
    from .series import is_group_like

    return is_group_like(phi) and is_group_like_star(phi_star(phi))


# -- indices ----------------------------------------------------------


def word_to_index(w):
    return tuple(i + 1 for i in reversed(w))


def x_word(a):
    """The word X0^{ak-1}X1...X0^{a1-1}X1 of an index (a1,...,ak), over letters 0, 1."""
    w = []
    for n in reversed(a):
        w.extend([0] * (n - 1))
        w.append(1)
    return tuple(w)


def l_value_x(a, phi):
    """l_a(phi) = (-1)^k c_{X0^{ak-1}X1...X0^{a1-1}X1}(phi) on an X-series."""
    sign = phi.ring.embed(-1 if len(a) % 2 else 1)
    return sign * phi.coefficient(x_word(a))


def all_indices(max_weight):
    """Every index of total weight at most max_weight, sorted by weight, depth, entries."""
    out = []

    def rec(acc, left):
        if acc:
            out.append(tuple(acc))
        for n in range(1, left + 1):
            rec(acc + [n], left - n)

    rec([], max_weight)
    return sorted(out, key=lambda a: (sum(a), len(a), a))


# -- ordered shuffles with merges -------------------------------------


@lru_cache(maxsize=None)
def merge_patterns(k, l):
    """All interleavings-with-merges of k 'a'-slots and l 'b'-slots.

    Each pattern is a tuple of slots ('a', s), ('b', t) or ('m', s, t)
    with both subsequences increasing; these enumerate the surjections
    sigma: {1..k+l} -> {1..N} monotone on each block.
    """
    if k == 0:
        return (tuple(("b", t) for t in range(1, l + 1)),)
    if l == 0:
        return (tuple(("a", s) for s in range(1, k + 1)),)
    out = []

    def rec(i, j, acc):
        if i > k and j > l:
            out.append(tuple(acc))
            return
        if i <= k:
            rec(i + 1, j, acc + [("a", i)])
        if j <= l:
            rec(i, j + 1, acc + [("b", j)])
        if i <= k and j <= l:
            rec(i + 1, j + 1, acc + [("m", i, j)])

    rec(1, 1, [])
    return tuple(out)


def stuffle_terms(a, b):
    """The quasi-shuffle expansion of l_a . l_b as [(pair, tag, full index)].

    pair is ((c_1..c_j), (c_{j+1}..c_N)); the tag records which variable
    pattern the term carries: "xy" when the last slot merges the ends of
    both indices, "x,y" when the last slot ends b, "y,x" when it ends a.
    """
    k, l = len(a), len(b)
    out = []
    for pattern in merge_patterns(k, l):
        n = len(pattern)
        c = []
        pos_a = pos_b = None
        for idx, slot in enumerate(pattern, start=1):
            if slot[0] == "a":
                c.append(a[slot[1] - 1])
                if slot[1] == k:
                    pos_a = idx
            elif slot[0] == "b":
                c.append(b[slot[1] - 1])
                if slot[1] == l:
                    pos_b = idx
            else:
                c.append(a[slot[1] - 1] + b[slot[2] - 1])
                if slot[1] == k:
                    pos_a = idx
                if slot[2] == l:
                    pos_b = idx
        c = tuple(c)
        if pos_a == n and pos_b == n:
            out.append(((c, ()), "xy", c))
        elif pos_b == n:
            j = pos_a
            out.append(((c[:j], c[j:]), "x,y", c))
        else:
            j = pos_b
            out.append(((c[:j], c[j:]), "y,x", c))
    return out


# -- plumbing between the X and Y pictures ----------------------------


def partial0(s):
    """Derivation of the X-series algebra with X0 -> 1, X1 -> 0."""
    return derivation(s, {0: one(s.alphabet, s.trunc, s.ring)})


def antipode_x(s):
    """Anti-automorphism with X0 -> -X0, X1 -> -X1 (word reversal and sign)."""
    return word_map(s, lambda w: (w[::-1], -1 if len(w) % 2 else 1))


def reverse_y(s):
    """Anti-automorphism of Y-series fixing every letter (word reversal)."""
    return word_map(s, lambda w: (w[::-1], 1))


def sec(g):
    """Right inverse of pi_Y with image in ker(partial0).

    Input is a Y-series; sec(g) = sum_i (-1)^i/i! partial0^i(g~) X0^i where
    g~ is the embedded X-series of g.
    """
    f = embed_y(g)
    x0 = letter(f.alphabet, f.trunc, "X0", f.ring)
    pieces, term, power = [f], f, one(f.alphabet, f.trunc, f.ring)
    for _ in range(f.trunc):
        term, power = partial0(term), power.mul(x0)
        piece = term.mul(power)
        if piece.is_zero():
            break
        pieces.append(piece)
    return combine(((qq((-1) ** i, factorial(i)), x) for i, x in enumerate(pieces)), f)
