"""Free Lie algebra bases via Lyndon words.

A Lyndon word is strictly smaller than all of its proper suffixes; the
standard bracketings of the Lyndon words of length d form a basis of the
degree-d part of the free Lie algebra.
"""

from functools import lru_cache

from .rings import RATIONALS, accumulate
from .series import Series


def lyndon_words(num_letters, length):
    """All Lyndon words of exactly the given length, lexicographically."""
    out = []
    w = [-1]
    while w:
        w[-1] += 1
        m = len(w)
        if m == length:
            out.append(tuple(w))
        while len(w) < length:
            w.append(w[-m])
        while w and w[-1] == num_letters - 1:
            w.pop()
    return [u for u in out if len(u) == length]


def standard_factorization(word):
    """Split a Lyndon word as u.v with v its smallest proper suffix."""
    best = 1
    for i in range(2, len(word)):
        if word[i:] < word[best:]:
            best = i
    return word[:best], word[best:]


@lru_cache(maxsize=None)
def bracketing(word):
    """Standard bracketing of a Lyndon word, expanded as word -> int."""
    if len(word) == 1:
        return {word: 1}
    u, v = standard_factorization(word)
    a, b = bracketing(u), bracketing(v)
    out = {}
    for x, m in a.items():
        for y, n in b.items():
            out[x + y] = out.get(x + y, 0) + m * n
            out[y + x] = out.get(y + x, 0) - m * n
    return {w: c for w, c in out.items() if c}


def dynkin_map(table):
    """theta(A) for a word -> int table A with no empty word, where theta
    sends w1...wn to the left-normed bracket [...[w1, w2], ..., wn].

    With A = sum_x A_x.x, theta(A) = sum_x (theta(A_x).x - x.theta(A_x))
    over the nonempty words of A_x, plus A_x(empty) x: the words are
    grouped by their last letter and the groups recurse, so no table
    outlives the call.  By Dynkin-Specht-Wever, a homogeneous A of degree
    n is Lie exactly when theta(A) = n A.
    """
    out, by_last = {}, {}
    for w, c in table.items():
        by_last.setdefault(w[-1], {})[w[:-1]] = c
    for x, prefixes in by_last.items():
        c = prefixes.pop((), 0)
        if c:
            accumulate(out, (((x,), c),))
        if prefixes:
            accumulate(out, ((t, m) for v, n in dynkin_map(prefixes).items()
                             for t, m in ((v + (x,), n), ((x,) + v, -n))))
    return out


def lyndon_coordinates(s):
    """The coordinates of s against the standard bracketings, and a remainder.

    A standard bracketing is its Lyndon word plus larger words of the same
    length (Reutenauer, Free Lie Algebras, Thm 5.1), so peeling the
    Lyndon words off in increasing order reads each coordinate as the
    coefficient left on its word.  Returns (coords, remainder): coords maps
    each Lyndon word with a nonzero coordinate to it, in increasing order
    per degree, and remainder = s - sum c * bracketing(w) is empty exactly
    when s is Lie up to the truncation.  Only unweighted alphabets.
    """
    embed = s.ring.embed
    rest = dict(s.terms)
    coords = {}
    for d in range(1, s.trunc + 1):
        for lw in lyndon_words(len(s.alphabet), d):
            c = rest.get(lw)
            if c:
                coords[lw] = c
                accumulate(rest, ((w, -c * embed(m)) for w, m in bracketing(lw).items()))
    return coords, Series(s.alphabet, s.trunc, s.ring, rest, _clean=True)


def lie_basis(alphabet, degree, trunc, ring=RATIONALS):
    """The Lyndon basis of the degree-d free Lie part, as Series elements
    that hold their integer split (1, {0: bracketing}) on e_0 = 1.

    Only unweighted alphabets are meaningful here (word length = degree).
    """
    return [(lw, Series(alphabet, trunc, ring, _split=(1, {0: bracketing(lw)})))
            for lw in lyndon_words(len(alphabet), degree)]
