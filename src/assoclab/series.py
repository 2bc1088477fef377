"""Truncated non-commutative formal power series over an exact coefficient ring.

The letters of the alphabet are primitive for the coproduct, which makes
this the shuffle Hopf algebra; the product stored on `Series` itself is
concatenation (the ambient ring multiplication).  Tensors are series
too: u (x) v is the word u.v' over `tensor_alphabet`, the letters and
their primed copies, so the coproduct and the tensor squares are Series.

Sums and products run on the integer kernel.  A split is (D, {k: {word:
int}}): one nonempty table of nonzero ints per integral basis element
e_k of the ring, over one common denominator D, the series being
(1/D) sum_k e_k tables[k]; `split_series` gives it and `join_series`
wraps it as a series.  The kernel is two loops over the ring's structure
constants: `linear_map` sums a split against the splits of its keys'
images once, at their common denominator (every substitution, and
`combine`, so `add`), and `bilinear` extends an integer bilinear map of
two tables to two splits (`kernel_mul`, so `Series.mul` over any ring
but the integers, `scale`, `shuffle_mul`, `tensor`, `derivation`).
The split at the least denominator is the one form a series' arithmetic
reads: `add`, `sub`, `scale`, `==` over one ring, `is_zero` and
`coefficient` all read it, so a chain of kernel steps passes integer
tables along whatever its operands held.  A Series built from ring
terms splits them when first read and keeps the split; a kernel result
or a `from_word` holds only its split, and joins its ring terms for
readers that print, normalize or index them.  A held split is shared,
never written to.
"""

from bisect import bisect_left
from functools import lru_cache, partial
from itertools import product
from math import factorial, gcd, lcm

from .rationals import QQ, qq, format_rational, parse_rational
from .rings import INTEGERS, RATIONALS, accumulate
from .words import Alphabet, shuffle_words


class AlgebraError(ValueError):
    pass


class AlphabetMismatch(AlgebraError):
    pass


class TruncationMismatch(AlgebraError):
    pass


class ConstantTermError(AlgebraError):
    pass


class Series:
    """Sparse map word -> coefficient, truncated at a fixed total degree."""

    __slots__ = ("alphabet", "trunc", "ring", "terms", "_split")

    def __init__(self, alphabet, trunc, ring, terms=None, _clean=False, _split=None):
        self.alphabet, self.trunc, self.ring, self._split = alphabet, trunc, ring, _split
        if _split is not None:
            return
        if terms is None:
            self.terms = {}
        elif _clean:
            self.terms = terms
        else:
            deg = alphabet.degree
            self.terms = {w: c for w, c in terms.items() if deg(w) <= trunc and c}

    def __getattr__(self, name):
        """The terms of a held split, joined over the ring when first read."""
        if name != "terms":
            raise AttributeError(name)
        den, parts = self._split
        coords, rank = {}, max(parts, default=0) + 1
        for k, part in parts.items():
            for w, m in part.items():
                cs = coords.get(w)
                if cs is None:
                    cs = coords[w] = [0] * rank
                cs[k] = QQ(m, den)
        join = self.ring.join
        self.terms = {w: join(cs) for w, cs in coords.items()}
        return self.terms

    # -- basic queries ------------------------------------------------

    def coefficient(self, word):
        den, parts = split_series(self)
        cs = [QQ(parts[k].get(word, 0), den) if k in parts else 0
              for k in range(max(parts, default=0) + 1)]
        return self.ring.join(cs) if any(cs) else self.ring.zero

    def constant_term(self):
        return self.coefficient(())

    def support(self):
        return sorted(self.terms, key=self.alphabet.word_key)

    def degree_part(self, d):
        deg = self.alphabet.degree
        terms = {w: c for w, c in self.terms.items() if deg(w) == d}
        return Series(self.alphabet, self.trunc, self.ring, terms, _clean=True)

    def is_zero(self):
        return not split_series(self)[1]

    def __eq__(self, other):
        """Equal splits over one ring; equal terms across rings."""
        same = isinstance(other, Series) and self.alphabet == other.alphabet
        if same and self.trunc == other.trunc:
            if self.ring is other.ring:
                return split_series(self) == split_series(other)
            return self.terms == other.terms
        return False

    def __repr__(self):
        fmt = self.alphabet.format_word
        parts = ["%r: %s" % (fmt(w), self.terms[w]) for w in self.support()[:8]]
        more = "" if len(self.terms) <= 8 else ", ..."
        return "Series({%s%s}, N=%d)" % (", ".join(parts), more, self.trunc)

    # -- linear structure ---------------------------------------------

    def _check_compatible(self, other):
        if self.alphabet != other.alphabet:
            raise AlphabetMismatch("series live over different alphabets")
        if self.trunc != other.trunc:
            raise TruncationMismatch(
                "truncation degrees differ: %d vs %d" % (self.trunc, other.trunc)
            )

    def add(self, other, sign=1):
        """self + sign * other: one `combine` of the splits."""
        self._check_compatible(other)
        return combine(((1, self), (sign, other)), self)

    def neg(self):
        return word_map(self, lambda w: (w, -1))

    def sub(self, other):
        return self.add(other, -1)

    def scale(self, c):
        """self times the ring element c: `bilinear` on the split of self and
        the split of c, a constant over the empty word."""
        x = split_terms({(): c} if c else {}, self.ring)
        return join_series(bilinear(split_series(self), x, self.ring,
                                    lambda a, b: {w: m * b[()] for w, m in a.items()}), self)

    # -- products -----------------------------------------------------

    def mul(self, other):
        """Concatenation product, truncated: one `kernel_mul` over any ring
        but the integers, whose raw loop below is the kernel's product."""
        self._check_compatible(other)
        if self.ring is not INTEGERS:
            x = kernel_mul(split_series(self), split_series(other), self._algebra())
            return join_series(x, self)
        deg = self.alphabet.degree
        by_degree = [[] for _ in range(self.trunc + 1)]
        for v, b in other.terms.items():
            by_degree[deg(v)].append((v, b))
        pairs = ((u + v, a * b) for u, a in self.terms.items()
                 for d in range(self.trunc - deg(u) + 1) for v, b in by_degree[d])
        return Series(self.alphabet, self.trunc, self.ring, accumulate({}, pairs), _clean=True)

    def shuffle_mul(self, other):
        """Shuffle product (sum over interleavings), truncated, summed over
        the integers on the kernel's split of both factors."""
        self._check_compatible(other)
        deg, trunc = self.alphabet.degree, self.trunc

        def pair(a, b):
            out = {}
            for (u, x), (v, y) in product(a.items(), b.items()):
                if deg(u) + deg(v) <= trunc:
                    xy = x * y
                    accumulate(out, ((w, xy * n) for w, n in shuffle_words(u, v).items()))
            return out

        return join_series(bilinear(split_series(self), split_series(other), self.ring, pair), self)

    # -- exp / log / inverse ------------------------------------------

    def _algebra(self):
        return SeriesAlgebra(self.alphabet, self.trunc, self.ring)

    def exp(self):
        return power_series(exp_coefficient, self, self._algebra())

    def log(self):
        u = self.sub(one(self.alphabet, self.trunc, self.ring))
        return power_series(log_coefficient, u, self._algebra())

    def inverse(self):
        """Multiplicative inverse for constant term 1."""
        u = one(self.alphabet, self.trunc, self.ring).sub(self)
        return power_series(geometric_coefficient, u, self._algebra())


# -- constructors -----------------------------------------------------


def zero(alphabet, trunc, ring=RATIONALS):
    return Series(alphabet, trunc, ring)


def one(alphabet, trunc, ring=RATIONALS):
    return from_word(alphabet, trunc, (), ring)


def letter(alphabet, trunc, name, ring=RATIONALS):
    return from_word(alphabet, trunc, (alphabet.index(name),), ring)


def from_word(alphabet, trunc, word, ring=RATIONALS):
    """The word as a series, holding its split (1, {0: {word: 1}}) on e_0 = 1."""
    word = tuple(word)
    tables = {0: {word: 1}} if alphabet.degree(word) <= trunc else {}
    return Series(alphabet, trunc, ring, _split=(1, tables))


def word_map(s, image, like=None):
    """The linear map w -> m.v for (v, m) = image(w), or w -> 0 when image(w)
    is None, on the split tables of s, over like (a series or an algebra; s
    by default); image must send the words it keeps to distinct words."""
    den, tables = split_series(s)
    out = {k: {x[0]: x[1] * m for w, m in t.items() if (x := image(w))} for k, t in tables.items()}
    return join_series((den, out), like or s)


class SeriesAlgebra:
    """The free (concatenation) algebra as a substitution target."""

    def __init__(self, alphabet, trunc, ring=RATIONALS):
        self.alphabet = alphabet
        self.trunc = trunc
        self.ring = ring

    def one(self):
        return one(self.alphabet, self.trunc, self.ring)

    def zero(self):
        return zero(self.alphabet, self.trunc, self.ring)

    def letter(self, name):
        return letter(self.alphabet, self.trunc, name, self.ring)

    def normalize(self, s):
        """Every word is normal in the free algebra."""
        return s


# -- Hopf structure ---------------------------------------------------


@lru_cache(maxsize=None)
def tensor_alphabet(alphabet):
    """The letters of alphabet and their primed copies ~j = -1-j, with the
    same weights: the word u.v' is u (x) v.  The primed letters are laid
    out in reverse, so negative indices resolve to them in names, weights
    and model classes, and a tensor word does not depend on the alphabet size."""
    names = tuple(name + "'" for name in reversed(alphabet.names))
    return Alphabet(alphabet.names + names, alphabet.weights + alphabet.weights[::-1])


def primed(word):
    return tuple(~j for j in word)


def tensor_factors(p):
    """(u, v) for the tensor word p = u.v': u ends at its first primed
    (negative) letter."""
    k = bisect_left(p, True, key=(0).__gt__)
    return p[:k], primed(p[k:])


def tensor_image(s, letter_parts):
    """The algebra map sending letter x to the sum of a (x) b over the pairs
    of words (a, b) in letter_parts[x], applied to s: a series over
    tensor_alphabet(s.alphabet), summed over the integers on the kernel's
    split of s.

    With s = c_() + sum_x s_x.x, where s_x sums c_w v over the words
    w = v.x, image(s) = c_() (1 (x) 1) + sum_x image(s_x).image(x).  The
    words are grouped by their last letter and the groups recurse, so each
    shared suffix is expanded once per call and no table outlives it.
    Inside, an image is a table u -> v' -> int, joined to u.v' at the end.
    """
    parts = [[(a, primed(b)) for a, b in pairs] for pairs in letter_parts]

    def image(table):
        out, by_last = {}, {}
        for w, c in table.items():
            if w:
                by_last.setdefault(w[-1], {})[w[:-1]] = c
            else:
                out[()] = {(): c}
        for x, prefixes in by_last.items():
            child = image(prefixes)
            for a, b in parts[x]:
                for u, right in child.items():
                    ua = u + a
                    row = out.get(ua)
                    if row is None:
                        out[ua] = {v + b: m for v, m in right.items()} if b else dict(right)
                    else:
                        accumulate(row, ((v + b, m) for v, m in right.items()))
        return out

    den, tables = split_series(s)
    tables = {k: {u + v: m for u, right in image(t).items() for v, m in right.items()}
              for k, t in tables.items()}
    return join_series((den, tables), SeriesAlgebra(tensor_alphabet(s.alphabet), s.trunc, s.ring))


def coproduct(s):
    """Algebra-map extension of letter primitivity, as a tensor series."""
    return tensor_image(s, [(((x,), ()), ((), (x,))) for x in range(len(s.alphabet))])


def tensor(a, b):
    """a (x) b as a tensor series, truncated at the degree of a, on the
    splits of a and b; distinct pairs (u, v) give distinct words u.v'."""
    deg, trunc = a.alphabet.degree, a.trunc
    db, pb = split_series(b)
    pb = {j: [(primed(v), deg(v), y) for v, y in t.items()] for j, t in pb.items()}

    def pair(ta, tb):
        return {u + v: x * y for u, x in ta.items() for room in (trunc - deg(u),)
                for v, d, y in tb if d <= room}

    x = bilinear(split_series(a), (db, pb), a.ring, pair)
    return join_series(x, SeriesAlgebra(tensor_alphabet(a.alphabet), trunc, a.ring))


def tensor_square(s):
    """s (x) s as a tensor series."""
    return tensor(s, s)


def _shuffle_sums(s, tables):
    """(u, v, sums) for each unordered pair {u, v} of nonempty words with
    deg u + deg v <= s.trunc (u ш v = v ш u): sums[k] is sum m A_k(w) over
    the terms m.w of u ш v, on the split integer tables A_k of s, nonzero only."""
    deg = s.alphabet.degree
    words = [w for d in range(1, s.trunc) for w in s.alphabet.words_of_degree(d)]
    for i, u in enumerate(words):
        for v in words[i:]:
            if deg(u) + deg(v) > s.trunc:
                break
            shuffle = shuffle_words(u, v).items()
            sums = ((k, sum(m * a.get(w, 0) for w, m in shuffle)) for k, a in tables.items())
            yield u, v, {k: c for k, c in sums if c}


def is_group_like(s):
    """Delta(phi) == phi (x) phi with constant term 1.

    Both the coproduct test and the equivalent shuffle coefficient test
    are evaluated; disagreement is a bug and raises.  On the split
    tables of s over one denominator D, c(u) c(v) = sum m c(w) over u ш v
    reads sum_ij A_i(u) A_j(v) e_i e_j = D sum_k e_k sum m A_k(w).
    """
    ring = s.ring
    by_coproduct = s.constant_term() == ring.one and coproduct(s) == tensor_square(s)
    by_shuffle = s.constant_term() == ring.one
    if by_shuffle:
        den, tables = split_series(s)
        for u, v, sums in _shuffle_sums(s, tables):
            lhs = accumulate({}, (
                (k, a[u] * b[v] * m)
                for i, a in tables.items() if u in a
                for j, b in tables.items() if v in b
                for k, m in ring.basis_product(i, j)
            ))
            if lhs != {k: den * c for k, c in sums.items()}:
                by_shuffle = False
                break
    if by_coproduct != by_shuffle:
        raise AssertionError("group-like tests disagree")
    return by_coproduct


def primitive_tensor(s):
    """1 (x) s + s (x) 1 on the nonconstant part of s's split: the coproduct s has if primitive."""
    den, tables = split_series(s)
    tables = {k: {v: m for w, m in t.items() if w for v in (primed(w), w)}
              for k, t in tables.items()}
    return join_series((den, tables), SeriesAlgebra(tensor_alphabet(s.alphabet), s.trunc, s.ring))


def is_lie(s):
    """Primitivity up to the truncation degree, cross-checked on each split
    table A of s by Dynkin-Specht-Wever, theta(A) = sum len(w) A(w) w."""
    from .lie import dynkin_map

    if s.constant_term():
        return False
    by_coproduct = coproduct(s) == primitive_tensor(s)
    tables = split_series(s)[1].values()
    by_dynkin = all(dynkin_map(a) == {w: len(w) * c for w, c in a.items()} for a in tables)
    if by_coproduct != by_dynkin:
        raise AssertionError("primitivity tests disagree")
    return by_coproduct


# -- the integer kernel -------------------------------------------------


def split_terms(terms, ring):
    """(D, tables) with terms[key] = (1/D) sum_k e_k tables[k][key].

    The e_k are the integral basis of the ring, each table maps keys to
    nonzero ints (a table that would be empty is absent) and D is the
    least common denominator of all the coordinates.
    """
    if ring is RATIONALS:
        den = lcm(*{c.denominator for c in terms.values()})
        return den, ({0: {key: c.numerator * (den // c.denominator) for key, c in terms.items()}}
                     if terms else {})
    coords = [(key, ring.split(c)) for key, c in terms.items()]
    den = lcm(*{x.denominator for _, cs in coords for x in cs})
    tables = {}
    for key, cs in coords:
        for k, x in enumerate(cs):
            if x:
                tables.setdefault(k, {})[key] = x.numerator * (den // x.denominator)
    return den, tables


def split_series(s):
    """The split `split_terms` gives of s, computed once and kept on s;
    callers read it and never write to it."""
    if s._split is None:
        s._split = split_terms(s.terms, s.ring)
    return s._split


def reduced(x):
    """The split x in the one format: empty tables dropped, and D and every
    entry divided by their gcd, as `split_terms` would give it."""
    den, tables = x
    g = den
    for table in tables.values():
        g = gcd(g, *table.values())
    tables = {k: {w: m // g for w, m in t.items()} if g > 1 else t for k, t in tables.items() if t}
    return den // g, tables


def join_series(x, like):
    """The series over like.ring (like is a series or an algebra) that the
    split x stands for, holding `reduced(x)`; its terms are joined when
    first read."""
    return Series(like.alphabet, like.trunc, like.ring, _split=reduced(x))


def combine(pairs, like):
    """sum q s over the pairs (q, s) of a rational q and a series s, over
    like (a series or an algebra): one `linear_map` of the split weights,
    a split over the indices i of the pairs, the image of i the split of s_i."""
    terms = [(q, s) for q, s in pairs if q]
    weights = split_terms({i: q for i, (q, _) in enumerate(terms)}, RATIONALS)
    return join_series(linear_map(weights, lambda i: split_series(terms[i][1]), like.ring), like)


def linear_map(x, image, ring):
    """The split of sum_w x(w) image(w), for a split x over keys w and a map
    image from a key to a split over ring, read once per key: coordinate e_k
    of x times coordinate e_l of image(w) lands on each e_j of
    e_k e_l = sum m e_j with weight m.  The sum is taken once, over the
    integers, at the common denominator of the images."""
    den, tables = x
    images = {w: image(w) for w in dict.fromkeys(w for t in tables.values() for w in t)}
    common = lcm(*{d for d, _ in images.values()})
    basis_product = ring.basis_product
    out = {}
    for k, t in tables.items():
        for w, a in t.items():
            d, parts = images[w]
            a *= common // d
            for l, p in parts.items():
                for j, m in basis_product(k, l):
                    am = a * m
                    pairs = p.items() if am == 1 else ((v, am * c) for v, c in p.items())
                    accumulate(out.setdefault(j, {}), pairs)
    return den * common, out


def bilinear(x, y, ring, pair):
    """The split of the bilinear extension to the splits x and y of pair,
    which maps a table of x and one of y to a new {word: int} table:
    pair(x_i, y_j) lands on each e_k of e_i e_j = sum m e_k with weight m."""
    (dx, px), (dy, py) = x, y
    basis_product = ring.basis_product
    out = {}
    for (i, a), (j, b) in product(px.items(), py.items()):
        ab = pair(a, b)
        if not ab:
            continue
        for n, (k, m) in enumerate(basis_product(i, j)):
            pairs = ab.items() if m == 1 else ((w, m * c) for w, c in ab.items())
            if k in out:
                accumulate(out[k], pairs)
            else:  # ab is a new table, so it may become one out[k]
                out[k] = ab if m == 1 and not n else dict(pairs)
    return dx * dy, out


def kernel_mul(x, y, algebra):
    """The product of the splits x and y in algebra, split: `bilinear` on
    the product of two tables as integer Series, algebra.normalize(a.mul(b))."""
    wrap = partial(Series, algebra.alphabet, algebra.trunc, INTEGERS, _clean=True)
    return bilinear(x, y, algebra.ring, lambda a, b: algebra.normalize(wrap(a).mul(wrap(b))).terms)


# -- homomorphisms ----------------------------------------------------


def substitute(s, images, algebra):
    """Apply the algebra homomorphism sending letter i to images[i].

    `algebra` provides one(), normalize(), its ring, alphabet and
    truncation; the images must have zero constant term so that grading
    (and hence truncation) is respected.  The images are split once, the
    image of every word is a `kernel_mul` product, cached by prefix, and
    the sum over the terms of s is one `linear_map`.
    """
    if len(images) != len(s.alphabet):
        raise AlgebraError("one image per alphabet letter required")
    for img in images:
        if img.constant_term():
            raise ConstantTermError("letter image must have zero constant term")
    letters = [split_series(g) for g in images]
    cache = {(): split_series(algebra.one())}

    def image(word):
        if word not in cache:
            cache[word] = kernel_mul(image(word[:-1]), letters[word[-1]], algebra)
        return cache[word]

    return join_series(linear_map(split_series(s), image, algebra.ring), algebra)


def derivation(s, images):
    """Apply to s the derivation sending letter i to images[i] and every
    letter absent from images to zero: each occurrence of a letter in a
    word is replaced by its image in turn, truncated.  Replacing one
    letter is `bilinear` in s and its image, and the letters' parts are
    `combine`d."""
    deg, weights = s.alphabet.degree, s.alphabet.weights

    def replace(ch, t, img):
        return accumulate({}, ((w[:i] + u + w[i + 1 :], c * cu)
                               for w, c in t.items() for i, x in enumerate(w) if x == ch
                               for u, cu in img.items() if deg(u) - weights[ch] <= s.trunc - deg(w)))

    parts = (bilinear(split_series(s), split_series(img), s.ring, partial(replace, ch))
             for ch, img in images.items())
    return combine(((1, join_series(x, s)) for x in parts), s)


POWER_ALPHABET = Alphabet(("u",))


def power_series(coefficient, u, algebra):
    """sum_k coefficient(k) u^k for 0 <= k <= algebra.trunc, inside algebra.

    The one-letter series with these coefficients is substituted at u, so
    u must have zero constant term, as substitute checks.
    """
    ring = algebra.ring
    terms = {(0,) * k: ring.embed(c) for k in range(algebra.trunc + 1) if (c := coefficient(k))}
    return substitute(Series(POWER_ALPHABET, algebra.trunc, ring, terms, _clean=True), [u], algebra)


def exp_coefficient(k):
    return qq(1, factorial(k))


def log_coefficient(k):
    """log(1 + u) = sum_{k >= 1} (-1)^(k+1) u^k / k."""
    return qq(-1 if k % 2 == 0 else 1, k) if k else 0


def geometric_coefficient(k):
    """1 / (1 - u) = sum_k u^k."""
    return 1


# -- text format ------------------------------------------------------


def to_text(s):
    """Series text format; exact round-trip, rational coefficients and weight-1 letters only."""
    lines = ["alphabet: %s" % " ".join(s.alphabet.names), "degree: %d" % s.trunc]
    fmt = s.alphabet.format_word
    lines += ['"%s" %s' % (fmt(w), format_rational(s.terms[w])) for w in s.support()]
    return "\n".join(lines) + "\n"


def from_text(text):
    """Parse the series text format, every letter of weight 1; a negative
    degree, a repeated word, a term above the declared degree or a zero
    denominator raises AlgebraError."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2 or not lines[0].startswith("alphabet:") or not lines[1].startswith("degree:"):
        raise AlgebraError("malformed series file: missing header")
    alphabet = Alphabet(tuple(lines[0].split(":", 1)[1].split()))
    trunc = int(lines[1].split(":", 1)[1])
    if trunc < 0:
        raise AlgebraError("negative degree %d" % trunc)
    terms = {}
    for ln in lines[2:]:
        if not ln.startswith('"'):
            raise AlgebraError("malformed term line: %r" % ln)
        wtext, _, ctext = ln[1:].partition('"')
        word = alphabet.parse_word(wtext)
        if word in terms:
            raise AlgebraError("repeated word %r" % wtext)
        if alphabet.degree(word) > trunc:
            raise AlgebraError("term %r above degree %d" % (wtext, trunc))
        try:
            terms[word] = parse_rational(ctext.strip())
        except ZeroDivisionError:
            raise AlgebraError("zero denominator in %r" % ln)
    return Series(alphabet, trunc, RATIONALS, terms)
