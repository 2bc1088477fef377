"""PBW models of the two braid enveloping algebras and of QQ[[x0, x1]].

Both algebras split as (free fiber Lie algebra) acted on by a free base
Lie algebra, plus (for the four-strand algebra) a central element, so
their enveloping algebras are Hopf smash products U(fiber) # U(base)
(Molnar, J. Algebra 47, 1977).  The normal-form basis is
fiber-word . base-word . center-power, and a base word b moves right
past a fiber word f as

    b.f = sum (b' |> f) . b''        (b' |> f lands in the fiber)

over the shuffle coproduct b' (x) b'' of b, where |> is the action of
base words on fiber words (`action`), the one place the brackets enter.
The central letter commutes with everything.  Straightening is
memoized per model name and shared across coefficient rings because all
bracket coefficients are integers; the memo is keyed by the core of a
word, what is left between its leading fiber letters and its trailing
base and central letters, which are already in place.

Products run over the integers (`series.kernel_mul`): the factors are
split into integer tables over one common denominator and each pair of
tables is multiplied as normalize(a.mul(b)).  exp, log and
inverse are substitutions and run on the same kernel.  Each result keeps
its split and a factor that holds one is not split again; the checks'
differences and zero tests read the splits too, so a product is joined
into ring coefficients only when a caller reads its terms, and a passing
check reads none.

The commutative quotient QQ[[x0, x1]] of the series over X0, X1 is a
model of the same kind: fiber X0, base X1 and no bracket, so its normal
words are X0^i X1^j.

The four-strand model uses fiber t14, t24, t34, base t12, t23 and the
central sum c of all six generators.  The five-strand model uses fiber
X34, X45, X24 and base X12, X23; the remaining generators are linear
combinations of these five.

A Lie element of such a model is a fiber Lie polynomial plus a base Lie
polynomial (plus a multiple of the center), so the bracket of two of
them needs no straightening: the fiber and base parts bracket in the
free algebras, and a base word acts on fiber words through the
derivations of its letters (`action`).  A group-like series is evaluated
in a model as exp of its Lie logarithm.  When the two letter images are
integer combinations of letters, the standard bracketings are integer
tables memoized by model name and images, shared by every truncation
and coefficient ring, and the Lyndon coordinates are summed against
them over the integers too; other series and images go through the
word-by-word substitution.  A check peels log phi once for all of its
factors.
"""

from functools import partial

from .lie import lyndon_coordinates, standard_factorization
from .rationals import qq
from .rings import INTEGERS, RATIONALS, QuadraticExtension, accumulate
from .series import (
    Series,
    exp_coefficient,
    geometric_coefficient,
    join_series,
    kernel_mul,
    linear_map,
    log_coefficient,
    one,
    power_series,
    split_series,
    split_terms,
    substitute,
    zero,
)
from .words import Alphabet, X_ALPHABET

FIBER, BASE, CENTER = 0, 1, 2

# Straightening tables by model name, and the (letters, classes, brackets)
# each name was first built with: a name names one presentation.
_STRAIGHTEN_CACHES = {}
_MODEL_SPECS = {}
# Integer tables shared by every truncation and coefficient ring: the
# base-on-fiber action by model name, (base word, fiber word) -> word -> int,
# and the Lyndon bracket images by (model name, letter images),
# Lyndon word -> word -> int.
_ACTION_TABLES = {}
_LIE_IMAGES = {}
# The default of `PBWModel.evaluate`: peel phi there.
_PEEL = object()


class PBWModel:
    """Quotient algebra with a straightening normal form."""

    def __init__(self, name, alphabet, classes, brackets, trunc, ring=RATIONALS):
        self.name = name
        self.alphabet = alphabet
        self.classes = tuple(classes)
        self.brackets = brackets
        self.trunc = trunc
        self.ring = ring
        spec = (alphabet, self.classes, brackets)
        if _MODEL_SPECS.setdefault(name, spec) != spec:
            raise ValueError("model name %r is in use for another presentation" % name)
        self._cache = _STRAIGHTEN_CACHES.setdefault(name, {})
        self._actions = _ACTION_TABLES.setdefault(name, {})

    # -- straightening --------------------------------------------------

    def _straighten(self, word):
        """Expand a word in the normal basis; integer coefficients.

        Central letters move to the end, a leading run of fiber letters
        stays in front and a trailing run of base letters stays behind,
        since each of these is already where the normal form puts it.
        Only the core in between, from its first base letter to its last
        fiber letter, is straightened, by the smash product, and the memo
        is keyed by it.
        """
        cls = self.classes
        tail = tuple(x for x in word if cls[x] == CENTER)
        if tail:
            word = tuple(x for x in word if cls[x] != CENTER)
        i, j = 0, len(word)
        while i < j and cls[word[i]] == FIBER:
            i += 1
        while j > i and cls[word[j - 1]] == BASE:
            j -= 1
        head, core, tail = word[:i], word[i:j], word[j:] + tail
        table = self._cache.get(core)
        if table is None:
            table = self._cache[core] = self._straighten_core(core)
        if head or tail:
            return {head + w + tail: m for w, m in table.items()}
        return table

    def _straighten_core(self, core):
        """Straighten a core b.f.rest, b its leading base run and f the fiber
        run after it, by the smash product

            b.f.rest = sum (b' |> f) . normal(b''.rest)

        over the splits of b's positions into two subsequences b', b''.
        """
        cls = self.classes
        i = 0
        while i < len(core) and cls[core[i]] == BASE:
            i += 1
        j = i
        while j < len(core) and cls[core[j]] == FIBER:
            j += 1
        b, f, rest = core[:i], core[i:j], core[j:]
        out = {}
        for mask in range(1 << len(b)):
            b1 = tuple(x for p, x in enumerate(b) if mask >> p & 1)
            b2 = tuple(x for p, x in enumerate(b) if not mask >> p & 1)
            acted = self.action(b1, f) if b1 else {f: 1}
            after = self._straighten(b2 + rest) if rest else {b2: 1}
            accumulate(out, ((u + w, m * n) for u, m in acted.items() for w, n in after.items()))
        return out

    def is_normal(self, word):
        cls = self.classes
        prev = FIBER
        for x in word:
            k = cls[x]
            if k < prev:
                return False
            prev = k
        return True

    def normalize(self, s):
        """s in normal form, straightened in the ring of s."""
        ring = s.ring
        embed = ring.embed
        is_normal = self.is_normal
        straighten = self._straighten
        pairs = []
        for w, c in s.terms.items():
            if is_normal(w):
                pairs.append((w, c))
            elif ring is INTEGERS:
                pairs.extend((u, c * m) for u, m in straighten(w).items())
            else:
                pairs.extend((u, c * embed(m)) for u, m in straighten(w).items())
        out = accumulate({}, pairs)
        return Series(self.alphabet, s.trunc, s.ring, out, _clean=True)

    # -- algebra protocol -----------------------------------------------

    def one(self):
        return one(self.alphabet, self.trunc, self.ring)

    def zero(self):
        return zero(self.alphabet, self.trunc, self.ring)

    def letter(self, name):
        i = self.alphabet.index(name)
        return Series(self.alphabet, self.trunc, self.ring, {(i,): self.ring.one})

    def combo(self, coeffs):
        """Degree-1 element from a name -> rational table."""
        terms = {}
        for name, c in coeffs.items():
            terms[(self.alphabet.index(name),)] = self.ring.embed(c)
        return Series(self.alphabet, self.trunc, self.ring, terms)

    def mul(self, *factors):
        """The product of the factors, left to right, on the integer kernel.

        Each factor is split into integer tables once, the first is normalized
        only where a word is not normal, and the partial products stay split.
        """
        first, *rest = factors or (self.one(),)
        den, tables = split_series(first)
        wrap = partial(Series, self.alphabet, self.trunc, INTEGERS, _clean=True)
        x = den, {k: t if all(map(self.is_normal, t)) else self.normalize(wrap(t)).terms
                  for k, t in tables.items()}
        for f in rest:
            x = kernel_mul(x, split_series(f), self)
        return join_series(x, self)

    def exp(self, s):
        """exp(s) for s with zero constant term."""
        return power_series(exp_coefficient, s, self)

    def log(self, s):
        """log(s) for s with constant term 1."""
        return power_series(log_coefficient, s.sub(self.one()), self)

    def inverse(self, s):
        """s^-1 for s with constant term 1."""
        return power_series(geometric_coefficient, self.one().sub(s), self)

    # -- the Lie algebra: brackets with no straightening -----------------

    def action(self, base, word):
        """base |> word for a base word and a fiber word, as word -> int.

        A base letter acts on fiber words as the derivation extending its
        brackets with the fiber letters; a base word acts as the composite
        of its letters' derivations, the last letter first.  Memoized per
        model name.
        """
        key = (base, word)
        val = self._actions.get(key)
        if val is None:
            val = {}
            u = base[0]
            if len(base) == 1:
                for i, x in enumerate(word):
                    head, tail = word[:i], word[i + 1 :]
                    accumulate(
                        val,
                        ((head + mid + tail, m) for mid, m in self.brackets.get((u, x), {}).items()),
                    )
            else:
                for w, m in self.action(base[1:], word).items():
                    accumulate(val, ((v, m * n) for v, n in self.action((u,), w).items()))
            self._actions[key] = val
        return val

    def bracket(self, a, b):
        """[a, b] for Lie elements a, b given as word -> int tables.

        A Lie element is f + b + (a multiple of the central letter), f with
        fiber words only and b with base words only, and

            [f1 + b1, f2 + b2] = (f1 f2 - f2 f1) + b1 |> f2 - b2 |> f1 + (b1 b2 - b2 b1)

        is in normal form as it stands.
        """
        f1, b1 = self._split(a)
        f2, b2 = self._split(b)
        out = {}
        for x, y in ((f1, f2), (b1, b2)):
            for u, m in x.items():
                for v, n in y.items():
                    accumulate(out, ((u + v, m * n), (v + u, -m * n)))
        for x, y, sign in ((b1, f2, 1), (b2, f1, -1)):
            for u, m in x.items():
                for v, n in y.items():
                    mn = sign * m * n
                    accumulate(out, ((w, mn * k) for w, k in self.action(u, v).items()))
        return out

    def _split(self, table):
        """The fiber and the base part of a Lie element; the center drops out."""
        cls = self.classes
        parts = ({}, {}, {})
        for w, m in table.items():
            parts[cls[w[0]]][w] = m
        return parts[FIBER], parts[BASE]

    def _bracket_images(self, images):
        """The bracket-image memo of these letter images, or None when one
        of them is not an integer combination of letters."""
        tables = []
        for g in images:
            den, parts = split_terms(g.terms, self.ring)
            table = parts.pop(0, {})
            if den != 1 or parts or any(len(w) != 1 for w in table):
                return None
            tables.append(table)
        key = (self.name,) + tuple(frozenset(t.items()) for t in tables)
        memo = _LIE_IMAGES.get(key)
        if memo is None:
            memo = _LIE_IMAGES[key] = {(i,): t for i, t in enumerate(tables)}
        return memo

    def lie_image(self, lw, images):
        """Image of the standard bracketing of the Lyndon word lw, letter i -> images[i].

        The images must be integer combinations of the model letters.  The
        image is a word -> int table in normal form, the bracket of the
        images of u and v over the standard factorization lw = u.v.  It is
        memoized by model name and the integer letter images, so one table
        serves every truncation and every coefficient ring.
        """
        memo = self._bracket_images(images)
        if memo is None:
            raise ValueError("letter images must be integer combinations of letters")
        return self._lie_image(lw, memo)

    def _lie_image(self, lw, memo):
        """`lie_image` on the bracket-image memo, looked up once by the caller."""
        val = memo.get(lw)
        if val is None:
            u, v = standard_factorization(lw)
            val = memo[lw] = self.bracket(self._lie_image(u, memo), self._lie_image(v, memo))
        return val

    def _exp_lie(self, coords, memo):
        """exp of sum_lw coords[lw] * `_lie_image`(lw, memo), one `linear_map`
        of the split Lyndon coordinates: phi(g0, g1) for the group-like phi
        whose Lie logarithm has the Lyndon coordinates coords, with memo the
        bracket-image memo of (g0, g1), looked up once by the caller; words
        longer than the truncation drop out."""
        x = split_terms({lw: c for lw, c in coords.items() if len(lw) <= self.trunc}, self.ring)
        lie = linear_map(x, lambda lw: (1, {0: self._lie_image(lw, memo)}), self.ring)
        return self.exp(join_series(lie, self))

    def evaluate(self, phi, g0, g1, coords=_PEEL):
        """phi(g0, g1) for a series phi over X0, X1.

        A group-like phi is exp of the Lie series log(phi): when g0 and g1
        are integer combinations of letters, its Lyndon coordinates go to
        `_exp_lie`.  A caller that evaluates one phi several times peels it
        once and passes coords = lie_coordinates(phi), over the model
        ring; otherwise phi is peeled here.  Every other phi, a phi
        truncated below the model and other images go through the word
        path.
        """
        memo = self._bracket_images((g0, g1)) if phi.trunc >= self.trunc else None
        if memo is not None:
            if coords is _PEEL:
                coords = lie_coordinates(phi)
            if coords is not None:
                return self._exp_lie(coords, memo)
        return substitute(phi, [g0, g1], self)


def lie_coordinates(phi):
    """The Lyndon coordinates of log(phi) for a group-like phi, else None."""
    if phi.constant_term() != phi.ring.one:
        return None
    coords, rest = lyndon_coordinates(phi.log())
    return coords if rest.is_zero() else None


# -- the four-strand model ---------------------------------------------

A4_LETTERS = ("t14", "t24", "t34", "t12", "t23", "c")
A4_CLASSES = (FIBER, FIBER, FIBER, BASE, BASE, CENTER)
# [t12, t14] = t14 t24 - t24 t14 and so on; derived from the defining
# relations [t_ij, t_ik + t_jk] = 0 and the disjoint commutators.
A4_BRACKETS = {
    (3, 0): {(0, 1): 1, (1, 0): -1},
    (3, 1): {(1, 0): 1, (0, 1): -1},
    (3, 2): {},
    (4, 0): {},
    (4, 1): {(1, 2): 1, (2, 1): -1},
    (4, 2): {(2, 1): 1, (1, 2): -1},
}


def a4_model(trunc, ring=RATIONALS):
    return PBWModel("a4", Alphabet(A4_LETTERS), A4_CLASSES, A4_BRACKETS, trunc, ring)


def a4_generators(model):
    """Images of all six t_ij and the central sum c in the model."""
    g = {name: model.letter(name) for name in ("t12", "t14", "t23", "t24", "t34", "c")}
    g["t13"] = model.combo(
        {"c": 1, "t14": -1, "t24": -1, "t34": -1, "t12": -1, "t23": -1}
    )
    return g


# -- the commutative quotient ------------------------------------------


def ab_model(trunc, ring=RATIONALS):
    """QQ[[x0, x1]]: letters X0, X1 with no bracket, normal words X0^i X1^j."""
    return PBWModel("ab", X_ALPHABET, (FIBER, BASE), {}, trunc, ring)


# -- the five-strand model ---------------------------------------------

P5_LETTERS = ("X34", "X45", "X24", "X12", "X23")
P5_CLASSES = (FIBER, FIBER, FIBER, BASE, BASE)
# [X12, X24] = [X34, X24] + [X45, X24], [X23, X34] = [X34, X24],
# [X23, X24] = [X24, X34]; everything else commutes.
P5_BRACKETS = {
    (3, 0): {},
    (3, 1): {},
    (3, 2): {(0, 2): 1, (2, 0): -1, (1, 2): 1, (2, 1): -1},
    (4, 0): {(0, 2): 1, (2, 0): -1},
    (4, 1): {},
    (4, 2): {(2, 0): 1, (0, 2): -1},
}


def p5_model(trunc, ring=RATIONALS):
    return PBWModel("p5", Alphabet(P5_LETTERS), P5_CLASSES, P5_BRACKETS, trunc, ring)


def p5_generators(model):
    """Images of all ten X_ij in the model letters."""
    g = {name: model.letter(name) for name in P5_LETTERS}
    g["X13"] = model.combo({"X45": 1, "X12": -1, "X23": -1})
    g["X14"] = model.combo({"X24": -1, "X34": -1, "X45": -1})
    g["X15"] = model.combo({"X23": 1, "X24": 1, "X34": 1})
    g["X25"] = model.combo({"X12": -1, "X23": -1, "X24": -1})
    g["X35"] = model.combo({"X12": 1, "X34": -1, "X45": -1})
    g["X51"] = g["X15"]
    return g


# -- ring lifting -------------------------------------------------------


def lift_series(s, ring):
    """Re-embed a rational-coefficient series into a larger ring."""
    return Series(
        s.alphabet, s.trunc, ring, {w: ring.embed(c) for w, c in s.terms.items()}
    )


# -- equation checkers --------------------------------------------------


# The pentagon f1 f2 = f3 f4 f5 with f = phi(g0, g1) for the rows below,
# each argument a sum of generators; the sign marks the side of the
# equation, which is also the sign of the row in the linearization.
PENTAGON = (
    (("t12",), ("t23", "t24"), 1),
    (("t13", "t23"), ("t34",), 1),
    (("t23",), ("t34",), -1),
    (("t12", "t13"), ("t24", "t34"), -1),
    (("t12",), ("t23",), -1),
)


def pentagon_arguments(gens):
    """(g0, g1, sign) for the five pentagon factors, from a4_generators."""

    def total(names):
        out = gens[names[0]]
        for name in names[1:]:
            out = out.add(gens[name])
        return out

    return [(total(a), total(b), sign) for a, b, sign in PENTAGON]


def check_pentagon(phi):
    """LHS - RHS of the pentagon equation in the four-strand model:
    f1 f2 - f3 f4 f5 for the five factors in PENTAGON order."""
    m = a4_model(phi.trunc, phi.ring)
    args = pentagon_arguments(a4_generators(m))
    coords = lie_coordinates(phi)
    f1, f2, f3, f4, f5 = (m.evaluate(phi, g0, g1, coords) for g0, g1, _ in args)
    return m.mul(f1, f2).sub(m.mul(f3, f4, f5))


# The factors of the 5-cycle product, as (g0, g1) generator names.
FIVE_CYCLE = (("X34", "X45"), ("X51", "X12"), ("X23", "X34"), ("X45", "X51"), ("X12", "X23"))


def check_5cycle(phi):
    """Residual of phi_345 phi_512 phi_234 phi_451 phi_123 - 1."""
    m = p5_model(phi.trunc, phi.ring)
    g = p5_generators(m)
    coords = lie_coordinates(phi)
    out = m.one()
    for a, b in FIVE_CYCLE:
        out = m.mul(out, m.evaluate(phi, g[a], g[b], coords))
    return out.sub(m.one())


def check_hexagons(phi):
    """Residuals of the two hexagon equations over QQ[mu]/(mu^2 - 24 c_{X0X1}).

    phi is peeled once over the rationals and its coordinates lifted.
    """
    ring = QuadraticExtension(phi.coefficient((0, 1)) * 24)
    mu_half = ring.mu * ring.embed(qq(1, 2))
    m = a4_model(phi.trunc, ring)
    g = a4_generators(m)
    coords = lie_coordinates(phi)
    if coords is not None:
        coords = {lw: ring.embed(c) for lw, c in coords.items()}
    phi = lift_series(phi, ring)

    def f(g0, g1):
        return m.evaluate(phi, g0, g1, coords)

    def half_exp(t):
        return m.exp(t.scale(mu_half))

    t12, t13, t23 = g["t12"], g["t13"], g["t23"]
    f123, e13 = f(t12, t23), half_exp(t13)
    lhs1 = half_exp(t13.add(t23))
    rhs1 = m.mul(f(t13, t12), e13, m.inverse(f(t13, t23)), half_exp(t23), f123)
    lhs2 = half_exp(t12.add(t13))
    rhs2 = m.mul(m.inverse(f(t23, t13)), e13, f(t12, t13), half_exp(t12), m.inverse(f123))
    return lhs1.sub(rhs1), lhs2.sub(rhs2)
