"""Finitely presented graded associative algebras with exact degreewise
reductions, and the exact linear solver.

The engine is generic degreewise linear algebra: degree-1 relations
eliminate generators down to a chosen letter basis, and for d >= 2 the
degree-d quotient is (letters (x) V_{d-1}) modulo the rows obtained by
right-multiplying every degree-2 relation by a degree-(d-2) basis word
and rewriting through the already-computed reduction maps.  This is
complete for homogeneous ideals because every two-sided ideal element
u.r.v lies in letters.I_{d-1} once u is nonempty.  The degree-2 build
echelons the relations as given and keeps its back-substituted pivot
rows, a basis of their span, as `quadratic`; from degree 3 on only that
basis is right-multiplied.  A row is linear in its relation, so the
rows span the same space, and the pivots, reductions and normal forms
are those of every relation; no Groebner property is assumed.  A
reduction is a split in the kernel's one format, (D, {0: word -> int}),
and every row is one `series.linear_map` of such splits, an integer sum.
"""

from functools import partial
from math import gcd

from .rationals import ONE, QQ, ZERO, qq, parse_rational
from .rings import RATIONALS, accumulate
from .series import linear_map, split_terms
from .words import Alphabet


class PresentationError(ValueError):
    pass


def _primitive(row):
    """row divided by the gcd of its entries: a primitive integer row."""
    g = gcd(*row.values())
    return row if g == 1 else {k: v // g for k, v in row.items()}


def integer_row(row):
    """A new primitive integer row from a rational or integer row: zero
    entries dropped, scaled by the least common denominator of the rest,
    then divided by their gcd.  A zero row gives {}.  The elimination edits
    rows in place, so the new row keeps the caller's row intact."""
    row = split_terms({k: c for k, c in row.items() if c}, RATIONALS)[1].get(0, {})
    return _primitive(row) if row else row


def _eliminate(row, k, pivot):
    """a.row - b.pivot, with a : b = pivot[k] : row[k] in lowest terms, so
    coordinate k cancels; made primitive."""
    a, b = pivot[k], row[k]
    g = gcd(a, b)
    a, b = a // g, b // g
    if a != 1:
        row = {j: a * v for j, v in row.items()}
    for j, v in pivot.items():
        x = row.get(j, 0) - b * v
        if x:
            row[j] = x
        else:
            del row[j]  # b * v is nonzero, so a zero sum means j was in row
    return _primitive(row) if row else row


def echelon(rows):
    """Insertion echelon over the integers; returns pivot -> primitive row.

    Rows are sparse coordinate -> int tables (`integer_row` makes one of a
    rational row).  Each is copied and made primitive, and a lead
    coordinate that is already a pivot is eliminated by
    cross-multiplication, so no rational is built.  Coordinates are
    compared by their natural order; the pivot set is the
    leading-coordinate set of the row space, hence canonical.
    """
    pivots = {}
    for row in rows:
        row = _primitive(dict(row))
        while row:
            lead = min(row)
            if lead not in pivots:
                pivots[lead] = row
                break
            row = _eliminate(row, lead, pivots[lead])
    return pivots


def back_substitute(pivots):
    """Fully back-substitute over the integers, in place, so each pivot row
    mentions no other pivot coordinate; returns pivots."""
    for lead in sorted(pivots, reverse=True):
        row = pivots[lead]
        for k in sorted(row):
            if k != lead and k in pivots:
                # pivots[k] has k > lead, so it is already fully solved
                row = _eliminate(row, k, pivots[k])
        pivots[lead] = row
    return pivots


def solve_pivots(pivots):
    """The monic rational view of `back_substitute(pivots)`: pivot ->
    rational row, the reduced row echelon form of the row space, which is
    unique, so it does not depend on the scaling of the integer rows."""
    return {lead: {k: QQ(v, row[lead]) for k, v in row.items()}
            for lead, row in back_substitute(pivots).items()}


def _solve_affine(columns, rhs, n_unknowns):
    """Solve sum_i x_i columns[i] = rhs over the rationals.

    columns are sparse key -> coeff tables.  Each key is one equation,
    a row over the unknowns 0..n-1 with the right-hand side as coordinate
    n, so the system is inconsistent exactly when n becomes a pivot.
    Returns (particular, kernel) with the particular solution taking free
    variables zero, or None when the system is inconsistent.
    """
    n = n_unknowns
    rows = {}
    for i, col in enumerate(columns):
        for w, c in col.items():
            rows.setdefault(w, {})[i] = c
    for w, c in rhs.items():
        rows.setdefault(w, {})[n] = c
    pivots = echelon([integer_row(rows[w]) for w in sorted(rows)])
    if n in pivots:
        return None
    pivots = solve_pivots(pivots)
    particular = [pivots[p].get(n, ZERO) if p in pivots else ZERO for p in range(n)]
    kernel = []
    for f in range(n):
        if f not in pivots:
            vec = [-pivots[p].get(f, ZERO) if p in pivots else ZERO for p in range(n)]
            vec[f] = ONE
            kernel.append(vec)
    return particular, kernel


class Presentation:
    """A graded algebra given by degree-1 generators and relations of degree <= 2."""

    def __init__(self, names, relations, name=""):
        self.name = name
        self.generator_names = tuple(names)
        lin, quad = [], []
        for r in relations:
            degs = {len(w) for w in r}
            if len(degs) != 1:
                raise PresentationError("relations must be homogeneous")
            d = degs.pop()
            if d == 1:
                lin.append(r)
            elif d == 2:
                quad.append(r)
            else:
                raise PresentationError("only degree 1 and 2 relations supported")
        self._eliminate_linear(lin)
        self._rewrite_quadratic(quad)
        self.basis = {0: [()], 1: [(i,) for i in range(len(self.letters))]}
        self.reduction = {}
        self.extend_to(2)  # replaces the quadratic relations by a basis of their span

    # -- construction ---------------------------------------------------

    def _eliminate_linear(self, lin):
        pivots = back_substitute(echelon([integer_row(r) for r in lin]))
        self.letters = [
            i for i in range(len(self.generator_names)) if (i,) not in pivots
        ]
        self.alphabet = Alphabet(tuple(self.generator_names[i] for i in self.letters))
        pos = {g: j for j, g in enumerate(self.letters)}
        self.generator_images = []
        for g in range(len(self.generator_names)):
            if (g,) in pivots:
                row = pivots[(g,)]
                img = {pos[k[0]]: QQ(-c, row[(g,)]) for k, c in row.items() if k != (g,)}
            else:
                img = {pos[g]: ONE}
            self.generator_images.append(img)

    def _rewrite_quadratic(self, quad):
        images = self.generator_images
        self.quadratic = []
        for r in quad:
            row = accumulate(
                {},
                (
                    ((i, j), QQ(c) * (ca * cb))
                    for (a, b), c in r.items()
                    for i, ca in images[a].items()
                    for j, cb in images[b].items()
                ),
            )
            if row:
                self.quadratic.append(integer_row(row))

    def extend_to(self, dmax):
        for d in range(max(self.basis) + 1, dmax + 1):
            self._build_degree(d)

    def _build_degree(self, d):
        letters = range(len(self.letters))
        prev = self.basis[d - 1]
        # one tuple per word of letters (x) B_{d-1}, shared by every row
        words = {u: [(i,) + u for i in letters] for u in prev}

        def image(v, ab):  # a.(b.v), with b.v reduced in B_{d-1}
            a, b = ab
            den, tables = self._reduce_letter(d - 1, b, v)
            return den, {k: {words[u][a]: m for u, m in t.items()} for k, t in tables.items()}

        rows = []
        for r in self.quadratic:
            for v in self.basis[d - 2]:
                row = linear_map((1, {0: r}), partial(image, v), RATIONALS)[1].get(0)
                if row:
                    rows.append(_primitive(row))
        pivots = back_substitute(echelon(rows))
        if d == 2:
            self.quadratic = [pivots[w] for w in sorted(pivots)]
        red = {}
        basis = []
        for i in letters:
            for w in prev:
                word = words[w][i]
                row = pivots.get(word)
                if row is None:
                    basis.append(word)
                    red[word] = (1, {0: {word: 1}})
                else:  # row[word] word + sum m k = 0, with least denominator |row[word]|
                    c = row[word]
                    rest = {k: -m if c > 0 else m for k, m in row.items() if k != word}
                    red[word] = (abs(c), {0: rest} if rest else {})
        basis.sort()
        self.basis[d] = basis
        self.reduction[d] = red

    def _reduce_letter(self, d, letter, word):
        """Expansion of letter.word (word a basis word of degree d-1) in B_d,
        as a split."""
        if d == 1:
            return 1, {0: {(letter,): 1}}
        return self.reduction[d][(letter,) + word]

    # -- queries ----------------------------------------------------------

    def dimension(self, d):
        self.extend_to(d)
        return len(self.basis[d])

    # -- loading ------------------------------------------------------

    @classmethod
    def builtin(cls, name):
        import os

        path = os.path.join(os.path.dirname(__file__), "data", name + ".presentation")
        return cls.load(path, name=name)

    @classmethod
    def load(cls, path, name=""):
        with open(path) as fh:
            text = fh.read()
        return cls.parse(text, name=name)

    @classmethod
    def parse(cls, text, name=""):
        names = None
        relations = []
        for ln in text.splitlines():
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            if ln.startswith("generators:"):
                names = tuple(ln.split(":", 1)[1].split())
            elif ln.startswith("relation:"):
                if names is None:
                    raise PresentationError("generators line must come first")
                relations.append(_parse_relation(ln.split(":", 1)[1], names))
            else:
                raise PresentationError("unrecognized line: %r" % ln)
        if names is None:
            raise PresentationError("missing generators line")
        return cls(names, relations, name=name)


def _parse_relation(text, names):
    index = {n: i for i, n in enumerate(names)}
    out = {}
    sign = qq(1)
    for tok in text.split():
        if tok == "+":
            sign = qq(1)
            continue
        if tok == "-":
            sign = qq(-1)
            continue
        if "*" in tok:
            ctext, wtext = tok.split("*", 1)
            coeff = sign * parse_rational(ctext)
        else:
            coeff = sign
            wtext = tok
        word = tuple(index[n] for n in wtext.split("."))
        out[word] = out.get(word, qq(0)) + coeff
        sign = qq(1)
    return {w: c for w, c in out.items() if c != 0}
