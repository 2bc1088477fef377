"""Finitely presented graded associative algebras with exact normal forms.

The engine is generic degreewise linear algebra: degree-1 relations
eliminate generators down to a chosen letter basis, and for d >= 2 the
degree-d quotient is (letters (x) V_{d-1}) modulo the rows obtained by
right-multiplying every degree-2 relation by a degree-(d-2) basis word
and rewriting through the already-computed reduction maps.  This is
complete for homogeneous ideals because every two-sided ideal element
u.r.v lies in letters.I_{d-1} once u is nonempty.
"""

from math import gcd

from .rationals import ONE, QQ, qq, parse_rational
from .rings import RATIONALS, accumulate
from .series import Series, split_terms
from .words import Alphabet


class PresentationError(ValueError):
    pass


def _primitive(row):
    """row divided by the gcd of its entries: a primitive integer row."""
    g = gcd(*row.values())
    return row if g == 1 else {k: v // g for k, v in row.items()}


def integer_row(row):
    """A new primitive integer row from a rational row: copied if its
    entries are ints already, else scaled by their least common
    denominator; then divided by the gcd of the entries.  A zero row
    gives {}.  The elimination edits rows in place, so the copy keeps the
    caller's row intact."""
    if all(type(v) is int for v in row.values()):
        row = dict(row)
    else:
        row = split_terms(row, RATIONALS)[1].get(0, {})
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

    Rows are sparse coordinate -> rational (or int) coeff tables.  Each is
    made a primitive integer row once (`integer_row`), and a lead
    coordinate that is already a pivot is eliminated by
    cross-multiplication, so no rational is built.  Coordinates are compared by their natural order;
    the pivot set is the leading-coordinate set of the row space, hence
    canonical.
    """
    pivots = {}
    for row in rows:
        row = integer_row(row)
        while row:
            lead = min(row)
            if lead not in pivots:
                pivots[lead] = row
                break
            row = _eliminate(row, lead, pivots[lead])
    return pivots


def solve_pivots(pivots):
    """Fully back-substitute over the integers, so each pivot row mentions
    no other pivot coord, then make each row monic: pivot -> rational row.

    The result is the reduced row echelon form of the row space, which is
    unique, so it does not depend on the scaling of the integer rows.
    """
    for lead in sorted(pivots, reverse=True):
        row = pivots[lead]
        for k in sorted(row):
            if k != lead and k in pivots:
                # pivots[k] has k > lead, so it is already fully solved
                row = _eliminate(row, k, pivots[k])
        pivots[lead] = row
    for lead, row in pivots.items():
        c = row[lead]
        pivots[lead] = {k: QQ(v, c) for k, v in row.items()}
    return pivots


class Presentation:
    """A graded algebra given by degree-1 generators and relations of degree <= 2."""

    def __init__(self, names, relations, name=""):
        self.name = name
        self.generator_names = tuple(names)
        self.full_alphabet = Alphabet(self.generator_names)
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
        self._nf_cache = {(): {(): ONE}}

    # -- construction ---------------------------------------------------

    def _eliminate_linear(self, lin):
        rows = [{(g,): QQ(c) for (g,), c in r.items()} for r in lin]
        pivots = solve_pivots(echelon(rows))
        self.letters = [
            i for i in range(len(self.generator_names)) if (i,) not in pivots
        ]
        self.alphabet = Alphabet(tuple(self.generator_names[i] for i in self.letters))
        pos = {g: j for j, g in enumerate(self.letters)}
        self.generator_images = []
        for g in range(len(self.generator_names)):
            if (g,) in pivots:
                img = {pos[k[0]]: -c for k, c in pivots[(g,)].items() if k != (g,)}
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
                self.quadratic.append(row)

    def extend_to(self, dmax):
        for d in range(max(self.basis) + 1, dmax + 1):
            self._build_degree(d)

    def _build_degree(self, d):
        letters = range(len(self.letters))
        prev = self.basis[d - 1]
        # one tuple per word of letters (x) B_{d-1}, shared by every row
        words = {u: [(i,) + u for i in letters] for u in prev}
        rows = []
        for r in self.quadratic:
            for v in self.basis[d - 2]:
                row = accumulate(
                    {},
                    (
                        (words[u][a], c * c2)
                        for (a, b), c in r.items()
                        for u, c2 in self._reduce_letter(d - 1, b, v).items()
                    ),
                )
                if row:
                    rows.append(integer_row(row))
        pivots = solve_pivots(echelon(rows))
        red = {}
        basis = []
        for i in letters:
            for w in prev:
                word = words[w][i]
                if word in pivots:
                    red[word] = {k: -c for k, c in pivots[word].items() if k != word}
                else:
                    basis.append(word)
                    red[word] = {word: ONE}
        basis.sort()
        self.basis[d] = basis
        self.reduction[d] = red

    def _reduce_letter(self, d, letter, word):
        """Expansion of letter.word (word a basis word of degree d-1) in B_d."""
        if d == 1:
            return {(letter,): ONE}
        return self.reduction[d][(letter,) + word]

    # -- queries ----------------------------------------------------------

    def dimension(self, d):
        self.extend_to(d)
        return len(self.basis[d])

    def normal_form_word(self, word):
        """Normal form of a word over the letter basis, as word -> coeff."""
        try:
            return self._nf_cache[word]
        except KeyError:
            pass
        d = len(word)
        self.extend_to(d)
        out = accumulate(
            {},
            (
                (v, c * c2)
                for u, c in self.normal_form_word(word[1:]).items()
                for v, c2 in self._reduce_letter(d, word[0], u).items()
            ),
        )
        self._nf_cache[word] = out
        return out

    def normal_form(self, s):
        """Normal form of a Series over the full generator alphabet."""
        if s.alphabet == self.alphabet:
            expand = None
        elif s.alphabet == self.full_alphabet:
            expand = self.generator_images
        else:
            raise PresentationError("series alphabet does not match presentation")
        out = {}
        for w, c in s.terms.items():
            pieces = {w: c}
            if expand is not None:
                pieces = {(): c}
                for g in w:
                    pieces = accumulate(
                        {},
                        (
                            (u + (j,), cu * cj)
                            for u, cu in pieces.items()
                            for j, cj in expand[g].items()
                        ),
                    )
            accumulate(
                out,
                (
                    (v, cu * cv)
                    for u, cu in pieces.items()
                    for v, cv in self.normal_form_word(u).items()
                ),
            )
        return Series(self.alphabet, s.trunc, RATIONALS, out, _clean=True)

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
