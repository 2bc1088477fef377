"""Coefficient rings for series coefficients.

The coefficient rings are exact commutative rings containing the
rationals: plain rationals and a quadratic extension adjoining mu with
mu^2 = q.  Ring elements support +, -, *, unary - and ==, and an
element is false exactly when it is zero; a ring object knows its
zero/one and how to embed a rational.

Each of them is also a free module over the rationals with an integral
basis e_0, e_1, ... whose products are integer combinations of the
basis: `split(c)` gives the rational coordinates of c, `join(coords)`
the element with these coordinates, and `basis_product(i, j)` the pairs
(k, m) with e_i e_j = sum m e_k.  The bases are {1} for the rationals
and {1, nu} with nu = R mu and nu^2 = P R for q = P/R in lowest terms.
e_0 = 1 in every ring, so a split over Q is a split over every ring.
Any ring with these three methods runs on the kernel; the tier-1 tests
add Q[T] and Q(sqrt 5) as test rings.  The integer kernel of `series`
multiplies coordinate tables over `INTEGERS`, whose elements are Python
ints, and enters the ring only through these three.
"""

from .rationals import QQ, qq


def accumulate(out, pairs):
    """Add (key, coeff) pairs into the dict out, dropping keys whose sum is zero."""
    get = out.get
    for k, c in pairs:
        s = get(k)
        if s is not None:
            c = s + c
        if c:
            out[k] = c
        else:
            out.pop(k, None)
    return out


class IntegerRing:
    """The integers as Python ints: the ring of the integer kernel's tables."""

    zero = 0
    one = 1

    def embed(self, c):
        if isinstance(c, int):
            return c
        c = QQ(c)
        if c.denominator != 1:
            raise ValueError("%s is not an integer" % c)
        return int(c.numerator)

    def split(self, c):
        return (QQ(c),)

    def join(self, coords):
        return self.embed(coords[0]) if coords else 0

    def basis_product(self, i, j):
        return _UNIT_PRODUCT


_UNIT_PRODUCT = ((0, 1),)


class RationalField:
    """The field of exact rationals."""

    zero = qq(0)
    one = qq(1)

    def embed(self, c):
        return QQ(c)

    def split(self, c):
        return (c,)

    def join(self, coords):
        c = coords[0] if coords else self.zero
        return c if type(c) is QQ else QQ(c)

    def basis_product(self, i, j):
        return _UNIT_PRODUCT


class QuadElt:
    """a + b*mu with mu^2 = q."""

    __slots__ = ("a", "b", "q")

    def __init__(self, a, b, q):
        self.a = a
        self.b = b
        self.q = q

    def __add__(self, other):
        return QuadElt(self.a + other.a, self.b + other.b, self.q)

    def __sub__(self, other):
        return QuadElt(self.a - other.a, self.b - other.b, self.q)

    def __neg__(self):
        return QuadElt(-self.a, -self.b, self.q)

    def __mul__(self, other):
        return QuadElt(
            self.a * other.a + self.q * self.b * other.b,
            self.a * other.b + self.b * other.a,
            self.q,
        )

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __eq__(self, other):
        return isinstance(other, QuadElt) and self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __repr__(self):
        return "QuadElt(%s, %s)" % (self.a, self.b)


class QuadraticExtension:
    """QQ[mu] / (mu^2 - q) for a fixed rational q = P/R in lowest terms.

    The integral basis is {1, nu} with nu = R mu, so nu^2 = P R.
    """

    def __init__(self, q):
        self.q = QQ(q)
        self.zero = QuadElt(qq(0), qq(0), self.q)
        self.one = QuadElt(qq(1), qq(0), self.q)
        self.mu = QuadElt(qq(0), qq(1), self.q)
        self._r = self.q.denominator
        self._products = (
            ((0, 1),),
            ((1, 1),),
            ((1, 1),),
            ((0, self.q.numerator * self._r),),
        )

    def embed(self, c):
        return QuadElt(QQ(c), qq(0), self.q)

    def split(self, c):
        return (c.a, c.b / self._r)

    def join(self, coords):
        a, b = (list(coords) + [0, 0])[:2]
        return QuadElt(QQ(a), QQ(b) * self._r, self.q)

    def basis_product(self, i, j):
        return self._products[2 * i + j]


RATIONALS = RationalField()
INTEGERS = IntegerRing()
