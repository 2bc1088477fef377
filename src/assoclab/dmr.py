"""The Lie-algebra side of the double shuffle relations.

A Lie series psi over X0, X1 with c_{X0} = c_{X1} = c_{X0X1} = 0 belongs
to the double shuffle Lie algebra when its star regularization
psi_* = psi_corr + pi_Y(psi) is primitive for the quasi-shuffle
coproduct.  This module provides the membership test, a degreewise
solver, the Ihara bracket, and the operator calculus (the derivation
d_psi, the left-multiplication-plus-derivation maps s_f, their Y-side
companions and the Y-side derivation D^Y_f) together with exact checks
of the identities that drive the bracket-closure proof.
"""

from functools import lru_cache, reduce
from math import lcm

from .rationals import binomial, qq
from .rings import RATIONALS
from .lie import lie_basis
from .series import (
    Series,
    SeriesAlgebra,
    combine,
    derivation,
    from_word,
    is_lie,
    join_series,
    linear_map,
    one,
    primitive_tensor,
    reduced,
    split_series,
    tensor,
    tensor_factors,
)
from .words import X_ALPHABET, y_alphabet
# only solve_defect calls _solve_affine; it stays bound here because perfbench's
# smoke test checks that its tracer wraps dmr._solve_affine
from .presented import _solve_affine, solve_defect  # noqa: F401
from . import yside
from .yside import (
    delta_star,
    embed_y,
    pi_y,
    psi_star,
    reverse_y,
)


# -- derivations and the Ihara bracket ----------------------------------


def _x1_images(psi):
    """The letter images of d_psi: X1 -> [X1, psi], and X0 -> 0 by omission."""
    x1 = from_word(psi.alphabet, psi.trunc, (1,), psi.ring)
    return {1: x1.mul(psi).sub(psi.mul(x1))}


def d_psi(psi, v):
    """The derivation with X0 -> 0 and X1 -> [X1, psi], applied to v."""
    return derivation(v, _x1_images(psi))


def ihara_bracket(psi1, psi2):
    """{psi1, psi2} = d_{psi2}(psi1) - d_{psi1}(psi2) - [psi1, psi2]."""
    comm = psi1.mul(psi2).sub(psi2.mul(psi1))
    return d_psi(psi2, psi1).sub(d_psi(psi1, psi2)).sub(comm)


def s_f_map(f):
    """v -> s_f(v) = f v + d_f(v), with [X1, f] computed once for every v."""
    if f.constant_term():
        raise ValueError("s_f requires zero constant term")
    images = _x1_images(f)
    return lambda v: f.mul(v).add(derivation(v, images))


def s_f_y_map(f):
    """w -> s^Y_f(w), the Y-side companion of s_f, with pi_Y s_f = s^Y_f pi_Y.

    s_f preserves the span of words ending in X0, so it descends along
    pi_Y; the value on a Y-series is computed through the standard lift.
    """
    s = s_f_map(f)
    return lambda w: pi_y(s(embed_y(w)))


def big_d_y_map(f):
    """w -> D^Y_f(w) = s^Y_f(w) - w pi_Y(f), a derivation of the Y-algebra,
    with [X1, f] and pi_Y(f) computed once for every w."""
    s, f_y = s_f_y_map(f), pi_y(f)
    return lambda w: s(w).sub(w.mul(f_y))


# -- membership and the solver ------------------------------------------


def dmr0_defect(psi):
    """The linear conditions of dmr_0 on psi, as a split: c_{X0X1}(psi)
    under ("c",) and the non-primitive part of Delta_*(psi_*) under
    ("t", u, v) for u (x) v with u <= v.  Empty exactly when a Lie series
    psi with c_{X0} = c_{X1} = 0 lies in dmr_0.

    Delta_* is an algebra map whose letter images sum_i Y_i (x) Y_{n-i}
    are unchanged by the flip u (x) v -> v (x) u, so the coefficient on
    v (x) u equals the one on u (x) v and the rows with u > v repeat kept
    ones: the row space, and so the kernel, is the same."""
    star = psi_star(psi)
    dt, tables = split_series(delta_star(star).sub(primitive_tensor(star)))
    dc, coeffs = split_series(psi)
    den = lcm(dt, dc)
    out = {}
    for k, t in tables.items():
        pairs = ((tensor_factors(p), m) for p, m in t.items())
        out[k] = {("t", u, v): m * (den // dt) for (u, v), m in pairs if u <= v}
    for k, t in coeffs.items():
        if (0, 1) in t:
            out.setdefault(k, {})[("c",)] = t[(0, 1)] * (den // dc)
    return reduced((den, out))


def is_dmr0(psi):
    """Lie series with c_{X0} = c_{X1} = 0 and an empty `dmr0_defect`."""
    depth_one = psi.coefficient((0,)) or psi.coefficient((1,))
    return is_lie(psi) and not depth_one and not dmr0_defect(psi)[1]


def solve_dmr0(degree):
    """Basis of dmr_0 in the given degree: the kernel of `dmr0_defect` on
    the Lyndon basis, as Lie series (free variables set to one)."""
    basis = [e for _, e in lie_basis(X_ALPHABET, degree, degree, RATIONALS)]
    return solve_defect(map(dmr0_defect, basis), basis, (1, {}))[1]


# -- the X0-power decomposition -----------------------------------------


def x_decomposition(f):
    """Write homogeneous f as sum_i f_i X0^i with each f_i in the Y-algebra.

    Returns (p, [f_0, ..., f_p]) with the components as Y-series; the
    weight of f_i is p - i.  The words of f's split go by their X0 tail.
    """
    den, tables = split_series(f)
    degs = {len(w) for t in tables.values() for w in t}
    if len(degs) > 1:
        raise ValueError("decomposition requires homogeneous input")
    p = degs.pop() if degs else 0
    parts = [{k: {} for k in tables} for _ in range(p + 1)]
    for k, t in tables.items():
        for w, m in t.items():
            n = len(w)
            while n and w[n - 1] == 0:
                n -= 1
            parts[len(w) - n][k][w[:n]] = m
    return p, [pi_y(join_series((den, part), f)) for part in parts]


def _y_letter(n, trunc, ring=RATIONALS):
    return from_word(y_alphabet(trunc), trunc, (n - 1,), ring)


def f_pair(p, comps, i, j, trunc):
    """f_{i,j} = f_i Y_j + Y_j fbar_i with fbar_i = (-1)^p R_Y(f_i)."""
    fi = comps[i]
    fbar = reverse_y(fi).neg() if p % 2 else reverse_y(fi)
    if j == 0:
        return fi.add(fbar)
    yj = _y_letter(j, trunc, fi.ring)
    return fi.mul(yj).add(yj.mul(fbar))


# -- the three operator identities --------------------------------------


def _on_words(op, trunc, ring):
    """u -> op(u) on Y-words u, for a map op on Y-series; each word's image
    is computed once."""
    ya = y_alphabet(trunc)

    @lru_cache(maxsize=None)
    def on_word(u):
        return op(from_word(ya, trunc, u, ring))

    return on_word


def _on_each_factor(op, t):
    """(op (x) id + id (x) op)(t) for a tensor t of Y-series and a linear map
    op given on Y-words, as `_on_words` makes it: one `linear_map` of the
    split of t, the image of a tensor word u.v' being op(u) (x) v + u (x) op(v)."""
    ya = y_alphabet(t.trunc)

    def image(p):
        u, v = tensor_factors(p)
        us, vs = (from_word(ya, t.trunc, w, t.ring) for w in (u, v))
        return split_series(tensor(op(u), vs).add(tensor(us, op(v))))

    return join_series(linear_map(split_series(t), image, t.ring), t)


def lemma_derivation_check(f, n):
    """D^Y_f(Y_n) = X0^{n-1} f X1 - f X0^{n-1} X1 = sum_i f_{i,i+n}.

    Requires S_X(f) = -f (in particular f Lie); compares both printed
    forms exactly, the middle one through the standard embedding.
    """
    if yside.antipode_x(f) != f.neg():
        raise ValueError("hypothesis S_X(f) = -f fails")
    trunc = f.trunc
    ring = f.ring
    lhs = big_d_y_map(f)(_y_letter(n, trunc, ring))
    x0n = from_word(X_ALPHABET, trunc, (0,) * (n - 1), ring)
    x1 = from_word(X_ALPHABET, trunc, (1,), ring)
    x_side = x0n.mul(f).mul(x1).sub(f.mul(x0n.mul(x1)))
    p, comps = x_decomposition(f)
    total = combine(((1, f_pair(p, comps, i, i + n, trunc)) for i in range(p + 1)), lhs)
    return embed_y(lhs) == x_side and lhs == total


def qualifying_section(g):
    """(g, f, D, d) with f = sec g, for a Y-series g that meets both
    hypotheses of the pairing identities, g primitive for Delta_* and
    S_X(f) = -f; a g that fails them raises ValueError.  D is D^Y_f on
    Y-words, as `_on_words` makes it, and d[k] the diagonal sum
    sum_{i=k}^p f_{i,i-k} for 0 <= k <= p.  The two pairing checks take
    this section, so g is checked, and each D^Y_f(Y_m) and each diagonal
    computed, once however many n and k they run over."""
    f = yside.sec(g)
    if not yside.is_primitive_star(g) or yside.antipode_x(f) != f.neg():
        raise ValueError("hypotheses: g primitive for Delta_*, S_X(sec g) = -sec g")
    p, comps = x_decomposition(f)
    ys = SeriesAlgebra(y_alphabet(g.trunc), g.trunc, g.ring)
    diagonals = [combine(((1, f_pair(p, comps, i, i - k, g.trunc)) for i in range(k, p + 1)), ys)
                 for k in range(p + 1)]
    return g, f, _on_words(big_d_y_map(f), g.trunc, g.ring), diagonals


def lemma_coproduct_check(section, n):
    """The coboundary of D^Y_f on Y_n for (g, f, D, d) = qualifying_section(g).

    Delta_*(D^Y_f(Y_n)) - (id (x) D^Y_f + D^Y_f (x) id)(Delta_*(Y_n))
    equals sum_{k=0}^p sum_{i=k}^p (f_{i,i-k} (x) Y_{n+k}
    + Y_{n+k} (x) f_{i,i-k}).

    Requires g primitive for Delta_* and S_X(f) = -f; the second
    hypothesis is what reduces D^Y_f(Y_m) to the pairing sums and
    without it the identity fails (g = Y_2 - Y_1^2/2, n = 1 is a
    counterexample).
    """
    g, _, d_y, diagonals = section
    trunc = g.trunc
    ring = g.ring
    yn = _y_letter(n, trunc, ring)
    lhs = delta_star(d_y((n - 1,))).sub(_on_each_factor(d_y, delta_star(yn)))
    ynk = [_y_letter(n + k, trunc, ring) for k in range(len(diagonals))]
    rhs = combine(((1, x) for part, y in zip(diagonals, ynk)
                   for x in (tensor(part, y), tensor(y, part))), lhs)
    return lhs == rhs


def lemma_telescoping_check(section, k):
    """The k-th diagonal sum of the pairings collapses to a single letter.

    For (g, f, D, d) = qualifying_section(g), g in the Y Lie algebra with
    f = sec(g) satisfying S_X(f) = -f: the diagonal d[k] =
    sum_{i=k}^p f_{i,i-k} equals
    (-1)^{p-k-1} C(p-1, k) (1 + (-1)^p) c_{X0^{p-1}X1}(g) Y_{p-k}
    for k <= p-1, and 0 for k = p.
    """
    g, _, _, diagonals = section
    p = len(diagonals) - 1
    if k >= p:  # past p the diagonal is an empty sum
        return k > p or diagonals[p].is_zero()
    c = embed_y(g).coefficient((0,) * (p - 1) + (1,))
    scalar = (
        qq(-1 if (p - k - 1) % 2 else 1)
        * binomial(p - 1, k)
        * qq(1 + (-1) ** p)
        * c
    )
    expected = _y_letter(p - k, g.trunc, g.ring).scale_q(scalar)
    return diagonals[k] == expected


# -- change of generators ------------------------------------------------


@lru_cache(maxsize=None)
def u_generators(trunc, ring=RATIONALS):
    """U_1, ..., U_trunc: the graded parts of log(1 + Y1 + Y2 + ...), a
    tuple computed once per truncation and ring."""
    ya = y_alphabet(trunc)
    total = Series(
        ya, trunc, ring, {(i,): ring.one for i in range(len(ya))}
    )
    logarithm = one(ya, trunc, ring).add(total).log()
    return tuple(logarithm.degree_part(i) for i in range(1, trunc + 1))


def _weighted_lyndon(weight):
    """Lyndon words over the letters 1, 2, ... with the given total weight, sorted."""
    words = (a for a in yside.all_indices(weight) if sum(a) == weight)
    return sorted(a for a in words if all(a < a[i:] for i in range(1, len(a))))


def lie_y_basis(weight, trunc, ring=RATIONALS):
    """Basis of the weight-w part of the Lie algebra on the U generators.

    The primitives of the quasi-shuffle Hopf algebra form the free Lie
    algebra on U_1, U_2, ...; the basis elements are the standard
    bracketings of the weighted Lyndon words.
    """
    from .lie import bracketing

    us = u_generators(trunc, ring)
    ys = SeriesAlgebra(y_alphabet(trunc), trunc, ring)
    return [combine(((m, reduce(Series.mul, [us[i - 1] for i in word]))
                     for word, m in bracketing(lw).items()), ys)
            for lw in _weighted_lyndon(weight)]


def qualifying_defect(g):
    """S_X(f) + f for f = sec g, as the split of a series: empty exactly
    when g meets the hypothesis S_X(sec g) = -sec g of the pairing
    identities."""
    f = yside.sec(g)
    return split_series(yside.antipode_x(f).add(f))


def qualifying_basis(weight, trunc, ring=RATIONALS):
    """Primitive Y-series g of the given weight with S_X(sec g) = -sec g.

    These are exactly the inputs meeting the hypotheses of the pairing
    identities: the kernel of `qualifying_defect` on lie_y_basis.
    """
    basis = lie_y_basis(weight, trunc, ring)
    return solve_defect(map(qualifying_defect, basis), basis, (1, {}))[1]


# -- depth-graded sums ---------------------------------------------------


def check_binomial_sums(psi):
    """Depth-graded sums of the coefficient functionals collapse.

    For every weight w <= trunc and depth m: the sum of l_a(psi) over
    all indices of weight w and depth m equals
    (-1)^{m-1} C(w, m) l_w(psi) / w for m < w, and 0 for m = w.
    """
    totals = {}
    for a in yside.all_indices(psi.trunc):
        key = (sum(a), len(a))
        totals[key] = totals.get(key, qq(0)) + yside.l_value_x(a, psi)
    for (w, m), total in totals.items():
        sign = qq(-1 if m % 2 == 0 else 1)
        expected = qq(0) if m == w else sign * binomial(w, m) * totals[w, 1] / w
        if w > 1 and total != expected:
            return False
    return True
