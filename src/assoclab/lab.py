"""Associator laboratory: solving the pentagon equation degree by degree
and verifying its consequences (5-cycle, double shuffle, gamma
factorization, the group law).
"""

from .rationals import binomial
from .rings import RATIONALS, accumulate
from .lie import lie_basis
from .models import (
    a4_model,
    ab_model,
    a4_generators,
    check_pentagon,
    check_5cycle,
    pentagon_arguments,
)
# only solve_defect calls _solve_affine; it stays bound here because perfbench's
# tracer times it as lab._solve_affine and its smoke test checks this binding
from .presented import _solve_affine, solve_defect  # noqa: F401
from .series import (
    Series,
    SeriesAlgebra,
    letter,
    one,
    split_series,
    substitute,
)
from .words import X_ALPHABET


class PentagonObstruction(RuntimeError):
    """Raised when the degreewise pentagon system has no solution."""


def pentagon_linear_map(basis, model, gens):
    """The linearized pentagon residual on each Lyndon word of basis.

    Column i is the signed sum over the five pentagon factors of the
    standard bracketing of basis[i] evaluated in the model, a word -> int
    table summed from the model's integer bracket images, which every
    evaluation in it shares.
    """
    columns = [{} for _ in basis]
    for g0, g1, sign in pentagon_arguments(gens):
        for col, lw in zip(columns, basis):
            image = model.lie_image(lw, (g0, g1)).items()
            accumulate(col, image if sign > 0 else ((w, -m) for w, m in image))
    return columns


def solve_pentagon(trunc, c2=0):
    """Build a group-like series with zero pentagon residual up to trunc.

    psi starts as c2 times the degree-2 Lyndon element.  Degree by degree,
    the pentagon residual of exp(psi truncated at d), `check_pentagon`'s
    own, is affine in the unknown degree-d part of psi, so each degree is
    one `solve_defect` over the Lyndon basis: its columns are the
    `pentagon_linear_map`, its right-hand side the residual's split,
    negated.  When the particular solution is zero and the kernel is not,
    the first kernel basis vector is added so the output stays away from
    the trivial solution.  Returns a report dict with the series, its
    logarithm and the per-degree kernel dimensions.
    """
    ring = RATIONALS
    psi = SeriesAlgebra(X_ALPHABET, trunc, ring).zero()
    if trunc >= 2:
        ((_, e2),) = lie_basis(X_ALPHABET, 2, trunc, ring)
        psi = e2.scale_q(c2)
    kernel_dims = {}
    for d in range(3, trunc + 1):
        residual = check_pentagon(Series(X_ALPHABET, d, ring, psi.terms).exp())
        model = a4_model(d, ring)
        basis = lie_basis(X_ALPHABET, d, trunc, ring)
        # a generator, so the columns are freed inside the solve
        columns = ((1, {0: c}) for c in pentagon_linear_map(
            [lw for lw, _ in basis], model, a4_generators(model)))
        solved = solve_defect(columns, [e for _, e in basis], split_series(residual.neg()))
        if solved is None:
            raise PentagonObstruction("no solution at degree %d" % d)
        x, kernel = solved
        kernel_dims[d] = len(kernel)
        if x.is_zero() and kernel:
            x = kernel[0]
        psi = psi.add(x)
    return {"phi": psi.exp(), "psi": psi, "kernel_dims": kernel_dims}


def verify_theorem_main(phi):
    """Pentagon and 5-cycle residuals plus the double shuffle property."""
    from . import yside

    pentagon = check_pentagon(phi)
    five_cycle = check_5cycle(phi)
    return {
        "pentagon_zero": pentagon.is_zero(),
        "five_cycle_zero": five_cycle.is_zero(),
        "double_shuffle": yside.check_double_shuffle(phi),
    }


# -- group law ---------------------------------------------------------


def group_law(phi1, phi2):
    """phi1 o phi2 = phi1(phi2 X0 phi2^{-1}, X1) phi2.

    Both equivalent forms are computed and must agree.
    """
    alg = SeriesAlgebra(phi1.alphabet, phi1.trunc, phi1.ring)
    x0 = letter(phi1.alphabet, phi1.trunc, "X0", phi1.ring)
    x1 = letter(phi1.alphabet, phi1.trunc, "X1", phi1.ring)
    inv2 = phi2.inverse()
    left = substitute(phi1, [phi2.mul(x0).mul(inv2), x1], alg).mul(phi2)
    right = phi2.mul(substitute(phi1, [x0, inv2.mul(x1).mul(phi2)], alg))
    if left != right:
        raise AssertionError("the two forms of the group law disagree")
    return left


# -- gamma factorization -----------------------------------------------


def abelian_x1_part(s):
    """(s_{X1} X1)^ab: the terms of s ending in X1, in QQ[[x0, x1]]."""
    terms = {w: c for w, c in s.terms.items() if w and w[-1] == 1}
    part = Series(s.alphabet, s.trunc, s.ring, terms, _clean=True)
    return ab_model(s.trunc, s.ring).normalize(part)


def meta_abelian(phi):
    """B_phi = (1 + phi_{X1} X1)^ab in QQ[[x0, x1]]."""
    return abelian_x1_part(phi).add(one(phi.alphabet, phi.trunc, phi.ring))


def gamma_shape(m):
    """The three-term Gamma shape sum_n d_n (x0^n + x1^n - (x0+x1)^n) fitted to m.

    m lives in QQ[[x0, x1]], whose monomial x0^i x1^j is the word
    X0^i X1^j.  d_n = -c_{x0^{n-1} x1}(m) / n for 2 <= n <= trunc.
    Returns the table of the d_n and the shape as a series.
    """
    coeffs = {n: -m.coefficient((0,) * (n - 1) + (1,)) / n for n in range(2, m.trunc + 1)}
    # x0^n and x1^n cancel against the two end terms of (x0+x1)^n
    shape = {
        (0,) * i + (1,) * (n - i): -d * binomial(n, i)
        for n, d in coeffs.items()
        for i in range(1, n)
    }
    return coeffs, Series(m.alphabet, m.trunc, m.ring, shape)


def gamma_factorize(phi):
    """Factor the meta-abelian quotient as Gamma(x0)Gamma(x1)/Gamma(x0+x1).

    Returns a dict with the log-Gamma coefficients d_n (n >= 2), a success
    flag, and the smallest failing total degree when the factorization
    does not hold.
    """
    log_b = ab_model(phi.trunc, phi.ring).log(meta_abelian(phi))
    coeffs, shape = gamma_shape(log_b)
    diff = log_b.sub(shape)
    if diff.is_zero():
        return {"success": True, "coefficients": coeffs, "failure_degree": None}
    fail = min(len(w) for w in diff.terms)
    return {"success": False, "coefficients": coeffs, "failure_degree": fail}


def gamma_at_minus_y1(coeffs, trunc):
    """Gamma(-Y1) as a Y-series, from the log-Gamma coefficients."""
    from .words import y_alphabet

    ya = y_alphabet(trunc)
    expo = Series(
        ya,
        trunc,
        RATIONALS,
        {
            (0,) * n: (c if n % 2 == 0 else -c)
            for n, c in coeffs.items()
            if n <= trunc and c != 0
        },
    )
    return expo.exp()


def verify_theorem_gamma(phi):
    """Exact checks of the gamma factorization theorem for phi."""
    from . import yside

    report = gamma_factorize(phi)
    checks = {"factorization": report["success"]}
    ok = True
    for n, d in report["coefficients"].items():
        expected = -phi.coefficient((0,) * (n - 1) + (1,)) / n
        if d != expected:
            ok = False
    checks["log_gamma_matches_phi"] = ok
    corr = yside.correction_exponent(phi).exp()
    gamma_inv = gamma_at_minus_y1(report["coefficients"], phi.trunc).inverse()
    checks["correction_is_inverse_gamma"] = corr == gamma_inv
    return checks
