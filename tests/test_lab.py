import random

import pytest

from assoclab import yside
from assoclab.lab import (
    _solve_affine,
    gamma_at_minus_y1,
    gamma_factorize,
    group_law,
    meta_abelian,
    pentagon_linear_map,
    solve_pentagon,
    verify_theorem_gamma,
    verify_theorem_main,
)
from assoclab.lie import lie_basis, lyndon_coordinates
from assoclab.models import a4_generators, a4_model, pentagon_arguments
from assoclab.rationals import qq
from assoclab.rings import RATIONALS
from assoclab.series import (
    Series,
    SeriesAlgebra,
    combine,
    is_group_like,
    letter,
    one,
    substitute,
)
from assoclab.words import X_ALPHABET

from support import (T_RING, Poly, all_indices, integral_regularized, is_admissible, map_L,
                     random_group_like, random_lie, series_regularized, stuffle)

# -- the solver -----------------------------------------------------------


def _small_system(rhs_c):
    # a: x0 + x1 + x2 = 4, b: x1 - x2 + x3 = 1, c: x0 + 2 x1 + x3 = rhs_c;
    # c is a + b when rhs_c = 5 and contradicts them otherwise
    columns = [
        {"a": qq(1), "c": qq(1)},
        {"a": qq(1), "b": qq(1), "c": qq(2)},
        {"a": qq(1), "b": qq(-1)},
        {"b": qq(1), "c": qq(1)},
    ]
    return columns, {"a": qq(4), "b": qq(1), "c": qq(rhs_c)}


def test_solve_affine_inconsistent_system_is_none():
    columns, rhs = _small_system(6)
    assert _solve_affine(columns, rhs, 4) is None


def test_solve_affine_particular_and_kernel():
    # reduced row echelon form: x0 + 2 x2 - x3 = 3, x1 - x2 + x3 = 1
    columns, rhs = _small_system(5)
    particular, kernel = _solve_affine(columns, rhs, 4)
    assert particular == [qq(3), qq(1), qq(0), qq(0)]
    assert kernel == [[qq(-2), qq(1), qq(1), qq(0)], [qq(1), qq(-1), qq(0), qq(1)]]


@pytest.mark.parametrize("degree", [1, 3, 5])
def test_pentagon_columns_match_the_word_path(degree):
    model = a4_model(degree)
    gens = a4_generators(model)
    basis = lie_basis(X_ALPHABET, degree, degree)
    columns = pentagon_linear_map([lw for lw, _ in basis], model, gens)
    assert len(columns) == len(basis)
    for col, (_, e) in zip(columns, basis):
        expected = model.zero()
        for g0, g1, sign in pentagon_arguments(gens):
            val = substitute(e, [g0, g1], model)
            expected = expected.add(val if sign > 0 else val.neg())
        assert col == expected.terms


def test_solver_kernel_dimensions(pentagon5):
    assert pentagon5["kernel_dims"] == {3: 1, 4: 0, 5: 1}


def test_solution_is_group_like(pentagon5):
    assert is_group_like(pentagon5["phi"])
    assert pentagon5["phi"].log() == pentagon5["psi"]


def test_solver_psi_peels_to_lyndon_coordinates(pentagon5):
    for result in (pentagon5, solve_pentagon(5, c2=qq(3, 7))):
        coords, remainder = lyndon_coordinates(result["psi"])
        assert coords
        assert remainder.is_zero()


def test_solution_normalization(phi5):
    # c_{X0} = c_{X1} = 0 and c_{X0X1} = 0 in the c2 = 0 branch
    assert phi5.coefficient((0,)) == 0
    assert phi5.coefficient((1,)) == 0
    assert phi5.coefficient((0, 1)) == 0
    # degree 3 is the first nonzero block
    assert not phi5.degree_part(3).is_zero()


def test_solver_c2_value():
    phi = solve_pentagon(4, c2=qq(1, 2))["phi"]
    assert phi.coefficient((0, 1)) == qq(1, 2)
    assert verify_theorem_main(phi)["pentagon_zero"]


def test_verify_main(phi5):
    report = verify_theorem_main(phi5)
    assert report == {
        "pentagon_zero": True,
        "five_cycle_zero": True,
        "double_shuffle": True,
    }


def test_two_cycle_corollary(phi5, phi5_c2):
    # phi(X0, X1) phi(X1, X0) = 1
    for phi in (phi5, phi5_c2):
        alg = SeriesAlgebra(X_ALPHABET, phi.trunc)
        x0 = letter(X_ALPHABET, phi.trunc, "X0")
        x1 = letter(X_ALPHABET, phi.trunc, "X1")
        swapped = substitute(phi, [x1, x0], alg)
        assert phi.mul(swapped) == one(X_ALPHABET, phi.trunc)


# -- regularization ---------------------------------------------------------


def test_integral_regularization_of_all_ones(phi5):
    # l^I of (1, ..., 1) (m entries) is (-T)^m / m!
    fact = 1
    for m in range(1, 6):
        fact *= m
        expected = Poly([qq(0)] * m + [qq((-1) ** m, fact)])
        assert integral_regularized((1,) * m, phi5) == expected


def test_integral_regularization_constant_on_admissible(phi5):
    for a in all_indices(5):
        if is_admissible(a):
            got = integral_regularized(a, phi5)
            assert got == T_RING.embed(yside.l_value_x(a, phi5))


def test_series_equals_L_of_integral(phi5):
    apply_L = map_L(phi5)
    cache = {}
    for a in all_indices(5):
        assert series_regularized(a, phi5, cache) == apply_L(
            integral_regularized(a, phi5)
        )


@pytest.mark.parametrize("seed", [1, 2])
def test_series_differs_from_L_of_integral_without_double_shuffle(seed):
    # exp of a random Lie series of degrees 2-5: c_X0 = c_X1 = 0, but double shuffle fails
    rng = random.Random(seed)
    parts = [(1, random_lie(rng, d, 5)) for d in range(2, 6)]
    phi = combine(parts, SeriesAlgebra(X_ALPHABET, 5)).exp()
    assert not yside.check_double_shuffle(phi)
    apply_L, cache = map_L(phi), {}
    bad = [a for a in all_indices(5)
           if series_regularized(a, phi, cache) != apply_L(integral_regularized(a, phi))]
    assert len(bad) == 13 and bad[0] == (2, 1)


def test_series_regularization_satisfies_stuffle(phi5):
    # the defining property: the product formula holds for every pair
    cache = {}
    for a in all_indices(3):
        for b in all_indices(2):
            lhs = series_regularized(a, phi5, cache) * series_regularized(
                b, phi5, cache
            )
            rhs = T_RING.zero
            for c, m in stuffle(a, b).items():
                rhs = rhs + series_regularized(c, phi5, cache) * T_RING.embed(m)
            assert lhs == rhs


def test_map_L_fixes_constants_and_kills_single_T(phi5):
    apply_L = map_L(phi5)
    assert apply_L(T_RING.one) == T_RING.one
    # L(T) = T - l_1 with l_1 = 0 for the normalized solution
    assert apply_L(T_RING.gen) == T_RING.gen


# -- the group law -----------------------------------------------------------


def test_group_law_unit(phi5):
    e = one(X_ALPHABET, phi5.trunc)
    assert group_law(phi5, e) == phi5
    assert group_law(e, phi5) == phi5


def test_group_law_closure_on_pentagon_solutions():
    phi_a = solve_pentagon(4, c2=0)["phi"]
    phi_b = solve_pentagon(4, c2=1)["phi"]
    composed = group_law(phi_a, phi_b)
    assert is_group_like(composed)
    report = verify_theorem_main(composed)
    assert report["pentagon_zero"]
    assert report["five_cycle_zero"]


def test_group_law_associative():
    rng = random.Random(50)
    a = random_group_like(rng, 4)
    b = random_group_like(rng, 4)
    c = random_group_like(rng, 4)
    assert group_law(group_law(a, b), c) == group_law(a, group_law(b, c))


# -- gamma factorization ------------------------------------------------------


def test_meta_abelian_of_unit():
    b = meta_abelian(one(X_ALPHABET, 4))
    assert b.coefficient(()) == 1


def test_gamma_factorization(phi5):
    report = gamma_factorize(phi5)
    assert report["success"]
    assert report["failure_degree"] is None
    for n, d in report["coefficients"].items():
        assert d == -phi5.coefficient((0,) * (n - 1) + (1,)) / n


def test_gamma_fails_generically():
    rng = random.Random(51)
    g = random_group_like(rng, 5)
    report = gamma_factorize(g)
    assert not report["success"]
    assert report["failure_degree"] is not None


GAMMA_MUTATED_WORDS = [w for d in range(3, 6) for w in X_ALPHABET.words_of_degree(d)]


@pytest.mark.parametrize("word", GAMMA_MUTATED_WORDS, ids=X_ALPHABET.format_word)
def test_perturbed_solution_gamma(phi5, word):
    # only words ending in X1 reach the meta-abelian quotient
    terms = dict(phi5.terms)
    terms[word] = terms.get(word, 0) + qq(1, 3)
    report = gamma_factorize(Series(X_ALPHABET, phi5.trunc, RATIONALS, terms))
    if word[-1] == 1:
        assert not report["success"]
        assert report["failure_degree"] == len(word)
    else:
        assert report["success"]


def test_correction_term_is_inverse_gamma(phi5):
    report = gamma_factorize(phi5)
    corr = yside.correction_exponent(phi5).exp()
    gamma = gamma_at_minus_y1(report["coefficients"], phi5.trunc)
    assert corr.mul(gamma) == one(gamma.alphabet, gamma.trunc)


def test_verify_gamma(phi5):
    checks = verify_theorem_gamma(phi5)
    assert all(checks.values())
