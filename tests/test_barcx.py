import pytest

from assoclab import yside
from assoclab.barcx import (
    A0,
    A1,
    B0,
    B1,
    G,
    BarElement,
    BarError,
    WEDGE,
    build_l,
    build_l2,
    build_l2_yx,
    check_integrability,
    check_series_shuffle_bar,
    series_shuffle_rhs,
    swap_xy,
)
from assoclab.models import lie_coordinates, p5_model, p5_generators
from assoclab.rationals import qq
from assoclab.series import AlphabetMismatch, letter
from assoclab.words import X_ALPHABET

from support import (M05_DUAL, T_RING, all_indices, integral_regularized, is_admissible,
                     lift_series, pair_p5)


def bar(terms):
    return BarElement({w: qq(c) for w, c in terms.items()})


@pytest.fixture(scope="module")
def paired(phi5):
    """phi_451 phi_123 in the five-strand model, plus the T-deformed lift."""
    m = p5_model(phi5.trunc)
    g = p5_generators(m)
    coords = lie_coordinates(phi5)
    f451 = m.evaluate(phi5, g["X45"], g["X51"], coords)
    f123 = m.evaluate(phi5, g["X12"], g["X23"], coords)
    big = m.mul(f451, f123)
    mt = p5_model(phi5.trunc, T_RING)
    gt = p5_generators(mt)
    phi_t = lift_series(phi5, T_RING)
    coords_t = lie_coordinates(phi_t)
    big_t = mt.mul(
        mt.exp(gt["X51"].scale(T_RING.gen)),
        mt.mul(
            mt.evaluate(phi_t, gt["X45"], gt["X51"], coords_t),
            mt.evaluate(phi_t, gt["X12"], gt["X23"], coords_t),
        ),
    )
    return {"big": big, "big_t": big_t, "f123": f123}


# -- polynomials and the dual table ----------------------------------------


def test_wedge_antisymmetry():
    for i in range(5):
        assert WEDGE[(i, i)].is_zero()
        for j in range(5):
            assert WEDGE[(i, j)] == WEDGE[(j, i)].neg()


def test_derived_dual_table():
    # the five forms pair with the model letters X34 X45 X24 X12 X23
    assert M05_DUAL == {
        A0: (3, 1),
        A1: (4, -1),
        B0: (1, 1),
        B1: (0, -1),
        G: (2, -1),
    }


# -- elements and integrability ---------------------------------------------


def test_integrability_examples():
    assert check_integrability(bar({(A0, A1): 1}))
    assert not check_integrability(bar({(A0, B1): 1}))
    assert check_integrability(bar({(G,): 1}))


def test_shuffle_of_integrable_is_integrable():
    a = build_l((2,), "x")
    b = build_l((1,), "y")
    assert check_integrability(a.shuffle(b))


# -- the l-element builders ---------------------------------------------------


def test_one_variable_examples():
    assert build_l((2,), "x") == bar({(A0, A1): 1})
    assert build_l((1,), "y") == bar({(B1,): 1})
    assert build_l((3,), "xy") == bar(
        {(A0, A0, G): 1, (A0, B0, G): 1, (B0, A0, G): 1, (B0, B0, G): 1}
    )


def test_two_variable_element_letter_for_letter():
    expected = bar(
        {
            (B1, A0, G): 1,
            (B1, B0, G): 1,
            (A0, B1, G): 1,
            (A0, A1, B1): 1,
            (A0, A0, G): -1,
            (A0, A1, G): -1,
        }
    )
    assert build_l2((2,), (1,)) == expected


def test_swapped_two_variable_element_letter_for_letter():
    expected = bar(
        {
            (B1, A0, A1): 1,
            (B0, A0, G): -1,
            (B0, B0, G): -1,
            (B1, A0, G): -1,
            (B1, B0, G): -1,
            (A0, B1, A1): 1,
            (A0, B0, G): -1,
            (A0, B1, G): -1,
            (A0, A1, G): 1,
        }
    )
    assert build_l2_yx((1,), (2,)) == expected


def test_swap_xy_is_an_involution():
    e = build_l2((2, 1), (2,))
    assert swap_xy(swap_xy(e)) == e
    assert swap_xy(build_l((3,), "x")) == build_l((3,), "y")


def test_built_elements_are_integrable():
    for a in all_indices(4):
        for tag in ("x", "y", "xy"):
            assert check_integrability(build_l(a, tag))
    for a in all_indices(2):
        for b in all_indices(2):
            assert check_integrability(build_l2(a, b))
            assert check_integrability(build_l2_yx(a, b))


def test_series_shuffle_bar_examples():
    assert check_series_shuffle_bar((2,), (1,))
    assert check_series_shuffle_bar((1,), (1,))
    assert check_series_shuffle_bar((1, 2), (2,))


def test_l2_memo_emptied_part_way_is_exact(monkeypatch):
    import assoclab.barcx as barcx

    pairs = [(a, b) for a in all_indices(3) for b in all_indices(3) if sum(a) + sum(b) <= 4]
    full = {pair: build_l2(*pair) for pair in pairs}
    monkeypatch.setattr(barcx, "_L2_CACHE", {})
    for i, pair in enumerate(pairs):
        if i == len(pairs) // 2:
            assert barcx._L2_CACHE
            barcx._L2_CACHE.clear()
        assert build_l2(*pair) == full[pair]
        assert check_series_shuffle_bar(*pair)
        assert pair in barcx._L2_CACHE


def test_series_shuffle_rhs_term_count():
    rhs = series_shuffle_rhs((2,), (1,))
    lhs = build_l((2,), "x").shuffle(build_l((1,), "y"))
    assert rhs == lhs


def test_space_mismatch_raises():
    other = letter(X_ALPHABET, 1, "X0")
    with pytest.raises(AlphabetMismatch):
        bar({(A0,): 1}).add(other)
    with pytest.raises(BarError):
        pair_p5(other, None)


# -- pairing with the five-strand series --------------------------------------


def test_pairing_computes_l_values(phi5, paired):
    big = paired["big"]
    for a in all_indices(4):
        expected = yside.l_value_x(a, phi5)
        for tag in ("x", "y", "xy"):
            assert pair_p5(build_l(a, tag), big) == expected


def test_pairing_two_variable(phi5, paired):
    big = paired["big"]
    for a in all_indices(2):
        for b in all_indices(2):
            assert pair_p5(build_l2(a, b), big) == yside.l_value_x(a + b, phi5)
            # the swapped variant needs the second index admissible
            if is_admissible(b):
                assert pair_p5(build_l2_yx(a, b), big) == yside.l_value_x(
                    a + b, phi5
                )


def test_two_variable_pairing_vanishes_on_single_factor(phi5, paired):
    # against phi_123 alone the genuinely two-variable elements pair to zero
    f123 = paired["f123"]
    for a in all_indices(2):
        for b in all_indices(2):
            assert pair_p5(build_l2(a, b), f123) == 0


def test_regularized_pairing_one_variable(phi5, paired):
    # with the exp(T X51) prefix the pairing computes the integral
    # regularization, a polynomial in T
    big_t = paired["big_t"]
    for a in all_indices(4):
        expected = integral_regularized(a, phi5)
        for tag in ("x", "y", "xy"):
            assert pair_p5(build_l(a, tag), big_t) == expected


def test_regularized_pairing_two_variable(phi5, paired):
    big_t = paired["big_t"]
    for a in all_indices(2):
        for b in all_indices(2):
            assert pair_p5(build_l2(a, b), big_t) == integral_regularized(
                a + b, phi5
            )


def test_regularized_pairing_swapped_is_constant(phi5, paired):
    # for admissible b the swapped pairing is T-independent and equals
    # the plain coefficient functional
    big_t = paired["big_t"]
    for a in all_indices(2):
        for b in all_indices(3):
            if not is_admissible(b) or sum(a) + sum(b) > 4:
                continue
            got = pair_p5(build_l2_yx(a, b), big_t)
            assert got == T_RING.embed(yside.l_value_x(a + b, phi5))
