import random

from assoclab.lie import (
    bracketing,
    dynkin_map,
    lie_basis,
    lyndon_coordinates,
    lyndon_words,
)
from assoclab.models import lie_coordinates
from assoclab.rationals import qq
from assoclab.rings import RATIONALS, QuadElt, QuadraticExtension, accumulate
from assoclab.series import (Series, coproduct, is_lie, join_series, linear_map, primitive_tensor,
                             reduced, split_series, zero)
from assoclab.words import X_ALPHABET, y_alphabet

from support import (lie_bracket, lift_series, random_group_like, random_lie, random_lie_mixed,
                     random_series)

# necklace counts: dimensions of the free Lie algebra on two generators
WITT_2 = {1: 2, 2: 1, 3: 2, 4: 3, 5: 6, 6: 9}


def test_lyndon_counts():
    for n, dim in WITT_2.items():
        assert len(lyndon_words(2, n)) == dim


def test_lyndon_words_are_strictly_smallest_rotations():
    for n in range(1, 7):
        for w in lyndon_words(2, n):
            assert all(w < w[i:] + w[:i] for i in range(1, len(w)))


def test_basis_elements_are_lie_and_independent():
    for d in range(1, 6):
        basis = lie_basis(X_ALPHABET, d, d)
        assert len(basis) == WITT_2[d]
        for word, e in basis:
            assert is_lie(e)
            # triangularity: the Lyndon word itself has coefficient 1
            assert e.coefficient(word) == 1


def test_bracketing_of_a_lyndon_word():
    # [0, [0, 1]] = 001 - 2*010 + 100
    table = bracketing((0, 0, 1))
    assert table == {(0, 0, 1): 1, (0, 1, 0): -2, (1, 0, 0): 1}


def test_bracket_closure_and_jacobi():
    rng = random.Random(5)
    trunc = 5
    a = random_lie(rng, 2, trunc)
    b = random_lie(rng, 2, trunc)
    c = random_lie(rng, 1, trunc)
    ab = lie_bracket(a, b)
    assert is_lie(ab)
    jac = (
        lie_bracket(a, lie_bracket(b, c))
        .add(lie_bracket(b, lie_bracket(c, a)))
        .add(lie_bracket(c, lie_bracket(a, b)))
    )
    assert jac.is_zero()


def _recombine(coords, remainder):
    """remainder plus the sum of the split coords against the bracketings."""
    lie = linear_map(coords, lambda lw: (1, {0: bracketing(lw)}), remainder.ring)
    return join_series(lie, remainder).add(remainder)


def test_lyndon_coordinates_round_trip():
    rng = random.Random(6)
    trunc = 5
    inputs = [
        random_lie_mixed(rng, trunc),
        random_group_like(rng, trunc).log(),
        random_group_like(rng, trunc),
        random_series(rng, X_ALPHABET, trunc),
        zero(X_ALPHABET, trunc),
    ]
    for s in inputs:
        coords, remainder = lyndon_coordinates(s)
        assert _recombine(coords, remainder) == s
        assert remainder.is_zero() == is_lie(s)
        assert coords == reduced(coords) and all(coords[1].values())
    assert lyndon_coordinates(inputs[0])[1].is_zero()
    assert not lyndon_coordinates(inputs[3])[1].is_zero()


def test_lyndon_coordinates_of_a_basis_element():
    for d in range(1, 6):
        for lw, e in lie_basis(X_ALPHABET, d, 6):
            coords, remainder = lyndon_coordinates(e.scale(RATIONALS.embed(3)))
            assert coords == (1, {0: {lw: 3}}) and remainder.is_zero()


def test_lyndon_coordinates_peel_each_table_over_the_hexagon_ring():
    """A Lie series with nonzero e_0 and e_1 tables peels to a split with
    both tables and no remainder; one coefficient added off the Lyndon
    words leaves a remainder, and its exp has no Lie coordinates."""
    ring = QuadraticExtension(qq(24, 7))
    lie = lift_series(random_lie_mixed(random.Random(62), 4), ring)
    lie = lie.scale(QuadElt(qq(1, 3), qq(2, 7), ring.q))
    assert set(split_series(lie)[1]) == {0, 1}
    coords, remainder = lyndon_coordinates(lie)
    assert set(coords[1]) == {0, 1} and remainder.is_zero()
    assert _recombine(coords, remainder) == lie
    bad = dict(lie.terms)
    bad[(1, 0)] = bad.get((1, 0), ring.zero) + ring.mu * ring.embed(qq(1, 7))
    bad = Series(X_ALPHABET, 4, ring, bad)
    assert not lyndon_coordinates(bad)[1].is_zero()
    assert lie_coordinates(bad.exp()) is None


def _left_normed(word):
    """[...[w1, w2], ..., wn] expanded one letter at a time."""
    out = {word[:1]: 1}
    for x in word[1:]:
        step = {}
        for w, c in out.items():
            accumulate(step, ((w + (x,), c), ((x,) + w, -c)))
        out = step
    return out


def test_dynkin_map_matches_left_normed_brackets():
    rng = random.Random(61)
    for _ in range(30):
        table = {}
        for _ in range(rng.randint(1, 12)):
            w = tuple(rng.randrange(3) for _ in range(rng.randint(1, 7)))
            table[w] = rng.choice((-3, -2, -1, 1, 2, 5))
        want = {}
        for w, c in table.items():
            accumulate(want, ((v, c * m) for v, m in _left_normed(w).items()))
        assert dynkin_map(table) == want
    # one coefficient moved: the image moves too
    table[next(iter(table))] += 1
    assert dynkin_map(table) != want


def test_dynkin_criterion_holds_exactly_on_lie_elements():
    for d in range(1, 8):
        for lw in lyndon_words(2, d):
            b = bracketing(lw)
            assert dynkin_map(b) == {w: d * c for w, c in b.items()}
            if d > 1:  # the Lyndon word alone is not Lie
                assert dynkin_map({lw: 1}) != {lw: d}


def test_is_lie_over_weighted_letters():
    # the Y letters have weights 1..n; the Dynkin criterion reads word length
    ya = y_alphabet(7)
    rng = random.Random(62)
    for _ in range(10):
        a, b, c = (
            Series(ya, 7, RATIONALS, {(i,): RATIONALS.embed(rng.randint(1, 4))})
            for i in rng.sample(range(3), 3)
        )
        lie = lie_bracket(lie_bracket(a, b), c).add(lie_bracket(a, c)).add(b)
        assert is_lie(lie)
        bad = lie.add(a.mul(b))
        assert not is_lie(bad) and coproduct(bad) != primitive_tensor(bad)
