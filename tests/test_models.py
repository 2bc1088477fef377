import random

import pytest

from assoclab.lab import solve_pentagon
from assoclab.lie import lyndon_words, standard_factorization
from assoclab.models import (
    A4_BRACKETS,
    A4_CLASSES,
    A4_LETTERS,
    FIVE_CYCLE,
    P5_BRACKETS,
    PBWModel,
    a4_generators,
    a4_model,
    check_5cycle,
    check_hexagons,
    check_pentagon,
    lift_series,
    p5_generators,
    p5_model,
    pentagon_arguments,
)
from assoclab.presented import Presentation
from assoclab.rationals import qq
from assoclab.rings import RATIONALS, QuadraticExtension
from assoclab.series import ConstantTermError, Series, SeriesAlgebra, one, substitute
from assoclab.words import Alphabet, X_ALPHABET

from support import (embedding_images, normal_form, projection_images, random_group_like,
                     random_lie_mixed, random_series, tau_images, widen)

TRUNC = 4


def random_model_series(rng, model):
    s = random_series(rng, model.alphabet, model.trunc, density=0.3)
    return model.normalize(s)


# -- the straightening model ---------------------------------------------


def test_defining_brackets_hold_in_the_model():
    m = p5_model(3)
    n = len(m.alphabet)
    for i in range(n):
        for j in range(n):
            key = (i, j) if (i, j) in P5_BRACKETS else None
            a = Series(m.alphabet, 3, RATIONALS, {(i,): qq(1)})
            b = Series(m.alphabet, 3, RATIONALS, {(j,): qq(1)})
            comm = m.mul(a, b).sub(m.mul(b, a))
            if key is not None:
                expected = m.normalize(
                    Series(m.alphabet, 3, RATIONALS, {w: qq(c) for w, c in P5_BRACKETS[key].items()})
                )
                assert comm == expected
            elif (j, i) not in P5_BRACKETS:
                # letters in the same class, or fiber over base with no
                # listed bracket, commute
                assert comm.is_zero() or m.normalize(comm) == comm


def test_model_mul_is_associative_and_normal():
    rng = random.Random(40)
    m = p5_model(TRUNC)
    a = random_model_series(rng, m)
    b = random_model_series(rng, m)
    c = random_model_series(rng, m)
    assert m.mul(m.mul(a, b), c) == m.mul(a, m.mul(b, c))
    prod = m.mul(a, b)
    assert all(m.is_normal(w) for w in prod.terms)
    assert m.normalize(prod) == prod


def test_model_exp_inverse():
    rng = random.Random(41)
    m = a4_model(TRUNC)
    s = random_model_series(rng, m)
    s = s.sub(
        Series(m.alphabet, TRUNC, RATIONALS, {(): s.constant_term()}, _clean=True)
    )
    g = m.exp(s)
    assert m.mul(g, m.inverse(g)) == m.one()


def test_exp_log_inverse_reject_a_wrong_constant_term():
    m = a4_model(TRUNC)
    s = Series(X_ALPHABET, TRUNC, RATIONALS, {(): qq(2), (0,): qq(1)})
    for f in (m.exp, m.log, m.inverse):
        with pytest.raises(ConstantTermError):
            f(m.one().scale_q(2))
    for f in (s.exp, s.log, s.inverse):
        with pytest.raises(ConstantTermError):
            f()


def test_model_log_inverts_exp():
    rng = random.Random(43)
    m = a4_model(TRUNC)
    s = random_model_series(rng, m)
    s = s.sub(m.one().scale(s.constant_term()))
    assert m.log(m.exp(s)) == s


def test_model_name_names_one_presentation():
    m = a4_model(3)
    with pytest.raises(ValueError):
        PBWModel("a4", Alphabet(A4_LETTERS), A4_CLASSES, {}, 3)
    t12_t14 = m.mul(m.letter("t12"), m.letter("t14"))
    assert len(t12_t14.terms) == 3
    free = PBWModel("a4-without-brackets", Alphabet(A4_LETTERS), A4_CLASSES, {}, 3)
    assert len(free.mul(free.letter("t12"), free.letter("t14")).terms) == 1


def test_bracket_images_are_shared_by_equal_arguments():
    m = a4_model(TRUNC)
    lw = (0, 0, 1)
    first = a4_generators(m)
    again = a4_generators(m)
    img = m.lie_image(lw, (first["t12"], first["t24"]))
    assert m.lie_image(lw, (again["t12"], again["t24"])) is img
    assert m.lie_image(lw, (first["t12"], first["t23"])) is not img
    # a degree-3 image is the same table at every truncation and in every ring
    for other in (a4_model(5), a4_model(7), a4_model(TRUNC, QuadraticExtension(qq(24, 7)))):
        g = a4_generators(other)
        assert other.lie_image(lw, (g["t12"], g["t24"])) is img
    # the same letters without brackets are another presentation
    free = PBWModel("a4-without-brackets", Alphabet(A4_LETTERS), A4_CLASSES, {}, TRUNC)
    g = a4_generators(free)
    assert img and not free.lie_image(lw, (g["t12"], g["t24"]))


def test_lie_image_and_evaluate_resolve_their_memo_once_per_call(monkeypatch):
    import assoclab.models as models

    monkeypatch.setattr(models, "_LIE_IMAGES", {})  # every bracket image is a miss
    m = a4_model(BRACKET_TRUNC)
    g = a4_generators(m)
    images = (g["t12"], g["t24"])
    calls = []
    resolve = m._bracket_images
    monkeypatch.setattr(m, "_bracket_images", lambda images: calls.append(1) or resolve(images))
    assert m.lie_image((0, 0, 1, 0, 1, 1), images)
    assert len(calls) == 1
    coords = {lw: qq(1, len(lw)) for d in range(1, 6) for lw in lyndon_words(2, d)}
    assert not m.exp_lie(coords, *images).is_zero()
    assert len(calls) == 2
    phi = random_group_like(random.Random(50), BRACKET_TRUNC)
    assert m.evaluate(phi, *images) == substitute(phi, list(images), m)
    assert len(calls) == 3


def test_non_integral_images_take_the_word_path():
    rng = random.Random(49)
    phi = random_group_like(rng, TRUNC)
    m = a4_model(TRUNC)
    g = a4_generators(m)
    ring = QuadraticExtension(qq(24, 7))
    mq = a4_model(TRUNC, ring)
    gq = a4_generators(mq)
    phi_q = lift_series(phi, ring)
    for model, s, images in (
        (m, phi, (g["t12"].scale_q(qq(1, 2)), g["t23"])),
        (mq, phi_q, (gq["t12"].scale(ring.mu), gq["t23"])),
    ):
        with pytest.raises(ValueError):
            model.lie_image((0, 1), images)
        assert model.evaluate(s, *images) == substitute(s, list(images), model)
    # integer multiples other than 1 take the bracket path
    for model, s, gens in ((m, phi, g), (mq, phi_q, gq)):
        images = [gens["t12"].scale_q(-2), gens["t24"].scale_q(3).add(gens["c"])]
        assert model.evaluate(s, *images) == substitute(s, images, model)


def test_central_element_commutes_in_a4():
    rng = random.Random(42)
    m = a4_model(TRUNC)
    g = a4_generators(m)
    s = random_model_series(rng, m)
    assert m.mul(g["c"], s) == m.mul(s, g["c"])


# -- equation checkers ----------------------------------------------------


def test_pentagon_residual_zero_for_solution(phi5):
    assert check_pentagon(phi5).is_zero()


def test_pentagon_residual_nonzero_generically():
    rng = random.Random(43)
    g = random_group_like(rng, TRUNC)
    assert not check_pentagon(g).is_zero()


def test_five_cycle_residual(phi5):
    assert check_5cycle(phi5).is_zero()
    assert check_5cycle(one(X_ALPHABET, TRUNC)).is_zero()


def test_hexagons_for_c2_solution(phi5_c2):
    r1, r2 = check_hexagons(phi5_c2)
    assert r1.is_zero() and r2.is_zero()


def test_hexagons_for_c2_zero_solution(phi5):
    # mu = 0: both hexagons degenerate to the 2-cycle relation
    r1, r2 = check_hexagons(phi5)
    assert r1.is_zero() and r2.is_zero()


# -- homomorphisms ---------------------------------------------------------


def test_projection_after_embedding_is_identity(phi5):
    m = p5_model(phi5.trunc)
    e = m.evaluate(phi5, *embedding_images("i123", m))
    target = SeriesAlgebra(X_ALPHABET, e.trunc, e.ring)
    assert substitute(e, projection_images("p4", e.trunc, e.ring), target) == phi5


def test_projection_kills_transverse_embedding(phi5):
    m = p5_model(phi5.trunc)
    e = m.evaluate(phi5, *embedding_images("i451", m))
    target = SeriesAlgebra(X_ALPHABET, e.trunc, e.ring)
    p4 = projection_images("p4", e.trunc, e.ring)
    assert substitute(e, p4, target) == one(X_ALPHABET, phi5.trunc)


def test_projections_are_homomorphisms():
    rng = random.Random(44)
    m = p5_model(TRUNC)
    a = random_model_series(rng, m)
    b = random_model_series(rng, m)
    target = SeriesAlgebra(X_ALPHABET, TRUNC)
    for which in ("p2", "p3", "p4"):
        images = projection_images(which, TRUNC)
        lhs = substitute(m.mul(a, b), images, target)
        rhs = substitute(a, images, target).mul(substitute(b, images, target))
        assert lhs == rhs


def test_tau_is_well_defined():
    # tau must be compatible with the straightening relations: applying
    # it to a product or to the normalized product gives the same answer
    rng = random.Random(45)
    m4 = a4_model(3)
    m5 = p5_model(3)
    a = random_model_series(rng, m4)
    b = random_model_series(rng, m4)
    raw = a.mul(b)
    images = tau_images(m5)
    assert substitute(m4.normalize(raw), images, m5) == m5.normalize(
        substitute(a, images, m5).mul(substitute(b, images, m5))
    )


def test_tau_kills_the_center():
    m4 = a4_model(3)
    m5 = p5_model(3)
    g = a4_generators(m4)
    images = tau_images(m5)
    assert substitute(g["c"], images, m5).is_zero()
    assert len(images) == len(m4.alphabet)


# -- products against the presented algebras --------------------------------


def normal_products(model):
    """The words u.v for normal words u, v of total degree at most model.trunc."""
    normal = [
        w
        for d in range(model.trunc + 1)
        for w in model.alphabet.words_of_degree(d)
        if model.is_normal(w)
    ]
    return {u + v for u in normal for v in normal if len(u) + len(v) <= model.trunc}


def presented_disagreements(model, name):
    """The products u.v whose word and whose model normal form differ in the
    builtin presentation `name`, which shares no code with the models.

    A model letter maps to the generator of its name; the central c of the
    four-strand model maps to the sum of the six generators t_ij, which
    leaves out the presentation's own generator c.
    """
    pres = Presentation.builtin(name)
    target = SeriesAlgebra(Alphabet(pres.generator_names), model.trunc)
    total = target.zero()
    for g in set(pres.generator_names) - {"c"}:
        total = total.add(target.letter(g))
    images = [total if x == "c" else target.letter(x) for x in model.alphabet.names]
    bad = []
    for w in normal_products(model):
        word = Series(model.alphabet, model.trunc, RATIONALS, {w: qq(1)})
        lhs = normal_form(pres, substitute(word, images, target))
        if lhs != normal_form(pres, substitute(model.normalize(word), images, target)):
            bad.append(w)
    return bad


@pytest.mark.parametrize("model", [a4_model(4), p5_model(5)], ids=["a4", "p5"])
def test_products_agree_with_the_presentation(model):
    assert presented_disagreements(model, model.name) == []


def test_presentation_catches_a_wrong_bracket():
    brackets = dict(A4_BRACKETS)
    brackets[(3, 0)] = {w: -m for w, m in brackets[(3, 0)].items()}
    m = PBWModel("a4, [t12, t14] negated", Alphabet(A4_LETTERS), A4_CLASSES, brackets, 3)
    assert presented_disagreements(m, "a4")


# -- bracket evaluation against the word path --------------------------------

EQUIV_TRUNC = 5


def word_path(m, phi, g0, g1, coords=None):
    """The word-by-word substitution; takes and ignores evaluate's coords."""
    return substitute(phi, [g0, g1], m)


def equivalence_inputs(ring=RATIONALS):
    """Group-like, Lie and constant-term-2 series at truncation 5, and a
    group-like series truncated below the model."""
    rng = random.Random(46)
    group_like = random_group_like(rng, EQUIV_TRUNC)
    lie = random_lie_mixed(rng, EQUIV_TRUNC)
    doubled = group_like.scale(qq(2))
    short = widen(group_like, EQUIV_TRUNC - 1)
    return [lift_series(s, ring) for s in (group_like, lie, doubled, short)]


def assert_paths_agree(m, pairs, inputs):
    for phi in inputs:
        for g0, g1 in pairs:
            assert m.evaluate(phi, g0, g1) == word_path(m, phi, g0, g1)


def test_evaluate_matches_word_path_on_pentagon_pairs():
    m = a4_model(EQUIV_TRUNC)
    pairs = [(g0, g1) for g0, g1, _ in pentagon_arguments(a4_generators(m))]
    assert_paths_agree(m, pairs, equivalence_inputs())


def test_evaluate_matches_word_path_in_p5():
    m = p5_model(EQUIV_TRUNC)
    g = p5_generators(m)
    pairs = [(g[a], g[b]) for a, b in FIVE_CYCLE]
    pairs += [embedding_images(w, m) for w in ("i123", "i451", "i432", "i215")]
    assert_paths_agree(m, pairs, equivalence_inputs())


def test_evaluate_matches_word_path_over_the_hexagon_ring():
    ring = QuadraticExtension(qq(24, 7))
    m = a4_model(EQUIV_TRUNC, ring)
    g = a4_generators(m)
    t12, t13, t23 = g["t12"], g["t13"], g["t23"]
    pairs = [(t13, t12), (t13, t23), (t12, t23), (t23, t13), (t12, t13)]
    assert_paths_agree(m, pairs, equivalence_inputs(ring))


def test_model_exp_is_the_power_series():
    rng = random.Random(47)
    m = a4_model(TRUNC)
    s = random_model_series(rng, m)
    expected, power = m.one(), m.one()
    for k in range(1, TRUNC + 1):
        power = m.mul(power, s).scale_q(qq(1, k))
        expected = expected.add(power)
    assert m.exp(s) == expected


def test_residuals_match_word_path(monkeypatch):
    rng = random.Random(48)
    phi = random_group_like(rng, TRUNC)
    c2 = solve_pentagon(TRUNC, c2=qq(2, 3))["phi"]
    m5 = p5_model(TRUNC)

    def residuals():
        out = [check_pentagon(phi), check_5cycle(phi), check_hexagons(phi), check_hexagons(c2)]
        out += [m5.evaluate(phi, *embedding_images(w, m5)) for w in ("i123", "i451", "i432", "i215")]
        return out

    by_brackets = residuals()
    monkeypatch.setattr(PBWModel, "evaluate", word_path)
    assert residuals() == by_brackets
    assert not by_brackets[0].is_zero() and not by_brackets[1].is_zero()
    assert not by_brackets[2][0].is_zero()


# -- integer bracket images against model commutators ------------------------

BRACKET_TRUNC = 6


def assert_images_are_commutators(m, pairs):
    """Every Lyndon image up to the truncation, embedded in the ring, equals
    the commutator of model products over the standard factorization."""
    embed = m.ring.embed
    for images in pairs:
        expected = {}
        for d in range(1, m.trunc + 1):
            for lw in lyndon_words(2, d):
                if d == 1:
                    expected[lw] = images[lw[0]]
                else:
                    a, b = (expected[w] for w in standard_factorization(lw))
                    expected[lw] = m.mul(a, b).sub(m.mul(b, a))
                table = m.lie_image(lw, images)
                got = Series(m.alphabet, m.trunc, m.ring, {w: embed(c) for w, c in table.items()})
                assert got == expected[lw]


def test_bracket_images_on_pentagon_pairs():
    m = a4_model(BRACKET_TRUNC)
    pairs = [(g0, g1) for g0, g1, _ in pentagon_arguments(a4_generators(m))]
    assert_images_are_commutators(m, pairs)


def test_bracket_images_on_five_cycle_and_embedding_pairs():
    m = p5_model(BRACKET_TRUNC)
    g = p5_generators(m)
    pairs = [(g[a], g[b]) for a, b in FIVE_CYCLE]
    pairs += [embedding_images(w, m) for w in ("i123", "i451", "i432", "i215")]
    assert_images_are_commutators(m, pairs)


def test_bracket_images_over_the_hexagon_ring():
    m = a4_model(BRACKET_TRUNC, QuadraticExtension(qq(24, 7)))
    g = a4_generators(m)
    t12, t13, t23 = g["t12"], g["t13"], g["t23"]
    assert_images_are_commutators(m, [(t13, t12), (t13, t23), (t12, t23), (t23, t13), (t12, t13)])


# -- mutation: a perturbed solution fails at the perturbed degree -------------


@pytest.fixture(scope="module")
def phi4():
    return solve_pentagon(4)["phi"]


MUTATED_WORDS = [w for d in range(2, 5) for w in X_ALPHABET.words_of_degree(d)]


@pytest.mark.parametrize("word", MUTATED_WORDS, ids=X_ALPHABET.format_word)
def test_perturbed_solution_fails_at_its_degree(phi4, word):
    terms = dict(phi4.terms)
    terms[word] = terms.get(word, 0) + qq(1, 3)
    phi = Series(X_ALPHABET, phi4.trunc, RATIONALS, terms)
    for residual in (check_pentagon(phi), check_5cycle(phi)):
        assert not residual.is_zero()
        assert min(len(w) for w in residual.terms) == len(word)
