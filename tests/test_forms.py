import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hypermult import (
    FormParseError,
    Frame,
    HomogeneousForm,
    ProjPoint,
    act,
    destabilize,
    destabilizing_factor,
    frame_moving_to_origin,
    multiplicity_at,
    multiplicity_at_origin,
    parse_form,
    point_image,
)
from oracle import mult_oracle, random_form, random_point, random_unimodular_frame


@st.composite
def forms(draw, max_r=3, max_d=4):
    r = draw(st.integers(1, max_r))
    d = draw(st.integers(1, max_d))
    seed = draw(st.integers(0, 10**6))
    return random_form(random.Random(seed), r, d)


# ---------------------------------------------------------------- parsing

def test_parse_basic_and_duplicates_sum():
    text = """
    # a binary quartic
    r=1 d=4
    1 4 0
    1/2 2 2
    1/2 2 2   # duplicate row, summed
    -3 0 4
    """
    f = parse_form(text)
    assert f.r == 1 and f.d == 4
    assert f.terms == {
        (4, 0): Fraction(1),
        (2, 2): Fraction(1),
        (0, 4): Fraction(-3),
    }


def test_parse_rejects_zero_net_coefficient():
    with pytest.raises(FormParseError):
        parse_form("r=1 d=2\n1 2 0\n-1 2 0\n")


def test_parse_rejects_bad_header():
    with pytest.raises(FormParseError):
        parse_form("r=x d=2\n1 2 0\n")
    with pytest.raises(FormParseError):
        parse_form("")
    with pytest.raises(FormParseError):
        parse_form("r=" + "1" * 5000 + " d=2\n1 2 0\n")


def test_parse_rejects_empty_term_list():
    with pytest.raises(FormParseError):
        parse_form("r=1 d=2\n# only comments\n")


def test_parse_rejects_malformed_rows():
    with pytest.raises(FormParseError):
        parse_form("r=1 d=2\n1/0 2 0\n")
    with pytest.raises(FormParseError):
        parse_form("r=1 d=2\nabc 2 0\n")
    with pytest.raises(FormParseError):
        parse_form("r=1 d=2\n1 1 0\n")  # exponents sum to 1, not d
    with pytest.raises(FormParseError):
        parse_form("r=1 d=2\n1 3 -1\n")
    with pytest.raises(FormParseError):
        parse_form("r=1 d=2\n1 2\n")  # missing an exponent column


NOT_RATIONALS = ["1e10000000", "1_0", "1.5", "1/-2", "--1", "0x10", "inf", "nan", "\u0661", "1/0"]


@pytest.mark.parametrize("bad", NOT_RATIONALS)
def test_numbers_outside_the_grammar_are_rejected(bad):
    with pytest.raises(FormParseError):
        parse_form(f"r=1 d=2\n{bad} 2 0\n")
    with pytest.raises(ValueError):
        ProjPoint.parse(f"{bad},1")


def test_signed_rationals_are_accepted():
    f = parse_form("r=1 d=2\n-3/2 2 0\n+2 0 2\n")
    assert f.terms == {(2, 0): Fraction(-3, 2), (0, 2): Fraction(2)}
    assert ProjPoint.parse("-3/2, +2").coords == (Fraction(-3, 2), Fraction(2))


NUMBERISH = st.text(alphabet="0123456789+-/._e ,#\n\u0661", max_size=40)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.text(max_size=60), NUMBERISH.map(lambda body: "r=1 d=2\n" + body)))
def test_parse_form_raises_only_parse_errors(text):
    try:
        parse_form(text)
    except FormParseError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.text(max_size=40), NUMBERISH))
def test_point_parse_raises_only_value_errors(text):
    try:
        ProjPoint.parse(text)
    except ValueError:
        pass


def test_to_text_round_trips():
    f = HomogeneousForm(2, 3, {(1, 1, 1): Fraction(2, 3), (0, 3, 0): Fraction(-1)})
    assert parse_form(f.to_text()) == f


def test_form_validation():
    with pytest.raises(ValueError):
        HomogeneousForm(1, 2, {})
    with pytest.raises(ValueError):
        HomogeneousForm(1, 2, {(1, 1): Fraction(0)})
    with pytest.raises(ValueError):
        HomogeneousForm(1, 2, {(1, 2): Fraction(1)})
    with pytest.raises(ValueError):
        HomogeneousForm(0, 2, {(2,): Fraction(1)})


# ---------------------------------------------------------------- action

def test_act_swap_example():
    f = HomogeneousForm(1, 2, {(2, 0): Fraction(1)})
    swapped = act(Frame([[0, 1], [1, 0]]), f)
    assert swapped.terms == {(0, 2): Fraction(1)}


def test_act_shear_example():
    # g.x_0 = x_0 + x_1 and g.x_1 = x_1 sends x_0*x_1 to x_0*x_1 + x_1^2
    g = Frame([[1, 0], [1, 1]])
    f = HomogeneousForm(1, 2, {(1, 1): Fraction(1)})
    assert act(g, f).terms == {(1, 1): Fraction(1), (0, 2): Fraction(1)}


def test_act_identity_and_dimension_mismatch():
    f = HomogeneousForm(2, 2, {(1, 1, 0): Fraction(1)})
    assert act(Frame.identity(3), f) == f
    with pytest.raises(ValueError):
        act(Frame.identity(2), f)


def test_act_is_a_left_action():
    rng = random.Random(7)
    for _ in range(20):
        r = rng.choice([1, 2])
        f = random_form(rng, r, rng.randint(1, 3))
        g = random_unimodular_frame(rng, r + 1)
        h = random_unimodular_frame(rng, r + 1)
        assert act(g, act(h, f)) == act(g.compose(h), f)


def test_act_scalar_frames_fix_support():
    f = HomogeneousForm(1, 3, {(2, 1): Fraction(1), (0, 3): Fraction(-2)})
    doubled = act(Frame([[2, 0], [0, 2]]), f)
    assert doubled.support() == f.support()
    assert doubled.terms[(2, 1)] == Fraction(8)


def test_frame_rejects_singular():
    with pytest.raises(ValueError):
        Frame([[1, 1], [1, 1]])


def test_point_image_swap_example():
    g = Frame([[0, 1], [1, 0]])
    assert point_image(g, ProjPoint.parse("1,0")) == ProjPoint.parse("0,1")


def test_point_image_is_a_left_action():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.choice([2, 3])
        p = random_point(rng, n - 1)
        g = random_unimodular_frame(rng, n)
        h = random_unimodular_frame(rng, n)
        assert point_image(g, point_image(h, p)) == point_image(g.compose(h), p)


# ---------------------------------------------------------------- movers

def test_mover_at_origin_is_identity():
    assert frame_moving_to_origin(ProjPoint.origin(2)) == Frame.identity(3)


def test_mover_is_unimodular_and_moves_the_point():
    rng = random.Random(3)
    for _ in range(40):
        r = rng.choice([1, 2, 3])
        p = random_point(rng, r)
        g = frame_moving_to_origin(p)
        assert g.is_integral()
        assert g.det == 1
        assert point_image(g, p) == ProjPoint.origin(r)
        assert tuple(int(x) for x in g.rows[0]) == p.primitive()


def test_mover_handles_rational_coordinates():
    p = ProjPoint.parse("1/2,1/3,0")
    g = frame_moving_to_origin(p)
    assert point_image(g, p) == ProjPoint.origin(2)
    assert g.det == 1


# ---------------------------------------------------------------- multiplicity

def test_multiplicity_examples():
    f = HomogeneousForm(1, 2, {(2, 0): Fraction(1)})
    assert multiplicity_at_origin(f) == 0
    assert multiplicity_at(f, ProjPoint.parse("0,1")) == 2
    cubic = HomogeneousForm(2, 3, {(1, 1, 1): Fraction(1), (0, 3, 0): Fraction(1)})
    assert multiplicity_at_origin(cubic) == 2


def test_multiplicity_range_and_full_drop():
    f = HomogeneousForm(2, 3, {(0, 2, 1): Fraction(1)})
    assert multiplicity_at_origin(f) == 3  # no x_0 at all
    g = HomogeneousForm(2, 3, {(3, 0, 0): Fraction(1)})
    assert multiplicity_at_origin(g) == 0


def test_multiplicity_invariant_under_origin_fixing_frames():
    rng = random.Random(13)
    f = HomogeneousForm(2, 3, {(1, 1, 1): Fraction(1), (0, 3, 0): Fraction(1)})
    for _ in range(10):
        rows = [[1, 0, 0], [rng.randint(-2, 2), 1, 0], [rng.randint(-2, 2), rng.randint(-2, 2), 1]]
        g = Frame(rows)
        assert multiplicity_at_origin(act(g, f)) == multiplicity_at_origin(f)


def test_multiplicity_transport_contract():
    rng = random.Random(17)
    for _ in range(25):
        r = rng.choice([1, 2])
        f = random_form(rng, r, rng.randint(1, 3))
        p = random_point(rng, r)
        g = random_unimodular_frame(rng, r + 1)
        assert multiplicity_at(act(g, f), point_image(g, p)) == multiplicity_at(f, p)


@settings(max_examples=60, deadline=None)
@given(forms(), st.integers(0, 10**6))
def test_multiplicity_matches_dehomogenization_oracle(f, point_seed):
    p = random_point(random.Random(point_seed), f.r)
    assert multiplicity_at(f, p) == mult_oracle(f, p)


# ---------------------------------------------------------------- destabilize

def test_destabilize_translates_support():
    f = HomogeneousForm(2, 3, {(1, 1, 1): Fraction(1), (0, 3, 0): Fraction(-2)})
    g = destabilize(f, 4)
    assert g.d == 3 + 2 * 4
    assert g.terms == {(1, 5, 5): Fraction(1), (0, 7, 4): Fraction(-2)}


def test_destabilize_edge_cases():
    f = HomogeneousForm(1, 2, {(1, 1): Fraction(1)})
    assert destabilize(f, 0) == f
    with pytest.raises(ValueError):
        destabilize(f, -1)


def test_destabilize_multiplicity_additivity():
    rng = random.Random(19)
    for _ in range(15):
        r = rng.choice([1, 2])
        f = random_form(rng, r, rng.randint(1, 3))
        n = rng.randint(1, 3)
        factor = destabilizing_factor(r, n)
        p = random_point(rng, r)
        assert multiplicity_at(destabilize(f, n), p) == multiplicity_at(
            f, p
        ) + multiplicity_at(factor, p)


def test_destabilizing_factor_shape():
    f = destabilizing_factor(2, 3)
    assert f.terms == {(0, 3, 3): Fraction(1)}
    with pytest.raises(ValueError):
        destabilizing_factor(1, 0)


# ---------------------------------------------------------------- points

def test_projective_equality_up_to_scale():
    assert ProjPoint.parse("2,4") == ProjPoint.parse("1,2")
    assert ProjPoint.parse("-1,-2") == ProjPoint.parse("1,2")
    assert ProjPoint.parse("1,2") != ProjPoint.parse("2,1")
    with pytest.raises(ValueError):
        ProjPoint.parse("0,0")
