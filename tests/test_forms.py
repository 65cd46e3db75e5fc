import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from hypermult import (
    FormParseError,
    Frame,
    HomogeneousForm,
    OneParamSubgroup,
    ProjPoint,
    StratumLabel,
    act,
    band_contains,
    default_frames,
    destabilize,
    destabilizing_factor,
    frame_moving_to_origin,
    multiplicity_at,
    multiplicity_at_origin,
    mu_weight,
    nearest_point,
    parse_form,
    point_image,
)
from hypermult import _linalg
from hypermult import forms as forms_module
from hypermult.cli import run
from hypermult.forms import MAX_DEN_BITS, MAX_SHIFT_WORK, _taylor_shift, _unimodular_completion
from hypermult.hesselink import unique_band
from oracle import (
    act_oracle,
    identity_frame,
    mult_oracle,
    parse_form_oracle,
    point_image_oracle,
    random_exponent,
    random_form,
    random_point,
    random_unimodular_frame,
    shear_oracle,
    unimodular_completion_oracle,
)


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


def test_a_header_alone_is_refused_whatever_its_r():
    # no row is read, so nothing may be sized by r, which only the header gives
    with pytest.raises(FormParseError, match="^a form must have at least one term$"):
        parse_form("r=" + "9" * 4000 + " d=1\n")


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
EXPONENTISH = st.text(alphabet="0123456789+-_ \u0661\u0662", min_size=1, max_size=6)
HEADER_AND_ROW = st.tuples(EXPONENTISH, EXPONENTISH, EXPONENTISH).map(
    lambda t: "r={} d=2\n1 {} {}\n".format(*t)
)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.text(max_size=60), NUMBERISH.map(lambda body: "r=1 d=2\n" + body), HEADER_AND_ROW
    )
)
def test_parse_form_raises_only_parse_errors(text):
    try:
        parse_form(text)
    except FormParseError:
        return
    # whatever parses has ASCII digits in the header and in every exponent
    lines = [raw.split("#", 1)[0].strip() for raw in text.splitlines()]
    header, *rows = [line for line in lines if line]
    assert re.fullmatch(r"r=[0-9]+\s+d=[0-9]+", header, re.ASCII)
    assert all(re.fullmatch("[0-9]+", x) for row in rows for x in row.split()[1:])


def test_parse_errors_quote_a_short_prefix():
    long_row = " ".join(["1"] * 500_000)  # a 1 MB row with the wrong field count
    cases = [
        "r=1 d=2\n" + long_row + "\n",
        "r=1 d=2\n" + "x" * 1_000_000 + " 2 0\n",
        "r=1 d=2\n1 2 " + "0" * 1_000_000 + "\n",
        "r=1 d=2\n" + "1" * 1_000_000 + " 2 0\n",
        "r=" + "1" * 1_000_000 + " d=2\n1 2 0\n",
        "r=1 d=2 " + "x" * 1_000_000 + "\n1 2 0\n",
        # rejected by the form constructor, not the grammar: 300,001
        # exponents summing to 300,001 instead of d, and two rows on one
        # 300,001-entry exponent vector that cancel
        "r=300000 d=2\n1 " + " ".join(["1"] * 300_001) + "\n",
        "r=300000 d=1\n1 1" + " 0" * 300_000 + "\n-1 1" + " 0" * 300_000 + "\n",
    ]
    for text in cases:
        with pytest.raises(FormParseError) as err:
            parse_form(text)
        assert len(str(err.value)) < 200


TOO_LONG = "7" * 4301  # one digit more than int() converts by default
SEPARATORS = st.sampled_from([" "] * 6 + ["  ", "\t", "\u2003", " \u2003", "\x1c"])
BAD_DIGITS = st.sampled_from(["\u0663", "1\u0663", "\u00b2", TOO_LONG, "+1", "1_0", "x"])
BAD_COEFFICIENTS = st.sampled_from(["1.5", "1e3", "1_0", "x", "/2", "1/", "--1", "\u0663/2"])


@st.composite
def form_texts(draw):
    """Form text in and around the grammar, each part outside it now and then."""

    def rarely():  # true about one draw in eight, away from the bounds
        return draw(st.integers(0, 7)) == 3

    r = draw(st.integers(1, 3))
    d = draw(st.integers(1, 4))
    header = f"r={r}" + draw(st.sampled_from([" "] * 4 + ["  ", "\t", "\u2003"])) + f"d={d}"
    if rarely():
        header = draw(st.sampled_from([f"r={r} d={d}x", "r=1", f"r={r}d={d}"]))
    lines = [header]
    for _ in range(draw(st.integers(0, 4))):
        cuts = sorted(draw(st.lists(st.integers(0, d), min_size=r, max_size=r)))
        expo = [str(b - a) for a, b in zip([0] + cuts, cuts + [d])]
        if rarely():
            expo = expo[1:] if draw(st.booleans()) else expo + ["0"]
        if rarely():
            expo[draw(st.integers(0, len(expo) - 1))] = draw(BAD_DIGITS)
        p = str(draw(st.integers(1, 10**30)))
        q = draw(st.one_of(st.none(), st.integers(1, 10**30).map(str)))
        if rarely():
            q = draw(st.sampled_from(["0", TOO_LONG]))
        row = draw(st.sampled_from(["", "-", "+"])) + p + ("" if q is None else "/" + q)
        if rarely():
            row = draw(st.one_of(BAD_COEFFICIENTS, BAD_DIGITS))
        for field in expo:
            row += draw(SEPARATORS) + field
        row = draw(st.sampled_from(["", "", " ", "\t"])) + row
        row += draw(st.sampled_from(["", "", " ", "# note", "\t# 1 2 3"]))
        lines.append(row)
        if rarely():
            lines.append(draw(st.sampled_from(["", "   ", "# comment", "\u2003"])))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except FormParseError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(form_texts())
@example("r=2 d=3\n1/2\u20031\x1c1 1\n")
@example("r=1 d=2\n1\t2\u20030\n-3/4 1 1 # x\n")
@example(f"r=1 d=2\n1/{TOO_LONG} 2 0\n")
@example(f"r=1 d=2\n1 2 {TOO_LONG}\n")
@example("r=1 d=2\n1/00 2 0\n")
@example("r=1 d=2\n-1/007 2 0\n1/7 2 0\n3 0 2\n")
@example("r=1 d=2\n1 \u00b2 0\n")  # isdigit() holds for it, int() refuses it
# the rows read at once must raise what the first faulty row raises alone
@example("r=2 d=3\n" + "1 1 1 1\n" * 40 + "1 1 1 x\n")  # fault in the last row only
@example("r=2 d=3\n" + "2 3 0 0\n" * 40 + "1 1 1\n")
@example("r=1 d=2\n+3 2 0\n+007/0021 1 1\n-01/05 0 2\n")  # + sign, leading zeros
@example("r=1 d=2\n1 2 0\n\u0663 1 1\n")  # non-ASCII digit in a coefficient
@example("r=1 d=2\n1 2 0\n1/\u0663 1 1\n")
@example("r=1 d=2\n3/4 2 0\n1 1 1\n-3/4 2 0\n")  # duplicate rows that cancel
@example("r=2 d=3\n1 3 0 0\n1 1 1 1\n1 1 1 0\n")  # a later row misses d
# an earlier row's later field and a later row's earlier field at fault:
# the earlier row is named, for each pair of the fields count, coefficient,
# exponent digits and int()
@example("r=1 d=2\nabc 2 0\n1 2\n")
@example("r=1 d=2\n1 x 0\n1 2\n")
@example(f"r=1 d=2\n1 {TOO_LONG} 0\n1 2\n")
@example("r=1 d=2\n1 x 0\nabc 2 0\n")
@example(f"r=1 d=2\n1 {TOO_LONG} 0\nabc 2 0\n")
@example(f"r=1 d=2\n1 2 0\n1 {TOO_LONG} 0\n1 x 0\n")
def test_parse_form_equals_the_field_by_field_reader(text):
    assert _parse_outcome(parse_form, text) == _parse_outcome(parse_form_oracle, text)


def test_a_denominator_of_the_longest_int_still_parses():
    q = 10**4299 + 1  # 4,300 digits, the most int() converts, about 14,284 bits
    f = parse_form(f"r=1 d=2\n1/{q} 2 0\n-1 0 2\n")
    assert f.terms == {(2, 0): Fraction(1, q), (0, 2): Fraction(-1)}
    assert q.bit_length() < MAX_DEN_BITS


def test_a_common_denominator_past_the_limit_is_refused(capsys):
    q1, q2 = 10**2600 + 1, 10**2600 + 3  # coprime, so the lcm has about 17,275 bits
    message = f"the common denominator has more than {MAX_DEN_BITS} bits"
    with pytest.raises(FormParseError, match=message):
        parse_form(f"r=1 d=2\n1/{q1} 2 0\n1/{q2} 0 2\n")
    # the constructor builds a form from its terms by the parser's own builder
    with pytest.raises(ValueError, match=message):
        HomogeneousForm(1, 2, {(2, 0): Fraction(1, q1), (0, 2): Fraction(1, q2)})
    # points, band points and projection targets stop at the same limit
    rng = random.Random(11)
    dens = [rng.randrange(10**29, 10**30) for _ in range(1000)]
    with pytest.raises(ValueError, match=message):
        ProjPoint.parse(",".join(f"1/{q}" for q in dens))
    y = (Fraction(1, q1), Fraction(1, q2))
    with pytest.raises(ValueError, match=message):
        band_contains(y, 1, 2, 4, 0)
    with pytest.raises(ValueError, match=message):
        unique_band(y, 1, 2, 4)
    with pytest.raises(ValueError, match=message):
        nearest_point([(2, 0), (0, 2)], y)
    point = f"1/{q1},1/{q2}"
    assert run(["bands", "-r", "1", "-d", "2", "--m", "0", "--point", point]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    # the same denominator on many rows keeps the lcm at one row's size
    f = parse_form("r=1 d=9\n" + "".join(f"1/{q1} {i} {9 - i}\n" for i in range(10)))
    assert f.den == q1


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
    with pytest.raises(ValueError, match="needs 2 entries"):
        HomogeneousForm(1, 2, {(1, 1, 0): Fraction(1)})
    with pytest.raises(ValueError, match="needs integers >= 0"):
        HomogeneousForm(1, 2, {(3, -1): Fraction(1)})


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
    assert act(identity_frame(3), f) == f
    with pytest.raises(ValueError):
        act(identity_frame(2), f)


def test_act_takes_exponents_past_the_recursion_limit():
    # the shear x_1 -> x_0 + x_1 sends x_1^1200 to sum_k C(1200, k) x_0^k x_1^(1200-k)
    f = HomogeneousForm(1, 1200, {(0, 1200): Fraction(1)})
    image = act(Frame([[1, 1], [0, 1]]), f)
    assert image.terms == {(k, 1200 - k): Fraction(math.comb(1200, k)) for k in range(1201)}


def test_act_is_a_left_action():
    rng = random.Random(7)
    for _ in range(20):
        r = rng.choice([1, 2])
        f = random_form(rng, r, rng.randint(1, 3))
        g = random_unimodular_frame(rng, r + 1)
        h = random_unimodular_frame(rng, r + 1)
        assert act(g, act(h, f)) == act(Frame(_linalg.mat_mul(g.rows, h.rows)), f)


def test_act_scalar_frames_fix_support():
    f = HomogeneousForm(1, 3, {(2, 1): Fraction(1), (0, 3): Fraction(-2)})
    doubled = act(Frame([[2, 0], [0, 2]]), f)
    assert doubled.support() == f.support()
    assert doubled.terms[(2, 1)] == Fraction(8)


def test_frame_rejects_singular():
    with pytest.raises(ValueError):
        Frame([[1, 1], [1, 1]])


@pytest.mark.parametrize("rows", [[[1, 0], [0]], [[1]], [[1, 0, 0], [0, 1, 0]]])
def test_frame_rejects_a_matrix_that_is_not_square(rows):
    with pytest.raises(ValueError, match="square matrix of size >= 2"):
        Frame(rows)


def test_point_image_refuses_a_point_of_another_size():
    with pytest.raises(ValueError, match="frame size does not match point dimension"):
        point_image(identity_frame(3), ProjPoint.parse("1,2"))


def test_frame_holds_ints_and_rejects_fractional_entries():
    with pytest.raises(ValueError, match="not an integer"):
        Frame([[1, 0], [Fraction(1, 2), 1]])
    g = Frame([[Fraction(2), 0], [0, 1]])
    assert g.rows == ((2, 0), (0, 1))
    assert all(type(x) is int for row in g.rows for x in row)


@st.composite
def int_frames(draw, n, entries=st.integers(-3, 3)):
    """Random invertible integer n x n frames, unimodular or not."""
    rows = draw(
        st.lists(
            st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
        ).filter(lambda a: _linalg.det(a) != 0)
    )
    return Frame(rows)


# small entries, and large ones for which Euclid takes several rounds with
# large quotients
WIDE_ENTRIES = st.one_of(st.integers(-3, 3), st.integers(-10**6, 10**6))


@st.composite
def forms_with_frames(draw):
    """A form with integer or rational coefficients and a frame to act by."""
    r = draw(st.integers(1, 4))
    d = draw(st.integers(1, 4))
    rng = random.Random(draw(st.integers(0, 10**6)))
    dens = [1] if draw(st.booleans()) else [1, 2, 3, 7, 2**40]
    terms = {}
    for _ in range(draw(st.integers(1, 5))):
        num = draw(st.integers(-50, 50).filter(bool))
        terms[random_exponent(rng, r, d)] = Fraction(num, draw(st.sampled_from(dens)))
    return HomogeneousForm(r, d, terms), draw(int_frames(r + 1, WIDE_ENTRIES))


RATIONAL_CUBIC = HomogeneousForm(1, 3, {(2, 1): Fraction(1, 3), (0, 3): Fraction(-2, 5)})
TERNARY_CUBIC = HomogeneousForm(
    2, 3, {(2, 1, 0): Fraction(1, 3), (0, 1, 2): -2, (1, 1, 1): 5, (0, 0, 3): 1}
)


@settings(max_examples=150, deadline=None)
@given(forms_with_frames())
@example((RATIONAL_CUBIC, Frame([[2, 0], [0, 2]])))
@example((RATIONAL_CUBIC, Frame([[-3, 0], [0, 5]])))
@example((RATIONAL_CUBIC, Frame([[2, 1], [0, 2]])))
# a zero diagonal forces a swap of columns, and so of variables
@example((RATIONAL_CUBIC, Frame([[0, 1], [1, 0]])))
@example((TERNARY_CUBIC, Frame([[0, 1, 0], [0, 0, 1], [1, 0, 0]])))
@example((RATIONAL_CUBIC, Frame([[2, 1], [0, -3]])))  # negative, non-unit diagonal
@example((RATIONAL_CUBIC, Frame([[1, 0], [21, 13]])))  # several Euclid rounds
def test_act_matches_the_fraction_substitution(case):
    f, g = case
    ours = act(g, f)
    theirs = act_oracle(g, f)
    assert ours.terms == theirs.terms
    assert all(type(c) is Fraction for c in ours.terms.values())


def _shear(r, j, i, s):
    """The transvection I + s*e_i*e_j^T, which substitutes x_j -> x_j + s*x_i."""
    rows = [[int(a == b) for b in range(r + 1)] for a in range(r + 1)]
    rows[i][j] = s
    return Frame(rows)


@st.composite
def shift_cases(draw):
    """A form with exponents up to 40, variables j != i in 0..r and a shift -3..3."""
    r = draw(st.integers(1, 4))
    d = draw(st.integers(1, 40))
    j = draw(st.integers(0, r))
    i = draw(st.sampled_from([k for k in range(r + 1) if k != j]))
    s = draw(st.integers(-3, 3))
    rng = random.Random(draw(st.integers(0, 10**6)))
    dens = [1] if draw(st.booleans()) else [1, 2, 3, 7, 2**40]
    terms = {
        random_exponent(rng, r, d): Fraction(rng.choice([-9, -2, -1, 1, 3, 8]), rng.choice(dens))
        for _ in range(draw(st.integers(1, 6)))
    }
    base = HomogeneousForm(r, d, terms)
    # the shift by s undoes act by -s, so most terms of f cancel
    undo = draw(st.booleans())
    return (act(_shear(r, j, i, -s), base) if undo else base), j, i, s, base if undo else None


@settings(max_examples=200, deadline=None)
@given(shift_cases())
@example((HomogeneousForm(1, 3, {(3, 0): 1, (2, 1): 3, (1, 2): 3, (0, 3): 1}), 0, 1, -1, None))
@example((HomogeneousForm(2, 3, {(1, 0, 2): 1, (0, 3, 0): -2}), 2, 1, 3, None))
def test_taylor_shift_is_act_by_a_shear(case):
    f, j, i, s, undone = case
    shifted = _taylor_shift(f.nums, j, i, s)
    assert 0 not in shifted.values()
    moved = HomogeneousForm._from_ints(f.r, f.d, shifted, f.den)
    assert moved == shear_oracle(f, j, i, s)
    if undone is not None:
        assert moved == undone


@pytest.mark.parametrize("s", [1, -1, 3, -3])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_a_transvection_is_one_shift(r, s):
    # a unit entry below the diagonal ties with the diagonal's 1: the
    # diagonal pivots, so no swap and no second shift is made
    for j in range(r + 1):
        for i in range(r + 1):
            if i != j:
                assert forms_module._act_steps(_shear(r, j, i, s)) == [("shift", j, i, s)]


def test_act_moves_the_largest_shape_shift_cases_draws():
    # r=4, d=40 has C(44, 4) = 135,751 possible terms, within MAX_MOVED_TERMS,
    # and one shift of 40 * 135,751 steps is within MAX_SHIFT_WORK; the
    # shears below the diagonal are the undone cases of shift_cases
    for j, i, s in [(4, 0, 1), (0, 4, 1), (0, 4, -1)]:
        f = HomogeneousForm(4, 40, {tuple(40 * (k == j) for k in range(5)): 1})
        assert act(_shear(4, j, i, s), f) == shear_oracle(f, j, i, s)


@settings(max_examples=100, deadline=None)
@given(forms_with_frames())
@example((RATIONAL_CUBIC, Frame([[1, 0], [21, 13]])))  # several Euclid rounds
def test_act_makes_the_shifts_it_counts(case):
    f, g = case
    made = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(forms_module, "_taylor_shift", lambda *a: made.append(a) or _taylor_shift(*a))
        act(g, f)
    assert [("shift",) + a[1:] for a in made] == [
        step for step in forms_module._act_steps(g) if step[0] == "shift"
    ]


def test_act_refuses_a_move_of_many_euclid_steps_before_any_shift(monkeypatch):
    # eight shifts of d * C(d+1, 1) = 1023 * 1024 steps each fit the limit at d = 1023;
    # ten do not at d = 1000, though one shift of 1000 * 1001 steps would
    steps = forms_module._act_steps(frame_moving_to_origin(ProjPoint([89, 55])))
    assert sum(step[0] == "shift" for step in steps) == 8
    assert 8 * 1023 * 1024 <= MAX_SHIFT_WORK < 8 * 1024 * 1025
    forms_module.check_move(HomogeneousForm(1, 1023, {(1023, 0): 1}), 8, 0)

    def no_shift(*args):
        raise AssertionError("the form was shifted")

    monkeypatch.setattr(forms_module, "_taylor_shift", no_shift)
    f = HomogeneousForm(1, 1000, {(1000, 0): 1, (0, 1000): 1})
    with pytest.raises(ValueError, match="10 times may take over 8,388,608 steps"):
        forms_module.move_to_origin(f, ProjPoint([233, 144]))


def test_act_counts_the_bits_a_scaling_adds():
    # scaling x_0 by 2 adds d bits (bit_length(|k| - 1) = 1 per degree), and
    # d = MAX_DEN_BITS is the most it may add; a swap adds none at any degree
    double = Frame([[2, 0], [0, 1]])
    top = HomogeneousForm(1, MAX_DEN_BITS, {(MAX_DEN_BITS, 0): 1})
    assert act(double, top).nums == {(MAX_DEN_BITS, 0): 2**MAX_DEN_BITS}
    past = HomogeneousForm(1, MAX_DEN_BITS + 1, {(MAX_DEN_BITS + 1, 0): 1})
    with pytest.raises(ValueError, match="may add over 16,384 bits to the coefficients"):
        act(double, past)
    huge = HomogeneousForm(1, 10**9, {(10**9, 0): 1})
    assert act(Frame([[0, 1], [1, 0]]), huge).nums == {(0, 10**9): 1}
    assert act(Frame([[-1, 0], [0, 1]]), huge).nums == {(10**9, 0): 1}


def test_a_move_over_the_step_and_the_bit_limits_names_the_steps():
    # one shift by 10**50 at d = 3000: 3000 * 3001 steps and about 500,000 bits
    f = HomogeneousForm(1, 3000, {(3000, 0): 1, (0, 3000): 1})
    with pytest.raises(ValueError, match="once may take over 8,388,608 steps"):
        act(Frame(((1, 0), (10**50, 1))), f)


def _as_rows(f, rng):
    """f in the file format with unreduced coefficients, some split over two rows."""
    lines = [f"r={f.r} d={f.d}"]
    for e, c in f.terms.items():
        part = Fraction(rng.randint(-3, 3), rng.choice([1, 2, 4]))
        for piece in [c - part, part] if part else [c]:
            k = rng.choice([1, 2, 6])
            lines.append(f"{piece.numerator * k}/{piece.denominator * k} " + " ".join(map(str, e)))
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(forms_with_frames(), st.integers(0, 3), st.integers(-3, 3), st.integers(0, 10**6))
@example((RATIONAL_CUBIC, Frame([[6, 0], [0, 10]])), 1, 2, 0)
def test_every_constructor_holds_a_form_in_lowest_terms(case, n, s, seed):
    f, g = case
    rng = random.Random(seed)
    parsed = parse_form(_as_rows(f, rng))
    assert parsed == f
    j, i = rng.sample(range(f.r + 1), 2)
    shifted = _taylor_shift(f.nums, j, i, s)
    built = [
        f,
        parsed,
        act(g, f),
        destabilize(f, n),
        HomogeneousForm._from_ints(f.r, f.d, shifted, f.den),
    ]
    for h in built:
        # act and destabilize are valid by construction and check nothing:
        # every check of the public constructor passes on what they return
        # and changes nothing
        assert HomogeneousForm(h.r, h.d, h.terms) == h
        assert h.den > 0 and math.gcd(h.den, *h.nums.values()) == 1
        assert all(type(c) is int and c != 0 for c in h.nums.values())
        assert HomogeneousForm(h.r, h.d, h.terms) == h
        assert parse_form(h.to_text()) == h


def test_act_reduces_numerators_that_share_a_factor_with_the_denominator():
    half_square = HomogeneousForm(1, 2, {(2, 0): Fraction(1, 2)})
    assert (half_square.nums, half_square.den) == ({(2, 0): 1}, 2)
    image = act(Frame([[2, 0], [0, 1]]), half_square)
    assert image == HomogeneousForm(1, 2, {(2, 0): 2})
    assert (image.nums, image.den) == ({(2, 0): 2}, 1)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 4).flatmap(
        lambda n: st.tuples(
            int_frames(n),
            st.lists(st.fractions(-10, 10, max_denominator=50), min_size=n, max_size=n)
            .filter(any),
        )
    )
)
def test_point_image_matches_the_inverse_route(case):
    g, coords = case
    p = ProjPoint(tuple(coords))
    assert point_image(g, p).primitive() == point_image_oracle(g, p).primitive()


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
        gh = Frame(_linalg.mat_mul(g.rows, h.rows))
        assert point_image(g, point_image(h, p)) == point_image(gh, p)


# ---------------------------------------------------------------- movers

def test_mover_at_origin_is_identity():
    assert frame_moving_to_origin(ProjPoint.origin(2)) == identity_frame(3)


def test_mover_is_unimodular_and_moves_the_point():
    rng = random.Random(3)
    for _ in range(40):
        r = rng.choice([1, 2, 3])
        p = random_point(rng, r)
        g = frame_moving_to_origin(p)
        assert all(type(x) is int for row in g.rows for x in row)
        assert _linalg.det(g.rows) == 1
        assert point_image(g, p) == ProjPoint.origin(r)
        assert g.rows[0] == p.primitive()


ENTRY = st.one_of(
    st.just(0), st.integers(-5, 5), st.integers(-10**9, 10**9), st.integers(-2**80, 2**80)
)


@settings(max_examples=400, deadline=None)
@given(st.lists(ENTRY, min_size=2, max_size=6).filter(any))
@example([0, 0, -1])
@example([6, 10, 15])
@example([0, -7, 0, 3, 0])
def test_completion_equals_the_closure_oracle(v):
    g = math.gcd(*v)
    prim = [x // g for x in v]
    rows = _unimodular_completion(prim)
    assert rows == unimodular_completion_oracle(prim)
    assert rows[0] == prim and _linalg.det(rows) == 1


def test_mover_handles_rational_coordinates():
    p = ProjPoint.parse("1/2,1/3,0")
    g = frame_moving_to_origin(p)
    assert point_image(g, p) == ProjPoint.origin(2)
    assert _linalg.det(g.rows) == 1


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


@pytest.mark.parametrize("n", [1.5, Fraction(3, 2), 2.0, "2"])
def test_destabilize_refuses_a_non_integer_exponent(n):
    # 1.5 used to fail on a misleading exponent-vector message
    f = HomogeneousForm(1, 2, {(1, 1): Fraction(1)})
    with pytest.raises(ValueError, match="destabilization exponent must be an integer"):
        destabilize(f, n)


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


@pytest.mark.parametrize("r, n, name", [(1, 1.5, "n"), (1, Fraction(2), "n"), (2.0, 1, "r")])
def test_destabilizing_factor_refuses_non_integers(r, n, name):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        destabilizing_factor(r, n)


@pytest.mark.parametrize("r, d, name", [(1, 2.0, "d"), (1.0, 2, "r"), (1, Fraction(2), "d")])
def test_a_form_refuses_a_non_integer_r_or_d(r, d, name):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        HomogeneousForm(r, d, {(1, 1): 1})


SIZED_BY_AN_INT = {
    "default_frames": ("r", lambda x: default_frames(x, ProjPoint.origin(1), 0)),
    "ProjPoint.origin": ("r", ProjPoint.origin),
}


@pytest.mark.parametrize("x", [True, 1.0, Fraction(1)], ids=repr)
@pytest.mark.parametrize("entry", SIZED_BY_AN_INT)
def test_a_size_must_be_an_int(entry, x):
    # True and 1.0 used to pass as 1
    name, call = SIZED_BY_AN_INT[entry]
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {re.escape(repr(x))}"):
        call(x)


# each takes x where an exact number is meant, and accepts x = 1
EXACT_INPUTS = {
    "HomogeneousForm": lambda x: HomogeneousForm(1, 2, {(1, 1): x}),
    "ProjPoint": lambda x: ProjPoint((x, 1)),
    "Frame": lambda x: Frame([[x, 0], [0, 1]]),
    "OneParamSubgroup": lambda x: OneParamSubgroup((x, -1)),
    "mu_weight": lambda x: mu_weight(HomogeneousForm(1, 2, {(1, 1): 1}), (x, -1)),
    "nearest_point_points": lambda x: nearest_point([(x, 1)], (Fraction(1), Fraction(1))),
    "nearest_point_target": lambda x: nearest_point([(1, 1)], (x, 1)),
    "band_contains": lambda x: band_contains((x, 4), 1, 2, 3, 0),
    "unique_band": lambda x: unique_band((x, 0), 1, 2, 3),
    "StratumLabel_delta_sq": lambda x: StratumLabel(OneParamSubgroup((1, 1, -1, -1)), x, 2),
    "StratumLabel_scale": lambda x: StratumLabel(OneParamSubgroup((1, -1)), 2, x),
}


@pytest.mark.parametrize(
    "value", [0.1, 1.0, True, "1e1000000"], ids=["float", "integral_float", "bool", "string"]
)
@pytest.mark.parametrize("call", EXACT_INPUTS.values(), ids=EXACT_INPUTS)
def test_floats_and_bools_are_refused(call, value):
    # Fraction(0.1) is 3602879701896397/36028797018963968, True is 1, and
    # Fraction('1e1000000') a million-digit integer: text is read by the
    # form grammar alone
    call(1)
    with pytest.raises(ValueError, match=re.escape(f"{type(value).__name__} {value!r} is refused")):
        call(value)


# ---------------------------------------------------------------- points

def test_projective_equality_up_to_scale():
    assert ProjPoint.parse("2,4") == ProjPoint.parse("1,2")
    assert ProjPoint.parse("-1,-2") == ProjPoint.parse("1,2")
    assert ProjPoint.parse("1,2") != ProjPoint.parse("2,1")
    with pytest.raises(ValueError):
        ProjPoint.parse("0,0")


def test_a_point_normalizes_once(monkeypatch):
    other = ProjPoint.parse("-2,4,6")
    calls = []

    def counted(v):
        calls.append(v)
        return primitive(v)

    primitive = _linalg.primitive
    monkeypatch.setattr(_linalg, "primitive", counted)
    p = ProjPoint.parse("1/2,-1,-3/2")
    assert frame_moving_to_origin(p).rows[0] == (1, -2, -3)
    assert multiplicity_at(parse_form("r=2 d=2\n3 1 0 1\n1 0 0 2\n"), p) == 1
    assert p == other and hash(p) == hash(other) and {p, other} == {p}
    assert p.primitive() == (1, -2, -3)
    assert len(calls) == 1
