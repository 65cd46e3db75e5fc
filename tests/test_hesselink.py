import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hypermult import (
    BandParams,
    Frame,
    FrameFamily,
    HomogeneousForm,
    OneParamSubgroup,
    ProjPoint,
    StratumLabel,
    act,
    band_contains,
    barycenter,
    bound_check,
    classify_at,
    classify_at_origin,
    default_frames,
    destabilize,
    frame_moving_to_origin,
    gen_corpus,
    l_squared,
    multiplicity_at,
    multiplicity_at_origin,
    pair_minima,
    pair_separation_min_N,
    parse_form,
    point_image,
    separation_gap,
    separation_threshold,
    torus_index,
    worst_frame_search,
)
from hypermult import _linalg, forms, hesselink
from hypermult.hesselink import unique_band
from hypermult.forms import MAX_DIM
from hypermult._linalg import norm_sq, sub, vec
from oracle import (
    band_contains_fraction_oracle,
    band_contains_oracle,
    binary_index_oracle,
    family_members,
    identity_frame,
    l_squared_oracle,
    permuted_frames,
    random_exponent,
    random_form,
    random_point,
    random_unimodular_frame,
    separation_gap_oracle,
    unique_band_oracle,
    worst_frame_search_oracle,
)


def scan_pair_min_N(r, d, m, mp, limit=60):
    """Reference: first N >= 0 with a positive gap, by direct scan."""
    for n in range(limit):
        if separation_gap(r, d, m, mp, n) > 0:
            return n
    raise AssertionError("no separating N found below the limit")


# ---------------------------------------------------------------- radii

def test_l_squared_frozen_values():
    assert l_squared(1, 2, 3, 0) == Fraction(1, 2)
    assert l_squared(1, 2, 3, 1) == Fraction(9, 2)
    assert l_squared(1, 2, 3, 2) == Fraction(25, 2)


def test_l_squared_is_slice_maximum():
    # the radius equals the distance at every vertex of the slice y_0 = d-m,
    # and no sampled slice point beats it
    rng = random.Random(37)
    for (r, d, n, m) in [(1, 2, 3, 1), (2, 3, 4, 2), (3, 2, 3, 1), (2, 2, 3, 0)]:
        xi = barycenter(r, d + r * n)
        radius = l_squared(r, d, n, m)
        vertices = []
        for spot in range(1, r + 1):
            y = [Fraction(d - m)] + [Fraction(n)] * r
            y[spot] += m
            vertices.append(tuple(y))
        assert all(norm_sq(sub(xi, v)) == radius for v in vertices)
        for _ in range(50):
            weights = [rng.randint(0, 5) for _ in vertices]
            if not any(weights):
                weights[0] = 1
            total = sum(weights)
            point = [Fraction(0)] * (r + 1)
            for wgt, v in zip(weights, vertices):
                for i, x in enumerate(v):
                    point[i] += Fraction(wgt, total) * x
            assert norm_sq(sub(xi, tuple(point))) <= radius


def test_l_squared_monotone_in_m_above_degree():
    for (r, d) in [(1, 2), (2, 3), (3, 4)]:
        n = d + 1
        values = [l_squared(r, d, n, m) for m in range(d + 1)]
        assert values == sorted(values)
        assert len(set(values)) == len(values)


def test_l_squared_validates_params():
    with pytest.raises(ValueError):
        l_squared(1, 2, 3, 3)
    with pytest.raises(ValueError):
        l_squared(1, 2, -1, 0)


# ---------------------------------------------------------------- bands

def test_band_contains_defining_vertex_and_caps():
    r, d, n = 1, 2, 3
    assert band_contains((1, 4), r, d, n, 1)  # the defining slice vertex
    assert not band_contains((2, 3), r, d, n, 1)  # violates the y_0 cap
    assert band_contains((2, 3), r, d, n, 0)
    assert not band_contains((0, 5), r, d, n, 0)  # too far from the barycenter
    assert band_contains((0, 5), r, d, n, 2)


def test_band_contains_requires_simplex_membership():
    assert not band_contains((1, 1), 1, 2, 3, 1)  # wrong coordinate sum
    assert not band_contains((-1, 6), 1, 2, 3, 2)


# ---------------------------------------------------------------- separation

def test_separation_gap_slope_is_two_delta_m():
    rng = random.Random(41)
    for _ in range(40):
        r = rng.randint(1, 3)
        d = rng.randint(1, 5)
        mp = rng.randint(1, d)
        m = rng.randint(0, mp - 1)
        n = rng.randint(0, 9)
        jump = separation_gap(r, d, m, mp, n + 1) - separation_gap(r, d, m, mp, n)
        assert jump == 2 * (mp - m)


def test_pair_separation_frozen_values():
    assert pair_separation_min_N(1, 2, 0, 1) == 2
    assert pair_separation_min_N(1, 2, 0, 2) == 1
    # the defining condition N^2 < (N+2)^2 already holds at N = 0
    assert pair_separation_min_N(1, 2, 1, 2) == 0


def test_pair_separation_matches_scan_oracle():
    rng = random.Random(43)
    for _ in range(40):
        r = rng.randint(1, 3)
        d = rng.randint(1, 5)
        mp = rng.randint(1, d)
        m = rng.randint(0, mp - 1)
        assert pair_separation_min_N(r, d, m, mp) == scan_pair_min_N(r, d, m, mp)


def test_pair_separation_validates():
    with pytest.raises(ValueError):
        pair_separation_min_N(1, 2, 1, 1)
    with pytest.raises(ValueError):
        pair_separation_min_N(1, 2, 2, 1)


def test_threshold_frozen_values():
    assert separation_threshold(1, 2) == 3
    assert separation_threshold(1, 1) == 2


def test_the_threshold_is_computed_once_and_only_for_checked_ints(monkeypatch):
    separation_threshold.cache_clear()
    assert separation_threshold(1, 3) == 4

    def no_pair(*args):
        raise AssertionError("the threshold was computed again")

    monkeypatch.setattr(hesselink, "pair_separation_min_N", no_pair)
    assert separation_threshold(1, 3) == 4
    # an untyped cache would take True, Fraction(1) or 1.0 for the key 1
    for r in [True, Fraction(1), 1.0]:
        with pytest.raises(ValueError, match="must be an integer, got"):
            separation_threshold(r, 3)
    assert separation_threshold.cache_info().currsize == 1


def test_threshold_exceeds_degree_and_separates_all_pairs():
    for (r, d) in [(1, 2), (1, 4), (2, 2), (2, 3), (3, 2)]:
        threshold = separation_threshold(r, d)
        assert threshold > d
        for m, mp, least in pair_minima(r, d):
            assert least <= threshold
            assert separation_gap(r, d, m, mp, threshold) > 0
            # monotone: once separated, separated for larger N as well
            assert separation_gap(r, d, m, mp, threshold + 3) > 0


def test_pair_minima_refuses_more_than_max_pairs_before_computing(monkeypatch):
    assert len(pair_minima(1, 4)) == 10
    monkeypatch.setattr(hesselink, "MAX_PAIRS", 10)
    assert len(pair_minima(1, 4)) == 10  # d(d+1)/2 = 10 pairs, at the limit

    def no_pair(*args):
        raise AssertionError("a pair was computed")

    monkeypatch.setattr(hesselink, "pair_separation_min_N", no_pair)
    for r, d in [(1, 5), (3, 6), (1, 10**9)]:
        with pytest.raises(ValueError, match="more than 10 band pairs"):
            pair_minima(r, d)


def test_the_first_pair_separates_below_the_threshold_floor():
    # (0, 1) separates from N = d on, so the floor d + 1 dominates it
    for r in range(1, 40):
        for d in range(1, 200):
            assert pair_separation_min_N(r, d, 0, 1) == d, (r, d)


def test_threshold_equals_the_all_pairs_maximum():
    # the threshold checks only the pair (d-1, d)
    for r in range(1, 9):
        for d in range(1, 61):
            all_pairs = max([d + 1] + [least for _, _, least in pair_minima(r, d)])
            assert separation_threshold(r, d) == all_pairs, (r, d)


# ---------------------------------------------------------------- closed forms

@st.composite
def band_points(draw, r, d, big_n):
    """A point with y_0 in 0..d on the degree d + r*N hyperplane, sometimes
    nudged off it."""
    y0 = draw(st.integers(0, d))
    weights = draw(st.lists(st.integers(0, 9), min_size=r, max_size=r))
    if not any(weights):
        weights[0] = 1
    rest = d + r * big_n - y0
    point = [Fraction(y0)] + [Fraction(rest * w, sum(weights)) for w in weights]
    if draw(st.booleans()):
        k = draw(st.integers(0, r))
        point[k] += Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 4)))
    return point


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5), st.integers(1, 8), st.integers(0, 20), st.data())
def test_closed_forms_match_the_vector_route(r, d, big_n, data):
    points = [data.draw(band_points(r, d, big_n)) for _ in range(3)]
    for m in range(d + 1):
        assert l_squared(r, d, big_n, m) == l_squared_oracle(r, d, big_n, m)
        for mp in range(m + 1, d + 1):
            assert separation_gap(r, d, m, mp, big_n) == separation_gap_oracle(
                r, d, m, mp, big_n
            )
        for y in points:
            assert band_contains(y, r, d, big_n, m) == band_contains_oracle(
                y, r, d, big_n, m
            )


@st.composite
def boundary_points(draw, r, d, big_n):
    """A point over a denominator s up to 10**40 that sits on a boundary of
    the band tests, or one step of 1/s past it.

    Either a point of the segment from z_m toward v_m, so y_0 is exactly
    the cap d - m, the radius is met exactly at t = 1 (v_m itself), and
    coordinates 1..r are permuted; or free numerators over s summing to
    D*s, zero and negative entries included.  Sometimes y_0 moves along
    the hyperplane by 1/s, and sometimes one coordinate moves by 1/s so the
    sum is off by exactly that."""
    s = draw(st.integers(1, 10**40))
    degree = d + r * big_n
    m = draw(st.integers(0, d))
    if draw(st.booleans()):
        t = Fraction(draw(st.one_of(st.just(s), st.integers(0, 2 * s))), s)
        z = [Fraction(d - m)] + [big_n + Fraction(m, r)] * r
        v = [Fraction(d - m), Fraction(m + big_n)] + [Fraction(big_n)] * (r - 1)
        point = [a + t * (b - a) for a, b in zip(z, v)]
        perm = draw(st.permutations(range(1, r + 1)))
        point = [point[0]] + [point[i] for i in perm]
    else:
        entry = st.one_of(st.just(0), st.integers(-s, degree * s))
        nums = draw(st.lists(entry, min_size=r, max_size=r))
        point = [Fraction(n, s) for n in nums + [degree * s - sum(nums)]]
    step = Fraction(draw(st.sampled_from([-1, 1])), s)
    kind = draw(st.sampled_from(["on", "cap", "sum"]))
    if kind == "cap":
        point[0] += step
        point[draw(st.integers(1, r))] -= step
    elif kind == "sum":
        point[draw(st.integers(0, r))] += step
    return point


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5), st.integers(1, 8), st.integers(0, 20), st.data())
def test_integer_band_test_matches_both_fraction_routes(r, d, big_n, data):
    y = data.draw(boundary_points(r, d, big_n))
    for m in range(d + 1):
        inside = band_contains(y, r, d, big_n, m)
        assert inside == band_contains_fraction_oracle(y, r, d, big_n, m)
        assert inside == band_contains_oracle(y, r, d, big_n, m)
    if big_n > d:
        assert unique_band(y, r, d, big_n) == unique_band_oracle(y, r, d, big_n)


# ---------------------------------------------------------------- band pick

@st.composite
def slice_points(draw, r, d, big_n):
    """A point on the segment from z_m toward v_m (past it up to t = 3/2),
    coordinates 1..r permuted; sometimes y_0 is jittered along the
    hyperplane, sometimes the point is pushed off it."""
    m = draw(st.integers(0, d))
    t = Fraction(draw(st.integers(0, 12)), 8)
    z = [Fraction(d - m)] + [big_n + Fraction(m, r)] * r
    v = [Fraction(d - m), Fraction(m + big_n)] + [Fraction(big_n)] * (r - 1)
    point = [a + t * (b - a) for a, b in zip(z, v)]
    perm = draw(st.permutations(range(1, r + 1)))
    point = [point[0]] + [point[i] for i in perm]
    eps = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 5)))
    kind = draw(st.sampled_from(["on", "jitter", "off"]))
    if kind == "jitter":
        k = draw(st.integers(1, r))
        point[0] += eps
        point[k] -= eps
    elif kind == "off":
        point[draw(st.integers(0, r))] += eps
    return point


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5), st.integers(1, 12), st.data())
def test_unique_band_matches_the_scan(r, d, data):
    big_n = data.draw(st.integers(d + 1, separation_threshold(r, d) + 3))
    for _ in range(4):
        y = data.draw(slice_points(r, d, big_n))
        assert unique_band(y, r, d, big_n) == unique_band_oracle(y, r, d, big_n)


def test_unique_band_below_threshold_sees_overlaps():
    # below the threshold bands overlap at r >= 3, so some points lie in
    # several bands; unique_band must answer None for exactly those
    several = 0
    # small (r, d) whose threshold exceeds d + 1 (N = d + 1 still overlaps)
    for r, d in [(3, 7), (4, 6), (5, 7)]:
        for big_n in range(d + 1, separation_threshold(r, d) + 1):
            for m in range(d + 1):
                z = [Fraction(d - m)] + [big_n + Fraction(m, r)] * r
                v = [Fraction(d - m), Fraction(m + big_n)] + [Fraction(big_n)] * (r - 1)
                for t in range(9):
                    y = [a + Fraction(t, 8) * (b - a) for a, b in zip(z, v)]
                    for shift in (0, Fraction(1, 3), Fraction(-1, 2)):
                        y_j = [y[0] + shift, y[1] - shift] + y[2:]
                        matches = [
                            k for k in range(d + 1)
                            if band_contains_oracle(y_j, r, d, big_n, k)
                        ]
                        several += len(matches) > 1
                        assert unique_band(y_j, r, d, big_n) == unique_band_oracle(
                            y_j, r, d, big_n
                        )
    assert several > 0


def test_unique_band_needs_n_above_d():
    with pytest.raises(ValueError):
        unique_band((2, 2), 1, 2, 2)
    assert unique_band((1, 4), 1, 2, 3) == 1  # the vertex v_1 at N = 3


def test_classify_makes_at_most_two_band_tests(monkeypatch):
    calls = []
    real = hesselink.band_contains
    monkeypatch.setattr(hesselink, "band_contains", lambda *a: calls.append(a) or real(*a))
    forms = [(m, f) for r, d in [(1, 3), (2, 4), (3, 6)] for m in range(d + 1)
             for f in gen_corpus(r, d, m, 3, seed=61)]
    # a degree whose d+1 band scan took seconds
    forms.append((199_999, parse_form("r=1 d=200000\n1 0 200000\n1 1 199999\n")))
    for m, f in forms:
        calls.clear()
        report = classify_at_origin(f)
        assert report.m_band == m and report.agreed
        assert 1 <= len(calls) <= 2
    assert len(calls) == 2


# ---------------------------------------------------------------- capture

def block_frame(rng, r):
    """Random frame fixing [1:0:...:0]: permutation of 1..r times a shear."""
    n = r + 1
    perm = list(range(1, n))
    rng.shuffle(perm)
    rows = [[0] * n for _ in range(n)]
    rows[0][0] = 1
    for col, row in zip(range(1, n), perm):
        rows[row][col] = 1
    shear = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(1, n):
        for j in range(i):
            shear[i][j] = rng.randint(-1, 1)
    return Frame(_linalg.mat_mul(rows, shear))


def test_band_capture_for_destabilized_forms():
    rng = random.Random(47)
    for _ in range(30):
        r = rng.choice([1, 2])
        d = rng.randint(1, 3)
        f = random_form(rng, r, d)
        m = multiplicity_at_origin(f)
        n = rng.randint(d + 1, d + 3)
        g = block_frame(rng, r)
        cert = torus_index(act(g, destabilize(f, n)))
        assert band_contains(cert.q, r, d, n, m)


def test_band_capture_gives_unique_band_at_threshold():
    rng = random.Random(53)
    for _ in range(20):
        r = rng.choice([1, 2])
        d = rng.randint(1, 3)
        f = random_form(rng, r, d)
        m = multiplicity_at_origin(f)
        n = separation_threshold(r, d)
        cert = torus_index(destabilize(f, n))
        matches = [k for k in range(d + 1) if band_contains(cert.q, r, d, n, k)]
        assert matches == [m]


# ---------------------------------------------------------------- frames

def test_default_frames_smallest_families():
    p = ProjPoint.parse("0,1")
    family = default_frames(1, p, 0)
    assert family == FrameFamily(frame_moving_to_origin(p), 0) and len(family) == 1
    assert family_members(family) == [frame_moving_to_origin(p)]
    family2 = default_frames(2, ProjPoint.parse("1,0,0"), 0)
    assert family_members(family2) == [identity_frame(3)]  # no permutations of 1, 2


def test_default_frames_fix_the_moved_point():
    p = ProjPoint.parse("1,2,1")
    family = default_frames(2, p, 1)
    mover = frame_moving_to_origin(p)
    members = family_members(family)
    assert members[len(members) // 2] == mover  # all entries 0
    origin = ProjPoint.origin(2)
    for frame in members:
        assert point_image(frame, p) == origin
    # budget 1, r = 2: 3 strictly lower entries, all distinct
    assert len(family) == len(members) == 27
    assert len(set(frame.rows for frame in members)) == 27


@pytest.mark.parametrize("r, point, budget", [
    (1, "0,1", 2), (2, "1,2,1", 1), (2, "1,0,0", 1), (3, "2,-1,3,5", 1), (3, "1/2,1/3,0,1", 0),
])
def test_default_frames_take_one_det_per_member(monkeypatch, r, point, budget):
    # no frame costs a det: the mover's completion has determinant 1 (it
    # tracks the sign through its swaps and negations), and the winner is a
    # unipotent times the mover, so neither goes through Frame's check
    calls = []
    det = _linalg.det

    def counted(a):
        calls.append(a)
        return det(a)

    monkeypatch.setattr(_linalg, "det", counted)
    family = default_frames(r, ProjPoint.parse(point), budget)
    assert len(family) == (2 * budget + 1) ** (r * (r + 1) // 2)
    assert calls == []
    worst_frame_search(random_form(random.Random(79 + r), r, 3), family)
    assert calls == []


def test_default_frames_refuse_large_families_before_building(monkeypatch):
    def no_build(v):
        raise AssertionError("the family was started")

    # frame_moving_to_origin itself refuses, so patch the completion it builds
    monkeypatch.setattr(forms, "_unimodular_completion", no_build)
    for r, budget in [(4, 1), (3, 2), (1, hesselink.MAX_FRAMES), (2, 10**50), (60, 1)]:
        with pytest.raises(ValueError, match="frames"):
            default_frames(r, ProjPoint.origin(r), budget)
    # budget 0 is always the mover alone, but no more coordinates than a
    # projection takes
    with pytest.raises(ValueError, match=f"1 to {MAX_DIM} coordinates, got 61"):
        default_frames(60, ProjPoint.origin(60), 0)
    with pytest.raises(AssertionError):
        default_frames(MAX_DIM - 1, ProjPoint.origin(MAX_DIM - 1), 0)


def test_a_family_built_directly_is_checked_like_default_frames():
    mover = frame_moving_to_origin(ProjPoint.parse("1,2,1,0"))
    with pytest.raises(ValueError, match="budget must be nonnegative"):
        FrameFamily(mover, -1)
    # 21^6 members at r=3, budget 10
    too_many = f"budget 10 at r=3 gives more than {hesselink.MAX_FRAMES} frames"
    with pytest.raises(ValueError, match=too_many):
        FrameFamily(mover, 10)
    assert len(FrameFamily(mover, 1)) == 729


@pytest.mark.parametrize("budget", [1.5, 1.0, Fraction(1), True])
def test_a_budget_must_be_an_int(budget):
    with pytest.raises(ValueError, match="budget must be an integer"):
        default_frames(1, ProjPoint.origin(1), budget)
    mover = frame_moving_to_origin(ProjPoint.origin(1))
    with pytest.raises(ValueError, match="budget must be an integer"):
        FrameFamily(mover, budget)


@pytest.mark.parametrize("r, terms", [
    # cuspidal plane cubic x0*x1^2 + x2^3
    (2, {(1, 2, 0): 1, (0, 0, 3): 1}),
    # quadric cone x1*x2 + x3^2, a double point at [1:0:0:0]
    (3, {(0, 1, 1, 0): 1, (0, 0, 0, 2): 1}),
])
def test_worst_frame_search_ignores_the_permutations(r, terms):
    # the permutations only permute the support, so the plain loop over the
    # family with them returns the frame and certificate of the search
    rng = random.Random(61 + r)
    g = random_unimodular_frame(rng, r + 1)
    f = act(g, HomogeneousForm(r, sum(next(iter(terms))), terms))
    p = point_image(g, ProjPoint.origin(r))
    ours = default_frames(r, p, 1)
    theirs = permuted_frames(r, p, 1)
    assert theirs[: len(ours)] == family_members(ours)
    best = worst_frame_search(f, ours)
    assert best[1].delta_sq > 0
    assert best == worst_frame_search_oracle(f, theirs)


def test_worst_frame_search_beats_identity_on_hidden_instability():
    # x_0^2 + 2 x_0 x_1 + x_1^2 = (x_0 + x_1)^2 is torus semistable as given,
    # and the family at the origin holds the identity, but its first member,
    # x_0 -> x_0 - x_1, moves the double point [1:-1] to [0:1]
    f = HomogeneousForm(1, 2, {(2, 0): Fraction(1), (1, 1): Fraction(2), (0, 2): Fraction(1)})
    assert torus_index(f).delta_sq == 0
    family = default_frames(1, ProjPoint.origin(1), 1)
    assert identity_frame(2) in family_members(family)
    best_frame, best_cert = worst_frame_search(f, family)
    assert best_cert.delta_sq == 2
    assert multiplicity_at(act(best_frame, f), ProjPoint.parse("0,1")) == 2


def test_worst_frame_search_is_deterministic_on_ties():
    # x_0 -> x_0 + s*x_1 fixes x_1^2, so every member ties and the first,
    # the shear by -1, wins
    f = HomogeneousForm(1, 2, {(0, 2): Fraction(1)})
    family = default_frames(1, ProjPoint.origin(1), 1)
    first = family_members(family)[0]
    assert first == Frame([[1, 0], [-1, 1]])
    assert worst_frame_search(f, family) == (first, torus_index(f))


@st.composite
def search_cases(draw):
    """A form and a frame family of r <= 3."""
    r = draw(st.integers(1, 3))
    budget = draw(st.integers(0, 1 if r == 3 else 2))
    d = draw(st.integers(1, 4))
    rng = random.Random(draw(st.integers(0, 10**6)))
    kind = draw(st.sampled_from(["integer", "rational", "power"]))
    if kind == "power":
        # one moved monomial: many members share a support, so delta_sq ties
        base = HomogeneousForm(r, d, {random_exponent(rng, r, d): Fraction(1)})
        f = act(random_unimodular_frame(rng, r + 1), base)
    else:
        f = random_form(rng, r, d)
        if kind == "rational":
            f = HomogeneousForm(r, d, {
                e: c / rng.choice([1, 2, 3, 7, 2**40]) for e, c in f.terms.items()
            })
    return f, default_frames(r, random_point(rng, r), budget)


@settings(max_examples=60, deadline=None)
@given(search_cases())
def test_every_member_the_search_projects_is_valid_by_construction(case):
    # the search builds each projected member unchecked; every check of
    # the public constructor passes on it and changes nothing
    f, family = case
    with pytest.MonkeyPatch.context() as patch:
        projected = _count_projections(patch)
        worst_frame_search(f, family)
    assert projected
    for g in projected:
        assert HomogeneousForm(g.r, g.d, g.terms) == g


@settings(max_examples=60, deadline=None)
@given(search_cases())
def test_worst_frame_search_matches_the_plain_loop(case):
    # the frame by value, since the search builds only the winner, and the
    # certificate of the first member with the largest delta_sq
    f, family = case
    assert worst_frame_search(f, family) == worst_frame_search_oracle(f, family_members(family))


@st.composite
def high_multiplicity_cases(draw):
    """A form, a point p of multiplicity m > r*d/(r+1) on it, and the family at p.

    The form is g moving one whose x0-degrees stop at d - m, with a term
    there, so the family's mover brings p back to [1:0:...:0] and every
    moved form's top x0-degree is d - m.  p lies off the coordinate points.
    """
    r = draw(st.integers(1, 3))
    budget = draw(st.integers(0, 1 if r == 3 else 2))
    d = draw(st.integers(1, 5))
    m = draw(st.integers(r * d // (r + 1) + 1, d))
    den = draw(st.sampled_from([1, 2, 3, 7, 2**40]))
    rng = random.Random(draw(st.integers(0, 10**6)))
    terms = {}
    for e0 in [d - m] + [rng.randint(0, d - m) for _ in range(rng.randint(0, 3))]:
        coeff = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), den)
        terms[(e0,) + random_exponent(rng, r - 1, d - e0)] = coeff
    # a lower unipotent with entries in the budget fixes [1:0:...:0], and a
    # member undoes it, so the moved forms of a chain may lose terms
    lower = Frame([[int(i == j) or (rng.randint(-budget, budget) if j < i else 0)
                    for j in range(r + 1)] for i in range(r + 1)])
    while True:
        g = random_unimodular_frame(rng, r + 1)
        p = point_image(g, ProjPoint.origin(r))
        if sum(map(bool, p.coords)) >= 2:
            break
    f = act(g, act(lower, HomogeneousForm(r, d, terms)))
    return f, p, m, default_frames(r, p, budget)


def _pruned_loop_projections(f, family):
    """The moved forms the plain loop with the witness rule projects, in order."""
    witnesses, projected = [], []
    for g in family_members(family):
        moved = act(g, f)
        if any(set(moved.support()) >= w for w in witnesses):
            continue
        projected.append(moved)
        witnesses.append({e for e, _ in torus_index(moved).hull_weights})
    return projected


@settings(max_examples=40, deadline=None)
@given(high_multiplicity_cases())
def test_worst_frame_search_matches_the_plain_loop_at_a_point_of_high_multiplicity(case):
    # where witnesses lie wholly at the top x0-degree, whole chains of the
    # walk are skipped; the frame and certificate stay the plain loop's,
    # and the projections those of the plain loop with the witness rule
    f, p, m, family = case
    assert multiplicity_at(f, p) == m
    expected = _pruned_loop_projections(f, family)
    with pytest.MonkeyPatch.context() as patch:
        projected = _count_projections(patch)
        best = worst_frame_search(f, family)
    assert best == worst_frame_search_oracle(f, family_members(family))
    assert projected == expected


def test_worst_frame_search_matches_the_plain_loop_on_a_whole_r3_family():
    rng = random.Random(67)
    f = act(random_unimodular_frame(rng, 4), HomogeneousForm(3, 3, {(1, 1, 0, 1): 1, (0, 0, 3, 0): -2}))
    family = default_frames(3, random_point(rng, 3), 1)
    assert worst_frame_search(f, family) == worst_frame_search_oracle(f, family_members(family))
    # a family whose winner changes if the rows off column 0 are applied
    # from the top down, which is act by R_3 * R_2 in place of R_2 * R_3
    rng = random.Random(31)
    f = random_form(rng, 3, 3)
    family = default_frames(3, random_point(rng, 3), 1)
    assert worst_frame_search(f, family) == worst_frame_search_oracle(f, family_members(family))


@pytest.mark.parametrize("r, budget", [(1, 3), (2, 1), (2, 2), (3, 1)])
def test_a_search_takes_one_substitution(monkeypatch, r, budget):
    # act moves f by the mover, and every member is reached from there by
    # transvections: the projected forms are moves of f by members, in order
    rng = random.Random(71 + r)
    f = random_form(rng, r, 3)
    family = default_frames(r, random_point(rng, r), budget)
    images = [act(g, f) for g in family_members(family)]
    calls = []
    moved = hesselink.act

    def counted(g, form):
        calls.append(g)
        return moved(g, form)

    monkeypatch.setattr(hesselink, "act", counted)
    projected = _count_projections(monkeypatch)
    worst_frame_search(f, family)
    assert calls == [family.mover]
    order = [images.index(form) for form in projected]
    assert order == sorted(set(order))


def _count_projections(monkeypatch):
    projected = []
    index = hesselink.torus_index

    def counted(form):
        projected.append(form)
        return index(form)

    monkeypatch.setattr(hesselink, "torus_index", counted)
    return projected


def _check_pruned_search(monkeypatch, f, family, projections):
    """The search's result is the plain loop's, from `projections` projections."""
    expected = worst_frame_search_oracle(f, family_members(family))
    projected = _count_projections(monkeypatch)
    best = worst_frame_search(f, family)
    assert best == expected
    assert len(projected) == projections
    return best, projected


def test_dominated_members_are_not_projected(monkeypatch):
    # (x0 + x1)^2 x1: the first shear, x0 -> x0 - x1, moves it to x0^2 x1,
    # and the other members keep (2, 1) in their support, so they can at
    # most tie it
    f = HomogeneousForm(1, 3, {(2, 1): 1, (1, 2): 2, (0, 3): 1})
    family = default_frames(1, ProjPoint.origin(1), 1)
    assert family_members(family) == [
        Frame([[1, 0], [-1, 1]]), identity_frame(2), Frame([[1, 0], [1, 1]])
    ]
    _check_pruned_search(monkeypatch, f, family, 1)


# the first member of default_frames(2, origin, 1), and its inverse: a form
# moved by FIRST_INVERSE first is the form itself at the family's first member
FIRST = Frame([[1, 0, 0], [-1, 1, 0], [-1, -1, 1]])
FIRST_INVERSE = Frame([[1, 0, 0], [1, 1, 0], [2, 1, 1]])
ORIGIN_FAMILY = default_frames(2, ProjPoint.origin(2), 1)


def test_a_superset_of_a_projected_support_is_not_projected(monkeypatch):
    # x1^3 + x2^3 projects to the middle of the segment from (0,3,0) to
    # (0,0,3), at squared distance 3/2 from xi.  Without x0 its members are
    # the shears x1 -> x1 + t*x2, t = 0, 1, 2, chain by chain; t = 1, 2 add
    # (0,2,1) and (0,1,2), each at squared distance 2, so no single point
    # is as near xi as the best, but the supports hold the first, and with
    # it the first's witness
    f0 = HomogeneousForm(2, 3, {(0, 3, 0): 1, (0, 0, 3): 1})
    f = act(FIRST_INVERSE, f0)
    assert family_members(ORIGIN_FAMILY)[0] == FIRST and act(FIRST, f) == f0
    supports = {act(g, f).support() for g in family_members(ORIGIN_FAMILY)}
    first = set(f0.support())
    assert len(supports) == 2 and all(set(s) >= first for s in supports)
    xi = barycenter(2, 3)
    assert all(norm_sq(sub(e, xi)) > torus_index(f0).delta_sq
               for s in supports if set(s) > first for e in s)
    _, projected = _check_pruned_search(monkeypatch, f, ORIGIN_FAMILY, 1)
    assert projected == [f0]


# -x2^2 - 2*x0*x2 + x1*x2 = x2*(x1 - x2 - 2*x0), at squared distance 1/6
PAIR_OF_LINES = HomogeneousForm(2, 2, {(0, 0, 2): -1, (1, 0, 1): -2, (0, 1, 1): 1})
# x1 -> x1 + x2 cancels x2^2, leaving x1*x2 - 2*x0*x2
CANCELLING_SHEAR = Frame([[1, 0, 0], [0, 1, 0], [0, 1, 1]])


def test_a_support_holding_a_witness_is_not_projected(monkeypatch):
    # moved by CANCELLING_SHEAR first, the pair of lines has lost x2^2; the
    # first chain's x1 -> x1 - x2 brings it back, and the identity, in the
    # second chain, leaves it cancelled.  The first member's nearest point
    # is the midpoint of (1,0,1) and (0,1,1), its witness; the cancelled
    # support is exactly that witness, a proper subset of the first
    # support with no point as near xi as the best (2/3 against 1/6), so
    # only the witness shows it can at most tie
    f = act(CANCELLING_SHEAR, PAIR_OF_LINES)
    first_member = family_members(ORIGIN_FAMILY)[0]
    first, cancelled = set(act(first_member, f).support()), set(f.support())
    witness = {e for e, _ in torus_index(act(first_member, f)).hull_weights}
    assert cancelled == witness < first
    xi = barycenter(2, 2)
    assert torus_index(f).delta_sq == Fraction(1, 6)
    assert all(norm_sq(sub(e, xi)) == Fraction(2, 3) for e in cancelled)
    _check_pruned_search(monkeypatch, f, ORIGIN_FAMILY, 1)


def test_the_witness_of_a_member_that_is_not_the_best_still_prunes(monkeypatch):
    # x1^2*(x1 - 3*x2) under the shears x1 -> x1 + t*x2, t = -1, 0, 1,
    # chain by chain: t = -1 spans the segment, with the witness (0,3,0),
    # (0,1,2); t = 0 is the best, x1^3 - 3*x1^2*x2 with the witness
    # (0,2,1); t = 1 gives x1^3 - 3*x1*x2^2 - 2*x2^3, whose support holds
    # the first member's witness but not the best's
    f = HomogeneousForm(2, 3, {(0, 3, 0): 1, (0, 2, 1): -3})
    members = family_members(ORIGIN_FAMILY)
    first, last = act(members[0], f), act(members[-1], f)
    witness = {e for e, _ in torus_index(first).hull_weights}
    (frame, cert), _ = _check_pruned_search(monkeypatch, f, ORIGIN_FAMILY, 2)
    assert act(frame, f) == f and cert.delta_sq == 2 > torus_index(first).delta_sq
    assert set(last.support()) >= witness
    assert not set(last.support()) >= {e for e, _ in cert.hull_weights}


# x0*x1*x2 + x0*x3^2 + x1^3, a double point at [1:0:0:0]
R3_CUBIC = HomogeneousForm(3, 3, {(1, 1, 1, 0): 1, (1, 0, 0, 2): 1, (0, 3, 0, 0): 1})


@pytest.mark.parametrize("point, projections", [("1,0,0,0", 7), ("2,1,-1,3", 4)])
def test_an_r3_family_projects_few_of_its_729_members(monkeypatch, point, projections):
    family = default_frames(3, ProjPoint.parse(point), 1)
    assert len(family) == 729
    _check_pruned_search(monkeypatch, R3_CUBIC, family, projections)


def _count_shifts(monkeypatch):
    shifts = []
    shift = hesselink._taylor_shift

    def counted(poly, j, i, s):
        shifts.append((j, i, s))
        return shift(poly, j, i, s)

    monkeypatch.setattr(hesselink, "_taylor_shift", counted)
    return shifts


# the plane cone x1^3 + x2^3, a triple point at [1:0:0]
CONE = HomogeneousForm(2, 3, {(0, 3, 0): 1, (0, 0, 3): 1})
# the README quintic x1^3 (x0 - x1)(x0 - 2 x1), a triple point at [1:0]
QUINTIC = HomogeneousForm(1, 5, {(2, 3): 1, (1, 4): -3, (0, 5): 2})
# frames moving both off their points, to [1:-1:0] and [1:-1]
CONE_MOVE = Frame([[2, 1, 0], [1, 1, 0], [0, 1, 1]])
QUINTIC_MOVE = Frame([[2, 1], [1, 1]])


@pytest.mark.parametrize("f, family, shifts", [
    # walking every member takes 38 shifts.  The chain x1 -> x1 - x2 gives
    # x1^3 - 3*x1^2*x2 + 3*x1*x2^2, whose witness (0,2,1), (0,1,2) lies at
    # x0-degree 0, the top, so the chain ends after its first member: one
    # shift for the chain, two for the column.  The identity chain lacks
    # (0,2,1) and ends the same way after two shifts, with the witness
    # (0,3,0), (0,0,3); the chain x1 -> x1 + x2 holds both witnesses, so
    # its one shift is the last
    (CONE, default_frames(2, ProjPoint.origin(2), 1), 6),
    # walking all 7 members takes 7 shifts; the first member's witness
    # lies at x0-degree 2, the top, so the search stops after one
    (QUINTIC, default_frames(1, ProjPoint.parse("1,0"), 3), 1),
    # the same forms moved: the top x0-degree is that of the form moved
    # back by the mover, not of the form given; walking every member takes
    # 38 and 7 shifts again
    (act(CONE_MOVE, CONE), default_frames(2, ProjPoint.parse("1,-1,0"), 1), 4),
    (act(QUINTIC_MOVE, QUINTIC), default_frames(1, ProjPoint.parse("1,-1"), 3), 1),
])
def test_a_witness_at_the_top_x0_degree_ends_its_chain(monkeypatch, f, family, shifts):
    # the search projects what the plain loop with the witness rule
    # projects, in the same order, and shifts only up to the last of them
    expected = _pruned_loop_projections(f, family)
    taken = _count_shifts(monkeypatch)
    _, projected = _check_pruned_search(monkeypatch, f, family, len(expected))
    assert projected == expected
    assert len(taken) == shifts


def test_worst_frame_search_rejects_a_frame_of_the_wrong_size():
    f = HomogeneousForm(1, 2, {(0, 2): 1})
    with pytest.raises(ValueError, match="frame size 3"):
        worst_frame_search(f, default_frames(2, ProjPoint.origin(2), 0))


# ---------------------------------------------------------------- r = 1

def _binary_product(factors):
    """Coefficients of prod (a*x0 + b*x1)^k over (a, b, k), as exponent terms."""
    poly = {(0, 0): 1}
    for a, b, k in factors:
        for _ in range(k):
            out = {}
            for (e0, e1), c in poly.items():
                out[(e0 + 1, e1)] = out.get((e0 + 1, e1), 0) + a * c
                out[(e0, e1 + 1)] = out.get((e0, e1 + 1), 0) + b * c
            poly = out
    return {e: c for e, c in poly.items() if c}


LINEAR_FACTORS = st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 4)).filter(
    lambda t: t[0] or t[1]
)


def test_binary_index_oracle_on_the_readme_quintic():
    f = parse_form("r=1 d=5\n1 2 3\n-3 1 4\n2 0 5\n")
    assert f.terms == _binary_product([(0, 1, 3), (1, -1, 1), (1, -2, 1)])
    assert binary_index_oracle(f) == (3, Fraction(1, 2))
    _, cert = worst_frame_search(f, default_frames(1, ProjPoint.parse("1,0"), 1))
    assert cert.delta_sq == Fraction(1, 2)


@settings(max_examples=60, deadline=None)
@given(st.lists(LINEAR_FACTORS, min_size=1, max_size=3),
       st.lists(st.integers(-3, 3), min_size=4, max_size=4).filter(
           lambda m: m[0] * m[3] != m[1] * m[2]))
def test_no_frame_moves_a_binary_form_past_its_multiplicity(factors, entries):
    # torus_index(act(g, f)) <= 2*max(0, m_max - d/2)^2 for every integer
    # frame g, with m_max from Yun's decomposition of f alone
    f = HomogeneousForm(1, sum(k for _, _, k in factors), _binary_product(factors))
    m_max, bound = binary_index_oracle(f)
    assert m_max == max(multiplicity_at(f, ProjPoint((b, -a))) for a, b, _ in factors)
    g = Frame([entries[:2], entries[2:]])
    assert torus_index(act(g, f)).delta_sq <= bound


@settings(max_examples=60, deadline=None)
@given(LINEAR_FACTORS, st.lists(LINEAR_FACTORS, max_size=2), st.integers(0, 10**6))
def test_the_frame_search_attains_the_bound_above_half_the_degree(root, rest, seed):
    # a point of multiplicity m > d/2 is the only one, and the family
    # around it moves it to [1:0], where the support stops at x0^(d-m)
    a, b, _ = root
    d_rest = sum(k for _, _, k in rest)
    m = d_rest + 1 + random.Random(seed).randint(0, 2)
    f = HomogeneousForm(1, m + d_rest, _binary_product([(a, b, m)] + list(rest)))
    m_max, bound = binary_index_oracle(f)
    assert m_max >= m > f.d / 2 and bound > 0
    with pytest.MonkeyPatch.context() as patch:
        projected = _count_projections(patch)
        _, cert = worst_frame_search(f, default_frames(1, ProjPoint((b, -a)), 1))
    assert cert.delta_sq == bound
    # the first member's witness is the one support point at x0^(d-m)
    assert len(projected) == 1


# ---------------------------------------------------------------- labels

def test_stratum_label_from_certificate():
    cert = torus_index(HomogeneousForm(2, 3, {(0, 3, 0): Fraction(1)}))
    label = StratumLabel.from_certificate(cert)
    assert label.lambda_rep.weights == (2, -1, -1)
    assert label.delta_sq == 6
    assert label.scale == 1
    semistable = torus_index(
        HomogeneousForm(1, 2, {(2, 0): Fraction(1), (0, 2): Fraction(1)})
    )
    with pytest.raises(ValueError):
        StratumLabel.from_certificate(semistable)


def test_stratum_label_validation():
    from hypermult import OneParamSubgroup

    with pytest.raises(ValueError):
        StratumLabel(OneParamSubgroup((-1, 1)), Fraction(2), Fraction(1))  # not sorted
    with pytest.raises(ValueError):
        StratumLabel(OneParamSubgroup((1, -1)), Fraction(2), Fraction(2))  # norm mismatch
    with pytest.raises(ValueError, match="delta_sq > 0"):
        StratumLabel(OneParamSubgroup((1, -1)), Fraction(0), Fraction(1))
    with pytest.raises(ValueError, match="scale must be positive"):
        StratumLabel(OneParamSubgroup((1, -1)), Fraction(2), Fraction(-1))
    label = StratumLabel(OneParamSubgroup((1, -1)), Fraction(2), Fraction(1))
    assert label.delta_sq == 2


def test_band_params_validation():
    with pytest.raises(ValueError):
        BandParams(1, 2, 3, 5)
    with pytest.raises(ValueError):
        BandParams(1, 0, 3, 0)
    assert BandParams(1, 2, 3, 1).m == 1


NON_INT_BAND_PARAMETERS = {
    "BandParams_float": lambda: BandParams(1, 2, 3.0, 1),
    "BandParams_bool": lambda: BandParams(True, 2, 3, 1),
    "band_contains": lambda: band_contains((1, 2), 1, 2, Fraction(9, 2), 0),  # was False
    "unique_band": lambda: unique_band((1, 2), 1, 2, 4.5),  # was None
    "l_squared": lambda: l_squared(1, 2, 4.5, 0),  # was TypeError
    "separation_gap": lambda: separation_gap(1, 2, 0, 1, 4.5),
    "separation_gap_m_prime": lambda: separation_gap(1, 2, 0, 1.5, 5),  # was TypeError
    "separation_threshold": lambda: separation_threshold(1.5, 2),  # was TypeError
    "pair_minima": lambda: pair_minima(1, 2.0),  # was TypeError
    "gen_corpus": lambda: gen_corpus(1, 2, 1.0, 1, 0),
}


@pytest.mark.parametrize("call", NON_INT_BAND_PARAMETERS.values(), ids=NON_INT_BAND_PARAMETERS)
def test_band_parameters_must_be_ints(call):
    with pytest.raises(ValueError, match="must be an integer, got"):
        call()


def test_unique_band_checks_the_dimension_before_reading_y0():
    with pytest.raises(ValueError, match="point dimension must be r\\+1"):
        unique_band((), 1, 2, 4)  # was IndexError
    with pytest.raises(ValueError, match="point dimension must be r\\+1"):
        unique_band((1, 2, 3), 1, 2, 4)


BINARY = HomogeneousForm(1, 2, {(2, 0): 1, (1, 1): 1})
BINARY_LABEL = StratumLabel(OneParamSubgroup((1, -1)), Fraction(2), Fraction(1))
LONG_POINT = ProjPoint((1, 0, 0))  # three coordinates for the r=1 form


@pytest.mark.parametrize("call, message", [
    (lambda: band_contains((1, 2, 3), 1, 2, 4, 0), "point dimension must be r\\+1"),
    (lambda: default_frames(0, ProjPoint.origin(1), 0), "need r >= 1"),
    (lambda: default_frames(2, ProjPoint.origin(1), 0), "point dimension must be r\\+1"),
    (lambda: multiplicity_at(BINARY, LONG_POINT), "point dimension must be r\\+1"),
    (lambda: classify_at(BINARY, LONG_POINT), "point dimension must be r\\+1"),
    (lambda: bound_check(BINARY, BINARY_LABEL, [LONG_POINT]), "point dimension must be r\\+1"),
], ids=[
    "band_contains", "default_frames_r0", "default_frames_dimension",
    "multiplicity_at", "classify_at", "bound_check",
])
def test_a_point_or_r_of_the_wrong_size_is_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()
