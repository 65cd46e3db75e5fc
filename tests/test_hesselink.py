import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hypermult import (
    BandParams,
    Frame,
    HomogeneousForm,
    ProjPoint,
    StratumLabel,
    act,
    band_contains,
    barycenter,
    classify_at_origin,
    default_frames,
    destabilize,
    frame_moving_to_origin,
    gen_corpus,
    l_squared,
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
from hypermult import _linalg, hesselink
from hypermult.hesselink import unique_band
from hypermult._linalg import norm_sq, sub, vec
from oracle import (
    band_contains_oracle,
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


def test_threshold_equals_the_all_pairs_maximum():
    # the threshold checks only the pairs (0, 1) and (d-1, d)
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
    assert family == [frame_moving_to_origin(p)]
    family2 = default_frames(2, ProjPoint.parse("1,0,0"), 0)
    assert family2 == [Frame.identity(3)]  # no permutations of coordinates 1, 2


def test_default_frames_fix_the_moved_point():
    rng = random.Random(59)
    p = ProjPoint.parse("1,2,1")
    family = default_frames(2, p, 1)
    mover = frame_moving_to_origin(p)
    assert any(frame == mover for frame in family)
    origin = ProjPoint.origin(2)
    for frame in family:
        assert point_image(frame, p) == origin
    # budget 1, r = 2: 3 strictly lower entries, all distinct
    assert len(family) == 27
    assert len(set(frame.rows for frame in family)) == 27


@pytest.mark.parametrize("r, point, budget", [
    (1, "0,1", 2), (2, "1,2,1", 1), (2, "1,0,0", 1), (3, "2,-1,3,5", 1), (3, "1/2,1/3,0,1", 0),
])
def test_default_frames_take_one_det_per_member(monkeypatch, r, point, budget):
    # each member is one Frame (one det); the one mover costs two more, the
    # completion's sign check and its own Frame
    calls = []
    det = _linalg.det

    def counted(a):
        calls.append(a)
        return det(a)

    monkeypatch.setattr(_linalg, "det", counted)
    family = default_frames(r, ProjPoint.parse(point), budget)
    assert len(family) == (2 * budget + 1) ** (r * (r + 1) // 2)
    assert len(calls) == len(family) + 2


def test_default_frames_refuse_large_families_before_building(monkeypatch):
    def no_build(p):
        raise AssertionError("the family was started")

    monkeypatch.setattr(hesselink, "frame_moving_to_origin", no_build)
    for r, budget in [(4, 1), (3, 2), (1, hesselink.MAX_FRAMES), (2, 10**50), (60, 1)]:
        with pytest.raises(ValueError, match="frames"):
            default_frames(r, ProjPoint.origin(r), budget)
    # budget 0 is always the mover alone, whatever r
    with pytest.raises(AssertionError):
        default_frames(60, ProjPoint.origin(60), 0)


@pytest.mark.parametrize("r, terms", [
    # cuspidal plane cubic x0*x1^2 + x2^3
    (2, {(1, 2, 0): 1, (0, 0, 3): 1}),
    # quadric cone x1*x2 + x3^2, a double point at [1:0:0:0]
    (3, {(0, 1, 1, 0): 1, (0, 0, 0, 2): 1}),
])
def test_worst_frame_search_ignores_the_permutations(r, terms):
    # the permutations only permute the support, so the search over the
    # family without them returns the same frame and certificate
    rng = random.Random(61 + r)
    g = random_unimodular_frame(rng, r + 1)
    f = act(g, HomogeneousForm(r, sum(next(iter(terms))), terms))
    p = point_image(g, ProjPoint.origin(r))
    ours = default_frames(r, p, 1)
    theirs = permuted_frames(r, p, 1)
    assert theirs[: len(ours)] == ours
    best = worst_frame_search(f, ours)
    assert best[1].delta_sq > 0
    assert best == worst_frame_search(f, theirs)


def test_worst_frame_search_beats_identity_on_hidden_instability():
    # x_0^2 + 2 x_0 x_1 + x_1^2 = (x_0 + x_1)^2 is torus semistable as given
    # but a shear reveals a double point
    f = HomogeneousForm(1, 2, {(2, 0): Fraction(1), (1, 1): Fraction(2), (0, 2): Fraction(1)})
    assert torus_index(f).delta_sq == 0
    frames = [Frame.identity(2), Frame([[1, -1], [0, 1]]), Frame([[1, 0], [-1, 1]])]
    best_frame, best_cert = worst_frame_search(f, frames)
    assert best_cert.delta_sq == 2
    assert multiplicity_at_origin(act(best_frame, f)) == 2


def test_worst_frame_search_is_deterministic_on_ties():
    f = HomogeneousForm(1, 2, {(0, 2): Fraction(1)})
    a = Frame.identity(2)
    b = Frame([[1, 0], [0, 2]])  # same support, same certificate
    frame, _ = worst_frame_search(f, [a, b])
    assert frame == a
    frame2, _ = worst_frame_search(f, [b, a])
    assert frame2 == b
    with pytest.raises(ValueError):
        worst_frame_search(f, [])


def _sheared(rng, frame):
    """frame with k_i * row 0 added to each row i >= 1, k_i in -5..5."""
    head, *rest = frame.rows
    ks = [rng.randint(-5, 5) for _ in rest]
    return Frame([head] + [[x + k * h for x, h in zip(row, head)] for row, k in zip(rest, ks)])


@st.composite
def search_cases(draw):
    """A form, a frame list and how the list was made from a family."""
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
    frames = default_frames(r, random_point(rng, r), budget)
    order = draw(st.sampled_from(
        ["family", "reversed", "shuffled", "duplicates", "sheared", "mixed"]
    ))
    if order == "reversed":
        frames.reverse()
    elif order == "shuffled":
        rng.shuffle(frames)
    elif order == "duplicates":
        frames = rng.choices(frames, k=len(frames) + 3)
    elif order == "sheared":
        frames = [_sheared(rng, g) if rng.random() < 0.7 else g for g in frames]
    elif order == "mixed":
        # other row 0s too, so several chain heads interleave
        frames = frames + [_sheared(rng, random_unimodular_frame(rng, r + 1)) for _ in range(9)]
        rng.shuffle(frames)
    if r == 3 and budget == 1:
        frames = frames[: rng.randint(1, 120)]
    return f, frames


@settings(max_examples=80, deadline=None)
@given(search_cases())
def test_worst_frame_search_matches_the_plain_loop(case):
    f, frames = case
    given_frames = list(frames)
    ours = worst_frame_search(f, frames)
    assert ours == worst_frame_search_oracle(f, frames)
    # the same frame object, the first of its kind, so ties break alike
    assert ours[0] is worst_frame_search_oracle(f, frames)[0]
    assert frames == given_frames and len(frames) == len(given_frames)
    assert worst_frame_search(f, iter(frames)) == ours


def test_worst_frame_search_matches_the_plain_loop_on_a_whole_r3_family():
    rng = random.Random(67)
    f = act(random_unimodular_frame(rng, 4), HomogeneousForm(3, 3, {(1, 1, 0, 1): 1, (0, 0, 3, 0): -2}))
    frames = default_frames(3, random_point(rng, 3), 1)
    assert worst_frame_search(f, frames) == worst_frame_search_oracle(f, frames)


def _count_substitutions(monkeypatch):
    calls = []
    substitute = hesselink._substitute

    def counted(rows, poly):
        calls.append(rows)
        return substitute(rows, poly)

    monkeypatch.setattr(hesselink, "_substitute", counted)
    return calls


def _key_changes(frames):
    keys = [hesselink._chain_of(g.rows)[0] for g in frames]
    return sum(a != b for a, b in zip(keys, keys[1:]))


@pytest.mark.parametrize("r, budget, chains", [(1, 3, 1), (2, 1, 3), (2, 2, 5), (3, 1, 27)])
def test_a_family_takes_one_substitution_per_chain(monkeypatch, r, budget, chains):
    # members that differ only in column 0 are Taylor shifts of one another,
    # and the family lists each chain's members together
    rng = random.Random(71 + r)
    f = random_form(rng, r, 3)
    frames = default_frames(r, random_point(rng, r), budget)
    assert _key_changes(frames) == chains - 1
    calls = _count_substitutions(monkeypatch)
    worst_frame_search(f, frames)
    assert chains == (2 * budget + 1) ** (r * (r - 1) // 2)
    assert len(calls) == chains


def test_interleaved_chains_are_substituted_again(monkeypatch):
    # sorted by their shifts, the members of an r=2 family's 3 chains
    # interleave; each member whose chain differs from the one before it
    # gets a full substitution, and the answer stays the plain loop's
    rng = random.Random(73)
    f = random_form(rng, 2, 3)
    frames = sorted(default_frames(2, random_point(rng, 2), 1),
                    key=lambda g: hesselink._chain_of(g.rows)[1])
    changes = _key_changes(frames)
    assert changes > 2
    calls = _count_substitutions(monkeypatch)
    assert worst_frame_search(f, frames) == worst_frame_search_oracle(f, frames)
    assert len(calls) == changes + 1


def _count_projections(monkeypatch):
    projected = []
    index = hesselink.torus_index

    def counted(form):
        projected.append(form)
        return index(form)

    monkeypatch.setattr(hesselink, "torus_index", counted)
    return projected


def test_dominated_members_are_not_projected(monkeypatch):
    # (x0 + x1)^2 x1: the first shear moves it to x0^2 x1, and the other
    # members keep (2, 1) in their support, so they can at most tie it
    f = HomogeneousForm(1, 3, {(2, 1): 1, (1, 2): 2, (0, 3): 1})
    projected = _count_projections(monkeypatch)
    frames = [Frame([[1, 0], [-1, 1]]), Frame.identity(2), Frame([[1, 0], [1, 1]])]
    frame, cert = worst_frame_search(f, frames)
    assert (frame, cert) == worst_frame_search_oracle(f, frames)
    assert len(projected) == 1


def test_a_superset_of_a_projected_support_is_not_projected(monkeypatch):
    # x1^3 + x2^3 projects to the middle of the segment from (0,3,0) to
    # (0,0,3), at squared distance 3/2 from xi; the shear x2 -> x1 + x2
    # adds (0,2,1) and (0,1,2), each at squared distance 2, so no single
    # point is as near xi as the best, but the second support holds the
    # first, and with it the first's witness
    f = HomogeneousForm(2, 3, {(0, 3, 0): 1, (0, 0, 3): 1})
    frames = [Frame.identity(3), Frame([[1, 0, 0], [0, 1, 0], [0, 1, 1]])]
    first, second = (set(act(g, f).support()) for g in frames)
    assert second > first
    xi = barycenter(2, 3)
    best = torus_index(f).delta_sq
    assert all(norm_sq(sub(e, xi)) > best for e in second)
    projected = _count_projections(monkeypatch)
    assert worst_frame_search(f, frames) == worst_frame_search_oracle(f, frames)
    assert len(projected) == 1


# -x1^2 - 2*x0*x1 + x1*x2 = x1*(x2 - x1 - 2*x0), at squared distance 1/6
PAIR_OF_LINES = HomogeneousForm(2, 2, {(0, 2, 0): -1, (1, 1, 0): -2, (0, 1, 1): 1})
# x2 -> x1 + x2 cancels x1^2, leaving -2*x0*x1 + x1*x2
CANCELLING_SHEAR = Frame([[1, 0, 0], [0, 1, 1], [0, 0, 1]])


def test_a_support_holding_a_witness_is_not_projected(monkeypatch):
    # the first member's nearest point is the midpoint of (1,1,0) and
    # (0,1,1), its witness; the shear's support is exactly that witness, a
    # proper subset of the first support with no point as near xi as the
    # best (2/3 against 1/6), so only the witness shows it can at most tie
    f = PAIR_OF_LINES
    frames = [Frame.identity(3), CANCELLING_SHEAR]
    first, second = (set(act(g, f).support()) for g in frames)
    witness = {e for e, _ in torus_index(f).hull_weights}
    assert second == witness < first
    xi = barycenter(2, 2)
    assert torus_index(f).delta_sq == torus_index(act(frames[1], f)).delta_sq == Fraction(1, 6)
    assert all(norm_sq(sub(e, xi)) == Fraction(2, 3) for e in second)
    projected = _count_projections(monkeypatch)
    assert worst_frame_search(f, frames) == worst_frame_search_oracle(f, frames)
    assert len(projected) == 1


def test_the_witness_of_a_member_that_is_not_the_best_still_prunes(monkeypatch):
    # the middle frame moves the pair of lines to x0*x2 (x0 -> x1, x1 -> x0,
    # x2 -> x0 + 2*x1 + x2), farther from xi, so it becomes the best; the
    # shear's support holds the first member's witness but not the best's
    f = PAIR_OF_LINES
    frames = [Frame.identity(3), Frame([[0, 1, 1], [1, 0, 2], [0, 0, 1]]), CANCELLING_SHEAR]
    assert act(frames[1], f).support() == ((1, 0, 1),)
    projected = _count_projections(monkeypatch)
    frame, cert = worst_frame_search(f, frames)
    assert (frame, cert) == worst_frame_search_oracle(f, frames)
    assert frame == frames[1] and cert.delta_sq == Fraction(2, 3)
    assert not set(act(frames[2], f).support()) >= {e for e, _ in cert.hull_weights}
    assert len(projected) == 2


# x0*x1*x2 + x0*x3^2 + x1^3, a double point at [1:0:0:0]
R3_CUBIC = HomogeneousForm(3, 3, {(1, 1, 1, 0): 1, (1, 0, 0, 2): 1, (0, 3, 0, 0): 1})


@pytest.mark.parametrize("point, projections", [("1,0,0,0", 7), ("2,1,-1,3", 4)])
def test_an_r3_family_projects_few_of_its_729_members(monkeypatch, point, projections):
    frames = default_frames(3, ProjPoint.parse(point), 1)
    assert len(frames) == 729
    expected = worst_frame_search_oracle(R3_CUBIC, frames)
    projected = _count_projections(monkeypatch)
    frame, cert = worst_frame_search(R3_CUBIC, frames)
    assert frame is expected[0] and cert == expected[1]
    assert len(projected) == projections


def test_a_frame_with_another_row_0_starts_its_own_chain():
    # rows 1..r of both frames reduce to (0, 1), but their row 0s differ,
    # so the second is no Taylor shift of the first: it moves
    # (x1 - x0)^2, torus semistable as given, to x1^2
    f = HomogeneousForm(1, 2, {(2, 0): 1, (1, 1): -2, (0, 2): 1})
    frames = [Frame.identity(2), Frame([[1, 1], [0, 1]])]
    best = worst_frame_search(f, frames)
    assert best == worst_frame_search_oracle(f, frames)
    assert best[0] == frames[1] and best[1].delta_sq > 0


def test_worst_frame_search_rejects_a_frame_of_the_wrong_size():
    f = HomogeneousForm(1, 2, {(0, 2): 1})
    with pytest.raises(ValueError, match="frame size 3"):
        worst_frame_search(f, [Frame.identity(2), Frame.identity(3)])


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
    label = StratumLabel(OneParamSubgroup((1, -1)), Fraction(2), Fraction(1))
    assert label.delta_sq == 2


def test_band_params_validation():
    with pytest.raises(ValueError):
        BandParams(1, 2, 3, 5)
    with pytest.raises(ValueError):
        BandParams(1, 0, 3, 0)
    assert BandParams(1, 2, 3, 1).m == 1
