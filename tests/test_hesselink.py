import random
from fractions import Fraction

import pytest

from hypermult import (
    BandParams,
    Frame,
    HomogeneousForm,
    ProjPoint,
    StratumLabel,
    act,
    band_contains,
    barycenter,
    default_frames,
    destabilize,
    frame_moving_to_origin,
    l_squared,
    multiplicity_at_origin,
    pair_minima,
    pair_separation_min_N,
    point_image,
    separation_gap,
    separation_threshold,
    torus_index,
    worst_frame_search,
)
from hypermult._linalg import norm_sq, sub, vec
from oracle import random_form


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
    return Frame(rows).compose(Frame(shear))


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
    assert len(family2) == 2  # identity and the swap of coordinates 1, 2


def test_default_frames_fix_the_moved_point():
    rng = random.Random(59)
    p = ProjPoint.parse("1,2,1")
    family = default_frames(2, p, 1)
    mover = frame_moving_to_origin(p)
    assert any(frame == mover for frame in family)
    origin = ProjPoint.origin(2)
    for frame in family:
        assert point_image(frame, p) == origin
    # budget 1, r = 2: 3 strictly lower entries, 2 permutations, all distinct
    assert len(family) == 2 * 27


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
