import os
import random
from fractions import Fraction

import pytest

from hypermult import (
    HomogeneousForm,
    ProjPoint,
    StratumLabel,
    act,
    bound_check,
    classify_at,
    classify_at_origin,
    default_frames,
    frame_moving_to_origin,
    gen_corpus,
    multiplicity_at,
    multiplicity_at_origin,
    point_image,
    separation_threshold,
    torus_index,
    verify_theorem_main,
    worst_frame_search,
)
from hypermult import classifier
from oracle import random_form, random_point, random_unimodular_frame

NODAL_CUBIC = HomogeneousForm(2, 3, {(1, 1, 1): Fraction(1), (0, 3, 0): Fraction(1)})


# ---------------------------------------------------------------- classify

def test_classify_cubic_example():
    report = classify_at_origin(NODAL_CUBIC, "auto")
    assert report.m_band == 2
    assert report.m_direct == 2
    assert report.agreed
    assert report.N == report.threshold_used == separation_threshold(2, 3)
    assert report.band_params is not None and report.band_params.m == 2
    assert report.diagnostics is None


def test_classify_refuses_small_N():
    threshold = separation_threshold(2, 3)
    with pytest.raises(ValueError) as err:
        classify_at_origin(NODAL_CUBIC, threshold - 1)
    assert str(threshold) in str(err.value)


def test_classify_rejects_bad_N_strings():
    with pytest.raises(ValueError):
        classify_at_origin(NODAL_CUBIC, "later")


def test_classify_stable_across_admissible_N():
    threshold = separation_threshold(2, 3)
    reports = [classify_at_origin(NODAL_CUBIC, n) for n in range(threshold, threshold + 4)]
    assert all(rep.m_band == 2 and rep.agreed for rep in reports)


def test_classify_extreme_multiplicities():
    smooth = HomogeneousForm(1, 3, {(3, 0): Fraction(1), (0, 3): Fraction(1)})
    assert classify_at_origin(smooth).m_band == 0
    cone = HomogeneousForm(2, 3, {(0, 3, 0): Fraction(1), (0, 0, 3): Fraction(1)})
    report = classify_at_origin(cone)
    assert report.m_band == report.m_direct == 3


def test_classify_at_moves_the_point():
    # the cubic has a double point at [1:0:0]; move it with a unimodular frame
    rng = random.Random(67)
    for _ in range(10):
        g = random_unimodular_frame(rng, 3)
        moved = act(g, NODAL_CUBIC)
        p = point_image(g, ProjPoint.origin(2))
        report = classify_at(moved, p, "auto")
        assert report.m_band == report.m_direct == 2
        assert report.agreed


def test_classify_at_matches_direct_multiplicity_on_random_input():
    rng = random.Random(71)
    for _ in range(15):
        r = rng.choice([1, 2])
        d = rng.randint(1, 3)
        f = random_form(rng, r, d)
        p = random_point(rng, r)
        report = classify_at(f, p, "auto")
        assert report.agreed
        assert report.m_band == multiplicity_at(f, p)


# ---------------------------------------------------------------- corpus

def test_gen_corpus_is_deterministic():
    a = gen_corpus(2, 3, 1, 10, seed=5)
    b = gen_corpus(2, 3, 1, 10, seed=5)
    assert a == b
    c = gen_corpus(2, 3, 1, 10, seed=6)
    assert a != c


def test_gen_corpus_hits_the_requested_multiplicity():
    for r, d in [(1, 2), (1, 4), (2, 3), (3, 2)]:
        for m in range(d + 1):
            for f in gen_corpus(r, d, m, 8, seed=1):
                assert f.r == r and f.d == d
                assert multiplicity_at_origin(f) == m
                assert max(e[0] for e in f.terms) == d - m


def test_gen_corpus_no_x0_when_m_equals_d():
    for f in gen_corpus(2, 3, 3, 6, seed=2):
        assert all(e[0] == 0 for e in f.terms)


def test_gen_corpus_validation():
    with pytest.raises(ValueError):
        gen_corpus(1, 2, 3, 5, seed=0)
    with pytest.raises(ValueError):
        gen_corpus(1, 2, 1, -1, seed=0)
    assert gen_corpus(1, 2, 1, 0, seed=0) == []


# ---------------------------------------------------------------- verify

def test_verify_summary_counts():
    summary = verify_theorem_main(1, 2, 3, count=25, seed=9)
    assert summary.total == 3 * 25
    assert summary.passed == summary.total
    assert summary.failed == 0
    assert summary.ok
    assert summary.failures == ()


def test_verify_auto_and_jobs_determinism():
    serial = verify_theorem_main(1, 3, "auto", count=6, seed=3, jobs=1)
    parallel = verify_theorem_main(1, 3, "auto", count=6, seed=3, jobs=2)
    assert serial == parallel
    assert serial.N == separation_threshold(1, 3)


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs in-process."""

    sizes = []

    def __init__(self, max_workers):
        RecordingPool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


@pytest.mark.parametrize(
    "cores, count, expected",
    [(4, 1, [3]), (2, 1, [2]), (4, 5, [4]), (None, 5, []), (1, 5, [])],
)
def test_verify_pool_never_exceeds_cores_or_cases(monkeypatch, cores, count, expected):
    monkeypatch.setattr(classifier, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    RecordingPool.sizes = []
    summary = verify_theorem_main(1, 2, "auto", count=count, seed=0, jobs=100000)
    assert RecordingPool.sizes == expected
    assert summary == verify_theorem_main(1, 2, "auto", count=count, seed=0, jobs=1)


# ---------------------------------------------------------------- bounds

def test_bound_check_pins_coordinate_powers():
    for d in range(2, 7):
        f = HomogeneousForm(1, d, {(0, d): Fraction(1)})
        label = StratumLabel.from_certificate(torus_index(f))
        result = bound_check(f, label, [ProjPoint.parse("1,0")])
        assert result.lower == result.upper == result.max_mult == d
        assert result.within


def test_bound_check_respects_candidate_points():
    f = HomogeneousForm(1, 2, {(0, 2): Fraction(1)})
    label = StratumLabel.from_certificate(torus_index(f))
    bad = bound_check(f, label, [ProjPoint.parse("1,1")])
    assert not bad.within  # the sandwich needs a maximal multiplicity point
    with pytest.raises(ValueError):
        bound_check(f, label, [])


def binary_with_unique_singularity(rng, d, m):
    """x_1^m times distinct linear factors: unique singular point [1:0]."""
    if m == d:
        return HomogeneousForm(1, d, {(0, d): Fraction(1)})
    roots = rng.sample([1, 2, 3, -1, -2, -3], d - m)
    poly = {(0, 0): Fraction(1)}
    for c in roots:
        bigger = {}
        for (a, b), coeff in poly.items():
            bigger[(a + 1, b)] = bigger.get((a + 1, b), Fraction(0)) + coeff
            bigger[(a, b + 1)] = bigger.get((a, b + 1), Fraction(0)) - c * coeff
        poly = bigger
    return HomogeneousForm(
        1, d, {(a, b + m): coeff for (a, b), coeff in poly.items() if coeff != 0}
    )


def test_bound_check_on_forms_with_known_singular_point():
    rng = random.Random(73)
    for _ in range(20):
        d = rng.randint(2, 6)
        m = rng.randint(d // 2 + 1, d)
        base = binary_with_unique_singularity(rng, d, m)
        g = random_unimodular_frame(rng, 2)
        f = act(g, base)
        p = point_image(g, ProjPoint.parse("1,0"))
        assert multiplicity_at(f, p) == m
        frames = default_frames(1, p, budget=1)
        _, cert = worst_frame_search(f, frames)
        label = StratumLabel.from_certificate(cert)
        result = bound_check(f, label, [p])
        assert result.max_mult == m
        assert result.within
