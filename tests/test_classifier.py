import random
import subprocess
import sys
import weakref
from collections.abc import Iterator
from fractions import Fraction
from itertools import combinations_with_replacement
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from hypermult import (
    HomogeneousForm,
    OneParamSubgroup,
    ProjPoint,
    StratumLabel,
    act,
    bound_check,
    classify_at,
    classify_at_origin,
    default_frames,
    frame_moving_to_origin,
    gen_corpus,
    l_squared,
    multiplicity_at,
    multiplicity_at_origin,
    point_image,
    separation_threshold,
    torus_index,
    verify_theorem_main,
    worst_frame_search,
)
from hypermult import classifier, forms, hesselink, serialize
from oracle import (
    classify_at_origin_oracle,
    gen_corpus_oracle,
    random_exponent,
    random_form,
    random_point,
    random_unimodular_frame,
    verify_per_case_oracle,
)

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


@pytest.mark.parametrize("n", [5.9, Fraction(11, 2), Fraction(8), 8.0, True])
def test_N_must_be_an_int(n):
    binary_cubic = HomogeneousForm(1, 3, {(1, 2): Fraction(1)})  # threshold 4
    with pytest.raises(ValueError, match="N must be an integer or 'auto'"):
        classify_at_origin(binary_cubic, n)
    with pytest.raises(ValueError, match="N must be an integer or 'auto'"):
        verify_theorem_main(1, 3, n, 1, 0)


def test_classify_without_a_unique_band_lists_every_band(monkeypatch):
    # unreachable at N >= threshold, so forced: the report falls back to d+1 rows
    monkeypatch.setattr(classifier, "unique_band", lambda *args: None)
    report = classify_at_origin(NODAL_CUBIC, "auto")
    assert (report.agreed, report.m_band, report.band_params) == (False, None, None)
    assert report.m_direct == 2
    cert = report.cert
    assert [row.m for row in report.diagnostics] == [0, 1, 2, 3]
    for row in report.diagnostics:
        assert row.l_sq == l_squared(2, 3, report.N, row.m)
        assert row.dist_sq == cert.delta_sq
        assert row.y0_cap == 3 - row.m
        assert row.radius_ok == (cert.delta_sq <= row.l_sq)
        assert row.cap_ok == (cert.q[0] <= row.y0_cap)
    assert [row.m for row in report.diagnostics if row.radius_ok and row.cap_ok] == [2]


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


@st.composite
def rational_forms(draw):
    """A form of r <= 3 and d <= 5 with integer or rational coefficients."""
    r = draw(st.integers(1, 3))
    d = draw(st.integers(1, 5))
    rng = random.Random(draw(st.integers(0, 10**6)))
    dens = [1] if draw(st.booleans()) else [1, 2, 3, 7, 2**40]
    terms = {
        random_exponent(rng, r, d): Fraction(rng.choice([-9, -2, -1, 1, 3, 8]), rng.choice(dens))
        for _ in range(draw(st.integers(1, 6)))
    }
    f = HomogeneousForm(r, d, terms)
    if draw(st.booleans()):  # supports off the coordinate axes
        f = act(random_unimodular_frame(rng, r + 1), f)
    return f


@settings(max_examples=150, deadline=None)
@given(rational_forms(), st.integers(0, 3))
def test_classify_reads_the_certificate_of_the_destabilized_form(f, above):
    # every field, and every output byte, equals that of the route that
    # builds destabilize(f, N) and projects it, at and above the threshold,
    # and that of the form with f's support and every coefficient 1
    threshold = separation_threshold(f.r, f.d)
    support = HomogeneousForm(f.r, f.d, {e: 1 for e in f.terms})
    for n in ["auto", threshold + above]:
        ours = classify_at_origin(f, n)
        for theirs in [classify_at_origin_oracle(f, n), classify_at_origin(support, n)]:
            assert ours == theirs
            assert serialize.dumps(serialize.report_encode(ours)) == serialize.dumps(
                serialize.report_encode(theirs)
            )


@pytest.mark.parametrize("r, d, supports", [(1, 8, 511), (2, 3, 1023), (3, 2, 1023)])
def test_the_band_theorem_holds_on_every_support_of_a_small_grid(r, d, supports):
    # a report reads only the support (test above), so the form with
    # coefficients 1 on each nonempty set of degree-d monomials checks
    # every form of (r, d) at the threshold
    monomials = [
        tuple(c.count(i) for i in range(r + 1))
        for c in combinations_with_replacement(range(r + 1), d)
    ]
    for mask in range(1, 1 << len(monomials)):
        support = [e for i, e in enumerate(monomials) if mask >> i & 1]
        report = classify_at_origin(HomogeneousForm(r, d, dict.fromkeys(support, 1)))
        assert report.agreed and report.m_band == d - max(e[0] for e in support), support
    assert mask == supports


def test_every_move_to_a_point_refuses_more_than_max_dim_coordinates(monkeypatch):
    n = forms.MAX_DIM + 1
    simplex = HomogeneousForm(n - 1, 2, {tuple(2 * (j == i) for j in range(n)): 1 for i in range(n)})
    point = ProjPoint((1, 1) + (0,) * (n - 2))
    weights = (1,) + (0,) * (n - 2) + (-1,)
    label = StratumLabel(OneParamSubgroup(weights), Fraction(2), Fraction(1))

    def no_move(*args):
        raise AssertionError("the point was moved")

    monkeypatch.setattr(forms, "_unimodular_completion", no_move)
    monkeypatch.setattr(forms, "act", no_move)
    calls = [
        lambda: frame_moving_to_origin(point),
        lambda: multiplicity_at(simplex, point),
        lambda: classify_at(simplex, point),
        lambda: default_frames(n - 1, point, 0),
        lambda: bound_check(simplex, label, [point]),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"1 to {forms.MAX_DIM} coordinates, got {n}"):
            call()


# ---------------------------------------------------------------- corpus

def test_gen_corpus_is_deterministic():
    a = list(gen_corpus(2, 3, 1, 10, seed=5))
    b = list(gen_corpus(2, 3, 1, 10, seed=5))
    assert a == b
    c = list(gen_corpus(2, 3, 1, 10, seed=6))
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


def _no_form(*args):
    raise AssertionError("a form was made before the arguments were checked")


def test_gen_corpus_validation(monkeypatch):
    # a refusal raises at the call, before the iterator makes any form
    monkeypatch.setattr(HomogeneousForm, "_unchecked", _no_form)
    with pytest.raises(ValueError):
        gen_corpus(1, 2, 3, 5, seed=0)
    with pytest.raises(ValueError):
        gen_corpus(1, 2, 1, -1, seed=0)
    assert list(gen_corpus(1, 2, 1, 0, seed=0)) == []


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(1, 8), st.data(), st.integers(0, 20), st.integers())
def test_gen_corpus_matches_the_checked_oracle(r, d, data, count, seed):
    # the forms made unchecked are those the checking constructor makes
    m = data.draw(st.integers(0, d), label="m")
    corpus = list(gen_corpus(r, d, m, count, seed))
    assert corpus == gen_corpus_oracle(r, d, m, count, seed)
    for f in corpus:
        assert HomogeneousForm(r, d, f.terms) == f


def test_gen_corpus_makes_each_form_on_demand(monkeypatch):
    made = []
    build = HomogeneousForm._unchecked

    def counted(*args):
        made.append(args)
        return build(*args)

    monkeypatch.setattr(HomogeneousForm, "_unchecked", counted)
    corpus = gen_corpus(1, 3, 1, 3, 0)
    assert isinstance(corpus, Iterator) and made == []
    next(corpus)
    assert len(made) == 1
    assert len(list(corpus)) == 2 and len(made) == 3


@pytest.mark.parametrize(
    "make, name",
    [
        (lambda: gen_corpus(1, 2, 1, 1.5, 0), "count"),
        (lambda: verify_theorem_main(1, 2, "auto", 1.5, 0), "count"),
    ],
    ids=["gen_corpus-count", "verify-count"],
)
def test_corpus_counts_must_be_integers(monkeypatch, make, name):
    monkeypatch.setattr(HomogeneousForm, "_unchecked", _no_form)
    with pytest.raises(ValueError, match=f"{name} must be an integer, got 1.5"):
        make()


@pytest.mark.parametrize("seed", [True, 1.5, "x"], ids=["bool", "float", "str"])
@pytest.mark.parametrize(
    "make",
    [
        lambda seed: gen_corpus(1, 3, 1, 2, seed),
        lambda seed: verify_theorem_main(1, 2, "auto", 1, seed),
    ],
    ids=["gen_corpus", "verify"],
)
def test_corpus_seed_must_be_an_int(monkeypatch, make, seed):
    # True would seed the corpus as the string "True", not as 1, and 1.5
    # would come back in the summary as a JSON float
    monkeypatch.setattr(HomogeneousForm, "_unchecked", _no_form)
    with pytest.raises(ValueError, match=f"seed must be an integer, got {seed!r}"):
        make(seed)


@pytest.mark.parametrize(
    "make, size",
    [
        (lambda: gen_corpus(2, 3, 1, 4, seed=0), 4 * 3),
        (lambda: verify_theorem_main(1, 2, "auto", count=2, seed=0), 3 * 2 * 2),
    ],
    ids=["gen_corpus", "verify"],
)
def test_corpus_size_limit_is_inclusive(monkeypatch, make, size):
    # forms x (r+1): a corpus of exactly MAX_CORPUS is made, one more is refused
    monkeypatch.setattr(classifier, "MAX_CORPUS", size)
    make()
    monkeypatch.setattr(classifier, "MAX_CORPUS", size - 1)
    with pytest.raises(ValueError, match=f"above the limit of {size - 1}"):
        make()


# ---------------------------------------------------------------- verify

@pytest.mark.parametrize("count", [0, -1])
def test_verify_refuses_a_count_below_one(count):
    # a run over no form would report that every form agreed
    with pytest.raises(ValueError, match="count must be at least 1"):
        verify_theorem_main(1, 3, "auto", count=count, seed=0)
    assert list(gen_corpus(1, 3, 1, 0, 0)) == []


def test_verify_summary_counts():
    summary = verify_theorem_main(1, 2, 3, count=25, seed=9)
    assert summary.total == 3 * 25
    assert summary.passed == summary.total
    assert summary.failed == 0
    assert summary.ok
    assert summary.failures == ()


def test_verify_auto_determinism():
    first = verify_theorem_main(1, 3, "auto", count=6, seed=3)
    assert first == verify_theorem_main(1, 3, "auto", count=6, seed=3)
    assert first.N == separation_threshold(1, 3)


def test_verify_takes_no_jobs():
    with pytest.raises(TypeError):
        verify_theorem_main(1, 2, "auto", 2, 0, jobs=2)


def _even_bands_missing(q, r, d, big_n):
    # a band test that finds no band for some q, to force failures
    return None if q[0].numerator % 2 == 0 else hesselink.unique_band(q, r, d, big_n)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 6),
    st.integers(1, 30),
    st.integers(),
    st.one_of(st.just("auto"), st.integers(0, 3)),
    st.booleans(),
)
def test_verify_matches_the_per_case_oracle(r, d, count, seed, above, forced):
    n = above if above == "auto" else separation_threshold(r, d) + above
    band = _even_bands_missing if forced else hesselink.unique_band
    with mock.patch.object(classifier, "unique_band", band):
        assert verify_theorem_main(r, d, n, count, seed) == verify_per_case_oracle(
            r, d, n, count, seed
        )


def test_verify_lists_forced_failures_as_the_per_case_oracle_does(monkeypatch):
    monkeypatch.setattr(classifier, "unique_band", _even_bands_missing)
    summary = verify_theorem_main(1, 4, "auto", count=25, seed=0)
    assert 0 < summary.failed < summary.total
    assert summary == verify_per_case_oracle(1, 4, "auto", 25, 0)


def test_verify_classifies_each_distinct_support_of_an_m_once(monkeypatch):
    calls = []

    def counting(form, n):
        calls.append(form)
        return classify_at_origin(form, n)

    monkeypatch.setattr(classifier, "classify_at_origin", counting)
    summary = verify_theorem_main(1, 4, "auto", count=2000, seed=0)
    supports = {(m, f.support()) for m in range(5) for f in gen_corpus(1, 4, m, 2000, 0)}
    assert summary.total == 10000 and summary.ok
    assert len(calls) == len(supports) == 30


def test_verify_holds_one_corpus_form_at_a_time(monkeypatch):
    made = []
    alive = []
    build = HomogeneousForm._unchecked

    class Corpus:  # classifier's HomogeneousForm, as gen_corpus sees it
        @staticmethod
        def _unchecked(*args):
            form = build(*args)
            made.append(weakref.ref(form))
            return form

    def counting(form, n):
        alive.append(sum(ref() is not None for ref in made))
        return classify_at_origin(form, n)

    monkeypatch.setattr(classifier, "HomogeneousForm", Corpus)
    monkeypatch.setattr(classifier, "classify_at_origin", counting)
    summary = verify_theorem_main(1, 4, "auto", count=2000, seed=0)
    assert summary.ok and len(made) == summary.total == 10000
    assert len(alive) == 30 and max(alive) == 1


def test_cli_import_leaves_multiprocessing_out():
    # verify runs in the one process, so the CLI needs no process pool
    probe = (
        "import sys, hypermult.cli; "
        "print([m for m in ('multiprocessing', 'concurrent.futures', 'logging') "
        "if m in sys.modules])"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------- bounds

def test_bound_check_pins_coordinate_powers():
    for d in range(2, 7):
        f = HomogeneousForm(1, d, {(0, d): Fraction(1)})
        label = StratumLabel.from_certificate(torus_index(f))
        result = bound_check(f, label, [ProjPoint.parse("1,0")])
        assert result.lower == result.upper == result.max_mult == d
        assert result.within


def test_bound_check_refuses_a_label_of_another_dimension():
    f = HomogeneousForm(1, 2, {(0, 2): Fraction(1)})
    label = StratumLabel.from_certificate(torus_index(HomogeneousForm(2, 3, {(0, 3, 0): 1})))
    with pytest.raises(ValueError, match="label dimension must match the form"):
        bound_check(f, label, [ProjPoint.parse("1,0")])


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
