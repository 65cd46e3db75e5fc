import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from hypermult import (
    HomogeneousForm,
    OneParamSubgroup,
    ProjPoint,
    barycenter,
    class_rep,
    gen_corpus,
    mu_weight,
    nearest_point,
    torus_index,
)
from hypermult import _linalg, forms, statepoly
from hypermult._linalg import dot, norm_sq, sub, vec
from oracle import (
    det as oracle_det,
    enum_nearest,
    min_norm_point,
    nearest_point_oracle,
    primitive_oracle,
    random_convex_combination,
    random_exponent,
    random_form,
    scale_oracle,
    solve_consistent,
)


def random_support(rng, r, d, max_points=8):
    count = rng.randint(1, max_points)
    return sorted({random_exponent(rng, r, d) for _ in range(count)})


# ---------------------------------------------------------------- barycenter

def test_barycenter_values():
    assert barycenter(1, 2) == (Fraction(1), Fraction(1))
    assert barycenter(2, 3) == (Fraction(1), Fraction(1), Fraction(1))
    assert barycenter(2, 2) == (Fraction(2, 3),) * 3
    with pytest.raises(ValueError):
        barycenter(0, 2)
    with pytest.raises(ValueError, match="r must be an integer, got 1.5"):
        barycenter(1.5, 2)
    with pytest.raises(ValueError, match="d must be an integer, got 2.0"):
        barycenter(1, 2.0)


# ---------------------------------------------------------------- projection

def test_nearest_point_frozen_example():
    t = (Fraction(3, 2), Fraction(3, 2))
    res = nearest_point([(0, 3), (1, 2)], t)
    assert res.q == (Fraction(1), Fraction(2))
    assert res.dist_sq == Fraction(1, 2)
    assert dot(sub(vec(t), res.q), sub(vec((0, 3)), res.q)) == -1
    # the witness is the single vertex (1, 2)
    assert res.hull_weights == (((Fraction(1), Fraction(2)), Fraction(1)),)


def test_nearest_point_interior_target():
    res = nearest_point([(2, 0), (0, 2)], (Fraction(1), Fraction(1)))
    assert res.dist_sq == 0
    assert res.q == (Fraction(1), Fraction(1))


def test_nearest_point_at_vertex():
    res = nearest_point([(2, 0), (0, 2)], (Fraction(3), Fraction(-1)))
    assert res.q == (Fraction(2), Fraction(0))
    assert res.dist_sq == 2


def test_nearest_point_input_validation():
    with pytest.raises(ValueError):
        nearest_point([], (Fraction(1),))
    with pytest.raises(ValueError):
        nearest_point([(1, 0)], (Fraction(1), Fraction(0), Fraction(0)))


def test_nearest_point_accepts_any_iterable():
    points = (p for p in [(0, 2), (2, 0), (0, 2)])
    res = nearest_point(points, (Fraction(0), Fraction(0)))
    assert res.dist_sq == 2
    assert res.q == (Fraction(1), Fraction(1))


def certificate_holds(points, t, res):
    return all(dot(sub(vec(t), res.q), sub(vec(p), res.q)) <= 0 for p in points)


def test_nearest_point_matches_enumeration_oracle():
    rng = random.Random(23)
    for _ in range(150):
        r = rng.choice([1, 2, 3])
        d = rng.randint(1, 5)
        points = random_support(rng, r, d, max_points=6)
        if rng.random() < 0.5:
            t = barycenter(r, d)
        else:
            t = tuple(Fraction(rng.randint(-4, 8), rng.randint(1, 3)) for _ in range(r + 1))
        res = nearest_point(points, t)
        assert res.dist_sq == enum_nearest(points, t)
        assert certificate_holds(points, t, res)
        assert sum(w for _, w in res.hull_weights) == 1
        assert all(w > 0 for _, w in res.hull_weights)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6))
def test_nearest_point_never_beaten_by_random_combinations(seed):
    rng = random.Random(seed)
    r = rng.choice([1, 2, 3])
    d = rng.randint(1, 5)
    points = random_support(rng, r, d)
    t = barycenter(r, d)
    res = nearest_point(points, t)
    for _ in range(20):
        combo = random_convex_combination(points, rng)
        assert norm_sq(sub(combo, vec(t))) >= res.dist_sq


# ------------------------------------------- integer core against the oracle

INTEGER = st.integers(-6, 6)
RATIONAL = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
# mixed denominators, one of them far beyond a machine word
TARGET_COORD = st.one_of(
    INTEGER,
    RATIONAL,
    st.builds(Fraction, st.integers(-3, 3), st.sampled_from([7, 3**20, 2**64])),
)


@st.composite
def projection_inputs(draw, coords=(INTEGER, RATIONAL)):
    """(points, target): up to 40 points in dimension 1..6, coordinates from coords.

    The point sets are free, drawn from a small pool (duplicates), or lattice
    points on a line or a plane (collinear, coplanar).
    """
    dim = draw(st.integers(1, 6))
    coord = draw(st.sampled_from(coords))
    point = st.tuples(*[coord] * dim)
    kind = draw(st.sampled_from(["free", "duplicates", "collinear", "coplanar"]))
    n = draw(st.integers(1, 40))
    if kind == "free":
        points = draw(st.lists(point, min_size=n, max_size=n))
    elif kind == "duplicates":
        pool = draw(st.lists(point, min_size=1, max_size=4))
        points = draw(st.lists(st.sampled_from(pool), min_size=n + 1, max_size=n + 1))
    else:
        base = draw(point)
        dirs = draw(st.lists(point, min_size=1 if kind == "collinear" else 2,
                             max_size=1 if kind == "collinear" else 2))
        steps = st.tuples(*[st.integers(-3, 3)] * len(dirs))
        points = [
            tuple(b + sum(k * v[i] for k, v in zip(step, dirs)) for i, b in enumerate(base))
            for step in draw(st.lists(steps, min_size=n, max_size=n))
        ]
    target = draw(st.tuples(*[TARGET_COORD] * dim))
    return points, target


@st.composite
def corpus_inputs(draw):
    """(support, barycenter) of a gen_corpus form, as torus_index projects it."""
    r = draw(st.integers(1, 4))
    d = draw(st.integers(1, 6))
    m = draw(st.integers(0, d))
    form = next(gen_corpus(r, d, m, 1, draw(st.integers(0, 10**6))))
    return form.support(), barycenter(r, d)


def _typed(res):
    """Every number of a ProjectionResult paired with its type, witness points as given."""
    return (
        [(type(c), c) for c in res.q],
        (type(res.dist_sq), res.dist_sq),
        [(p, (type(w), w)) for p, w in res.hull_weights],
    )


def _int_points(res):
    return all(type(p) is tuple and set(map(type, p)) == {int} for p, _ in res.hull_weights)


@settings(max_examples=150, deadline=None)
@given(st.one_of(projection_inputs((INTEGER,)), corpus_inputs()))
def test_nearest_point_equals_the_fraction_route(case):
    points, t = case
    res = nearest_point(points, t)
    assert _typed(res) == _typed(nearest_point_oracle(points, t))
    assert _int_points(res)


def test_nearest_point_refuses_rational_points():
    t = (Fraction(1), Fraction(1))
    with pytest.raises(ValueError, match="is not an integer"):
        nearest_point([(0, 2), (Fraction(1, 2), Fraction(3, 2))], t)
    with pytest.raises(ValueError, match="str '1/2' is refused"):
        nearest_point([(0, 2), ("1/2", "3/2")], t)
    with pytest.raises(ValueError, match="float 0.5 is refused"):
        nearest_point([(0, 2), (0.5, 1.5)], t)
    # integer-valued Fractions are read as the integers they are
    res = nearest_point([(Fraction(2), Fraction(0)), (Fraction(0), 2)], (Fraction(3), Fraction(-1)))
    assert res.hull_weights == (((2, 0), Fraction(1)),)
    assert _int_points(res)


def test_torus_index_witness_holds_support_points_as_ints():
    rng = random.Random(21)
    for _ in range(60):
        f = random_form(rng, rng.choice([1, 2, 3]), rng.randint(1, 5))
        cert = torus_index(f)
        assert {p for p, _ in cert.hull_weights} <= set(f.support())
        assert _int_points(cert)


@settings(max_examples=150, deadline=None)
@given(st.one_of(projection_inputs(), corpus_inputs()))
def test_integer_core_takes_the_oracle_corral(case):
    points, t = case
    pts = sorted({vec(p) for p in points})
    target = vec(t)
    s = math.lcm(*(x.denominator for p in pts + [target] for x in p))
    scaled = [tuple(int((x - c) * s) for x, c in zip(p, target)) for p in pts]
    x_num, corral, weights, den = statepoly._min_norm_point(scaled)
    x, corral_o, weights_o = min_norm_point([sub(p, target) for p in pts])
    assert corral == corral_o
    assert [Fraction(w, den) for w in weights] == weights_o
    assert tuple(Fraction(c, den * s) for c in x_num) == x


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 7).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n),
            st.lists(st.integers(-4, 4), min_size=n, max_size=n),
        )
    )
)
def test_bareiss_solve_matches_gauss_jordan(system):
    a, b = system
    if _linalg.det(a) == 0:
        with pytest.raises(AssertionError, match="singular"):
            _linalg.solve_consistent(a, b)
        return
    numerators, den = _linalg.solve_consistent(a, b)
    assert den > 0
    assert [Fraction(x, den) for x in numerators] == solve_consistent(a, b)


@st.composite
def det_cases(draw):
    """Integer matrices of size 1-6 with entries up to 10**12 in size.

    Some are singular by construction: a repeated row, a zero column, or a
    row that is a combination of two others.
    """
    n = draw(st.integers(1, 6))
    big = st.integers(-(10**12), 10**12)
    entry = st.one_of(big, st.integers(-3, 3))
    a = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    kind = draw(st.sampled_from(["any", "any", "repeat", "zero_col", "combo"]))
    if n >= 2 and kind == "repeat":
        a[-1] = list(a[0])
    elif kind == "zero_col":
        for row in a:
            row[-1] = 0
    elif n >= 3 and kind == "combo":
        k = draw(st.integers(-5, 5))
        a[-1] = [x + k * y for x, y in zip(a[0], a[1])]
    return a


@settings(max_examples=300, deadline=None)
@given(det_cases())
def test_bareiss_det_matches_fraction_elimination(a):
    value = _linalg.det(a)
    assert type(value) is int
    assert value == oracle_det(a)


def test_bareiss_det_signs_and_singular_examples():
    assert _linalg.det([[0, 1], [1, 0]]) == -1
    assert _linalg.det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert _linalg.det([[2, 4], [1, 2]]) == 0
    assert _linalg.det([[-7]]) == -7
    assert _linalg.det([[10**12, 1], [1, -(10**12)]]) == -(10**24) - 1


# ---------------------------------------------------------------- torus index

def test_torus_index_frozen_examples():
    f = HomogeneousForm(1, 2, {(0, 2): Fraction(1)})
    cert = torus_index(f)
    assert cert.w == (Fraction(-1), Fraction(1))
    assert cert.delta_sq == 2
    assert cert.lam is not None and cert.lam.weights == (-1, 1)
    assert cert.scale == 1

    g = HomogeneousForm(2, 3, {(0, 3, 0): Fraction(1)})
    cert = torus_index(g)
    assert cert.w == (Fraction(-1), Fraction(2), Fraction(-1))
    assert cert.delta_sq == 6
    assert cert.lam.weights == (-1, 2, -1)
    assert class_rep(cert.lam).weights == (2, -1, -1)


def test_certificate_scale_equals_lam_over_w():
    unstable = 0
    for r, d in [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3)]:
        for m in range(d + 1):
            for f in gen_corpus(r, d, m, 5, seed=55):
                cert = torus_index(f)
                assert cert.scale == scale_oracle(cert)
                unstable += cert.scale is not None
    assert unstable >= 50


def test_torus_index_semistable_case():
    f = HomogeneousForm(1, 2, {(2, 0): Fraction(1), (0, 2): Fraction(1)})
    cert = torus_index(f)
    assert cert.delta_sq == 0
    assert cert.lam is None
    assert cert.q == barycenter(1, 2)


def test_kempf_pairing_identity():
    # min <w, e> over the support equals delta_sq whenever delta_sq > 0
    rng = random.Random(29)
    found = 0
    for _ in range(120):
        r = rng.choice([1, 2, 3])
        f = random_form(rng, r, rng.randint(1, 4))
        cert = torus_index(f)
        if cert.delta_sq == 0:
            continue
        found += 1
        pairing = min(dot(cert.w, vec(e)) for e in f.support())
        assert pairing == cert.delta_sq
        assert mu_weight(f, cert.lam) == cert.scale * cert.delta_sq
        assert cert.lam.norm_sq == cert.scale**2 * cert.delta_sq
    assert found > 40


def test_torus_index_permutation_equivariance():
    rng = random.Random(31)
    for _ in range(25):
        r = rng.choice([1, 2])
        f = random_form(rng, r, rng.randint(1, 4))
        perm = list(range(r + 1))
        rng.shuffle(perm)
        permuted = HomogeneousForm(
            f.r, f.d, {tuple(e[perm[i]] for i in range(r + 1)): c for e, c in f.terms.items()}
        )
        cert = torus_index(f)
        cert_p = torus_index(permuted)
        assert cert_p.delta_sq == cert.delta_sq
        assert cert_p.w == tuple(cert.w[perm[i]] for i in range(r + 1))


def test_certificate_weights_reconstruct_q():
    f = HomogeneousForm(2, 3, {(1, 1, 1): Fraction(1), (0, 3, 0): Fraction(1), (3, 0, 0): Fraction(2)})
    cert = torus_index(f)
    recon = [Fraction(0)] * 3
    for e, c in cert.hull_weights:
        for i, x in enumerate(e):
            recon[i] += c * x
    assert tuple(recon) == cert.q
    assert sum(c for _, c in cert.hull_weights) == 1


# ------------------------------------------------------ witness checking

# x_0^3 + x_1^3 + x_2^3 + x_0 x_1 x_2: the barycenter (1, 1, 1) is a support
# point, so the solver's witness is that single point and the three
# coordinate vertices are free to corrupt it with.
WITNESS_FORM = HomogeneousForm(
    2,
    3,
    {
        (3, 0, 0): Fraction(1),
        (0, 3, 0): Fraction(1),
        (0, 0, 3): Fraction(1),
        (1, 1, 1): Fraction(1),
    },
)


# The integer core returns (X, corral, weights, D): the point X/D and the
# weights weights[i]/D.  Here the target (1, 1, 1) is integral, so the
# vectors are the points minus (1, 1, 1) and the solver returns X = 0, D = 1.

def _zero_weight(vecs, x, corral, weights, den):
    extra = next(j for j in range(len(vecs)) if j not in corral)
    return x, corral + [extra], weights + [0], den


def _negative_weight(vecs, x, corral, weights, den):
    # 2 * (1,1,1) - 1/3 * (3,0,0) - 1/3 * (0,3,0) - 1/3 * (0,0,3) is (1,1,1)
    others = [j for j in range(len(vecs)) if j not in corral]
    return x, corral + others, [6 * den] + [-den] * 3, 3 * den


def _weights_off_by_a_factor(vecs, x, corral, weights, den):
    return x, corral, [2 * w for w in weights], den


def _point_not_rebuilt(vecs, x, corral, weights, den):
    extra = next(j for j in range(len(vecs)) if j not in corral)
    return x, [extra], [den], den


def _not_the_nearest_point(vecs, x, corral, weights, den):
    extra = next(j for j in range(len(vecs)) if j not in corral)
    return vecs[extra], [extra], [1], 1


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_zero_weight, "positive"),
        (_negative_weight, "positive"),
        (_weights_off_by_a_factor, "reconstruct"),
        (_point_not_rebuilt, "reconstruct"),
        (_not_the_nearest_point, "certificate failed"),
    ],
)
def test_torus_index_rejects_a_corrupted_witness(monkeypatch, corrupt, message):
    solve = statepoly._min_norm_point

    def corrupted(vecs):
        return corrupt(vecs, *solve(vecs))

    assert torus_index(WITNESS_FORM).delta_sq == 0
    monkeypatch.setattr(statepoly, "_min_norm_point", corrupted)
    with pytest.raises(AssertionError, match=message):
        torus_index(WITNESS_FORM)


# ---------------------------------------------------------------- mu weight

def test_mu_weight_example():
    f = HomogeneousForm(1, 3, {(3, 0): Fraction(1), (0, 3): Fraction(1)})
    assert mu_weight(f, (1, -1)) == -3


def test_mu_weight_scales_linearly():
    f = HomogeneousForm(2, 3, {(0, 3, 0): Fraction(1), (1, 1, 1): Fraction(1)})
    base = mu_weight(f, (-1, 2, -1))
    for n in (2, 3, 5):
        assert mu_weight(f, (-n, 2 * n, -n)) == n * base


def test_mu_weight_rejects_bad_vectors():
    f = HomogeneousForm(1, 2, {(1, 1): Fraction(1)})
    with pytest.raises(ValueError):
        mu_weight(f, (0, 0))
    with pytest.raises(ValueError):
        mu_weight(f, (1, 1))
    with pytest.raises(ValueError):
        mu_weight(f, (1, -1, 0))


def test_weights_are_refused_not_truncated():
    # int() would read each of these as (1, -1)
    f = HomogeneousForm(1, 2, {(1, 1): Fraction(1)})
    for weights, message in [
        ((1.5, -1.5), "float 1.5 is refused"),
        ((Fraction(3, 2), Fraction(-3, 2)), "is not an integer"),
        ((1.7, -1.7), "float 1.7 is refused"),
        ((Fraction(1), -1.0), "float -1.0 is refused"),
    ]:
        with pytest.raises(ValueError, match=message):
            OneParamSubgroup(weights)
        with pytest.raises(ValueError, match=message):
            mu_weight(f, list(weights))
    assert OneParamSubgroup((Fraction(1), -1)).weights == (1, -1)
    assert mu_weight(f, (Fraction(2), -2)) == mu_weight(f, (2, -2)) == 0


# ---------------------------------------------------------------- 1-PS class

def test_class_rep_sorts_descending():
    assert class_rep(OneParamSubgroup((-1, 2, -1))).weights == (2, -1, -1)
    rep = OneParamSubgroup((3, -1, -2))
    assert class_rep(rep) == class_rep(OneParamSubgroup((-2, 3, -1)))


def test_one_param_subgroup_validation():
    with pytest.raises(ValueError):
        OneParamSubgroup((2, -2))  # not primitive
    with pytest.raises(ValueError):
        OneParamSubgroup((0, 0))
    with pytest.raises(ValueError):
        OneParamSubgroup((1, 1))
    with pytest.raises(ValueError, match="at least two weights"):
        OneParamSubgroup((0,))
    assert OneParamSubgroup((1, -1)).norm_sq == 2



def test_nearest_point_refuses_more_than_max_dim_coordinates():
    n = forms.MAX_DIM + 1
    points = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    with pytest.raises(ValueError, match=f"1 to {forms.MAX_DIM} coordinates, got {n}"):
        nearest_point(points, [Fraction(1, n)] * n)
    inside = nearest_point([p[1:] for p in points[1:]], [Fraction(1, n - 1)] * (n - 1))
    assert inside.dist_sq == 0


# --------------------------------------------------- primitive integer vectors

BIG = 10**40
PRIMITIVE_ENTRY = st.one_of(
    st.just(Fraction(0)),
    st.integers(-BIG, BIG).map(Fraction),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)),
    st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 6, 3**20, 2**64])),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(PRIMITIVE_ENTRY, min_size=1, max_size=6).filter(any))
def test_primitive_matches_the_fraction_route(v):
    lam, c = primitive_oracle(v)
    assert _linalg.primitive(v) == (lam, c)
    assert c > 0 and math.gcd(*lam) == 1
    if len(v) >= 2:
        sign = 1 if next(x for x in lam if x) > 0 else -1
        assert ProjPoint(v).primitive() == tuple(sign * x for x in lam)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(PRIMITIVE_ENTRY, st.integers(-BIG, BIG)), max_size=6))
@example([])
@example([Fraction(0), Fraction(0)])  # bands --point 0,0 scales this vector
def test_scaled_turns_a_rational_vector_into_integers(v):
    ints, s = _linalg.scaled(v)
    assert type(s) is int and all(type(x) is int for x in ints)
    assert ints == [s * x for x in v]
    # s is the lcm of the denominators: a common multiple whose cofactors
    # s / q share no factor, since any shared one could be divided out
    assert all(s % Fraction(x).denominator == 0 for x in v)
    if v:
        assert math.gcd(*(s // Fraction(x).denominator for x in v)) == 1
    else:
        assert s == 1


@pytest.mark.parametrize("op", [sub, dot])
@pytest.mark.parametrize("u, v", [((1, 2), (1, 2, 3)), ((), (1,))])
def test_vector_operations_refuse_vectors_of_different_lengths(op, u, v):
    with pytest.raises(ValueError, match="vector length mismatch"):
        op(u, v)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(1, 5), st.integers(0, 10**6))
def test_torus_index_direction_matches_the_fraction_route(r, d, seed):
    cert = torus_index(random_form(random.Random(seed), r, d))
    if cert.lam is not None:
        assert (cert.lam.weights, cert.scale) == primitive_oracle(cert.w)
