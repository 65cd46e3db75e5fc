import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hypermult import (
    HomogeneousForm,
    OneParamSubgroup,
    barycenter,
    class_rep,
    mu_weight,
    nearest_point,
    torus_index,
)
from hypermult import statepoly
from hypermult._linalg import dot, norm_sq, sub, vec
from oracle import enum_nearest, random_convex_combination, random_exponent, random_form


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


def test_torus_index_semistable_case():
    f = HomogeneousForm(1, 2, {(2, 0): Fraction(1), (0, 2): Fraction(1)})
    cert = torus_index(f)
    assert cert.delta_sq == 0
    assert cert.lam is None
    assert cert.semistable_for_torus
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


def _zero_weight(vecs, x, corral, weights):
    extra = next(j for j in range(len(vecs)) if j not in corral)
    return x, corral + [extra], weights + [Fraction(0)]


def _negative_weight(vecs, x, corral, weights):
    # 2 * (1,1,1) - 1/3 * (3,0,0) - 1/3 * (0,3,0) - 1/3 * (0,0,3) is (1,1,1)
    others = [j for j in range(len(vecs)) if j not in corral]
    return x, corral + others, [Fraction(2)] + [Fraction(-1, 3)] * 3


def _weights_off_by_a_factor(vecs, x, corral, weights):
    return x, corral, [2 * w for w in weights]


def _point_not_rebuilt(vecs, x, corral, weights):
    extra = next(j for j in range(len(vecs)) if j not in corral)
    return x, [extra], [Fraction(1)]


def _not_the_nearest_point(vecs, x, corral, weights):
    extra = next(j for j in range(len(vecs)) if j not in corral)
    return vecs[extra], [extra], [Fraction(1)]


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
    assert OneParamSubgroup((1, -1)).norm_sq == 2

