"""State polytopes, exact nearest-point projection, and torus instability data.

The support of a degree-d form in r+1 variables lies on the hyperplane
sum(y) = d, whose barycenter for the full monomial set is
xi = d/(r+1) * (1, ..., 1).  The squared distance delta_sq from xi to the
convex hull of the support measures instability under the diagonal torus:
delta_sq = 0 exactly when the barycenter lies in the hull.  Otherwise the
offset w = q - xi to the nearest hull point q is a zero-sum rational vector
and the primitive integer vector lambda positively proportional to w is the
associated diagonal one-parameter subgroup.  Exactness gives the clean
pairing identities

    min over support e of <w, e> = delta_sq
    mu(f, lambda) = scale * delta_sq        with lambda = scale * w

so mu(f, lambda) / ||lambda|| equals the distance itself.

Projection is Wolfe's minimum-norm-point algorithm over affinely
independent subsets of the support (corrals), run in integers.
nearest_point scales once: with s the lcm of every denominator in the
points and the target, V_j = s*p_j - s*t are integer vectors.  When every
coordinate of the points is an int, as in the support torus_index passes,
s comes from the target alone (for torus_index s divides r+1) and the V_j
are built in int arithmetic, without a Fraction per coordinate.  The
iterate is X/D, an integer vector over one positive denominator that the
corral weights share, and each Gram (KKT) system is solved by Bareiss
fraction-free elimination.  Scaling by a positive number preserves every
comparison and tie-break, so the corrals and weights are exactly those of
the same search over Fractions.  Each major step pairs the iterate with
every V_j in one pass over the vectors laid end to end.

Every result is checked before it is returned, in integers: the weights
are positive, sum to D and rebuild X, and (X.V_j)*D >= |X|^2 holds for every
j, which is the optimality inequality <t - q, v - q> <= 0 for all support
points v.  Only then are q = t + X/(D*s), delta_sq = |X|^2/(D*s)^2 and the
weights made Fractions.  That check is the only one a certificate gets, and
it is binary: there is no tolerance anywhere.

A corral can grow to as many points as there are coordinates, and each
step solves its Gram system afresh, so nearest_point refuses points of more
than MAX_DIM coordinates before the search starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, cycle, islice
from operator import lt, mul, sub as sub_op
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from . import _linalg
from ._linalg import Vector, dot, norm_sq, sub
from .forms import ExponentVector, HomogeneousForm

HullWeights = Tuple[Tuple[Vector, Fraction], ...]

MAX_DIM = 33  # most coordinates nearest_point takes; see the module docstring


def check_dim(n: int) -> None:
    """Refuse a projection onto n coordinates unless 0 < n <= MAX_DIM."""
    if not 0 < n <= MAX_DIM:
        raise ValueError(f"projection takes 1 to {MAX_DIM} coordinates, got {n}")


@dataclass(frozen=True)
class OneParamSubgroup:
    """Primitive nonzero integer weight vector with zero sum."""

    weights: Tuple[int, ...]

    def __post_init__(self) -> None:
        w = tuple(int(x) for x in self.weights)
        if len(w) < 2:
            raise ValueError("need at least two weights")
        if all(x == 0 for x in w):
            raise ValueError("weights cannot all vanish")
        if sum(w) != 0:
            raise ValueError("weights must sum to zero")
        if math.gcd(*w) != 1:
            raise ValueError("weights must be primitive (gcd 1)")
        object.__setattr__(self, "weights", w)

    @property
    def norm_sq(self) -> int:
        return sum(x * x for x in self.weights)


def barycenter(r: int, d: int) -> Vector:
    """Barycenter d/(r+1) * (1, ..., 1) of the degree-d exponent simplex."""
    if r < 1 or d < 1:
        raise ValueError("need r >= 1 and d >= 1")
    return (Fraction(d, r + 1),) * (r + 1)


@dataclass(frozen=True)
class ProjectionResult:
    """Nearest hull point with an exact convex-combination witness."""

    q: Vector
    dist_sq: Fraction
    hull_weights: HullWeights


def _affine_minimizer(vecs: Sequence[Sequence[int]]) -> Tuple[List[int], int]:
    """Coefficients of the norm minimizer over the affine hull of integer vecs.

    Returned as numerators over one positive denominator, in lowest terms.
    """
    k = len(vecs)
    rows = [[dot(u, v) for v in vecs] + [1] for u in vecs]
    rows.append([1] * k + [0])
    numerators, den = _linalg.solve_consistent(rows, [0] * k + [1])
    alpha = numerators[:k]
    g = math.gcd(den, *alpha)
    return [a // g for a in alpha], den // g


def _run_sums(products: Iterable[int], n: int) -> List[int]:
    """The sums of consecutive runs of n products, one run per vector.

    With the vectors laid end to end, map(mul, flat, cycle(x)) gives one
    run per vector, so this is <x, v> for every v in one pass of C loops.
    """
    return list(map(sum, zip(*[iter(products)] * n)))


def _min_norm_point(
    vecs: Sequence[Tuple[int, ...]]
) -> Tuple[Tuple[int, ...], List[int], List[int], int]:
    """Minimum-norm point of the convex hull of integer vectors, exactly.

    Wolfe's algorithm.  Returns (X, corral, weights, D): the point is X/D,
    and the corral (an affinely independent subset) expresses it with the
    weights weights[i]/D, all over the one positive denominator D.  The
    major loop adds the most violating point; the minor loop restores
    feasibility by a line search that drops zero-weight points, so the
    corral stays affinely independent and the norm strictly decreases.
    Every comparison is one of the rational algorithm scaled by a positive
    integer, so the corrals and weights are exactly those of the Fraction
    version, and the search terminates without any tolerance.
    """
    n = len(vecs[0])
    flat = list(chain.from_iterable(vecs))
    # the first of the smallest values wins, as (value, j) does in the
    # Fraction version
    norms = _run_sums(map(mul, flat, flat), n)
    start = norms.index(min(norms))
    corral: List[int] = [start]
    weights: List[int] = [1]
    den = 1
    x = vecs[start]
    for _ in range(100000):
        xx = norm_sq(x)
        pairings = _run_sums(map(mul, flat, cycle(x)), n)
        value = min(pairings)
        best = pairings.index(value)
        if value * den >= xx:
            return x, corral, weights, den
        corral.append(best)
        weights.append(0)
        while True:
            alpha, alpha_den = _affine_minimizer([vecs[j] for j in corral])
            if all(a >= 0 for a in alpha):
                kept = [(j, a) for j, a in zip(corral, alpha) if a > 0]
                corral = [j for j, _ in kept]
                weights = [a for _, a in kept]
                den = alpha_den
                break
            # w / (w - a) for w = W/den and a = A/alpha_den
            theta = min(
                Fraction(w * alpha_den, w * alpha_den - a * den)
                for w, a in zip(weights, alpha)
                if a < 0
            )
            p, q = theta.numerator, theta.denominator
            weights = [
                (q - p) * w * alpha_den + p * a * den for w, a in zip(weights, alpha)
            ]
            den *= q * alpha_den
            g = math.gcd(den, *weights)
            kept_idx = [i for i, w in enumerate(weights) if w > 0]
            corral = [corral[i] for i in kept_idx]
            weights = [weights[i] // g for i in kept_idx]
            den //= g
        x = tuple(dot(weights, column) for column in zip(*(vecs[j] for j in corral)))
    raise RuntimeError("projection did not terminate; this should be impossible")


def _exact(p: Sequence) -> Tuple:
    """The point with every non-int coordinate made a Fraction."""
    return tuple(x if isinstance(x, int) else Fraction(x) for x in p)


def nearest_point(points: Iterable[Sequence], t: Sequence) -> ProjectionResult:
    """Exact nearest point of the convex hull of points to the target t.

    The returned witness satisfies q = sum(weight * point) with positive
    weights summing to one, and the optimality inequality
    <t - q, v - q> <= 0 holds for every input point v; all of this is
    verified before returning, and nowhere else.  Points of more than
    MAX_DIM coordinates are refused with ValueError before the search.
    """
    pts = [tuple(p) for p in points]
    if not pts:
        raise ValueError("cannot project onto an empty point set")
    target = _linalg.vec(t)
    if any(len(p) != len(target) for p in pts):
        raise ValueError("point dimension does not match the target")
    check_dim(len(target))
    s = math.lcm(*(c.denominator for c in target))
    ints = set(map(type, chain.from_iterable(pts))) == {int}
    if not ints:
        pts = [_exact(p) for p in pts]
        s = math.lcm(s, *(c.denominator for p in pts for c in p))
    if not all(map(lt, pts, islice(pts, 1, None))):
        pts = sorted(set(pts))
    st = [c.numerator * (s // c.denominator) for c in target]
    if ints:
        # integer points, such as a support: s came from the target alone
        scaled = map(sub_op, map(s.__mul__, chain.from_iterable(pts)), cycle(st))
        vecs = list(zip(*[scaled] * len(st)))
    else:
        vecs = [tuple(int(c * s) - b for c, b in zip(p, st)) for p in pts]
    x, corral, weights, den = _min_norm_point(vecs)
    if any(w <= 0 for w in weights):
        raise AssertionError("hull weights must be positive")
    recon = tuple(
        sum(w * vecs[j][i] for j, w in zip(corral, weights)) for i in range(len(st))
    )
    if sum(weights) != den or recon != x:
        raise AssertionError("hull weights do not reconstruct the projection")
    xx = norm_sq(x)
    if any(dot(x, v) * den < xx for v in vecs):
        raise AssertionError("projection certificate failed")
    scale = den * s
    q = tuple(Fraction(b * den + c, scale) for b, c in zip(st, x))
    witness = tuple(
        (_linalg.vec(pts[j]), Fraction(w, den)) for j, w in sorted(zip(corral, weights))
    )
    return ProjectionResult(q=q, dist_sq=Fraction(xx, scale * scale), hull_weights=witness)


def _primitive_direction(w: Vector) -> Tuple[Tuple[int, ...], Fraction]:
    """Primitive integer vector lam = c * w with c > 0, returned as (lam, c)."""
    lcm = math.lcm(*(x.denominator for x in w))
    ints = [int(x * lcm) for x in w]
    g = math.gcd(*ints)
    ints = [x // g for x in ints]
    return tuple(ints), Fraction(lcm, g)


@dataclass(frozen=True)
class InstabilityCertificate:
    """Torus instability data of a form, as built by torus_index.

    q is the hull point nearest the barycenter, w = q - xi the offset,
    delta_sq = |w|^2 the squared distance, lam the primitive integer
    one-parameter subgroup positively proportional to w (absent when the
    barycenter lies in the hull), scale the factor c > 0 with lam = c * w,
    so that delta/||lam|| = 1/c (absent with lam), and hull_weights the
    convex-combination witness for q over the support.  nearest_point has
    verified the witness; the remaining identities hold by construction.
    """

    q: Vector
    w: Vector
    delta_sq: Fraction
    lam: Optional[OneParamSubgroup]
    scale: Optional[Fraction]
    hull_weights: Tuple[Tuple[ExponentVector, Fraction], ...]


def torus_index(f: HomogeneousForm) -> InstabilityCertificate:
    """Instability certificate of f for the diagonal torus in fixed coordinates."""
    xi = barycenter(f.r, f.d)
    projection = nearest_point(f.support(), xi)
    w = sub(projection.q, xi)
    lam, scale = None, None
    if projection.dist_sq != 0:
        direction, scale = _primitive_direction(w)
        lam = OneParamSubgroup(direction)
    witness = tuple(
        (tuple(int(x) for x in p), c) for p, c in projection.hull_weights
    )
    return InstabilityCertificate(
        q=projection.q,
        w=w,
        delta_sq=projection.dist_sq,
        lam=lam,
        scale=scale,
        hull_weights=witness,
    )


def mu_weight(f: HomogeneousForm, a: Union[OneParamSubgroup, Sequence[int]]) -> int:
    """Hilbert-Mumford weight of f: minimum of <a, e> over the support.

    a must be a nonzero integer vector with zero sum of length r+1; it does
    not need to be primitive, so mu scales linearly in a.
    """
    if isinstance(a, OneParamSubgroup):
        vec = a.weights
    else:
        vec = tuple(int(x) for x in a)
    if len(vec) != f.r + 1:
        raise ValueError("weight vector length must be r+1")
    if all(x == 0 for x in vec):
        raise ValueError("weight vector cannot vanish")
    if sum(vec) != 0:
        raise ValueError("weight vector must sum to zero")
    return min(sum(x * k for x, k in zip(vec, e)) for e in f.nums)


def class_rep(a: OneParamSubgroup) -> OneParamSubgroup:
    """Representative of the conjugacy class: weights sorted non-increasing."""
    return OneParamSubgroup(tuple(sorted(a.weights, reverse=True)))
