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

Projection runs an active-set search over affinely independent subsets of
the support (corral refinement) in exact rational arithmetic.  Every result
is checked before it is returned: the convex-combination witness must
rebuild the nearest point with positive weights summing to one, and the
optimality inequality <t - q, v - q> <= 0 must hold for all support points
v.  That check is the only one a certificate gets, and it is binary: there
is no tolerance anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from . import _linalg
from ._linalg import Vector, dot, norm_sq, sub, add
from .forms import ExponentVector, HomogeneousForm

HullWeights = Tuple[Tuple[Vector, Fraction], ...]


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


def _affine_minimizer(vecs: Sequence[Vector]) -> List[Fraction]:
    """Coefficients of the norm minimizer over the affine hull of vecs."""
    k = len(vecs)
    gram = [[dot(vecs[i], vecs[j]) for j in range(k)] for i in range(k)]
    rows = [tuple(gram[i]) + (Fraction(1),) for i in range(k)]
    rows.append(tuple(Fraction(1) for _ in range(k)) + (Fraction(0),))
    rhs = [Fraction(0)] * k + [Fraction(1)]
    solution = _linalg.solve_consistent(tuple(rows), rhs)
    if solution is None:
        raise AssertionError("affine minimizer system cannot be inconsistent")
    return solution[:k]


def _min_norm_point(vecs: Sequence[Vector]) -> Tuple[Vector, List[int], List[Fraction]]:
    """Minimum-norm point of the convex hull of vecs, exactly.

    Returns the point together with the indices and weights of the corral
    (an affinely independent subset) expressing it.  The major loop adds the
    most violating point; the minor loop restores feasibility by a line
    search that drops zero-weight points, so the corral stays affinely
    independent and the norm strictly decreases.  Over exact rationals the
    search terminates without any tolerance.
    """
    n = len(vecs)
    start = min(range(n), key=lambda j: (norm_sq(vecs[j]), j))
    corral: List[int] = [start]
    weights: List[Fraction] = [Fraction(1)]
    x = vecs[start]
    for _ in range(100000):
        xx = norm_sq(x)
        best = min(range(n), key=lambda j: (dot(x, vecs[j]), j))
        if dot(x, vecs[best]) >= xx:
            return x, corral, weights
        corral.append(best)
        weights.append(Fraction(0))
        while True:
            alpha = _affine_minimizer([vecs[j] for j in corral])
            if all(a >= 0 for a in alpha):
                kept = [(j, a) for j, a in zip(corral, alpha) if a > 0]
                corral = [j for j, _ in kept]
                weights = [a for _, a in kept]
                break
            theta = min(
                w / (w - a) for w, a in zip(weights, alpha) if a < 0
            )
            weights = [
                (1 - theta) * w + theta * a for w, a in zip(weights, alpha)
            ]
            kept_idx = [i for i, w in enumerate(weights) if w > 0]
            corral = [corral[i] for i in kept_idx]
            weights = [weights[i] for i in kept_idx]
        combo = [Fraction(0)] * len(vecs[0])
        for j, w in zip(corral, weights):
            for i, v in enumerate(vecs[j]):
                combo[i] += w * v
        x = tuple(combo)
    raise RuntimeError("projection did not terminate; this should be impossible")


def nearest_point(points: Iterable[Sequence], t: Sequence) -> ProjectionResult:
    """Exact nearest point of the convex hull of points to the target t.

    The returned witness satisfies q = sum(weight * point) with positive
    weights summing to one, and the optimality inequality
    <t - q, v - q> <= 0 holds for every input point v; all of this is
    verified before returning, and nowhere else.
    """
    pts = sorted({_linalg.vec(p) for p in points})
    if not pts:
        raise ValueError("cannot project onto an empty point set")
    target = _linalg.vec(t)
    if any(len(p) != len(target) for p in pts):
        raise ValueError("point dimension does not match the target")
    shifted = [sub(p, target) for p in pts]
    x, corral, weights = _min_norm_point(shifted)
    dist_sq = norm_sq(x)
    for s in shifted:
        if dot(x, s) < dist_sq:
            raise AssertionError("projection certificate failed")
    q = add(target, x)
    witness = tuple(
        (pts[j], w) for j, w in sorted(zip(corral, weights))
    )
    if any(w <= 0 for _, w in witness):
        raise AssertionError("hull weights must be positive")
    total = sum((w for _, w in witness), Fraction(0))
    recon = [Fraction(0)] * len(target)
    for p, w in witness:
        for i, v in enumerate(p):
            recon[i] += w * v
    if total != 1 or tuple(recon) != q:
        raise AssertionError("hull weights do not reconstruct the projection")
    return ProjectionResult(q=q, dist_sq=dist_sq, hull_weights=witness)


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
    barycenter lies in the hull), and hull_weights the convex-combination
    witness for q over the support.  nearest_point has verified the
    witness; the remaining identities hold by construction.
    """

    q: Vector
    w: Vector
    delta_sq: Fraction
    lam: Optional[OneParamSubgroup]
    hull_weights: Tuple[Tuple[ExponentVector, Fraction], ...]

    @property
    def scale(self) -> Optional[Fraction]:
        """Factor c with lam = c * w; delta/||lam|| equals 1/c."""
        if self.lam is None:
            return None
        for a, b in zip(self.lam.weights, self.w):
            if b != 0:
                return Fraction(a) / b
        return None

    @property
    def semistable_for_torus(self) -> bool:
        return self.delta_sq == 0


def torus_index(f: HomogeneousForm) -> InstabilityCertificate:
    """Instability certificate of f for the diagonal torus in fixed coordinates."""
    xi = barycenter(f.r, f.d)
    projection = nearest_point(f.support(), xi)
    w = sub(projection.q, xi)
    if projection.dist_sq == 0:
        lam = None
    else:
        direction, _ = _primitive_direction(w)
        lam = OneParamSubgroup(direction)
    witness = tuple(
        (tuple(int(x) for x in p), c) for p, c in projection.hull_weights
    )
    return InstabilityCertificate(
        q=projection.q,
        w=w,
        delta_sq=projection.dist_sq,
        lam=lam,
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
    return min(sum(x * k for x, k in zip(vec, e)) for e in f.terms)


def class_rep(a: OneParamSubgroup) -> OneParamSubgroup:
    """Representative of the conjugacy class: weights sorted non-increasing."""
    return OneParamSubgroup(tuple(sorted(a.weights, reverse=True)))
