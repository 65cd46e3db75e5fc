"""Band geometry for destabilized forms and the worst-frame search.

Multiplying a degree-d form by (x_1 ... x_r)^N pushes its support into the
region

    Q = { y >= 0 : sum(y) = d + r*N, y_i >= N for i >= 1 }

inside the hyperplane of degree d + r*N.  For a multiplicity value m the
reference point (d-m, m+N, N, ..., N) is a vertex of the slice of Q at
y_0 = d-m, and its squared distance to the barycenter xi of the big
simplex,

    l_squared(r, d, N, m) = |xi - (d-m, m+N, N, ..., N)|^2,

is the largest squared distance xi attains on that slice.  The band for m
collects the plausible nearest points:

    B_m = { y >= 0 : sum(y) = d + r*N, |xi - y|^2 <= l_squared, y_0 <= d-m }.

Bands for different m become pairwise disjoint once N is large enough.
The separating quantity for a pair m < m' is

    gap(N) = |z_N - xi|^2 - l_squared(r, d, N, m),
    z_N = (d-m', N + m'/r, ..., N + m'/r),

where z_N minimizes the distance from xi over the slice y_0 = d-m'.  The
gap is linear in N with slope exactly 2(m' - m) > 0, so each pair has a
least N making it positive, and it stays positive afterwards.  The
threshold reported for (r, d) also insists on N > d, which the capture
argument for destabilized forms needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from typing import Iterable, List, Optional, Sequence, Tuple

from . import _linalg
from ._linalg import Vector, norm_sq, sub
from .forms import Frame, HomogeneousForm, ProjPoint, act, frame_moving_to_origin
from .statepoly import (
    InstabilityCertificate,
    OneParamSubgroup,
    barycenter,
    class_rep,
    torus_index,
)


@dataclass(frozen=True)
class BandParams:
    """Parameters (r, d, N, m) of one band."""

    r: int
    d: int
    N: int
    m: int

    def __post_init__(self) -> None:
        if self.r < 1 or self.d < 1:
            raise ValueError("need r >= 1 and d >= 1")
        if self.N < 0:
            raise ValueError("need N >= 0")
        if not 0 <= self.m <= self.d:
            raise ValueError("need 0 <= m <= d")


def _slice_vertex(r: int, d: int, big_n: int, m: int) -> Vector:
    return _linalg.vec((d - m, m + big_n) + (big_n,) * (r - 1))


def l_squared(r: int, d: int, big_n: int, m: int) -> Fraction:
    """Squared band radius: |xi - (d-m, m+N, N, ..., N)|^2, exactly."""
    BandParams(r, d, big_n, m)
    xi = barycenter(r, d + r * big_n)
    return norm_sq(sub(xi, _slice_vertex(r, d, big_n, m)))


def band_contains(y: Sequence, r: int, d: int, big_n: int, m: int) -> bool:
    """Membership of y in the band B_m inside the degree d + r*N simplex."""
    BandParams(r, d, big_n, m)
    point = _linalg.vec(y)
    if len(point) != r + 1:
        raise ValueError("point dimension must be r+1")
    if any(x < 0 for x in point):
        return False
    if sum(point, Fraction(0)) != d + r * big_n:
        return False
    if point[0] > d - m:
        return False
    xi = barycenter(r, d + r * big_n)
    return norm_sq(sub(xi, point)) <= l_squared(r, d, big_n, m)


def _z_point(r: int, d: int, big_n: int, m_prime: int) -> Vector:
    """Distance minimizer from xi over the slice y_0 = d - m' of the simplex."""
    rest = Fraction(big_n) + Fraction(m_prime, r)
    return (Fraction(d - m_prime),) + (rest,) * r


def separation_gap(r: int, d: int, m: int, m_prime: int, big_n: int) -> Fraction:
    """|z_N - xi|^2 - l_squared(r, d, N, m); positive means the pair separates."""
    if not 0 <= m < m_prime <= d:
        raise ValueError("need 0 <= m < m' <= d")
    BandParams(r, d, big_n, m)
    xi = barycenter(r, d + r * big_n)
    return norm_sq(sub(_z_point(r, d, big_n, m_prime), xi)) - l_squared(r, d, big_n, m)


def pair_separation_min_N(r: int, d: int, m: int, m_prime: int) -> int:
    """Least N >= 0 separating the bands of m < m'.

    The gap is linear in N with slope 2(m' - m) > 0, so the least solution
    comes from one exact division and separation persists for larger N.
    """
    gap0 = separation_gap(r, d, m, m_prime, 0)
    slope = separation_gap(r, d, m, m_prime, 1) - gap0
    if slope != 2 * (m_prime - m):
        raise AssertionError("separation gap lost its linear structure")
    if gap0 > 0:
        return 0
    # least integer N with gap0 + slope * N > 0
    return math.floor(-gap0 / slope) + 1


def pair_minima(r: int, d: int) -> List[Tuple[int, int, int]]:
    """All (m, m', least separating N) with 0 <= m < m' <= d."""
    BandParams(r, d, 0, 0)
    return [
        (m, mp, pair_separation_min_N(r, d, m, mp))
        for m in range(d + 1)
        for mp in range(m + 1, d + 1)
    ]


def separation_threshold(r: int, d: int) -> int:
    """Least N with N > d that separates every pair of bands at once."""
    return max([d + 1] + [n for _, _, n in pair_minima(r, d)])


@dataclass(frozen=True)
class StratumLabel:
    """Conjugation-invariant instability label: sorted weights, index, scale."""

    lambda_rep: OneParamSubgroup
    delta_sq: Fraction
    scale: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "delta_sq", Fraction(self.delta_sq))
        object.__setattr__(self, "scale", Fraction(self.scale))
        if self.delta_sq <= 0:
            raise ValueError("a stratum label needs delta_sq > 0")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if tuple(sorted(self.lambda_rep.weights, reverse=True)) != self.lambda_rep.weights:
            raise ValueError("lambda_rep must be sorted non-increasing")
        if self.lambda_rep.norm_sq != self.scale * self.scale * self.delta_sq:
            raise ValueError("norm of lambda_rep must equal scale^2 * delta_sq")

    @classmethod
    def from_certificate(cls, cert: InstabilityCertificate) -> "StratumLabel":
        if cert.lam is None:
            raise ValueError("cannot label a torus-semistable certificate")
        scale = cert.scale
        assert scale is not None
        return cls(
            lambda_rep=class_rep(cert.lam),
            delta_sq=cert.delta_sq,
            scale=scale,
        )


def default_frames(r: int, p: ProjPoint, budget: int) -> List[Frame]:
    """Deduplicated search family around the frame moving p to the origin.

    Every member first applies the mover, then a frame fixing [1:0:...:0]:
    a lower-triangular unipotent with strictly-lower entries drawn from
    -budget..budget followed by a permutation of the coordinates 1..r.
    The mover itself is always present (unipotent = identity, trivial
    permutation).
    """
    if r < 1:
        raise ValueError("need r >= 1")
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if len(p.coords) != r + 1:
        raise ValueError("point dimension must be r+1")
    mover = frame_moving_to_origin(p)
    n = r + 1
    lower_slots = [(i, j) for i in range(1, n) for j in range(i)]
    entries = range(-budget, budget + 1)
    frames = {}
    for perm in permutations(range(1, n)):
        perm_rows = [[0] * n for _ in range(n)]
        perm_rows[0][0] = 1
        for col, row in zip(range(1, n), perm):
            perm_rows[row][col] = 1
        perm_frame = Frame(_linalg.mat(perm_rows))
        for fill in product(entries, repeat=len(lower_slots)):
            rows = [[int(i == j) for j in range(n)] for i in range(n)]
            for (i, j), value in zip(lower_slots, fill):
                rows[i][j] = value
            unipotent = Frame(_linalg.mat(rows))
            total = perm_frame.compose(unipotent).compose(mover)
            frames[total.rows] = total
    return list(frames.values())


def worst_frame_search(
    f: HomogeneousForm, frames: Iterable[Frame]
) -> Tuple[Frame, InstabilityCertificate]:
    """Frame from the family whose moved form has the largest delta_sq.

    Ties keep the first frame encountered, so a fixed family gives a
    deterministic result.  The value is a lower bound for the true index
    over the whole group; the family never proves optimality.
    """
    best: Optional[Tuple[Frame, InstabilityCertificate]] = None
    for frame in frames:
        cert = torus_index(act(frame, f))
        if best is None or cert.delta_sq > best[1].delta_sq:
            best = (frame, cert)
    if best is None:
        raise ValueError("frame family cannot be empty")
    return best
