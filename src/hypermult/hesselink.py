"""Band geometry for destabilized forms and the worst-frame search.

Multiplying a degree-d form by (x_1 ... x_r)^N pushes its support into
{ y >= 0 : sum(y) = D, y_i >= N for i >= 1 } with D = d + r*N.  On the slice
y_0 = d-m, the vertex v_m = (d-m, m+N, N, ..., N) is the point farthest from
the barycenter xi of the degree-D simplex and z_m = (d-m, N + m/r, ...,
N + m/r) the nearest.  The band of m and the gap of a pair m < m' are

    B_m = { y >= 0 : sum(y) = D, |xi - y|^2 <= l_squared, y_0 <= d-m }
    l_squared = |xi - v_m|^2,    gap = |xi - z_m'|^2 - l_squared(m).

On the hyperplane |y - xi|^2 = |y|^2 - D^2/(r+1), so all of it is closed
form, with no barycenter:

    l_squared = (d-m)^2 + (m+N)^2 + (r-1)*N^2 - D^2/(r+1)
    y in B_m needs |y|^2 <= (d-m)^2 + (m+N)^2 + (r-1)*N^2
    gap = (d-m')^2 - (d-m)^2 + m'^2/r - m^2 + 2*(m'-m)*N

The gap is linear in N with slope 2(m' - m) > 0, so each pair has a least
separating N and stays separated above it.  The threshold for (r, d) also
insists on N > d, which the capture argument for destabilized forms needs.
For N > d the bands holding a point form one interval of m, so
unique_band finds the band of a point with at most two band tests.

A frame family is a mover and a budget b: its members are L * mover for
each lower unipotent L with entries in -b..b.  worst_frame_search returns
what projecting act(g, f) for every member g in order would, without
paying for every member:

- it projects no member whose support contains the witness of a member
  already projected: the at most r+1 support points whose hull holds that
  member's nearest point, so their hull is exactly as near xi as its
  support, no nearer than the best.  A larger set has a hull at least as
  near xi, so such a member can at most tie the best;
- it walks the family chain by chain: members whose entries off column 0
  agree move f by Taylor shifts of one another, so it takes one full
  substitution per setting off column 0, (2b+1)^(r(r-1)/2) of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import FrozenSet, List, Optional, Sequence, Tuple

from . import _linalg
from ._linalg import Matrix, norm_sq
from .forms import (
    ExponentVector,
    Frame,
    HomogeneousForm,
    ProjPoint,
    _substitute,
    _taylor_shift,
    frame_moving_to_origin,
)
from .statepoly import (
    InstabilityCertificate, OneParamSubgroup, check_dim, class_rep, torus_index
)

MAX_FRAMES = 4096  # largest family default_frames builds
MAX_PAIRS = 2**16  # most band pairs pair_minima lists


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


def _vertex_norm_sq(r: int, d: int, big_n: int, m: int) -> int:
    """|v_m|^2 for the slice vertex v_m = (d-m, m+N, N, ..., N)."""
    return (d - m) ** 2 + (m + big_n) ** 2 + (r - 1) * big_n**2


def l_squared(r: int, d: int, big_n: int, m: int) -> Fraction:
    """Squared band radius: |xi - (d-m, m+N, N, ..., N)|^2, exactly."""
    BandParams(r, d, big_n, m)
    degree = d + r * big_n
    return _vertex_norm_sq(r, d, big_n, m) - Fraction(degree * degree, r + 1)


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
    # both sides of |xi - y|^2 <= l_squared carry the same -D^2/(r+1)
    return norm_sq(point) <= _vertex_norm_sq(r, d, big_n, m)


def unique_band(y: Sequence, r: int, d: int, big_n: int) -> Optional[int]:
    """The one m whose band B_m holds y, or None if no band or several do.

    For N > d the slice vertex grows with m: |v_{m+1}|^2 - |v_m|^2 =
    2(N - d + 2m + 1) > 0, so the radius test |y|^2 <= |v_m|^2, once it
    holds, holds for every larger m.  The cap y_0 <= d - m holds exactly
    for m <= floor(d - y_0), and the simplex tests do not depend on m.  So
    the bands holding y are the integers of one interval ending at
    top = min(d, floor(d - y_0)), and y has exactly one band when
    band_contains holds at top and, unless top = 0, fails at top - 1.
    """
    if big_n <= d:
        raise ValueError(f"need N > d for the band interval, got N={big_n}, d={d}")
    point = _linalg.vec(y)
    # a y_0 above d fails the cap at m = 0 too
    top = max(0, min(d, d - math.ceil(point[0])))
    if not band_contains(point, r, d, big_n, top):
        return None
    if top > 0 and band_contains(point, r, d, big_n, top - 1):
        return None
    return top


def separation_gap(r: int, d: int, m: int, m_prime: int, big_n: int) -> Fraction:
    """|z_N - xi|^2 - l_squared(r, d, N, m); positive means the pair separates."""
    if not 0 <= m < m_prime <= d:
        raise ValueError("need 0 <= m < m' <= d")
    BandParams(r, d, big_n, m)
    gap0 = (d - m_prime) ** 2 - (d - m) ** 2 + Fraction(m_prime**2, r) - m * m
    return gap0 + 2 * (m_prime - m) * big_n


def pair_separation_min_N(r: int, d: int, m: int, m_prime: int) -> int:
    """Least N >= 0 separating the bands of m < m'.

    The gap is linear in N with slope 2(m' - m) > 0, so the least solution
    comes from one exact division and separation persists for larger N.
    """
    # least integer N >= 0 with gap(0) + 2(m' - m) * N > 0
    gap0 = separation_gap(r, d, m, m_prime, 0)
    return max(0, math.floor(-gap0 / (2 * (m_prime - m))) + 1)


def pair_minima(r: int, d: int) -> List[Tuple[int, int, int]]:
    """All (m, m', least separating N) with 0 <= m < m' <= d.

    More than MAX_PAIRS pairs raise ValueError before any is computed.
    """
    BandParams(r, d, 0, 0)
    if d * (d + 1) // 2 > MAX_PAIRS:
        raise ValueError(f"d={d} gives more than {MAX_PAIRS} band pairs to list")
    return [
        (m, mp, pair_separation_min_N(r, d, m, mp))
        for m in range(d + 1)
        for mp in range(m + 1, d + 1)
    ]


def separation_threshold(r: int, d: int) -> int:
    """Least N with N > d that separates every pair of bands at once.

    Only the pairs (0, 1) and (d-1, d) need checking.  Adjacent pairs
    suffice, because telescoping gives

        gap(m, m') = sum_{m <= k < m'} gap(k, k+1)
                     + sum_{m < k < m'} (l_squared(k) - |z_k - xi|^2)

    and on each slice v_k maximizes the distance from xi while z_k
    minimizes it, so the second sum is >= 0.  The least N for (m, m+1) is
    max(0, floor(h(m)) + 1) with h(m) = m^2/2 - (m+1)^2/(2r) - m + d - 1/2,
    convex in m for r >= 2 and decreasing for r = 1, so its maximum over
    0 <= m <= d-1 is at m = 0 or m = d-1.
    """
    BandParams(r, d, 0, 0)
    return max(d + 1, *(pair_separation_min_N(r, d, m, m + 1) for m in (0, d - 1)))


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
            raise ValueError(
                "cannot label a torus-semistable certificate (delta_sq = 0); "
                "bounds need an unstable form"
            )
        return cls(
            lambda_rep=class_rep(cert.lam),
            delta_sq=cert.delta_sq,
            scale=cert.scale,
        )


@dataclass(frozen=True)
class FrameFamily:
    """L * mover for each lower unipotent L with entries in -budget..budget.

    Column 0 varies fastest, the last row's entry fastest of all.
    """

    mover: Frame
    budget: int

    def __len__(self) -> int:
        r = self.mover.size - 1
        return (2 * self.budget + 1) ** (r * (r + 1) // 2)


def default_frames(r: int, p: ProjPoint, budget: int) -> FrameFamily:
    """Search family around the frame moving p to the origin.

    Every member first applies the mover, then a lower-triangular
    unipotent, which fixes [1:0:...:0].  Permuting coordinates 1..r on top
    would only permute the support, changing neither delta_sq nor the
    sorted label, so the family has none.  A family larger than MAX_FRAMES
    or of more than statepoly.MAX_DIM coordinates raises ValueError before
    the mover is built.
    """
    if r < 1:
        raise ValueError("need r >= 1")
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if len(p.coords) != r + 1:
        raise ValueError("point dimension must be r+1")
    slots = r * (r + 1) // 2
    # a base >= 3 exceeds MAX_FRAMES by its bit length, so cap the power there
    if budget and (2 * budget + 1) ** min(slots, MAX_FRAMES.bit_length()) > MAX_FRAMES:
        raise ValueError(f"budget {budget} at r={r} gives more than {MAX_FRAMES} frames")
    check_dim(r + 1)
    return FrameFamily(frame_moving_to_origin(p), budget)


def worst_frame_search(
    f: HomogeneousForm, family: FrameFamily
) -> Tuple[Frame, InstabilityCertificate]:
    """Member of the family whose moved form has the largest delta_sq.

    Ties keep the first member, so the result is deterministic.  The value
    is a lower bound for the true index over the whole group; the family
    never proves optimality.

    The result is that of projecting act(g, f) for every member g in
    order, but two exact shortcuts avoid most of that work:

    - Pruning, by one rule: delta_sq is the squared distance from xi to
      the hull of the moved support, so a member's delta_sq is at most
      that of any set its support contains.  A member is not projected
      when its support contains the witness W of a member P already
      projected: the at most r+1 points of P's hull_weights (Wolfe's
      corral).  Their hull holds P's nearest point and lies in the hull of
      P's support, so it is exactly as near xi as that support: no nearer
      than the best.  Such a member can at most tie, and the best is
      replaced only by a strictly larger delta_sq.
    - The chain walk.  With base = L * mover for one setting off column
      0, the member of column-0 entries s_i is T * base, T = I + sum s_i
      e_i e_0^T: base with s_i * row 0 added to row i.  So act(T * base, f)
      is act(base, f) after the Taylor shifts x_0 -> x_0 + s_i*x_i,
      integer additions on the numerators over f's denominator: one full
      substitution per chain, then a shift per entry that changes.

    Memory is one moved form and the at most r+1 exponent vectors of each
    projected member's witness; only the winner becomes a Frame.
    """
    n = f.r + 1
    if family.mover.size != n:
        raise ValueError(f"frame size {family.mover.size} does not match r+1 = {n}")
    settings = range(-family.budget, family.budget + 1)
    lower = [(i, j) for i in range(1, n) for j in range(1, i)]
    witnesses: List[FrozenSet[ExponentVector]] = []
    best: Optional[Tuple[Matrix, Tuple[int, ...], InstabilityCertificate]] = None
    for fill in product(settings, repeat=len(lower)):
        unipotent = [[int(i == j) for j in range(n)] for i in range(n)]
        for (i, j), value in zip(lower, fill):
            unipotent[i][j] = value
        base = _linalg.mat_mul(unipotent, family.mover.rows)
        before = (0,) * f.r
        moved = _substitute(base, f.nums)
        for shifts in product(settings, repeat=f.r):
            for i, (s, s0) in enumerate(zip(shifts, before), 1):
                if s != s0:
                    moved = _taylor_shift(moved, i, s - s0)
            before = shifts
            if any(moved.keys() >= w for w in witnesses):
                continue
            cert = torus_index(HomogeneousForm._from_ints(f.r, f.d, moved, f.den))
            witnesses.append(frozenset(e for e, _ in cert.hull_weights))
            if best is None or cert.delta_sq > best[2].delta_sq:
                best = (base, shifts, cert)
    base, shifts, cert = best
    head = base[0]
    rows = [head] + [[x + s * h for x, h in zip(row, head)] for row, s in zip(base[1:], shifts)]
    return Frame(rows), cert
