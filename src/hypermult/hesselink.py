"""Band geometry for destabilized forms and the worst-frame search.

Multiplying a degree-d form by (x_1 ... x_r)^N pushes its support into
{ y >= 0 : sum(y) = D, y_i >= N for i >= 1 } with D = d + r*N.  On the slice
y_0 = d-m, the vertex v_m = (d-m, m+N, N, ..., N) is the point farthest from
the barycenter xi of the degree-D simplex and z_m = (d-m, N + m/r, ...,
N + m/r) the nearest.  The band of m and the gap of a pair m < m' are

    B_m = { y >= 0 : sum(y) = D, |xi - y|^2 <= l_squared, y_0 <= d-m }
    l_squared = |xi - v_m|^2,    gap = |xi - z_m'|^2 - l_squared(m).

On the hyperplane |y - xi|^2 = |y|^2 - D^2/(r+1), so all of it is closed
form, with no barycenter, and band_contains tests y in integers, on the
n = s*y that _linalg.scaled makes of it, s the lcm of its denominators:

    l_squared = (d-m)^2 + (m+N)^2 + (r-1)*N^2 - D^2/(r+1)
    y in B_m iff n >= 0, sum(n) = D*s, n_0 <= (d-m)*s and
                 |n|^2 <= ((d-m)^2 + (m+N)^2 + (r-1)*N^2) * s^2
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
- it moves f by the mover once, with act, and reaches every member from
  there by transvections x_j -> x_j + s*x_i: Taylor shifts of the
  integer numerators, walking the members that differ only in column 0
  (a chain) by one shift per entry that changes;
- it leaves a chain after a projection whose witness lies wholly at the
  top x0-degree of the moved form, d minus the multiplicity at the
  anchor, and skips, with no shift at all, every later chain whose
  support holds such a witness before its column 0 is shifted.  No shift
  x0 -> x0 + s*x_i changes a term of the top x0-degree, and the shifts
  off column 0 keep every x0-degree, so every member of the chain holds
  that witness and would be pruned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import FrozenSet, List, Optional, Sequence, Tuple

from . import _linalg
from ._linalg import norm_sq
from .forms import (
    ExponentVector,
    Frame,
    HomogeneousForm,
    ProjPoint,
    _taylor_shift,
    act,
    check_ints,
    frame_moving_to_origin,
)
from .statepoly import InstabilityCertificate, OneParamSubgroup, class_rep, torus_index

MAX_FRAMES = 4096  # largest frame family
MAX_PAIRS = 2**16  # most band pairs pair_minima lists


@dataclass(frozen=True)
class BandParams:
    """Parameters (r, d, N, m) of one band."""

    r: int
    d: int
    N: int
    m: int

    def __post_init__(self) -> None:
        check_ints(r=self.r, d=self.d, N=self.N, m=self.m)
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
    # ints and Fractions, such as a certificate's q, pass as they are
    if not set(map(type, y)) <= {int, Fraction}:
        y = _linalg.vec(y)
    n, s = _linalg.scaled(y)
    if len(n) != r + 1:
        raise ValueError("point dimension must be r+1")
    if min(n) < 0 or sum(n) != (d + r * big_n) * s or n[0] > (d - m) * s:
        return False
    return norm_sq(n) <= _vertex_norm_sq(r, d, big_n, m) * s * s


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
    if len(y) != r + 1:  # checked before y_0 is read
        raise ValueError("point dimension must be r+1")
    # a y_0 above d fails the cap at m = 0 too
    top = max(0, min(d, d - math.ceil(Fraction(y[0]))))
    if not band_contains(y, r, d, big_n, top):
        return None
    if top > 0 and band_contains(y, r, d, big_n, top - 1):
        return None
    return top


def separation_gap(r: int, d: int, m: int, m_prime: int, big_n: int) -> Fraction:
    """|z_N - xi|^2 - l_squared(r, d, N, m); positive means the pair separates."""
    if not 0 <= m < m_prime <= d:
        raise ValueError("need 0 <= m < m' <= d")
    BandParams(r, d, big_n, m)
    BandParams(r, d, big_n, m_prime)
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

    Column 0 varies fastest, the last row's entry fastest of all.  A
    negative budget or more than MAX_FRAMES members raises ValueError.
    """

    mover: Frame
    budget: int

    def __post_init__(self) -> None:
        _check_budget(self.mover.size - 1, self.budget)

    def __len__(self) -> int:
        r = self.mover.size - 1
        return (2 * self.budget + 1) ** (r * (r + 1) // 2)


def _check_budget(r: int, budget: int) -> None:
    if type(budget) is not int:
        raise ValueError(f"budget must be an integer, got {budget!r:.40}")
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    # a base >= 3 exceeds MAX_FRAMES by its bit length, so cap the power there
    if budget and (2 * budget + 1) ** min(r * (r + 1) // 2, MAX_FRAMES.bit_length()) > MAX_FRAMES:
        raise ValueError(f"budget {budget} at r={r} gives more than {MAX_FRAMES} frames")


def default_frames(r: int, p: ProjPoint, budget: int) -> FrameFamily:
    """Search family around the frame moving p to the origin.

    Every member first applies the mover, then a lower-triangular
    unipotent, which fixes [1:0:...:0].  Permuting coordinates 1..r on top
    would only permute the support, changing neither delta_sq nor the
    sorted label, so the family has none.  A family larger than MAX_FRAMES
    raises ValueError before the mover is built, and a point of more than
    forms.MAX_DIM coordinates before frame_moving_to_origin builds it.
    """
    if r < 1:
        raise ValueError("need r >= 1")
    _check_budget(r, budget)
    if len(p.coords) != r + 1:
        raise ValueError("point dimension must be r+1")
    return FrameFamily(frame_moving_to_origin(p), budget)


def worst_frame_search(
    f: HomogeneousForm, family: FrameFamily
) -> Tuple[Frame, InstabilityCertificate]:
    """Member of the family whose moved form has the largest delta_sq.

    Ties keep the first member, so the result is deterministic.  The value
    is a lower bound for the true index over the whole group; the family
    never proves optimality.

    The result is that of projecting act(g, f) for every member g in
    order, but three exact shortcuts avoid most of that work:

    - Pruning, by one rule: delta_sq is the squared distance from xi to
      the hull of the moved support, so a member's delta_sq is at most
      that of any set its support contains.  A member is not projected
      when its support contains the witness W of a member P already
      projected: the at most r+1 points of P's hull_weights (Wolfe's
      corral).  Their hull holds P's nearest point and lies in the hull of
      P's support, so it is exactly as near xi as that support: no nearer
      than the best.  Such a member can at most tie, and the best is
      replaced only by a strictly larger delta_sq.
    - The transvection walk.  act(A * B, f) = act(A, act(B, f)), and L is
      C * R_2 * ... * R_r, with C = I + sum L[i][0] e_i e_0^T and R_i the
      rest of row i.  So base = act(mover, f), once per search, meets the
      transvections x_j -> x_j + L[i][j]*x_i of R_r first and those of C
      last; members that differ only in column 0 then follow one another
      by one Taylor shift per entry that changes, all integer additions
      on the numerators over base's denominator.
    - Chains ended at the top x0-degree.  Let top be the largest x0
      exponent of base, d minus the multiplicity at the anchor.  A
      transvection x0 -> x0 + s*x_i of C never changes a coefficient of
      x0-degree top, since every term it adds has a lower x0-degree, and
      those of R_2 ... R_r keep every x0-degree.  So the members of one
      chain share their terms of x0-degree top with the chain's form
      before C.  A witness wholly at top, once projected, is held by
      every later member of its chain, which the walk then leaves, and
      a later chain whose form before C holds such a witness is skipped
      with no shift of column 0.  Both only drop members the first rule
      prunes, so the projections are the same, in the same order.  At
      r = 1 with the anchor's multiplicity above d/2, every support point
      lies below xi_0 = d/2, so the witness is the one support point at
      top and the search projects only the first member.

    Memory is one moved form and the at most r+1 exponent vectors of each
    projected member's witness; only the winner becomes a Frame.
    """
    n = f.r + 1
    base = act(family.mover, f)
    top = max(e[0] for e in base.nums)
    settings = range(-family.budget, family.budget + 1)
    lower = [(i, j) for i in range(1, n) for j in range(1, i)]
    witnesses: List[FrozenSet[ExponentVector]] = []
    at_top: List[FrozenSet[ExponentVector]] = []  # witnesses wholly at x0-degree top
    best: Optional[Tuple[Tuple[int, ...], Tuple[int, ...], InstabilityCertificate]] = None
    for fill in product(settings, repeat=len(lower)):
        moved = base.nums
        for (i, j), s in zip(reversed(lower), reversed(fill)):
            if s:
                moved = _taylor_shift(moved, j, i, s)
        if any(moved.keys() >= w for w in at_top):
            continue
        before = (0,) * f.r
        for shifts in product(settings, repeat=f.r):
            for i, (s, s0) in enumerate(zip(shifts, before), 1):
                if s != s0:
                    moved = _taylor_shift(moved, 0, i, s - s0)
            before = shifts
            if any(moved.keys() >= w for w in witnesses):
                continue
            cert = torus_index(HomogeneousForm._from_ints(f.r, f.d, moved, base.den))
            witness = frozenset(e for e, _ in cert.hull_weights)
            witnesses.append(witness)
            if best is None or cert.delta_sq > best[2].delta_sq:
                best = (fill, shifts, cert)
            if all(e[0] == top for e in witness):
                at_top.append(witness)
                break
    fill, shifts, cert = best
    unipotent = [[int(i == j) for j in range(n)] for i in range(n)]
    for (i, j), value in zip(lower + [(i, 0) for i in range(1, n)], fill + shifts):
        unipotent[i][j] = value
    return Frame(_linalg.mat_mul(unipotent, family.mover.rows)), cert
