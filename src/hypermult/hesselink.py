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

worst_frame_search returns what projecting act(g, f) for every frame g in
order would, the first largest delta_sq, without paying for every member:

- it projects no member whose support contains a set at least as near xi
  as the best so far: a support it has already projected, or one point e
  with (r+1)*|e|^2 - d^2 <= (r+1)*best delta_sq, which is (r+1) times
  |e - xi|^2.  A larger support has a hull at least as near xi, so such a
  member can at most tie the best;
- it walks chains: frames whose rows 1..r differ only by multiples of
  row 0 move f by Taylor shifts of one another.  default_frames lists each
  chain's members together, so the search keeps one moved form and takes
  one substitution per setting off column 0, (2b+1)^(r(r-1)/2) of them.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Deque, Iterable, KeysView, List, Optional, Sequence, Tuple

from . import _linalg
from ._linalg import norm_sq
from .forms import (
    Frame,
    HomogeneousForm,
    IntPoly,
    ProjPoint,
    _substitute,
    _taylor_shift,
    frame_moving_to_origin,
)
from .statepoly import InstabilityCertificate, OneParamSubgroup, class_rep, torus_index

MAX_FRAMES = 4096  # largest family default_frames builds
MAX_SUPPORTS = 64  # projected supports worst_frame_search keeps
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
            raise ValueError("cannot label a torus-semistable certificate")
        return cls(
            lambda_rep=class_rep(cert.lam),
            delta_sq=cert.delta_sq,
            scale=cert.scale,
        )


def default_frames(r: int, p: ProjPoint, budget: int) -> List[Frame]:
    """Search family around the frame moving p to the origin.

    Every member first applies the mover, then a lower-triangular
    unipotent with strictly-lower entries drawn from -budget..budget, which
    fixes [1:0:...:0]; all entries 0 give the mover itself.  Permuting
    coordinates 1..r on top would only permute the support, changing
    neither delta_sq nor the sorted label, so the family has none.  A
    family larger than MAX_FRAMES raises ValueError before any is built.
    The entries of column 0 vary fastest, so the members of one chain of
    worst_frame_search, which share the entries off column 0, are adjacent.
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
    n = r + 1
    lower_slots = [(i, j) for i in range(1, n) for j in range(1, i)]
    lower_slots += [(i, 0) for i in range(1, n)]  # so column 0 varies fastest
    mover = frame_moving_to_origin(p)
    frames = []
    for fill in product(range(-budget, budget + 1), repeat=slots):
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        for (i, j), value in zip(lower_slots, fill):
            rows[i][j] = value
        frames.append(Frame(_linalg.mat_mul(rows, mover.rows)))
    return frames


def _chain_of(rows: Sequence[Sequence[int]]) -> Tuple[tuple, Tuple[int, ...]]:
    """(chain key, shifts) of a frame: rows 1..r reduced modulo row 0.

    With k the first nonzero entry of row 0, row i is s_i * row 0 plus a
    remainder whose k-th entry lies between 0 and row0[k]; two frames
    share a key exactly when row 0 agrees and rows 1..r differ by integer
    multiples of it.
    """
    head = tuple(rows[0])
    k = next(j for j, x in enumerate(head) if x)
    shifts = tuple(row[k] // head[k] for row in rows[1:])
    rests = tuple(
        tuple(x - s * h for x, h in zip(row, head)) for row, s in zip(rows[1:], shifts)
    )
    return (head, rests), shifts


def worst_frame_search(
    f: HomogeneousForm, frames: Iterable[Frame]
) -> Tuple[Frame, InstabilityCertificate]:
    """Frame from the family whose moved form has the largest delta_sq.

    Ties keep the first frame encountered, so a fixed family gives a
    deterministic result.  The value is a lower bound for the true index
    over the whole group; the family never proves optimality.

    The result is that of projecting act(frame, f) for every frame in
    order, but two exact shortcuts avoid most of that work:

    - Pruning, by one rule: delta_sq is the squared distance from xi to
      the hull of the moved support, and the hull of a superset holds the
      hull of the subset, so a member's delta_sq is at most that of any
      set its support contains.  A member is not projected when that set
      can be a support already projected, whose delta_sq is at most the
      best, or one support point e, whose squared distance is
      ((r+1)*|e|^2 - d^2)/(r+1) on the hyperplane sum(e) = d, with
      (r+1)*|e|^2 - d^2 <= (r+1)*best.delta_sq.  Such a member can at most
      tie, and the best is replaced only by a strictly larger delta_sq.
    - The chain walk.  Frames whose row 0 agrees and whose rows 1..r
      differ by integer multiples s_i of it form a chain: g = T*g' with
      T = I + sum s_i e_i e_0^T, so act(g, f) is act(g', f) after the
      Taylor shifts x_0 -> x_0 + s_i*x_i, integer additions on the
      numerators over f's denominator.  Only the last member's moved
      form is kept: a member not in its chain gets a full substitution.
      A default_frames family, whose chains are adjacent, takes one per
      setting off column 0, (2b+1)^(r(r-1)/2); other orders take more.

    Memory is one moved form and at most MAX_SUPPORTS projected supports
    (the oldest goes first); only projected members build a form.
    """
    n = f.r + 1
    chain: Optional[Tuple[tuple, Tuple[int, ...], IntPoly]] = None  # the last member's
    projected: Deque[KeysView] = deque(maxlen=MAX_SUPPORTS)
    best: Optional[Tuple[Frame, InstabilityCertificate]] = None
    bound = Fraction(0)  # (r+1) * best delta_sq
    for frame in frames:
        if frame.size != n:
            raise ValueError(f"frame size {frame.size} does not match r+1 = {n}")
        key, shifts = _chain_of(frame.rows)
        if chain is None or chain[0] != key:
            moved = _substitute(frame.rows, f.nums)
        else:
            _, before, moved = chain
            for i, (s, s0) in enumerate(zip(shifts, before), 1):
                if s != s0:
                    moved = _taylor_shift(moved, i, s - s0)
        chain = (key, shifts, moved)
        support = moved.keys()
        if best is not None:
            if any(support >= p for p in projected):
                continue
            # (r+1) * the least |e - xi|^2 over the moved support
            nearest = n * min(sum(x * x for x in e) for e in support) - f.d * f.d
            if nearest <= bound:
                continue
        projected.append(support)
        cert = torus_index(HomogeneousForm._from_ints(f.r, f.d, moved, f.den))
        if best is None or cert.delta_sq > best[1].delta_sq:
            best = (frame, cert)
            bound = n * cert.delta_sq
    if best is None:
        raise ValueError("frame family cannot be empty")
    return best
