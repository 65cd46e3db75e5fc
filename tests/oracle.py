"""Independent reference implementations used only by the tests.

These deliberately avoid the code paths they check: multiplicity comes from
an affine dehomogenization instead of frames, projections come from
either subset enumeration or random convex combinations instead of the
active-set search, or from the same Wolfe search run in Fraction arithmetic
with Gauss-Jordan solves instead of the library's integer core, band
geometry comes from vector distances to the barycenter instead of the
closed forms, the band of a point from a scan of every band instead of the
two-test interval argument, the scale of a certificate from lam and w
instead of the projection's lcm, the frame family keeps the permutations
of coordinates 1..r that the library drops, the frame family is listed as
one Frame per member where the library keeps a mover and a budget, and
the worst-frame search moves and projects every frame, with neither the
chain walk nor the pruning.  The largest multiplicity of a binary form,
and with it the largest torus index the paper's relation allows at r = 1,
comes from Yun's squarefree decomposition over Q.  Determinants, point images and the substitution action are
computed over Fractions, by Gaussian elimination and the exact inverse,
where the library runs fraction-free on integer frames.  Form files are
read field by field, where the library reads a row with one match.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from hypermult import (
    FormParseError,
    Frame,
    HomogeneousForm,
    ProjPoint,
    ProjectionResult,
    act,
    barycenter,
    frame_moving_to_origin,
    torus_index,
)
from hypermult.forms import _quote
from hypermult._linalg import Vector, dot, mat_mul, norm_sq, sub, vec

Matrix = Sequence[Sequence[Fraction]]


_HEADER = re.compile(r"^r=(\d+)\s+d=(\d+)$", re.ASCII)
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")
_EXPONENT = re.compile(r"[0-9]+")


def _read_rational_oracle(text: str) -> Tuple[int, int]:
    """(p, q) with q > 0 from an optional sign, then p or p/q."""
    match = _RATIONAL.fullmatch(text)
    if not match:
        raise ValueError(f"{_quote(text)} is not a rational p or p/q")
    num, den = match.groups()
    try:
        p, q = int(num), int(den) if den else 1
    except ValueError as exc:  # more digits than int() converts
        raise ValueError(f"{_quote(text)} has too many digits") from exc
    if q == 0:
        raise ValueError(f"{_quote(text)} has a zero denominator")
    return p, q


def parse_form_oracle(text: str) -> HomogeneousForm:
    """parse_form with each field of a row split out and checked on its own.

    No limit on the common denominator: inputs whose lcm stays below
    MAX_DEN_BITS get the library's answer or its FormParseError message.
    """
    payload: List[str] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            payload.append(line)
    if not payload:
        raise FormParseError("empty input: expected an 'r=<int> d=<int>' header")
    header = _HEADER.match(payload[0])
    if not header:
        raise FormParseError(f"bad header {_quote(payload[0])}: expected 'r=<int> d=<int>'")
    try:
        r, d = int(header.group(1)), int(header.group(2))
    except ValueError as exc:
        raise FormParseError(f"bad header {_quote(payload[0])}: too many digits") from exc
    rows: List[Tuple[Tuple[int, ...], int, int]] = []
    for line in payload[1:]:
        fields = line.split()
        if len(fields) != r + 2:
            raise FormParseError(
                f"row {_quote(line)} needs a coefficient and {r + 1} exponents"
            )
        try:
            p, q = _read_rational_oracle(fields[0])
        except ValueError as exc:
            raise FormParseError(f"bad coefficient: {exc}") from exc
        if not all(_EXPONENT.fullmatch(x) for x in fields[1:]):
            raise FormParseError(f"bad exponent in row {_quote(line)}: digits 0-9 only")
        try:
            expo = [int(x) for x in fields[1:]]
        except ValueError as exc:
            raise FormParseError(f"too many digits in row {_quote(line)}") from exc
        rows.append((tuple(expo), p, q))
    den = math.lcm(*(q for _, _, q in rows))
    nums: Dict[Tuple[int, ...], int] = {}
    for key, p, q in rows:
        nums[key] = nums.get(key, 0) + p * (den // q)
    try:
        return HomogeneousForm._from_ints(r, d, nums, den)
    except ValueError as exc:
        raise FormParseError(str(exc)) from exc


def mult_oracle(f: HomogeneousForm, p: ProjPoint) -> int:
    """Multiplicity via expansion in an affine chart around p.

    Pick a chart x_i = 1 with p_i != 0, substitute x_j = u_j + p_j/p_i for
    j != i, and read off the least total degree in u with a surviving
    coefficient.  No frames, no projections.
    """
    coords = p.coords
    i = max(idx for idx, c in enumerate(coords) if c != 0)
    shifts = [coords[j] / coords[i] for j in range(len(coords))]
    # local[e_local] accumulates the expanded coefficient
    local: Dict[Tuple[int, ...], Fraction] = {}
    for e, coeff in f.terms.items():
        # expand prod_{j != i} (u_j + shift_j)^{e_j}
        partial: Dict[Tuple[int, ...], Fraction] = {(0,) * len(coords): coeff}
        for j, ej in enumerate(e):
            if j == i or ej == 0:
                continue
            expanded: Dict[Tuple[int, ...], Fraction] = {}
            for k in range(ej + 1):
                c = math.comb(ej, k) * shifts[j] ** (ej - k)
                if c == 0:
                    continue
                for mono, value in partial.items():
                    lifted = list(mono)
                    lifted[j] += k
                    key = tuple(lifted)
                    expanded[key] = expanded.get(key, Fraction(0)) + value * c
            partial = expanded
        for mono, value in partial.items():
            local[mono] = local.get(mono, Fraction(0)) + value
    degrees = [sum(mono) for mono, value in local.items() if value != 0]
    if not degrees:
        raise AssertionError("a nonzero form cannot expand to zero")
    return min(degrees)


def det(a: Matrix) -> Fraction:
    """Determinant by Gaussian elimination over Fractions."""
    n = len(a)
    rows: List[List[Fraction]] = [[Fraction(x) for x in row] for row in a]
    result = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if rows[i][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            result = -result
        result *= rows[col][col]
        inv = Fraction(1) / rows[col][col]
        for i in range(col + 1, n):
            factor = rows[i][col] * inv
            if factor == 0:
                continue
            rows[i] = [x - factor * y for x, y in zip(rows[i], rows[col])]
    return result


def inverse(a: Matrix) -> Tuple[Vector, ...]:
    """Exact inverse by Gauss-Jordan elimination over Fractions."""
    n = len(a)
    aug: List[List[Fraction]] = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(a)
    ]
    for col in range(n):
        pivot = next((i for i in range(col, n) if aug[i][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for i in range(n):
            if i == col or aug[i][col] == 0:
                continue
            factor = aug[i][col]
            aug[i] = [x - factor * y for x, y in zip(aug[i], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def point_image_oracle(g: Frame, p: ProjPoint) -> ProjPoint:
    """p -> (g^T)^{-1} p with the exact Fraction inverse."""
    matrix = inverse(tuple(zip(*g.rows)))
    return ProjPoint(tuple(dot(row, p.coords) for row in matrix))


def act_oracle(g: Frame, f: HomogeneousForm) -> HomogeneousForm:
    """Substitute x_i -> sum_j g[j][i] x_j with Fraction coefficients throughout."""
    n = f.r + 1

    def mul(p: Dict[Tuple[int, ...], Fraction], q: Dict[Tuple[int, ...], Fraction]):
        out: Dict[Tuple[int, ...], Fraction] = {}
        for e1, c1 in p.items():
            for e2, c2 in q.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return out

    images = [
        {tuple(int(k == j) for k in range(n)): Fraction(g.rows[j][i]) for j in range(n)}
        for i in range(n)
    ]
    acc: Dict[Tuple[int, ...], Fraction] = {}
    for e, coeff in f.terms.items():
        poly = {(0,) * n: coeff}
        for i, ei in enumerate(e):
            for _ in range(ei):
                poly = mul(poly, images[i])
        for key, value in poly.items():
            acc[key] = acc.get(key, Fraction(0)) + value
    return HomogeneousForm(f.r, f.d, {e: c for e, c in acc.items() if c != 0})


def solve_consistent(a: Matrix, b: Sequence[Fraction]) -> Optional[List[Fraction]]:
    """One solution of a*x = b with free variables set to 0, or None.

    Gauss-Jordan elimination over Fractions; None signals inconsistency.
    """
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    aug: List[List[Fraction]] = [list(row) + [Fraction(bi)] for row, bi in zip(a, b)]
    pivots: List[Tuple[int, int]] = []
    row = 0
    for col in range(ncols):
        pivot = next((i for i in range(row, nrows) if aug[i][col] != 0), None)
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        inv = Fraction(1) / aug[row][col]
        aug[row] = [x * inv for x in aug[row]]
        for i in range(nrows):
            if i == row or aug[i][col] == 0:
                continue
            factor = aug[i][col]
            aug[i] = [x - factor * y for x, y in zip(aug[i], aug[row])]
        pivots.append((row, col))
        row += 1
        if row == nrows:
            break
    for i in range(row, nrows):
        if aug[i][ncols] != 0:
            return None
    solution = [Fraction(0)] * ncols
    for prow, pcol in pivots:
        solution[pcol] = aug[prow][ncols]
    return solution


def affine_minimizer(vecs: Sequence[Vector]) -> List[Fraction]:
    """Coefficients of the norm minimizer over the affine hull of vecs."""
    k = len(vecs)
    gram = [[dot(vecs[i], vecs[j]) for j in range(k)] for i in range(k)]
    rows = [tuple(gram[i]) + (Fraction(1),) for i in range(k)]
    rows.append(tuple(Fraction(1) for _ in range(k)) + (Fraction(0),))
    rhs = [Fraction(0)] * k + [Fraction(1)]
    solution = solve_consistent(tuple(rows), rhs)
    if solution is None:
        raise AssertionError("affine minimizer system cannot be inconsistent")
    return solution[:k]


def min_norm_point(vecs: Sequence[Vector]) -> Tuple[Vector, List[int], List[Fraction]]:
    """Wolfe's minimum-norm point in Fraction arithmetic: (x, corral, weights)."""
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
            alpha = affine_minimizer([vecs[j] for j in corral])
            if all(a >= 0 for a in alpha):
                kept = [(j, a) for j, a in zip(corral, alpha) if a > 0]
                corral = [j for j, _ in kept]
                weights = [a for _, a in kept]
                break
            theta = min(w / (w - a) for w, a in zip(weights, alpha) if a < 0)
            weights = [(1 - theta) * w + theta * a for w, a in zip(weights, alpha)]
            kept_idx = [i for i, w in enumerate(weights) if w > 0]
            corral = [corral[i] for i in kept_idx]
            weights = [weights[i] for i in kept_idx]
        combo = [Fraction(0)] * len(vecs[0])
        for j, w in zip(corral, weights):
            for i, v in enumerate(vecs[j]):
                combo[i] += w * v
        x = tuple(combo)
    raise RuntimeError("projection did not terminate")


def nearest_point_oracle(points: Sequence[Sequence], t: Sequence) -> ProjectionResult:
    """nearest_point computed over Fractions with the Fraction Wolfe search."""
    pts = sorted({vec(p) for p in points})
    target = vec(t)
    x, corral, weights = min_norm_point([sub(p, target) for p in pts])
    q = tuple(a + b for a, b in zip(target, x))
    witness = tuple((pts[j], w) for j, w in sorted(zip(corral, weights)))
    return ProjectionResult(q=q, dist_sq=norm_sq(x), hull_weights=witness)


def enum_nearest(points: Sequence[Sequence], t: Sequence) -> Fraction:
    """Exact nearest squared distance by enumerating affine subsets.

    Correct because the true nearest point lies in some affinely
    independent subset with nonnegative affine weights, and every candidate
    combination stays inside the hull, so the minimum over valid candidates
    equals the true squared distance.
    """
    pts = sorted({vec(p) for p in points})
    target = vec(t)
    dim = len(target)
    shifted = [sub(p, target) for p in pts]
    best: Optional[Fraction] = None
    for size in range(1, min(len(pts), dim + 1) + 1):
        for subset in itertools.combinations(range(len(pts)), size):
            chosen = [shifted[j] for j in subset]
            alpha = affine_minimizer(chosen)
            if any(a < 0 for a in alpha):
                continue
            combo = [Fraction(0)] * dim
            for a, s in zip(alpha, chosen):
                for k, x in enumerate(s):
                    combo[k] += a * x
            value = norm_sq(tuple(combo))
            if best is None or value < best:
                best = value
    assert best is not None
    return best


def random_convex_combination(
    points: Sequence[Sequence], rng: random.Random
) -> Tuple[Fraction, ...]:
    pts = [vec(p) for p in points]
    raw = [rng.randint(0, 6) for _ in pts]
    if sum(raw) == 0:
        raw[rng.randrange(len(raw))] = 1
    total = sum(raw)
    combo = [Fraction(0)] * len(pts[0])
    for weight, p in zip(raw, pts):
        for k, x in enumerate(p):
            combo[k] += Fraction(weight, total) * x
    return tuple(combo)


def random_exponent(rng: random.Random, r: int, d: int) -> Tuple[int, ...]:
    cuts = sorted(rng.sample(range(d + r), r))
    prev = -1
    out = []
    for c in cuts + [d + r]:
        out.append(c - prev - 1)
        prev = c
    return tuple(out)


def random_form(rng: random.Random, r: int, d: int, max_terms: int = 4) -> HomogeneousForm:
    terms: Dict[Tuple[int, ...], Fraction] = {}
    for _ in range(rng.randint(1, max_terms)):
        coeff = Fraction(rng.choice([c for c in range(-3, 4) if c != 0]))
        terms[random_exponent(rng, r, d)] = coeff
    return HomogeneousForm(r, d, terms)


def random_point(rng: random.Random, r: int) -> ProjPoint:
    while True:
        coords = [Fraction(rng.randint(-3, 3)) for _ in range(r + 1)]
        if any(coords):
            return ProjPoint(tuple(coords))


def random_unimodular_frame(rng: random.Random, n: int, ops: int = 5) -> Frame:
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(ops):
        kind = rng.randrange(3)
        i, j = rng.sample(range(n), 2)
        if kind == 0:
            k = rng.choice([-2, -1, 1, 2])
            rows[i] = [x + k * y for x, y in zip(rows[i], rows[j])]
        elif kind == 1:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [-x for x in rows[i]]
    return Frame(tuple(tuple(row) for row in rows))


def _slice_vertex(r: int, d: int, big_n: int, m: int) -> Tuple[Fraction, ...]:
    return vec((d - m, m + big_n) + (big_n,) * (r - 1))


def l_squared_oracle(r: int, d: int, big_n: int, m: int) -> Fraction:
    """|xi - (d-m, m+N, N, ..., N)|^2 as a vector distance."""
    xi = barycenter(r, d + r * big_n)
    return norm_sq(sub(xi, _slice_vertex(r, d, big_n, m)))


def separation_gap_oracle(r: int, d: int, m: int, m_prime: int, big_n: int) -> Fraction:
    """|z_N - xi|^2 - l_squared with z_N = (d-m', N + m'/r, ..., N + m'/r)."""
    xi = barycenter(r, d + r * big_n)
    z = (Fraction(d - m_prime),) + (Fraction(big_n) + Fraction(m_prime, r),) * r
    return norm_sq(sub(z, xi)) - l_squared_oracle(r, d, big_n, m)


def band_contains_oracle(y: Sequence, r: int, d: int, big_n: int, m: int) -> bool:
    """Band membership with the distance to the barycenter computed directly."""
    point = vec(y)
    if any(x < 0 for x in point) or sum(point) != d + r * big_n or point[0] > d - m:
        return False
    xi = barycenter(r, d + r * big_n)
    return norm_sq(sub(xi, point)) <= l_squared_oracle(r, d, big_n, m)


def unique_band_oracle(y: Sequence, r: int, d: int, big_n: int) -> Optional[int]:
    """The band of y by scanning every m = 0..d on the vector route.

    None when no band or more than one holds y.
    """
    matches = [m for m in range(d + 1) if band_contains_oracle(y, r, d, big_n, m)]
    return matches[0] if len(matches) == 1 else None


def scale_oracle(cert) -> Optional[Fraction]:
    """lam[i] / w[i] at the first nonzero w[i]: the factor c with lam = c * w."""
    if cert.lam is None:
        return None
    i = next(i for i, b in enumerate(cert.w) if b != 0)
    return Fraction(cert.lam.weights[i]) / cert.w[i]


def _unipotents(n: int, budget: int):
    """Each lower unipotent n x n matrix with entries in -budget..budget.

    In the member order of a frame family: the entries of column 0 vary
    fastest, the last row's fastest of all.
    """
    lower_slots = [(i, j) for i in range(1, n) for j in range(1, i)]
    lower_slots += [(i, 0) for i in range(1, n)]
    for fill in itertools.product(range(-budget, budget + 1), repeat=len(lower_slots)):
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        for (i, j), value in zip(lower_slots, fill):
            rows[i][j] = value
        yield rows


def family_members(family) -> List[Frame]:
    """One Frame per member of a FrameFamily, L * mover, in the search's order."""
    mover = family.mover
    return [Frame(mat_mul(rows, mover.rows)) for rows in _unipotents(mover.size, family.budget)]


def permuted_frames(r: int, p: ProjPoint, budget: int) -> List[Frame]:
    """Every lower unipotent after the mover, then each permutation of 1..r.

    Deduplicated by matrix, in the order of first appearance; the identity
    permutation comes first.
    """
    mover = frame_moving_to_origin(p)
    n = r + 1
    frames: Dict[Tuple, Frame] = {}
    for perm in itertools.permutations(range(1, n)):
        perm_rows = [[0] * n for _ in range(n)]
        perm_rows[0][0] = 1
        for col, row in zip(range(1, n), perm):
            perm_rows[row][col] = 1
        for rows in _unipotents(n, budget):
            total = Frame(mat_mul(mat_mul(perm_rows, rows), mover.rows))
            frames.setdefault(total.rows, total)
    return list(frames.values())


def worst_frame_search_oracle(f: HomogeneousForm, frames) -> Tuple[Frame, object]:
    """First frame with the largest delta_sq, projecting act(frame, f) for each."""
    best = None
    for frame in frames:
        cert = torus_index(act(frame, f))
        if best is None or cert.delta_sq > best[1].delta_sq:
            best = (frame, cert)
    if best is None:
        raise ValueError("frame family cannot be empty")
    return best


# ---------------------------------------------------------------- r = 1
# Univariate polynomials over Q as Fraction coefficient lists, lowest
# degree first, with no trailing zeros; [] is the zero polynomial.


def _trim(p: List[Fraction]) -> List[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _derivative(p: List[Fraction]) -> List[Fraction]:
    return _trim([k * c for k, c in enumerate(p)][1:])


def _divmod(a: List[Fraction], b: List[Fraction]) -> Tuple[List[Fraction], List[Fraction]]:
    rem = list(a)
    quo = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(rem) >= len(b):
        k = len(rem) - len(b)
        c = rem[-1] / b[-1]
        quo[k] = c
        for j, x in enumerate(b):
            rem[k + j] -= c * x
        _trim(rem)
    return _trim(quo), rem


def _gcd(a: List[Fraction], b: List[Fraction]) -> List[Fraction]:
    """Monic gcd by Euclid's algorithm; gcd(a, 0) is a made monic."""
    while b:
        a, b = b, _divmod(a, b)[1]
    return [c / a[-1] for c in a]


def _exact_quotient(a: List[Fraction], b: List[Fraction]) -> List[Fraction]:
    quo, rem = _divmod(a, b)
    assert not rem, "the division should be exact"
    return quo


def squarefree_parts(p: List[Fraction]) -> List[List[Fraction]]:
    """[a_1, a_2, ...] with p = c * a_1 * a_2^2 * ..., each a_i squarefree.

    Yun's algorithm ("On square-free decomposition algorithms", 1976): the
    roots of a_i are exactly the roots of p of multiplicity i, over the
    algebraic closure.  A constant p gives [].
    """
    dp = _derivative(p)
    g = _gcd(p, dp)
    b, c = _exact_quotient(p, g), _exact_quotient(dp, g)
    parts = []
    while len(b) > 1:
        dd = _trim([x - y for x, y in itertools.zip_longest(c, _derivative(b), fillvalue=0)])
        a = _gcd(b, dd)
        b, c = _exact_quotient(b, a), _exact_quotient(dd, a)
        parts.append(a)
    return parts


def binary_index_oracle(f: HomogeneousForm) -> Tuple[int, Fraction]:
    """(m_max, 2 * max(0, m_max - d/2)^2) of a binary form, over Q.

    m_max is the largest multiplicity of a point of f = 0 over the
    algebraic closure: the roots of f(t, 1) give the points [t:1], and the
    drop of its degree below d is the multiplicity of [1:0].  The second
    value, the paper's relation at r = 1, bounds the torus index of f in
    every frame, and a frame moving a point of multiplicity m_max > d/2 to
    [1:0] attains it: a support on the segment from (d, 0) to (0, d) lies
    at squared distance 2*(k - d/2)^2 from xi = (d/2, d/2) through its
    exponent k of x_0 nearest d/2, and the exponents of x_0 run from the
    multiplicity of [0:1] to d minus that of [1:0].  No frames, supports
    or projections are used.
    """
    if f.r != 1:
        raise ValueError("binary forms only")
    chart = [Fraction(0)] * (f.d + 1)
    for (e0, _), c in f.terms.items():
        chart[e0] = c
    chart = _trim(chart)
    parts = squarefree_parts(chart)
    finite = max((i for i, a in enumerate(parts, 1) if len(a) > 1), default=0)
    m_max = max(f.d - (len(chart) - 1), finite)
    return m_max, 2 * max(Fraction(0), m_max - Fraction(f.d, 2)) ** 2
