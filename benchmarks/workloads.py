"""Seeded request lists for the benchmark workloads.

Each workload is a list of CLI requests over generated `.form` files.  The
same (workload, seed) always gives the same list, byte for byte.  The
program under test only ever sees the form text and the argv; everything a
checker needs to judge the answer (the multiplicity the form was built with,
the support, whether the form is known to be unstable) travels alongside in
`Request.expect` and is never read back from the program.

Frames, singular forms and the substitution that moves a form by a frame are
generated here, independently of the library.  Only `classify-grid` asks the
library for forms, through `gen_corpus`, because those corpus forms are what
`hypermult verify` classifies.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

Exponent = Tuple[int, ...]
Poly = Dict[Exponent, Fraction]
IntMatrix = List[List[int]]


@dataclass(frozen=True)
class Request:
    """One CLI call: `hypermult <command> --input <form file> <extra...>`."""

    command: str
    form_text: str
    extra: Tuple[str, ...]
    expect: dict
    # warm-up runs every request marked here once before timing starts
    warm: bool = field(default=False, compare=False)


# ---------------------------------------------------------------- helpers


def form_text(r: int, d: int, terms: Poly) -> str:
    lines = [f"r={r} d={d}"]
    for e in sorted(terms):
        lines.append(" ".join([str(terms[e])] + [str(x) for x in e]))
    return "\n".join(lines) + "\n"


def point_arg(coords: Sequence[int]) -> str:
    # `--point -1,2` is read by argparse as an unknown option, so the value
    # is always attached with '='
    return "--point=" + ",".join(str(x) for x in coords)


def monomials(n: int, d: int) -> List[Exponent]:
    """All exponent vectors of length n summing to d, in lexicographic order."""
    out = []
    for cuts in itertools.combinations(range(d + n - 1), n - 1):
        prev, e = -1, []
        for c in cuts + (d + n - 1,):
            e.append(c - prev - 1)
            prev = c
        out.append(tuple(e))
    return sorted(out)


def unimodular_frame(rng: random.Random, n: int) -> Tuple[IntMatrix, IntMatrix]:
    """A random integer matrix g with det +-1, and its exact inverse.

    g is built from row operations: row_i += +-row_j for every j < i, then
    a row permutation and row signs.  Every draw mixes the coordinates the
    same way, so moved forms have the same density and their cost does not
    swing with the seed.  Each operation is undone on the inverse by the
    matching column operation, so g * inverse stays I.
    """
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [[int(i == j) for j in range(n)] for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i)]
    for i, j in pairs:
        k = rng.choice((-1, 1))
        g[i] = [a + k * b for a, b in zip(g[i], g[j])]
        for row in inv:
            row[j] -= k * row[i]
    perm = rng.sample(range(n), n)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    g = [[signs[i] * x for x in g[perm[i]]] for i in range(n)]
    inv = [[signs[i] * row[perm[i]] for i in range(n)] for row in inv]
    for i in range(n):
        for j in range(n):
            if sum(g[i][k] * inv[k][j] for k in range(n)) != int(i == j):
                raise AssertionError("frame inverse bookkeeping is wrong")
    return g, inv


def _poly_mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def substitute(g: IntMatrix, terms: Poly) -> Poly:
    """(g.f)(x) = f(g^T x): replace x_i by sum_j g[j][i] x_j."""
    n = len(g)
    images = [
        {tuple(int(k == j) for k in range(n)): g[j][i] for j in range(n) if g[j][i]}
        for i in range(n)
    ]
    out: Poly = {}
    for e, c in terms.items():
        poly: Poly = {(0,) * n: c}
        for i, k in enumerate(e):
            for _ in range(k):
                poly = _poly_mul(poly, images[i])
        for key, value in poly.items():
            out[key] = out.get(key, 0) + value
    return {e: c for e, c in out.items() if c != 0}


def moved(rng: random.Random, r: int, terms: Poly) -> Tuple[Poly, Tuple[int, ...]]:
    """Move a form by a seeded frame g; return g.f and the image of [1:0:...:0].

    Points move by (g^T)^-1, so the origin goes to row 0 of g^-1, and g.f has
    at that point the multiplicity f has at the origin.
    """
    g, inv = unimodular_frame(rng, r + 1)
    return substitute(g, terms), tuple(inv[0])


# ----------------------------------------------------------- classify-grid

CLASSIFY_GRID = ((1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (3, 6))
CLASSIFY_PER_CELL = 4  # origin requests per (r, d, m); as many again off the origin


def classify_grid(seed: int) -> List[Request]:
    from hypermult.classifier import gen_corpus

    rng = random.Random(f"classify-grid:{seed}")
    out = []
    for r, d in CLASSIFY_GRID:
        for m in range(d + 1):
            forms = gen_corpus(r, d, m, 2 * CLASSIFY_PER_CELL, rng.randrange(2**31))
            for i, f in enumerate(forms):
                terms = dict(f.terms)
                if d - max(e[0] for e in terms) != m:
                    raise AssertionError(f"corpus form has the wrong multiplicity {m}")
                expect = {"m": m}
                if i < CLASSIFY_PER_CELL:
                    req = Request("classify", form_text(r, d, terms), (), expect, warm=i == 0 and m == 0)
                else:
                    image, point = moved(rng, r, terms)
                    req = Request("classify", form_text(r, d, image), (point_arg(point),), expect)
                out.append(req)
    rng.shuffle(out)
    return out


# ------------------------------------------------------------- index-dense

# (r, d) shapes; each has at least 20 monomials with e[1] > d/(r+1)
DENSE_SHAPES = ((3, 6), (4, 4), (4, 5), (4, 6), (5, 4), (5, 5), (5, 6))
DENSE_PER_SHAPE = 32  # half of them with support cut to e[1] >= k


def _coefficient(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))


def index_dense(seed: int) -> List[Request]:
    rng = random.Random(f"index-dense:{seed}")
    out = []
    for r, d in DENSE_SHAPES:
        every = monomials(r + 1, d)
        k = d // (r + 1) + 1  # e[1] >= k keeps the barycenter out of the hull
        cut = [e for e in every if e[1] >= k]
        for i in range(DENSE_PER_SHAPE):
            unstable = i % 2 == 1
            pool = cut if unstable else every
            # stratified over 20..150 so every seed spans the same sizes
            top = min(150, len(pool))
            size = 20 + int((top - 19) * (i // 2 + rng.random()) / (DENSE_PER_SHAPE // 2))
            support = rng.sample(pool, size)
            terms = {e: _coefficient(rng) for e in support}
            expect = {"r": r, "d": d, "support": sorted(support), "unstable": unstable}
            out.append(Request("index", form_text(r, d, terms), (), expect, warm=i == 0))
    rng.shuffle(out)
    return out


# ------------------------------------------------------------ bound-frames

# Plane curves whose only point of multiplicity m is [1:0:0], with m > 2d/3:
# (d, m, support, budgets); coefficients are drawn per request.  Budget 2
# searches 250 frames, so only the two cheapest curves get it.
PLANE_TEMPLATES = (
    (2, 2, ((0, 2, 0), (0, 0, 2)), (1, 1, 1, 1, 2)),
    (3, 3, ((0, 3, 0), (0, 0, 3)), (1, 1, 1, 1, 2)),
    (3, 3, ((0, 3, 0), (0, 2, 1), (0, 0, 3)), (1, 1, 1, 1)),
    (4, 4, ((0, 4, 0), (0, 0, 4)), (1, 1, 1, 1)),
    (4, 3, ((1, 3, 0), (0, 4, 0), (0, 0, 4)), (1, 1, 1, 1)),
)
# (d, m) of the binary forms, with m > d/2 so the singular point is unique
BINARY_CASES = tuple((d, m) for d in range(2, 7) for m in range(d // 2 + 1, d + 1))
BINARY_ROUNDS = 3  # r=1 requests per case and budget 1..3


def binary_singular(rng: random.Random, d: int, m: int) -> Poly:
    """x_1^m times d-m distinct linear factors x_0 - c x_1 with c != 0.

    The only point of multiplicity above one is [1:0], of multiplicity m.
    """
    poly: Poly = {(0, m): Fraction(1)}
    for c in rng.sample([1, 2, 3, -1, -2, -3], d - m):
        poly = _poly_mul(poly, {(1, 0): Fraction(1), (0, 1): Fraction(-c)})
    return poly


def bound_frames(seed: int) -> List[Request]:
    rng = random.Random(f"bound-frames:{seed}")
    cases = []
    for budget in (1, 2, 3):
        for round_ in range(BINARY_ROUNDS):
            for d, m in BINARY_CASES:
                warm = budget == 1 and round_ == 0 and m == d // 2 + 1
                cases.append((1, d, m, binary_singular(rng, d, m), budget, warm))
    for j, (d, m, support, budgets) in enumerate(PLANE_TEMPLATES):
        for n, budget in enumerate(budgets):
            terms = {e: Fraction(rng.choice([-3, -2, -1, 1, 2, 3])) for e in support}
            cases.append((2, d, m, terms, budget, n == 0 and j == 0))
    out = []
    for r, d, m, terms, budget, warm in cases:
        image, point = moved(rng, r, terms)
        extra = (point_arg(point), f"--budget={budget}")
        out.append(Request("bound", form_text(r, d, image), extra, {"m": m}, warm=warm))
    rng.shuffle(out)
    return out


WORKLOADS = {
    "classify-grid": classify_grid,
    "index-dense": index_dense,
    "bound-frames": bound_frames,
}
