"""Homogeneous forms over exact rationals and the linear substitution action.

A form of degree d in the r+1 variables x_0 .. x_r is stored sparsely as a
map from exponent vectors (tuples of nonnegative ints summing to d) to
nonzero Fraction coefficients.  A frame g, an invertible (r+1) x (r+1)
rational matrix, acts by substitution

    g.x_i = sum_j g[j][i] * x_j

so that (g.f)(x) = f(g^T x).  Points of projective space move by the
inverse transpose, which keeps zero sets and local structure aligned:

    multiplicity_at(act(g, f), point_image(g, p)) == multiplicity_at(f, p)

The multiplicity of the hypersurface f = 0 at the coordinate point
[1:0:...:0] is d minus the largest x_0 exponent appearing in the support.
A general point is handled by moving it there with a unimodular integer
frame built from a completion of the primitive integer vector of the point.

The destabilizing map multiplies a form by (x_1 * ... * x_r)^N, which
translates the support by (0, N, ..., N) and raises the multiplicity at
every point by the multiplicity of the coordinate product there.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Sequence, Tuple

from . import _linalg
from ._linalg import Matrix, Vector

ExponentVector = Tuple[int, ...]


class FormParseError(ValueError):
    """Raised when a form file does not follow the input format."""


def _validate_exponent(e: Sequence[int], r: int, d: int) -> ExponentVector:
    if len(e) != r + 1:
        raise ValueError(f"exponent vector {e!r} needs {r + 1} entries")
    out = []
    for x in e:
        xi = int(x)
        if xi != x or xi < 0:
            raise ValueError(f"exponent vector {e!r} must have nonnegative integers")
        out.append(xi)
    if sum(out) != d:
        raise ValueError(f"exponent vector {e!r} must sum to degree {d}")
    return tuple(out)


@dataclass(frozen=True)
class HomogeneousForm:
    """Sparse homogeneous form with nonzero rational coefficients."""

    r: int
    d: int
    terms: Dict[ExponentVector, Fraction]

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError("need at least two variables (r >= 1)")
        if self.d < 1:
            raise ValueError("degree must be positive")
        if not self.terms:
            raise ValueError("a form must have at least one term")
        canonical: Dict[ExponentVector, Fraction] = {}
        for e, c in self.terms.items():
            coeff = Fraction(c)
            if coeff == 0:
                raise ValueError(f"zero coefficient for exponent {e!r}")
            canonical[_validate_exponent(e, self.r, self.d)] = coeff
        object.__setattr__(self, "terms", canonical)

    def support(self) -> Tuple[ExponentVector, ...]:
        return tuple(sorted(self.terms))

    def to_text(self) -> str:
        """Render in the form file format (header line plus one row per term)."""
        lines = [f"r={self.r} d={self.d}"]
        for e in self.support():
            coeff = self.terms[e]
            lines.append(" ".join([str(coeff)] + [str(x) for x in e]))
        return "\n".join(lines) + "\n"

    def __str__(self) -> str:
        def monomial(e: ExponentVector) -> str:
            parts = [
                f"x{i}" if k == 1 else f"x{i}^{k}"
                for i, k in enumerate(e)
                if k > 0
            ]
            return "*".join(parts) if parts else "1"

        chunks = []
        for e in self.support():
            c = self.terms[e]
            chunks.append(f"({c})*{monomial(e)}" if c != 1 else monomial(e))
        return " + ".join(chunks)


_HEADER = re.compile(r"^r=(\d+)\s+d=(\d+)$")
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _parse_rational(text: str) -> Fraction:
    """Read an optional sign, then p or p/q; no other number syntax.

    Fraction alone also takes exponents, decimals and underscores, and
    expanding a short exponent like 1e10000000 takes seconds.
    """
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"{text!r} is not a rational p or p/q")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"{text!r} has a zero denominator") from exc


def parse_form(text: str) -> HomogeneousForm:
    """Parse the plain text form format.

    First payload line is ``r=<int> d=<int>``; every following line is a
    coefficient (an optional sign, then ``p`` or ``p/q``) followed by r+1
    exponents.  ``#`` starts a comment.  Duplicate exponent rows are summed;
    a row set whose net coefficient vanishes is rejected rather than
    silently dropped.
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
        raise FormParseError(f"bad header {payload[0]!r}: expected 'r=<int> d=<int>'")
    try:
        r, d = int(header.group(1)), int(header.group(2))
    except ValueError as exc:  # more digits than int() converts
        raise FormParseError(f"bad header: {exc}") from exc
    if r < 1 or d < 1:
        raise FormParseError(f"need r >= 1 and d >= 1, got r={r} d={d}")
    if len(payload) == 1:
        raise FormParseError("no terms: a form must have at least one term row")
    acc: Dict[ExponentVector, Fraction] = {}
    for line in payload[1:]:
        fields = line.split()
        if len(fields) != r + 2:
            raise FormParseError(
                f"row {line!r} needs a coefficient and {r + 1} exponents"
            )
        try:
            coeff = _parse_rational(fields[0])
        except ValueError as exc:
            raise FormParseError(f"bad coefficient: {exc}") from exc
        try:
            expo = [int(x) for x in fields[1:]]
        except ValueError as exc:
            raise FormParseError(f"bad exponent in row {line!r}") from exc
        if any(x < 0 for x in expo):
            raise FormParseError(f"negative exponent in row {line!r}")
        if sum(expo) != d:
            raise FormParseError(f"exponents in row {line!r} do not sum to d={d}")
        key = tuple(expo)
        acc[key] = acc.get(key, Fraction(0)) + coeff
    dead = [e for e, c in acc.items() if c == 0]
    if dead:
        raise FormParseError(
            f"rows for exponent {dead[0]} sum to zero; drop them from the input"
        )
    return HomogeneousForm(r, d, acc)


@dataclass(frozen=True)
class Frame:
    """Invertible square rational matrix acting on coordinates."""

    rows: Matrix

    def __post_init__(self) -> None:
        rows = _linalg.mat(self.rows)
        n = len(rows)
        if n < 2 or any(len(row) != n for row in rows):
            raise ValueError("frame must be a square matrix of size >= 2")
        object.__setattr__(self, "rows", rows)
        if _linalg.det(rows) == 0:
            raise ValueError("frame must be invertible")

    @classmethod
    def identity(cls, n: int) -> "Frame":
        return cls(_linalg.identity(n))

    @property
    def size(self) -> int:
        return len(self.rows)

    @cached_property
    def det(self) -> Fraction:
        return _linalg.det(self.rows)

    def compose(self, other: "Frame") -> "Frame":
        """Matrix product self * other; act(self.compose(g), f) applies g first."""
        if self.size != other.size:
            raise ValueError("frame size mismatch")
        return Frame(_linalg.mat_mul(self.rows, other.rows))

    def is_integral(self) -> bool:
        return all(x.denominator == 1 for row in self.rows for x in row)


@dataclass(frozen=True, eq=False)
class ProjPoint:
    """Point of projective r-space; equality is up to a nonzero scalar."""

    coords: Vector

    def __post_init__(self) -> None:
        coords = _linalg.vec(self.coords)
        if len(coords) < 2:
            raise ValueError("projective point needs at least two coordinates")
        if all(x == 0 for x in coords):
            raise ValueError("projective point cannot be the zero vector")
        object.__setattr__(self, "coords", coords)

    @classmethod
    def origin(cls, r: int) -> "ProjPoint":
        return cls(tuple(Fraction(int(i == 0)) for i in range(r + 1)))

    @classmethod
    def parse(cls, text: str) -> "ProjPoint":
        try:
            return cls(tuple(_parse_rational(chunk.strip()) for chunk in text.split(",")))
        except ValueError as exc:
            raise ValueError(f"bad point {text!r}: {exc}") from exc

    def primitive(self) -> Tuple[int, ...]:
        """Canonical integer representative: gcd 1, first nonzero entry positive."""
        lcm = math.lcm(*(x.denominator for x in self.coords))
        ints = [int(x * lcm) for x in self.coords]
        g = math.gcd(*ints)
        ints = [x // g for x in ints]
        lead = next(x for x in ints if x != 0)
        if lead < 0:
            ints = [-x for x in ints]
        return tuple(ints)

    @property
    def r(self) -> int:
        return len(self.coords) - 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return self.primitive() == other.primitive()

    def __hash__(self) -> int:
        return hash(self.primitive())

    def __str__(self) -> str:
        return "[" + ":".join(str(x) for x in self.coords) + "]"


def _unit_exp(n: int, j: int) -> ExponentVector:
    return tuple(int(i == j) for i in range(n))


def _poly_mul(p: Dict[ExponentVector, Fraction], q: Dict[ExponentVector, Fraction]) -> Dict[ExponentVector, Fraction]:
    out: Dict[ExponentVector, Fraction] = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def act(g: Frame, f: HomogeneousForm) -> HomogeneousForm:
    """Substitute x_i -> sum_j g[j][i] x_j into f."""
    n = f.r + 1
    if g.size != n:
        raise ValueError(f"frame size {g.size} does not match r+1 = {n}")
    images: List[Dict[ExponentVector, Fraction]] = []
    for i in range(n):
        lin = {
            _unit_exp(n, j): g.rows[j][i]
            for j in range(n)
            if g.rows[j][i] != 0
        }
        images.append(lin)
    powers: Dict[Tuple[int, int], Dict[ExponentVector, Fraction]] = {}

    def image_power(i: int, k: int) -> Dict[ExponentVector, Fraction]:
        if (i, k) not in powers:
            if k == 1:
                powers[i, k] = images[i]
            else:
                powers[i, k] = _poly_mul(image_power(i, k - 1), images[i])
        return powers[i, k]

    acc: Dict[ExponentVector, Fraction] = {}
    for e, coeff in f.terms.items():
        poly = {(0,) * n: coeff}
        for i, ei in enumerate(e):
            if ei:
                poly = _poly_mul(poly, image_power(i, ei))
        for key, value in poly.items():
            acc[key] = acc.get(key, Fraction(0)) + value
    acc = {e: c for e, c in acc.items() if c != 0}
    return HomogeneousForm(f.r, f.d, acc)


def point_image(g: Frame, p: ProjPoint) -> ProjPoint:
    """Image of p under g on points: p -> (g^T)^{-1} p."""
    if g.size != len(p.coords):
        raise ValueError("frame size does not match point dimension")
    matrix = _linalg.inverse(_linalg.transpose(g.rows))
    return ProjPoint(_linalg.mat_vec(matrix, p.coords))


def _unimodular_completion(v: Sequence[int]) -> List[List[int]]:
    """Integer matrix with determinant 1 whose first row is the primitive v.

    Runs the Euclidean algorithm on v by column operations while applying
    the inverse operations as row operations to an identity accumulator;
    the accumulator ends up inverse to the reduction, so its first row
    recovers v exactly.
    """
    n = len(v)
    work = list(v)
    acc = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap(a: int, b: int) -> None:
        work[a], work[b] = work[b], work[a]
        acc[a], acc[b] = acc[b], acc[a]

    def negate(a: int) -> None:
        work[a] = -work[a]
        acc[a] = [-x for x in acc[a]]

    def addmul(dst: int, src: int, k: int) -> None:
        # column op work[dst] += k*work[src]; inverse row op on the accumulator
        work[dst] += k * work[src]
        acc[src] = [x - k * y for x, y in zip(acc[src], acc[dst])]

    while True:
        nonzero = [i for i in range(n) if work[i] != 0]
        if len(nonzero) == 1:
            idx = nonzero[0]
            if idx != 0:
                swap(0, idx)
            if work[0] < 0:
                negate(0)
            break
        pivot = min(nonzero, key=lambda i: abs(work[i]))
        if work[pivot] < 0:
            negate(pivot)
        for i in nonzero:
            if i != pivot:
                addmul(i, pivot, -(work[i] // work[pivot]))
    if work[0] != 1:
        raise ValueError(f"vector {list(v)!r} is not primitive")
    if _linalg.det(_linalg.mat(acc)) == -1:
        acc[-1] = [-x for x in acc[-1]]
    return acc


def frame_moving_to_origin(p: ProjPoint) -> Frame:
    """Unimodular integer frame g with point_image(g, p) = [1:0:...:0].

    Returns the identity when p already is the distinguished coordinate
    point, so multiplicity queries at the origin stay literal.
    """
    prim = p.primitive()
    rows = _unimodular_completion(prim)
    frame = Frame(_linalg.mat(rows))
    if tuple(int(x) for x in frame.rows[0]) != prim:
        raise AssertionError("completion lost the primitive vector")
    return frame


def multiplicity_at_origin(f: HomogeneousForm) -> int:
    """Multiplicity of f = 0 at [1:0:...:0]: d minus the top x_0 exponent."""
    return f.d - max(e[0] for e in f.terms)


def multiplicity_at(f: HomogeneousForm, p: ProjPoint) -> int:
    """Multiplicity of f = 0 at p, via a frame moving p to the origin."""
    if len(p.coords) != f.r + 1:
        raise ValueError("point dimension does not match the form")
    return multiplicity_at_origin(act(frame_moving_to_origin(p), f))


def destabilize(f: HomogeneousForm, n: int) -> HomogeneousForm:
    """Multiply by (x_1 * ... * x_r)^n: translate the support by (0, n, .., n)."""
    if n < 0:
        raise ValueError("destabilization exponent must be nonnegative")
    if n == 0:
        return f
    shift = (0,) + (n,) * f.r
    terms = {
        tuple(a + b for a, b in zip(e, shift)): c for e, c in f.terms.items()
    }
    return HomogeneousForm(f.r, f.d + f.r * n, terms)


def destabilizing_factor(r: int, n: int) -> HomogeneousForm:
    """The coordinate product (x_1 * ... * x_r)^n as a form of degree r*n."""
    if r < 1 or n < 1:
        raise ValueError("need r >= 1 and n >= 1")
    return HomogeneousForm(r, r * n, {(0,) + (n,) * r: Fraction(1)})
