"""Homogeneous forms over exact rationals and the linear substitution action.

A form of degree d in the r+1 variables x_0 .. x_r is stored sparsely as a
map from exponent vectors (tuples of nonnegative ints summing to d) to
nonzero int numerators over one positive denominator, in lowest terms
(`terms` views them as Fractions).  A frame g, an invertible (r+1) x (r+1)
integer matrix, acts by substitution

    g.x_i = sum_j g[j][i] * x_j

so that (g.f)(x) = f(g^T x).  Points of projective space move by the
inverse transpose (up to a nonzero scalar, which projective equality
ignores), which keeps zero sets and local structure aligned:

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
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Dict, List, Mapping, Sequence, Tuple

from . import _linalg
from ._linalg import MAX_DEN_BITS, Matrix, Vector, shown

ExponentVector = Tuple[int, ...]
IntPoly = Dict[ExponentVector, int]


class FormParseError(ValueError):
    """Raised when a form file does not follow the input format."""


def _quote(x: object) -> str:
    """repr of at most the first 40 characters of x's text, as _linalg.shown writes it."""
    text = shown(x)
    return repr(text[:40]) + ("..." if len(text) > 40 else "")


@dataclass(frozen=True, init=False)
class HomogeneousForm:
    """Sparse homogeneous form: coefficient of x^e is nums[e] / den.

    den > 0 and gcd(den, *nums.values()) == 1, so equal forms hold equal
    data and == compares them exactly.
    """

    r: int
    d: int
    nums: IntPoly
    den: int

    def __init__(self, r: int, d: int, terms: Mapping[Sequence[int], object]) -> None:
        """The form sum of terms[e] * x^e, each terms[e] an int or a Fraction;
        anything else, such as a float, a bool or a string, raises ValueError.

        Each e must be r+1 ints >= 0, checked here; _from_rows does the rest."""
        values = _linalg.vec(terms.values())
        check_ints(r=r, d=d)
        keys = list(map(tuple, terms))
        if r >= 1 and d >= 1:  # else _from_ints names the fault of r or d
            for e in keys:
                if len(e) != r + 1:
                    raise ValueError(f"exponent vector {_quote(e)} needs {shown(r + 1)} entries")
                if not all(type(x) is int and x >= 0 for x in e):
                    raise ValueError(f"exponent vector {_quote(e)} needs integers >= 0")
        ps, qs = [x.numerator for x in values], [x.denominator for x in values]
        self.__dict__.update(HomogeneousForm._from_rows(r, d, keys, ps, qs).__dict__)

    @classmethod
    def _from_rows(
        cls, r: int, d: int, keys: Sequence[ExponentVector], ps: Sequence[int], qs: Sequence[int]
    ) -> HomogeneousForm:
        """The form sum of ps[i] / qs[i] * x^keys[i], qs[i] > 0, for parse_form and __init__.

        Rows of one key are summed in ints over _linalg.common_denominator(qs),
        which stops at MAX_DEN_BITS; _from_ints checks the rest.
        """
        den = _linalg.common_denominator(qs)
        nums: IntPoly = {}
        for key, p, q in zip(keys, ps, qs):
            nums[key] = nums.get(key, 0) + p * (den // q)
        return cls._from_ints(r, d, nums, den)

    @classmethod
    def _from_ints(cls, r: int, d: int, nums: IntPoly, den: int) -> HomogeneousForm:
        """The form nums[e] / den for ints r, d, den > 0 and each e r+1 ints >= 0.

        The invariants of a form are checked here, only where outside input
        enters, through _from_rows: together, and one at a time only to
        name a fault.  _unchecked reduces the result to lowest terms.
        """
        if not (r >= 1 and d >= 1 and nums and 0 not in nums.values()
                and all(map(d.__eq__, map(sum, nums)))):
            if r < 1:
                raise ValueError("need at least two variables (r >= 1)")
            if d < 1:
                raise ValueError("degree must be positive")
            if not nums:
                raise ValueError("a form must have at least one term")
            for e, c in nums.items():
                if c == 0:
                    raise ValueError(f"zero coefficient for exponent {_quote(e)}")
                if sum(e) != d:
                    raise ValueError(f"exponent vector {_quote(e)} must sum to degree {shown(d)}")
        return cls._unchecked(r, d, nums, den)

    @classmethod
    def _unchecked(cls, r: int, d: int, nums: IntPoly, den: int) -> HomogeneousForm:
        """The form nums[e] / den valid by construction, only reduced to lowest terms.

        act and destabilize build their results here, as Frame._unchecked
        builds frames: a valid form moved by an invertible integer frame or
        translated by (0, n, .., n) is again valid.
        """
        # gcd(den, sum) is nearly always 1 and ends the chain, which alone is
        # quadratic when many terms carry distinct large denominators
        g = math.gcd(den, sum(nums.values()), *nums.values())
        if g != 1:
            nums = {e: c // g for e, c in nums.items()}
            den //= g
        form = object.__new__(cls)
        form.__dict__.update(r=r, d=d, nums=nums, den=den)
        return form

    @property
    def terms(self) -> Dict[ExponentVector, Fraction]:
        """The coefficients as Fractions, built on each access."""
        return {e: Fraction(c, self.den) for e, c in self.nums.items()}

    def support(self) -> Tuple[ExponentVector, ...]:
        return tuple(sorted(self.nums))

    def to_text(self) -> str:
        """Render in the form file format (header line plus one row per term)."""
        lines = [f"r={self.r} d={self.d}"]
        for e, c in sorted(self.terms.items()):
            lines.append(" ".join([str(c)] + [str(x) for x in e]))
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
        for e, c in sorted(self.terms.items()):
            chunks.append(f"({c})*{monomial(e)}" if c != 1 else monomial(e))
        return " + ".join(chunks)


_HEADER = re.compile(r"^r=(\d+)\s+d=(\d+)$", re.ASCII)
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")

MAX_DIM = 33  # most coordinates a point is moved or projected on
MAX_MOVED_TERMS = 2**18  # most possible terms, C(d+r, r), of a form that is shifted
MAX_SHIFT_WORK = 2**23  # most shifts * d * C(d+r, r) of one move or one frame search


def check_ints(**values: object) -> None:
    """Refuse any non-int, as 4.5 would pass every comparison; shown(value, repr)[:40] names it."""
    for name, value in values.items():
        if type(value) is not int:
            raise ValueError(f"{name} must be an integer, got {shown(value, repr):.40}")


def check_dim(n: int) -> None:
    """Refuse a move or a projection on n coordinates unless 0 < n <= MAX_DIM."""
    if not 0 < n <= MAX_DIM:
        raise ValueError(f"projection takes 1 to {MAX_DIM} coordinates, got {n}")


def check_move(f: HomogeneousForm, shifts: int, bits: int) -> None:
    """Refuse a move of f if its output, its work or its growth is too large.

    A move that shifts at all is refused first on a form of C(d+r, r)
    possible terms over MAX_MOVED_TERMS, then on its steps: one Taylor
    shift takes at most t(t+1)/2 <= (t+1)*d/2 Horner steps on each group
    of t+1 possible terms, so d * C(d+r, r) is at least twice its steps,
    and shifts times that may be at most MAX_SHIFT_WORK.  Last, the bits
    the move may add to a coefficient may be at most MAX_DEN_BITS; act and
    worst_frame_search say what they count.
    """
    terms = math.comb(f.d + f.r, f.r) if shifts else 0
    if terms > MAX_MOVED_TERMS:
        raise ValueError(
            f"a form of r={f.r} and this degree can have over {MAX_MOVED_TERMS:,} terms once moved"
        )
    if shifts * f.d * terms > MAX_SHIFT_WORK:
        times = "once" if shifts == 1 else f"{shifts:,} times"
        raise ValueError(
            f"moving a form of r={f.r} and this degree {times} may take over "
            f"{MAX_SHIFT_WORK:,} steps"
        )
    if bits > MAX_DEN_BITS:
        raise ValueError(f"this move may add over {MAX_DEN_BITS:,} bits to the coefficients")


def _read_rational(text: str) -> Tuple[int, int]:
    """(p, q) with q > 0 from an optional sign, then p or p/q; no other syntax.

    Every number read from text is read here: coefficients, coordinates and
    the CLI's integers.  Fraction(text) would also take exponents, decimals
    and underscores (expanding a short exponent like 1e10000000 takes
    seconds), so the ints are read from the match; q is not reduced.
    """
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


def _read_rows(
    lines: Sequence[str], r: int
) -> Tuple[Sequence[ExponentVector], Sequence[int], Sequence[int]]:
    """(exponents, ps, qs) of every payload row, or the FormParseError of a fault.

    Each test runs once over all rows, in a row's field order: the field
    counts, _read_rational on each coefficient, one isascii()/isdigit()
    over the joined exponents and one map(int).  A test fails for the rows
    iff it fails for one of them, so on a fault more than one row is read
    again one row at a time, and the first faulty row raises its own first
    fault.  The exponent vectors are r+1 ints >= 0 by construction, and
    each row holds r+2 fields, so nothing here grows with r beyond the
    input.
    """
    if not lines:  # a header alone: [iter] * (r+1) below would hold r+1 references
        return [], [], []
    n = r + 2
    rows = list(map(str.split, lines))
    line = _quote(lines[0])  # the faulty row, once one row is read alone
    try:
        if set(map(len, rows)) - {n}:
            raise FormParseError(f"row {line} needs a coefficient and {shown(r + 1)} exponents")
        tokens = list(chain.from_iterable(rows))
        try:
            ps, qs = zip(*map(_read_rational, tokens[::n]))
        except ValueError as exc:
            raise FormParseError(f"bad coefficient: {exc}") from exc
        del tokens[::n]
        digits = "".join(tokens)  # tokens are nonempty: all ASCII digits iff each is
        if not (digits.isascii() and digits.isdigit()):
            raise FormParseError(f"bad exponent in row {line}: digits 0-9 only")
        try:
            exponents = list(map(int, tokens))
        except ValueError as exc:  # more digits than int() converts
            raise FormParseError(f"too many digits in row {line}") from exc
    except FormParseError:
        if len(lines) > 1:
            for one in lines:
                _read_rows([one], r)
        raise
    return list(zip(*[iter(exponents)] * (r + 1))), ps, qs


def parse_form(text: str) -> HomogeneousForm:
    """Parse the plain text form format.

    First payload line is ``r=<int> d=<int>``; every following line is a
    coefficient (an optional sign, then ``p`` or ``p/q``) followed by r+1
    exponents.  Header numbers and exponents are ASCII digits 0-9 only.
    ``#`` starts a comment.  _read_rows reads every row, and the first
    faulty row raises its own FormParseError.  The grammar gives r+1
    exponents >= 0, and HomogeneousForm._from_rows does the rest, its
    ValueError raised again as a FormParseError.  Messages quote at most a
    short prefix of the input.
    """
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    payload = [line for line in map(str.strip, lines) if line]
    if not payload:
        raise FormParseError("empty input: expected an 'r=<int> d=<int>' header")
    header = _HEADER.match(payload[0])
    if not header:
        raise FormParseError(f"bad header {_quote(payload[0])}: expected 'r=<int> d=<int>'")
    try:
        r, d = int(header.group(1)), int(header.group(2))
    except ValueError as exc:  # more digits than int() converts
        raise FormParseError(f"bad header {_quote(payload[0])}: too many digits") from exc
    keys, ps, qs = _read_rows(payload[1:], r)
    try:
        return HomogeneousForm._from_rows(r, d, keys, ps, qs)
    except ValueError as exc:
        raise FormParseError(str(exc)) from exc


def _int_entry(x: object) -> int:
    """x as an int; ValueError unless it is an integer, such as Fraction(2).

    Frame entries and weights are read here, where int() would truncate 1.5;
    a float or a bool is refused, even 2.0 or True.
    """
    if type(x) is int:
        return x
    q = _linalg.exact(x)
    if q.denominator != 1:
        raise ValueError(f"{_quote(x)} is not an integer")
    return q.numerator


@dataclass(frozen=True)
class Frame:
    """Invertible square integer matrix acting on coordinates."""

    rows: Matrix

    def __post_init__(self) -> None:
        rows = tuple(tuple(_int_entry(x) for x in row) for row in self.rows)
        n = len(rows)
        if n < 2 or any(len(row) != n for row in rows):
            raise ValueError("frame must be a square matrix of size >= 2")
        object.__setattr__(self, "rows", rows)
        if _linalg.det(rows) == 0:
            raise ValueError("frame must be invertible")

    @classmethod
    def _unchecked(cls, rows: Sequence[Sequence[int]]) -> "Frame":
        """The frame of int rows invertible by construction, with no check or det."""
        frame = object.__new__(cls)
        object.__setattr__(frame, "rows", tuple(map(tuple, rows)))
        return frame

    @property
    def size(self) -> int:
        return len(self.rows)


def parse_coords(text: str) -> Vector:
    """Comma-separated rationals p or p/q, zeros included; ValueError names a bad point."""
    try:
        return tuple(Fraction(*_read_rational(c.strip())) for c in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad point {_quote(text)}: {exc}") from exc


@dataclass(frozen=True)
class ProjPoint:
    """Projective point; == and hash compare its primitive, computed once."""

    coords: Vector = field(compare=False)
    _primitive: Tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        coords = _linalg.vec(self.coords)
        if len(coords) < 2:
            raise ValueError("projective point needs at least two coordinates")
        if all(x == 0 for x in coords):
            raise ValueError("projective point cannot be the zero vector")
        prim, _ = _linalg.primitive(coords)
        if next(x for x in prim if x) < 0:
            prim = tuple(-x for x in prim)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "_primitive", prim)

    @classmethod
    def origin(cls, r: int) -> "ProjPoint":
        check_ints(r=r)
        return cls(tuple(int(i == 0) for i in range(r + 1)))

    @classmethod
    def parse(cls, text: str) -> "ProjPoint":
        coords = parse_coords(text)
        try:
            return cls(coords)
        except ValueError as exc:
            raise ValueError(f"bad point {_quote(text)}: {exc}") from exc

    def primitive(self) -> Tuple[int, ...]:
        """Canonical integer representative: gcd 1, first nonzero entry positive."""
        return self._primitive


def _taylor_shift(poly: IntPoly, j: int, i: int, s: int) -> IntPoly:
    """Substitute x_j -> x_j + s*x_i, for i != j, into integer coefficients.

    This is act by the transvection I + s*e_i*e_j^T, the one kernel every
    change of coordinates runs on: act reduces any frame to these shifts,
    and the frame search walks its family by them.  Terms that agree off
    x_j and x_i form a binary form p(x_j, x_i) of one degree t, and the
    shift is the univariate Taylor shift p(T) -> p(T + s) of its
    coefficients in T = x_j, done by Horner's scheme: at most t(t+1)/2
    steps c_k += s*c_{k+1}, with no binomials or powers of s (von zur
    Gathen and Gerhard, "Fast algorithms for Taylor shifts and certain
    difference equations", 1997).  Zero terms are dropped.
    """
    lo, hi = sorted((i, j))
    groups: Dict[ExponentVector, List[int]] = {}
    for e, c in poly.items():
        rest = e[:lo] + (0,) + e[lo + 1:hi] + (0,) + e[hi + 1:]
        coeffs = groups.get(rest)
        if coeffs is None:
            coeffs = groups[rest] = [0] * (e[j] + e[i] + 1)
        coeffs[e[j]] = c
    out: IntPoly = {}
    for rest, c in groups.items():
        top = max(k for k, x in enumerate(c) if x)
        for low in range(top):
            for k in range(top - 1, low - 1, -1):
                c[k] += s * c[k + 1]
        t = len(c) - 1
        for k, x in enumerate(c):
            if x:
                e = list(rest)
                e[j], e[i] = k, t - k
                out[tuple(e)] = x
    return out


def _act_steps(g: Frame) -> List[Tuple[str, int, int, int]]:
    """The substitutions act makes for g, in order, found on g's columns alone.

    ("shift", j, p, k) is x_j -> x_j + k*x_p, ("swap", p, i, 0) swaps x_p
    and x_i, and ("scale", i, 0, k) is x_i -> k*x_i.  Each step is a few
    integer operations on g's r+1 columns, so act counts the shifts of a
    move before it makes any.
    """
    n = g.size
    cols = [list(col) for col in zip(*g.rows)]  # cols[j][m] = g[m][j]
    steps: List[Tuple[str, int, int, int]] = []
    for i in range(n - 1, -1, -1):
        live = [j for j in range(i + 1) if cols[j][i]]
        while len(live) > 1:
            # on a tie the diagonal pivots, so a transvection is one shift
            p = min(live, key=lambda j: (abs(cols[j][i]), j != i))
            for j in live:
                if j != p:
                    k = cols[j][i] // cols[p][i]
                    cols[j] = [a - k * b for a, b in zip(cols[j], cols[p])]
                    steps.append(("shift", j, p, k))
            live = [j for j in live if cols[j][i]]
        p = live[0]
        if p != i:
            cols[p], cols[i] = cols[i], cols[p]
            steps.append(("swap", p, i, 0))
    for i in range(n):
        for j in range(i):
            if cols[i][j]:
                steps.append(("shift", i, j, cols[i][j]))
        if cols[i][i] != 1:
            steps.append(("scale", i, 0, cols[i][i]))
    return steps


def act(g: Frame, f: HomogeneousForm) -> HomogeneousForm:
    """Substitute x_i -> sum_j g[j][i] x_j into f, by Taylor shifts alone.

    For any column operation C, act(g, f) = act(g*C, act(C^-1, f)).  From
    the last row up, Euclid's column operations on columns 0..i clear row i
    left of the diagonal: each col_j -= k*col_p moves f by x_j -> x_j +
    k*x_p, and a gcd left of the diagonal swaps its column, and so its
    variable, with column i.  What is left is upper triangular, x_i ->
    g[i][i]*x_i + sum_{j<i} g[j][i]*x_j, applied for i = 0, 1, .., r as the
    shifts and then the scaling.  The frame is integral, so all of it runs
    on f's integer numerators and the result keeps f's denominator until it
    is reduced.  The steps are found first, on g alone (_act_steps), and
    before the first shift check_move refuses the move once: it counts one
    shift per Euclid step and per entry left of the diagonal, and
    d*bit_length(|k|) bits per shift by k and d*bit_length(|k|-1) per
    scaling by k.  The moved form of an invertible frame is valid by
    construction, so its terms are not checked again: the shifts drop zero
    terms and keep every degree.
    """
    n = f.r + 1
    if g.size != n:
        raise ValueError(f"frame size {g.size} does not match r+1 = {n}")
    steps = _act_steps(g)
    shifts = sum(step[0] == "shift" for step in steps)
    # a swap has k = 0 and adds nothing
    bits = sum(f.d * (abs(k) - (kind == "scale")).bit_length() for kind, _, _, k in steps)
    check_move(f, shifts, bits)
    poly = f.nums
    for kind, i, j, k in steps:
        if kind == "shift":
            poly = _taylor_shift(poly, i, j, k)
        elif kind == "swap":
            poly = {e[:i] + (e[j],) + e[i + 1:j] + (e[i],) + e[j + 1:]: c for e, c in poly.items()}
        else:
            poly = {e: c * k ** e[i] for e, c in poly.items()}
    return HomogeneousForm._unchecked(f.r, f.d, poly, f.den)


def point_image(g: Frame, p: ProjPoint) -> ProjPoint:
    """Image of p under g on points: p -> (g^T)^{-1} p, up to a nonzero scalar.

    The fraction-free solve returns |det g| * (g^T)^{-1} p' for the
    primitive representative p' of p, which is the same projective point.
    """
    if g.size != len(p.coords):
        raise ValueError("frame size does not match point dimension")
    return ProjPoint(_linalg.solve_consistent(_linalg.transpose(g.rows), p.primitive())[0])


def _unimodular_completion(v: Sequence[int]) -> List[List[int]]:
    """Integer matrix with determinant 1 whose first row is the primitive v.

    Runs the Euclidean algorithm on v by column operations while applying
    the inverse operations as row operations to an identity accumulator;
    the accumulator ends up inverse to the reduction, so its first row
    recovers v once the row of the gcd 1 is swapped to the top.  A negation
    or that swap flips its determinant, so the sign is known without one.
    """
    n = len(v)
    work = list(v)
    acc = [[int(i == j) for j in range(n)] for i in range(n)]
    sign = 1
    while True:
        nonzero = [i for i in range(n) if work[i]]
        pivot = min(nonzero, key=lambda i: abs(work[i]))
        if work[pivot] < 0:
            work[pivot] = -work[pivot]
            acc[pivot] = [-x for x in acc[pivot]]
            sign = -sign
        if len(nonzero) == 1:
            break
        for i in nonzero:
            if i != pivot:
                # column op work[i] -= k*work[pivot]; inverse row op on acc
                k = work[i] // work[pivot]
                work[i] -= k * work[pivot]
                acc[pivot] = [x + k * y for x, y in zip(acc[pivot], acc[i])]
    if pivot:
        acc[0], acc[pivot] = acc[pivot], acc[0]
        sign = -sign
    if sign < 0:
        acc[-1] = [-x for x in acc[-1]]
    return acc


def frame_moving_to_origin(p: ProjPoint) -> Frame:
    """Unimodular integer frame g with point_image(g, p) = [1:0:...:0].

    Returns the identity when p already is the distinguished coordinate
    point, so multiplicity queries at the origin stay literal.  More than
    MAX_DIM coordinates raise ValueError before anything is built.
    """
    check_dim(len(p.coords))
    prim = p.primitive()
    frame = Frame._unchecked(_unimodular_completion(prim))
    if frame.rows[0] != prim:
        raise AssertionError("completion lost the primitive vector")
    return frame


def multiplicity_at_origin(f: HomogeneousForm) -> int:
    """Multiplicity of f = 0 at [1:0:...:0]: d minus the top x_0 exponent."""
    return f.d - max(e[0] for e in f.nums)


def move_to_origin(f: HomogeneousForm, p: ProjPoint) -> HomogeneousForm:
    """act(frame_moving_to_origin(p), f), once p is checked to have r+1 coordinates."""
    if len(p.coords) != f.r + 1:
        raise ValueError("point dimension must be r+1")
    return act(frame_moving_to_origin(p), f)


def multiplicity_at(f: HomogeneousForm, p: ProjPoint) -> int:
    """Multiplicity of f = 0 at p, via a frame moving p to the origin."""
    return multiplicity_at_origin(move_to_origin(f, p))


def destabilize(f: HomogeneousForm, n: int) -> HomogeneousForm:
    """Multiply by (x_1 * ... * x_r)^n: translate the support by (0, n, .., n)."""
    check_ints(**{"destabilization exponent": n})
    if n < 0:
        raise ValueError("destabilization exponent must be nonnegative")
    shift = (0,) + (n,) * f.r
    nums = {
        tuple(a + b for a, b in zip(e, shift)): c for e, c in f.nums.items()
    }
    return HomogeneousForm._unchecked(f.r, f.d + f.r * n, nums, f.den)


def destabilizing_factor(r: int, n: int) -> HomogeneousForm:
    """The coordinate product (x_1 * ... * x_r)^n as a form of degree r*n."""
    check_ints(r=r, n=n)
    if r < 1 or n < 1:
        raise ValueError("need r >= 1 and n >= 1")
    return HomogeneousForm._unchecked(r, r * n, {(0,) + (n,) * r: 1}, 1)
