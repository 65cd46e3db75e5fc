"""Small exact linear algebra.

Frames are integer matrices, and the projection core scales its problems to
integers, so every matrix computation runs on ints through one Bareiss
fraction-free elimination: `det` and `solve_consistent` share it.  Rational
vectors, such as a projection target, are tuples of Fractions; `dot` and
`norm_sq` also take integer vectors and then return integers.  `scaled`
makes a rational vector integers over the one lcm, `common_denominator`,
and `primitive` divides them by their gcd for points and one-parameter groups.
`exact` is where a caller's number becomes a Fraction: it takes ints and
Fractions alone, so no binary fraction and no string enters (`forms` reads
text); `shown` writes a value into a message, past str(int)'s limit too.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from operator import mul
from typing import Callable, Iterable, List, Sequence, Tuple

Vector = Tuple[Fraction, ...]
Matrix = Tuple[Tuple[int, ...], ...]
MAX_DEN_BITS = 16384  # longest common denominator of rationals read together, in bits


def shown(x: object, write: Callable[[object], str] = str) -> str:
    """write(x), or "(over L digits)" if x holds an int past str(int)'s live limit L."""
    try:
        return write(x)
    except ValueError:  # the one str() and repr() raise: an int past the limit
        return f"(over {sys.get_int_max_str_digits()} digits)"


def exact(x: object) -> Fraction:
    """x for a Fraction, Fraction(x) for an int; else ValueError, 40 characters of shown(x, repr).

    Fraction(0.1) would be the float's binary value
    3602879701896397/36028797018963968, Fraction(True) would be 1, and
    Fraction('1e1000000') would build a million-digit integer.
    """
    if isinstance(x, Fraction):
        return x
    if type(x) is not int:
        raise ValueError(f"{type(x).__name__} {shown(x, repr):.40} is refused: exact numbers only")
    return Fraction(x)


def vec(xs: Iterable) -> Vector:
    return tuple(map(exact, xs))


def sub(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    if len(u) != len(v):
        raise ValueError("vector length mismatch")
    return tuple(a - b for a, b in zip(u, v))


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise ValueError("vector length mismatch")
    return sum(map(mul, u, v))


def norm_sq(u: Sequence[Fraction]) -> Fraction:
    return dot(u, u)


def common_denominator(qs: Iterable[int]) -> int:
    """The lcm of the ints qs > 0 of form rows or of a vector, refused past MAX_DEN_BITS;
    grown one distinct q at a time, so many distinct large qs cost no more than it allows."""
    den = 1
    for q in set(qs):
        den = math.lcm(den, q)
        if den.bit_length() > MAX_DEN_BITS:
            raise ValueError(f"the common denominator has more than {MAX_DEN_BITS} bits")
    return den


def scaled(v: Sequence[Fraction]) -> Tuple[List[int], int]:
    """(ints, s): s the common_denominator of v's entries and ints = s * v, as ints."""
    s = common_denominator(x.denominator for x in v)
    return [x.numerator * (s // x.denominator) for x in v], s


def primitive(v: Sequence[Fraction]) -> Tuple[Tuple[int, ...], Fraction]:
    """(lam, c): the primitive integer vector lam = c * v, c > 0, of a nonzero v."""
    ints, s = scaled(v)
    g = math.gcd(*ints)
    return tuple(x // g for x in ints), Fraction(s, g)


def transpose(a: Sequence[Sequence[int]]) -> Matrix:
    return tuple(zip(*a))


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def _eliminate(rows: List[List[int]], n: int) -> int:
    """Bareiss forward elimination on the first n columns, in place.

    Returns the signed determinant of the leading n x n block, or 0 when a
    column has no nonzero pivot.  Every division is exact (Sylvester's
    identity), so the entries stay integers; on and above the diagonal the
    rows end in echelon form, and the entries below it are left stale.
    """
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if rows[i][k] != 0), None)
        if pivot is None:
            return 0
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        top = rows[k]
        head = top[k]
        for i in range(k + 1, n):
            row = rows[i]
            lead = row[k]
            for j in range(k + 1, len(row)):
                row[j] = (row[j] * head - lead * top[j]) // prev
        prev = head
    return sign * prev


def det(a: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix."""
    return _eliminate([list(row) for row in a], len(a))


def solve_consistent(a: Sequence[Sequence[int]], b: Sequence[int]) -> Tuple[List[int], int]:
    """Solution of the nonsingular integer system a*x = b, fraction-free.

    The result is (numerators, denominator) with
    x[i] = numerators[i] / denominator and denominator = |det(a)| > 0.
    Callers pass the KKT system of an affinely independent corral or the
    transpose of a frame, both nonsingular; a singular system breaks that
    invariant and raises AssertionError.
    """
    n = len(a)
    rows: List[List[int]] = [list(row) + [bi] for row, bi in zip(a, b)]
    den = abs(_eliminate(rows, n))
    if den == 0:
        raise AssertionError("singular system")
    # den * x is integral (Cramer) and each echelon row holds for x, so
    # back-substitution in the numerators den * x[i] divides exactly
    numerators = [0] * n
    for i in reversed(range(n)):
        row = rows[i]
        acc = den * row[n] - sum(row[j] * numerators[j] for j in range(i + 1, n))
        numerators[i] = acc // row[i]
    return numerators, den
