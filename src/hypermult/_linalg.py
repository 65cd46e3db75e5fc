"""Small exact linear algebra.

Vectors and matrices of frames and points are tuples of Fractions, so
results are hashable and safe to reuse as dict keys; `det` and `inverse`
eliminate over them.  `dot` and `norm_sq` also take integer vectors and
then return integers.  The projection core works in integers only:
`solve_consistent` solves its Gram (KKT) systems by Bareiss fraction-free
elimination and returns integer numerators over one shared denominator.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Iterable, List, Sequence, Tuple

Vector = Tuple[Fraction, ...]
Matrix = Tuple[Vector, ...]


def vec(xs: Iterable) -> Vector:
    return tuple(Fraction(x) for x in xs)


def mat(rows: Iterable[Iterable]) -> Matrix:
    return tuple(vec(row) for row in rows)


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


def identity(n: int) -> Matrix:
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def mat_vec(a: Matrix, v: Sequence[Fraction]) -> Vector:
    return tuple(dot(row, v) for row in a)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def det(a: Matrix) -> Fraction:
    n = len(a)
    rows: List[List[Fraction]] = [list(row) for row in a]
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


def inverse(a: Matrix) -> Matrix:
    n = len(a)
    aug: List[List[Fraction]] = [
        list(row) + [Fraction(int(i == j)) for j in range(n)]
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


def solve_consistent(a: Sequence[Sequence[int]], b: Sequence[int]) -> Tuple[List[int], int]:
    """Solution of the nonsingular integer system a*x = b, fraction-free.

    Bareiss elimination: every entry stays an integer and every division is
    exact, so the result is (numerators, denominator) with
    x[i] = numerators[i] / denominator and denominator = |det(a)| > 0.  The
    one caller passes the KKT system of an affinely independent corral,
    which is nonsingular; a column with no nonzero pivot breaks that
    invariant and raises AssertionError.
    """
    n = len(a)
    rows: List[List[int]] = [list(row) + [bi] for row, bi in zip(a, b)]
    prev = 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if rows[i][k] != 0), None)
        if pivot is None:
            raise AssertionError("singular system: the corral is affinely dependent")
        rows[k], rows[pivot] = rows[pivot], rows[k]
        top = rows[k]
        head = top[k]
        for i in range(k + 1, n):
            row = rows[i]
            lead = row[k]
            for j in range(k + 1, n + 1):
                row[j] = (row[j] * head - lead * top[j]) // prev
        prev = head
    # prev is +-det(a); each echelon row holds for x, so back-substitution
    # in the numerators det * x[i] divides exactly
    numerators = [0] * n
    for i in reversed(range(n)):
        row = rows[i]
        acc = prev * row[n] - sum(row[j] * numerators[j] for j in range(i + 1, n))
        numerators[i] = acc // row[i]
    if prev < 0:
        return [-x for x in numerators], -prev
    return numerators, prev
