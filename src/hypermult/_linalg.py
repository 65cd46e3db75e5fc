"""Small exact linear algebra over Fraction tuples.

Everything here works on tuples of Fractions so results are hashable and
safe to reuse as dict keys.  Sizes stay tiny (a handful of rows), so plain
Gaussian elimination is fine.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

Vector = Tuple[Fraction, ...]
Matrix = Tuple[Vector, ...]


def vec(xs: Iterable) -> Vector:
    return tuple(Fraction(x) for x in xs)


def mat(rows: Iterable[Iterable]) -> Matrix:
    return tuple(vec(row) for row in rows)


def add(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    if len(u) != len(v):
        raise ValueError("vector length mismatch")
    return tuple(a + b for a, b in zip(u, v))


def sub(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    if len(u) != len(v):
        raise ValueError("vector length mismatch")
    return tuple(a - b for a, b in zip(u, v))


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise ValueError("vector length mismatch")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


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


def solve_consistent(a: Matrix, b: Sequence[Fraction]) -> Optional[List[Fraction]]:
    """One solution of a*x = b with free variables set to 0, or None.

    The caller only ever passes consistent systems (KKT conditions of an
    attained minimum); None signals genuine inconsistency.
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
