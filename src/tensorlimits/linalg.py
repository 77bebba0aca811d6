"""Small exact linear algebra helpers over Fraction.

Matrices are tuples of row tuples.  Everything here is dense and tiny
(rank is at most 8 or so in practice), so clarity beats asymptotics.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = tuple[tuple[Fraction, ...], ...]


def mat(rows) -> Matrix:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def identity(n: int) -> Matrix:
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def inverse(a: Matrix) -> Matrix:
    """Invert by Gauss-Jordan elimination with exact pivots."""
    n = len(a)
    aug = [list(row) + list(ident_row) for row, ident_row in zip(mat(a), identity(n))]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = 1 / aug[col][col]
        aug[col] = [x * inv_p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def determinant(a: Matrix) -> Fraction:
    """Fraction-free-ish elimination; fine at these sizes."""
    n = len(a)
    m = [list(row) for row in mat(a)]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv_p = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                factor = m[r][col] * inv_p
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return det


def bilinear(u, g: Matrix, v) -> Fraction:
    return sum(ui * sum(gij * vj for gij, vj in zip(row, v)) for ui, row in zip(u, g))
