"""Exact integer kernels: Bareiss elimination, Faddeev-LeVerrier and Berkowitz.

All arithmetic stays on Python ints, so results are exact regardless of
entry size.  exact_linalg calls every kernel through this module.
"""

from __future__ import annotations

import operator
from typing import Sequence


def det_bareiss(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free Bareiss elimination.

    Every interior division is exact by the Sylvester identity, so no
    rational arithmetic is ever needed.  Zero pivots are repaired by row
    swaps; if no swap works the determinant is 0.
    """
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for col in range(n - 1):
        if m[col][col] == 0:
            for i in range(col + 1, n):
                if m[i][col] != 0:
                    m[col], m[i] = m[i], m[col]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[col][col]
        mk = m[col]
        for i in range(col + 1, n):
            mi = m[i]
            factor = mi[col]
            for j in range(col + 1, n):
                mi[j] = (mi[j] * pivot - factor * mk[j]) // prev
            mi[col] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def charpoly_leverrier(rows: Sequence[Sequence[int]]) -> list[int]:
    """Coefficients of det(xI - A), ascending, by Faddeev-LeVerrier.

    The trace divisions are exact over the integers; any non-zero
    remainder means corrupted input and raises.  The final Cayley-Hamilton
    residue is checked to be the zero matrix, which makes silent
    miscomputation essentially impossible.
    """
    n = len(rows)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    if n == 0:
        return coeffs
    a = [list(r) for r in rows]
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for step in range(1, n + 1):
        # am = a @ m
        am = []
        for i in range(n):
            ai = a[i]
            row = []
            for j in range(n):
                acc = 0
                for t in range(n):
                    acc += ai[t] * m[t][j]
                row.append(acc)
            am.append(row)
        tr = 0
        for i in range(n):
            tr += am[i][i]
        if tr % step != 0:
            raise ArithmeticError("trace division is not exact; input is not an integer matrix")
        c = -(tr // step)
        coeffs[n - step] = c
        for i in range(n):
            am[i][i] += c
        m = am
    for i in range(n):
        for j in range(n):
            if m[i][j] != 0:
                raise ArithmeticError("Cayley-Hamilton residue is non-zero")
    return coeffs


def charpoly_berkowitz(rows: Sequence[Sequence[int]]) -> list[int]:
    """Coefficients of det(xI - A), ascending, by Berkowitz's recurrence.

    With A_(k+1) = [[A_k, C], [R, a]], the descending coefficients of
    det(xI - A_(k+1)) are the lower-triangular Toeplitz matrix with first
    column (1, -a, -R C, -R A_k C, ..., -R A_k^(k-1) C) times those of
    det(xI - A_k) (Berkowitz, Inf. Process. Lett. 18, 1984).  There is no
    division, so the result is exact; it takes about n^4 / 4 multiplications.
    Coefficient i of the product is the dot product of poly with the
    reversed column from position k + 1 - i.
    """
    poly = [1]  # descending coefficients of det(xI - A_k)
    for k, row in enumerate(rows):
        vector = [rows[i][k] for i in range(k)]  # A_k^j C, from j = 0
        column = [1, -row[k]]
        for j in range(k):
            if j:
                vector = [sum(map(operator.mul, rows[i], vector)) for i in range(k)]
            column.append(-sum(map(operator.mul, row, vector)))
        reverse = column[::-1]
        poly = [sum(map(operator.mul, poly, reverse[k + 1 - i :])) for i in range(k + 2)]
    return poly[::-1]
