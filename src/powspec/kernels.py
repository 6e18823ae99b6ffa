"""Exact integer kernels: Bareiss elimination and Faddeev-LeVerrier.

All arithmetic stays on Python ints, so results are exact regardless of
entry size.  exact_linalg calls both kernels through this module.

det_bareiss has a symmetric path.  Without row swaps, every intermediate
entry of Bareiss elimination is a bordered minor of the input,
det M[{0..k, i}, {0..k, j}], so a symmetric input keeps every trailing
block symmetric and only the entries with j >= i need updating: half the
big-integer work.  Symmetric elimination cannot swap rows, so a zero
pivot sends the whole computation back to the general row-swapping path,
which non-symmetric input always takes.
"""

from __future__ import annotations


def det_bareiss(rows: list[list[int]]) -> int:
    """Exact determinant by fraction-free Bareiss elimination.

    Every interior division is exact by the Sylvester identity, so no
    rational arithmetic is ever needed.  Symmetric input first takes the
    half-work symmetric path (see the module docstring).  Zero pivots are
    repaired by row swaps; if no swap works the determinant is 0.
    """
    n = len(rows)
    if n == 0:
        return 1
    if all(rows[i][j] == rows[j][i] for i in range(n) for j in range(i)):
        det = _det_bareiss_symmetric(rows)
        if det is not None:
            return det
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


def _det_bareiss_symmetric(rows: list[list[int]]) -> int | None:
    """Bareiss determinant of a symmetric matrix without row swaps,
    updating only the upper triangle; None when a zero pivot appears."""
    n = len(rows)
    m = [list(r) for r in rows]
    prev = 1
    for col in range(n - 1):
        mk = m[col]
        pivot = mk[col]
        if pivot == 0:
            return None
        # m[i][col] == m[col][i] by symmetry, so row col holds every factor.
        for i in range(col + 1, n):
            mi = m[i]
            factor = mk[i]
            for j in range(i, n):
                mi[j] = (mi[j] * pivot - factor * mk[j]) // prev
        prev = pivot
    return m[n - 1][n - 1]


def charpoly_leverrier(rows: list[list[int]]) -> list[int]:
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
