"""Exact integer matrices, polynomials, and characteristic polynomials.

Two independent exact routes to det(xI - A) live here.

- char_poly_exact, the primary route, reduces A to its twin quotient B,
  computes det(xI - B) by Berkowitz's division-free recurrence, checks
  it with one Bareiss determinant on B at x0 = R(B) + 1, and multiplies
  in the linear factors of the twin classes.  When A is graph-shaped
  (n >= 2, int64 entries, every off-diagonal entry 0 or one value w, a
  symmetric zero pattern), A = diag(D) + w Adj, and a first level works
  on the packed bit rows R of Adj: open twins share the key (R_i, D_i),
  closed twins (R_i | 1 << i, D_i), and no index has both kinds of
  twin, so both collapse at once into B1 (_first_level, which counts B1
  with numpy).  _check_first_level proves det(xI - A) = det(xI - B1) *
  prod (x - r)^(s - 1) on A's rows, by an XOR test per index and c1^2
  popcounts on the first index of each of the c1 cells.  The dense
  level then runs on B1 (or on A itself when A is not graph-shaped):
  twins searched in buckets keyed by diagonal, row sum and column sum,
  and the reduction proved by an exact O(n^2) certificate
  (_check_twin_certificate), whose identity chains with the first
  level's.  Its docstring states the lemmas, the certificates, the cost
  and the point check.
- char_poly_leverrier, the cross-check route, runs fraction-free
  Faddeev-LeVerrier on Python ints.

They share no intermediate code beyond raw integer arithmetic, so
agreement between them is meaningful evidence of correctness.

Every polynomial product (IntPolynomial * and **, FactoredPolynomial.expand
and the linear factors of char_poly_exact) goes through one Kronecker
substitution kernel, _kronecker_product.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
import struct
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import kernels

DEFAULT_MATRIX_CAP = 256
CAP_ENV_VAR = "POWSPEC_MATRIX_CAP"


class MatrixCapExceeded(RuntimeError):
    """Raised when an exact computation is asked for above the order cap."""


def matrix_order_cap() -> int:
    raw = os.environ.get(CAP_ENV_VAR, "")
    if not raw:
        return DEFAULT_MATRIX_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"{CAP_ENV_VAR} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ValueError(f"{CAP_ENV_VAR} must be positive, got {cap}")
    return cap


def _check_cap(n: int) -> None:
    cap = matrix_order_cap()
    if n > cap:
        raise MatrixCapExceeded(
            f"matrix order {n} exceeds the configured cap {cap}; raise {CAP_ENV_VAR} to override"
        )


_EXACT_INT = frozenset({int})


@dataclass(frozen=True)
class IntMatrix:
    """Immutable square matrix of Python ints."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.rows)
        for row in self.rows:
            if len(row) != n:
                raise ValueError("matrix must be square")
            if set(map(type, row)) <= _EXACT_INT:
                continue  # the common case, decided at C speed
            for v in row:
                if not isinstance(v, int) or isinstance(v, bool):
                    raise ValueError(f"matrix entries must be ints, got {v!r}")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        return cls(tuple(map(tuple, rows)))

    @classmethod
    def from_array(cls, a: np.ndarray) -> "IntMatrix":
        """A 2-D square numpy array of integer dtype.  Its tolist() yields
        Python ints, so the entry scan of __post_init__ is skipped."""
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.dtype.kind not in ("i", "u"):
            raise ValueError(f"need a square integer array, got {a.dtype} of shape {a.shape}")
        m = object.__new__(cls)
        object.__setattr__(m, "rows", tuple(map(tuple, a.tolist())))
        return m

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, n: int) -> "IntMatrix":
        return cls(tuple((0,) * n for _ in range(n)))

    @property
    def n(self) -> int:
        return len(self.rows)

    def trace(self) -> int:
        return sum(self.rows[i][i] for i in range(self.n))

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.rows]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.rows))) if self.n else self

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if self.n != other.n:
            raise ValueError("matrix orders differ")
        return IntMatrix(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            )
        )


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial, coefficients ascending; () is the zero polynomial."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("coefficients must be trimmed; use from_coeffs")

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[int]) -> "IntPolynomial":
        out = [int(c) for c in coeffs]
        while out and out[-1] == 0:
            out.pop()
        return cls(tuple(out))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial.from_coeffs(out)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial.from_coeffs(c * other for c in self.coeffs)
        return IntPolynomial(_kronecker_product(1, ((self.coeffs, 1), (other.coeffs, 1))))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "IntPolynomial":
        if e < 0:
            raise ValueError("negative polynomial power")
        return IntPolynomial(_kronecker_product(1, ((self.coeffs, e),)))

    def deflate(self, root: int) -> "IntPolynomial":
        """Exact synthetic division by (x - root); raises on remainder."""
        if not self.coeffs:
            raise ValueError("cannot deflate the zero polynomial")
        quotient_desc = []
        carry = 0
        for c in reversed(self.coeffs):
            carry = carry * root + c
            quotient_desc.append(carry)
        rem = quotient_desc.pop()
        if rem != 0:
            raise ValueError(f"{root} is not a root (remainder {rem})")
        return IntPolynomial.from_coeffs(reversed(quotient_desc))

    def monic_normalized(self) -> "IntPolynomial":
        """Flip the global sign when the leading coefficient is -1."""
        if self.is_monic:
            return self
        if self.coeffs and self.coeffs[-1] == -1:
            return -self
        raise ValueError("polynomial cannot be normalized to monic by a sign flip")

    def to_coeff_list(self) -> list[int]:
        return list(self.coeffs)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for d in range(self.degree, -1, -1):
            c = self.coeffs[d]
            if c == 0:
                continue
            mag = abs(c)
            if d == 0:
                term = str(mag)
            elif d == 1:
                term = "x" if mag == 1 else f"{mag}*x"
            else:
                term = f"x^{d}" if mag == 1 else f"{mag}*x^{d}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


def _digit_offsets(count: int, width: int) -> int:
    """sum over i < count of 2^(8 width - 1) 2^(8 width i): count digits of
    width bytes, each holding half its range."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")


def _kronecker_product(
    scalar: int, factors: Iterable[tuple[Sequence[int], int]]
) -> tuple[int, ...]:
    """The trimmed ascending coefficients of scalar * prod f ** e, for
    trimmed ascending coefficient sequences f and exponents e >= 0.

    Kronecker substitution: every f is evaluated at x = 2^b, the values
    are multiplied and powered as Python ints, and the product's
    coefficients are read back as its signed base-2^b digits.  This is
    exact when every coefficient c of the product has |c| < 2^(b - 1):
    the l1 norm is submultiplicative, ||f g||_1 <= ||f||_1 ||g||_1, and
    bounds every coefficient, so b is the smallest multiple of 8 with
    |scalar| * prod ||f||_1^e < 2^(b - 1).  Each f is bounded by the same
    product, since a non-zero integer polynomial has ||f||_1 >= 1.  A
    digit c is stored as c + 2^(b - 1), in [0, 2^b), so packing and
    unpacking are one int.to_bytes/int.from_bytes pass over b / 8-byte
    slices, linear in the bits.
    """
    factors = [(f, e) for f, e in factors if e]
    if not scalar or not all(f for f, _ in factors):
        return ()
    bound, degree = abs(scalar), 0
    for f, e in factors:
        bound *= sum(map(abs, f)) ** e
        degree += (len(f) - 1) * e
    width = (bound.bit_length() + 8) // 8
    half = 1 << (8 * width - 1)
    value = scalar
    for f, e in factors:
        packed = b"".join([(c + half).to_bytes(width, "little") for c in f])
        value *= (int.from_bytes(packed, "little") - _digit_offsets(len(f), width)) ** e
    size = (degree + 1) * width
    digits = (value + _digit_offsets(degree + 1, width)).to_bytes(size, "little")
    return tuple(
        [int.from_bytes(digits[i : i + width], "little") - half for i in range(0, size, width)]
    )


def poly_x() -> IntPolynomial:
    return IntPolynomial((0, 1))


@dataclass(frozen=True)
class FactoredPolynomial:
    """scalar * product of (base ** exponent), kept unexpanded."""

    scalar: int
    factors: tuple[tuple[IntPolynomial, int], ...]

    def __post_init__(self) -> None:
        for base, e in self.factors:
            if e < 1:
                raise ValueError("factor exponents must be positive")
            if not base.coeffs:
                raise ValueError("zero polynomial is not a valid factor")

    @property
    def degree(self) -> int:
        return sum(base.degree * e for base, e in self.factors)

    def expand(self) -> IntPolynomial:
        return IntPolynomial(
            _kronecker_product(self.scalar, [(base.coeffs, e) for base, e in self.factors])
        )

    def __call__(self, x):
        acc = self.scalar
        for base, e in self.factors:
            acc *= base(x) ** e
        return acc

    def __str__(self) -> str:
        parts = [] if self.scalar == 1 else [str(self.scalar)]
        for base, e in self.factors:
            inner = str(base)
            parts.append(f"({inner})" if e == 1 else f"({inner})^{e}")
        return " ".join(parts) if parts else "1"


def _unpack(rows, n: int | None = None) -> np.ndarray:
    """Packed rows of n bits, n = len(rows) unless given, as a len(rows) x n
    uint8 array of 0/1, bit j of row i at [i, j]."""
    n = len(rows) if n is None else n
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(r.to_bytes(width, "little") for r in rows), np.uint8)
    return np.unpackbits(packed.reshape(len(rows), width), axis=1, bitorder="little")[:, :n]


def _matrix_diagonal(graph, kind: str) -> np.ndarray:
    """The diagonal of _matrix_array(graph, kind), read off the packed rows."""
    if kind == "adjacency":
        return np.array([(graph.row_mask(i) >> i) & 1 for i in range(graph.n)], np.uint8)
    return np.array([graph.degree(i) for i in range(graph.n)], np.int64)


def _matrix_array(graph, kind: str) -> np.ndarray:
    """Adjacency, laplacian, or signless laplacian matrix of a graph.

    The adjacency is the graph's packed bit rows unpacked; the two
    laplacians write _matrix_diagonal over minus or plus it.
    """
    if kind not in ("adjacency", "laplacian", "signless"):
        raise ValueError(f"unknown matrix kind {kind!r}")
    bits = _unpack([graph.row_mask(i) for i in range(graph.n)])
    if kind == "adjacency":
        return bits
    edges = bits.astype(np.int64)
    if kind == "laplacian":
        edges = -edges
    np.fill_diagonal(edges, _matrix_diagonal(graph, kind))
    return edges


def matrix_of(graph, kind: str) -> IntMatrix:
    """_matrix_array as an IntMatrix of Python ints."""
    return IntMatrix.from_array(_matrix_array(graph, kind))


def det_exact(m: IntMatrix) -> int:
    _check_cap(m.n)
    return kernels.det_bareiss(m.rows)


def _gershgorin_radius(m: IntMatrix) -> int:
    """Max absolute row sum: every eigenvalue of m lies in |z| <= this."""
    return max((sum(map(abs, row)) for row in m.rows), default=0)


def _twin_collapse(rows: list[tuple[int, ...]]):
    """The smallest c with twin classes of type c in rows, and those classes.

    i and j are twins of type c when they have one diagonal value, row i
    with entry i set to c equals row j with entry j set to c, and the same
    holds for columns i and j.  For one c this is an equivalence relation,
    and every class is constant on the diagonal, c off it, and constant on
    each block it shares with another index or class.  The rows of twins
    i and j are one another with entries i and j swapped, and so are
    their columns, so twins share their diagonal value, row sum and column
    sum.  Indices are first bucketed by (diagonal, row sum, column sum) in
    one O(n^2) pass; only buckets of two or more are searched, only for
    the values c they hold symmetrically, and the exact key above splits
    each one.  Returns None when no index has a twin.
    """
    n = len(rows)
    cols = list(zip(*rows))
    buckets: dict[tuple, list[int]] = {}
    for i in range(n):
        buckets.setdefault((rows[i][i], sum(rows[i]), sum(cols[i])), []).append(i)
    candidates: dict[int, list[list[int]]] = {}
    for bucket in buckets.values():
        values = {
            rows[i][j]
            for a, i in enumerate(bucket)
            for j in bucket[a + 1 :]
            if rows[i][j] == rows[j][i]
        }
        for c in values:
            candidates.setdefault(c, []).append(bucket)
    for c in sorted(candidates):
        classes = []
        for bucket in candidates[c]:
            groups: dict[tuple, list[int]] = {}
            for i in bucket:
                row, col = rows[i], cols[i]
                key = (row[:i] + (c,) + row[i + 1 :], col[:i] + (c,) + col[i + 1 :])
                groups.setdefault(key, []).append(i)
            classes.extend(g for g in groups.values() if len(g) > 1)
        if classes:
            return c, sorted(classes)
    return None


# A group of indices of the original matrix, sorted, and one collapsed
# class: its member groups G_0, ..., G_(s-1) and its root.
_Group = tuple[int, ...]
_Merge = tuple[tuple[_Group, ...], int]


def _union(members: Iterable[_Group]) -> _Group:
    return tuple(sorted(itertools.chain.from_iterable(members)))


def _twin_quotient(m: IntMatrix) -> tuple[IntMatrix, list[_Group], list[_Merge]]:
    """(B, cells, merges), the twin quotient of m and how it was formed.

    Collapses the twin classes of one c at a time (see _twin_collapse) and
    repeats on the quotient until no index has a twin; a twin-free matrix
    is its own quotient.  A class I of size s, diagonal d and off-diagonal
    c becomes one index with diagonal d + (s - 1) c, the block from any
    index or class to I is summed (s times its constant entry), and the
    class contributes the root d - c with multiplicity s - 1.

    Everything else is in indices of m, each group a sorted tuple of
    them.  cells[J] is the group that index J of B stands for.  merges has
    one (members, r) per collapsed class, in order: members are the groups
    G_0, ..., G_(s-1) of the class, and r = d - c is the root that each
    1_(G_0) - 1_(G_a), a = 1 ... s - 1, is an eigenvector for.  Nothing
    here is trusted: _check_twin_certificate proves the result on m.
    """
    rows = list(m.rows)
    groups = [(i,) for i in range(m.n)]
    merges: list[_Merge] = []
    while (found := _twin_collapse(rows)) is not None:
        c, classes = found
        size = [1] * len(rows)
        dropped = set()
        for cls in classes:
            size[cls[0]] = len(cls)
            dropped.update(cls[1:])
            # a list first, for the same reason as the rows below
            members = tuple([groups[i] for i in cls])
            merges.append((members, rows[cls[0]][cls[0]] - c))
            groups[cls[0]] = _union(members)
        keep = [i for i in range(len(rows)) if i not in dropped]
        sizes = [size[j] for j in keep]
        quotient = []
        for i in keep:
            # a list first: tuple() over a generator grows by reallocation,
            # which fragments the heap and lifts the peak RSS run by run
            row = list(map(operator.mul, map(rows[i].__getitem__, keep), sizes))
            row[len(quotient)] = rows[i][i] + (size[i] - 1) * c
            quotient.append(tuple(row))
        rows = quotient
        groups = [groups[i] for i in keep]
    return IntMatrix(tuple(rows)), groups, merges


def _check_twin_certificate(
    m: IntMatrix, quotient: IntMatrix, cells: Sequence[_Group], merges: Sequence[_Merge]
) -> None:
    """Prove det(xI - m) = det(xI - B) * prod (x - r)^(s - 1) on m itself,
    for B = quotient and the cells and merges of _twin_quotient.

    With s_G = sum over j in G of m[:, j] = m 1_G, three exact checks:

    1. Replayed from the singletons, each merge replaces its member groups,
       which must be two or more distinct current groups, by their union,
       and what is left is exactly the cells, one per index of B.  So the
       cells partition range(n), and T = {1_J : J a cell} together with
       {1_(G_0) - 1_(G_a)} for every merge is a basis of n vectors: each
       merge swaps s indicators for their sum and s - 1 differences, which
       span the same space.
    2. m P = P B for the cell-indicator matrix P: s_J[i] = B[cell(i)][J]
       for every cell J and every i.
    3. m (1_(G_0) - 1_(G_a)) = r (1_(G_0) - 1_(G_a)) for every merge.

    Then m T = T diag(B, r, ...), which proves the identity.  s_G is cached
    per current group, and a union's is the sum of its members', so each
    merge level costs O(n^2) integer additions.  Any failure raises
    ArithmeticError.
    """
    n = m.n
    sums = dict(zip(((i,) for i in range(n)), zip(*m.rows)))
    for members, r in merges:
        distinct = len(set(members)) == len(members) >= 2
        if not distinct or not all(map(sums.__contains__, members)):
            raise ArithmeticError("twin certificate: a merge is not of distinct current groups")
        head = sums.pop(members[0])
        vecs = [head]
        for g in members[1:]:
            vec = sums.pop(g)
            diff = list(map(operator.sub, head, vec))
            for i in members[0]:
                diff[i] -= r
            for i in g:
                diff[i] += r
            if any(diff):
                raise ArithmeticError(f"twin certificate: 1_G0 - 1_Ga is no eigenvector for {r}")
            vecs.append(vec)
        sums[_union(members)] = list(map(sum, zip(*vecs)))
    if not len(cells) == len(sums) == quotient.n or set(cells) != sums.keys():
        raise ArithmeticError("twin certificate: the cells are not what the merges leave")
    cell_of = [0] * n
    for j, cell in enumerate(cells):
        for i in cell:
            cell_of[i] = j
    for j, cell in enumerate(cells):
        column = [row[j] for row in quotient.rows]
        if list(sums[cell]) != list(map(column.__getitem__, cell_of)):
            raise ArithmeticError(f"twin certificate: M P != P B in column {j}")


def _graph_rows(m: IntMatrix) -> tuple[list[int], list[int], int] | None:
    """(R, D, w) when m is graph-shaped, else None.

    m is graph-shaped when n >= 2, every entry fits int64, every
    off-diagonal entry is 0 or one value w, and the zero pattern is
    symmetric; then m = diag(D) + w A for a symmetric 0/1 matrix A with a
    zero diagonal.  R holds the rows of A as packed ints, bit j of R[i]
    set when m_ij = w, and D the diagonal.  Adjacency, Laplacian and
    signless Laplacian matrices are graph-shaped with w = 1, -1, 1.  A
    matrix with no off-diagonal entry has A = 0 and w = 1.
    """
    n = m.n
    if n < 2:
        return None
    int64_row = struct.Struct(f"<{n}q")
    try:
        entries = b"".join([int64_row.pack(*row) for row in m.rows])
    except struct.error:  # an entry outside int64
        return None
    a = np.frombuffer(entries, np.int64).reshape(n, n).copy()
    diagonal = a.diagonal().tolist()
    np.fill_diagonal(a, 0)
    edges = a != 0
    weights = a[edges]
    w = int(weights[0]) if weights.size else 1
    if (weights != w).any() or (edges != edges.T).any():
        return None
    width = (n + 7) // 8
    packed = np.packbits(edges, axis=1, bitorder="little").tobytes()
    rows = [int.from_bytes(packed[i : i + width], "little") for i in range(0, n * width, width)]
    return rows, diagonal, w


def _first_level(
    rows: Sequence[int], diagonal: Sequence[int], w: int
) -> tuple[IntMatrix, list[_Group], list[_Merge]] | None:
    """(B1, cells, merges), the first twin level of diag(D) + w A, with
    R, D and w from _graph_rows, or None when no index has a twin.

    Open twins (type c = 0) share the key (R_i, D_i) and closed twins
    (type c = w) the key (R_i | 1 << i, D_i).  No index has both an open
    and a closed twin: if v, u are open twins and v, x closed twins, then
    x is in N(v) = N(u), so u is in N[x] = N[v], against v !~ u.  So the
    classes of both types collapse at once.  B1 = w K + diag(D_I), D_I
    being d_I + (s_I - 1) c_I, with K_IJ the number of neighbours in cell J
    of the first index of cell I: those rows unpacked to a c1 x n 0/1
    array, its columns grouped by cell and summed per cell by
    np.add.reduceat, with no popcount.  w K + D is formed on Python ints,
    as it can leave int64 for a large w.  The result has _twin_quotient's
    form, every member group a singleton; nothing here is trusted:
    _check_first_level proves it on R and D by popcounts, which share no
    code with this count.
    """
    open_twins: dict[tuple[int, int], list[int]] = {}
    closed_twins: dict[tuple[int, int], list[int]] = {}
    for i, (row, d) in enumerate(zip(rows, diagonal)):
        open_twins.setdefault((row, d), []).append(i)
        closed_twins.setdefault((row | 1 << i, d), []).append(i)
    # a list before each tuple: tuple() over a generator grows by
    # reallocation, which fragments the heap and lifts the peak RSS
    merges = sorted(
        (tuple([(v,) for v in cls]), diagonal[cls[0]] - c)
        for twins, c in ((open_twins, 0), (closed_twins, w))
        for cls in twins.values()
        if len(cls) > 1
    )
    if not merges:
        return None
    merged = {v for members, _ in merges for (v,) in members}
    cells = [_union(members) for members, _ in merges]
    cells = sorted(cells + [(i,) for i in range(len(rows)) if i not in merged])
    by_cell = [v for cell in cells for v in cell]
    bits = _unpack([rows[cell[0]] for cell in cells], len(rows))[:, by_cell]
    starts = list(itertools.accumulate(map(len, cells[:-1]), initial=0))
    counts = np.add.reduceat(bits, starts, axis=1, dtype=np.int64).tolist()
    quotient = []
    for j, (cell, row) in enumerate(zip(cells, counts)):
        b = [w * k for k in row]
        b[j] += diagonal[cell[0]]
        quotient.append(tuple(b))
    return IntMatrix(tuple(quotient)), cells, merges


def _check_first_level(
    rows: Sequence[int],
    diagonal: Sequence[int],
    w: int,
    quotient: IntMatrix,
    cells: Sequence[_Group],
    merges: Sequence[_Merge],
) -> None:
    """Prove det(xI - M) = det(xI - B1) * prod (x - r)^(s - 1) on the bit
    rows of M = diag(D) + w A (see _graph_rows), for B1 = quotient and
    the cells and merges of _first_level.

    1. The cells partition range(n), one per index of B1, and the merges
       are the cells of two or more indices, each once, as singletons.
    2. For a merge of v_0, ..., v_(s-1) with root r, c = D_(v_0) - r is 0
       or w, and for every member v: D_v = D_(v_0), and R_v ^ R_(v_0) is
       0 when c = 0 and the two own bits 1 << v | 1 << v_0 when c = w.
       No row of A has its own bit, so M_(v_0 v) = M_(v v_0) = c, and
       the two rows agree off {v_0, v}.  M is symmetric off the
       diagonal, so row x of M (e_(v_0) - e_v) reads 0 off {v_0, v},
       D_v - c at v_0 and c - D_v at v: e_(v_0) - e_v is an eigenvector
       for r.
    3. M P = P B1 for the cell-indicator matrix P, on the first index h
       of each cell I only: for every cell J, w popcount(R_h & mask_J)
       plus D_h when J = I equals B1_IJ.

    Step 3 on the heads is enough.  Row v of M P, at cell J, is w
    popcount(R_v & mask_J) plus D_v when v is in J.  Take a member v of a
    merge with head v_0, both in the cell I by step 1.  By step 2, D_v =
    D_(v_0), and R_v ^ R_(v_0) is 0 or the two own bits, both in mask_I.
    So popcount(R_v & mask_J) = popcount(R_(v_0) & mask_J) for every J !=
    I, and for J = I too, as a closed R_v trades bit v for bit v_0 inside
    mask_I: row v of M P equals row v_0 of M P.  By step 1 a cell of two
    or more indices is exactly the members of one merge, so all rows of
    M P in a cell equal the row of its first index, which step 3 checks
    against B1.

    The cell indicators and the differences form a basis T of n vectors,
    and M T = T diag(B1, r, ...), which proves the identity, as in
    _check_twin_certificate.  Steps 1 and 2 cost a sort and one XOR per
    index, step 3 c1^2 popcounts for c1 cells.  Any failure raises
    ArithmeticError.
    """
    n = len(rows)
    if sorted(itertools.chain.from_iterable(cells)) != list(range(n)) or len(cells) != quotient.n:
        raise ArithmeticError("twin certificate: the first-level cells do not partition M")
    big = sorted(cell for cell in cells if len(cell) > 1)
    if sorted(_union(members) for members, _ in merges) != big or not all(
        len(g) == 1 for members, _ in merges for g in members
    ):
        raise ArithmeticError("twin certificate: the first-level merges are not the cells")
    for members, r in merges:
        (head,) = members[0]
        c = diagonal[head] - r
        if c not in (0, w):
            raise ArithmeticError(f"twin certificate: root {r} is not D - c for c in (0, {w})")
        for (v,) in members[1:]:
            own = 1 << v | 1 << head if c else 0
            if rows[v] ^ rows[head] != own or diagonal[v] != diagonal[head]:
                raise ArithmeticError(f"twin certificate: {v} and {head} are not twins")
    masks = [sum(1 << v for v in cell) for cell in cells]
    for j, cell in enumerate(cells):
        got = [w * (rows[cell[0]] & mask).bit_count() for mask in masks]
        got[j] += diagonal[cell[0]]
        if tuple(got) != quotient.rows[j]:
            raise ArithmeticError(f"twin certificate: M P != P B1 in row {cell[0]}")


def _char_poly_factored(m: IntMatrix) -> tuple[list[int], Counter[int]]:
    """(coefficients of det(xI - B), Counter of the roots r with their
    multiplicities), with det(xI - M) = det(xI - B) * prod (x - r)^e: the
    factored core of char_poly_exact, whose docstring states the route."""
    _check_cap(m.n)
    first: list[_Merge] = []
    graph = _graph_rows(m)
    level = None if graph is None else _first_level(*graph)
    if level is not None:
        b1, cells, first = level
        _check_first_level(*graph, b1, cells, first)
        m = b1  # the dense level runs on B1 in place of M
    quotient, cells, merges = _twin_quotient(m)
    _check_twin_certificate(m, quotient, cells, merges)
    coeffs = kernels.charpoly_berkowitz(quotient.rows)
    x0 = _gershgorin_radius(quotient) + 1
    shifted = [
        [(x0 if i == j else 0) - v for j, v in enumerate(row)]
        for i, row in enumerate(quotient.rows)
    ]
    if IntPolynomial.from_coeffs(coeffs)(x0) != kernels.det_bareiss(shifted):
        raise ArithmeticError(f"Berkowitz det(xI - B) disagrees with det({x0}I - B)")
    roots: Counter[int] = Counter()
    for members, root in itertools.chain(first, merges):
        roots[root] += len(members) - 1
    return coeffs, roots


def char_poly_exact(m: IntMatrix) -> IntPolynomial:
    """det(xI - M) on the twin quotient of M, by Berkowitz's recurrence,
    with the reduction proved on M and the quotient's polynomial checked
    at one point.

    First level, on bit rows.  When M is graph-shaped (see _graph_rows),
    M = diag(D) + w A with A a graph, and its first twin level, open and
    closed twins at once, is found by _first_level and proved by
    _check_first_level on the packed rows of A.  That proves det(xI - M)
    = det(xI - B1) * prod (x - r)^(s - 1).  The dense level below runs on
    B1 in place of M, so its certificate proves det(xI - B1) = det(xI -
    B) * prod (x - r')^(s' - 1), and the two identities chain.  Any other
    M goes through the dense level as it is.  Adjacency, Laplacian and
    signless Laplacian matrices of a graph are graph-shaped, with w = 1,
    -1, 1.

    Twin quotient (Schwenk 1974; Cardoso et al. 2013).  Take classes I
    of indices, of sizes s_I, such that M is d_I on the diagonal of I and
    c_I off it, and every block M[I, J] with I != J is one constant m_IJ.
    Then det(xI - M) = det(xI - B) * prod_I (x - (d_I - c_I))^(s_I - 1),
    with B_II = d_I + (s_I - 1) c_I and B_IJ = s_J m_IJ; B need not be
    symmetric.  The classes are found on M: i and j are twins of type c
    when row i with entry i set to c equals row j with entry j set to c,
    the same holds for the columns, and M_ii = M_jj.  The classes of one
    c are collapsed at a time, and the search repeats on B until nothing
    collapses (see _twin_quotient).  In a power graph the elements that
    generate one cyclic subgroup are twins, so the model graph of G(k, p)
    has a 5 x 5 quotient and the true graph a (2k + 4) x (2k + 4) one, for
    every matrix kind.

    Certificate of the dense level, on M (on B1 after a first level).
    The collapses are replayed on the original indices and never trusted
    (see _check_twin_certificate).  The final cells J and, for every
    merge of groups G_0, ..., G_(s-1) with root r, the differences
    1_(G_0) - 1_(G_a) form a basis T of n vectors.  Exact O(n^2)
    identities on M check that the cells partition the indices, that
    M P = P B for the cell indicators P, and that M (1_(G_0) - 1_(G_a))
    = r (1_(G_0) - 1_(G_a)).  So M T = T diag(B, roots), which proves the
    factorisation above; a failure raises ArithmeticError.

    Berkowitz, on B.  kernels.charpoly_berkowitz is division-free on
    Python ints, so det(xI - B) is exact with no bound and no primes.
    It costs about c^4 / 4 multiplications on c cells, against c^3 per
    prime for a modular Hessenberg route: faster on the family's
    quotients (at most 2k + 4 cells; 2.4 against 3.6 ms at 18 cells),
    even near c = 20 on random twin-free matrices with entries in
    [-9, 9], and slower above (0.39 against 0.12 s at c = 64, 8.7
    against 1.4 s at c = 128; Xeon, Python 3.11).

    Runtime cross-check, on B.  The polynomial is evaluated at
    x0 = R(B) + 1, R(B) the Gershgorin radius (max absolute row sum) of B,
    and compared with the exact Bareiss det(x0 I - B); a difference raises
    ArithmeticError.  Every eigenvalue of B lies in |z| <= R(B), so
    x0 I - B is nonsingular, and R(B) <= R(M), so the point is no larger
    than one taken on M; a twin-free M is its own quotient and is checked
    on itself.  The cost is a c x c determinant and no pass over M.

    Linear factors.  _char_poly_factored returns det(xI - B) and one
    Counter of the roots of both levels; det(xI - B) * prod (x - r)^e is
    one Kronecker substitution product, B(2^b) * prod (2^b - r)^e on
    Python ints, so each distinct root is powered once (see
    _kronecker_product).
    Always monic of degree n.  See char_poly_leverrier for the independent
    cross-check route.
    """
    coeffs, roots = _char_poly_factored(m)
    linear = [((-root, 1), e) for root, e in roots.items()]
    return IntPolynomial(_kronecker_product(1, [(coeffs, 1)] + linear))


def char_poly_leverrier(m: IntMatrix) -> IntPolynomial:
    """det(xI - M) by fraction-free Faddeev-LeVerrier (cross-check route)."""
    _check_cap(m.n)
    return IntPolynomial.from_coeffs(kernels.charpoly_leverrier(m.rows))


def _fraction_solve(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    """Solve A X = B by Gauss-Jordan; A must be invertible."""
    n = len(a)
    w = len(b[0])
    m = [a[i][:] + b[i][:] for i in range(n)]
    for col in range(n):
        pivot_row = None
        for i in range(col, n):
            if m[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            raise ZeroDivisionError("singular system")
        m[col], m[pivot_row] = m[pivot_row], m[col]
        pivot = m[col][col]
        m[col] = [v / pivot for v in m[col]]
        for i in range(n):
            if i == col or m[i][col] == 0:
                continue
            factor = m[i][col]
            m[i] = [v - factor * w_ for v, w_ in zip(m[i], m[col])]
    return [row[n : n + w] for row in m]


@dataclass(frozen=True)
class SchurCheckOutcome:
    passed: bool
    checked_points: tuple[int, ...]
    skipped_points: tuple[int, ...]


def schur_charpoly_check(
    a: IntMatrix, b: IntMatrix, c: IntMatrix, d: IntMatrix, points: Iterable[int]
) -> SchurCheckOutcome:
    """Verify det(xI - [[A,B],[C,D]]) = det(xI-D) * det((xI-A) - B (xI-D)^-1 C)
    at the given integer sample points.

    Points where xI - D is singular are skipped and reported.  Blocks of
    order 0, or no point left, leave nothing to verify: that is an error.
    """
    order = a.n
    for blk in (b, c, d):
        if blk.n != order:
            raise ValueError("all four blocks must have the same order")
    if order == 0:
        raise ValueError("blocks of order 0 leave nothing to verify")
    checked, skipped = [], []
    passed = True
    for x in points:
        x = int(x)
        d_shift = [
            [(x if i == j else 0) - v for j, v in enumerate(row)] for i, row in enumerate(d.rows)
        ]
        dd = kernels.det_bareiss(d_shift)
        if dd == 0:
            skipped.append(x)
            continue
        checked.append(x)
        # full shifted matrix [[xI-A, -B], [-C, xI-D]]
        top = [
            [(x if i == j else 0) - a.rows[i][j] for j in range(order)]
            + [-b.rows[i][j] for j in range(order)]
            for i in range(order)
        ]
        bottom = [[-v for v in c_row] + d_row for c_row, d_row in zip(c.rows, d_shift)]
        lhs = kernels.det_bareiss(top + bottom)
        dinv_c = _fraction_solve(
            [[Fraction(v) for v in row] for row in d_shift],
            [[Fraction(v) for v in row] for row in c.rows],
        )
        schur = [
            [
                top[i][j] - sum(b.rows[i][t] * dinv_c[t][j] for t in range(order))
                for j in range(order)
            ]
            for i in range(order)
        ]
        # det(S) = det(L S) / L^order, with L S an integer matrix
        scale = math.lcm(*(v.denominator for row in schur for v in row))
        scaled = [[int(v * scale) for v in row] for row in schur]
        if dd * kernels.det_bareiss(scaled) != lhs * scale**order:
            passed = False
    if not checked:
        raise ValueError("all sample points left the lower-right block singular")
    return SchurCheckOutcome(passed, tuple(checked), tuple(skipped))
