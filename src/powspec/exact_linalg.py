"""Exact integer matrices, polynomials, and characteristic polynomials.

Two independent exact routes to det(xI - A) live here.

- char_poly_exact, the primary route, reduces A to its twin quotient B,
  computes det(xI - B) by Berkowitz's division-free recurrence, checks
  it with one Bareiss determinant on B at x0 = R(B) + 1, and multiplies
  in the linear factors of the twin classes.  The reduction runs when A
  is graph-shaped, A = diag(D) + w Adj, on the packed bit rows R of Adj.
  For a matrix of matrix_of, R, D and w are _graph_shape of its graph
  and kind, and the graph-only work is done once per graph: _twin_levels
  proposes the merges that form the twin classes, on the adjacency keys,
  and _check_twin_structure replays them, reads the cells and K off the
  replay (K by _quotient_counts, popcounts on the cell heads) and proves
  everything about them that reads R only; the graph keeps the result
  (_graph_twins), whose K a run reads lambda1 and the model's split off.
  Per matrix, _twin_quotient proves the rest for its D and w, computes
  the roots and forms B = w K + diag(D).
  Any other graph-shaped A (n >= 2, int64 entries, every off-diagonal
  entry 0 or one value w, a symmetric zero pattern) is read by
  _graph_rows and takes the same three steps, with nothing kept.  Any
  other A goes whole to Berkowitz.  The char_poly_exact docstring states
  the lemmas, the certificate, the cost and the point check.
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
import os
import struct
from collections import Counter
from dataclasses import dataclass
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

    def __getattr__(self, name: str):
        # Reached only when normal lookup fails: for a matrix of matrix_of,
        # the rows before their first read, written from its graph once.
        source = self.__dict__.get("_source")
        if name != "rows" or source is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        rows = IntMatrix.from_array(_matrix_array(*source)).rows
        object.__setattr__(self, "rows", rows)
        return rows

    @property
    def n(self) -> int:
        source = self.__dict__.get("_source")
        return len(self.rows) if source is None else source[0].n


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial, coefficients ascending; () is the zero polynomial.

    It has the operations a check reads: evaluation, the sign flip of
    monic_normalized, the product and power of two polynomials (through
    _kronecker_product) and exact division by x - r.
    """

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

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        return IntPolynomial(_kronecker_product(1, ((self.coeffs, 1), (other.coeffs, 1))))

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
    """scalar * product of (base ** exponent), kept unexpanded; expand()
    is the one way to its coefficients or values."""

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

    def __str__(self) -> str:
        parts = [] if self.scalar == 1 else [str(self.scalar)]
        for base, e in self.factors:
            inner = str(base)
            parts.append(f"({inner})" if e == 1 else f"({inner})^{e}")
        return " ".join(parts) if parts else "1"


def _packed(rows) -> np.ndarray:
    """Packed rows of n = len(rows) bits as an n x ceil(n / 8) uint8
    array, little-endian: bit j of row i is bit j % 8 of [i, j // 8]."""
    n = len(rows)
    width = (n + 7) // 8
    packed = b"".join(map(int.to_bytes, rows, itertools.repeat(width), itertools.repeat("little")))
    return np.frombuffer(packed, np.uint8).reshape(n, width)


def _unpack(rows) -> np.ndarray:
    """Packed rows of n = len(rows) bits as an n x n uint8 array of 0/1,
    bit j of row i at [i, j]."""
    return np.unpackbits(_packed(rows), axis=1, bitorder="little")[:, : len(rows)]


def _check_kind(kind: str) -> None:
    if kind not in ("adjacency", "laplacian", "signless"):
        raise ValueError(f"unknown matrix kind {kind!r}")


def _graph_shape(graph, kind: str) -> tuple[tuple[int, ...], list[int], int]:
    """(R, D, w) of the graph's matrix of a kind, diag(D) + w A as in
    _graph_rows, and the one place a kind is decoded: R the graph's tuple
    of bit rows itself, D bit i of row i for the adjacency and the degrees
    for the two Laplacians, w -1 for the Laplacian and 1 otherwise."""
    _check_kind(kind)
    rows = graph._rows
    if kind == "adjacency":
        return rows, [(row >> i) & 1 for i, row in enumerate(rows)], 1
    return rows, list(graph.degrees), -1 if kind == "laplacian" else 1


def _matrix_array(graph, kind: str) -> np.ndarray:
    """Adjacency, laplacian, or signless laplacian matrix of a graph: w
    times the unpacked rows as int64, D on the diagonal, for the (R, D, w)
    of _graph_shape."""
    rows, diagonal, w = _graph_shape(graph, kind)
    a = w * _unpack(rows).astype(np.int64)
    np.fill_diagonal(a, diagonal)
    return a


def matrix_of(graph, kind: str) -> IntMatrix:
    """_matrix_array as an IntMatrix of Python ints, its rows written on
    their first read.

    The matrix records its graph and kind, in a private attribute outside
    the dataclass fields, and n reads the graph's order.  char_poly_exact
    reads them, through _graph_shape, to take the twin quotient from the
    graph's bit rows, found and proved once per graph for all three kinds,
    so it never writes the rows.  Any reader of rows, and so ==, hash and
    repr, sees the rows of IntMatrix.from_array(_matrix_array(graph,
    kind)); an IntMatrix built from the same rows takes the dense route to
    the same polynomial.
    """
    _check_kind(kind)
    m = object.__new__(IntMatrix)
    object.__setattr__(m, "_source", (graph, kind))
    return m


def _gershgorin_radius(m: IntMatrix) -> int:
    """Max absolute row sum: every eigenvalue of m lies in |z| <= this."""
    return max((sum(map(abs, row)) for row in m.rows), default=0)


# A group of indices of the original matrix, sorted, and one merge of
# groups: its member groups G_0, ..., G_(s-1).
_Group = tuple[int, ...]
_Merge = tuple[_Group, ...]
# A proved twin reduction, as char_poly_exact keeps it per graph: the
# cells, K, and per merge the member heads, their inner counts and the
# member size if the merge is closed, else 0 (see _check_twin_structure).
_Twins = tuple[list[_Group], list[tuple[int, ...]], list[tuple[list[int], list[int], int]]]


def _union(members: Iterable[_Group]) -> _Group:
    return tuple(sorted(itertools.chain.from_iterable(members)))


def _graph_rows(m: IntMatrix) -> tuple[tuple[int, ...], list[int], int] | None:
    """(R, D, w) when m is graph-shaped, else None.

    m is graph-shaped when n >= 2, every entry fits int64, every
    off-diagonal entry is 0 or one value w, and the zero pattern is
    symmetric; then m = diag(D) + w A for a symmetric 0/1 matrix A with a
    zero diagonal.  R holds the rows of A as a tuple of packed ints, bit
    j of R[i] set when m_ij = w, and D the diagonal.  Adjacency, Laplacian
    and signless Laplacian matrices are graph-shaped with w = 1, -1, 1, as
    _graph_shape, the graph-side counterpart, decodes them.  A matrix
    with no off-diagonal entry has A = 0 and w = 1.
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
    return tuple(rows), diagonal, w


def _quotient_counts(masks: Sequence[int], heads: Iterable[int]) -> list[tuple[int, ...]]:
    """K_IJ = popcount(heads[I] & masks[J]), one head row per cell: the
    quotient when the cells are regular modules, as the twin certificate proves."""
    return [tuple([(row & m).bit_count() for m in masks]) for row in heads]


def _twin_levels(rows: Sequence[int], diagonal: Sequence[int], w: int) -> list[_Merge]:
    """The merges that form the twin classes of M = diag(D) + w A, with
    R, D and w as in _graph_rows.

    A group is a sorted tuple of indices, its head h its smallest index,
    its mask m the bits of its members, and b = D_h + w popcount(R_h & m)
    the head's row sum of M inside it.  From the singletons on, each
    round keys every current group twice:

    - open twins on (R_h & ~m, b, size), the size dropped when R_h & ~m
      is 0;
    - closed twins on ((R_h & ~m) | m, b, size);

    and merges the groups of every key held by two or more.  Rounds repeat
    until nothing merges.  Equal open keys mean no edge between the groups
    and one neighbourhood outside them all; equal closed keys mean every
    edge between them.  No group has both kinds of partner: if G, H are
    open twins and G, K closed twins, K is a neighbour of G outside G and
    H, so of H, and H, outside G and K, is a neighbour of K but not of G.
    The merges come in round order.  They are only proposed:
    _check_twin_structure replays them, takes the cells from the replay
    and proves them, and _twin_quotient proves the rest per kind.
    """
    groups = {(i,): 1 << i for i in range(len(rows))}
    merges: list[_Merge] = []
    while True:
        keyed: dict[tuple, list[_Group]] = {}
        for group, mask in groups.items():
            row, size = rows[group[0]], len(group)
            outside = row & ~mask
            b = diagonal[group[0]] + w * (row & mask).bit_count()
            keyed.setdefault((outside, b, size if outside else 0, False), []).append(group)
            keyed.setdefault((outside | mask, b, size, True), []).append(group)
        level = sorted([tuple(sorted(g)) for g in keyed.values() if len(g) > 1])
        if not level:
            return merges
        for members in level:
            groups[_union(members)] = sum([groups.pop(g) for g in members])
        merges += level


def _check_twin_structure(rows: Sequence[int], merges: Sequence[_Merge]) -> _Twins:
    """(cells, K, proof): the half of the twin certificate that reads the
    bit rows R only, for the merges of _twin_levels; _twin_quotient is the
    other half, per diagonal D and weight w.  cells[J] is the group that
    index J of the quotient stands for, K its counts, and proof holds, per
    merge, its member heads, their inner counts popcount(R_h & m) and the
    member size if the merge is closed, else 0.

    A group G with head h and mask m is a module when every member v has
    the head's row outside G, R_v & ~m = R_h & ~m, and a regular module of
    M = diag(D) + w A when also every member has the head's row sum
    inside it, D_v + w popcount(R_v & m) = b.  Every singleton is one.
    Three exact steps:

    1. Replayed from the singletons, each merge replaces two or more
       distinct current groups G_0, ..., G_(s-1) by their union U, and the
       cells are the groups left, sorted by head.  So the cells partition
       range(n), and the cell indicators with every merge's differences
       1_(G_0) - 1_(G_a), a = 1 ... s - 1, form a basis T of n vectors:
       each merge swaps s indicators for their sum and s - 1 differences,
       which span the same space.
    2. For each merge, on the member heads only: every member has one
       R_h & ~U; either every head has all of U & ~m in its row (closed)
       or none of it (open); and every member has one size, unless the
       merge is open and R_h & ~U = 0.
    3. K_IJ = popcount(R_h & mask_J) for the head h of every cell I, c^2
       popcounts for c cells (_quotient_counts).  A proved cell is a
       regular module, so its head's row of M P, w K + D_h on the
       diagonal, is every member's (see _twin_quotient).

    Any failure raises ArithmeticError.  _twin_quotient's docstring
    carries the induction and the eigenvectors.
    """
    masks = {(i,): 1 << i for i in range(len(rows))}
    proof = []
    for members in merges:
        if not len(set(members)) == len(members) >= 2 or not all(map(masks.__contains__, members)):
            raise ArithmeticError("twin certificate: a merge is not of distinct current groups")
        inner = [masks.pop(g) for g in members]
        union = sum(inner)
        heads = [g[0] for g in members]
        outside = {rows[h] & ~union for h in heads}
        links = [rows[h] & union & ~m for h, m in zip(heads, inner)]
        closed = all(link == union & ~m for link, m in zip(links, inner))
        if len(outside) != 1 or not (closed or not any(links)):
            raise ArithmeticError(f"twin certificate: the groups headed {heads} are not twins")
        if len({len(g) for g in members}) != 1 and (closed or outside != {0}):
            raise ArithmeticError(f"twin certificate: twins of unequal size headed {heads}")
        inners = [(rows[h] & m).bit_count() for h, m in zip(heads, inner)]
        proof.append((heads, inners, len(members[0]) if closed else 0))
        masks[_union(members)] = union
    cells = sorted(masks)
    counts = _quotient_counts([masks[cell] for cell in cells], [rows[c[0]] for c in cells])
    return cells, counts, proof


def _proved_twins(rows: Sequence[int], diagonal: Sequence[int], w: int) -> _Twins:
    """_twin_levels on R with the keys of (D, w), and its structural proof."""
    return _check_twin_structure(rows, _twin_levels(rows, diagonal, w))


def _graph_twins(graph) -> _Twins:
    """(cells, K, proof) of the graph's twin classes, found on the
    adjacency keys (D = 0, w = 1) and proved on its bit rows on the first
    call, and kept in graph._twins for every later call.  K is the
    quotient of the adjacency itself: A P = P K for the cell indicators P,
    as every proved cell is a regular module."""
    if graph._twins is None:
        graph._twins = _proved_twins(graph._rows, [0] * graph.n, 1)
    return graph._twins


def _twin_quotient(twins: _Twins, diagonal: Sequence[int], w: int) -> tuple[IntMatrix, Counter[int]]:
    """(B, roots): the quotient of M = diag(D) + w A on proved twins of A,
    and the Counter of the roots r with their multiplicities, so that
    det(xI - M) = det(xI - B) * prod (x - r)^e.

    The kind-dependent half of the certificate, on the member heads: b =
    D_h + w inner_h must take one value on each merge's heads, else
    ArithmeticError; the root is r = b - w size for a closed merge and b
    for an open one, s - 1 times for s members; and B = w K + diag(D of
    the cell heads), formed on Python ints, as w K can leave int64.

    Induction: if the members of a merge are regular modules (see
    _check_twin_structure), so is U.  A member v of G_a agrees with its
    head off m_a, so R_v & ~U is the head's, one value, and R_v & (U &
    ~m_a) is all or none of U & ~m_a as the merge's type says.  So U's row
    sum at v is b + w (|U| - |G_a|) when closed and b when open, one value
    as the sizes agree when closed.  Every group of the replay is a
    regular module, the cells too.

    Eigenvectors.  A is symmetric, so a row x outside a module G reads
    w |G| at G when bit x of R_h is set and 0 otherwise.  So row x of
    M (1_(G_0) - 1_(G_a)) reads 0 outside U, where the outside rows agree
    and so do the sizes (or the row is 0); 0 in a third member, w |G| -
    w |G| or 0 - 0; b - c = r in G_0 and c - b = -r in G_a, c = w size or
    0.  A row v of M P, for the cell indicators P, is its head's, as a
    cell is a regular module, and the head's is w K + D_h on the diagonal.
    So M T = T diag(B, r, ...), which proves the identity.

    One graph, three kinds.  For the adjacency D = 0 and w = 1; for the
    Laplacian and the signless Laplacian D is the degree and w = -1, 1.
    The degree of a member head is popcount(R_h & ~U) + popcount(R_h & U &
    ~m) + inner_h: the first is one value by step 2 of the structure, the
    second is |U| - |G_a| when closed and 0 when open, one value as the
    sizes agree when closed, and the third is one value when the
    adjacency's b is.  So twins found on the adjacency keys are twins for
    all three kinds; the check above proves it again on every call.
    """
    cells, counts, proof = twins
    roots: Counter[int] = Counter()
    for heads, inners, closed_size in proof:
        sums = {diagonal[h] + w * k for h, k in zip(heads, inners)}
        if len(sums) != 1:
            raise ArithmeticError(f"twin certificate: the groups headed {heads} differ in row sum")
        roots[sums.pop() - w * closed_size] += len(heads) - 1
    quotient = []
    for j, (cell, row) in enumerate(zip(cells, counts)):
        b = [w * k for k in row]
        b[j] += diagonal[cell[0]]
        quotient.append(tuple(b))
    return IntMatrix(tuple(quotient)), roots


def _char_poly_factored(m: IntMatrix) -> tuple[list[int], Counter[int]]:
    """(coefficients of det(xI - B), Counter of the roots r with their
    multiplicities), with det(xI - M) = det(xI - B) * prod (x - r)^e: the
    factored core of char_poly_exact, whose docstring states the route."""
    _check_cap(m.n)
    quotient, roots = m, Counter()
    graph, kind = getattr(m, "_source", (None, None))
    if graph is not None and m.n >= 2:
        _, diagonal, w = _graph_shape(graph, kind)
        quotient, roots = _twin_quotient(_graph_twins(graph), diagonal, w)
    elif (shape := _graph_rows(m)) is not None:
        quotient, roots = _twin_quotient(_proved_twins(*shape), *shape[1:])
    coeffs = kernels.charpoly_berkowitz(quotient.rows)
    x0 = _gershgorin_radius(quotient) + 1
    shifted = [
        [(x0 if i == j else 0) - v for j, v in enumerate(row)]
        for i, row in enumerate(quotient.rows)
    ]
    if IntPolynomial.from_coeffs(coeffs)(x0) != kernels.det_bareiss(shifted):
        raise ArithmeticError(f"Berkowitz det(xI - B) disagrees with det({x0}I - B)")
    return coeffs, roots


def char_poly_exact(m: IntMatrix) -> IntPolynomial:
    """det(xI - M) on the twin quotient of M, by Berkowitz's recurrence,
    with the reduction proved on the bit rows of M and the quotient's
    polynomial checked at one point.

    Twin quotient (Schwenk 1974; Cardoso et al. 2013).  Take classes I
    of indices, of sizes s_I, such that M is d_I on the diagonal of I and
    c_I off it, and every block M[I, J] with I != J is one constant m_IJ.
    Then det(xI - M) = det(xI - B) * prod_I (x - (d_I - c_I))^(s_I - 1),
    with B_II = d_I + (s_I - 1) c_I and B_IJ = s_J m_IJ; B need not be
    symmetric.  The same holds for B in turn, so the reduction repeats,
    level after level, until no class is left to collapse.

    Twin levels, on bit rows.  When M is graph-shaped (see _graph_rows),
    M = diag(D) + w A with A a graph; adjacency, Laplacian and signless
    Laplacian matrices are, with w = 1, -1, 1.  Open twins share their
    neighbourhood and closed twins their closed neighbourhood.
    _twin_levels finds them among groups of indices by hashed keys on
    the packed rows of A, and merges them round after round until nothing
    merges; its docstring gives the keys.  In a power graph the elements
    that generate one cyclic subgroup are twins, so the model graph of
    G(k, p) has a 5 x 5 quotient and the true graph a (2k + 4) x (2k + 4)
    one, for every matrix kind.  An M that is not graph-shaped goes whole
    to Berkowitz, twins or not.

    Once per graph.  A matrix of matrix_of carries its graph and kind, so
    (R, D, w) is _graph_shape(graph, kind): the graph's rows, the
    diagonal and -1 for the Laplacian, 1 otherwise; _graph_rows does not
    run.  The classes are found on the adjacency keys (D = 0, w = 1) and
    proved on R once, on the first call for the graph, which keeps them
    (_graph_twins); each of its three matrices takes only the per-kind
    step.  The degree lemma in _twin_quotient shows why the adjacency's
    classes hold for the Laplacians, and the per-kind step proves it on
    every call.  Any other graph-shaped M is found on its own keys and
    proved, every call.

    Certificate, on the bit rows.  The finder only proposes merges; they
    are replayed from the singletons and never trusted, and the cells are
    the groups the replay leaves (see _check_twin_structure).  Every group
    they form is a regular module: its members have one row outside it
    and one row sum inside it.  The final cells J and, for every merge of
    groups G_0, ..., G_(s-1), the differences 1_(G_0) - 1_(G_a) form a
    basis T of n vectors.  Popcounts on the heads of the members, of R
    once per graph and of D per kind (_twin_quotient), prove
    M (1_(G_0) - 1_(G_a)) = r (1_(G_0) - 1_(G_a)) for the root r the
    certificate computes.  K is counted once, by c^2 popcounts on the
    heads of the cells (_quotient_counts); a proved cell is a regular
    module, so M P = P B for the cell indicators P and B = w K + diag(D).
    So M T = T diag(B, roots), which proves the factorisation above; a
    failure raises ArithmeticError.  The certificate proves the
    reduction sound, not that the finder merged every twin: a merge it
    missed leaves a larger quotient and the same polynomial.

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
    Counter of the roots of every level; det(xI - B) * prod (x - r)^e is
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
