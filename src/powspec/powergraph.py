"""Power graphs of the supported groups and the block-model companion graph.

Two constructions coexist on purpose.  build_power_graph is the ground
truth: x ~ y iff one element is a positive power of the other.  For the
twisted family build_model_graph realizes the explicit block structure
the closed-form polynomials are derived from; it forces the rotation
subgroup into a clique, so the two graphs differ inside that subgroup
and nowhere else.  The verifier keeps both and reports the gap rather
than deciding which one is intended.

A graph is stored as symmetric packed bit rows: row i is an int whose
bit j is set when i ~ j.  build_power_graph computes one cyclic
subgroup per generator class rather than one per vertex.  Every consumer
(neighbors, edges, edge_count, graph_diff, and a run's trace and
model-vs-true-diff checks) counts or walks the set bits of whole rows, so
it costs O(n + edges) big-int steps, not n^2 index tests.  The build writes
each edge into both of its rows, and the loop and symmetry check tests each
band of rows, unpacked, for a diagonal bit and against the transpose of the
same band of columns.

The model graph's edges are written once, as three parts of row masks
(_model_parts).  build_model_graph is their union, the decomposition
census checks a graph's rows against the union, and _certify_split checks
the parts themselves for a run's split-spectra check.
model_adjacency_split unpacks each part into a numpy 0/1 array, for
library use and as the tests' reference.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .exact_linalg import _unpack
from .group_core import (
    Cyclic,
    GroupElement,
    GroupSpec,
    SemidihedralType,
    _powers,
    identity,
)

__all__ = [
    "Graph",
    "DecompositionReport",
    "AdjacencySplit",
    "canonical_order",
    "quartic_flip_pairs",
    "build_power_graph",
    "build_model_graph",
    "MAX_GRAPH_ORDER",
    "edge_count",
    "degree_sequence",
    "connected_components",
    "verify_decomposition",
    "graph_diff",
    "to_dot",
    "model_adjacency_split",
]


# Rows per band that Graph's loop and symmetry check unpacks at a time; a
# multiple of 8, so that every band starts on a whole byte of the rows.
_SYMMETRY_TILE = 256

# The largest group order either builder accepts.  n packed rows of n
# bits take n^2 / 8 bytes, held twice while the symmetry check runs, so a
# larger order would exhaust memory rather than fail; the family the
# verifier covers stops at n = 4096.
MAX_GRAPH_ORDER = 16384


def _check_graph_order(n: int) -> None:
    """Raise ValueError when a graph of order n is past MAX_GRAPH_ORDER."""
    if n > MAX_GRAPH_ORDER:
        raise ValueError(
            f"group order {n} exceeds the graph-order limit MAX_GRAPH_ORDER = {MAX_GRAPH_ORDER}"
        )


class Graph:
    """Immutable vertex-labelled graph over packed bit rows.

    Its one mutable slot, _twins, is private to exact_linalg: None until
    char_poly_exact first needs the graph's twin quotient, then that
    quotient, found and proved on the rows and shared by the graph's
    three matrices.  It is not part of ==, hash or the rows.
    """

    __slots__ = ("labels", "_rows", "_index", "_twins")

    def __init__(self, labels: tuple[GroupElement, ...], row_masks: tuple[int, ...]):
        n = len(labels)
        if len(row_masks) != n:
            raise ValueError("one adjacency row per vertex required")
        index = {lab: i for i, lab in enumerate(labels)}
        if len(index) != n:
            raise ValueError("vertex labels must be distinct")
        if any(mask >> n for mask in row_masks):
            raise ValueError("adjacency row has bits outside the vertex range")
        _check_loops_and_symmetry(row_masks)
        self.labels = labels
        self._rows = row_masks
        self._index = index
        self._twins = None

    @property
    def n(self) -> int:
        return len(self.labels)

    def index_of(self, label: GroupElement) -> int:
        return self._index[label]

    def has_edge(self, i: int, j: int) -> bool:
        return bool((self._rows[i] >> j) & 1)

    def row_mask(self, i: int) -> int:
        """The packed row of vertex i: bit j is set when i ~ j."""
        return self._rows[i]

    def degree(self, i: int) -> int:
        return self._rows[i].bit_count()

    def neighbors(self, i: int) -> tuple[int, ...]:
        return tuple(_bits(self._rows[i]))

    def edges(self) -> list[tuple[int, int]]:
        """Index pairs (i, j) with i < j, sorted."""
        return list(_pairs(self._rows))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.labels == other.labels and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self.labels, self._rows))


def _check_loops_and_symmetry(row_masks) -> None:
    """Raise ValueError when the n x n bit matrix of the rows has a set
    diagonal bit or is not symmetric.

    The rows are packed to n^2 / 8 bytes once.  Band by band of
    _SYMMETRY_TILE rows, the band's part on and above the diagonal is
    unpacked, its diagonal tested, and the same band of columns below it
    unpacked too; each tile of the one is compared with its mirror's
    transpose in the other.  At most two bands of n x _SYMMETRY_TILE
    bytes are unpacked at a time, and for n <= _SYMMETRY_TILE the one band
    is the whole matrix, compared with its own transpose.  The comparison
    goes tile by tile because a whole strided transpose reads
    cache-hostile columns when n is a large power of two.
    """
    n, t = len(row_masks), _SYMMETRY_TILE
    width = (n + 7) // 8
    packed = b"".join([mask.to_bytes(width, "little") for mask in row_masks])
    packed = np.frombuffer(packed, np.uint8).reshape(n, width)
    for i in range(0, n, t):
        band = np.unpackbits(packed[i : i + t, i // 8 :], axis=1, bitorder="little")[:, : n - i]
        if band.diagonal().any():
            raise ValueError("loops are not allowed")
        columns = band
        if n > t:
            columns = packed[i:, i // 8 : (i + t) // 8]
            columns = np.unpackbits(columns, axis=1, bitorder="little")[:, : len(band)]
        for j in range(0, n - i, t):
            if (band[:, j : j + t] != columns[j : j + t].T).any():
                raise ValueError("adjacency rows must be symmetric")


def _bits(mask: int):
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _pairs(rows):
    """The set bits of rows above the diagonal as sorted (i, j) pairs, j > i, lazily."""
    return ((i, i + 1 + j) for i, mask in enumerate(rows) for j in _bits(mask >> (i + 1)))


def quartic_flip_pairs(spec: SemidihedralType) -> tuple[tuple[GroupElement, GroupElement], ...]:
    """Order-4 flips grouped into generator pairs (s r^m, s r^(m + 2^(k-1)p)).

    Each pair generates the same 4-element cyclic subgroup through the
    central rotation, which is why the pair shows up as one block in the
    model matrices.
    """
    half = spec.rotation_order // 2
    return tuple(
        (GroupElement(1, m), GroupElement(1, m + half)) for m in range(1, half, 2)
    )


@functools.lru_cache(maxsize=8)
def canonical_order(spec: GroupSpec) -> tuple[GroupElement, ...]:
    """Vertex order every matrix in the package is written in.

    Cyclic groups enumerate by exponent.  The twisted family starts with
    the identity and the central rotation, then the other rotations
    ascending, then the order-4 flips laid out pair by pair, then the
    order-2 flips ascending.  The specs are frozen, so a run's graphs and
    censuses share one cached tuple per group.
    """
    if isinstance(spec, Cyclic):
        return tuple(GroupElement(0, b) for b in range(spec.n))
    q = spec.rotation_order
    u = spec.central_rotation
    out = [identity(spec), u]
    out.extend(GroupElement(0, b) for b in range(1, q) if b != u.b)
    for first, second in quartic_flip_pairs(spec):
        out.append(first)
        out.append(second)
    out.extend(GroupElement(1, b) for b in range(0, q, 2))
    return tuple(out)


def build_power_graph(spec: GroupSpec) -> Graph:
    """The true power graph: an edge wherever one vertex is a power of the
    other, i.e. lies in the other's cyclic subgroup.

    The subgroups come from the group law alone: group_core._powers
    multiplies by x with _product until it returns to the identity, with no
    closed form for any element, so the graph stays an independent check on
    the structure claimed for it.  An element is its (a, b) pair, so the
    index of the labels also looks up the plain pairs the walk returns.
    One subgroup is computed per generator class: if <x> = (x^0, ..., x^(m-1))
    then x^t generates the same subgroup exactly when gcd(t, m) = 1.  The
    rows of those generators gain the index mask S of <x>, and the rows in S
    gain the generators' mask C; over all classes that is x ~ y iff y is in
    <x> or x is in <y>, once the loops are cleared.
    """
    _check_graph_order(spec.order)
    labels = canonical_order(spec)
    index = {x: i for i, x in enumerate(labels)}
    rows = [0] * len(labels)
    for i, x in enumerate(labels):
        if (rows[i] >> i) & 1:
            continue  # only a generator of a done class holds its own bit
        try:
            powers = [index[y] for y in _powers(spec, x)]
        except KeyError as exc:
            raise ArithmeticError(f"powers of {x} reach the non-canonical pair {exc}") from None
        m = len(powers)
        gens = [j for t, j in enumerate(powers) if math.gcd(t, m) == 1]
        sub_mask = sum(1 << j for j in powers)
        gen_mask = sum(1 << j for j in gens)
        for j in gens:
            rows[j] |= sub_mask
        for j in powers:
            rows[j] |= gen_mask
    return Graph(labels, tuple(row & ~(1 << i) for i, row in enumerate(rows)))


def _model_parts(spec: SemidihedralType) -> tuple[list[int], list[int], list[int]]:
    """The model graph's edges, the only place they are written down.

    Three symmetric lists of row masks in canonical order, pairwise
    disjoint: the clique on the rotations, the star from the identity to
    every flip, and the rest, which joins the central rotation to each
    order-4 flip and each order-4 flip to its pair partner.
    """
    q = spec.rotation_order
    half = q // 2
    quads = ((1 << half) - 1) << q  # order-4 flips, vertices q .. q + half - 1
    clique = [((1 << q) - 1) ^ (1 << i) for i in range(q)] + [0] * q
    star = [((1 << q) - 1) << q] + [0] * (q - 1) + [0b1] * q
    # q is a multiple of 4, so the pair partners q + 2t, q + 2t + 1 differ in bit 0
    rest = [0, quads] + [0] * (q - 2)
    rest += [0b10 | (1 << (a ^ 1)) for a in range(q, q + half)] + [0] * half
    return clique, star, rest


def build_model_graph(k: int, p: int) -> Graph:
    """The block-model graph behind the closed-form polynomials.

    Rotations form a clique; each order-4 flip pair attaches to the
    identity and the central rotation and closes internally (a 4-clique
    with the core); each order-2 flip hangs off the identity alone.
    """
    spec = SemidihedralType(k, p)
    _check_graph_order(spec.order)
    rows = tuple(a | b | c for a, b, c in zip(*_model_parts(spec)))
    return Graph(canonical_order(spec), rows)


def _is_symmetric(rows) -> bool:
    """Bit j of row i set exactly when bit i of row j is; O(set bits)."""
    return all((rows[j] >> i) & 1 for i, row in enumerate(rows) for j in _bits(row))


def _class_counts(rows, starts) -> list[tuple[int, ...]] | None:
    """K, when the cells [starts[I], starts[I + 1]) divide the rows
    equitably: K_IJ is the popcount in cell J of the row of every member
    of cell I.  None when two members of a cell differ.  Equal rows have
    equal counts, so each distinct row of a cell is counted once."""
    cells = list(zip(starts, starts[1:]))
    masks = [(1 << hi) - (1 << lo) for lo, hi in cells]
    counts = []
    for lo, hi in cells:
        found = {tuple([(row & m).bit_count() for m in masks]) for row in set(rows[lo:hi])}
        if len(found) != 1:
            return None
        counts.append(found.pop())
    return counts


def _certify_split(clique, star, rest, model: Graph) -> tuple[list[str], dict[str, list]]:
    """(problems, counts) for the parts of _model_parts against the model
    graph.  The parts must be pairwise disjoint with the model's rows as
    their OR, and the star and the rest symmetric, bit by bit, so that
    clique+star, the model's symmetric rows less the rest, is too.  Each of
    star, rest and clique+star is divided by the five classes of the
    canonical order (e, u, the other rotations, the order-4 flips, the
    order-2 flips): counts holds K of every part that divides equitably
    (_class_counts), and problems names every part that does not."""
    n = len(star)
    q = n // 2
    problems = []
    if any(a & b or a & c or b & c for a, b, c in zip(clique, star, rest)):
        problems.append("split parts overlap")
    if any(a | b | c != model.row_mask(i) for i, (a, b, c) in enumerate(zip(clique, star, rest))):
        problems.append("split does not reassemble the adjacency matrix")
    for name, rows in (("star", star), ("rest", rest)):
        if not _is_symmetric(rows):
            problems.append(f"{name} part is not symmetric")
    parts = {"star": star, "rest": rest, "clique+star": [a | b for a, b in zip(clique, star)]}
    counts = {}
    for name, rows in parts.items():
        if (found := _class_counts(rows, (0, 1, 2, q, q + q // 2, n))) is None:
            problems.append(f"{name} part is not equitable on the five classes")
        else:
            counts[name] = found
    return problems, counts


def edge_count(g: Graph) -> int:
    return sum(g.degree(i) for i in range(g.n)) // 2


def degree_sequence(g: Graph) -> tuple[int, ...]:
    return tuple(sorted((g.degree(i) for i in range(g.n)), reverse=True))


def connected_components(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Components by breadth-first traversal, each sorted, smallest head first."""
    seen = [False] * g.n
    comps = []
    for start in range(g.n):
        if seen[start]:
            continue
        queue = [start]
        seen[start] = True
        comp = []
        while queue:
            v = queue.pop(0)
            comp.append(v)
            for w in g.neighbors(v):
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


@dataclass(frozen=True)
class DecompositionReport:
    """Census of the pendant / 4-clique / rotation-part edge decomposition."""

    pendant_edges: tuple[tuple[GroupElement, GroupElement], ...]
    quad_blocks: tuple[tuple[GroupElement, ...], ...]
    incomplete_quads: tuple[tuple[GroupElement, ...], ...]
    rotation_part_edges: int
    uncovered_edges: tuple[tuple[GroupElement, GroupElement], ...]

    @property
    def pendant_count(self) -> int:
        return len(self.pendant_edges)

    @property
    def quad_count(self) -> int:
        return len(self.quad_blocks)

    @property
    def covered(self) -> bool:
        return not self.uncovered_edges


def verify_decomposition(g: Graph, k: int, p: int) -> DecompositionReport:
    """Classify every edge of g into the rotation subgraph, a pendant edge
    at the identity, or one of the 4-cliques on a flip pair plus the core.

    The core edge {identity, central rotation} counts toward the rotation
    part, so each complete 4-clique contributes exactly five edges here.
    The three buckets together are the edges of the model graph, so an
    edge is covered exactly when the model graph has it; whole rows of g
    are tested against the model rows, and every edge outside them lands
    in uncovered_edges.
    """
    spec = SemidihedralType(k, p)
    if g.labels != canonical_order(spec):
        raise ValueError("graph does not carry the canonical vertex order for (k, p)")
    labels, rows = g.labels, g._rows
    clique, star, rest = _model_parts(spec)
    outside = [row & ~(a | b | c) for row, a, b, c in zip(rows, clique, star, rest)]

    # identity at 0 and central rotation at 1, as in every canonical order
    e, row_e, row_u = labels[0], rows[0], rows[1]
    # the order-2 flips: the star's leaves that the central rotation misses
    pendant = [(e, labels[f]) for f in _bits(row_e & star[0] & ~rest[1])]
    complete, incomplete = [], []
    # the central rotation's rest row lists the order-4 flips; the rest row
    # of such a flip a is the central rotation plus a's pair partner b
    for a in _bits(rest[1]):
        b = (rest[a] ^ 0b10).bit_length() - 1
        if b < a:
            continue
        present = (
            ((row_e >> a) & 1)
            + ((row_e >> b) & 1)
            + ((row_u >> a) & 1)
            + ((row_u >> b) & 1)
            + ((rows[a] >> b) & 1)
        )
        block = (e, labels[1], labels[a], labels[b])
        if present == 5:
            complete.append(block)
        elif present:
            incomplete.append(block)

    return DecompositionReport(
        pendant_edges=tuple(sorted(pendant)),
        quad_blocks=tuple(complete),
        incomplete_quads=tuple(incomplete),
        rotation_part_edges=sum((row & ok).bit_count() for row, ok in zip(rows, clique)) // 2,
        uncovered_edges=tuple(
            sorted((labels[i], labels[j]) for i, j in _pairs(outside))
        ),
    )


def graph_diff(g1: Graph, g2: Graph) -> tuple[tuple[GroupElement, GroupElement], ...]:
    """Symmetric difference of edge sets, as label pairs in vertex order."""
    if g1.labels != g2.labels:
        raise ValueError("graphs must share the same labelled vertex set")
    rows = [a ^ b for a, b in zip(g1._rows, g2._rows)]
    return tuple((g1.labels[i], g1.labels[j]) for i, j in _pairs(rows))


def to_dot(g: Graph) -> str:
    """Deterministic DOT rendering; byte-identical across runs."""
    lines = ["graph powergraph {"]
    for i, lab in enumerate(g.labels):
        lines.append(f'  n{i} [label="{lab}"];')
    for i, j in g.edges():
        lines.append(f"  n{i} -- n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True, eq=False)
class AdjacencySplit:
    """Additive split of the model adjacency used by the radius bound.

    full = clique_plus_star + rest, each an n x n uint8 0/1 array.
    star_only is the star from the identity to every flip, and
    clique_plus_star adds the rotation clique to it; rest holds the central
    rotation's links to the order-4 flips and the flip-pair edges.  eq=False:
    == over arrays gives no bool.
    """

    full: np.ndarray
    clique_plus_star: np.ndarray
    star_only: np.ndarray
    rest: np.ndarray


def model_adjacency_split(k: int, p: int) -> AdjacencySplit:
    y1, y2, z = (_unpack(part) for part in _model_parts(SemidihedralType(k, p)))
    y = y1 + y2
    return AdjacencySplit(full=y + z, clique_plus_star=y, star_only=y2, rest=z)
