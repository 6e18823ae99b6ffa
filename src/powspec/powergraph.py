"""Power graphs of the supported groups and the block-model companion graph.

Two constructions coexist on purpose.  build_power_graph is the ground
truth: x ~ y iff one element is a positive power of the other.  For the
twisted family build_model_graph realizes the explicit block structure
the closed-form polynomials are derived from; it forces the rotation
subgroup into a clique, so the two graphs differ inside that subgroup
and nowhere else.  The verifier keeps both and reports the gap rather
than deciding which one is intended.

A graph is stored as symmetric packed bit rows: row i is an int whose
bit j is set when i ~ j.  build_power_graph walks one rotation subgroup
per generator class, and writes the flips of order 2 and 4 in bulk.  Every
consumer (neighbors, edges, graph_diff, a run's model-vs-true-diff check)
counts or walks the set bits of whole rows, so it costs O(n + edges)
big-int steps, not n^2 index tests; the row popcounts, the degrees, are
counted once per graph, and edge_count and the trace checks read them.
The build writes each edge into both of its rows.  Graph(...) checks the
rows for loops and symmetry band by band, unpacked, against the
transpose of the same band of columns, which costs O(n^2) bytes; a
builder whose rows equal a lattice prediction proved loop-free and
symmetric skips that check (Graph._proved).

The model graph's edges are written once, by build_model_graph, and a
run's split-spectra check reads its clique, star and rest off the model
graph's certified twin quotient, block by block (_certify_split).
A run checks each graph row for row against the graph the divisor
lattice of the rotation order predicts (verify_decomposition), written
from the labels' exponents and gcd alone (_lattice), so it shares no
code with either builder.  Each predicted row is the entry of its
vertex's key in a small key relation with one bit flipped, and the
relation proves both predictions loop-free and symmetric in
O(#keys^2 + n) steps (_proofs).  The prediction is made once per group,
in a one-entry cache; the identity compares row tuples, and when both
graphs pass, the diff is the prediction's to_model rows.
"""

from __future__ import annotations

import functools
import math
import operator
from itertools import chain, compress, count, repeat
from typing import Sequence

import numpy as np

from . import group_core
from .exact_linalg import _graph_shape, _graph_twins, _packed, _twin_quotient
from .group_core import (
    Cyclic,
    GroupElement,
    GroupSpec,
    SemidihedralType,
    _elements,
    _powers,
)

__all__ = [
    "Graph",
    "canonical_order",
    "quartic_flip_pairs",
    "build_power_graph",
    "build_model_graph",
    "MAX_GRAPH_ORDER",
    "edge_count",
    "verify_decomposition",
    "graph_diff",
    "to_dot",
]


# Rows per band that Graph's loop and symmetry check unpacks at a time; a
# multiple of 8, so that every band starts on a whole byte of the rows.
_SYMMETRY_TILE = 256

# The largest group order either builder accepts.  n packed rows of n
# bits take n^2 / 8 bytes, and a structure run holds its two graphs and
# the lattice prediction, so a larger order would exhaust memory rather
# than fail.  The family's 694 pairs up to this order all pass structure
# runs; at n = 16312, (2, 2039), one peaks at about 106 MiB.
MAX_GRAPH_ORDER = 16384


def _check_graph_order(n: int) -> None:
    """Raise ValueError when a graph of order n is past MAX_GRAPH_ORDER."""
    if n > MAX_GRAPH_ORDER:
        raise ValueError(
            f"group order {n} exceeds the graph-order limit MAX_GRAPH_ORDER = {MAX_GRAPH_ORDER}"
        )


class Graph:
    """Immutable vertex-labelled graph over packed bit rows.

    The labels and rows are kept as tuples, whatever sequences they come
    in, so that graphs of equal labels and rows are == and hash alike.
    Graph(...) refuses rows of the wrong count, bits outside the vertex
    range, repeated labels, loops and asymmetry, the last two by the
    O(n^2) band check (_check_loops_and_symmetry).  Only the builders
    skip the checks, through _proved, for rows equal to a prediction
    that _lattice proved loop-free and symmetric.
    degrees holds the popcount of every row, counted once at build, for
    degree, edge_count and the Laplacian diagonals.  The one mutable
    slot, _twins, is private to exact_linalg: None until
    exact_linalg._graph_twins first needs the graph's twin quotient, then
    that quotient, found and proved on the rows and shared by the graph's
    three matrices, its spectral radius and the model's split
    (_certify_split).  It is not part of ==, hash or the rows.
    """

    __slots__ = ("labels", "_rows", "_index", "_twins", "degrees")

    def __init__(self, labels: Sequence[GroupElement], row_masks: Sequence[int]):
        labels, row_masks = tuple(labels), tuple(row_masks)  # no copy of a tuple
        n = len(labels)
        if len(row_masks) != n:
            raise ValueError("one adjacency row per vertex required")
        index = dict(zip(labels, count()))
        if len(index) != n:
            raise ValueError("vertex labels must be distinct")
        if row_masks and (min(row_masks) < 0 or max(row_masks) >> n):
            raise ValueError("adjacency row has bits outside the vertex range")
        _check_loops_and_symmetry(row_masks)
        self._fill(labels, row_masks, index)

    @classmethod
    def _proved(cls, labels: tuple, rows: tuple, index: dict) -> "Graph":
        """A builder's graph whose row tuple equals a lattice prediction
        proved loop-free and symmetric (_lattice): the rows are known to be
        in range, loop-free and symmetric, and the canonical labels
        distinct, so no check runs; index is the builder's label index."""
        graph = cls.__new__(cls)
        graph._fill(labels, rows, index)
        return graph

    def _fill(self, labels: tuple, rows: tuple, index: dict) -> None:
        self.labels = labels
        self._rows = rows
        self._index = index
        self._twins = None
        self.degrees = tuple(map(int.bit_count, rows))

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
        return self.degrees[i]

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

    The rows are packed to n^2 / 8 bytes once, by the packer
    exact_linalg._unpack uses (_packed).  Band by band of
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
    packed = _packed(row_masks)
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
    lattice checks share one cached tuple per group.  The labels are made by
    group_core._elements from ranges of exponents, with no Python-level
    step per vertex; the flip pairs interleave as quartic_flip_pairs
    lists them.
    """
    if isinstance(spec, Cyclic):
        return tuple(_elements(0, range(spec.n)))
    q = spec.rotation_order
    half = spec.central_rotation.b
    rotations = chain((0, half), range(1, half), range(half + 1, q))
    quads = chain.from_iterable(zip(range(1, half, 2), range(half + 1, q, 2)))
    return tuple(chain(_elements(0, rotations), _elements(1, chain(quads, range(0, q, 2)))))


def build_power_graph(spec: GroupSpec) -> Graph:
    """The true power graph: an edge wherever one vertex is a power of the
    other, i.e. lies in the other's cyclic subgroup.

    The subgroups come from the group law alone, group_core._product read
    at call time, with no closed form for any element, so the graph stays an
    independent check on the structure claimed for it; the label index also
    looks up the plain (a, b) pairs the law returns.  A rotation's subgroup
    is walked (_powers) once per generator class: if <x> = (x^0, ..., x^(m-1))
    then x^t generates it exactly when gcd(t, m) = 1.  The generators' rows
    gain the index mask S of <x>, and the rows in S the generators' mask C;
    over all classes that is x ~ y iff y is in <x> or x is in <y>, once the
    loops are cleared.  The flips of order 2 and 4 go in bulk (_to_walk),
    and any other flip is walked like a rotation.
    """
    _check_graph_order(spec.order)
    labels = canonical_order(spec)
    index = dict(zip(labels, count()))
    position = index.__getitem__
    rows = [0] * len(labels)
    for i, x in _to_walk(spec, labels, position, rows):
        if (rows[i] >> i) & 1:
            continue  # only a generator of a done class holds its own bit
        powers = _look_up(position, x, _powers(spec, x))
        m = len(powers)
        sub_mask = gen_mask = 0
        gens = []
        for t, j in enumerate(powers):
            bit = 1 << j
            sub_mask |= bit
            if math.gcd(t, m) == 1:
                gen_mask |= bit
                gens.append(j)
        for j in gens:
            rows[j] |= sub_mask
        for j in powers:
            rows[j] |= gen_mask
    # every vertex generates its own class, so its row holds its own bit,
    # and XOR with that bit clears the loop
    rows = tuple(map(operator.xor, rows, map((1).__lshift__, count())))
    if isinstance(spec, SemidihedralType):
        true, _, (proved, _) = _lattice(spec)
        if proved and rows == true:
            return Graph._proved(labels, rows, index)
    return Graph(labels, rows)


def _look_up(position, x, pairs) -> list[int]:
    """The vertices of pairs, powers of x; ArithmeticError names one off the labels."""
    try:
        return list(map(position, pairs))
    except KeyError as exc:
        raise ArithmeticError(f"powers of {x} reach the non-canonical pair {exc}") from None


def _to_walk(spec: GroupSpec, labels, position, rows: list[int]):
    """(index, label) of every rotation; then, with those walked, write the
    rows of each flip of order 2 or 4 from x^2, x^3 and x^4, made for all
    flips at once by maps of the law, and yield each other flip."""
    q, e = spec.rotation_order, (0, 0)
    yield from zip(range(q), labels)
    law, args = group_core._product, (repeat(q), repeat(spec.twist))
    flips = list(map(tuple, labels[q:]))  # plain pairs, which the law unpacks fastest
    squares = list(map(law, *args, flips, flips))
    wide = [y != e for y in squares]
    rows[0] |= (1 << len(labels)) - (1 << q)  # e lies in every subgroup
    for i in compress(count(q), map(operator.not_, wide)):
        rows[i] |= 1 | 1 << i
    xs, ys = list(compress(flips, wide)), list(compress(squares, wide))
    cubes = list(map(law, *args, ys, xs))
    for i, y2, y3, y4 in zip(compress(count(q), wide), ys, cubes, map(law, *args, cubes, xs)):
        if y4 != e:
            yield i, labels[i]
            continue
        j2, j3 = _look_up(position, labels[i], (y2, y3))
        rows[i] |= 1 | 1 << i | 1 << j2 | 1 << j3
        rows[j2] |= 1 << i


def build_model_graph(k: int, p: int) -> Graph:
    """The block-model graph behind the closed-form polynomials, the only
    place its edges are written.

    Rotations form a clique; each order-4 flip pair attaches to the
    identity and the central rotation and closes internally (a 4-clique
    with the core); each order-2 flip hangs off the identity alone.  Each
    row is written once, in canonical order: e's, u's, the other
    rotations', each order-4 flip's e, u and pair partner, and each
    order-2 flip's e.
    """
    spec = SemidihedralType(k, p)
    _check_graph_order(spec.order)
    labels = canonical_order(spec)
    q = spec.rotation_order
    half = q // 2
    rotations = (1 << q) - 1
    quads = ((1 << half) - 1) << q  # order-4 flips, vertices q .. q + half - 1
    rows = [(1 << 2 * q) - 2, rotations ^ 0b10 | quads]
    rows += [rotations ^ (1 << i) for i in range(2, q)]
    # q is a multiple of 4, so the pair partners q + 2t, q + 2t + 1 differ in bit 0
    rows += [0b11 | (1 << (a ^ 1)) for a in range(q, q + half)]
    rows += [0b1] * half
    true, to_model, (_, proved) = _lattice(spec)
    if proved and _equals_model(rows, true, to_model):
        return Graph._proved(labels, tuple(rows), dict(zip(labels, count())))
    return Graph(labels, rows)


def _certify_split(model: Graph) -> tuple[list[str], dict[str, list]]:
    """(problems, counts) for the split of the model's adjacency into
    clique + star + rest, read off its twin quotient with no bit row read.
    The twin cells (exact_linalg._graph_twins) must be the five classes of
    the canonical order, e, u, the other rotations, the order-4 and the
    order-2 flips, else problems names their sizes.  K is the B of the
    adjacency's own certificate (_twin_quotient), so the split does not
    rest on the charpoly check.  A partition equitable for A is equitable
    for every part made of whole blocks, so each part's quotient is K
    masked block by block, and the rest is K less clique+star."""
    twins = _graph_twins(model)
    cells, q = twins[0], model.n // 2
    bounds = (0, 1, 2, q, q + q // 2, 2 * q)
    if cells != [tuple(range(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]:
        return [f"twin cells of sizes {list(map(len, cells))} are not the five classes"], {}
    counts = _twin_quotient(twins, _graph_shape(model, "adjacency")[1], 1)[0].rows

    def part(keep):
        return [tuple(c * keep(i, j) for j, c in enumerate(row)) for i, row in enumerate(counts)]

    # the star keeps e's blocks with the flip cells 3 and 4, and clique+star
    # those and every block of two rotation cells, 0, 1 and 2
    star = part(lambda i, j: min(i, j) == 0 and max(i, j) > 2)
    clique_star = part(lambda i, j: min(i, j) == 0 or max(i, j) < 3)
    rest = [tuple(map(operator.sub, a, b)) for a, b in zip(counts, clique_star)]
    return [], {"star": star, "rest": rest, "clique+star": clique_star}


def edge_count(g: Graph) -> int:
    return sum(g.degrees) // 2


def verify_decomposition(g: Graph, k: int, p: int, construction: str) -> list[int]:
    """[] when g's rows equal those of the graph that the divisor lattice
    of q = 2^k p predicts (_lattice) for the construction, "model" or
    "true"; else the n XOR rows of the two, whose set bits are the edges
    one has and the other lacks.  An unknown construction is refused
    first, and a graph of another order before the canonical order of
    (k, p) is built.  The true rows are compared as tuples, the model's
    row by row (_equals_model)."""
    if construction not in ("model", "true"):
        raise ValueError(f"unknown construction {construction!r}")
    spec = SemidihedralType(k, p)
    if g.n != spec.order or g.labels != canonical_order(spec):
        raise ValueError("graph does not carry the canonical vertex order for (k, p)")
    true, to_model, _ = _lattice(spec)
    if construction == "true":
        return [] if g._rows == true else list(map(operator.xor, g._rows, true))
    if _equals_model(g._rows, true, to_model):
        return []
    return list(map(operator.xor, g._rows, map(operator.xor, true, to_model)))


def _equals_model(rows, true, to_model) -> bool:
    """Whether the n rows equal the predicted model rows, true[i] ^
    to_model[i], compared one row at a time, so that the predicted model
    rows, n^2 / 8 bytes, are never held at once."""
    return all(map(operator.eq, rows, map(operator.xor, true, to_model)))


@functools.lru_cache(maxsize=1)
def _lattice(spec: SemidihedralType) -> tuple[tuple[int, ...], tuple[int, ...], tuple[bool, bool]]:
    """(true, to_model, proved): the power graph's rows as the divisor
    lattice of q predicts them, in canonical order; per row what the model
    adds; and, for the true and the model prediction, whether its rows are
    proved loop-free and symmetric (_proofs).

    Row i is the table entry of its key with one bit flipped, the entries
    packed from the key relation (_key_relation, _tables), so that the
    proof and the rows come from one source.  The model joins every two
    rotations, so its row i is true[i] ^ to_model[i].  A run's two graphs
    and both builders share the prediction, kept for the last group only,
    as tuples that no reader can change; the key relation and the tables
    are not kept.
    """
    held, key_index, flip = _key_relation(spec)
    true_table, model_table = _tables(held, key_index)
    to_model = list(map(operator.xor, true_table, model_table))
    ranks = key_index.tolist()
    true = tuple([true_table[c] ^ (1 << i) for c, i in zip(ranks, flip.tolist())])
    return true, tuple(map(to_model.__getitem__, ranks)), _proofs(held, key_index, flip)


def _key_relation(spec: SemidihedralType) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(held, key_index, flip) of the lattice prediction for spec.

    Only the labels' exponents (a, b) and gcd are read: nothing here calls
    the group law (_powers, _product) or the model's rows
    (build_model_graph), so the prediction checks both builders
    independently.
    The rotation r^b has order d = q / gcd(b, q), and the flip s r^b has
    order 4 when b is odd, 2 when it is even.  A vertex's key is its
    rotation's order, -1 for an order-4 flip and 0 for an order-2 flip;
    key_index[i] is the rank of vertex i's key among the keys, ascending
    (-1, 0, then the rotation orders).  held[c, x, y], for c = 0 (true)
    and 1 (model), is set when a row of key x holds every vertex of key
    y.  In the power graph two rotations are joined exactly when one
    order divides the other; e is joined to every flip, u (the rotation
    of order 2) to every order-4 flip, each order-4 flip to its pair
    partner s r^(b + q/2), its inverse, and each order-2 flip to e only.
    So row i is its key's entry with bit flip[i] flipped: a rotation's
    own bit, which its entry holds; an order-4 flip's partner; or e for
    an order-2 flip, whose entry is empty.  The model holds every rotation
    key in every rotation key's entry.
    """
    n, q = spec.order, spec.rotation_order
    a, b = np.fromiter(chain.from_iterable(canonical_order(spec)), np.int64, 2 * n).reshape(n, 2).T
    odd = b & 1
    key = np.where(a, -odd, q // np.gcd(b, q))
    # position[a q + b] is the vertex s^a r^b; the flipped bit is read at
    # the vertex itself, at the partner s r^(b + q/2), or at e
    position = np.empty(2 * q, np.int64)
    position[a * q + b] = np.arange(n)
    flip = position[np.where(a, odd * (q + (b + q // 2) % q), b)]
    keys = np.flatnonzero(np.bincount(key + 1)) - 1  # the keys present, ascending
    quad, e, u = 0, 2, 3  # the ranks of the keys -1, 1 and 2; 0 has rank 1
    divides = keys[e:] % keys[e:, None] == 0  # [x, y]: order x divides order y
    held = np.zeros((2, len(keys), len(keys)), bool)
    held[0, e:, e:] = divides | divides.T
    held[0, e, :e] = held[0, u, quad] = held[0, quad, e : u + 1] = True
    held[1] = held[0]
    held[1, e:, e:] = True
    return held, np.searchsorted(keys, key), flip


def _tables(held: np.ndarray, key_index: np.ndarray) -> list[list[int]]:
    """Per construction and key, the row mask of the key relation: bit j
    of tables[c][x] is set when held[c, x, key_index[j]]."""
    width, size = held.shape[1], (len(key_index) + 7) // 8
    data = np.packbits(held[:, :, key_index], axis=2, bitorder="little").tobytes()
    masks = [int.from_bytes(data[i : i + size], "little") for i in range(0, len(data), size)]
    return [masks[:width], masks[width:]]


def _proofs(held: np.ndarray, key_index: np.ndarray, flip: np.ndarray) -> tuple[bool, ...]:
    """Per construction c, whether the rows _tables(held, key_index)[c][
    key_index[i]] ^ (1 << flip[i]) are loop-free and symmetric: exactly
    the verdict of _check_loops_and_symmetry on them, in O(#keys^2 + n)
    steps with no row unpacked.  flip holds vertex indices.

    Bit j of row i is held[c, x, y] ^ [flip[i] = j], for x and y the keys
    of i and j.  So no row has a loop when, per key x, the vertices that
    flip their own bit are all sizes[x] of them where held[c, x, x] is
    set and none where it is not.  For i != j, the bits (i, j) and
    (j, i) differ when held[c, x, y] != held[c, y, x] or when exactly one
    of flip[i] = j and flip[j] = i holds, an arc i -> flip[i] that
    flip[flip[i]] does not return.  Such an arc is the one arc of its
    vertex pair, so the rows are symmetric when, per pair of keys, the
    arcs not returned number 0 where the relation is symmetric and every
    vertex pair of the block, sizes[x] sizes[y], where it is not.
    """
    vertices, width = np.arange(len(key_index)), held.shape[1]
    sizes = np.bincount(key_index, minlength=width)
    own = np.bincount(key_index[flip == vertices], minlength=width)
    loop_free = (held.diagonal(0, 1, 2) * sizes == own).all(axis=1)
    lone = flip[flip] != vertices
    arcs = np.bincount(key_index[lone] * width + key_index[flip[lone]], minlength=width * width)
    arcs = arcs.reshape(width, width)
    blocks = (held != held.transpose(0, 2, 1)) * (sizes[:, None] * sizes)
    symmetric = (arcs + arcs.T == blocks).all(axis=(1, 2))
    return tuple((loop_free & symmetric).tolist())


def _label_pairs(labels, rows):
    """The label pairs of _pairs(rows), lazily; none, with no row walked,
    when every row is 0."""
    if not any(rows):
        return ()
    return ((labels[i], labels[j]) for i, j in _pairs(rows))


def _diff_rows(g1: Graph, g2: Graph) -> list[int]:
    """The XOR of the two graphs' rows: bit j of row i is set when exactly
    one graph has the edge i ~ j."""
    if g1.labels != g2.labels:
        raise ValueError("graphs must share the same labelled vertex set")
    return list(map(operator.xor, g1._rows, g2._rows))


def graph_diff(g1: Graph, g2: Graph) -> tuple[tuple[GroupElement, GroupElement], ...]:
    """Symmetric difference of edge sets, as label pairs in vertex order."""
    return tuple(_label_pairs(g1.labels, _diff_rows(g1, g2)))


def to_dot(g: Graph) -> str:
    """Deterministic DOT rendering; byte-identical across runs."""
    lines = ["graph powergraph {"]
    for i, lab in enumerate(g.labels):
        lines.append(f'  n{i} [label="{lab}"];')
    for i, j in g.edges():
        lines.append(f"  n{i} -- n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
