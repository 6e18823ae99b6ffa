import math
import operator
import random
import re
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from powspec import group_core, powergraph
from powspec.exact_linalg import _graph_twins, matrix_of
from powspec.formulas import ModelParameters
from powspec.group_core import (
    Cyclic,
    GroupElement,
    SemidihedralType,
    cyclic_subgroup,
    elements,
    identity,
)
from powspec.powergraph import (
    Graph,
    _bits,
    _certify_split,
    build_model_graph,
    build_power_graph,
    canonical_order,
    edge_count,
    graph_diff,
    quartic_flip_pairs,
    to_dot,
    verify_decomposition,
)
from powspec.verify_cli import run_verification
from reference_model import member_counts, split_parts

E = GroupElement


def graph_with_edges(labels, pairs):
    rows = [0] * len(labels)
    for i, j in pairs:
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return Graph(tuple(labels), tuple(rows))


def scan_edges(g):
    """Reference edge list: every index pair tested, as Graph.edges() orders it."""
    return [
        (i, j)
        for i in range(g.n)
        for j in range(g.n)
        if g.has_edge(i, j) and i < j
    ]


def pair_scan_graph(spec):
    """Reference builder: x ~ y iff y in <x> or x in <y>; every pair
    tested, one cyclic subgroup per vertex.  Returns the graph and its
    number of edges."""
    els = canonical_order(spec)
    gen = {x: set(cyclic_subgroup(spec, x)) for x in els}
    pairs = [
        (i, i + 1 + t)
        for i, x in enumerate(els)
        for t, y in enumerate(els[i + 1 :])
        if y in gen[x] or x in gen[y]
    ]
    return graph_with_edges(els, pairs), len(pairs)


def subgroup_walk_graph(spec):
    """Reference builder: x ~ y for every y != x in the public
    cyclic_subgroup(x), one subgroup per vertex."""
    els = canonical_order(spec)
    index = {x: i for i, x in enumerate(els)}
    rows = [0] * len(els)
    for i, x in enumerate(els):
        for y in cyclic_subgroup(spec, x):
            j = index[y]
            if j != i:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph(els, tuple(rows))


def bit_walk_transpose(rows):
    """Reference transpose: set bit i of row j for every set bit j of row i."""
    out = [0] * len(rows)
    for i, mask in enumerate(rows):
        for j in _bits(mask):
            out[j] |= 1 << i
    return out


def random_simple_rows(n, seed):
    """Random symmetric rows of n bits with no loops."""
    rng = random.Random(seed)
    upper = [rng.getrandbits(n) & ~((1 << (i + 1)) - 1) for i in range(n)]
    return [a | b for a, b in zip(upper, bit_walk_transpose(upper))]


def model_pair_list(spec):
    """Reference model edges as index pairs in canonical order: the
    rotation clique, the 4-clique of each flip pair with e (0) and u (1),
    and a pendant from e to each order-2 flip."""
    q = spec.rotation_order
    pairs = [(i, j) for i in range(q) for j in range(i + 1, q)]
    for t in range(q // 4):
        a, b = q + 2 * t, q + 2 * t + 1
        pairs += [(0, a), (0, b), (1, a), (1, b), (a, b)]
    pairs += [(0, q + q // 2 + j) for j in range(q // 2)]
    return pairs


def lattice_graph(k, p, construction):
    """The graph verify_decomposition predicts: the XOR rows of the graph
    with no edges are the predicted rows themselves."""
    labels = canonical_order(SemidihedralType(k, p))
    empty = Graph(labels, [0] * len(labels))
    return Graph(labels, verify_decomposition(empty, k, p, construction))


# every (k, p) of the twisted family with n = 2^(k+1) p <= 256
PAIRS_UNDER_CAP = [
    (k, p)
    for k, ps in {
        2: (3, 5, 7, 11, 13, 17, 19, 23, 29, 31),
        3: (3, 5, 7, 11, 13),
        4: (3, 5, 7),
        5: (3,),
    }.items()
    for p in ps
]


class DirectProductType(SemidihedralType):
    """Z_2 x Z_q on the family's labels: twist 1, so that s commutes with r."""

    twist = 1


def cyclic_power_edges(q):
    """Independent oracle for P(Z_q): b generates the multiples of gcd(b, q)."""
    out = set()
    for x in range(q):
        for y in range(x + 1, q):
            if y % math.gcd(x, q) == 0 or x % math.gcd(y, q) == 0:
                out.add((x, y))
    return out


class TestGraphBasics:
    def test_rejects_loops(self):
        with pytest.raises(ValueError, match="loops are not allowed"):
            Graph((E(0, 0),), (1,))

    def test_rejects_asymmetry(self):
        with pytest.raises(ValueError, match="adjacency rows must be symmetric"):
            Graph((E(0, 0), E(0, 1)), (0b10, 0b00))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="vertex labels must be distinct"):
            Graph((E(0, 0), E(0, 0)), (0, 0))

    def test_rejects_stray_bits(self):
        with pytest.raises(ValueError, match="bits outside the vertex range"):
            Graph((E(0, 0), E(0, 1)), (0b100, 0b000))

    def test_rejects_negative_row_mask(self):
        # a negative int has infinitely many high bits set
        with pytest.raises(ValueError, match="bits outside the vertex range"):
            Graph((E(0, 0), E(0, 1)), (-2, 0b01))

    def test_rejects_row_count_mismatch(self):
        with pytest.raises(ValueError, match="one adjacency row per vertex required"):
            Graph((E(0, 0), E(0, 1)), (0,))

    @pytest.mark.parametrize("col", [7, 8, 63, 64, 255, 256])
    def test_rejects_one_loop_at_byte_and_word_edges(self, col):
        labels = tuple(E(0, b) for b in range(257))
        rows = random_simple_rows(257, col)
        Graph(labels, tuple(rows))
        rows[col] |= 1 << col
        with pytest.raises(ValueError, match="loops are not allowed"):
            Graph(labels, tuple(rows))

    def test_accessors(self):
        g = graph_with_edges([E(0, 0), E(0, 1), E(0, 2)], [(0, 1), (1, 2)])
        assert g.n == 3
        assert g.has_edge(0, 1) and g.has_edge(1, 0) and not g.has_edge(0, 2)
        assert g.degree(1) == 2
        assert g.neighbors(1) == (0, 2)
        assert g.index_of(E(0, 2)) == 2
        assert g.edges() == [(0, 1), (1, 2)]

    def test_wide_rows(self):
        # n = 70: rows are wider than one 64-bit word
        labels = tuple(E(0, b) for b in range(70))
        rows = [0] * 70
        for i, j in [(0, 69), (3, 64), (64, 65)]:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        g = Graph(labels, tuple(rows))
        assert g.edges() == [(0, 69), (3, 64), (64, 65)]
        assert g.neighbors(64) == (3, 65)
        assert edge_count(g) == len(g.edges()) == 3
        rows[1] |= 1 << 66  # an arc 1 -> 66 with no 66 -> 1
        with pytest.raises(ValueError, match="symmetric"):
            Graph(labels, tuple(rows))

    def test_list_inputs_build_the_tuple_graph(self):
        g = build_model_graph(2, 3)
        rows = [g.row_mask(i) for i in range(g.n)]
        from_lists = Graph(list(g.labels), rows)
        assert from_lists == g and hash(from_lists) == hash(g)
        for construction in ("model", "true"):
            got = verify_decomposition(from_lists, 2, 3, construction)
            assert got == verify_decomposition(g, 2, 3, construction)

    def test_equality_and_hash(self):
        a = graph_with_edges([E(0, 0), E(0, 1)], [(0, 1)])
        b = graph_with_edges([E(0, 0), E(0, 1)], [(0, 1)])
        c = graph_with_edges([E(0, 0), E(0, 1)], [])
        assert a == b and hash(a) == hash(b)
        assert a != c


class TestSymmetryCheck:
    """Graph's symmetry check compares each tile above the diagonal with
    the transpose of its mirror tile, one band of rows at a time."""

    @pytest.mark.parametrize(
        "i,j", [(600, 700), (700, 600), (520, 530), (530, 520), (300, 799), (799, 768)]
    )
    def test_one_asymmetric_bit_in_a_later_band(self, i, j):
        # n = 800: bands of rows 0, 256, 512 and a partial one from 768
        labels = tuple(E(0, b) for b in range(800))
        sym = random_simple_rows(800, i * j)
        Graph(labels, tuple(sym))
        rows = list(sym)
        rows[i] ^= 1 << j
        with pytest.raises(ValueError, match="adjacency rows must be symmetric"):
            Graph(labels, tuple(rows))

    @pytest.mark.parametrize("v", [256, 600, 767, 768, 799])
    def test_one_loop_in_a_later_band(self, v):
        labels = tuple(E(0, b) for b in range(800))
        rows = random_simple_rows(800, v)
        Graph(labels, tuple(rows))
        rows[v] |= 1 << v
        with pytest.raises(ValueError, match="loops are not allowed"):
            Graph(labels, tuple(rows))

    def test_no_n_by_n_unpack_past_one_band(self, monkeypatch):
        shapes = []
        real = np.unpackbits

        def spy(a, *args, **kwargs):
            out = real(a, *args, **kwargs)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(np, "unpackbits", spy)
        labels = tuple(E(0, b) for b in range(800))
        Graph(labels, tuple(random_simple_rows(800, 1)))
        assert shapes and max(min(shape) for shape in shapes) <= 256
        # at most n <= 256 the one band is the whole matrix, unpacked once
        shapes.clear()
        Graph(labels[:256], tuple(random_simple_rows(256, 1)))
        assert shapes == [(256, 256)]

    @pytest.mark.parametrize("col", [7, 8, 63, 64, 255, 256])
    def test_one_asymmetric_bit_at_byte_and_word_edges(self, col):
        labels = tuple(E(0, b) for b in range(257))
        sym = random_simple_rows(257, col)
        g = Graph(labels, tuple(sym))
        assert g.edges() == scan_edges(g)
        for i, j in [(100, col), (col, 100)]:
            rows = list(sym)
            rows[i] ^= 1 << j  # flips one bit on one side only
            with pytest.raises(ValueError, match="symmetric"):
                Graph(labels, tuple(rows))

    @pytest.mark.parametrize("i,j", [(255, 256), (256, 255), (0, 519), (519, 0)])
    def test_one_asymmetric_bit_at_tile_edges(self, i, j):
        # n = 520: two full 256-wide tiles and a partial one per side
        labels = tuple(E(0, b) for b in range(520))
        sym = random_simple_rows(520, i + j)
        Graph(labels, tuple(sym))
        rows = list(sym)
        rows[i] ^= 1 << j
        with pytest.raises(ValueError, match="symmetric"):
            Graph(labels, tuple(rows))


class TestCanonicalOrder:
    def test_frozen_order_at_2_3(self):
        order = canonical_order(SemidihedralType(2, 3))
        assert order == tuple(
            E(a, b)
            for a, b in [
                (0, 0), (0, 6),
                (0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
                (0, 7), (0, 8), (0, 9), (0, 10), (0, 11),
                (1, 1), (1, 7), (1, 3), (1, 9), (1, 5), (1, 11),
                (1, 0), (1, 2), (1, 4), (1, 6), (1, 8), (1, 10),
            ]
        )

    def test_cyclic_order(self):
        assert canonical_order(Cyclic(3)) == (E(0, 0), E(0, 1), E(0, 2))

    @pytest.mark.parametrize(
        "spec", [SemidihedralType(k, p) for k, p in PAIRS_UNDER_CAP] + [Cyclic(12)], ids=str
    )
    def test_labels_are_exact_group_elements(self, spec):
        q = spec.rotation_order
        sides = (0, 1) if isinstance(spec, SemidihedralType) else (0,)
        want_elements = [GroupElement(a, b) for a in sides for b in range(q)]
        if isinstance(spec, Cyclic):
            want_order = [GroupElement(0, b) for b in range(q)]
        else:
            u = spec.central_rotation
            want_order = [identity(spec), u]
            want_order += [GroupElement(0, b) for b in range(1, q) if b != u.b]
            want_order += [x for pair in quartic_flip_pairs(spec) for x in pair]
            want_order += [GroupElement(1, b) for b in range(0, q, 2)]
        for got, want in ((canonical_order(spec), tuple(want_order)), (elements(spec), want_elements)):
            assert got == want
            assert all(type(x) is GroupElement for x in got)

    def test_graphs_share_one_label_tuple(self):
        spec = SemidihedralType(2, 3)
        assert build_model_graph(2, 3).labels is build_power_graph(spec).labels
        assert canonical_order(SemidihedralType(2, 3)) is canonical_order(spec)

    @pytest.mark.parametrize("k,p", [(2, 3), (2, 5), (3, 3)])
    def test_order_is_a_permutation(self, k, p):
        spec = SemidihedralType(k, p)
        order = canonical_order(spec)
        assert len(order) == len(set(order)) == spec.order

    def test_flip_pairs_at_2_3(self):
        spec = SemidihedralType(2, 3)
        pairs = quartic_flip_pairs(spec)
        assert pairs == ((E(1, 1), E(1, 7)), (E(1, 3), E(1, 9)), (E(1, 5), E(1, 11)))
        # both members of a pair generate the same 4-element subgroup
        for x, y in pairs:
            sub = set(cyclic_subgroup(spec, x))
            assert y in sub and spec.central_rotation in sub


class TestTruePowerGraph:
    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 7, 8, 9, 11, 16, 25, 27, 32, 49, 64])
    def test_prime_power_cyclic_is_complete(self, q):
        g = build_power_graph(Cyclic(q))
        assert edge_count(g) == math.comb(q, 2)

    @pytest.mark.parametrize("q", [6, 10, 12, 15, 20])
    def test_other_cyclic_is_not_complete(self, q):
        g = build_power_graph(Cyclic(q))
        assert edge_count(g) < math.comb(q, 2)

    @pytest.mark.parametrize("q", [6, 9, 12, 16, 15])
    def test_cyclic_matches_arithmetic_oracle(self, q):
        g = build_power_graph(Cyclic(q))
        got = {(x.b, y.b) for i, j in g.edges() for x, y in [(g.labels[i], g.labels[j])]}
        assert {tuple(sorted(e)) for e in got} == cyclic_power_edges(q)

    @pytest.mark.parametrize(
        "spec,edges",
        [
            # the ids keep the names these cases had beside a directed variant
            pytest.param(Cyclic(1), 0, id="C1-undirected"),
            pytest.param(Cyclic(2), 1, id="C2-undirected"),
            pytest.param(Cyclic(6), 13, id="C6-undirected"),
            pytest.param(Cyclic(12), 56, id="C12-undirected"),
            pytest.param(Cyclic(30), 341, id="C30-undirected"),
            pytest.param(Cyclic(64), 2016, id="C64-undirected"),
            pytest.param(Cyclic(210), 15713, id="C210"),
            pytest.param(SemidihedralType(2, 3), 77, id="SD2-3-undirected"),
            pytest.param(SemidihedralType(2, 5), 205, id="SD2-5-undirected"),
            pytest.param(SemidihedralType(3, 3), 276, id="SD3-3-undirected"),
            pytest.param(SemidihedralType(2, 7), 397, id="SD2-7-undirected"),
            pytest.param(SemidihedralType(4, 3), 1042, id="SD4-3-undirected"),
            pytest.param(SemidihedralType(3, 5), 766, id="SD3-5"),
        ],
    )
    def test_edge_count_by_pair_scan(self, spec, edges):
        want, m = pair_scan_graph(spec)
        assert m == edges
        g = build_power_graph(spec)
        assert g == want
        assert g.edges() == scan_edges(g)
        assert edge_count(g) == len(g.edges()) == m

    @pytest.mark.parametrize(
        "spec",
        [SemidihedralType(k, p) for k, p in PAIRS_UNDER_CAP] + [Cyclic(q) for q in range(1, 65)],
        ids=str,
    )
    def test_matches_subgroup_walk_reference(self, spec):
        assert build_power_graph(spec) == subgroup_walk_graph(spec)

    @pytest.mark.parametrize("k,p", PAIRS_UNDER_CAP)
    def test_degrees_are_the_row_popcounts(self, k, p):
        for g in (build_model_graph(k, p), build_power_graph(SemidihedralType(k, p))):
            assert g.degrees == tuple(g.row_mask(i).bit_count() for i in range(g.n))
            assert g.degrees == tuple(g.degree(i) for i in range(g.n))
            assert edge_count(g) == len(g.edges())

    def test_degrees_at_2_3(self, true_graphs):
        g = true_graphs[(2, 3)]
        assert g.degree(g.index_of(E(0, 0))) == 23
        assert g.degree(g.index_of(E(1, 2))) == 1
        sr = g.index_of(E(1, 1))
        assert g.degree(sr) == 3
        assert {g.labels[j] for j in g.neighbors(sr)} == {E(0, 0), E(0, 6), E(1, 7)}

    @pytest.mark.parametrize("k,p", [(2, 3), (2, 5), (3, 3)])
    def test_identity_adjacent_to_all(self, k, p, true_graphs):
        g = true_graphs[(k, p)]
        assert g.degree(0) == g.n - 1

    def test_connected(self, true_graphs):
        # the identity is joined to every vertex
        g = true_graphs[(2, 3)]
        assert g.degree(0) == g.n - 1

    @pytest.mark.parametrize("k,p", [(2, 3), (2, 5), (3, 3)])
    def test_flips_past_order_4_take_the_class_walk(self, k, p):
        # in Z_2 x Z_q a flip s r^b has order lcm(2, q / gcd(b, q)): orders
        # 2 and 4 go in bulk, and every other flip stays open after four
        # steps and is walked by class
        spec = DirectProductType(k, p)
        q = spec.rotation_order
        orders = {len(cyclic_subgroup(spec, x)) for x in canonical_order(spec)[q:]}
        assert {2, 4, q} <= orders and max(orders) == q
        g = build_power_graph(spec)
        assert g == subgroup_walk_graph(spec) == pair_scan_graph(spec)[0]

    @pytest.mark.parametrize("k,p", [(2, 3), (3, 5), (5, 3)])
    def test_no_flip_of_the_family_is_walked(self, monkeypatch, k, p):
        walked = []
        real = powergraph._powers

        def spy(spec, x):
            walked.append(x)
            return real(spec, x)

        monkeypatch.setattr(powergraph, "_powers", spy)
        spec = SemidihedralType(k, p)
        assert build_power_graph(spec) == subgroup_walk_graph(spec)
        assert walked and all(x.a == 0 for x in walked)

    def test_flip_power_off_the_canonical_pairs_is_named(self, monkeypatch):
        real = group_core._product

        def law(q, theta, x, y):
            # a flip squared lands at u + q, off the canonical range; every
            # other product, x^3 and x^4 included, is the true one
            a, b = real(q, theta, x, y)
            return (a, b + q) if x[0] == 1 and tuple(x) == tuple(y) else (a, b)

        monkeypatch.setattr(group_core, "_product", law)
        with pytest.raises(
            ArithmeticError, match=re.escape("powers of s^1 r^1 reach the non-canonical pair (0, 18)")
        ):
            build_power_graph(SemidihedralType(2, 3))



class TestModelGraph:
    @pytest.mark.parametrize(
        "k,p,m", [(2, 3, 87), (2, 5, 225), (3, 3, 318)]
    )
    def test_edge_counts(self, k, p, m, model_graphs):
        g = model_graphs[(k, p)]
        assert edge_count(g) == m == 2 ** (k - 2) * p * (5 + 2 ** (k + 1) * p)

    def test_degree_facts_at_2_3(self, model_graphs):
        g = model_graphs[(2, 3)]
        assert g.degree(g.index_of(E(0, 0))) == 23
        assert g.degree(g.index_of(E(0, 6))) == 17
        seq = sorted(g.degrees, reverse=True)
        assert seq.count(11) == 10
        assert seq[0] == 23

    def test_block_structure_bit_for_bit(self, model_graphs):
        # tile the adjacency matrix independently: clique block, the two
        # all-ones rows into the order-4 flips, the identity row into the
        # order-2 flips, and 2x2 swap blocks down the flip-pair diagonal
        q, n = 12, 24
        expected = [[0] * n for _ in range(n)]
        for i in range(q):
            for j in range(q):
                if i != j:
                    expected[i][j] = 1
        for row in (0, 1):
            for j in range(q, q + 6):
                expected[row][j] = expected[j][row] = 1
        for j in range(q + 6, n):
            expected[0][j] = expected[j][0] = 1
        for t in range(3):
            a, b = q + 2 * t, q + 2 * t + 1
            expected[a][b] = expected[b][a] = 1
        got = matrix_of(model_graphs[(2, 3)], "adjacency")
        assert [list(row) for row in got.rows] == expected

    @pytest.mark.parametrize("k,p", [(2, 3), (2, 5), (3, 3), (2, 7), (4, 3), (5, 3)])
    def test_matches_pair_list_reference(self, k, p):
        spec = SemidihedralType(k, p)
        assert build_model_graph(k, p) == graph_with_edges(canonical_order(spec), model_pair_list(spec))

    def test_rotations_form_clique(self, model_graphs):
        for (k, p), g in model_graphs.items():
            q = 2**k * p
            for i in range(q):
                for j in range(i + 1, q):
                    assert g.has_edge(i, j)

    def test_connected(self, model_graphs):
        # the identity is joined to every vertex
        g = model_graphs[(2, 3)]
        assert g.degree(0) == g.n - 1

    def test_graph_order_limit(self, monkeypatch):
        monkeypatch.setattr(powergraph, "MAX_GRAPH_ORDER", 16)
        with pytest.raises(ValueError, match="exceeds the graph-order limit"):
            build_model_graph(2, 3)


class TestModelParts:
    """build_model_graph writes the model's rows once; a reference writer
    of its three parts (split_parts) checks them, and the split quotients
    that _certify_split reads off the model's certified twin quotient."""

    @pytest.mark.parametrize("k,p", PAIRS_UNDER_CAP + [(11, 3)])
    def test_parts_are_disjoint_and_symmetric(self, k, p):
        clique, star, rest = split_parts(SemidihedralType(k, p))
        for a, b in ((clique, star), (clique, rest), (star, rest)):
            assert all(x & y == 0 for x, y in zip(a, b))
        for part in (clique, star, rest):
            assert len(part) == 2 ** (k + 1) * p
            assert band_check_passes(part)

    @pytest.mark.parametrize("k,p", PAIRS_UNDER_CAP + [(11, 3)])
    def test_union_is_the_model_graph(self, k, p):
        g = build_model_graph(k, p)
        union = [a | b | c for a, b, c in zip(*split_parts(SemidihedralType(k, p)))]
        assert union == [g.row_mask(i) for i in range(g.n)]

    @pytest.mark.parametrize("k,p", PAIRS_UNDER_CAP)
    def test_the_split_read_off_the_model_is_the_reference_split(self, k, p):
        clique, star, rest = split_parts(SemidihedralType(k, p))
        q = len(star) // 2
        bounds = (0, 1, 2, q, q + q // 2, 2 * q)
        classes = list(zip(bounds, bounds[1:]))
        masks = [(1 << hi) - (1 << lo) for lo, hi in classes]
        parts = {"star": star, "rest": rest, "clique+star": [a | b for a, b in zip(clique, star)]}
        expected = {name: member_counts(masks, [rows[lo:hi] for lo, hi in classes]) for name, rows in parts.items()}
        assert _certify_split(build_model_graph(k, p)) == ([], expected)

    def test_twin_cells_other_than_the_five_classes_are_named(self, monkeypatch):
        real = _graph_twins(build_model_graph(2, 3))
        cells, counts, proof = real
        # the order-2 flips' cell cut in two, with K and the proof as they are
        cut = cells[:4] + [cells[4][:1], cells[4][1:]]
        monkeypatch.setattr(powergraph, "_graph_twins", lambda g: (cut, counts, proof))
        problem = "twin cells of sizes [1, 1, 10, 6, 1, 5] are not the five classes"
        assert _certify_split(build_model_graph(2, 3)) == ([problem], {})

    def test_a_corrupted_head_count_is_refused(self, monkeypatch):
        cells, counts, proof = _graph_twins(build_model_graph(2, 3))
        (heads, inners, closed), *others = proof
        corrupted = [(heads, [inners[0] + 1] + inners[1:], closed)] + others
        monkeypatch.setattr(powergraph, "_graph_twins", lambda g: (cells, counts, corrupted))
        with pytest.raises(ArithmeticError, match="differ in row sum"):
            _certify_split(build_model_graph(2, 3))


def mutated(g, k, p, mutation):
    """g with one edge dropped or added, named by the classes it touches."""
    q = 2**k * p
    half = q // 2
    e, u, rotation, x, y, other_quad = 0, 1, 2, q, q + 1, q + 2
    flat, other_flat = q + half, q + half + 1
    dropped = {
        "drop-e-x": (e, x),
        "drop-e-y": (e, y),
        "drop-u-x": (u, x),
        "drop-u-y": (u, y),
        "drop-x-y": (x, y),
        "drop-pendant": (e, flat),
        "drop-e-u": (e, u),
    }
    added = {
        "add-flat-flat": (flat, other_flat),
        "add-flat-u": (u, flat),
        "add-flat-rotation": (rotation, flat),
        "add-quad-rotation": (rotation, x),
        "add-quad-other-quad": (x, other_quad),
        "add-quad-flat": (y, flat),
    }
    edges = g.edges()
    if mutation in dropped:
        assert dropped[mutation] in edges
        edges = [pair for pair in edges if pair != dropped[mutation]]
    else:
        assert added[mutation] not in edges
        edges = edges + [added[mutation]]
    return graph_with_edges(g.labels, edges)


MUTATIONS = [
    "drop-e-x",
    "drop-e-y",
    "drop-u-x",
    "drop-u-y",
    "drop-x-y",
    "drop-pendant",
    "drop-e-u",
    "add-flat-flat",
    "add-flat-u",
    "add-flat-rotation",
    "add-quad-rotation",
    "add-quad-other-quad",
    "add-quad-flat",
]


class TestDecomposition:
    """verify_decomposition: each graph must equal the graph its divisor
    lattice predicts, row for row."""

    @pytest.mark.parametrize("k,p", PAIRS_UNDER_CAP)
    def test_both_graphs_equal_their_lattice_graphs(self, k, p):
        builds = {"model": build_model_graph(k, p), "true": build_power_graph(SemidihedralType(k, p))}
        for construction, g in builds.items():
            assert verify_decomposition(g, k, p, construction) == []
            # the other lattice graph differs, inside the rotations only
            other = "true" if construction == "model" else "model"
            diff = Graph(g.labels, verify_decomposition(g, k, p, other))
            assert diff.edges() and all(g.labels[i].a == g.labels[j].a == 0 for i, j in diff.edges())
            assert lattice_graph(k, p, construction) == g

    @pytest.mark.parametrize("k,p", [(2, 3), (2, 5), (3, 3), (2, 7), (4, 3), (3, 5)])
    def test_lattice_graphs_match_the_reference_builders(self, k, p):
        spec = SemidihedralType(k, p)
        assert lattice_graph(k, p, "true") == pair_scan_graph(spec)[0]
        assert lattice_graph(k, p, "model") == graph_with_edges(canonical_order(spec), model_pair_list(spec))

    @pytest.mark.parametrize("construction", ["model", "true"])
    @pytest.mark.parametrize("k,p", PAIRS_UNDER_CAP)
    def test_lattice_graph_has_the_claimed_census(self, k, p, construction):
        # the counts a passing decomposition check prints as computed
        spec, mp = SemidihedralType(k, p), ModelParameters(k, p)
        q = spec.rotation_order
        g = lattice_graph(k, p, construction)
        pendants = [g.labels[j] for j in range(g.n) if g.neighbors(j) == (0,)]
        assert pendants == [E(1, b) for b in range(0, q, 2)]
        assert len(pendants) == mp.half_rotation
        pairs = quartic_flip_pairs(spec)
        assert len(pairs) == mp.quarter_rotation
        for x, y in pairs:
            i, j = g.index_of(x), g.index_of(y)
            assert g.neighbors(i) == (0, 1, j) and g.neighbors(j) == (0, 1, i)
        rotation_edges = sum(g.labels[i].a == g.labels[j].a == 0 for i, j in g.edges())
        if construction == "model":
            assert rotation_edges == math.comb(q, 2)
        else:
            assert rotation_edges == mp.rotation_edge_count == len(cyclic_power_edges(q))
        # every edge is a rotation edge, a pendant, or one of the quads' five
        assert edge_count(g) == rotation_edges + len(pendants) + 5 * len(pairs)

    @pytest.mark.parametrize("construction", ["model", "true"])
    def test_census_at_2_3(self, construction, model_graphs, true_graphs):
        g = (model_graphs if construction == "model" else true_graphs)[(2, 3)]
        assert g == lattice_graph(2, 3, construction)
        pendants = {g.labels[j] for j in range(g.n) if g.neighbors(j) == (0,)}
        assert pendants == {E(1, b) for b in (0, 2, 4, 6, 8, 10)}
        quads = {
            frozenset(labels)
            for labels in combinations(g.labels, 4)
            if all(g.has_edge(g.index_of(x), g.index_of(y)) for x, y in combinations(labels, 2))
            and any(x.a == 1 for x in labels)
        }
        assert quads == {frozenset({E(0, 0), E(0, 6), E(1, m), E(1, m + 6)}) for m in (1, 3, 5)}
        rotation_edges = sum(g.labels[i].a == g.labels[j].a == 0 for i, j in g.edges())
        assert rotation_edges == (66 if construction == "model" else 56)

    def test_prediction_reads_no_group_law_and_no_model_builder(self, monkeypatch, model_graphs, true_graphs):
        def forbidden(*args):
            raise AssertionError("the prediction called a builder's code")

        monkeypatch.setattr(group_core, "_powers", forbidden)
        monkeypatch.setattr(group_core, "_product", forbidden)
        monkeypatch.setattr(powergraph, "_powers", forbidden)
        monkeypatch.setattr(powergraph, "build_model_graph", forbidden)
        powergraph._lattice.cache_clear()
        for k, p in [(2, 3), (3, 3)]:
            assert verify_decomposition(model_graphs[(k, p)], k, p, "model") == []
            assert verify_decomposition(true_graphs[(k, p)], k, p, "true") == []
        assert powergraph._lattice.cache_info().misses == 2

    def test_rejects_wrong_labels(self, model_graphs):
        with pytest.raises(ValueError):
            verify_decomposition(model_graphs[(2, 5)], 2, 3, "model")

    def test_rejects_another_order_before_building_its_labels(self, model_graphs):
        canonical_order.cache_clear()
        with pytest.raises(ValueError, match="canonical vertex order"):
            verify_decomposition(model_graphs[(2, 3)], 5, 3, "model")
        assert canonical_order.cache_info().misses == 0

    def test_rejects_an_unknown_construction_before_any_other_work(self, model_graphs):
        # refused ahead of the order check, the labels and the prediction
        canonical_order.cache_clear()
        powergraph._lattice.cache_clear()
        for k in (2, 5):
            with pytest.raises(ValueError, match="unknown construction 'clique'"):
                verify_decomposition(model_graphs[(2, 3)], k, 3, "clique")
        assert canonical_order.cache_info().misses == powergraph._lattice.cache_info().misses == 0

    @pytest.mark.parametrize("mutation", MUTATIONS)
    @pytest.mark.parametrize("construction", ["model", "true"])
    @pytest.mark.parametrize("k,p", [(2, 3), (3, 3)])
    def test_mutated(self, k, p, construction, mutation):
        # refused, and the XOR rows name exactly the edge that moved
        if construction == "model":
            g = build_model_graph(k, p)
        else:
            g = build_power_graph(SemidihedralType(k, p))
        bad = mutated(g, k, p, mutation)
        moved = Graph(bad.labels, verify_decomposition(bad, k, p, construction))
        assert [(bad.labels[i], bad.labels[j]) for i, j in moved.edges()] == list(graph_diff(g, bad))
        assert moved.edges()


def band_check_passes(rows) -> bool:
    try:
        powergraph._check_loops_and_symmetry(rows)
    except ValueError:
        return False
    return True


def key_relation_rows(held, key_index, flip):
    """Per construction, row i = table[key_index[i]] ^ (1 << flip[i]), as _lattice writes it."""
    return [
        [table[c] ^ (1 << i) for c, i in zip(key_index.tolist(), flip.tolist())]
        for table in powergraph._tables(held, key_index)
    ]


CORRUPTIONS = ["relation-entry", "symmetric-relation-pair", "retargeted-flip", "swapped-flips", "moved-vertex"]


def corrupted(rng, held, key_index, flip, corruption):
    """Copies of the key relation of _lattice with one corruption."""
    held, key_index, flip = held.copy(), key_index.copy(), flip.copy()
    n, width = len(key_index), held.shape[1]
    c, x, y = rng.randrange(2), rng.randrange(width), rng.randrange(width)
    if corruption == "relation-entry":
        held[c, x, y] ^= True
    elif corruption == "symmetric-relation-pair":
        held[c, x, y] ^= True
        held[c, y, x] ^= x != y
    elif corruption == "retargeted-flip":
        flip[rng.randrange(n)] = rng.randrange(n)
    elif corruption == "swapped-flips":
        i, j = rng.sample(range(n), 2)
        flip[[i, j]] = flip[[j, i]]
    else:  # a vertex moved to another key
        i = rng.randrange(n)
        key_index[i] = rng.choice([x for x in range(width) if x != key_index[i]])
    return held, key_index, flip


class TestLatticeProof:
    """_lattice proves each prediction loop-free and symmetric on its key
    relation, and a builder graph equal to a proved prediction skips the
    band check (Graph._proved)."""

    @pytest.mark.parametrize("k,p", PAIRS_UNDER_CAP)
    def test_every_prediction_of_the_family_is_proved(self, k, p):
        spec = SemidihedralType(k, p)
        held, key_index, flip = powergraph._key_relation(spec)
        rows = key_relation_rows(held, key_index, flip)
        true, to_model, proved = powergraph._lattice(spec)
        assert proved == (True, True)
        assert tuple(rows[0]) == true and rows[1] == list(map(operator.xor, true, to_model))
        assert all(map(band_check_passes, rows))

    def test_the_proof_agrees_with_the_band_check_on_corrupted_relations(self):
        # 5 corruptions x 4 groups x 120 seeded draws, both constructions
        rng = random.Random(2039)
        verdicts = Counter()
        for k, p in [(2, 3), (2, 5), (3, 3), (2, 7)]:
            relation = powergraph._key_relation(SemidihedralType(k, p))
            for corruption in CORRUPTIONS:
                for _ in range(120):
                    bad = corrupted(rng, *relation, corruption)
                    bands = tuple(map(band_check_passes, key_relation_rows(*bad)))
                    for proof, band in zip(powergraph._proofs(*bad), bands):
                        verdicts[corruption, proof, band] += 1
        assert sum(verdicts.values()) == 2 * 2400
        unsound = [key for key in verdicts if key[1] and not key[2]]
        incomplete = [key for key in verdicts if key[2] and not key[1]]
        assert unsound == [] and incomplete == []
        # every corruption both breaks a prediction and leaves one whole
        for corruption in CORRUPTIONS:
            assert verdicts[corruption, True, True] and verdicts[corruption, False, False]

    def test_builder_graphs_of_the_family_skip_the_band_check(self, monkeypatch):
        lengths = []
        real = powergraph._check_loops_and_symmetry
        monkeypatch.setattr(
            powergraph, "_check_loops_and_symmetry", lambda rows: lengths.append(len(rows)) or real(rows)
        )
        for k, p in PAIRS_UNDER_CAP:
            spec = SemidihedralType(k, p)
            graphs = build_model_graph(k, p), build_power_graph(spec)
            assert lengths == []
            for g in graphs:
                # the builder's own rows, never the prediction's tuple
                assert g._rows is not powergraph._lattice(spec)[0]
                checked = Graph(g.labels, g._rows)
                assert g == checked and g.degrees == checked.degrees
                assert [g.index_of(x) for x in g.labels] == list(range(g.n))
            lengths.clear()
        build_power_graph(Cyclic(12))
        assert lengths == [12]
        problems, _ = _certify_split(build_model_graph(2, 3))
        assert problems == [] and lengths == [12]

    def test_full_runs_of_the_family_take_no_band_check(self, monkeypatch):
        lengths = []
        real = powergraph._check_loops_and_symmetry
        monkeypatch.setattr(
            powergraph, "_check_loops_and_symmetry", lambda rows: lengths.append(len(rows)) or real(rows)
        )
        reports = [run_verification(k, p) for k, p in PAIRS_UNDER_CAP]
        assert all(report.status == "pass" for report in reports)
        assert lengths == []

    def test_a_moved_prediction_edge_sends_the_builders_to_the_band_check(self, monkeypatch):
        spec = SemidihedralType(2, 3)
        true, to_model, proved = powergraph._lattice(spec)
        q = spec.rotation_order
        e, x, flat, other_flat = 0, q, q + q // 2, q + q // 2 + 1
        rows = list(true)
        for i, j in [(e, x), (flat, other_flat)]:  # e ~ x dropped, flat ~ other_flat added
            rows[i] ^= 1 << j
            rows[j] ^= 1 << i
        assert band_check_passes(rows)
        monkeypatch.setattr(powergraph, "_lattice", lambda spec: (tuple(rows), to_model, proved))
        lengths = []
        real = powergraph._check_loops_and_symmetry
        monkeypatch.setattr(
            powergraph, "_check_loops_and_symmetry", lambda rows: lengths.append(len(rows)) or real(rows)
        )
        report = run_verification(2, 3, kinds=())
        assert lengths == [24, 24]
        failed = {c.construction: c.detail for c in report.checks if c.status == "fail"}
        labels = canonical_order(spec)
        moved = {"missing": [f"{labels[e]} ~ {labels[x]}"], "extra": [f"{labels[flat]} ~ {labels[other_flat]}"]}
        # the graph has e ~ x, which the moved prediction lacks, and lacks the edge it gained
        named = {"missing": moved["extra"], "extra": moved["missing"]}
        assert failed == {"model": named, "true": named}


class TestGraphDiff:
    def test_self_diff_empty(self, model_graphs):
        assert graph_diff(model_graphs[(2, 3)], model_graphs[(2, 3)]) == ()

    def test_single_removed_edge(self):
        labels = [E(0, b) for b in range(4)]
        full = graph_with_edges(labels, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        missing = graph_with_edges(
            labels, [(i, j) for i in range(4) for j in range(i + 1, 4) if (i, j) != (1, 2)]
        )
        assert graph_diff(full, missing) == ((E(0, 1), E(0, 2)),)

    def test_model_vs_true_frozen_at_2_3(self, model_graphs, true_graphs):
        diff = graph_diff(model_graphs[(2, 3)], true_graphs[(2, 3)])
        assert len(diff) == 10
        got = {frozenset((x.b, y.b)) for x, y in diff}
        assert all(x.a == 0 and y.a == 0 for x, y in diff)
        assert got == {
            frozenset(bs)
            for bs in [
                (2, 3), (2, 9), (3, 4), (3, 8), (3, 10),
                (4, 6), (4, 9), (6, 8), (8, 9), (9, 10),
            ]
        }
        # the ten pairs are exactly the non-edges of P(Z_12)
        non_edges = {
            frozenset((x, y))
            for x in range(1, 12)
            for y in range(x + 1, 12)
            if (x, y) not in cyclic_power_edges(12)
        }
        assert got == non_edges

    @pytest.mark.parametrize("case", ["model-vs-true-2-5", "edge-removed"])
    def test_matches_set_difference(self, case, model_graphs, true_graphs):
        if case == "model-vs-true-2-5":
            g1, g2 = model_graphs[(2, 5)], true_graphs[(2, 5)]
            size = 20
        else:
            g1 = true_graphs[(2, 3)]
            edge = (g1.index_of(E(0, 6)), g1.index_of(E(1, 1)))
            g2 = graph_with_edges(g1.labels, [e for e in g1.edges() if e != edge])
            size = 1
        want = tuple(
            (g1.labels[i], g1.labels[j])
            for i, j in sorted(set(scan_edges(g1)) ^ set(scan_edges(g2)))
        )
        assert len(want) == size
        assert graph_diff(g1, g2) == want
        assert graph_diff(g2, g1) == want

    def test_deterministic(self, model_graphs, true_graphs):
        d1 = graph_diff(model_graphs[(2, 3)], true_graphs[(2, 3)])
        d2 = graph_diff(model_graphs[(2, 3)], true_graphs[(2, 3)])
        assert d1 == d2

    def test_rejects_label_mismatch(self, model_graphs):
        with pytest.raises(ValueError):
            graph_diff(model_graphs[(2, 3)], model_graphs[(2, 5)])


class TestDotExport:
    def test_frozen_k2(self):
        g = build_power_graph(Cyclic(2))
        assert to_dot(g) == (
            'graph powergraph {\n'
            '  n0 [label="s^0 r^0"];\n'
            '  n1 [label="s^0 r^1"];\n'
            '  n0 -- n1;\n'
            '}\n'
        )

    def test_byte_identical_across_rebuilds(self):
        a = to_dot(build_power_graph(SemidihedralType(2, 3)))
        b = to_dot(build_power_graph(SemidihedralType(2, 3)))
        assert a == b
        assert a.endswith("}\n")
