"""Differential tests against a power graph built without powspec's group code.

G(k, p) is realised as the affine maps x -> u*x + b on Z_q, q = 2^k p,
with u in {1, theta}: r is x -> x + 1 and s is x -> theta*x, so that
s r s^-1 = r^theta.  The power graph comes from composing each map with
itself until it returns, and networkx stores it in its own vertex order.
"""

import pytest

from powspec.exact_linalg import IntMatrix, char_poly_exact, matrix_of
from powspec.group_core import SemidihedralType
from powspec.powergraph import build_power_graph

nx = pytest.importorskip("networkx")

EDGE_COUNTS = {(2, 3): 77, (2, 5): 205, (3, 3): 276, (2, 7): 397}


def affine_power_graph(k, p):
    q = 2**k * p
    theta = 2 ** (k - 1) * p - 1
    maps = [(u, b) for u in (1, theta) for b in range(q)]

    def compose(f, g):  # f after g
        return (f[0] * g[0] % q, (f[0] * g[1] + f[1]) % q)

    graph = nx.Graph()
    graph.add_nodes_from(maps)
    for g in maps:
        h = compose(g, g)
        while h != g:  # g^2, g^3, ..., g^m = identity
            graph.add_edge(g, h)
            h = compose(h, g)
    return graph


def as_networkx(g):
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges())
    return out


@pytest.mark.parametrize("k, p", sorted(EDGE_COUNTS))
def test_isomorphic_to_the_affine_power_graph(k, p):
    oracle = affine_power_graph(k, p)
    assert oracle.number_of_edges() == EDGE_COUNTS[(k, p)]
    assert nx.is_isomorphic(oracle, as_networkx(build_power_graph(SemidihedralType(k, p))))


@pytest.mark.parametrize("k, p", sorted(EDGE_COUNTS))
def test_charpoly_in_the_oracle_vertex_order(k, p):
    """In networkx's order the flips of orders 2 and 4 interleave, so the
    twin classes are not contiguous; the quotient must not care."""
    oracle = affine_power_graph(k, p)
    nodes = list(oracle.nodes)
    canonical = build_power_graph(SemidihedralType(k, p))
    laplacian = nx.laplacian_matrix(oracle, nodelist=nodes).toarray()
    matrices = {
        "adjacency": nx.to_numpy_array(oracle, nodelist=nodes, dtype=int),
        "laplacian": laplacian,
        "signless": abs(laplacian),  # D + A, as L = D - A
    }
    for kind, array in matrices.items():
        want = char_poly_exact(matrix_of(canonical, kind))
        assert char_poly_exact(IntMatrix.from_rows(array.tolist())) == want, kind
