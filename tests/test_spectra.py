import math
import random
from fractions import Fraction

import numpy as np
import pytest

from powspec import spectra
from powspec.exact_linalg import (
    CAP_ENV_VAR,
    IntMatrix,
    MatrixCapExceeded,
    _matrix_array,
    _unpack,
    matrix_of,
)
from powspec.formulas import ModelParameters, laplacian_spectrum_formula
from powspec.group_core import GroupElement, SemidihedralType, is_odd_prime
from powspec.powergraph import Graph
from powspec.spectra import (
    EigenSolveError,
    SpectrumEntry,
    SpectrumSummary,
    cluster_multiplicities,
    laplacian_energy,
    spectrum_to_csv,
    summaries_match,
    symmetric_eigenvalues,
)
from reference_model import split_parts


def complete_graph(n):
    labels = tuple(GroupElement(0, b) for b in range(n))
    rows = []
    full = (1 << n) - 1
    for i in range(n):
        rows.append(full & ~(1 << i))
    return Graph(labels, tuple(rows))


def induced_subgraph(g, keep):
    keep = sorted(keep)
    pos = {v: i for i, v in enumerate(keep)}
    rows = [0] * len(keep)
    for a in keep:
        for b in g.neighbors(a):
            if b in pos:
                rows[pos[a]] |= 1 << pos[b]
    return Graph(tuple(g.labels[v] for v in keep), tuple(rows))


def adjacency_radius(g):
    return symmetric_eigenvalues(_matrix_array(g, "adjacency")).radius


def dense_parts(k, p):
    """The model's clique, star and rest parts as dense 0/1 arrays."""
    return [_unpack(part) for part in split_parts(SemidihedralType(k, p))]


def random_symmetric(rng, n, lo=-4, hi=4):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = rng.randint(lo, hi)
            m[i][j] = m[j][i] = v
    return np.array(m, dtype=float)


class TestEigensolver:
    def test_k3_adjacency(self):
        res = symmetric_eigenvalues(matrix_of(complete_graph(3), "adjacency"))
        assert res.eigenvalues == pytest.approx((-1.0, -1.0, 2.0), abs=1e-12)

    def test_k2_laplacian(self):
        res = symmetric_eigenvalues(matrix_of(complete_graph(2), "laplacian"))
        assert res.eigenvalues == pytest.approx((0.0, 2.0), abs=1e-12)

    def test_requires_symmetry(self):
        with pytest.raises(ValueError):
            symmetric_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_requires_square(self):
        with pytest.raises(ValueError):
            symmetric_eigenvalues(np.zeros((2, 3)))

    def test_empty_matrix(self):
        res = symmetric_eigenvalues(np.zeros((0, 0)))
        assert res.eigenvalues == () and res.residual == 0.0

    def test_eigenvalue_sum_equals_trace(self):
        rng = random.Random(5)
        for _ in range(10):
            n = rng.randint(2, 12)
            m = random_symmetric(rng, n)
            res = symmetric_eigenvalues(m)
            assert sum(res.eigenvalues) == pytest.approx(float(np.trace(m)), abs=n * 1e-9)

    def test_residual_gate(self, model_graphs, monkeypatch):
        monkeypatch.setattr(spectra, "NUMERIC_TOL", 1e-18)
        with pytest.raises(EigenSolveError):
            symmetric_eigenvalues(matrix_of(model_graphs[(2, 3)], "laplacian"))

    def test_cap(self, monkeypatch):
        monkeypatch.setenv(CAP_ENV_VAR, "4")
        with pytest.raises(MatrixCapExceeded):
            symmetric_eigenvalues(np.zeros((5, 5)))

    def test_cap_message_names_the_override(self, monkeypatch):
        monkeypatch.setenv(CAP_ENV_VAR, "4")
        with pytest.raises(MatrixCapExceeded, match=CAP_ENV_VAR):
            symmetric_eigenvalues(np.zeros((5, 5)))

    @pytest.mark.parametrize(
        "empty",
        [lambda: IntMatrix(()), lambda: [], lambda: matrix_of(Graph([], []), "adjacency")],
        ids=["IntMatrix", "list", "matrix_of"],
    )
    def test_no_rows_is_the_empty_matrix(self, empty):
        assert symmetric_eigenvalues(empty()) == symmetric_eigenvalues(np.zeros((0, 0)))

    @pytest.mark.parametrize("kind", ["adjacency", "laplacian", "signless"])
    def test_cap_refuses_before_any_row_is_written(self, monkeypatch, model_graphs, kind):
        monkeypatch.setenv(CAP_ENV_VAR, "16")
        m = matrix_of(model_graphs[(2, 3)], kind)
        with pytest.raises(MatrixCapExceeded):
            symmetric_eigenvalues(m)
        assert "rows" not in m.__dict__


def solve_error(matrix):
    """The type and text of the error symmetric_eigenvalues raises on matrix."""
    with pytest.raises((ValueError, EigenSolveError, MatrixCapExceeded)) as info:
        symmetric_eigenvalues(matrix)
    return type(info.value), str(info.value)


class TestStackedSolve:
    """A stack of one order's matrices: one call, one result per member, and
    every member checked as a single matrix is."""

    def test_results_are_the_single_solves(self):
        rng = random.Random(7)
        for n in (1, 2, 5, 12):
            members = [random_symmetric(rng, n) for _ in range(3)]
            got = symmetric_eigenvalues(np.array(members))
            assert got == tuple(symmetric_eigenvalues(m) for m in members)

    def test_empty_members(self):
        got = symmetric_eigenvalues(np.zeros((2, 0, 0)))
        assert got == (symmetric_eigenvalues(np.zeros((0, 0))),) * 2

    def test_a_list_of_rows_is_one_matrix(self):
        rows = [[0.0, 1.0], [1.0, 0.0]]
        assert symmetric_eigenvalues(rows) == symmetric_eigenvalues(np.array(rows))

    def test_a_list_of_matrices_is_not_a_stack(self):
        assert solve_error([np.eye(2)] * 2) == (ValueError, "matrix must be square")

    @pytest.mark.parametrize("at", [0, 2])
    def test_asymmetric_member(self, at):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        stack = np.array([np.eye(2)] * 3)
        stack[at] = bad
        assert solve_error(stack) == solve_error(bad)

    @pytest.mark.parametrize("at", [0, 2])
    def test_non_square_member(self, at):
        bad = np.zeros((3, 4))
        # one shape for every member of an array: the others are I_3 and a zero column
        stack = np.zeros((3, 3, 4))
        stack[:, :, :3] = np.eye(3)
        stack[at] = bad
        assert solve_error(stack) == solve_error(bad) == (ValueError, "matrix must be square")
        assert solve_error(np.zeros((2, 3, 4))) == solve_error(bad)

    def test_members_of_two_orders(self):
        assert solve_error([np.eye(2), np.eye(3)])[0] is ValueError

    def test_over_cap_member(self, monkeypatch):
        monkeypatch.setenv(CAP_ENV_VAR, "4")
        assert solve_error(np.array([np.eye(5)] * 2)) == solve_error(np.eye(5))
        assert solve_error(np.zeros((2, 5, 5))) == solve_error(np.eye(5))
        assert len(symmetric_eigenvalues(np.array([np.eye(4)] * 2))) == 2  # members at the cap solve

    @pytest.mark.parametrize("at", [0, 1])
    def test_residual_failing_member(self, model_graphs, monkeypatch, at):
        bad = matrix_of(model_graphs[(2, 3)], "laplacian")
        stack = np.zeros((2, 24, 24))
        stack[at] = bad.rows
        monkeypatch.setattr(spectra, "NUMERIC_TOL", 1e-18)
        assert solve_error(stack) == solve_error(bad)
        assert solve_error(stack)[0] is EigenSolveError


class TestClustering:
    def test_merges_within_tol(self):
        s = cluster_multiplicities([0.9999999999, 1.0000000001, 2.0], 1e-6)
        assert [(round(e.value, 6), e.multiplicity) for e in s.entries] == [(1.0, 2), (2.0, 1)]

    def test_zero_tol_keeps_everything_apart(self):
        s = cluster_multiplicities([1.0, 1.5, 2.0], 0.0)
        assert [e.multiplicity for e in s.entries] == [1, 1, 1]

    def test_requires_sorted(self):
        with pytest.raises(ValueError):
            cluster_multiplicities([2.0, 1.0], 1e-6)

    def test_negative_pair(self):
        s = cluster_multiplicities([-1.0, -1.0, 2.0], 1e-9)
        assert s.pairs() == ((-1.0, 2), (2.0, 1))

    def test_model_laplacian_clusters(self, model_graphs):
        res = symmetric_eigenvalues(matrix_of(model_graphs[(2, 3)], "laplacian"))
        s = cluster_multiplicities(res.eigenvalues, 1e-6 * 24)
        assert [e.multiplicity for e in s.entries] == [1, 6, 3, 3, 9, 1, 1]
        ok, dev = summaries_match(s, laplacian_spectrum_formula(2, 3), 1e-9 * 24)
        assert ok, dev


class TestSummaryValidation:
    def test_requires_increasing(self):
        with pytest.raises(ValueError):
            SpectrumSummary((SpectrumEntry(2, 1), SpectrumEntry(1, 1)))

    def test_requires_positive_multiplicity(self):
        with pytest.raises(ValueError):
            SpectrumSummary((SpectrumEntry(1, 0),))

    def test_summaries_match_shape_mismatch(self):
        a = SpectrumSummary((SpectrumEntry(1, 2),))
        b = SpectrumSummary((SpectrumEntry(1, 1), SpectrumEntry(2, 1)))
        ok, dev = summaries_match(a, b, 1.0)
        assert not ok and dev == float("inf")

    def test_summaries_match_multiplicity_mismatch(self):
        a = SpectrumSummary((SpectrumEntry(1, 2), SpectrumEntry(2, 1)))
        b = SpectrumSummary((SpectrumEntry(1, 1), SpectrumEntry(2, 2)))
        assert not summaries_match(a, b, 1.0)[0]

    def test_summaries_match_deviation(self):
        a = SpectrumSummary((SpectrumEntry(1.0, 1),))
        b = SpectrumSummary((SpectrumEntry(1.5, 1),))
        ok, dev = summaries_match(a, b, 0.1)
        assert not ok and dev == pytest.approx(0.5)


class TestSpectralRadius:
    def test_complete_graphs(self):
        assert adjacency_radius(complete_graph(4)) == pytest.approx(3.0, abs=1e-9)
        assert adjacency_radius(complete_graph(2)) == pytest.approx(1.0, abs=1e-9)

    def test_bipartite_star_uses_absolute_value(self):
        labels = tuple(GroupElement(0, b) for b in range(5))
        rows = (0b11110, 1, 1, 1, 1)
        star = Graph(labels, rows)
        assert adjacency_radius(star) == pytest.approx(2.0, abs=1e-9)

    def test_model_graph_bracket(self, model_graphs):
        lam1 = adjacency_radius(model_graphs[(2, 3)])
        assert 11.0 < lam1 <= 17.465

    def test_vertex_deletion_strictly_decreases(self, model_graphs):
        g = model_graphs[(2, 3)]
        lam1 = adjacency_radius(g)
        for v in (0, 1, 5, 13, 20):
            sub = induced_subgraph(g, [i for i in range(g.n) if i != v])
            assert adjacency_radius(sub) < lam1 - 1e-9


class TestLaplacianEnergy:
    def test_k2(self):
        s = SpectrumSummary((SpectrumEntry(0, 1), SpectrumEntry(2, 1)))
        assert laplacian_energy(s, 1, 2) == Fraction(2)

    def test_model_spectrum_both_readings(self):
        s = laplacian_spectrum_formula(2, 3)
        assert laplacian_energy(s, 87, 24, with_multiplicity=True) == Fraction(281, 2)
        assert laplacian_energy(s, 87, 24, with_multiplicity=False) == Fraction(217, 4)

    def test_a_float_entry_is_refused(self):
        s = SpectrumSummary((SpectrumEntry(0, 1), SpectrumEntry(2.0, 1)))
        with pytest.raises(ValueError, match="2.0"):
            laplacian_energy(s, 1, 2)

    def test_total_mismatch_raises(self):
        s = SpectrumSummary((SpectrumEntry(0, 1), SpectrumEntry(2, 1)))
        with pytest.raises(ValueError):
            laplacian_energy(s, 1, 3)

    def test_claimed_spectra_match_the_fraction_loop(self):
        # every (k, p) of the family with n = 2^(k+1) p <= 4096
        family = [(k, p) for k in range(2, 10) for p in range(3, 2048 >> k) if is_odd_prime(p)]
        assert len(family) == 215
        for k, p in family:
            mp = ModelParameters(k, p)
            spectrum = laplacian_spectrum_formula(k, p)
            for weighted in (True, False):
                args = (spectrum, mp.model_edge_count, mp.vertex_count, weighted)
                assert laplacian_energy(*args) == fraction_loop_energy(*args), (k, p)

    def test_fraction_spectrum_matches_the_fraction_loop(self):
        entries = ((Fraction(-7, 3), 2), (1, 3), (Fraction(9, 2), 1))
        s = SpectrumSummary(tuple(SpectrumEntry(v, mult) for v, mult in entries))
        for m in (0, 1, 5, 17):
            for weighted in (True, False):
                got = laplacian_energy(s, m, 6, weighted)
                assert got == fraction_loop_energy(s, m, 6, weighted)
                assert isinstance(got, Fraction)


def fraction_loop_energy(spectrum, m, n, with_multiplicity=True):
    """The reference: sum of w |mu - 2m/n|, one Fraction per entry."""
    shift = Fraction(2 * m, n)
    acc = Fraction(0)
    for e in spectrum.entries:
        weight = e.multiplicity if with_multiplicity else 1
        acc += weight * abs(Fraction(e.value) - shift)
    return acc


class TestComponentMultiplicity:
    def test_disjoint_union(self):
        labels = tuple(GroupElement(0, b) for b in range(4))
        g = Graph(labels, (0b0010, 0b0001, 0b1000, 0b0100))
        res = symmetric_eigenvalues(matrix_of(g, "laplacian"))
        s = cluster_multiplicities(res.eigenvalues, 1e-6)
        assert s.entries[0].value == pytest.approx(0.0, abs=1e-9)
        assert s.entries[0].multiplicity == 2

    def test_connected_model(self, model_graphs):
        res = symmetric_eigenvalues(matrix_of(model_graphs[(2, 3)], "laplacian"))
        s = cluster_multiplicities(res.eigenvalues, 1e-6 * 24)
        assert s.entries[0].multiplicity == 1
        assert all(v >= -1e-9 for v in res.eigenvalues)


class TestSplitSpectra:
    def test_star_spectrum_at_2_3(self):
        _, star, _ = dense_parts(2, 3)
        res = symmetric_eigenvalues(star)
        root = math.sqrt(12)
        expected = [-root] + [0.0] * 22 + [root]
        assert res.eigenvalues == pytest.approx(expected, abs=1e-9)

    def test_rest_peak_is_exactly_three_at_2_3(self):
        # 1 + 2q = 25 is a perfect square here, so the claimed peak is 3
        _, _, rest = dense_parts(2, 3)
        res = symmetric_eigenvalues(rest)
        assert res.eigenvalues[-1] == pytest.approx(3.0, abs=1e-9)

    def test_rest_peak_at_2_5(self):
        _, _, rest = dense_parts(2, 5)
        res = symmetric_eigenvalues(rest)
        assert res.eigenvalues[-1] == pytest.approx((1 + math.sqrt(41)) / 2, abs=1e-9)

    @pytest.mark.parametrize("k,p", [(2, 3), (2, 5)])
    def test_weyl_on_the_split(self, k, p):
        clique, star, rest = dense_parts(k, p)
        top = symmetric_eigenvalues(clique + star + rest).eigenvalues[-1]
        y = symmetric_eigenvalues(clique + star).eigenvalues[-1]
        z = symmetric_eigenvalues(rest).eigenvalues[-1]
        assert top <= y + z + 1e-9 * max(1.0, top)


class TestWeylInequality:
    def test_hundred_random_pairs(self):
        rng = random.Random(20260819)
        for _ in range(100):
            n = rng.randint(2, 8)
            a = random_symmetric(rng, n)
            b = random_symmetric(rng, n)
            la = symmetric_eigenvalues(a).eigenvalues[-1]
            lb = symmetric_eigenvalues(b).eigenvalues[-1]
            lab = symmetric_eigenvalues(a + b).eigenvalues[-1]
            scale = max(1.0, abs(la) + abs(lb))
            assert lab <= la + lb + 1e-9 * scale


class TestCsvExport:
    def test_frozen_integer_table(self):
        assert spectrum_to_csv(laplacian_spectrum_formula(2, 3)) == (
            "value,multiplicity\n"
            "0,1\n1,6\n2,3\n4,3\n12,9\n18,1\n24,1\n"
        )

    @pytest.mark.parametrize("value", [Fraction(1, 2), Fraction(3, 1), 3.25])
    def test_a_non_integer_entry_is_refused(self, value):
        s = SpectrumSummary((SpectrumEntry(0, 1), SpectrumEntry(value, 2)))
        with pytest.raises(ValueError, match="integer"):
            spectrum_to_csv(s)
