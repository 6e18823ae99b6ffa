"""End-to-end acceptance checks, one test per criterion.

Each test prints a single ACCEPTANCE line (visible with -s) before
asserting, so a full run yields one pass/fail line per criterion.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from powspec import kernels
from powspec.exact_linalg import (
    IntMatrix,
    _matrix_array,
    _unpack,
    char_poly_exact,
    char_poly_leverrier,
    matrix_of,
)
from powspec.formulas import (
    ModelParameters,
    adjacency_charpoly_formula,
    laplacian_charpoly_formula,
    laplacian_energy_formula,
    laplacian_spectrum_formula,
    signless_charpoly_formula,
    spectral_radius_bounds,
)
from powspec.group_core import (
    SemidihedralType,
    elements,
    identity,
    inverse,
    multiply,
)
from powspec.powergraph import edge_count, graph_diff
from powspec.spectra import laplacian_energy, symmetric_eigenvalues
from reference_model import split_parts

GRID = [(2, 3), (2, 5), (3, 3)]
TOL = 1e-9


def report_line(num, ok, note):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({note})")
    assert ok, f"ACCEPTANCE {num} FAILED: {note}"


def test_criterion_1_adjacency_formula_exact(model_graphs):
    worst = 0.0
    ok = True
    for k, p in GRID:
        start = time.perf_counter()
        computed = char_poly_exact(matrix_of(model_graphs[(k, p)], "adjacency"))
        worst = max(worst, time.perf_counter() - start)
        ok = ok and computed == adjacency_charpoly_formula(k, p).expand()
    ok = ok and worst < 30.0
    report_line(1, ok, f"exact equality at {GRID}, worst case {worst:.2f}s < 30s")


def test_criterion_2_laplacian_formula_and_spectrum(model_graphs):
    ok = True
    for k, p in GRID:
        computed = char_poly_exact(matrix_of(model_graphs[(k, p)], "laplacian"))
        claimed = laplacian_charpoly_formula(k, p).expand()
        ok = ok and computed == claimed
        quotient = claimed
        for value, mult in laplacian_spectrum_formula(k, p).pairs():
            for _ in range(mult):
                quotient = quotient.deflate(value)
        ok = ok and quotient.coeffs == (1,)
    report_line(2, ok, f"exact equality and full spectrum division at {GRID}")


def test_criterion_3_signless_formula_exact(model_graphs):
    ok = True
    for k, p in GRID:
        computed = char_poly_exact(matrix_of(model_graphs[(k, p)], "signless"))
        claimed = signless_charpoly_formula(k, p).expand().monic_normalized()
        ok = ok and computed == claimed
    report_line(3, ok, f"exact equality after sign normalization at {GRID}")


def test_criterion_4_counting_identities(model_graphs):
    ok = True
    for k, p in GRID:
        g = model_graphs[(k, p)]
        mp = ModelParameters(k, p)
        ok = ok and g.n == 2 ** (k + 1) * p
        ok = ok and edge_count(g) == 2 ** (k - 2) * p * (5 + 2 ** (k + 1) * p)
        m = edge_count(g)
        ok = ok and np.trace(matrix_of(g, "adjacency").rows) == 0
        ok = ok and np.trace(matrix_of(g, "laplacian").rows) == 2 * m
        ok = ok and np.trace(matrix_of(g, "signless").rows) == 2 * m
        ok = ok and mp.model_edge_count == m and mp.vertex_count == g.n
    report_line(4, ok, f"n, m, and trace identities exact at {GRID}")


def test_criterion_5_radius_bracket(model_graphs):
    ok = True
    notes = []
    for k, p in [(2, 3), (2, 5)]:
        q = 2**k * p
        lam1 = symmetric_eigenvalues(_matrix_array(model_graphs[(k, p)], "adjacency")).radius
        bounds = spectral_radius_bounds(k, p, float(q - 1))
        tol = TOL * max(1.0, lam1)
        ok = ok and bounds.lower < lam1 <= bounds.upper_shifted_radical + tol
        notes.append(
            f"(k={k},p={p}): {bounds.lower:.6g} < {lam1:.6f} <= "
            f"shifted {bounds.upper_shifted_radical:.6f} "
            f"[plain variant {bounds.upper_plain_radical:.6f}, "
            f"margin {bounds.upper_shifted_radical - lam1:.4f}]"
        )
    report_line(5, ok, "; ".join(notes))


def test_criterion_6_split_part_spectra():
    _, star_part, rest_part = map(_unpack, split_parts(SemidihedralType(2, 3)))
    star = symmetric_eigenvalues(star_part).eigenvalues
    root = math.sqrt(12)
    expected = [-root] + [0.0] * 22 + [root]
    star_ok = max(abs(a - b) for a, b in zip(star, expected)) <= TOL
    rest_peak = symmetric_eigenvalues(rest_part).eigenvalues[-1]
    claimed_peak = (1 + math.sqrt(1 + 24)) / 2
    rest_ok = abs(rest_peak - claimed_peak) <= TOL
    ok = star_ok and rest_ok
    report_line(
        6,
        ok,
        f"star spectrum +-sqrt(12) with 0^22, rest peak {rest_peak:.12f} "
        f"vs claimed {claimed_peak} at (2,3), tol 1e-9",
    )


def test_criterion_7_energy_investigation(full_reports):
    ok = True
    triples = []
    for k, p in GRID:
        mp = ModelParameters(k, p)
        spectrum = laplacian_spectrum_formula(k, p)
        claimed = laplacian_energy_formula(k, p)
        with_mult = laplacian_energy(spectrum, mp.model_edge_count, mp.vertex_count, True)
        without = laplacian_energy(spectrum, mp.model_edge_count, mp.vertex_count, False)
        triples.append(f"(k={k},p={p}): formula {claimed}, with-mult {with_mult}, distinct {without}")
        report = full_reports[(k, p)]
        check = next(c for c in report.checks if c.name == "laplacian-energy")
        ok = ok and check.claimed == str(claimed)
        ok = ok and check.computed == str(with_mult)
        ok = ok and check.detail["without_multiplicity"] == str(without)
        expected_status = "pass" if claimed == with_mult else "mismatch-reported"
        ok = ok and check.status == expected_status
        ok = ok and report.counts()["fail"] == 0
        ok = ok and isinstance(with_mult, Fraction) and isinstance(without, Fraction)
    report_line(7, ok, "; ".join(triples))


def test_criterion_8_model_vs_true_divergence(model_graphs, true_graphs):
    model, true = model_graphs[(2, 3)], true_graphs[(2, 3)]
    diff = graph_diff(model, true)
    # brute-force edge count of the power graph of Z_12 by subgroup arithmetic
    q = 12
    cyclic_edges = sum(
        1
        for x in range(q)
        for y in range(x + 1, q)
        if y % math.gcd(x, q) == 0 or x % math.gcd(y, q) == 0
    )
    expected = math.comb(q, 2) - cyclic_edges
    inside = all(x.a == 0 and y.a == 0 for x, y in diff)
    agree_off_rotations = all(
        model.has_edge(i, j) == true.has_edge(i, j)
        for i in range(model.n)
        for j in range(i + 1, model.n)
        if model.labels[i].a == 1
        or model.labels[j].a == 1
        or model.labels[i].b == 0
        or model.labels[j].b == 0
    )
    ok = bool(diff) and inside and len(diff) == expected and agree_off_rotations
    report_line(
        8,
        ok,
        f"{len(diff)} differing edges inside the rotation subgroup, "
        f"expected C({q},2) - {cyclic_edges} = {expected}; "
        f"full agreement on edges meeting the flips and the identity",
    )


def test_criterion_9_property_suites(model_graphs, true_graphs):
    rng = random.Random(20260819)

    # group axioms, exhaustive at orders 24 and 48
    axioms_ok = True
    for k, p in [(2, 3), (3, 3)]:
        spec = SemidihedralType(k, p)
        els = elements(spec)
        e = identity(spec)
        seen = set(els)
        axioms_ok = axioms_ok and len(seen) == spec.order
        for x in els:
            axioms_ok = (
                axioms_ok
                and multiply(spec, x, e) == x
                and multiply(spec, e, x) == x
                and multiply(spec, x, inverse(spec, x)) == e
            )
        for x in els:
            for y in els:
                xy = multiply(spec, x, y)
                if xy not in seen:
                    axioms_ok = False
                for z in els:
                    if multiply(spec, xy, z) != multiply(spec, x, multiply(spec, y, z)):
                        axioms_ok = False
                        break

    # rank-one-update determinant closed form, exhaustive for n <= 8
    det_ok = True
    for n in range(2, 9):
        for x in range(-3, 4):
            for y in range(-3, 4):
                rows = [[x if i == j else y for j in range(n)] for i in range(n)]
                det = kernels.det_bareiss(rows)
                det_ok = det_ok and det == (x + (n - 1) * y) * (x - y) ** (n - 1)

    # Weyl inequality on 100 random symmetric pairs
    weyl_ok = True
    for _ in range(100):
        n = rng.randint(2, 8)
        a = np.zeros((n, n))
        b = np.zeros((n, n))
        for i in range(n):
            for j in range(i, n):
                a[i, j] = a[j, i] = rng.randint(-4, 4)
                b[i, j] = b[j, i] = rng.randint(-4, 4)
        la = symmetric_eigenvalues(a).eigenvalues[-1]
        lb = symmetric_eigenvalues(b).eigenvalues[-1]
        lab = symmetric_eigenvalues(a + b).eigenvalues[-1]
        weyl_ok = weyl_ok and lab <= la + lb + TOL * max(1.0, abs(la) + abs(lb))

    # the two exact charpoly routes agree on every suite matrix (orders <= 64)
    routes_ok = True
    biggest = 0
    for k, p in GRID:
        for g in (model_graphs[(k, p)], true_graphs[(k, p)]):
            for kind in ("adjacency", "laplacian", "signless"):
                m = matrix_of(g, kind)
                biggest = max(biggest, m.n)
                routes_ok = routes_ok and char_poly_exact(m) == char_poly_leverrier(m)
    for _ in range(10):
        n = rng.randint(1, 6)
        m = IntMatrix.from_rows(
            [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        )
        routes_ok = routes_ok and char_poly_exact(m) == char_poly_leverrier(m)

    ok = axioms_ok and det_ok and weyl_ok and routes_ok
    report_line(
        9,
        ok,
        f"axioms exhaustive (n=24,48): {axioms_ok}; "
        f"rank-one det n<=8: {det_ok}; weyl x100: {weyl_ok}; "
        f"charpoly routes agree up to n={biggest}: {routes_ok}",
    )
