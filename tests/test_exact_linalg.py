import collections
import enum
import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from powspec import exact_linalg, kernels
from powspec.exact_linalg import (
    CAP_ENV_VAR,
    FactoredPolynomial,
    IntMatrix,
    IntPolynomial,
    MatrixCapExceeded,
    char_poly_exact,
    char_poly_leverrier,
    det_exact,
    matrix_of,
    poly_x,
    schur_charpoly_check,
)
from powspec.formulas import (
    adjacency_charpoly_formula,
    laplacian_charpoly_formula,
    signless_charpoly_formula,
)
from powspec.powergraph import Graph, build_model_graph, build_power_graph
from powspec.group_core import Cyclic, GroupElement, SemidihedralType
from powspec.verify_cli import run_verification


def det_cofactor(rows):
    """Independent oracle: Laplace expansion along the first row."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_cofactor(minor)
    return total


def random_int_matrix(rng, n, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def blow_up(base, sizes, diag, off):
    """Index I of base becomes a class of sizes[I] indices, with diag[I] on
    the diagonal, off[I] between two members and base[I][J] towards J."""
    cls = [i for i, s in enumerate(sizes) for _ in range(s)]
    return [
        [
            (diag[a] if x == y else off[a]) if a == b else base[a][b]
            for y, b in enumerate(cls)
        ]
        for x, a in enumerate(cls)
    ]


def permuted(rows, perm):
    """P M P^T for the permutation sending index i to perm[i]."""
    n = len(rows)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = rows[i][j]
    return out


def schoolbook_product(f, g):
    """Reference product of two trimmed ascending coefficient tuples: the
    schoolbook double loop."""
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return tuple(out)


def schoolbook_expand(scalar, factors):
    """Reference for scalar * prod base ** e: one schoolbook product per
    factor taken."""
    acc = (scalar,) if scalar else ()
    for base, e in factors:
        for _ in range(e):
            acc = schoolbook_product(acc, base)
    return acc


# Entries far beyond int64 must be reduced before they meet numpy.
HUGE = 2**70

small_polys = st.builds(
    IntPolynomial.from_coeffs,
    st.lists(st.integers(-50, 50), max_size=6),
)

signed_ints = st.one_of(
    st.integers(-50, 50),
    st.sampled_from((HUGE, -HUGE, HUGE - 1, 1 - HUGE, 127, -128, 2**15)),
)
# zero, constants and signed coefficients up to +-2^70
signed_polys = st.builds(IntPolynomial.from_coeffs, st.lists(signed_ints, max_size=6))


class TestIntMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            IntMatrix(((1, 2),))

    def test_rejects_non_int_entries(self):
        with pytest.raises(ValueError):
            IntMatrix(((True,),))

    @pytest.mark.parametrize(
        "bad", (True, 1.0, np.int64(1), "3"), ids=("bool", "float", "int64", "str")
    )
    def test_rejects_non_int_entries_among_ints(self, bad):
        for build in (IntMatrix, IntMatrix.from_rows):
            for row in ((bad, 2), (2, bad)):
                with pytest.raises(ValueError, match="must be ints"):
                    build((row, (3, 4)))
                with pytest.raises(ValueError, match="must be ints"):
                    build(((3, 4), row))

    def test_accepts_int_subclasses_other_than_bool(self):
        class Level(enum.IntEnum):
            LOW = 1
            HIGH = 7

        m = IntMatrix(((Level.LOW, 0), (2, Level.HIGH)))
        assert m.trace() == 8

    @pytest.mark.parametrize(
        "a",
        (
            np.eye(2),
            np.eye(2, dtype=bool),
            np.zeros((2, 3), np.int64),
            np.zeros(3, np.int64),
            np.zeros((2, 2, 2), np.int64),
        ),
        ids=("float", "bool", "non-square", "1-d", "3-d"),
    )
    def test_from_array_rejects_non_integer_or_non_square(self, a):
        with pytest.raises(ValueError, match="square integer array"):
            IntMatrix.from_array(a)

    @pytest.mark.parametrize("dtype", (np.int8, np.int64, np.uint8, np.uint64))
    def test_from_array_holds_python_ints(self, dtype):
        m = IntMatrix.from_array(np.array([[0, 1], [2, 3]], dtype))
        assert m == IntMatrix(((0, 1), (2, 3)))
        assert {type(v) for row in m.rows for v in row} == {int}
        assert IntMatrix.from_array(np.zeros((0, 0), dtype)) == IntMatrix(())

    def test_identity_zeros_trace(self):
        assert IntMatrix.identity(3).trace() == 3
        assert IntMatrix.zeros(3).trace() == 0
        assert IntMatrix.identity(0).rows == ()

    def test_transpose(self):
        m = IntMatrix.from_rows([[1, 2], [3, 4]])
        assert m.transpose().rows == ((1, 3), (2, 4))

    def test_add(self):
        a = IntMatrix.from_rows([[1, 0], [0, 1]])
        b = IntMatrix.from_rows([[0, 2], [3, 0]])
        assert (a + b).rows == ((1, 2), (3, 1))
        with pytest.raises(ValueError):
            a + IntMatrix.identity(3)


class TestDeterminant:
    def test_examples(self):
        assert det_exact(IntMatrix.identity(5)) == 1
        assert det_exact(IntMatrix.from_rows([[2, 3], [4, 5]])) == -2
        assert det_exact(IntMatrix.from_rows([[0, 1], [1, 0]])) == -1
        assert det_exact(IntMatrix.from_rows([[1, 2], [2, 4]])) == 0
        assert det_exact(IntMatrix(())) == 1

    def test_zero_pivot_needs_row_swap(self):
        m = IntMatrix.from_rows([[0, 2, 1], [3, 0, 0], [1, 1, 1]])
        assert det_exact(m) == det_cofactor(m.to_lists())

    def test_zero_pivot_at_step_one_or_two_swaps_rows(self):
        # a zero first pivot, and a zero pivot that only appears at step 2
        for rows in ([[0, 2, 1], [2, 0, 3], [1, 3, 1]], [[1, 1, 0], [1, 1, 2], [0, 2, 5]]):
            assert det_exact(IntMatrix.from_rows(rows)) == det_cofactor(rows)

    def test_against_cofactor_oracle(self):
        rng = random.Random(20260819)
        for _ in range(30):
            n = rng.randint(1, 6)
            rows = random_int_matrix(rng, n, -9, 9)
            assert det_exact(IntMatrix.from_rows(rows)) == det_cofactor(rows)
        for trial in range(45):
            n = rng.randint(1, 6)
            pool = (-HUGE, HUGE) if trial % 3 == 1 else ()
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    rows[i][j] = rows[j][i] = rng.choice(pool + (rng.randint(-9, 9),))
            if trial % 3 == 2:
                # zero diagonal entries, the first always: a zero pivot
                for i in range(n):
                    if i == 0 or rng.random() < 0.5:
                        rows[i][i] = 0
            assert det_exact(IntMatrix.from_rows(rows)) == det_cofactor(rows)

    def test_rank_one_update_formula(self):
        # constant diagonal x, constant off-diagonal y
        for n in range(2, 9):
            for x in range(-3, 4):
                for y in range(-3, 4):
                    m = IntMatrix.from_rows(
                        [[x if i == j else y for j in range(n)] for i in range(n)]
                    )
                    assert det_exact(m) == (x + (n - 1) * y) * (x - y) ** (n - 1)

    def test_rank_one_update_spec_point(self):
        m = IntMatrix.from_rows([[3 if i == j else 1 for j in range(4)] for i in range(4)])
        assert det_exact(m) == 48

    def test_block_diagonal_product(self):
        rng = random.Random(7)
        for _ in range(20):
            na, nb = rng.randint(1, 4), rng.randint(1, 4)
            a = random_int_matrix(rng, na)
            b = random_int_matrix(rng, nb)
            block = [row + [0] * nb for row in a] + [[0] * na + row for row in b]
            assert det_exact(IntMatrix.from_rows(block)) == det_exact(
                IntMatrix.from_rows(a)
            ) * det_exact(IntMatrix.from_rows(b))


class TestCharPoly:
    def test_identity(self):
        assert char_poly_exact(IntMatrix.identity(3)).coeffs == (-1, 3, -3, 1)

    def test_k3_adjacency(self):
        m = IntMatrix.from_rows([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        assert char_poly_exact(m).coeffs == (-2, -3, 0, 1)

    def test_zero_matrix(self):
        assert char_poly_exact(IntMatrix.zeros(4)).coeffs == (0, 0, 0, 0, 1)

    def test_empty_matrix(self):
        assert char_poly_exact(IntMatrix(())).coeffs == (1,)

    def test_trace_and_det_coefficients(self):
        rng = random.Random(99)
        for _ in range(15):
            n = rng.randint(1, 6)
            m = IntMatrix.from_rows(random_int_matrix(rng, n))
            poly = char_poly_exact(m)
            assert poly.is_monic and poly.degree == n
            assert poly.coeffs[n - 1] == -m.trace()
            assert poly.coeffs[0] == (-1) ** n * det_exact(m)

    def test_two_routes_agree_random(self):
        rng = random.Random(4242)
        for _ in range(20):
            n = rng.randint(1, 6)
            m = IntMatrix.from_rows(random_int_matrix(rng, n, -7, 7))
            assert char_poly_exact(m) == char_poly_leverrier(m)
        for _ in range(10):
            n = rng.randint(1, 6)
            rows = [
                [rng.choice((-HUGE, HUGE, rng.randint(-7, 7))) for _ in range(n)]
                for _ in range(n)
            ]
            m = IntMatrix.from_rows(rows)
            assert char_poly_exact(m) == char_poly_leverrier(m)

    def test_two_routes_agree_on_power_graphs(self):
        for q in (6, 9, 12):
            g = build_power_graph(Cyclic(q))
            for kind in ("adjacency", "laplacian", "signless"):
                m = matrix_of(g, kind)
                assert char_poly_exact(m) == char_poly_leverrier(m)

    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.lists(
                st.lists(
                    st.integers(-6, 6) | st.sampled_from((-HUGE, HUGE)),
                    min_size=n,
                    max_size=n,
                ),
                min_size=n,
                max_size=n,
            )
        )
    )
    @settings(deadline=None, max_examples=60)
    def test_two_routes_agree_property(self, rows):
        m = IntMatrix.from_rows(rows)
        assert char_poly_exact(m) == char_poly_leverrier(m)

    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")

        def sympy_charpoly(m):
            coeffs = sympy.Matrix(m.to_lists()).charpoly(x).all_coeffs()
            return tuple(int(c) for c in reversed(coeffs))

        rng = random.Random(31)
        for _ in range(12):
            m = IntMatrix.from_rows(random_int_matrix(rng, rng.randint(1, 10), -9, 9))
            assert char_poly_exact(m).coeffs == sympy_charpoly(m)
        for q in (6, 9, 12):
            g = build_power_graph(Cyclic(q))
            for kind in ("adjacency", "laplacian", "signless"):
                m = matrix_of(g, kind)
                assert char_poly_exact(m).coeffs == sympy_charpoly(m)

    def test_point_cross_check_fires_on_a_wrong_coefficient(self, monkeypatch):
        # The constant term off by one changes the value at x0 by one; the
        # point check must refuse it.
        berkowitz = kernels.charpoly_berkowitz

        def off_by_one(rows):
            coeffs = berkowitz(rows)
            coeffs[0] += 1
            return coeffs

        monkeypatch.setattr(kernels, "charpoly_berkowitz", off_by_one)
        m = IntMatrix.from_rows([[2**40, 3], [5, -(2**40)]])
        with pytest.raises(ArithmeticError, match="disagrees"):
            char_poly_exact(m)
        # Twin-rich: the wrong polynomial is the 2 x 2 quotient's, and the
        # point check, which runs on that quotient, must still catch it.
        adjacency = blow_up([[0, 1], [1, 0]], sizes=(3, 4), diag=(0, 0), off=(1, 0))
        m = graph_matrix(adjacency, 2**40, [2**40] * 3 + [-(2**40)] * 4)
        assert dense_quotient(m)[0].n == 2
        with pytest.raises(ArithmeticError, match="disagrees"):
            char_poly_exact(m)

    def test_berkowitz_kernel_equals_leverrier(self):
        def check(rows):
            assert kernels.charpoly_berkowitz(rows) == kernels.charpoly_leverrier(rows)

        check([])
        check([[HUGE]])
        rng = random.Random(1984)
        for n in range(2, 15):
            check([[rng.randint(-HUGE, HUGE) for _ in range(n)] for _ in range(n)])
        # the leading 1 x 1 and 2 x 2 blocks are singular
        check([[0, 1, 2, 3], [4, 0, 0, 5], [6, 0, 0, 7], [8, 9, 10, 11]])
        # the largest quotient of the family past the cap: (7, 3), n = 768
        laplacian = matrix_of(build_power_graph(SemidihedralType(7, 3)), "laplacian")
        quotient = dense_quotient(laplacian)[0]
        assert quotient.n == 18
        check(quotient.to_lists())

    @pytest.mark.parametrize("k", (2, 3))
    def test_one_berkowitz_call_per_charpoly_on_the_quotient(self, monkeypatch, k):
        # Berkowitz costs about c^4 / 4 multiplications on c cells, so it
        # must see the final quotient only, never M.
        orders = []
        real = kernels.charpoly_berkowitz

        def spy(rows):
            orders.append(len(rows))
            return real(rows)

        monkeypatch.setattr(kernels, "charpoly_berkowitz", spy)
        model = build_model_graph(k, 3)
        true = build_power_graph(SemidihedralType(k, 3))
        for kind in ("adjacency", "laplacian", "signless"):
            for graph, want in ((model, 5), (true, 2 * k + 4)):
                orders.clear()
                char_poly_exact(matrix_of(graph, kind))
                assert orders == [want], kind
        # a twin-free matrix is its own quotient
        orders.clear()
        char_poly_exact(IntMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 10]]))
        assert orders == [3]

    @pytest.mark.parametrize("k", (2, 3))
    def test_one_bareiss_call_per_charpoly_on_the_quotient(self, monkeypatch, k):
        orders = []
        real = kernels.det_bareiss

        def spy(rows):
            orders.append(len(rows))
            return real(rows)

        monkeypatch.setattr(kernels, "det_bareiss", spy)
        model = build_model_graph(k, 3)
        true = build_power_graph(SemidihedralType(k, 3))
        for kind in ("adjacency", "laplacian", "signless"):
            for graph, want in ((model, 5), (true, 2 * k + 4)):
                orders.clear()
                char_poly_exact(matrix_of(graph, kind))
                assert orders == [want], kind
        # a twin-free matrix is its own quotient
        orders.clear()
        char_poly_exact(IntMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 10]]))
        assert orders == [3]


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


def nested_blow_up(rng, base, pool):
    """A blow-up of a blow-up: every index of the first blow-up becomes a
    class of its own, with one size, diagonal and off-diagonal value per
    first-level class, the off-diagonal value differing from the first
    level's.  Only the second-level classes are twins at first, so the
    quotient takes at least two collapses."""
    k = len(base)
    sizes = [rng.randint(1, 3) for _ in range(k)]
    off = [rng.choice((0, rng.choice(pool))) for _ in range(k)]
    inner = blow_up(base, sizes, [rng.choice(pool) for _ in range(k)], off)
    cls = [i for i, s in enumerate(sizes) for _ in range(s)]
    size2 = [rng.randint(2, 3) for _ in range(k)]
    diag2 = [rng.choice(pool) for _ in range(k)]
    off2 = [off[i] + rng.choice((1, -1)) * rng.randint(1, 9) for i in range(k)]
    return blow_up(
        inner,
        [size2[i] for i in cls],
        [diag2[i] for i in cls],
        [off2[i] for i in cls],
    )


def random_blow_up(rng, trial):
    """A randomly permuted (nested) blow-up of a random k x k base, and k.

    Trials cycle through symmetric and non-symmetric bases, small and
    +-2^70 entries, and one- and two-level blow-ups; class off-diagonal
    values are 0 (open twins) or not (closed twins) at random."""
    k = rng.randint(1, 4)
    pool = (-HUGE, HUGE, 3 * HUGE + 1) if trial % 4 in (1, 2) else tuple(range(-9, 10))
    base = [[rng.choice(pool) for _ in range(k)] for _ in range(k)]
    if trial % 2 == 0:
        base = [[base[min(i, j)][max(i, j)] for j in range(k)] for i in range(k)]
    if trial % 3 == 0:
        rows = nested_blow_up(rng, base, pool)
    else:
        sizes = [rng.randint(1, 4) for _ in range(k)]
        diag = [rng.choice(pool) for _ in range(k)]
        off = [rng.choice((0, rng.choice(pool))) for _ in range(k)]
        rows = blow_up(base, sizes, diag, off)
    return permuted(rows, rng.sample(range(len(rows)), len(rows))), k


class TestNonGraphInputs:
    """A matrix that is not graph-shaped goes whole to Berkowitz, with the
    Bareiss point check, however many twins it has."""

    @pytest.mark.parametrize(
        "rows",
        [
            pytest.param([[0, 1, 1], [0, 0, 1], [1, 1, 0]], id="asymmetric pattern"),
            pytest.param([[0, 1, 1], [1, 0, 2], [1, 2, 0]], id="two off-diagonal values"),
            pytest.param([[2**63, 1, 1], [1, 0, 1], [1, 1, 0]], id="an entry of 2^63"),
            pytest.param([[0, 1, -(2**63) - 1], [1, 0, 1], [1, 1, 0]], id="an entry below int64"),
            pytest.param([[5]], id="n = 1"),
            pytest.param([], id="n = 0"),
        ],
    )
    def test_non_graph_matrices_skip_the_twin_levels(self, monkeypatch, rows):
        certified = spy_twin_levels(monkeypatch)
        m = IntMatrix.from_rows(rows)
        assert exact_linalg._graph_rows(m) is None
        assert char_poly_exact(m) == char_poly_leverrier(m)
        assert certified == []

    def test_random_blow_ups_agree_with_leverrier(self, monkeypatch):
        certified = spy_twin_levels(monkeypatch)
        rng = random.Random(20261018)
        for trial in range(60):
            rows, _ = random_blow_up(rng, trial)
            m = IntMatrix.from_rows(rows)
            assert char_poly_exact(m) == char_poly_leverrier(m)
        # only a few small-entry blow-ups are graph-shaped
        assert len(certified) <= 10

    def test_random_blow_ups_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        rng = random.Random(1018)
        for trial in range(12):
            rows, _ = random_blow_up(rng, trial)
            coeffs = sympy.Matrix(rows).charpoly(x).all_coeffs()
            want = tuple(int(c) for c in reversed(coeffs))
            assert char_poly_exact(IntMatrix.from_rows(rows)).coeffs == want

    def test_row_twins_that_are_not_column_twins(self):
        # Rows 0 and 1 agree off the pair, and columns 0 and 1 hold the same
        # values, but column 0 reads (y, z) below where column 1 reads (z, y).
        rng = random.Random(77)
        for _ in range(10):
            a, c, x2, x3, y, z, p, q, r, t = rng.sample(range(-50, 50), 10)
            rows = [[a, c, x2, x3], [c, a, x2, x3], [y, z, p, q], [z, y, r, t]]
            m = IntMatrix.from_rows(permuted(rows, rng.sample(range(4), 4)))
            assert char_poly_exact(m) == char_poly_leverrier(m)


KINDS = ("adjacency", "laplacian", "signless")


def family_matrices(k, p):
    """(label, matrix) for both constructions of G(k, p) and all three kinds."""
    model, true = build_model_graph(k, p), build_power_graph(SemidihedralType(k, p))
    for construction, graph in (("model", model), ("true", true)):
        for kind in KINDS:
            yield f"{construction}/{kind}", matrix_of(graph, kind)


def charpoly_digest(pairs, dense=False):
    """sha256 over repr(char_poly_exact(M).coeffs) + newline, for the six
    matrices of every pair in turn: matrix_of's, or with dense, an
    IntMatrix of the same rows, which carries no graph."""
    digest = hashlib.sha256()
    for k, p in pairs:
        for _, m in family_matrices(k, p):
            m = IntMatrix(m.rows) if dense else m
            digest.update((repr(char_poly_exact(m).coeffs) + "\n").encode())
    return digest.hexdigest()


# sha256 of charpoly_digest([(k, p)]) per pair, computed by the dense twin
# search of earlier versions; the past-the-cap pairs with the cap at 512
PINNED_CHARPOLYS = {
    (2, 3): "cc7b742d6201b11adce4b68d1e5d927ddedab1bbe23e723c20cea9753439af8e",
    (2, 5): "77247e25a0bc4b45f52c1a9ed4112e5e2610d20f32eb3a026de0a1081ce4833d",
    (2, 7): "24a34f3dd8336e6c0dcc29febd9d2a6600572210a98db7c65a60714baaed6d2c",
    (2, 11): "e9e40df830ca55b5da0d5cb7b3bb96ce7253163518d3d222e796c4bc3b706386",
    (2, 13): "389c8d7f0cee3139703bb6b595d95b1e71647bc1db2b822a36323c8076271f7a",
    (2, 17): "c553309a0f2646b8a5de358570bf2b96ca8644999e8463fbd050404d0ca8c51a",
    (2, 19): "7eaa7d37c9a1d97827d9b37b84303d2981fa935610fd081ab60898458d60a855",
    (2, 23): "a49ea8c06b027630dc6d97b714bff59f571c313c49f2a0bee6007953ff75812c",
    (2, 29): "ee9ae5326f03049945f60039fdf5716f0ebf71d67e79cce8dc0df26a4eacf105",
    (2, 31): "01c307bfbb5dc73d0bdf227aeae5c60d6fd970802f29e0aed2830677039f26e6",
    (3, 3): "8e24c8ecbdb6910d5e32231dbe204ceaf42173f227ed94746151bdb2d3507457",
    (3, 5): "2685172c6c888f1032c403d3d712654fe8c0fd704d193be2f05ca8ee21f81d34",
    (3, 7): "d32608a74675860fb054b5d86e2d72caa2ac3f3c86599b80e9799f397160677f",
    (3, 11): "0d2c7aae6f1e2dde7ac1d730da3c55098b0621197db99e8d0402a2ecaa3bbd1d",
    (3, 13): "2b539297dfd46e1549fc2fe2da64477dcf9223ddd6c01550e79288aaf65b1755",
    (4, 3): "745f78b6174ce76a54841a1af01ef73174856b243e5d79086063ed9d31d063cd",
    (4, 5): "8c1a263bc5a5cc11766c2aef4210f43d0024499eab35367138d6a555053a7cd9",
    (4, 7): "6defd149663e86fcf08aae7b3984f9bc83e5f31b5ccf1e8415b8fc5c9f508f31",
    (5, 3): "d97a62d402282f119891b502344f57e2de9a5de2470eae77508fa422bda98a9b",
}

PINNED_PAST_THE_CAP = {
    (6, 3): "1a432b2378197d3c3baab5e67e1579e0a23edfe1e27d02d78e91ddbd5040935c",
    (3, 31): "2d893371e9c1fadab3516e66bf4fc938cd1ce5f92ba9d3aa62dba3a41a31323b",
}


def spy_twin_levels(monkeypatch):
    """A list that gets the number of merges of each reduction that passes
    the per-kind step of the twin certificate, _twin_quotient."""
    certified = []
    real = exact_linalg._twin_quotient

    def spy(twins, *args):
        result = real(twins, *args)
        certified.append(len(twins[2]))
        return result

    monkeypatch.setattr(exact_linalg, "_twin_quotient", spy)
    return certified


def count_calls(monkeypatch, *names):
    """A Counter of the calls to the named exact_linalg functions."""
    calls = collections.Counter()
    for name in names:
        real = getattr(exact_linalg, name)

        def spy(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(exact_linalg, name, spy)
    return calls


def graph_matrix(adjacency, w=1, diagonal=None):
    """diag(D) + w A for 0/1 rows A, D the degrees when not given."""
    n = len(adjacency)
    if diagonal is None:
        diagonal = [sum(row) for row in adjacency]
    return IntMatrix.from_rows(
        [[diagonal[i] if i == j else w * adjacency[i][j] for j in range(n)] for i in range(n)]
    )


def adjacency_of(n, edges):
    rows = [[0] * n for _ in range(n)]
    for i, j in edges:
        rows[i][j] = rows[j][i] = 1
    return rows


def graph_of(adjacency):
    """A Graph on 0/1 rows, its vertices labelled by the cyclic group."""
    labels = tuple(GroupElement(0, b) for b in range(len(adjacency)))
    return Graph(labels, tuple(sum(bit << j for j, bit in enumerate(row)) for row in adjacency))


def finder_input(m):
    """The (R, D, w) char_poly_exact keys _twin_levels on: for a matrix of
    matrix_of, its graph's rows with the adjacency's D = 0 and w = 1, and
    _graph_rows(m) for any other."""
    source = getattr(m, "_source", None)
    if source is None:
        return exact_linalg._graph_rows(m)
    graph = source[0]
    return [graph.row_mask(i) for i in range(graph.n)], [0] * graph.n, 1


def twin_levels_of(m):
    """finder_input(m) and _twin_levels' (cells, merges, K) on it."""
    found = finder_input(m)
    return found, exact_linalg._twin_levels(*found)


def dense_quotient(m):
    """(B, roots) of the dense route: _graph_rows, the finder, both halves
    of the certificate."""
    rows, diagonal, w = exact_linalg._graph_rows(m)
    return exact_linalg._twin_quotient(exact_linalg._proved_twins(rows, diagonal, w), diagonal, w)


def above_level_1(merges):
    """The merges with a member of two or more indices."""
    return [members for members in merges if max(map(len, members)) > 1]


# K_3 on 0..2 (closed twins), the star with centre 3 and leaves 4, 5
# (open twins), and the isolated vertices 6, 7 (open twins, R = 0)
MIXED_TWINS = adjacency_of(8, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5)])
# the path 0-1-2-3 has no twins of either type
PATH_4 = adjacency_of(4, [(0, 1), (1, 2), (2, 3)])
# the star K_(1,3): leaves 1, 2, 3 are open twins
STAR_3 = adjacency_of(4, [(0, 1), (0, 2), (0, 3)])
# K_5: one cell of closed twins
K_5 = adjacency_of(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
# K_2 and K_3, apart
K_2_K_3 = adjacency_of(5, [(0, 1), (2, 3), (2, 4), (3, 4)])


def nested_graph_blow_up(rng, w, diagonal):
    """diag(D) + w A, A a randomly permuted blow-up of a blow-up of a
    random graph on k >= 2 vertices: vertex i becomes a class of s1 indices,
    each of which becomes a class of s2, with open or closed links drawn
    per vertex and level.  D is 0, the degrees, or random per vertex i.
    When the two levels' links differ, the first-level classes of i are
    only twins of each other once the second-level ones are merged."""
    k = rng.randint(2, 4)
    base = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            base[i][j] = base[j][i] = rng.randint(0, 1)
    s1 = [rng.randint(1, 3) for _ in range(k)]
    inner = blow_up(base, s1, [0] * k, [rng.randint(0, 1) for _ in range(k)])
    first = [i for i, s in enumerate(s1) for _ in range(s)]
    s2 = [rng.randint(1, 2) for _ in range(k)]
    links2 = [rng.randint(0, 1) for _ in range(k)]
    adjacency = blow_up(
        inner,
        [s2[i] for i in first],
        [0] * len(first),
        [links2[i] for i in first],
    )
    vertex = [i for i in first for _ in range(s2[i])]
    n = len(adjacency)
    if diagonal == "random":
        values = [rng.randint(-3, 3) for _ in range(k)]
        diagonal = [values[i] for i in vertex]
    elif diagonal == "zero":
        diagonal = [0] * n
    perm = rng.sample(range(n), n)
    if diagonal is not None:
        diagonal = [d for _, d in sorted(zip(perm, diagonal))]
    return graph_matrix(permuted(adjacency, perm), w, diagonal)


def honest_counts(rows, cells):
    """K read off the heads' rows for the given cells."""
    masks = [sum(1 << v for v in cell) for cell in cells]
    return [[(rows[cell[0]] & mask).bit_count() for mask in masks] for cell in cells]


def rename_groups(merges, cells, target, grown):
    """merges and cells with merges[target]'s members replaced by grown,
    and every later group holding the old union holding the new one."""
    union = exact_linalg._union
    renamed, out = {}, []
    for t, members in enumerate(merges):
        members = tuple(sorted(renamed.get(g, g) for g in members))
        if t == target:
            members = grown
        new = union(members)
        old = union(merges[t])
        if new != old:
            renamed[old] = new
        out.append(members)
    return out, sorted(renamed.get(c, c) for c in cells)


def _corrupt_twin_levels(corruption, level, rows, found):
    """A wrong _twin_levels result, of one of the kinds its certificate
    must refuse, placed on a merge (or cell) of the given level: 1 for a
    merge of singletons, 2 for one above them."""
    cells, merges, counts = found
    union = exact_linalg._union
    upper = above_level_1(merges)
    pick = upper if level == 2 else [members for members in merges if members not in upper]
    target = merges.index(pick[-1])
    members = merges[target]
    cell = next(c for c in cells if set(union(members)) <= set(c))
    if corruption == "wrong K entry":
        counts = [list(row) for row in counts]
        counts[cells.index(cell)][-1] += 1
    elif corruption == "non-twin merged":
        # a singleton cell joins the merge; K is read off the new cells
        # honestly, so only the twin checks can see it
        stray = next(c for c in cells if len(c) == 1)
        grown = tuple(sorted(members + (stray,)))
        merges, cells = rename_groups(merges, [c for c in cells if c != stray], target, grown)
        counts = honest_counts(rows, cells)
    elif corruption == "merge missing":
        merges = merges[:target] + merges[target + 1 :]
    elif corruption == "member repeated":
        merges = merges[:target] + [members + members[:1]] + merges[target + 1 :]
    elif corruption == "cell missing":
        # K read off the remaining cells honestly, so only the replay can see it
        cells = [c for c in cells if c != cell]
        counts = honest_counts(rows, cells)
    elif corruption == "shuffled cells":
        # every cell present, but two out of the order of the rows of K
        i = cells.index(cell)
        j = (i + 1) % len(cells)
        cells = list(cells)
        cells[i], cells[j] = cells[j], cells[i]
    else:
        raise AssertionError(corruption)
    return cells, merges, counts


# each corruption and the certificate's error it meets
CORRUPTIONS = {
    "wrong K entry": "K is wrong",
    "non-twin merged": "not twins",
    "merge missing": "cells are not what the merges leave|not of distinct current groups",
    "member repeated": "not of distinct current groups",
    "cell missing": "cells are not what the merges leave",
    "shuffled cells": "K is wrong",
}


def must_not_run(rows):
    raise AssertionError("a kernel ran: the certificate let a bad reduction through")


def refuse_on(monkeypatch, m, found, error):
    """char_poly_exact(m) with _twin_levels returning found must raise the
    certificate's error before Berkowitz or Bareiss runs."""
    monkeypatch.setattr(exact_linalg, "_twin_levels", lambda rows, diagonal, w: found)
    monkeypatch.setattr(kernels, "charpoly_berkowitz", must_not_run)
    monkeypatch.setattr(kernels, "det_bareiss", must_not_run)
    with pytest.raises(ArithmeticError, match=f"^twin certificate: .*({error})"):
        char_poly_exact(m)


class TestTwinLevels:
    @pytest.mark.parametrize("k, p", PAIRS_UNDER_CAP)
    def test_pinned_charpolys_on_the_family(self, monkeypatch, k, p):
        certified = spy_twin_levels(monkeypatch)
        assert charpoly_digest([(k, p)]) == PINNED_CHARPOLYS[k, p]
        assert len(certified) == 6 and min(certified) > 0

    @pytest.mark.parametrize("k, p", list(PINNED_PAST_THE_CAP))
    def test_pinned_charpolys_past_the_cap(self, monkeypatch, k, p):
        monkeypatch.setenv(CAP_ENV_VAR, "512")
        assert 2 ** (k + 1) * p > exact_linalg.DEFAULT_MATRIX_CAP
        certified = spy_twin_levels(monkeypatch)
        assert charpoly_digest([(k, p)]) == PINNED_PAST_THE_CAP[k, p]
        assert len(certified) == 6 and min(certified) > 0

    @pytest.mark.parametrize("k, p", PAIRS_UNDER_CAP)
    def test_quotient_sizes_on_the_family(self, k, p):
        for label, m in family_matrices(k, p):
            want = 5 if label.startswith("model") else 2 * k + 4
            for found in (exact_linalg._graph_rows(m), finder_input(m)):
                cells, merges, counts = exact_linalg._twin_levels(*found)
                assert len(cells) == len(counts) == want, label
                # the flip pairs of order-four elements merge above level 1
                assert above_level_1(merges), label

    def test_closed_and_open_twins_by_hand(self):
        # K_3: one class with d = 0, c = 1, so B = (0 + 2*1) and root 0 - 1 twice
        k3 = IntMatrix.from_rows([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        _, found = twin_levels_of(k3)
        assert found == ([(0, 1, 2)], [((0,), (1,), (2,))], [[2]])
        assert dense_quotient(k3) == (IntMatrix.from_rows([[2]]), {-1: 2})
        # star K_(1,3): the leaves are open twins (c = 0); B_(centre, leaves) = 3 * 1
        star = graph_matrix(STAR_3, 1, [0] * 4)
        _, found = twin_levels_of(star)
        assert found == ([(0,), (1, 2, 3)], [((1,), (2,), (3,))], [[0, 3], [1, 0]])
        assert dense_quotient(star) == (IntMatrix.from_rows([[0, 3], [1, 0]]), {0: 2})

    def test_isolated_vertices_and_both_twin_types(self, monkeypatch):
        rows, (cells, merges, counts) = twin_levels_of(graph_matrix(MIXED_TWINS, 1, [0] * 8))
        assert rows[0][6] == rows[0][7] == 0
        assert cells == [(0, 1, 2), (3,), (4, 5), (6, 7)]
        assert merges == [((0,), (1,), (2,)), ((4,), (5,)), ((6,), (7,))]
        assert counts == [[2, 0, 0, 0], [0, 0, 2, 0], [0, 1, 0, 0], [0, 0, 0, 0]]
        proof = exact_linalg._check_twin_structure(rows[0], cells, merges, counts)
        assert proof == [([0, 1, 2], [0, 0, 0], 1), ([4, 5], [0, 0], 0), ([6, 7], [0, 0], 0)]
        # the Laplacian: K_3 and the isolated pair both have row sum 0 and
        # nothing outside, so they merge at level 2 though their sizes differ
        _, (cells, merges, _) = twin_levels_of(graph_matrix(MIXED_TWINS, -1))
        assert cells == [(0, 1, 2, 6, 7), (3,), (4, 5)]
        assert merges[-1] == ((0, 1, 2), (6, 7))
        # K_5 has one cell, so np.add.reduceat sums over a single start
        m = graph_matrix(K_5, -1)
        _, (cells, merges, counts) = twin_levels_of(m)
        assert cells == [(0, 1, 2, 3, 4)] and counts == [[4]]
        assert merges == [((0,), (1,), (2,), (3,), (4,))]
        assert dense_quotient(m) == (IntMatrix.from_rows([[0]]), {5: 4})
        certified = spy_twin_levels(monkeypatch)
        for adjacency in (MIXED_TWINS, K_5):
            n = len(adjacency)
            for w in (1, -1):
                for diagonal in ([0] * n, None):
                    m = graph_matrix(adjacency, w, diagonal)
                    assert char_poly_exact(m) == char_poly_leverrier(m)
        assert certified == [3, 3, 3, 4, 1, 1, 1, 1]

    def test_laplacian_of_k2_and_k3_is_one_cell(self):
        # the two components are modules of sizes 2 and 3 with row sum 0
        # and nothing outside: open twins of unequal size, merged at level 2
        m = graph_matrix(K_2_K_3, -1)
        _, (cells, merges, _) = twin_levels_of(m)
        assert cells == [(0, 1, 2, 3, 4)]
        assert merges == [((0,), (1,)), ((2,), (3,), (4,)), ((0, 1), (2, 3, 4))]
        assert dense_quotient(m) == (IntMatrix.from_rows([[0]]), {2: 1, 3: 2, 0: 1})
        # x (x - 2) * x (x - 3)^2
        assert char_poly_exact(m).coeffs == (0, 0, -18, 21, -8, 1)
        assert char_poly_exact(m) == char_poly_leverrier(m)
        # the graph route keys on the adjacency, where the two differ in
        # row sum, so its Laplacian keeps them apart, to the same polynomial
        laplacian = matrix_of(graph_of(K_2_K_3), "laplacian")
        assert laplacian == m and len(twin_levels_of(laplacian)[1][0]) == 2
        assert char_poly_exact(laplacian) == char_poly_exact(m)

    def test_twin_free_graphs_are_their_own_quotient(self, monkeypatch):
        # paths, and cycles past C_4, have no twins of either type
        graphs = [PATH_4] + [
            adjacency_of(n, [(i, (i + 1) % n) for i in range(n)]) for n in range(5, 10)
        ]
        matrices = [graph_matrix(adjacency, w) for adjacency in graphs for w in (1, -1)]
        for m in matrices:
            cells, merges, _ = twin_levels_of(m)[1]
            assert merges == [] and cells == [(i,) for i in range(m.n)]
            assert dense_quotient(m) == (m, {})
        certified = spy_twin_levels(monkeypatch)
        for m in matrices:
            assert char_poly_exact(m) == char_poly_leverrier(m)
        assert certified == [0] * len(matrices)

    # w = 2^62 fits int64, but w K in B does not: B is formed on Python ints
    @pytest.mark.parametrize("w", (2, -3, 2**62))
    def test_weighted_graphs_against_leverrier_and_sympy(self, monkeypatch, w):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        certified = spy_twin_levels(monkeypatch)
        rng = random.Random(w)
        graphs = [MIXED_TWINS, STAR_3] + [
            [[(a >> j) & 1 for j in range(g.n)] for a in map(g.row_mask, range(g.n))]
            for g in (build_power_graph(Cyclic(q)) for q in (6, 9, 12))
        ]
        for adjacency in graphs:
            degrees = [sum(row) for row in adjacency]
            # twins have equal degrees, so the first is constant on the classes
            for diagonal in (
                [7 - 2 * d for d in degrees],
                [rng.randint(-3, 3) for _ in degrees],
            ):
                m = graph_matrix(adjacency, w, diagonal)
                want = char_poly_leverrier(m)
                assert char_poly_exact(m) == want
                coeffs = sympy.Matrix(m.to_lists()).charpoly(x).all_coeffs()
                assert want.coeffs == tuple(int(c) for c in reversed(coeffs))
        # every graph has twins when the diagonal is constant on its classes
        assert sum(map(bool, certified)) >= len(graphs)

    def test_random_graph_blow_ups_against_leverrier(self, monkeypatch):
        certified = spy_twin_levels(monkeypatch)
        rng = random.Random(1019)
        for trial in range(40):
            k = rng.randint(1, 5)
            base = [[0] * k for _ in range(k)]
            for i in range(k):
                for j in range(i + 1, k):
                    base[i][j] = base[j][i] = rng.randint(0, 1)
            sizes = [rng.randint(1, 4) for _ in range(k)]
            # each class is open (0) or closed (1) at random
            adjacency = blow_up(base, sizes, [0] * k, [rng.randint(0, 1) for _ in range(k)])
            n = len(adjacency)
            adjacency = permuted(adjacency, rng.sample(range(n), n))
            # adjacency, laplacian, signless
            for w, diagonal in ((1, [0] * n), (-1, None), (1, None)):
                m = graph_matrix(adjacency, w, diagonal)
                assert char_poly_exact(m) == char_poly_leverrier(m)
            # the same three through one Graph: found and proved once
            g = graph_of(adjacency)
            for kind in KINDS:
                m = matrix_of(g, kind)
                assert char_poly_exact(m) == char_poly_leverrier(m)
        assert sum(map(bool, certified)) >= 120

    @pytest.mark.parametrize("w", (1, -1, 2, -3))
    def test_nested_graph_blow_ups_against_leverrier(self, monkeypatch, w):
        levels = []
        real = exact_linalg._twin_levels
        monkeypatch.setattr(
            exact_linalg, "_twin_levels", lambda *g: levels.append(real(*g)) or levels[-1]
        )
        rng = random.Random(20261019 + w)
        for trial in range(30):
            for diagonal in ("zero", None, "random"):
                m = nested_graph_blow_up(rng, w, diagonal)
                assert char_poly_exact(m) == char_poly_leverrier(m)
        assert len(levels) == 90
        # a third or more merge above level 1
        assert sum(bool(above_level_1(merges)) for _, merges, _ in levels) >= 30

    def test_the_factored_core_holds_the_roots_of_every_level(self, monkeypatch):
        m = matrix_of(build_power_graph(SemidihedralType(2, 3)), "laplacian")
        coeffs, roots = exact_linalg._char_poly_factored(m)
        assert len(coeffs) == 2 * 2 + 4 + 1 and sum(roots.values()) == m.n - 8
        rest = char_poly_leverrier(m)
        for root, e in roots.items():
            for _ in range(e):
                rest = rest.deflate(root)
        assert rest.coeffs == tuple(coeffs)
        products = []
        real = exact_linalg._kronecker_product
        monkeypatch.setattr(
            exact_linalg, "_kronecker_product", lambda *a: products.append(a) or real(*a)
        )
        assert char_poly_exact(m) == char_poly_leverrier(m)
        assert len(products) == 1

    @staticmethod
    def corruption_inputs():
        # two matrices of matrix_of, on a fresh graph each time, so that the
        # graph route finds them, and one dense
        yield matrix_of(build_power_graph(SemidihedralType(2, 3)), "adjacency")
        yield matrix_of(build_model_graph(2, 3), "laplacian")
        # the star's leaves merge at level 1, the K_3 and the isolated pair
        # above it
        yield graph_matrix(MIXED_TWINS, -3, [6, 6, 6, 0, 3, 3, 0, 0])

    @pytest.mark.parametrize("level", (1, 2))
    @pytest.mark.parametrize("corruption", CORRUPTIONS)
    def test_wrong_reductions_are_refused(self, monkeypatch, corruption, level):
        for m in self.corruption_inputs():
            found, levels = twin_levels_of(m)
            assert above_level_1(levels[1])
            with monkeypatch.context() as patch:
                bad = _corrupt_twin_levels(corruption, level, found[0], levels)
                refuse_on(patch, m, bad, CORRUPTIONS[corruption])
        for m in self.corruption_inputs():
            char_poly_exact(m)  # the honest reduction still passes

    def test_structural_twins_of_unequal_row_sum_are_refused_per_kind(self, monkeypatch):
        # K_3 and the isolated pair of MIXED_TWINS: one outside row (none),
        # no links, and open, so any sizes; the inner counts are 2 and 0
        cells = [(0, 1, 2, 6, 7), (3,), (4, 5)]
        merges = [((0,), (1,), (2,)), ((4,), (5,)), ((6,), (7,)), ((0, 1, 2), (6, 7))]
        g = graph_of(MIXED_TWINS)
        rows = [g.row_mask(i) for i in range(g.n)]
        found = (cells, merges, honest_counts(rows, cells))
        exact_linalg._check_twin_structure(rows, *found)
        # the adjacency (b = 2 and 0) and signless Laplacian (4 and 0)
        # refuse the merge, through the graph route and the dense one
        for kind in ("adjacency", "signless"):
            for m in (matrix_of(graph_of(MIXED_TWINS), kind), matrix_of(g, kind)):
                with monkeypatch.context() as patch:
                    refuse_on(patch, IntMatrix(m.rows), found, "differ in row sum")
                with monkeypatch.context() as patch:
                    refuse_on(patch, m, found, "differ in row sum")
        # for the Laplacian both row sums are 0: the merge is sound, and the
        # structure the graph kept gives the right polynomial
        laplacian = matrix_of(g, "laplacian")
        assert char_poly_exact(laplacian) == char_poly_leverrier(laplacian)
        # a star leaf with another diagonal, on the dense route
        m = graph_matrix(STAR_3, 1, [0, 1, 1, 2])
        _, (cells, _, _) = twin_levels_of(m)
        assert cells == [(0,), (1, 2), (3,)]
        cells = [(0,), (1, 2, 3)]
        found = (cells, [((1,), (2,), (3,))], honest_counts(finder_input(m)[0], cells))
        refuse_on(monkeypatch, m, found, "differ in row sum")

    def test_closed_groups_of_unequal_size_are_refused(self, monkeypatch):
        # K_5 with D = (1, 1, 0, 0, 0): the closed groups (0, 1) and (2, 3, 4)
        # share the row sum 2 and have nothing outside, but 1_G0 - 1_G1 is no
        # eigenvector, as their sizes differ
        m = graph_matrix(K_5, 1, [1, 1, 0, 0, 0])
        (rows, _, _), (_, merges, _) = twin_levels_of(m)
        assert merges == [((0,), (1,)), ((2,), (3,), (4,))]
        merges = merges + [((0, 1), (2, 3, 4))]
        cells = [(0, 1, 2, 3, 4)]
        refuse_on(monkeypatch, m, (cells, merges, honest_counts(rows, cells)), "unequal size")

    def test_a_merge_mixing_open_and_closed_members_is_refused(self, monkeypatch):
        # 0 ~ 1, and 2 apart: one row sum and nothing outside for all three
        m = graph_matrix(adjacency_of(3, [(0, 1)]), 1, [0, 0, 0])
        (rows, _, _), _ = twin_levels_of(m)
        cells = [(0, 1, 2)]
        found = (cells, [((0,), (1,), (2,))], honest_counts(rows, cells))
        refuse_on(monkeypatch, m, found, "not twins")


class TestGraphRoute:
    """A matrix of matrix_of takes its twin quotient from its graph: found
    and proved on the graph's bit rows once per graph, and certified per
    matrix kind."""

    @pytest.mark.parametrize("k, p", PAIRS_UNDER_CAP)
    def test_the_graph_route_equals_the_dense_route(self, k, p):
        for label, m in family_matrices(k, p):
            assert char_poly_exact(IntMatrix(m.rows)) == char_poly_exact(m), label
        assert charpoly_digest([(k, p)], dense=True) == PINNED_CHARPOLYS[k, p]

    @pytest.mark.parametrize("k, p", list(PINNED_PAST_THE_CAP))
    def test_the_graph_route_equals_the_dense_route_past_the_cap(self, monkeypatch, k, p):
        monkeypatch.setenv(CAP_ENV_VAR, "512")
        assert charpoly_digest([(k, p)], dense=True) == PINNED_PAST_THE_CAP[k, p]

    def test_the_record_is_outside_the_dataclass_fields(self):
        g = build_model_graph(2, 3)
        m = matrix_of(g, "laplacian")
        plain = IntMatrix(m.rows)
        assert m._source == (g, "laplacian") and not hasattr(plain, "_source")
        assert m == plain and hash(m) == hash(plain) and repr(m) == repr(plain)

    def test_one_run_finds_and_proves_once_per_graph(self, monkeypatch):
        calls = count_calls(
            monkeypatch, "_twin_levels", "_check_twin_structure", "_twin_quotient", "_graph_rows"
        )
        run_verification(2, 3)
        assert calls == {"_twin_levels": 2, "_check_twin_structure": 2, "_twin_quotient": 6}
        calls.clear()
        run_verification(2, 3, kinds=())
        assert calls == {}

    def test_a_fresh_graph_with_the_same_rows_recomputes(self, monkeypatch):
        calls = count_calls(monkeypatch, "_twin_levels", "_check_twin_structure")
        first = build_power_graph(SemidihedralType(2, 3))
        for kind in KINDS:
            char_poly_exact(matrix_of(first, kind))
        assert calls == {"_twin_levels": 1, "_check_twin_structure": 1}
        second = build_power_graph(SemidihedralType(2, 3))
        assert second == first and second._twins is None
        want = char_poly_exact(matrix_of(first, "signless"))
        assert char_poly_exact(matrix_of(second, "signless")) == want
        assert calls == {"_twin_levels": 2, "_check_twin_structure": 2}

    def test_small_graphs_go_whole_to_berkowitz(self, monkeypatch):
        calls = count_calls(monkeypatch, "_twin_levels", "_twin_quotient")
        for n in (0, 1):
            g = graph_of([[0] * n for _ in range(n)])
            for kind in KINDS:
                m = matrix_of(g, kind)
                assert char_poly_exact(m) == char_poly_leverrier(m)
        assert calls == {}


class TestMatrixCap:
    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setenv(CAP_ENV_VAR, "4")
        with pytest.raises(MatrixCapExceeded):
            det_exact(IntMatrix.identity(5))
        with pytest.raises(MatrixCapExceeded):
            char_poly_exact(IntMatrix.identity(5))
        with pytest.raises(MatrixCapExceeded):
            char_poly_leverrier(IntMatrix.identity(5))
        assert det_exact(IntMatrix.identity(4)) == 1

    def test_invalid_cap_value(self, monkeypatch):
        monkeypatch.setenv(CAP_ENV_VAR, "not-a-number")
        with pytest.raises(ValueError):
            det_exact(IntMatrix.identity(2))
        monkeypatch.setenv(CAP_ENV_VAR, "0")
        with pytest.raises(ValueError):
            det_exact(IntMatrix.identity(2))


class TestIntPolynomial:
    def test_from_coeffs_trims(self):
        assert IntPolynomial.from_coeffs([1, 2, 0, 0]).coeffs == (1, 2)
        assert IntPolynomial.from_coeffs([0, 0]).coeffs == ()

    def test_rejects_untrimmed(self):
        with pytest.raises(ValueError):
            IntPolynomial((1, 0))

    def test_degree_and_leading(self):
        assert IntPolynomial(()).degree == -1
        assert poly_x().degree == 1 and poly_x().leading == 1
        with pytest.raises(ValueError):
            IntPolynomial(()).leading

    def test_evaluation(self):
        f = IntPolynomial.from_coeffs((-1, 0, 1))  # x^2 - 1
        assert f(3) == 8 and f(-1) == 0 and f(0) == -1

    def test_arithmetic(self):
        f = IntPolynomial.from_coeffs((1, 1))
        g = IntPolynomial.from_coeffs((-1, 1))
        assert (f * g).coeffs == (-1, 0, 1)
        assert (f + g).coeffs == (0, 2)
        assert (f - f).coeffs == ()
        assert (f**2).coeffs == (1, 2, 1)
        assert (3 * f).coeffs == (3, 3)
        assert (-f).coeffs == (-1, -1)
        with pytest.raises(ValueError):
            f ** -1

    def test_deflate(self):
        f = IntPolynomial.from_coeffs((2, -3, 1))  # (x-1)(x-2)
        assert f.deflate(2).coeffs == (-1, 1)
        assert f.deflate(1).coeffs == (-2, 1)
        with pytest.raises(ValueError):
            f.deflate(5)
        with pytest.raises(ValueError):
            IntPolynomial(()).deflate(0)

    def test_monic_normalized(self):
        f = IntPolynomial.from_coeffs((1, 2, 1))
        assert f.monic_normalized() is f
        g = IntPolynomial.from_coeffs((3, -2, -1))
        assert g.monic_normalized().coeffs == (-3, 2, 1)
        with pytest.raises(ValueError):
            IntPolynomial.from_coeffs((1, 2)).monic_normalized()

    def test_str(self):
        assert str(IntPolynomial(())) == "0"
        assert str(IntPolynomial.from_coeffs((-384, 161, 166, -30, -10, 1))) == (
            "x^5 - 10*x^4 - 30*x^3 + 166*x^2 + 161*x - 384"
        )
        assert str(poly_x()) == "x"

    @given(small_polys, small_polys, st.integers(-10, 10))
    def test_evaluation_is_ring_homomorphism(self, f, g, x):
        assert (f + g)(x) == f(x) + g(x)
        assert (f * g)(x) == f(x) * g(x)

    @given(small_polys, st.integers(-10, 10))
    def test_deflate_inverts_multiplication(self, f, r):
        if not f.coeffs:
            return
        shifted = f * IntPolynomial.from_coeffs((-r, 1))
        assert shifted.deflate(r) == f


class TestKroneckerKernel:
    @given(signed_polys, signed_polys)
    def test_product_is_the_schoolbook_product(self, f, g):
        assert (f * g).coeffs == schoolbook_product(f.coeffs, g.coeffs)

    @given(signed_polys, st.integers(0, 5))
    def test_power_is_repeated_schoolbook_products(self, f, e):
        assert (f**e).coeffs == schoolbook_expand(1, [(f.coeffs, e)])

    @given(
        signed_ints,
        st.lists(
            st.tuples(signed_polys.filter(lambda f: f.coeffs), st.integers(1, 3)), max_size=4
        ),
    )
    def test_expand_is_the_schoolbook_expansion(self, scalar, factors):
        want = schoolbook_expand(scalar, [(base.coeffs, e) for base, e in factors])
        assert FactoredPolynomial(scalar, tuple(factors)).expand().coeffs == want

    def test_zero_constants_and_exponent_zero(self):
        zero, f = IntPolynomial(()), IntPolynomial.from_coeffs((HUGE, -1, 1))
        assert (zero * f).coeffs == (f * zero).coeffs == (zero * zero).coeffs == ()
        assert (zero**0).coeffs == (f**0).coeffs == (1,)
        assert (zero**3).coeffs == ()
        # constants at the edges of one- and two-byte digits
        for a in (127, -127, 128, -128, 2**15 - 1, -(2**15), HUGE, -HUGE):
            for b in (1, -1, 127, 128, HUGE):
                assert (IntPolynomial((a,)) * IntPolynomial((b,))).coeffs == (a * b,)
            assert (IntPolynomial((a,)) ** 3).coeffs == (a**3,)
            assert (IntPolynomial((a,)) * f).coeffs == schoolbook_product((a,), f.coeffs)

    def test_a_power_of_degree_1024_is_the_binomial_row(self):
        n = 1024
        want = tuple((-1) ** (n - i) * math.comb(n, i) for i in range(n + 1))
        assert (IntPolynomial((-1, 1)) ** n).coeffs == want

    @pytest.mark.parametrize("k, p", PAIRS_UNDER_CAP)
    def test_claimed_expansions_are_the_schoolbook_product(self, k, p):
        for formula in (
            adjacency_charpoly_formula,
            laplacian_charpoly_formula,
            signless_charpoly_formula,
        ):
            claim = formula(k, p)
            want = schoolbook_expand(claim.scalar, [(base.coeffs, e) for base, e in claim.factors])
            assert claim.expand().coeffs == want, formula.__name__


class TestFactoredPolynomial:
    def test_expand(self):
        f = FactoredPolynomial(
            scalar=1, factors=((IntPolynomial.from_coeffs((1, 1)), 2),)
        )
        assert f.expand().coeffs == (1, 2, 1)
        assert f.degree == 2
        assert f(2) == 9

    def test_scalar_and_multiple_factors(self):
        f = FactoredPolynomial(
            scalar=-2,
            factors=(
                (poly_x(), 2),
                (IntPolynomial.from_coeffs((-1, 1)), 1),
            ),
        )
        # -2 * x^2 * (x - 1)
        assert f.expand().coeffs == (0, 0, 2, -2)
        assert f.degree == 3

    def test_str(self):
        f = FactoredPolynomial(scalar=1, factors=((poly_x(), 3),))
        assert str(f) == "(x)^3"

    def test_zero_scalar_expands_to_the_zero_polynomial(self):
        for factors in ((), ((poly_x(), 2), (IntPolynomial.from_coeffs((-1, 1)), 1))):
            f = FactoredPolynomial(scalar=0, factors=factors)
            assert f.expand() == IntPolynomial(())
            assert f(3) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            FactoredPolynomial(scalar=1, factors=((poly_x(), 0),))
        with pytest.raises(ValueError):
            FactoredPolynomial(scalar=1, factors=((IntPolynomial(()), 1),))


def matrix_by_has_edge(graph, kind):
    """Reference builder: one has_edge call per index pair."""
    n = graph.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(graph.degree(i) if kind != "adjacency" else 0)
            elif graph.has_edge(i, j):
                row.append(-1 if kind == "laplacian" else 1)
            else:
                row.append(0)
        rows.append(tuple(row))
    return IntMatrix(tuple(rows))


class TestMatrixOf:
    def test_kinds(self):
        g = build_power_graph(Cyclic(2))
        assert matrix_of(g, "adjacency").rows == ((0, 1), (1, 0))
        assert matrix_of(g, "laplacian").rows == ((1, -1), (-1, 1))
        assert matrix_of(g, "signless").rows == ((1, 1), (1, 1))
        with pytest.raises(ValueError):
            matrix_of(g, "incidence")
        with pytest.raises(ValueError, match="unknown matrix kind"):
            exact_linalg._matrix_array(g, "incidence")

    @pytest.mark.parametrize("construction", ["model", "true"])
    def test_array_trace_is_the_matrix_trace(self, construction, model_graphs, true_graphs):
        graphs = model_graphs if construction == "model" else true_graphs
        for g in graphs.values():
            for kind in ("adjacency", "laplacian", "signless"):
                got = int(exact_linalg._matrix_array(g, kind).trace())
                assert got == matrix_of(g, kind).trace(), (g.n, kind)

    @pytest.mark.parametrize("construction", ["model", "true"])
    def test_diagonal_is_the_array_diagonal(self, construction, model_graphs, true_graphs):
        graphs = model_graphs if construction == "model" else true_graphs
        for g in graphs.values():
            for kind in ("adjacency", "laplacian", "signless"):
                diagonal = exact_linalg._matrix_diagonal(g, kind)
                assert np.array_equal(exact_linalg._matrix_array(g, kind).diagonal(), diagonal)

    def test_laplacian_and_signless_from_adjacency(self, model_graphs):
        g = model_graphs[(2, 3)]
        a = matrix_of(g, "adjacency")
        lap = matrix_of(g, "laplacian")
        sig = matrix_of(g, "signless")
        n = g.n
        for i in range(n):
            for j in range(n):
                d = g.degree(i) if i == j else 0
                assert lap.rows[i][j] == d - a.rows[i][j]
                assert sig.rows[i][j] == d + a.rows[i][j]
        assert a.trace() == 0
        assert lap.trace() == sig.trace() == 174

    def test_matches_the_has_edge_reference(self):
        graphs = [build_model_graph(2, 5), build_power_graph(SemidihedralType(2, 3))]
        # orders on both sides of the byte and word widths of the packed rows
        graphs += [build_power_graph(Cyclic(q)) for q in (1, 2, 7, 8, 9, 12, 30, 64, 65)]
        for g in graphs:
            for kind in ("adjacency", "laplacian", "signless"):
                assert matrix_of(g, kind) == matrix_by_has_edge(g, kind), (g.n, kind)

    @pytest.mark.parametrize("k, p", PAIRS_UNDER_CAP)
    def test_lazy_rows_read_as_the_eager_matrix(self, k, p):
        for label, m in family_matrices(k, p):
            graph, kind = m._source
            eager = IntMatrix.from_array(exact_linalg._matrix_array(graph, kind))
            assert "rows" not in vars(m) and m.n == eager.n == graph.n, label
            assert hash(m) == hash(eager) and "rows" in vars(m), label
            assert m.rows == eager.rows and repr(m) == repr(eager), label
            fresh = matrix_of(graph, kind)
            assert fresh == eager and eager == fresh, label
            assert matrix_of(graph, kind) == fresh, label

    def test_the_graph_route_leaves_the_rows_unwritten(self):
        for label, m in family_matrices(2, 3):
            char_poly_exact(m)
            assert "rows" not in vars(m), label
        g = build_model_graph(2, 3)
        with pytest.raises(AttributeError, match="no attribute 'cols'"):
            matrix_of(g, "adjacency").cols
        with pytest.raises(AttributeError, match="no attribute 'rows'"):
            object.__new__(IntMatrix).rows


class TestSchurCheck:
    def test_zero_off_diagonal_blocks(self):
        rng = random.Random(13)
        for _ in range(10):
            n = rng.randint(1, 3)
            a = IntMatrix.from_rows(random_int_matrix(rng, n))
            d = IntMatrix.from_rows(random_int_matrix(rng, n))
            z = IntMatrix.zeros(n)
            outcome = schur_charpoly_check(a, z, z, d, range(-4, 5))
            assert outcome.passed

    def test_random_blocks(self):
        rng = random.Random(20260819)
        for _ in range(50):
            blocks = [
                IntMatrix.from_rows(random_int_matrix(rng, 3)) for _ in range(4)
            ]
            outcome = schur_charpoly_check(*blocks, points=range(-3, 4))
            assert outcome.passed
            assert outcome.checked_points

    def test_singular_point_skipped(self):
        a = IntMatrix.from_rows([[1]])
        z = IntMatrix.zeros(1)
        d = IntMatrix.zeros(1)
        outcome = schur_charpoly_check(a, z, z, d, (0, 1))
        assert outcome.checked_points == (1,)
        assert outcome.skipped_points == (0,)
        assert outcome.passed

    def test_all_points_singular(self):
        a = IntMatrix.from_rows([[1]])
        z = IntMatrix.zeros(1)
        d = IntMatrix.zeros(1)
        with pytest.raises(ValueError):
            schur_charpoly_check(a, z, z, d, (0,))

    def test_order_zero_has_nothing_to_verify(self):
        e = IntMatrix(())
        with pytest.raises(ValueError, match="nothing to verify"):
            schur_charpoly_check(e, e, e, e, [0])

    def test_rejects_mismatched_blocks(self):
        with pytest.raises(ValueError):
            schur_charpoly_check(
                IntMatrix.identity(2),
                IntMatrix.identity(2),
                IntMatrix.identity(2),
                IntMatrix.identity(3),
                (1,),
            )
