import enum
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
from powspec.powergraph import build_model_graph, build_power_graph
from powspec.group_core import Cyclic, SemidihedralType


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
        base = [[2**40, 3], [5, -(2**40)]]
        m = IntMatrix.from_rows(blow_up(base, sizes=(3, 4), diag=(2**40, -(2**40)), off=(7, 0)))
        assert exact_linalg._twin_quotient(m)[0].n == 2
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
        b1 = exact_linalg._first_level(*exact_linalg._graph_rows(laplacian))[0]
        quotient = exact_linalg._twin_quotient(b1)[0]
        assert quotient.n == 18
        check(quotient.to_lists())

    @pytest.mark.parametrize("k", (2, 3))
    def test_one_berkowitz_call_per_charpoly_on_the_quotient(self, monkeypatch, k):
        # Berkowitz costs about c^4 / 4 multiplications on c cells, so it
        # must see the final quotient only, never M or B1.
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


def twin_classes_by_definition(rows):
    """Oracle for _twin_collapse, O(n^3) from the definition: the smallest
    c with twins of type c, and their classes, or None.

    i and j are twins of type c when M_ii = M_jj and row i and column i
    with entry i set to c equal row j and column j with entry j set to c.
    Entry j of that row equation reads M_ij = c, so each pair is tested
    for its one possible c."""
    n = len(rows)
    rows = [list(r) for r in rows]
    cols = [list(c) for c in zip(*rows)]

    def set_entry(vec, t, c):
        return vec[:t] + [c] + vec[t + 1 :]

    twins: dict[int, list[tuple[int, int]]] = {}
    for i in range(n):
        for j in range(i + 1, n):
            c = rows[i][j]
            if (
                rows[i][i] == rows[j][j]
                and set_entry(rows[i], i, c) == set_entry(rows[j], j, c)
                and set_entry(cols[i], i, c) == set_entry(cols[j], j, c)
            ):
                twins.setdefault(c, []).append((i, j))
    if not twins:
        return None
    c = min(twins)
    partners: dict[int, list[int]] = {}
    for i, j in twins[c]:
        partners.setdefault(i, [i]).append(j)
    classes, seen = [], set()
    for i in sorted(partners):
        if i not in seen:
            classes.append(partners[i])
            seen.update(partners[i])
    return c, sorted(classes)


def random_derangement(rng, n):
    while True:
        perm = rng.sample(range(n), n)
        if all(perm[i] != i for i in range(n)):
            return perm


def one_bucket_matrix(rng, n, pool):
    """d I + sum of w (P + P^T) over three random derangements P, each
    w != 0 drawn from pool: symmetric, with d on the diagonal and every
    row and column summing to d + 2 sum(w).  So every index shares one
    (diagonal, row sum, column sum) bucket, though the rows are mostly
    not permutations of each other."""
    d = rng.choice(pool)
    rows = [[d if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3):
        w = rng.choice([v for v in pool if v])
        for i, j in enumerate(random_derangement(rng, n)):
            rows[i][j] += w
            rows[j][i] += w
    return rows


class TestTwinQuotient:
    def test_twin_collapse_matches_the_definition_at_every_level(self, monkeypatch):
        real = exact_linalg._twin_collapse
        calls = []

        def checked(rows):
            got = real(rows)
            assert got == twin_classes_by_definition(rows)
            calls.append(got)
            return got

        monkeypatch.setattr(exact_linalg, "_twin_collapse", checked)
        rng = random.Random(20261019)
        for trial in range(40):
            rows, _ = random_blow_up(rng, trial)
            exact_linalg._twin_quotient(IntMatrix.from_rows(rows))
        assert sum(found is not None for found in calls) >= 40

    def test_one_bucket_is_split_by_the_exact_key(self):
        rng = random.Random(1019)
        mixed = collapsed = 0
        for trial in range(30):
            pool = (-HUGE, HUGE, 7) if trial % 3 == 0 else tuple(range(-4, 5))
            base = one_bucket_matrix(rng, rng.randint(4, 7), pool)
            # a uniform blow-up keeps a single bucket and plants twin classes
            s, diag, off = rng.randint(1, 3), rng.choice(pool), rng.choice(pool)
            rows = blow_up(base, [s] * len(base), [diag] * len(base), [off] * len(base))
            rows = permuted(rows, rng.sample(range(len(rows)), len(rows)))
            cols = list(zip(*rows))
            keys = {(rows[i][i], sum(rows[i]), sum(cols[i])) for i in range(len(rows))}
            assert len(keys) == 1
            mixed += len({tuple(sorted(r)) for r in rows}) > 1
            found = exact_linalg._twin_collapse([tuple(r) for r in rows])
            assert found == twin_classes_by_definition(rows)
            collapsed += found is not None
            m = IntMatrix.from_rows(rows)
            assert char_poly_exact(m) == char_poly_leverrier(m)
        # most buckets hold rows that are not permutations of each other
        assert mixed >= 20 and collapsed >= 10

    def test_regular_cycles_have_no_twins(self):
        # every index in one bucket, and no two rows equal up to the swap
        for n in range(5, 10):
            rows = [tuple(int((i - j) % n in (1, n - 1)) for j in range(n)) for i in range(n)]
            assert exact_linalg._twin_collapse(rows) is None
            assert twin_classes_by_definition(rows) is None

    def test_twin_free_matrix_is_its_own_quotient(self):
        m = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
        assert exact_linalg._twin_quotient(m) == (m, [(0,), (1,), (2,)], [])
        assert exact_linalg._twin_quotient(IntMatrix(())) == (IntMatrix(()), [], [])

    def test_closed_and_open_twins_by_hand(self):
        # K_3: one class with d = 0, c = 1, so B = (0 + 2*1) and root 0 - 1 twice
        k3 = IntMatrix.from_rows([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        assert exact_linalg._twin_quotient(k3) == (
            IntMatrix.from_rows([[2]]),
            [(0, 1, 2)],
            [(((0,), (1,), (2,)), -1)],
        )
        # star K_(1,3): the leaves are open twins (c = 0); B_(centre, leaves) = 3 * 1
        star = IntMatrix.from_rows([[0, 1, 1, 1], [1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]])
        assert exact_linalg._twin_quotient(star) == (
            IntMatrix.from_rows([[0, 3], [1, 0]]),
            [(0,), (1, 2, 3)],
            [(((1,), (2,), (3,)), 0)],
        )

    def test_order_four_flip_pairs_take_two_collapses(self):
        # (2, 3) model adjacency: one closed-twin collapse leaves the three
        # flip pairs as separate indices; the open-twin collapse joins them.
        m = matrix_of(build_model_graph(2, 3), "adjacency")
        c, classes = exact_linalg._twin_collapse(list(m.rows))
        assert c == 0 and len(classes) == 1  # the order-2 flips
        assert exact_linalg._twin_quotient(m)[0].n == 5

    @pytest.mark.parametrize("k, p", PAIRS_UNDER_CAP)
    def test_quotient_sizes_on_the_family(self, k, p):
        model = build_model_graph(k, p)
        true = build_power_graph(SemidihedralType(k, p))
        for kind in ("adjacency", "laplacian", "signless"):
            assert exact_linalg._twin_quotient(matrix_of(model, kind))[0].n == 5, kind
            assert exact_linalg._twin_quotient(matrix_of(true, kind))[0].n == 2 * k + 4, kind

    def test_random_blow_ups_agree_with_leverrier(self):
        rng = random.Random(20261018)
        for trial in range(60):
            rows, k = random_blow_up(rng, trial)
            m = IntMatrix.from_rows(rows)
            quotient, cells, merges = exact_linalg._twin_quotient(m)
            assert quotient.n <= k
            assert quotient.n + sum(len(members) - 1 for members, _ in merges) == m.n
            assert sorted(i for cell in cells for i in cell) == list(range(m.n))
            assert char_poly_exact(m) == char_poly_leverrier(m)

    def test_random_blow_ups_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        rng = random.Random(1018)
        for trial in range(12):
            rows, _ = random_blow_up(rng, trial)
            coeffs = sympy.Matrix(rows).charpoly(x).all_coeffs()
            want = tuple(int(c) for c in reversed(coeffs))
            assert char_poly_exact(IntMatrix.from_rows(rows)).coeffs == want

    def test_row_twins_that_are_not_column_twins_stay_apart(self):
        # Rows 0 and 1 agree off the pair, and columns 0 and 1 hold the same
        # values, but column 0 reads (y, z) below where column 1 reads (z, y).
        rng = random.Random(77)
        for _ in range(10):
            a, c, x2, x3, y, z, p, q, r, t = rng.sample(range(-50, 50), 10)
            rows = [[a, c, x2, x3], [c, a, x2, x3], [y, z, p, q], [z, y, r, t]]
            m = IntMatrix.from_rows(permuted(rows, rng.sample(range(4), 4)))
            assert exact_linalg._twin_quotient(m) == (m, [(0,), (1,), (2,), (3,)], [])
            assert char_poly_exact(m) == char_poly_leverrier(m)


def _corrupt(corruption, quotient, cells, merges):
    """A wrong _twin_quotient result, of one of the kinds the certificate
    must refuse."""
    rows = [list(r) for r in quotient.rows]
    if corruption == "root off by one":
        members, r = merges[0]
        merges = [(members, r + 1)] + merges[1:]
    elif corruption == "B entry off by one":
        rows[0][-1] += 1
    elif corruption == "two cells merged":
        cells = [tuple(sorted(cells[0] + cells[1]))] + cells[2:]
    elif corruption == "cell missing":
        # B shrunk to match, so only the partition check can see it
        cells = cells[:-1]
        rows = [r[:-1] for r in rows[:-1]]
    elif corruption == "merge repeated":
        merges = merges + [merges[-1]]
    else:
        raise AssertionError(corruption)
    return IntMatrix.from_rows(rows), cells, merges


CORRUPTIONS = (
    "root off by one",
    "B entry off by one",
    "two cells merged",
    "cell missing",
    "merge repeated",
)


class TestTwinCertificate:
    @staticmethod
    def certificate_inputs():
        true = build_power_graph(SemidihedralType(2, 3))
        yield matrix_of(true, "adjacency")
        yield matrix_of(build_model_graph(2, 3), "laplacian")
        rng = random.Random(8)
        base = [[HUGE, 3, -7], [5, -HUGE, 2], [1, 1, 3 * HUGE + 1]]
        rows = blow_up(base, (3, 1, 4), (HUGE, 2, -1), (7, 0, -HUGE))
        yield IntMatrix.from_rows(permuted(rows, rng.sample(range(8), 8)))
        symmetric = [[base[min(i, j)][max(i, j)] for j in range(3)] for i in range(3)]
        rows = nested_blow_up(rng, symmetric, (-HUGE, HUGE, 5))
        yield IntMatrix.from_rows(permuted(rows, rng.sample(range(len(rows)), len(rows))))

    def test_holds_on_power_graphs_and_blow_ups(self):
        rng = random.Random(808)
        matrices = list(self.certificate_inputs())
        matrices += [IntMatrix.from_rows(random_blow_up(rng, t)[0]) for t in range(12)]
        for m in matrices:
            exact_linalg._check_twin_certificate(m, *exact_linalg._twin_quotient(m))

    @pytest.mark.parametrize("corruption", CORRUPTIONS)
    def test_wrong_reductions_are_refused_by_the_certificate(self, monkeypatch, corruption):
        real = exact_linalg._twin_quotient

        def bareiss_must_not_run(rows):
            raise AssertionError("the lift check ran: the certificate let a bad reduction through")

        monkeypatch.setattr(
            exact_linalg, "_twin_quotient", lambda m: _corrupt(corruption, *real(m))
        )
        monkeypatch.setattr(kernels, "det_bareiss", bareiss_must_not_run)
        for m in self.certificate_inputs():
            quotient, cells, merges = real(m)
            assert len(cells) >= 2 and merges
            with pytest.raises(ArithmeticError, match="twin certificate"):
                char_poly_exact(m)

    def test_shuffled_cells_are_refused(self, monkeypatch):
        # every cell present, but not in the order of the indices of B
        real = exact_linalg._twin_quotient

        def shuffled(m):
            quotient, cells, merges = real(m)
            return quotient, cells[1:] + cells[:1], merges

        monkeypatch.setattr(exact_linalg, "_twin_quotient", shuffled)
        m = matrix_of(build_power_graph(SemidihedralType(2, 3)), "adjacency")
        with pytest.raises(ArithmeticError, match="M P != P B"):
            char_poly_exact(m)

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


KINDS = ("adjacency", "laplacian", "signless")


def family_matrices(k, p):
    """(label, matrix) for both constructions of G(k, p) and all three kinds."""
    model, true = build_model_graph(k, p), build_power_graph(SemidihedralType(k, p))
    for construction, graph in (("model", model), ("true", true)):
        for kind in KINDS:
            yield f"{construction}/{kind}", matrix_of(graph, kind)


def dense_char_poly(monkeypatch, m):
    """char_poly_exact with the first level finding nothing: the dense route."""
    with monkeypatch.context() as patch:
        patch.setattr(exact_linalg, "_first_level", lambda rows, diagonal, w: None)
        return char_poly_exact(m)


def spy_first_level(monkeypatch):
    """A list that gets one entry per certified first level."""
    certified = []
    real = exact_linalg._check_first_level

    def spy(*args):
        real(*args)
        certified.append(args[3].n)

    monkeypatch.setattr(exact_linalg, "_check_first_level", spy)
    return certified


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


# K_3 on 0..2 (closed twins), the star with centre 3 and leaves 4, 5
# (open twins), and the isolated vertices 6, 7 (open twins, R = 0)
MIXED_TWINS = adjacency_of(8, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5)])
# the path 0-1-2-3 has no twins of either type
PATH_4 = adjacency_of(4, [(0, 1), (1, 2), (2, 3)])
# the star K_(1,3): leaves 1, 2, 3 are open twins
STAR_3 = adjacency_of(4, [(0, 1), (0, 2), (0, 3)])
# K_5: one cell of closed twins, so the first level has c1 = 1
K_5 = adjacency_of(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])


def honest_quotient(rows, diagonal, w, cells):
    """B1 read off the representatives' rows for the given cells."""
    masks = [sum(1 << v for v in cell) for cell in cells]
    quotient = []
    for j, cell in enumerate(cells):
        b = [w * (rows[cell[0]] & mask).bit_count() for mask in masks]
        b[j] += diagonal[cell[0]]
        quotient.append(b)
    return IntMatrix.from_rows(quotient)


def _corrupt_first_level(corruption, rows, diagonal, w, level):
    """A wrong _first_level result, of one of the kinds its certificate
    must refuse."""
    quotient, cells, merges = level
    b = [list(r) for r in quotient.rows]
    if corruption == "B1 entry off by one":
        b[0][-1] += 1
    elif corruption == "B1 diagonal off by one":
        b[-1][-1] += 1
    elif corruption == "root off by one":
        members, r = merges[0]
        merges = [(members, r + 1)] + merges[1:]
    elif corruption == "non-twin merged":
        # a merged cell absorbs another cell; B1 is read off the new cells
        # honestly, so only the twin check can see it
        union = exact_linalg._union
        members, r = merges[0]
        cell = union(members)
        other = next(c for c in cells if c != cell)
        joined = tuple(sorted(cell + other))
        cells = sorted([joined] + [c for c in cells if c not in (cell, other)])
        rest = [m for m in merges[1:] if union(m[0]) != other]
        merges = [(tuple((v,) for v in joined), r)] + rest
        return honest_quotient(rows, diagonal, w, cells), cells, merges
    elif corruption == "merge missing":
        merges = merges[1:]
    elif corruption == "cell missing":
        # B1 read off the remaining cells honestly, so only the partition
        # check can see it
        cells = cells[:-1]
        merges = [m for m in merges if exact_linalg._union(m[0]) in cells]
        return honest_quotient(rows, diagonal, w, cells), cells, merges
    else:
        raise AssertionError(corruption)
    return IntMatrix.from_rows(b), cells, merges


FIRST_LEVEL_CORRUPTIONS = (
    "B1 entry off by one",
    "B1 diagonal off by one",
    "root off by one",
    "non-twin merged",
    "merge missing",
    "cell missing",
)


class TestFirstLevel:
    @pytest.mark.parametrize("k, p", PAIRS_UNDER_CAP)
    def test_equals_the_dense_route_on_the_family(self, monkeypatch, k, p):
        certified = spy_first_level(monkeypatch)
        for label, m in family_matrices(k, p):
            assert char_poly_exact(m) == dense_char_poly(monkeypatch, m), label
        assert len(certified) == 6 and max(certified) < 2 ** (k + 1) * p

    # w = 2^62 fits int64, but w K in B1 does not: B1 is formed on Python ints
    @pytest.mark.parametrize("w", (2, -3, 2**62))
    def test_weighted_graphs_against_leverrier_and_sympy(self, monkeypatch, w):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        certified = spy_first_level(monkeypatch)
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
        assert len(certified) >= len(graphs)

    def test_isolated_vertices_and_both_twin_types(self, monkeypatch):
        rows, diagonal, w = exact_linalg._graph_rows(graph_matrix(MIXED_TWINS, 1, [0] * 8))
        assert rows[6] == rows[7] == 0
        quotient, cells, merges = exact_linalg._first_level(rows, diagonal, w)
        assert cells == [(0, 1, 2), (3,), (4, 5), (6, 7)]
        assert merges == [(((0,), (1,), (2,)), -1), (((4,), (5,)), 0), (((6,), (7,)), 0)]
        assert quotient.rows == ((2, 0, 0, 0), (0, 0, 2, 0), (0, 1, 0, 0), (0, 0, 0, 0))
        exact_linalg._check_first_level(rows, diagonal, w, quotient, cells, merges)
        # K_5 has one cell, so np.add.reduceat sums over a single start
        rows, diagonal, w = exact_linalg._graph_rows(graph_matrix(K_5, -1))
        quotient, cells, merges = exact_linalg._first_level(rows, diagonal, w)
        assert cells == [(0, 1, 2, 3, 4)] and quotient.rows == ((0,),)
        assert merges == [(((0,), (1,), (2,), (3,), (4,)), 5)]
        certified = spy_first_level(monkeypatch)
        for adjacency in (MIXED_TWINS, K_5):
            n = len(adjacency)
            for w in (1, -1):
                for diagonal in ([0] * n, None):
                    m = graph_matrix(adjacency, w, diagonal)
                    assert char_poly_exact(m) == char_poly_leverrier(m)
        assert certified == [4] * 4 + [1] * 4

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
    def test_non_graph_matrices_skip_the_first_level(self, monkeypatch, rows):
        certified = spy_first_level(monkeypatch)
        m = IntMatrix.from_rows(rows)
        assert exact_linalg._graph_rows(m) is None
        assert char_poly_exact(m) == char_poly_leverrier(m)
        assert certified == []

    def test_random_graph_blow_ups_against_leverrier(self, monkeypatch):
        certified = spy_first_level(monkeypatch)
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
        assert len(certified) >= 60

    def test_the_factored_core_holds_the_roots_of_both_levels(self, monkeypatch):
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

    def test_twin_free_graph_skips_the_first_level(self, monkeypatch):
        certified = spy_first_level(monkeypatch)
        for w in (1, -1):
            m = graph_matrix(PATH_4, w)
            assert exact_linalg._first_level(*exact_linalg._graph_rows(m)) is None
            assert char_poly_exact(m) == char_poly_leverrier(m)
        assert certified == []

    @pytest.mark.parametrize("corruption", FIRST_LEVEL_CORRUPTIONS)
    def test_wrong_first_levels_are_refused(self, monkeypatch, corruption):
        real = exact_linalg._first_level

        def corrupted(rows, diagonal, w):
            return _corrupt_first_level(corruption, rows, diagonal, w, real(rows, diagonal, w))

        def dense_must_not_run(m):
            raise AssertionError("the dense level ran: the certificate let a bad B1 through")

        monkeypatch.setattr(exact_linalg, "_first_level", corrupted)
        monkeypatch.setattr(exact_linalg, "_twin_quotient", dense_must_not_run)
        inputs = [
            matrix_of(build_power_graph(SemidihedralType(2, 3)), "adjacency"),
            matrix_of(build_model_graph(2, 3), "laplacian"),
            graph_matrix(MIXED_TWINS, -3, [4, 4, 4, 0, 1, 1, 2, 2]),
        ]
        for m in inputs:
            with pytest.raises(ArithmeticError, match="twin certificate"):
                char_poly_exact(m)

    def test_a_member_with_another_diagonal_is_refused(self):
        # leaves 1, 2, 3 of a star share R; leaf 3 has another diagonal
        m = graph_matrix(adjacency_of(4, [(0, 1), (0, 2), (0, 3)]), 1, [0, 1, 1, 2])
        rows, diagonal, w = exact_linalg._graph_rows(m)
        quotient, cells, merges = exact_linalg._first_level(rows, diagonal, w)
        assert cells == [(0,), (1, 2), (3,)]
        cells = [(0,), (1, 2, 3)]
        merges = [(((1,), (2,), (3,)), 1)]
        with pytest.raises(ArithmeticError, match="not twins"):
            exact_linalg._check_first_level(
                rows, diagonal, w, honest_quotient(rows, diagonal, w, cells), cells, merges
            )

    def test_the_dense_level_sees_only_the_first_quotient(self, monkeypatch):
        from powspec.verify_cli import run_verification

        orders = []
        real = exact_linalg._twin_collapse
        monkeypatch.setattr(
            exact_linalg, "_twin_collapse", lambda rows: orders.append(len(rows)) or real(rows)
        )
        run_verification(2, 7)
        assert orders and max(orders) < 56

    @pytest.mark.parametrize("k, p", [(6, 3), (3, 31)])
    def test_equals_the_dense_route_past_the_cap(self, monkeypatch, k, p):
        monkeypatch.setenv(CAP_ENV_VAR, "512")
        certified = spy_first_level(monkeypatch)
        for label, m in family_matrices(k, p):
            assert m.n > exact_linalg.DEFAULT_MATRIX_CAP
            assert char_poly_exact(m) == dense_char_poly(monkeypatch, m), label
        assert len(certified) == 6


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
