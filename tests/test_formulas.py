import math
from fractions import Fraction

import pytest

from powspec.group_core import Cyclic, is_odd_prime
from powspec.powergraph import build_power_graph, edge_count
from powspec.spectra import quotient_eigenvalues, spectral_radius
from powspec.verify_cli import NUMERIC_TOL
from powspec.formulas import (
    ModelParameters,
    RadiusBounds,
    adjacency_charpoly_formula,
    laplacian_charpoly_formula,
    laplacian_energy_formula,
    laplacian_spectrum_formula,
    signless_charpoly_formula,
    spectral_radius_bounds,
)

GRID = [(2, 3), (2, 5), (3, 3)]

# every (k, p) of the family with n = 2^(k+1) p <= 4096
FAMILY_TO_4096 = [
    (k, p) for k in range(2, 10) for p in range(3, 2048 >> k) if is_odd_prime(p)
]
# the 19 pairs with n <= 256, then (6, 3) and (3, 31), whose q are 192 and 248
ROTATION_PAIRS = [(k, p) for k, p in FAMILY_TO_4096 if 2 ** (k + 1) * p <= 256]
ROTATION_PAIRS += [(6, 3), (3, 31)]


def divisor_sum_edge_count(mp):
    """The reference count: 1/2 sum over d | q of (2d - phi(d) - 1) phi(d),
    pairing each element of order d with the rest of its subgroup."""
    total = 0
    for i in range(mp.k + 1):
        for j in (0, 1):
            d = 2**i * mp.p**j
            phi = (2 ** (i - 1) if i else 1) * (mp.p - 1 if j else 1)
            total += (2 * d - phi - 1) * phi
    return total // 2


class TestModelParameters:
    def test_values_at_2_3(self):
        mp = ModelParameters(2, 3)
        assert mp.rotation_order == 12
        assert mp.vertex_count == 24
        assert mp.half_rotation == 6
        assert mp.quarter_rotation == 3
        assert mp.twist == 5
        assert mp.model_edge_count == 87

    @pytest.mark.parametrize(
        "k,p,n,m", [(2, 3, 24, 87), (2, 5, 40, 225), (3, 3, 48, 318)]
    )
    def test_counts(self, k, p, n, m):
        mp = ModelParameters(k, p)
        assert mp.vertex_count == n
        assert mp.model_edge_count == m

    def test_rotation_edge_count_at_2_3(self):
        # P(C_12) lacks exactly the 10 edges the clique on <r> adds
        assert ModelParameters(2, 3).rotation_edge_count == math.comb(12, 2) - 10 == 56

    def test_rotation_edge_count_is_the_built_count(self):
        assert len(FAMILY_TO_4096) == 215
        for k, p in FAMILY_TO_4096:
            mp = ModelParameters(k, p)
            built = edge_count(build_power_graph(Cyclic(mp.rotation_order)))
            assert mp.rotation_edge_count == built, (k, p)

    def test_rotation_quotient_at_2_3(self):
        # divisors of 12 in the order 1, 3, 2, 6, 4, 12
        sizes, counts = ModelParameters(2, 3).rotation_quotient
        assert sizes == (1, 2, 1, 2, 2, 4)
        assert counts[0] == (0, 2, 1, 2, 2, 4)  # the identity is joined to all
        assert counts[1] == (1, 1, 0, 2, 0, 4)  # order 3: r^4, r^8
        assert sum(sizes) == 12

    def test_rotation_quotient_degree_sum_is_twice_the_edge_count(self):
        assert len(FAMILY_TO_4096) == 215
        for k, p in FAMILY_TO_4096:
            mp = ModelParameters(k, p)
            sizes, counts = mp.rotation_quotient
            assert len(sizes) == 2 * (k + 1) and sum(sizes) == mp.rotation_order, (k, p)
            degree_sum = sum(s * sum(row) for s, row in zip(sizes, counts))
            assert degree_sum == 2 * mp.rotation_edge_count, (k, p)
            assert mp.rotation_edge_count == divisor_sum_edge_count(mp), (k, p)

    @pytest.mark.parametrize("k,p", ROTATION_PAIRS)
    def test_rotation_quotient_is_the_built_graph_quotient(self, k, p):
        mp = ModelParameters(k, p)
        q = mp.rotation_order
        g = build_power_graph(Cyclic(q))
        # the cells in the quotient's order: the elements r^b of order q / gcd(b, q)
        orders = [2**i * p**j for i in range(k + 1) for j in (0, 1)]
        masks = [sum(1 << b for b in range(q) if q // math.gcd(b, q) == d) for d in orders]
        sizes, counts = mp.rotation_quotient
        assert sizes == tuple(m.bit_count() for m in masks)
        for mask, row in zip(masks, counts):
            members = [b for b in range(q) if (mask >> b) & 1]
            for b in members:
                got = tuple((g.row_mask(b) & other).bit_count() for other in masks)
                assert got == row, (q, b)
        lam1 = spectral_radius(g)
        base = quotient_eigenvalues(counts, NUMERIC_TOL).eigenvalues[-1]
        assert abs(base - lam1) <= NUMERIC_TOL * lam1

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelParameters(1, 3)
        with pytest.raises(ValueError):
            ModelParameters(2, 9)


class TestAdjacencyFormula:
    def test_quintic_at_2_3(self):
        formula = adjacency_charpoly_formula(2, 3)
        quintic = formula.factors[-1][0]
        assert quintic.coeffs == (-384, 161, 166, -30, -10, 1)

    def test_exponents(self):
        assert [e for _, e in adjacency_charpoly_formula(2, 3).factors] == [5, 12, 2, 1]
        assert [e for _, e in adjacency_charpoly_formula(2, 5).factors] == [9, 22, 4, 1]

    @pytest.mark.parametrize("k,p", GRID)
    def test_expansion_shape(self, k, p):
        mp = ModelParameters(k, p)
        poly = adjacency_charpoly_formula(k, p).expand()
        assert poly.degree == mp.vertex_count
        assert poly.is_monic
        # trace 0 and edge count from the top coefficients
        assert poly.coeffs[mp.vertex_count - 1] == 0
        assert poly.coeffs[mp.vertex_count - 2] == -mp.model_edge_count

    def test_matches_exact_charpoly_at_2_3(self, model_charpoly):
        poly = adjacency_charpoly_formula(2, 3).expand()
        assert poly == model_charpoly(2, 3, "adjacency")


class TestLaplacianFormula:
    def test_factors_at_2_3(self):
        formula = laplacian_charpoly_formula(2, 3)
        roots = [(-base.coeffs[0] if base.degree == 1 else None, e) for base, e in formula.factors]
        assert roots == [(0, 1), (24, 1), (18, 1), (12, 9), (4, 3), (2, 3), (1, 6)]

    @pytest.mark.parametrize("k,p", GRID)
    def test_expansion_shape(self, k, p):
        mp = ModelParameters(k, p)
        poly = laplacian_charpoly_formula(k, p).expand()
        assert poly.degree == mp.vertex_count and poly.is_monic
        assert poly.coeffs[mp.vertex_count - 1] == -2 * mp.model_edge_count

    def test_root_24_multiplicity_at_3_3(self):
        formula = laplacian_charpoly_formula(3, 3)
        assert formula.degree == 48
        mult = sum(e for base, e in formula.factors if base.degree == 1 and base(24) == 0)
        assert mult == 21

    def test_matches_exact_charpoly_at_2_3(self, model_charpoly):
        poly = laplacian_charpoly_formula(2, 3).expand()
        assert poly == model_charpoly(2, 3, "laplacian")


class TestSignlessFormula:
    def test_bracket_at_2_3(self):
        formula = signless_charpoly_formula(2, 3)
        bracket = formula.factors[-1][0]
        assert bracket.coeffs == (17920, -33920, 12784, -1456, 65, -1)

    @pytest.mark.parametrize("k,p", GRID)
    def test_expansion_monic_without_normalization(self, k, p):
        # the clique factor's and the bracket's negative signs cancel
        mp = ModelParameters(k, p)
        poly = signless_charpoly_formula(k, p).expand()
        assert poly.is_monic and poly.degree == mp.vertex_count
        assert poly.coeffs[mp.vertex_count - 1] == -2 * mp.model_edge_count

    def test_matches_exact_charpoly_at_2_3(self, model_charpoly):
        poly = signless_charpoly_formula(2, 3).expand().monic_normalized()
        assert poly == model_charpoly(2, 3, "signless")


class TestLaplacianSpectrum:
    def test_table_at_2_3(self):
        assert laplacian_spectrum_formula(2, 3).pairs() == (
            (0, 1), (1, 6), (2, 3), (4, 3), (12, 9), (18, 1), (24, 1),
        )

    def test_table_at_2_5(self):
        assert laplacian_spectrum_formula(2, 5).pairs() == (
            (0, 1), (1, 10), (2, 5), (4, 5), (20, 17), (30, 1), (40, 1),
        )

    @pytest.mark.parametrize("k,p", GRID)
    def test_multiplicities_and_trace(self, k, p):
        mp = ModelParameters(k, p)
        spectrum = laplacian_spectrum_formula(k, p)
        assert spectrum.total == mp.vertex_count
        assert sum(v * m for v, m in spectrum.pairs()) == 2 * mp.model_edge_count

    @pytest.mark.parametrize("k,p", GRID)
    def test_spectrum_divides_polynomial(self, k, p):
        poly = laplacian_charpoly_formula(k, p).expand()
        for value, mult in laplacian_spectrum_formula(k, p).pairs():
            assert poly(value) == 0
            for _ in range(mult):
                poly = poly.deflate(value)
        assert poly.coeffs == (1,)


class TestEnergyFormula:
    @pytest.mark.parametrize(
        "k,p,expected",
        [(2, 3, Fraction(47, 4)), (2, 5, Fraction(87, 4)), (3, 3, Fraction(107, 4))],
    )
    def test_values(self, k, p, expected):
        assert laplacian_energy_formula(k, p) == expected

    def test_exact_type(self):
        assert isinstance(laplacian_energy_formula(2, 3), Fraction)


class TestRadiusBounds:
    def test_frozen_at_2_3(self):
        bounds = spectral_radius_bounds(2, 3, 11.0)
        assert bounds.lower == 11.0
        assert bounds.upper_plain_radical == pytest.approx(17.413591357920932, abs=1e-9)
        assert bounds.upper_shifted_radical == pytest.approx(17.464101615137754, abs=1e-9)

    def test_shifted_exceeds_plain(self):
        for k, p in GRID:
            q = 2**k * p
            bounds = spectral_radius_bounds(k, p, float(q - 1))
            assert isinstance(bounds, RadiusBounds)
            assert bounds.upper_shifted_radical > bounds.upper_plain_radical > bounds.lower

    def test_tracks_base(self):
        low = spectral_radius_bounds(2, 3, 10.0)
        high = spectral_radius_bounds(2, 3, 11.0)
        assert high.upper_plain_radical - low.upper_plain_radical == pytest.approx(1.0)

    def test_shifted_formula(self):
        bounds = spectral_radius_bounds(2, 3, 11.0)
        assert bounds.upper_shifted_radical == pytest.approx(
            11 + math.sqrt(12) + (1 + math.sqrt(25)) / 2, abs=1e-12
        )
