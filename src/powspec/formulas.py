"""Closed-form spectral claims for the model graph of the twisted family.

Every function here transcribes a claimed formula; none of them touches a
matrix.  The verifier's job is to compare these against the exact and
numeric computations in the rest of the package, so this module must stay
free of anything derived from the graphs themselves.  The one structure
here that is not a claim, P(C_q) inside <r> as a quotient over the
divisors of q, with its edge count, comes from the divisor lattice of q
alone, so a bug in the graph builder cannot cancel out of the checks that
compare a built graph with it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .exact_linalg import FactoredPolynomial, IntPolynomial, poly_x
from .group_core import validate_parameters
from .spectra import SpectrumEntry, SpectrumSummary

__all__ = [
    "ModelParameters",
    "RadiusBounds",
    "adjacency_charpoly_formula",
    "laplacian_charpoly_formula",
    "signless_charpoly_formula",
    "laplacian_spectrum_formula",
    "laplacian_energy_formula",
    "spectral_radius_bounds",
]


@dataclass(frozen=True)
class ModelParameters:
    """Derived counts for (k, p): orders, edge counts, twist exponent."""

    k: int
    p: int

    def __post_init__(self) -> None:
        validate_parameters(self.k, self.p)

    @property
    def rotation_order(self) -> int:
        return 2**self.k * self.p

    @property
    def vertex_count(self) -> int:
        return 2 ** (self.k + 1) * self.p

    @property
    def half_rotation(self) -> int:
        return 2 ** (self.k - 1) * self.p

    @property
    def quarter_rotation(self) -> int:
        return 2 ** (self.k - 2) * self.p

    @property
    def twist(self) -> int:
        return 2 ** (self.k - 1) * self.p - 1

    @property
    def model_edge_count(self) -> int:
        return self.quarter_rotation * (5 + 2 ** (self.k + 1) * self.p)

    @functools.cached_property
    def rotation_quotient(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """(s, K): the divisor-lattice quotient of the power graph of <r> = C_q.

        x ~ y exactly when one of <x>, <y> contains the other, and C_q has
        one subgroup of each order d | q, with phi(d) generators.  So the
        elements of order d form one cell I of size s_I = phi(d), one per
        divisor 2^i p^j (i <= k, j <= 1), with phi(2^i p^j) =
        phi(2^i) * phi(p^j).  An element of order d is joined to every other
        generator of its subgroup, to every element of order d' | d and to
        every element of order d' with d | d', so each member of cell I has
        K_IJ neighbours in cell J of order d':
        K_II = phi(d) - 1, K_IJ = phi(d') when d | d' or d' | d, else 0.
        The partition is equitable, and s_I K_IJ = s_J K_JI counts the
        edges between two cells.
        """
        orders = [2**i * self.p**j for i in range(self.k + 1) for j in (0, 1)]
        sizes = [
            (1 << (i - 1) if i else 1) * (self.p - 1 if j else 1)
            for i in range(self.k + 1)
            for j in (0, 1)
        ]
        # lists first: tuple(<generator>) makes the peak RSS creep from run to run
        counts = [
            tuple([s - (d == e) if d % e == 0 or e % d == 0 else 0 for e, s in zip(orders, sizes)])
            for d in orders
        ]
        return tuple(sizes), tuple(counts)

    @property
    def rotation_edge_count(self) -> int:
        """Edges of the power graph of <r> = C_q, from the divisor lattice of q.

        Half the degree sum over rotation_quotient: a member of cell I has
        sum over J of K_IJ neighbours, so |E| = 1/2 * sum over I of
        s_I * sum over J of K_IJ.  Cell I of order d has
        (d - 1) + sum over d | d', d' != d of phi(d') of them: its own
        subgroup less itself, and the generators of every larger subgroup
        that contains it.
        """
        sizes, counts = self.rotation_quotient
        return sum(s * sum(row) for s, row in zip(sizes, counts)) // 2


def _linear(constant: int) -> IntPolynomial:
    # x - constant
    return IntPolynomial.from_coeffs((-constant, 1))


def adjacency_charpoly_formula(k: int, p: int) -> FactoredPolynomial:
    """Claimed characteristic polynomial of the model adjacency matrix:
    a power of x, powers of (x+1) and (x-1), and one quintic."""
    mp = ModelParameters(k, p)
    q, h, quarter = mp.rotation_order, mp.half_rotation, mp.quarter_rotation
    quintic = IntPolynomial.from_coeffs(
        (
            -(2 ** (3 * k - 2) * p**3 - 2 ** (2 * k - 2) * p**2 - q),
            5 * 2 ** (2 * k - 2) * p**2 - 3 * h - 1,
            3 * 2 ** (2 * k - 1) * p**2 - 2 ** (k + 2) * p - 2,
            -5 * h,
            -(q - 2),
            1,
        )
    )
    return FactoredPolynomial(
        scalar=1,
        factors=(
            (poly_x(), h - 1),
            (IntPolynomial.from_coeffs((1, 1)), 5 * quarter - 3),
            (IntPolynomial.from_coeffs((-1, 1)), quarter - 1),
            (quintic, 1),
        ),
    )


def laplacian_charpoly_formula(k: int, p: int) -> FactoredPolynomial:
    """Claimed Laplacian characteristic polynomial; splits completely
    into integer linear factors."""
    mp = ModelParameters(k, p)
    q, h, quarter = mp.rotation_order, mp.half_rotation, mp.quarter_rotation
    return FactoredPolynomial(
        scalar=1,
        factors=(
            (poly_x(), 1),
            (_linear(2 * q), 1),
            (_linear(3 * h), 1),
            (_linear(q), q - 3),
            (_linear(4), quarter),
            (_linear(2), quarter),
            (_linear(1), h),
        ),
    )


def signless_charpoly_formula(k: int, p: int) -> FactoredPolynomial:
    """Claimed signless Laplacian characteristic polynomial.

    Written exactly as claimed: the (2^k p - 2 - x) factor and the
    degree-5 bracket both carry negative leading coefficients, and the
    two signs cancel in the expansion because 2^k p is even.
    """
    mp = ModelParameters(k, p)
    q, h, quarter = mp.rotation_order, mp.half_rotation, mp.quarter_rotation
    bracket = IntPolynomial.from_coeffs(
        (
            15 * 2 ** (3 * k) * p**3 - 31 * 2 ** (2 * k + 1) * p**2 + 5 * 2 ** (k + 4) * p - 32,
            -(25 * 2 ** (3 * k) * p**3 - 135 * 2 ** (2 * k - 1) * p**2 + 9 * 2 ** (k + 2) * p + 8),
            3 * 2 ** (3 * k + 1) * p**3 + 11 * 2 ** (2 * k + 1) * p**2 - 65 * q + 28,
            -(5 * 2 ** (2 * k + 1) * p**2 + 5 * h - 14),
            11 * h - 1,
            -1,
        )
    )
    descending_clique = IntPolynomial.from_coeffs((q - 2, -1))
    return FactoredPolynomial(
        scalar=1,
        factors=(
            (_linear(1), h - 1),
            (_linear(2), quarter),
            (_linear(4), quarter - 1),
            (descending_clique, q - 3),
            (bracket, 1),
        ),
    )


def laplacian_spectrum_formula(k: int, p: int) -> SpectrumSummary:
    """Claimed Laplacian spectrum, seven distinct integer eigenvalues."""
    mp = ModelParameters(k, p)
    q, h, quarter = mp.rotation_order, mp.half_rotation, mp.quarter_rotation
    return SpectrumSummary(
        (
            SpectrumEntry(0, 1),
            SpectrumEntry(1, h),
            SpectrumEntry(2, quarter),
            SpectrumEntry(4, quarter),
            SpectrumEntry(q, q - 3),
            SpectrumEntry(3 * h, 1),
            SpectrumEntry(2 * q, 1),
        )
    )


def laplacian_energy_formula(k: int, p: int) -> Fraction:
    """Claimed Laplacian energy (5 * 2^k p - 13) / 4.

    Recorded as claimed; the verifier compares it against the energy
    recomputed from the claimed spectrum and reports the discrepancy
    without resolving it.
    """
    mp = ModelParameters(k, p)
    return Fraction(5 * mp.rotation_order - 13, 4)


@dataclass(frozen=True)
class RadiusBounds:
    """Spectral radius bracket relative to a base value for the rotation part.

    Two upper bounds are carried because the claim circulates in two
    variants that differ under the second radical, 2^(k+1)p versus
    1 + 2^(k+1)p.  The shifted variant is the larger one and is what the
    supporting argument actually yields.
    """

    lower: float
    upper_plain_radical: float
    upper_shifted_radical: float


def spectral_radius_bounds(k: int, p: int, lam1_base: float) -> RadiusBounds:
    mp = ModelParameters(k, p)
    q = mp.rotation_order
    common = lam1_base + math.sqrt(q)
    return RadiusBounds(
        lower=float(lam1_base),
        upper_plain_radical=common + (1 + math.sqrt(2 * q)) / 2,
        upper_shifted_radical=common + (1 + math.sqrt(1 + 2 * q)) / 2,
    )
