"""Floating-point spectra with residual control, plus exact energy sums.

The eigensolver is the one numeric component of the package.  Everything
it reports is bounded by an explicit residual check, and downstream
comparisons against closed forms carry their own tolerance, so a silent
solver failure cannot masquerade as a verified claim.  A run hands it
the numpy arrays of exact_linalg._matrix_array for the three matrices
whose spectra it checks (the two adjacencies and the model Laplacian),
and the small symmetrised quotients of quotient_eigenvalues for
everything else it reads a top eigenvalue of.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .exact_linalg import IntMatrix, _check_cap, _matrix_array


class EigenSolveError(RuntimeError):
    """The symmetric eigensolver failed to meet its residual bound."""


@dataclass(frozen=True)
class EigenResult:
    eigenvalues: tuple[float, ...]
    residual: float

    @property
    def radius(self) -> float:
        """Largest absolute eigenvalue; 0.0 for the empty matrix."""
        if not self.eigenvalues:
            return 0.0
        return max(abs(self.eigenvalues[0]), abs(self.eigenvalues[-1]))


@dataclass(frozen=True)
class SpectrumEntry:
    """One eigenvalue with multiplicity; lo/hi record the cluster spread
    when the entry came from numeric clustering."""

    value: object
    multiplicity: int
    lo: float | None = None
    hi: float | None = None


@dataclass(frozen=True)
class SpectrumSummary:
    entries: tuple[SpectrumEntry, ...]

    def __post_init__(self) -> None:
        prev = None
        for entry in self.entries:
            if entry.multiplicity < 1:
                raise ValueError("multiplicities must be positive")
            if prev is not None and not entry.value > prev:
                raise ValueError("spectrum entries must be strictly increasing")
            prev = entry.value

    @property
    def total(self) -> int:
        return sum(e.multiplicity for e in self.entries)

    def pairs(self) -> tuple[tuple[object, int], ...]:
        return tuple((e.value, e.multiplicity) for e in self.entries)


def _as_array(matrix) -> np.ndarray:
    rows = matrix.rows if isinstance(matrix, IntMatrix) else matrix
    _check_cap(len(rows))  # before the float copy is made
    arr = np.asarray(rows, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("matrix must be square")
    return arr


def symmetric_eigenvalues(matrix, tol: float = 1e-9) -> EigenResult:
    """Eigenvalues of a real symmetric matrix, ascending, residual-checked.

    The residual is max over eigenpairs of ||M v - lambda v||, and the
    result is rejected if it exceeds tol * max(1, ||M||).
    """
    arr = _as_array(matrix)
    n = arr.shape[0]
    if not (arr == arr.T).all():
        raise ValueError("matrix is not symmetric")
    if n == 0:
        return EigenResult((), 0.0)
    try:
        w, v = np.linalg.eigh(arr)
    except np.linalg.LinAlgError as exc:
        raise EigenSolveError(f"eigensolver did not converge: {exc}") from exc
    residual = float(np.max(np.linalg.norm(arr @ v - v * w, axis=0)))
    scale = max(1.0, float(np.max(np.abs(w))))
    if residual > tol * scale:
        raise EigenSolveError(f"residual {residual} exceeds {tol} * {scale}")
    return EigenResult(tuple(float(x) for x in w), residual)


def cluster_multiplicities(values: Sequence[float], tol: float) -> SpectrumSummary:
    """Greedy merge of sorted values: a gap of at most tol joins a cluster.

    Each cluster is reported by its mean together with the min and max it
    absorbed, so the caller can see how tight the grouping actually was.
    """
    vals = list(values)
    if any(b < a for a, b in zip(vals, vals[1:])):
        raise ValueError("values must be sorted ascending")
    entries = []
    i = 0
    while i < len(vals):
        j = i + 1
        while j < len(vals) and vals[j] - vals[j - 1] <= tol:
            j += 1
        chunk = vals[i:j]
        entries.append(
            SpectrumEntry(
                value=sum(chunk) / len(chunk),
                multiplicity=len(chunk),
                lo=chunk[0],
                hi=chunk[-1],
            )
        )
        i = j
    return SpectrumSummary(tuple(entries))


def quotient_eigenvalues(counts, tol: float = 1e-9) -> EigenResult:
    """Eigenvalues of the quotient K of an equitable partition of a
    symmetric matrix A, residual-checked, from the symmetric S_IJ =
    sqrt(K_IJ K_JI).

    K_IJ is the count every member of cell I has in cell J, so A P = P K
    for the cell indicators P, and the eigenvalues of K are eigenvalues of
    A.  A symmetric gives s_I K_IJ = s_J K_JI for the cell sizes s, so
    S = D^(1/2) K D^(-1/2) with D = diag(s), similar to K.  For A >= 0
    the largest is the largest of A: its Perron vector x >= 0 has
    x^T A P = x^T P K, so P^T x, nonnegative and not 0, is an eigenvector
    of K^T for the same eigenvalue.
    """
    k = np.asarray(counts, dtype=float)
    return symmetric_eigenvalues(np.sqrt(k * k.T), tol)


def spectral_radius(graph, tol: float = 1e-9) -> float:
    """Largest absolute adjacency eigenvalue of a graph."""
    return symmetric_eigenvalues(_matrix_array(graph, "adjacency"), tol).radius


def laplacian_energy(
    spectrum: SpectrumSummary, m: int, n: int, with_multiplicity: bool = True
):
    """Sum of |mu - 2m/n| over the spectrum.

    with_multiplicity=False sums over distinct eigenvalues only, which is
    one of the readings the energy investigation has to report.  Exact
    inputs (ints or Fractions) get an exact Fraction back; float inputs
    get a float.
    """
    if spectrum.total != n:
        raise ValueError(f"spectrum multiplicities sum to {spectrum.total}, expected {n}")
    exact = all(isinstance(e.value, (int, Fraction)) for e in spectrum.entries)
    if exact:
        shift = Fraction(2 * m, n)
        acc = Fraction(0)
        for e in spectrum.entries:
            weight = e.multiplicity if with_multiplicity else 1
            acc += weight * abs(Fraction(e.value) - shift)
        return acc
    shift_f = 2 * m / n
    return sum(
        (e.multiplicity if with_multiplicity else 1) * abs(float(e.value) - shift_f)
        for e in spectrum.entries
    )


def summaries_match(
    computed: SpectrumSummary, expected: SpectrumSummary, tol: float
) -> tuple[bool, float]:
    """Same cluster shape and values within tol; returns (ok, max deviation)."""
    if len(computed.entries) != len(expected.entries):
        return False, float("inf")
    max_dev = 0.0
    for got, want in zip(computed.entries, expected.entries):
        if got.multiplicity != want.multiplicity:
            return False, float("inf")
        max_dev = max(max_dev, abs(float(got.value) - float(want.value)))
    return max_dev <= tol, max_dev


def spectrum_to_csv(spectrum: SpectrumSummary) -> str:
    """CSV rows value,multiplicity; floats carry 17 significant digits."""
    lines = ["value,multiplicity"]
    for e in spectrum.entries:
        if isinstance(e.value, int):
            val = str(e.value)
        elif isinstance(e.value, Fraction) and e.value.denominator == 1:
            val = str(e.value.numerator)
        else:
            val = format(float(e.value), ".17g")
        lines.append(f"{val},{e.multiplicity}")
    return "\n".join(lines) + "\n"
