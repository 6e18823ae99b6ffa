"""Floating-point spectra with residual control, plus exact energy sums.

The eigensolver is the one numeric component of the package.  Everything
it reports is bounded by an explicit residual check, and downstream
comparisons against closed forms carry their own tolerance, so a silent
solver failure cannot masquerade as a verified claim.  A run hands it
one order-n matrix, the numpy array of exact_linalg._matrix_array for
the model Laplacian, whose whole spectrum it checks, and the small
symmetrised quotients of quotient_eigenvalues for every top eigenvalue
it reads.  Matrices of a common order go in as one stack, a 3-D array:
the split's three 5 x 5 quotients are one solver call.  The solver
checks the order of its input against the matrix cap before any copy is
made or any row of a matrix_of matrix is written.  The module builds no
matrix of its own: a graph's spectral radius is the top eigenvalue of
the quotient of its proved twin cells (exact_linalg._graph_twins),
which its caller hands in.  The solver's residual tolerance is one
constant, NUMERIC_TOL, read at each call; verify_cli's numeric checks use
the same number.  The energy and the CSV export are exact: they take
the claimed integer table (Fraction entries too, for the energy) and
refuse a float entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .exact_linalg import IntMatrix, _check_cap


# the relative residual bound of every solve, read at call time
NUMERIC_TOL = 1e-9


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
    """One eigenvalue with its multiplicity."""

    value: object
    multiplicity: int


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
    """matrix as a float array, n x n, or s x n x n for a 3-D array (a
    stack), with n checked against the cap before any copy or row write;
    an IntMatrix or a list with no rows is 0 x 0."""
    if isinstance(matrix, np.ndarray):
        _check_cap(matrix.shape[-1] if matrix.ndim else 0)
        arr, ndims = np.asarray(matrix, dtype=float), (2, 3)
    else:
        n = matrix.n if isinstance(matrix, IntMatrix) else len(matrix)
        _check_cap(n)
        rows = matrix.rows if isinstance(matrix, IntMatrix) else matrix
        arr, ndims = np.asarray(rows if n else np.empty((0, 0)), dtype=float), (2,)
    if arr.ndim not in ndims or arr.shape[-1] != arr.shape[-2]:
        raise ValueError("matrix must be square")
    return arr


def symmetric_eigenvalues(matrix):
    """Eigenvalues of a real symmetric matrix, ascending, residual-checked.

    The residual is max over eigenpairs of ||M v - lambda v||, and the
    result is rejected if it exceeds NUMERIC_TOL * max(1, ||M||).  The
    order is checked against the cap before any copy is made or any row
    of a matrix_of matrix is written.

    A stack is a 3-D array, s matrices of order n.  It gives a tuple of
    one EigenResult per member from one batched eigh, which runs LAPACK
    once per member, so each result is the one a solve of that member
    alone gives.  Every member is checked for symmetry and its residual,
    and the first that fails raises the error a single matrix raises.
    """
    arr = _as_array(matrix)
    if not (arr == arr.swapaxes(-1, -2)).all():
        raise ValueError("matrix is not symmetric")
    stack = arr.ndim == 3
    members = arr if stack else arr[None]
    try:
        w, v = np.linalg.eigh(members)
    except np.linalg.LinAlgError as exc:
        raise EigenSolveError(f"eigensolver did not converge: {exc}") from exc
    # the largest column norm, bit for bit, as sqrt is monotone: one
    # reduction and one sqrt per member; initial: an empty member has 0
    r = members @ v - v * w[:, None, :]
    residuals = np.sqrt(np.max(np.add.reduce(r * r, axis=1), axis=1, initial=0.0))
    results = []
    # lists first: a tuple built from a generator of floats made peak RSS creep
    for values, residual in zip(w.tolist(), residuals.tolist()):
        # the values ascend, so the largest |value| is at one end
        scale = max(1.0, -values[0], values[-1]) if values else 1.0
        if residual > NUMERIC_TOL * scale:
            raise EigenSolveError(f"residual {residual} exceeds {NUMERIC_TOL} * {scale}")
        results.append(EigenResult(tuple(values), residual))
    return tuple(results) if stack else results[0]


def cluster_multiplicities(values: Sequence[float], tol: float) -> SpectrumSummary:
    """Greedy merge of sorted values: a gap of at most tol joins a cluster.

    Each cluster is reported by its mean and its size.
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
        entries.append(SpectrumEntry(sum(chunk) / len(chunk), len(chunk)))
        i = j
    return SpectrumSummary(tuple(entries))


def quotient_eigenvalues(counts) -> EigenResult:
    """Eigenvalues of the quotient K of an equitable partition of a
    symmetric matrix A, residual-checked, from the symmetric S_IJ =
    sqrt(K_IJ K_JI).

    K_IJ is the count every member of cell I has in cell J, so A P = P K
    for the cell indicators P, and the eigenvalues of K are eigenvalues of
    A.  A symmetric gives s_I K_IJ = s_J K_JI for the cell sizes s, so
    S = D^(1/2) K D^(-1/2) with D = diag(s), similar to K.  For A >= 0
    the largest is the largest of A: its Perron vector x >= 0 has
    x^T A P = x^T P K, so P^T x, nonnegative and not 0, is an eigenvector
    of K^T for the same eigenvalue.  A stack of quotients of a common order
    gives one EigenResult per member, from one symmetric_eigenvalues call.
    """
    k = np.asarray(counts, dtype=float)
    return symmetric_eigenvalues(np.sqrt(k * k.swapaxes(-1, -2)))


def laplacian_energy(
    spectrum: SpectrumSummary, m: int, n: int, with_multiplicity: bool = True
):
    """Sum of |mu - 2m/n| over the spectrum.

    with_multiplicity=False sums over distinct eigenvalues only, which is
    one of the readings the energy investigation has to report.  The
    entries must be ints or Fractions, and the result is an exact Fraction.
    """
    if spectrum.total != n:
        raise ValueError(f"spectrum multiplicities sum to {spectrum.total}, expected {n}")
    for e in spectrum.entries:
        if not isinstance(e.value, (int, Fraction)):
            raise ValueError(f"eigenvalue {e.value!r} is not an int or Fraction")
    # |mu - 2m/n| = |n mu - 2m| / n: one exact sum, one division
    total = sum(
        (e.multiplicity if with_multiplicity else 1) * abs(n * e.value - 2 * m)
        for e in spectrum.entries
    )
    return Fraction(total, n)


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
    """CSV rows value,multiplicity of an integer table, such as the claimed
    Laplacian spectrum; an entry that is not an int raises ValueError."""
    lines = ["value,multiplicity"]
    for e in spectrum.entries:
        if not isinstance(e.value, int):
            raise ValueError(f"the CSV export takes integer eigenvalues, got {e.value!r}")
        lines.append(f"{e.value},{e.multiplicity}")
    return "\n".join(lines) + "\n"
