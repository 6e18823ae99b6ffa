"""powspec: exact spectral verification for power graphs of cyclic and
semidihedral-type groups."""

from .group_core import (
    Cyclic,
    GroupElement,
    SemidihedralType,
    cyclic_subgroup,
    element_order,
    inverse,
    multiply,
    validate_presentation,
)
from .powergraph import (
    Graph,
    build_model_graph,
    build_power_graph,
    canonical_order,
    edge_count,
    graph_diff,
    to_dot,
    verify_decomposition,
)
from .exact_linalg import (
    FactoredPolynomial,
    IntMatrix,
    IntPolynomial,
    char_poly_exact,
    char_poly_leverrier,
    matrix_of,
)
from .formulas import (
    ModelParameters,
    adjacency_charpoly_formula,
    laplacian_charpoly_formula,
    laplacian_energy_formula,
    laplacian_spectrum_formula,
    signless_charpoly_formula,
    spectral_radius_bounds,
)
from .spectra import (
    SpectrumEntry,
    SpectrumSummary,
    cluster_multiplicities,
    laplacian_energy,
    symmetric_eigenvalues,
)
from .verify_cli import VerificationReport, run_verification, sweep

__version__ = "0.1.0"
