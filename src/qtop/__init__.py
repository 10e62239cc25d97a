"""Topological invariants of quarter-plane Toeplitz operators.

Lattice symbols (matrix Laurent polynomials on the torus) are factorized
slice by slice in the Wiener-Hopf sense, extended to the boundary of the
bidisk, and integrated into a three-dimensional winding number that the
package cross-checks against dense truncations of the corresponding
quarter-plane operators: Fredholm indices, corner spectra, spectral flow.
"""

__version__ = "0.1.0"

from .errors import QtopError
from .symbols import (
    LaurentSymbol,
    az_class,
    assemble_chiral,
    check_symmetry,
    load_symbol,
    save_symbol,
    split_chiral,
)
from .wiener_hopf import (
    FactorizationResult,
    canonical_factorize,
    partial_indices,
    radial_scan,
    verify_factorization,
    winding_of_det,
)
from .extension import (
    ChartPoint,
    ClosedFormExtension,
    ExtendedSymbol,
    bott_generator,
    build_extended,
    build_extended_family,
    check_equivariance,
    check_hermitian,
)
from .invariants import (
    GappedInvariantReport,
    W3Result,
    calibrate_orientation,
    gapped_invariant_report,
    w3,
)
from .operators import (
    CornerSpectrumResult,
    IndexReport,
    SpectralFlowResult,
    assemble,
    certify_fredholm,
    corner_spectrum,
    kernel_dim,
    numerical_index,
    spectral_flow,
)

__all__ = [
    "__version__",
    "QtopError",
    "LaurentSymbol",
    "az_class",
    "assemble_chiral",
    "check_symmetry",
    "load_symbol",
    "save_symbol",
    "split_chiral",
    "FactorizationResult",
    "canonical_factorize",
    "partial_indices",
    "radial_scan",
    "verify_factorization",
    "winding_of_det",
    "ChartPoint",
    "ClosedFormExtension",
    "ExtendedSymbol",
    "bott_generator",
    "build_extended",
    "build_extended_family",
    "check_equivariance",
    "check_hermitian",
    "GappedInvariantReport",
    "W3Result",
    "calibrate_orientation",
    "gapped_invariant_report",
    "w3",
    "CornerSpectrumResult",
    "IndexReport",
    "SpectralFlowResult",
    "assemble",
    "certify_fredholm",
    "corner_spectrum",
    "kernel_dim",
    "numerical_index",
    "spectral_flow",
]
