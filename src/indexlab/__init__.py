"""Numerical laboratory for spectral flow and Chern indices of wave operators.

The package quantizes affine matrix symbols in a truncated Hermite basis,
counts the spectral flow of eigenvalues through a gap as the parameter mu
sweeps, computes the Chern index of the symbol's eigenvector bundles over
the parameter sphere by three independent methods, and verifies that the
two integers agree.
"""

from .errors import IndexLabError
from .hermite import (
    AffineMatrixSymbol,
    LinearTerm,
    TruncatedBasis,
    TruncatedOperator,
    ladder_matrices,
    position_momentum,
    quantize,
    sampled_gap_certificate,
    spurious_weight,
)
from .models import (
    BranchLabel,
    constant_symbol,
    matsuno_eigenvalue,
    matsuno_eigenvalues,
    matsuno_eigenvector,
    matsuno_symbol,
    mu_reflected,
    normal_form_eigenvalue,
    normal_form_eigenvector,
    normal_form_symbol,
    ts2_symbol,
)
from .flow import (
    FlowResult,
    SpectralWindow,
    SpectrumSweep,
    flow_invariance_check,
    spectral_index,
    sweep,
)
from .topology import (
    BandProjectorField,
    ChernReport,
    SphereGrid,
    chern_clutching,
    chern_curvature,
    chern_section_zeros,
    point_eigensystem,
    winding_number,
)

__version__ = "0.1.0"

__all__ = [
    "IndexLabError",
    "AffineMatrixSymbol",
    "LinearTerm",
    "TruncatedBasis",
    "TruncatedOperator",
    "ladder_matrices",
    "position_momentum",
    "quantize",
    "sampled_gap_certificate",
    "spurious_weight",
    "BranchLabel",
    "constant_symbol",
    "matsuno_eigenvalue",
    "matsuno_eigenvalues",
    "matsuno_eigenvector",
    "matsuno_symbol",
    "mu_reflected",
    "normal_form_eigenvalue",
    "normal_form_eigenvector",
    "normal_form_symbol",
    "ts2_symbol",
    "FlowResult",
    "SpectralWindow",
    "SpectrumSweep",
    "flow_invariance_check",
    "spectral_index",
    "sweep",
    "BandProjectorField",
    "ChernReport",
    "SphereGrid",
    "chern_clutching",
    "chern_curvature",
    "chern_section_zeros",
    "point_eigensystem",
    "winding_number",
    "__version__",
]
