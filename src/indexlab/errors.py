"""Exception types shared across the package.

The CLI maps these onto distinct process exit codes, so computational
failures stay distinguishable from configuration mistakes: 3 for a
:class:`FlowError`, 4 for a :class:`ChernError` (and for Chern methods
that disagree), 1 for any other :class:`IndexLabError`.
"""


class IndexLabError(Exception):
    """Base class for all package-specific errors."""


class ModelError(IndexLabError):
    """Malformed symbol or model parameters (non-Hermitian data, bad bands)."""


class GapCertificateError(IndexLabError):
    """Sampled spectral-gap certificate of a symbol family failed."""


class TruncationError(IndexLabError):
    """Requested mode does not fit inside the truncated basis."""


class ResonanceError(IndexLabError):
    """Closed-form eigenvector recursion hit a vanishing denominator."""


class FlowError(IndexLabError):
    """The spectral flow could not be computed."""


class ChernError(IndexLabError):
    """A Chern index could not be computed."""


class EndpointInSpectrumError(FlowError):
    """An eigenvalue sits on the reference level at a sweep endpoint."""


class RefinementError(FlowError):
    """Adaptive bisection could not disambiguate branch matching."""


class MethodDisagreementError(FlowError):
    """Counting-function and crossing-tracking flow counts differ."""


class DegeneracyError(ChernError):
    """Band gap below tolerance at a sphere point (degeneracy on/near S^2)."""


class SectionVanishesError(ChernError):
    """A hemisphere reference section vanishes where it must not."""


class AliasingError(ChernError):
    """Phase step of at least pi between winding samples; undersampled loop."""


class DegenerateZeroError(ChernError):
    """Section zero with vanishing local winding, or zeros too close."""
