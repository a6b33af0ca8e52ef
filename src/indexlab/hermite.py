"""Finite Hermite-basis quantization of affine matrix symbols.

An affine symbol ``H(mu, x, xi) = A(mu) + B x + C xi`` with Hermitian
``d x d`` coefficients is represented on ``(levels 0..M) (x) C^d`` by
substituting the truncated ladder-operator matrices for position and
momentum.  Because affine symbols couple neighbouring Hermite levels only,
low-lying modes have exact finite support and the hard cutoff at level M is
exact for them; the top ``guard_levels`` levels are reserved for detecting
the truncation-edge artifacts that the cutoff necessarily creates.

All functions here are pure; returned arrays are freshly allocated and safe
to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import GapCertificateError, ModelError

__all__ = [
    "TruncatedBasis",
    "AffineMatrixSymbol",
    "TruncatedOperator",
    "ladder_matrices",
    "position_momentum",
    "quantize",
    "spurious_weight",
    "spurious_weights",
    "GapCertificate",
    "sampled_gap_certificate",
]

#: Eigenpairs whose squared amplitude on the guard levels exceeds this are
#: treated as truncation artifacts and excluded from spectral-flow counts.
SPURIOUS_THRESHOLD = 1e-8


@dataclass(frozen=True)
class TruncatedBasis:
    """Hermite levels ``0..max_level`` with semiclassical parameter epsilon.

    ``guard_levels`` top levels are used only to flag truncation artifacts;
    ``max_level >= 2 * guard_levels`` keeps a usable interior.
    """

    max_level: int
    epsilon: float = 1.0
    guard_levels: int = 5

    def __post_init__(self):
        if self.max_level < 2:
            raise ModelError(f"max_level must be >= 2, got {self.max_level}")
        if self.epsilon <= 0:
            raise ModelError(f"epsilon must be positive, got {self.epsilon}")
        if self.guard_levels < 1:
            raise ModelError("guard_levels must be >= 1")
        if self.max_level < 2 * self.guard_levels:
            raise ModelError(
                f"max_level={self.max_level} < 2*guard_levels={2 * self.guard_levels}"
            )

    @property
    def size(self) -> int:
        """Number of retained Hermite levels, M + 1."""
        return self.max_level + 1


@dataclass(frozen=True)
class AffineMatrixSymbol:
    """Family of Hermitian symbols ``H_mu(x, xi) = A(mu) + B x + C xi``.

    ``const_term`` is a callback so the mu-dependence may be nonlinear.  It
    takes a 1-D float array of n values of mu and returns the ``(n, d, d)``
    complex stack ``A(mu)``; any other shape raises :class:`ModelError`.
    ``gap_band`` is the number of bands below the tracked spectral gap
    (0 is allowed for scalar controls with no band below the gap) and
    ``gap_center``/``gap_constant`` certify that, away from the origin,
    band ``gap_band`` stays below ``gap_center - gap_constant`` while band
    ``gap_band + 1`` stays above ``gap_center + gap_constant``.
    """

    dim: int
    const_term: Callable[[np.ndarray], np.ndarray]
    x_coeff: np.ndarray
    xi_coeff: np.ndarray
    gap_band: int
    gap_constant: float
    gap_center: float = 0.0
    name: str = "affine-symbol"

    def __post_init__(self):
        if self.dim < 1:
            raise ModelError(f"dim must be >= 1, got {self.dim}")
        if not 0 <= self.gap_band <= self.dim:
            raise ModelError(
                f"gap_band must lie in 0..dim={self.dim}, got {self.gap_band}"
            )
        if self.gap_constant <= 0:
            raise ModelError("gap_constant must be positive")
        for label, coeff in (("x_coeff", self.x_coeff), ("xi_coeff", self.xi_coeff)):
            coeff = np.asarray(coeff)
            if coeff.shape != (self.dim, self.dim):
                raise ModelError(f"{label} must be {self.dim}x{self.dim}")
            if not _is_hermitian(coeff):
                raise ModelError(f"{label} must be Hermitian")

    def _const_stack(self, mu: np.ndarray) -> np.ndarray:
        """``A(mu)`` for a 1-D array of mu: one ``const_term`` call, shape-checked."""
        mu = np.asarray(mu, dtype=float)
        amats = np.asarray(self.const_term(mu), dtype=complex)
        if amats.shape != (len(mu), self.dim, self.dim):
            raise ModelError(
                f"const_term of {len(mu)} mu values has shape {amats.shape}, "
                f"expected ({len(mu)}, {self.dim}, {self.dim})"
            )
        return amats

    def evaluate(self, mu: float, x: float, xi: float) -> np.ndarray:
        """Symbol matrix at one phase-space point (no Hermiticity re-check)."""
        return self.evaluate_many(np.array([[mu, x, xi]]))[0]

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        """Stack of symbol matrices at ``points`` of shape (n, 3) = (mu, x, xi)."""
        points = np.asarray(points, dtype=float)
        out = self._const_stack(points[:, 0]) + points[:, 1, None, None] * self.x_coeff
        out += points[:, 2, None, None] * self.xi_coeff
        return out

    def validate(self, rng: np.random.Generator | None = None, samples: int = 32):
        """Assert Hermiticity of the family on a random sample of (mu, x, xi)."""
        rng = rng or np.random.default_rng(2026)
        pts = rng.uniform(-2.0, 2.0, size=(samples, 3))
        hermitian = _is_hermitian(self.evaluate_many(pts))
        if not hermitian.all():
            mu, x, xi = pts[np.argmin(hermitian)]
            raise ModelError(
                f"symbol {self.name!r} is not Hermitian at "
                f"(mu, x, xi)=({mu:.3f}, {x:.3f}, {xi:.3f})"
            )


@dataclass(frozen=True)
class TruncatedOperator:
    """Hermitian matrix of size ``d * (M + 1)`` acting on (levels) (x) C^d."""

    matrix: np.ndarray
    basis: TruncatedBasis
    dim: int

    @property
    def size(self) -> int:
        return self.dim * self.basis.size


def _is_hermitian(m: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Per-matrix Hermiticity of a ``(..., d, d)`` stack, relative to its scale."""
    m = np.asarray(m)
    scale = np.maximum(1.0, np.abs(m).max(axis=(-2, -1), initial=0.0))
    defect = np.abs(m - m.conj().swapaxes(-2, -1)).max(axis=(-2, -1), initial=0.0)
    return defect <= tol * scale


def ladder_matrices(basis: TruncatedBasis) -> tuple[np.ndarray, np.ndarray]:
    """Lowering and raising matrices on levels 0..M.

    The lowering matrix has entries ``a[n-1, n] = sqrt(n)``; the raising
    matrix is its adjoint.  ``a^dag a`` is exactly ``diag(0..M)``; only the
    top entry of ``a a^dag`` is corrupted by the cutoff.
    """
    m = basis.size
    a = np.zeros((m, m))
    n = np.arange(1, m)
    a[n - 1, n] = np.sqrt(n)
    return a, a.T.copy()


def position_momentum(basis: TruncatedBasis) -> tuple[np.ndarray, np.ndarray]:
    """Truncated position and momentum matrices.

    ``x = sqrt(eps/2) (a + a^dag)`` and ``xi = i sqrt(eps/2) (a^dag - a)``;
    their commutator equals ``i*eps*Id`` exactly on levels 0..M-1.
    """
    a, adag = ladder_matrices(basis)
    scale = np.sqrt(basis.epsilon / 2.0)
    xmat = scale * (a + adag)
    ximat = 1j * scale * (adag - a)
    return xmat, ximat


def quantize(
    symbol: AffineMatrixSymbol, mu: float, basis: TruncatedBasis
) -> TruncatedOperator:
    """Matrix representation ``A(mu) (x) Id + B (x) xhat + C (x) xihat``.

    Block structure is component-major: entry ``(i*(M+1)+k, j*(M+1)+l)``
    couples component i level k with component j level l.  The result is
    made exactly Hermitian by symmetrization (exact in IEEE arithmetic).
    """
    amat = symbol._const_stack(np.array([mu]))[0]
    if not _is_hermitian(amat):
        raise ModelError(f"const_term({mu}) is not Hermitian")
    xmat, ximat = position_momentum(basis)
    eye = np.eye(basis.size)
    h = (
        np.kron(amat, eye)
        + np.kron(symbol.x_coeff, xmat)
        + np.kron(symbol.xi_coeff, ximat)
    )
    h = 0.5 * (h + h.conj().T)
    return TruncatedOperator(matrix=h, basis=basis, dim=symbol.dim)


def spurious_weight(operator: TruncatedOperator, eigenvector: np.ndarray) -> float:
    """Squared amplitude of a unit vector on the top ``guard_levels`` levels."""
    return float(spurious_weights(operator, np.reshape(eigenvector, (-1, 1)))[0])


def spurious_weights(operator: TruncatedOperator, eigenvectors: np.ndarray) -> np.ndarray:
    """:func:`spurious_weight` of each eigenvector column."""
    m = operator.basis.size
    k = operator.basis.guard_levels
    comps = np.abs(eigenvectors) ** 2
    comps = comps.reshape(operator.dim, m, -1)
    return comps[:, -k:, :].sum(axis=(0, 1))


@dataclass(frozen=True)
class GapCertificate:
    """Result of sampling the spectral-gap assumption for a symbol family."""

    ok: bool
    lower_margin: float
    upper_margin: float
    points_checked: int
    worst_point: tuple[float, float, float] = field(default=(0.0, 0.0, 0.0))

    @property
    def margin(self) -> float:
        return min(self.lower_margin, self.upper_margin)


def sampled_gap_certificate(
    symbol: AffineMatrixSymbol,
    grid_points: int = 30,
    shell: tuple[float, float] = (1.0, 3.0),
    mu_max: float = 2.0,
    strict: bool = False,
) -> GapCertificate:
    """Check the gap assumption on a Cartesian sample of the shell.

    Points of a ``grid_points**3`` grid of ``[-shell[1], shell[1]]^3`` with
    ``shell[0] <= |(mu,x,xi)| <= shell[1]`` and ``|mu| <= mu_max`` are kept;
    at each, band ``gap_band`` must lie below ``gap_center - gap_constant``
    and band ``gap_band + 1`` above ``gap_center + gap_constant``.

    With ``strict=True`` a violation raises :class:`GapCertificateError`.
    """
    lo, hi = shell
    axis = np.linspace(-hi, hi, grid_points)
    pts = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    norms = np.linalg.norm(pts, axis=1)
    keep = (norms >= lo) & (norms <= hi) & (np.abs(pts[:, 0]) <= mu_max)
    pts = pts[keep]
    eigs = np.linalg.eigvalsh(symbol.evaluate_many(pts))
    r = symbol.gap_band
    lower = np.full(len(pts), np.inf)
    upper = np.full(len(pts), np.inf)
    if r >= 1:
        lower = symbol.gap_center - symbol.gap_constant - eigs[:, r - 1]
    if r <= symbol.dim - 1:
        upper = eigs[:, r] - (symbol.gap_center + symbol.gap_constant)
    worst = pts[int(np.argmin(np.minimum(lower, upper)))] if len(pts) else np.zeros(3)
    cert = GapCertificate(
        ok=bool(lower.min() > 0 and upper.min() > 0),
        lower_margin=float(lower.min()),
        upper_margin=float(upper.min()),
        points_checked=len(pts),
        worst_point=tuple(float(c) for c in worst),
    )
    if strict and not cert.ok:
        raise GapCertificateError(
            f"gap certificate failed for {symbol.name!r}: margins "
            f"({cert.lower_margin:.3g}, {cert.upper_margin:.3g}) at "
            f"point {cert.worst_point}"
        )
    return cert
