"""Concrete symbol families and their closed-form spectra.

Two physical models are provided: the two-band normal form whose spectrum
is ``omega_0 = mu`` plus ``+-sqrt(mu^2 + 2 eps n)``, and the three-band
equatorial-wave operator with Kelvin, Yanai, Rossby and gravity branches.
A third family, the complexified tangent-plane rotation generator, gives a
built-in bundle with known index for cross-checking the topology code.

The closed forms double as analytic oracles: every eigenvector returned
here has finite Hermite support and is an exact eigenvector of the
truncated operator whenever it fits under the cutoff.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import ModelError, ResonanceError, TruncationError
from .hermite import AffineMatrixSymbol, LinearTerm, Record, TruncatedBasis

__all__ = [
    "BranchLabel",
    "NORMAL_FAMILIES",
    "MATSUNO_FAMILIES",
    "normal_form_symbol",
    "matsuno_symbol",
    "ts2_symbol",
    "constant_symbol",
    "mu_reflected",
    "normal_form_eigenvalue",
    "normal_form_eigenvector",
    "matsuno_eigenvalue",
    "matsuno_eigenvalues",
    "matsuno_eigenvector",
    "matsuno_branch_table",
]

NORMAL_FAMILIES = ("normal_zero", "normal_plus", "normal_minus")
MATSUNO_FAMILIES = (
    "kelvin",
    "yanai_plus",
    "yanai_minus",
    "gravity_minus",
    "rossby",
    "gravity_plus",
)
_LEVELED = ("gravity_minus", "rossby", "gravity_plus", "normal_plus", "normal_minus")


class BranchLabel(Record):
    """Named spectral branch; ``level`` is the Hermite excitation number."""

    family: str
    level: int = 0

    def __post_init__(self):
        if self.family not in NORMAL_FAMILIES + MATSUNO_FAMILIES:
            raise ModelError(f"unknown branch family {self.family!r}")
        if self.family in _LEVELED and self.level < 1:
            raise ModelError(f"{self.family} requires level >= 1")
        if self.family not in _LEVELED and self.level != 0:
            raise ModelError(f"{self.family} carries no excitation level")


def normal_form_symbol(epsilon: float = 1.0, reflected: bool = False) -> AffineMatrixSymbol:
    """Two-band symbol ``[[-mu, x+i xi], [x-i xi, mu]]``.

    The symbol matrix itself does not depend on epsilon (epsilon enters
    through the quantizing basis); the argument is validated for interface
    symmetry with the closed-form branch functions.  ``reflected=True``
    replaces mu by -mu, flipping both the flow and every band index.
    """
    if epsilon <= 0:
        raise ModelError("epsilon must be positive")
    sign = -1.0 if reflected else 1.0
    return AffineMatrixSymbol(
        dim=2,
        const_term=LinearTerm(0.0, np.diag([-sign, sign]).astype(complex)),
        x_coeff=np.array([[0, 1], [1, 0]], dtype=complex),
        xi_coeff=np.array([[0, 1j], [-1j, 0]], dtype=complex),
        gap_band=1,
        gap_constant=0.9,
        gap_center=0.0,
        name="normal-form-reflected" if reflected else "normal-form",
    )


def matsuno_symbol(gap_band: int = 2) -> AffineMatrixSymbol:
    """Three-band equatorial-wave symbol ``[[0, mu, xi], [mu, 0, ix], [xi, -ix, 0]]``.

    Point eigenvalues are ``{-r, 0, +r}`` with ``r = |(mu, x, xi)|``, so the
    two usable gaps sit between bands 1|2 and 2|3; ``gap_band`` selects
    which one is certified.  Each half-gap has width ``r`` on the shell, so
    the certified interval is centered at ``+-0.5`` with half-width 0.45.
    """
    if gap_band not in (1, 2):
        raise ModelError("matsuno gap_band must be 1 or 2")
    return AffineMatrixSymbol(
        dim=3,
        const_term=LinearTerm(0.0, np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)),
        x_coeff=np.array([[0, 0, 0], [0, 0, 1j], [0, -1j, 0]], dtype=complex),
        xi_coeff=np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex),
        gap_band=gap_band,
        gap_constant=0.45,
        gap_center=0.5 if gap_band == 2 else -0.5,
        name="matsuno",
    )


def ts2_symbol(gap_band: int = 2) -> AffineMatrixSymbol:
    """Rotation generator ``-i (mu, x, xi) x (.)`` on C^3.

    Point eigenvalues are ``{-r, 0, +r}``; the top band is the +i
    eigenspace of the 90-degree tangent-plane rotation and carries the
    tangent-bundle index +2.
    """
    if gap_band not in (1, 2):
        raise ModelError("ts2 gap_band must be 1 or 2")

    def cross(v: np.ndarray) -> np.ndarray:
        return np.array(
            [[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]], dtype=complex
        )

    return AffineMatrixSymbol(
        dim=3,
        const_term=LinearTerm(0.0, -1j * cross(np.array([1.0, 0.0, 0.0]))),
        x_coeff=-1j * cross(np.array([0.0, 1.0, 0.0])),
        xi_coeff=-1j * cross(np.array([0.0, 0.0, 1.0])),
        gap_band=gap_band,
        gap_constant=0.45,
        gap_center=0.5 if gap_band == 2 else -0.5,
        name="ts2",
    )


def constant_symbol(value: float = 5.0, dim: int = 1) -> AffineMatrixSymbol:
    """Constant scalar control ``H = value * Id`` with no band below the gap."""
    return AffineMatrixSymbol(
        dim=dim,
        const_term=LinearTerm(value * np.eye(dim, dtype=complex),
                              np.zeros((dim, dim), dtype=complex)),
        x_coeff=np.zeros((dim, dim), dtype=complex),
        xi_coeff=np.zeros((dim, dim), dtype=complex),
        gap_band=0,
        gap_constant=0.9,
        gap_center=0.0,
        name="constant",
    )


def mu_reflected(symbol: AffineMatrixSymbol) -> AffineMatrixSymbol:
    """The family mu -> H(-mu), which negates flow and band indices; a :class:`LinearTerm`
    stays one."""
    base = symbol.const_term
    const = (LinearTerm(base.a0, -base.a1) if isinstance(base, LinearTerm)
             else lambda mu: base(-mu))
    return replace(symbol, const_term=const, name=symbol.name + "-mu-reflected")


# ---------------------------------------------------------------------------
# normal form closed forms
# ---------------------------------------------------------------------------

def normal_form_eigenvalue(label: BranchLabel, mu: float, epsilon: float) -> float:
    """Closed-form branch value: ``mu`` or ``+-sqrt(mu^2 + 2 eps n)``."""
    if epsilon <= 0:
        raise ModelError("epsilon must be positive")
    if label.family == "normal_zero":
        return float(mu)
    if label.family not in ("normal_plus", "normal_minus"):
        raise ModelError(f"{label.family} is not a normal-form branch")
    root = np.sqrt(mu * mu + 2.0 * epsilon * label.level)
    return float(root if label.family == "normal_plus" else -root)


def normal_form_eigenvector(
    label: BranchLabel, mu: float, epsilon: float, basis: TruncatedBasis
) -> np.ndarray:
    """Normalized eigenvector embedded in ``(levels 0..M) (x) C^2``.

    Component 1 carries level ``n - 1`` with amplitude
    ``sqrt(2 n eps) / (mu + omega)``, component 2 carries level n; the
    ground branch is the pure component-2 level-0 state.
    """
    m = basis.size
    vec = np.zeros(2 * m, dtype=complex)
    if label.family == "normal_zero":
        vec[m] = 1.0  # component 2, level 0
        return vec
    n = label.level
    if n > basis.max_level:
        raise TruncationError(f"level {n} exceeds max_level {basis.max_level}")
    omega = normal_form_eigenvalue(label, mu, epsilon)
    denom = mu + omega
    if abs(denom) < 1e-14:
        raise ResonanceError("mu + omega vanishes; branch undefined here")
    vec[n - 1] = np.sqrt(2.0 * n * epsilon) / denom  # component 1, level n-1
    vec[m + n] = 1.0  # component 2, level n
    return vec / np.linalg.norm(vec)


# ---------------------------------------------------------------------------
# equatorial-wave closed forms
# ---------------------------------------------------------------------------

def _depressed_cubic_roots(p: float, q: float) -> np.ndarray:
    """Three real roots of ``t^3 + p t + q = 0``, ascending.

    Trigonometric form (valid when all roots are real, i.e. the
    discriminant ``-4 p^3 - 27 q^2`` is nonnegative) followed by one Newton
    polish step per root to remove the trig cancellation near ties.
    """
    if p >= 0:
        raise ModelError("cubic must have three real roots (requires p < 0)")
    rad = np.sqrt(-p / 3.0)
    arg = np.clip(3.0 * q / (2.0 * p * rad), -1.0, 1.0)
    phi = np.arccos(arg)
    k = np.arange(3)
    roots = 2.0 * rad * np.cos(phi / 3.0 - 2.0 * np.pi * k / 3.0)
    f = roots**3 + p * roots + q
    fp = 3.0 * roots**2 + p
    roots = roots - f / fp
    return np.sort(roots)


def matsuno_eigenvalue(label: BranchLabel, mu: float) -> float:
    """Closed-form branch value of the equatorial-wave operator."""
    if label.family == "kelvin":
        return float(mu)
    if label.family in ("yanai_plus", "yanai_minus"):
        disc = np.sqrt(mu * mu + 4.0)
        return float(0.5 * (mu + disc if label.family == "yanai_plus" else mu - disc))
    if label.family in ("gravity_minus", "rossby", "gravity_plus"):
        roots = _depressed_cubic_roots(-(mu * mu + 2.0 * label.level + 1.0), -mu)
        idx = {"gravity_minus": 0, "rossby": 1, "gravity_plus": 2}[label.family]
        return float(roots[idx])
    raise ModelError(f"{label.family} is not an equatorial-wave branch")


def matsuno_eigenvalues(level: int, mu: float) -> dict[BranchLabel, float]:
    """Branch values at one excitation level.

    Level 0 returns the Kelvin value ``mu`` and the two Yanai roots of
    ``w^2 - mu w - 1``; level n >= 1 returns the three real roots of
    ``w^3 - (mu^2 + 2n + 1) w - mu`` labeled ascending as gravity_minus,
    rossby, gravity_plus (ties at mu = 0 broken by sort position).
    """
    if level == 0:
        labels = (BranchLabel("kelvin"), BranchLabel("yanai_minus"), BranchLabel("yanai_plus"))
        return {label: matsuno_eigenvalue(label, mu) for label in labels}
    if level < 1:
        raise ModelError("level must be >= 0")
    roots = _depressed_cubic_roots(-(mu * mu + 2.0 * level + 1.0), -mu)
    return {
        BranchLabel("gravity_minus", level): float(roots[0]),
        BranchLabel("rossby", level): float(roots[1]),
        BranchLabel("gravity_plus", level): float(roots[2]),
    }


def matsuno_eigenvector(
    label: BranchLabel, mu: float, basis: TruncatedBasis
) -> np.ndarray:
    """Normalized eigenvector embedded in ``(levels 0..M) (x) C^3``.

    Built from the two-term recursion around the excited third component
    ``c_n = 1``: the symmetric combination ``s = a + b`` sits at level
    ``n + 1`` with amplitude ``-i sqrt(2(n+1)) / (mu - omega)`` and the
    antisymmetric one ``d = b - a`` at level ``n - 1`` with amplitude
    ``i sqrt(2n) / (mu + omega)``.  Kelvin is the pure ``s_0`` excitation,
    normalized with its first component real positive.
    """
    m = basis.size
    vec = np.zeros(3 * m, dtype=complex)
    if label.family == "kelvin":
        vec[0] = 1.0  # a_0 = s_0 / 2
        vec[m] = 1.0  # b_0 = s_0 / 2
        return vec / np.linalg.norm(vec)
    if label.family in ("yanai_plus", "yanai_minus"):
        n = 0
    else:
        n = label.level
    if n + 1 > basis.max_level:
        raise TruncationError(
            f"level {n}+1 exceeds max_level {basis.max_level}"
        )
    omega = matsuno_eigenvalue(label, mu)
    if abs(mu - omega) < 1e-14 or (n >= 1 and abs(mu + omega) < 1e-14):
        raise ResonanceError(
            f"{label.family} eigenvector recursion singular at mu={mu} "
            f"(omega = {omega:+.6g} hits -+mu)"
        )
    vec[2 * m + n] = 1.0  # c_n
    s_up = -1j * np.sqrt(2.0 * (n + 1)) / (mu - omega)
    vec[n + 1] += 0.5 * s_up  # a_{n+1}
    vec[m + n + 1] += 0.5 * s_up  # b_{n+1}
    if n >= 1:
        d_down = 1j * np.sqrt(2.0 * n) / (mu + omega)
        vec[n - 1] += -0.5 * d_down  # a_{n-1}
        vec[m + n - 1] += 0.5 * d_down  # b_{n-1}
    return vec / np.linalg.norm(vec)


def matsuno_branch_table(mu: float, n_max: int) -> list[tuple[BranchLabel, float]]:
    """All closed-form branch values with level <= n_max at one mu."""
    rows: list[tuple[BranchLabel, float]] = []
    for level in range(0, n_max + 1):
        rows.extend(matsuno_eigenvalues(level, mu).items())
    return rows
