"""Spectral flow of truncated operators through a gap window.

A sweep diagonalizes the quantized operator on an adaptively refined mu
grid, discards truncation artifacts, and records the eigenvalues inside a
spectral window.  The flow count through the reference level is computed
two independent ways -- a counting-function difference between the sweep
endpoints and a signed tally of tracked branch crossings -- and the two
must agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    EndpointInSpectrumError,
    MethodDisagreementError,
    ModelError,
    RefinementError,
)
from .hermite import (
    SPURIOUS_THRESHOLD,
    AffineMatrixSymbol,
    TruncatedBasis,
    quantize,
    sampled_gap_certificate,
    spurious_weights,
)

__all__ = [
    "SpectralWindow",
    "EigenSample",
    "SpectrumSweep",
    "FlowResult",
    "Crossing",
    "sweep",
    "spectral_index",
    "flow_invariance_check",
    "InvarianceReport",
]

#: Crossed brackets are bisected until narrower than this in mu.
CROSSING_WIDTH = 1e-6
#: Matching ambiguities are bisected down to this interval width.
MATCH_MIN_WIDTH = 1e-3
#: Bisection rounds allowed per coarse interval for matching refinement.
MAX_MATCH_ROUNDS = 12


@dataclass(frozen=True)
class SpectralWindow:
    """Open interval of the spectral axis with a reference level inside."""

    omega_min: float
    omega_max: float
    omega_ref: float

    def __post_init__(self):
        if not self.omega_min < self.omega_max:
            raise ModelError("window requires omega_min < omega_max")
        if not self.omega_min < self.omega_ref < self.omega_max:
            raise ModelError("omega_ref must lie strictly inside the window")

    @property
    def width(self) -> float:
        return self.omega_max - self.omega_min


@dataclass(frozen=True)
class EigenSample:
    """Filtered window spectrum of the operator at one mu value.

    ``omegas`` are the ascending non-spurious eigenvalues inside the window
    and ``guard_weights`` their squared amplitudes on the guard levels.
    ``count_below_ref`` counts every non-spurious eigenvalue under the
    reference level (above a floor one full spectral span below the window
    bottom, which in practice includes the whole retained spectrum).
    """

    mu: float
    omegas: np.ndarray
    guard_weights: np.ndarray
    count_below_ref: int


@dataclass(frozen=True)
class SpectrumSweep:
    """Eigenvalue branches inside a window over a refined mu grid."""

    samples: tuple[EigenSample, ...]
    window: SpectralWindow

    def table_rows(self):
        """(mu, ordinal, omega, spurious_weight) rows for export."""
        for s in self.samples:
            for i, w in enumerate(s.omegas):
                yield (s.mu, i, float(w), float(s.guard_weights[i]))


@dataclass(frozen=True)
class Crossing:
    """One branch crossing of the reference level inside (mu_lo, mu_hi)."""

    mu_lo: float
    mu_hi: float
    direction: int


@dataclass(frozen=True)
class FlowResult:
    """Spectral flow with both independent counts and crossing records."""

    N: int
    method_counts: dict
    crossings: tuple[Crossing, ...]


def _window_sample(symbol: AffineMatrixSymbol, basis: TruncatedBasis,
                   window: SpectralWindow, mu: float) -> EigenSample:
    """Dense eigensolve + spurious filter at one mu."""
    op = quantize(symbol, mu, basis)
    omegas, vecs = np.linalg.eigh(op.matrix)
    weights = spurious_weights(op, vecs)
    keep = weights <= SPURIOUS_THRESHOLD
    kept = omegas[keep]
    span = float(omegas[-1] - omegas[0]) if len(omegas) else 0.0
    floor = window.omega_min - span
    count_below = int(np.sum((kept > floor) & (kept < window.omega_ref)))
    in_window = keep & (omegas > window.omega_min) & (omegas < window.omega_max)
    return EigenSample(
        mu=float(mu),
        omegas=omegas[in_window],
        guard_weights=weights[in_window],
        count_below_ref=count_below,
    )


def _ordered_assignment(short: np.ndarray, long_: np.ndarray) -> list[int]:
    """Columns of ``long_`` matched to each entry of ``short``, ascending.

    Both arrays are sorted and ``len(short) <= len(long_)``.  For |difference|
    cost on sorted reals some minimum-cost matching never crosses, so the
    identity is optimal for equal sizes; otherwise a dynamic program picks
    which entries of ``long_`` stay unmatched.
    """
    n, m = len(short), len(long_)
    if n == m:
        return list(range(n))
    cost = np.abs(short[:, None] - long_[None, :])
    # best[i, j]: least cost of matching short[:i] into long_[:j]
    best = np.full((n + 1, m + 1), np.inf)
    best[0] = 0.0
    for i in range(1, n + 1):
        best[i, i:] = np.minimum.accumulate(best[i - 1, i - 1 : m] + cost[i - 1, i - 1 :])
    cols = []
    j = m
    for i in range(n, 0, -1):
        while best[i, j] == best[i, j - 1]:  # long_[j - 1] stays unmatched
            j -= 1
        j -= 1
        cols.append(j)
    return cols[::-1]


def _match_windows(a: EigenSample, b: EigenSample):
    """Injective nearest-value assignment between two window spectra.

    Returns (pairs, unmatched_a, unmatched_b, worst_motion); pairing is the
    minimum-total-|difference| assignment of the smaller set into the
    larger one, found by :func:`_ordered_assignment`, with pairs in
    ascending order of both indices.
    """
    wa, wb = a.omegas, b.omegas
    if len(wa) <= len(wb):
        pairs = list(enumerate(_ordered_assignment(wa, wb)))
    else:
        pairs = [(i, j) for j, i in enumerate(_ordered_assignment(wb, wa))]
    matched_a = {i for i, _ in pairs}
    matched_b = {j for _, j in pairs}
    unmatched_a = [i for i in range(len(wa)) if i not in matched_a]
    unmatched_b = [j for j in range(len(wb)) if j not in matched_b]
    worst = max((abs(wa[i] - wb[j]) for i, j in pairs), default=0.0)
    return pairs, unmatched_a, unmatched_b, float(worst)


def _local_spacing(a: EigenSample, b: EigenSample, window: SpectralWindow) -> float:
    spacing = window.width
    for s in (a, b):
        if len(s.omegas) >= 2:
            spacing = min(spacing, float(np.diff(s.omegas).min()))
    return spacing


def _needs_split(a: EigenSample, b: EigenSample, window: SpectralWindow) -> bool:
    width = b.mu - a.mu
    pairs, un_a, un_b, worst = _match_windows(a, b)
    if (un_a or un_b) and width > MATCH_MIN_WIDTH:
        return True
    if pairs and worst > 0.5 * _local_spacing(a, b, window) and width > MATCH_MIN_WIDTH:
        return True
    ref = window.omega_ref
    for i, j in pairs:
        wa, wb = a.omegas[i], b.omegas[j]
        straddles = (wa < ref) != (wb < ref)
        touches = min(abs(wa - ref), abs(wb - ref)) < CROSSING_WIDTH
        if (straddles or touches) and width > CROSSING_WIDTH:
            return True
    return False


def _check_matchable_at_floor(a: EigenSample, b: EigenSample, window: SpectralWindow):
    """Raise when ambiguity survives at the minimum interval width."""
    pairs, un_a, un_b, worst = _match_windows(a, b)
    edge_tol = 0.05 * window.width
    for sample, unmatched in ((a, un_a), (b, un_b)):
        for i in unmatched:
            w = sample.omegas[i]
            edge_dist = min(w - window.omega_min, window.omega_max - w)
            if edge_dist > edge_tol:
                raise RefinementError(
                    f"eigenvalue {w:.6g} appears or vanishes deep inside the "
                    f"window near mu={sample.mu:.9g}"
                )
    if pairs and worst > 0.5 * _local_spacing(a, b, window):
        raise RefinementError(
            f"branch matching ambiguous between mu={a.mu:.9g} and "
            f"mu={b.mu:.9g} (worst motion {worst:.3g})"
        )


def sweep(
    symbol: AffineMatrixSymbol,
    basis: TruncatedBasis,
    window: SpectralWindow,
    mu_min: float,
    mu_max: float,
    steps: int,
) -> SpectrumSweep:
    """Assemble the window spectrum over an adaptively refined mu grid.

    Starts from ``steps + 1`` uniform samples.  Intervals are bisected when
    neighbouring window spectra cannot be matched injectively within half
    the local level spacing (up to :data:`MAX_MATCH_ROUNDS` rounds) and
    whenever a matched branch straddles or touches the reference level,
    until such brackets are narrower than :data:`CROSSING_WIDTH`.
    """
    if steps < 16:
        raise ModelError("sweep needs steps >= 16")
    if not mu_min < mu_max:
        raise ModelError("sweep needs mu_min < mu_max")
    samples = [
        _window_sample(symbol, basis, window, mu)
        for mu in np.linspace(mu_min, mu_max, steps + 1)
    ]

    for s in (samples[0], samples[-1]):
        if len(s.omegas) and np.min(np.abs(s.omegas - window.omega_ref)) < CROSSING_WIDTH:
            raise EndpointInSpectrumError(
                f"eigenvalue on the reference level at sweep endpoint "
                f"mu={s.mu}; enlarge the mu range"
            )

    # matching ambiguities refine down to MATCH_MIN_WIDTH (within the
    # bisection-round budget for any permitted grid), crossing brackets all
    # the way down to CROSSING_WIDTH
    base_step = (mu_max - mu_min) / steps
    if base_step / MATCH_MIN_WIDTH > 2**MAX_MATCH_ROUNDS:
        raise ModelError("mu grid too coarse for the matching-refinement budget")
    i = 0
    while i < len(samples) - 1:
        a, b = samples[i], samples[i + 1]
        width = b.mu - a.mu
        if width > CROSSING_WIDTH and _needs_split(a, b, window):
            samples.insert(i + 1, _window_sample(symbol, basis, window, 0.5 * (a.mu + b.mu)))
            continue
        if width <= MATCH_MIN_WIDTH:
            _check_matchable_at_floor(a, b, window)
        i += 1

    return SpectrumSweep(samples=tuple(samples), window=window)


def spectral_index(sweep_: SpectrumSweep) -> FlowResult:
    """Spectral flow through the reference level, counted two ways.

    Counting method: non-spurious eigenvalues below the reference level at
    the first sample minus the same count at the last.  Crossing method:
    signed tally of matched-branch crossings (+1 upward).  A disagreement
    raises :class:`MethodDisagreementError`.
    """
    samples = sweep_.samples
    window = sweep_.window
    n_counting = samples[0].count_below_ref - samples[-1].count_below_ref

    ref = window.omega_ref
    n_crossing = 0
    crossings = []
    for a, b in zip(samples, samples[1:]):
        pairs, _, _, _ = _match_windows(a, b)
        for i, j in pairs:
            below_a = a.omegas[i] < ref
            below_b = b.omegas[j] < ref
            if below_a != below_b:
                direction = 1 if below_a else -1
                n_crossing += direction
                crossings.append(Crossing(mu_lo=a.mu, mu_hi=b.mu, direction=direction))

    if n_counting != n_crossing:
        raise MethodDisagreementError(
            f"counting-function flow {n_counting} != tracked crossings "
            f"{n_crossing}"
        )
    return FlowResult(
        N=n_counting,
        method_counts={
            "counting_function": n_counting,
            "tracked_crossings": n_crossing,
        },
        crossings=tuple(crossings),
    )


@dataclass(frozen=True)
class InvarianceEntry:
    delta: float
    gap_ok: bool
    N: int | None
    matches_baseline: bool | None


@dataclass(frozen=True)
class InvarianceReport:
    baseline_N: int
    entries: tuple[InvarianceEntry, ...]

    @property
    def all_valid_match(self) -> bool:
        return all(e.matches_baseline for e in self.entries if e.gap_ok)


def _bump(mu: np.ndarray, half_width: float = 2.0) -> np.ndarray:
    """Smooth compactly supported envelope, 1 at mu = 0, 0 for |mu| >= width."""
    t = mu / half_width
    inside = np.abs(t) < 1.0
    out = np.zeros_like(t)
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - t[inside] * t[inside]))
    return out


def flow_invariance_check(
    symbol: AffineMatrixSymbol,
    deltas: Sequence[float],
    basis: TruncatedBasis,
    window: SpectralWindow,
    mu_min: float,
    mu_max: float,
    steps: int = 32,
    seed: int = 7,
) -> InvarianceReport:
    """Flow stability under Hermitian perturbations supported near mu = 0.

    For each delta, ``A(mu) + delta * g(mu) * P`` is swept, with P a fixed
    random Hermitian of unit spectral norm and g a smooth bump vanishing
    for |mu| >= 2, so the operator at the sweep endpoints is untouched and
    only the crossing region is deformed.  Perturbations that break the
    sampled gap certificate are reported as skipped rather than failures.
    """
    rng = np.random.default_rng(seed)
    d = symbol.dim
    raw = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    pert = 0.5 * (raw + raw.conj().T)
    pert /= np.linalg.norm(pert, ord=2)

    baseline = spectral_index(sweep(symbol, basis, window, mu_min, mu_max, steps))
    entries = []
    base_const = symbol.const_term
    for delta in deltas:
        shifted = AffineMatrixSymbol(
            dim=symbol.dim,
            const_term=lambda mu, dl=delta: base_const(mu)
            + (dl * _bump(mu))[:, None, None] * pert,
            x_coeff=symbol.x_coeff,
            xi_coeff=symbol.xi_coeff,
            gap_band=symbol.gap_band,
            gap_constant=symbol.gap_constant,
            gap_center=symbol.gap_center,
            name=f"{symbol.name}+{delta}P",
        )
        cert = sampled_gap_certificate(shifted)
        if not cert.ok:
            entries.append(
                InvarianceEntry(delta=float(delta), gap_ok=False, N=None,
                                matches_baseline=None)
            )
            continue
        result = spectral_index(sweep(shifted, basis, window, mu_min, mu_max, steps))
        entries.append(
            InvarianceEntry(
                delta=float(delta),
                gap_ok=True,
                N=result.N,
                matches_baseline=result.N == baseline.N,
            )
        )
    return InvarianceReport(baseline_N=baseline.N, entries=tuple(entries))
