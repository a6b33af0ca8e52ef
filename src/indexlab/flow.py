"""Spectral flow of truncated operators through a gap window.

A sweep diagonalizes the quantized operator on an adaptively refined mu
grid, discards truncation artifacts, and records the eigenvalues inside a
spectral window.  The grid is refined in rounds: each round bisects every
interval whose end samples call for it and solves all the new midpoints
together.  A batch of samples solves the complete charge blocks of the
operator (:class:`~indexlab.hermite.OperatorPieces`, built once per sweep)
for eigenvalues only, one batched solve per stack of equal-size blocks; the
incomplete top blocks, the only ones that can hold truncation artifacts, are
left out.  Where the blocks are tridiagonal, eigenvalue counts (Sturm
sequences) of their real forms at the window edges settle every block with
no eigenvalue near the window, and only the few others are solved.  A
symbol without a charge operator (one whose ``const_term`` is not a
:class:`~indexlab.hermite.LinearTerm`) solves the whole operator at each
sample and drops the eigenvalues with weight on the guard levels.  Each
interval's branches are matched once, when the interval appears, and the
sweep records the matched branches that cross the reference level in its
final intervals.  The flow through the reference level is counted two
independent ways -- a counting-function difference between the sweep
endpoints and the signed tally of those crossings -- and the two must agree
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
    BlockStack,
    OperatorPieces,
    TruncatedBasis,
    sampled_gap_certificate,
)

__all__ = [
    "SpectralWindow",
    "EigenSample",
    "SpectrumSweep",
    "FlowResult",
    "Crossing",
    "check_mu_grid",
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
#: A tridiagonal block T is solved only if its Sturm counts below
#: ``omega_min - tau`` and ``omega_max + tau`` differ, ``tau`` this times
#: ``max(1, ||T||)``: far above the backward error of the count and of
#: ``eigvalsh`` (a few ulps of ``||T||``).
STURM_MARGIN = 1e-9


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
    """Window spectrum of the operator at one mu value.

    ``omegas`` are the ascending kept eigenvalues inside the window (those of
    the complete charge blocks, or the whole operator's non-spurious ones)
    and ``guard_weights`` their squared amplitudes on the guard levels,
    exactly 0 for a charge block.  ``count_below_ref`` counts every kept
    eigenvalue under the reference level, inside the window or below it.
    """

    mu: float
    omegas: np.ndarray
    guard_weights: np.ndarray
    count_below_ref: int


@dataclass(frozen=True)
class Crossing:
    """One branch crossing of the reference level inside (mu_lo, mu_hi)."""

    mu_lo: float
    mu_hi: float
    direction: int


@dataclass(frozen=True)
class SpectrumSweep:
    """Eigenvalue branches inside a window over a refined mu grid.

    ``crossings``, left to right, are the matched branches that straddle the
    reference level between adjacent samples, as :func:`sweep` matched them.
    """

    samples: tuple[EigenSample, ...]
    window: SpectralWindow
    crossings: tuple[Crossing, ...]

    def table_rows(self):
        """(mu, ordinal, omega, spurious_weight) rows for export."""
        for s in self.samples:
            for i, w in enumerate(s.omegas):
                yield (s.mu, i, float(w), float(s.guard_weights[i]))


@dataclass(frozen=True)
class FlowResult:
    """Spectral flow with both independent counts and crossing records."""

    N: int
    method_counts: dict
    crossings: tuple[Crossing, ...]


def _sturm_count(diag: np.ndarray, off_sq: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Eigenvalues below ``shift`` of real symmetric tridiagonal matrices.

    ``diag`` (s, ...) and ``off_sq`` (s - 1, ...) hold the diagonals and the
    squared subdiagonals, entry by entry, broadcast against ``shift``.
    Counts the negative pivots ``d_i = (a_i - shift) - b_{i-1}^2 / d_{i-1}``
    of ``T - shift = L D L^T`` (Sylvester's law of inertia; Barth, Martin &
    Wilkinson 1967).  A pivot of magnitude at most ``pivmin`` becomes
    ``-pivmin``, as in LAPACK ``dstebz`` (here with the largest ``b^2`` of
    all the matrices), so no division is by zero or overflows.  The count is
    exact for a matrix within a few ulps of ``T`` (Demmel, Dhillon & Ren
    1995).
    """
    pivmin = np.finfo(float).tiny * max(1.0, off_sq.max(initial=0.0))
    count = 0
    for i, a in enumerate(diag):
        d = a - shift
        if i:
            d -= off_sq[i - 1] / pivot
        pivot = np.where(np.abs(d) <= pivmin, -pivmin, d)
        count = count + (pivot < 0)
    return count


def _tridiagonal_eigenvalues(stack: BlockStack, framed: np.ndarray,
                             window: SpectralWindow) -> tuple[np.ndarray, np.ndarray]:
    """The ``eigvalsh`` values of a ``tridiagonal`` stack's blocks that the window can
    see, as ``(k, b * s)`` with ``+inf`` for the rest, and per sample the
    eigenvalues below the window of the blocks not solved.

    A block whose Sturm counts (:func:`_sturm_count`) below ``omega_min -
    tau`` and ``omega_max + tau`` agree has no eigenvalue within ``tau / 2``
    of the window, so its ``eigvalsh`` values are all outside it and as many
    below it as that count: it is not solved.  ``tau`` is
    :data:`STURM_MARGIN` times ``max(1, ||T||)``, with ``||T||`` bounded for
    all of a sample's blocks at once.  The other blocks are solved by
    ``eigvalsh`` in the real form that :meth:`~indexlab.hermite.BlockStack.blocks`
    builds.  A 1x1 block's eigenvalue is its entry, as LAPACK returns it.
    """
    diag = stack.diagonal(framed)
    k, s, b = diag.shape
    if s == 1:
        return diag.reshape(k, b), 0
    moduli = stack.tridiagonal[1]
    # Gershgorin: |a_i| + |b_{i-1}| + |b_i| bounds ||T||
    norm = np.abs(diag).reshape(k, -1).max(axis=1) + 2.0 * moduli.max()
    tau = STURM_MARGIN * np.maximum(1.0, norm)[:, None]
    below, upto = _sturm_count(diag.swapaxes(0, 1), moduli ** 2,
                               np.stack([window.omega_min - tau, window.omega_max + tau]))
    solve = below != upto
    w = np.full((k, b, s), np.inf)
    if solve.any():
        w[solve] = np.linalg.eigvalsh(stack.blocks(diag.swapaxes(1, 2)[solve],
                                                   np.nonzero(solve)[1]))
    return w.reshape(k, -1), np.where(solve, 0, below).sum(axis=1)


def _samples(mus: np.ndarray, w: np.ndarray, g: np.ndarray, below: np.ndarray | int,
             window: SpectralWindow) -> list[EigenSample]:
    """Samples at ``mus`` (k,) from their kept values ``w`` (k, n), ``+inf`` where none,
    with guard weights ``g`` and ``below`` eigenvalues below the window not in ``w``.

    Only the values inside the window are sorted (stably, per sample).
    """
    rows, cols = np.nonzero((w > window.omega_min) & (w < window.omega_max))
    order = np.lexsort((w[rows, cols], rows))
    rows, cols = rows[order], cols[order]
    omegas, weights = w[rows, cols], g[rows, cols]
    below = below + np.count_nonzero(w < window.omega_ref, axis=1)
    ends = np.cumsum(np.bincount(rows, minlength=len(w))).tolist()
    return [
        EigenSample(mu=float(mu), omegas=omegas[a:b], guard_weights=weights[a:b],
                    count_below_ref=int(n))
        for mu, a, b, n in zip(mus, [0] + ends, ends, below)
    ]


def _window_samples(pieces: OperatorPieces, window: SpectralWindow,
                    mus: Sequence[float]) -> list[EigenSample]:
    """Window spectra at each of ``mus``.

    One ``A(mu)`` evaluation for all of ``mus``.  With charge stacks the
    samples are solved as one batch, turned into the charge frame once and
    solved per charge stack for eigenvalues only, by
    :func:`_tridiagonal_eigenvalues` where the stack is ``tridiagonal``, else
    by ``eigvalsh``; every value is kept, with guard weight 0.0.  Without
    them each sample solves the whole operator alone by ``eigh`` and drops
    the values whose guard weight exceeds
    :data:`~indexlab.hermite.SPURIOUS_THRESHOLD`.
    """
    mus = np.asarray(mus, dtype=float)
    amats = pieces.symbol.const_stack(mus)
    if pieces.charge_stacks:
        framed = pieces.charge_stacks[0].to_frame(amats)  # one frame for all
        parts, below = [], 0
        for stack in pieces.charge_stacks:
            if stack.tridiagonal is None:
                w, settled = np.linalg.eigvalsh(stack.assemble(framed)), 0
            else:
                w, settled = _tridiagonal_eigenvalues(stack, framed, window)
            parts.append(w.reshape(len(mus), -1))
            below = below + settled
        w = np.concatenate(parts, axis=1)
        return _samples(mus, w, np.zeros_like(w), below, window)
    samples = []
    for i in range(len(mus)):
        w, v = np.linalg.eigh(pieces.whole.assemble(amats[i:i + 1])[0])
        g = (np.abs(v) ** 2 * pieces.guard[:, None]).sum(axis=-2)
        w = np.where(g <= SPURIOUS_THRESHOLD, w, np.inf)
        samples += _samples(mus[i:i + 1], w, g, 0, window)
    return samples


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


def _direction(wa: float, wb: float, ref: float) -> int:
    """+1 for a branch from below ``ref`` to above it, -1 for the reverse, else 0."""
    return int(wa < ref) - int(wb < ref)


def _needs_split(a: EigenSample, b: EigenSample, match, window: SpectralWindow) -> bool:
    """Whether (a, b), wider than :data:`CROSSING_WIDTH` and matched by ``match``, is bisected."""
    pairs, un_a, un_b, worst = match
    ambiguous = un_a or un_b or (pairs and worst > 0.5 * _local_spacing(a, b, window))
    if ambiguous and b.mu - a.mu > MATCH_MIN_WIDTH:
        return True
    ref = window.omega_ref
    for i, j in pairs:
        wa, wb = a.omegas[i], b.omegas[j]
        if _direction(wa, wb, ref) or min(abs(wa - ref), abs(wb - ref)) < CROSSING_WIDTH:
            return True
    return False


def _check_matchable_at_floor(a: EigenSample, b: EigenSample, match, window: SpectralWindow):
    """Raise when ambiguity in ``match`` survives at the minimum interval width."""
    pairs, un_a, un_b, worst = match
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


def check_mu_grid(mu_min: float, mu_max: float, steps: int):
    """Raise :class:`ModelError` unless ``mu_min < mu_max`` and there are at least 16 steps,
    each brought down to :data:`MATCH_MIN_WIDTH` by :data:`MAX_MATCH_ROUNDS` bisections."""
    if steps < 16:
        raise ModelError(f"steps must be >= 16, got {steps!r}")
    if not mu_min < mu_max:
        raise ModelError(f"mu_min must be below mu_max, got {mu_min!r}, {mu_max!r}")
    step, most = (mu_max - mu_min) / steps, MATCH_MIN_WIDTH * 2**MAX_MATCH_ROUNDS
    if step > most:
        raise ModelError(f"mu grid too coarse for the matching-refinement budget: "
                         f"step {step:.6g} > {most:.6g}")


def sweep(
    symbol: AffineMatrixSymbol,
    basis: TruncatedBasis,
    window: SpectralWindow,
    mu_min: float,
    mu_max: float,
    steps: int,
) -> SpectrumSweep:
    """Window spectrum and reference-level crossings over an adaptively refined mu grid.

    Starts from ``steps + 1`` uniform samples.  Intervals are bisected when
    neighbouring window spectra cannot be matched injectively within half
    the local level spacing (up to :data:`MAX_MATCH_ROUNDS` rounds) and
    whenever a matched branch straddles or touches the reference level,
    until such brackets are narrower than :data:`CROSSING_WIDTH`.  Refinement
    goes in rounds: each round bisects every interval that still calls for it
    and solves all of their midpoints in one :func:`_window_samples` call.
    Whether an interval is split depends only on its two end samples, so the
    samples are those of bisecting one interval at a time.  Each interval is
    matched once, when it appears; intervals at or below
    :data:`MATCH_MIN_WIDTH` are then checked for matchability, left to
    right, and the matched branches that straddle the reference level in
    the final intervals become the sweep's crossings.
    """
    check_mu_grid(mu_min, mu_max, steps)
    pieces = OperatorPieces(symbol, basis)
    samples = _window_samples(pieces, window, np.linspace(mu_min, mu_max, steps + 1))

    for s in (samples[0], samples[-1]):
        if len(s.omegas) and np.min(np.abs(s.omegas - window.omega_ref)) < CROSSING_WIDTH:
            raise EndpointInSpectrumError(
                f"eigenvalue on the reference level at sweep endpoint "
                f"mu={s.mu}; enlarge the mu range"
            )

    # matching ambiguities refine down to MATCH_MIN_WIDTH (within the budget
    # check_mu_grid enforces), crossing brackets down to CROSSING_WIDTH; one
    # match per interval; None marks an interval new this round, the only
    # kind tested for a split (an unsplit one keeps its end samples)
    matches = [None] * (len(samples) - 1)
    while True:
        new = [m is None for m in matches]
        matches = [m or _match_windows(a, b) for m, a, b in zip(matches, samples, samples[1:])]
        split = [
            fresh and b.mu - a.mu > CROSSING_WIDTH and _needs_split(a, b, m, window)
            for fresh, m, a, b in zip(new, matches, samples, samples[1:])
        ]
        if not any(split):
            break
        mids = iter(_window_samples(pieces, window, [
            0.5 * (a.mu + b.mu) for cut, a, b in zip(split, samples, samples[1:]) if cut
        ]))
        refined, kept = [samples[0]], []
        for cut, m, b in zip(split, matches, samples[1:]):
            refined += [next(mids), b] if cut else [b]
            kept += [None, None] if cut else [m]
        samples, matches = refined, kept

    crossings = []
    for m, a, b in zip(matches, samples, samples[1:]):
        if b.mu - a.mu <= MATCH_MIN_WIDTH:
            _check_matchable_at_floor(a, b, m, window)
        for i, j in m[0]:
            direction = _direction(a.omegas[i], b.omegas[j], window.omega_ref)
            if direction:
                crossings.append(Crossing(mu_lo=a.mu, mu_hi=b.mu, direction=direction))

    return SpectrumSweep(samples=tuple(samples), window=window, crossings=tuple(crossings))


def spectral_index(sweep_: SpectrumSweep) -> FlowResult:
    """Spectral flow through the reference level, counted two ways.

    Counting method: non-spurious eigenvalues below the reference level at
    the first sample minus the same count at the last.  Crossing method:
    signed tally of the crossings :func:`sweep` recorded (+1 upward).  A
    disagreement raises :class:`MethodDisagreementError`.
    """
    samples = sweep_.samples
    n_counting = samples[0].count_below_ref - samples[-1].count_below_ref
    n_crossing = sum(c.direction for c in sweep_.crossings)
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
        crossings=sweep_.crossings,
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
    for |mu| >= 2; the sweep range must contain [-2, 2] (else :class:`ModelError`),
    so the operator at the sweep endpoints is untouched and only the crossing
    region is deformed.  Perturbations that break the sampled gap certificate
    are reported as skipped rather than failures.
    """
    if mu_min > -2.0 or mu_max < 2.0:
        raise ModelError(f"invariance sweep [{mu_min}, {mu_max}] must contain the bump's [-2, 2]")
    rng = np.random.default_rng(seed)
    d = symbol.dim
    raw = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    pert = 0.5 * (raw + raw.conj().T)
    pert /= np.linalg.norm(pert, ord=2)

    baseline = spectral_index(sweep(symbol, basis, window, mu_min, mu_max, steps))
    entries = []
    base_const = symbol.const_term
    for delta in deltas:
        shifted = replace(
            symbol,
            const_term=lambda mu, dl=delta: base_const(mu)
            + (dl * _bump(mu))[:, None, None] * pert,
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
