"""Spectral flow of truncated operators through a gap window.

A symbol with a charge operator is counted sector by sector, with no mu
sampling (:func:`sector_index`): each complete charge block is exactly affine
in mu, so its crossings of the reference level are the real roots of one
small pencil (:func:`_pencil_crossings`), and its eigenvalue counts at the two
ends of the mu range give the counting function.  The ``flow`` and ``verify``
commands count every symbol so; the sweep below serves ``spectrum``,
:func:`flow_invariance_check` and library callers, with or without a charge
operator.

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
symbol without a charge operator (a ``const_term`` that is not a
:class:`~indexlab.hermite.LinearTerm`, or one no D fits) solves the whole operator at
each sample and drops the eigenvalues with weight on the guard levels.  Each
interval's branches are matched once, when the interval appears; one rule
(:func:`_ambiguity`) decides both where the sweep bisects and where it
refuses; an interval a branch could cross the whole window in is bisected too
(:func:`sweep`), and the sweep records the matched branches that cross the reference
level in its final intervals.  The flow through the reference level is
counted two independent ways -- a counting-function difference between the
sweep endpoints and the signed tally of those crossings -- and the two must
agree exactly.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import numpy as np

from .errors import (
    EndpointInSpectrumError,
    GapCertificateError,
    MethodDisagreementError,
    ModelError,
    RefinementError,
)
from .hermite import (
    SPURIOUS_THRESHOLD,
    AffineMatrixSymbol,
    BlockStack,
    OperatorPieces,
    Record,
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
    "sector_index",
    "flow_invariance_check",
    "InvarianceReport",
]

#: Crossed brackets are bisected until narrower than this in mu; an eigenvalue
#: nearer than this to the reference level at an end of the mu range, or a second
#: one at a pencil root, is refused.
CROSSING_WIDTH = 1e-6
#: A pencil root whose slope ``|v^H T1 v|`` is below this times a bound on
#: ``||T1||_2`` is refused as a tangency.  The computed roots of a double root
#: can lie anywhere within about ``sqrt(eps ||T|| / c)`` of it (``c`` the
#: branch's curvature), where the slopes reach about ``2 sqrt(c eps ||T||)``:
#: 4.3e-8 on the normal form's branch ``sqrt(mu**2 + 2)`` with the reference
#: level 1e-15 above its minimum.  Two roots 3.4e-6 apart there have slopes 1.2e-6.
TANGENT_SLOPE = 1e-7
#: A pencil eigenvalue whose imaginary part is at most this (``sqrt(eps)``)
#: times its real part is real: LAPACK returns exactly 0 for a real
#: eigenvalue of a real matrix, a complex stack's are off by rounding, and a
#: complex pair this near the axis is a tangency to working precision.
_REAL = 2.0**-26
#: Matching ambiguities are bisected down to this interval width.
MATCH_MIN_WIDTH = 1e-3
#: Bisection rounds allowed per coarse interval for matching refinement.
MAX_MATCH_ROUNDS = 12
#: A tridiagonal block T is solved only if its Sturm counts below
#: ``omega_min - tau`` and ``omega_max + tau`` differ, ``tau`` this times
#: ``max(1, ||T||)``: far above the backward error of the count and of
#: ``eigvalsh`` (a few ulps of ``||T||``).
STURM_MARGIN = 1e-9


class SpectralWindow(Record):
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


class EigenSample(Record):
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


class Crossing(Record):
    """One branch crossing of the reference level inside [mu_lo, mu_hi].

    A :func:`sweep` crossing is a bracket of two samples, with ``sector`` None;
    a :func:`sector_index` crossing is a pencil root, ``mu_lo == mu_hi``, in
    the charge block of q ``sector``.
    """

    mu_lo: float
    mu_hi: float
    direction: int
    sector: float | None = None


class SpectrumSweep(Record):
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


class FlowResult(Record):
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
    all the matrices), so no division is by zero or overflows.  After that
    clamp no pivot is 0, so counting ``pivot <= 0`` would count the same.  The
    count is exact for a matrix within a few ulps of ``T`` (Demmel, Dhillon &
    Ren 1995).
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
    return [  # fields by position, a record's fast path
        EigenSample(float(mu), omegas[a:b], weights[a:b], int(n))
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
    """Least gap above ``1e-9`` of the window width (so a repeated level counts once)
    between neighbouring window eigenvalues of ``a`` or ``b``, at most that width."""
    spacing = window.width
    for s in (a, b):
        if len(s.omegas) >= 2:
            gaps = np.diff(s.omegas)
            spacing = gaps[gaps > 1e-9 * window.width].min(initial=spacing)
    return float(spacing)


def _direction(wa: float, wb: float, ref: float) -> int:
    """+1 for a branch from below ``ref`` to above it, -1 for the reverse, else 0."""
    return int(wa < ref) - int(wb < ref)


def _ambiguity(a: EigenSample, b: EigenSample, match, window: SpectralWindow) -> str | None:
    """Why ``match`` of (a, b) cannot be trusted, or None: an unmatched eigenvalue
    more than 5 % of the window width from both edges, or a matched pair that
    moves more than half the local level spacing (:func:`_local_spacing`)."""
    pairs, un_a, un_b, worst = match
    edge_tol = 0.05 * window.width
    for sample, unmatched in ((a, un_a), (b, un_b)):
        for i in unmatched:
            w = sample.omegas[i]
            if min(w - window.omega_min, window.omega_max - w) > edge_tol:
                return (f"eigenvalue {w:.6g} appears or vanishes deep inside the "
                        f"window near mu={sample.mu:.9g}")
    if pairs and worst > 0.5 * _local_spacing(a, b, window):
        return (f"branch matching ambiguous between mu={a.mu:.9g} and "
                f"mu={b.mu:.9g} (worst motion {worst:.3g})")
    return None


def _needs_split(a: EigenSample, b: EigenSample, match, window: SpectralWindow) -> bool:
    """Whether (a, b), wider than :data:`CROSSING_WIDTH` and matched by ``match``, is
    bisected: when it is wider than :data:`MATCH_MIN_WIDTH` and :func:`_ambiguity`
    finds ``match`` ambiguous, or when a matched branch straddles the reference level."""
    if b.mu - a.mu > MATCH_MIN_WIDTH and _ambiguity(a, b, match, window):
        return True
    return any(_direction(a.omegas[i], b.omegas[j], window.omega_ref) for i, j in match[0])


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

    Starts from ``steps + 1`` uniform samples.  An interval is bisected while
    it is wider than :data:`MATCH_MIN_WIDTH` (up to :data:`MAX_MATCH_ROUNDS`
    rounds) and :func:`_ambiguity` finds its match untrustworthy: an
    eigenvalue appears or vanishes away from the window edges, or a matched
    pair moves more than half the local level spacing.  One whose matched
    branch straddles the reference level is bisected until it is narrower
    than :data:`CROSSING_WIDTH`.  No eigenvalue moves faster in mu than a bound
    ``slope`` on ``||A'(mu)||_2`` that the ``const_term`` carries (Weyl): ``||a1||_2`` for a
    :class:`~indexlab.hermite.LinearTerm`.  So an interval at least ``window.width / slope``
    wide is bisected too; a sweep that needs more than ``steps * 2**MAX_MATCH_ROUNDS`` such
    intervals (:func:`check_mu_grid`'s budget) raises :class:`RefinementError` before any
    solve.  A callback without a ``slope`` has no such rule.  Each round bisects every
    interval that calls for it and solves all of their midpoints in one :func:`_window_samples`
    call; a split depends only on the interval's end samples, so the samples
    are those of bisecting one interval at a time.  Each interval is matched
    once, when it appears.  A final interval the same rule still finds
    ambiguous raises :class:`RefinementError` with its reason; the matched
    branches that straddle the reference level in the final intervals become
    the sweep's crossings.
    """
    check_mu_grid(mu_min, mu_max, steps)
    slope = getattr(symbol.const_term, "slope", None) or 0.0
    if (mu_max - mu_min) * slope / window.width > steps * 2**MAX_MATCH_ROUNDS:
        raise RefinementError(f"window width {window.width:.3g} at mu slope {slope:.3g} needs "
                              f"more than {steps} x 2**{MAX_MATCH_ROUNDS} intervals")
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
            fresh and b.mu - a.mu > CROSSING_WIDTH
            and ((b.mu - a.mu) * slope >= window.width or _needs_split(a, b, m, window))
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
        reason = _ambiguity(a, b, m, window)
        if reason:
            raise RefinementError(reason)
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
    return _flow_result(samples[0].count_below_ref - samples[-1].count_below_ref,
                        sweep_.crossings)


def _flow_result(n_counting: int, crossings: Sequence[Crossing]) -> FlowResult:
    """The flow of counting-function difference ``n_counting``, checked against the signed
    tally of ``crossings``: a disagreement raises :class:`MethodDisagreementError`."""
    n_crossing = sum(c.direction for c in crossings)
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


def _pencil_crossings(t0: np.ndarray, t1: np.ndarray, mu_min: float, mu_max: float,
                      sectors: Sequence) -> list[Crossing]:
    """The crossings of the reference level in (mu_min, mu_max) of the Hermitian blocks
    ``T(mu) - omega_ref = t0 + (mu - mu_min) t1``, ``t0`` and ``t1`` ``(b, s, s)``; block
    j's crossings carry ``sectors[j]``.

    ``t0`` must be invertible (no eigenvalue on the reference level at mu_min).  Then
    ``T(mu) - omega_ref = t0 (1 + (mu - mu_min) t0^-1 t1)`` is singular exactly at
    ``mu = mu_min - 1 / lam`` for each eigenvalue lam of ``t0^-1 t1``, one ``eig`` per
    stack.  The real lam (:data:`_REAL`) below ``-1 / (mu_max - mu_min)`` are the roots
    in range; no other lam is divided by, so a lam of 0 (a level that does not move) is
    no division.  At each root the Hermitian block is solved by ``eigh``: the eigenvector
    v of its eigenvalue nearest 0 gives the direction, the sign of the branch's slope
    ``v^H t1 v`` (Hellmann-Feynman; +1 upward).  A root whose block has a second
    eigenvalue within :data:`CROSSING_WIDTH` of the reference level (a multiple root), or
    whose slope is below :data:`TANGENT_SLOPE` times the largest row sum of ``|t1|`` (a
    bound on ``||t1||_2``; a tangency), raises :class:`RefinementError` naming its
    sector and mu: its direction is not certain, and it is never guessed.
    """
    lam = np.linalg.eigvals(np.linalg.solve(t0, t1))
    real = np.abs(lam.imag) <= _REAL * np.abs(lam.real)
    block, which = np.nonzero(real & (lam.real * (mu_max - mu_min) < -1.0))
    mus = mu_min - 1.0 / lam.real[block, which]
    w, v = np.linalg.eigh(t0[block] + (mus - mu_min)[:, None, None] * t1[block])
    nearest = np.argsort(np.abs(w), axis=1)
    v = np.take_along_axis(v, nearest[:, None, :1], axis=2)[..., 0]
    slopes = np.einsum("ni,nij,nj->n", v.conj(), t1[block], v).real
    tangent = TANGENT_SLOPE * np.abs(t1).sum(axis=-1).max(initial=0.0)
    crossings = []
    for j, mu, slope, values, order in zip(block, mus, slopes, w, nearest):
        if len(order) > 1 and abs(values[order[1]]) < CROSSING_WIDTH:
            raise RefinementError(f"multiple root in sector q={sectors[j]} at mu={mu:.9g}: "
                                  f"two eigenvalues on the reference level")
        if abs(slope) < tangent:
            raise RefinementError(f"tangent root in sector q={sectors[j]} at mu={mu:.9g}: "
                                  f"slope {slope:.3g}")
        crossings.append(Crossing(float(mu), float(mu), 1 if slope > 0 else -1, sectors[j]))
    return crossings


def sector_index(
    symbol: AffineMatrixSymbol,
    basis: TruncatedBasis,
    window: SpectralWindow,
    mu_min: float,
    mu_max: float,
) -> FlowResult:
    """Spectral flow through ``window.omega_ref`` of a symbol with a charge operator, from
    its complete charge blocks at the two ends of [mu_min, mu_max], counted two ways.

    Each complete block (:attr:`~indexlab.hermite.OperatorPieces.charge_stacks`) is an
    exact block of the untruncated operator and exactly affine in mu: ``T(mu) = T(mu_min) +
    (mu - mu_min) T1``, with ``T1`` the block of ``a1`` in the charge frame (the symbol's
    ``const_term`` is a :class:`~indexlab.hermite.LinearTerm`).  A ``tridiagonal`` stack is
    taken in its real form.  Counting method: the blocks' eigenvalues below the reference
    level at mu_min minus those at mu_max, by Sturm counts (:func:`_sturm_count`) of the
    real forms, else by ``eigvalsh``.  Crossing method: the signed tally of the roots
    :func:`_pencil_crossings` finds in every block; each crossing records its block's q.
    An eigenvalue within :data:`CROSSING_WIDTH` of the reference level at either end
    raises :class:`EndpointInSpectrumError`, and counts that disagree raise
    :class:`MethodDisagreementError`.  Only ``omega_ref`` is read from ``window``, and no
    mu between the ends is sampled.
    """
    if symbol.charge is None:
        raise ModelError(f"{symbol.name!r} has no charge operator")
    if not mu_min < mu_max:
        raise ModelError(f"mu_min must be below mu_max, got {mu_min!r}, {mu_max!r}")
    stacks = OperatorPieces(symbol, basis).charge_stacks
    ref, ends = window.omega_ref, (mu_min, mu_max)
    shifts = ref + np.array([-CROSSING_WIDTH, 0.0, CROSSING_WIDTH])
    below, crossings = np.zeros((3, 2), dtype=int), []
    if stacks:  # one frame for all
        framed = stacks[0].to_frame(symbol.const_stack(ends))
        slope = stacks[0].to_frame(np.asarray(symbol.const_term.a1, dtype=complex)[None])
    for stack in stacks:
        b, s = stack.index.shape
        if stack.tridiagonal is None:
            h = stack.assemble(framed)
            counts = (np.linalg.eigvalsh(h)[None] < shifts[:, None, None, None]).sum(axis=(2, 3))
            t0, t1 = h[0] - ref * np.eye(s), stack.assemble(slope, static=False)[0]
        else:
            diag, comp = stack.diagonal(framed), stack.tridiagonal[2]
            counts = _sturm_count(diag.swapaxes(0, 1), stack.tridiagonal[1] ** 2,
                                  shifts[:, None, None]).sum(axis=-1)
            t0, t1 = stack.blocks(diag[0].T - ref, np.arange(b)), np.zeros((b, s, s))
            t1[:, np.arange(s), np.arange(s)] = slope[0][comp, comp].real.T
        for mu, near in zip(ends, counts[2] - counts[0]):
            if near:
                raise EndpointInSpectrumError(f"eigenvalue on the reference level at the "
                                              f"endpoint mu={mu}; enlarge the mu range")
        below += counts
        crossings += _pencil_crossings(t0, t1, mu_min, mu_max, stack.charges.tolist())
    return _flow_result(int(below[1, 0] - below[1, 1]), sorted(crossings, key=lambda c: c.mu_lo))


class InvarianceEntry(Record):
    delta: float
    gap_ok: bool
    N: int | None
    matches_baseline: bool | None


class InvarianceReport(Record):
    baseline_N: int
    entries: tuple[InvarianceEntry, ...]

    @property
    def all_valid_match(self) -> bool:
        return all(e.matches_baseline for e in self.entries if e.gap_ok)


def _bump(mu: np.ndarray, half_width: float = 2.0) -> np.ndarray:
    """Smooth compactly supported envelope, 1 at mu = 0, 0 for |mu| >= width.

    ``g(mu) = f(mu / half_width)`` with ``f(t) = exp(1 - 1/u)``, ``u = 1 - t**2``, for
    |t| < 1.  Its slope bound, :func:`_bump_slope`, is exact: ``f'(t) = -2 t f(t) / u**2``,
    and ``d/dt log|f'| = 1/t - 2t/u**2 + 4t/u`` vanishes, after multiplying by ``t u**2`` and
    putting ``t**2 = 1 - u``, where ``3 u**2 - 6 u + 2 = 0``: at ``u* = 1 - 1/sqrt(3)`` (the
    root in (0, 1]), ``t*^2 = 1/sqrt(3)``.  ``|f'|`` is 0 at t = 0 and tends to 0 as u -> 0,
    so ``max|f'| = 2 t* exp(1 - 1/u*) / u*^2`` (2.1703...), and ``max|g'|`` is that over
    ``half_width``.
    """
    t = mu / half_width
    inside = np.abs(t) < 1.0
    out = np.zeros_like(t)
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - t[inside] * t[inside]))
    return out


def _bump_slope(half_width: float = 2.0) -> float:
    """``max |g'|`` of :func:`_bump`'s ``g``, derived in its docstring."""
    u = 1.0 - 3.0**-0.5
    return 2.0 * 3.0**-0.25 * np.exp(1.0 - 1.0 / u) / u**2 / half_width


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
    region is deformed.  The perturbed ``const_term`` is a callback with no charge
    operator, so each sweep solves the whole operator; its ``slope`` bound for the
    sweep is the symbol's plus ``|delta| max|g'|`` (:func:`_bump_slope`), and it has none
    where the symbol's has none.  A perturbation whose gap certificate raises
    :class:`GapCertificateError` is reported as skipped (``gap_ok=False``), not a failure.
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
    base = symbol.const_term
    for delta in deltas:
        def bumped(mu, dl=delta):
            return base(mu) + (dl * _bump(mu))[:, None, None] * pert

        if (slope := getattr(base, "slope", None)) is not None:
            bumped.slope = slope + abs(delta) * _bump_slope()
        shifted = replace(symbol, const_term=bumped, name=f"{symbol.name}+{delta}P")
        try:
            sampled_gap_certificate(shifted)
        except GapCertificateError:
            entries.append(InvarianceEntry(float(delta), False, None, None))
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
