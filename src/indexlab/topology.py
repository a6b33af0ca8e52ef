"""Chern indices of symbol eigenvector bundles over the parameter sphere.

Three independent computations of the first Chern index of a band bundle
over the unit sphere in (mu, x, xi) space:

* ``chern_curvature`` -- gauge-invariant Berry phases summed over the cells
  of a cubed-sphere grid (determinant overlaps handle rank >= 2);
* ``chern_clutching`` -- winding number of the transition phase between two
  hemisphere trivializations sampled on the equator;
* ``chern_section_zeros`` -- local winding indices at the zeros of a global
  section obtained by projecting a fixed reference vector.

One symmetry saves most of the eigensolves.  Every shipped family has a
charge operator ``D`` (:mod:`indexlab.hermite`) with ``exp(i t D) H(mu, x,
xi) exp(-i t D) = H`` turned by ``e^{it}`` in the (x, xi) plane, so the
eigenvalues depend on ``(mu, hypot(x, xi))`` only and the eigenvectors at
``(mu, r cos t, r sin t)`` are ``exp(i t D)`` times those at ``(mu, r, 0)``.
``D`` belongs to the symbol: its eigenpairs are
:attr:`~indexlab.hermite.AffineMatrixSymbol.charge`, fitted and diagonalized
once per symbol.  The grid and the clutching poles and equator solve each
distinct ``(mu, hypot(x, xi))`` once and rotate its eigenvectors out to the
orbit's points.  A symbol without ``D`` (a ``const_term`` that is not a
:class:`~indexlab.hermite.LinearTerm`) has every point solved on its own, and
so are the small section-zero batches.

The grid is solved once per symbol, not once per band: a
:class:`SphereSpectrum` solves it when it is built, and every band's field
slices its frames from that solve.  Each method reads its grid samples off
those frames; clutching adds one small solve per band, of the two poles and
its equator samples.

A frame is any orthonormal eigenbasis, with no phase fixed: each method
reads only loop products of link overlaps, or windings of band amplitudes
``<v|u>`` (a rank-1 band's section is ``P u = v <v|u>``) in one local frame
per batch.  Within a run a frame depends only on its point (LAPACK gives the
same vectors for the same matrix), which the Newton polish needs: it solves
its centre point in two batches.

Orientation convention: the ordered coordinates (mu, x, xi) are positively
oriented, i.e. a tangent frame (t1, t2) at p is positive when
det[p | t1 | t2] > 0 with p the outward normal.  Cubed-sphere cells are
traversed counterclockwise as seen from outside the sphere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    AliasingError,
    DegenerateZeroError,
    DegeneracyError,
    ModelError,
    SectionVanishesError,
)
from .hermite import AffineMatrixSymbol, Record, as_points, charge_orbits

__all__ = [
    "SphereGrid",
    "SphereSpectrum",
    "BandProjectorField",
    "ChernReport",
    "SectionZero",
    "batch_eigensystem",
    "point_eigensystem",
    "winding_number",
    "chern_curvature",
    "chern_clutching",
    "chern_section_zeros",
]

#: Minimum eigenvalue separation between selected and unselected bands.
BAND_GAP_TOL = 1e-9


#: (normal axis k, sign s, u axis, v axis) per cube face; e_u x e_v = s e_k.
_FACES = ((0, 1, 1, 2), (0, -1, 2, 1), (1, 1, 2, 0), (1, -1, 0, 2), (2, 1, 0, 1), (2, -1, 1, 0))


class SphereGrid(Record):
    """Cubed-sphere discretization: 6 faces of N x N cells, shared vertices.

    Vertices on face boundaries are deduplicated so every interior edge is
    shared by exactly two cells; this makes the summed cell phases quantized
    to 2 pi Z up to roundoff.  All cells are counterclockwise from outside.
    Vertices are numbered in order of first occurrence, face by face in
    :data:`_FACES` order and row-major within a face.
    """

    n_per_face: int
    vertices: np.ndarray  # (V, 3) unit vectors
    cells: np.ndarray  # (6 N^2, 4) vertex indices, CCW from outside

    @classmethod
    def build(cls, n_per_face: int) -> "SphereGrid":
        if n_per_face < 16:
            raise ModelError("sphere grid needs N >= 16 cells per face edge")
        n = n_per_face
        ticks = np.linspace(-1.0, 1.0, n + 1)
        # cube points as tick indices 0..n per axis; distinct ticks are distinct
        # floats, so equal indices are exactly the equal points
        cube = np.empty((6, n + 1, n + 1, 3), dtype=np.intp)
        for f, (k, s, au, av) in enumerate(_FACES):
            cube[f, :, :, k] = n if s > 0 else 0
            cube[f, :, :, au] = np.arange(n + 1)[:, None]
            cube[f, :, :, av] = np.arange(n + 1)[None, :]
        index = cube.reshape(-1, 3)
        keys = (index[:, 0] * (n + 1) + index[:, 1]) * (n + 1) + index[:, 2]
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        order = np.argsort(first)  # unique points in order of first occurrence
        face = np.argsort(order)[inverse].reshape(6, n + 1, n + 1)
        cells = np.stack(
            (face[:, :-1, :-1], face[:, 1:, :-1], face[:, 1:, 1:], face[:, :-1, 1:]),
            axis=-1,
        ).reshape(-1, 4)
        pts = ticks[index[first[order]]]
        pts = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        return cls(n_per_face=n, vertices=pts, cells=cells)


def _band_gap(omegas: np.ndarray, bands: Sequence[int], points: np.ndarray) -> float:
    """Smallest gap between selected and unselected bands of ``omegas`` (n, d).

    A gap below :data:`BAND_GAP_TOL` raises :class:`DegeneracyError` naming its point.
    """
    lo, hi = min(bands) - 1, max(bands) - 1
    gaps = np.full(len(omegas), np.inf)
    if lo > 0:
        gaps = np.minimum(gaps, omegas[:, lo] - omegas[:, lo - 1])
    if hi < omegas.shape[1] - 1:
        gaps = np.minimum(gaps, omegas[:, hi + 1] - omegas[:, hi])
    worst = int(np.argmin(gaps))
    if gaps[worst] < BAND_GAP_TOL:
        point = tuple(float(c) for c in points[worst])
        raise DegeneracyError(
            f"band gap {gaps[worst]:.3g} below {BAND_GAP_TOL} at {point}"
        )
    return float(gaps[worst])


def batch_eigensystem(
    symbol: AffineMatrixSymbol,
    points: np.ndarray,
    bands: Sequence[int] | None = None,
    orbits: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues (n, d) and orthonormal eigenvector columns (n, d, d).

    ``points`` (n, 3) or one point (3,) are solved by one batched ``eigh`` (other shapes
    raise :class:`ModelError`), unless ``orbits`` is set and the symbol has a charge
    operator ``D = F diag(delta) F^dag`` (``(delta, F)`` is
    :attr:`~indexlab.hermite.AffineMatrixSymbol.charge`): then one batched ``eigh``
    solves each orbit of :func:`~indexlab.hermite.charge_orbits` at ``(mu, r, 0)``, and
    the point at angle ``t = atan2(xi, x)`` takes the orbit's eigenvalues and its
    eigenvectors times ``exp(i t D) = F diag(exp(i t delta)) F^dag``.  The
    eigenvector phases are those ``eigh`` and the rotation give (the module's gauge
    contract).  If ``bands`` (1-based, contiguous) is given, a gap below
    :data:`BAND_GAP_TOL` between selected and unselected bands at any point raises
    :class:`DegeneracyError`.
    """
    points = as_points(np.atleast_2d(points))
    if not orbits or symbol.charge is None:
        omegas, vecs = np.linalg.eigh(symbol.evaluate_many(points))
    else:
        radial, inverse = charge_orbits(points)
        omegas, vecs = np.linalg.eigh(symbol.evaluate_many(radial))
        delta, frame = symbol.charge
        # row j of rows[i] is column j of point i's orbit frame in D's eigenbasis
        rows = (vecs.swapaxes(1, 2) @ frame.conj())[inverse]
        angles = np.arctan2(points[:, 2], points[:, 1])
        rows *= np.exp(1j * np.multiply.outer(angles, delta))[:, None]
        # one gemm takes every row back to the standard basis
        omegas = omegas[inverse]
        vecs = (rows.reshape(-1, len(delta)) @ frame.T).reshape(rows.shape).swapaxes(1, 2)
    if bands is not None:
        _band_gap(omegas, bands, points)
    return omegas, vecs


def point_eigensystem(
    symbol: AffineMatrixSymbol,
    point: Sequence[float],
    bands: Sequence[int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`batch_eigensystem` at a single point: (d,) and (d, d), one frame per point."""
    omegas, vecs = batch_eigensystem(symbol, point, bands)
    return omegas[0], vecs[0]


class SphereSpectrum(Record):
    """Eigensystem of a symbol at every vertex of a sphere grid.

    One batched eigensolve serves every band group: :meth:`field` slices
    the frames of a contiguous group out of ``vectors``.  Where the symbol has
    a charge operator the build solves the grid once per charge orbit (the
    64-grid's 24,578 vertices are 3,001 orbits); without one every vertex is
    solved.
    """

    symbol: AffineMatrixSymbol
    grid: SphereGrid
    omegas: np.ndarray  # (V, d) ascending
    vectors: np.ndarray  # (V, d, d) orthonormal eigenvector columns, any phase

    @classmethod
    def build(cls, symbol: AffineMatrixSymbol, grid: SphereGrid) -> "SphereSpectrum":
        return cls(symbol, grid, *batch_eigensystem(symbol, grid.vertices, orbits=True))

    def field(self, bands: Sequence[int]) -> "BandProjectorField":
        """Frames of a contiguous band group, gap-checked at every vertex."""
        bands = tuple(sorted(int(b) for b in bands))
        if not bands:
            raise ModelError("band selection is empty")
        if bands[0] < 1 or bands[-1] > self.symbol.dim:
            raise ModelError(f"bands {bands} out of range 1..{self.symbol.dim}")
        if list(bands) != list(range(bands[0], bands[-1] + 1)):
            raise ModelError(f"bands must be contiguous, got {bands}")
        min_gap = _band_gap(self.omegas, bands, self.grid.vertices)
        return BandProjectorField(
            symbol=self.symbol,
            bands=bands,
            grid=self.grid,
            vectors=self.vectors[:, :, bands[0] - 1 : bands[-1]],
            min_gap=min_gap,
        )


class BandProjectorField(Record):
    """Eigenvector frames of a contiguous band group cached on a sphere grid.

    ``vectors[v]`` is the (d, r) orthonormal frame of the selected bands at
    grid vertex v.  The spectral projector is ``P = V V^dag``; its rank is
    the number of selected bands everywhere because the build checks the
    gap to unselected bands at every vertex.  Fields of several band groups
    on one grid should be sliced from one :class:`SphereSpectrum`;
    :meth:`build` solves the grid for a single group.
    """

    symbol: AffineMatrixSymbol
    bands: tuple[int, ...]
    grid: SphereGrid
    vectors: np.ndarray  # (V, d, r)
    min_gap: float

    @property
    def rank(self) -> int:
        return len(self.bands)

    @classmethod
    def build(
        cls,
        symbol: AffineMatrixSymbol,
        bands: Sequence[int],
        grid: SphereGrid,
    ) -> "BandProjectorField":
        return SphereSpectrum.build(symbol, grid).field(bands)

    def with_phase_field(self, phases: np.ndarray) -> "BandProjectorField":
        """Gauge transform: multiply every cached frame by a unit phase.

        A phase that is not finite or whose modulus is off 1 by more than 1e-12 raises
        :class:`ModelError`: it would scale the section norms that clutching and the
        zero scan read off the frames.
        """
        phases = np.asarray(phases, dtype=complex)
        if phases.shape != (len(self.vectors),):
            raise ModelError("need one phase per grid vertex")
        if not np.all(np.abs(np.abs(phases) - 1.0) <= 1e-12):
            raise ModelError("phases must be finite and of modulus 1")
        return BandProjectorField(self.symbol, self.bands, self.grid,
                                  self.vectors * phases[:, None, None], self.min_gap)


class SectionZero(Record):
    """A nondegenerate zero of a global section and its winding index."""

    point: tuple[float, float, float]
    index: int
    section_norm: float


@dataclass(frozen=True)
class ChernReport:
    """Chern index with the pre-rounding value and method diagnostics."""

    method: str
    C: int
    raw_value: float
    residual: float
    diagnostics: dict = field(default_factory=dict)
    zeros: tuple[SectionZero, ...] = ()


def winding_number(samples: Sequence[complex]) -> int:
    """Degree of a closed loop of nonzero complex samples.

    The sequence is cyclic (the last sample connects back to the first).
    Consecutive phase steps must stay below pi in magnitude, else
    :class:`AliasingError`.  The total needs no integer check: step k is the
    principal argument of ``z_{k+1} conj(z_k)``, and the product of those
    factors is ``prod |z_k|^2 > 0``, so the exact steps sum to ``2 pi w``.
    Each computed step is within a few ulps of its exact value, so the
    rounded total is ``w`` for any sample count that fits in memory.
    """
    z = np.asarray(samples, dtype=complex)
    if len(z) < 3:
        raise ModelError("need at least 3 samples on the loop")
    if np.any(z == 0) or not np.all(np.isfinite(z)):
        raise ModelError("winding samples must be nonzero and finite")
    steps = np.angle(np.roll(z, -1) * np.conj(z))
    if np.max(np.abs(steps)) >= np.pi * (1.0 - 1e-12):
        raise AliasingError(
            "phase step of at least pi between consecutive samples; "
            "increase the sampling density"
        )
    return int(round(float(steps.sum()) / (2.0 * np.pi)))


def _amplitudes(vectors: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """``<v|u>`` (n,) of rank-1 band vectors ``v`` (n, d) and a reference ``u`` (d,) or one
    per row (n, d): a rank-1 band's section is ``P u = v <v|u>``, one number per point."""
    if ref.ndim == 1:
        return (vectors @ ref.conj()).conj()
    return np.einsum("nd,nd->n", vectors, ref.conj()).conj()


# ---------------------------------------------------------------------------
# curvature method
# ---------------------------------------------------------------------------

def _cell_phases(field_: BandProjectorField) -> np.ndarray:
    """Berry phase per grid cell from the overlap product around the loop.

    For rank r the link amplitude is the determinant of the r x r frame
    overlap.  The sign convention makes the summed phases equal +2 pi C for
    counterclockwise-from-outside cells.  The links are taken in turn, so at
    most three of the four corner gathers are held at once.  ``*=`` keeps the
    operand order of ``l1 * l2 * l3 * l4``: numpy's complex product is not
    bitwise commutative, and ``prod * link(...)`` would be computed into the
    temporary as ``link(...) * prod``.
    """
    v = field_.vectors
    cells = field_.grid.cells
    if field_.rank == 1:
        def link(x, y):
            return np.einsum("ij,ij->i", x[:, :, 0].conj(), y[:, :, 0])
    else:
        def link(x, y):
            return np.linalg.det(np.einsum("ijk,ijl->ikl", x.conj(), y))
    a, b = v[cells[:, 0]], v[cells[:, 1]]
    prod = link(a, b)
    for corner in (2, 3):
        c = v[cells[:, corner]]
        prod *= link(b, c)
        b = c
    prod *= link(b, a)
    return -np.angle(prod)


def chern_curvature(field_: BandProjectorField) -> ChernReport:
    """Chern index as the summed cell Berry phases over 2 pi.

    The sum is exactly an integer multiple of 2 pi up to roundoff because
    every interior edge is traversed twice in opposite directions.  A cell
    phase of magnitude >= pi/2 indicates an unresolved curvature spike; the
    grid is refined (doubled) up to twice before the spike is reported as a
    degeneracy on or near the sphere.
    """
    refinements = 0
    while True:
        phases = _cell_phases(field_)
        max_phase = float(np.abs(phases).max())
        if max_phase < np.pi / 2:
            break
        if refinements >= 2:
            raise DegeneracyError(
                f"cell phase {max_phase:.3f} >= pi/2 persists after "
                f"{refinements} refinements; degeneracy on or near the sphere"
            )
        refinements += 1
        finer = SphereGrid.build(2 * field_.grid.n_per_face)
        field_ = BandProjectorField.build(field_.symbol, field_.bands, finer)
    raw = float(phases.sum() / (2.0 * np.pi))
    c = int(round(raw))
    return ChernReport(
        method="curvature",
        C=c,
        raw_value=raw,
        residual=abs(raw - c),
        diagnostics={
            "max_cell_phase": max_phase,
            "grid_n": field_.grid.n_per_face,
            "refinements": refinements,
            # null for a group with no neighbouring band (an infinite gap)
            "min_band_gap": field_.min_gap if field_.min_gap < np.inf else None,
        },
    )


# ---------------------------------------------------------------------------
# clutching method
# ---------------------------------------------------------------------------

RefSpec = np.ndarray | Callable[[np.ndarray], np.ndarray] | None


def _ref_values(ref: RefSpec, points: np.ndarray, dim: int, name: str) -> np.ndarray:
    """A constant reference vector (d,) or a callable's values (n, d) at ``points``.

    A callable whose ``batched`` attribute is true is called once with every point (n, 3);
    any other callable is called once per point (3,).  Values of the wrong shape or not
    finite raise :class:`ModelError` naming the reference (``name``).
    """
    if callable(ref):
        values = ref(points) if getattr(ref, "batched", False) else [ref(p) for p in points]
        shape = (len(points), dim)
    else:
        values, shape = ref, (dim,)
    values = np.asarray(values, dtype=complex)
    if values.shape != shape:
        raise ModelError(f"{name} reference values have shape {values.shape}, need {shape}")
    if not np.all(np.isfinite(values)):
        raise ModelError(f"{name} reference values are not all finite")
    return values


def _clutching_points(equator_samples: int) -> np.ndarray:
    """The clutching samples (n + 2, 3): the north pole, the south pole, then ``n``
    equally spaced equator points from (0, 1, 0)."""
    thetas = np.linspace(0.0, 2.0 * np.pi, equator_samples, endpoint=False)
    equator = np.stack((np.zeros_like(thetas), np.cos(thetas), np.sin(thetas)), axis=1)
    return np.vstack(([1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], equator))


def chern_clutching(
    field_: BandProjectorField,
    equator_samples: int = 512,
    north_ref: RefSpec = None,
    south_ref: RefSpec = None,
) -> ChernReport:
    """Chern index as the winding of the hemisphere transition phase.

    The north/south trivializations are the band projections of reference
    vectors (defaults: the band eigenvectors at the mu = +-1 poles, which
    reproduce the textbook (1,0)/(0,1) choice for the two-band model).
    References may be callables ``point -> C^d`` for bundles that admit no
    trivializing constant vector; one whose ``batched`` attribute is true is
    called once with all the points of its hemisphere, ``(n, 3) -> (n, d)``.
    Values that are not finite vectors of the symbol's dimension raise
    :class:`ModelError` naming the reference.  Each reference, shared or not,
    is read on its own closed hemisphere {+-mu >= 0}, at its grid vertices
    (from the field's frames), its pole and the equator samples, where its
    section ``s = v <v|u>`` must satisfy ``|s|^2 = |<v|u>|^2 > 1e-6``.  The
    transition phase ``<s_north | s_south>`` is ``conj(<v|u_north>)
    <v|u_south>`` on the equator, and its winding is C.  The only solve is one
    batch of the two poles and the equator samples, once per charge orbit
    where the symbol has a charge operator (4 orbits: the equator's
    ``hypot(x, xi)`` rounds to two values) and point by point otherwise; it
    checks the band's gap there, as the field's build did at every vertex.
    """
    if field_.rank != 1:
        raise ModelError("clutching method requires a rank-1 band")
    if equator_samples < 16:
        raise ModelError("need at least 16 equator samples")
    dim = field_.symbol.dim

    samples = _clutching_points(equator_samples)
    _, vecs = batch_eigensystem(field_.symbol, samples, field_.bands, orbits=True)
    band = vecs[:, :, field_.bands[0] - 1]  # the poles, then the equator
    frames = np.concatenate((field_.vectors[:, :, 0], band))
    points = np.vstack((field_.grid.vertices, samples))
    amps, min_norms = [], []
    for name, pole, ref, at in zip(("north", "south"), band, (north_ref, south_ref),
                                   (points[:, 0] >= 0, points[:, 0] <= 0)):
        ref = pole if ref is None else ref  # the band eigenvector at the pole
        if callable(ref):
            a = _amplitudes(frames[at], _ref_values(ref, points[at], dim, name))
        else:
            a = _amplitudes(frames, _ref_values(ref, points, dim, name))[at]
        worst = float((a.real ** 2 + a.imag ** 2).min())
        if worst <= 1e-6:
            raise SectionVanishesError(
                f"{name} reference section vanishes on its hemisphere "
                f"(min |s|^2 = {worst:.3g}); supply a different reference"
            )
        amps.append(a[-equator_samples:])  # the equator samples come last
        min_norms.append(worst)

    w = winding_number(amps[0].conj() * amps[1])
    return ChernReport(
        method="clutching",
        C=w,
        raw_value=float(w),
        residual=0.0,
        diagnostics={
            "equator_samples": equator_samples,
            "min_section_norm_sq": min(min_norms),
        },
    )


# ---------------------------------------------------------------------------
# section-zero method
# ---------------------------------------------------------------------------

def _band_frames(field_: BandProjectorField, points: np.ndarray) -> np.ndarray:
    """Rank-1 band vectors (n, d) at ``points``, solved point by point: the section-zero
    batches (1 to 65 points) are too small for rotating charge orbits to pay."""
    _, vecs = batch_eigensystem(field_.symbol, points, field_.bands)
    return vecs[:, :, field_.bands[0] - 1]


def _tangent_frame(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positively oriented orthonormal tangent frame at unit vector p."""
    seed = np.array([1.0, 0.0, 0.0]) if abs(p[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    t1 = seed - np.dot(seed, p) * p
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(p, t1)
    return t1, t2


def _section_coords(
    field_: BandProjectorField, u0: np.ndarray, center: np.ndarray, points: np.ndarray
) -> np.ndarray:
    """Coordinates ``<v0 | P(q) u0> = <v0|v_q> <v_q|u0>`` at ``points`` q, v0 the band
    vector at ``center``; the center and the points are solved as one batch."""
    frames = _band_frames(field_, np.vstack((center, points)))
    return _amplitudes(frames[1:], frames[0]).conj() * _amplitudes(frames[1:], u0)


def _refine_zero(
    field_: BandProjectorField, u0: np.ndarray, seed_point: np.ndarray
) -> tuple[np.ndarray, float]:
    """Polish a candidate zero of the section by 2x2 Newton from its seed.

    Newton runs on the complex coordinate z(t) = <v0|s> = <v0|v> <v|u0> of
    the section in the frame of the band eigenvector v0 at the current point,
    with t the tangent-plane offset.  The seed is a grid vertex where the section is
    small; near a nondegenerate zero the iteration converges quadratically.
    Each step solves the current point first and stops once ``|z| < 1e-13``
    there, so a seed that is an exact zero comes back unchanged after one
    small solve; only a step that moves solves the four finite-difference
    neighbours.  Returns the point and the section norm ``|<v|u0>|`` there,
    which the caller tests.
    """
    p0 = seed_point / np.linalg.norm(seed_point)
    h = 1e-7
    offsets = np.array([[0.0, 0.0], [h, 0.0], [-h, 0.0], [0.0, h], [0.0, -h]])
    for _ in range(6):
        t1, t2 = _tangent_frame(p0)
        q = p0 + offsets[:, :1] * t1 + offsets[:, 1:] * t2
        q /= np.sqrt(q[:, None, :] @ q[:, :, None])[:, 0]  # rounds as np.linalg.norm(row)
        z0 = _section_coords(field_, u0, p0, q[:1])[0]
        if abs(z0) < 1e-13:
            break
        z1p, z1m, z2p, z2m = _section_coords(field_, u0, p0, q[1:]).tolist()
        dz1 = (z1p - z1m) / (2 * h)
        dz2 = (z2p - z2m) / (2 * h)
        jac = np.array([[dz1.real, dz2.real], [dz1.imag, dz2.imag]])
        try:
            step = np.linalg.solve(jac, -np.array([z0.real, z0.imag]))
        except np.linalg.LinAlgError:
            break
        p0 = p0 + step[0] * t1 + step[1] * t2
        p0 /= np.linalg.norm(p0)
    return p0, float(abs(_amplitudes(_band_frames(field_, p0), u0)[0]))


def _zero_seeds(amps: np.ndarray, cells: np.ndarray, threshold: float) -> np.ndarray:
    """Vertices, ascending, with ``amps < threshold`` that ``argsort(amps)`` ranks before
    every vertex they share a cell with.  Only the cells holding such a candidate are
    scanned; the ranks come from the full ``argsort``, so ties resolve as it orders them."""
    rank = np.empty(len(amps), dtype=np.intp)
    rank[np.argsort(amps)] = np.arange(len(amps))  # inverse permutation
    candidate = amps < threshold
    corner = candidate[cells.T]  # (4, cells); four ORs run faster than any(axis=1)
    near = cells[corner[0] | corner[1] | corner[2] | corner[3]]
    ranks = rank[near]
    beaten = np.zeros(len(amps), dtype=bool)  # ranked after another vertex of some cell
    beaten[near[ranks > ranks.min(axis=1, keepdims=True)]] = True
    return np.flatnonzero(candidate & ~beaten)


def chern_section_zeros(field_: BandProjectorField, reference_vector: Sequence[complex],
                        probe_radius: float = 1e-3) -> ChernReport:
    """Chern index as the sum of local winding indices at section zeros.

    The global section ``s(p) = P(p) u0 = v <v|u0>`` is scanned for zeros on
    the grid vertices, as ``|s| = |<v|u0>|`` off the frames the field sliced
    from its spectrum, so the scan solves nothing per band.  A vertex seeds a Newton polish when
    ``|s| < 0.15 |u0|`` there and it comes before every vertex it shares a
    cell with when ``argsort`` orders the vertices by ``|s|``; only the cells
    holding such a candidate are scanned.  Seeds are polished in vertex order, so
    the zeros are listed in grid order, whatever the last bits of ``|s|``.
    Polished points with ``|s| < 1e-10`` are the zeros; one within 1e-6 of
    a zero already found is dropped.  The index of each zero is the winding
    of the section's complex coordinate (in the frame of the local band
    eigenvector) at 64 points of a circle of ``probe_radius`` traversed
    positively; a winding that fails there (a zero or a phase jump of pi on
    the circle: the zero is not isolated) or is 0 raises
    :class:`DegenerateZeroError`.  ``s = 0`` at every vertex (``u0 = 0`` or
    orthogonal to the band) raises :class:`ModelError`.
    """
    if field_.rank != 1:
        raise ModelError("section-zero method requires a rank-1 band")
    u0 = np.asarray(reference_vector, dtype=complex)
    if u0.shape != (field_.symbol.dim,):
        raise ModelError("reference vector has wrong dimension")

    # coarse scan on cached vertices: rank-1 projector makes |s| = |<v|u0>|.
    # |s| grows linearly away from a nondegenerate zero, so a vertex of
    # locally lowest rank lies next to each zero (a cell winding would not
    # do: on even grids the preset zeros are vertices).  Sections bounded
    # away from zero (min above the floor) cost no polish.
    amps = np.abs(_amplitudes(field_.vectors[:, :, 0], u0))
    threshold = 0.15 * float(np.linalg.norm(u0))
    if not amps.max() > 1e-10 * threshold:
        raise ModelError("section P u0 vanishes at every vertex: u0 = 0 or orthogonal to the band")
    zeros: list[tuple[np.ndarray, float]] = []
    for seed in field_.grid.vertices[_zero_seeds(amps, field_.grid.cells, threshold)]:
        point, norm = _refine_zero(field_, u0, seed)
        if norm < 1e-10 and not any(np.linalg.norm(point - z[0]) < 1e-6 for z in zeros):
            zeros.append((point, norm))

    for i in range(len(zeros)):
        for j in range(i + 1, len(zeros)):
            if np.linalg.norm(zeros[i][0] - zeros[j][0]) < 2 * probe_radius:
                raise DegenerateZeroError(
                    "two section zeros closer than twice the probe radius; "
                    "reduce probe_radius"
                )

    found: list[SectionZero] = []
    total = 0
    phis = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    for point, norm in zeros:
        t1, t2 = _tangent_frame(point)
        offsets = np.cos(phis)[:, None] * t1 + np.sin(phis)[:, None] * t2
        circle = point + probe_radius * offsets
        circle /= np.linalg.norm(circle, axis=1, keepdims=True)
        coords = _section_coords(field_, u0, point, circle)
        try:
            idx = winding_number(coords)
        except (AliasingError, ModelError):
            raise DegenerateZeroError(
                f"zero at {tuple(point.tolist())} is not isolated: the section vanishes or "
                "turns by pi on the probe circle; choose another reference vector"
            ) from None
        if idx == 0:
            raise DegenerateZeroError(
                f"zero at {tuple(point.tolist())} has vanishing winding; refine the "
                "probe radius"
            )
        total += idx
        found.append(
            SectionZero(point=tuple(float(c) for c in point), index=idx, section_norm=norm)
        )
    return ChernReport(
        method="section_zeros",
        C=total,
        raw_value=float(total),
        residual=0.0,
        diagnostics={"zero_count": len(found), "probe_radius": probe_radius},
        zeros=tuple(found),
    )
