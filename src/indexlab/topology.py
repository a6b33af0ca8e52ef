"""Chern indices of symbol eigenvector bundles over the parameter sphere.

Three independent computations of the first Chern index of a band bundle
over the unit sphere in (mu, x, xi) space:

* ``chern_curvature`` -- gauge-invariant Berry phases summed over the cells
  of a cubed-sphere grid (determinant overlaps handle rank >= 2);
* ``chern_clutching`` -- winding number of the transition phase between two
  hemisphere trivializations sampled on the equator;
* ``chern_section_zeros`` -- local winding indices at the zeros of a global
  section obtained by projecting a fixed reference vector.

Orientation convention: the ordered coordinates (mu, x, xi) are positively
oriented, i.e. a tangent frame (t1, t2) at p is positive when
det[p | t1 | t2] > 0 with p the outward normal.  Cubed-sphere cells are
traversed counterclockwise as seen from outside the sphere.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .errors import (
    AliasingError,
    DegenerateZeroError,
    DegeneracyError,
    ModelError,
    SectionVanishesError,
)
from .hermite import AffineMatrixSymbol

__all__ = [
    "SphereGrid",
    "BandProjectorField",
    "ChernReport",
    "SectionZero",
    "point_eigensystem",
    "winding_number",
    "chern_curvature",
    "chern_clutching",
    "chern_section_zeros",
]

NORTH = np.array([1.0, 0.0, 0.0])
SOUTH = np.array([-1.0, 0.0, 0.0])

#: Minimum eigenvalue separation between selected and unselected bands.
BAND_GAP_TOL = 1e-9


def _face_axes():
    """(normal axis, sign, u axis, v axis) per face; e_u x e_v = sign * e_k."""
    out = []
    for k in range(3):
        for s in (+1, -1):
            if s > 0:
                au, av = (k + 1) % 3, (k + 2) % 3
            else:
                au, av = (k + 2) % 3, (k + 1) % 3
            out.append((k, s, au, av))
    return out


@dataclass(frozen=True)
class SphereGrid:
    """Cubed-sphere discretization: 6 faces of N x N cells, shared vertices.

    Vertices on face boundaries are deduplicated so every interior edge is
    shared by exactly two cells; this makes the summed cell phases quantized
    to 2 pi Z up to roundoff.  All cells are counterclockwise from outside.
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
        index_of: dict[tuple[float, float, float], int] = {}
        cube_pts: list[tuple[float, float, float]] = []

        def vid(coords: list[float]) -> int:
            key = (coords[0] + 0.0, coords[1] + 0.0, coords[2] + 0.0)
            idx = index_of.get(key)
            if idx is None:
                idx = len(cube_pts)
                index_of[key] = idx
                cube_pts.append(key)
            return idx

        cells = []
        for k, s, au, av in _face_axes():
            face = np.empty((n + 1, n + 1), dtype=int)
            for i in range(n + 1):
                for j in range(n + 1):
                    c = [0.0, 0.0, 0.0]
                    c[k] = float(s)
                    c[au] = float(ticks[i])
                    c[av] = float(ticks[j])
                    face[i, j] = vid(c)
            for i in range(n):
                for j in range(n):
                    cells.append(
                        (face[i, j], face[i + 1, j], face[i + 1, j + 1], face[i, j + 1])
                    )
        pts = np.asarray(cube_pts)
        pts = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        return cls(n_per_face=n, vertices=pts, cells=np.asarray(cells, dtype=int))


def _fix_phases(vecs: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude component of each column real positive.

    ``vecs`` holds eigenvectors as columns, optionally stacked: (..., d, k).
    """
    idx = np.abs(vecs).argmax(axis=-2)
    lead = np.take_along_axis(vecs, idx[..., np.newaxis, :], axis=-2)
    return vecs * np.exp(-1j * np.angle(lead))


def point_eigensystem(
    symbol: AffineMatrixSymbol,
    point: Sequence[float],
    bands: Sequence[int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and phase-fixed orthonormal eigenvectors.

    The phase of each eigenvector is fixed by making its largest-magnitude
    component real positive.  If ``bands`` (1-based, contiguous) is given,
    a gap below :data:`BAND_GAP_TOL` between selected and unselected bands
    raises :class:`DegeneracyError`.
    """
    mu, x, xi = point
    h = symbol.evaluate(mu, x, xi)
    omegas, vecs = np.linalg.eigh(h)
    vecs = _fix_phases(vecs)
    if bands is not None:
        lo, hi = min(bands) - 1, max(bands) - 1
        if lo > 0 and omegas[lo] - omegas[lo - 1] < BAND_GAP_TOL:
            raise DegeneracyError(f"band gap below {BAND_GAP_TOL} at {tuple(point)}")
        if hi < symbol.dim - 1 and omegas[hi + 1] - omegas[hi] < BAND_GAP_TOL:
            raise DegeneracyError(f"band gap below {BAND_GAP_TOL} at {tuple(point)}")
    return omegas, vecs


@dataclass(frozen=True)
class BandProjectorField:
    """Eigenvector frames of a contiguous band group cached on a sphere grid.

    ``vectors[v]`` is the (d, r) orthonormal frame of the selected bands at
    grid vertex v.  The spectral projector is ``P = V V^dag``; its rank is
    the number of selected bands everywhere because the build checks the
    gap to unselected bands at every vertex.
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
        bands = tuple(sorted(int(b) for b in bands))
        if not bands:
            raise ModelError("band selection is empty")
        if bands[0] < 1 or bands[-1] > symbol.dim:
            raise ModelError(f"bands {bands} out of range 1..{symbol.dim}")
        if list(bands) != list(range(bands[0], bands[-1] + 1)):
            raise ModelError(f"bands must be contiguous, got {bands}")
        mats = symbol.evaluate_many(grid.vertices)
        omegas, vecs = np.linalg.eigh(mats)
        lo, hi = bands[0] - 1, bands[-1] - 1
        min_gap = np.inf
        if lo > 0:
            min_gap = min(min_gap, float((omegas[:, lo] - omegas[:, lo - 1]).min()))
        if hi < symbol.dim - 1:
            min_gap = min(min_gap, float((omegas[:, hi + 1] - omegas[:, hi]).min()))
        if min_gap < BAND_GAP_TOL:
            raise DegeneracyError(
                f"selected bands touch unselected ones (min gap {min_gap:.3g})"
            )
        # deterministic phase fix per cached vector (results are gauge
        # invariant; this only pins intermediate dumps)
        return cls(
            symbol=symbol,
            bands=bands,
            grid=grid,
            vectors=_fix_phases(vecs[:, :, lo : hi + 1]),
            min_gap=min_gap,
        )

    def projector_at(self, point: Sequence[float]) -> np.ndarray:
        """Spectral projector of the selected bands at an arbitrary point."""
        _, vecs = point_eigensystem(self.symbol, point, bands=self.bands)
        lo, hi = self.bands[0] - 1, self.bands[-1] - 1
        frame = vecs[:, lo : hi + 1]
        return frame @ frame.conj().T

    def with_phase_field(self, phases: np.ndarray) -> "BandProjectorField":
        """Gauge transform: multiply every cached frame by a unit phase."""
        phases = np.asarray(phases, dtype=complex)
        if phases.shape != (len(self.vectors),):
            raise ModelError("need one phase per grid vertex")
        return replace(self, vectors=self.vectors * phases[:, None, None])


@dataclass(frozen=True)
class SectionZero:
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
    Consecutive phase steps must stay below pi in magnitude; the unwrapped
    total divided by 2 pi is integer up to roundoff.
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
    total = float(steps.sum()) / (2.0 * np.pi)
    w = int(round(total))
    if abs(total - w) > 1e-9:
        raise AliasingError(f"winding total {total} is not close to an integer")
    return w


# ---------------------------------------------------------------------------
# curvature method
# ---------------------------------------------------------------------------

def _cell_phases(field_: BandProjectorField) -> np.ndarray:
    """Berry phase per grid cell from the overlap product around the loop.

    For rank r the link amplitude is the determinant of the r x r frame
    overlap.  The sign convention makes the summed phases equal +2 pi C for
    counterclockwise-from-outside cells.
    """
    v = field_.vectors
    cells = field_.grid.cells
    a, b, c, d = (v[cells[:, i]] for i in range(4))
    if field_.rank == 1:
        va, vb, vc, vd = (t[:, :, 0] for t in (a, b, c, d))
        prod = (
            np.einsum("ij,ij->i", va.conj(), vb)
            * np.einsum("ij,ij->i", vb.conj(), vc)
            * np.einsum("ij,ij->i", vc.conj(), vd)
            * np.einsum("ij,ij->i", vd.conj(), va)
        )
    else:
        prod = (
            np.linalg.det(np.einsum("ijk,ijl->ikl", a.conj(), b))
            * np.linalg.det(np.einsum("ijk,ijl->ikl", b.conj(), c))
            * np.linalg.det(np.einsum("ijk,ijl->ikl", c.conj(), d))
            * np.linalg.det(np.einsum("ijk,ijl->ikl", d.conj(), a))
        )
    return -np.angle(prod)


def chern_curvature(
    field_: BandProjectorField,
    grid: SphereGrid | None = None,
    max_refinements: int = 2,
) -> ChernReport:
    """Chern index as the summed cell Berry phases over 2 pi.

    The sum is exactly an integer multiple of 2 pi up to roundoff because
    every interior edge is traversed twice in opposite directions.  A cell
    phase of magnitude >= pi/2 indicates an unresolved curvature spike; the
    grid is refined (doubled) up to ``max_refinements`` times before the
    spike is reported as a degeneracy on or near the sphere.
    """
    if grid is not None and grid is not field_.grid:
        field_ = BandProjectorField.build(field_.symbol, field_.bands, grid)
    refinements = 0
    while True:
        phases = _cell_phases(field_)
        max_phase = float(np.abs(phases).max())
        if max_phase < np.pi / 2:
            break
        if refinements >= max_refinements:
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
            "min_band_gap": field_.min_gap,
        },
    )


# ---------------------------------------------------------------------------
# clutching method
# ---------------------------------------------------------------------------

RefSpec = np.ndarray | Callable[[np.ndarray], np.ndarray] | None


def _pole_reference(field_: BandProjectorField, pole: np.ndarray) -> np.ndarray:
    """Band eigenvector at a pole: the canonical hemisphere reference."""
    _, vecs = point_eigensystem(field_.symbol, pole, bands=field_.bands)
    return vecs[:, field_.bands[0] - 1]


def _as_ref_fn(ref, field_: BandProjectorField, pole: np.ndarray):
    if ref is None:
        vec = _pole_reference(field_, pole)
        return lambda p: vec
    if callable(ref):
        return ref
    vec = np.asarray(ref, dtype=complex)
    if vec.shape != (field_.symbol.dim,):
        raise ModelError("reference vector has wrong dimension")
    return lambda p: vec


def _hemisphere_points(sign: float, rings: int = 24, per_ring: int = 48) -> np.ndarray:
    """Sample of a closed hemisphere {sign * mu >= 0}, equator included."""
    pts = [np.array([sign, 0.0, 0.0])]
    for mu in np.linspace(0.0, 1.0, rings + 1)[:-1]:
        r = np.sqrt(1.0 - mu * mu)
        for th in np.linspace(0.0, 2.0 * np.pi, per_ring, endpoint=False):
            pts.append(np.array([sign * mu, r * np.cos(th), r * np.sin(th)]))
    return np.asarray(pts)


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
    trivializing constant vector.  Both sections are verified to satisfy
    ``|s|^2 > 1e-6`` on a sample of their closed hemisphere; the transition
    phase is ``<s_north | s_south>`` on the equator and its winding is C.
    """
    if field_.rank != 1:
        raise ModelError("clutching method requires a rank-1 band")
    if equator_samples < 16:
        raise ModelError("need at least 16 equator samples")
    ref_n = _as_ref_fn(north_ref, field_, NORTH)
    ref_s = _as_ref_fn(south_ref, field_, SOUTH)

    min_norms = []
    for sign, ref, name in ((+1.0, ref_n, "north"), (-1.0, ref_s, "south")):
        worst = np.inf
        for p in _hemisphere_points(sign):
            pi_ = field_.projector_at(p)
            s = pi_ @ np.asarray(ref(p), dtype=complex)
            worst = min(worst, float(np.vdot(s, s).real))
        if worst <= 1e-6:
            raise SectionVanishesError(
                f"{name} reference section vanishes on its hemisphere "
                f"(min |s|^2 = {worst:.3g}); supply a different reference"
            )
        min_norms.append(worst)

    thetas = np.linspace(0.0, 2.0 * np.pi, equator_samples, endpoint=False)
    f21 = np.empty(equator_samples, dtype=complex)
    for i, th in enumerate(thetas):
        p = np.array([0.0, np.cos(th), np.sin(th)])
        pi_ = field_.projector_at(p)
        s1 = pi_ @ np.asarray(ref_n(p), dtype=complex)
        s2 = pi_ @ np.asarray(ref_s(p), dtype=complex)
        f21[i] = np.vdot(s1, s2)
    w = winding_number(f21)
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

def _tangent_frame(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positively oriented orthonormal tangent frame at unit vector p."""
    seed = np.array([1.0, 0.0, 0.0]) if abs(p[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    t1 = seed - np.dot(seed, p) * p
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(p, t1)
    return t1, t2


def _section_at(field_: BandProjectorField, u0: np.ndarray, p: np.ndarray) -> np.ndarray:
    return field_.projector_at(p) @ u0


def _refine_zero(
    field_: BandProjectorField, u0: np.ndarray, seed_point: np.ndarray
) -> tuple[np.ndarray, float]:
    """Polish a candidate zero of the section by 2x2 Newton from its seed.

    Newton runs on the complex coordinate z(t) = <v0 | s> of the section in
    the frame of the band eigenvector v0 at the current point, with t the
    tangent-plane offset.  The seed is a grid vertex where the section is
    small; near a nondegenerate zero the iteration converges quadratically.
    Returns the point and the section norm there, which the caller tests.
    """
    p0 = seed_point / np.linalg.norm(seed_point)
    for _ in range(6):
        t1, t2 = _tangent_frame(p0)
        _, vecs = point_eigensystem(field_.symbol, p0, bands=field_.bands)
        v0 = vecs[:, field_.bands[0] - 1]

        def zfun(t):
            q = p0 + t[0] * t1 + t[1] * t2
            q /= np.linalg.norm(q)
            return complex(np.vdot(v0, _section_at(field_, u0, q)))

        h = 1e-7
        z0 = zfun((0.0, 0.0))
        dz1 = (zfun((h, 0.0)) - zfun((-h, 0.0))) / (2 * h)
        dz2 = (zfun((0.0, h)) - zfun((0.0, -h))) / (2 * h)
        jac = np.array([[dz1.real, dz2.real], [dz1.imag, dz2.imag]])
        try:
            step = np.linalg.solve(jac, -np.array([z0.real, z0.imag]))
        except np.linalg.LinAlgError:
            break
        p0 = p0 + step[0] * t1 + step[1] * t2
        p0 /= np.linalg.norm(p0)
        if abs(z0) < 1e-13:
            break
    s = _section_at(field_, u0, p0)
    return p0, float(np.linalg.norm(s))


def chern_section_zeros(
    field_: BandProjectorField,
    reference_vector: Sequence[complex],
    probe_radius: float = 1e-3,
    circle_samples: int = 64,
) -> ChernReport:
    """Chern index as the sum of local winding indices at section zeros.

    The global section ``s(p) = P(p) u0`` is scanned for zeros on the grid
    vertices, each candidate is polished until ``|s| < 1e-10``, and the
    index of each zero is the winding of the section's complex coordinate
    (in the frame of the local band eigenvector) around a circle of
    ``probe_radius`` traversed positively.
    """
    if field_.rank != 1:
        raise ModelError("section-zero method requires a rank-1 band")
    u0 = np.asarray(reference_vector, dtype=complex)
    if u0.shape != (field_.symbol.dim,):
        raise ModelError("reference vector has wrong dimension")

    # coarse scan on cached vertices: rank-1 projector makes |s| = |<v|u0>|.
    # Zeros are quadratic minima of |s|^2, so near one the closest vertex
    # amplitude is O(grid spacing); sections bounded away from zero (min
    # above the absolute floor) have no zeros and are accepted as is.
    amps = np.abs(np.einsum("vd,d->v", field_.vectors[:, :, 0].conj(), u0))
    threshold = 0.15 * float(np.linalg.norm(u0))
    order = np.argsort(amps)
    order = order[amps[order] < threshold]
    zeros: list[tuple[np.ndarray, float]] = []
    processed: list[np.ndarray] = []
    for seed in field_.grid.vertices[order]:
        if any(np.linalg.norm(seed - q) < 0.2 for q in processed):
            continue
        processed.append(seed)
        point, norm = _refine_zero(field_, u0, seed)
        if norm < 1e-10:
            if any(np.linalg.norm(point - z[0]) < 1e-6 for z in zeros):
                continue
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
    for point, norm in zeros:
        t1, t2 = _tangent_frame(point)
        _, vecs = point_eigensystem(field_.symbol, point, bands=field_.bands)
        v0 = vecs[:, field_.bands[0] - 1]
        loop = []
        for phi in np.linspace(0.0, 2.0 * np.pi, circle_samples, endpoint=False):
            q = point + probe_radius * (np.cos(phi) * t1 + np.sin(phi) * t2)
            q /= np.linalg.norm(q)
            loop.append(complex(np.vdot(v0, _section_at(field_, u0, q))))
        idx = winding_number(loop)
        if idx == 0:
            raise DegenerateZeroError(
                f"zero at {tuple(point)} has vanishing winding; refine the "
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
