import dataclasses
import math
import re

import numpy as np
import pytest

from indexlab.errors import (
    AliasingError,
    DegeneracyError,
    ModelError,
    SectionVanishesError,
)
from indexlab.hermite import AffineMatrixSymbol
from indexlab.models import (
    matsuno_symbol,
    mu_reflected,
    normal_form_symbol,
    ts2_symbol,
)
from indexlab.topology import (
    BandProjectorField,
    SphereGrid,
    SphereSpectrum,
    batch_eigensystem,
    chern_clutching,
    chern_curvature,
    chern_section_zeros,
    point_eigensystem,
    winding_number,
)


def matsuno_band2_section(p):
    mu, x, xi = p
    return np.array([-x, 1j * xi, -1j * mu])


def two_level_constant():
    return AffineMatrixSymbol(
        dim=2,
        const_term=lambda mu: np.diag([-1.0, 1.0]) * np.ones((len(mu), 1, 1), dtype=complex),
        x_coeff=np.zeros((2, 2), dtype=complex),
        xi_coeff=np.zeros((2, 2), dtype=complex),
        gap_band=1,
        gap_constant=0.9,
        name="const-two-level",
    )


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

def test_grid_vertex_and_cell_counts(grid32):
    n = grid32.n_per_face
    assert len(grid32.vertices) == 6 * n * n + 2
    assert len(grid32.cells) == 6 * n * n
    assert np.allclose(np.linalg.norm(grid32.vertices, axis=1), 1.0, atol=1e-14)


def test_grid_cells_ccw_from_outside(grid32):
    v = grid32.vertices
    for cell in grid32.cells[:: len(grid32.cells) // 97]:
        a, b, c, d = (v[i] for i in cell)
        center = (a + b + c + d) / 4.0
        normal = np.cross(b - a, d - a)
        assert np.dot(normal, center) > 0.0


def test_grid_edges_shared_exactly_twice(grid32):
    from collections import Counter

    edges = Counter()
    for cell in grid32.cells:
        for i in range(4):
            edges[frozenset((cell[i], cell[(i + 1) % 4]))] += 1
    assert set(edges.values()) == {2}


def dict_deduplicated_grid(n):
    """Reference build: a double loop per face, vertices deduplicated by dict."""
    ticks = np.linspace(-1.0, 1.0, n + 1)
    index_of, cube_pts, cells = {}, [], []
    for k in range(3):
        for s in (+1, -1):
            au, av = ((k + 1) % 3, (k + 2) % 3) if s > 0 else ((k + 2) % 3, (k + 1) % 3)
            face = np.empty((n + 1, n + 1), dtype=int)
            for i in range(n + 1):
                for j in range(n + 1):
                    c = [0.0, 0.0, 0.0]
                    c[k], c[au], c[av] = float(s), float(ticks[i]), float(ticks[j])
                    key = (c[0] + 0.0, c[1] + 0.0, c[2] + 0.0)
                    if key not in index_of:
                        index_of[key] = len(cube_pts)
                        cube_pts.append(key)
                    face[i, j] = index_of[key]
            for i in range(n):
                for j in range(n):
                    cells.append(
                        (face[i, j], face[i + 1, j], face[i + 1, j + 1], face[i, j + 1])
                    )
    pts = np.asarray(cube_pts)
    return pts / np.linalg.norm(pts, axis=1, keepdims=True), np.asarray(cells)


@pytest.mark.parametrize("n", [16, 17])
def test_grid_matches_dict_deduplicated_loop(n):
    # vertex order matters: section-zero seeds are taken in vertex order
    vertices, cells = dict_deduplicated_grid(n)
    grid = SphereGrid.build(n)
    assert np.array_equal(grid.vertices, vertices)
    assert np.array_equal(grid.cells, cells)


def test_grid_minimum_size():
    with pytest.raises(ModelError):
        SphereGrid.build(8)


# ---------------------------------------------------------------------------
# winding number
# ---------------------------------------------------------------------------

def test_winding_examples():
    th = np.linspace(0, 2 * np.pi, 256, endpoint=False)
    assert winding_number(-np.exp(1j * th)) == 1
    assert winding_number(np.ones(64, dtype=complex)) == 0
    assert winding_number(np.exp(-2j * th)) == -2


def test_winding_aliasing_error():
    # 6 samples of winding-3 loop: each phase step is exactly pi
    th = np.linspace(0, 2 * np.pi, 6, endpoint=False)
    with pytest.raises(AliasingError):
        winding_number(np.exp(3j * th))


def test_winding_rejects_zero_sample():
    with pytest.raises(ModelError):
        winding_number(np.array([1.0, 0.0, 1.0], dtype=complex))


# ---------------------------------------------------------------------------
# point eigensystem
# ---------------------------------------------------------------------------

def test_point_eigensystem_normal_form():
    sym = normal_form_symbol()
    omegas, vecs = point_eigensystem(sym, (0.0, 1.0, 0.0))
    assert np.allclose(omegas, [-1.0, 1.0], atol=1e-14)
    u_plus = np.array([1.0, 1.0]) / math.sqrt(2)  # (-mu + r, x - i xi)
    u_minus = np.array([-1.0, 1.0]) / math.sqrt(2)
    assert abs(abs(np.vdot(u_minus, vecs[:, 0])) - 1.0) < 1e-12
    assert abs(abs(np.vdot(u_plus, vecs[:, 1])) - 1.0) < 1e-12


def test_point_eigensystem_matsuno_band2():
    omegas, vecs = point_eigensystem(matsuno_symbol(), (0.0, 0.0, 1.0))
    assert np.allclose(omegas, [-1.0, 0.0, 1.0], atol=1e-14)
    u2 = np.array([0.0, 1j, 0.0])  # (-x, i xi, -i mu) at (0, 0, 1)
    assert abs(abs(np.vdot(u2, vecs[:, 1])) - 1.0) < 1e-12


def test_point_eigensystem_residual_random(rng):
    sym = matsuno_symbol()
    for _ in range(10):
        p = rng.uniform(-1.5, 1.5, size=3)
        omegas, vecs = point_eigensystem(sym, p)
        h = sym.evaluate(*p)
        for k in range(3):
            assert np.linalg.norm(h @ vecs[:, k] - omegas[k] * vecs[:, k]) < 1e-12


def test_point_eigensystem_phase_fix_deterministic(rng):
    sym = matsuno_symbol()
    p = (0.3, -0.4, 0.8)
    _, v1 = point_eigensystem(sym, p)
    _, v2 = point_eigensystem(sym, p)
    assert np.array_equal(v1, v2)
    idx = np.argmax(np.abs(v1), axis=0)
    leads = v1[idx, np.arange(3)]
    assert np.all(np.abs(leads.imag) < 1e-14) and np.all(leads.real > 0)


def test_point_eigensystem_degeneracy_error():
    with pytest.raises(DegeneracyError):
        point_eigensystem(matsuno_symbol(), (1e-12, 0.0, 0.0), bands=(1,))


def test_batch_eigensystem_degeneracy_error_names_point():
    points = [(0.6, 0.0, 0.8), (1e-12, 0.0, 0.0), (0.0, 1.0, 0.0)]
    with pytest.raises(DegeneracyError, match=re.escape("(1e-12, 0.0, 0.0)")):
        batch_eigensystem(matsuno_symbol(), points, bands=(1,))
    omegas, vecs = batch_eigensystem(matsuno_symbol(), points[::2], bands=(1,))
    assert omegas.shape == (2, 3) and vecs.shape == (2, 3, 3)


# ---------------------------------------------------------------------------
# band projector field
# ---------------------------------------------------------------------------

def test_field_build_validations(grid32):
    sym = matsuno_symbol()
    with pytest.raises(ModelError):
        BandProjectorField.build(sym, [], grid32)
    with pytest.raises(ModelError):
        BandProjectorField.build(sym, [1, 3], grid32)  # not contiguous
    with pytest.raises(ModelError):
        BandProjectorField.build(sym, [4], grid32)
    fld = BandProjectorField.build(sym, [1, 2], grid32)
    assert fld.rank == 2
    assert fld.min_gap > 0.9  # gap to band 3 is 1 on the unit sphere


def per_band_reference(sym, bands, grid):
    """One band group solved on its own: per-point symbols, eigh, slice, phase fix."""
    omegas, vecs = np.linalg.eigh(np.array([sym.evaluate(*p) for p in grid.vertices]))
    lo, hi = bands[0] - 1, bands[-1] - 1
    frames = vecs[:, :, lo : hi + 1]
    lead = np.take_along_axis(frames, np.abs(frames).argmax(axis=1)[:, None, :], axis=1)
    gaps = [omegas[:, lo] - omegas[:, lo - 1]] if lo > 0 else []
    gaps += [omegas[:, hi + 1] - omegas[:, hi]] if hi < sym.dim - 1 else []
    return frames * np.exp(-1j * np.angle(lead)), min(float(g.min()) for g in gaps)


@pytest.mark.parametrize("bands", [[1], [2], [3], [1, 2], [2, 3]])
def test_fields_sliced_from_one_spectrum_match_independent_builds(grid32, bands):
    sym = matsuno_symbol()
    sliced = SphereSpectrum.build(sym, grid32).field(bands)
    built = BandProjectorField.build(sym, bands, grid32)
    vectors, min_gap = per_band_reference(sym, bands, grid32)
    assert sliced.bands == built.bands == tuple(bands)
    for fld in (sliced, built):
        assert np.array_equal(fld.vectors, vectors)
        assert fld.min_gap == min_gap


def test_field_projector_idempotent(grid32):
    fld = BandProjectorField.build(matsuno_symbol(), [1], grid32)
    for v in fld.vectors[:: len(fld.vectors) // 7]:
        p = v @ v.conj().T
        assert np.abs(p @ p - p).max() < 1e-12


def test_field_degenerate_selection_raises(grid32):
    flat = AffineMatrixSymbol(
        dim=2,
        const_term=lambda mu: np.zeros((len(mu), 2, 2), dtype=complex),
        x_coeff=np.zeros((2, 2), dtype=complex),
        xi_coeff=np.zeros((2, 2), dtype=complex),
        gap_band=1,
        gap_constant=0.5,
        name="flat",
    )
    with pytest.raises(DegeneracyError):
        BandProjectorField.build(flat, [1], grid32)


# ---------------------------------------------------------------------------
# curvature method
# ---------------------------------------------------------------------------

def test_curvature_normal_form(grid32):
    sym = normal_form_symbol()
    lower = chern_curvature(BandProjectorField.build(sym, [1], grid32))
    upper = chern_curvature(BandProjectorField.build(sym, [2], grid32))
    assert (lower.C, upper.C) == (1, -1)
    assert lower.residual < 1e-10 and upper.residual < 1e-10


def test_curvature_matsuno_bands(grid32):
    sym = matsuno_symbol()
    values = [
        chern_curvature(BandProjectorField.build(sym, [b], grid32)).C
        for b in (1, 2, 3)
    ]
    assert values == [2, 0, -2]
    assert sum(values) == 0  # ambient bundle is trivial


def test_curvature_rank2_group(grid32):
    fld = BandProjectorField.build(matsuno_symbol(), [1, 2], grid32)
    rep = chern_curvature(fld)
    assert rep.C == 2
    assert rep.residual < 1e-10


def test_curvature_ts2(grid32):
    values = [
        chern_curvature(BandProjectorField.build(ts2_symbol(), [b], grid32)).C
        for b in (1, 2, 3)
    ]
    assert values == [-2, 0, 2]


def test_curvature_residual_decreases(grid32, grid64):
    sym = matsuno_symbol()
    r32 = chern_curvature(BandProjectorField.build(sym, [1], grid32))
    r64 = chern_curvature(BandProjectorField.build(sym, [1], grid64))
    assert r64.residual <= max(r32.residual, 1e-12)
    assert r64.diagnostics["max_cell_phase"] < r32.diagnostics["max_cell_phase"]


def test_curvature_gauge_invariance(grid32, rng):
    fld = BandProjectorField.build(matsuno_symbol(), [1], grid32)
    base = chern_curvature(fld)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, len(grid32.vertices)))
    scrambled = chern_curvature(fld.with_phase_field(phases))
    assert scrambled.C == base.C
    assert abs(scrambled.raw_value - base.raw_value) < 1e-9


def test_curvature_orientation_flip(grid32):
    # swapping the roles of x and xi reverses the sphere orientation
    for sym, expect in ((normal_form_symbol(), -1), (matsuno_symbol(), -2)):
        flipped = dataclasses.replace(sym, x_coeff=sym.xi_coeff, xi_coeff=sym.x_coeff)
        rep = chern_curvature(BandProjectorField.build(flipped, [1], grid32))
        assert rep.C == expect


def test_curvature_mu_reflection_negates(grid32):
    sym = mu_reflected(normal_form_symbol())
    lower = chern_curvature(BandProjectorField.build(sym, [1], grid32))
    upper = chern_curvature(BandProjectorField.build(sym, [2], grid32))
    assert (lower.C, upper.C) == (-1, 1)


def test_curvature_degeneracy_detection(grid32):
    # a symbol with a band crossing ON the sphere: gap check must fire
    shifted = AffineMatrixSymbol(
        dim=2,
        const_term=lambda mu: np.multiply.outer(mu, np.diag([-1.0, 1.0])) + 0.5 * np.eye(2, dtype=complex),
        x_coeff=normal_form_symbol().x_coeff,
        xi_coeff=normal_form_symbol().xi_coeff,
        gap_band=1,
        gap_constant=0.4,
        name="shifted",
    )
    # eigenvalues 0.5 +- 1 on the sphere: still gapped; shrink instead
    squeezed = AffineMatrixSymbol(
        dim=2,
        const_term=lambda mu: np.zeros((len(mu), 2, 2), dtype=complex),
        x_coeff=shifted.x_coeff,
        xi_coeff=shifted.xi_coeff,
        gap_band=1,
        gap_constant=0.4,
        name="squeezed",
    )
    # omega = +-sqrt(x^2 + xi^2) vanishes at the poles (x = xi = 0)
    with pytest.raises(DegeneracyError):
        chern_curvature(BandProjectorField.build(squeezed, [1], grid32))


# ---------------------------------------------------------------------------
# clutching method
# ---------------------------------------------------------------------------

def test_clutching_normal_form_transition_function(grid32):
    # explicit references reproduce f21(theta) = -exp(i theta)
    fld = BandProjectorField.build(normal_form_symbol(), [1], grid32)
    rep = chern_clutching(
        fld, 256, north_ref=np.array([1.0, 0.0]), south_ref=np.array([0.0, 1.0])
    )
    assert rep.C == 1
    thetas = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    for th in thetas:
        p = np.array([0.0, np.cos(th), np.sin(th)])
        pi_ = fld.projector_at(p)
        s1 = pi_ @ np.array([1.0, 0.0])
        s2 = pi_ @ np.array([0.0, 1.0])
        f = np.vdot(s1, s2)
        assert abs(f / abs(f) - (-np.exp(1j * th))) < 1e-12


def test_clutching_default_pole_references(grid32):
    sym = normal_form_symbol()
    assert chern_clutching(BandProjectorField.build(sym, [1], grid32)).C == 1
    assert chern_clutching(BandProjectorField.build(sym, [2], grid32)).C == -1


def test_clutching_constant_symbol_zero(grid32):
    fld = BandProjectorField.build(two_level_constant(), [1], grid32)
    assert chern_clutching(fld).C == 0


def test_clutching_matsuno_outer_bands(grid32):
    sym = matsuno_symbol()
    assert chern_clutching(BandProjectorField.build(sym, [1], grid32)).C == 2
    assert chern_clutching(BandProjectorField.build(sym, [3], grid32)).C == -2


def test_clutching_matsuno_band2_needs_section_refs(grid32):
    fld = BandProjectorField.build(matsuno_symbol(), [2], grid32)
    with pytest.raises(SectionVanishesError):
        chern_clutching(fld)
    rep = chern_clutching(
        fld, north_ref=matsuno_band2_section, south_ref=matsuno_band2_section
    )
    assert rep.C == 0


def test_clutching_rank2_rejected(grid32):
    fld = BandProjectorField.build(matsuno_symbol(), [1, 2], grid32)
    with pytest.raises(ModelError):
        chern_clutching(fld)


# ---------------------------------------------------------------------------
# section-zero method
# ---------------------------------------------------------------------------

def assert_zero_points(zeros, expected_points, atol=1e-6):
    assert len(zeros) == len(expected_points)
    for target in expected_points:
        assert any(
            np.linalg.norm(np.array(z.point) - np.array(target)) < atol
            for z in zeros
        ), (zeros, target)


def test_zeros_matsuno_band1(grid32):
    fld = BandProjectorField.build(matsuno_symbol(), [1], grid32)
    rep = chern_section_zeros(fld, [0.0, 0.0, 1.0])
    assert rep.C == 2
    assert_zero_points(rep.zeros, [(1, 0, 0), (-1, 0, 0)])
    assert all(z.index == 1 for z in rep.zeros)
    assert all(z.section_norm < 1e-10 for z in rep.zeros)


def test_zeros_matsuno_band3(grid32):
    rep = chern_section_zeros(
        BandProjectorField.build(matsuno_symbol(), [3], grid32), [0.0, 0.0, 1.0]
    )
    assert rep.C == -2
    assert all(z.index == -1 for z in rep.zeros)
    assert_zero_points(rep.zeros, [(1, 0, 0), (-1, 0, 0)])


def test_zeros_matsuno_band2_cancel(grid32):
    rep = chern_section_zeros(
        BandProjectorField.build(matsuno_symbol(), [2], grid32),
        np.array([1.0, 1.0, 0.0]) / math.sqrt(2),
    )
    assert rep.C == 0
    assert sorted(z.index for z in rep.zeros) == [-1, 1]


def test_zeros_normal_form(grid32):
    rep = chern_section_zeros(
        BandProjectorField.build(normal_form_symbol(), [1], grid32), [0.0, 1.0]
    )
    assert rep.C == 1
    assert_zero_points(rep.zeros, [(1, 0, 0)])
    assert rep.zeros[0].index == 1


def test_zeros_tangent_bundle(grid32):
    rep = chern_section_zeros(
        BandProjectorField.build(ts2_symbol(), [3], grid32), [0.0, 0.0, 1.0]
    )
    assert rep.C == 2
    assert_zero_points(rep.zeros, [(0, 0, 1), (0, 0, -1)])
    assert all(z.index == 1 for z in rep.zeros)


def test_zeros_newton_polish_off_vertex(grid32):
    # u0 is the upper eigenvector at a point about 0.017 from the nearest
    # vertex, so the polish has to move off its seed to reach the zero
    sym = normal_form_symbol()
    u0 = np.array([0.6, 0.8 * np.exp(0.7j)])
    rep = chern_section_zeros(BandProjectorField.build(sym, [1], grid32), u0)
    assert rep.C == 1 and len(rep.zeros) == 1
    zero = rep.zeros[0]
    assert zero.index == 1
    assert zero.section_norm < 1e-10
    assert np.min(np.linalg.norm(grid32.vertices - np.array(zero.point), axis=1)) > 1e-2
    assert np.linalg.norm(sym.evaluate(*zero.point) @ u0 - u0) < 1e-9


def test_zeros_nonvanishing_section(grid32):
    rep = chern_section_zeros(
        BandProjectorField.build(two_level_constant(), [1], grid32), [1.0, 0.0]
    )
    assert rep.C == 0 and rep.zeros == ()


def test_zeros_rank2_rejected(grid32):
    fld = BandProjectorField.build(matsuno_symbol(), [1, 2], grid32)
    with pytest.raises(ModelError):
        chern_section_zeros(fld, [0.0, 0.0, 1.0])


def test_zeros_probe_radius_overlap_rejected(grid32):
    # antipodal zeros are 2 apart; a probe radius above 1 makes the probe
    # circles overlap and must be refused
    from indexlab.errors import DegenerateZeroError

    fld = BandProjectorField.build(matsuno_symbol(), [1], grid32)
    with pytest.raises(DegenerateZeroError):
        chern_section_zeros(fld, [0.0, 0.0, 1.0], probe_radius=1.5)


# ---------------------------------------------------------------------------
# cross-method agreement
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "symbol_fn,band,zero_ref,section_refs",
    [
        (normal_form_symbol, 1, [0.0, 1.0], None),
        (normal_form_symbol, 2, [1.0, 0.0], None),
        (matsuno_symbol, 1, [0.0, 0.0, 1.0], None),
        (matsuno_symbol, 2, np.array([1.0, 1.0, 0.0]) / math.sqrt(2),
         matsuno_band2_section),
        (matsuno_symbol, 3, [0.0, 0.0, 1.0], None),
        (ts2_symbol, 3, [0.0, 0.0, 1.0], None),
    ],
)
def test_three_method_agreement(grid32, symbol_fn, band, zero_ref, section_refs):
    fld = BandProjectorField.build(symbol_fn(), [band], grid32)
    curv = chern_curvature(fld)
    clutch = chern_clutching(fld, north_ref=section_refs, south_ref=section_refs)
    zeros = chern_section_zeros(fld, zero_ref)
    assert curv.C == clutch.C == zeros.C
