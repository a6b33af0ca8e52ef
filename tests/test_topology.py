import dataclasses
import math
import re

import numpy as np
import pytest
from conftest import BLOCK_FAMILIES

from indexlab.cli import load_preset
from indexlab.errors import (
    AliasingError,
    DegeneracyError,
    ModelError,
    SectionVanishesError,
)
import indexlab.topology as topology
from indexlab.hermite import AffineMatrixSymbol
from indexlab.models import (
    matsuno_symbol,
    mu_reflected,
    normal_form_symbol,
    ts2_symbol,
)
from indexlab.topology import (
    BandProjectorField,
    _cell_phases,
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


@pytest.mark.parametrize("n", [16, 17, 64])
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


def test_point_eigensystem_deterministic():
    # the section-zero polish solves its centre point in two batches
    sym = matsuno_symbol()
    p = (0.3, -0.4, 0.8)
    _, v1 = point_eigensystem(sym, p)
    _, v2 = point_eigensystem(sym, p)
    assert np.array_equal(v1, v2)


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
    """One band group solved on its own: per-point symbols, eigh, slice."""
    omegas, vecs = np.linalg.eigh(np.array([sym.evaluate(*p) for p in grid.vertices]))
    lo, hi = bands[0] - 1, bands[-1] - 1
    gaps = [omegas[:, lo] - omegas[:, lo - 1]] if lo > 0 else []
    gaps += [omegas[:, hi + 1] - omegas[:, hi]] if hi < sym.dim - 1 else []
    return vecs[:, :, lo : hi + 1], min(float(g.min()) for g in gaps)


def projectors(frames):
    """``V V^dag`` of a stack of frames (n, d, r)."""
    return frames @ frames.conj().swapaxes(1, 2)


@pytest.mark.parametrize("bands", [[1], [2], [3], [1, 2], [2, 3]])
def test_fields_sliced_from_one_spectrum_match_independent_builds(
        grid32, bump_perturbed_matsuno, bands):
    # the bump-perturbed symbol is a plain callback with no charge operator,
    # so every vertex is solved: bit-identical to the per-point reference
    for sym in (bump_perturbed_matsuno, matsuno_symbol()):
        sliced = SphereSpectrum.build(sym, grid32).field(bands)
        built = BandProjectorField.build(sym, bands, grid32)
        vectors, min_gap = per_band_reference(sym, bands, grid32)
        assert sliced.bands == built.bands == tuple(bands)
        for fld in (sliced, built):
            if sym is bump_perturbed_matsuno:
                assert fld.symbol.charge is None
                assert np.array_equal(fld.vectors, vectors)
                assert fld.min_gap == min_gap
            else:
                # matsuno is solved once per charge orbit and rotated out to
                # the vertices: the same projectors up to rounding, and frames
                # up to a gauge (a unitary inside a rank-2 group)
                assert fld.symbol.charge is not None
                assert np.abs(projectors(fld.vectors) - projectors(vectors)).max() <= 1e-12
                assert abs(fld.min_gap - min_gap) <= 1e-12


def evaluated_points(monkeypatch):
    """The number of points of each ``evaluate_many`` call from now on."""
    seen = []
    real = AffineMatrixSymbol.evaluate_many
    monkeypatch.setattr(AffineMatrixSymbol, "evaluate_many",
                        lambda self, pts: seen.append(len(pts)) or real(self, pts))
    return seen


def per_point_spectrum(sym, grid):
    """The grid spectrum with every vertex solved on its own, the charge operator unused."""
    return SphereSpectrum(sym, grid, *batch_eigensystem(sym, grid.vertices))


def test_sphere_solves_each_charge_orbit_once(monkeypatch, grid64):
    # the 64-grid's 24,578 vertices are 3,001 distinct (mu, hypot(x, xi));
    # a clutching hemisphere's 1,153 points are 65, the equator's 512 are 2
    seen = evaluated_points(monkeypatch)
    spectrum = SphereSpectrum.build(matsuno_symbol(), grid64)
    assert len(grid64.vertices) == 24578 and seen == [3001]
    seen.clear()
    assert chern_clutching(spectrum.field([1])).C == 2
    assert seen == [65, 65, 2]


@pytest.mark.parametrize("family", sorted(BLOCK_FAMILIES))
def test_orbit_spectrum_matches_per_point_solve(grid32, family):
    sym = BLOCK_FAMILIES[family]
    spectrum = SphereSpectrum.build(sym, grid32)
    omegas, vecs = np.linalg.eigh(sym.evaluate_many(grid32.vertices))
    assert sym.charge is not None
    assert np.abs(spectrum.omegas - omegas).max() <= 1e-12
    for rank in (1, 2):
        for lo in range(sym.dim - rank + 1):
            group = slice(lo, lo + rank)
            diff = projectors(spectrum.vectors[:, :, group]) - projectors(vecs[:, :, group])
            assert np.abs(diff).max() <= 1e-12, (rank, lo)


@pytest.mark.parametrize("name", ["random-affine", "matsuno+bump"])
def test_sphere_without_charge_symmetry_solves_every_point(
        monkeypatch, grid32, random_affine_symbol, bump_perturbed_matsuno, name):
    sym = random_affine_symbol if name == "random-affine" else bump_perturbed_matsuno
    seen = evaluated_points(monkeypatch)
    spectrum = SphereSpectrum.build(sym, grid32)
    assert seen == [len(grid32.vertices)] and sym.charge is None
    omegas, vecs = np.linalg.eigh(np.array([sym.evaluate(*p) for p in grid32.vertices]))
    assert np.array_equal(spectrum.omegas, omegas)
    assert np.array_equal(spectrum.vectors, vecs)
    seen.clear()
    chern_clutching(spectrum.field([1]))
    assert seen == [1153, 1153, 512]


def test_plain_callback_of_a_symmetric_family_solves_every_point(monkeypatch):
    # ts2's own A(mu) behind a plain callback has no charge operator (the
    # safe default): every vertex is solved on its own, and band 3's
    # curvature equals the one of the LinearTerm's orbit solve
    scenario = load_preset("ts2")
    base = scenario.symbol()
    plain = dataclasses.replace(base, const_term=lambda mu: base.const_term(mu))
    grid = SphereGrid.build(scenario.grid_n)
    seen = evaluated_points(monkeypatch)
    point = SphereSpectrum.build(plain, grid)
    assert seen == [len(grid.vertices)] and plain.charge is None
    orbit = SphereSpectrum.build(base, grid)
    assert base.charge is not None and seen[1] < len(grid.vertices)
    a, b = (chern_curvature(s.field([3])) for s in (orbit, point))
    assert a.C == b.C == 2
    assert abs(a.raw_value - b.raw_value) <= 1e-12


PRESETS = ["normal-form", "matsuno", "matsuno-upper-gap", "matsuno-lower-gap", "ts2", "constant"]


@pytest.mark.parametrize("preset", PRESETS)
def test_preset_curvature_matches_per_point_path(preset):
    scenario = load_preset(preset)
    sym = scenario.symbol()
    grid = SphereGrid.build(scenario.grid_n)
    orbit, point = SphereSpectrum.build(sym, grid), per_point_spectrum(sym, grid)
    subgap = list(range(1, sym.gap_band + 1))
    for bands in [[b] for b in range(1, sym.dim + 1)] + ([subgap] if len(subgap) > 1 else []):
        a, b = (chern_curvature(s.field(bands)) for s in (orbit, point))
        assert a.C == b.C
        assert abs(a.raw_value - b.raw_value) <= 1e-12
        for key in ("max_cell_phase", "min_band_gap"):  # the gap is inf on one band
            assert a.diagnostics[key] == pytest.approx(b.diagnostics[key], rel=0, abs=1e-12)


def point_gauge(solve):
    """``solve`` (a ``batch_eigensystem``) with each eigenvector column turned by a phase
    that depends only on its point and column, so a point solved twice keeps one frame."""
    def gauged(symbol, points, bands=None, orbits=False):
        omegas, vecs = solve(symbol, points, bands, orbits)
        pts = np.asarray(points, dtype=float).reshape(-1, 3)
        turns = np.multiply.outer(pts @ [3.1, -1.7, 2.3], np.arange(1, symbol.dim + 1))
        return omegas, vecs * np.exp(1j * turns)[:, None, :]
    return gauged


@pytest.mark.parametrize("preset", ["normal-form", "matsuno-upper-gap", "ts2"])
def test_every_chern_method_is_gauge_invariant(monkeypatch, grid17, preset):
    # on the odd grid the preset zeros are off the vertices, so the Newton polish runs
    scenario = load_preset(preset)
    sym = scenario.symbol()

    def reports():
        spectrum = SphereSpectrum.build(sym, grid17)
        out = []
        for band in scenario.chern_bands:
            fld = spectrum.field([band])
            north, south = scenario.clutch_refs_for(band)
            out.append((
                chern_curvature(fld),
                chern_clutching(fld, scenario.equator_samples, north_ref=north, south_ref=south),
                chern_section_zeros(fld, scenario.zero_ref_for(band)),
            ))
        return spectrum, out

    plain, expected = reports()
    monkeypatch.setattr(topology, "batch_eigensystem", point_gauge(topology.batch_eigensystem))
    turned, got = reports()
    assert not np.allclose(turned.vectors, plain.vectors)
    assert np.abs(np.abs(turned.vectors) - np.abs(plain.vectors)).max() <= 1e-15
    assert any(r[2].zeros for r in expected)
    for want, have in zip(expected, got, strict=True):
        for a, b in zip(want, have, strict=True):
            assert (a.method, a.C) == (b.method, b.C)
            assert abs(a.raw_value - b.raw_value) <= 1e-12
            assert a.diagnostics.keys() == b.diagnostics.keys()
            for key, value in a.diagnostics.items():
                assert b.diagnostics[key] == pytest.approx(value, rel=0, abs=1e-12), key
            assert [z.index for z in a.zeros] == [z.index for z in b.zeros]
            for za, zb in zip(a.zeros, b.zeros):
                assert np.abs(np.subtract(za.point, zb.point)).max() <= 1e-9
        assert len({r.C for r in want}) == 1  # the methods agree on both sides


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


@pytest.mark.parametrize("name", ["matsuno-upper", "matsuno-lower", "ts2", "normal-form",
                                  "random-affine"])
def test_complement_cell_phases_are_minus_the_subgap_ones(grid32, random_affine_symbol, name):
    # bands 1..r and r+1..d sum to the trivial C^d: in every cell the
    # determinant-overlap phase of one group is minus the other's, mod 2 pi
    sym = {"matsuno-upper": matsuno_symbol(2), "matsuno-lower": matsuno_symbol(1),
           "ts2": ts2_symbol(), "normal-form": normal_form_symbol(),
           "random-affine": random_affine_symbol}[name]
    spectrum = SphereSpectrum.build(sym, grid32)
    r = sym.gap_band
    below = _cell_phases(spectrum.field(range(1, r + 1)))
    above = _cell_phases(spectrum.field(range(r + 1, sym.dim + 1)))
    assert np.abs(np.angle(np.exp(1j * (below + above)))).max() <= 1e-12


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
        _, vecs = point_eigensystem(fld.symbol, p, bands=fld.bands)
        frame = vecs[:, :1]  # band 1
        pi_ = frame @ frame.conj().T
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


def test_zero_order_follows_the_grid(grid64):
    # ts2's two zeros at xi = +-1 tie in |s|; polished in vertex order, they
    # come out in the same order whether the grid is solved per orbit or
    # per point: (0, 0, 1) is a vertex of the fifth cube face, (0, 0, -1)
    # of the sixth
    sym = ts2_symbol()
    orders = []
    for spectrum in (SphereSpectrum.build(sym, grid64), per_point_spectrum(sym, grid64)):
        rep = chern_section_zeros(spectrum.field([3]), [0.0, 0.0, 1.0])
        orders.append([round(z.point[2]) for z in rep.zeros])
    assert orders == [[1, -1], [1, -1]]


def test_exact_zeros_come_back_unchanged(grid64):
    # ts2 band 3's section vanishes exactly at the vertices (0, 0, +-1); the
    # polish tests for convergence before each Newton step, so a step made
    # of rounding noise does not move an exact zero off its vertex
    rep = chern_section_zeros(SphereSpectrum.build(ts2_symbol(), grid64).field([3]),
                              [0.0, 0.0, 1.0])
    assert [list(z.point) for z in rep.zeros] == [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]


def test_zero_polish_solves_the_neighbours_only_for_a_step(grid64, monkeypatch):
    # the current point is solved alone and tested first; the four
    # finite-difference neighbours are solved only when a Newton step follows
    fld = SphereSpectrum.build(ts2_symbol(), grid64).field([3])
    u0, sizes = np.array([0.0, 0.0, 1.0], dtype=complex), []
    real = topology._section_coords
    monkeypatch.setattr(topology, "_section_coords",
                        lambda f, u, c, p: sizes.append(len(p)) or real(f, u, c, p))
    point, norm = topology._refine_zero(fld, u0, np.array([0.0, 0.0, 1.0]))
    assert sizes == [1] and list(point) == [0.0, 0.0, 1.0] and norm < 1e-13
    sizes.clear()
    point, norm = topology._refine_zero(fld, u0, np.array([0.02, -0.01, 1.0]))
    steps = len(sizes) // 2
    assert steps >= 2 and sizes == [1, 4] * steps + [1]
    assert norm < 1e-12 and np.abs(point - [0.0, 0.0, 1.0]).max() < 1e-12


def test_zeros_nonvanishing_section(grid32):
    rep = chern_section_zeros(
        BandProjectorField.build(two_level_constant(), [1], grid32), [1.0, 0.0]
    )
    assert rep.C == 0 and rep.zeros == ()


@pytest.mark.parametrize("u0", [[0.0, 0.0], [0.0, 1.0]])
def test_zeros_section_vanishing_everywhere_rejected(grid32, u0):
    # u0 = 0, and u0 orthogonal to the constant symbol's band-1 vector
    # (1, 0) at every vertex: the section has no isolated zeros to count
    fld = BandProjectorField.build(two_level_constant(), [1], grid32)
    with pytest.raises(ModelError, match="vanishes at every vertex"):
        chern_section_zeros(fld, u0)


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


def close_pair_symbol():
    # normal form with mu replaced by -g(mu); the Gaussian dip pulls g below
    # -0.15 sqrt(1 - mu^2) on a short stretch, so besides the zero near
    # mu = -0.148 a pair of zeros 0.074 apart appears near 0.252 and 0.326
    base = normal_form_symbol()

    def const_term(mu):
        g = mu - 0.5 * np.exp(-(((mu - 0.3) / 0.1) ** 2))
        return np.multiply.outer(g, np.diag([1.0, -1.0])).astype(complex)

    return dataclasses.replace(base, const_term=const_term, name="close-pair")


def test_zeros_close_pair_all_found(grid64):
    # u0 is the upper eigenvector where (x, xi, g) points along
    # (sin theta, 0, cos theta), cot theta = -0.15
    theta = math.atan2(1.0, -0.15)
    u0 = np.array([math.cos(theta / 2), math.sin(theta / 2)])
    fld = BandProjectorField.build(close_pair_symbol(), [1], grid64)
    rep = chern_section_zeros(fld, u0)
    assert len(rep.zeros) == 3
    assert sorted(z.index for z in rep.zeros) == [-1, -1, 1]
    assert sorted(round(z.point[0], 3) for z in rep.zeros) == [-0.148, 0.252, 0.326]
    assert all(abs(z.point[2]) < 1e-12 and z.section_norm < 1e-10 for z in rep.zeros)
    assert rep.C == chern_curvature(fld).C == -1


@pytest.mark.parametrize(
    "symbol_fn,band,zero_ref,polishes",
    [
        (normal_form_symbol, 1, [0.0, 1.0], 1),
        (matsuno_symbol, 1, [0.0, 0.0, 1.0], 2),
        (matsuno_symbol, 2, np.array([1.0, 1.0, 0.0]) / math.sqrt(2), 2),
        (matsuno_symbol, 3, [0.0, 0.0, 1.0], 2),
    ],
)
def test_zeros_one_polish_per_zero(grid32, monkeypatch, symbol_fn, band, zero_ref, polishes):
    calls = []
    real_refine = topology._refine_zero
    monkeypatch.setattr(
        topology, "_refine_zero", lambda *a: calls.append(a) or real_refine(*a)
    )
    rep = chern_section_zeros(BandProjectorField.build(symbol_fn(), [band], grid32), zero_ref)
    assert len(calls) == len(rep.zeros) == polishes


# ---------------------------------------------------------------------------
# cross-method agreement
# ---------------------------------------------------------------------------

AGREEMENT_CASES = pytest.mark.parametrize(
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


def assert_three_methods_agree(grid, symbol_fn, band, zero_ref, section_refs):
    fld = BandProjectorField.build(symbol_fn(), [band], grid)
    curv = chern_curvature(fld)
    clutch = chern_clutching(fld, north_ref=section_refs, south_ref=section_refs)
    zeros = chern_section_zeros(fld, zero_ref)
    assert curv.C == clutch.C == zeros.C


@AGREEMENT_CASES
def test_three_method_agreement(grid32, symbol_fn, band, zero_ref, section_refs):
    assert_three_methods_agree(grid32, symbol_fn, band, zero_ref, section_refs)


@AGREEMENT_CASES
def test_three_method_agreement_odd_grid(grid17, symbol_fn, band, zero_ref, section_refs):
    # at odd N a zero at a face centre sits at a cell centre, so its four
    # corners tie in |s| up to rounding and the rank order picks the seed
    assert_three_methods_agree(grid17, symbol_fn, band, zero_ref, section_refs)
