import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from conftest import BLOCK_FAMILIES, record_solves

from indexlab.cli import _matsuno_band2_section, _ts2_band2_section, load_preset, run_verify
from indexlab.errors import (
    AliasingError,
    DegeneracyError,
    ModelError,
    SectionVanishesError,
)
import indexlab.topology as topology
from indexlab.hermite import AffineMatrixSymbol, LinearTerm
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


@pytest.mark.parametrize("shape", [(6,), (1, 6), (2,), (4, 4)])
def test_points_of_the_wrong_shape_are_refused(shape):
    # a (6,) array is not the point (0, 0, 1), nor is a (1, 6) array two points
    sym = matsuno_symbol()
    points = np.resize([0.0, 0.0, 1.0], shape)
    for solve in (lambda: point_eigensystem(sym, points), lambda: sym.evaluate_many(points),
                  lambda: batch_eigensystem(sym, points),
                  lambda: batch_eigensystem(sym, points, orbits=True)):
        with pytest.raises(ModelError, match=re.escape("points must have shape (n, 3)")):
            solve()
    assert batch_eigensystem(sym, [0.0, 0.0, 1.0])[1].shape == (1, 3, 3)


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


def sizes(solved):
    """The number of points of each solve that :func:`conftest.record_solves` recorded."""
    return [len(points) for points in solved]


def per_point_spectrum(sym, grid):
    """The grid spectrum with every vertex solved on its own, the charge operator unused."""
    return SphereSpectrum(sym, grid, *batch_eigensystem(sym, grid.vertices))


def test_sphere_solves_each_charge_orbit_once(monkeypatch, grid64):
    # the 64-grid's 24,578 vertices are 3,001 distinct (mu, hypot(x, xi));
    # clutching's two poles and 512 equator samples are 4 (the equator's
    # hypot(x, xi) rounds to two values)
    seen = record_solves(monkeypatch)
    spectrum = SphereSpectrum.build(matsuno_symbol(), grid64)
    assert len(grid64.vertices) == 24578 and sizes(seen) == [3001]
    seen.clear()
    assert chern_clutching(spectrum.field([1])).C == 2
    assert sizes(seen) == [4]
    # every band, and a gauge-turned field, solve only their poles and equator:
    # the hemisphere checks read the grid's frames
    section = dict(north_ref=matsuno_band2_section, south_ref=matsuno_band2_section)
    assert chern_clutching(spectrum.field([2]), **section).C == 0
    assert chern_clutching(spectrum.field([3])).C == -2
    phases = np.exp(1j * np.arange(len(grid64.vertices)))
    assert chern_clutching(spectrum.field([1]).with_phase_field(phases)).C == 2
    assert sizes(seen) == [4, 4, 4, 4]
    # a field built on its own solves its grid, then the same four orbits
    seen.clear()
    assert chern_clutching(BandProjectorField.build(matsuno_symbol(), [3], grid64)).C == -2
    assert sizes(seen) == [3001, 4]


def test_clutching_solves_stay_out_of_record_fields(grid32):
    spectrum = SphereSpectrum.build(matsuno_symbol(), grid32)
    fld = spectrum.field([1])
    before = repr(fld), repr(spectrum)
    chern_clutching(fld)
    assert list(vars(spectrum)) == ["symbol", "grid", "omegas", "vectors"]
    assert list(vars(fld)) == ["symbol", "bands", "grid", "vectors", "min_gap"]
    assert (repr(fld), repr(spectrum)) == before
    # a field constructed directly runs the same path
    direct = BandProjectorField(*vars(fld).values())
    assert chern_clutching(direct) == chern_clutching(fld)


def test_verify_makes_each_clutching_solve_once(monkeypatch):
    # the charge-orbit solves of a verify run: the grid once, then per band
    # one batch of the two poles and the equator (4 orbits), gap-checked there
    # once; no hemisphere is solved
    solves, gaps = [], []
    real_solve, real_gap = topology.batch_eigensystem, topology._band_gap

    def solve(symbol, points, bands=None, orbits=False):
        if orbits:
            points = np.asarray(points)
            solves.append((len(points), points[:2].tolist(), bands,
                           len(topology.charge_orbits(points)[0])))
        return real_solve(symbol, points, bands, orbits)

    def band_gap(omegas, bands, points):
        gaps.append((len(points), tuple(bands)))
        return real_gap(omegas, bands, points)

    monkeypatch.setattr(topology, "batch_eigensystem", solve)
    monkeypatch.setattr(topology, "_band_gap", band_gap)
    poles = [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]
    for preset in ("normal-form", "matsuno-upper-gap", "ts2"):
        scenario = load_preset(preset)
        samples = scenario.equator_samples + 2
        solves.clear()
        gaps.clear()
        _, payload = run_verify(scenario)
        assert payload["verdict"] == "PASS"
        vertices = SphereGrid.build(scenario.grid_n).vertices
        bands = scenario.chern_bands
        assert solves == [(len(vertices), vertices[:2].tolist(), None, solves[0][3])] + [
            (samples, poles, (band,), 4) for band in bands], preset
        assert [g for g in gaps if g[0] == samples] == [(samples, (band,)) for band in bands]


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
    seen = record_solves(monkeypatch)
    spectrum = SphereSpectrum.build(sym, grid32)
    assert sizes(seen) == [len(grid32.vertices)] and sym.charge is None
    omegas, vecs = np.linalg.eigh(np.array([sym.evaluate(*p) for p in grid32.vertices]))
    assert np.array_equal(spectrum.omegas, omegas)
    assert np.array_equal(spectrum.vectors, vecs)
    seen.clear()
    chern_clutching(spectrum.field([1]))
    assert sizes(seen) == [514]  # the two poles and the equator, point by point


def test_plain_callback_of_a_symmetric_family_solves_every_point(monkeypatch):
    # ts2's own A(mu) behind a plain callback has no charge operator (the
    # safe default): every vertex is solved on its own, and band 3's
    # curvature equals the one of the LinearTerm's orbit solve
    scenario = load_preset("ts2")
    base = scenario.symbol()
    plain = dataclasses.replace(base, const_term=lambda mu: base.const_term(mu))
    grid = SphereGrid.build(scenario.grid_n)
    seen = record_solves(monkeypatch)
    point = SphereSpectrum.build(plain, grid)
    assert sizes(seen) == [len(grid.vertices)] and plain.charge is None
    orbit = SphereSpectrum.build(base, grid)
    assert base.charge is not None and sizes(seen)[1] < len(grid.vertices)
    a, b = (chern_curvature(s.field([3])) for s in (orbit, point))
    assert a.C == b.C == 2
    assert abs(a.raw_value - b.raw_value) <= 1e-12


PRESETS = ["normal-form", "matsuno", "matsuno-upper-gap", "matsuno-lower-gap", "ts2", "constant"]


@pytest.mark.parametrize("preset", PRESETS)
def test_real_form_frames_are_orthonormal_eigenframes_at_every_vertex(grid64, preset):
    # gauge-free: whatever phase the real form's expansion F G diag(exp(i t delta)) W
    # gives a vertex frame, its columns are orthonormal eigenvectors of H
    # there; the poles (r = 0) raise no RuntimeWarning
    sym = load_preset(preset).symbol()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        spectrum = SphereSpectrum.build(sym, grid64)
    assert sym.real_form is not None
    v, omegas = spectrum.vectors, spectrum.omegas
    residual = sym.evaluate_many(grid64.vertices) @ v - v * omegas[:, None, :]
    assert np.linalg.norm(residual, axis=1).max() <= 1e-12
    assert np.abs(v.conj().swapaxes(1, 2) @ v - np.eye(sym.dim)).max() <= 1e-12
    poles = grid64.vertices[np.hypot(grid64.vertices[:, 1], grid64.vertices[:, 2]) == 0]
    assert poles.tolist() == [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]


def direct_sum_of_normal_forms():
    """Two uncoupled copies of the normal form on components (0, 1) and (2, 3): the
    weights delta are -1/2 and +1/2, each twice, so the charge frame has no real form."""
    nf = normal_form_symbol()

    def pair(m):
        out = np.zeros((4, 4), dtype=complex)
        out[:2, :2] = out[2:, 2:] = m
        return out

    return AffineMatrixSymbol(dim=4, const_term=LinearTerm(0.0, pair(nf.const_term.a1)),
                              x_coeff=pair(nf.x_coeff), xi_coeff=pair(nf.xi_coeff),
                              gap_band=2, gap_constant=0.5, name="doubled-normal-form")


def test_repeated_weights_take_the_complex_orbit_path(monkeypatch, grid32):
    sym = direct_sum_of_normal_forms()
    assert np.abs(sym.charge[0] - [-0.5, -0.5, 0.5, 0.5]).max() <= 1e-12
    assert sym.real_form is None
    seen = record_solves(monkeypatch)
    orbit = SphereSpectrum.build(sym, grid32)
    # one complex solve of the orbits, none of a real form
    radial = topology.charge_orbits(grid32.vertices)[0]
    assert sizes(seen) == [len(radial)] and seen[0].tobytes() == radial.tobytes()
    monkeypatch.undo()
    point = per_point_spectrum(sym, grid32)
    for bands, c in (([1, 2], 2), ([3, 4], -2)):
        a, b = (chern_curvature(s.field(bands)) for s in (orbit, point))
        assert a.C == b.C == c
        assert abs(a.raw_value - b.raw_value) <= 1e-12


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


@pytest.mark.parametrize("preset", ["normal-form", "matsuno-upper-gap", "ts2"])
def test_cell_phases_equal_the_four_link_product_bit_for_bit(grid32, preset):
    # _cell_phases takes the links in turn to hold fewer corner gathers; the
    # product must keep every bit of the one-expression form
    spectrum = SphereSpectrum.build(load_preset(preset).symbol(), grid32)
    for bands in [[b] for b in range(1, spectrum.symbol.dim + 1)] + [[1, 2]]:
        fld = spectrum.field(bands)
        a, b, c, d = (fld.vectors[grid32.cells[:, i]] for i in range(4))
        if fld.rank == 1:
            a, b, c, d = (t[:, :, 0] for t in (a, b, c, d))
            link = lambda x, y: np.einsum("ij,ij->i", x.conj(), y)  # noqa: E731
        else:
            link = lambda x, y: np.linalg.det(np.einsum("ijk,ijl->ikl", x.conj(), y))  # noqa: E731
        expected = -np.angle(link(a, b) * link(b, c) * link(c, d) * link(d, a))
        assert _cell_phases(fld).tobytes() == expected.tobytes(), bands


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


@pytest.mark.parametrize("bad", [0.0, 2.0, 1e-9, 1.0 + 1e-11, np.nan, np.inf, complex(1.0, np.nan)],
                         ids=["zero", "two", "tiny", "off-by-1e-11", "nan", "inf", "nan-imag"])
def test_with_phase_field_rejects_phases_off_the_unit_circle(grid32, bad):
    # a phase of modulus m scales |<v|u>| by m: the section norms that
    # clutching and the zero scan read off the frames would move
    fld = BandProjectorField.build(matsuno_symbol(), [1], grid32)
    phases = np.ones(len(grid32.vertices), dtype=complex)
    phases[7] = bad
    with pytest.raises(ModelError, match="finite and of modulus 1"):
        fld.with_phase_field(phases)


def test_unit_phases_leave_every_method_unchanged(grid32, rng):
    fld = BandProjectorField.build(matsuno_symbol(), [1], grid32)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, len(grid32.vertices)))
    phases[0] *= 1.0 + 1e-13  # within the modulus tolerance
    turned = fld.with_phase_field(phases)
    for method in (chern_curvature, chern_clutching,
                   lambda f: chern_section_zeros(f, [0.0, 0.0, 1.0])):
        assert method(turned).C == method(fld).C == 2


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


def monopole_symbol(p0):
    """``H = (p - p0) . sigma`` at ``p = (mu, x, xi)``, sigma = (sz, sx, sy): bands cross at p0."""
    sx, sy, sz = (np.array(m, dtype=complex)
                  for m in ([[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]))
    return AffineMatrixSymbol(
        dim=2, const_term=LinearTerm(-(p0[0] * sz + p0[1] * sx + p0[2] * sy), sz),
        x_coeff=sx, xi_coeff=sy, gap_band=1, gap_constant=0.01, name="monopole")


def test_curvature_refines_a_spike_once():
    # a crossing 0.01 inside the sphere puts a cell phase of 2.83 on grid 17; one doubling
    # brings every cell below pi/2
    fld = BandProjectorField.build(monopole_symbol([0.99, 0.0, 0.0]), [1], SphereGrid.build(17))
    assert np.abs(_cell_phases(fld)).max() > 2.8
    report = chern_curvature(fld)
    assert (report.C, report.diagnostics["grid_n"], report.diagnostics["refinements"]) == (1, 34, 1)
    assert report.diagnostics["max_cell_phase"] < np.pi / 2


def test_curvature_raises_on_a_spike_that_two_refinements_leave():
    # a crossing 1e-4 inside the sphere, off every grid symmetry
    p0 = 0.9999 * np.array([3.0, 1.0, 1.0]) / np.sqrt(11.0)
    fld = BandProjectorField.build(monopole_symbol(p0), [1], SphereGrid.build(16))
    with pytest.raises(DegeneracyError, match="after 2 refinements"):
        chern_curvature(fld)


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


@pytest.mark.parametrize("ref", [
    lambda p: np.ones(2),  # matsuno has d = 3
    lambda p: np.ones(6),
    lambda p: 1.0,
    lambda p: np.full(3, np.nan),
    np.ones(2),
    np.ones(6),
    1.0,
    np.full(3, np.nan),
], ids=["call-2", "call-6", "call-scalar", "call-nan", "vec-2", "vec-6", "scalar", "vec-nan"])
@pytest.mark.parametrize("side", ["north", "south"])
def test_clutching_rejects_bad_reference_values(grid32, ref, side):
    # unchecked, these reach a bare numpy ValueError or (NaN) the winding's error
    fld = BandProjectorField.build(matsuno_symbol(), [1], grid32)
    with pytest.raises(ModelError, match=f"^{side} reference values"):
        chern_clutching(fld, **{f"{side}_ref": ref})


@pytest.mark.parametrize("preset", ["matsuno", "ts2"])
def test_builtin_sections_take_rows_bit_for_bit(preset):
    scenario = load_preset(preset)
    section = {"matsuno": _matsuno_band2_section, "ts2": _ts2_band2_section}[preset]
    assert section.batched
    # the points clutching reads a shared reference at: every grid vertex,
    # the two poles and the equator
    points = np.vstack((SphereGrid.build(scenario.grid_n).vertices,
                        topology._clutching_points(scenario.equator_samples)))
    rows = section(points)
    per_point = np.array([section(p) for p in points], dtype=complex)
    assert rows.dtype == per_point.dtype and rows.tobytes() == per_point.tobytes()
    # the plain per-point formula of matsuno_band2_section above
    if preset == "matsuno":
        old = np.array([matsuno_band2_section(p) for p in points], dtype=complex)
        assert old.tobytes() == rows.tobytes()


@pytest.mark.parametrize("preset", ["matsuno", "ts2"])
def test_per_point_callable_matches_builtin_section(preset):
    scenario = load_preset(preset)
    section = {"matsuno": _matsuno_band2_section, "ts2": _ts2_band2_section}[preset]

    def per_point(p):
        assert np.shape(p) == (3,), "called with rows"
        return section(p)

    spectrum = SphereSpectrum.build(scenario.symbol(), SphereGrid.build(32))
    fld = spectrum.field([2])
    builtin = chern_clutching(fld, scenario.equator_samples, section, section)
    user = chern_clutching(fld, scenario.equator_samples, per_point, per_point)
    assert user == builtin


def test_each_reference_is_read_on_its_own_closed_hemisphere(grid32):
    calls = []

    def per_point(p):
        calls.append(len(p))
        return matsuno_band2_section(p)

    def batched(p):
        calls.append(len(p))
        return _matsuno_band2_section(p)
    batched.batched = True

    # shared or not, a reference is read at every vertex of its closed
    # hemisphere, its pole and the equator samples: the vertices on mu = 0
    # and the equator samples are read once for each side
    mu = grid32.vertices[:, 0]
    north, south, equator = (mu >= 0).sum() + 1 + 64, (mu <= 0).sum() + 1 + 64, (mu == 0).sum()
    assert equator == 4 * 32
    fld = BandProjectorField.build(matsuno_symbol(), [2], grid32)
    for south_ref in (per_point, lambda p: per_point(p)):
        calls.clear()
        assert chern_clutching(fld, 64, per_point, south_ref).C == 0
        assert len(calls) == north + south == len(mu) + equator + 2 + 2 * 64
    other = lambda p: batched(p)  # noqa: E731
    other.batched = True
    for south_ref in (batched, other):
        calls.clear()
        assert chern_clutching(fld, 64, batched, south_ref).C == 0
        assert calls == [north, south]


def test_clutching_sees_a_section_zero_at_a_grid_vertex(grid32):
    # u(p) = p - q vanishes at the vertex q, 8 degrees from every point of a
    # hemisphere sample of 24 rings of 48 points: read there, the section
    # looks safe (min |s|^2 = 1.8e-4) and band 1 of matsuno (C = 2) reads
    # C = 1 without an error
    target = np.array([1.0, 1 / 16, -1 / 8])  # a cube point of face mu = +1
    target /= np.linalg.norm(target)
    q = grid32.vertices[np.argmin(np.linalg.norm(grid32.vertices - target, axis=1))]
    assert np.abs(q - target).max() < 1e-15
    fld = BandProjectorField.build(matsuno_symbol(), [1], grid32)
    assert chern_clutching(fld).C == 2
    with pytest.raises(SectionVanishesError, match=r"^north reference section vanishes .*= 0\)"):
        chern_clutching(fld, north_ref=lambda p: p - q)
    with pytest.raises(SectionVanishesError, match=r"^south reference section vanishes"):
        chern_clutching(fld, south_ref=lambda p: p + q)


def test_clutching_reads_the_poles_off_the_grid(grid17):
    # at odd N no vertex sits at a pole: the pole samples catch a section that
    # vanishes there, and every preset band keeps its C
    pole = np.array([1.0, 0.0, 0.0])
    assert np.linalg.norm(grid17.vertices - pole, axis=1).min() > 0.05
    assert np.linalg.norm(grid17.vertices + pole, axis=1).min() > 0.05
    fld = BandProjectorField.build(matsuno_symbol(), [1], grid17)
    with pytest.raises(SectionVanishesError, match="^north .*= 0\\)"):
        chern_clutching(fld, north_ref=lambda p: p - pole)
    with pytest.raises(SectionVanishesError, match="^south .*= 0\\)"):
        chern_clutching(fld, south_ref=lambda p: p + pole)
    for preset in ("normal-form", "matsuno-upper-gap", "ts2"):
        scenario = load_preset(preset)
        spectrum = SphereSpectrum.build(scenario.symbol(), grid17)
        for band in scenario.chern_bands:
            fld = spectrum.field([band])
            rep = chern_clutching(fld, scenario.equator_samples, *scenario.clutch_refs_for(band))
            assert rep.C == chern_curvature(fld).C, (preset, band)
            assert rep.diagnostics["min_section_norm_sq"] > 1e-6


# ---------------------------------------------------------------------------
# section-zero method
# ---------------------------------------------------------------------------

def full_cell_seeds(amps, cells, threshold):
    """The seed rule scanned over every cell: below the threshold and ranked by
    ``argsort`` before every vertex sharing a cell."""
    rank = np.empty(len(amps), dtype=np.intp)
    rank[np.argsort(amps)] = np.arange(len(amps))
    beaten = np.zeros(len(amps), dtype=bool)
    for cell in cells:
        beaten[cell[rank[cell] > rank[cell].min()]] = True
    return np.flatnonzero((amps < threshold) & ~beaten)


@pytest.mark.parametrize("n", [17, 32, 64])
def test_zero_seeds_match_full_cell_rule_on_random_amplitudes(n):
    grid = SphereGrid.build(n)
    rng = np.random.default_rng(n)
    for amps in (rng.random(len(grid.vertices)),
                 rng.integers(0, 40, len(grid.vertices)) / 40.0):  # many ties
        for threshold in (0.05, 0.15, 1.0):
            expected = full_cell_seeds(amps, grid.cells, threshold)
            assert len(expected)
            assert np.array_equal(topology._zero_seeds(amps, grid.cells, threshold), expected)


@pytest.mark.parametrize("preset", PRESETS)
def test_zero_seeds_match_full_cell_rule_on_preset_bands(preset):
    scenario = load_preset(preset)
    spectrum = SphereSpectrum.build(scenario.symbol(), SphereGrid.build(scenario.grid_n))
    for band in range(1, spectrum.symbol.dim + 1):
        u0 = scenario.zero_ref_for(band)
        amps = np.abs(spectrum.vectors[:, :, band - 1].conj() @ u0)
        threshold = 0.15 * float(np.linalg.norm(u0))
        cells = spectrum.grid.cells
        seeds = topology._zero_seeds(amps, cells, threshold)
        assert np.array_equal(seeds, full_cell_seeds(amps, cells, threshold))


def test_a_second_seed_of_a_zero_is_dropped(monkeypatch):
    # each real seed gets a second seed at a vertex sharing a cell with it;
    # both polish to the same zero, and the 1e-6 filter keeps the first only
    # (without it the two copies sit closer than twice the probe radius)
    scenario = load_preset("matsuno")
    fld = SphereSpectrum.build(scenario.symbol(), SphereGrid.build(scenario.grid_n)).field([1])
    u0 = scenario.zero_ref_for(1)
    expected = chern_section_zeros(fld, u0)
    assert expected.diagnostics["zero_count"] == 2
    real_seeds, real_refine = topology._zero_seeds, topology._refine_zero

    def doubled(amps, cells, threshold):
        seeds = real_seeds(amps, cells, threshold)
        neighbours = [next(v for v in cells[(cells == s).any(axis=1)][0] if v != s)
                      for s in seeds]
        return np.concatenate((seeds, neighbours))

    polished = []
    monkeypatch.setattr(topology, "_zero_seeds", doubled)
    monkeypatch.setattr(topology, "_refine_zero",
                        lambda *a: polished.append(real_refine(*a)) or polished[-1])
    rep = chern_section_zeros(fld, u0)
    assert len(polished) == 4 and all(norm < 1e-10 for _, norm in polished)
    assert rep == expected


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


@pytest.mark.parametrize("symbol", [normal_form_symbol, matsuno_symbol, ts2_symbol])
def test_section_coordinates_match_the_projector_formula(grid32, symbol):
    # the Newton and probe coordinates z(q) = <v0|v_q> <v_q|u0> are the
    # projector formula <v0| V V^dag u0>, V the band frame at q
    rng = np.random.default_rng(11)
    sym = symbol()
    spectrum = SphereSpectrum.build(sym, grid32)
    points = rng.normal(size=(17, 3))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    center, near = points[0], points[1:] * 1e-3 + points[0]
    for band in range(1, sym.dim + 1):
        u0 = rng.normal(size=sym.dim) + 1j * rng.normal(size=sym.dim)
        u0 /= np.linalg.norm(u0)
        for q in (points[1:], near / np.linalg.norm(near, axis=1, keepdims=True)):
            z = topology._section_coords(spectrum.field([band]), u0, center, q)
            _, vecs = batch_eigensystem(sym, np.vstack((center, q)))
            frames = vecs[:, :, band - 1 : band]
            projectors = frames[1:] @ frames[1:].conj().swapaxes(1, 2)
            expected = np.einsum("d,nd->n", frames[0, :, 0].conj(), projectors @ u0)
            assert np.abs(z - expected).max() <= 1e-15


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
