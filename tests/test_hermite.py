import dataclasses
import math

import numpy as np
import pytest
from conftest import BLOCK_FAMILIES

from indexlab.cli import PRESETS
from indexlab.errors import GapCertificateError, ModelError
from indexlab.hermite import (
    AffineMatrixSymbol,
    OperatorPieces,
    TruncatedBasis,
    charge_orbits,
    ladder_matrices,
    position_momentum,
    quantize,
    real_form,
    sampled_gap_certificate,
    spurious_weight,
    spurious_weights,
)
from indexlab.models import (
    BranchLabel,
    matsuno_symbol,
    normal_form_eigenvector,
    normal_form_symbol,
)


def test_basis_validation():
    with pytest.raises(ModelError):
        TruncatedBasis(max_level=1)
    with pytest.raises(ModelError):
        TruncatedBasis(max_level=10, epsilon=0.0)
    for epsilon in (math.nan, math.inf, -math.inf):
        with pytest.raises(ModelError, match="finite and positive"):
            TruncatedBasis(max_level=10, epsilon=epsilon)
    with pytest.raises(ModelError):
        TruncatedBasis(max_level=8, guard_levels=5)  # M < 2K
    assert TruncatedBasis(max_level=10, guard_levels=5).size == 11


def test_ladder_entries_m2():
    basis = TruncatedBasis(max_level=2, guard_levels=1)
    a, adag = ladder_matrices(basis)
    assert a[0, 1] == 1.0
    assert a[1, 2] == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert np.count_nonzero(a) == 2
    assert np.array_equal(adag, a.T)


def test_lowering_annihilates_ground_state():
    basis = TruncatedBasis(max_level=6, guard_levels=2)
    a, _ = ladder_matrices(basis)
    e0 = np.zeros(basis.size)
    e0[0] = 1.0
    assert np.all(a @ e0 == 0.0)


def test_number_operator_m3():
    # oracle: explicit matrix product, expected diag(0, 1, 2, 3); diagonal
    # entries are sqrt(n)**2, exact to one rounding
    basis = TruncatedBasis(max_level=3, guard_levels=1)
    a, adag = ladder_matrices(basis)
    num = adag @ a
    assert np.count_nonzero(num - np.diag(np.diag(num))) == 0
    assert np.abs(np.diag(num) - [0.0, 1.0, 2.0, 3.0]).max() < 1e-14


def test_ladder_exactness_and_corrupted_top():
    basis = TruncatedBasis(max_level=17, guard_levels=3)
    a, adag = ladder_matrices(basis)
    m = basis.max_level
    num = adag @ a
    assert np.count_nonzero(num - np.diag(np.diag(num))) == 0
    assert np.abs(np.diag(num) - np.arange(m + 1)).max() < 1e-13
    top = a @ adag
    assert np.abs(np.diag(top)[:m] - np.arange(1.0, m + 1)).max() < 1e-13
    assert top[m, m] == 0.0  # cutoff corrupts only the top entry


@pytest.mark.parametrize("eps", [0.1, 1.0, 4.0])
@pytest.mark.parametrize("m", [8, 32])
def test_commutator_identity_interior(eps, m):
    basis = TruncatedBasis(max_level=m, epsilon=eps, guard_levels=2)
    x, xi = position_momentum(basis)
    comm = x @ xi - xi @ x
    interior = comm[: m - 1, : m - 1]
    target = 1j * eps * np.eye(m - 1)
    assert np.abs(interior - target).max() < 1e-12


def test_commutator_full_subblock_to_m_minus_1():
    basis = TruncatedBasis(max_level=4, epsilon=1.0, guard_levels=2)
    x, xi = position_momentum(basis)
    comm = (x @ xi - xi @ x)[:4, :4]
    assert np.abs(comm - 1j * np.eye(4)).max() < 1e-12


def test_position_entry_and_hermiticity():
    basis = TruncatedBasis(max_level=2, epsilon=1.0, guard_levels=1)
    x, xi = position_momentum(basis)
    assert x[0, 1] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
    for mat in (x, xi):
        assert np.array_equal(mat, mat.conj().T)


def test_quantize_normal_form_spectrum_mu0():
    basis = TruncatedBasis(max_level=10, epsilon=1.0, guard_levels=2)
    op = quantize(normal_form_symbol(), 0.0, basis)
    eigs = np.linalg.eigvalsh(op.matrix)
    for target in [0.0, math.sqrt(2), -math.sqrt(2), 2.0, -2.0, math.sqrt(6)]:
        assert np.min(np.abs(eigs - target)) < 1e-12


def test_quantize_zero_symbol():
    zero = AffineMatrixSymbol(
        dim=1,
        const_term=lambda mu: np.zeros((len(mu), 1, 1), dtype=complex),
        x_coeff=np.zeros((1, 1), dtype=complex),
        xi_coeff=np.zeros((1, 1), dtype=complex),
        gap_band=0,
        gap_constant=1.0,
        name="zero",
    )
    basis = TruncatedBasis(max_level=6, guard_levels=2)
    op = quantize(zero, 1.3, basis)
    assert np.all(op.matrix == 0.0)


def test_quantize_matsuno_spectrum_mu0():
    basis = TruncatedBasis(max_level=40, guard_levels=5)
    op = quantize(matsuno_symbol(), 0.0, basis)
    eigs = np.linalg.eigvalsh(op.matrix)
    for target in [1.0, -1.0, math.sqrt(3), -math.sqrt(3)]:
        assert np.min(np.abs(eigs - target)) < 1e-10


def test_quantize_exactly_hermitian():
    basis = TruncatedBasis(max_level=14, epsilon=0.7, guard_levels=3)
    for symbol in (normal_form_symbol(), matsuno_symbol()):
        for mu in (-1.2, 0.0, 0.35):
            h = quantize(symbol, mu, basis).matrix
            assert np.all(h - h.conj().T == 0.0)


def test_quantize_rejects_non_hermitian_const():
    bad = AffineMatrixSymbol(
        dim=2,
        const_term=lambda mu: np.array([[0.0, 1.0], [0.0, 0.0]]) * np.ones((len(mu), 1, 1), dtype=complex),
        x_coeff=np.zeros((2, 2), dtype=complex),
        xi_coeff=np.zeros((2, 2), dtype=complex),
        gap_band=1,
        gap_constant=0.5,
        name="bad",
    )
    with pytest.raises(ModelError):
        quantize(bad, 0.0, TruncatedBasis(max_level=4, guard_levels=2))


def test_symbol_validate_catches_non_hermitian_family():
    bad = AffineMatrixSymbol(
        dim=2,
        const_term=lambda mu: np.multiply.outer(mu, np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)),
        x_coeff=np.eye(2, dtype=complex),
        xi_coeff=np.eye(2, dtype=complex),
        gap_band=1,
        gap_constant=0.5,
        name="bad-family",
    )
    with pytest.raises(ModelError):
        bad.validate()


@pytest.mark.parametrize(
    "const_term",
    [
        lambda mu: np.diag([-1.0, 1.0]).astype(complex),  # (d, d) for any mu
        lambda mu: np.diag([-mu, mu]) + 0.5 * np.eye(2),  # scalar-only form
        lambda mu: np.zeros((len(mu), 2, 3), dtype=complex),
    ],
)
def test_validate_rejects_const_term_that_is_not_a_stack(const_term):
    sym = AffineMatrixSymbol(
        dim=2,
        const_term=const_term,
        x_coeff=normal_form_symbol().x_coeff,
        xi_coeff=normal_form_symbol().xi_coeff,
        gap_band=1,
        gap_constant=0.5,
        name="not-a-stack",
    )
    with pytest.raises(ModelError, match="expected"):
        sym.validate()
    with pytest.raises(ModelError, match="expected"):
        quantize(sym, 0.3, TruncatedBasis(max_level=4, guard_levels=2))


def test_each_evaluation_calls_const_term_once():
    base = normal_form_symbol()
    calls = []

    def counted(mu):
        calls.append(np.shape(mu))
        return base.const_term(mu)

    sym = AffineMatrixSymbol(
        dim=2, const_term=counted, x_coeff=base.x_coeff, xi_coeff=base.xi_coeff,
        gap_band=1, gap_constant=0.9, name="counted",
    )
    sym.evaluate_many(np.zeros((50, 3)))
    sym.evaluate(0.1, 0.2, 0.3)
    sym.validate()
    quantize(sym, 0.4, TruncatedBasis(max_level=4, guard_levels=2))
    assert calls == [(50,), (1,), (32,), (1,)]


def test_spurious_weight_exact_mode_is_zero():
    basis = TruncatedBasis(max_level=20, guard_levels=5)
    symbol = normal_form_symbol()
    op = quantize(symbol, 0.4, basis)
    vec = normal_form_eigenvector(BranchLabel("normal_plus", 1), 0.4, 1.0, basis)
    assert spurious_weight(op, vec) == 0.0


def test_spurious_weight_top_level_is_one():
    basis = TruncatedBasis(max_level=20, guard_levels=5)
    op = quantize(normal_form_symbol(), 0.0, basis)
    vec = np.zeros(op.size)
    vec[basis.max_level] = 1.0  # component 1, level M
    assert spurious_weight(op, vec) == 1.0


def test_spurious_weights_low_modes_clean():
    # Every eigenpair in the window is either a genuine low mode (weight
    # numerically zero) or the lone truncation edge state at omega = -mu
    # (weight 1); nothing ambiguous in between survives filtering.
    basis = TruncatedBasis(max_level=20, guard_levels=5)
    op = quantize(normal_form_symbol(), 0.0, basis)
    eigs, vecs = np.linalg.eigh(op.matrix)
    weights = spurious_weights(op, vecs)
    inside = np.abs(eigs) <= math.sqrt(2 * 10)
    assert np.all((weights[inside] < 1e-12) | (weights[inside] > 0.99))
    assert np.sum(weights[inside] > 0.99) == 1  # the edge state at -mu = 0
    kept = inside & (weights < 1e-12)
    assert np.all(weights[kept] < 1e-12)


@pytest.mark.parametrize("eps", [0.25, 4.0])
def test_scaling_equivalence(eps):
    # sorted non-spurious spectra: quantize(sym, mu, eps) == sqrt(eps) *
    # quantize(sym, mu / sqrt(eps), 1) for symbols linear in mu
    basis_eps = TruncatedBasis(max_level=24, epsilon=eps, guard_levels=5)
    basis_one = TruncatedBasis(max_level=24, epsilon=1.0, guard_levels=5)
    root = math.sqrt(eps)
    for symbol in (normal_form_symbol(), matsuno_symbol()):
        for mu in (-0.8, 0.5):
            op_a = quantize(symbol, mu, basis_eps)
            op_b = quantize(symbol, mu / root, basis_one)
            ea, va = np.linalg.eigh(op_a.matrix)
            eb, vb = np.linalg.eigh(op_b.matrix)
            keep_a = spurious_weights(op_a, va) <= 1e-8
            keep_b = spurious_weights(op_b, vb) <= 1e-8
            sa = np.sort(ea[keep_a])
            sb = root * np.sort(eb[keep_b])
            assert len(sa) == len(sb)
            assert np.abs(sa - sb).max() < 1e-10


def test_gap_certificate_normal_form_and_matsuno():
    cert = sampled_gap_certificate(normal_form_symbol())
    assert cert.ok and cert.margin > 0.05
    for band in (1, 2):
        cert = sampled_gap_certificate(matsuno_symbol(gap_band=band))
        assert cert.ok, (band, cert)


def test_gap_certificate_misset_band_fails():
    import dataclasses

    bad = dataclasses.replace(normal_form_symbol(), gap_band=2)
    cert = sampled_gap_certificate(bad)
    assert not cert.ok
    with pytest.raises(GapCertificateError):
        sampled_gap_certificate(bad, strict=True)


def test_gap_certificate_sampled_shell():
    # on the sampled shell with |mu| <= 2, band 1 stays below -0.9 and
    # band 2 above +0.9
    sym = normal_form_symbol()
    cert = sampled_gap_certificate(sym, grid_points=30, shell=(1.0, 3.0), mu_max=2.0)
    assert cert.ok
    assert cert.lower_margin > 0 and cert.upper_margin > 0


#: closed-form families, by name, for the block and quantize tests
def stacks_at(pieces, amat):
    """The stacks that solve the operator at ``A(mu) = amat``."""
    return pieces.charge_stacks if pieces.charged(amat[None])[0] else [pieces.whole]


def merged_eigenvalues(stacks, amat):
    """Ascending eigenvalues of every block of ``stacks`` at ``A(mu) = amat``."""
    return np.sort(np.concatenate([np.linalg.eigvalsh(s.assemble(s.to_frame(amat[None]))).ravel()
                                   for s in stacks]))


def test_parity_blocks_follow_the_zero_pattern_of_each_const_term():
    # A(mu) couples components 0 and 2 only for mu > 0, which breaks the
    # charge symmetry fitted at mu = -1 and -0.5, so for mu > 0 the one
    # block is the whole operator
    base = matsuno_symbol()
    link = np.zeros((3, 3), dtype=complex)
    link[0, 2] = link[2, 0] = 1.0
    sym = AffineMatrixSymbol(
        dim=3,
        const_term=lambda mu: base.const_term(mu)
        + np.multiply.outer(np.maximum(mu, 0.0), link),
        x_coeff=base.x_coeff, xi_coeff=base.xi_coeff,
        gap_band=2, gap_constant=0.45, name="switched",
    )
    basis = TruncatedBasis(max_level=12, guard_levels=3)
    pieces = OperatorPieces(sym, basis, (-1.0, -0.5))
    for mu in (-1.0, 0.5, -0.5, 1.0):
        amat = pieces.const([mu])[0]
        stacks = stacks_at(pieces, amat)
        if mu < 0:
            assert all(s.frame is not None for s in stacks)
        else:
            assert len(stacks) == 1 and stacks[0].frame is None
        dense = np.linalg.eigvalsh(quantize(sym, mu, basis).matrix)
        assert np.abs(merged_eigenvalues(stacks, amat) - dense).max() <= 1e-12


@pytest.mark.parametrize("family", sorted(BLOCK_FAMILIES))
def test_quantize_equals_kron_formula(family):
    # quantize goes through the block assembly; the written-out Kronecker
    # sum must come out identical, dtype and component-major order included
    symbol = BLOCK_FAMILIES[family]
    basis = TruncatedBasis(max_level=12, guard_levels=3)
    xmat, ximat = position_momentum(basis)
    for mu in (-2.0, 0.0, 0.7, 3.0):
        amat = symbol.const_term(np.array([mu]))[0]
        h = (np.kron(amat, np.eye(basis.size)) + np.kron(symbol.x_coeff, xmat)
             + np.kron(symbol.xi_coeff, ximat))
        expected = 0.5 * (h + h.conj().T)
        got = quantize(symbol, mu, basis).matrix
        assert got.dtype == expected.dtype and np.array_equal(got, expected)


#: eigenvalues of the charge operator D of each family in BLOCK_FAMILIES
CHARGE_SPECTRA = {
    "normal-form": [-0.5, 0.5],
    "normal-form-reflected": [-0.5, 0.5],
    "normal-form-mu-reflected": [-0.5, 0.5],
    "matsuno-upper": [-1.0, 0.0, 1.0],
    "matsuno-lower": [-1.0, 0.0, 1.0],
    "ts2": [-1.0, 0.0, 1.0],
    "constant": [0.0],
    "constant-dim3": [0.0, 0.0, 0.0],
}


@pytest.mark.parametrize("family", sorted(BLOCK_FAMILIES))
def test_charge_operator_spectrum(family):
    symbol = BLOCK_FAMILIES[family]
    pieces = OperatorPieces(symbol, TruncatedBasis(max_level=12, guard_levels=3), (-2.0, 3.0))
    d, k = pieces.charge, symbol.x_coeff + 1j * symbol.xi_coeff
    assert np.abs(np.linalg.eigvalsh(d) - CHARGE_SPECTRA[family]).max() <= 1e-12
    assert np.abs(d @ k - k @ d + k).max() <= 1e-12
    if family == "ts2":  # D = +-L1, the generator that A(mu) = mu L1 is made of
        l1 = symbol.const_term(np.array([1.0]))[0]
        assert min(np.abs(d - l1).max(), np.abs(d + l1).max()) <= 1e-12


def test_charge_blocks_matsuno_sizes():
    pieces = OperatorPieces(matsuno_symbol(), TruncatedBasis(max_level=60, guard_levels=5),
                            (-6.0, 6.0))
    stacks = stacks_at(pieces, pieces.const([0.7])[0])
    sizes = {}
    for s in stacks:
        blocks, size, _ = s.static.shape
        sizes[size] = sizes.get(size, 0) + blocks
    assert sizes == {1: 2, 2: 2, 3: 59}
    # the blocks that reach the top five levels: charge 61 (1x1), 60 (2x2) and 55..59 (3x3)
    assert [s.static.shape for s in stacks if s.guard is not None] == [(1, 1, 1), (1, 2, 2),
                                                                      (5, 3, 3)]


@pytest.mark.parametrize("case", [f"family:{name}" for name in sorted(BLOCK_FAMILIES)]
                         + [f"preset:{name}" for name in sorted(PRESETS)])
def test_eigenvalue_only_stacks_hold_exactly_the_blocks_off_the_guard_levels(case):
    kind, name = case.split(":")
    if kind == "family":
        symbol, basis, ends = BLOCK_FAMILIES[name], TruncatedBasis(max_level=12, guard_levels=3), (-2.0, 3.0)
    else:
        scenario = PRESETS[name]()
        symbol, basis, ends = scenario.symbol(), scenario.basis(), (scenario.mu_min, scenario.mu_max)
    pieces = OperatorPieces(symbol, basis, ends)
    on_guard = pieces.level >= basis.size - basis.guard_levels
    assert pieces.charge_stacks
    for s in pieces.charge_stacks:
        reaches = on_guard[s.index].any(axis=1)
        if s.guard is None:  # eigenvalues only
            assert not reaches.any()
        else:
            assert reaches.all() and np.array_equal(s.guard[..., 0], on_guard[s.index])
    # one stack per (size, reaches a guard level), in that order
    kinds = [(s.index.shape[1], s.guard is not None) for s in pieces.charge_stacks]
    assert kinds == sorted(set(kinds))
    assert pieces.whole.guard is not None


def test_no_charge_operator_without_endpoints_or_for_random_symbol(random_affine_symbol):
    basis = TruncatedBasis(max_level=12, guard_levels=3)
    assert OperatorPieces(matsuno_symbol(), basis).charge is None
    pieces = OperatorPieces(random_affine_symbol, basis, (-2.0, 2.0))
    assert pieces.charge is None
    # the fallback: the whole operator, as a stack of one in the standard frame,
    # assembled exactly as quantize assembles it
    (stack,) = stacks_at(pieces, pieces.const([0.7])[0])
    assert stack.frame is None and stack.static.shape == (1, 26, 26)
    assert (stack.assemble(pieces.const([0.7]))[0, 0].tobytes()
            == quantize(random_affine_symbol, 0.7, basis).matrix.tobytes())


@pytest.mark.parametrize("family", sorted(BLOCK_FAMILIES))
def test_charge_blocks_partition_and_match_dense_spectrum(family):
    symbol = BLOCK_FAMILIES[family]
    basis = TruncatedBasis(max_level=12, guard_levels=3)
    pieces = OperatorPieces(symbol, basis, (-2.0, 3.0))
    for mu in (-2.0, 0.0, 0.7, 3.0):
        amat = pieces.const([mu])[0]
        stacks = stacks_at(pieces, amat)
        assert all(s.frame is not None for s in stacks)  # charge blocks, no fallback
        assert max(s.index.shape[1] for s in stacks) <= symbol.dim
        index = np.concatenate([s.index.ravel() for s in stacks])
        assert np.array_equal(np.sort(index), np.arange(symbol.dim * basis.size))
        dense = np.linalg.eigvalsh(quantize(symbol, mu, basis).matrix)
        assert np.abs(merged_eigenvalues(stacks, amat) - dense).max() <= 1e-12


def all_points_margins(symbol, grid_points=30, shell=(1.0, 3.0), mu_max=2.0):
    """Reference gap check: the certificate's sample, every point solved."""
    axis = np.linspace(-shell[1], shell[1], grid_points)
    pts = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    norms = np.linalg.norm(pts, axis=1)
    pts = pts[(norms >= shell[0]) & (norms <= shell[1]) & (np.abs(pts[:, 0]) <= mu_max)]
    eigs = np.linalg.eigvalsh(symbol.evaluate_many(pts))
    r, none = symbol.gap_band, np.full(len(pts), np.inf)
    lower = symbol.gap_center - symbol.gap_constant - eigs[:, r - 1] if r else none
    upper = eigs[:, r] - (symbol.gap_center + symbol.gap_constant) if r < symbol.dim else none
    return pts, lower, upper


def certificate_and_solved_points(monkeypatch, symbol):
    solved = []
    real = AffineMatrixSymbol.evaluate_many
    monkeypatch.setattr(AffineMatrixSymbol, "evaluate_many",
                        lambda self, pts: solved.append(len(pts)) or real(self, pts))
    cert = sampled_gap_certificate(symbol)
    monkeypatch.undo()
    return cert, solved


def assert_matches_all_points_reference(cert, symbol):
    pts, lower, upper = all_points_margins(symbol)
    margins = np.minimum(lower, upper)
    assert cert.ok == bool(lower.min() > 0 and upper.min() > 0)
    assert cert.points_checked == len(pts)
    assert np.isclose(cert.lower_margin, lower.min(), rtol=0, atol=1e-12)
    assert np.isclose(cert.upper_margin, upper.min(), rtol=0, atol=1e-12)
    # the worst point is a sampled point of minimum margin; the orbit solve
    # shares one margin along an orbit, so a tie may name another point
    (row,) = np.flatnonzero((pts == cert.worst_point).all(axis=1))
    assert margins[row] <= margins.min() + 1e-12


@pytest.mark.parametrize("family", sorted(BLOCK_FAMILIES))
def test_gap_certificate_solves_each_charge_orbit_once(monkeypatch, family):
    # every closed-form family has a charge operator that commutes with
    # A(mu), so its spectrum depends on (mu, |x + i xi|) only: the 10,600
    # sampled points fall into 1,752 orbits, one solve each
    symbol = BLOCK_FAMILIES[family]
    cert, solved = certificate_and_solved_points(monkeypatch, symbol)
    assert solved == [1752]
    assert_matches_all_points_reference(cert, symbol)


def const_term_calls(symbol):
    """``symbol`` with a ``const_term`` that records how many mu each call takes."""
    seen, real = [], symbol.const_term
    return dataclasses.replace(symbol, const_term=lambda mu: seen.append(len(mu)) or real(mu)), seen


def test_charge_orbits_check_each_distinct_mu_once(grid64):
    # the certificate's 1,752 orbits lie on 20 planes of mu, where A(mu) is
    # evaluated and checked; the orbits themselves are then solved
    symbol, seen = const_term_calls(matsuno_symbol())
    cert = sampled_gap_certificate(symbol)
    assert seen == [20, 1752] and cert.ok
    seen.clear()
    charge, _, _ = charge_orbits(symbol, np.array([[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
    seen.clear()
    _, radial, _ = charge_orbits(symbol, grid64.vertices, charge)
    assert seen == [2945] and len(radial) == 3001
    assert np.unique(radial[:, 0]).size == 2945


@pytest.mark.parametrize("symbol", ["random-affine", "matsuno+bump"])
def test_gap_certificate_without_charge_symmetry_solves_every_point(
        monkeypatch, random_affine_symbol, bump_perturbed_matsuno, symbol):
    # no charge operator fits the random symbol, and the bump breaks the
    # charge symmetry of matsuno at every sampled mu (all inside |mu| < 2)
    symbol = random_affine_symbol if symbol == "random-affine" else bump_perturbed_matsuno
    cert, solved = certificate_and_solved_points(monkeypatch, symbol)
    assert solved == [10600]
    assert_matches_all_points_reference(cert, symbol)
    pts, lower, upper = all_points_margins(symbol)
    assert (cert.lower_margin, cert.upper_margin) == (lower.min(), upper.min())


#: forest patterns on five indices as edge lists: no cycle, so a real form exists
FORESTS = {
    "path": [(0, 1), (1, 2), (2, 3), (3, 4)],
    "star": [(0, 1), (0, 2), (0, 3), (0, 4)],
    "tree": [(0, 1), (1, 2), (1, 3), (3, 4)],
    "disconnected": [(0, 1), (2, 3)],
    "diagonal": [],
}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("pattern", sorted(FORESTS))
def test_real_form_of_a_forest_keeps_eigenvalues_and_eigenvector_moduli(pattern, seed):
    # 40 random complex Hermitian matrices on a relabelled forest pattern;
    # some matrices lack some edges, so the pattern is the stack's union
    gen = np.random.default_rng([seed, sorted(FORESTS).index(pattern)])
    label = gen.permutation(5)
    h = np.zeros((40, 5, 5), dtype=complex)
    for i, j in FORESTS[pattern]:
        entry = (gen.normal(size=40) + 1j * gen.normal(size=40)) * (gen.random(40) > 0.2)
        h[:, label[i], label[j]] = entry
        h[:, label[j], label[i]] = entry.conj()
    h[:, range(5), range(5)] = 3.0 * gen.normal(size=(40, 5))
    real = real_form(h)
    assert real.dtype == np.float64 and np.array_equal(real, real.swapaxes(-2, -1))
    scale = np.abs(h).max()
    w, v = np.linalg.eigh(h)
    w_real, v_real = np.linalg.eigh(real)
    assert np.abs(w_real - w).max() <= 1e-12 * scale
    assert np.abs(np.linalg.eigvalsh(real) - np.linalg.eigvalsh(h)).max() <= 1e-12 * scale
    # each eigenvector of a simple eigenvalue is fixed up to a phase, so |v|^2
    # is fixed; its rounding error grows as the eigenvalue gap shrinks
    gaps = np.diff(w, axis=-1)
    simple = np.minimum(np.pad(gaps, ((0, 0), (1, 0)), constant_values=np.inf),
                        np.pad(gaps, ((0, 0), (0, 1)), constant_values=np.inf)) > 1e-3 * scale
    assert simple.mean() > 0.9
    moduli = np.abs(np.abs(v_real) ** 2 - np.abs(v) ** 2).max(axis=-2)
    assert moduli[simple].max() <= 1e-12


def test_real_form_refuses_a_cycle():
    # a triangle with cycle product h01 h12 h20 = i: no diagonal unitary makes
    # it real, and the moduli alone give other eigenvalues
    h = np.array([[0, 1, -1j], [1, 0, 1], [1j, 1, 0]])
    assert real_form(h) is None
    assert np.abs(np.linalg.eigvalsh(h) - [-math.sqrt(3), 0.0, math.sqrt(3)]).max() <= 1e-12
    assert np.abs(np.linalg.eigvalsh(np.abs(h)) - [-1.0, -1.0, 2.0]).max() <= 1e-12
    # the test reads the zero pattern only, not the phases: a real triangle is
    # refused too, and so is a stack of two forests whose union is a triangle
    assert real_form(np.abs(h)) is None
    path = h * [[1, 1, 0], [1, 1, 1], [0, 1, 1]]
    assert real_form(path) is not None
    assert real_form(np.stack([path, np.abs(h) - path])) is None


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_every_charge_stack_of_the_presets_is_real(preset):
    scenario = PRESETS[preset]()
    symbol, basis = scenario.symbol(), scenario.basis()
    pieces = OperatorPieces(symbol, basis, (scenario.mu_min, scenario.mu_max))
    amats = pieces.const([scenario.mu_min, 0.0, 0.7, scenario.mu_max])
    assert pieces.charge_stacks and pieces.charged(amats).all()
    for s in pieces.charge_stacks:
        assert s.static.dtype == np.float64 and s.assemble(s.to_frame(amats)).dtype == np.float64
    # the whole operator, and so quantize, stays complex
    assert pieces.whole.assemble(amats).dtype == np.complex128
    assert quantize(symbol, 0.7, basis).matrix.dtype == np.complex128


def test_gap_certificate_solves_the_orbit_stack_in_real_form(monkeypatch, random_affine_symbol):
    solved = []
    real_eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: solved.append(h.dtype) or real_eigvalsh(h))
    for name in sorted(BLOCK_FAMILIES):
        assert sampled_gap_certificate(BLOCK_FAMILIES[name]).points_checked == 10600
    assert solved == [np.float64] * len(BLOCK_FAMILIES)
    solved.clear()
    sampled_gap_certificate(random_affine_symbol)  # no orbits: every point, complex
    assert solved == [np.complex128]
