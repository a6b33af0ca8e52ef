import ast
import builtins
import dataclasses
import math
import re

import numpy as np
import pytest
from conftest import BLOCK_FAMILIES, charge_sectors, incomplete_sectors, record_solves

import indexlab.hermite as hermite
from indexlab.cli import PRESETS, run_verify
from indexlab.errors import ChernError, FlowError, GapCertificateError, ModelError
from indexlab.flow import SpectralWindow, spectral_index, sweep
from indexlab.hermite import (
    AffineMatrixSymbol,
    LinearTerm,
    OperatorPieces,
    Record,
    TruncatedBasis,
    charge_operator,
    charge_orbits,
    ladder_matrices,
    position_momentum,
    quantize,
    sampled_gap_certificate,
    spurious_weight,
    spurious_weights,
)
from indexlab.topology import (
    BandProjectorField,
    SphereGrid,
    SphereSpectrum,
    batch_eigensystem,
    chern_curvature,
    point_eigensystem,
)
from indexlab.models import (
    BranchLabel,
    matsuno_symbol,
    mu_reflected,
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


def test_records_compare_hash_and_print_by_field_and_refuse_assignment():
    basis = TruncatedBasis(24)
    assert basis == TruncatedBasis(max_level=24, epsilon=1.0, guard_levels=5)
    assert basis != TruncatedBasis(24, guard_levels=4) and basis != (24, 1.0, 5)
    assert hash(basis) == hash(TruncatedBasis(24, 1.0, 5))
    assert {BranchLabel("rossby", 2): 1}[BranchLabel(family="rossby", level=2)] == 1
    assert repr(basis) == "TruncatedBasis(max_level=24, epsilon=1.0, guard_levels=5)"
    for change in (lambda: setattr(basis, "max_level", 30), lambda: delattr(basis, "epsilon"),
                   lambda: setattr(basis, "size", 3)):
        with pytest.raises(AttributeError):
            change()
    assert basis.max_level == 24 and basis.size == 25
    # a missing, surplus, unknown or twice-given field
    for args, kwargs in [((), {}), ((24, 1.0, 5, 0), {}), ((), {"max_level": 24, "levels": 3}),
                         ((24,), {"max_level": 24})]:
        with pytest.raises(TypeError, match="takes the fields max_level, epsilon, guard_levels"):
            TruncatedBasis(*args, **kwargs)


def test_a_record_class_execs_no_generated_source(monkeypatch):
    monkeypatch.setattr(builtins, "exec", lambda *args: pytest.fail("exec called"))

    class Pair(Record):
        a: int
        b: int = 2

        def __post_init__(self):
            if self.a > self.b:
                raise ValueError("a > b")

    assert Pair(1) == Pair(a=1, b=2) and Pair(1, 3).b == 3
    with pytest.raises(ValueError):
        Pair(3)


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


def non_hermitian_symbol(outer: bool = False) -> AffineMatrixSymbol:
    """A symbol whose A(mu) is not Hermitian at any mu, or, with ``outer``, the normal form
    with an unmirrored entry below the diagonal of A(mu) for |mu| > 0.5 only."""
    if not outer:
        return AffineMatrixSymbol(
            dim=2,
            const_term=lambda mu: np.array([[0.0, 1.0], [0.0, 0.0]]) * np.ones((len(mu), 1, 1), dtype=complex),
            x_coeff=np.zeros((2, 2), dtype=complex),
            xi_coeff=np.zeros((2, 2), dtype=complex),
            gap_band=1,
            gap_constant=0.5,
            name="bad",
        )
    base = normal_form_symbol()

    def const_term(mu):
        amats = base.const_term(mu)
        amats[:, 1, 0] += np.abs(mu) > 0.5
        return amats

    return dataclasses.replace(base, const_term=const_term, name="outer-non-hermitian")


@pytest.mark.parametrize("call", [
    lambda: quantize(non_hermitian_symbol(), 0.0, TruncatedBasis(max_level=4, guard_levels=2)),
    lambda: sampled_gap_certificate(non_hermitian_symbol(outer=True)),
    lambda: SphereSpectrum.build(non_hermitian_symbol(outer=True), SphereGrid.build(16)),
    lambda: BandProjectorField.build(non_hermitian_symbol(outer=True), [1], SphereGrid.build(16)),
    lambda: batch_eigensystem(non_hermitian_symbol(outer=True), [[0.0, 0.3, 0.0], [0.9, 0.0, 0.1]]),
    lambda: point_eigensystem(non_hermitian_symbol(outer=True), [-0.6, 0.0, 0.8]),
], ids=["quantize", "gap-certificate", "sphere-spectrum", "band-field", "batch-eigensystem",
        "point-eigensystem"])
def test_quantize_rejects_non_hermitian_const(call):
    # every A(mu) is checked where it is evaluated, so the gap certificate and
    # the Chern layer's solves refuse it as the sweep does, naming a bad mu
    with pytest.raises(ModelError, match=r"const_term\(\S+\) is not Hermitian"):
        call()


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
    assert sampled_gap_certificate(normal_form_symbol()) > 0.05
    for band in (1, 2):
        assert sampled_gap_certificate(matsuno_symbol(gap_band=band)) > 0, band


def test_gap_certificate_misset_band_fails():
    # band 2 of 2 has no band above it: the upper margin is +inf and the
    # lower one negative; the message names both and a sampled point of
    # least margin
    bad = dataclasses.replace(normal_form_symbol(), gap_band=2)
    with pytest.raises(GapCertificateError, match="gap certificate failed for 'normal-form'") as err:
        sampled_gap_certificate(bad)
    assert_matches_all_points_reference(err.value, bad, atol=0.0)


def test_gap_certificate_sampled_shell():
    # on the sampled shell with |mu| <= 2, band 1 stays below -0.9 and
    # band 2 above +0.9
    sym = normal_form_symbol()
    _, lower, upper = all_points_margins(sym)
    assert lower.min() > 0 and upper.min() > 0
    assert sampled_gap_certificate(sym) == pytest.approx(min(lower.min(), upper.min()), abs=1e-12)


def shifted_normal_form(mu_s):
    """``A(mu) = diag(mu_s - mu, mu - mu_s)`` with the normal form's B and C and gap
    constant 1e-4: its two bands meet at (mu_s, 0, 0) only, on the mu axis."""
    term = LinearTerm(np.diag([mu_s, -mu_s]).astype(complex), np.diag([-1.0, 1.0]).astype(complex))
    return dataclasses.replace(normal_form_symbol(), const_term=term, gap_constant=1e-4,
                               name=f"normal-form-shifted-{mu_s}")


@pytest.mark.parametrize("mu_s", [0.5, 0.999, 1.0, 2.5] + [
    pytest.param(mu_s, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP items 6 and 16: the degeneracy lies in the certified shell, off the "
               "30**3 sample (no sample has x = xi = 0), so the certificate passes and the "
               "pipeline gives N = 1 against C = 0"))
    for mu_s in (1.001, 1.02, 1.1, 1.5)
])
def test_hypothesis_boundary_is_refused_or_agrees(mu_s, grid64):
    # verify's steps at library level: the gap certificate, the flow sweep and
    # the band-1 curvature; a symbol at the theorem's hypothesis boundary must
    # be refused or give N = C, never a disagreement
    symbol = shifted_normal_form(mu_s)
    try:
        sampled_gap_certificate(symbol)
        n = spectral_index(sweep(symbol, TruncatedBasis(max_level=24, guard_levels=5),
                                 SpectralWindow(-0.9, 0.9, 0.0), -2.0, 2.0, 32)).N
        c = chern_curvature(SphereSpectrum.build(symbol, grid64).field([1])).C
    except (GapCertificateError, FlowError, ChernError):
        return
    assert n == c


#: closed-form families, by name, for the block and quantize tests
def stacks_at(pieces, amat):
    """The stacks that solve the operator at ``A(mu) = amat``."""
    return pieces.charge_stacks or [pieces.whole]


def merged_eigenvalues(stacks, amat):
    """Ascending eigenvalues of every block of ``stacks`` at ``A(mu) = amat``."""
    return np.sort(np.concatenate([np.linalg.eigvalsh(s.assemble(s.to_frame(amat[None]))).ravel()
                                   for s in stacks]))


def test_parity_blocks_follow_the_zero_pattern_of_each_const_term():
    # an A0 that couples components 0 and 2 breaks matsuno's charge symmetry,
    # so no D commutes with it and the one block is the whole operator;
    # without it the blocks are the complete charge sectors of the dense matrix
    base = matsuno_symbol()
    link = np.zeros((3, 3), dtype=complex)
    link[0, 2] = link[2, 0] = 1.0
    linked = dataclasses.replace(base, const_term=LinearTerm(link, base.const_term.a1), name="linked")
    basis = TruncatedBasis(max_level=12, guard_levels=3)
    for sym in (base, linked):
        pieces = OperatorPieces(sym, basis)
        for mu in (-1.0, 0.5, -0.5, 1.0):
            amat = pieces.symbol.const_stack([mu])[0]
            stacks = stacks_at(pieces, amat)
            dense = quantize(sym, mu, basis).matrix
            if sym is base:
                assert all(s.frame is not None for s in stacks)
                dense = charge_sectors(dense, sym.charge, basis)[0]
            else:
                assert sym.charge is None and len(stacks) == 1 and stacks[0].frame is None
            assert np.abs(merged_eigenvalues(stacks, amat) - np.linalg.eigvalsh(dense)).max() <= 1e-12


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


@pytest.mark.parametrize("family", sorted(BLOCK_FAMILIES))
def test_stack_ladder_entries_equal_the_dense_matrices(family):
    # OperatorPieces computes the position and momentum entries of the level pairs
    # it indexes; every stack's static part equals the one gathered from the dense
    # position_momentum matrices, bit for bit, signed zeros included
    symbol = BLOCK_FAMILIES[family]
    for eps in (1.0, 0.3):
        basis = TruncatedBasis(max_level=12, epsilon=eps, guard_levels=3)
        xmat, ximat = position_momentum(basis)
        pieces = OperatorPieces(symbol, basis)
        for stack in [*pieces.charge_stacks, pieces.whole]:
            f = stack.frame
            bx, cxi = (np.asarray(c) if f is None else f.conj().T @ c @ f
                       for c in (symbol.x_coeff, symbol.xi_coeff))
            level, comp = pieces.level[stack.index], pieces.component[stack.index]
            pair = (comp[:, :, None], comp[:, None, :])
            levels = (level[:, :, None], level[:, None, :])
            expected = bx[pair] * xmat[levels] + cxi[pair] * ximat[levels]
            assert stack.static.dtype == expected.dtype
            assert stack.static.tobytes() == expected.tobytes()


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
    d, k = charge_operator(symbol), symbol.x_coeff + 1j * symbol.xi_coeff
    delta, frame = symbol.charge
    assert np.abs(delta - CHARGE_SPECTRA[family]).max() <= 1e-12
    assert np.abs(frame @ np.diag(delta) @ frame.conj().T - d).max() <= 1e-12
    assert np.abs(d @ k - k @ d + k).max() <= 1e-12
    if family == "ts2":  # D = +-L1, the generator that A(mu) = mu L1 is made of
        l1 = symbol.const_term(np.array([1.0]))[0]
        assert min(np.abs(d - l1).max(), np.abs(d + l1).max()) <= 1e-12


def test_charge_blocks_matsuno_sizes():
    basis = TruncatedBasis(max_level=60, guard_levels=5)
    pieces = OperatorPieces(matsuno_symbol(), basis)
    stacks = stacks_at(pieces, pieces.symbol.const_stack([0.7])[0])
    sizes = {}
    for s in stacks:
        blocks, size, _ = s.static.shape
        sizes[size] = sizes.get(size, 0) + blocks
    assert sizes == {1: 1, 2: 1, 3: 59}
    # D = diag(-1, 0, 1) in its eigenbasis: the incomplete blocks are charge
    # 60 (2x2, one index at level 61 missing) and 61 (1x1, two missing), left
    # out; the complete 3x3 blocks of charge 55..59 reach the top five levels
    # and are kept
    index = np.concatenate([s.index.ravel() for s in stacks])
    missing = np.setdiff1d(np.arange(3 * basis.size), index)
    assert list(zip(pieces.component[missing], pieces.level[missing])) == [(1, 60), (2, 59), (2, 60)]
    (triples,) = (s for s in stacks if s.index.shape[1] == 3)
    assert (pieces.level[triples.index].max(axis=1) >= basis.size - basis.guard_levels).sum() == 5


@pytest.mark.parametrize("case", [f"family:{name}" for name in sorted(BLOCK_FAMILIES)]
                         + [f"preset:{name}" for name in sorted(PRESETS)])
def test_charge_stacks_hold_exactly_the_complete_blocks(case):
    kind, name = case.split(":")
    if kind == "family":
        symbol, basis = BLOCK_FAMILIES[name], TruncatedBasis(max_level=12, guard_levels=3)
    else:
        scenario = PRESETS[name]()
        symbol, basis = scenario.symbol(), scenario.basis()
    pieces = OperatorPieces(symbol, basis)
    assert pieces.charge_stacks
    # the stacks' indices are those of the complete blocks, each index once
    index = np.concatenate([s.index.ravel() for s in pieces.charge_stacks])
    assert np.array_equal(np.sort(index), np.flatnonzero(~incomplete_sectors(symbol.charge, basis)))
    delta = symbol.charge[0]
    for s in pieces.charge_stacks:
        q = delta[pieces.component[s.index]] + pieces.level[s.index]
        assert np.abs(q - q[:, :1]).max() <= 1e-8  # one charge per block
        assert np.abs(s.charges - q[:, 0]).max() <= 1e-9  # which the stack keeps
    assert pieces.whole.charges is None
    # one stack per block size, ascending; no guard mask on any stack, the
    # whole operator's is the pieces'
    sizes = [s.index.shape[1] for s in pieces.charge_stacks]
    assert sizes == sorted(set(sizes))
    assert not any(hasattr(s, "guard") for s in [*pieces.charge_stacks, pieces.whole])
    assert np.array_equal(pieces.guard, pieces.level >= basis.size - basis.guard_levels)


def per_block_charge_stacks(pieces):
    """The charge stacks built block by block in Python: each block's indices split off the
    stable sort of Q, sorted, filtered by completeness and stacked by size."""
    delta, frame = pieces.symbol.charge
    q = delta[pieces.component] + pieces.level
    order = np.argsort(q, kind="stable")
    parts = [np.sort(p) for p in np.split(order, np.flatnonzero(np.diff(q[order]) > 1e-8) + 1)]
    n = np.array([q[p[0]] for p in parts])[:, None] - delta
    full = np.count_nonzero((np.abs(n - np.rint(n)) <= 1e-8) & (n > -0.5), axis=1)
    parts = [p for p, f in zip(parts, full) if len(p) == f]
    stacks = []
    for size in sorted({len(p) for p in parts}):
        rows = [p for p in parts if len(p) == size]
        charges = np.round(q[[p[0] for p in rows]], 9) + 0.0
        stacks.append(pieces.stack(np.array(rows), frame, charges))
    return stacks


def stack_bytes(stack):
    """Every array of a :class:`BlockStack`, as (dtype, shape, bytes) leaves."""
    leaves = []
    for value in vars(stack).values():
        for a in value if isinstance(value, tuple) else (value,):
            a = np.asarray(a)
            leaves.append((a.dtype.str, a.shape, a.tobytes()))
    return leaves


@pytest.mark.parametrize("family", sorted(BLOCK_FAMILIES))
@pytest.mark.parametrize("max_level", [12, 61])
def test_charge_stacks_equal_the_per_block_construction(family, max_level):
    # the grouping into blocks is vectorized; every stack stays byte-equal to
    # the block-by-block construction
    basis = TruncatedBasis(max_level=max_level, guard_levels=3)
    pieces = OperatorPieces(BLOCK_FAMILIES[family], basis)
    expected = per_block_charge_stacks(pieces)
    assert len(pieces.charge_stacks) == len(expected) > 0
    for got, want in zip(pieces.charge_stacks, expected):
        assert stack_bytes(got) == stack_bytes(want)


def test_no_charge_operator_for_a_plain_callback_or_a_random_symbol(random_affine_symbol):
    # matsuno's own A(mu) behind a plain callback has no D, the safe default,
    # and no D fits the random symbol's coefficients
    basis = TruncatedBasis(max_level=12, guard_levels=3)
    base = matsuno_symbol()
    plain = dataclasses.replace(base, const_term=lambda mu: base.const_term(mu))
    assert charge_operator(base) is not None
    assert charge_operator(plain) is None and plain.charge is None
    pieces = OperatorPieces(random_affine_symbol, basis)
    assert random_affine_symbol.charge is None and not pieces.charge_stacks
    # the fallback: the whole operator, as a stack of one in the standard frame,
    # assembled exactly as quantize assembles it
    (stack,) = stacks_at(pieces, pieces.symbol.const_stack([0.7])[0])
    assert stack.frame is None and stack.static.shape == (1, 26, 26)
    assert (stack.assemble(pieces.symbol.const_stack([0.7]))[0, 0].tobytes()
            == quantize(random_affine_symbol, 0.7, basis).matrix.tobytes())


def test_no_charge_operator_for_a_linear_term_that_breaks_the_symmetry():
    # matsuno's A1 with a random Hermitian A0, or with matsuno's A0 (zero) plus 1e-6 times a
    # Hermitian of unit norm: D still fits K and A1, but no D commutes with A0 as well (to
    # the fit's 1e-12)
    base = matsuno_symbol()
    raw = np.random.default_rng(4).normal(size=(3, 3, 2)) @ [1.0, 1j]
    herm = raw + raw.conj().T
    for a0 in (herm, base.const_term.a0 + 1e-6 * herm / np.linalg.norm(herm, ord=2)):
        symbol = dataclasses.replace(base, const_term=LinearTerm(a0, base.const_term.a1))
        assert charge_operator(symbol) is None
        assert not OperatorPieces(symbol, TruncatedBasis(max_level=12, guard_levels=3)).charge_stacks
    assert charge_operator(dataclasses.replace(base, const_term=LinearTerm(0.0, base.const_term.a1))) is not None


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_verify_fits_the_charge_operator_once(monkeypatch, preset):
    # the gap certificate, the sweep's charge stacks and the sphere spectrum
    # all read the one symbol's cached charge
    calls = []
    real = hermite.charge_operator
    monkeypatch.setattr(hermite, "charge_operator", lambda s: calls.append(s) or real(s))
    run_verify(PRESETS[preset]())
    assert len(calls) == 1
    symbol = calls[0]
    assert symbol.charge is symbol.charge and len(calls) == 1


def test_the_charge_cache_belongs_to_one_instance():
    base = matsuno_symbol()
    delta, frame = base.charge
    # a replaced const_term is a new instance with its own, refitted charge
    plain = dataclasses.replace(base, const_term=lambda mu: base.const_term(mu))
    assert plain.charge is None
    raw = np.random.default_rng(5).normal(size=(3, 3, 2)) @ [1.0, 1j]
    broken = dataclasses.replace(base, const_term=LinearTerm(raw + raw.conj().T, base.const_term.a1))
    assert broken.charge is None
    reflected = mu_reflected(base)
    assert reflected.charge is not base.charge
    assert np.array_equal(reflected.charge[0], delta)
    assert base.charge[0] is delta and base.charge[1] is frame
    # the shared pair is read-only
    for array in (delta, frame):
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_mu_reflected_keeps_a_linear_term():
    base = normal_form_symbol()
    reflected = mu_reflected(base)
    assert isinstance(reflected.const_term, LinearTerm)
    assert np.array_equal(reflected.const_term.a1, -base.const_term.a1)
    mus = np.linspace(-2.0, 2.0, 9)
    assert np.array_equal(reflected.const_stack(mus), base.const_stack(-mus))
    plain = dataclasses.replace(base, const_term=lambda mu: base.const_term(mu))
    assert not isinstance(mu_reflected(plain).const_term, LinearTerm)
    assert np.array_equal(mu_reflected(plain).const_stack(mus), base.const_stack(-mus))


@pytest.mark.parametrize("family", sorted(BLOCK_FAMILIES))
def test_charge_blocks_partition_and_match_dense_spectrum(family):
    symbol = BLOCK_FAMILIES[family]
    basis = TruncatedBasis(max_level=12, guard_levels=3)
    pieces = OperatorPieces(symbol, basis)
    for mu in (-2.0, 0.0, 0.7, 3.0):
        amat = pieces.symbol.const_stack([mu])[0]
        stacks = stacks_at(pieces, amat)
        assert all(s.frame is not None for s in stacks)  # charge blocks, no fallback
        assert max(s.index.shape[1] for s in stacks) <= symbol.dim
        # the complete blocks and the incomplete indices partition the basis
        index = np.concatenate([s.index.ravel() for s in stacks])
        apart = np.flatnonzero(incomplete_sectors(symbol.charge, basis))
        assert np.array_equal(np.sort(np.concatenate([index, apart])),
                              np.arange(symbol.dim * basis.size))
        # the blocks hold the dense spectrum on their indices; with the
        # incomplete sectors, all of it
        matrix = quantize(symbol, mu, basis).matrix
        complete, incomplete = charge_sectors(matrix, symbol.charge, basis)
        blocks = merged_eigenvalues(stacks, amat)
        assert np.abs(blocks - np.linalg.eigvalsh(complete)).max() <= 1e-12
        merged = np.sort(np.concatenate([blocks, np.linalg.eigvalsh(incomplete)]))
        assert np.abs(merged - np.linalg.eigvalsh(matrix)).max() <= 1e-12


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


def certificate_and_solved_arrays(monkeypatch, symbol):
    """The certificate's margin or :class:`GapCertificateError`, and a copy of every point
    array it solves (:func:`conftest.record_solves`)."""
    solved = record_solves(monkeypatch)
    try:
        margin = sampled_gap_certificate(symbol)
    except GapCertificateError as exc:
        margin = exc
    monkeypatch.undo()
    return margin, solved


def certificate_and_solved_points(monkeypatch, symbol):
    margin, solved = certificate_and_solved_arrays(monkeypatch, symbol)
    return margin, [len(pts) for pts in solved]


def assert_matches_all_points_reference(margin, symbol, atol):
    """``margin``, the certificate's return value or its :class:`GapCertificateError`,
    against :func:`all_points_margins`: the least margin within ``atol``, or a refusal
    that names both margins and a sampled point of least margin."""
    pts, lower, upper = all_points_margins(symbol)
    margins = np.minimum(lower, upper)
    if margins.min() > 0:
        assert type(margin) is float and abs(margin - margins.min()) <= atol
        return
    assert isinstance(margin, GapCertificateError)
    (low, high, point), = re.findall(r"margins \((\S+), (\S+)\) at point (\(.*\))$", str(margin))
    assert (low, high) == (f"{lower.min():.3g}", f"{upper.min():.3g}")
    # the orbit solve shares one margin along an orbit, so a tie may name
    # another point
    (row,) = np.flatnonzero((pts == ast.literal_eval(point)).all(axis=1))
    assert margins[row] <= margins.min() + 1e-12


@pytest.mark.parametrize("family", sorted(BLOCK_FAMILIES))
def test_gap_certificate_solves_each_charge_orbit_once(monkeypatch, family):
    # every closed-form family has a charge operator that commutes with
    # A(mu), so its spectrum depends on (mu, |x + i xi|) only: the 10,600
    # sampled points fall into 1,752 orbits, one solve each (of the real
    # form, but on constant-dim3, whose weights delta repeat)
    symbol = BLOCK_FAMILIES[family]
    margin, solved = certificate_and_solved_points(monkeypatch, symbol)
    assert solved == [1752]
    assert (symbol.real_form is None) == (family == "constant-dim3")
    # the orbit solve shares one spectrum along an orbit: equal to rounding
    assert_matches_all_points_reference(margin, symbol, atol=1e-12)


@pytest.mark.parametrize("family", sorted(BLOCK_FAMILIES))
def test_real_form_is_the_symbol_on_the_half_plane(family):
    # H(mu, r, 0) = frame T(mu, r) frame^dag, T real symmetric tridiagonal and
    # frame unitary; constant-dim3's weights repeat (0 three times): no real form
    symbol = BLOCK_FAMILIES[family]
    form = symbol.real_form
    if family == "constant-dim3":
        assert symbol.charge is not None and form is None
        return
    mu, r = np.linspace(-2.0, 2.0, 9), np.linspace(0.0, 3.0, 9)
    t = form.matrices(mu, r)
    assert t.dtype == float and np.array_equal(t, t.swapaxes(1, 2))
    assert not np.triu(t, 2).any()
    h = symbol.evaluate_many(np.stack((mu, r, np.zeros(9)), axis=1))
    assert np.abs(form.frame @ t @ form.frame.conj().T - h).max() <= 1e-12
    assert np.abs(form.frame.conj().T @ form.frame - np.eye(symbol.dim)).max() <= 1e-12
    assert not any(a.flags.writeable for a in vars(form).values())


class CountedTerm(LinearTerm):
    """A :class:`LinearTerm` that records how many mu each call takes."""

    def __init__(self, term):
        super().__init__(term.a0, term.a1)
        self.seen = []

    def __call__(self, mu):
        self.seen.append(len(mu))
        return super().__call__(mu)


def test_charge_path_evaluates_a_for_the_fit_and_the_orbits_only(monkeypatch, grid64):
    # D is fitted once per symbol, from A(0) and A(1), on the first read; the
    # certificate's 10,600 points then fall into 1,752 orbits and the
    # 64-grid's 24,578 vertices into 3,001, and A(mu) is taken at those
    # orbits alone, in the real form T(mu, r), whose diagonal holds the
    # LinearTerm's a0 and a1 in D's frame: no const_term call per mu, no
    # check of the symmetry per mu and no second fit
    term = CountedTerm(matsuno_symbol().const_term)
    symbol = dataclasses.replace(matsuno_symbol(), const_term=term)
    solved = record_solves(monkeypatch)
    assert sampled_gap_certificate(symbol) > 0
    assert term.seen == [2] and [len(s) for s in solved] == [1752]
    solved.clear()
    SphereSpectrum.build(symbol, grid64)
    assert term.seen == [2] and [len(s) for s in solved] == [3001]
    assert symbol.charge is not None and symbol.real_form is not None
    radial, inverse = charge_orbits(grid64.vertices)
    assert len(radial) == 3001 and inverse.shape == (24578,)
    assert np.array_equal(radial[inverse][:, 1], np.hypot(*grid64.vertices[:, 1:].T))


@pytest.mark.parametrize("symbol", ["random-affine", "matsuno+bump"])
def test_gap_certificate_without_charge_symmetry_solves_every_point(
        monkeypatch, random_affine_symbol, bump_perturbed_matsuno, symbol):
    # no charge operator fits the random symbol, and the bump-perturbed
    # matsuno is a plain callback, with none
    symbol = random_affine_symbol if symbol == "random-affine" else bump_perturbed_matsuno
    margin, solved = certificate_and_solved_points(monkeypatch, symbol)
    assert solved == [10600]
    # every point solved as the reference solves it: the same margins exactly
    # (the random symbol's gap closes on the shell, so it is refused)
    assert_matches_all_points_reference(margin, symbol, atol=0.0)


@pytest.mark.parametrize("family", sorted(BLOCK_FAMILIES))
def test_gap_certificate_orbits_are_the_charge_orbits_of_the_reference_sample(monkeypatch, family):
    # the certificate builds its orbits from the (mu, (x, xi)) product; they are
    # charge_orbits of the reference's 10,600 points, bit for bit and in order
    symbol = BLOCK_FAMILIES[family]
    margin, (solved,) = certificate_and_solved_arrays(monkeypatch, symbol)
    pts = all_points_margins(symbol)[0]
    assert len(pts) == 10600
    radial, inverse = charge_orbits(pts)
    assert solved.dtype == radial.dtype and solved.shape == radial.shape == (1752, 3)
    assert solved.tobytes() == radial.tobytes()
    # so the margin is the least over the orbits' solves exactly: of the real
    # form where the symbol has one, and within 1e-12 of the complex solve
    form = symbol.real_form
    for matrices in ([symbol.evaluate_many(radial)] if form is None else
                     [form.matrices(radial[:, 0], radial[:, 1]), symbol.evaluate_many(radial)]):
        eigs = np.linalg.eigvalsh(matrices)
        r, none = symbol.gap_band, np.full(len(radial), np.inf)
        lower = symbol.gap_center - symbol.gap_constant - eigs[:, r - 1] if r else none
        upper = eigs[:, r] - (symbol.gap_center + symbol.gap_constant) if r < symbol.dim else none
        if matrices.dtype == float or form is None:
            assert margin == min(lower.min(), upper.min())
        else:
            assert abs(margin - min(lower.min(), upper.min())) <= 1e-12


@pytest.mark.parametrize("gap_band", [0, 3])
def test_callback_refusal_names_the_reference_first_point_of_least_margin(monkeypatch, gap_band):
    # a plain callback has no charge operator, so every kept point is solved, the
    # reference's points in the reference's order; with a misset gap band (96
    # points within 1e-12 of the least margin) the refusal names exactly the
    # reference's first point of least margin
    base = matsuno_symbol()
    symbol = dataclasses.replace(base, const_term=lambda mu: base.const_term(mu),
                                 gap_band=gap_band, name="matsuno-callback")
    assert symbol.charge is None
    refusal, (solved,) = certificate_and_solved_arrays(monkeypatch, symbol)
    pts, lower, upper = all_points_margins(symbol)
    assert solved.tobytes() == pts.tobytes()
    assert_matches_all_points_reference(refusal, symbol, atol=0.0)
    worst = pts[int(np.argmin(np.minimum(lower, upper)))]
    assert str(refusal).endswith(f"at point {tuple(worst.tolist())}")


def random_tridiagonal_symbol(dim=4, seed=5):
    """Weights ``delta_i = i``, ``K`` with random complex entries from component i to
    i + 1 only and a random real diagonal ``A(mu)``, all turned by a random unitary:
    charge blocks that are tridiagonal with random phases in ``D``'s eigenbasis."""
    gen = np.random.default_rng(seed)
    k = np.zeros((dim, dim), dtype=complex)
    i = np.arange(dim - 1)
    k[i, i + 1] = gen.normal(size=dim - 1) + 1j * gen.normal(size=dim - 1)
    u = np.linalg.qr(gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim)))[0]
    a0, a1 = np.diag(gen.normal(size=dim)), np.diag(gen.normal(size=dim))
    return AffineMatrixSymbol(
        dim=dim,
        const_term=LinearTerm(u @ a0 @ u.conj().T, u @ a1 @ u.conj().T),
        x_coeff=u @ (0.5 * (k + k.conj().T)) @ u.conj().T,
        xi_coeff=u @ (0.5j * (k.conj().T - k)) @ u.conj().T,
        gap_band=1,
        gap_constant=0.1,
        name="random-tridiagonal",
    )


def assert_slope_form(stack, framed):
    """The ``static`` False form of a ``tridiagonal`` stack: the real diagonal of
    ``assemble(framed, static=False)`` bit for bit, and zeros off the diagonal."""
    h, real = stack.assemble(framed, static=False), stack.form(framed, static=False)
    assert real.dtype == np.float64 and real.shape == h.shape
    assert np.array_equal(real.diagonal(0, -2, -1), h.diagonal(0, -2, -1).real)
    assert not (real * (1.0 - np.eye(h.shape[-1]))).any()


@pytest.mark.parametrize("family", sorted(BLOCK_FAMILIES) + ["random-tridiagonal"])
def test_tridiagonal_real_form_keeps_the_eigenvalues(family):
    # the real form has assemble's real diagonal and the moduli of its
    # subdiagonal, bit for bit, and so its eigenvalues; constant-dim3 has
    # D = 0, so its three components share each block's level and A(mu)
    # lands off the diagonal: its one stack's form is assemble's complex blocks
    symbol = random_tridiagonal_symbol() if family == "random-tridiagonal" else BLOCK_FAMILIES[family]
    pieces = OperatorPieces(symbol, TruncatedBasis(max_level=12, guard_levels=3))
    amats = pieces.symbol.const_stack([-2.0, -0.4, 0.7, 3.0])
    assert pieces.charge_stacks
    stacks = [s for s in pieces.charge_stacks if s.tridiagonal is not None]
    assert (len(stacks) == len(pieces.charge_stacks)) == (family != "constant-dim3")
    if family == "random-tridiagonal":
        assert [s.index.shape[1] for s in stacks] == [1, 2, 3, 4]
    for s in pieces.charge_stacks:
        if s.tridiagonal is None:
            framed = s.to_frame(amats)
            for static in (True, False):
                assert np.array_equal(s.form(framed, static), s.assemble(framed, static))
    for s in stacks:
        framed = s.to_frame(amats)
        h = s.assemble(framed)
        size = h.shape[-1]
        real = s.form(framed)
        assert s.static.dtype == h.dtype == np.complex128 and real.dtype == np.float64
        assert np.array_equal(real, real.swapaxes(-2, -1)) and not np.triu(real, 2).any()
        assert np.array_equal(real.diagonal(0, -2, -1), h.diagonal(0, -2, -1).real)
        assert np.array_equal(real.diagonal(-1, -2, -1), np.abs(h.diagonal(-1, -2, -1)))
        scale = np.abs(h).max()
        assert np.abs(np.linalg.eigvalsh(real) - np.linalg.eigvalsh(h)).max() <= 1e-12 * scale
        if family == "random-tridiagonal" and size > 1:  # the phases are far from real
            assert np.abs(h.diagonal(-1, -2, -1).imag).max() > 0.1 * scale
        assert_slope_form(s, framed)
        assert_slope_form(s, s.to_frame(np.asarray(symbol.const_term.a1, dtype=complex)[None]))


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_every_charge_stack_of_the_presets_is_tridiagonal(preset):
    scenario = PRESETS[preset]()
    symbol, basis = scenario.symbol(), scenario.basis()
    pieces = OperatorPieces(symbol, basis)
    amats = pieces.symbol.const_stack([scenario.mu_min, 0.0, 0.7, scenario.mu_max])
    assert pieces.charge_stacks
    for s in pieces.charge_stacks:
        assert s.tridiagonal is not None
        assert s.form(s.to_frame(amats)).dtype == np.float64
        assert_slope_form(s, s.to_frame(np.asarray(symbol.const_term.a1, dtype=complex)[None]))
    # the whole operator, and so quantize, stays complex
    assert pieces.whole.assemble(amats).dtype == np.complex128
    assert quantize(symbol, 0.7, basis).matrix.dtype == np.complex128
