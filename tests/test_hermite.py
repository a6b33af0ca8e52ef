import math

import numpy as np
import pytest

from indexlab.errors import GapCertificateError, ModelError
from indexlab.hermite import (
    AffineMatrixSymbol,
    TruncatedBasis,
    ladder_matrices,
    position_momentum,
    quantize,
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
