import math

import numpy as np
import pytest

from indexlab.errors import ModelError, ResonanceError, TruncationError
from indexlab.hermite import TruncatedBasis, quantize, spurious_weights
from indexlab.models import (
    BranchLabel,
    constant_symbol,
    matsuno_branch_table,
    matsuno_eigenvalue,
    matsuno_eigenvalues,
    matsuno_eigenvector,
    matsuno_symbol,
    mu_reflected,
    normal_form_eigenvalue,
    normal_form_eigenvector,
    normal_form_symbol,
    ts2_symbol,
)

SQ2 = math.sqrt(2.0)
SQ3 = math.sqrt(3.0)


# ---------------------------------------------------------------------------
# symbols at points
# ---------------------------------------------------------------------------

def test_normal_form_point_eigenvalues():
    sym = normal_form_symbol()
    assert np.allclose(np.linalg.eigvalsh(sym.evaluate(0, 1, 0)), [-1, 1])
    assert np.allclose(np.linalg.eigvalsh(sym.evaluate(0, 0, 0)), [0, 0])
    assert np.allclose(np.linalg.eigvalsh(sym.evaluate(3, 4, 0)), [-5, 5])


def test_matsuno_point_eigenvalues():
    sym = matsuno_symbol()
    assert np.allclose(np.linalg.eigvalsh(sym.evaluate(0, 0, 1)), [-1, 0, 1])
    assert np.allclose(np.linalg.eigvalsh(sym.evaluate(0, 0, 0)), [0, 0, 0])


def test_matsuno_point_structure_random(rng):
    sym = matsuno_symbol()
    for _ in range(25):
        mu, x, xi = rng.uniform(-2, 2, size=3)
        r = math.sqrt(mu * mu + x * x + xi * xi)
        eigs = np.linalg.eigvalsh(sym.evaluate(mu, x, xi))
        assert np.abs(eigs - np.array([-r, 0.0, r])).max() < 1e-12


def test_matsuno_band2_eigenvector_at_x_pole():
    sym = matsuno_symbol()
    eigs, vecs = np.linalg.eigh(sym.evaluate(0.0, 1.0, 0.0))
    v = vecs[:, 1]  # middle band
    expected = np.array([-1.0, 0.0, 0.0])  # U2 = (-x, i xi, -i mu)
    assert abs(abs(np.vdot(expected, v)) - 1.0) < 1e-12


def test_ts2_point_structure(rng):
    sym = ts2_symbol()
    for _ in range(10):
        p = rng.uniform(-2, 2, size=3)
        r = np.linalg.norm(p)
        eigs = np.linalg.eigvalsh(sym.evaluate(*p))
        assert np.abs(eigs - np.array([-r, 0.0, r])).max() < 1e-12


def normal_form_matrix(mu, x, xi):
    return np.array([[-mu, complex(x, xi)], [complex(x, -xi), mu]], dtype=complex)


def matsuno_matrix(mu, x, xi):
    return np.array([[0, mu, xi], [mu, 0, complex(0, x)], [xi, complex(0, -x), 0]],
                    dtype=complex)


def ts2_matrix(mu, x, xi):
    # -i v x (.) with v = (mu, x, xi)
    return np.array([[0, complex(0, xi), complex(0, -x)],
                     [complex(0, -xi), 0, complex(0, mu)],
                     [complex(0, x), complex(0, -mu), 0]], dtype=complex)


@pytest.mark.parametrize(
    "sym,matrix",
    [
        (normal_form_symbol(), normal_form_matrix),
        (normal_form_symbol(reflected=True), lambda mu, x, xi: normal_form_matrix(-mu, x, xi)),
        (mu_reflected(normal_form_symbol()), lambda mu, x, xi: normal_form_matrix(-mu, x, xi)),
        (matsuno_symbol(), matsuno_matrix),
        (mu_reflected(matsuno_symbol(gap_band=1)), lambda mu, x, xi: matsuno_matrix(-mu, x, xi)),
        (ts2_symbol(), ts2_matrix),
        (constant_symbol(), lambda mu, x, xi: 5.0 * np.eye(1)),
        (constant_symbol(-2.5, dim=3), lambda mu, x, xi: -2.5 * np.eye(3)),
    ],
)
def test_evaluate_many_matches_closed_form_matrices(rng, sym, matrix):
    points = rng.uniform(-2, 2, size=(40, 3))
    points[:4] = [(0, 0, 0), (0, 1, 0), (-1.5, 0, 0), (0, 0, -0.5)]
    expected = np.array([matrix(*p) for p in points])
    assert np.array_equal(sym.evaluate_many(points), expected)
    assert np.array_equal(sym.evaluate(*points[7]), expected[7])


def test_symbols_pass_hermiticity_validation(rng):
    for sym in (normal_form_symbol(), matsuno_symbol(), ts2_symbol(),
                constant_symbol(), mu_reflected(normal_form_symbol())):
        sym.validate(rng)


# ---------------------------------------------------------------------------
# branch labels
# ---------------------------------------------------------------------------

def test_branch_label_validation():
    with pytest.raises(ModelError):
        BranchLabel("rossby", 0)
    with pytest.raises(ModelError):
        BranchLabel("normal_plus", 0)
    with pytest.raises(ModelError):
        BranchLabel("kelvin", 2)
    with pytest.raises(ModelError):
        BranchLabel("no-such-family")


# ---------------------------------------------------------------------------
# normal-form closed forms
# ---------------------------------------------------------------------------

def test_normal_form_eigenvalues():
    assert normal_form_eigenvalue(BranchLabel("normal_zero"), 0.7, 1.0) == 0.7
    val = normal_form_eigenvalue(BranchLabel("normal_plus", 1), 0.0, 1.0)
    assert val == pytest.approx(SQ2, abs=1e-12)
    # mu=1, eps=0.25, n=2: -sqrt(1 + 2*0.25*2) = -sqrt(2)
    val = normal_form_eigenvalue(BranchLabel("normal_minus", 2), 1.0, 0.25)
    assert val == pytest.approx(-SQ2, abs=1e-12)


def test_normal_form_ground_vector():
    basis = TruncatedBasis(max_level=12, guard_levels=3)
    v = normal_form_eigenvector(BranchLabel("normal_zero"), 0.3, 1.0, basis)
    expected = np.zeros(2 * basis.size)
    expected[basis.size] = 1.0
    assert np.array_equal(v, expected)


def test_normal_form_vector_component_ratio():
    basis = TruncatedBasis(max_level=12, guard_levels=3)
    v = normal_form_eigenvector(BranchLabel("normal_plus", 1), 0.0, 1.0, basis)
    m = basis.size
    # sqrt(2 n eps)/(mu + omega) = sqrt(2)/sqrt(2) = 1
    assert v[0] == pytest.approx(v[m + 1], abs=1e-15)
    mask = np.ones(2 * m, dtype=bool)
    mask[[0, m + 1]] = False
    assert np.all(v[mask] == 0.0)


def test_normal_form_vector_residual():
    basis = TruncatedBasis(max_level=20, guard_levels=5)
    label = BranchLabel("normal_plus", 3)
    omega = normal_form_eigenvalue(label, 1.5, 1.0, )
    v = normal_form_eigenvector(label, 1.5, 1.0, basis)
    h = quantize(normal_form_symbol(), 1.5, basis).matrix
    assert np.linalg.norm(h @ v - omega * v) < 1e-10


def test_normal_form_vector_truncation_error():
    basis = TruncatedBasis(max_level=10, guard_levels=2)
    with pytest.raises(TruncationError):
        normal_form_eigenvector(BranchLabel("normal_plus", 11), 0.0, 1.0, basis)


# ---------------------------------------------------------------------------
# equatorial-wave closed forms
# ---------------------------------------------------------------------------

def test_matsuno_cubic_mu0():
    vals = matsuno_eigenvalues(1, 0.0)
    got = sorted(vals.values())
    assert np.allclose(got, [-SQ3, 0.0, SQ3], atol=1e-14)
    assert vals[BranchLabel("rossby", 1)] == pytest.approx(0.0, abs=1e-14)


def test_yanai_mu0():
    vals = matsuno_eigenvalues(0, 0.0)
    assert vals[BranchLabel("yanai_plus")] == pytest.approx(1.0, abs=1e-14)
    assert vals[BranchLabel("yanai_minus")] == pytest.approx(-1.0, abs=1e-14)
    assert vals[BranchLabel("kelvin")] == 0.0


def test_matsuno_cubic_residuals_n2_mu1():
    # oracle: plug each root back into the cubic
    for omega in matsuno_eigenvalues(2, 1.0).values():
        assert abs(omega**3 - 6.0 * omega - 1.0) < 1e-12


@pytest.mark.parametrize("mu", [-3.0, -1.2, 0.0, 0.4, 2.5])
@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_matsuno_cubic_residual_grid(mu, n):
    coeff = mu * mu + 2 * n + 1
    for omega in matsuno_eigenvalues(n, mu).values():
        assert abs(omega**3 - coeff * omega - mu) < 1e-11


@pytest.mark.parametrize("mu", [-2.0, -0.7071, 0.0, 0.3, 1.9])
def test_yanai_root_product(mu):
    plus = matsuno_eigenvalue(BranchLabel("yanai_plus"), mu)
    minus = matsuno_eigenvalue(BranchLabel("yanai_minus"), mu)
    assert abs(plus * minus + 1.0) < 1e-12  # neither branch can cross zero


def test_kelvin_vector():
    basis = TruncatedBasis(max_level=10, guard_levels=2)
    v = matsuno_eigenvector(BranchLabel("kelvin"), 0.8, basis)
    m = basis.size
    assert v[0] == pytest.approx(1 / SQ2, abs=1e-15)
    assert v[m] == pytest.approx(1 / SQ2, abs=1e-15)
    mask = np.ones(3 * m, dtype=bool)
    mask[[0, m]] = False
    assert np.all(v[mask] == 0.0)
    assert v[0].imag == 0.0 and v[0].real > 0


def test_yanai_plus_vector_components():
    basis = TruncatedBasis(max_level=10, guard_levels=2)
    v = matsuno_eigenvector(BranchLabel("yanai_plus"), 0.0, basis)
    m = basis.size
    nz = np.nonzero(np.abs(v) > 1e-15)[0]
    # c_0 (component 3 level 0) and s_1 (components 1 and 2, level 1)
    assert set(nz.tolist()) == {1, m + 1, 2 * m}


@pytest.mark.parametrize(
    "label",
    [
        BranchLabel("kelvin"),
        BranchLabel("yanai_plus"),
        BranchLabel("yanai_minus"),
        BranchLabel("gravity_plus", 1),
        BranchLabel("gravity_minus", 2),
        BranchLabel("rossby", 3),
    ],
)
def test_matsuno_vector_residuals(label):
    basis = TruncatedBasis(max_level=30, guard_levels=5)
    mu = 0.5
    omega = matsuno_eigenvalue(label, mu)
    v = matsuno_eigenvector(label, mu, basis)
    h = quantize(matsuno_symbol(), mu, basis).matrix
    assert np.linalg.norm(h @ v - omega * v) < 1e-10


def test_rossby_resonant_at_mu0():
    basis = TruncatedBasis(max_level=10, guard_levels=2)
    with pytest.raises(ResonanceError):
        matsuno_eigenvector(BranchLabel("rossby", 1), 0.0, basis)


def test_matsuno_vector_truncation_error():
    basis = TruncatedBasis(max_level=10, guard_levels=2)
    with pytest.raises(TruncationError):
        matsuno_eigenvector(BranchLabel("gravity_plus", 10), 0.0, basis)


def test_branch_table_families():
    rows = matsuno_branch_table(0.5, 3)
    families = {label.family for label, _ in rows}
    assert families == {
        "kelvin", "yanai_plus", "yanai_minus",
        "gravity_minus", "rossby", "gravity_plus",
    }
    assert len(rows) == 3 + 3 * 3


# ---------------------------------------------------------------------------
# oracle agreement between closed forms and the quantized operator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mu", [-1.5, -0.3, 0.0, 0.8, 1.9])
def test_normal_form_oracle_agreement(mu):
    basis = TruncatedBasis(max_level=40, epsilon=1.0, guard_levels=5)
    op = quantize(normal_form_symbol(), mu, basis)
    eigs, vecs = np.linalg.eigh(op.matrix)

    closed = [normal_form_eigenvalue(BranchLabel("normal_zero"), mu, 1.0)]
    for n in range(1, 11):
        closed.append(normal_form_eigenvalue(BranchLabel("normal_plus", n), mu, 1.0))
        closed.append(normal_form_eigenvalue(BranchLabel("normal_minus", n), mu, 1.0))
    for target in closed:
        assert np.min(np.abs(eigs - target)) < 1e-10

    # converse: every non-spurious numerical eigenvalue in the window
    # matches some closed-form branch
    keep = spurious_weights(op, vecs) <= 1e-8
    window = eigs[keep & (np.abs(eigs) <= math.sqrt(20.0))]
    table = np.array(closed)
    for w in window:
        assert np.min(np.abs(table - w)) < 1e-9
