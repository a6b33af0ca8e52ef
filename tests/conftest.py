import dataclasses

import numpy as np
import pytest

from indexlab.flow import _bump as flow_bump
from indexlab.hermite import AffineMatrixSymbol, RealForm
from indexlab.models import constant_symbol, matsuno_symbol, mu_reflected, normal_form_symbol, ts2_symbol
from indexlab.topology import SphereGrid

#: every closed-form family; each has a charge operator that commutes with A(mu)
BLOCK_FAMILIES = {
    "normal-form": normal_form_symbol(),
    "normal-form-reflected": normal_form_symbol(reflected=True),
    "normal-form-mu-reflected": mu_reflected(normal_form_symbol()),
    "matsuno-upper": matsuno_symbol(2),
    "matsuno-lower": matsuno_symbol(1),
    "ts2": ts2_symbol(),
    "constant": constant_symbol(),
    "constant-dim3": constant_symbol(2.0, 3),
}


def record_solves(monkeypatch):
    """A list that gets a copy of the points of every symbol solve from now on: the points
    of each ``evaluate_many`` call, and ``(mu, r, 0)`` of each ``RealForm.matrices`` call
    (the real form of ``H(mu, r, 0)``)."""
    solved = []
    evaluate, matrices = AffineMatrixSymbol.evaluate_many, RealForm.matrices

    def evaluate_many(self, points):
        solved.append(np.array(points))
        return evaluate(self, points)

    def real_matrices(self, mu, r):
        solved.append(np.stack((mu, r, np.zeros(len(mu))), axis=1))
        return matrices(self, mu, r)

    monkeypatch.setattr(AffineMatrixSymbol, "evaluate_many", evaluate_many)
    monkeypatch.setattr(RealForm, "matrices", real_matrices)
    return solved


def incomplete_sectors(charge, basis):
    """Per index (component-major, in the eigenbasis of a symbol's ``charge`` = (delta,
    frame)): whether its charge block is incomplete, that is reaches above level M.

    Index (i, n) has charge q = delta_i + n; its block is incomplete when q - delta_j is
    an integer above M for some component j.
    """
    delta = charge[0]
    m = (delta[:, None] + np.arange(basis.size)).reshape(-1, 1) - delta
    return ((np.abs(m - np.rint(m)) <= 1e-8) & (np.rint(m) > basis.max_level)).any(axis=1)


def charge_sectors(matrix, charge, basis):
    """The quantized ``matrix`` in the eigenbasis of a symbol's ``charge`` = (delta, frame),
    restricted to the complete charge sectors and to the incomplete ones: two invariant
    subspaces."""
    u = np.kron(charge[1], np.eye(basis.size))
    h, apart = u.conj().T @ matrix @ u, incomplete_sectors(charge, basis)
    return h[np.ix_(~apart, ~apart)], h[np.ix_(apart, apart)]


@pytest.fixture(scope="session")
def grid17():
    # odd N: the cube-face centre lines run through cell centres, not vertices
    return SphereGrid.build(17)


@pytest.fixture(scope="session")
def grid32():
    return SphereGrid.build(32)


@pytest.fixture(scope="session")
def grid64():
    return SphereGrid.build(64)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture(scope="session")
def random_affine_symbol():
    """Normal form plus a random complex Hermitian on each of A0, A1, B and C.

    Every coefficient entry is nonzero and complex, so no charge operator
    fits and the flow sweep solves the whole operator at every sample.
    """
    from indexlab.hermite import AffineMatrixSymbol
    from indexlab.models import normal_form_symbol

    base = normal_form_symbol()
    gen = np.random.default_rng(11)

    def herm():
        raw = gen.normal(size=(2, 2)) + 1j * gen.normal(size=(2, 2))
        return 0.1 * (raw + raw.conj().T)

    a0, a1, b, c = herm(), herm(), herm(), herm()
    return AffineMatrixSymbol(
        dim=2,
        const_term=lambda mu: base.const_term(mu) + a0 + np.multiply.outer(mu, a1),
        x_coeff=base.x_coeff + b,
        xi_coeff=base.xi_coeff + c,
        gap_band=1,
        gap_constant=0.5,
        name="random-affine",
    )


@pytest.fixture(scope="session")
def bump_perturbed_matsuno():
    """Matsuno plus a dense Hermitian times the flow-invariance bump: no charge symmetry for |mu| < 2."""
    base = matsuno_symbol()
    gen = np.random.default_rng(7)
    raw = gen.normal(size=(3, 3)) + 1j * gen.normal(size=(3, 3))
    pert = 0.05 * (raw + raw.conj().T) / np.linalg.norm(raw + raw.conj().T, ord=2)
    return dataclasses.replace(
        base, const_term=lambda mu: base.const_term(mu) + flow_bump(mu)[:, None, None] * pert,
        name="matsuno+bump",
    )
