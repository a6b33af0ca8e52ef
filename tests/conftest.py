import dataclasses

import numpy as np
import pytest

from indexlab.flow import _bump as flow_bump
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
