import numpy as np
import pytest

from indexlab.topology import SphereGrid


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
