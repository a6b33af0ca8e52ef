"""Each input check that refuses a malformed argument: its error class and message."""

import functools

import numpy as np
import pytest

from indexlab.cli import Scenario, load_preset, run_chern
from indexlab.errors import ModelError
from indexlab.hermite import AffineMatrixSymbol, LinearTerm
from indexlab.models import (
    BranchLabel,
    matsuno_eigenvalue,
    matsuno_eigenvalues,
    matsuno_symbol,
    normal_form_eigenvalue,
    normal_form_symbol,
    ts2_symbol,
)
from indexlab.topology import (
    SphereGrid,
    SphereSpectrum,
    chern_clutching,
    chern_section_zeros,
    winding_number,
)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def symbol(**fields):
    """A two-band symbol with ``fields`` in place of the normal form's."""
    base = dict(dim=2, const_term=LinearTerm(0.0, np.diag([-1.0, 1.0]).astype(complex)),
                x_coeff=PAULI_X, xi_coeff=PAULI_X, gap_band=1, gap_constant=0.9)
    return AffineMatrixSymbol(**{**base, **fields})


@functools.cache
def band_field():
    """Band 1 of the normal form on the 16-grid."""
    return SphereSpectrum.build(normal_form_symbol(), SphereGrid.build(16)).field([1])


REFUSALS = {
    "symbol-dim-0": (lambda: symbol(dim=0), "dim must be >= 1"),
    "symbol-gap-band-above-dim": (lambda: symbol(gap_band=3), r"gap_band must lie in 0\.\.dim=2"),
    "symbol-gap-constant-0": (lambda: symbol(gap_constant=0.0), "gap_constant must be positive"),
    "symbol-x-coeff-3x3": (lambda: symbol(x_coeff=np.eye(3)), "x_coeff must be 2x2"),
    "symbol-xi-coeff-non-hermitian": (
        lambda: symbol(xi_coeff=np.array([[0, 1], [0, 0]], dtype=complex)),
        "xi_coeff must be Hermitian"),
    "normal-form-epsilon-0": (lambda: normal_form_symbol(epsilon=0), "epsilon must be positive"),
    "matsuno-gap-band-3": (lambda: matsuno_symbol(3), "matsuno gap_band must be 1 or 2"),
    "ts2-gap-band-0": (lambda: ts2_symbol(0), "ts2 gap_band must be 1 or 2"),
    "normal-form-eigenvalue-epsilon-0": (
        lambda: normal_form_eigenvalue(BranchLabel("normal_plus", 1), 0.0, 0.0),
        "epsilon must be positive"),
    "normal-form-eigenvalue-matsuno-label": (
        lambda: normal_form_eigenvalue(BranchLabel("kelvin"), 0.0, 1.0),
        "kelvin is not a normal-form branch"),
    "matsuno-eigenvalue-normal-form-label": (
        lambda: matsuno_eigenvalue(BranchLabel("normal_plus", 1), 0.0),
        "normal_plus is not an equatorial-wave branch"),
    "matsuno-eigenvalues-level-minus-1": (
        lambda: matsuno_eigenvalues(-1, 0.0), "level must be >= 0"),
    "phase-field-wrong-length": (
        lambda: band_field().with_phase_field(np.ones(3)), "need one phase per grid vertex"),
    "winding-number-2-samples": (
        lambda: winding_number([1.0, 1j]), "need at least 3 samples on the loop"),
    "clutching-8-equator-samples": (
        lambda: chern_clutching(band_field(), equator_samples=8),
        "need at least 16 equator samples"),
    "section-zeros-reference-of-dim-3": (
        lambda: chern_section_zeros(band_field(), [1.0, 0.0, 0.0]),
        "reference vector has wrong dimension"),
    "scenario-unknown-model": (
        lambda: Scenario(name="x", model="bogus"), "unknown model 'bogus'"),
    "chern-unknown-method": (
        lambda: run_chern(load_preset("normal-form"), "bogus"), "unknown chern method 'bogus'"),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_refusal_names_its_cause(case):
    call, message = REFUSALS[case]
    with pytest.raises(ModelError, match=message) as err:
        call()
    assert err.type is ModelError
