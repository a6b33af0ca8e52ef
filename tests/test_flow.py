import itertools
import math

import numpy as np
import pytest

from indexlab.errors import EndpointInSpectrumError, ModelError
from indexlab.flow import (
    EigenSample,
    SpectralWindow,
    _match_windows,
    flow_invariance_check,
    spectral_index,
    sweep,
)
from indexlab.hermite import TruncatedBasis
from indexlab.models import (
    BranchLabel,
    constant_symbol,
    matsuno_eigenvalue,
    matsuno_symbol,
    mu_reflected,
    normal_form_symbol,
)

WINDOW_NF = SpectralWindow(-0.9, 0.9, 0.0)
WINDOW_MAT = SpectralWindow(1.1, 1.5, 1.3)


def nf_basis(m=24, eps=1.0):
    return TruncatedBasis(max_level=m, epsilon=eps, guard_levels=5)


def test_window_validation():
    with pytest.raises(ModelError):
        SpectralWindow(1.0, 0.0, 0.5)
    with pytest.raises(ModelError):
        SpectralWindow(-1.0, 1.0, 1.5)


def test_sweep_requires_enough_steps():
    with pytest.raises(ModelError):
        sweep(normal_form_symbol(), nf_basis(), WINDOW_NF, -2, 2, 8)


def test_sweep_normal_form_only_ground_branch():
    sw = sweep(normal_form_symbol(), nf_basis(), WINDOW_NF, -2.0, 2.0, 32)
    for s in sw.samples:
        # ground branch omega = mu is the only one inside (-0.9, 0.9)
        if abs(s.mu) < 0.9 - 1e-9:
            assert len(s.omegas) == 1
            assert abs(s.omegas[0] - s.mu) < 1e-10
        for w in s.omegas:
            assert WINDOW_NF.omega_min < w < WINDOW_NF.omega_max
        assert np.all(s.guard_weights <= 1e-8)


def test_sweep_constant_symbol_empty():
    sw = sweep(constant_symbol(5.0), nf_basis(), WINDOW_NF, -2.0, 2.0, 16)
    assert all(len(s.omegas) == 0 for s in sw.samples)
    assert list(sw.table_rows()) == []


def test_sweep_matsuno_window_branches():
    basis = TruncatedBasis(max_level=60, guard_levels=5)
    sw = sweep(matsuno_symbol(), basis, WINDOW_MAT, -6.0, 6.0, 48)
    kelvin = BranchLabel("kelvin")
    yanai = BranchLabel("yanai_plus")
    seen = {"kelvin": 0, "yanai": 0}
    for s in sw.samples:
        for w in s.omegas:
            d_k = abs(w - matsuno_eigenvalue(kelvin, s.mu))
            d_y = abs(w - matsuno_eigenvalue(yanai, s.mu))
            assert min(d_k, d_y) < 1e-9  # only those two branches traverse
            if d_k < d_y:
                seen["kelvin"] += 1
            else:
                seen["yanai"] += 1
    assert seen["kelvin"] > 0 and seen["yanai"] > 0


def test_spectral_index_normal_form():
    sw = sweep(normal_form_symbol(), nf_basis(), WINDOW_NF, -2.0, 2.0, 32)
    res = spectral_index(sw)
    assert res.N == 1
    assert res.method_counts == {"counting_function": 1, "tracked_crossings": 1}
    assert len(res.crossings) == 1
    c = res.crossings[0]
    assert c.direction == 1
    assert c.mu_hi - c.mu_lo <= 1e-6
    assert abs(c.mu_lo) < 1e-3  # ground branch crosses at mu = 0


def test_spectral_index_mu_reflected():
    sym = mu_reflected(normal_form_symbol())
    sw = sweep(sym, nf_basis(), WINDOW_NF, -2.0, 2.0, 32)
    res = spectral_index(sw)
    assert res.N == -1
    assert res.method_counts["tracked_crossings"] == -1


def test_spectral_index_matsuno_upper_gap():
    basis = TruncatedBasis(max_level=60, guard_levels=5)
    sw = sweep(matsuno_symbol(), basis, WINDOW_MAT, -6.0, 6.0, 48)
    res = spectral_index(sw)
    assert res.N == 2
    assert res.method_counts == {"counting_function": 2, "tracked_crossings": 2}
    mids = sorted(0.5 * (c.mu_lo + c.mu_hi) for c in res.crossings)
    assert abs(mids[0] - 0.5308) < 1e-3  # yanai_plus hits 1.3
    assert abs(mids[1] - 1.3) < 1e-3  # kelvin hits 1.3


def test_spectral_index_matsuno_lower_gap():
    basis = TruncatedBasis(max_level=60, guard_levels=5)
    window = SpectralWindow(-1.5, -1.1, -1.3)
    res = spectral_index(sweep(matsuno_symbol(1), basis, window, -6.0, 6.0, 48))
    assert res.N == 2


def test_spectral_index_constant_zero():
    res = spectral_index(
        sweep(constant_symbol(5.0), nf_basis(), WINDOW_NF, -2.0, 2.0, 16)
    )
    assert res.N == 0
    assert res.crossings == ()


def test_endpoint_in_spectrum_error():
    # at mu_max = 0 the ground branch sits exactly on omega_ref = 0
    with pytest.raises(EndpointInSpectrumError):
        sweep(normal_form_symbol(), nf_basis(), WINDOW_NF, -2.0, 0.0, 16)


def test_truncation_stability_normal_form():
    for m in (16, 32):
        sw = sweep(normal_form_symbol(), nf_basis(m), WINDOW_NF, -2.0, 2.0, 32)
        assert spectral_index(sw).N == 1


def test_grid_robustness_step_doubling():
    for steps in (32, 64):
        sw = sweep(normal_form_symbol(), nf_basis(16), WINDOW_NF, -2.0, 2.0, steps)
        assert spectral_index(sw).N == 1


@pytest.mark.parametrize("eps", [0.25, 1.0, 4.0])
def test_epsilon_independence(eps):
    # scaled windows and mu ranges keep the same integer
    scale = math.sqrt(eps)
    window = SpectralWindow(-0.9 * scale, 0.9 * scale, 0.0)
    sw = sweep(
        normal_form_symbol(eps),
        nf_basis(24, eps),
        window,
        -2.0 * scale,
        2.0 * scale,
        32,
    )
    assert spectral_index(sw).N == 1


def test_sign_antisymmetry_of_sweep_direction():
    base = spectral_index(
        sweep(normal_form_symbol(), nf_basis(16), WINDOW_NF, -2.0, 2.0, 32)
    ).N
    reflected = spectral_index(
        sweep(mu_reflected(normal_form_symbol()), nf_basis(16), WINDOW_NF, -2.0, 2.0, 32)
    ).N
    assert base == 1 and reflected == -base


def test_flow_invariance_normal_form():
    report = flow_invariance_check(
        normal_form_symbol(),
        deltas=[0.0, 0.1],
        basis=nf_basis(16),
        window=WINDOW_NF,
        mu_min=-2.0,
        mu_max=2.0,
        steps=32,
    )
    assert report.baseline_N == 1
    assert report.entries[0].gap_ok and report.entries[0].N == 1
    assert report.all_valid_match


def test_flow_invariance_zero_delta_identical_result():
    # delta = 0 leaves the symbol untouched, so the whole FlowResult
    # (crossings included) must reproduce the baseline exactly
    base = spectral_index(
        sweep(normal_form_symbol(), nf_basis(16), WINDOW_NF, -2.0, 2.0, 32)
    )
    report = flow_invariance_check(
        normal_form_symbol(),
        deltas=[0.0],
        basis=nf_basis(16),
        window=WINDOW_NF,
        mu_min=-2.0,
        mu_max=2.0,
        steps=32,
    )
    assert report.entries[0].N == base.N
    again = spectral_index(
        sweep(normal_form_symbol(), nf_basis(16), WINDOW_NF, -2.0, 2.0, 32)
    )
    assert again == base


def test_flow_invariance_matsuno():
    basis = TruncatedBasis(max_level=40, guard_levels=5)
    report = flow_invariance_check(
        matsuno_symbol(),
        deltas=[0.05],
        basis=basis,
        window=WINDOW_MAT,
        mu_min=-6.0,
        mu_max=6.0,
        steps=32,
    )
    assert report.baseline_N == 2
    assert report.all_valid_match
    assert all(e.gap_ok for e in report.entries)


def test_counting_floor_matches_spec_form():
    # the floor (window bottom minus the full spectral span) lies below the
    # whole spectrum, so the count equals a plain "below omega_ref" count
    sw = sweep(normal_form_symbol(), nf_basis(16), WINDOW_NF, -2.0, 2.0, 32)
    first = sw.samples[0]
    assert first.count_below_ref > 0


def test_table_rows_shape():
    sw = sweep(normal_form_symbol(), nf_basis(16), WINDOW_NF, -2.0, 2.0, 32)
    rows = list(sw.table_rows())
    assert rows, "window is traversed, table must not be empty"
    for mu, ordinal, omega, weight in rows:
        assert isinstance(ordinal, int)
        assert weight <= 1e-8


def window_sample(omegas):
    omegas = np.sort(np.asarray(omegas, dtype=float))
    return EigenSample(mu=0.0, omegas=omegas, guard_weights=np.zeros(len(omegas)),
                       count_below_ref=0)


def brute_force_cost(wa, wb):
    """Least total |difference| over injective maps of the smaller set."""
    if len(wa) > len(wb):
        wa, wb = wb, wa
    return min(
        (sum(abs(wa[i] - wb[j]) for i, j in enumerate(cols))
         for cols in itertools.permutations(range(len(wb)), len(wa))),
        default=0.0,
    )


@pytest.mark.parametrize("n_a,n_b", [(0, 0), (0, 3), (2, 0), (3, 3), (2, 5), (6, 4), (1, 6)])
def test_match_windows_is_minimum_cost(n_a, n_b):
    rng = np.random.default_rng(100 * n_a + n_b)
    for _ in range(25):
        a = window_sample(rng.uniform(-1.0, 1.0, n_a))
        b = window_sample(rng.uniform(-1.0, 1.0, n_b))
        pairs, un_a, un_b, worst = _match_windows(a, b)
        assert len(pairs) == min(n_a, n_b)
        rows = [i for i, _ in pairs]
        cols = [j for _, j in pairs]
        assert rows == sorted(set(rows)) and len(set(cols)) == len(cols)
        assert sorted(rows + un_a) == list(range(n_a))
        assert sorted(cols + un_b) == list(range(n_b))
        costs = [abs(a.omegas[i] - b.omegas[j]) for i, j in pairs]
        assert math.isclose(sum(costs), brute_force_cost(a.omegas, b.omegas),
                            rel_tol=1e-12, abs_tol=1e-12)
        assert worst == max(costs, default=0.0)
