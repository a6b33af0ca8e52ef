import dataclasses
import itertools
import math

import numpy as np
import pytest
from conftest import charge_sectors

from indexlab.errors import (
    EndpointInSpectrumError,
    GapCertificateError,
    MethodDisagreementError,
    ModelError,
    RefinementError,
)
from indexlab.cli import PRESETS, run_flow, run_spectrum
from indexlab.flow import (
    Crossing,
    EigenSample,
    SpectralWindow,
    SpectrumSweep,
    _ambiguity,
    _match_windows,
    _needs_split,
    flow_invariance_check,
    sector_index,
    spectral_index,
    sweep,
)
import indexlab.flow as flow
from indexlab.hermite import (
    SPURIOUS_THRESHOLD,
    AffineMatrixSymbol,
    BlockStack,
    LinearTerm,
    OperatorPieces,
    TruncatedBasis,
    quantize,
    spurious_weights,
)
from indexlab.models import (
    BranchLabel,
    constant_symbol,
    matsuno_eigenvalue,
    matsuno_symbol,
    mu_reflected,
    normal_form_symbol,
    ts2_symbol,
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
    # closed forms: yanai_plus (mu + sqrt(mu^2 + 4)) / 2 = 1.3 at
    # mu = 1.3 - 1/1.3, and kelvin omega = mu = 1.3
    yanai, kelvin = sorted(res.crossings, key=lambda c: c.mu_lo)
    assert yanai.mu_lo < 1.3 - 1 / 1.3 < yanai.mu_hi
    assert kelvin.mu_lo < 1.3 < kelvin.mu_hi
    for c in res.crossings:
        assert c.direction == 1 and c.mu_hi - c.mu_lo <= 1e-6


def test_spectral_index_matsuno_lower_gap():
    basis = TruncatedBasis(max_level=60, guard_levels=5)
    window = SpectralWindow(-1.5, -1.1, -1.3)
    res = spectral_index(sweep(matsuno_symbol(1), basis, window, -6.0, 6.0, 48))
    assert res.N == 2
    # mirror images: kelvin at mu = -1.3, yanai_minus at -(1.3 - 1/1.3)
    kelvin, yanai = sorted(res.crossings, key=lambda c: c.mu_lo)
    assert kelvin.mu_lo < -1.3 < kelvin.mu_hi
    assert yanai.mu_lo < -(1.3 - 1 / 1.3) < yanai.mu_hi
    for c in res.crossings:
        assert c.direction == 1 and c.mu_hi - c.mu_lo <= 1e-6


def test_spectral_index_constant_zero():
    res = spectral_index(
        sweep(constant_symbol(5.0), nf_basis(), WINDOW_NF, -2.0, 2.0, 16)
    )
    assert res.N == 0
    assert res.crossings == ()


@pytest.mark.parametrize("m", [16, 24, 40, 60])
@pytest.mark.parametrize("gap_band, window", [(2, WINDOW_MAT), (1, SpectralWindow(-1.5, -1.1, -1.3))],
                         ids=["upper-gap", "lower-gap"])
def test_sweep_bisects_where_a_branch_could_cross_the_whole_window(gap_band, window, m):
    # 16 steps on [-6, 6] make intervals 0.75 wide, and Kelvin (omega = mu)
    # passes through the 0.4-wide window inside one of them unseen by its end
    # samples; no eigenvalue moves faster than ||a1||_2 = 1, so every interval
    # is bisected below 0.4 and both crossings are tracked
    symbol = matsuno_symbol(gap_band)
    assert np.linalg.norm(symbol.const_term.a1, 2) == pytest.approx(1.0)
    sw = sweep(symbol, TruncatedBasis(max_level=m, guard_levels=5), window, -6.0, 6.0, 16)
    res = spectral_index(sw)
    assert res.N == 2
    assert res.method_counts == {"counting_function": 2, "tracked_crossings": 2}
    assert [c.direction for c in res.crossings] == [1, 1]
    assert max(b.mu - a.mu for a, b in zip(sw.samples, sw.samples[1:])) < window.width


def test_sweep_refuses_a_window_too_narrow_for_the_refinement_budget(monkeypatch):
    # intervals narrower than 2e-7 / ||a1||_2 over [-2, 2] would take 2e7 of
    # them, beyond 32 x 2**12: refused up front, before any solve
    monkeypatch.setattr(flow, "_window_samples", lambda *args: pytest.fail("solved"))
    with pytest.raises(RefinementError, match=r"window width 2e-07 .* needs more than 32 x 2\*\*12"):
        sweep(normal_form_symbol(), nf_basis(), SpectralWindow(-1e-7, 1e-7, 0.0), -2.0, 2.0, 32)


def test_endpoint_in_spectrum_error():
    # at mu_max = 0 the ground branch sits exactly on omega_ref = 0
    with pytest.raises(EndpointInSpectrumError):
        sweep(normal_form_symbol(), nf_basis(), WINDOW_NF, -2.0, 0.0, 16)
    with pytest.raises(EndpointInSpectrumError, match=r"endpoint mu=0\.0;"):
        sector_index(normal_form_symbol(), nf_basis(), WINDOW_NF, -2.0, 0.0)


def test_truncation_stability_normal_form():
    for m in (16, 32):
        sw = sweep(normal_form_symbol(), nf_basis(m), WINDOW_NF, -2.0, 2.0, 32)
        assert spectral_index(sw).N == 1
    # each M leaves out a different set of incomplete top blocks
    for preset, n in (("normal-form", 1), ("matsuno-upper-gap", 2), ("ts2", -2)):
        for m in (20, 30, 45, 60):
            scenario = dataclasses.replace(PRESETS[preset](), max_level=m)
            sw = sweep(scenario.symbol(), scenario.basis(), scenario.spectral_window(),
                       scenario.mu_min, scenario.mu_max, scenario.steps)
            assert spectral_index(sw).N == n


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


def test_flow_invariance_skips_a_perturbation_that_breaks_the_certificate():
    # delta = 0.5 pushes a band of the perturbed symbol inside the certified
    # gap: its certificate raises, and the entry is skipped, not a failure
    report = flow_invariance_check(normal_form_symbol(), deltas=[0.05, 0.5], basis=nf_basis(16),
                                   window=WINDOW_NF, mu_min=-2.0, mu_max=2.0, steps=32)
    assert report.baseline_N == 1
    assert [(e.delta, e.gap_ok, e.N, e.matches_baseline) for e in report.entries] == [
        (0.05, True, 1, True), (0.5, False, None, None)]
    assert report.all_valid_match


@pytest.mark.parametrize("mu_min, mu_max", [(-1.5, 2.0), (-2.0, 1.9), (-1.0, 1.0)])
def test_flow_invariance_range_must_contain_the_bump(mu_min, mu_max):
    # the bump is supported on [-2, 2]: a sweep end inside it is perturbed, so a
    # changed N would not show a failure of invariance
    with pytest.raises(ModelError, match=r"must contain the bump's \[-2, 2\]"):
        flow_invariance_check(normal_form_symbol(), deltas=[0.1], basis=nf_basis(16),
                              window=WINDOW_NF, mu_min=mu_min, mu_max=mu_max, steps=32)


@pytest.mark.parametrize("preset, n", [("normal-form", 1), ("ts2", -2)])
def test_plain_callback_sweep_keeps_the_preset_flow(preset, n):
    # the preset's own A(mu) behind a plain callback has no charge operator:
    # the sweep solves the whole operator and still gives the shipped N and
    # crossing directions
    scenario = PRESETS[preset]()
    symbol, basis, window = scenario.symbol(), scenario.basis(), scenario.spectral_window()
    plain = dataclasses.replace(symbol, const_term=lambda mu: symbol.const_term(mu))
    assert plain.charge is None and not OperatorPieces(plain, basis).charge_stacks
    results = [spectral_index(sweep(s, basis, window, scenario.mu_min, scenario.mu_max,
                                    scenario.steps)) for s in (symbol, plain)]
    assert [r.N for r in results] == [n, n]
    assert [c.direction for c in results[0].crossings] == [c.direction for c in results[1].crossings]


def test_counting_floor_matches_spec_form():
    # the count is a plain "below omega_ref" count over every kept
    # eigenvalue, the spectrum below the window included
    sw = sweep(normal_form_symbol(), nf_basis(16), WINDOW_NF, -2.0, 2.0, 32)
    first = sw.samples[0]
    assert first.count_below_ref > 0


def test_count_below_ref_includes_the_spectrum_below_the_window():
    # both branches, A = diag(-2, -1.5 + 0.1 mu), stay below the window and
    # none crosses omega_ref = 0, while the spectral span grows with mu; with
    # B = C = 0 the charge is the level, so every level is a complete block
    # and every eigenvalue is counted (13 per branch), so the count does not
    # move and both methods give N = 0
    const_term = LinearTerm(np.diag([-2.0, -1.5]).astype(complex),
                            np.diag([0.0, 0.1]).astype(complex))
    zero = np.zeros((2, 2), dtype=complex)
    symbol = AffineMatrixSymbol(dim=2, const_term=const_term, x_coeff=zero, xi_coeff=zero,
                                gap_band=2, gap_constant=0.5, name="below-window")
    sw = sweep(symbol, TruncatedBasis(max_level=12, guard_levels=3), WINDOW_NF, -2.0, 2.0, 16)
    assert [sw.samples[0].count_below_ref, sw.samples[-1].count_below_ref] == [26, 26]
    res = spectral_index(sw)
    assert res.N == 0 and res.crossings == ()
    assert res.method_counts == {"counting_function": 0, "tracked_crossings": 0}
    # A(mu) lands off the diagonal of these blocks, so the sector count
    # takes the general complex path, and gives the same
    basis = TruncatedBasis(max_level=12, guard_levels=3)
    stacks = OperatorPieces(symbol, basis).charge_stacks
    assert stacks and all(s.tridiagonal is None for s in stacks)
    assert sector_index(symbol, basis, WINDOW_NF, -2.0, 2.0) == res


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_run_flow_matches_each_interval_once(preset, monkeypatch):
    # the initial grid has `steps` intervals and each bisection replaces one
    # interval by two, so a sweep ending with n samples created
    # steps + 2 (n - steps - 1) intervals; the sweep matches each of them
    # once and spectral_index matches none.  run_flow counts every preset
    # from its charge blocks and sweeps none, so the sweep runs on the
    # preset's arguments
    matched = []
    real_match = flow._match_windows

    def spy_match(a, b):
        matched.append((a.mu, b.mu))
        return real_match(a, b)

    monkeypatch.setattr(flow, "_match_windows", spy_match)
    scenario = PRESETS[preset]()
    assert run_flow(scenario)["samples"] == 2 and matched == []
    sw = sweep(scenario.symbol(), scenario.basis(), scenario.spectral_window(),
               scenario.mu_min, scenario.mu_max, scenario.steps)
    steps, samples = scenario.steps, len(sw.samples)
    assert samples > steps + 1 or preset == "constant"
    assert len(matched) == steps + 2 * (samples - steps - 1)
    assert len(set(matched)) == len(matched)
    before = len(matched)
    spectral_index(sw)
    assert len(matched) == before


def test_table_rows_shape():
    sw = sweep(normal_form_symbol(), nf_basis(16), WINDOW_NF, -2.0, 2.0, 32)
    rows = list(sw.table_rows())
    assert rows, "window is traversed, table must not be empty"
    for mu, ordinal, omega, weight in rows:
        assert isinstance(ordinal, int)
        assert weight <= 1e-8


def window_sample(omegas, mu=0.0, count_below_ref=0):
    omegas = np.sort(np.asarray(omegas, dtype=float))
    return EigenSample(mu=mu, omegas=omegas, guard_weights=np.zeros(len(omegas)),
                       count_below_ref=count_below_ref)


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


def test_eigenvalue_appearing_mid_window_at_floor_raises_refinement_error():
    # 1e-4 apart in mu, b has an extra eigenvalue at the window centre that
    # no branch of a can reach: the reason the sweep raises RefinementError with
    a = window_sample([0.5], mu=0.0)
    b = window_sample([0.0, 0.5], mu=1e-4)
    assert _ambiguity(a, b, _match_windows(a, b), WINDOW_NF) == (
        "eigenvalue 0 appears or vanishes deep inside the window near mu=0.0001")


@pytest.mark.parametrize("omegas_a,omegas_b,split", [
    ([0.5], [0.5, 0.89], False),  # an eigenvalue enters at the window edge
    ([5e-7], [0.3], False),  # touches the reference level, no straddle
    ([0.5], [0.0, 0.5], True),  # an eigenvalue appears deep inside the window
    ([-0.1], [0.1], True),  # a matched branch straddles the reference level
])
def test_needs_split_only_for_an_ambiguous_match_or_a_straddle(omegas_a, omegas_b, split):
    a, b = window_sample(omegas_a, mu=0.0), window_sample(omegas_b, mu=0.25)
    assert _needs_split(a, b, _match_windows(a, b), WINDOW_NF) is split


def test_sweep_refuses_an_eigenvalue_appearing_mid_window():
    # the one level jumps from 5.0 to 0.5 at mu = 0.3, so bisection down to
    # the floor width still sees it appear at the window centre
    zero = np.zeros((1, 1), dtype=complex)
    symbol = AffineMatrixSymbol(
        dim=1, const_term=lambda mu: np.where(mu < 0.3, 5.0, 0.5)[:, None, None] + 0j,
        x_coeff=zero, xi_coeff=zero, gap_band=0, gap_constant=0.9, name="jump")
    with pytest.raises(RefinementError, match=r"^eigenvalue 0\.5 appears or vanishes deep "
                       r"inside the window near mu=0\.30078125$"):
        sweep(symbol, TruncatedBasis(max_level=12, guard_levels=3), WINDOW_NF, -2.0, 2.0, 16)


def test_counting_and_crossing_disagreement_raises():
    # one matched branch crosses omega_ref = 0 upward (+1), but the endpoint
    # counts below the reference level are equal, so the counting flow is 0
    sw = SpectrumSweep(
        samples=(window_sample([-0.5], mu=-1.0, count_below_ref=3),
                 window_sample([0.5], mu=1.0, count_below_ref=3)),
        window=WINDOW_NF,
        crossings=(Crossing(-1.0, 1.0, 1),),
    )
    with pytest.raises(MethodDisagreementError):
        spectral_index(sw)


#: Window eigenvalues closer than this to a window edge or the reference
#: level may fall on either side of it depending on rounding (e.g. kelvin
#: omega = mu = -1.5 at the grid point mu = -1.5 in the lower matsuno gap at
#: M = 60).
EDGE_ROUNDING = 1e-12
#: Eigenvalues closer than this form one degenerate cluster.
DEGENERATE = 1e-9


def assert_samples_match_dense_solve(sw, symbol, basis):
    """Every sample against one complex dense solve of the quantized operator.

    A sample of a symbol with a charge operator is held to the dense
    operator restricted to its complete charge sectors:
    no eigenvector enters, so ``count_below_ref`` equals that solve's count
    and every window value matches.  Any other sample is held to ``eigh`` of
    the whole operator; inside a degenerate cluster its eigenvectors are an
    arbitrary basis of the cluster, so their guard weights, and whether each
    passes the spurious filter, are too: only the eigenvalues outside
    clusters are compared and ``count_below_ref`` is held to the bounds the
    clusters allow.  Returns the mu values of the samples whose reference
    spectrum has a degenerate cluster below or in the window.
    """
    window = sw.window
    charged = symbol.charge is not None
    degenerate_mus = []
    for s in sw.samples:
        op = quantize(symbol, s.mu, basis)
        if charged:
            omegas = np.linalg.eigvalsh(charge_sectors(op.matrix, symbol.charge, basis)[0])
            weights = np.zeros_like(omegas)
        else:
            omegas, vecs = np.linalg.eigh(op.matrix)
            weights = spurious_weights(op, vecs)
        keep = weights <= SPURIOUS_THRESHOLD
        below = omegas < window.omega_ref
        in_window = (omegas > window.omega_min) & (omegas < window.omega_max)
        clusters = np.split(np.arange(len(omegas)), np.flatnonzero(np.diff(omegas) > DEGENERATE) + 1)
        shared = np.zeros(len(omegas), dtype=bool)
        for c in clusters:
            shared[c] = len(c) > 1
        if np.any((below | in_window) & shared):
            degenerate_mus.append(s.mu)
        if charged:
            # exact, up to a value within rounding of omega_ref (ts2's branch
            # on the reference level at its grid point mu = 1.5)
            on_ref = np.abs(omegas - window.omega_ref) <= EDGE_ROUNDING
            assert int(np.sum(below & ~on_ref)) <= s.count_below_ref <= int(np.sum(below | on_ref))
            assert not s.guard_weights.any()
            shared[:] = False
        else:
            sure = int(np.sum(keep & below & ~shared))
            assert sure <= s.count_below_ref <= sure + int(np.sum(below & shared))

        def clear(w):
            # off the window edges by more than rounding, and off every cluster
            off_edges = np.minimum(w - window.omega_min, window.omega_max - w) > EDGE_ROUNDING
            return off_edges & (np.abs(w[:, None] - omegas[shared][None, :]) > DEGENERATE).all(axis=1)

        ref_w, ref_g = omegas[keep & in_window], weights[keep & in_window]
        assert np.abs(s.omegas[clear(s.omegas)] - ref_w[clear(ref_w)]).max(initial=0) <= 1e-12
        assert np.abs(s.guard_weights[clear(s.omegas)] - ref_g[clear(ref_w)]).max(initial=0) <= 1e-12
        near = np.abs(omegas[:, None] - s.omegas[~clear(s.omegas)][None, :])
        assert np.all(near.min(axis=0, initial=np.inf) <= 1e-12)
    return degenerate_mus


MATSUNO_BASIS = TruncatedBasis(max_level=40, guard_levels=5)

#: symbol, basis, window, sweep over [-mu_max, mu_max], steps
SWEEP_CASES = {
    "normal-form": (normal_form_symbol(), nf_basis(16), WINDOW_NF, 2.0, 32),
    "normal-form-reflected": (normal_form_symbol(reflected=True), nf_basis(16), WINDOW_NF,
                              2.0, 32),
    "matsuno-upper-gap": (matsuno_symbol(2), MATSUNO_BASIS, WINDOW_MAT, 6.0, 48),
    "matsuno-lower-gap": (matsuno_symbol(1), MATSUNO_BASIS,
                          SpectralWindow(-1.5, -1.1, -1.3), 6.0, 48),
    "ts2": (ts2_symbol(), nf_basis(24), SpectralWindow(0.3, 0.7, 0.5), 2.0, 32),
    "constant": (constant_symbol(5.0), nf_basis(16), WINDOW_NF, 2.0, 16),
}


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_sweep_samples_match_dense_complex_solve(case):
    symbol, basis, window, mu_max, steps = SWEEP_CASES[case]
    sw = sweep(symbol, basis, window, -mu_max, mu_max, steps)
    # the spectrum is degenerate only at the symmetric point mu = 0 (matsuno
    # and ts2 zero modes, the normal-form ground and edge states)
    assert assert_samples_match_dense_solve(sw, symbol, basis) in ([], [0.0])


def test_sweep_samples_match_dense_solve_random_complex_symbol(random_affine_symbol):
    basis = nf_basis(16)
    pieces = OperatorPieces(random_affine_symbol, basis)
    assert random_affine_symbol.charge is None and not pieces.charge_stacks
    sw = sweep(random_affine_symbol, basis, WINDOW_NF, -2.0, 2.0, 32)
    assert assert_samples_match_dense_solve(sw, random_affine_symbol, basis) == []


@pytest.mark.parametrize("m", [16, 20] + [
    pytest.param(m, marks=pytest.mark.xfail(
        raises=MethodDisagreementError,
        reason="ROADMAP item 1: the whole-operator count filters every sample by guard weight"))
    for m in (14, 21, 24, 30, 40)
] + [
    pytest.param(12, marks=pytest.mark.xfail(
        raises=AssertionError,
        reason="ROADMAP item 1: N = 0 by both counts, with no error: every eigenvalue below "
               "the reference level is dropped by guard weight at both sweep ends")),
])
def test_generic_symbol_flow_is_one_at_every_cutoff(random_affine_symbol, m):
    # from M = 24 a mode near omega = -2.29, far below the window, has a guard
    # weight that crosses SPURIOUS_THRESHOLD inside the sweep: the counting
    # function changes there though no branch crosses the reference level;
    # at M = 14 and 21 the two counts disagree too, and at M = 12 both read 0
    sw = sweep(random_affine_symbol, nf_basis(m), SpectralWindow(-0.4, 0.4, 0.0), -2.0, 2.0, 32)
    result = spectral_index(sw)
    assert result.N == 1
    assert result.method_counts == {"counting_function": 1, "tracked_crossings": 1}


def bump_perturbed_matsuno_sweep(monkeypatch):
    """The bump-perturbed matsuno symbol, basis and sweep of ``flow_invariance_check``.

    The bump term is a dense Hermitian for |mu| < 2 and exactly 0 beyond; the
    perturbed ``const_term`` is a plain callback, so the sweep solves the
    whole operator at every sample.
    """
    swept = []
    real_sweep = flow.sweep

    def recording_sweep(symbol, basis, *args):
        swept.append((symbol, basis, real_sweep(symbol, basis, *args)))
        return swept[-1][2]

    monkeypatch.setattr(flow, "sweep", recording_sweep)
    basis = TruncatedBasis(max_level=30, guard_levels=5)
    report = flow_invariance_check(matsuno_symbol(), deltas=[0.05], basis=basis,
                                   window=WINDOW_MAT, mu_min=-6.0, mu_max=6.0, steps=32)
    monkeypatch.setattr(flow, "sweep", real_sweep)
    assert report.all_valid_match and len(swept) == 2
    return swept[1]


def test_sweep_samples_match_dense_solve_under_invariance_perturbation(monkeypatch):
    symbol, basis, sw = bump_perturbed_matsuno_sweep(monkeypatch)
    assert symbol.charge is None and not OperatorPieces(symbol, basis).charge_stacks
    assert any(abs(s.mu) >= 2 for s in sw.samples) and any(abs(s.mu) < 2 for s in sw.samples)
    assert assert_samples_match_dense_solve(sw, symbol, basis) == []


def test_invariance_sweep_solves_the_whole_operator_of_the_perturbed_symbol(monkeypatch):
    # matsuno's LinearTerm has a charge operator, so its baseline sweep solves
    # charge blocks; the bump-perturbed const_term is a plain callback, so
    # every sample of its sweep, inside the bump or not, solves the whole operator
    paths = {}
    real_samples = flow._window_samples

    def spy_samples(pieces, window, mus):
        paths.setdefault(pieces.symbol.name, set()).add(bool(pieces.charge_stacks))
        return real_samples(pieces, window, mus)

    monkeypatch.setattr(flow, "_window_samples", spy_samples)
    basis = TruncatedBasis(max_level=30, guard_levels=5)
    report = flow_invariance_check(matsuno_symbol(), deltas=[0.05], basis=basis,
                                   window=WINDOW_MAT, mu_min=-6.0, mu_max=6.0, steps=32)
    assert report.all_valid_match
    assert paths == {"matsuno": {True}, "matsuno+0.05P": {False}}


def depth_first_samples(symbol, basis, window, mu_min, mu_max, steps):
    """Reference refinement: bisect one interval at a time, left to right, one mu per solve."""
    pieces = OperatorPieces(symbol, basis)

    def solve(mu):
        return flow._window_samples(pieces, window, [mu])[0]

    def between(a, b):
        if b.mu - a.mu > flow.CROSSING_WIDTH and flow._needs_split(a, b, flow._match_windows(a, b), window):
            mid = solve(0.5 * (a.mu + b.mu))
            return between(a, mid) + [mid] + between(mid, b)
        return []

    grid = [solve(mu) for mu in np.linspace(mu_min, mu_max, steps + 1)]
    samples = grid[:1]
    for a, b in zip(grid, grid[1:]):
        samples += between(a, b) + [b]
    return samples


def assert_same_samples(got, expected):
    assert [s.mu for s in got] == [s.mu for s in expected]
    for g, e in zip(got, expected):
        assert np.array_equal(g.omegas, e.omegas)
        assert np.array_equal(g.guard_weights, e.guard_weights)
        assert g.count_below_ref == e.count_below_ref


@pytest.mark.parametrize("case", ["matsuno-upper-gap", "normal-form", "bump-perturbed-matsuno"])
def test_round_refinement_equals_depth_first_refinement(case, monkeypatch):
    if case == "bump-perturbed-matsuno":
        symbol, basis, _ = bump_perturbed_matsuno_sweep(monkeypatch)
        window, mu_max, steps = WINDOW_MAT, 6.0, 32
    else:
        symbol, basis, window, mu_max, steps = SWEEP_CASES[case]
    sw = sweep(symbol, basis, window, -mu_max, mu_max, steps)
    assert len(sw.samples) > steps + 1
    assert_same_samples(sw.samples,
                        depth_first_samples(symbol, basis, window, -mu_max, mu_max, steps))


def test_batched_window_samples_equal_one_mu_solves(monkeypatch):
    # a batch of charge samples (matsuno) and one of whole-operator samples
    # (the bump-perturbed matsuno), each against its one-mu solves
    symbol, basis, _ = bump_perturbed_matsuno_sweep(monkeypatch)
    mus = np.random.default_rng(3).permutation(np.linspace(-6.0, 6.0, 121))
    for pieces, charged in ((OperatorPieces(matsuno_symbol(), basis), True),
                            (OperatorPieces(symbol, basis), False)):
        assert bool(pieces.charge_stacks) == charged
        assert_same_samples(flow._window_samples(pieces, WINDOW_MAT, mus),
                            [flow._window_samples(pieces, WINDOW_MAT, [mu])[0] for mu in mus])


def test_batched_window_samples_name_a_non_hermitian_mu():
    base = matsuno_symbol()
    symbol = AffineMatrixSymbol(
        dim=3,
        const_term=lambda mu: base.const_term(mu) + 1j * np.multiply.outer(mu == 0.5, np.eye(3)),
        x_coeff=base.x_coeff, xi_coeff=base.xi_coeff,
        gap_band=2, gap_constant=0.45, name="broken",
    )
    pieces = OperatorPieces(symbol, TruncatedBasis(max_level=12, guard_levels=3))
    with pytest.raises(ModelError, match=r"const_term\(0\.5\) is not Hermitian"):
        flow._window_samples(pieces, WINDOW_MAT, [-1.0, 0.25, 0.5, 1.0])


def real_forms(stack, amats):
    """The ``(k, b, s, s)`` real forms of a ``tridiagonal`` stack's blocks at a ``(k, d, d)``
    stack of ``A(mu)``, as the sweep solves them."""
    diag = stack.diagonal(stack.to_frame(amats)).swapaxes(1, 2)
    k, b, s = diag.shape
    return stack.blocks(diag.reshape(k * b, s), np.tile(np.arange(b), k)).reshape(k, b, s, s)


def all_eigh_samples(pieces, window, mus, vectors=True):
    """Reference: every block solved by LAPACK, one mu at a time, by ``eigh`` and weighed
    on the guard levels (with ``vectors`` False, a charge block by ``eigvalsh``, in its
    real form where its stack is ``tridiagonal``, with guard weights 0.0).  Every value
    of a charge block is kept; the whole operator drops its values with guard weight
    above the threshold."""
    out, charged = [], bool(pieces.charge_stacks)
    for mu in mus:
        amat = pieces.symbol.const_stack([mu])
        parts = []
        for s in pieces.charge_stacks if charged else [pieces.whole]:
            h = s.assemble(s.to_frame(amat))
            if vectors or not charged:
                w, v = np.linalg.eigh(h)
                g = (np.abs(v) ** 2 * pieces.guard[s.index][..., None]).sum(axis=-2)
            else:
                w = np.linalg.eigvalsh(h if s.tridiagonal is None else real_forms(s, amat))
                g = np.zeros_like(w)
            parts.append((w.ravel(), g.ravel()))
        omegas, weights = (np.concatenate(p) for p in zip(*parts))
        order = np.argsort(omegas, kind="stable")
        omegas, weights = omegas[order], weights[order]
        keep = charged | (weights <= SPURIOUS_THRESHOLD)
        inside = keep & (omegas > window.omega_min) & (omegas < window.omega_max)
        out.append(EigenSample(mu=float(mu), omegas=omegas[inside], guard_weights=weights[inside],
                               count_below_ref=int(np.sum(keep & (omegas < window.omega_ref)))))
    return out


def preset_sweep(name):
    scenario = PRESETS[name]()
    symbol, basis, window = scenario.symbol(), scenario.basis(), scenario.spectral_window()
    ends = (scenario.mu_min, scenario.mu_max)
    return (OperatorPieces(symbol, basis), window,
            sweep(symbol, basis, window, *ends, scenario.steps))


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_eigenvalue_only_stacks_match_an_all_eigh_solve(preset):
    # every window value of the presets comes from a complete block off the
    # guard levels, so its measured guard weight is exactly the 0.0 the
    # sweep reports; eigenvalues from eigvalsh agree with eigh's to rounding
    pieces, window, sw = preset_sweep(preset)
    reference = all_eigh_samples(pieces, window, [s.mu for s in sw.samples])
    for got, ref in zip(sw.samples, reference):
        assert got.mu == ref.mu and got.count_below_ref == ref.count_below_ref
        assert np.array_equal(got.guard_weights, ref.guard_weights)
        assert len(got.omegas) == len(ref.omegas)
        assert np.abs(got.omegas - ref.omegas).max(initial=0.0) <= 1e-13


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_sturm_settled_samples_equal_the_lapack_only_path(preset):
    # a block settled by its Sturm counts stands for the eigvalsh values it
    # would have had: the window contents and the counts are bit for bit those
    # of solving every block by LAPACK, at every sweep mu.  The window-edge
    # samples mu = +-1.5 of the matsuno gaps (the Kelvin branch omega = mu on
    # the edge) are among them; that branch is the 1x1 q = -1 block, whose
    # eigenvalue is its entry
    pieces, window, sw = preset_sweep(preset)
    mus = [s.mu for s in sw.samples]
    reference = all_eigh_samples(pieces, window, mus, vectors=False)
    assert_same_samples(sw.samples, reference)
    assert_same_samples(flow._window_samples(pieces, window, mus), reference)
    if preset.startswith("matsuno-"):
        edge = window.omega_max if preset == "matsuno-upper-gap" else window.omega_min
        assert math.copysign(1.5, edge) in mus


@pytest.mark.parametrize("preset", ["matsuno", "normal-form", "ts2"])
def test_blocks_with_an_eigenvalue_ulps_from_a_window_edge_reach_lapack(preset):
    # windows whose edges sit a few ulps either side of an eigvalsh value of a
    # 2x2 or 3x3 eigenvalue-only block: only the margin tau decides, against
    # rounding, whether that value is inside, so each such block must be solved
    scenario = PRESETS[preset]()
    symbol, basis = scenario.symbol(), scenario.basis()
    pieces = OperatorPieces(symbol, basis)
    mus = np.linspace(scenario.mu_min, scenario.mu_max, 7)
    amats = pieces.symbol.const_stack(mus)
    values = [np.linalg.eigvalsh(real_forms(s, amats))[:, :12].ravel()
              for s in pieces.charge_stacks if s.tridiagonal is not None and s.index.shape[1] > 1]
    values = np.concatenate(values)
    for value in values[:: max(1, len(values) // 8)]:
        for ulps in (1, 2):
            up, down = value, value
            for _ in range(ulps):
                up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
            for window in (SpectralWindow(value - 0.25, up, value - 0.125),
                           SpectralWindow(down, value + 0.25, value + 0.125),
                           SpectralWindow(up, value + 0.25, value + 0.125),
                           SpectralWindow(value - 0.25, down, value - 0.125)):
                assert_same_samples(flow._window_samples(pieces, window, mus),
                                    all_eigh_samples(pieces, window, mus, vectors=False))


def random_tridiagonals(rng, size, count, scale):
    """Diagonals (size, count) and squared subdiagonals (size - 1, count), a third
    of the subdiagonal entries exactly zero."""
    diag = scale * rng.uniform(-1.0, 1.0, (size, count))
    off = scale * rng.uniform(-1.0, 1.0, (size - 1, count))
    off[rng.uniform(size=off.shape) < 1 / 3] = 0.0
    return diag, off**2


def tridiagonal_eigenvalues(diag, off_sq):
    """eigvalsh of each (count,) matrix with subdiagonal +sqrt(off_sq)."""
    size, count = diag.shape
    t = np.zeros((count, size, size))
    t[:, range(size), range(size)] = diag.T
    t[:, range(1, size), range(size - 1)] = np.sqrt(off_sq).T
    t[:, range(size - 1), range(1, size)] = np.sqrt(off_sq).T
    return np.linalg.eigvalsh(t)


@pytest.mark.parametrize("size", [1, 2, 3])
@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sturm_count_equals_the_eigvalsh_count(size, scale, seed):
    rng = np.random.default_rng(seed)
    diag, off_sq = random_tridiagonals(rng, size, 200, scale)
    eigs = tridiagonal_eigenvalues(diag, off_sq)
    # shifts: random, every diagonal entry (exact zero pivots), every
    # eigenvalue, and the eigenvalues of the leading 1x1 and 2x2 blocks
    # (a zero pivot further down)
    leading = [diag[:1]] + ([tridiagonal_eigenvalues(diag[:2], off_sq[:1]).T] if size == 3 else [])
    shifts = np.concatenate([scale * rng.uniform(-2.5, 2.5, (4, 200)), diag, eigs.T, *leading])
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        counts = flow._sturm_count(diag, off_sq, shifts)
    assert counts.shape == shifts.shape
    # both counts are exact for a matrix within rounding of T: between the
    # eigenvalues farther than that below and the ones not farther above
    rounding = 1e-13 * np.abs(eigs).max(axis=1)
    below = (eigs[None] < shifts[..., None] - rounding[:, None]).sum(axis=-1)
    upto = (eigs[None] <= shifts[..., None] + rounding[:, None]).sum(axis=-1)
    assert np.all((below <= counts) & (counts <= upto))
    clear = below == upto
    assert clear[:4].all()  # the random shifts
    assert np.array_equal(counts[clear], below[clear])


def test_sturm_count_of_exact_zero_pivots():
    # diag(1, 2, 3) shifted by 2: a zero pivot with a zero subdiagonal after
    # it (0 / 0 without the pivmin guard), and one with a nonzero subdiagonal
    # after it (division by zero)
    diag = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    off_sq = np.array([[0.0, 1.0], [0.0, 1.0]])
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        counts = flow._sturm_count(diag, off_sq, np.array([2.0, 0.0]))
    # the second matrix is [[0, 1, 0], [1, 0, 1], [0, 1, 0]]: eigenvalues
    # -sqrt(2), 0, sqrt(2), the shift 0 is one of them
    assert counts[0] in (1, 2) and counts[1] in (1, 2)
    assert np.array_equal(flow._sturm_count(diag, off_sq, np.array([[2.5, 0.5], [1.5, -0.5]])),
                          [[2, 2], [1, 1]])


def test_samples_without_charge_blocks_equal_an_all_eigh_solve(monkeypatch, random_affine_symbol):
    # no charge operator fits the random symbol, and the bump-perturbed
    # matsuno is a plain callback with none: every sample solves the whole
    # operator by eigh, bit for bit as before
    basis = nf_basis(16)
    pieces = OperatorPieces(random_affine_symbol, basis)
    sw = sweep(random_affine_symbol, basis, WINDOW_NF, -2.0, 2.0, 32)
    assert_same_samples(sw.samples, all_eigh_samples(pieces, WINDOW_NF, [s.mu for s in sw.samples]))
    symbol, basis, sw = bump_perturbed_matsuno_sweep(monkeypatch)
    pieces = OperatorPieces(symbol, basis)
    assert not pieces.charge_stacks
    assert_same_samples(sw.samples, all_eigh_samples(pieces, WINDOW_MAT, [s.mu for s in sw.samples]))


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_charge_sweep_calls_no_eigh(preset, monkeypatch):
    # each stack solve (a (k, b, s, s) array from assemble, or the (n, s, s)
    # blocks of a tridiagonal stack that its Sturm counts leave to LAPACK; the
    # d x d D of the pieces is solved too) is handed the array built just
    # before it
    built, solved = [], {"eigh": [], "eigvalsh": []}
    real_assemble, real_blocks = BlockStack.assemble, BlockStack.blocks
    real_eigh, real_eigvalsh = np.linalg.eigh, np.linalg.eigvalsh

    def spy_assemble(stack, framed):
        built.append((stack, real_assemble(stack, framed)))
        return built[-1][1]

    def spy_blocks(stack, diag, which):
        built.append((stack, real_blocks(stack, diag, which)))
        return built[-1][1]

    def spy(name, real):
        def solve(h):
            if h.ndim < 3:
                return real(h)
            stack, last = built[-1]
            assert h is last
            solved[name].append((stack, h.shape))
            return real(h)
        return solve

    monkeypatch.setattr(BlockStack, "assemble", spy_assemble)
    monkeypatch.setattr(BlockStack, "blocks", spy_blocks)
    monkeypatch.setattr(np.linalg, "eigh", spy("eigh", real_eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", spy("eigvalsh", real_eigvalsh))
    scenario = PRESETS[preset]()
    symbol, basis = scenario.symbol(), scenario.basis()
    sw = sweep(symbol, basis, scenario.spectral_window(), scenario.mu_min, scenario.mu_max,
               scenario.steps)
    pieces = OperatorPieces(symbol, basis)
    assert pieces.charge_stacks
    # every charge block is complete, so none has a guard weight to measure:
    # no stack is solved for eigenvectors, and only charge stacks for values
    assert solved["eigh"] == []
    assert all(s.frame is not None for s, _ in solved["eigvalsh"])
    if preset == "matsuno":
        # of the blocks (61 per sample), only those whose Sturm counts leave
        # an eigenvalue near the window reach LAPACK (here the 2x2 q = 0
        # block alone); 1x1 blocks never do
        assert {s.index.shape for s, _ in solved["eigvalsh"]} == {(1, 2)}
        lapack_blocks = sum(shape[0] for _, shape in solved["eigvalsh"])
        assert len(sw.samples) == 195 and 0 < lapack_blocks < 100


def two_normal_forms(a0, name):
    """Two normal forms on components (0, 1) and (2, 3), with ``A(mu) = a0 + mu a1``
    for the normal form's ``a1`` on each pair of components."""
    nf = normal_form_symbol()

    def pair(m):
        out = np.zeros((4, 4), dtype=complex)
        out[:2, :2] = out[2:, 2:] = m
        return out

    return AffineMatrixSymbol(
        dim=4, const_term=LinearTerm(a0, pair(nf.const_term.a1)),
        x_coeff=pair(nf.x_coeff), xi_coeff=pair(nf.xi_coeff),
        gap_band=2, gap_constant=0.5, name=name,
    )


def coupled_normal_forms():
    """Two normal forms on components (0, 1) and (2, 3), coupled by ``A(mu)``
    entries 0.3i between components 0 and 2 and 0.2 between 1 and 3.

    ``D`` is degenerate (-1/2 twice, +1/2 twice), so each charge block holds
    both copies at the same levels; x and xi couple 0-1 and 2-3, the
    coupling 0-2 and 1-3, and the 4-cycle has a non-real product.
    """
    coupling = np.zeros((4, 4), dtype=complex)
    coupling[0, 2], coupling[1, 3] = 0.3j, 0.2
    return two_normal_forms(coupling + coupling.conj().T, "coupled-normal-forms")


@pytest.mark.parametrize("shift,ref", [(0.0, 0.0), (0.1, 0.05)])
def test_direct_sum_of_normal_forms_flows_twice(shift, ref):
    # the second copy is shifted by `shift`; with 0 every window level is
    # double, and a repeated level counts once in the local spacing, so the
    # degenerate sum is matched like the split one and both copies cross
    symbol = two_normal_forms(np.diag([0.0, 0.0, shift, shift]).astype(complex),
                              "doubled-normal-form")
    assert symbol.charge is not None
    sw = sweep(symbol, nf_basis(24), SpectralWindow(-0.9, 0.9, ref), -2.0, 2.0, 32)
    assert spectral_index(sw).N == 2
    assert [c.direction for c in sw.crossings] == [1, 1]


def test_cyclic_charge_blocks_keep_the_complex_path():
    symbol, basis = coupled_normal_forms(), nf_basis(16)
    pieces = OperatorPieces(symbol, basis)
    assert np.abs(symbol.charge[0] - [-0.5, -0.5, 0.5, 0.5]).max() <= 1e-12
    amats = pieces.symbol.const_stack([-2.0, 0.5, 2.0])
    assert all(s.tridiagonal is None for s in pieces.charge_stacks)
    # a 4x4 block has the 4-cycle, and its moduli would give other eigenvalues
    (block,) = (s for s in pieces.charge_stacks if s.index.shape[1] == 4)
    h = block.assemble(block.to_frame(amats))
    assert h.dtype == np.complex128
    moduli = np.abs(h[1, 0])
    moduli[range(4), range(4)] = h[1, 0].diagonal().real
    assert np.abs(np.linalg.eigvalsh(moduli) - np.linalg.eigvalsh(h[1, 0])).max() > 1e-3
    sw = sweep(symbol, basis, WINDOW_NF, -2.0, 2.0, 32)
    assert spectral_index(sw).N == 2
    # two branches of different charge blocks cross on the grid, mu - 0.2 and
    # 0.3 - mu at mu = 0.25 and their mirror images at mu = -0.25; the second
    # is a truncation artifact of an incomplete block, so the kept spectrum
    # is not degenerate there
    for mu in (-0.25, 0.25):
        matrix = quantize(symbol, mu, basis).matrix
        kept, artifacts = (np.linalg.eigvalsh(h) for h in charge_sectors(matrix, symbol.charge, basis))
        assert np.abs(kept[:, None] - artifacts[None, :]).min() <= 1e-9
    assert assert_samples_match_dense_solve(sw, symbol, basis) == []


# ---------------------------------------------------------------------------
# the sector count: one pencil solve per charge block
# ---------------------------------------------------------------------------

KELVIN_YANAI = 1.3 - 1 / 1.3  # the Yanai branch (mu + sqrt(mu**2 + 4)) / 2 at 1.3

#: preset -> (mu, direction, q) of each crossing, in closed form
CLOSED_FORM_CROSSINGS = {
    "normal-form": [(0.0, 1, -0.5)],
    "matsuno": [(KELVIN_YANAI, 1, 0.0), (1.3, 1, -1.0)],
    "matsuno-upper-gap": [(KELVIN_YANAI, 1, 0.0), (1.3, 1, -1.0)],
    "matsuno-lower-gap": [(-1.3, 1, -1.0), (-KELVIN_YANAI, 1, 0.0)],
    "ts2": [(-0.5, -1, -1.0), (1.5, -1, 0.0)],
    "constant": [],
}


def preset_args(name):
    """(symbol, basis, window, mu_min, mu_max, steps) of a preset."""
    s = PRESETS[name]()
    return s.symbol(), s.basis(), s.spectral_window(), s.mu_min, s.mu_max, s.steps


def preset_sector_index(preset):
    return sector_index(*preset_args(preset)[:5])


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_sector_index_crossings_at_the_closed_forms(preset):
    result = preset_sector_index(preset)
    expected = CLOSED_FORM_CROSSINGS[preset]
    assert result.N == sum(d for _, d, _ in expected)
    assert result.method_counts == {"counting_function": result.N, "tracked_crossings": result.N}
    assert [(c.direction, c.sector) for c in result.crossings] == [(d, q) for _, d, q in expected]
    for c, (mu, _, _) in zip(result.crossings, expected):
        assert c.mu_lo == c.mu_hi and abs(c.mu_lo - mu) <= 1e-12


#: name -> (symbol, basis, window, mu_min, mu_max, steps) of each cross-check
PENCIL_CASES = {
    **{f"preset-{name}": preset_args(name) for name in sorted(PRESETS)},
    "normal-form-reflected": (normal_form_symbol(reflected=True), nf_basis(24), WINDOW_NF,
                              -2.0, 2.0, 32),
    "normal-form-eps-0.5": (normal_form_symbol(0.5), nf_basis(24, 0.5), WINDOW_NF, -2.0, 2.0, 32),
    **{f"matsuno-upper-gap-M{m}": (matsuno_symbol(2), TruncatedBasis(max_level=m, guard_levels=5),
                                   WINDOW_MAT, -6.0, 6.0, 48) for m in (16, 24, 40, 90)},
    "coupled-normal-forms": (coupled_normal_forms(), nf_basis(16), WINDOW_NF, -2.0, 2.0, 32),
}


@pytest.mark.parametrize("case", sorted(PENCIL_CASES))
def test_sector_index_agrees_with_the_sweep(case):
    # the same N, the same directions in the same order, and each pencil
    # root inside the bracket the sweep recorded for it
    symbol, basis, window, mu_min, mu_max, steps = PENCIL_CASES[case]
    swept = spectral_index(sweep(symbol, basis, window, mu_min, mu_max, steps))
    pencil = sector_index(symbol, basis, window, mu_min, mu_max)
    assert pencil.N == swept.N
    assert pencil.method_counts == swept.method_counts
    assert [c.direction for c in pencil.crossings] == [c.direction for c in swept.crossings]
    for root, bracket in zip(pencil.crossings, swept.crossings):
        assert root.mu_lo == root.mu_hi and bracket.mu_lo <= root.mu_lo <= bracket.mu_hi
        assert bracket.sector is None and root.sector is not None


@pytest.mark.parametrize("t", [-1e-6, 0.0, 1e-12, 1e-6])
def test_sector_index_near_a_tangency(t):
    # at omega_ref = sqrt(2) + t the q = 0.5 branch sqrt(mu**2 + 2) of the
    # normal form touches (t = 0) or crosses (t > 0) the reference level
    # near mu = 0, and the ground branch omega = mu crosses it at mu = omega_ref.
    # N is 1 every time; t > 0 adds a -1/+1 pair at -+sqrt(omega_ref**2 - 2);
    # only an exactly tangent root may be refused
    ref = 2**0.5 + t
    window = SpectralWindow(ref - 0.1, ref + 0.1, ref)
    try:
        result = sector_index(normal_form_symbol(), nf_basis(24), window, -2.0, 2.0)
    except RefinementError as exc:
        assert t == 0.0 and str(exc).startswith("tangent root in sector q=0.5 at mu=")
        return
    assert result.N == 1
    expected = [(ref, 1, -0.5)]
    if t > 0:
        root = math.sqrt(ref**2 - 2)
        expected = [(-root, -1, 0.5), (root, 1, 0.5)] + expected
    assert [(c.direction, c.sector) for c in result.crossings] == [(d, q) for _, d, q in expected]
    for c, (mu, _, _) in zip(result.crossings, expected):
        assert abs(c.mu_lo - mu) <= 1e-9 * max(1.0, abs(mu))


def test_sector_index_refuses_a_multiple_root():
    # two copies of the normal form in one charge block: both ground
    # branches omega = mu cross omega_ref = 0 at mu = 0, a double root
    symbol = two_normal_forms(np.zeros((4, 4), dtype=complex), "doubled-normal-form")
    with pytest.raises(RefinementError, match=r"^multiple root in sector q=-0\.5 at mu=0: "):
        sector_index(symbol, nf_basis(24), WINDOW_NF, -2.0, 2.0)


def test_sector_index_refuses_roots_that_disagree_with_the_counts(monkeypatch):
    # the Kelvin crossing (q = -1) left out of the roots
    real = flow._pencil_crossings
    monkeypatch.setattr(flow, "_pencil_crossings",
                        lambda *args: [c for c in real(*args) if c.sector != -1.0])
    with pytest.raises(MethodDisagreementError,
                       match=r"^counting-function flow 2 != tracked crossings 1$"):
        preset_sector_index("matsuno-upper-gap")


def test_sector_index_needs_a_charge_operator(random_affine_symbol):
    with pytest.raises(ModelError, match="has no charge operator"):
        sector_index(random_affine_symbol, nf_basis(16), WINDOW_NF, -2.0, 2.0)


def test_flow_invariance_bump_carries_a_slope_bound():
    # Kelvin (omega = mu) passes the 0.4-wide window inside one 0.75-wide
    # interval; the perturbed term's bound ||a1||_2 + |delta| max|g'| makes
    # the sweep bisect it, as it does for the unperturbed LinearTerm
    report = flow_invariance_check(matsuno_symbol(), [0.05], MATSUNO_BASIS, WINDOW_MAT,
                                   -6.0, 6.0, steps=16)
    assert report.baseline_N == 2
    assert [(e.delta, e.gap_ok, e.N, e.matches_baseline) for e in report.entries] == [
        (0.05, True, 2, True)]


def test_bump_slope_bounds_the_bump_derivative(monkeypatch):
    mu = np.linspace(-2.0, 2.0, 400_001)
    slopes = np.abs(np.diff(flow._bump(mu)) / np.diff(mu))
    assert slopes.max() <= flow._bump_slope() <= slopes.max() * (1 + 1e-6)
    # the perturbed term carries ||a1||_2 + |delta| max|g'| where the symbol's
    # term has a bound, and no bound where it has none
    terms = []

    def skip(symbol):
        terms.append(symbol.const_term)
        raise GapCertificateError("skipped")

    monkeypatch.setattr(flow, "sampled_gap_certificate", skip)
    flow_invariance_check(matsuno_symbol(), [-0.05], MATSUNO_BASIS, WINDOW_MAT, -6.0, 6.0, 16)
    term = normal_form_symbol().const_term
    plain = dataclasses.replace(normal_form_symbol(), const_term=lambda mu: term(mu))
    flow_invariance_check(plain, [0.05], nf_basis(16), WINDOW_NF, -2.0, 2.0)
    assert terms[0].slope == 1.0 + 0.05 * flow._bump_slope()
    assert not hasattr(terms[1], "slope")


@pytest.mark.parametrize("preset, window, n, crossings", [
    ("matsuno", (-1.5, 1.5, 1.3), 2, [KELVIN_YANAI, 1.3]),
    ("ts2", (-0.9, 0.9, 0.5), -2, [-0.5, 1.5]),
])
def test_run_flow_counts_windows_the_sweep_refuses(preset, window, n, crossings):
    # the window holds a dense cluster of levels, so the sweep's local spacing
    # refuses the match; the charge blocks' count reads no spacing
    scenario = dataclasses.replace(PRESETS[preset](), window=window)
    report = run_flow(scenario)
    assert (report["N"], report["method_counts"]) == (
        n, {"counting_function": n, "tracked_crossings": n})
    assert [c["direction"] for c in report["crossings"]] == [int(math.copysign(1, n))] * 2
    for c, mu in zip(report["crossings"], crossings):
        assert c["mu_lo"] == c["mu_hi"] and abs(c["mu_lo"] - mu) <= 1e-12
    with pytest.raises(RefinementError, match="branch matching ambiguous"):
        run_spectrum(scenario)


def test_flow_report_does_not_depend_on_the_last_bit_of_a_window_edge():
    # the sweep read 97, 97, 94, 94 and 94 samples at these five edges
    scenario = PRESETS["matsuno-upper-gap"]()
    lo, hi, ref = scenario.window
    edges = [hi]
    for _ in range(2):
        edges = [np.nextafter(edges[0], -np.inf), *edges, np.nextafter(edges[-1], np.inf)]
    reports = []
    for edge in edges:
        report = run_flow(dataclasses.replace(scenario, window=(lo, float(edge), ref)))
        del report["timings"], report["scenario"]["window"]
        reports.append(report)
    assert len({hi, *map(float, edges)}) == 5
    assert all(r == reports[0] for r in reports)
