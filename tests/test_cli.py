import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from indexlab.cli import (
    PRESETS,
    Scenario,
    load_preset,
    main,
    run_chern,
    run_flow,
    run_spectrum,
    run_verify,
)
import indexlab
from indexlab.errors import ModelError


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_presets_build_valid_scenarios():
    for name in PRESETS:
        scenario = load_preset(name)
        scenario.symbol().validate()
        scenario.basis()
        scenario.spectral_window()


def test_unknown_preset_raises():
    with pytest.raises(ModelError):
        load_preset("nope")


def test_scenario_json_round_trip(tmp_path):
    scenario = load_preset("normal-form")
    data = scenario.to_dict()
    again = Scenario.from_dict(json.loads(json.dumps(data)))
    assert again == scenario


def test_scenario_rejects_unknown_fields():
    data = load_preset("constant").to_dict()
    data["bogus"] = 1
    with pytest.raises(ModelError):
        Scenario.from_dict(data)


def test_scenario_rejects_bad_schema():
    data = load_preset("constant").to_dict()
    data["schema"] = "indexlab.scenario/999"
    with pytest.raises(ModelError):
        Scenario.from_dict(data)


def test_verify_constant_pass(tmp_path):
    out = tmp_path / "report.json"
    rc = main(["verify", "--preset", "constant", "--out", str(out)])
    assert rc == 0
    report = read_json(out)
    assert report["verdict"] == "PASS"
    assert report["flow"]["N"] == 0
    assert report["chern"]["C"] == 0
    # verdict is recomputable from the stored fields
    assert (report["flow"]["N"] == report["chern"]["C"]) == (
        report["verdict"] == "PASS"
    )


def test_verify_corrupted_gap_band_exits_nonzero(tmp_path):
    scenario = load_preset("normal-form")
    scenario = dataclasses.replace(
        scenario, model_params={"epsilon": 1.0, "gap_band_override": 2}
    )
    path = tmp_path / "corrupt.json"
    path.write_text(json.dumps(scenario.to_dict()))
    rc = main(["verify", "--scenario", str(path), "--out", str(tmp_path / "r.json")])
    assert rc == 1


def strict_json(path):
    """The report at ``path`` read by an RFC 8259 parser: NaN and Infinity are refused."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    with open(path) as fh:
        return json.load(fh, parse_constant=refuse)


def test_band_group_without_a_neighbouring_band_reports_a_null_gap(tmp_path):
    # the one band of a scalar symbol has no band beside it: its smallest
    # band gap is no number, written as null rather than as Infinity
    path = tmp_path / "c1.json"
    path.write_text(json.dumps({"name": "c1", "model": "constant",
                                "model_params": {"value": 5.0, "dim": 1}, "chern_bands": [1]}))
    out = tmp_path / "chern.json"
    assert main(["chern", "--scenario", str(path), "--method", "curvature", "--out", str(out)]) == 0
    (band,) = strict_json(out)["bands"]
    assert band["reports"]["curvature"]["diagnostics"]["min_band_gap"] is None
    assert band["reports"]["curvature"]["C"] == 0


def test_reports_refuse_non_finite_values():
    import indexlab.cli as cli

    with pytest.raises(ValueError):
        cli._to_json({"value": math.inf})
    with pytest.raises(ValueError):
        cli._to_json({"value": [math.nan]})


def test_usage_error_exit_code():
    assert main(["verify"]) == 2  # missing --preset/--scenario
    assert main(["no-such-command"]) == 2


def test_missing_scenario_file_exit_code(tmp_path):
    rc = main(["flow", "--scenario", str(tmp_path / "absent.json")])
    assert rc == 1


def test_spectrum_empty_window_header_only(tmp_path):
    out = tmp_path / "spectrum.csv"
    rc = main(["spectrum", "--preset", "constant", "--format", "csv", "--out", str(out)])
    assert rc == 0
    assert out.read_text() == "mu,branch,omega,spurious_weight\n"


def test_spectrum_normal_form_wide_window(tmp_path):
    scenario = dataclasses.replace(
        load_preset("normal-form"),
        window=(-3.3, 3.3, 0.0),
        mu_min=-1.0,
        mu_max=1.0,
        steps=16,
        max_level=16,
    )
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(scenario.to_dict()))
    out = tmp_path / "spectrum.csv"
    rc = main(["spectrum", "--scenario", str(path), "--format", "csv", "--out", str(out)])
    assert rc == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    at_zero = sorted(float(r[2]) for r in rows if float(r[0]) == 0.0)
    for target in (0.0, math.sqrt(2), -math.sqrt(2), 2.0, -2.0):
        assert min(abs(w - target) for w in at_zero) < 1e-10


def test_spectrum_emits_branch_table(tmp_path):
    out = tmp_path / "mat.csv"
    rc = main(
        ["spectrum", "--preset", "matsuno-upper-gap", "--format", "csv",
         "--out", str(out), "--levels", "40"]
    )
    assert rc == 0
    branches = (tmp_path / "mat_branches.csv").read_text().splitlines()
    assert branches[0] == "mu,family,level,omega"
    kelvin = [r for r in branches[1:] if r.split(",")[1] == "kelvin"]
    for row in kelvin:
        mu, _, _, omega = row.split(",")
        assert float(mu) == float(omega)  # Kelvin branch is exactly omega = mu


def test_flow_json_report(tmp_path):
    out = tmp_path / "flow.json"
    rc = main(["flow", "--preset", "normal-form", "--out", str(out), "--levels", "16"])
    assert rc == 0
    report = read_json(out)
    assert report["N"] == 1
    assert report["method_counts"]["counting_function"] == 1
    assert report["method_counts"]["tracked_crossings"] == 1
    assert len(report["crossings"]) == 1


def test_chern_reports_match_spec_examples(tmp_path):
    out = tmp_path / "chern.json"
    rc = main(
        ["chern", "--preset", "normal-form", "--method", "clutching",
         "--out", str(out), "--grid", "32"]
    )
    assert rc == 0
    assert read_json(out)["C"] == [1, -1]

    rc = main(
        ["chern", "--preset", "ts2", "--method", "curvature",
         "--out", str(out), "--grid", "32"]
    )
    assert rc == 0
    assert read_json(out)["C"] == [2]

    rc = main(
        ["chern", "--preset", "matsuno-upper-gap", "--method", "all",
         "--out", str(out), "--grid", "32"]
    )
    assert rc == 0
    report = read_json(out)
    assert report["C"] == [2, 0, -2]
    assert report["agreement"] is True


def test_chern_csv_format(tmp_path):
    out = tmp_path / "chern.csv"
    rc = main(
        ["chern", "--preset", "normal-form", "--method", "curvature",
         "--format", "csv", "--out", str(out), "--grid", "32"]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "band,method,C,raw_value,residual"
    assert lines[1].startswith("1,curvature,1,")
    assert lines[2].startswith("2,curvature,-1,")


def test_report_determinism_excluding_timings(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    grid_args = ["--grid", "32", "--levels", "16"]
    assert main(["verify", "--preset", "normal-form", "--out", str(out1), *grid_args]) == 0
    assert main(["verify", "--preset", "normal-form", "--out", str(out2), *grid_args]) == 0
    a, b = read_json(out1), read_json(out2)
    a.pop("timings")
    b.pop("timings")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_grid_and_levels_overrides(tmp_path):
    out = tmp_path / "c.json"
    rc = main(
        ["chern", "--preset", "normal-form", "--method", "curvature",
         "--grid", "16", "--out", str(out)]
    )
    assert rc == 0
    report = read_json(out)
    assert report["scenario"]["grid_n"] == 16
    assert report["bands"][0]["reports"]["curvature"]["diagnostics"]["grid_n"] == 16


def test_run_verify_objects_directly():
    scenario = dataclasses.replace(
        load_preset("normal-form"), grid_n=16, max_level=16
    )
    result, payload = run_verify(scenario)
    assert result.passed
    assert result.flow.N == 1
    assert result.subgap_chern == 1
    assert abs(result.subgap_raw - 1.0) < 1e-6
    assert payload["verdict"] == "PASS"


@pytest.mark.parametrize("preset", ["matsuno-upper-gap", "ts2"])
def test_run_verify_takes_the_subgap_index_from_the_rank_1_complement(monkeypatch, preset):
    # bands 1..2 lie below the gap and band 3 above: verify computes the
    # curvature of band 3 alone and negates it
    import indexlab.topology as topology
    from indexlab.topology import SphereGrid, SphereSpectrum, chern_curvature

    ranks = []
    monkeypatch.setattr(topology, "chern_curvature",
                        lambda fld, *a: ranks.append(fld.rank) or chern_curvature(fld, *a))
    scenario = load_preset(preset)
    result, payload = run_verify(scenario)
    assert ranks and set(ranks) == {1}
    direct = chern_curvature(
        SphereSpectrum.build(scenario.symbol(), SphereGrid.build(scenario.grid_n)).field([1, 2]))
    assert payload["chern"]["subgap_bands"] == [1, 2]
    assert result.subgap_chern == direct.C and result.passed
    assert abs(result.subgap_raw - direct.raw_value) <= 1e-12


@pytest.mark.parametrize("preset, bands", [
    ("matsuno-upper-gap", [(1,), (2,), (3,)]),
    ("ts2", [(3,)]),
])
def test_run_verify_computes_each_band_curvature_once(monkeypatch, preset, bands):
    # the sub-gap index comes from band 3, which chern_bands also reports:
    # its curvature is computed once and shared
    import indexlab.topology as topology
    from indexlab.topology import chern_curvature

    computed = []
    monkeypatch.setattr(topology, "chern_curvature",
                        lambda fld, *a: computed.append(fld.bands) or chern_curvature(fld, *a))
    result, payload = run_verify(load_preset(preset))
    assert sorted(computed) == bands
    band3 = next(e for e in payload["chern"]["per_band"] if e["band"] == 3)
    assert result.subgap_chern == -band3["reports"]["curvature"]["C"] and result.passed
    assert payload["chern"]["raw_value"] == 0.0 - band3["reports"]["curvature"]["raw_value"]


def test_run_verify_reflected_normal_form():
    scenario = Scenario(
        name="normal-form-reflected",
        model="normal-form",
        model_params={"epsilon": 1.0, "reflected": True},
        max_level=16,
        window=(-0.9, 0.9, 0.0),
        mu_min=-2.0,
        mu_max=2.0,
        steps=32,
        grid_n=16,
        chern_bands=(),
    )
    result, payload = run_verify(scenario)
    assert result.flow.N == -1
    assert result.subgap_chern == -1
    assert result.passed


def write_scenario(tmp_path, preset, **changes):
    data = {**load_preset(preset).to_dict(), **changes}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize(
    "field_,value",
    [
        ("window", [-0.9, 0.9]),
        ("max_level", "24"),
        ("mu_min", "-2"),
        ("model_params", {"epsilon": "1"}),
        ("zero_refs", {"1": [1, 0]}),
        ("model_params", {"epsilon": 1.0, "gap_band_override": "x"}),
        ("chern_bands", ["1"]),
        ("model_params", [1]),
        ("zero_refs", [1]),
        ("clutch_refs", [1]),
        ("clutch_refs", {"2": 5}),
        ("name", 5),
        # JSON's NaN, Infinity and -Infinity load as floats: not finite numbers
        ("model_params", {"epsilon": math.nan}),
        ("model_params", {"epsilon": 1.0, "value": math.inf}),
        ("mu_min", -math.inf),
        ("mu_max", math.nan),
        ("window", [-0.9, math.inf, 0.0]),
        ("zero_refs", {"1": [[1, 0], [-math.inf, 0]]}),
        ("mu_min", -10**400),  # a JSON integer no float holds
    ],
)
def test_malformed_scenario_field_is_config_error(tmp_path, capsys, field_, value):
    path = write_scenario(tmp_path, "normal-form", **{field_: value})
    assert main(["flow", "--scenario", path]) == 1
    assert "indexlab: scenario error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "preset,params",
    [
        ("normal-form", {"epsilom": 4.0}),  # a misspelt key
        ("matsuno", {"epsilon": 4.0, "value": 3.0}),  # keys of other models
        ("ts2", {"gap_band": 2, "dim": 3}),
        ("constant", {"value": math.inf}),  # a key the model reads, not a finite number
    ],
)
def test_model_params_the_model_cannot_take_are_config_errors(tmp_path, capsys, preset, params):
    path = write_scenario(tmp_path, preset, model_params=params)
    assert main(["flow", "--scenario", path]) == 1
    assert "indexlab: scenario error: model_params[" in capsys.readouterr().err


@pytest.mark.parametrize("text", ['"ab"', "[1]", "5", "null"])
def test_scenario_that_is_not_a_json_object_is_config_error(tmp_path, capsys, text):
    path = tmp_path / "scenario.json"
    path.write_text(text)
    assert main(["flow", "--scenario", str(path)]) == 1
    assert capsys.readouterr().err.startswith("indexlab: scenario error:")


def test_unregistered_global_section_rejected_before_any_sweep(tmp_path, capsys, monkeypatch):
    # normal-form has no registered global section for band 1, its symbol
    # is 2x2 and has bands "1" and "2" only, a zero reference vector has
    # no section zeros to count, the integer fields have lower bounds (the
    # Hermite basis is built at load too), and so do the spectral window and
    # the mu range, so each of these scenarios is rejected when it loads and
    # verify never starts the flow sweep
    import indexlab.cli as cli

    calls = []
    real_sweep = cli.sweep
    monkeypatch.setattr(cli, "sweep", lambda *a, **k: calls.append(a) or real_sweep(*a, **k))
    for changes in (
        {"clutch_refs": {"1": "global-section"}},
        {"zero_refs": {"1": [[0, 0], [1, 0], [0, 0]]}},  # dim 3, not 2
        {"chern_bands": [1, 3]},
        {"chern_bands": [0]},
        {"zero_refs": {"9": [[0, 0], [1, 0]]}},  # no band 9
        {"zero_refs": {"1": [[1, 0], [0, 0]], "0": [[1, 0], [0, 0]]}},
        {"clutch_refs": {"3": "poles"}},
        {"clutch_refs": {"band1": "poles"}},
        {"zero_refs": {"1": [[0, 0], [0, 0]]}},  # all-zero reference vector
        {"branch_table_levels": -1},
        {"equator_samples": 4},
        {"steps": 8},
        {"max_level": 8},  # below 2 * guard_levels
        {"guard_levels": 0},
        {"window": [0.9, -0.9, 0.0]},
        {"window": [-0.9, 0.9, 2.0]},  # reference level outside the window
        {"mu_min": 2.0, "mu_max": -2.0},
    ):
        path = write_scenario(tmp_path, "normal-form", **changes)
        assert main(["verify", "--scenario", path, "--grid", "16"]) == 1, changes
        assert "indexlab: scenario error:" in capsys.readouterr().err
        assert calls == []
    # the sphere grid size, from the file or from --grid, and --levels
    for changes, overrides in (({"grid_n": 8}, []), ({}, ["--grid", "8"]),
                               ({}, ["--levels", "4"])):
        path = write_scenario(tmp_path, "normal-form", **changes)
        assert main(["verify", "--scenario", path, *overrides]) == 1, (changes, overrides)
        assert "indexlab: scenario error:" in capsys.readouterr().err
        assert calls == []
    # the spy does see the sweep of a valid scenario
    path = write_scenario(tmp_path, "normal-form")
    assert main(["verify", "--scenario", path, "--grid", "16",
                 "--out", str(tmp_path / "verify.json")]) == 0
    assert len(calls) == 1


def test_chern_rejects_a_bad_window_at_load(tmp_path, capsys):
    # chern builds no spectral window, so only the load check can refuse it,
    # before a report with the reversed window is written
    path = write_scenario(tmp_path, "normal-form", window=[0.9, -0.9, 0.0])
    out = tmp_path / "chern.json"
    assert main(["chern", "--scenario", path, "--method", "curvature", "--grid", "16",
                 "--out", str(out)]) == 1
    assert "indexlab: scenario error: window requires" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["spectrum", "flow", "chern", "verify"])
def test_mu_grid_too_coarse_for_the_matching_budget_is_refused_at_load(tmp_path, capsys, command):
    # a step of 80 / 16 = 5 exceeds MATCH_MIN_WIDTH * 2**MAX_MATCH_ROUNDS (about 4.1):
    # every command refuses the scenario before any solve, chern too, and writes no report
    path = write_scenario(tmp_path, "normal-form", mu_min=-40.0, mu_max=40.0, steps=16)
    out = tmp_path / "report.json"
    assert main([command, "--scenario", path, "--grid", "16", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("indexlab: scenario error: mu grid too coarse")
    assert not out.exists()


def test_flow_endpoint_in_spectrum_exit_code(tmp_path, capsys):
    # the normal-form ground branch sits on omega_ref = 0 at mu = 0
    path = write_scenario(tmp_path, "normal-form", mu_max=0.0)
    assert main(["flow", "--scenario", path]) == 3
    assert "indexlab: flow error:" in capsys.readouterr().err


def test_verify_fail_exit_code(tmp_path, capsys):
    # starting the sweep at mu = 0.5 misses the ground branch's crossing at
    # mu = 0, so the flow is 0 while the sub-gap Chern index stays +1
    path = write_scenario(tmp_path, "normal-form", mu_min=0.5)
    out = tmp_path / "verify.json"
    assert main(["verify", "--scenario", path, "--grid", "16", "--out", str(out)]) == 5
    assert "indexlab: FAIL" in capsys.readouterr().err
    report = read_json(out)
    assert (report["flow"]["N"], report["chern"]["C"]) == (0, 1)
    assert report["verdict"] == "FAIL"


def test_chern_degenerate_band_exit_code(tmp_path, capsys):
    # a constant two-band symbol is degenerate everywhere
    path = write_scenario(tmp_path, "constant", model_params={"value": 5.0, "dim": 2},
                          chern_bands=[1])
    assert main(["chern", "--scenario", path, "--grid", "16"]) == 4
    assert "indexlab: chern error:" in capsys.readouterr().err


@pytest.mark.parametrize("grid", [32, 64])
def test_section_zero_that_is_not_isolated_exit_code(tmp_path, capsys, grid):
    # with u0 = e3 the ts2 band-2 section (p.e3) p vanishes on the whole circle
    # xi = 0, so the winding around a polished zero fails at every grid
    path = write_scenario(tmp_path, "ts2", chern_bands=[2], clutch_refs={"2": "global-section"},
                          zero_refs={"2": [[0, 0], [0, 0], [1, 0]]})
    assert main(["chern", "--scenario", path, "--method", "all", "--grid", str(grid)]) == 4
    assert "is not isolated" in capsys.readouterr().err


def test_verify_ts2_every_band_with_the_default_zero_references(tmp_path):
    # band 2's default reference (1, i, 0)/sqrt(2) has isolated zeros at the
    # poles xi = +-1, of winding +1 and -1
    path = write_scenario(tmp_path, "ts2", chern_bands=[1, 2, 3],
                          clutch_refs={"2": "global-section"})
    out = tmp_path / "verify.json"
    assert main(["verify", "--scenario", path, "--out", str(out)]) == 0
    report = read_json(out)
    assert (report["verdict"], report["flow"]["N"], report["chern"]["agreement"]) == ("PASS", -2, True)
    assert [entry["reports"]["zeros"]["C"] for entry in report["chern"]["per_band"]] == [-2, 0, 2]


def loaded_after(code):
    """The modules a fresh process has loaded after running ``code``, which prints nothing."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(indexlab.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = f"{code}\nimport sys; print(' '.join(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.split()


def loaded_after_import(module, package):
    """The ``package`` modules a fresh process has loaded after ``import <module>``."""
    return [m for m in loaded_after(f"import {module}") if m.split(".")[0] == package]


def test_cli_import_leaves_out_scipy():
    assert loaded_after_import("indexlab.cli", "scipy") == []


#: the indexlab modules that importing each module loads, the root aside
LAYERS = {
    "errors": ["errors"],
    "hermite": ["errors", "hermite"],
    "models": ["errors", "hermite", "models"],
    "flow": ["errors", "flow", "hermite"],
    "topology": ["errors", "hermite", "topology"],
    "cli": ["cli", "errors", "flow", "hermite", "models"],  # topology on first use
}


@pytest.mark.parametrize("module", LAYERS)
def test_each_module_loads_only_the_modules_it_imports(module):
    # the package root imports nothing, so a layer costs only its own imports
    assert loaded_after_import(f"indexlab.{module}", "indexlab") == [
        "indexlab", *(f"indexlab.{name}" for name in LAYERS[module])]


@pytest.mark.parametrize("command, chern_layer", [
    ("flow", False), ("spectrum", False), ("chern", True), ("verify", True),
])
def test_the_chern_layer_loads_on_the_first_command_that_needs_it(tmp_path, command, chern_layer):
    # and no command loads numpy.random
    argv = [command, "--preset", "normal-form", "--levels", "16", "--grid", "16",
            "--out", str(tmp_path / "report.json")]
    loaded = loaded_after(f"from indexlab.cli import main; assert main({argv!r}) == 0")
    assert ("indexlab.topology" in loaded) == chern_layer
    assert "numpy.random" not in loaded


def test_validate_without_rng_does_not_import_numpy_random():
    loaded = loaded_after("from indexlab.models import matsuno_symbol; matsuno_symbol().validate()")
    assert "indexlab.models" in loaded and "numpy.random" not in loaded


def test_version_matches_pyproject(capsys):
    # a regex, not tomllib: Python 3.10 has no tomllib
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]\n(.*?)^\[", text, re.M | re.S).group(1)
    version = re.search(r'^version = "(.+)"$', project, re.M).group(1)
    assert main(["--version"]) == 0
    assert capsys.readouterr().out == f"indexlab {version}\n"


@pytest.mark.parametrize("existing, expected", [(None, 0o644), (0o640, 0o640)],
                         ids=["new", "replaced-0640"])
def test_reports_get_the_mode_a_plain_open_gives(tmp_path, monkeypatch, existing, expected):
    out = tmp_path / "report.json"
    if existing is not None:
        out.write_text("old")
        out.chmod(existing)
    previous = os.umask(0o022)
    try:
        # the write leaves the process umask alone: reading it means setting it, which
        # races with any thread that creates a file meanwhile
        with monkeypatch.context() as patch:
            patch.setattr(os, "umask", lambda *a: pytest.fail("the report write set the umask"))
            assert main(["flow", "--preset", "constant", "--out", str(out)]) == 0
    finally:
        os.umask(previous)
    assert out.stat().st_mode & 0o7777 == expected
    assert read_json(out)["N"] == 0


@pytest.mark.parametrize("out", ["reports", "missing/report.json"], ids=["directory", "missing-dir"])
def test_unwritable_out_is_an_io_error_that_leaves_no_temp_file(tmp_path, capsys, out):
    (tmp_path / "reports").mkdir()
    assert main(["flow", "--preset", "constant", "--out", str(tmp_path / out)]) == 1
    assert capsys.readouterr().err.startswith("indexlab: i/o error:")
    assert list(tmp_path.rglob(".indexlab-*.tmp")) == []


def test_second_run_replaces_the_report(tmp_path):
    out = tmp_path / "report.json"
    assert main(["flow", "--preset", "constant", "--out", str(out)]) == 0
    assert main(["flow", "--preset", "normal-form", "--levels", "16", "--out", str(out)]) == 0
    assert read_json(out)["N"] == 1
    assert [path.name for path in tmp_path.iterdir()] == ["report.json"]


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100_000],
                         ids=["not-utf8", "nested"])
def test_scenario_not_utf8_or_nested_too_deeply_is_config_error(tmp_path, capsys, content):
    path = tmp_path / "scenario.json"
    path.write_bytes(content)
    assert main(["flow", "--scenario", str(path)]) == 1
    assert capsys.readouterr().err.startswith("indexlab: scenario error:")


@pytest.mark.parametrize("command", [["chern", "--method", "all"], ["verify"]])
def test_chern_methods_disagreeing_exit_code(tmp_path, capsys, monkeypatch, command):
    # a section-zero count one above the other methods' index
    import indexlab.topology as topology

    real = topology.chern_section_zeros

    def one_above(*args):
        report = real(*args)
        return dataclasses.replace(report, C=report.C + 1)

    monkeypatch.setattr(topology, "chern_section_zeros", one_above)
    out = tmp_path / "report.json"
    assert main([*command, "--preset", "normal-form", "--levels", "16", "--grid", "16",
                 "--out", str(out)]) == 4
    assert "indexlab: chern methods disagree" in capsys.readouterr().err
    report = read_json(out)
    assert report.get("chern", report)["agreement"] is False


@pytest.mark.parametrize("command, lines", [
    ("flow", ["key,value", "N,1", "counting_function,1", "tracked_crossings,1",
              "crossing,-9.5367431640625e-07:0:1"]),
    ("verify", ["key,value", "N,1", "C,1", "verdict,PASS"]),
])
def test_key_value_csv_reports(tmp_path, command, lines):
    out = tmp_path / "report.csv"
    assert main([command, "--preset", "normal-form", "--levels", "16", "--grid", "16",
                 "--format", "csv", "--out", str(out)]) == 0
    assert out.read_text() == "\n".join(lines) + "\n"
