import importlib.util
import math
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_reports.py"


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("compare_reports", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def difference(script):
    return script.difference


def report(**changes):
    base = {"C": [1, -1], "agreement": True,
            "bands": [{"band": 1, "raw_value": 0.5, "zeros": [[1.0, 0.0, 0.0]]}],
            "min_band_gap": None}
    return {**base, **changes}


def test_identical_reports_have_no_difference(difference):
    assert difference(report(), report()) == (0.0, "$", None)


def test_largest_float_difference_and_its_path(difference):
    a = report(bands=[{"band": 1, "raw_value": 0.5, "zeros": [[1.0, 0.0, 0.0]]}])
    b = report(bands=[{"band": 1, "raw_value": 0.5 + 2**-40, "zeros": [[1.0, 2**-30, 0.0]]}])
    assert difference(a, b) == (2**-30, "$.bands[0].zeros[0][1]", None)


def test_key_mismatch(difference):
    b = report()
    del b["agreement"]
    assert difference(report(), b)[2] == "$ keys"


def test_list_length_mismatch(difference):
    assert difference(report(), report(C=[1]))[2] == "$.C length 2 != 1"


def test_int_against_float_is_a_mismatch(difference):
    assert difference(report(), report(C=[1.0, -1]))[2] == "$.C[0]: 1 != 1.0"


def test_nan_against_nan_is_no_difference(difference):
    a, b = report(min_band_gap=math.nan), report(min_band_gap=math.nan)
    assert difference(a, b) == (0.0, "$", None)


@pytest.mark.parametrize("a, b, mismatch", [
    (math.nan, 1.0, "$.min_band_gap: nan != 1.0"),
    (1.0, math.nan, "$.min_band_gap: 1.0 != nan"),
])
def test_nan_against_a_number_is_a_mismatch(difference, a, b, mismatch):
    assert difference(report(min_band_gap=a), report(min_band_gap=b))[2] == mismatch


def test_csv_files_compare_line_by_line(script):
    a = {"report": ["key,value", "N,1"], "_branches": ["mu,family,level,omega"]}
    assert script.first_line_difference(a, dict(a)) is None
    assert (script.first_line_difference(a, {**a, "report": ["key,value", "N,2"]})
            == "report line 2: 'N,1' != 'N,2'")
    assert (script.first_line_difference(a, {**a, "report": ["key,value"]})
            == "report line 2: 'N,1' != None")
    assert (script.first_line_difference(a, {"report": a["report"]})
            == "files ['_branches', 'report'] != ['report']")


def test_csv_files_that_differ_only_in_numbers_give_the_largest_difference(script):
    a = {"report": ["band,method,C,raw_value,residual", "1,curvature,2,2,0", "2,curvature,0,0,0"],
         "_branches": ["mu,family,level,omega", "-2.0,kelvin,0,-2.0"]}
    b = {"report": ["band,method,C,raw_value,residual",
                    "1,curvature,2,2.0000000000000004,1e-16", "2,curvature,0,1e-16,1e-16"],
         "_branches": ["mu,family,level,omega", "-2.0,kelvin,0,-2.0000000000000004"]}
    assert script.numeric_difference(a, dict(a)) is None
    assert script.numeric_difference(a, b) == (2**-51, "report line 2 column 4")
    # a text field, a field count, a line count or a file set that differs is
    # no numeric difference: the first differing line reports it
    for other in ({**b, "report": ["band,method,C,raw_value,residual", "1,clutching,2,2,0",
                                   "2,curvature,0,0,0"]},
                  {**b, "report": ["band,method,C,raw_value,residual", "1,curvature,2,2",
                                   "2,curvature,0,0,0"]},
                  {**b, "report": b["report"][:2]},
                  {"report": b["report"]},
                  {**b, "report": ["band,method,C,raw_value,residual", "1,curvature,2,nan,0",
                                   "2,curvature,0,0,0"]}):
        assert script.numeric_difference(a, other) is None


def fake_tree(root, body):
    """A source tree whose ``indexlab.cli.entry`` runs ``body`` with ``args`` = its arguments."""
    package = root / "src" / "indexlab"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(
        "import sys\n\ndef entry():\n    args = sys.argv[1:]\n" + body)
    return root


def test_help_of_indexlab_and_each_command_is_compared(script, tmp_path):
    text = "    print('usage: indexlab', *args)\n    sys.exit(0)\n"
    base = fake_tree(tmp_path / "base", text)
    head = fake_tree(tmp_path / "head", "    if args == ['flow', '--help']:\n"
                     "        print('usage: indexlab flow [--new]')\n"
                     "    if args == ['verify', '--help']:\n        sys.exit(2)\n" + text)
    assert script.help_rows(base, base) == [
        f"| indexlab {command}--help | - | identical |"
        for command in ("", "spectrum ", "flow ", "chern ", "verify ")]
    assert script.help_rows(base, head) == [
        "| indexlab --help | - | identical |",
        "| indexlab spectrum --help | - | identical |",
        "| indexlab flow --help | - | differs: help line 1: 'usage: indexlab flow --help' "
        "!= 'usage: indexlab flow [--new]' |",
        "| indexlab chern --help | - | identical |",
        "| indexlab verify --help | - | exit code 0 != 2 |",
    ]


def test_every_differing_leaf_path_is_listed_once(script):
    two_bands = [{"band": 1, "raw_value": 0.5, "zeros": [[1.0, 0.0, 0.0]]},
                 {"band": 2, "raw_value": 0.5, "zeros": [[0.0, 1.0, 0.0]]}]
    moved = [{"band": 1, "raw_value": 0.5 + 2**-40, "zeros": [[1.0, 2**-30, 0.0]]},
             {"band": 2, "raw_value": 0.5 + 2**-41, "zeros": [[0.0, 1.0, 2**-50]]}]
    a, b = report(bands=two_bands), report(bands=moved)
    assert script.differing_paths(report(), report()) == []
    assert script.differing_paths(a, b) == ["$.bands[*].raw_value", "$.bands[*].zeros[*][*]"]
    assert script.json_verdict(a, a) == "identical"
    assert script.json_verdict(a, b) == (
        "max float difference 9.31e-10 at `$.bands[0].zeros[0][1]`; "
        "paths: `$.bands[*].raw_value`, `$.bands[*].zeros[*][*]`")


def test_structural_mismatches_are_leaves_of_the_path_list(script):
    b = report(C=[1], min_band_gap=math.nan, bands=[{"band": 1.0, "raw_value": 0.5,
                                                     "zeros": [[1.0, 0.0, 0.0]]}])
    del b["agreement"]
    assert script.differing_paths(report(), b) == ["$"]
    c = report(C=[1], min_band_gap=0.0)
    assert script.differing_paths(report(), c) == ["$.C", "$.min_band_gap"]
    assert script.json_verdict(report(), c) == (
        "differs: $.C length 2 != 1; paths: `$.C`, `$.min_band_gap`")
    # NaN against NaN does not differ; an int against an equal float does
    d = report(min_band_gap=math.nan, bands=[{"band": 1.0, "raw_value": 0.5,
                                              "zeros": [[1.0, 0.0, 0.0]]}])
    assert script.differing_paths(report(min_band_gap=math.nan), d) == ["$.bands[*].band"]
