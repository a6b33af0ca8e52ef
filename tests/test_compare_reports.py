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
