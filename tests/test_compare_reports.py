import importlib.util
import math
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_reports.py"


@pytest.fixture(scope="module")
def difference():
    spec = importlib.util.spec_from_file_location("compare_reports", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.difference


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
