import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("cold_rss", REPO / "scripts" / "cold_rss.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cold_peak_of_one_verify_run(tmp_path, script):
    peak = script.cold_peak_mb(REPO, "constant", tmp_path / "verify.json")
    assert isinstance(peak, float) and peak > 10.0
    assert json.loads((tmp_path / "verify.json").read_text())["verdict"] == "PASS"


def test_failed_and_missing_trees_read_as_such_and_the_script_exits_0(tmp_path, capsys, script):
    # head: a tree whose indexlab exits 3, which shadows any installed copy;
    # base: a tree without src/indexlab, which is never run
    failing, missing = tmp_path / "failing", tmp_path / "missing"
    (failing / "src" / "indexlab").mkdir(parents=True)
    (failing / "src" / "indexlab" / "__init__.py").write_text("")
    (failing / "src" / "indexlab" / "cli.py").write_text("def entry():\n    raise SystemExit(3)\n")
    missing.mkdir()
    assert script.main([str(failing), str(missing)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 2 + len(script.PRESETS)
    assert [row.split(" | ")[0] for row in rows[2:]] == [f"| {p}" for p in script.PRESETS]
    assert all(row.endswith("| exit 3 | missing |") for row in rows[2:])
