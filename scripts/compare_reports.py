"""Compare the JSON reports of two source trees, preset by preset.

Runs ``flow``, ``spectrum``, ``verify`` and ``chern --method all`` for every
built-in preset, each in its own process, once with the ``src/`` of the base
tree and once with the ``src/`` of the head tree, and prints one markdown
table row per report: ``identical`` when the two reports agree apart from
their ``timings``, else the largest difference between matching floats and
the first path where it occurs, or the first path where the structure
differs.  A differing exit code is reported too.  The script only reports:
it exits 0 whatever it finds.

    python scripts/compare_reports.py BASE_TREE [HEAD_TREE] [--out-dir DIR]

``HEAD_TREE`` defaults to the current directory; a base tree can be made
with ``git archive <commit> src | tar -x -C BASE_TREE``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

PRESETS = ("normal-form", "matsuno", "matsuno-upper-gap", "matsuno-lower-gap", "ts2", "constant")
COMMANDS = (("flow",), ("spectrum",), ("verify",), ("chern", "--method", "all"))


def run_report(tree: Path, command: tuple[str, ...], preset: str, out: Path) -> tuple[int, dict | None]:
    """Exit code and report (timings removed, None if none was written) of one CLI run."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    code = subprocess.run(
        [sys.executable, "-c", "from indexlab.cli import entry; entry()",
         command[0], "--preset", preset, *command[1:], "--out", str(out)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode
    if not out.exists():
        return code, None
    report = json.loads(out.read_text())
    report.pop("timings", None)
    return code, report


def difference(a, b, path: str = "$") -> tuple[float, str, str | None]:
    """(largest float difference, its path, first structural mismatch or None)."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return 0.0, path, f"{path} keys"
        parts = [difference(a[k], b[k], f"{path}.{k}") for k in a]
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return 0.0, path, f"{path} length {len(a)} != {len(b)}"
        parts = [difference(x, y, f"{path}[{i}]") for i, (x, y) in enumerate(zip(a, b))]
    elif isinstance(a, float) and isinstance(b, float):
        if a == b or (math.isnan(a) and math.isnan(b)):
            return 0.0, path, None
        return abs(a - b), path, None
    else:
        return 0.0, path, None if a == b and type(a) is type(b) else f"{path}: {a!r} != {b!r}"
    worst, where = 0.0, path
    for d, p, mismatch in parts:
        if mismatch is not None:
            return 0.0, p, mismatch
        if d > worst:
            worst, where = d, p
    return worst, where, None


def compare(base: Path, head: Path, out_dir: Path) -> list[str]:
    rows = ["| report | preset | base against head |", "| --- | --- | --- |"]
    for command in COMMANDS:
        name = " ".join(command)
        for preset in PRESETS:
            stem = f"{command[0]}-{preset}"
            code_a, a = run_report(base, command, preset, out_dir / f"base-{stem}.json")
            code_b, b = run_report(head, command, preset, out_dir / f"head-{stem}.json")
            if code_a != code_b:
                verdict = f"exit code {code_a} != {code_b}"
            elif a is None or b is None:
                verdict = "no report" if a is b else "report on one side only"
            elif json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True):
                verdict = "identical"
            else:
                worst, where, mismatch = difference(a, b)
                verdict = (f"differs: {mismatch}" if mismatch else
                           f"max float difference {worst:.3g} at `{where}`")
            rows.append(f"| {name} | {preset} | {verdict} |")
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="source tree of the base, with src/")
    parser.add_argument("head", type=Path, nargs="?", default=Path("."),
                        help="source tree of the head, with src/ (default: .)")
    parser.add_argument("--out-dir", type=Path, help="keep the reports here (default: a temporary directory)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = args.out_dir or Path(tmp)
        out_dir.mkdir(parents=True, exist_ok=True)
        print("\n".join(compare(args.base.resolve(), args.head.resolve(), out_dir)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
