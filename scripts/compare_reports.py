"""Compare the JSON and CSV reports of two source trees, preset by preset.

Runs ``flow``, ``spectrum``, ``verify`` and ``chern --method all`` for every
built-in preset, with ``--format json`` and with ``--format csv``, each in
its own process, once with the ``src/`` of the base tree and once with the
``src/`` of the head tree, and prints one markdown table row per report.
A JSON report reads ``identical`` when the two agree apart from their
``timings``, else the largest difference between matching floats and the
first path where it occurs, or the first path where the structure differs.
A CSV report, spectrum's ``_branches`` table included, reads ``identical``
when the two files are equal line for line.  Files of equal line counts
that differ only in numeric fields read as the largest difference between
matching fields and its file, line and column; any other difference reads
as the first line that differs.  The ``--help`` output of ``indexlab`` and of
each of its four commands is compared too, one row each: ``identical``, or
the first line that differs.  A differing exit code is reported too.  The
script only reports: it exits 0 whatever it finds.

    python scripts/compare_reports.py BASE_TREE [HEAD_TREE] [--out-dir DIR]

``HEAD_TREE`` defaults to the current directory; a base tree can be made
with ``git archive <commit> src | tar -x -C BASE_TREE``.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

PRESETS = ("normal-form", "matsuno", "matsuno-upper-gap", "matsuno-lower-gap", "ts2", "constant")
COMMANDS = (("flow",), ("spectrum",), ("verify",), ("chern", "--method", "all"))
#: the ``indexlab`` arguments ahead of ``--help`` whose output is compared
HELP = ((), ("spectrum",), ("flow",), ("chern",), ("verify",))


def indexlab(tree: Path, args: list[str], **kwargs) -> subprocess.CompletedProcess:
    """One ``indexlab`` run on the ``src/`` of ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.run([sys.executable, "-c", "from indexlab.cli import entry; entry()", *args],
                          env=env, **kwargs)


def run_cli(tree: Path, command: tuple[str, ...], preset: str, fmt: str, out: Path) -> int:
    """Exit code of one CLI run that writes its report to ``out``."""
    return indexlab(tree, [command[0], "--preset", preset, *command[1:], "--format", fmt,
                           "--out", str(out)],
                    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def run_help(tree: Path, command: tuple[str, ...]) -> tuple[int, dict]:
    """Exit code and the output lines of ``indexlab [command] --help``."""
    done = indexlab(tree, [*command, "--help"], capture_output=True, text=True)
    return done.returncode, {"help": (done.stdout + done.stderr).splitlines()}


def run_report(tree: Path, command: tuple[str, ...], preset: str, out: Path) -> tuple[int, dict | None]:
    """Exit code and JSON report (timings removed, None if none was written) of one CLI run."""
    code = run_cli(tree, command, preset, "json", out)
    if not out.exists():
        return code, None
    report = json.loads(out.read_text())
    report.pop("timings", None)
    return code, report


def run_csv(tree: Path, command: tuple[str, ...], preset: str, out: Path) -> tuple[int, dict]:
    """Exit code and the lines of each CSV file of one CLI run: the report, and the
    ``_branches`` table that spectrum writes beside it."""
    code = run_cli(tree, command, preset, "csv", out)
    files = {"report": out, "_branches": out.with_name(f"{out.stem}_branches{out.suffix}")}
    return code, {name: path.read_text().splitlines()
                  for name, path in files.items() if path.exists()}


def first_line_difference(a: dict, b: dict) -> str | None:
    """The first differing line of two ``{file: lines}`` maps, None if they are equal."""
    if a.keys() != b.keys():
        return f"files {sorted(a)} != {sorted(b)}"
    for name in a:
        for i, (x, y) in enumerate(itertools.zip_longest(a[name], b[name]), start=1):
            if x != y:
                return f"{name} line {i}: {x!r} != {y!r}"
    return None


def numeric_difference(a: dict, b: dict) -> tuple[float, str] | None:
    """(largest difference between matching numeric fields, its file, line and column) of
    two ``{file: lines}`` maps of equal line counts that differ only in numeric fields;
    None when they differ otherwise."""
    if a.keys() != b.keys():
        return None
    worst, where = 0.0, None
    for name in a:
        if len(a[name]) != len(b[name]):
            return None
        for i, (x, y) in enumerate(zip(a[name], b[name]), start=1):
            if x == y:
                continue
            fx, fy = next(csv.reader([x])), next(csv.reader([y]))
            if len(fx) != len(fy):
                return None
            for j, (u, v) in enumerate(zip(fx, fy), start=1):
                if u == v:
                    continue
                try:
                    d = abs(float(u) - float(v))
                except ValueError:
                    return None
                if math.isnan(d):
                    return None
                if where is None or d > worst:
                    worst, where = d, f"{name} line {i} column {j}"
    return None if where is None else (worst, where)


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
        if math.isnan(a) or math.isnan(b):
            return 0.0, path, None if math.isnan(a) and math.isnan(b) else f"{path}: {a!r} != {b!r}"
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
            code_a, a = run_csv(base, command, preset, out_dir / f"base-{stem}.csv")
            code_b, b = run_csv(head, command, preset, out_dir / f"head-{stem}.csv")
            if code_a != code_b:
                verdict = f"exit code {code_a} != {code_b}"
            elif not a and not b:
                verdict = "no report"
            else:
                mismatch, numeric = first_line_difference(a, b), numeric_difference(a, b)
                verdict = ("identical" if mismatch is None else
                           f"max numeric difference {numeric[0]:.3g} at {numeric[1]}" if numeric
                           else f"differs: {mismatch}")
            rows.append(f"| {name} --format csv | {preset} | {verdict} |")
    return rows + help_rows(base, head)


def help_rows(base: Path, head: Path) -> list[str]:
    """One table row per entry of :data:`HELP`."""
    rows = []
    for command in HELP:
        (code_a, a), (code_b, b) = run_help(base, command), run_help(head, command)
        mismatch = first_line_difference(a, b)
        verdict = (f"exit code {code_a} != {code_b}" if code_a != code_b else
                   "identical" if mismatch is None else f"differs: {mismatch}")
        rows.append(f"| {' '.join(('indexlab', *command, '--help'))} | - | {verdict} |")
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
