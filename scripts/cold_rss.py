"""Peak resident set of cold ``indexlab verify`` runs, preset by preset, at a head and a base tree.

Compiles the bytecode under each tree's ``src/`` first (an installed program has done so
before its user runs it; compiling on import would add about 1.4 MB), then runs
``indexlab verify --preset P`` in a fresh process per run, with the ``src/`` of each tree
first on ``sys.path``, and reads the child's ``ru_maxrss`` from ``os.wait4``.  This parent
imports the standard library only: Linux carries the high-water mark of a forked parent
into its child across ``exec``, so a large parent would set a floor under every reading.
It prints one markdown table row per preset with the median of :data:`RUNS` readings per
tree, in MB.  The script only reports: a tree without ``src/indexlab`` reads as
``missing`` (no run, so an installed copy is never measured in its place), a run that
fails reads as its exit code, and the script exits 0.

    python scripts/cold_rss.py HEAD_TREE BASE_TREE
"""

from __future__ import annotations

import argparse
import compileall
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

PRESETS = ("normal-form", "matsuno", "matsuno-upper-gap", "matsuno-lower-gap", "ts2", "constant")
RUNS = 3


def cold_peak_mb(tree: Path, preset: str, out: Path) -> float | str:
    """``ru_maxrss`` in MB of one cold ``verify --preset`` run on ``tree``, ``missing`` for
    a tree without ``src/indexlab``, or the exit status of a run that failed."""
    if not (tree / "src" / "indexlab").is_dir():
        return "missing"
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    child = subprocess.Popen(
        [sys.executable, "-c", "from indexlab.cli import entry; entry()",
         "verify", "--preset", preset, "--out", str(out)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        return f"exit {child.returncode}"
    return usage.ru_maxrss / 1024.0  # kilobytes on Linux


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("head", type=Path)
    parser.add_argument("base", type=Path)
    args = parser.parse_args(argv)
    trees = (args.head, args.base)
    for tree in trees:
        if (tree / "src").is_dir():
            compileall.compile_dir(str(tree / "src"), quiet=1)
    print("| preset | " + " | ".join(f"`{tree}` peak MB" for tree in trees) + " |")
    print("| --- |" + " --- |" * len(trees))
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "verify.json"
        for preset in PRESETS:
            cells = []
            for tree in trees:
                peaks = [cold_peak_mb(tree, preset, out) for _ in range(RUNS)]
                failed = [p for p in peaks if isinstance(p, str)]
                cells.append(failed[0] if failed else f"{statistics.median(peaks):.2f}")
            print(f"| {preset} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
