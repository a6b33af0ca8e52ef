"""Workloads of the indexlab benchmark and the results each invocation pins.

An invocation is one ``indexlab`` command line.  Its expectation pins only
what the ROADMAP promises to keep: the exit code, ``N`` and both method
counts, the crossing directions, the per-band ``C`` and method agreement,
the sub-gap ``C`` and verdict, and raw curvature values within
:data:`RAW_TOL` of their integers.  Sample counts, crossing brackets,
diagnostics and timings are deliberately not pinned: performance work
changes them by design.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

RAW_TOL = 1e-6


@dataclass(frozen=True)
class Invocation:
    """One ``indexlab <command> --preset <preset> [--grid N]`` run."""

    command: str  # flow | chern | verify
    preset: str
    expect: dict
    grid: int | None = None

    @property
    def label(self) -> str:
        return " ".join(self.argv())

    def argv(self) -> list[str]:
        argv = [self.command, "--preset", self.preset]
        if self.grid is not None:
            argv += ["--grid", str(self.grid)]
        if self.command == "chern":
            argv += ["--method", "all"]
        return argv

    def scenario(self, cli):
        """The scenario the command line expands to, via the public API."""
        scenario = cli.load_preset(self.preset)
        if self.grid is not None:
            scenario = dataclasses.replace(scenario, grid_n=self.grid)
        return scenario

    def run(self, cli, scenario) -> dict:
        """Call the public runner behind the command; return its report."""
        if self.command == "flow":
            return cli.run_flow(scenario)
        if self.command == "chern":
            return cli.run_chern(scenario, "all")
        return cli.run_verify(scenario)[1]


@dataclass(frozen=True)
class Workload:
    invocations: tuple[Invocation, ...]
    warmup: int  # index of the invocation used as the untimed warm-up call


def _flow(n: int, directions: list[int]) -> dict:
    return {"N": n, "counts": [n, n], "directions": directions}


_MATSUNO_FLOW = _flow(2, [1, 1])
_MATSUNO_BANDS = [2, 0, -2]

# Why each workload was chosen: README.md, "Workloads".
WORKLOADS: dict[str, Workload] = {
    "flow-sweep": Workload(
        invocations=(
            Invocation("flow", "matsuno", _MATSUNO_FLOW),
            Invocation("flow", "matsuno-upper-gap", _MATSUNO_FLOW),
            Invocation("flow", "matsuno-lower-gap", _MATSUNO_FLOW),
        ),
        warmup=1,
    ),
    "chern-sphere": Workload(
        invocations=(
            Invocation("chern", "normal-form", {"bands": [1, -1]}),
            Invocation("chern", "ts2", {"bands": [2]}),
            Invocation("chern", "matsuno", {"bands": _MATSUNO_BANDS}),
            Invocation("chern", "normal-form", {"bands": [1, -1]}, grid=128),
        ),
        warmup=0,
    ),
    "verify-presets": Workload(
        invocations=(
            Invocation("verify", "normal-form",
                       {**_flow(1, [1]), "C": 1, "bands": [1, -1]}),
            Invocation("verify", "matsuno-upper-gap",
                       {**_MATSUNO_FLOW, "C": 2, "bands": _MATSUNO_BANDS}),
            Invocation("verify", "matsuno-lower-gap",
                       {**_MATSUNO_FLOW, "C": 2, "bands": _MATSUNO_BANDS}),
            Invocation("verify", "ts2", {**_flow(-2, [-1, -1]), "C": -2, "bands": [2]}),
            Invocation("verify", "constant", {**_flow(0, []), "C": 0, "bands": []}),
        ),
        warmup=0,
    ),
}


# ---------------------------------------------------------------------------
# the correctness oracle
# ---------------------------------------------------------------------------

def _near_integer(raw, c) -> bool:
    return isinstance(raw, (int, float)) and abs(raw - c) <= RAW_TOL


def _check_flow(flow: dict, expect: dict, problems: list[str]):
    if flow["N"] != expect["N"]:
        problems.append(f"N {flow['N']} != {expect['N']}")
    counts = [flow["method_counts"]["counting_function"],
              flow["method_counts"]["tracked_crossings"]]
    if counts != expect["counts"]:
        problems.append(f"method counts {counts} != {expect['counts']}")
    directions = [c["direction"] for c in flow["crossings"]]
    if directions != expect["directions"]:
        problems.append(f"crossing directions {directions} != {expect['directions']}")


def _check_bands(bands: list, agreement, expect: list[int], problems: list[str]):
    per_band = [entry["reports"]["curvature"]["C"] for entry in bands]
    if per_band != expect:
        problems.append(f"per-band C {per_band} != {expect}")
    for entry in bands:
        for method, rep in entry["reports"].items():
            if rep["C"] != entry["reports"]["curvature"]["C"]:
                problems.append(f"band {entry['band']} {method} C {rep['C']} disagrees")
        raw = entry["reports"]["curvature"]["raw_value"]
        if not _near_integer(raw, entry["reports"]["curvature"]["C"]):
            problems.append(f"band {entry['band']} raw curvature {raw!r} not within {RAW_TOL}")
    if agreement is not True and (expect or agreement is False):
        problems.append(f"agreement {agreement!r}")


def check_report(inv: Invocation, exit_code: int | None, report) -> list[str]:
    """Differences between one invocation's outcome and its pinned result.

    ``exit_code`` is None for an in-process runner call, which has none.
    """
    problems: list[str] = []
    if exit_code is not None and exit_code != 0:
        problems.append(f"exit code {exit_code} != 0")
    if not isinstance(report, dict):
        return problems + ["no report"]
    expect = inv.expect
    try:
        if inv.command == "flow":
            _check_flow(report, expect, problems)
        elif inv.command == "chern":
            _check_bands(report["bands"], report.get("agreement"), expect["bands"], problems)
            if report["C"] != expect["bands"]:
                problems.append(f"C {report['C']} != {expect['bands']}")
        else:
            _check_flow(report["flow"], expect, problems)
            chern = report["chern"]
            if chern["C"] != expect["C"]:
                problems.append(f"sub-gap C {chern['C']} != {expect['C']}")
            if not _near_integer(chern["raw_value"], expect["C"]):
                problems.append(f"sub-gap raw curvature {chern['raw_value']!r} not within {RAW_TOL}")
            _check_bands(chern["per_band"], chern["agreement"], expect["bands"], problems)
            if report["verdict"] != "PASS":
                problems.append(f"verdict {report['verdict']!r} != 'PASS'")
    except (KeyError, TypeError, IndexError) as exc:
        problems.append(f"malformed report: missing or mistyped {exc!r}")
    return problems
