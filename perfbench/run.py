#!/usr/bin/env python3
"""The indexlab benchmark: cold CLI processes, warm runner calls, a traced run.

    python3 perfbench/run.py --workload flow-sweep --seed 1 --seconds 60 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src`` directory.  One client, closed loop: one child works at
a time and the harness waits for it.  ``--seed`` sets every order in which
the workload's invocations run; the program receives only the CLI
arguments.  Every invocation's report is checked against the results
pinned in ``workloads.py``.

A run takes five set-up samples, starts one warm solve child, then runs
each invocation cold and, right after, as a runner call in the warm child,
in seeded orders until no invocation fits in ``--seconds``.  The harness
and its children are pinned to one CPU, and every end-to-end time is
scaled by a fixed reference kernel timed on that CPU just before and just
after it (calib.py), so that the shared host's changes of speed cancel.

``--trace 0`` measures the end-to-end metrics (README.md, "Metrics");
``--trace 1`` measures the per-module metrics in a traced child.  Human
readable lines come first; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from calib import REFERENCE_S, normalize, reference_seconds
from workloads import WORKLOADS, check_report

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
CLI = "from indexlab.cli import entry; entry()"  # what the console script runs

SETUP_SAMPLES = 5
HARD_LIMIT_S = 170.0  # a run must end within 180 s, whatever --seconds says
E2E_UNITS = {"wall_s": "s", "solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class HarnessError(RuntimeError):
    """The benchmark could not measure (as opposed to a wrong program output)."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def pin_to_one_cpu() -> int | None:
    """Pin this process, and so every child it starts, to one CPU.

    The reference kernel then runs on the CPU the measured work runs on.
    Returns the CPU, or None where affinity cannot be set.
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def parse_last_json(stdout: str) -> dict:
    """The JSON object on the last non-empty line of a child's output."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise HarnessError("child printed nothing")
    try:
        payload = json.loads(lines[-1])
    except ValueError as exc:
        raise HarnessError(f"child's last line is not JSON: {lines[-1][:200]!r}") from exc
    if not isinstance(payload, dict):
        raise HarnessError("child's last line is not a JSON object")
    return payload


def median(values) -> float:
    return float(statistics.median(values))


def unit_of(metric: str) -> str:
    return E2E_UNITS.get(metric) or ("s" if metric.endswith("_s") else "count")


def result_line(attempted: int, failed: int, metrics: dict[str, float]) -> str:
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    })


def summarize_e2e(walls: dict[str, list[float]], solves: dict[str, list[float]],
                  setup: list[float], rss: list[float]) -> dict[str, float]:
    """End-to-end metrics from the samples of one run.

    ``wall_s`` and ``solve_s`` sum each invocation's median over its
    samples, so a slow spell of the host that hits one sample moves
    neither; ``setup_s`` is the median set-up sample, ``peak_rss_mb`` the
    largest resident set.
    """
    return {
        "wall_s": sum(median(v) for v in walls.values()),
        "solve_s": sum(median(v) for v in solves.values()),
        "setup_s": median(setup),
        "peak_rss_mb": max(rss),
    }


def summarize_trace(passes: list[dict]) -> tuple[dict[str, float], bool]:
    """Per-layer metrics and whether every count repeated in every pass.

    Times are medians over passes; counts come from the first pass.
    ``trace.overhead_s`` is the median over passes of traced minus
    untraced runner time.
    """
    out = {}
    for name, value in passes[0]["metrics"].items():
        if unit_of(name) == "s":
            out[name] = median([p["metrics"][name] for p in passes])
        else:
            out[name] = value
    repeat = all(p["counts"] == passes[0]["counts"] for p in passes)
    out["cli.import_s"] = median([p["import_s"] for p in passes])
    out["trace.solve_s"] = median([p["traced_s"] for p in passes])
    out["trace.overhead_s"] = median([p["traced_s"] - p["untraced_s"] for p in passes])
    return out, repeat


class Run:
    """State of one benchmark run: the clock, the seed stream, the outcomes."""

    def __init__(self, name: str, seed: int, seconds: int, tmp: Path):
        self.name = name
        self.workload = WORKLOADS[name]
        self.rng = random.Random(seed)
        self.seconds = seconds
        self.tmp = tmp
        self.start = time.perf_counter()
        self.deadline = self.start + HARD_LIMIT_S
        self.env = child_env()
        self.attempted = 0
        self.failures: list[tuple[str, list[str]]] = []
        self.versions: dict[str, str] = {}
        self.refs: list[float] = []  # reference kernel times, in the order taken
        # unscaled seconds of every measured sample, by kind and invocation
        self.unscaled: dict[str, dict[str, list[float]]] = {"wall": {}, "solve": {}, "setup": {}}

    def calibrate(self) -> float:
        """Time the reference kernel once, in this process."""
        self.refs.append(reference_seconds())
        return self.refs[-1]

    def scaled(self, kind: str, label: str, raw: float) -> float:
        """Scale ``raw`` seconds that ended just now to the reference speed.

        The reference taken last, which callers take just before each
        measured child, and one taken now bracket the interval.
        """
        self.unscaled[kind].setdefault(label, []).append(raw)
        before = self.refs[-1]
        return normalize(raw, before, self.calibrate())

    def remaining(self) -> float:
        left = self.deadline - time.perf_counter()
        if left <= 0:
            raise HarnessError(f"run exceeded {HARD_LIMIT_S:.0f} s")
        return left

    def order(self) -> list[int]:
        n = len(self.workload.invocations)
        return self.rng.sample(range(n), n)

    def fits(self, took: float) -> bool:
        """Whether a step that took ``took`` seconds fits in ``--seconds`` again."""
        return time.perf_counter() - self.start + took <= self.seconds

    def check(self, index: int, exit_code: int | None, path: Path, stderr: str = ""):
        inv = self.workload.invocations[index]
        self.attempted += 1
        try:
            with open(path) as fh:
                report = json.load(fh)
        except (OSError, ValueError):
            report = None
        problems = check_report(inv, exit_code, report)
        if isinstance(report, dict) and "error" in report:
            problems.append(str(report["error"]))
        if problems and stderr.strip():
            problems.append(f"stderr: {stderr.strip().splitlines()[-1]}")
        if problems:
            self.failures.append((inv.label, problems))

    def child(self, mode: str, *args: str) -> tuple[dict, float]:
        """Run child.py in ``mode``; return its JSON and its wall seconds."""
        cmd = [sys.executable, str(CHILD), mode, self.name, *args]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=self.remaining())
        except subprocess.TimeoutExpired as exc:
            raise HarnessError(f"child {mode} timed out") from exc
        took = time.perf_counter() - t0
        if proc.returncode != 0:
            raise HarnessError(f"child {mode} exited {proc.returncode}: {proc.stderr[-2000:]}")
        payload = parse_last_json(proc.stdout)
        self.versions = payload.get("versions", self.versions)
        return payload, took

    def cold(self, index: int, out: Path) -> tuple[float, float, int, str]:
        """One CLI invocation in a fresh process: (seconds, peak RSS MB, exit, stderr)."""
        inv = self.workload.invocations[index]
        out.unlink(missing_ok=True)
        cmd = [sys.executable, "-c", CLI, *inv.argv(), "--out", str(out)]
        with open(self.tmp / "stderr.txt", "w+") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            watchdog = threading.Timer(self.remaining(), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted or terminated: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            took = time.perf_counter() - t0
            err.seek(0)
            stderr = err.read()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return took, usage.ru_maxrss / 1024.0, proc.returncode, stderr

    # -- steps ---------------------------------------------------------------
    def wall_step(self, i: int, walls: dict[str, list[float]]) -> float:
        """Invocation ``i`` cold; returns the child's peak resident set in MB."""
        out = self.tmp / f"cli-{i}.json"
        took, rss_mb, code, stderr = self.cold(i, out)
        label = self.workload.invocations[i].label
        walls.setdefault(label, []).append(self.scaled("wall", label, took))
        self.check(i, code, out, stderr)
        return rss_mb

    def solve_step(self, warm: "WarmChild", i: int, solves: dict[str, list[float]]) -> float:
        """Invocation ``i``'s runner call in the warm child; returns its seconds.

        The child times the reference kernel just before and just after the
        call, and the call is scaled by the two.
        """
        res = warm.call(i)
        took, refs = res["seconds"], res["refs"]
        self.refs.extend(refs)  # the last is the "before" of a cold child that follows
        label = self.workload.invocations[i].label
        solves.setdefault(label, []).append(normalize(took, *refs))
        self.unscaled["solve"].setdefault(label, []).append(took)
        self.check(i, None, self.tmp / f"solve-{i}.json")
        return took

    def e2e(self) -> tuple[dict, dict, list[float], list[float]]:
        """Set-up samples, then steps in seeded orders until none fits.

        A step makes one invocation's runner call in the warm child, runs
        the invocation cold, and makes the runner call again if it fits in
        ``--seconds``: runner calls are cheaper than cold runs and scatter
        more, so they get two samples per step, and the cold child between
        them keeps the second from finding the first one's data in the CPU
        caches.  The first order runs every invocation, so each has a cold
        and a warm sample however slow the host; after that an order runs
        each invocation whose last step still fits in ``--seconds``, so
        short invocations fill the end of the run.
        Returns the scaled cold and warm seconds of each invocation, the
        scaled set-up samples and each cold child's peak resident set.
        """
        walls: dict[str, list[float]] = {}
        solves: dict[str, list[float]] = {}
        setup: list[float] = []
        rss: list[float] = []
        self.calibrate()
        for _ in range(SETUP_SAMPLES):
            setup.append(self.scaled("setup", "setup", self.child("setup")[1]))
        with WarmChild(self) as warm:
            cost: dict[int, float] = {}
            while True:
                steps = 0
                for i in self.order():
                    if i in cost and not self.fits(cost[i]):
                        continue
                    t0 = time.perf_counter()
                    took = self.solve_step(warm, i, solves)
                    rss.append(self.wall_step(i, walls))
                    if self.fits(took):
                        self.solve_step(warm, i, solves)
                    cost[i] = time.perf_counter() - t0
                    steps += 1
                if not steps:
                    break
        return walls, solves, setup, rss

    def solve_pass(self, order: list[int]) -> float:
        """Runner seconds of ``order`` in a fresh warm child, unscaled.

        The calls run back to back, without the reference kernel between
        them, as they do in the traced child it is compared with.
        """
        with WarmChild(self, with_refs=False) as warm:
            total = 0.0
            for i in order:
                total += warm.call(i)["seconds"]
                self.check(i, None, self.tmp / f"solve-{i}.json")
            return total

    def traced(self) -> list[dict]:
        """Repeat traced passes while the next fits."""
        passes = []
        while True:
            t0 = time.perf_counter()
            passes.append(self.trace_pass(traced_first=len(passes) % 2 == 0))
            if not self.fits(time.perf_counter() - t0):
                return passes

    def trace_pass(self, traced_first: bool) -> dict:
        """One traced child and one untraced warm child over the same order.

        Which of the two runs first alternates from pass to pass, so a
        drift in machine speed does not bias the overhead one way.
        """
        order = self.order()
        untraced = None if traced_first else self.solve_pass(order)
        res, _ = self.child("trace", ",".join(map(str, order)), str(self.tmp))
        for i, code in zip(order, res["exits"]):
            self.check(i, code, self.tmp / f"trace-{i}.json")
        if untraced is None:
            untraced = self.solve_pass(order)
        counts = dict(zip((self.workload.invocations[i].label for i in order), res["counts"]))
        return {
            "metrics": res["metrics"],
            "counts": counts,
            "import_s": res["import_s"],
            "traced_s": res["solve_s"],
            "untraced_s": untraced,
        }


class WarmChild:
    """A solve child that has imported indexlab and made its warm-up call.

    It then makes one timed runner call per index written to its standard
    input, between two timings of the reference kernel unless
    ``with_refs`` is false, and answers each with one JSON line.  Between calls it waits,
    idle, while the harness runs cold children, so one process works at a
    time.  Leaving the ``with`` block closes its input and waits for it to
    exit; the run's deadline kills it.
    """

    def __init__(self, run: Run, with_refs: bool = True):
        self.run = run
        self.with_refs = with_refs

    def __enter__(self) -> "WarmChild":
        run = self.run
        self.err = open(run.tmp / "warm-stderr.txt", "w+")
        self.proc = subprocess.Popen(
            [sys.executable, str(CHILD), "serve", run.name, str(run.tmp), str(int(self.with_refs))],
            cwd=ROOT, env=run.env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self.err, text=True)
        self.watchdog = threading.Timer(run.remaining(), self.proc.kill)
        self.watchdog.start()
        try:
            run.versions = self.read().get("versions", run.versions)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.err.seek(0)
            raise HarnessError(f"warm child ended: {self.err.read()[-2000:]}")
        return parse_last_json(line)

    def call(self, index: int) -> dict:
        try:
            self.proc.stdin.write(f"{index}\n")
            self.proc.stdin.flush()
        except OSError as exc:
            raise HarnessError(f"warm child ended: {exc}") from exc
        return self.read()

    def __exit__(self, *exc) -> None:
        self.watchdog.cancel()
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.err.close()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _env_line(info: dict, cpu: int | None) -> str:
    return (f"env: python {info.get('python')} numpy {info.get('numpy')} scipy {info.get('scipy')} "
            f"nproc {os.cpu_count()} cpu {_cpu_model()!r} blas_threads 1 pinned_cpu {cpu}")


def measure(args, tmp: Path, cpu: int | None) -> tuple[Run, dict[str, float]]:
    # an installed program has its bytecode compiled before a user runs it
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    run = Run(args.workload, args.seed, args.seconds, tmp)
    print(f"perfbench: workload {args.workload} seed {args.seed} trace {args.trace}")

    if args.trace:
        passes = run.traced()
        print(_env_line(run.versions, cpu))
        metrics, repeat = summarize_trace(passes)
        print(f"traced passes {len(passes)}; counts repeat exactly: {'yes' if repeat else 'NO'}")
        for label, counts in passes[0]["counts"].items():
            shown = {k.split(".", 1)[1]: v for k, v in counts.items() if v}
            print(f"  counts {label}: {shown}")
        for name in sorted(metrics):
            print(f"  {name:36s} {metrics[name]:.6g} {unit_of(name)}")
        return run, metrics

    walls, solves, setup, rss = run.e2e()
    print(_env_line(run.versions, cpu))
    metrics = summarize_e2e(walls, solves, setup, rss)
    raw = run.unscaled
    unscaled = summarize_e2e(raw["wall"], raw["solve"], raw["setup"]["setup"], rss)
    counts = {"wall_s": [len(v) for v in walls.values()], "solve_s": [len(v) for v in solves.values()]}
    print(f"  reference kernel: median {median(run.refs):.4g} s of {len(run.refs)} samples; "
          f"times are scaled to {REFERENCE_S} s")
    print("  unscaled: " + ", ".join(f"{k} {unscaled[k]:.6g} s" for k in ("wall_s", "solve_s", "setup_s")))
    for name, value in metrics.items():
        how = {"setup_s": f"median of {len(setup)} cold starts",
               "peak_rss_mb": f"max over {len(rss)} cold invocations"}.get(name)
        if how is None:
            how = f"sum of per-invocation medians of {min(counts[name])}-{max(counts[name])} samples"
        print(f"  {name:12s} {value:.6g} {unit_of(name)} ({how})")
    for label in walls:
        print(f"    {label}: cold {median(walls[label]):.4g} s, warm {median(solves[label]):.4g} s "
              f"(unscaled {median(raw['wall'][label]):.4g} s, {median(raw['solve'][label]):.4g} s)")
    return run, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="indexlab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "indexlab" / "cli.py").is_file():
        print(f"perfbench: no indexlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # on SIGTERM, unwind through the cleanup that stops and waits for every child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # the reference kernel also runs in this process, with the children's BLAS settings
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    cpu = pin_to_one_cpu()
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        run, metrics = measure(args, tmp, cpu)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failed = len(run.failures)
    print(f"  fail_ratio   {failed / run.attempted:.6g} ({failed} of {run.attempted} invocations)")
    for label, problems in run.failures:
        print(f"  FAIL {label}: {'; '.join(problems)}")
    print(result_line(run.attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
