"""Child process of the benchmark; one mode per process, JSON lines out.

    child.py setup <workload>
        import indexlab.cli, load the workload's presets, build and validate
        their symbols; print the interpreter and library versions.
    child.py serve <workload> <outdir> <refs 0|1>
        import, make one warm-up runner call and answer with the versions;
        then, per invocation index read from standard input, time one
        public runner call, with the reference kernel (calib.py) timed just
        before and just after it if refs is 1, write the report to
        ``<outdir>/solve-<i>.json`` and answer with the times.
    child.py trace <workload> <order> <outdir>
        time the import, wrap the public functions of the indexlab modules
        (tracer.py), make one warm-up call, then call ``indexlab.cli.main``
        per invocation with ``--out <outdir>/trace-<i>.json``.

The harness (run.py) sets PYTHONPATH to the checkout's ``src`` and pins
BLAS and OpenMP to one thread.
"""

from __future__ import annotations

import json
import os
import sys
import time


def _dump(path: str, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh)


def versions() -> dict:
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def setup(workload) -> dict:
    import indexlab.cli as cli

    for inv in workload.invocations:
        inv.scenario(cli).symbol().validate()
    return {"versions": versions()}


def serve(workload, outdir: str, with_refs: bool) -> None:
    """Answer runner calls, one index per line of standard input."""
    replies = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)  # whatever the program prints goes to stderr, not into the replies

    def reply(payload) -> None:
        replies.write(json.dumps(payload) + "\n")
        replies.flush()

    import indexlab.cli as cli
    from calib import reference_seconds

    invocations = workload.invocations
    warm = invocations[workload.warmup]
    warm.run(cli, warm.scenario(cli))
    reply({"versions": versions()})
    for line in iter(sys.stdin.readline, ""):
        i = int(line)
        inv = invocations[i]
        scenario = inv.scenario(cli)
        before = reference_seconds() if with_refs else None
        t0 = time.perf_counter()
        try:
            report = inv.run(cli, scenario)
        except Exception as exc:  # a failed call is a counted failure, not a crash
            report = {"error": f"{type(exc).__name__}: {exc}"}
        took = time.perf_counter() - t0
        after = reference_seconds() if with_refs else None
        _dump(os.path.join(outdir, f"solve-{i}.json"), report)
        reply({"seconds": took, "refs": [before, after]})


def trace(workload, order: list[int], outdir: str) -> dict:
    from tracer import INDEXLAB_TARGETS, Tracer

    t0 = time.perf_counter()
    import indexlab.cli as cli  # timed: the cold import
    import_s = time.perf_counter() - t0

    tracer = Tracer()
    tracer.install(INDEXLAB_TARGETS, "indexlab")
    main = cli.main
    invocations = workload.invocations
    warm = invocations[workload.warmup]
    main(warm.argv() + ["--out", os.path.join(outdir, "trace-warmup.json")])
    tracer.reset()

    exits, counts = [], []
    for i in order:
        before = tracer.counts()
        try:
            exits.append(main(invocations[i].argv() + ["--out", os.path.join(outdir, f"trace-{i}.json")]))
        except Exception as exc:  # an uncaught error is a counted failure
            print(f"trace: {invocations[i].label}: {type(exc).__name__}: {exc}", file=sys.stderr)
            exits.append(-1)
        after = tracer.counts()
        counts.append({k: after[k] - before.get(k, 0) for k in after})
    return {
        "import_s": import_s,
        "solve_s": tracer.runner_total,
        "metrics": tracer.metrics(),
        "exits": exits,
        "counts": counts,
        "versions": versions(),
    }


def main(argv: list[str]) -> int:
    from workloads import WORKLOADS

    mode, name, *rest = argv
    workload = WORKLOADS[name]
    if mode == "serve":
        serve(workload, rest[0], with_refs=rest[1] == "1")
        return 0
    if mode == "setup":
        out = setup(workload)
    else:
        out = trace(workload, [int(i) for i in rest[0].split(",")], rest[1])
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
