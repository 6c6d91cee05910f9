"""Benchmark for dmoc: whole loss-curve sweeps, timed inside one single-threaded process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. NAME is one of pcs-paper-sweep, pcs-large-n,
rtp-cli-sweep, or ``all``, which runs each workload in its own process in
turn. The seed makes the inputs. Operations (one sweep each) repeat until S
seconds have passed; every output is checked against values the benchmark
computes itself. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("pcs-paper-sweep", "pcs-large-n", "rtp-cli-sweep")
# OpenBLAS otherwise starts one thread per core at import, and those threads
# compete with the program for the same cores.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_ROUNDS = 3
UNITS = {"_s": "s", "_mb": "MB", "_pct": "%", "_bytes": "B", "_per_start": "ratio"}


def _unit(name: str) -> str:
    return next((u for suffix, u in UNITS.items() if name.endswith(suffix)), "count")


def _timed_ops(workload, seconds: float, tracer_cls=None):
    """Repeat whole rounds until ``seconds`` have passed.

    A round sweeps each input instance once, or with ``tracer_cls`` twice:
    untraced, then traced. Returns the outcome of every operation as
    ``(traced, seconds or None if it raised, rows passed their checks, rows, spans)``.
    """
    import checks

    outcomes = []
    start = time.perf_counter()
    while not outcomes or time.perf_counter() - start < seconds:
        for i in range(workload.instances):
            for traced in ((False, True) if tracer_cls else (False,)):
                tracer = tracer_cls() if traced else None
                t = time.perf_counter()
                try:
                    if tracer:
                        with tracer:
                            rows = workload.run(i)
                    else:
                        rows = workload.run(i)
                except Exception as err:  # an operation that raises counts as failed
                    print(f"operation failed: {err!r}", file=sys.stderr)
                    outcomes.append((traced, None, False, None, None))
                    continue
                elapsed = time.perf_counter() - t
                ok = True
                try:
                    workload.check(i, rows)
                except checks.CheckError as err:
                    print(f"check failed: {err}", file=sys.stderr)
                    ok = False
                outcomes.append((traced, elapsed, ok, rows, tracer.spans if tracer else None))
    return outcomes


def run_one(args) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "dmoc").is_dir():
        print(f"error: no dmoc package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    t0 = time.perf_counter()
    import workloads  # numpy, scipy, yaml and dmoc

    import_s = time.perf_counter() - t0
    import checks
    import tracing

    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.make(args.workload, args.seed, workdir)
        prep = []
        for _ in range(SETUP_ROUNDS):
            t = time.perf_counter()
            workload.prepare()
            prep.append(time.perf_counter() - t)
        setup_s = import_s + statistics.median(prep)
        workload.reference()
        outcomes = _timed_ops(workload, args.seconds, tracing.Tracer if args.trace else None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    done = [o for o in outcomes if o[1] is not None]
    failed = len(outcomes) - len(done)
    correct = all(o[2] for o in done)
    if not done:
        print("error: every operation failed", file=sys.stderr)
        return 1
    plain = [o[1] for o in done if not o[0]]
    if args.trace:
        traced = [o for o in done if o[0]]
        # means over the traced sweeps, so that the layer figures of one sweep add up
        per_op = [tracing.layer_metrics(o[4]) for o in traced]
        values = {k: statistics.fmean(m[k] for m in per_op) for k in per_op[0]}
        values["trace.sweep_s"] = statistics.fmean(o[1] for o in traced)
        values["trace.overhead_s"] = values["trace.sweep_s"] - statistics.fmean(plain)
        with open(out_dir / f"trace-{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "ops": [o[4] for o in traced]}, fh)
    else:
        values = {
            "sweep_s": statistics.median(plain),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "dmoc_loss_pct": statistics.fmean(checks.mean_loss(o[3], "dmoc") for o in done),
        }
    metrics = {k: {"value": v, "unit": _unit(k)} for k, v in values.items()}
    print(f"{args.workload} seed {args.seed}: operation seconds", " ".join(f"{o[1]:.3f}" for o in done))
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(outcomes), "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process, one after another."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
