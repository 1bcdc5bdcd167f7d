"""Benchmark of tokensort: one workload per run, one BLAS thread, outputs checked.

    python3 perfbench/run.py --workload path-n8 --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from `src/`.
With `--trace 0` the run measures the end-to-end metrics: set-up time, peak
memory and the median round time. With `--trace 1` each round runs twice,
untraced and traced, and the run reports per-layer metrics: self time and
calls of the functions in `tracing.LAYERS`, two work counts and the tracing
overhead from the traced rounds, and the phase throughputs in
`workloads.PHASE_METRICS` from the untraced ones. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""
import time

START = time.perf_counter()  # set-up time is measured from here, before any import of numpy

import argparse
import contextlib
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["path-n8", "graph-edges", "sort-analyze"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def environment() -> dict:
    import numpy as np

    return {
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "loadavg": os.getloadavg(),
    }


def measure(workload, seconds: float, trace: bool, ops):
    """Run whole rounds until the next one would end past `seconds`.

    When tracing, each round is run twice, once untraced and once traced, in
    alternating order. Returns the untraced rounds, the traced rounds and the
    tracer.
    """
    from tracing import Tracer, instrument

    rounds, traced = [], []
    tracer = Tracer()
    t0 = time.perf_counter()
    for pair in itertools.count():
        r0 = time.perf_counter()
        for traced_now in ((False, True) if pair % 2 == 0 else (True, False)) if trace else (False,):
            t1 = time.perf_counter()
            with instrument(tracer) if traced_now else contextlib.nullcontext():
                rnd = workload.run_round(ops)
            rnd.wall = time.perf_counter() - t1
            (traced if traced_now else rounds).append(rnd)
        last = time.perf_counter() - r0
        if time.perf_counter() - t0 + last > seconds:
            return rounds, traced, tracer


def per_layer_metrics(tracer, phases: dict[str, float], rounds, traced) -> dict:
    """Per traced round: self time and calls of every traced function and the
    work counts; the tracing overhead; the phase metrics of the untraced rounds."""
    from tracing import FUNCTIONS
    from workloads import PHASE_METRICS

    summary = tracer.summary()
    n = len(traced)
    out = {}
    for name in FUNCTIONS:
        self_s, calls = summary[name]
        out[f"{name}.self_s"] = (self_s / n, "s")
        out[f"{name}.calls"] = (calls // n, "count")
    for key, count in tracer.work.items():
        out[key] = (count // n, "count")
    overhead = statistics.median(r.wall for r in traced) - statistics.median(r.wall for r in rounds)
    out["trace.overhead_s"] = (overhead, "s")
    for name, unit in PHASE_METRICS.items():
        out[name] = (phases.get(name, 0.0), unit)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tokensort" / "__init__.py").is_file():
        print(f"perfbench: no tokensort sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    env_start = environment()
    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        workload.setup()
        setup_s = time.perf_counter() - START
        ops = workloads.Ops()
        rounds, traced, tracer = measure(workload, args.seconds, bool(args.trace), ops)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        t_check = time.perf_counter()
        import checks

        results = checks.CHECKS[args.workload](workload, rounds + traced) if not ops.failed else [
            ("operations", False, "checks not run: operations failed")]
        check_s = time.perf_counter() - t_check
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env_end = environment()

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"environment at start {json.dumps(env_start)}")
    print(f"environment at end   {json.dumps(env_end)}")
    print(f"set-up {setup_s:.4f} s; checks {check_s:.2f} s")
    for kind, runs in (("round", rounds), ("traced round", traced)):
        for i, r in enumerate(runs):
            print(f"{kind} {i}: {r.wall:.4f} s; " + ", ".join(f"{k} {v:.4f} s" for k, v in r.times.items()))
    phases = workload.phase_metrics(rounds)
    print("phases: " + ", ".join(f"{k} {v:.6g}" for k, v in phases.items()))
    print(f"operations attempted {ops.attempted} failed {ops.failed}")
    for err in ops.errors[:10]:
        print(f"  FAILED {err}")
    for name, ok, detail in results:
        print(f"check {'PASS' if ok else 'FAIL'} {name}: {detail}")

    if args.trace:
        metrics = per_layer_metrics(tracer, phases, rounds, traced)
    else:
        metrics = {"setup_s": (setup_s, "s"), "peak_rss_mb": (peak_rss_mb, "MB"),
                   "round_s": (statistics.median(r.wall for r in rounds), "s")}
    correct = all(ok for _, ok, _ in results)
    print(json.dumps({"correct": correct, "attempted": ops.attempted, "failed": ops.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
