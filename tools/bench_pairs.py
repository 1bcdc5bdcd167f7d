"""Run the benchmark in alternating pairs, base commit against head commit.

    python3 tools/bench_pairs.py --base HEAD~1 --workload sort-analyze \
        --pairs 10 --first-seed 601 --out BENCH_x.json

Both sides are extracted the same way, with `git archive` into a temporary
directory, so neither runs from a tree the other does not have. The head
side is `--head REV`, or else the tracked files of the working tree as
`git stash create` commits them, without touching the tree or the index;
untracked files are left out. Pair i runs `python3 perfbench/run.py` on both
sides with seed first-seed + i, base first in even pairs and second in odd
ones, one run at a time. Only the last line of each run's output is read: perfbench's JSON
result. The output file holds every run, and per workload and metric the
median and quartiles of each side and how many pairs the head side won,
ties counting for neither, with the environment the runs shared. Each
end-to-end metric is also checked against its bound in BENCHMARK.json, a
fraction of the base median: `beyond_bound` when the head median is worse
than the base median by more than the bound, and `unresolved` when the
base's quartile distance is wider than the bound, so that ten pairs cannot
tell a change within it from noise. Per workload, the output also holds
each side's median operations attempted in a run and the share of them
that failed, with `head_fails_more` set when the head's share is higher.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def extract(rev: str, dest: Path) -> str:
    """Write the tree of `rev` into dest; return its commit hash."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.Popen(["git", "archive", "--format=tar", commit], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {commit} failed")
    return commit


def working_tree_commit() -> str:
    """A commit of the tracked files as they are in the working tree:
    `git stash create`, or HEAD when nothing differs from it."""
    stash = subprocess.run(["git", "stash", "create"], cwd=ROOT, check=True, capture_output=True,
                           text=True).stdout.strip()
    return stash or "HEAD"


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in `tree`; its JSON result line, or the failure."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"exit": proc.returncode, "error": proc.stderr[-2000:]}
    return {"exit": proc.returncode, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def benchmark_rules() -> tuple[dict[str, str], dict[str, float]]:
    """From BENCHMARK.json: metric -> "lower" or "higher", and end-to-end
    metric -> its bound."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]},
            {m["name"]: m["bound"] for m in spec["end_to_end"]})


def _spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(runs: list[dict], better: dict[str, str], bounds: dict[str, float] | None = None) -> dict:
    """Per workload and metric: each side's median and quartiles
    (statistics.quantiles, n=4), the pairs the head side won, the pairs
    counted, and whether the medians differ by more than the base's
    quartile distance. A metric with a bound, a fraction of the base median,
    also gets `beyond_bound` (the head median is worse by more than it) and
    `unresolved` (the base's quartile distance is wider than it). A pair
    counts for a metric when both of its runs report it."""
    pairs: dict[tuple[str, int], dict[str, dict]] = {}
    for r in runs:
        if "metrics" in r:
            pairs.setdefault((r["workload"], r["pair"]), {})[r["side"]] = r["metrics"]
    out: dict[str, dict] = {}
    for (workload, _), sides in sorted(pairs.items()):
        if set(sides) != {"base", "head"}:
            continue
        for name in sides["base"].keys() & sides["head"].keys():
            entry = out.setdefault(workload, {}).setdefault(
                name, {"better": better.get(name, "lower"), "base_values": [], "head_values": []})
            entry["base_values"].append(sides["base"][name])
            entry["head_values"].append(sides["head"][name])
    for metrics in out.values():
        for name, entry in metrics.items():
            base, head = entry["base_values"], entry["head_values"]
            sign = -1.0 if entry["better"] == "lower" else 1.0
            entry["pairs"] = len(base)
            entry["head_wins"] = sum(sign * (h - b) > 0 for b, h in zip(base, head))
            entry["base"], entry["head"] = _spread(base), _spread(head)
            gap = entry["head"]["median"] - entry["base"]["median"]
            entry["median_change"] = gap / entry["base"]["median"] if entry["base"]["median"] else None
            iqr = entry["base"]["q3"] - entry["base"]["q1"]
            entry["gap_exceeds_base_iqr"] = abs(gap) > iqr
            bound = (bounds or {}).get(name)
            if bound is not None:
                allowed = bound * abs(entry["base"]["median"])
                entry["bound"] = bound
                entry["beyond_bound"] = -sign * gap > allowed
                entry["unresolved"] = iqr > allowed
    return out


def operations(runs: list[dict]) -> dict:
    """Per workload and side, over the runs that printed a result: the median
    operations attempted in a run and the share of all attempted operations
    that failed; and `head_fails_more`, whether the head's share is higher.
    A workload missing a side is left out."""
    by_side: dict[str, dict[str, list[dict]]] = {}
    for r in runs:
        if "attempted" in r:
            by_side.setdefault(r["workload"], {}).setdefault(r["side"], []).append(r)
    out: dict[str, dict] = {}
    for workload, sides in sorted(by_side.items()):
        if set(sides) != {"base", "head"}:
            continue
        entry = out[workload] = {}
        for side, rs in sides.items():
            attempted = sum(r["attempted"] for r in rs)
            entry[side] = {"runs": len(rs), "attempted": statistics.median(r["attempted"] for r in rs),
                           "failed_share": sum(r["failed"] for r in rs) / attempted if attempted else 0.0}
        entry["head_fails_more"] = entry["head"]["failed_share"] > entry["base"]["failed_share"]
    return out


def environment() -> dict:
    import numpy

    return {
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "blas_threads": 1,  # perfbench/run.py sets the thread variables to 1 too
        "loadavg": os.getloadavg(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="revision the head side is compared against")
    p.add_argument("--head", help="revision to compare (default: the working tree's tracked files)")
    p.add_argument("--workload", action="append", required=True,
                   choices=["path-n8", "graph-edges", "sort-analyze"])
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--first-seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    workdir = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        sources = {"base": args.base, "head": args.head or working_tree_commit()}
        trees, revs = {}, {}
        for side, rev in sources.items():
            trees[side] = workdir / side
            trees[side].mkdir()
            revs[side] = extract(rev, trees[side])
        env_start = environment()
        runs = []
        for workload in args.workload:
            for pair in range(args.pairs):
                seed = args.first_seed + pair
                for side in ("base", "head") if pair % 2 == 0 else ("head", "base"):
                    run = run_once(trees[side], workload, seed, args.seconds, args.trace)
                    runs.append({"workload": workload, "pair": pair, "seed": seed, "side": side, **run})
                    print(f"{workload} seed {seed} {side}: exit {run['exit']} correct {run.get('correct')} "
                          f"round_s {run.get('metrics', {}).get('round_s')}", flush=True)
        record = {
            "revisions": revs,
            "head_from": args.head or "working tree",
            "seconds": args.seconds,
            "trace": args.trace,
            "environment": {"start": env_start, "end": environment()},
            "summary": summarize(runs, *benchmark_rules()),
            "operations": operations(runs),
            "runs": runs,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0 if all(r.get("exit") == 0 and r.get("correct") for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
