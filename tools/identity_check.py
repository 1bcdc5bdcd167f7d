"""Check that two revisions write the same bytes, command by command.

    python3 tools/identity_check.py --base HEAD~1 --seeds 0 41

Both sides are extracted with `git archive`, as tools/bench_pairs.py does:
the base revision, and `--head REV` or else the tracked files of the working
tree. For each seed the tool writes a corpus in the benchmark's sort-analyze
style (1000 sets of 4-12 points in the unit square, every second set snapped
to a grid of eighths) and runs, on each side, `tokensort train-latent` on it
(10 epochs, lgp 0.01), `sort` and `analyze` with every scheme (latent with the
side's own model), `gen-planar --count 20`, `metrics` of the corpus against
its copy with every set snapped to the grid, `ambiguity-grid` by a scheme and
by the side's model, and a small `tsp-bench`. It also runs `metrics.smd` of
the side's tree on the base side's `gen-planar` graphs: each consecutive pair
and each graph with itself, every value written with `float.hex`. It compares
the sha256 of every output, prints one line per output and exits 1 unless
every digest matches.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SCHEMES = ("lex", "mean-squared", "svd", "latent")
CORPUS_SETS = 1000
SET_SIZES = (4, 12)
GRID_STEPS = 8
EPOCHS = 10
LGP = 0.01
PLANAR_GRAPHS = 20
MATCH_TOL = 0.05  # below the largest snapping shift, so some tokens match and some do not
GRID_RES = 64
TSP_BENCH = ["--n", "5", "--runs", "2", "--epochs", "2", "--train-sets", "50"]
# argv[1]: a graph file; prints the smd of each consecutive pair of its graphs,
# then of each graph with itself, one float.hex a line
SMD_SCRIPT = """
import sys
from tokensort.core import read_graphs
from tokensort.metrics import smd
graphs = read_graphs(sys.argv[1])
pairs = list(zip(graphs, graphs[1:])) + [(g, g) for g in graphs]
print("\\n".join(smd(a, b).hex() for a, b in pairs))
"""


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_corpus(path: Path, seed: int, snap_all: bool = False) -> None:
    """The sort-analyze corpus style: every second set snapped to the grid,
    so that keys tie and ambiguity groups form; with `snap_all`, the same
    sets with every one snapped."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 5]))
    with open(path, "w") as fh:
        for k in range(CORPUS_SETS):
            pts = rng.uniform(0.0, 1.0, size=(int(rng.integers(SET_SIZES[0], SET_SIZES[1] + 1)), 2))
            if snap_all or k % 2:
                pts = np.round(pts * GRID_STEPS) / GRID_STEPS
            fh.write(json.dumps({"tokens": pts.tolist()}) + "\n")


def commands(corpus: Path, snapped: Path, out: Path, seed: int) -> dict[str, list[str]]:
    """Output name -> the tokensort arguments that write it, in run order;
    `snapped` is the corpus with every set snapped to the grid."""
    model = out / "model.json"
    cmds = {"train-latent": ["train-latent", "--in", str(corpus), "--epochs", str(EPOCHS),
                             "--lgp", str(LGP), "--seed", str(seed), "--out", str(model)]}
    for scheme in SCHEMES:
        extra = ["--model", str(model)] if scheme == "latent" else []
        cmds[f"sort {scheme}"] = ["sort", "--scheme", scheme, "--in", str(corpus),
                                  "--out", str(out / f"sort-{scheme}.jsonl"), *extra]
        cmds[f"analyze {scheme}"] = ["analyze", "--scheme", scheme, "--in", str(corpus),
                                     "--report", str(out / f"analyze-{scheme}.json"), *extra]
    cmds["gen-planar"] = ["gen-planar", "--count", str(PLANAR_GRAPHS), "--seed", str(seed),
                          "--out", str(out / "planar.jsonl")]
    cmds["metrics"] = ["metrics", "--pred", str(corpus), "--gt", str(snapped),
                       "--match-tol", str(MATCH_TOL), "--out", str(out / "metrics.csv")]
    for source, value in (("scheme", "mean-squared"), ("model", str(model))):
        cmds[f"ambiguity-grid {source}"] = ["ambiguity-grid", f"--{source}", value, "--res",
                                            str(GRID_RES), "--out", str(out / f"grid-{source}.csv")]
    cmds["tsp-bench"] = ["tsp-bench", *TSP_BENCH, "--seed", str(seed),
                         "--out", str(out / "tsp-bench.csv")]
    return cmds


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_side(tree: Path, corpus: Path, snapped: Path, out: Path, seed: int,
             graphs: Path) -> dict[str, str]:
    """Run every command, then SMD_SCRIPT on `graphs`, with the tokensort of
    `tree`; output name -> sha256, or "exit <code>" for one that failed."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    digests = {}
    for name, argv in commands(corpus, snapped, out, seed).items():
        proc = subprocess.run([sys.executable, "-m", "tokensort.cli", *argv], cwd=out, env=env,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            digests[name] = f"exit {proc.returncode}"
            continue
        target = Path(argv[argv.index("--report" if name.startswith("analyze") else "--out") + 1])
        digests[name] = _sha256(target)
        if name == "train-latent":
            digests["train-latent history"] = _sha256(Path(str(target) + ".history.csv"))
    proc = subprocess.run([sys.executable, "-c", SMD_SCRIPT, str(graphs)], cwd=out, env=env,
                          capture_output=True)
    digests["smd"] = (hashlib.sha256(proc.stdout).hexdigest() if proc.returncode == 0
                      else f"exit {proc.returncode}")
    return digests


def compare(base: dict[str, str], head: dict[str, str]) -> list[tuple[str, str]]:
    """(output, verdict) for every output either side wrote, sorted by name:
    "same", "differs", "failed in both" (a command that wrote nothing proves
    nothing, even with the same exit code), or "missing in base"/"missing in
    head"."""
    rows = []
    for name in sorted(base.keys() | head.keys()):
        if name not in base:
            rows.append((name, "missing in base"))
        elif name not in head:
            rows.append((name, "missing in head"))
        elif base[name] != head[name]:
            rows.append((name, "differs"))
        else:
            rows.append((name, "failed in both" if base[name].startswith("exit ") else "same"))
    return rows


def report(results: dict[int, list[tuple[str, str]]]) -> tuple[str, bool]:
    """The printed report of every seed's comparison, and whether every
    output matched."""
    lines, ok = [], True
    for seed, rows in sorted(results.items()):
        for name, verdict in rows:
            lines.append(f"seed {seed} {name}: {verdict}")
            ok &= verdict == "same"
    same = sum(v == "same" for rows in results.values() for _, v in rows)
    total = sum(len(rows) for rows in results.values())
    lines.append(f"{same} of {total} outputs identical")
    return "\n".join(lines), ok and total > 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="revision the head side is compared against")
    p.add_argument("--head", help="revision to compare (default: the working tree's tracked files)")
    p.add_argument("--seeds", type=int, nargs="+", default=[0, 41])
    args = p.parse_args(argv)

    bench_pairs = _bench_pairs()
    workdir = Path(tempfile.mkdtemp(prefix="identity-check-"))
    try:
        trees = {}
        for side, rev in (("base", args.base), ("head", args.head or bench_pairs.working_tree_commit())):
            trees[side] = workdir / side
            trees[side].mkdir()
            bench_pairs.extract(rev, trees[side])
        results = {}
        for seed in args.seeds:
            corpus = workdir / f"corpus-{seed}.jsonl"
            snapped = workdir / f"snapped-{seed}.jsonl"
            write_corpus(corpus, seed)
            write_corpus(snapped, seed, snap_all=True)
            digests = {}
            graphs = workdir / f"out-base-{seed}" / "planar.jsonl"  # both sides score the same graphs
            for side, tree in trees.items():  # base first: it writes `graphs`
                out = workdir / f"out-{side}-{seed}"
                out.mkdir()
                digests[side] = run_side(tree, corpus, snapped, out, seed, graphs)
            results[seed] = compare(digests["base"], digests["head"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    text, ok = report(results)
    print(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
