"""Check that two revisions write the same bytes, command by command.

    python3 tools/identity_check.py --base HEAD~1 --seeds 0 41

Both sides are extracted with `git archive`, as tools/bench_pairs.py does:
the base revision, and `--head REV` or else the tracked files of the working
tree. For each seed the tool writes a corpus in the benchmark's sort-analyze
style (1000 sets of 4-12 points in the unit square, every second set snapped
to a grid of eighths) and runs, on each side, `tokensort train-latent` on it
(10 epochs, lgp 0.01), `sort` and `analyze` with every scheme (latent with the
side's own model), `gen-planar --count 20`, `metrics` of the corpus against
its copy with every set snapped to the grid, `ambiguity-grid` by each scheme
and by the side's model, and a small `tsp-bench`. It also runs, with the
side's tree, `metrics.smd` on the base side's `gen-planar` graphs: each
consecutive pair and each graph with itself, every value written with
`float.hex`; a 5-epoch training (lgp 0.01) on those graphs' edge tokens,
ragged 4-D sets, digested by its model file; `datagen.delaunay` on seeded
point sets, collinear triples and duplicate points among them; and the
analysis kernels `rank_probability_matrix`, `tridiagonal_P` and
`swap_probability` on seeded latent profiles, zero variances and equal means
among them; and, with the first seed only, since it takes no seed,
`generate_planar_graph` on seeds 0-1999, digested by node features and edges.
It compares the sha256 of every output, prints one line per output and exits
1 unless every digest matches.
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
GRID_SCHEMES = ("mean-squared", "summation")
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
# argv[1]: a graph file; trains a latent-sort model on its graphs' edge tokens
# (one 4-D set per graph, of as many sizes as the graphs have edge counts)
# for EDGE_EPOCHS epochs at lgp LGP and prints the sha256 of the model file
EDGE_EPOCHS = 5
EDGE_TRAIN_SCRIPT = f"""
import hashlib, sys
from pathlib import Path
from tokensort.core import read_graphs, tokenize_edges
from tokensort.latentsort import TrainConfig, save_model, train
model, _ = train([tokenize_edges(g) for g in read_graphs(sys.argv[1])],
                 TrainConfig(epochs={EDGE_EPOCHS}, lgp_coefficient={LGP}))
save_model(model, "edge-model.json")
print(hashlib.sha256(Path("edge-model.json").read_bytes()).hexdigest())
"""
# argv[1]: a seed; prints the triangles delaunay returns, or the error it
# raises, one line a set, for DELAUNAY_SETS seeded sets of 4-39 points in the
# unit square, each in four forms: as drawn, snapped to a grid of quarters
# (collinear triples, duplicate points), with its first half moved onto one
# line, and with all of it on that line
DELAUNAY_SETS = 200
DELAUNAY_SCRIPT = f"""
import sys, warnings
import numpy as np
from tokensort.datagen import DegenerateInputError, delaunay
warnings.simplefilter("ignore")  # the duplicate-point warning
rng = np.random.default_rng(np.random.SeedSequence([int(sys.argv[1]), 11]))
for _ in range({DELAUNAY_SETS}):
    pts = rng.uniform(size=(int(rng.integers(4, 40)), 2))
    half, line = pts.copy(), pts.copy()
    half[: len(pts) // 2, 1] = line[:, 1] = 0.5
    for p in (pts, np.round(pts * 4) / 4, half, line):
        try:
            print(delaunay(p))
        except DegenerateInputError as exc:
            print(repr(exc))
"""
# argv[1]: a count; prints the sha256 of the node features and the edges of
# the planar graphs generate_planar_graph makes for seeds 0 to count - 1; the
# tool runs it at PLANAR_SEEDS, whose digest the ROADMAP cites
PLANAR_SEEDS = 2000
PLANAR_SCRIPT = """
import hashlib, sys
from tokensort.datagen import PlanarGenConfig, generate_planar_graph
h = hashlib.sha256()
for seed in range(int(sys.argv[1])):
    g = generate_planar_graph(PlanarGenConfig(seed=seed))
    h.update(g.node_features.tobytes())
    h.update(repr(g.edges).encode())
print(h.hexdigest())
"""
# argv[1]: a seed; prints the sha256 of what three analysis kernels return on
# ANALYSIS_PROFILES seeded latent profiles of 1-13 elements, one line a kernel:
# rank_probability_matrix of each profile, tridiagonal_P of it with its means
# sorted, and swap_probability of every ordered pair, as float.hex. Every
# third profile has about half its variances zero and its means rounded to
# integers, and every third all its variances zero and its means rounded to
# halves, so that the 1 / 0 / 0.5 rule and equal means are reached
ANALYSIS_PROFILES = 3000
ANALYSIS_SCRIPT = f"""
import hashlib, sys
import numpy as np
from tokensort.analysis import LatentGaussianProfile, rank_probability_matrix, swap_probability, tridiagonal_P
rng = np.random.default_rng(np.random.SeedSequence([int(sys.argv[1]), 13]))
rank, tri, swap = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
for k in range({ANALYSIS_PROFILES}):
    m = int(rng.integers(1, 14))
    mu, var = rng.normal(size=m), rng.uniform(0.0, 0.5, size=m)
    if k % 3 == 1:
        var[rng.integers(0, m, size=m // 2 + 1)] = 0.0
        mu = np.round(mu)
    elif k % 3 == 2:
        var[:] = 0.0
        mu = np.round(mu * 2) / 2
    rank.update(rank_probability_matrix(LatentGaussianProfile(mu, var)).tobytes())
    tri.update(tridiagonal_P(LatentGaussianProfile(np.sort(mu), var)).tobytes())
    for i in range(m):
        for j in range(m):
            swap.update(float(swap_probability(mu[i], var[i], mu[j], var[j])).hex().encode())
print("rank", rank.hexdigest())
print("tridiagonal", tri.hexdigest())
print("swap", swap.hexdigest())
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
    grids = {scheme: ["--scheme", scheme] for scheme in GRID_SCHEMES} | {"model": ["--model", str(model)]}
    for name, source in grids.items():
        cmds[f"ambiguity-grid {name}"] = ["ambiguity-grid", *source, "--res", str(GRID_RES),
                                          "--out", str(out / f"grid-{name}.csv")]
    cmds["tsp-bench"] = ["tsp-bench", *TSP_BENCH, "--seed", str(seed),
                         "--out", str(out / "tsp-bench.csv")]
    return cmds


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def scripts(seed: int, graphs: Path, planar: bool) -> list[tuple[str, str, object]]:
    """(output name, script, its argument) of each script a side runs:
    SMD_SCRIPT and EDGE_TRAIN_SCRIPT on `graphs`, DELAUNAY_SCRIPT and
    ANALYSIS_SCRIPT at `seed`, and with `planar` PLANAR_SCRIPT at
    PLANAR_SEEDS, whose output is the same at every seed."""
    runs = [("smd", SMD_SCRIPT, graphs), ("train on edge tokens", EDGE_TRAIN_SCRIPT, graphs),
            ("delaunay", DELAUNAY_SCRIPT, seed), ("analysis", ANALYSIS_SCRIPT, seed)]
    return runs + [("planar", PLANAR_SCRIPT, PLANAR_SEEDS)] if planar else runs


def run_side(tree: Path, corpus: Path, snapped: Path, out: Path, seed: int,
             graphs: Path, planar: bool) -> dict[str, str]:
    """Run every command, then the scripts, with the tokensort of `tree`;
    output name -> sha256, or "exit <code>" for one that failed."""
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
    for name, script, arg in scripts(seed, graphs, planar):
        proc = subprocess.run([sys.executable, "-c", script, str(arg)], cwd=out, env=env,
                              capture_output=True)
        digests[name] = (hashlib.sha256(proc.stdout).hexdigest() if proc.returncode == 0
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
        for k, seed in enumerate(args.seeds):
            corpus = workdir / f"corpus-{seed}.jsonl"
            snapped = workdir / f"snapped-{seed}.jsonl"
            write_corpus(corpus, seed)
            write_corpus(snapped, seed, snap_all=True)
            digests = {}
            graphs = workdir / f"out-base-{seed}" / "planar.jsonl"  # both sides score the same graphs
            for side, tree in trees.items():  # base first: it writes `graphs`
                out = workdir / f"out-{side}-{seed}"
                out.mkdir()
                digests[side] = run_side(tree, corpus, snapped, out, seed, graphs, planar=k == 0)
            results[seed] = compare(digests["base"], digests["head"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    text, ok = report(results)
    print(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
