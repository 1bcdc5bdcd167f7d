"""The benchmark's workloads: inputs made from a seed, one timed round, and
the end-to-end metrics derived from the rounds of a run.

A round repeats the same operations on the same inputs every time, so the
program's outputs must repeat exactly from round to round. The program sees
only the generated inputs; the checks in `checks.py` compute their references
apart from it.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from tokensort import analysis, cli, core, datagen, latentsort, metrics, sorters, tspbench

# path-n8: held-out sets scored per round. Each costs one exhaustive
# enumeration of 8!/2 open paths, so each is timed on its own and the rate is
# taken from the median set.
EVAL_SETS = 32

# graph-edges: graphs per round, training epochs on their edge tokens, and
# graph pairs compared by smd (graph 2i against graph 2i + 1).
GRAPHS = 100
GRAPH_EPOCHS = 60
GRAPH_LGP = 0.01
SMD_PAIRS = 10

# sort-analyze: token sets in the corpus, their sizes, the grid that every
# second set is snapped to (so that keys tie and ambiguity groups form), the
# schemes timed through `tokensort sort`, the one timed through `analyze`,
# the epochs of the model trained in set-up, and the rank-matrix sizes (three
# profiles of each).
CORPUS_SETS = 1000
SET_SIZES = (4, 12)
GRID_STEPS = 8
SORT_SCHEMES = ("lex", "mean-squared", "svd", "latent")
ANALYZE_SCHEME = "mean-squared"
MODEL_EPOCHS = 10
MODEL_LGP = 0.01
RANK_SIZES = tuple(range(2, 13)) * 3


# Throughput and quality of each workload's phases, with their units. Every
# workload reports round_s end to end; these single out the layers behind a
# round and are reported with the per-layer metrics, as 0 where a workload
# has no such phase.
PHASE_METRICS = {
    "train_sets_per_s": "sets/s",
    "eval_sets_per_s": "sets/s",
    "path_percentile": "fraction",
    "graphs_per_s": "graphs/s",
    "smd_pairs_per_s": "pairs/s",
    "sort_sets_per_s": "sets/s",
    "analyze_sets_per_s": "sets/s",
    "rank_matrices_per_s": "matrices/s",
}


class Ops:
    """Counts the operations a run attempts and those that fail."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # a failed operation is counted; the round goes on
            self.failed += 1
            self.errors.append(f"{getattr(fn, '__name__', fn)}: {exc!r}")
            return None

    def cli(self, argv: list[str], n_sets: int) -> int:
        """`tokensort <argv>` in this process; each of its n_sets sets is one operation."""
        self.attempted += n_sets
        code = cli.main(argv)
        if code != 0:
            self.failed += n_sets
            self.errors.append(f"tokensort {argv[0]} exited {code}")
        return code


@dataclass
class Round:
    times: dict[str, float] = field(default_factory=dict)  # phase -> wall seconds
    out: dict = field(default_factory=dict)  # the program's outputs
    samples: list[float] = field(default_factory=list)  # seconds per operation of equal cost
    wall: float = 0.0  # seconds for the whole round


@contextlib.contextmanager
def _timed(times: dict[str, float], name: str):
    """Add the wall time of the block to times[name]."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        times[name] = times.get(name, 0.0) + time.perf_counter() - t0


def _median_rate(rounds: list[Round], work: float, *phases: str) -> float:
    return statistics.median(work / sum(r.times[p] for p in phases) for r in rounds)


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))


def _score_latent_order(model, points: np.ndarray):
    """Order one held-out set by latent sort and score it by exhaustive enumeration."""
    seq = latentsort.latent_sort(model, core.TokenSet(points))
    index = {row.tobytes(): i for i, row in enumerate(points)}
    order = [index[row.tobytes()] for row in seq.rows]
    return order, tspbench.percentile_longer(points, order)


class PathN8:
    """The paper's path-quality protocol (tspbench.BenchConfig): train on 2000
    sets of 8 uniform 2-D points at the benchmark's lambda and epochs, then
    score held-out sets by the fraction of open paths longer than latent sort's."""

    name = "path-n8"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.bench = tspbench.BenchConfig(seed=seed)
        self.cfg = replace(self.bench.train, seed=seed)

    def setup(self) -> None:
        rng = _rng(self.seed, 8)
        m = self.bench.set_size
        self.train_sets = [core.TokenSet(rng.uniform(0.0, 1.0, size=(m, 2)))
                           for _ in range(self.bench.n_train_sets)]
        self.eval_sets = [rng.uniform(0.0, 1.0, size=(m, 2)) for _ in range(EVAL_SETS)]

    def run_round(self, ops: Ops) -> Round:
        rnd = Round()
        with _timed(rnd.times, "train"):
            trained = ops.run(latentsort.train, self.train_sets, self.cfg)
        model, history = trained if trained else (None, None)
        scored = []
        with _timed(rnd.times, "eval"):
            for pts in self.eval_sets:
                t0 = time.perf_counter()
                scored.append(ops.run(_score_latent_order, model, pts))
                rnd.samples.append(time.perf_counter() - t0)
        rnd.out = {"model": model, "history": history,
                   "orders": [s[0] if s else None for s in scored],
                   "scores": [s[1] if s else None for s in scored]}
        return rnd

    def phase_metrics(self, rounds: list[Round]) -> dict[str, float]:
        scores = [statistics.fmean(s for s in r.out["scores"] if s is not None) for r in rounds]
        return {
            "train_sets_per_s": _median_rate(rounds, self.bench.n_train_sets * self.cfg.epochs, "train"),
            "eval_sets_per_s": 1.0 / statistics.median(t for r in rounds for t in r.samples),
            "path_percentile": statistics.median(scores),
        }


class GraphEdges:
    """Planar graphs, their edge tokens (ragged sets in 4-D), latent sort
    trained on those tokens, each graph's edges ordered three ways, and smd
    between pairs of graphs."""

    name = "graph-edges"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.cfg = latentsort.TrainConfig(epochs=GRAPH_EPOCHS, lgp_coefficient=GRAPH_LGP, seed=seed)

    def setup(self) -> None:
        seeds = _rng(self.seed, 2).integers(0, 2**31, size=GRAPHS)
        self.gen_cfgs = [datagen.PlanarGenConfig(seed=int(s)) for s in seeds]

    def run_round(self, ops: Ops) -> Round:
        rnd = Round()
        with _timed(rnd.times, "generate"):
            graphs = [ops.run(datagen.generate_planar_graph, c) for c in self.gen_cfgs]
        with _timed(rnd.times, "tokenize"):
            tokens = [ops.run(core.tokenize_edges, g) for g in graphs]
        with _timed(rnd.times, "train"):
            trained = ops.run(latentsort.train, tokens, self.cfg)
        model, history = trained if trained else (None, None)
        with _timed(rnd.times, "order"):
            orders = {
                "latent": [ops.run(latentsort.latent_sort, model, ts) for ts in tokens],
                "bfs": [ops.run(sorters.bfs_sort, g) for g in graphs],
                "dfs": [ops.run(sorters.dfs_sort, g) for g in graphs],
            }
        with _timed(rnd.times, "smd"):
            smds = [ops.run(metrics.smd, graphs[2 * i], graphs[2 * i + 1]) for i in range(SMD_PAIRS)]
        rnd.out = {"graphs": graphs, "tokens": tokens, "model": model, "history": history,
                   "orders": orders, "smd": smds}
        return rnd

    def phase_metrics(self, rounds: list[Round]) -> dict[str, float]:
        return {
            "graphs_per_s": _median_rate(rounds, len(self.gen_cfgs), "generate"),
            "train_sets_per_s": _median_rate(rounds, len(self.gen_cfgs) * self.cfg.epochs, "train"),
            "smd_pairs_per_s": _median_rate(rounds, SMD_PAIRS, "smd"),
        }


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class SortAnalyze:
    """Inference only, through `tokensort.cli.main` in this process: a JSONL
    corpus sorted by four schemes and analyzed, and rank probability matrices
    of Gaussian latent profiles. The latent model is trained in set-up."""

    name = "sort-analyze"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir
        self.corpus = workdir / "corpus.jsonl"
        self.model = workdir / "model.json"
        self.report = workdir / "report.json"

    def sorted_path(self, scheme: str) -> Path:
        return self.dir / f"sorted-{scheme}.jsonl"

    def setup(self) -> None:
        rng = _rng(self.seed, 5)
        self.sets = []
        for k in range(CORPUS_SETS):
            pts = rng.uniform(0.0, 1.0, size=(int(rng.integers(SET_SIZES[0], SET_SIZES[1] + 1)), 2))
            if k % 2:
                pts = np.round(pts * GRID_STEPS) / GRID_STEPS
            self.sets.append(pts)
        with open(self.corpus, "w") as fh:
            for pts in self.sets:
                fh.write(json.dumps({"tokens": pts.tolist()}) + "\n")
        t0 = time.perf_counter()
        code = cli.main(["train-latent", "--in", str(self.corpus), "--epochs", str(MODEL_EPOCHS),
                         "--lgp", str(MODEL_LGP), "--seed", str(self.seed), "--out", str(self.model)])
        self.train_s = time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"tokensort train-latent exited {code} in set-up")
        self.profiles = []
        for m in RANK_SIZES:
            means = np.sort(rng.normal(0.0, 1.0, size=m))
            self.profiles.append(analysis.LatentGaussianProfile(means, rng.uniform(0.01, 0.5, size=m)))

    def run_round(self, ops: Ops) -> Round:
        rnd = Round()
        for scheme in SORT_SCHEMES:
            argv = ["sort", "--scheme", scheme, "--in", str(self.corpus), "--out", str(self.sorted_path(scheme))]
            if scheme == "latent":
                argv += ["--model", str(self.model)]
            with _timed(rnd.times, f"sort {scheme}"):
                ops.cli(argv, len(self.sets))
        with _timed(rnd.times, "analyze"):
            ops.cli(["analyze", "--in", str(self.corpus), "--scheme", ANALYZE_SCHEME,
                     "--report", str(self.report)], len(self.sets))
        with _timed(rnd.times, "rank"):
            matrices = [ops.run(analysis.rank_probability_matrix, p) for p in self.profiles]
        digests = {s: _digest(self.sorted_path(s)) for s in SORT_SCHEMES}
        digests["analyze"] = _digest(self.report)
        rnd.out = {"digests": digests, "rank": matrices}
        return rnd

    def phase_metrics(self, rounds: list[Round]) -> dict[str, float]:
        sorts = [f"sort {s}" for s in SORT_SCHEMES]
        return {
            "train_sets_per_s": len(self.sets) * MODEL_EPOCHS / self.train_s,
            "sort_sets_per_s": _median_rate(rounds, len(self.sets) * len(SORT_SCHEMES), *sorts),
            "analyze_sets_per_s": _median_rate(rounds, len(self.sets), "analyze"),
            "rank_matrices_per_s": _median_rate(rounds, len(self.profiles), "rank"),
        }


WORKLOADS = {w.name: w for w in (PathN8, GraphEdges, SortAnalyze)}
