"""Open-path quality benchmark for learned orderings.

For small point sets every open path can be enumerated (M!/2 after collapsing
reversals), so the quality of an ordering is the exact fraction of paths that
are strictly longer. A random ordering scores ~0.5 in expectation; perfect
length-sorting scores close to 1.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import TokenSet, _check_indices, _permutation
from .latentsort import TrainConfig, latent_sort, train

MAX_ENUM_POINTS = 10  # 10!/2 = 1.8M paths, still fine; beyond that refuse
PATH_CHUNK = 4096  # paths scored per step; bounds the transient memory to ~1 MB


def path_length(points: np.ndarray, order: np.ndarray | list[int] | None = None) -> float:
    """Total Euclidean length of the open path visiting points in order; a
    point may be visited more than once."""
    if order is not None:
        _check_indices(order, "order")
        outside = [i for i in order if not 0 <= i < len(points)]
        if outside:
            raise ValueError(f"order must index range({len(points)}), got {outside[0]}")
        points = points[np.asarray(order)]
    return float(np.linalg.norm(np.diff(points, axis=0), axis=1).sum())


@functools.lru_cache(maxsize=None)
def _open_paths(m: int) -> np.ndarray:
    """Every open path over m points once, as rows of an int8 table: the
    permutations with p[0] <= p[-1], in lexicographic order. m = 10 takes
    1.8M rows, 18 MB."""
    count = math.factorial(m) // 2 if m > 1 else 1
    flat = itertools.chain.from_iterable(p for p in itertools.permutations(range(m)) if p[0] <= p[-1])
    paths = np.fromiter(flat, dtype=np.int8, count=count * m).reshape(count, m)
    paths.flags.writeable = False
    return paths


def percentile_longer(points: np.ndarray, order: np.ndarray | list[int]) -> float:
    """Fraction of all distinct open paths strictly longer than the given one.

    Paths and their reversals have equal length, so enumeration fixes
    perm[0] < perm[-1], covering each undirected path exactly once. The
    reference is measured in that same orientation: summed in reverse, its
    length can differ from its enumerated twin's by an ulp, and the twin would
    then count as strictly longer than itself. Every length is summed edge by
    edge from one distance matrix, exactly as path_length sums it.
    """
    m = len(points)
    if m < 1:
        raise ValueError("percentile_longer needs at least one point")
    if m > MAX_ENUM_POINTS:
        raise ValueError(f"refusing to enumerate paths for {m} > {MAX_ENUM_POINTS} points")
    order = _permutation(order, m, "order")
    if order[0] > order[-1]:
        order = order[::-1]
    pts = np.asarray(points, dtype=np.float64)
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    ref = dist[order[:-1], order[1:]].sum()
    paths = _open_paths(m)
    longer = 0
    for lo in range(0, len(paths), PATH_CHUNK):
        chunk = paths[lo : lo + PATH_CHUNK]
        longer += int(np.count_nonzero(dist[chunk[:, :-1], chunk[:, 1:]].sum(axis=1) > ref))
    return longer / len(paths)


@dataclass
class BenchConfig:
    set_size: int = 8
    n_runs: int = 10
    n_train_sets: int = 2000
    use_lgp: bool = True
    seed: int = 0
    train: TrainConfig = field(default_factory=lambda: TrainConfig(epochs=60, lgp_coefficient=0.01))


def run_tsp_benchmark(cfg: BenchConfig) -> dict:
    """Benchmark latent-sort path quality over cfg.n_runs independent runs.

    Each run draws a fresh evaluation point set and a fresh training corpus
    of uniform 2-D sets, trains a model from scratch, orders the evaluation
    points with it, and records the fraction of enumerated open paths that
    are strictly longer. Reports the mean and sample standard deviation of
    the per-run percentiles.
    """
    if not 2 <= cfg.set_size <= MAX_ENUM_POINTS:
        raise ValueError(f"set_size must be in [2, {MAX_ENUM_POINTS}]")
    if cfg.n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    if cfg.n_train_sets < 1:
        raise ValueError("n_train_sets must be >= 1")
    train_cfg = cfg.train
    if not cfg.use_lgp:
        train_cfg = replace(train_cfg, lgp_coefficient=0.0)

    percentiles = np.empty(cfg.n_runs)
    for run in range(cfg.n_runs):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 7, run]))
        eval_set, *train_sets = [TokenSet(rng.uniform(0.0, 1.0, size=(cfg.set_size, 2)))
                                 for _ in range(1 + cfg.n_train_sets)]
        run_cfg = replace(train_cfg, seed=train_cfg.seed + run)
        model, _ = train(train_sets, run_cfg)
        seq = latent_sort(model, eval_set)
        percentiles[run] = percentile_longer(eval_set.values, seq.order)

    return {
        "set_size": cfg.set_size,
        "n_runs": cfg.n_runs,
        "use_lgp": cfg.use_lgp,
        "seed": cfg.seed,
        "mean_percentile": float(percentiles.mean()),
        "std_percentile": float(percentiles.std(ddof=1)) if cfg.n_runs > 1 else 0.0,
        "percentiles": percentiles.tolist(),
    }
