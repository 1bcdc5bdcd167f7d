import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokensort.latentsort import TrainConfig
from tokensort.tspbench import (
    MAX_ENUM_POINTS,
    BenchConfig,
    path_length,
    percentile_longer,
    run_tsp_benchmark,
)


def test_path_length_collinear():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    assert path_length(pts) == 2.0
    assert path_length(pts, [0, 2, 1]) == 3.0


def test_path_length_reversal_invariant():
    rng = np.random.default_rng(0)
    pts = rng.uniform(size=(6, 2))
    order = rng.permutation(6)
    assert path_length(pts, order) == pytest.approx(path_length(pts, order[::-1]))


def test_percentile_two_points():
    pts = np.array([[0.0, 0.0], [1.0, 1.0]])
    assert percentile_longer(pts, [0, 1]) == 0.0


def test_percentile_collinear_three():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    # path lengths: 2 (line order), 3, 3; two of three are strictly longer
    assert percentile_longer(pts, [0, 1, 2]) == pytest.approx(2 / 3)
    assert percentile_longer(pts, [0, 2, 1]) == 0.0


def test_percentile_counts_all_distinct_paths():
    rng = np.random.default_rng(1)
    pts = rng.uniform(size=(5, 2))
    ref = [0, 1, 2, 3, 4]
    ref_len = path_length(pts, ref)
    longer = shorter_or_equal = 0
    seen = set()
    for perm in itertools.permutations(range(5)):
        key = perm if perm[0] < perm[-1] else perm[::-1]
        if key in seen:
            continue
        seen.add(key)
        if path_length(pts, perm) > ref_len:
            longer += 1
        else:
            shorter_or_equal += 1
    total = math.factorial(5) // 2
    assert longer + shorter_or_equal == total
    assert percentile_longer(pts, ref) == longer / total


def test_percentile_optimum_scores_max():
    rng = np.random.default_rng(2)
    for m in (6,) + (5,) * 20:
        pts = rng.uniform(size=(m, 2))
        best = min(itertools.permutations(range(m)),
                   key=lambda p: path_length(pts, p))
        total = math.factorial(m) // 2
        assert percentile_longer(pts, list(best)) == (total - 1) / total
        # the reversed optimum is the same path; summed in the other
        # direction its length must not let its enumerated twin count as
        # strictly longer than itself
        assert percentile_longer(pts, list(best[::-1])) == (total - 1) / total


def test_percentile_relabel_invariant():
    rng = np.random.default_rng(3)
    pts = rng.uniform(size=(5, 2))
    order = [3, 1, 4, 0, 2]
    relabel = rng.permutation(5)
    inv = np.argsort(relabel)
    assert percentile_longer(pts[relabel], list(inv[order])) == pytest.approx(
        percentile_longer(pts, order))


def test_percentile_rejects_large_and_bad_order():
    pts = np.zeros((MAX_ENUM_POINTS + 1, 2))
    with pytest.raises(ValueError):
        percentile_longer(pts, list(range(MAX_ENUM_POINTS + 1)))
    with pytest.raises(ValueError):
        percentile_longer(np.zeros((3, 2)), [0, 1, 1])
    with pytest.raises(ValueError, match="at least one point"):
        percentile_longer(np.zeros((0, 2)), [])


def test_path_functions_reject_non_integer_order():
    # numpy's IndexError came from the float order; a bool one was a mask
    pts = np.random.default_rng(0).uniform(size=(4, 2))
    for fn in (percentile_longer, path_length):
        for bad in ([0.0, 1.0, 2.0, 3.0], np.arange(4.0), [True, 1, 2, 3]):
            with pytest.raises(ValueError, match="order must be integers"):
                fn(pts, bad)
        assert fn(pts, np.array([3, 1, 0, 2])) == fn(pts, [3, 1, 0, 2])


def _oracle_percentile(points, order):
    """Every permutation by itertools, each path measured by path_length in
    the orientation with perm[0] <= perm[-1]."""
    m = len(points)
    if order[0] > order[-1]:
        order = order[::-1]
    ref = path_length(points, order)
    lengths = [path_length(points, p) for p in itertools.permutations(range(m)) if p[0] <= p[-1]]
    return sum(length > ref for length in lengths) / len(lengths)


@pytest.mark.parametrize("m", range(2, 9))
def test_percentile_matches_permutation_oracle(m):
    rng = np.random.default_rng(40 + m)
    for trial in range(2 if m == 8 else 6):
        pts = rng.uniform(size=(m, 2))
        if trial % 2:
            pts = np.round(pts * 2) / 2  # grid-snapped: tied lengths, duplicate points
        order = [int(i) for i in rng.permutation(m)]
        for o in (order, order[::-1]):
            assert percentile_longer(pts, o) == _oracle_percentile(pts, o)


def test_percentile_ten_points_finishes():
    rng = np.random.default_rng(50)
    pts = rng.uniform(size=(10, 2))
    order = np.argsort(pts[:, 0])
    p = percentile_longer(pts, order)
    assert 0.0 <= p < 1.0
    # the path table is cached now; scoring it in chunks stays far below
    # the 130 MB that one gather over all 1.8M paths would take
    tracemalloc.start()
    try:
        assert percentile_longer(pts, order[::-1]) == p
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_percentile_in_unit_interval(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(3, 7))
    pts = rng.uniform(size=(m, 2))
    order = list(rng.permutation(m))
    p = percentile_longer(pts, order)
    # a path is never strictly longer than itself, so 1.0 is unreachable
    assert 0.0 <= p < 1.0
    assert percentile_longer(pts, order[::-1]) == p


def test_benchmark_config_validation():
    with pytest.raises(ValueError):
        run_tsp_benchmark(BenchConfig(set_size=11))
    with pytest.raises(ValueError):
        run_tsp_benchmark(BenchConfig(n_runs=0))


def test_benchmark_untrained_matches_random_sweep():
    # zero epochs leaves the encoder at its small random init, where tanh is
    # near-linear: the model sweeps points along a random direction instead of
    # permuting them at random, so compare against that baseline, not 0.5
    cfg = BenchConfig(set_size=5, n_runs=30, n_train_sets=2,
                      train=TrainConfig(epochs=0), seed=123)
    out = run_tsp_benchmark(cfg)
    rng = np.random.default_rng(99)
    baseline = []
    for _ in range(300):
        pts = rng.uniform(size=(5, 2))
        theta = rng.uniform(0.0, np.pi)
        proj = pts @ np.array([np.cos(theta), np.sin(theta)])
        baseline.append(percentile_longer(pts, np.argsort(proj).tolist()))
    assert abs(out["mean_percentile"] - np.mean(baseline)) < 0.15
    assert out["mean_percentile"] > 0.6  # far better than random permutations


def test_benchmark_deterministic_and_shape():
    cfg = BenchConfig(set_size=5, n_runs=3, n_train_sets=20,
                      train=TrainConfig(epochs=2), seed=7)
    a = run_tsp_benchmark(cfg)
    b = run_tsp_benchmark(cfg)
    assert a["percentiles"] == b["percentiles"]
    assert len(a["percentiles"]) == 3
    assert a["std_percentile"] == pytest.approx(
        np.std(a["percentiles"], ddof=1))
