import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokensort.core import Graph, SortedSequence, TokenSet
from tokensort.datagen import PlanarGenConfig, generate_planar_graph
from tokensort.metrics import (
    SinkhornConfig,
    ehd,
    emd,
    sample_edge_points,
    set_prf,
    size_diff,
    smd,
    undirected_loss,
)


def _ts(*rows):
    return TokenSet(np.array(rows, dtype=float))


def test_emd_exact_345():
    assert emd(_ts([0.0, 0.0]), _ts([3.0, 4.0])) == 5.0


def test_emd_directed():
    x = _ts([0.0, 0.0], [10.0, 0.0])
    y = _ts([0.0, 0.0])
    assert emd(x, y) == 5.0
    assert emd(y, x) == 0.0


def test_ehd_exact():
    x = _ts([0.0], [1.0])
    y = _ts([0.0])
    assert ehd(x, y) == 1.0
    assert ehd(y, x) == 1.0  # symmetric by construction


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        emd(_ts([0.0]), _ts([0.0, 0.0]))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_emd_ehd_nonnegative_zero_on_self(seed):
    rng = np.random.default_rng(seed)
    x = TokenSet(rng.normal(size=(int(rng.integers(1, 8)), 2)))
    assert emd(x, x) == 0.0
    assert ehd(x, x) == 0.0
    y = TokenSet(rng.normal(size=(int(rng.integers(1, 8)), 2)))
    assert emd(x, y) >= 0.0
    assert ehd(x, y) == ehd(y, x)


def test_set_prf_example():
    x = _ts([0.0, 0.0], [1.0, 1.0])
    y = _ts([0.0, 0.0], [2.0, 2.0], [3.0, 3.0])
    out = set_prf(x, y)
    assert out["precision"] == 0.5
    assert out["recall"] == pytest.approx(1 / 3)
    assert out["f1"] == pytest.approx(0.4)


def test_set_prf_perfect_and_disjoint():
    x = _ts([1.0, 2.0], [3.0, 4.0])
    assert set_prf(x, x) == {"precision": 1.0, "recall": 1.0, "f1": 1.0}
    y = _ts([9.0, 9.0], [8.0, 8.0])
    assert set_prf(x, y)["f1"] == 0.0


def test_set_prf_one_to_one_matching():
    # two identical predictions cannot both match the single target
    x = _ts([0.0, 0.0], [0.0, 0.0])
    y = _ts([0.0, 0.0])
    out = set_prf(x, y)
    assert out["precision"] == 0.5
    assert out["recall"] == 1.0


def test_set_prf_tolerance():
    x = _ts([0.0, 0.0])
    y = _ts([0.05, 0.0])
    assert set_prf(x, y)["f1"] == 0.0
    assert set_prf(x, y, match_tol=0.1)["f1"] == 1.0


def _graphs():
    a = generate_planar_graph(PlanarGenConfig(seed=1))
    b = generate_planar_graph(PlanarGenConfig(seed=2))
    return a, b


def test_smd_self_distance_small():
    a, _ = _graphs()
    assert abs(smd(a, a)) <= 1e-3


def test_smd_symmetric():
    a, b = _graphs()
    assert abs(smd(a, b) - smd(b, a)) < 1e-9


def test_smd_separated_graphs_positive():
    feats = np.array([[0.0, 0.0], [0.0, 1.0]])
    a = Graph(feats, ((0, 1),))
    b = Graph(feats + np.array([5.0, 0.0]), ((0, 1),))
    assert smd(a, b) > 1.0


def test_smd_config_validation():
    a, b = _graphs()
    with pytest.raises(ValueError):
        smd(a, b, SinkhornConfig(epsilon=-1.0))


def test_sample_edge_points_on_edges():
    feats = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 2.0]])
    g = Graph(feats, ((0, 1), (1, 2)))
    pts = sample_edge_points(g, 30)
    assert pts.shape == (30, 2)
    # every sample lies on one of the two axis-aligned segments
    on_first = (np.abs(pts[:, 1]) < 1e-12) & (pts[:, 0] >= 0) & (pts[:, 0] <= 1)
    on_second = (np.abs(pts[:, 0] - 1.0) < 1e-12) & (pts[:, 1] >= 0) & (pts[:, 1] <= 2)
    assert np.all(on_first | on_second)
    # arc-length uniform: the 2x longer edge receives about 2x the samples
    assert 15 <= on_second.sum() <= 25


def test_sample_edge_points_no_edges():
    g = Graph(np.zeros((2, 2)), ())
    with pytest.raises(ValueError):
        sample_edge_points(g, 10)


def test_undirected_loss_swap_invariance():
    rng = np.random.default_rng(3)
    gt = SortedSequence(rng.normal(size=(4, 4)))
    swapped = SortedSequence(np.hstack([gt.rows[:, 2:], gt.rows[:, :2]]))
    pred = SortedSequence(rng.normal(size=(4, 4)))
    assert undirected_loss(pred, gt) == pytest.approx(undirected_loss(pred, swapped))


def test_undirected_loss_zero_needs_both_orientations():
    gt = SortedSequence(np.array([[0.0, 0.0, 1.0, 1.0]]))
    loss_self = undirected_loss(gt, gt)
    assert loss_self > 0  # the swapped target still differs from pred


def test_size_diff_signed():
    assert size_diff(_ts([0.0], [1.0], [2.0]), _ts([0.0])) == 2
    assert size_diff(_ts([0.0]), _ts([0.0], [1.0])) == -1
