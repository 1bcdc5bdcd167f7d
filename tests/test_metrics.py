import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokensort.core import Graph, SortedSequence, TokenSet
from tokensort.datagen import PlanarGenConfig, generate_planar_graph
from tokensort.metrics import (
    SINKHORN_MAX_ITERS,
    SINKHORN_TOL,
    SinkhornConfig,
    SinkhornError,
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
    a, b = _separated_graphs()
    assert smd(a, b) > 1.0


def _reference_transport_cost(a, b, eps):
    """The log-domain Sinkhorn loop as first written: both marginals checked
    on a plan built after every iteration."""
    diff = a[:, None, :] - b[None, :, :]
    cost = np.sum(diff * diff, axis=2)
    n, m = cost.shape
    f, g = np.zeros(n), np.zeros(m)

    def lse_rows(mat):
        mx = mat.max(axis=1, keepdims=True)
        return (mx + np.log(np.sum(np.exp(mat - mx), axis=1, keepdims=True)))[:, 0]

    for _ in range(SINKHORN_MAX_ITERS):
        mat = (f[:, None] + g[None, :] - cost) / eps
        f = f + eps * (-math.log(n) - lse_rows(mat))
        mat = (f[:, None] + g[None, :] - cost) / eps
        g = g + eps * (-math.log(m) - lse_rows(mat.T))
        plan = np.exp((f[:, None] + g[None, :] - cost) / eps)
        violation = max(float(np.abs(plan.sum(axis=1) - 1.0 / n).sum()),
                        float(np.abs(plan.sum(axis=0) - 1.0 / m).sum()))
        if violation < SINKHORN_TOL:
            return float(np.sum(plan * cost))
    raise AssertionError("reference did not converge")


def _reference_smd(a, b):
    cfg = SinkhornConfig()
    pa, pb = sample_edge_points(a, cfg.samples), sample_edge_points(b, cfg.samples)
    if pb.tobytes() < pa.tobytes():
        pa, pb = pb, pa
    cost = [_reference_transport_cost(p, q, cfg.epsilon) for p, q in ((pa, pb), (pa, pa), (pb, pb))]
    return cost[0] - 0.5 * (cost[1] + cost[2])


def _separated_graphs():
    feats = np.array([[0.0, 0.0], [0.0, 1.0]])
    return Graph(feats, ((0, 1),)), Graph(feats + np.array([5.0, 0.0]), ((0, 1),))


@pytest.mark.parametrize("seed", [0, 1, 2, 3, "separated"])
def test_smd_matches_reference_loop_bit_for_bit(seed):
    if seed == "separated":
        a, b = _separated_graphs()
    else:
        rng = np.random.default_rng(seed)
        a, b = (generate_planar_graph(PlanarGenConfig(seed=int(s))) for s in rng.integers(0, 10**6, 2))
    # a self-pair's cost matrix has a zero diagonal
    for x, y in ((a, b), (b, a), (a, a)):
        assert smd(x, y).hex() == _reference_smd(x, y).hex()


def test_smd_raises_when_sinkhorn_cannot_converge():
    a, b = _graphs()
    with pytest.raises(SinkhornError, match="did not converge") as info:
        smd(a, b, SinkhornConfig(epsilon=1e-5))
    assert info.value.violation >= SINKHORN_TOL


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
