import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokensort import metrics
from tokensort.core import Graph, TokenSet
from tokensort.datagen import PlanarGenConfig, generate_planar_graph
from tokensort.metrics import (
    SINKHORN_MAX_ITERS,
    SINKHORN_TOL,
    SinkhornConfig,
    SinkhornError,
    _log_plan,
    _pairwise_sq,
    _transport_costs,
    ehd,
    emd,
    sample_edge_points,
    set_prf,
    size_diff,
    smd,
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


def _reference_set_prf(x, y, match_tol):
    """Greedy matching over candidates sorted as (distance, x index, y index) tuples."""
    d = np.sqrt(_pairwise_sq(x.values, y.values))
    candidates = sorted((d[i, j], i, j) for i in range(x.size) for j in range(y.size) if d[i, j] <= match_tol)
    used_x, used_y = set(), set()
    for _, i, j in candidates:
        if i not in used_x and j not in used_y:
            used_x.add(i)
            used_y.add(j)
    tp = len(used_x)
    precision, recall = tp / x.size, tp / y.size
    return {"precision": precision, "recall": recall, "f1": 2 * precision * recall / (precision + recall) if tp else 0.0}


def test_set_prf_matches_sorted_tuple_reference():
    # quarter-snapped tokens tie on distance often, so the (x, y) index
    # tie-break decides which pairs the greedy matching takes
    rng = np.random.default_rng(19)
    for k in range(2000):
        x, y = (TokenSet(np.round(rng.uniform(size=(int(rng.integers(1, 15)), 2)) * 4) / 4) for _ in range(2))
        tol = (0.0, 0.1, 0.26, 0.5, math.inf)[k % 5]
        got, want = set_prf(x, y, tol), _reference_set_prf(x, y, tol)
        assert got == want and [type(v) for v in got.values()] == [type(v) for v in want.values()]


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


def test_smd_raises_when_sinkhorn_cannot_converge(monkeypatch):
    a, b = _graphs()
    monkeypatch.setattr(metrics, "SINKHORN_MAX_ITERS", 3)
    with pytest.raises(SinkhornError, match="did not converge") as info:
        smd(a, b)
    assert info.value.violation >= SINKHORN_TOL


def test_sinkhorn_config_is_constants():
    # smd's protocol: ε and the sample count are fixed, not settings
    assert (SinkhornConfig.epsilon, SinkhornConfig.samples) == (0.01, 100)
    for field, value in (("epsilon", 1e-5), ("samples", 50)):
        with pytest.raises(TypeError):
            SinkhornConfig(**{field: value})


def test_sample_edge_points_sample_count_validation():
    a, _ = _graphs()
    # 2.5 sampled three points, True one, and 0 none
    for value in (0, -1, 2.5, True, np.float64(3.0)):
        with pytest.raises(ValueError, match="require an integer samples >= 1"):
            sample_edge_points(a, value)
    assert sample_edge_points(a, np.int64(3)).shape == (3, 2)


def _transports(a, b):
    """The point clouds of smd's cross, self_a and self_b transports, in its order."""
    pa, pb = sample_edge_points(a, 100), sample_edge_points(b, 100)
    if pb.tobytes() < pa.tobytes():
        pa, pb = pb, pa
    return [(pa, pb), (pa, pa), (pb, pb)]


def _cost_stack(a, b):
    return np.stack([_pairwise_sq(p, q) for p, q in _transports(a, b)])


@pytest.mark.parametrize("shape", [(3, 100, 100), (2, 7, 13), (1, 1, 1)])
def test_log_plan_sums_potentials_as_broadcast_add(shape):
    # f + g through the rank-2 matmul, against numpy's broadcast add, on
    # potentials of every magnitude and sign, subnormals and exact cancellations
    p, n, m = shape
    rng = np.random.default_rng(5)
    f = rng.normal(size=(p, n)) * 10.0 ** rng.integers(-310, 300, size=(p, n))
    g = rng.normal(size=(p, m)) * 10.0 ** rng.integers(-310, 300, size=(p, m))
    g[:, : min(n, m)] = -f[:, : min(n, m)]
    fo = np.stack([f, np.ones_like(f)], axis=2)
    og = np.stack([np.ones_like(g), g], axis=1)
    got = _log_plan(fo, og, np.zeros(shape), 1.0)
    assert got.tobytes() == (f[:, :, None] + g[:, None, :]).tobytes()


def _stop_iteration(cost, monkeypatch):
    """Fewest iterations within which one transport, stacked alone, converges."""
    lo, hi = 1, SINKHORN_MAX_ITERS
    while lo < hi:
        mid = (lo + hi) // 2
        monkeypatch.setattr(metrics, "SINKHORN_MAX_ITERS", mid)
        try:
            _transport_costs(cost[None], 0.01)
            hi = mid
        except SinkhornError:
            lo = mid + 1
    monkeypatch.setattr(metrics, "SINKHORN_MAX_ITERS", SINKHORN_MAX_ITERS)
    return lo


@pytest.mark.parametrize("seed", [1, 3])
def test_stacked_transports_score_as_each_alone(seed, monkeypatch):
    a, b = (generate_planar_graph(PlanarGenConfig(seed=s)) for s in (seed, seed + 1))
    stack = _cost_stack(a, b)
    # three different stop iterations, so transports leave the stack one by one
    assert len({_stop_iteration(cost, monkeypatch) for cost in stack}) == 3
    alone = [_transport_costs(cost[None], 0.01)[0].hex() for cost in stack]
    assert alone == [_reference_transport_cost(p, q, 0.01).hex() for p, q in _transports(a, b)]
    for order in ([0, 1, 2], [2, 0, 1], [1, 2, 0]):
        assert [c.hex() for c in _transport_costs(stack[order], 0.01)] == [alone[k] for k in order]


def test_stack_reports_the_first_unconverged_transport(monkeypatch):
    a, b = _graphs()
    stack = _cost_stack(a, b)
    with pytest.raises(SinkhornError) as cross:
        _transport_costs(stack[:1], 1e-5)
    with pytest.raises(SinkhornError) as every:
        _transport_costs(stack, 1e-5)
    assert every.value.violation.hex() == cross.value.violation.hex()
    # the cross transport converges on the last iteration allowed and leaves
    # the stack; self_a, scaled 30-fold, does not, so its violation is reported
    monkeypatch.setattr(metrics, "SINKHORN_MAX_ITERS", _stop_iteration(stack[0], monkeypatch))
    stack[1] *= 30
    with pytest.raises(SinkhornError) as second:
        _transport_costs(stack[1:2], 0.01)
    with pytest.raises(SinkhornError) as mixed:
        _transport_costs(stack, 0.01)
    assert mixed.value.violation.hex() == second.value.violation.hex()


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


def _loop_sample_edge_points(g: Graph, samples: int) -> np.ndarray:
    """The per-edge oracle: segment starts and ends stacked edge by edge from
    the node features, then sampled as sample_edge_points does."""
    starts = np.stack([g.node_features[u] for u, _ in g.edges])
    ends = np.stack([g.node_features[v] for _, v in g.edges])
    lengths = np.linalg.norm(ends - starts, axis=1)
    total = float(lengths.sum())
    if total == 0.0:
        return np.repeat(starts[:1], samples, axis=0)
    cum = np.concatenate([[0.0], np.cumsum(lengths)])
    ts = (np.arange(samples) + 0.5) / samples * total
    idx = np.clip(np.searchsorted(cum, ts, side="right") - 1, 0, len(lengths) - 1)
    local = np.where(lengths[idx] > 0, (ts - cum[idx]) / np.maximum(lengths[idx], 1e-300), 0.0)
    return starts[idx] + local[:, None] * (ends[idx] - starts[idx])


def test_sample_edge_points_matches_per_edge_loop():
    graphs = [generate_planar_graph(PlanarGenConfig(seed=s)) for s in range(300)]
    feats = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.5]])
    # directed antiparallel edges are walked once in each direction
    graphs.append(Graph(feats, ((0, 1), (1, 0), (2, 1), (1, 2)), directed=True))
    graphs.append(Graph(feats, ((1, 1), (2, 2))))  # no length: every point at the first start
    for g in graphs:
        for samples in (1, 7, 100):
            assert (sample_edge_points(g, samples).tobytes()
                    == _loop_sample_edge_points(g, samples).tobytes())


def test_sample_edge_points_no_edges():
    g = Graph(np.zeros((2, 2)), ())
    with pytest.raises(ValueError):
        sample_edge_points(g, 10)


def test_size_diff_signed():
    assert size_diff(_ts([0.0], [1.0], [2.0]), _ts([0.0])) == 2
    assert size_diff(_ts([0.0]), _ts([0.0], [1.0])) == -1
