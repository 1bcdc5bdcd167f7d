"""Set and graph similarity metrics: directed mean nearest-neighbor distance,
symmetric Hausdorff distance, Sinkhorn-based point-cloud transport distance
between graphs, set precision/recall/F1, undirected sequence loss, and size
difference.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Graph, SortedSequence, TokenSet, swap_endpoints


class SinkhornError(RuntimeError):
    def __init__(self, violation: float):
        super().__init__(f"Sinkhorn iterations did not converge (marginal violation {violation:.3e})")
        self.violation = violation


# Sinkhorn stops once the plan's row sums are within SINKHORN_TOL of the row
# marginal (summed absolute violation) after a g-update, and fails with
# SinkhornError after SINKHORN_MAX_ITERS iterations.
SINKHORN_MAX_ITERS = 1000
SINKHORN_TOL = 1e-6


@dataclass
class SinkhornConfig:
    epsilon: float = 0.01
    samples: int = 100

    def validate(self) -> None:
        if self.epsilon <= 0 or self.samples < 1:
            raise ValueError("epsilon must be > 0 and samples >= 1")


def _pairwise_sq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    diff = a[:, None, :] - b[None, :, :]
    return np.sum(diff * diff, axis=2)


def _check_sets(x: TokenSet, y: TokenSet) -> None:
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {y.dim}")


def emd(x: TokenSet, y: TokenSet) -> float:
    """Mean distance from each token in x to its nearest neighbor in y.

    Directed on purpose: emd(x, y) != emd(y, x) in general.
    """
    _check_sets(x, y)
    d = np.sqrt(_pairwise_sq(x.values, y.values))
    return float(np.mean(d.min(axis=1)))


def ehd(x: TokenSet, y: TokenSet) -> float:
    """Symmetric Hausdorff distance: larger of the two directed sup-inf terms."""
    _check_sets(x, y)
    d = np.sqrt(_pairwise_sq(x.values, y.values))
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def sample_edge_points(g: Graph, samples: int) -> np.ndarray:
    """`samples` points spread arc-length uniformly over the union of edges.

    Deterministic: point k sits at fraction (k + 0.5) / samples of the total
    edge length, walking edges in stored order.
    """
    if g.n_edges == 0:
        raise ValueError("graph has no edges to sample")
    if g.node_dim != 2:
        raise ValueError("edge sampling requires 2-D node coordinates")
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


def _logsumexp_rows(mat: np.ndarray) -> np.ndarray:
    mx = mat.max(axis=1, keepdims=True)
    return (mx + np.log(np.sum(np.exp(mat - mx), axis=1, keepdims=True)))[:, 0]


def _transport_cost(a: np.ndarray, b: np.ndarray, cfg: SinkhornConfig) -> float:
    """<plan, cost> for the log-domain Sinkhorn plan with uniform marginals.

    A g-update leaves the columns at their marginals up to rounding, so only
    the row sums are checked: exp of the row log-sum-exp the next f-update uses.
    """
    cost = _pairwise_sq(a, b)
    eps = cfg.epsilon
    n, m = cost.shape
    log_a = -math.log(n)
    log_b = -math.log(m)
    f = np.zeros(n)
    g = np.zeros(m)
    row_lse = _logsumexp_rows(-cost / eps)  # (f + g - cost) / eps at f = g = 0
    for _ in range(SINKHORN_MAX_ITERS):
        f = f + eps * (log_a - row_lse)
        mat = (f[:, None] + g[None, :] - cost) / eps
        g = g + eps * (log_b - _logsumexp_rows(mat.T))
        mat = (f[:, None] + g[None, :] - cost) / eps
        row_lse = _logsumexp_rows(mat)
        violation = float(np.abs(np.exp(row_lse) - 1.0 / n).sum())
        if violation < SINKHORN_TOL:
            return float(np.sum(np.exp(mat) * cost))
    raise SinkhornError(violation)


def smd(a: Graph, b: Graph, cfg: SinkhornConfig | None = None) -> float:
    """Entropy-regularized transport cost between edge-sampled point clouds,
    debiased so a graph is at distance ~0 from itself.

    cost(a, b) - (cost(a, a) + cost(b, b)) / 2 with squared Euclidean ground
    cost and uniform weights. The two clouds are ordered canonically before
    computation so smd(a, b) == smd(b, a) exactly.
    """
    cfg = cfg or SinkhornConfig()
    cfg.validate()
    pa = sample_edge_points(a, cfg.samples)
    pb = sample_edge_points(b, cfg.samples)
    if pb.tobytes() < pa.tobytes():
        pa, pb = pb, pa
    cross = _transport_cost(pa, pb, cfg)
    self_a = _transport_cost(pa, pa, cfg)
    self_b = _transport_cost(pb, pb, cfg)
    return cross - 0.5 * (self_a + self_b)


def set_prf(x: TokenSet, y: TokenSet, match_tol: float = 0.0) -> dict[str, float]:
    """Precision/recall/F1 from the size of the matched intersection.

    Tokens are matched one-to-one greedily by ascending (distance, x index,
    y index); a pair matches when within match_tol (0 = exact equality).
    Precision = TP/|x|, recall = TP/|y|, F1 harmonic mean (0 when TP = 0).
    """
    _check_sets(x, y)
    if not match_tol >= 0:  # also rejects NaN
        raise ValueError(f"match_tol must be >= 0, got {match_tol}")
    d = np.sqrt(_pairwise_sq(x.values, y.values))
    candidates = sorted(
        ((d[i, j], i, j) for i in range(x.size) for j in range(y.size) if d[i, j] <= match_tol),
        key=lambda t: (t[0], t[1], t[2]),
    )
    used_x: set[int] = set()
    used_y: set[int] = set()
    tp = 0
    for _, i, j in candidates:
        if i not in used_x and j not in used_y:
            used_x.add(i)
            used_y.add(j)
            tp += 1
    precision = tp / x.size
    recall = tp / y.size
    f1 = 2 * precision * recall / (precision + recall) if tp else 0.0
    return {"precision": precision, "recall": recall, "f1": f1}


def _elastic_loss(pred: np.ndarray, gt: np.ndarray) -> float:
    diff = pred - gt
    return float(np.mean(np.abs(diff)) + np.mean(diff * diff))


def undirected_loss(y_pred: SortedSequence, y_gt: SortedSequence) -> float:
    """Elastic loss (mean absolute plus mean squared error) against the
    target plus the same loss against the target with edge endpoints
    swapped, so both orientations of an undirected edge count."""
    if y_pred.rows.shape != y_gt.rows.shape:
        raise ValueError("shape mismatch")
    swapped = swap_endpoints(y_gt)
    return _elastic_loss(y_pred.rows, y_gt.rows) + _elastic_loss(y_pred.rows, swapped.rows)


def size_diff(x: TokenSet, y: TokenSet) -> int:
    """Signed size difference |x| - |y|."""
    return x.size - y.size
