"""Set and graph similarity metrics: directed mean nearest-neighbor distance,
symmetric Hausdorff distance, Sinkhorn-based point-cloud transport distance
between graphs, set precision/recall/F1, and size difference.
"""
from __future__ import annotations

import math
from typing import ClassVar

import numpy as np

from .core import Graph, TokenSet, tokenize_edges


class SinkhornError(RuntimeError):
    def __init__(self, violation: float):
        super().__init__(f"Sinkhorn iterations did not converge (marginal violation {violation:.3e})")
        self.violation = violation


# Sinkhorn stops once the plan's row sums are within SINKHORN_TOL of the row
# marginal (summed absolute violation) after a g-update, and fails with
# SinkhornError after SINKHORN_MAX_ITERS iterations.
SINKHORN_MAX_ITERS = 1000
SINKHORN_TOL = 1e-6


class SinkhornConfig:
    # smd's protocol is fixed: the entropic regularization and the points
    # sampled from each graph's edges
    epsilon: ClassVar[float] = 0.01
    samples: ClassVar[int] = 100


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
    if isinstance(samples, bool) or not isinstance(samples, (int, np.integer)) or samples < 1:
        raise ValueError(f"require an integer samples >= 1, got {samples!r}")
    if g.n_edges == 0:
        raise ValueError("graph has no edges to sample")
    if g.node_dim != 2:
        raise ValueError("edge sampling requires 2-D node coordinates")
    tokens = tokenize_edges(g).values
    starts, ends = tokens[:, :2], tokens[:, 2:]
    lengths = np.linalg.norm(ends - starts, axis=1)
    total = float(lengths.sum())
    if total == 0.0:
        return np.repeat(starts[:1], samples, axis=0)
    cum = np.concatenate([[0.0], np.cumsum(lengths)])
    ts = (np.arange(samples) + 0.5) / samples * total
    idx = np.clip(np.searchsorted(cum, ts, side="right") - 1, 0, len(lengths) - 1)
    local = np.where(lengths[idx] > 0, (ts - cum[idx]) / np.maximum(lengths[idx], 1e-300), 0.0)
    return starts[idx] + local[:, None] * (ends[idx] - starts[idx])


def _logsumexp(mat: np.ndarray, axis: int) -> np.ndarray:
    """Log-sum-exp of each matrix of a stack along `axis`; overwrites mat."""
    mx = mat.max(axis=axis, keepdims=True)
    mat -= mx
    np.exp(mat, out=mat)
    return (mx + np.log(mat.sum(axis=axis, keepdims=True))).squeeze(axis)


def _log_plan(fo: np.ndarray, og: np.ndarray, cost: np.ndarray, eps: float,
              out: np.ndarray | None = None) -> np.ndarray:
    """(f + g - cost) / eps for each transport of a stack, into out.

    fo holds the rows [f_i, 1] and og the columns [1, g_j], so fo @ og is
    f_i + g_j: both products are by 1.0, so exact, and their sum is rounded
    once, whatever the order or fusion the matmul uses. That is numpy's
    broadcast f + g bit for bit, without its loop over rows. (The two could
    differ only on -0.0 + -0.0; the potentials start at +0.0 and so never
    become -0.0.)
    """
    out = np.matmul(fo, og, out=out)
    out -= cost
    out /= eps
    return out


def _transport_costs(cost: np.ndarray, eps: float) -> list[float]:
    """<plan, cost> for the log-domain Sinkhorn plan with uniform marginals,
    for each (n, m) cost matrix of a (P, n, m) stack.

    The P transports iterate as one stack, and each stops at its own
    iteration: once its plan meets the stop rule it is scored and dropped.
    Each transport's arithmetic is the one-transport loop's, so its cost does
    not depend on what it is stacked with: a row sum is pairwise over its row,
    a column sum sequential over the rows. A g-update leaves the columns at
    their marginals up to rounding, so only the row sums are checked: exp of
    the row log-sum-exp the next f-update uses. Every pass works in place in
    one (P, n, m) buffer, and a converged transport's plan is rebuilt to score
    it. Raises SinkhornError with the violation of the first transport, in
    stack order, that has not converged after SINKHORN_MAX_ITERS iterations.
    """
    P, n, m = cost.shape
    log_a = -math.log(n)
    log_b = -math.log(m)
    fo = np.zeros((P, n, 2))  # rows [f_i, 1], from f = 0
    fo[:, :, 1] = 1.0
    og = np.zeros((P, 2, m))  # columns [1, g_j], from g = 0
    og[:, 0, :] = 1.0
    active = np.arange(P)  # the transport in each row of the stack
    scores = [0.0] * P
    mat = buf = -cost / eps  # (f + g - cost) / eps at f = g = 0
    row_lse = _logsumexp(mat, 2)
    for _ in range(SINKHORN_MAX_ITERS):
        fo[:, :, 0] += eps * (log_a - row_lse)
        og[:, 1, :] += eps * (log_b - _logsumexp(_log_plan(fo, og, cost, eps, out=mat), 1))
        row_lse = _logsumexp(_log_plan(fo, og, cost, eps, out=mat), 2)
        violation = np.abs(np.exp(row_lse) - 1.0 / n).sum(axis=1)
        done = violation < SINKHORN_TOL
        if done.any():
            plans = np.exp(_log_plan(fo[done], og[done], cost[done], eps))
            for k, plan, c in zip(active[done], plans, cost[done]):
                scores[k] = float(np.sum(plan * c))
            keep = ~done
            if not keep.any():
                return scores
            active, cost, fo, og, row_lse, violation = (
                active[keep], cost[keep], fo[keep], og[keep], row_lse[keep], violation[keep])
            mat = buf[: len(active)]
    raise SinkhornError(float(violation[0]))


def smd(a: Graph, b: Graph, cfg: SinkhornConfig | None = None) -> float:
    """Entropy-regularized transport cost between edge-sampled point clouds,
    debiased so a graph is at distance ~0 from itself.

    cost(a, b) - (cost(a, a) + cost(b, b)) / 2 with squared Euclidean ground
    cost and uniform weights. The two clouds are ordered canonically before
    computation so smd(a, b) == smd(b, a) exactly. ε and the sample count
    are the constants of SinkhornConfig; cfg takes one, and is not read.
    """
    pa = sample_edge_points(a, SinkhornConfig.samples)
    pb = sample_edge_points(b, SinkhornConfig.samples)
    if pb.tobytes() < pa.tobytes():
        pa, pb = pb, pa
    cost = np.stack([_pairwise_sq(pa, pb), _pairwise_sq(pa, pa), _pairwise_sq(pb, pb)])
    cross, self_a, self_b = _transport_costs(cost, SinkhornConfig.epsilon)
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
    xi, yj = np.nonzero(d <= match_tol)  # row-major, so a stable sort by distance ties by (x, y) index
    by_distance = np.argsort(d[xi, yj], kind="stable")
    used_x: set[int] = set()
    used_y: set[int] = set()
    tp = 0
    for i, j in zip(xi[by_distance].tolist(), yj[by_distance].tolist()):
        if i not in used_x and j not in used_y:
            used_x.add(i)
            used_y.add(j)
            tp += 1
    precision = tp / x.size
    recall = tp / y.size
    f1 = 2 * precision * recall / (precision + recall) if tp else 0.0
    return {"precision": precision, "recall": recall, "f1": f1}


def size_diff(x: TokenSet, y: TokenSet) -> int:
    """Signed size difference |x| - |y|."""
    return x.size - y.size
