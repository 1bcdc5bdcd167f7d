"""Baseline ordering schemes.

Every scheme returns a permutation of its input tokens as a SortedSequence.
Key-based schemes compute one scalar key per token and stable-sort ascending;
ties are broken by input index. Traversal schemes order edge tokens by graph
traversal with explicit, deterministic tie rules.
"""
from __future__ import annotations

import numpy as np

from .core import Graph, SortedSequence, TokenSet, edge_token

def sort_by_keys(x: TokenSet, keys: np.ndarray) -> SortedSequence:
    """Stable ascending sort of the tokens by scalar keys."""
    keys = np.asarray(keys, dtype=np.float64)
    order = np.argsort(keys, kind="stable")
    return SortedSequence(x.values[order], keys=keys[order], raw_keys=keys[order], order=order)


def mean_squared_keys(values: np.ndarray) -> np.ndarray:
    """Negated mean of squared components, so larger-magnitude tokens sort first."""
    return -np.mean(values * values, axis=1)


def mean_squared_sort(x: TokenSet) -> SortedSequence:
    """Order tokens from larger to smaller mean squared component value."""
    return sort_by_keys(x, mean_squared_keys(x.values))


def lexicographical_sort(x: TokenSet) -> SortedSequence:
    """Ascending order by first dimension, then second on ties, and so on."""
    order = np.lexsort(x.values.T[::-1])
    return SortedSequence(x.values[order], order=order)


def principal_direction(values: np.ndarray) -> np.ndarray | None:
    """Top eigenvector of the covariance of `values`, from its symmetric
    eigendecomposition.

    Returns None for zero covariance (all tokens identical). The sign is
    fixed so the largest-magnitude component is positive. When the top
    eigenvalue is repeated, the vector is LAPACK's deterministic choice
    within its eigenspace.
    """
    centered = values - values.mean(axis=0)
    cov = centered.T @ centered / values.shape[0]
    if not np.any(np.abs(cov) > 0.0):
        return None
    cov = cov / np.max(np.abs(cov))  # scale out under/overflow; eigenvectors unchanged
    v = np.linalg.eigh(cov)[1][:, -1]  # eigenvalues ascend
    k = int(np.argmax(np.abs(v)))
    if v[k] < 0:
        v = -v
    return v


def svd_lowrank_sort(x: TokenSet) -> SortedSequence:
    """Order tokens by their projection onto the direction of maximum variance."""
    direction = principal_direction(x.values)
    if direction is None:
        return sort_by_keys(x, np.zeros(x.size))
    centered = x.values - x.values.mean(axis=0)
    return sort_by_keys(x, centered @ direction)


def _adjacency(g: Graph) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {i: [] for i in range(g.n_nodes)}
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    for nbrs in adj.values():
        nbrs.sort()
    return adj


def _edge_order_tokens(g: Graph, edge_order: list[tuple[int, int]]) -> SortedSequence:
    lookup = {frozenset(e) if not g.directed else e: e for e in g.edges}
    rows = []
    for u, v in edge_order:
        key = frozenset((u, v)) if not g.directed else (u, v)
        if key not in lookup and g.directed:
            key = (v, u)
        su, sv = lookup[key]
        rows.append(edge_token(g, su, sv))
    return SortedSequence(np.stack(rows))


def bfs_sort(g: Graph) -> SortedSequence:
    """Edge tokens in breadth-first traversal order.

    Traversal restarts at the smallest-index unvisited node per component;
    neighbors are scanned in ascending index order. Isolated nodes own no
    edge token and are skipped.
    """
    return _traversal_sort(g, depth_first=False)


def dfs_sort(g: Graph) -> SortedSequence:
    """Edge tokens in depth-first traversal order (same tie rules as bfs_sort)."""
    return _traversal_sort(g, depth_first=True)


def _traversal_sort(g: Graph, depth_first: bool) -> SortedSequence:
    if g.n_edges == 0:
        raise ValueError("traversal sort requires at least one edge")
    adj = _adjacency(g)
    emitted: set[frozenset] = set()
    order: list[tuple[int, int]] = []
    visited = [False] * g.n_nodes

    def emit(u: int, v: int) -> None:
        key = frozenset((u, v))
        if key not in emitted:
            emitted.add(key)
            order.append((u, v))

    for start in range(g.n_nodes):
        if visited[start] or not adj[start]:
            continue
        visited[start] = True
        if depth_first:
            # explicit stack of neighbor iterators == recursive DFS
            stack = [(start, iter(adj[start]))]
            while stack:
                u, nbrs = stack[-1]
                for v in nbrs:
                    emit(u, v)
                    if not visited[v]:
                        visited[v] = True
                        stack.append((v, iter(adj[v])))
                        break
                else:
                    stack.pop()
        else:
            from collections import deque

            queue = deque([start])
            while queue:
                u = queue.popleft()
                for v in adj[u]:
                    emit(u, v)
                    if not visited[v]:
                        visited[v] = True
                        queue.append(v)
    return _edge_order_tokens(g, order)


KEY_SCHEMES = {
    "mean-squared": mean_squared_sort,
    "lex": lexicographical_sort,
    "svd": svd_lowrank_sort,
}
