"""Baseline ordering schemes.

Every scheme returns a permutation of its input tokens as a SortedSequence.
Key-based schemes compute one scalar key per token and stable-sort ascending;
ties are broken by input index. Traversal schemes order edge tokens by graph
traversal with explicit, deterministic tie rules, and emit each stored edge
exactly once, antiparallel directed edges included.
"""
from __future__ import annotations

import math
from collections import deque

import numpy as np

from .core import Graph, SortedSequence, TokenSet, tokenize_edges

def sort_by_keys(x: TokenSet, keys: np.ndarray) -> SortedSequence:
    """Stable ascending sort of the tokens by scalar keys."""
    keys = np.asarray(keys, dtype=np.float64)
    order = np.argsort(keys, kind="stable")
    return SortedSequence(x.values[order], keys=keys[order], raw_keys=keys[order], order=order)


def mean_squared_keys(values: np.ndarray) -> np.ndarray:
    """Negated mean of squared components, so larger-magnitude tokens sort first.

    Raises ValueError when a key overflows (components above about 1e154):
    an infinite key would tie tokens whose true keys differ.
    """
    with np.errstate(over="ignore"):
        keys = -np.mean(values * values, axis=1)
    if not np.isfinite(keys).all():
        raise ValueError("mean-squared key overflows float64: token components too large to square")
    return keys


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
    # scaled by a power of two, exactly, so the covariance cannot overflow;
    # the normalization below cancels the scale
    centered = np.ldexp(centered, -math.frexp(np.abs(centered).max())[1])
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


def bfs_sort(g: Graph) -> SortedSequence:
    """Edge tokens in breadth-first traversal order.

    Traversal restarts at the smallest-index unvisited node per component;
    neighbors are scanned in ascending index order, parallel edges in stored
    order. Isolated nodes own no edge token and are skipped.
    """
    return _traversal_sort(g, depth_first=False)


def dfs_sort(g: Graph) -> SortedSequence:
    """Edge tokens in depth-first traversal order (same tie rules as bfs_sort)."""
    return _traversal_sort(g, depth_first=True)


def _traversal_sort(g: Graph, depth_first: bool) -> SortedSequence:
    if g.n_edges == 0:
        raise ValueError("traversal sort requires at least one edge")
    # adjacency as (neighbor, edge index) pairs, so a scan names its edge
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n_nodes)]
    for k, (u, v) in enumerate(g.edges):
        adj[u].append((v, k))
        adj[v].append((u, k))
    for nbrs in adj:
        nbrs.sort()
    emitted = [False] * g.n_edges
    order: list[int] = []
    visited = [False] * g.n_nodes

    def emit(k: int) -> None:
        if not emitted[k]:
            emitted[k] = True
            order.append(k)

    for start in range(g.n_nodes):
        if visited[start] or not adj[start]:
            continue
        visited[start] = True
        if depth_first:
            # explicit stack of neighbor iterators == recursive DFS
            stack = [iter(adj[start])]
            while stack:
                for v, k in stack[-1]:
                    emit(k)
                    if not visited[v]:
                        visited[v] = True
                        stack.append(iter(adj[v]))
                        break
                else:
                    stack.pop()
        else:
            queue = deque([start])
            while queue:
                for v, k in adj[queue.popleft()]:
                    emit(k)
                    if not visited[v]:
                        visited[v] = True
                        queue.append(v)
    return SortedSequence(tokenize_edges(g).values[order], order=order)


KEY_SCHEMES = {
    "mean-squared": mean_squared_sort,
    "lex": lexicographical_sort,
    "svd": svd_lowrank_sort,
}
