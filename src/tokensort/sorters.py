"""Baseline ordering schemes.

Every scheme returns a permutation of its input tokens as a SortedSequence.
Key-based schemes compute one scalar key per token and stable-sort ascending;
ties are broken by input index. Each also orders every set of a corpus at
once into a SortedCorpus, and its per-set function is that corpus function
on one set. Traversal schemes order edge tokens by graph traversal with
explicit, deterministic tie rules, and emit each stored edge exactly once,
antiparallel directed edges included.
"""
from __future__ import annotations

from collections import deque

import numpy as np

from .core import Graph, SortedCorpus, SortedSequence, TokenSet, by_set_size, set_ids, tokenize_edges


def sort_corpus_by_keys(values: np.ndarray, sizes, keys: np.ndarray) -> SortedCorpus:
    """Each set of a corpus sorted stably ascending by its tokens' keys, all
    sets in one lexsort with the set index as the primary key."""
    keys = np.asarray(keys, dtype=np.float64)
    order = np.lexsort((keys, set_ids(sizes)))
    keys = keys[order]
    return SortedCorpus(values[order], sizes, order, keys=keys, raw_keys=keys)


def sort_by_keys(x: TokenSet, keys: np.ndarray) -> SortedSequence:
    """Stable ascending sort of the tokens by scalar keys."""
    return sort_corpus_by_keys(x.values, [x.size], keys).sequence(0)


def mean_squared_keys(values: np.ndarray) -> np.ndarray:
    """Negated mean of squared components, so larger-magnitude tokens sort first.

    Raises ValueError when a key overflows (components above about 1e154):
    an infinite key would tie tokens whose true keys differ. Raises it too
    when a token with a non-zero component gets a key below the smallest
    normal float64 in magnitude (components below about 1e-154): such keys
    lose their bits or flush to -0.0, the key of an all-zero token.
    """
    with np.errstate(over="ignore", under="ignore"):
        keys = -np.mean(values * values, axis=1)
    if not np.isfinite(keys).all():
        raise ValueError("mean-squared key overflows float64: token components too large to square")
    tiny = np.abs(keys) < np.finfo(np.float64).tiny
    if tiny.any() and values[tiny].any():
        raise ValueError("mean-squared key underflows float64: token components too small to square")
    return keys


def mean_squared_corpus(values: np.ndarray, sizes) -> SortedCorpus:
    """mean_squared_sort of every set of a corpus."""
    return sort_corpus_by_keys(values, sizes, mean_squared_keys(values))


def mean_squared_sort(x: TokenSet) -> SortedSequence:
    """Order tokens from larger to smaller mean squared component value."""
    return mean_squared_corpus(x.values, [x.size]).sequence(0)


def lexicographical_corpus(values: np.ndarray, sizes) -> SortedCorpus:
    """lexicographical_sort of every set of a corpus."""
    order = np.lexsort((*values.T[::-1], set_ids(sizes)))
    return SortedCorpus(values[order], sizes, order)


def lexicographical_sort(x: TokenSet) -> SortedSequence:
    """Ascending order by first dimension, then second on ties, and so on."""
    return lexicographical_corpus(x.values, [x.size]).sequence(0)


def _stacked_directions(values: np.ndarray):
    """Principal directions of B sets of M tokens, values (B, M, N).

    A set whose column sums could overflow is scaled down by a power of two,
    exactly, until they cannot, and then every set is centred. Every other
    set keeps scale 1, so its centred tokens are those of the unscaled set.
    Returns the centred tokens (B, M, N), the scale exponents (B,), the
    directions (B, N) and whether each is defined: a set of identical tokens
    has zero covariance and no direction.
    """
    # every |component| < 2**e, so a column sum stays below 2**(e + ceil(log2 M));
    # shift only as far as keeps that at most 2**1023, which no sum rounds past
    exponents = np.frexp(np.abs(values).max(axis=(1, 2)))[1]
    exponents = np.maximum(exponents + (values.shape[1] - 1).bit_length() - 1023, 0)
    scaled = np.ldexp(values, -exponents[:, None, None])
    centered = scaled - scaled.mean(axis=1, keepdims=True)
    # the covariance of the centred tokens scaled by their own power of two,
    # so that a spread far below the tokens' magnitude cannot underflow
    spread = np.ldexp(centered, -np.frexp(np.abs(centered).max(axis=(1, 2)))[1][:, None, None])
    cov = np.swapaxes(spread, 1, 2) @ spread / values.shape[1]
    peak = np.abs(cov).max(axis=(1, 2))
    defined = peak > 0.0
    cov = cov[defined] / peak[defined, None, None]  # scale out underflow; eigenvectors unchanged
    vecs = np.linalg.eigh(cov)[1][:, :, -1]  # eigenvalues ascend
    flip = vecs[np.arange(len(vecs)), np.argmax(np.abs(vecs), axis=1)] < 0
    vecs[flip] = -vecs[flip]
    directions = np.zeros((values.shape[0], values.shape[2]))
    directions[defined] = vecs
    return centered, exponents, directions, defined


def principal_direction(values: np.ndarray) -> np.ndarray | None:
    """Top eigenvector of the covariance of `values`, from its symmetric
    eigendecomposition.

    Returns None for zero covariance (all tokens identical). The sign is
    fixed so the largest-magnitude component is positive. When the top
    eigenvalue is repeated, the vector is LAPACK's deterministic choice
    within its eigenspace.
    """
    _, _, directions, defined = _stacked_directions(np.asarray(values, dtype=np.float64)[None])
    return directions[0] if defined[0] else None


def _svd_keys(values: np.ndarray) -> np.ndarray:
    """Projection of each token onto its set's principal direction, after
    centring the set, for B sets of M tokens, values (B, M, N); 0 for every
    token of a set without one."""
    centered, exponents, directions, defined = _stacked_directions(values)
    keys = np.zeros(values.shape[:2])
    with np.errstate(over="ignore"):
        projected = centered[defined] @ directions[defined][:, :, None]
        keys[defined] = np.ldexp(projected[:, :, 0], exponents[defined][:, None])
    return keys


def svd_lowrank_corpus(values: np.ndarray, sizes) -> SortedCorpus:
    """svd_lowrank_sort of every set of a corpus, the sets of each size
    computed stacked.

    Raises ValueError when a key overflows float64.
    """
    keys = by_set_size(_svd_keys, values, sizes)
    if not np.isfinite(keys).all():
        raise ValueError("svd key overflows float64: token components too large")
    return sort_corpus_by_keys(values, sizes, keys)


def svd_lowrank_sort(x: TokenSet) -> SortedSequence:
    """Order tokens by their projection onto the direction of maximum variance."""
    return svd_lowrank_corpus(x.values, [x.size]).sequence(0)


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


# scheme name -> the function ordering every set of a corpus; the per-set
# functions above are its one-set case
CORPUS_SCHEMES = {
    "mean-squared": mean_squared_corpus,
    "lex": lexicographical_corpus,
    "svd": svd_lowrank_corpus,
}
