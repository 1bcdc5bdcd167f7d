import sys
import warnings
from collections import deque

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tokensort.core import Graph, TokenSet, edge_token, tokenize_edges
from tokensort.datagen import PlanarGenConfig, generate_planar_graph
from tokensort.latentsort import init_model, latent_sort
from tokensort.sorters import (
    KEY_SCHEMES,
    bfs_sort,
    dfs_sort,
    lexicographical_sort,
    mean_squared_keys,
    mean_squared_sort,
    principal_direction,
    sort_by_keys,
    svd_lowrank_sort,
)


def _is_perm(original: np.ndarray, arranged: np.ndarray) -> bool:
    return TokenSet(original) == TokenSet(arranged)


def test_sort_by_keys_stable_ascending():
    x = TokenSet(np.array([[3.0], [1.0], [2.0]]))
    seq = sort_by_keys(x, np.array([0.5, 0.5, 0.1]))
    assert np.array_equal(seq.rows[:, 0], [2.0, 3.0, 1.0])  # tie keeps input order


def test_sorts_return_their_permutation():
    rng = np.random.default_rng(6)
    model = init_model(3, hidden_sizes=(5,), seed=1)
    cases = []
    for _ in range(20):
        x = TokenSet(np.round(rng.uniform(size=(int(rng.integers(1, 12)), 3)) * 2) / 2)
        cases += [(x, fn(x)) for fn in KEY_SCHEMES.values()] + [(x, latent_sort(model, x))]
    graphs = [generate_planar_graph(PlanarGenConfig(seed=s)) for s in range(5)]
    graphs.append(Graph(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]), ((1, 2), (0, 1), (1, 0)),
                        directed=True))
    cases += [(tokenize_edges(g), fn(g)) for g in graphs for fn in (bfs_sort, dfs_sort)]
    for x, seq in cases:
        assert np.array_equal(x.values[seq.order], seq.rows)


def test_mean_squared_order():
    x = TokenSet(np.array([[1.0, 1.0], [0.0, 0.0], [0.5, 0.0]]))
    seq = mean_squared_sort(x)
    assert np.array_equal(seq.rows, [[1.0, 1.0], [0.5, 0.0], [0.0, 0.0]])


def test_mean_squared_tie_stability():
    x = TokenSet(np.array([[0.6, 0.8], [-1.0, 0.0]]))
    seq = mean_squared_sort(x)
    assert np.array_equal(seq.rows[0], [0.6, 0.8])


# squares of 1e200 overflow float64; the third token is an ordinary one
HUGE_TOKENS = np.array([[1e200, 0.0], [2e200, 0.0], [0.5, 0.5]])


def test_mean_squared_key_overflow_rejected():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflow"):
            mean_squared_sort(TokenSet(HUGE_TOKENS))


# squares of 1e-200 underflow to 0.0: both tokens would tie with each other
# and with an all-zero token
TINY_TOKENS = np.array([[1e-200, 0.0], [2e-200, 0.0], [0.5, 0.5]])


def test_mean_squared_key_underflow_rejected():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="underflow"):
            mean_squared_sort(TokenSet(TINY_TOKENS))
        # an all-zero token keeps its key of -0.0
        keys = mean_squared_keys(np.array([[0.0, 0.0], [0.5, 0.5]]))
    assert keys.tolist() == [-0.0, -0.25] and np.signbit(keys[0])


def _mean_squared_underflows(vals) -> bool:
    """Whether a token with a non-zero component has a mean-squared key
    below the smallest normal float64 in magnitude."""
    keys = -np.mean(vals * vals, axis=1)
    return any(abs(k) < sys.float_info.min and any(t) for k, t in zip(keys.tolist(), vals.tolist()))


def test_lexicographical():
    x = TokenSet(np.array([[1.0, 2.0], [1.0, 1.0], [0.0, 9.0]]))
    seq = lexicographical_sort(x)
    assert np.array_equal(seq.rows, [[0.0, 9.0], [1.0, 1.0], [1.0, 2.0]])


def test_principal_direction_matches_svd():
    rng = np.random.default_rng(3)
    base = rng.normal(size=(40, 4))
    base[:, 0] *= 5.0  # make the spectrum well separated
    centered = base - base.mean(axis=0)
    v = principal_direction(centered)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    ref = vt[0]
    assert min(np.linalg.norm(v - ref), np.linalg.norm(v + ref)) < 1e-6


def test_svd_sort_zero_covariance():
    x = TokenSet(np.tile([2.0, 3.0], (4, 1)))
    seq = svd_lowrank_sort(x)
    assert np.array_equal(seq.rows, x.values)


def test_svd_sort_huge_components():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        seq = svd_lowrank_sort(TokenSet(HUGE_TOKENS))
    assert seq.order.tolist() == [2, 0, 1]
    assert np.all(np.diff(seq.keys) > 0)


def test_svd_sort_column_sum_overflow():
    # the column sum 1.5e308 + 1.6e308 overflows; that of the scaled tokens does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        seq = svd_lowrank_sort(TokenSet(np.array([[1.5e308, 0.0], [1.6e308, 0.0], [0.0, 1.0]])))
    assert seq.order.tolist() == [2, 0, 1]
    assert np.all(np.diff(seq.keys) > 0)


def test_svd_key_overflow_rejected():
    # the projection of (1.7e308, 1.7e308) on the diagonal is 2.4e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflow"):
            svd_lowrank_sort(TokenSet(np.array([[-1.7e308, -1.7e308], [1.7e308, 1.7e308]])))


def test_principal_direction_degenerate_spectrum():
    # two equal eigenvalues: every unit vector is a top eigenvector, and the
    # returned one is a unit vector that repeats from call to call
    vals = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]] * 5)
    v = principal_direction(vals)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert v[np.argmax(np.abs(v))] > 0
    assert np.array_equal(v, principal_direction(vals))
    assert np.array_equal(v, principal_direction(vals.copy()))


def _triangle():
    feats = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return Graph(feats, ((0, 1), (1, 2), (0, 2)))


def _stored_token(g, a, b):
    # token in the graph's stored (canonical) orientation for node pair {a, b}
    for u, v in g.edges:
        if {u, v} == {a, b}:
            return np.concatenate([g.node_features[u], g.node_features[v]])
    raise AssertionError((a, b))


def test_bfs_edge_order():
    g = _triangle()
    seq = bfs_sort(g)
    assert _is_perm(tokenize_edges(g).values, seq.rows)
    # bfs from node 0 scans (0,1), (0,2), then dequeues 1 and finds (1,2)
    expect = np.stack([_stored_token(g, 0, 1), _stored_token(g, 0, 2), _stored_token(g, 1, 2)])
    assert np.array_equal(seq.rows, expect)


def test_dfs_edge_order():
    g = _triangle()
    seq = dfs_sort(g)
    # dfs descends 0 -> 1 -> 2, then closes (0,2)
    expect = np.stack([_stored_token(g, 0, 1), _stored_token(g, 1, 2), _stored_token(g, 0, 2)])
    assert np.array_equal(seq.rows, expect)


def test_traversal_disconnected_components():
    feats = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0], [6.0, 5.0]])
    g = Graph(feats, ((0, 1), (2, 3)))
    for fn in (bfs_sort, dfs_sort):
        seq = fn(g)
        assert seq.rows.shape == (2, 4)


def test_traversal_empty_graph():
    g = Graph(np.zeros((2, 2)), ())
    with pytest.raises(ValueError):
        bfs_sort(g)


def _lookup_traversal(g, depth_first):
    # the former traversal, which found each emitted edge again by its
    # endpoint pair, kept as an oracle
    adj = {i: [] for i in range(g.n_nodes)}
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    for nbrs in adj.values():
        nbrs.sort()
    emitted, order = set(), []
    visited = [False] * g.n_nodes

    def emit(u, v):
        key = frozenset((u, v))
        if key not in emitted:
            emitted.add(key)
            order.append((u, v))

    for start in range(g.n_nodes):
        if visited[start] or not adj[start]:
            continue
        visited[start] = True
        if depth_first:
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
            queue = deque([start])
            while queue:
                u = queue.popleft()
                for v in adj[u]:
                    emit(u, v)
                    if not visited[v]:
                        visited[v] = True
                        queue.append(v)
    lookup = {frozenset(e) if not g.directed else e: e for e in g.edges}
    rows = []
    for u, v in order:
        key = frozenset((u, v)) if not g.directed else (u, v)
        if key not in lookup and g.directed:
            key = (v, u)
        rows.append(edge_token(g, *lookup[key]))
    return np.stack(rows)


def test_traversals_match_lookup_oracle():
    graphs = [generate_planar_graph(PlanarGenConfig(seed=s)) for s in range(150)]
    rng = np.random.default_rng(12)
    for _ in range(150):
        # small random graphs: self-loops, isolated nodes, several components,
        # directed ones without antiparallel pairs (where the oracle is right)
        n = int(rng.integers(1, 9))
        feats = np.round(rng.uniform(size=(n, 2)) * 2) / 2
        pairs = list(map(tuple, rng.integers(0, n, size=(int(rng.integers(1, 12)), 2)).tolist()))
        directed = bool(rng.integers(2))
        if directed:
            pairs = [(u, v) for u, v in pairs if (v, u) not in pairs or u == v]
        graphs.append(Graph(feats, tuple(pairs), directed=directed))
    for g in graphs:
        for fn, depth_first in ((bfs_sort, False), (dfs_sort, True)):
            assert np.array_equal(fn(g).rows, _lookup_traversal(g, depth_first))


def test_traversal_antiparallel_directed_edges():
    g = Graph(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]), ((0, 1), (1, 0), (1, 2)), directed=True)
    for fn in (bfs_sort, dfs_sort):
        rows = fn(g).rows
        assert rows.shape == (3, 4)
        assert _is_perm(np.stack([edge_token(g, u, v) for u, v in g.edges]), rows)


@given(arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 4)),
              elements=st.floats(-100, 100)))
@settings(max_examples=60, deadline=None)
def test_key_schemes_emit_permutations(vals):
    x = TokenSet(vals)
    for name, fn in KEY_SCHEMES.items():
        if name == "mean-squared" and _mean_squared_underflows(vals):
            with pytest.raises(ValueError, match="underflow"):
                fn(x)
            continue
        seq = fn(x)
        assert _is_perm(x.values, seq.rows), name
        if seq.keys is not None:
            assert np.all(np.diff(seq.keys) >= 0)


@given(arrays(np.float64, st.tuples(st.integers(2, 10), st.integers(1, 3)),
              elements=st.floats(-50, 50)),
       st.sampled_from([lambda k: 3 * k + 1, np.arctan, lambda k: k ** 3]))
@settings(max_examples=40, deadline=None)
def test_monotone_key_transform_invariance(vals, f):
    # strictly increasing transforms of the keys cannot change the order
    x = TokenSet(vals)
    if _mean_squared_underflows(vals):
        with pytest.raises(ValueError, match="underflow"):
            mean_squared_keys(vals)
        return
    keys = mean_squared_keys(vals)
    # rounding can collapse distinct keys to equal floats; that changes
    # tie-breaking legitimately, so only keep injective cases
    assume(len(np.unique(f(keys))) == len(np.unique(keys)))
    a = sort_by_keys(x, keys)
    b = sort_by_keys(x, f(keys))
    assert np.array_equal(a.rows, b.rows)
