"""Core domain types: tokens, token sets, sorted sequences, graphs, and JSONL I/O.

All numeric data is float64. Types are immutable after construction and safe
to share across threads for reading.
"""
from __future__ import annotations

import contextlib
import json
import os
import secrets
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np


def _as_matrix(values, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{what}: expected a 2-D array of shape (M, N), got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"{what}: M and N must both be >= 1, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what}: all components must be finite (no NaN/Inf)")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


def _canonical_rows(values: np.ndarray) -> np.ndarray:
    """Rows sorted lexicographically; canonical form for multiset comparison."""
    order = np.lexsort(values.T[::-1])
    return values[order]


@dataclass(frozen=True)
class TokenSet:
    """An unordered collection of M tokens, each a point in R^N.

    Duplicate tokens are permitted in storage. Equality is multiset equality,
    independent of storage order.
    """

    values: np.ndarray
    id: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", _as_matrix(self.values, "TokenSet"))

    @property
    def size(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, TokenSet):
            return NotImplemented
        if self.values.shape != other.values.shape:
            return False
        return np.array_equal(_canonical_rows(self.values), _canonical_rows(other.values))

    def __hash__(self):
        return hash(_canonical_rows(self.values).tobytes())


@dataclass(frozen=True)
class SortedSequence:
    """An ordered arrangement of a token set, with the optional 1-D sort keys
    that produced the order (non-decreasing when present) and the optional
    permutation that produced it: rows == original_values[order]."""

    rows: np.ndarray
    keys: np.ndarray | None = None
    raw_keys: np.ndarray | None = None
    order: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "rows", _as_matrix(self.rows, "SortedSequence"))
        for name in ("keys", "raw_keys"):
            k = getattr(self, name)
            if k is not None:
                k = np.asarray(k, dtype=np.float64)
                if k.shape != (self.rows.shape[0],):
                    raise ValueError(f"{name} length {k.shape} does not match M={self.rows.shape[0]}")
                k = k.copy()
                k.flags.writeable = False
                object.__setattr__(self, name, k)
        if self.keys is not None and np.any(self.keys[1:] < self.keys[:-1]):
            raise ValueError("keys must be non-decreasing")
        if self.order is not None:
            order = np.array(self.order, dtype=np.intp)
            if not np.array_equal(np.sort(order), np.arange(self.rows.shape[0])):
                raise ValueError(f"order must be a permutation of range({self.rows.shape[0]})")
            order.flags.writeable = False
            object.__setattr__(self, "order", order)

    @property
    def size(self) -> int:
        return self.rows.shape[0]

    @property
    def dim(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True)
class Graph:
    """Nodes with feature vectors plus directed or undirected edges.

    Undirected edges are stored once, endpoints in canonical order: the
    endpoint whose feature vector compares lexicographically smaller first,
    and on equal features the smaller node index first.
    """

    node_features: np.ndarray
    edges: tuple[tuple[int, int], ...]
    directed: bool = False

    def __post_init__(self):
        feats = _as_matrix(self.node_features, "Graph.node_features")
        object.__setattr__(self, "node_features", feats)
        n = feats.shape[0]
        canon: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        for e in self.edges:
            u, v = int(e[0]), int(e[1])
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) references a node outside 0..{n - 1}")
            # tuples compare lexicographically: features first, then the index
            if not self.directed and (tuple(feats[v]), v) < (tuple(feats[u]), u):
                u, v = v, u
            if (u, v) in seen:
                continue
            seen.add((u, v))
            canon.append((u, v))
        object.__setattr__(self, "edges", tuple(canon))

    @property
    def n_nodes(self) -> int:
        return self.node_features.shape[0]

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def node_dim(self) -> int:
        return self.node_features.shape[1]


def edge_token(g: Graph, u: int, v: int) -> np.ndarray:
    """Concatenated endpoint features of one edge, in stored (canonical) order."""
    return np.concatenate([g.node_features[u], g.node_features[v]])


def tokenize_edges(g: Graph) -> TokenSet:
    """One token per edge: the concatenation of the two endpoint feature
    vectors (dimension 2 * node_dim)."""
    if g.n_edges == 0:
        raise ValueError("empty graph tokenization")
    rows = np.stack([edge_token(g, u, v) for u, v in g.edges])
    return TokenSet(rows)


def swap_endpoints(seq: SortedSequence) -> SortedSequence:
    """Exchange the first and second halves of every row; order unchanged.

    Involution: applying twice returns the original sequence.
    """
    n = seq.dim
    if n % 2 != 0:
        raise ValueError(f"swap_endpoints requires even token dimension, got {n}")
    half = n // 2
    swapped = np.concatenate([seq.rows[:, half:], seq.rows[:, :half]], axis=1)
    return SortedSequence(swapped, keys=seq.keys, raw_keys=seq.raw_keys, order=seq.order)


# ---------------------------------------------------------------------------
# JSON-lines file formats.
#
# Token-set file: one object per line, {"id": optional str, "tokens": [[f,...],...]}
# Graph file:     {"nodes": [[f,...],...], "edges": [[u,v],...], "directed": bool}
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def atomic_write(path, newline: str | None = None):
    """Open a text file that replaces `path` only once the block completes.

    The data goes to a new temporary file in the same directory, which
    os.replace then moves over `path` in one step, so a writer that fails
    partway leaves the previous file, or none, and removes its temporary.
    """
    path = os.fspath(path)
    tmp = f"{path}.{secrets.token_hex(4)}.tmp"
    fh = open(tmp, "x", newline=newline)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_token_sets(path, sets: Iterable[TokenSet]) -> None:
    with atomic_write(path) as fh:
        for ts in sets:
            obj: dict = {}
            if ts.id is not None:
                obj["id"] = ts.id
            obj["tokens"] = ts.values.tolist()
            fh.write(json.dumps(obj) + "\n")


def read_token_sets(path) -> list[TokenSet]:
    out: list[TokenSet] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                tokens = obj["tokens"]
                widths = {len(t) for t in tokens}
                if len(widths) > 1:
                    raise ValueError(f"ragged token dimensions {sorted(widths)}")
                ts = TokenSet(np.asarray(tokens, dtype=np.float64), id=obj.get("id"))
            except Exception as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from exc
            out.append(ts)
    return out


def write_graphs(path, graphs: Iterable[Graph]) -> None:
    with atomic_write(path) as fh:
        for g in graphs:
            obj = {
                "nodes": g.node_features.tolist(),
                "edges": [[u, v] for u, v in g.edges],
                "directed": g.directed,
            }
            fh.write(json.dumps(obj) + "\n")


def read_graphs(path) -> list[Graph]:
    out: list[Graph] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                g = Graph(
                    np.asarray(obj["nodes"], dtype=np.float64),
                    tuple((int(u), int(v)) for u, v in obj["edges"]),
                    directed=bool(obj.get("directed", False)),
                )
            except Exception as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from exc
            out.append(g)
    return out


def write_sequences(path, seqs: Iterable[SortedSequence]) -> None:
    with atomic_write(path) as fh:
        for s in seqs:
            obj: dict = {"rows": s.rows.tolist()}
            if s.keys is not None:
                obj["keys"] = s.keys.tolist()
            if s.raw_keys is not None:
                obj["raw_keys"] = s.raw_keys.tolist()
            fh.write(json.dumps(obj) + "\n")
