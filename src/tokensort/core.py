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
    if not np.isfinite(arr).all():
        raise ValueError(f"{what}: all components must be finite (no NaN/Inf)")
    arr = arr.copy()
    arr.setflags(write=False)
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
                if not np.isfinite(k).all():
                    raise ValueError(f"{name} must be finite (no NaN/Inf)")
                k = k.copy()
                k.setflags(write=False)
                object.__setattr__(self, name, k)
        if self.keys is not None and np.any(self.keys[1:] < self.keys[:-1]):
            raise ValueError("keys must be non-decreasing")
        if self.order is not None:
            order = np.array(self.order, dtype=np.intp)
            if not np.array_equal(np.sort(order), np.arange(self.rows.shape[0])):
                raise ValueError(f"order must be a permutation of range({self.rows.shape[0]})")
            order.setflags(write=False)
            object.__setattr__(self, "order", order)

    @property
    def size(self) -> int:
        return self.rows.shape[0]

    @property
    def dim(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True)
class SortedCorpus:
    """Token sets each sorted on its own, stored set after set.

    Set k holds `sizes[k]` rows, and its sorted tokens are
    rows[starts[k]:starts[k] + sizes[k]]. For each row, `order` is its index
    within its set in the input, and `keys` and `raw_keys`, when present, are
    the keys that produced the order. The key schemes build one for a whole
    corpus, and its arrays are held as given, not copied. Only the keys are
    checked, for NaN and Inf, as in SortedSequence; `sequence` gives one set
    as a fully validated SortedSequence.
    """

    rows: np.ndarray
    sizes: np.ndarray
    order: np.ndarray
    keys: np.ndarray | None = None
    raw_keys: np.ndarray | None = None
    starts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("keys", "raw_keys"):
            k = getattr(self, name)
            if k is not None and not np.isfinite(k).all():
                raise ValueError(f"{name} must be finite (no NaN/Inf)")
        object.__setattr__(self, "starts", np.cumsum(self.sizes) - self.sizes)

    def sequence(self, k: int) -> SortedSequence:
        part = slice(self.starts[k], self.starts[k] + self.sizes[k])
        return SortedSequence(
            self.rows[part],
            keys=None if self.keys is None else self.keys[part],
            raw_keys=None if self.raw_keys is None else self.raw_keys[part],
            order=self.order[part],
        )


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


def _raise_first_bad_line(path) -> None:
    """Read the file line by line (decode, width check, TokenSet) and raise
    ValueError naming the first line that fails."""
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
                TokenSet(np.asarray(tokens, dtype=np.float64), id=obj.get("id"))
            except Exception as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from exc


def read_corpus(path) -> list[tuple[np.ndarray, list[int], list]]:
    """The token sets of a file as (values, sizes, ids) for each run of
    consecutive sets that share a token dimension: values (T, N) holds the
    run's tokens set after set, sizes the sets' token counts and ids their
    "id" fields (None where absent).

    Each line is decoded and width-checked on its own, and each run becomes
    one array with one finiteness check. When a line or a run fails, the file
    is read again line by line, which raises ValueError naming the first
    failing line and why it fails.
    """
    runs: list[tuple[int, list, list[int], list]] = []
    try:
        with open(path) as fh:
            for line in fh:
                if not line.strip():
                    continue
                obj = json.loads(line)
                tokens = obj["tokens"]
                widths = set(map(len, tokens))
                if type(tokens) is not list or len(widths) != 1 or 0 in widths:
                    raise ValueError("not a list of tokens of one width")
                width = widths.pop()
                if not runs or runs[-1][0] != width:
                    runs.append((width, [], [], []))
                _, rows, sizes, ids = runs[-1]
                rows += tokens
                sizes.append(len(tokens))
                ids.append(obj.get("id"))
        out = []
        for width, rows, sizes, ids in runs:
            values = np.array(rows, dtype=np.float64)
            if values.shape != (len(rows), width) or not np.isfinite(values).all():
                raise ValueError("not a finite matrix")
            out.append((values, sizes, ids))
        return out
    except Exception:
        _raise_first_bad_line(path)
        raise


def read_token_sets(path) -> list[TokenSet]:
    """The token sets of a file, in order (see read_corpus)."""
    out: list[TokenSet] = []
    for values, sizes, ids in read_corpus(path):
        end = 0
        for size, id_ in zip(sizes, ids):
            out.append(TokenSet(values[end : end + size], id=id_))
            end += size
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


def _item_texts(a: np.ndarray | None) -> list[str] | None:
    """What json.dumps writes for each item of a 1-D or 2-D array, from one
    encode of the whole array: a float's text, or a row's inside its
    brackets. The array's text is cut at ", " or "], [", which no float's
    text contains."""
    if a is None:
        return None
    if a.ndim == 1:
        return json.dumps(a.tolist())[1:-1].split(", ")
    return json.dumps(a.tolist())[2:-2].split("], [")


def write_sequences(path, seqs: Iterable[SortedSequence | SortedCorpus]) -> None:
    """One line per sorted set, {"rows": ..., "keys": ..., "raw_keys": ...}
    as json.dumps writes it, without the key fields a sequence lacks. A
    SortedSequence is one set, a SortedCorpus one line for each of its sets,
    in order. Lines are written as they are made.

    Each array is encoded once (see _item_texts) and each line joined from
    its sets' items, in the bytes json.dumps writes for the set's slices.
    """
    with atomic_write(path) as fh:
        for s in seqs:
            rows, keys = _item_texts(s.rows), _item_texts(s.keys)
            # a key sort's raw keys are its keys: encode them once
            raw = keys if s.raw_keys is s.keys else _item_texts(s.raw_keys)
            end = 0
            for size in s.sizes.tolist() if isinstance(s, SortedCorpus) else [s.size]:
                part = slice(end, end + size)
                end += size
                line = ('{"rows": [[' + "], [".join(rows[part]) + "]]") if size else '{"rows": []'
                if keys is not None:
                    line += ', "keys": [' + ", ".join(keys[part]) + "]"
                if raw is not None:
                    line += ', "raw_keys": [' + ", ".join(raw[part]) + "]"
                fh.write(line + "}\n")
