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
from typing import Iterable, Iterator

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


def _check_indices(values, what: str) -> None:
    """ValueError naming `what` unless each of values is a Python or numpy
    int, not a bool (an integer array passes whole)."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        return
    bad = [x for x in values if type(x) is not int and not isinstance(x, np.integer)]
    if bad:
        raise ValueError(f"{what} must be integers, got {bad[0]!r}")


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
        # + 0.0 makes -0.0 into 0.0, which __eq__ holds equal
        return hash((_canonical_rows(self.values) + 0.0).tobytes())


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
            _check_indices(self.order, "order")
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

    @classmethod
    def from_order(cls, values: np.ndarray, sizes, rows_order: np.ndarray, keys=None,
                   raw_keys=None) -> SortedCorpus:
        """The corpus `values` permuted by `rows_order`, a row order that keeps
        each set's rows together and the sets in input order; `keys` and
        `raw_keys` are given in that order already."""
        sizes = np.asarray(sizes, dtype=np.intp)
        local = rows_order - np.repeat(np.cumsum(sizes) - sizes, sizes)
        return cls(values[rows_order], sizes, local, keys=keys, raw_keys=raw_keys)

    def sequence(self, k: int) -> SortedSequence:
        part = slice(self.starts[k], self.starts[k] + self.sizes[k])
        return SortedSequence(
            self.rows[part],
            keys=None if self.keys is None else self.keys[part],
            raw_keys=None if self.raw_keys is None else self.raw_keys[part],
            order=self.order[part],
        )


def set_ids(sizes) -> np.ndarray:
    """The index of the set each row of a corpus belongs to."""
    sizes = np.asarray(sizes, dtype=np.intp)
    return np.repeat(np.arange(len(sizes)), sizes)


def by_set_size(fn, values: np.ndarray, sizes) -> np.ndarray:
    """fn of every set of a corpus, one value per row: the sets of each size
    are stacked, (B, M, N), and fn maps them to (B, M)."""
    sizes = np.asarray(sizes, dtype=np.intp)
    starts = np.cumsum(sizes) - sizes
    out = np.empty(len(values))
    for m in set(sizes.tolist()):
        rows = starts[sizes == m][:, None] + np.arange(m)
        out[rows] = fn(values[rows])
    return out


@dataclass(frozen=True)
class Graph:
    """Nodes with feature vectors plus directed or undirected edges.

    `directed` must be a bool, every edge a pair of node indices, and every
    index a Python or numpy int (not a bool) within 0..n_nodes - 1.
    Undirected edges are stored once, endpoints in canonical order: the
    endpoint whose feature vector compares lexicographically smaller first,
    and on equal features the smaller node index first.
    """

    node_features: np.ndarray
    edges: tuple[tuple[int, int], ...]
    directed: bool = False

    def __post_init__(self):
        if type(self.directed) is not bool:
            raise ValueError(f'"directed" must be true or false, got {self.directed!r}')
        edges = [(u, v) for u, v in self.edges]
        _check_indices([x for e in edges for x in e], "edge endpoints")
        feats = _as_matrix(self.node_features, "Graph.node_features")
        object.__setattr__(self, "node_features", feats)
        n = feats.shape[0]
        canon: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            u, v = int(u), int(v)
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


def tokenize_edges(g: Graph) -> TokenSet:
    """One token per edge, in stored order: the feature vectors of its two
    endpoints, in stored order, concatenated (dimension 2 * node_dim)."""
    if g.n_edges == 0:
        raise ValueError("empty graph tokenization")
    return TokenSet(g.node_features[np.array(g.edges)].reshape(g.n_edges, 2 * g.node_dim))


def _dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The dot product of each vector of u with the same one of v, along the
    last axis, by the BLAS dot that np.dot of two 1-D vectors takes: each
    equals that np.dot bit for bit, so np.sqrt(_dots(d, d)) is a 1-D
    np.linalg.norm of each d."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


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
    try:
        fh = open(tmp, "x", newline=newline)
    except FileNotFoundError as exc:  # name the path asked for, not the temporary
        raise FileNotFoundError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as exc:  # as above
            raise OSError(exc.errno, exc.strerror, path) from None
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


@contextlib.contextmanager
def restore_on_error(path):
    """Put the file at `path` back as it was if the block raises: a file there
    is hard-linked aside and moved back, and one the block made is removed."""
    aside = f"{os.fspath(path)}.{secrets.token_hex(4)}.tmp" if os.path.isfile(path) else None
    if aside:
        os.link(path, aside)
    try:
        yield
    except BaseException:
        if aside:
            os.replace(aside, path)
        elif os.path.isfile(path):
            os.remove(path)
        raise
    if aside:
        os.remove(aside)


def _write_jsonl(path, objs: Iterable[dict]) -> None:
    """One line per object, as json.dumps writes it."""
    with atomic_write(path) as fh:
        for obj in objs:
            fh.write(json.dumps(obj) + "\n")


def _parse_lines(path, build) -> Iterator:
    """build(obj) for the decoded JSON of each non-blank line of the file,
    in order, as the lines are read; ValueError names the first line that
    fails and why."""
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                item = build(json.loads(line))
            except Exception as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from exc
            yield item


def _json_numbers(rows, what: str) -> None:
    """ValueError unless each component of rows is a JSON number; numpy reads true and "1.5" as numbers."""
    bad = [x for row in rows for x in row if type(x) is not float and type(x) is not int]
    if bad:
        raise ValueError(f'"{what}" must hold only JSON numbers, got {bad[0]!r}')


def _token_set(obj) -> TokenSet:
    tokens = obj["tokens"]
    widths = {len(t) for t in tokens}
    if len(widths) > 1:
        raise ValueError(f"ragged token dimensions {sorted(widths)}")
    ts = TokenSet(np.asarray(tokens, dtype=np.float64), id=obj.get("id"))
    _json_numbers(tokens, "tokens")
    return ts


def write_token_sets(path, sets: Iterable[TokenSet]) -> None:
    _write_jsonl(path, (({} if ts.id is None else {"id": ts.id}) | {"tokens": ts.values.tolist()}
                        for ts in sets))


# the most rows a block of read_corpus holds, unless one set has more: what
# `sort` and `analyze` keep of a file at once, as Python lists of about
# 100-160 B a float while a block is decoded
CORPUS_BLOCK_ROWS = 2048


def _block(width: int, rows: list, sizes: list[int], ids: list) -> tuple[np.ndarray, list[int], list]:
    """One block of read_corpus from its decoded lines: one array, checked
    numeric and finite once."""
    values = np.array(rows)
    if values.dtype.kind not in "iuf":  # strings; booleans alone; ints past 64 bits
        _json_numbers(rows, "tokens")
    values = values.astype(np.float64, copy=False)
    if values.shape != (len(rows), width) or not np.isfinite(values).all():
        raise ValueError("not a finite matrix")
    return values, sizes, ids


def read_corpus(path) -> Iterator[tuple[np.ndarray, list[int], list]]:
    """The token sets of a file in blocks of consecutive sets, each as
    (values, sizes, ids): values (T, N) holds the block's tokens set after
    set, sizes the sets' token counts and ids their "id" fields (None where
    absent).

    A block ends where the token dimension changes, or before a set that
    would take it past CORPUS_BLOCK_ROWS rows. A set is never split, so a
    larger one is a block of its own. Blocks are read as they are asked
    for, so a reader that lets each go holds one block of the file at a
    time.

    Each line is decoded and width-checked on its own, and each block
    becomes one array with one finiteness check; a line that spells true or
    false, or a block whose array is not numeric, is checked value by value
    for JSON numbers. When a line or a block fails, the file is parsed again
    line by line (_parse_lines), which raises ValueError naming the first
    failing line and why it fails; the blocks before it are the ones that
    parse.
    """
    try:
        with open(path) as fh:
            width, rows, sizes, ids = 0, [], [], []
            for line in fh:
                if not line.strip():
                    continue
                obj = json.loads(line)
                tokens = obj["tokens"]
                widths = set(map(len, tokens))
                if type(tokens) is not list or len(widths) != 1 or 0 in widths:
                    raise ValueError("not a list of tokens of one width")
                if "true" in line or "false" in line:  # a JSON boolean, or an id that names one
                    _json_numbers(tokens, "tokens")
                n = widths.pop()
                if sizes and (n != width or len(rows) + len(tokens) > CORPUS_BLOCK_ROWS):
                    block = _block(width, rows, sizes, ids)
                    rows, sizes, ids = [], [], []
                    yield block
                width = n
                rows += tokens
                sizes.append(len(tokens))
                ids.append(obj.get("id"))
            if sizes:
                yield _block(width, rows, sizes, ids)
    except Exception:
        for _ in _parse_lines(path, _token_set):  # raises at the first bad line
            pass
        raise


def read_token_sets(path) -> list[TokenSet]:
    """The token sets of a file, in order, made block by block (see read_corpus)."""
    return [TokenSet(part, id=id_) for values, sizes, ids in read_corpus(path)
            for part, id_ in zip(np.split(values, np.cumsum(sizes)[:-1]), ids)]


def write_graphs(path, graphs: Iterable[Graph]) -> None:
    _write_jsonl(path, ({"nodes": g.node_features.tolist(), "edges": [[u, v] for u, v in g.edges],
                         "directed": g.directed} for g in graphs))


def _graph(obj) -> Graph:
    g = Graph(obj["nodes"], obj["edges"], directed=obj.get("directed", False))
    _json_numbers(obj["nodes"], "nodes")
    return g


def read_graphs(path) -> list[Graph]:
    return list(_parse_lines(path, _graph))


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
