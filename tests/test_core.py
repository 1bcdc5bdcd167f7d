import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokensort import core
from tokensort.core import (
    Graph,
    SortedCorpus,
    SortedSequence,
    TokenSet,
    by_set_size,
    read_corpus,
    read_graphs,
    read_token_sets,
    set_ids,
    tokenize_edges,
    write_graphs,
    write_sequences,
    write_token_sets,
)
from tokensort.datagen import PlanarGenConfig, generate_planar_graph


def test_token_set_multiset_equality():
    a = TokenSet(np.array([[1.0, 2.0], [3.0, 4.0]]))
    b = TokenSet(np.array([[3.0, 4.0], [1.0, 2.0]]))
    assert a == b
    c = TokenSet(np.array([[1.0, 2.0], [3.0, 4.1]]))
    assert a != c


def test_token_set_hash_agrees_with_equality_on_negative_zero():
    a, b = TokenSet([[0.0, 1.0]]), TokenSet([[-0.0, 1.0]])
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    c, d = TokenSet([[0.0, 1.0], [-0.0, 2.0]]), TokenSet([[-0.0, 2.0], [0.0, 1.0]])
    assert c == d and hash(c) == hash(d) == hash(TokenSet([[0.0, 2.0], [-0.0, 1.0]]))


def test_empty_set_rejected():
    with pytest.raises(ValueError):
        TokenSet(np.empty((0, 2)))


def test_sorted_sequence_key_monotonicity_enforced():
    with pytest.raises(ValueError):
        SortedSequence(np.zeros((2, 2)), keys=np.array([1.0, 0.0]))


@pytest.mark.parametrize("name", ["keys", "raw_keys"])
@pytest.mark.parametrize("keys", [[np.nan, 0.0], [0.0, np.inf]])
def test_sorted_sequence_rejects_non_finite_keys(name, keys):
    with pytest.raises(ValueError, match="finite"):
        SortedSequence(np.zeros((2, 2)), **{name: np.array(keys)})


def test_sorted_sequence_order_must_be_permutation():
    rows = np.arange(6.0).reshape(3, 2)
    assert SortedSequence(rows, order=[2, 0, 1]).order.tolist() == [2, 0, 1]
    for bad in ([0, 1], [0, 1, 1], [0, 1, 3]):
        with pytest.raises(ValueError):
            SortedSequence(rows, order=bad)
    # a float order was cut to integers, [0.9, 1.2, 2.0] stored as [0, 1, 2],
    # and a bool one read as ints
    for bad, shown in (([0.9, 1.2, 2.0], "0.9"), ([True, False, 2], "True"), (np.array([1.0, 0.0, 2.0]), "1.0")):
        with pytest.raises(ValueError, match=f"order must be integers, got .*{shown}"):
            SortedSequence(rows, order=bad)
    for good in ([np.int64(2), 0, 1], np.array([2, 0, 1], dtype=np.uint8)):
        assert SortedSequence(rows, order=good).order.tolist() == [2, 0, 1]


def test_graph_canonical_edge_orientation():
    feats = np.array([[1.0, 0.0], [0.0, 0.0]])
    g = Graph(feats, ((0, 1),))
    # endpoint with lexicographically smaller features comes first
    u, v = g.edges[0]
    assert list(feats[u]) <= list(feats[v])


def test_graph_duplicate_edges_dropped():
    feats = np.array([[0.0, 0.0], [1.0, 0.0]])
    g = Graph(feats, ((0, 1), (1, 0), (0, 1)))
    assert g.n_edges == 1


def test_graph_equal_features_one_edge_per_node_pair():
    # nodes 0 and 1 share their features: both orientations of their edge
    # are one undirected edge, stored with the smaller index first
    feats = np.array([[0.5, 0.5], [0.5, 0.5], [1.0, 0.0]])
    g = Graph(feats, ((0, 1), (1, 0), (2, 0), (0, 2)))
    assert g.edges == ((0, 1), (0, 2))
    assert Graph(feats, ((1, 0),)).edges == ((0, 1),)


def test_graph_bad_endpoint():
    with pytest.raises(ValueError):
        Graph(np.zeros((2, 2)), ((0, 5),))
    # a float or bool endpoint, an edge that is not a pair, and a flag that is
    # not a bool are refused rather than truncated, read as an index, cut
    # short or taken as truthy
    feats = np.zeros((3, 2))
    for edges, directed, message in [
        (((0, 1.7),), False, "edge endpoints must be integers, got 1.7"),
        (((True, 1),), False, "edge endpoints must be integers, got True"),
        (((0, 1, 2),), False, "too many values to unpack"),
        (((0, 1),), "false", "\"directed\" must be true or false, got 'false'"),
    ]:
        with pytest.raises(ValueError, match=message):
            Graph(feats, edges, directed=directed)
    # numpy integers are indices too, stored as Python ints
    g = Graph(feats, ((np.int64(2), np.int32(0)), (np.intp(1), 2)), directed=True)
    assert g.edges == ((2, 0), (1, 2)) and all(type(x) is int for e in g.edges for x in e)


def _loop_edge_tokens(g: Graph) -> np.ndarray:
    """The per-edge oracle: each stored edge's endpoint features, concatenated."""
    return np.stack([np.concatenate([g.node_features[u], g.node_features[v]]) for u, v in g.edges])


def test_tokenize_edges_concatenates_endpoints():
    feats = np.array([[0.0, 1.0], [2.0, 3.0]])
    g = Graph(feats, ((1, 0),))  # stored as (0, 1): node 0's features sort first
    assert tokenize_edges(g).values.tolist() == [[0.0, 1.0, 2.0, 3.0]]


def test_tokenize_edges_matches_per_edge_loop():
    graphs = [generate_planar_graph(PlanarGenConfig(seed=s)) for s in range(300)]
    # directed antiparallel edges are two tokens, one per orientation
    graphs.append(Graph(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.5]]),
                        ((0, 1), (1, 0), (2, 1), (1, 2), (2, 2)), directed=True))
    rng = np.random.default_rng(4)
    for dim in (1, 3):
        feats = rng.normal(size=(6, dim))
        graphs += [Graph(feats, ((0, 1), (2, 1), (5, 3), (4, 4), (3, 5)), directed=directed)
                   for directed in (False, True)]
    for g in graphs:
        tokens = tokenize_edges(g).values
        assert tokens.shape == (g.n_edges, 2 * g.node_dim)
        assert tokens.tobytes() == _loop_edge_tokens(g).tobytes()


def test_tokenize_edges_empty_graph():
    g = Graph(np.zeros((3, 2)), ())
    with pytest.raises(ValueError):
        tokenize_edges(g)


def test_token_set_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    sets = [TokenSet(rng.normal(size=(m, 3))) for m in (1, 4, 7)]
    p = tmp_path / "sets.jsonl"
    write_token_sets(p, sets)
    back = read_token_sets(p)
    assert len(back) == 3
    for a, b in zip(sets, back):
        assert np.array_equal(a.values, b.values)  # exact, not approx


def test_malformed_line_reports_lineno(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"tokens": [[1.0, 2.0]]}\nnot json\n')
    with pytest.raises(ValueError, match="line 2"):
        read_token_sets(p)


def test_ragged_dimensions_rejected(tmp_path):
    p = tmp_path / "ragged.jsonl"
    p.write_text(json.dumps({"tokens": [[1.0, 2.0], [3.0]]}) + "\n")
    with pytest.raises(ValueError):
        read_token_sets(p)


@pytest.mark.parametrize("write, good, bad", [
    (write_token_sets, TokenSet(np.eye(2)), TokenSet(np.ones((1, 2)))),
    (write_graphs, Graph(np.eye(2), ((0, 1),)), Graph(np.ones((1, 2)), ())),
])
def test_failed_write_keeps_previous_file(tmp_path, write, good, bad):
    p = tmp_path / "out.jsonl"
    write(p, [good])
    before = p.read_bytes()

    def failing():
        yield bad
        raise RuntimeError("writer failed partway")

    with pytest.raises(RuntimeError, match="partway"):
        write(p, failing())
    assert p.read_bytes() == before
    assert [q.name for q in tmp_path.iterdir()] == ["out.jsonl"]  # no temporary left


def test_import_leaves_out_hashlib_and_logging():
    # the temporaries' names come from os.urandom, not secrets, whose
    # hashlib loads OpenSSL; concurrent.futures, which loads logging, is
    # imported only when training starts a thread
    src = str(Path(core.__file__).resolve().parents[1])
    names = ["hashlib", "secrets", "logging", "concurrent.futures"]
    code = f"import sys, tokensort.cli; print(*[m in sys.modules for m in {names!r}])"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["False"] * len(names)


def _ref_float_list(arr):
    # the writers' former per-element conversion, kept as the byte oracle
    return [[float(x) for x in row] for row in arr]


def test_writers_match_per_element_float_bytes(tmp_path):
    vals = np.array([[-0.0, 5e-324], [1e308, 0.1 + 0.2]])
    keys = np.array([-0.0, 0.1 + 0.2])
    write_token_sets(tmp_path / "t.jsonl", [TokenSet(vals, id="s")])
    write_graphs(tmp_path / "g.jsonl", [Graph(vals, ((0, 1),))])
    write_sequences(tmp_path / "s.jsonl", [SortedSequence(vals, keys=keys, raw_keys=keys[::-1])])
    ref = {
        "t.jsonl": {"id": "s", "tokens": _ref_float_list(vals)},
        "g.jsonl": {"nodes": _ref_float_list(vals), "edges": [[0, 1]], "directed": False},
        "s.jsonl": {"rows": _ref_float_list(vals), "keys": [float(k) for k in keys],
                    "raw_keys": [float(k) for k in keys[::-1]]},
    }
    for name, obj in ref.items():
        assert (tmp_path / name).read_bytes() == (json.dumps(obj) + "\n").encode()


# floats whose json.dumps text is irregular: signed zero, the smallest
# subnormal, exponent forms on both sides, the largest magnitudes, a long repr
ODD_FLOATS = [-0.0, 5e-324, 1e-05, 1e16, 1.5e308, -1.5e308, 0.1 + 0.2, 123456789.125]


@pytest.mark.parametrize("sizes", [[1], [8], [1, 1, 1, 1, 1, 1, 1, 1], [3, 1, 4], [0, 8]])
@pytest.mark.parametrize("key_kind", ["none", "shared", "separate"])
def test_write_sequences_matches_json_dumps_per_line(tmp_path, sizes, key_kind):
    # each array is encoded once and cut into items; every line must still be
    # the bytes json.dumps writes for its set's slices
    rows = np.array([ODD_FLOATS, ODD_FLOATS[::-1]]).T.copy()
    keys = np.array(ODD_FLOATS[3:] + ODD_FLOATS[:3])
    raw = {"none": None, "shared": keys, "separate": keys[::-1].copy()}[key_kind]
    corpus = SortedCorpus(rows, np.array(sizes), np.zeros(8, dtype=np.intp),
                          keys=None if key_kind == "none" else keys, raw_keys=raw)
    write_sequences(tmp_path / "c.jsonl", [corpus, corpus])
    lines, end = [], 0
    for size in sizes:
        obj = {"rows": rows[end : end + size].tolist()}
        if corpus.keys is not None:
            obj["keys"] = keys[end : end + size].tolist()
            obj["raw_keys"] = raw[end : end + size].tolist()
        lines.append(json.dumps(obj) + "\n")
        end += size
    assert (tmp_path / "c.jsonl").read_text() == "".join(lines) * 2


def _running_scores(sets):
    """A per-set function whose every value depends on its set's shape and
    on the tokens before it in the set."""
    return np.cumsum(sets[..., 0] * sets.shape[1] + sets[..., -1], axis=1)


@pytest.mark.parametrize("sizes", [
    list(range(1, 41)) + [5, 40, 1, 17, 5],  # ragged: every size 1-40, some repeated
    [6] * 9,  # one size
    [40],
])
def test_by_set_size_is_per_set_application(sizes):
    values = np.random.default_rng(len(sizes)).normal(size=(sum(sizes), 3))
    blocks = []
    out = by_set_size(lambda sets: blocks.append(sets) or _running_scores(sets), values, sizes)
    starts = np.cumsum(sizes) - sizes
    ref = [_running_scores(values[a : a + m][None])[0] for a, m in zip(starts, sizes)]
    assert out.dtype == np.float64 and out.tobytes() == np.concatenate(ref).tobytes()
    # one stacked call per set size
    assert sorted(b.shape for b in blocks) == sorted((sizes.count(m), m, 3) for m in set(sizes))
    assert set_ids(sizes).tolist() == [k for k, m in enumerate(sizes) for _ in range(m)]


def test_sorted_corpus_keeps_its_permutation():
    values = np.arange(12.0).reshape(6, 2)
    order = np.array([1, 0, 2, 5, 3, 4])  # sets [0, 1], [2], [3, 4, 5]
    keys = np.array([0.25, 0.5, 1.0, 2.0, 2.5, 3.0])  # in the sorted row order
    corpus = SortedCorpus(values[order], [2, 1, 3], order, keys=keys, raw_keys=-keys)
    assert corpus.rows.tolist() == values[corpus.order].tolist()
    assert corpus.order is order and corpus.keys is keys
    assert corpus.sizes.dtype == np.intp and corpus.starts.tolist() == [0, 2, 3]
    # each set's sequence holds its order within the set
    assert [corpus.sequence(k).order.tolist() for k in range(3)] == [[1, 0], [0], [2, 0, 1]]
    seq = corpus.sequence(2)
    assert seq.rows.tolist() == [[10.0, 11.0], [6.0, 7.0], [8.0, 9.0]]
    assert seq.rows.tolist() == values[3:][seq.order].tolist()
    assert seq.raw_keys.tolist() == [-2.0, -2.5, -3.0]


def test_write_sequences_one_column_and_empty(tmp_path):
    one = SortedSequence(np.array([[x] for x in ODD_FLOATS]), keys=np.sort(ODD_FLOATS))
    write_sequences(tmp_path / "s.jsonl", [one])
    ref = {"rows": [[x] for x in ODD_FLOATS], "keys": sorted(ODD_FLOATS)}
    assert (tmp_path / "s.jsonl").read_text() == json.dumps(ref) + "\n"
    write_sequences(tmp_path / "e.jsonl", [])
    assert (tmp_path / "e.jsonl").read_bytes() == b""


def _oracle_read_token_sets(path) -> list[TokenSet]:
    # the former read_token_sets, line by line, kept as the parity oracle
    out = []
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
                # numpy reads true and "1.5" as numbers; a file may not
                for x in (x for t in tokens for x in t):
                    if isinstance(x, (bool, str)) or not isinstance(x, (int, float)):
                        raise ValueError(f'"tokens" must hold only JSON numbers, got {x!r}')
            except Exception as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from exc
            out.append(ts)
    return out


GOOD = '{"tokens": [[1.5, 2.0], [0.25, -3.0]]}'
READ_CASES = {
    "bad json": [GOOD, "not json"],
    "bad json after a bad run": [GOOD, '{"tokens": [[NaN, 1.0]]}', GOOD, "{"],
    "missing tokens": [GOOD, '{"id": "x"}'],
    "not an object": ["[[1.0, 2.0]]"],
    "a string": ['"tokens"'],
    "ragged": [GOOD, '{"tokens": [[1.0, 2.0], [3.0]]}'],
    "empty token list": ['{"tokens": []}'],
    "zero width": ['{"tokens": [[], []]}'],
    "nested too deep": ['{"tokens": [[[1.0], [2.0]]]}'],
    "tokens a number": ['{"tokens": 5}'],
    "tokens a string": ['{"tokens": "ab"}'],
    "tokens an object": ['{"tokens": {"12": 0, "34": 1}}'],
    "rows strings": ['{"tokens": ["12", "34"]}'],
    "rows objects": ['{"tokens": [{"a": 1}]}'],
    "nan": [GOOD, '{"tokens": [[NaN, 1.0]]}'],
    "inf": [GOOD, GOOD, '{"tokens": [[1.0, -Infinity]]}'],
    "huge int": ['{"tokens": [[1' + "0" * 400 + ', 1.0]]}'],
    "null component": ['{"tokens": [[null, 1.0]]}'],
    "string components": [GOOD, '{"tokens": [["a", 1.0]]}'],
    "numeric string components": ['{"tokens": [["1.5", 2], [true, 3]]}'],
    "boolean components": [GOOD, '{"tokens": [[1.0, 2.0], [0.5, false]]}', GOOD],
    "booleans alone": ['{"tokens": [[true, false]]}'],
    "an id that says true": ['{"id": "true or false", "tokens": [[1.0, 2.0]]}', GOOD],
    "integer components": ['{"tokens": [[1, 2], [3, -4]]}', '{"tokens": [[9007199254740993, 0]]}'],
    "ints past 64 bits": ['{"tokens": [[1' + "0" * 30 + ', 1]]}', GOOD],
    "blank lines": ["", GOOD, "   ", "", GOOD, ""],
    "mixed dimensions": [GOOD, '{"tokens": [[1.0]]}', '{"tokens": [[2.0], [3.0]]}', GOOD,
                         '{"tokens": [[1.0, 2.0, 3.0]]}', GOOD],
    "bad line in a later run": [GOOD, '{"tokens": [[1.0]]}', '{"tokens": [[1.0]], "x": [}'],
    "ids": ['{"id": "a", "tokens": [[1.0]]}', '{"tokens": [[2.0]]}', '{"id": 7, "tokens": [[3.0]]}'],
}


@pytest.mark.parametrize("name", READ_CASES)
def test_reader_matches_line_by_line_oracle(tmp_path, monkeypatch, name):
    path = tmp_path / "sets.jsonl"
    path.write_text("\n".join(READ_CASES[name]) + "\n")
    for limit in (core.CORPUS_BLOCK_ROWS, 1, 3):  # the default, and blocks that end mid-case
        monkeypatch.setattr(core, "CORPUS_BLOCK_ROWS", limit)
        _check_reader(path, limit)


def _check_reader(path, limit):
    try:
        expected = _oracle_read_token_sets(path)
    except ValueError as exc:
        for read in (read_token_sets, lambda p: list(read_corpus(p))):
            with pytest.raises(ValueError) as got:
                read(path)
            assert str(got.value) == str(exc)
        return
    got = read_token_sets(path)
    assert [(ts.values.tobytes(), ts.values.shape, ts.id) for ts in got] == \
        [(ts.values.tobytes(), ts.values.shape, ts.id) for ts in expected]
    # read_corpus: blocks of one dimension, of at most `limit` rows unless
    # one set has more, each ending at a dimension change or where the next
    # set would not fit
    blocks = list(read_corpus(path))
    for (values, sizes, ids), nxt in zip(blocks, blocks[1:] + [None]):
        assert len(values) == sum(sizes) and len(ids) == len(sizes)
        assert len(values) <= limit or len(sizes) == 1
        if nxt is not None and nxt[0].shape[1] == values.shape[1]:
            assert len(values) + nxt[1][0] > limit
    flat = [(v.shape[1], size, id_) for v, sizes, ids in blocks for size, id_ in zip(sizes, ids)]
    assert flat == [(ts.dim, ts.size, ts.id) for ts in expected]
    assert b"".join(v.tobytes() for v, _, _ in blocks) == b"".join(ts.values.tobytes() for ts in expected)


def test_reader_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        list(read_corpus(tmp_path / "absent.jsonl"))


def test_graph_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    g = Graph(rng.uniform(size=(5, 2)), ((0, 1), (1, 2), (3, 4)))
    p = tmp_path / "g.jsonl"
    write_graphs(p, [g])
    (back,) = read_graphs(p)
    assert np.array_equal(back.node_features, g.node_features)
    assert back.edges == g.edges


def test_read_graphs_names_first_bad_line(tmp_path):
    p = tmp_path / "g.jsonl"
    good = json.dumps({"nodes": [[0.0, 0.0], [1.0, 1.0]], "edges": [[0, 1]], "directed": False})
    # a blank line still counts; the first failing line is reported, not the last
    p.write_text(good + "\n\n" + json.dumps({"nodes": [[0.0, 0.0]], "edges": [[0, 5]]})
                 + "\nnot json\n")
    with pytest.raises(ValueError, match=r"g\.jsonl: line 3: edge \(0, 5\) references a node outside 0\.\.0$"):
        read_graphs(p)
    p.write_text(good + "\n" + json.dumps({"edges": []}) + "\n")
    with pytest.raises(ValueError, match="line 2: 'nodes'"):
        read_graphs(p)
    with pytest.raises(FileNotFoundError):
        read_graphs(tmp_path / "absent.jsonl")
    # a flag that is not a JSON boolean, an endpoint that is not a JSON
    # integer, and a node feature that is not a JSON number are refused
    # rather than read as truthy, truncated or converted
    nodes = [[0.0, 0.0], [1.0, 1.0]]
    for fields, message in [
        ({"edges": [[0, 1]], "directed": "false"}, "\"directed\" must be true or false, got 'false'"),
        ({"edges": [[0, 1]], "directed": 0}, "\"directed\" must be true or false, got 0"),
        ({"edges": [[0, 1]], "directed": None}, "\"directed\" must be true or false, got None"),
        ({"edges": [[0, 1.7]]}, "edge endpoints must be integers, got 1.7"),
        ({"edges": [[0, 1], [1.0, 0]]}, "edge endpoints must be integers, got 1.0"),
        ({"edges": [[True, 0]]}, "edge endpoints must be integers, got True"),
        ({"nodes": [[0.0, 0.0], [True, 1.0]], "edges": []}, '"nodes" must hold only JSON numbers, got True'),
        ({"nodes": [["0.5", 0.0], [1.0, 1.0]], "edges": []}, "\"nodes\" must hold only JSON numbers, got '0.5'"),
    ]:
        p.write_text(good + "\n" + json.dumps({"nodes": nodes} | fields) + "\nnot json\n")
        with pytest.raises(ValueError) as info:
            read_graphs(p)
        assert str(info.value) == f"{p}: line 2: {message}"


@given(st.integers(1, 8), st.integers(1, 5), st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_roundtrip_exact_fuzz(tmp_path_factory, m, n, seed):
    rng = np.random.default_rng(seed)
    ts = TokenSet(rng.normal(scale=100.0, size=(m, n)))
    p = tmp_path_factory.mktemp("rt") / "x.jsonl"
    write_token_sets(p, [ts])
    (back,) = read_token_sets(p)
    assert np.array_equal(back.values, ts.values)
