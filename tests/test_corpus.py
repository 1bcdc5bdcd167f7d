"""`tokensort sort` and `analyze` order a file in blocks of sets
(`core.read_corpus`). These tests compare them with the former per-set
commands, kept here as the reference, byte for byte, at any block size; check
that their memory does not grow with the file and that a bad line leaves no
partial output; and check that every per-set library function is the one-set
case of its corpus function."""
import json
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tokensort import core
from tokensort.analysis import (
    ambiguity_error,
    corpus_ambiguity_sets,
    sorting_error,
    uniform_ambiguity_P,
    validate_probability_matrix,
)
from tokensort.cli import _json_float, main
from tokensort.core import SortedSequence, TokenSet, write_token_sets
from tokensort.latentsort import encode_batch, init_model, latent_sort, latent_sort_corpus, save_model
from tokensort.sorters import CORPUS_SCHEMES, svd_lowrank_sort

from test_sorters import PER_SET

# one small untrained model per token dimension
MODELS = {n: init_model(n, hidden_sizes=(8, 5), seed=n) for n in range(1, 5)}


# ---------------------------------------------------------------------------
# The per-set reference: the commands as they were before they took the file
# as one corpus.
# ---------------------------------------------------------------------------


def _ref_by_keys(values, keys):
    order = np.argsort(keys, kind="stable")
    return {"rows": values[order], "keys": keys[order], "raw_keys": keys[order], "order": order}


def _ref_principal_direction(values):
    centered = values - values.mean(axis=0)
    centered = np.ldexp(centered, -math.frexp(np.abs(centered).max())[1])
    cov = centered.T @ centered / values.shape[0]
    if not np.any(np.abs(cov) > 0.0):
        return None
    cov = cov / np.max(np.abs(cov))
    v = np.linalg.eigh(cov)[1][:, -1]
    k = int(np.argmax(np.abs(v)))
    return -v if v[k] < 0 else v


def _ref_svd(values):
    direction = _ref_principal_direction(values)
    if direction is None:
        return _ref_by_keys(values, np.zeros(len(values)))
    return _ref_by_keys(values, (values - values.mean(axis=0)) @ direction)


def _ref_mean_squared(values):
    keys = -np.mean(values * values, axis=1)
    for key, token in zip(keys.tolist(), values.tolist()):
        if abs(key) < sys.float_info.min and any(token):
            raise ValueError("mean-squared key underflows")  # the program's error too
    return _ref_by_keys(values, keys)


def _ref_lex(values):
    order = np.lexsort(values.T[::-1])
    return {"rows": values[order], "keys": None, "raw_keys": None, "order": order}


def _ref_latent(model, values):
    raw = encode_batch(model, values)
    order = np.argsort(raw, kind="stable")
    sorted_raw = raw[order]
    span = sorted_raw[-1] - sorted_raw[0]
    norm = (sorted_raw - sorted_raw[0]) / span if span > 0 else np.zeros_like(sorted_raw)
    return {"rows": values[order], "keys": norm, "raw_keys": sorted_raw, "order": order}


def _ref_sort(scheme, values):
    if scheme == "latent":
        return _ref_latent(MODELS[values.shape[1]], values)
    return {
        "mean-squared": _ref_mean_squared,
        "lex": _ref_lex,
        "svd": _ref_svd,
    }[scheme](values)


def _ref_ambiguity_sets(m, keys, tol=1e-9):
    order = np.argsort(keys, kind="stable")
    k = keys[order]
    with np.errstate(invalid="ignore"):
        joined = (k[1:] == k[:-1]) | (np.abs(np.diff(k)) <= tol)
    cuts = [0, *(np.flatnonzero(~joined) + 1).tolist(), m]
    order = order.tolist()
    return sorted((sorted(order[a:b]) for a, b in zip(cuts, cuts[1:])), key=lambda g: g[0])


def _ref_sort_bytes(scheme, sets):
    lines = []
    for values in sets:
        seq = _ref_sort(scheme, values)
        obj = {"rows": seq["rows"].tolist()}
        for name in ("keys", "raw_keys"):
            if seq[name] is not None:
                obj[name] = seq[name].tolist()
        lines.append(json.dumps(obj) + "\n")
    return "".join(lines).encode()


def _ref_analyze_bytes(scheme, sets):
    report = []
    for idx, values in enumerate(sets):
        seq = _ref_sort(scheme, values)
        rows, keys = seq["rows"], seq["keys"]
        if keys is None:
            keys = np.concatenate([[0], np.cumsum(np.any(np.diff(rows, axis=0) != 0, axis=1))])
        groups = _ref_ambiguity_sets(len(rows), keys)
        p = uniform_ambiguity_P(groups, len(rows))
        validate_probability_matrix(p)
        report.append({
            "index": idx,
            "set_size": len(rows),
            "ambiguity_sets": groups,
            "ambiguity_error": ambiguity_error(SortedSequence(rows), groups),
            "sorting_error": sorting_error(p, SortedSequence(rows)),
        })
    return (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()


# ---------------------------------------------------------------------------
# Corpora: sets of 1-12 tokens in 1-4 dimensions. Grid values make duplicate
# tokens and exactly tied keys; -0.0 sits beside 0.0; whole sets of one
# repeated token have zero covariance.
# ---------------------------------------------------------------------------

GRID = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0])
REAL = st.floats(-8.0, 8.0, allow_nan=False, allow_infinity=False)


@st.composite
def corpora(draw):
    n = draw(st.integers(1, 4))
    sets = []
    for _ in range(draw(st.integers(1, 7))):
        m = draw(st.integers(1, 12))
        kind = draw(st.sampled_from(["grid", "mixed", "identical"]))
        if kind == "identical":
            sets.append(np.tile(draw(arrays(np.float64, n, elements=st.one_of(GRID, REAL))), (m, 1)))
        else:
            elements = GRID if kind == "grid" else st.one_of(GRID, REAL)
            sets.append(draw(arrays(np.float64, (m, n), elements=elements)))
    return sets


def _write_inputs(tmp_path, sets):
    infile = tmp_path / "sets.jsonl"
    write_token_sets(infile, [TokenSet(x) for x in sets])
    model = tmp_path / "model.json"
    save_model(MODELS[sets[0].shape[1]], model)
    return infile, model


def _run(tmp_path, command, scheme, infile, model):
    """The command's output bytes, or None when it exits 1 and writes none."""
    out = tmp_path / f"{command}-{scheme}.out"
    out.unlink(missing_ok=True)
    argv = [command, "--scheme", scheme, "--in", str(infile),
            "--report" if command == "analyze" else "--out", str(out)]
    if scheme == "latent":
        argv += ["--model", str(model)]
    code = main(argv)
    if code == 1 and not out.exists():
        return None
    assert code == 0
    return out.read_bytes()


def _ref_or_none(ref_bytes, scheme, sets):
    """The reference output, or None where the reference raises ValueError."""
    try:
        return ref_bytes(scheme, sets)
    except ValueError:
        return None


SCHEMES = ("lex", "mean-squared", "svd", "latent")


# identical tokens whose mean is not exact: the centred spread is about
# 1e-280, and its covariance only survives scaled by its own power of two
INEXACT_MEAN = [np.tile([7.62201191e-264, -1.0], (5, 1))]
# the set varies only in subnormal components beside 1.0: scaled down
# before centring, they would round and reorder the set
SUBNORMAL = [np.array([[1.0, 5e-324], [1.0, 1e-323], [1.0, 0.0]])]
# distinct tokens whose mean-squared keys underflow: that scheme fails
UNDERFLOW = [np.array([[1e-200, 0.0], [2e-200, 0.0], [0.5, 0.5]])]
# every set size from 1 to 40, each stacked apart; and sets of one size,
# stacked by one reshape
_RNG = np.random.default_rng(19)
RAGGED = [np.round(_RNG.normal(size=(m, 2)), 1) for m in range(40, 0, -1)]
ONE_SIZE = [_RNG.normal(size=(6, 3)) for _ in range(9)]


@given(corpora())
@example(INEXACT_MEAN)
@example(SUBNORMAL)
@example(UNDERFLOW)
@example(RAGGED)
@example(ONE_SIZE)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_commands_match_per_set_reference(tmp_path, sets):
    infile, model = _write_inputs(tmp_path, sets)
    for scheme in SCHEMES:
        for command, ref_bytes in (("sort", _ref_sort_bytes), ("analyze", _ref_analyze_bytes)):
            out = _run(tmp_path, command, scheme, infile, model)
            assert out == _ref_or_none(ref_bytes, scheme, sets), (command, scheme)


def test_commands_match_reference_on_mixed_dimensions(tmp_path):
    # runs of sets that share a dimension are ordered as separate corpora
    rng = np.random.default_rng(4)
    sets = [np.round(rng.normal(size=(int(rng.integers(1, 9)), n)) * 2) / 2 for n in (2, 2, 3, 1, 1, 2)]
    infile = tmp_path / "sets.jsonl"
    write_token_sets(infile, [TokenSet(x) for x in sets])
    for scheme in ("lex", "mean-squared", "svd"):
        assert _run(tmp_path, "sort", scheme, infile, None) == _ref_sort_bytes(scheme, sets)
        assert _run(tmp_path, "analyze", scheme, infile, None) == _ref_analyze_bytes(scheme, sets)


def test_empty_file(tmp_path):
    infile = tmp_path / "empty.jsonl"
    infile.write_text("")
    assert _run(tmp_path, "sort", "svd", infile, None) == b""
    assert _run(tmp_path, "analyze", "svd", infile, None) == b"[]\n"


# a corpus for block sizes 3 and 1: sets of 2, 1, 4 and 2 rows, so that at 3
# rows the first block is full where the dimension changes and the 4-row set
# is a block of its own; blank lines and ids between them, and grid values
# so that keys tie
BLOCK_SETS = [
    ("a", [[0.5, 0.25], [0.25, 0.5]]),
    (None, [[1.0, 0.0]]),
    ("b", [[0.5, 0.0, 1.0], [0.0, 0.5, 1.0], [0.5, 0.0, 1.0], [1.0, 1.0, 0.0]]),
    (7, [[0.25, 0.25, 0.5], [0.5, 0.25, 0.25]]),
    (None, [[0.75, 0.5], [0.5, 0.75], [0.0, 0.25], [0.25, 0.0], [0.5, 0.5]]),
    *((f"s{k}", np.round(np.random.default_rng(k).uniform(size=(k % 4 + 1, 2)) * 4) / 4)
      for k in range(12)),
]


def _write_block_corpus(path, sets) -> None:
    lines = [json.dumps(({} if id_ is None else {"id": id_}) | {"tokens": np.asarray(x).tolist()})
             for id_, x in sets]
    path.write_text("\n\n".join(lines[:2]) + "\n  \n" + "\n".join(lines[2:]) + "\n\n")


@pytest.mark.parametrize("block_rows", [1, 3, core.CORPUS_BLOCK_ROWS, 10**9])
def test_commands_match_reference_at_any_block_size(tmp_path, monkeypatch, block_rows):
    monkeypatch.setattr(core, "CORPUS_BLOCK_ROWS", block_rows)
    infile = tmp_path / "sets.jsonl"
    _write_block_corpus(infile, BLOCK_SETS)
    sets = [np.asarray(x, dtype=np.float64) for _, x in BLOCK_SETS]
    for scheme in ("lex", "mean-squared", "svd"):
        assert _run(tmp_path, "sort", scheme, infile, None) == _ref_sort_bytes(scheme, sets)
        assert _run(tmp_path, "analyze", scheme, infile, None) == _ref_analyze_bytes(scheme, sets)
    # the latent model takes one dimension: its sets alone, the 5-row one
    # past a block of 3
    planar = [(id_, x) for id_, x in BLOCK_SETS if np.shape(x)[1] == 2]
    _write_block_corpus(infile, planar)
    model = tmp_path / "model.json"
    save_model(MODELS[2], model)
    sets = [np.asarray(x, dtype=np.float64) for _, x in planar]
    assert _run(tmp_path, "sort", "latent", infile, model) == _ref_sort_bytes("latent", sets)
    assert _run(tmp_path, "analyze", "latent", infile, model) == _ref_analyze_bytes("latent", sets)


def _sort_peak(tmp_path, blocks: int) -> int:
    """The tracemalloc peak of `sort --scheme svd` on a file of `blocks`
    full blocks of 8-point sets."""
    rng = np.random.default_rng(blocks)
    infile, out = tmp_path / f"blocks-{blocks}.jsonl", tmp_path / "sorted.jsonl"
    n_sets = blocks * core.CORPUS_BLOCK_ROWS // 8
    write_token_sets(infile, [TokenSet(x) for x in rng.uniform(size=(n_sets, 8, 2))])
    tracemalloc.start()
    try:
        assert main(["sort", "--scheme", "svd", "--in", str(infile), "--out", str(out)]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sort_memory_does_not_grow_with_the_file(tmp_path, monkeypatch):
    monkeypatch.setattr(core, "CORPUS_BLOCK_ROWS", 512)
    _sort_peak(tmp_path, 1)  # first calls: imports, the parser
    small, large = _sort_peak(tmp_path, 4), _sort_peak(tmp_path, 32)
    assert large < 1.5 * small, (small, large)


@pytest.mark.parametrize("command", ["sort", "analyze"])
def test_bad_line_in_a_later_block_leaves_no_output(tmp_path, monkeypatch, capsys, command):
    monkeypatch.setattr(core, "CORPUS_BLOCK_ROWS", 4)
    infile = tmp_path / "sets.jsonl"
    good = json.dumps({"tokens": [[0.5, 0.25], [0.25, 0.5]]})
    lines = [good] * 5 + ['{"tokens": [[0.5, NaN], [0.25, 0.5]]}', good]  # line 6: the third block
    infile.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    argv = [command, "--scheme", "lex", "--in", str(infile), "--report" if command == "analyze" else "--out",
            str(out)]
    message = f"tokensort: {infile}: line 6: TokenSet: all components must be finite (no NaN/Inf)\n"
    assert main(argv) == 1
    assert capsys.readouterr().err == message
    assert sorted(tmp_path.iterdir()) == [infile]
    out.write_bytes(b"previous output\n")
    assert main(argv) == 1
    assert capsys.readouterr().err == message
    assert out.read_bytes() == b"previous output\n"
    assert sorted(tmp_path.iterdir()) == [out, infile]


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_analyze_report_layout_edge_cases(tmp_path):
    # the report is laid out entry by entry; it must stay the bytes of
    # json.dumps(report, indent=2, sort_keys=True)
    big = 1.3e154  # two tokens tie on the mean-squared key; their errors overflow
    sets = [np.array([[big, 0.0], [-big, 0.0], [0.5, 0.5]]),
            np.tile([0.25, 0.5], (13, 1)),  # one group of 13 members
            *[np.array([[float(k), 0.1 + 0.2]]) for k in range(10)],  # single tokens, indices past 9
            np.array([[5e-324, 1e16], [1e-05, -0.0], [1e-05, -0.0]])]
    infile = tmp_path / "sets.jsonl"
    write_token_sets(infile, [TokenSet(x) for x in sets])
    for scheme in ("mean-squared", "lex", "svd"):
        report = _run(tmp_path, "analyze", scheme, infile, None)
        assert report == _ref_analyze_bytes(scheme, sets), scheme
    assert b'"ambiguity_error": Infinity' in _run(tmp_path, "analyze", "mean-squared", infile, None)


@pytest.mark.parametrize("x", [-0.0, 0.0, 5e-324, 1e-05, 1e16, 1.5e308, 0.1 + 0.2,
                               math.inf, -math.inf, math.nan])
def test_report_floats_as_json_writes_them(x):
    assert _json_float(x) == json.dumps(x)


def _same(a, b):
    # tobytes tells -0.0 from 0.0
    return (a is None and b is None) or (a is not None and b is not None and a.dtype == b.dtype
                                         and a.shape == b.shape and a.tobytes() == b.tobytes())


@pytest.mark.parametrize("values", [
    # the column sums fit float64, so the set is centred unscaled: scaled
    # down first, column 1 would round to 0 and leave no direction
    [[1e300, 2e-300], [1e300, 1e-300]],
    SUBNORMAL[0].tolist(),
])
def test_svd_keeps_reference_bytes_beside_extreme_components(values):
    values = np.array(values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        seq = svd_lowrank_sort(TokenSet(values))
    ref = _ref_svd(values)
    for field in ("rows", "keys", "raw_keys", "order"):
        assert _same(getattr(seq, field), ref[field]), field


@given(corpora())
@example(INEXACT_MEAN)
@example(SUBNORMAL)
@example(UNDERFLOW)
@example(RAGGED)
@example(ONE_SIZE)
@settings(max_examples=60, deadline=None)
def test_per_set_functions_are_the_one_set_case(sets):
    values = np.concatenate(sets)
    sizes = [len(x) for x in sets]
    model = MODELS[values.shape[1]]
    cases = []
    for name in CORPUS_SCHEMES:
        try:
            cases.append((PER_SET[name], CORPUS_SCHEMES[name](values, sizes)))
        except ValueError:
            assert name == "mean-squared"
            with pytest.raises(ValueError):
                _ref_mean_squared(values)  # the key underflows, in the reference too
    cases.append((lambda ts: latent_sort(model, ts), latent_sort_corpus(model, values, sizes)))
    for one_set, corpus in cases:
        groups = corpus_ambiguity_sets(corpus)
        for k, x in enumerate(sets):
            seq, part = one_set(TokenSet(x)), corpus.sequence(k)
            for field in ("rows", "keys", "raw_keys", "order"):
                assert _same(getattr(seq, field), getattr(part, field)), field
            keys = seq.keys
            if keys is None:
                keys = np.concatenate([[0], np.cumsum(np.any(np.diff(seq.rows, axis=0) != 0, axis=1))])
            assert groups[k] == _ref_ambiguity_sets(len(x), keys)
