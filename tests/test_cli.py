import csv
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tokensort.cli import main
from tokensort.core import TokenSet, write_token_sets
from tokensort.latentsort import init_model, latent_sort, save_model


def _read_sequences(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


@pytest.fixture
def sets_file(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "sets.jsonl"
    write_token_sets(str(path), [TokenSet(rng.uniform(size=(5, 2))) for _ in range(4)])
    return str(path)


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_sort_lex(sets_file, tmp_path):
    out = tmp_path / "sorted.jsonl"
    rc = main(["sort", "--scheme", "lex", "--in", sets_file, "--out", str(out)])
    assert rc == 0
    seqs = _read_sequences(str(out))
    assert len(seqs) == 4
    for seq in seqs:
        rows = [tuple(r) for r in seq["rows"]]
        assert rows == sorted(rows)


def test_sort_latent_requires_model(sets_file, tmp_path, capsys):
    rc = main(["sort", "--scheme", "latent", "--in", sets_file,
               "--out", str(tmp_path / "x.jsonl")])
    assert rc == 2
    assert "model" in capsys.readouterr().err


def test_sort_rejects_traversal_schemes(sets_file, tmp_path, capsys):
    for cmd, out in (("sort", "--out"), ("analyze", "--report")):
        for scheme in ("bfs", "dfs"):
            rc = main([cmd, "--scheme", scheme, "--in", sets_file, out, str(tmp_path / "x")])
            assert rc == 2
            assert "invalid choice" in capsys.readouterr().err


def test_sort_missing_input(tmp_path, capsys):
    rc = main(["sort", "--scheme", "lex", "--in", str(tmp_path / "nope.jsonl"),
               "--out", str(tmp_path / "x.jsonl")])
    assert rc == 1


def test_unknown_subcommand_usage_error():
    assert main(["frobnicate"]) == 2


def test_train_then_sort_and_analyze(sets_file, tmp_path):
    model = tmp_path / "model.json"
    rc = main(["train-latent", "--in", sets_file, "--epochs", "2",
               "--seed", "1", "--out", str(model)])
    assert rc == 0
    assert model.exists()
    with open(str(model) + ".history.csv") as fh:
        hist = list(csv.reader(fh))
    assert hist[0] == ["epoch", "recon", "lgp", "lr"]
    assert len(hist) == 3  # header + 2 epochs

    out = tmp_path / "latent.jsonl"
    assert main(["sort", "--scheme", "latent", "--model", str(model),
                 "--in", sets_file, "--out", str(out)]) == 0
    for seq in _read_sequences(str(out)):
        assert np.all(np.diff(seq["keys"]) >= 0)

    report = tmp_path / "report.json"
    assert main(["analyze", "--in", sets_file, "--scheme", "latent",
                 "--model", str(model), "--report", str(report)]) == 0
    data = json.loads(report.read_text())
    assert len(data) == 4
    for entry in data:
        assert set(entry) == {"index", "set_size", "ambiguity_sets",
                              "ambiguity_error", "sorting_error"}


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_latent_rejects_non_finite_keys(tmp_path, capsys):
    # an encoder with one hidden unit computing 1e308 * tanh(x1) + 1e308: the
    # latent of (5, 0) overflows to inf
    model = init_model(2, hidden_sizes=(1,), seed=0)
    model.encoder.weights[0][:] = [[1.0], [0.0]]
    model.encoder.biases[0][:] = 0.0
    model.encoder.weights[1][:] = 1e308
    model.encoder.biases[1][:] = 1e308
    model_path = tmp_path / "model.json"
    save_model(model, model_path)
    values = np.array([[0.0, 1.0], [5.0, 0.0], [-5.0, 0.0]])
    with pytest.raises(ValueError, match="finite"):
        latent_sort(model, TokenSet(values))
    sets = tmp_path / "sets.jsonl"
    write_token_sets(str(sets), [TokenSet(values)])
    out = tmp_path / "out"
    for command, flag in (("sort", "--out"), ("analyze", "--report")):
        assert main([command, "--scheme", "latent", "--model", str(model_path),
                     "--in", str(sets), flag, str(out)]) == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()


def test_analyze_lex_ties_only_identical_tokens(tmp_path):
    # lex order is strict on distinct tokens, so only runs of identical
    # rows share an ambiguity group
    sets = tmp_path / "sets.jsonl"
    write_token_sets(str(sets), [
        TokenSet(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])),
        TokenSet(np.array([[1.0, 2.0], [0.5, 0.0], [1.0, 2.0], [0.5, 0.0], [0.5, 3.0]])),
    ])
    report = tmp_path / "report.json"
    assert main(["analyze", "--in", str(sets), "--scheme", "lex", "--report", str(report)]) == 0
    square, dups = json.loads(report.read_text())
    assert square["ambiguity_sets"] == [[0], [1], [2], [3]]
    assert square["ambiguity_error"] == 0.0 and square["sorting_error"] == 0.0
    assert dups["ambiguity_sets"] == [[0, 1], [2], [3, 4]]
    assert dups["ambiguity_error"] == 0.0 and dups["sorting_error"] == 0.0


def test_mean_squared_overflow_exits_without_output(tmp_path, capsys):
    infile = tmp_path / "huge.jsonl"
    write_token_sets(str(infile), [TokenSet(np.array([[1e200, 0.0], [2e200, 0.0], [0.5, 0.5]]))])
    for argv in (["sort", "--out", str(tmp_path / "sorted.jsonl")],
                 ["analyze", "--report", str(tmp_path / "report.json")]):
        assert main(argv + ["--scheme", "mean-squared", "--in", str(infile)]) == 1
        assert "overflow" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [infile]


def test_mean_squared_underflow_exits_without_output(tmp_path, capsys):
    infile = tmp_path / "tiny.jsonl"
    write_token_sets(str(infile), [TokenSet(np.array([[1e-200, 0.0], [2e-200, 0.0], [0.5, 0.5]]))])
    for argv in (["sort", "--out", str(tmp_path / "sorted.jsonl")],
                 ["analyze", "--report", str(tmp_path / "report.json")]):
        assert main(argv + ["--scheme", "mean-squared", "--in", str(infile)]) == 1
        assert "underflow" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [infile]


def test_ambiguity_grid_scheme(tmp_path):
    out = tmp_path / "grid.csv"
    rc = main(["ambiguity-grid", "--scheme", "summation", "--res", "8",
               "--out", str(out)])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x1", "x2", "key"]
    assert len(rows) == 1 + 64
    keys = np.array([float(r[2]) for r in rows[1:]])
    assert keys.min() == 0.0 and keys.max() == 1.0


def test_ambiguity_grid_needs_one_source(tmp_path, capsys):
    rc = main(["ambiguity-grid", "--out", str(tmp_path / "g.csv")])
    assert rc == 2


@pytest.mark.parametrize("res", ["0", "-3"])
def test_ambiguity_grid_rejects_empty_grid(res, tmp_path, capsys):
    out = tmp_path / "g.csv"
    assert main(["ambiguity-grid", "--scheme", "summation", "--res", res, "--out", str(out)]) == 2
    assert "--res" in capsys.readouterr().err
    assert not out.exists()


# a 2-D model file in which every value is valid: 2 -> 2 -> 1 and 1 -> 2
_ENCODER = {"layer_sizes": [2, 2, 1], "weights": [[1.0, 0.0, 0.0, 1.0], [1.0, -1.0]], "biases": [[0.0, 0.0], [0.5]]}
_DECODER = {"layer_sizes": [1, 2], "weights": [[1.0, -1.0]], "biases": [[0.0, 0.0]]}


def _model_json(encoder=None, **top) -> str:
    """The model file above with the given encoder and top-level fields replaced."""
    obj = {"version": 1, "token_dim": 2, "encoder": {**_ENCODER, **(encoder or {})}, "decoder": _DECODER, "meta": {}}
    return json.dumps({**obj, **top})


def test_hand_written_model_file_sorts(sets_file, tmp_path):
    model = tmp_path / "model.json"
    model.write_text(_model_json())
    out = tmp_path / "out.jsonl"
    assert main(["sort", "--scheme", "latent", "--model", str(model), "--in", sets_file, "--out", str(out)]) == 0
    assert len(_read_sequences(out)) == 4


@pytest.mark.parametrize("content", [
    '{"version": 1, "token_dim": 2}', "[1, 2]", "{", '"model"',
    _model_json(encoder={"weights": _ENCODER["weights"] + [[1.0]]}),
    _model_json(encoder={"biases": _ENCODER["biases"] + [[1.0]]}),
    _model_json(token_dim=2.7),
    _model_json(encoder={"layer_sizes": [2, "2", 1]}),
    # every token gets the latent 0.5, a model init_model refuses to build
    _model_json(encoder={"layer_sizes": [2, 0, 1], "weights": [[], []], "biases": [[], [0.5]]}),
    _model_json(meta=[1]),
    _model_json(version=True),
    _model_json(encoder={"weights": [[True, False, False, True], [1.0, -1.0]]}),
    _model_json(encoder={"biases": [[False, False], [0.5]]}),
    _model_json(encoder={"weights": [["1.0", "0.0", "0.0", "1.0"], [1.0, -1.0]]}),
    # the four values of the 2 x 2 layer nested 4 x 1
    _model_json(encoder={"weights": [[[1.0], [0.0], [0.0], [1.0]], [1.0, -1.0]]}),
], ids=["no-layers", "list", "truncated", "string", "extra-weights", "extra-biases", "float-token-dim",
        "string-size", "zero-width", "meta-list", "bool-version", "bool-weights", "bool-biases",
        "string-weights", "misnested-weights"])
def test_malformed_model_file(content, sets_file, tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text(content)
    out = tmp_path / "out.jsonl"
    assert main(["sort", "--scheme", "latent", "--model", str(model),
                 "--in", sets_file, "--out", str(out)]) == 1
    assert f"tokensort: {model}: " in capsys.readouterr().err
    assert not out.exists()


def test_metrics_command(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    write_token_sets(str(a), [TokenSet(np.array([[0.0, 0.0]]))])
    write_token_sets(str(b), [TokenSet(np.array([[3.0, 4.0]]))])
    out = tmp_path / "m.csv"
    assert main(["metrics", "--pred", str(a), "--gt", str(b),
                 "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:3] == ["index", "emd", "ehd"]
    assert float(rows[1][1]) == 5.0


def test_metrics_length_mismatch(tmp_path, capsys):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    write_token_sets(str(a), [TokenSet(np.zeros((1, 2)))])
    write_token_sets(str(b), [TokenSet(np.zeros((1, 2)))] * 2)
    assert main(["metrics", "--pred", str(a), "--gt", str(b),
                 "--out", str(tmp_path / "m.csv")]) == 2


def test_gen_planar(tmp_path):
    out = tmp_path / "graphs.jsonl"
    assert main(["gen-planar", "--count", "2", "--seed", "3",
                 "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2


def test_tsp_bench_csv(tmp_path):
    out = tmp_path / "bench.csv"
    rc = main(["tsp-bench", "--n", "5", "--runs", "2", "--epochs", "1",
               "--train-sets", "20", "--lgp", "off", "--seed", "5",
               "--out", str(out)])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "runs", "lgp", "mean", "std"]
    assert rows[1][:3] == ["5", "2", "off"]
    assert 0.0 <= float(rows[1][3]) <= 1.0


@pytest.mark.parametrize("argv, code, fragment", [
    (["metrics", "--pred", "{sets}", "--gt", "{sets}", "--match-tol", "nan", "--out", "{out}"],
     2, "--match-tol must be >= 0, got nan"),
    (["train-latent", "--in", "{sets}", "--lgp", "nan", "--out", "{out}"], 2, "--lgp must be >= 0, got nan"),
    (["train-latent", "--in", "{sets}", "--lgp", "inf", "--out", "{out}"], 2, "--lgp must be finite, got inf"),
    (["train-latent", "--in", "{empty}", "--out", "{out}"], 1, "no token sets"),
    (["tsp-bench", "--n", "5", "--runs", "1", "--epochs", "1", "--train-sets", "0",
      "--out", "{out}"], 2, "--train-sets must be >= 1, got 0"),
    (["gen-planar", "--count", "-2", "--out", "{out}"], 2, "--count must be >= 0, got -2"),
    # seed s writes planar seeds s * 1000 onwards: a 1001st graph is seed s + 1's first
    (["gen-planar", "--count", "1001", "--out", "{out}"],
     2, "--count must be <= 1000, got 1001: --seed s writes planar seeds s * 1000 onwards"),
    (["gen-planar", "--count", "1", "--seed", "-1", "--out", "{out}"], 2, "--seed must be >= 0, got -1"),
    (["train-latent", "--in", "{sets}", "--seed", "-1", "--out", "{out}"], 2, "--seed must be >= 0, got -1"),
    (["tsp-bench", "--n", "5", "--runs", "1", "--epochs", "1", "--seed", "-1", "--out", "{out}"],
     2, "--seed must be >= 0, got -1"),
    (["tsp-bench", "--n", "5", "--runs", "1", "--epochs", "1", "--train-sets", "-3", "--out", "{out}"],
     2, "--train-sets must be >= 1, got -3"),
    # rejected before the corpus is read or a model trained
    (["train-latent", "--in", "{sets}", "--epochs", "-1", "--out", "{out}"], 2, "--epochs must be >= 0, got -1"),
    (["train-latent", "--in", "{tmp}/missing.jsonl", "--epochs", "-1", "--out", "{out}"],
     2, "--epochs must be >= 0, got -1"),
    (["tsp-bench", "--n", "5", "--runs", "1", "--epochs", "-2", "--out", "{out}"],
     2, "--epochs must be >= 0, got -2"),
    (["tsp-bench", "--n", "5", "--runs", "0", "--epochs", "1", "--out", "{out}"],
     2, "--runs must be >= 1, got 0"),
    (["train-latent", "--in", "{sets}", "--lgp", "-1", "--out", "{out}"], 2, "--lgp must be >= 0, got -1.0"),
    (["train-latent", "--in", "{tmp}/missing.jsonl", "--lgp=-inf", "--out", "{out}"],
     2, "--lgp must be >= 0, got -inf"),
    (["metrics", "--pred", "{sets}", "--gt", "{sets}", "--match-tol", "-1", "--out", "{out}"],
     2, "--match-tol must be >= 0, got -1.0"),
    (["metrics", "--pred", "{tmp}/missing.jsonl", "--gt", "{sets}", "--match-tol", "nan", "--out", "{out}"],
     2, "--match-tol must be >= 0, got nan"),
    # sets of 2 to tspbench.MAX_ENUM_POINTS points are the ones that can be scored
    (["tsp-bench", "--n", "1", "--runs", "1", "--epochs", "1", "--out", "{out}"],
     2, "argument --n: invalid choice: 1 ("),
    (["tsp-bench", "--n", "11", "--runs", "1", "--epochs", "1", "--out", "{out}"],
     2, "argument --n: invalid choice: 11 ("),
    # the path given, not the temporary file beside it
    (["sort", "--scheme", "lex", "--in", "{sets}", "--out", "{tmp}/missing/o.jsonl"],
     1, "missing/o.jsonl'"),
    # about 1e16 grid points: rejected before anything is allocated
    (["ambiguity-grid", "--scheme", "mean-squared", "--res", "100000000", "--out", "{out}"],
     2, "--res must be between 1 and 1024, got 100000000"),
    # train-latent writes the model and its history, or neither; {taken} is a
    # directory where the history of {tmp}/taken.json would go
    (["train-latent", "--in", "{sets}", "--epochs", "1", "--out", "{tmp}/taken.json"],
     1, "Is a directory: '{taken}'"),
    (["train-latent", "--in", "{sets}", "--epochs", "1", "--out", "{taken}"],
     1, "Is a directory: '{taken}'"),
], ids=["match-tol-nan", "lgp-nan", "lgp-inf", "empty-corpus", "no-train-sets", "negative-count", "count-over-1000",
        "negative-seed", "train-latent-negative-seed", "tsp-bench-negative-seed",
        "negative-train-sets", "train-latent-negative-epochs", "negative-epochs-before-reading",
        "tsp-bench-negative-epochs", "tsp-bench-zero-runs", "negative-lgp", "lgp-before-reading",
        "negative-match-tol", "match-tol-before-reading", "tsp-bench-n-1", "tsp-bench-n-11", "missing-directory", "res-huge",
        "history-is-directory", "out-is-directory"])
def test_degenerate_input_rejected_without_output(argv, code, fragment, sets_file, tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    taken = tmp_path / "taken.json.history.csv"
    taken.mkdir()
    before = sorted(tmp_path.rglob("*"))
    names = dict(sets=sets_file, empty=empty, out=tmp_path / "out", tmp=tmp_path, taken=taken)
    assert main([a.format(**names) for a in argv]) == code
    assert fragment.format(**names) in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_training_reports_its_epoch_and_writes_nothing(tmp_path, capsys):
    # squared reconstruction errors of tokens at 1e200 overflow in the first epoch
    sets = tmp_path / "huge.jsonl"
    write_token_sets(str(sets), [TokenSet(np.full((3, 2), 1e200)), TokenSet(np.full((2, 2), -1e200))])
    before = sorted(tmp_path.rglob("*"))
    assert main(["train-latent", "--in", str(sets), "--epochs", "2", "--out", str(tmp_path / "m.json")]) == 1
    assert "non-finite loss at epoch 0" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


def test_failed_train_latent_keeps_the_previous_model(sets_file, tmp_path, capsys):
    # the new model is written first; when its history then fails, the
    # previous model is put back, bytes and all
    model = tmp_path / "m.json"
    save_model(init_model(2, seed=0), model)
    previous = model.read_bytes()
    (tmp_path / "m.json.history.csv").mkdir()
    before = sorted(tmp_path.rglob("*"))
    assert main(["train-latent", "--in", sets_file, "--epochs", "1", "--out", str(model)]) == 1
    assert "Is a directory" in capsys.readouterr().err
    assert model.read_bytes() == previous
    assert sorted(tmp_path.rglob("*")) == before


# token components that stress parsing and arithmetic: ties, magnitudes at
# the ends of the float range, and the NaN/Infinity literals json writes
DEGENERATE_COMPONENTS = st.sampled_from(
    [0.0, 1.0, -1.0, 1e300, -1e300, 1e-300, -1e-300, math.nan, math.inf, -math.inf]) | st.floats(0, 1)


@st.composite
def degenerate_corpora(draw) -> str:
    """The text of a token-set file with blank lines, one-token sets,
    duplicate tokens, mixed dimensions, extreme and non-finite components,
    "id" fields and perhaps a truncated last line."""
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 3)) == 3:
            lines.append(draw(st.sampled_from(["", "   "])))
            continue
        dim = draw(st.sampled_from([2, 1, 3]))
        rows = draw(st.lists(st.lists(DEGENERATE_COMPONENTS, min_size=dim, max_size=dim),
                             min_size=1, max_size=5))
        rows += rows[: draw(st.integers(0, 2))]  # duplicate tokens
        obj = {"tokens": rows}
        if draw(st.booleans()):
            obj["id"] = draw(st.sampled_from(["a", "", 'q"u', 7]))
        lines.append(json.dumps(obj))
    if lines and lines[-1].strip() and draw(st.booleans()):  # cut short, as by a writer that died
        lines[-1] = lines[-1][: draw(st.integers(0, len(lines[-1]) - 1))]
        return "\n".join(lines)
    return "".join(line + "\n" for line in lines)


def _degenerate_commands(corpus: Path, model: Path, out: Path) -> list[list[str]]:
    cmds = [["sort", "--scheme", scheme, "--in", str(corpus), "--out", str(out)]
            for scheme in ("lex", "mean-squared", "svd")]
    cmds.append(["sort", "--scheme", "latent", "--model", str(model), "--in", str(corpus),
                 "--out", str(out)])
    cmds.append(["analyze", "--scheme", "mean-squared", "--in", str(corpus), "--report", str(out)])
    cmds.append(["train-latent", "--in", str(corpus), "--epochs", "1", "--out", str(out)])
    cmds.append(["metrics", "--pred", str(corpus), "--gt", str(corpus), "--out", str(out)])
    return cmds


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(degenerate_corpora())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_degenerate_corpora_exit_cleanly_without_partial_output(text):
    # every command ends with a defined exit code; one that fails leaves no
    # output, and none leaves a temporary behind
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        corpus = tmp / "corpus.jsonl"
        corpus.write_text(text)
        model = tmp / "model.json"
        save_model(init_model(2, seed=0), model)
        out = tmp / "out"
        for argv in _degenerate_commands(corpus, model, out):
            code = main(argv)
            assert code in (0, 1, 2), argv
            written = sorted(p.name for p in tmp.iterdir())
            assert not [name for name in written if name.endswith(".tmp")], argv
            if code == 0:
                assert out.exists(), argv
            else:
                assert "out" not in written and "out.history.csv" not in written, argv
            for name in ("out", "out.history.csv"):
                (tmp / name).unlink(missing_ok=True)


@pytest.mark.parametrize("argv", [
    ["sort", "--scheme", "lex", "--in", "{sets}", "--out", "{out}"],
    ["sort", "--scheme", "svd", "--in", "{sets}", "--out", "{out}"],
    ["ambiguity-grid", "--scheme", "mean-squared", "--res", "16", "--out", "{out}"],
    ["analyze", "--in", "{sets}", "--scheme", "mean-squared", "--report", "{out}"],
    ["gen-planar", "--count", "2", "--seed", "11", "--out", "{out}"],
    ["tsp-bench", "--n", "5", "--runs", "1", "--epochs", "1",
     "--train-sets", "10", "--seed", "2", "--out", "{out}"],
])
def test_commands_byte_identical(argv, sets_file, tmp_path):
    outs = []
    for tag in ("one", "two"):
        out = str(tmp_path / f"{tag}.out")
        args = [a.format(sets=sets_file, out=out) for a in argv]
        assert main(args) == 0
        outs.append(_read_bytes(out))
    assert outs[0] == outs[1]
