import csv
import json

import numpy as np
import pytest

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


@pytest.mark.parametrize("content", ['{"version": 1, "token_dim": 2}', "[1, 2]", "{", '"model"'],
                         ids=["no-layers", "list", "truncated", "string"])
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
