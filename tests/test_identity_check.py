"""The comparison and report logic of tools/identity_check.py, on fabricated
digests, and its smd, edge-token training, delaunay and analysis scripts; no
git and no tokensort command runs here."""
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from tokensort.analysis import LatentGaussianProfile, rank_probability_matrix, swap_probability, tridiagonal_P
from tokensort.core import read_graphs, tokenize_edges, write_graphs
from tokensort.datagen import DegenerateInputError, PlanarGenConfig, delaunay, generate_planar_graph
from tokensort.latentsort import TrainConfig, save_model, train
from tokensort.metrics import smd

TOOL = Path(__file__).resolve().parents[1] / "tools" / "identity_check.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("identity_check", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_verdicts():
    tool = _load_tool()
    base = {"sort lex": "aa", "sort svd": "bb", "analyze lex": "cc", "gen-planar": "dd",
            "metrics": "exit 1"}
    head = {"sort lex": "aa", "sort svd": "bX", "analyze lex": "exit 1", "train-latent": "ee",
            "metrics": "exit 1"}
    assert tool.compare(base, head) == [
        ("analyze lex", "differs"),  # a failed command is a digest of its own
        ("gen-planar", "missing in head"),
        ("metrics", "failed in both"),  # and never a match
        ("sort lex", "same"),
        ("sort svd", "differs"),
        ("train-latent", "missing in base"),
    ]


def test_report_passes_only_when_every_output_matches():
    tool = _load_tool()
    same = {"sort lex": "aa", "train-latent": "bb"}
    text, ok = tool.report({0: tool.compare(same, same), 41: tool.compare(same, dict(same))})
    assert ok
    assert text.splitlines() == ["seed 0 sort lex: same", "seed 0 train-latent: same",
                                 "seed 41 sort lex: same", "seed 41 train-latent: same",
                                 "4 of 4 outputs identical"]
    text, ok = tool.report({0: tool.compare(same, same), 41: tool.compare(same, {"sort lex": "aa"})})
    assert not ok
    assert "seed 41 train-latent: missing in head" in text.splitlines()
    assert text.splitlines()[-1] == "3 of 4 outputs identical"
    assert tool.report({}) == ("0 of 0 outputs identical", False)  # nothing compared proves nothing


def test_commands_cover_every_scheme_and_output(tmp_path):
    tool = _load_tool()
    cmds = tool.commands(tmp_path / "corpus.jsonl", tmp_path / "snapped.jsonl", tmp_path, seed=3)
    assert list(cmds)[0] == "train-latent"  # the latent sorts and grid need its model
    for scheme in ("lex", "mean-squared", "svd", "latent"):
        assert cmds[f"sort {scheme}"][:3] == ["sort", "--scheme", scheme]
        assert cmds[f"analyze {scheme}"][:3] == ["analyze", "--scheme", scheme]
    assert "--model" in cmds["sort latent"] and "--model" not in cmds["sort lex"]
    assert cmds["gen-planar"][cmds["gen-planar"].index("--seed") + 1] == "3"
    assert cmds["metrics"][:5] == ["metrics", "--pred", str(tmp_path / "corpus.jsonl"),
                                   "--gt", str(tmp_path / "snapped.jsonl")]
    for scheme in ("mean-squared", "summation"):
        assert cmds[f"ambiguity-grid {scheme}"][:3] == ["ambiguity-grid", "--scheme", scheme]
    assert cmds["ambiguity-grid model"][:3] == ["ambiguity-grid", "--model", str(tmp_path / "model.json")]
    assert cmds["tsp-bench"][cmds["tsp-bench"].index("--seed") + 1] == "3"
    # every command writes one distinct output
    outs = [argv[argv.index("--report" if name.startswith("analyze") else "--out") + 1]
            for name, argv in cmds.items()]
    assert len(set(outs)) == len(outs)


def test_planar_script_runs_once_per_invocation(monkeypatch, capsys):
    # its output takes no seed, so only the first seed's sides run it
    tool = _load_tool()
    assert [name for name, _, _ in tool.scripts(0, Path("g"), planar=False)] == [
        "smd", "train on edge tokens", "delaunay", "analysis"]
    assert tool.scripts(0, Path("g"), planar=True)[-1] == ("planar", tool.PLANAR_SCRIPT, tool.PLANAR_SEEDS)
    calls = []

    def run_side(tree, corpus, snapped, out, seed, graphs, planar):
        calls.append((tree.name, seed, planar))
        return {name: "aa" for name, _, _ in tool.scripts(seed, graphs, planar)}

    monkeypatch.setattr(tool, "run_side", run_side)
    monkeypatch.setattr(tool, "_bench_pairs", lambda: SimpleNamespace(
        working_tree_commit=lambda: "HEAD", extract=lambda rev, tree: None))
    assert tool.main(["--base", "HEAD", "--seeds", "0", "41", "7"]) == 0
    assert calls == [("base", 0, True), ("head", 0, True), ("base", 41, False), ("head", 41, False),
                     ("base", 7, False), ("head", 7, False)]
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if "planar" in line] == ["seed 0 planar: same"]
    assert lines[-1] == "13 of 13 outputs identical"


def test_snapped_corpus_is_the_corpus_on_the_grid(tmp_path):
    tool = _load_tool()
    tool.write_corpus(tmp_path / "c.jsonl", 7)
    tool.write_corpus(tmp_path / "s.jsonl", 7, snap_all=True)
    corpus = [np.array(json.loads(line)["tokens"]) for line in open(tmp_path / "c.jsonl")]
    snapped = [np.array(json.loads(line)["tokens"]) for line in open(tmp_path / "s.jsonl")]
    assert [c.shape for c in corpus] == [s.shape for s in snapped]
    for k, (c, s) in enumerate(zip(corpus, snapped)):
        assert np.array_equal(s, np.round(c * tool.GRID_STEPS) / tool.GRID_STEPS)
        assert np.array_equal(c, s) == bool(k % 2)  # odd sets were snapped already


def test_smd_script_scores_consecutive_pairs_then_self_pairs(tmp_path):
    tool = _load_tool()
    graphs = [generate_planar_graph(PlanarGenConfig(seed=s)) for s in (4, 5, 6)]
    path = tmp_path / "graphs.jsonl"
    write_graphs(str(path), graphs)
    src = str(Path(tool.ROOT) / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", tool.SMD_SCRIPT, str(path)], env=env,
                          capture_output=True, text=True, check=True)
    pairs = [(0, 1), (1, 2), (0, 0), (1, 1), (2, 2)]
    assert proc.stdout.splitlines() == [smd(graphs[i], graphs[j]).hex() for i, j in pairs]


def test_edge_train_script_digests_a_model_trained_on_edge_tokens(tmp_path):
    tool = _load_tool()
    graphs = [generate_planar_graph(PlanarGenConfig(seed=s)) for s in (4, 5, 6)]
    path = tmp_path / "graphs.jsonl"
    write_graphs(str(path), graphs)
    src = str(Path(tool.ROOT) / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", tool.EDGE_TRAIN_SCRIPT, str(path)], env=env, cwd=tmp_path,
                          capture_output=True, text=True, check=True)
    # the same training in process: 4-D sets of differing sizes, one per graph
    sets = [tokenize_edges(g) for g in read_graphs(str(path))]
    assert {ts.dim for ts in sets} == {4} and len({ts.size for ts in sets}) > 1
    model, _ = train(sets, TrainConfig(epochs=tool.EDGE_EPOCHS, lgp_coefficient=tool.LGP))
    save_model(model, tmp_path / "ref.json")
    assert proc.stdout.split() == [hashlib.sha256((tmp_path / "ref.json").read_bytes()).hexdigest()]


def test_delaunay_script_prints_each_set_in_four_forms():
    tool = _load_tool()
    src = str(Path(tool.ROOT) / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", tool.DELAUNAY_SCRIPT, "3"], env=env,
                          capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    assert len(lines) == 4 * tool.DELAUNAY_SETS
    rng = np.random.default_rng(np.random.SeedSequence([3, 11]))
    pts = rng.uniform(size=(int(rng.integers(4, 40)), 2))
    snapped = np.round(pts * 4) / 4
    with pytest.warns(UserWarning, match="duplicate"):
        assert lines[1] == str(delaunay(snapped))
    assert lines[0] == str(delaunay(pts))
    # the error path prints too: sets put on one line can fail as collinear
    assert repr(DegenerateInputError("all points collinear")) in lines[3::4]


def test_planar_script_digests_generated_graphs():
    tool = _load_tool()
    src = str(Path(tool.ROOT) / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", tool.PLANAR_SCRIPT, "30"], env=env,
                          capture_output=True, text=True, check=True)
    # the same graphs in process give the same digest, by features and edges
    h = hashlib.sha256()
    for seed in range(30):
        g = generate_planar_graph(PlanarGenConfig(seed=seed))
        h.update(g.node_features.tobytes())
        h.update(repr(g.edges).encode())
    assert proc.stdout == h.hexdigest() + "\n"
    assert tool.PLANAR_SEEDS == 2000  # the seeds of the digest the ROADMAP cites


def test_analysis_script_digests_three_kernels_on_degenerate_profiles():
    tool = _load_tool()
    src = str(Path(tool.ROOT) / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", tool.ANALYSIS_SCRIPT, "3"], env=env,
                          capture_output=True, text=True, check=True)
    names = [line.split()[0] for line in proc.stdout.splitlines()]
    assert names == ["rank", "tridiagonal", "swap"]
    # the same draws in process give the same three digests, and reach zero
    # variances and equal means
    rng = np.random.default_rng(np.random.SeedSequence([3, 13]))
    rank, tri, swap = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    zero_pairs = equal_means = 0
    for k in range(tool.ANALYSIS_PROFILES):
        m = int(rng.integers(1, 14))
        mu, var = rng.normal(size=m), rng.uniform(0.0, 0.5, size=m)
        if k % 3 == 1:
            var[rng.integers(0, m, size=m // 2 + 1)] = 0.0
            mu = np.round(mu)
        elif k % 3 == 2:
            var[:] = 0.0
            mu = np.round(mu * 2) / 2
        rank.update(rank_probability_matrix(LatentGaussianProfile(mu, var)).tobytes())
        tri.update(tridiagonal_P(LatentGaussianProfile(np.sort(mu), var)).tobytes())
        p = swap_probability(mu[:, None], var[:, None], mu[None, :], var[None, :])
        swap.update("".join(x.hex() for x in p.ravel().tolist()).encode())
        zero = (var[:, None] + var[None, :] == 0) & ~np.eye(m, dtype=bool)
        zero_pairs += int(zero.sum())
        equal_means += int((zero & (mu[:, None] == mu[None, :])).sum())
    assert proc.stdout.split() == ["rank", rank.hexdigest(), "tridiagonal", tri.hexdigest(),
                                   "swap", swap.hexdigest()]
    assert zero_pairs > 1000 and equal_means > 100
