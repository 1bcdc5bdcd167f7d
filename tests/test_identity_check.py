"""The comparison and report logic of tools/identity_check.py, on fabricated
digests; no git and no command runs here."""
import importlib.util
import json
from pathlib import Path

import numpy as np

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
    assert cmds["ambiguity-grid scheme"][:2] == ["ambiguity-grid", "--scheme"]
    assert cmds["ambiguity-grid model"][:3] == ["ambiguity-grid", "--model", str(tmp_path / "model.json")]
    assert cmds["tsp-bench"][cmds["tsp-bench"].index("--seed") + 1] == "3"
    # every command writes one distinct output
    outs = [argv[argv.index("--report" if name.startswith("analyze") else "--out") + 1]
            for name, argv in cmds.items()]
    assert len(set(outs)) == len(outs)


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
