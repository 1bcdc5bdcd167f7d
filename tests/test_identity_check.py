"""The comparison and report logic of tools/identity_check.py, on fabricated
digests; no git and no command runs here."""
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "identity_check.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("identity_check", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_verdicts():
    tool = _load_tool()
    base = {"sort lex": "aa", "sort svd": "bb", "analyze lex": "cc", "gen-planar": "dd"}
    head = {"sort lex": "aa", "sort svd": "bX", "analyze lex": "exit 1", "train-latent": "ee"}
    assert tool.compare(base, head) == [
        ("analyze lex", "differs"),  # a failed command is a digest of its own
        ("gen-planar", "missing in head"),
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
    cmds = tool.commands(tmp_path / "corpus.jsonl", tmp_path, seed=3)
    assert list(cmds)[0] == "train-latent"  # the latent sorts need its model
    for scheme in ("lex", "mean-squared", "svd", "latent"):
        assert cmds[f"sort {scheme}"][:3] == ["sort", "--scheme", scheme]
        assert cmds[f"analyze {scheme}"][:3] == ["analyze", "--scheme", scheme]
    assert "--model" in cmds["sort latent"] and "--model" not in cmds["sort lex"]
    assert cmds["gen-planar"][cmds["gen-planar"].index("--seed") + 1] == "3"
