"""The summary arithmetic of tools/bench_pairs.py, on fabricated run records;
no benchmark runs here."""
import importlib.util
import statistics
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(workload, base, head, metric="round_s"):
    runs = []
    for pair, (b, h) in enumerate(zip(base, head)):
        for side, value in (("base", b), ("head", h)):
            runs.append({"workload": workload, "pair": pair, "seed": 600 + pair, "side": side,
                         "exit": 0, "correct": True, "metrics": {metric: value}})
    return runs


def test_summary_medians_quartiles_and_wins():
    tool = _load_tool()
    base = [1.00, 0.90, 1.10, 0.95, 1.05, 1.00, 0.98, 1.02, 0.97, 1.03]
    head = [0.60, 0.55, 0.65, 0.58, 0.62, 0.61, 0.59, 0.63, 1.20, 0.57]
    out = tool.summarize(_runs("sort-analyze", base, head), {"round_s": "lower"})
    entry = out["sort-analyze"]["round_s"]
    assert entry["pairs"] == 10
    assert entry["head_wins"] == 9  # pair 8 reads slower on the head side
    q1, _, q3 = statistics.quantiles(base, n=4)
    assert entry["base"] == {"median": 1.0, "q1": q1, "q3": q3}
    assert entry["head"]["median"] == statistics.median(head)
    assert entry["median_change"] == pytest.approx(statistics.median(head) / 1.0 - 1.0)
    assert entry["gap_exceeds_base_iqr"]


def test_summary_higher_is_better_ties_and_incomplete_pairs():
    tool = _load_tool()
    runs = _runs("sort-analyze", [100.0, 100.0, 100.0], [120.0, 100.0, 90.0], metric="sort_sets_per_s")
    runs += _runs("path-n8", [5.0], [4.0])
    del runs[-1]["metrics"]  # a head run that printed no result
    out = tool.summarize(runs, {"sort_sets_per_s": "higher"})
    entry = out["sort-analyze"]["sort_sets_per_s"]
    assert (entry["pairs"], entry["head_wins"]) == (3, 1)  # the tie counts for neither side
    assert entry["better"] == "higher"
    assert not entry["gap_exceeds_base_iqr"]  # medians equal
    assert "path-n8" not in out  # its only pair lacks the head run
