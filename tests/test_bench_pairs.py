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


def test_summary_flags_bound_breaches_and_unresolved_spreads():
    tool = _load_tool()
    steady = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    noisy = [0.70, 1.30, 0.80, 1.20, 1.00, 0.75, 1.25, 0.90, 1.10, 1.00]
    runs = _runs("graph-edges", steady, [1.30] * 10)  # 30% slower, base spread 2%
    runs += _runs("path-n8", steady, [1.20] * 10)  # 20% slower
    both = _runs("sort-analyze", noisy, [1.00] * 10)  # equal medians, base spread ~40%
    for run, rate in zip(both, _runs("sort-analyze", [100.0] * 10, [70.0] * 10, metric="sort_sets_per_s")):
        run["metrics"].update(rate["metrics"])
    runs += both
    better = {"round_s": "lower", "sort_sets_per_s": "higher"}
    out = tool.summarize(runs, better, {"round_s": 0.25, "sort_sets_per_s": 0.25})
    flags = {(w, m): (e["bound"], e["beyond_bound"], e["unresolved"])
             for w, metrics in out.items() for m, e in metrics.items()}
    assert flags == {
        ("graph-edges", "round_s"): (0.25, True, False),
        ("path-n8", "round_s"): (0.25, False, False),
        ("sort-analyze", "round_s"): (0.25, False, True),
        # a higher-is-better metric is worse when it falls
        ("sort-analyze", "sort_sets_per_s"): (0.25, True, False),
    }
    # a metric without a bound is not checked against one
    plain = tool.summarize(runs, better)["graph-edges"]["round_s"]
    assert "beyond_bound" not in plain and "unresolved" not in plain


def test_benchmark_rules_read_bounds_of_end_to_end_metrics():
    better, bounds = _load_tool().benchmark_rules()
    assert bounds == {"setup_s": 0.25, "peak_rss_mb": 0.1, "round_s": 0.25}
    assert better["round_s"] == "lower" and better["train_sets_per_s"] == "higher"


def test_operations_attempted_and_failed_share():
    tool = _load_tool()
    runs = _runs("graph-edges", [1.0] * 3, [1.0] * 3)
    counts = {"base": [(511 * 25, 0), (511 * 21, 0), (511 * 22, 0)],
              "head": [(511 * 31, 0), (511 * 30, 2), (511 * 32, 0)]}
    for run in runs:
        run["attempted"], run["failed"] = counts[run["side"]][run["pair"]]
    runs += _runs("path-n8", [1.0] * 2, [1.0] * 2)
    for run in runs[-4:]:
        run["attempted"], run["failed"] = (100, 1) if run["side"] == "base" else (50, 0)
    runs += [{"workload": "sort-analyze", "pair": 0, "seed": 600, "side": "base", "exit": 1, "error": ""},
             {"workload": "sort-analyze", "pair": 0, "seed": 600, "side": "head", "exit": 0,
              "correct": True, "attempted": 10, "failed": 0, "metrics": {}}]
    out = tool.operations(runs)
    # extra rounds show as more operations attempted: a graph-edges round is 511
    edges = out["graph-edges"]
    assert (edges["base"]["attempted"], edges["head"]["attempted"]) == (511 * 22, 511 * 31)
    assert edges["base"]["failed_share"] == 0.0
    assert edges["head"]["failed_share"] == 2 / (511 * 93)
    assert edges["head_fails_more"]
    path = out["path-n8"]
    assert (path["base"]["failed_share"], path["head"]["failed_share"]) == (0.01, 0.0)
    assert not path["head_fails_more"]
    assert "sort-analyze" not in out  # its base run printed no result
