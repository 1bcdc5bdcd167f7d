"""Command-line interface.

One binary, subcommands for each workflow: sorting token-set files, training
the latent-sort model, exporting key grids, ambiguity/error analysis, metric
computation, the path-quality benchmark, and planar graph generation.

Exit codes: 0 success, 1 runtime error, 2 usage error.
"""
from __future__ import annotations

import argparse
import csv
import functools
import math
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .analysis import (
    ambiguity_error,
    corpus_ambiguity_sets,
    sorting_error,
    uniform_ambiguity_P,
    validate_probability_matrix,
)
from .core import (
    SortedSequence,
    atomic_write,
    read_corpus,
    read_token_sets,
    restore_on_error,
    write_graphs,
    write_sequences,
)
from .datagen import PlanarGenConfig, generate_planar_graph
from .latentsort import (
    TrainConfig,
    encode_batch,
    latent_sort_corpus,
    load_model,
    save_model,
    train,
)
from .metrics import ehd, emd, set_prf, size_diff
from .sorters import CORPUS_SCHEMES, mean_squared_keys
from .tspbench import MAX_ENUM_POINTS, BenchConfig, run_tsp_benchmark


class UsageError(Exception):
    pass


# schemes that order a token set; the traversal sorts need a graph
SORT_SCHEMES = sorted(CORPUS_SCHEMES) + ["latent"]


def _sort_fn(scheme: str, model_path: str | None):
    """The function that orders every set of a corpus by `scheme`."""
    if scheme == "latent":
        if not model_path:
            raise UsageError("--model is required with --scheme latent")
        model = load_model(model_path)
        return lambda values, sizes: latent_sort_corpus(model, values, sizes)
    if model_path:
        raise UsageError("--model only applies to --scheme latent")
    return CORPUS_SCHEMES[scheme]


def _sorted_corpora(sort, path):
    """The sets of the file ordered by `sort`, one SortedCorpus for each
    block of read_corpus, each read as it is asked for: a writer that lets
    each go holds one block of the file at a time."""
    return (sort(values, sizes) for values, sizes, _ in read_corpus(path))


def _write_csv(path, header: list[str], rows) -> None:
    with atomic_write(path, newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _require_at_least(args, low: int, *names: str) -> None:
    """UsageError naming the first of the options `names` given a value below `low`, or NaN."""
    for name in names:
        if (value := getattr(args, name)) is not None and not value >= low:
            raise UsageError(f"--{name.replace('_', '-')} must be >= {low}, got {value}")


def cmd_sort(args) -> int:
    sort = _sort_fn(args.scheme, args.model)
    write_sequences(args.out, _sorted_corpora(sort, args.infile))
    return 0


def cmd_train_latent(args) -> int:
    _require_at_least(args, 0, "epochs", "seed", "lgp")
    if math.isinf(args.lgp):
        raise UsageError(f"--lgp must be finite, got {args.lgp}")
    sets = read_token_sets(args.infile)
    cfg = TrainConfig(epochs=args.epochs, lgp_coefficient=args.lgp, seed=args.seed)
    model, history = train(sets, cfg)
    with restore_on_error(args.out):  # so both files are new, or neither
        save_model(model, args.out)
        _write_csv(args.out + ".history.csv", ["epoch", "recon", "lgp", "lr"],
                   ([r["epoch"], repr(r["recon"]), repr(r["lgp"]), repr(r["lr"])] for r in history))
    return 0


GRID_KEYS = {
    # raw scalar maps over R^2; the CLI min-max normalizes over the grid
    "mean-squared": mean_squared_keys,
    "summation": lambda pts: pts.sum(axis=1),
}


# the model pass holds about 1.1 KB per grid point, so the largest grid allowed
# (1024 x 1024 points) takes about 1.1 GB; far larger ones ended in a MemoryError
MAX_GRID_RES = 1024


def cmd_ambiguity_grid(args) -> int:
    if bool(args.model) == bool(args.scheme):
        raise UsageError("give exactly one of --model or --scheme")
    if not 1 <= args.res <= MAX_GRID_RES:
        raise UsageError(f"--res must be between 1 and {MAX_GRID_RES}, got {args.res}")
    axis = np.linspace(0.0, 1.0, args.res)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    if args.model:
        model = load_model(args.model)
        if model.token_dim != 2:
            raise UsageError("ambiguity-grid requires a 2-D token model")
        keys = encode_batch(model, pts)
    else:
        keys = GRID_KEYS[args.scheme](pts)
    lo, hi = float(keys.min()), float(keys.max())
    norm = (keys - lo) / (hi - lo) if hi > lo else np.zeros_like(keys)
    _write_csv(args.out, ["x1", "x2", "key"],
               ([repr(float(p[0])), repr(float(p[1])), repr(float(k))] for p, k in zip(pts, norm)))
    return 0


def _json_float(x: float) -> str:
    """x as json.dumps writes a float."""
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


# one report entry as json.dumps(report, indent=2, sort_keys=True) lays it
# out: an item of the top-level list, its keys sorted
REPORT_ENTRY = """  {
    "ambiguity_error": %s,
    "ambiguity_sets": [
%s
    ],
    "index": %d,
    "set_size": %d,
    "sorting_error": %s
  }"""


def _groups_text(groups: list[list[int]]) -> str:
    """The lines of a report entry's "ambiguity_sets" list items."""
    return ",\n".join("      [\n" + ",\n".join(["        %d" % i for i in g]) + "\n      ]" for g in groups)


def cmd_analyze(args) -> int:
    sort = _sort_fn(args.scheme, args.model)
    corpora = _sorted_corpora(sort, args.infile)
    singletons: dict[int, str] = {}  # set size -> _groups_text of a set with no ties
    index = 0
    with atomic_write(args.report) as fh:
        for corpus in corpora:
            groups_of = corpus_ambiguity_sets(corpus)
            for groups, size, start in zip(groups_of, corpus.sizes.tolist(), corpus.starts.tolist()):
                if len(groups) == size:  # all groups singletons: P is the identity
                    errors = (0.0, 0.0)
                    if size not in singletons:
                        singletons[size] = _groups_text(groups)
                    groups_text = singletons[size]
                else:
                    seq = SortedSequence(corpus.rows[start : start + size])
                    p = uniform_ambiguity_P(groups, size)
                    validate_probability_matrix(p)
                    errors = (ambiguity_error(seq, groups), sorting_error(p, seq))
                    groups_text = _groups_text(groups)
                fh.write(("[\n" if index == 0 else ",\n") + REPORT_ENTRY % (
                    _json_float(errors[0]), groups_text, index, size, _json_float(errors[1])))
                index += 1
        fh.write("\n]\n" if index else "[]\n")
    return 0


def cmd_metrics(args) -> int:
    _require_at_least(args, 0, "match_tol")  # inf matches every pair, as set_prf allows
    pred = read_token_sets(args.pred)
    gt = read_token_sets(args.gt)
    if len(pred) != len(gt):
        raise UsageError(f"pred has {len(pred)} sets, gt has {len(gt)}")
    prfs = (set_prf(a, b, match_tol=args.match_tol) for a, b in zip(pred, gt))
    _write_csv(args.out, ["index", "emd", "ehd", "precision", "recall", "f1", "size_diff"],
               ([i, repr(emd(a, b)), repr(ehd(a, b)), repr(prf["precision"]), repr(prf["recall"]),
                 repr(prf["f1"]), size_diff(a, b)] for i, (a, b, prf) in enumerate(zip(pred, gt, prfs))))
    return 0


def cmd_tsp_bench(args) -> int:
    _require_at_least(args, 0, "epochs", "train_sets", "seed")
    _require_at_least(args, 1, "runs")
    cfg = BenchConfig(set_size=args.n, n_runs=args.runs,
                      use_lgp=args.lgp == "on", seed=args.seed)
    if args.epochs is not None:
        cfg = replace(cfg, train=replace(cfg.train, epochs=args.epochs))
    if args.train_sets is not None:
        cfg = replace(cfg, n_train_sets=args.train_sets)
    result = run_tsp_benchmark(cfg)
    _write_csv(args.out, ["n", "runs", "lgp", "mean", "std"],
               [[args.n, args.runs, args.lgp,
                 repr(result["mean_percentile"]), repr(result["std_percentile"])]])
    return 0


def cmd_gen_planar(args) -> int:
    _require_at_least(args, 0, "count", "seed")
    write_graphs(args.out, (generate_planar_graph(PlanarGenConfig(seed=args.seed * 1000 + k))
                            for k in range(args.count)))
    return 0


@functools.cache  # built once: main runs once per command, and a build costs a millisecond
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="tokensort",
                                description="token ordering toolkit")
    p.add_argument("--version", action="version", version=f"tokensort {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("sort", help="order token sets with a named scheme")
    s.add_argument("--scheme", required=True, choices=SORT_SCHEMES)
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--model")
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_sort)

    s = sub.add_parser("train-latent", help="train the latent-sort autoencoder")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--epochs", type=int, default=200)
    s.add_argument("--lgp", type=float, default=0.05)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_train_latent)

    s = sub.add_parser("ambiguity-grid", help="export a key raster over [0,1]^2")
    s.add_argument("--model")
    s.add_argument("--scheme", choices=sorted(GRID_KEYS))
    s.add_argument("--res", type=int, default=64)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_ambiguity_grid)

    s = sub.add_parser("analyze", help="ambiguity sets and error report")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--scheme", required=True, choices=SORT_SCHEMES)
    s.add_argument("--model")
    s.add_argument("--report", required=True)
    s.set_defaults(fn=cmd_analyze)

    s = sub.add_parser("metrics", help="set metrics between two token-set files")
    s.add_argument("--pred", required=True)
    s.add_argument("--gt", required=True)
    s.add_argument("--match-tol", type=float, default=0.0)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_metrics)

    s = sub.add_parser("tsp-bench", help="open-path quality benchmark")
    s.add_argument("--n", type=int, default=8, choices=range(2, MAX_ENUM_POINTS + 1))
    s.add_argument("--runs", type=int, default=10)
    s.add_argument("--lgp", choices=["on", "off"], default="on")
    s.add_argument("--epochs", type=int, default=None)
    s.add_argument("--train-sets", type=int, default=None)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_tsp_bench)

    s = sub.add_parser("gen-planar", help="generate random planar graphs")
    s.add_argument("--count", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_gen_planar)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.fn(args)
    except UsageError as e:
        print(f"tokensort: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError, RuntimeError) as e:
        print(f"tokensort: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
