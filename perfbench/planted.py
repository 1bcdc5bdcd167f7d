"""Show that each output check rejects a planted fault.

    python3 perfbench/planted.py [--workload NAME] [--seed N]

For each workload this runs set-up and one round, confirms that every check
passes, then plants one fault at a time, either in the round's outputs or by
patching one program function, runs the workload's checks again, and prints
which checks rejected it. Exits 1 if some fault got past its check.
"""
import argparse
import contextlib
import copy
import json
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tokensort import datagen, latentsort, metrics, tspbench  # noqa: E402


@contextlib.contextmanager
def patched(module, name, make):
    original = getattr(module, name)
    setattr(module, name, make(original))
    try:
        yield
    finally:
        setattr(module, name, original)


def with_rounds(rounds, mutate):
    """A copy of the rounds with `mutate` applied to the first round's outputs."""
    rounds = copy.deepcopy(rounds)
    mutate(rounds[0].out)
    return rounds


def second_round(rounds, mutate):
    """The first round followed by a mutated copy of it."""
    twin = copy.deepcopy(rounds[0])
    mutate(twin.out)
    return [rounds[0], twin]


def set_attr(obj, **values):
    for k, v in values.items():
        object.__setattr__(obj, k, v)


# ---------------------------------------------------------------------------
# Faults: (target check, description, function(rounds) -> context manager or rounds)
# ---------------------------------------------------------------------------


def training_faults():
    def nan_loss(out):
        out["history"][3]["lgp"] = float("nan")

    def high_recon(out):
        out["history"][-1]["recon"] = 1.0

    def skewed_grad(original):
        def fn(m, sets, cfg):
            recon, lgp, grads = original(m, sets, cfg)
            grads[0] = grads[0] * 1.001
            return recon, lgp, grads
        return fn

    return [
        ("train-losses-finite", "one epoch's LGP loss is NaN", lambda r: with_rounds(r, nan_loss)),
        ("train-recon-below-mean", "final reconstruction 1.0", lambda r: with_rounds(r, high_recon)),
        ("train-gradient-fd", "first weight gradient scaled by 1.001",
         lambda r: (r, patched(latentsort, "batch_losses_and_grads", skewed_grad))),
    ]


def path_faults(wl):
    paths = math.factorial(8) // 2

    def swap_order(out):
        o = out["orders"][0]
        o[0], o[1] = o[1], o[0]

    def off_by_one(out):
        out["scores"][0] += 1.0 / paths

    def score_one(out):
        out["scores"][0] = 1.0

    def orientation_bias(original):
        def fn(points, order):
            return original(points, order) + (1.0 / paths if order[0] > order[-1] else 0.0)
        return fn

    def random_scores(out):
        out["scores"] = [0.3] * len(out["scores"])

    def other_score(out):
        out["scores"][-1] -= 1.0 / paths

    return training_faults() + [
        ("latent-order-oracle", "first two tokens of one order swapped", lambda r: with_rounds(r, swap_order)),
        ("percentile-oracle-bounds", "one percentile off by one path", lambda r: with_rounds(r, off_by_one)),
        ("percentile-range", "one percentile is 1.0", lambda r: with_rounds(r, score_one)),
        ("percentile-reversal", "an order with first index > last scores one path more",
         lambda r: (r, patched(tspbench, "percentile_longer", orientation_bias))),
        ("percentile-beats-random", "every percentile 0.3", lambda r: with_rounds(r, random_scores)),
        ("rounds-repeat", "second round's last percentile one path lower", lambda r: second_round(r, other_score)),
    ]


def graph_faults(wl):
    def duplicate_edge(out):
        g = out["graphs"][0]
        set_attr(g, edges=g.edges + (g.edges[0],))

    def close_nodes(out):
        g = out["graphs"][0]
        f = g.node_features.copy()
        f[1] = f[0] + [0.05, 0.0]
        set_attr(g, node_features=f)

    def narrow_edge(out):
        g = out["graphs"][0]
        u, v = g.edges[0]
        f = g.node_features
        d = f[v] - f[u]
        c, s = math.cos(math.radians(10)), math.sin(math.radians(10))
        new = f[u] + 1.5 * np.array([c * d[0] - s * d[1], s * d[0] + c * d[1]])
        set_attr(g, node_features=np.vstack([f, new]), edges=g.edges + ((u, len(f)),))

    def crossing_edge(out):
        g = out["graphs"][0]
        for a in range(g.n_nodes):
            for b in range(a + 1, g.n_nodes):
                trial = copy.copy(g)
                set_attr(trial, edges=g.edges + ((a, b),))
                if checks.crossing_pairs(trial):
                    set_attr(g, edges=trial.edges)
                    return
        raise RuntimeError("no crossing edge found")

    def wrong_triangle(original):
        def fn(points):
            tris = original(points)
            a, b, c = tris[-1]
            wrong = next(t for i in range(len(points))
                         if (t := tuple(sorted((a, b, i)))) not in tris and i not in (a, b))
            return tris[:-1] + [wrong]
        return fn

    def swapped_token(out):
        ts = out["tokens"][0]
        rows = ts.values.copy()
        rows[0] = np.concatenate([rows[0][2:], rows[0][:2]])
        set_attr(ts, values=rows)

    def repeated_edge(out):
        seq = out["orders"]["bfs"][0]
        rows = seq.rows.copy()
        rows[-1] = rows[0]
        set_attr(seq, rows=rows)

    def swapped_latent(out):
        seq = out["orders"]["latent"][0]
        set_attr(seq, rows=seq.rows[[1, 0] + list(range(2, seq.size))])

    def shifted_samples(original):
        return lambda g, samples: original(g, samples) + 1e-6

    def shifted_smd(out):
        out["smd"][0] += 0.05

    def asymmetric_smd(original):
        return lambda a, b, cfg=None: original(a, b, cfg) + 1e-6 * float(a.node_features[0, 0])

    def shifted_every_smd(original):
        return lambda a, b, cfg=None: original(a, b, cfg) + 1e-3

    def other_smd(out):
        out["smd"][-1] += 1e-9

    return [
        ("graph-simple", "one edge stored twice", lambda r: with_rounds(r, duplicate_edge)),
        ("graph-node-spacing", "two nodes 0.05 apart", lambda r: with_rounds(r, close_nodes)),
        ("graph-edge-angles", "an edge 10 degrees from another", lambda r: with_rounds(r, narrow_edge)),
        ("graph-no-crossings", "an edge across another", lambda r: with_rounds(r, crossing_edge)),
        ("delaunay-subset-of-scipy", "one triangle's vertex replaced",
         lambda r: (r, patched(datagen, "delaunay", wrong_triangle))),
        ("edge-tokens", "one token with its endpoints swapped", lambda r: with_rounds(r, swapped_token)),
        ("traversal-each-edge-once", "a BFS order repeats its first edge", lambda r: with_rounds(r, repeated_edge)),
        ("latent-order-oracle", "first two edges of one latent order swapped",
         lambda r: with_rounds(r, swapped_latent)),
    ] + training_faults() + [
        ("edge-points", "sampled points shifted by 1e-6",
         lambda r: (r, patched(metrics, "sample_edge_points", shifted_samples))),
        ("smd-vs-assignment", "one smd shifted by 0.05", lambda r: with_rounds(r, shifted_smd)),
        ("smd-symmetric", "smd(a, b) raised by 1e-6 times a's first coordinate",
         lambda r: (r, patched(metrics, "smd", asymmetric_smd))),
        ("smd-self-zero", "every smd 1e-3 higher",
         lambda r: (r, patched(metrics, "smd", shifted_every_smd))),
        ("rounds-repeat", "second round's last smd 1e-9 higher", lambda r: second_round(r, other_smd)),
    ]


@contextlib.contextmanager
def edited(path: Path, edit):
    """Rewrite a JSONL or JSON output file through `edit`, and restore it after."""
    text = path.read_text()
    if path.suffix == ".jsonl":
        lines = [json.loads(line) for line in text.splitlines()]
        edit(lines)
        path.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
    else:
        obj = json.loads(text)
        edit(obj)
        path.write_text(json.dumps(obj))
    try:
        yield
    finally:
        path.write_text(text)


def sort_faults(wl):
    def drop_row(lines):
        lines[0]["rows"] = lines[0]["rows"][:-1]

    def swap_keys(lines):
        k = lines[0]["keys"]
        k[0], k[-1] = k[-1], k[0]

    def swap_rows(lines):
        r = lines[0]["rows"]
        r[0], r[1] = r[1], r[0]

    def reverse_rows(lines):
        lines[0]["rows"] = lines[0]["rows"][::-1]

    def merge_groups(report):
        entry = next(e for e in report if len(e["ambiguity_sets"]) > 1)
        first, second, *rest = entry["ambiguity_sets"]
        entry["ambiguity_sets"] = [first + second] + rest

    def scaled_error(report):
        entry = next(e for e in report if e["ambiguity_error"] > 0)
        entry["ambiguity_error"] *= 1.001

    def transposed(out):
        k = next(i for i, p in enumerate(out["rank"]) if not np.allclose(p, p.T))
        out["rank"][k] = out["rank"][k].T

    def other_digest(out):
        out["digests"]["lex"] = "0" * 64

    def in_file(path, edit):
        return lambda r: (r, edited(path, edit))

    return [
        ("sort-lex-permutation", "one set loses a token", in_file(wl.sorted_path("lex"), drop_row)),
        ("sort-mean-squared-keys-nondecreasing", "first and last key of a set swapped",
         in_file(wl.sorted_path("mean-squared"), swap_keys)),
        ("sort-lex-oracle", "first two tokens of a set swapped", in_file(wl.sorted_path("lex"), swap_rows)),
        ("sort-mean-squared-oracle", "a set in reverse order", in_file(wl.sorted_path("mean-squared"), reverse_rows)),
        ("sort-svd-oracle", "a set in reverse order", in_file(wl.sorted_path("svd"), reverse_rows)),
        ("sort-latent-oracle", "a set in reverse order", in_file(wl.sorted_path("latent"), reverse_rows)),
        ("analyze-groups", "two ambiguity groups merged", in_file(wl.report, merge_groups)),
        ("analyze-error-matrix-form", "one ambiguity error scaled by 1.001", in_file(wl.report, scaled_error)),
        ("rank-poisson-binomial", "one rank matrix transposed", lambda r: with_rounds(r, transposed)),
        ("rounds-repeat", "second round's lex output differs", lambda r: second_round(r, other_digest)),
    ]


FAULTS = {"path-n8": path_faults, "graph-edges": graph_faults, "sort-analyze": sort_faults}


def run(name: str, seed: int, workdir: Path) -> bool:
    wl = workloads.WORKLOADS[name](seed, workdir)
    wl.setup()
    ops = workloads.Ops()
    rounds = [wl.run_round(ops)]
    check = checks.CHECKS[name]
    clean = [n for n, ok, _ in check(wl, rounds) if not ok]
    print(f"{name}: {ops.failed} of {ops.attempted} operations failed; failing checks without a fault: {clean}")
    all_caught = not clean and not ops.failed
    for target, fault, plant in FAULTS[name](wl):
        planted = plant(rounds)
        faulty, ctx = planted if isinstance(planted, tuple) else (planted, contextlib.nullcontext())
        with ctx:
            try:
                failed = [n for n, ok, _ in check(wl, faulty) if not ok]
            except Exception as exc:  # a check that crashes on the fault also rejects it
                failed = [f"{target} (raised {type(exc).__name__})"]
        caught = any(f.startswith(target) for f in failed)
        all_caught &= caught
        print(f"| {name} | `{target}` | {fault} | {'rejected' if caught else 'MISSED'} | {', '.join(failed)} |")
    return all_caught


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=list(FAULTS), action="append")
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args()
    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    ok = True
    for name in args.workload or list(FAULTS):
        workdir = Path(tempfile.mkdtemp(prefix=f"planted-{name}-", dir=work_root))
        try:
            ok &= run(name, args.seed, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
