"""Output checks of each workload, against references computed apart from the
program: the benchmark's own path enumeration, matmul-and-tanh latents, key
functions, tie groups and edge sampler, and scipy's Delaunay triangulation,
linear assignment and Poisson-binomial distribution.

Each check function takes the workload and the rounds of a run and returns a
list of (check name, passed, detail).
"""
from __future__ import annotations

import functools
import itertools
import json
import math

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial import Delaunay
from scipy.special import ndtr
from scipy.stats import poisson_binom

from tokensort import analysis, datagen, latentsort, metrics, tspbench

PERCENTILE_TOL = 1e-12  # reference path length +- this bounds the enumeration count
RANDOM_ORDERS = 8  # random orders per held-out set for the chance baseline
FD_STEP = 1e-6
FD_COORDS = 24  # parameters sampled for the central-difference check
FD_SETS = 16  # token sets in the sampled batch
FD_MIN_GAP = 1e-4  # within-set latent gaps of the sampled batch, far above FD_STEP effects
KEY_TOL = 1e-12  # keys closer than this count as tied when checking an order
SVD_MIN_GAP = 1e-6  # relative eigengap below which the principal direction is not defined
SMD_CHECKED = 2  # pairs also scored reversed and against themselves
DELAUNAY_SETS = 40
RANK_TOL = 1e-12


class Report:
    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def add(self, name: str, bad: list, detail: str = "") -> None:
        """Record a check that passes when `bad` (the offending cases) is empty."""
        shown = "; ".join(str(b) for b in bad[:3])
        self.results.append((name, not bad, f"{len(bad)} bad: {shown}" if bad else detail))


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------


def mlp_latents(weights, biases, x: np.ndarray) -> np.ndarray:
    """Encoder output: tanh hidden layers, linear last layer."""
    a = np.asarray(x, dtype=np.float64)
    for layer, (w, b) in enumerate(zip(weights, biases)):
        a = a @ w + b
        if layer < len(weights) - 1:
            a = np.tanh(a)
    return a[:, 0]


def order_follows_keys(rows_out: np.ndarray, rows_in: np.ndarray, keys_of) -> bool:
    """rows_out is rows_in in the stable ascending order of keys_of(rows),
    or differs from it only between rows whose keys tie within KEY_TOL."""
    keys_in = keys_of(rows_in)
    if np.array_equal(rows_out, rows_in[np.argsort(keys_in, kind="stable")]):
        return True
    keys_out = keys_of(rows_out)
    scale = max(1.0, float(np.max(np.abs(keys_in))))
    return same_multiset(rows_out, rows_in) and bool(np.all(np.diff(keys_out) >= -KEY_TOL * scale))


def canonical(rows: np.ndarray) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.float64)
    return rows[np.lexsort(rows.T[::-1])]


def same_multiset(a: np.ndarray, b: np.ndarray) -> bool:
    return np.shape(a) == np.shape(b) and np.array_equal(canonical(a), canonical(b))


@functools.lru_cache(maxsize=None)
def open_paths(m: int) -> np.ndarray:
    """Every open path over m points once, as the permutations with p[0] < p[-1]."""
    return np.array([p for p in itertools.permutations(range(m)) if p[0] < p[-1]], dtype=np.intp)


def path_lengths(points: np.ndarray, perms: np.ndarray) -> np.ndarray:
    d = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))
    return d[perms[:, :-1], perms[:, 1:]].sum(axis=1)


def percentile_bounds(points: np.ndarray, order) -> tuple[float, float]:
    """Fractions of all open paths that are not the reference path itself and
    are longer than its length plus, and minus, PERCENTILE_TOL."""
    perms = open_paths(len(points))
    order = np.asarray(order)
    if order[0] > order[-1]:
        order = order[::-1]
    ref = path_lengths(points, order[None, :])[0]
    lengths = path_lengths(points, perms[np.any(perms != order, axis=1)])
    return (float(np.sum(lengths > ref + PERCENTILE_TOL)) / len(perms),
            float(np.sum(lengths > ref - PERCENTILE_TOL)) / len(perms))


def edge_tokens(g) -> np.ndarray:
    f = g.node_features
    return np.array([np.concatenate([f[u], f[v]]) for u, v in g.edges])


def edge_points(g, samples: int) -> np.ndarray:
    """Points at arc-length fractions (k + 0.5) / samples along the edges in stored order."""
    f = g.node_features
    seg = [(f[u], f[v]) for u, v in g.edges]
    lengths = np.array([np.linalg.norm(b - a) for a, b in seg])
    bounds = np.concatenate([[0.0], np.cumsum(lengths)])
    out = []
    for k in range(samples):
        t = (k + 0.5) / samples * bounds[-1]
        e = min(int(np.searchsorted(bounds, t, side="right")) - 1, len(seg) - 1)
        a, b = seg[e]
        out.append(a + (t - bounds[e]) / lengths[e] * (b - a) if lengths[e] > 0 else a)
    return np.array(out)


def assignment_cost(a: np.ndarray, b: np.ndarray) -> float:
    """Exact optimal transport cost between equal-size uniform clouds, squared Euclidean ground cost."""
    cost = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].mean())


def _orient(p, q, r) -> float:
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def crossing_pairs(g) -> list:
    f = g.node_features
    bad = []
    for (a, b), (c, d) in itertools.combinations(g.edges, 2):
        if len({a, b, c, d}) < 4:
            continue
        if (_orient(f[a], f[b], f[c]) * _orient(f[a], f[b], f[d]) < 0
                and _orient(f[c], f[d], f[a]) * _orient(f[c], f[d], f[b]) < 0):
            bad.append(((a, b), (c, d)))
    return bad


def narrow_angles(g, min_degrees: float) -> list:
    f = g.node_features
    bad = []
    for node in range(g.n_nodes):
        incident = [e for e in g.edges if node in e]
        for e1, e2 in itertools.combinations(incident, 2):
            u = f[e1[0] + e1[1] - node] - f[node]
            v = f[e2[0] + e2[1] - node] - f[node]
            cos = np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))
            angle = math.degrees(math.acos(min(1.0, max(-1.0, cos))))
            if angle < min_degrees - 1e-9:
                bad.append((node, e1, e2, round(angle, 3)))
    return bad


def principal_keys(values: np.ndarray):
    """Projections onto the top covariance eigenvector with its largest-magnitude
    component positive, and whether that direction and sign are well defined."""
    centered = values - values.mean(axis=0)
    evals, evecs = np.linalg.eigh(centered.T @ centered / len(values))
    v = evecs[:, -1]
    mags = np.sort(np.abs(v))
    defined = evals[-1] > 0 and (evals[-1] - evals[-2]) > SVD_MIN_GAP * evals[-1] \
        and mags[-1] - mags[-2] > SVD_MIN_GAP
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    return centered @ v, bool(defined)


def tie_groups(sorted_keys: np.ndarray) -> list[list[int]]:
    """Positions of sorted keys, split wherever consecutive keys differ by more
    than the tolerance `tokensort analyze` groups keys with."""
    cuts = np.flatnonzero(np.diff(sorted_keys) > analysis.DEFAULT_KEY_TOL) + 1
    return [list(map(int, g)) for g in np.split(np.arange(len(sorted_keys)), cuts)]


def uniform_p(groups: list[list[int]], m: int) -> np.ndarray:
    p = np.zeros((m, m))
    for g in groups:
        p[np.ix_(g, g)] = 1.0 / len(g)
    return p


# ---------------------------------------------------------------------------
# Checks shared by the training workloads
# ---------------------------------------------------------------------------


def check_rounds_repeat(report: Report, rounds, same) -> None:
    report.add("rounds-repeat", [i for i, r in enumerate(rounds[1:], 1) if not same(rounds[0].out, r.out)],
               f"{len(rounds)} rounds identical")


def _same_model(a, b) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a.params(), b.params()))


def check_training(report: Report, model, history, sets: list[np.ndarray], cfg, seed: int) -> None:
    losses = [(h["epoch"], h["recon"], h["lgp"]) for h in history]
    report.add("train-losses-finite", [l for l in losses if not (math.isfinite(l[1]) and math.isfinite(l[2]))],
               f"{len(losses)} epochs")
    x = np.concatenate(sets)
    mean_loss = float(np.mean((x - x.mean(axis=0)) ** 2))
    final = history[-1]["recon"]
    report.add("train-recon-below-mean", [] if final < mean_loss else [(final, mean_loss)],
               f"final recon {final:.4g} < mean-prediction loss {mean_loss:.4g}")
    report.results.append(gradient_check(model, sets, cfg, seed))


def gradient_check(model, sets: list[np.ndarray], cfg, seed: int):
    """batch_losses_and_grads' gradient against central differences of the
    losses it returns, on sampled coordinates of a batch with no near-tied latents."""
    enc = model.encoder
    rng = np.random.default_rng(seed)
    batch = []
    for k in rng.permutation(len(sets)):
        h = np.sort(mlp_latents(enc.weights, enc.biases, sets[k]))
        if np.min(np.diff(h)) > FD_MIN_GAP:
            batch.append(sets[k])
        if len(batch) == FD_SETS:
            break

    def objective() -> float:
        recon, lgp, _ = latentsort.batch_losses_and_grads(model, batch, cfg)
        return recon + cfg.lgp_coefficient * lgp

    _, _, grads = latentsort.batch_losses_and_grads(model, batch, cfg)
    params = model.params()
    bad = []
    worst = 0.0
    for _ in range(FD_COORDS):
        k = int(rng.integers(len(params)))
        i = int(rng.integers(params[k].size))
        p = params[k].reshape(-1)
        saved = p[i]
        p[i] = saved + FD_STEP
        up = objective()
        p[i] = saved - FD_STEP
        down = objective()
        p[i] = saved
        fd = (up - down) / (2 * FD_STEP)
        g = float(grads[k].reshape(-1)[i])
        err = abs(fd - g) / max(abs(g), 1e-3)
        worst = max(worst, err)
        if err > 1e-4:
            bad.append((k, i, g, fd))
    if len(batch) < FD_SETS:
        bad.append(f"only {len(batch)} sets without latent near-ties")
    return ("train-gradient-fd", not bad,
            f"{len(bad)} bad: {bad[:3]}" if bad else f"{FD_COORDS} coords, worst rel err {worst:.2e}")


# ---------------------------------------------------------------------------
# Workload checks
# ---------------------------------------------------------------------------


def check_path_n8(wl, rounds) -> list:
    report = Report()
    out = rounds[0].out
    check_training(report, out["model"], out["history"], [ts.values for ts in wl.train_sets], wl.cfg, wl.seed)

    enc = out["model"].encoder
    bad = [k for k, (pts, order) in enumerate(zip(wl.eval_sets, out["orders"]))
           if not order_follows_keys(pts[order], pts, lambda r: mlp_latents(enc.weights, enc.biases, r))]
    report.add("latent-order-oracle", bad, f"{len(wl.eval_sets)} sets")

    bounds = [percentile_bounds(pts, order) for pts, order in zip(wl.eval_sets, out["orders"])]
    scores = out["scores"]
    report.add("percentile-oracle-bounds",
               [(k, lo, s, hi) for k, (s, (lo, hi)) in enumerate(zip(scores, bounds)) if not lo <= s <= hi],
               f"{len(scores)} sets within [>ref+{PERCENTILE_TOL:g}, >ref-{PERCENTILE_TOL:g}]")
    report.add("percentile-range", [(k, s) for k, s in enumerate(scores) if not 0.0 <= s < 1.0])
    order = out["orders"][0]
    rescored = [tspbench.percentile_longer(wl.eval_sets[0], o) for o in (order, order[::-1])]
    report.add("percentile-reversal", [] if rescored == [scores[0]] * 2 else [(scores[0], *rescored)],
               "first set rescored in both directions")

    rng = np.random.default_rng(wl.seed)
    chance = float(np.mean([percentile_bounds(pts, rng.permutation(len(pts)))[1]
                            for pts in wl.eval_sets for _ in range(RANDOM_ORDERS)]))
    mean = float(np.mean(scores))
    report.add("percentile-beats-random", [] if mean > chance else [(mean, chance)],
               f"{mean:.4f} > random orders {chance:.4f}")

    check_rounds_repeat(report, rounds, lambda a, b: a["scores"] == b["scores"] and a["orders"] == b["orders"]
                        and _same_model(a["model"], b["model"]))
    return report.results


def check_graph_edges(wl, rounds) -> list:
    report = Report()
    out = rounds[0].out
    graphs, tokens = out["graphs"], out["tokens"]
    cfg = wl.gen_cfgs[0]

    report.add("graph-simple", [k for k, g in enumerate(graphs)
                                if any(u == v for u, v in g.edges)
                                or len({frozenset(e) for e in g.edges}) != g.n_edges])
    spacing = []
    for k, g in enumerate(graphs):
        d = np.sqrt(((g.node_features[:, None] - g.node_features[None]) ** 2).sum(axis=2))
        np.fill_diagonal(d, np.inf)
        if d.min() < cfg.collapse_distance:
            spacing.append((k, float(d.min())))
    report.add("graph-node-spacing", spacing, f"nodes >= {cfg.collapse_distance} apart")
    report.add("graph-edge-angles", [(k, a) for k, g in enumerate(graphs)
                                     if (a := narrow_angles(g, cfg.min_edge_angle_degrees))])
    report.add("graph-no-crossings", [(k, c) for k, g in enumerate(graphs) if (c := crossing_pairs(g))])

    rng = np.random.default_rng(wl.seed)
    extra = []
    for k in range(DELAUNAY_SETS):
        pts = rng.uniform(0.0, 1.0, size=(int(rng.integers(4, 40)), 2))
        ref = {tuple(sorted(t)) for t in Delaunay(pts).simplices.tolist()}
        extra += [(k, t) for t in datagen.delaunay(pts) if tuple(t) not in ref]
    report.add("delaunay-subset-of-scipy", extra, f"{DELAUNAY_SETS} point sets")

    report.add("edge-tokens", [k for k, (g, ts) in enumerate(zip(graphs, tokens))
                               if not same_multiset(ts.values, edge_tokens(g))])
    report.add("traversal-each-edge-once", [(k, s) for s in ("bfs", "dfs")
                                            for k, (g, seq) in enumerate(zip(graphs, out["orders"][s]))
                                            if not same_multiset(seq.rows, edge_tokens(g))])
    enc = out["model"].encoder
    report.add("latent-order-oracle", [k for k, (ts, seq) in enumerate(zip(tokens, out["orders"]["latent"]))
                                       if not order_follows_keys(seq.rows, ts.values,
                                                                 lambda r: mlp_latents(enc.weights, enc.biases, r))])
    check_training(report, out["model"], out["history"], [ts.values for ts in tokens], wl.cfg, wl.seed)

    sinkhorn = metrics.SinkhornConfig()
    samples = sinkhorn.samples
    pairs = [(graphs[2 * i], graphs[2 * i + 1]) for i in range(len(out["smd"]))]
    report.add("edge-points", [k for k, g in enumerate(graphs[:2 * len(pairs)])
                               if not np.allclose(metrics.sample_edge_points(g, samples), edge_points(g, samples),
                                                  rtol=0.0, atol=1e-12)])
    bound = sinkhorn.epsilon * math.log(samples)
    gaps = [abs(s - assignment_cost(edge_points(a, samples), edge_points(b, samples)))
            for s, (a, b) in zip(out["smd"], pairs)]
    report.add("smd-vs-assignment", [(k, g) for k, g in enumerate(gaps) if not g <= bound],
               f"max gap {max(gaps):.2e} <= eps*ln(n) = {bound:.3f}")
    report.add("smd-symmetric", [(k, out["smd"][k], r) for k, (a, b) in enumerate(pairs[:SMD_CHECKED])
                                 if abs((r := metrics.smd(b, a)) - out["smd"][k]) > 1e-12])
    report.add("smd-self-zero", [(k, s) for k, (a, _) in enumerate(pairs[:SMD_CHECKED])
                                 if abs(s := metrics.smd(a, a)) > 1e-9])

    def same(a, b) -> bool:
        return (all(np.array_equal(x.node_features, y.node_features) and x.edges == y.edges
                    for x, y in zip(a["graphs"], b["graphs"]))
                and _same_model(a["model"], b["model"]) and a["smd"] == b["smd"]
                and all(np.array_equal(x.rows, y.rows) for s in a["orders"]
                        for x, y in zip(a["orders"][s], b["orders"][s])))
    check_rounds_repeat(report, rounds, same)
    return report.results


def _read_jsonl(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_sort_analyze(wl, rounds) -> list:
    report = Report()
    inputs = wl.sets
    with open(wl.model) as fh:
        enc = json.load(fh)["encoder"]
    sizes = enc["layer_sizes"]
    weights = [np.asarray(w).reshape(a, b) for w, a, b in zip(enc["weights"], sizes[:-1], sizes[1:])]
    biases = [np.asarray(b) for b in enc["biases"]]

    def mean_squared(rows):
        return -np.mean(rows * rows, axis=1)

    def latent(rows):
        return mlp_latents(weights, biases, rows)

    for scheme in ("lex", "mean-squared", "svd", "latent"):
        lines = _read_jsonl(wl.sorted_path(scheme))
        outs = [np.asarray(obj["rows"], dtype=np.float64) for obj in lines]
        report.add(f"sort-{scheme}-permutation",
                   [k for k, (o, i) in enumerate(zip(outs, inputs)) if not same_multiset(o, i)]
                   + ([f"{len(outs)} lines for {len(inputs)} sets"] if len(outs) != len(inputs) else []))
        report.add(f"sort-{scheme}-keys-nondecreasing",
                   [k for k, obj in enumerate(lines) if "keys" in obj and np.any(np.diff(obj["keys"]) < 0)])
        if scheme == "lex":
            bad = [k for k, (o, i) in enumerate(zip(outs, inputs))
                   if not np.array_equal(o, i[np.lexsort(i.T[::-1])])]
        elif scheme == "mean-squared":
            bad = [k for k, (o, i) in enumerate(zip(outs, inputs)) if not order_follows_keys(o, i, mean_squared)]
        elif scheme == "latent":
            bad = [k for k, (o, i) in enumerate(zip(outs, inputs)) if not order_follows_keys(o, i, latent)]
            bad += [k for k, (o, obj) in enumerate(zip(outs, lines))
                    if not np.allclose(obj["raw_keys"], latent(o), rtol=0.0, atol=1e-9)]
        else:
            bad, skipped = [], 0
            for k, (o, i) in enumerate(zip(outs, inputs)):
                keys, defined = principal_keys(i)
                if not defined:
                    skipped += 1
                    continue
                ko = principal_keys(o)[0]  # same set, so the same direction
                if not np.all(np.diff(ko) >= -SVD_MIN_GAP * max(1.0, float(np.ptp(keys)))):
                    bad.append(k)
            if skipped > len(inputs) // 10:
                bad.append(f"direction undefined on {skipped} sets")
        report.add(f"sort-{scheme}-oracle", bad, f"{len(outs)} sets")

    with open(wl.report) as fh:
        analyzed = json.load(fh)
    bad_groups, bad_error = [], []
    for entry, rows in zip(analyzed, inputs):
        keys = mean_squared(rows)
        order = np.argsort(keys, kind="stable")
        groups = tie_groups(keys[order])
        if entry["ambiguity_sets"] != groups:
            bad_groups.append(entry["index"])
            continue
        y = rows[order]
        diff = uniform_p(groups, len(rows)) @ y - y
        expect = float(np.sum(diff * diff))
        for field in ("ambiguity_error", "sorting_error"):
            if not math.isclose(entry[field], expect, rel_tol=1e-9, abs_tol=1e-12):
                bad_error.append((entry["index"], field, entry[field], expect))
    if len(analyzed) != len(inputs):
        bad_groups.append(f"{len(analyzed)} entries for {len(inputs)} sets")
    tied = sum(len(e["ambiguity_sets"]) < e["set_size"] for e in analyzed)
    report.add("analyze-groups", bad_groups, f"{tied} of {len(analyzed)} sets have tied keys")
    report.add("analyze-error-matrix-form", bad_error, "||PY - Y||^2 with P from the groups")

    worst = 0.0
    bad_rank = []
    for prof, p in zip(wl.profiles, rounds[0].out["rank"]):
        mu, var = prof.means, prof.variances
        m = len(mu)
        for i in range(m):
            others = [j for j in range(m) if j != i]
            c = ndtr((mu[i] - mu[others]) / np.sqrt(var[i] + var[others]))
            dev = float(np.max(np.abs(p[:, i] - poisson_binom(c).pmf(np.arange(m)))))
            worst = max(worst, dev)
            if dev > RANK_TOL:
                bad_rank.append((m, i, dev))
    report.add("rank-poisson-binomial", bad_rank, f"max deviation {worst:.1e}")

    check_rounds_repeat(report, rounds, lambda a, b: a["digests"] == b["digests"]
                        and all(np.array_equal(x, y) for x, y in zip(a["rank"], b["rank"])))
    return report.results


CHECKS = {"path-n8": check_path_n8, "graph-edges": check_graph_edges, "sort-analyze": check_sort_analyze}
