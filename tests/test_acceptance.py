"""End-to-end acceptance suite.

One test per headline guarantee of the package: benchmark reproduction
quality, gradient correctness, the error-analysis identities and bounds,
metric exactness, generator validity, sorting contracts, the key-resolution
effect of the latent gradient penalty, and CLI determinism. Each test is a
single pass/fail gate; thresholds and tolerances are stated inline.
"""
import itertools
import math
import time

import numpy as np
import pytest

from tokensort.analysis import (
    LatentGaussianProfile,
    ambiguity_error,
    ambiguity_sets,
    neighbor_error_bound,
    rank_probability_matrix,
    tridiagonal_P,
    uniform_ambiguity_P,
)
from tokensort.cli import main
from tokensort.core import SortedSequence, TokenSet, write_token_sets
from tokensort.datagen import (
    PREDICATE_TOL,
    PlanarGenConfig,
    delaunay,
    generate_planar_graph,
    in_circumcircle,
)
from tokensort.latentsort import (
    TrainConfig,
    encode_batch,
    init_model,
    latent_sort,
    total_loss,
    train,
)
from tokensort.metrics import ehd, emd, set_prf, smd
from tokensort.sorters import lexicographical_sort, mean_squared_sort, sort_by_keys, svd_lowrank_sort
from tokensort.tspbench import BenchConfig, run_tsp_benchmark

from test_latentsort import _conditioned_case, _fd_vs_analytic


def test_path_quality_benchmark():
    # ten independent runs per setting; each trains from scratch on a fresh
    # 2000-set corpus and scores one held-out point set by exhaustive
    # enumeration of open paths. Budget: 15 minutes for all four settings.
    t0 = time.perf_counter()
    out = {}
    for n, lgp in ((8, True), (8, False), (5, True), (5, False)):
        r = run_tsp_benchmark(BenchConfig(set_size=n, use_lgp=lgp, seed=0))
        out[(n, lgp)] = r["mean_percentile"]
    elapsed = time.perf_counter() - t0
    checks = [
        ("runtime <= 900s", elapsed <= 900.0, f"{elapsed:.0f}s"),
        ("n=8 with penalty >= 0.95", out[(8, True)] >= 0.95, f"{out[(8, True)]:.4f}"),
        ("n=5 with penalty >= 0.80", out[(5, True)] >= 0.80, f"{out[(5, True)]:.4f}"),
        ("n=8 without penalty >= 0.85", out[(8, False)] >= 0.85, f"{out[(8, False)]:.4f}"),
        ("n=5 with >= without", out[(5, True)] >= out[(5, False)],
         f"{out[(5, True)]:.4f} vs {out[(5, False)]:.4f}"),
    ]
    failed = [f"{name}: got {val}" for name, ok, val in checks if not ok]
    assert not failed, "; ".join(failed)


def test_gradients_match_finite_differences():
    # analytic vs central differences (step 1e-6) on 50 random small models;
    # latents are conditioned to be well separated so the finite difference
    # neither flips the sort nor drowns in penalty magnitude
    rng = np.random.default_rng(17)
    cfg = TrainConfig(lgp_coefficient=0.05)
    worst = 0.0
    for _ in range(50):
        m, sets = _conditioned_case(rng)
        f0 = abs(total_loss(m, sets, cfg))
        worst = max(worst, _fd_vs_analytic(m, sets, cfg, rng, floor=1e-4 * max(1.0, f0)))
    assert worst < 1e-4


def test_ambiguity_error_matches_matrix_form():
    # scalar ambiguity error == ||P Y - Y||_F^2 with the uniform-ambiguity P,
    # within 1e-12, on 100 random instances with duplicate-heavy keys
    rng = np.random.default_rng(23)
    for _ in range(100):
        m = int(rng.integers(2, 21))
        keys = np.sort(rng.integers(0, max(2, m // 2), size=m).astype(float))
        rows = rng.normal(size=(m, int(rng.integers(1, 5))))
        seq = SortedSequence(rows, keys=keys)
        groups = ambiguity_sets(TokenSet(rows), keys)
        p = uniform_ambiguity_P(groups, m)
        direct = ambiguity_error(seq, groups)
        matrix = float(np.sum((p @ rows - rows) ** 2))
        assert abs(direct - matrix) <= 1e-12


def _separated_profile(rng, m):
    # latent positions at least one unit apart with small variances: the
    # regime where the neighbor-only approximation is numerically stochastic
    mu = np.cumsum(rng.uniform(1.0, 2.0, size=m))
    var = rng.uniform(0.005, 0.02, size=m) ** 2
    return LatentGaussianProfile(mu, var)


def test_probability_matrix_row_sums_and_collapse():
    rng = np.random.default_rng(29)
    for _ in range(100):
        m = int(rng.integers(2, 12))
        # uniform-ambiguity P over a random partition into key groups
        keys = np.sort(rng.integers(0, m, size=m).astype(float))
        rows = rng.normal(size=(m, 2))
        groups = ambiguity_sets(TokenSet(rows), keys)
        pu = uniform_ambiguity_P(groups, m)
        assert np.all(np.abs(pu.sum(axis=1) - 1.0) <= 1e-9)
        pt = tridiagonal_P(_separated_profile(rng, m))
        assert np.all(np.abs(pt.sum(axis=1) - 1.0) <= 1e-9)
    # zero-variance collapse: deterministic latents sort deterministically
    prof = LatentGaussianProfile(np.arange(5.0), np.full(5, 1e-13))
    assert np.allclose(tridiagonal_P(prof), np.eye(5), atol=1e-12)

    # two-element rank probabilities vs 1e6-sample Monte Carlo
    prof2 = LatentGaussianProfile(np.array([0.0, 0.4]), np.array([0.5, 0.3]))
    p2 = rank_probability_matrix(prof2)
    mc_rng = np.random.default_rng(31)
    a = prof2.means[0] + math.sqrt(prof2.variances[0]) * mc_rng.standard_normal(1_000_000)
    b = prof2.means[1] + math.sqrt(prof2.variances[1]) * mc_rng.standard_normal(1_000_000)
    first_is_a = float(np.mean(a < b))
    assert abs(p2[0, 0] - first_is_a) <= 0.005
    assert abs(p2[1, 0] - (1.0 - first_is_a)) <= 0.005


def test_error_bound_ordering():
    # exact neighbor-difference error never exceeds its triangle bound
    rng = np.random.default_rng(37)
    for _ in range(1000):
        m = int(rng.integers(2, 10))
        prof = LatentGaussianProfile(
            np.sort(rng.uniform(0.0, 5.0, size=m)), rng.uniform(0.0, 1.0, size=m))
        p = tridiagonal_P(prof)
        seq = SortedSequence(rng.normal(size=(m, int(rng.integers(1, 4)))))
        exact, upper = neighbor_error_bound(seq, p)
        assert exact <= upper + 1e-12


def test_metric_exact_values():
    one = lambda *pts: TokenSet(np.array(pts, dtype=float))
    assert emd(one([0.0, 0.0]), one([3.0, 4.0])) == 5.0
    assert ehd(one([0.0], [1.0]), one([0.0])) == 1.0
    prf = set_prf(one([0.0, 0.0], [1.0, 1.0]), one([0.0, 0.0], [2.0, 2.0], [3.0, 3.0]))
    assert prf["precision"] == 0.5
    assert prf["recall"] == pytest.approx(1 / 3, abs=0)
    assert prf["f1"] == pytest.approx(0.4, abs=0)
    g1 = generate_planar_graph(PlanarGenConfig(seed=1))
    g2 = generate_planar_graph(PlanarGenConfig(seed=2))
    assert abs(smd(g1, g1)) <= 1e-3
    assert abs(smd(g1, g2) - smd(g2, g1)) <= 1e-9


def test_triangulation_and_generator_validity():
    rng = np.random.default_rng(41)
    for _ in range(100):
        n = int(rng.integers(4, 51))
        pts = rng.uniform(size=(n, 2))
        for t in delaunay(pts):
            tri = [tuple(pts[v]) for v in t]
            for i in range(n):
                if i not in t:
                    assert not in_circumcircle(tri, tuple(pts[i]), tol=PREDICATE_TOL)
    for seed in range(1000):
        cfg = PlanarGenConfig(seed=seed)
        g = generate_planar_graph(cfg)
        lim = math.radians(cfg.min_edge_angle_degrees)
        for u, v in g.edges:
            assert u != v
        d = g.node_features[:, None, :] - g.node_features[None, :, :]
        dist = np.linalg.norm(d, axis=2)
        np.fill_diagonal(dist, np.inf)
        assert dist.min() >= cfg.collapse_distance
        for node in range(len(g.node_features)):
            inc = [e for e in g.edges if node in e]
            for e1, e2 in itertools.combinations(inc, 2):
                u = g.node_features[e1[0] + e1[1] - node] - g.node_features[node]
                v = g.node_features[e2[0] + e2[1] - node] - g.node_features[node]
                cos = float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))
                assert math.acos(min(1.0, max(-1.0, cos))) >= lim - 1e-12


def test_sorting_scheme_contract():
    # every token-set scheme returns a multiset permutation of its input on
    # 1000 fuzzed sets; key-based schemes are invariant under strictly
    # increasing transforms of their keys
    rng = np.random.default_rng(43)
    model = None
    transforms = (lambda k: 3.0 * k + 1.0, np.arctan, lambda k: k ** 3)
    for i in range(1000):
        m = int(rng.integers(1, 9))
        dim = int(rng.integers(1, 4))
        ts = TokenSet(rng.normal(size=(m, dim)) * 10.0 ** rng.integers(-3, 4))
        schemes = {"mean-squared": mean_squared_sort, "lex": lexicographical_sort, "svd": svd_lowrank_sort}
        if dim == 2:
            if model is None:
                model, _ = train(
                    [TokenSet(rng.uniform(size=(6, 2))) for _ in range(50)],
                    TrainConfig(epochs=3))
            schemes["latent"] = lambda t: latent_sort(model, t)
        for name, fn in schemes.items():
            seq = fn(ts)
            got = sorted(map(tuple, seq.rows))
            want = sorted(map(tuple, ts.values))
            assert got == want, name
            if seq.raw_keys is not None:
                f = transforms[i % len(transforms)]
                fk = f(seq.raw_keys)
                if len(np.unique(fk)) == len(np.unique(seq.raw_keys)):
                    re = sort_by_keys(TokenSet(seq.rows), fk)
                    assert np.array_equal(re.rows, seq.rows), name


def test_lgp_widens_key_resolution():
    # the penalty forbids near-tied latents for nearby-but-distinct tokens, so
    # an encoder trained with it sorts fewer consecutive tokens of held-out
    # sets onto nearly tied keys than the same training run without it. A
    # near tie is a latent gap below 1e-3 of the key span over a 64x64 raster
    # of the unit square. 50000 held-out sets give ~3000 near ties per model,
    # so the count's sampling error (~2%) is small next to its spread across
    # training seeds; at 500 sets (~30 near ties) sampling error dominates.
    axis = np.linspace(0.0, 1.0, 64)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    grid = np.column_stack([xx.ravel(), yy.ravel()])

    def near_ties(model, held):
        span = np.ptp(encode_batch(model, grid))
        keys = encode_batch(model, held.reshape(-1, 2)).reshape(held.shape[:2])
        return int(np.sum(np.diff(np.sort(keys, axis=1), axis=1) < 1e-3 * span))

    wins = 0
    for seed in range(10):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 5]))
        sets = [TokenSet(rng.uniform(size=(8, 2))) for _ in range(300)]
        held = rng.uniform(size=(50000, 8, 2))
        counts = {}
        for lam in (0.05, 0.0):
            model, _ = train(sets, TrainConfig(
                epochs=300, lgp_coefficient=lam, hidden_sizes=(8, 8), seed=seed))
            counts[lam] = near_ties(model, held)
        wins += counts[0.05] < counts[0.0]
    assert wins >= 8


def test_cli_byte_identical(tmp_path):
    rng = np.random.default_rng(47)
    sets = str(tmp_path / "sets.jsonl")
    write_token_sets(sets, [TokenSet(rng.uniform(size=(5, 2))) for _ in range(3)])
    model = str(tmp_path / "model.npz")
    assert main(["train-latent", "--in", sets, "--epochs", "2", "--seed", "3",
                 "--out", model]) == 0
    commands = [
        ["sort", "--scheme", "lex", "--in", sets, "--out", "{}"],
        ["sort", "--scheme", "latent", "--model", model, "--in", sets, "--out", "{}"],
        ["train-latent", "--in", sets, "--epochs", "2", "--seed", "3", "--out", "{}"],
        ["ambiguity-grid", "--scheme", "mean-squared", "--res", "16", "--out", "{}"],
        ["ambiguity-grid", "--model", model, "--res", "16", "--out", "{}"],
        ["analyze", "--in", sets, "--scheme", "svd", "--report", "{}"],
        ["metrics", "--pred", sets, "--gt", sets, "--out", "{}"],
        ["tsp-bench", "--n", "5", "--runs", "1", "--epochs", "1",
         "--train-sets", "10", "--seed", "2", "--out", "{}"],
        ["gen-planar", "--count", "2", "--seed", "9", "--out", "{}"],
    ]
    for ci, argv in enumerate(commands):
        blobs = []
        for rep in range(2):
            out = str(tmp_path / f"c{ci}r{rep}.out")
            args = [a.replace("{}", out) for a in argv]
            assert main(args) == 0, argv
            with open(out, "rb") as fh:
                blobs.append(fh.read())
        assert blobs[0] == blobs[1], argv
