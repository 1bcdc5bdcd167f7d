import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokensort import datagen
from tokensort.datagen import (
    PREDICATE_TOL,
    DegenerateInputError,
    PlanarGenConfig,
    _circumcircle,
    _collapse_narrow_angles,
    _merge_close_nodes,
    delaunay,
    generate_planar_graph,
    in_circumcircle,
)


def test_circumcircle_membership_unit_square():
    tri = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]  # circumcircle centered (.5,.5), r=sqrt(.5)
    assert in_circumcircle(tri, (0.5, 0.5))
    assert not in_circumcircle(tri, (1.0, 1.0))  # exactly on the circle
    assert not in_circumcircle(tri, (2.0, 2.0))


def test_circumcircle_collinear_raises():
    with pytest.raises(DegenerateInputError):
        in_circumcircle([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], (0.0, 1.0))


def test_delaunay_square():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tris = delaunay(pts)
    assert len(tris) == 2
    covered = set()
    for t in tris:
        covered.update(t)
    assert covered == {0, 1, 2, 3}


def test_delaunay_too_few_points():
    with pytest.raises(DegenerateInputError):
        delaunay(np.array([[0.0, 0.0], [1.0, 1.0]]))
    # a NaN or infinite point is named, before deduplication and without the
    # super-triangle's overflow warnings; it once read as "all points collinear"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for pts, bad in [
            ([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [np.nan, 0.5]], [3]),
            ([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [np.inf, 0.5]], [3]),
            ([[0.0, -np.inf], [1.0, 0.0], [0.0, 1.0], [0.0, -np.inf]], [0, 3]),
        ]:
            with pytest.raises(ValueError, match=rf"^non-finite points at indices \[{', '.join(map(str, bad))}\]$"):
                delaunay(pts)


def test_delaunay_all_collinear():
    pts = np.array([[float(i), 2.0 * i] for i in range(5)])
    with pytest.raises(DegenerateInputError):
        delaunay(pts)
    # the collinear triangles holding the last point inserted were once
    # returned: these four points gave [(0, 1, 3), (0, 2, 3), (1, 2, 3)]
    with pytest.raises(DegenerateInputError, match="all points collinear"):
        delaunay([[0.91, 0.5], [0.83, 0.5], [0.86, 0.5], [0.11, 0.5]])
    rng = np.random.default_rng(23)
    returned = 0
    for k in range(300):
        pts = rng.uniform(size=(int(rng.integers(3, 40)), 2))
        pts[:, k % 2] = 0.5  # a horizontal or a vertical line
        with pytest.raises(DegenerateInputError, match="all points collinear"):
            delaunay(pts)
        returned += not isinstance(_outcome(_reference_delaunay, pts), str)
    assert returned > 100  # the former loop returned triangles for these (222)


def test_delaunay_duplicates_warn_and_drop():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    with pytest.warns(UserWarning):
        tris = delaunay(pts)
    assert tris == [(0, 1, 2)]


def test_delaunay_negative_zero_is_a_duplicate():
    # -0.0 is the point 0.0: dropped with the warning, the first one kept
    pts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-0.0, 0.0]]
    with pytest.warns(UserWarning, match="duplicate"):
        assert delaunay(pts) == [(0, 1, 3), (0, 2, 3)]


def _empty_circumcircle_violations(pts, tris):
    bad = 0
    for t in tris:
        tri_pts = [tuple(pts[v]) for v in t]
        for i in range(len(pts)):
            if i in t:
                continue
            if in_circumcircle(tri_pts, tuple(pts[i]), tol=PREDICATE_TOL):
                bad += 1
    return bad


@pytest.mark.parametrize("seed", range(10))
def test_delaunay_empty_circumcircle(seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(size=(int(rng.integers(4, 30)), 2))
    assert _empty_circumcircle_violations(pts, delaunay(pts)) == 0


def test_delaunay_matches_bruteforce_small():
    # for tiny inputs every valid triangle is one whose circumcircle is empty
    rng = np.random.default_rng(11)
    pts = rng.uniform(size=(6, 2))
    tris = set(delaunay(pts))
    expected = set()
    for t in itertools.combinations(range(6), 3):
        tri_pts = [tuple(pts[v]) for v in t]
        try:
            if not any(in_circumcircle(tri_pts, tuple(pts[i]))
                       for i in range(6) if i not in t):
                expected.add(t)
        except DegenerateInputError:
            pass
    assert tris == expected


def test_delaunay_matches_scipy_in_general_position():
    # hull slivers have circumcircles reaching far outside the hull; the
    # super-triangle must stay outside them or the slivers are lost
    spatial = pytest.importorskip("scipy.spatial")
    rng = np.random.default_rng(5)
    for _ in range(400):
        pts = rng.uniform(size=(int(rng.integers(4, 40)), 2))
        ref = sorted(tuple(sorted(t)) for t in spatial.Delaunay(pts).simplices.tolist())
        assert delaunay(pts) == ref


def test_delaunay_matches_scipy_at_every_scale():
    # PREDICATE_TOL is absolute, so unscaled small sets once gave other
    # triangles (at 1e-5) or raised "all points collinear" (at 1e-7)
    spatial = pytest.importorskip("scipy.spatial")
    rng = np.random.default_rng(0)
    sets = [rng.uniform(size=(12, 2)) for _ in range(50)]
    for exponent in range(-12, 7):
        for pts in sets:
            scaled = pts * 10.0 ** exponent
            ref = sorted(tuple(sorted(t)) for t in spatial.Delaunay(scaled).simplices.tolist())
            assert delaunay(scaled) == ref, exponent


def _reference_delaunay(points):
    """The former Bowyer-Watson loop, kept as a reference: every triangle's
    circle is recomputed for every point, by in_circumcircle, and a collinear
    triangle is bad through the exception it raises."""
    pts = np.asarray(points, dtype=float)
    keep, seen = [], set()
    for i, p in enumerate(pts):
        if p.tobytes() not in seen:
            seen.add(p.tobytes())
            keep.append(i)
    if len(keep) < 3:
        raise DegenerateInputError("need at least 3 distinct points")
    lo, hi = pts[keep].min(axis=0), pts[keep].max(axis=0)
    span = max(float((hi - lo).max()), 1.0)
    cx, cy = (lo + hi) / 2.0
    big = 1e6 * span
    coords = {-1: (cx - big, cy - big), -2: (cx + big, cy - big), -3: (cx, cy + big)}
    for i in keep:
        coords[i] = (float(pts[i, 0]), float(pts[i, 1]))
    tris = [(-3, -2, -1)]
    for i in keep:
        p = coords[i]
        bad = []
        for t in tris:
            try:
                if in_circumcircle([coords[v] for v in t], p, tol=-PREDICATE_TOL):
                    bad.append(t)
            except DegenerateInputError:
                bad.append(t)
        boundary = {}
        for t in bad:
            for e in ((t[0], t[1]), (t[1], t[2]), (t[0], t[2])):
                boundary[e] = boundary.get(e, 0) + 1
        bad_set = set(bad)
        tris = [t for t in tris if t not in bad_set]
        for e, count in boundary.items():
            if count == 1:
                tris.append(tuple(sorted((e[0], e[1], i))))
    result = [t for t in tris if all(v >= 0 for v in t)]
    if not result:
        raise DegenerateInputError("all points collinear")
    return sorted(result)


def _outcome(triangulate, pts):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return triangulate(pts)
        except DegenerateInputError as exc:
            return str(exc)


def test_delaunay_matches_reference_loop(monkeypatch):
    # each circle is computed once, when its triangle is made: the same
    # triangles as testing every point against recomputed circles, on
    # uniform sets, on sets snapped to a grid (collinear triples, cocircular
    # quadruples, duplicates) and on sets with a collinear run
    circles = []
    monkeypatch.setattr(datagen, "_circumcircle",
                        lambda *abc: circles.append(_circumcircle(*abc)) or circles[-1])
    rng = np.random.default_rng(17)
    collinear = 0
    for k in range(600):
        pts = rng.uniform(size=(int(rng.integers(3, 40)), 2))
        if k % 3 == 1:
            pts = np.round(pts * 4) / 4
        elif k % 3 == 2:
            pts[: len(pts) // 2, 1] = 0.5
        ref = _outcome(_reference_delaunay, pts)
        circles.clear()
        assert _outcome(delaunay, pts) == ref
        collinear += circles.count(None)
    assert collinear > 100  # collinear triangles were made, and are always bad


def _check_postconditions(g, cfg):
    n = len(g.node_features)
    for u, v in g.edges:
        assert u != v
        assert 0 <= u < n and 0 <= v < n
    # pairwise node distance honors the collapse threshold
    for i in range(n):
        for j in range(i + 1, n):
            d = np.linalg.norm(g.node_features[i] - g.node_features[j])
            assert d >= cfg.collapse_distance
    # no incident edge pair meets below the angle threshold
    lim = math.radians(cfg.min_edge_angle_degrees)
    for node in range(n):
        inc = [e for e in g.edges if node in e]
        for a in range(len(inc)):
            for b in range(a + 1, len(inc)):
                e1, e2 = inc[a], inc[b]
                u = g.node_features[e1[0] + e1[1] - node] - g.node_features[node]
                v = g.node_features[e2[0] + e2[1] - node] - g.node_features[node]
                cos = float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))
                assert math.acos(min(1.0, max(-1.0, cos))) >= lim - 1e-12


@pytest.mark.parametrize("seed", range(40))
def test_planar_generator_postconditions(seed):
    cfg = PlanarGenConfig(seed=seed)
    _check_postconditions(generate_planar_graph(cfg), cfg)


def test_planar_generator_deterministic():
    a = generate_planar_graph(PlanarGenConfig(seed=5))
    b = generate_planar_graph(PlanarGenConfig(seed=5))
    assert np.array_equal(a.node_features, b.node_features)
    assert a.edges == b.edges


def test_planar_config_has_only_its_seed():
    # the geometry is fixed: class constants, read as the fields were
    assert [f.name for f in dataclasses.fields(PlanarGenConfig)] == ["seed"]
    cfg = PlanarGenConfig(seed=7)
    assert (cfg.n_init, cfg.collapse_distance, cfg.min_edge_angle_degrees) == (15, 0.1, 30.0)
    assert PlanarGenConfig() == PlanarGenConfig(seed=0) != cfg
    with pytest.raises(TypeError):
        PlanarGenConfig(n_init=2)


@given(st.integers(0, 2**31 - 1), st.integers(4, 12))
@settings(max_examples=20, deadline=None)
def test_delaunay_fuzz_valid(seed, n):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(size=(n, 2))
    tris = delaunay(pts)
    assert tris == sorted(set(tris))
    assert _empty_circumcircle_violations(pts, tris) == 0


def _union_find_merge(pts, min_dist):
    # the former union-find merge, kept as an oracle
    mapping = np.arange(len(pts))
    while True:
        n = len(pts)
        parent = list(range(n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        merged_any = False
        for i in range(n):
            for j in range(i + 1, n):
                if np.linalg.norm(pts[i] - pts[j]) < min_dist:
                    ri, rj = find(i), find(j)
                    if ri != rj:
                        parent[max(ri, rj)] = min(ri, rj)
                        merged_any = True
        if not merged_any:
            return pts, mapping
        roots = sorted({find(i) for i in range(n)})
        index_of = {r: k for k, r in enumerate(roots)}
        new_pts = np.empty((len(roots), 2))
        for r in roots:
            members = [i for i in range(n) if find(i) == r]
            new_pts[index_of[r]] = pts[members].mean(axis=0)
        step = np.array([index_of[find(i)] for i in range(n)])
        mapping = step[mapping]
        pts = new_pts


def test_merge_close_nodes_matches_union_find():
    # A and B merge first; their centroid is then within 0.1 of C, which was
    # not within 0.1 of A or B, so only a second pass leaves one node
    chained = np.array([[0.3, 0.3], [0.39, 0.3], [0.345, 0.395]])
    merged, mapping = _merge_close_nodes(chained, 0.1)
    assert merged.shape == (1, 2) and mapping.tolist() == [0, 0, 0]
    rng = np.random.default_rng(31)
    cases = [(chained, 0.1)] + [
        (rng.uniform(size=(int(rng.integers(1, 30)), 2)), float(rng.choice([0.05, 0.1, 0.2])))
        for _ in range(300)
    ]
    for pts, min_dist in cases:
        merged, mapping = _merge_close_nodes(pts, min_dist)
        ref_merged, ref_mapping = _union_find_merge(pts, min_dist)
        assert np.array_equal(merged, ref_merged)
        assert np.array_equal(mapping, ref_mapping)


def _reference_collapse_narrow_angles(pts, edges, min_angle_rad):
    # the former loop, kept as an oracle: every pass decides every pair again
    length = {e: float(np.linalg.norm(pts[e[0]] - pts[e[1]])) for e in edges}
    changed = True
    while changed:
        changed = False
        for node in range(len(pts)):
            incident = sorted(e for e in edges if node in e)
            losers = []
            for e1, e2 in itertools.combinations(incident, 2):
                nu, nv = length[e1], length[e2]
                if nu == 0 or nv == 0:
                    continue
                u = pts[e1[0] + e1[1] - node] - pts[node]
                v = pts[e2[0] + e2[1] - node] - pts[node]
                cos = float(np.dot(u, v) / (nu * nv))
                if math.acos(min(1.0, max(-1.0, cos))) < min_angle_rad:
                    losers.append(max(e1, e2, key=length.get))
            if losers:
                edges.discard(max(losers, key=length.get))
                changed = True
    return edges


def test_collapse_narrow_angles_matches_reference_loop():
    # uniform points; points on a grid of quarters (equal lengths, exact
    # right and straight angles); and uniform points with some repeated,
    # so that edges between them have length 0
    rng = np.random.default_rng(23)
    removed = 0
    for k in range(3000):
        n = int(rng.integers(2, 13))
        pts = rng.uniform(size=(n, 2))
        if k % 3 == 1:
            pts = np.round(pts * 4) / 4
        elif k % 3 == 2:
            pts[rng.integers(0, n, size=n // 2)] = pts[0]
        pairs = list(itertools.combinations(range(n), 2))
        edges = {pairs[i] for i in np.flatnonzero(rng.uniform(size=len(pairs)) < rng.uniform(0.2, 1.0))}
        angle = math.radians(float(rng.choice([30.0, 60.0, 89.0])))
        got = _collapse_narrow_angles(pts, set(edges), angle)
        assert got == _reference_collapse_narrow_angles(pts, set(edges), angle), k
        removed += len(edges) - len(got)
    assert removed > 3000  # the loop removes edges, not only keeps them
    assert _collapse_narrow_angles(np.zeros((3, 2)), set(), 0.5) == set()
