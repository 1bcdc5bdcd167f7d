"""Synthetic data: planar graphs via Delaunay triangulation with collapse
post-processing."""
from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .core import Graph, _dots

PREDICATE_TOL = 1e-12


@dataclass(frozen=True)
class PlanarGenConfig:
    # the geometry is fixed; only the seed varies from graph to graph
    n_init: ClassVar[int] = 15
    collapse_distance: ClassVar[float] = 0.1
    min_edge_angle_degrees: ClassVar[float] = 30.0
    seed: int = 0


class DegenerateInputError(ValueError):
    pass


def _circumcircle(a, b, c):
    """Center and squared radius of the circle through a, b, c; None for a
    (near-)collinear triple."""
    d = 2.0 * (a[0] * (b[1] - c[1]) + b[0] * (c[1] - a[1]) + c[0] * (a[1] - b[1]))
    if abs(d) < PREDICATE_TOL:
        return None
    a2 = a[0] * a[0] + a[1] * a[1]
    b2 = b[0] * b[0] + b[1] * b[1]
    c2 = c[0] * c[0] + c[1] * c[1]
    ux = (a2 * (b[1] - c[1]) + b2 * (c[1] - a[1]) + c2 * (a[1] - b[1])) / d
    uy = (a2 * (c[0] - b[0]) + b2 * (a[0] - c[0]) + c2 * (b[0] - a[0])) / d
    r2 = (a[0] - ux) ** 2 + (a[1] - uy) ** 2
    return (ux, uy), r2


def in_circumcircle(tri_pts, p, tol: float = PREDICATE_TOL) -> bool:
    """True if p lies strictly inside the circumcircle of the triangle;
    raises on a (near-)collinear triangle."""
    circle = _circumcircle(*tri_pts)
    if circle is None:
        raise DegenerateInputError("collinear triangle")
    (ux, uy), r2 = circle
    d2 = (p[0] - ux) ** 2 + (p[1] - uy) ** 2
    return d2 < r2 - tol


def delaunay(points) -> list[tuple[int, int, int]]:
    """Bowyer-Watson incremental Delaunay triangulation in 2-D.

    Returns triangles as sorted index triples into the input points.
    Raises ValueError on a NaN or infinite coordinate, and
    DegenerateInputError on fewer than 3 distinct points or all-collinear
    input; exact duplicates are dropped with a warning (indices refer to the
    originals). The points are scaled by a power of two first, which is
    exact, so a set scaled by any factor gives the triangles it gives at
    span ~1; a set far from the origin for its span can still be wrong.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be an (n, 2) array")
    non_finite = np.flatnonzero(~np.isfinite(pts).all(axis=1))
    if len(non_finite):
        raise ValueError(f"non-finite points at indices {non_finite.tolist()}")
    keep: list[int] = []
    seen: set[bytes] = set()
    for i, p in enumerate(pts + 0.0):  # -0.0 becomes 0.0: the same point
        key = p.tobytes()
        if key in seen:
            warnings.warn("duplicate points dropped before triangulation", stacklevel=2)
            continue
        seen.add(key)
        keep.append(i)
    if len(keep) < 3:
        raise DegenerateInputError("need at least 3 distinct points")

    # scaled by the power of two that puts the span in [0.5, 1): exact, and
    # it makes the absolute PREDICATE_TOL relative to the span, so that a
    # set's triangles do not depend on its scale
    lo, hi = pts[keep].min(axis=0), pts[keep].max(axis=0)
    shift = -int(np.frexp((hi - lo).max())[1])
    pts, lo, hi = (np.ldexp(a, shift) for a in (pts, lo, hi))
    # super-triangle far enough out that its vertices stay outside the
    # circumcircles of thin triangles along the hull; at 20 * span those
    # slivers were lost on about 1 in 10 uniform sets
    cx, cy = (lo + hi) / 2.0
    big = 1e6  # 1e6 x the largest scaled span
    coords = {-1: (cx - big, cy - big), -2: (cx + big, cy - big), -3: (cx, cy + big)}
    coords |= {i: tuple(pts[i].tolist()) for i in keep}

    # triangle -> its circumcircle, made once, in creation order. A point falls
    # in a circle where in_circumcircle(..., tol=-PREDICATE_TOL) says so, bit
    # for bit, and in every collinear triangle (circle None).
    tris = {(-3, -2, -1): _circumcircle(coords[-3], coords[-2], coords[-1])}
    for i in keep:
        px, py = coords[i]
        bad = [t for t, c in tris.items()
               if c is None or (px - c[0][0]) ** 2 + (py - c[0][1]) ** 2 < c[1] + PREDICATE_TOL]
        boundary: dict[tuple[int, int], int] = {}
        for t in bad:
            del tris[t]
            for e in ((t[0], t[1]), (t[1], t[2]), (t[0], t[2])):
                boundary[e] = boundary.get(e, 0) + 1
        for e, count in boundary.items():
            if count == 1:
                t = tuple(sorted((e[0], e[1], i)))
                tris[t] = _circumcircle(*(coords[v] for v in t))

    # a collinear triangle (circle None) has no area and is no triangle of the result
    result = [t for t, c in tris.items() if c is not None and min(t) >= 0]
    if not result:
        raise DegenerateInputError("all points collinear")
    return sorted(result)


def _merge_close_nodes(pts: np.ndarray, min_dist: float):
    """Replace each cluster of nodes closer than min_dist, closed
    transitively, by its centroid; iterated because the centroids can make
    new close pairs. Returns (new_points, mapping old index -> new index)."""
    mapping = np.arange(len(pts))
    while True:
        diff = pts[:, None] - pts[None, :]
        # the BLAS dot a 1-D np.linalg.norm takes, so `<` decides as it would
        close = np.sqrt(_dots(diff, diff)) < min_dist
        # label propagation: each node ends labelled by the smallest index
        # in its cluster
        labels = np.arange(len(pts))
        while True:
            smallest = np.where(close, labels, len(pts)).min(axis=1)
            if np.array_equal(smallest, labels):
                break
            labels = smallest
        roots, step = np.unique(labels, return_inverse=True)
        if len(roots) == len(pts):
            return pts, mapping
        pts = np.stack([pts[labels == r].mean(axis=0) for r in roots])
        mapping = step[mapping]


def _collapse_narrow_angles(pts: np.ndarray, edges: set[tuple[int, int]], min_angle_rad: float):
    """Remove the longer edge of any incident pair meeting at an angle below
    the threshold; repeat until no pair offends. On equal lengths the edge
    of a pair that sorts first loses, and of a node's offending pairs the
    first pair's loser is removed.

    Whether a pair is narrow is geometry alone, so every pair is decided
    once, all cosines in one pass; the passes then only remove edges."""
    ordered = sorted(edges)
    # ||u|| is ||-u|| bit for bit, so an edge's length is the norm of the
    # vector from either endpoint to the other, as np.linalg.norm takes it
    diff = pts[[a for a, _ in ordered]] - pts[[b for _, b in ordered]]
    length = dict(zip(ordered, np.sqrt(_dots(diff, diff)).tolist()))
    incident: dict[int, list[tuple[int, int]]] = {}
    for e in ordered:  # so each node's edges are sorted
        incident.setdefault(e[0], []).append(e)
        incident.setdefault(e[1], []).append(e)
    pairs = [(node, e1, e2) for node in sorted(incident)
             for e1, e2 in itertools.combinations(incident[node], 2)]
    at = pts[[n for n, _, _ in pairs]]
    u = pts[[e1[0] + e1[1] - n for n, e1, _ in pairs]] - at
    v = pts[[e2[0] + e2[1] - n for n, _, e2 in pairs]] - at
    # node -> its narrow pairs in sorted order, each (edge, edge, loser)
    narrow: dict[int, list[tuple]] = {}
    for (n, e1, e2), dot in zip(pairs, _dots(u, v).tolist()):
        nu, nv = length[e1], length[e2]
        if nu == 0 or nv == 0:
            continue
        if math.acos(min(1.0, max(-1.0, dot / (nu * nv)))) < min_angle_rad:
            narrow.setdefault(n, []).append((e1, e2, max(e1, e2, key=length.get)))
    changed = True
    while changed:
        changed = False
        for pairs_at_node in narrow.values():
            losers = [loser for e1, e2, loser in pairs_at_node if e1 in edges and e2 in edges]
            if losers:
                edges.discard(max(losers, key=length.get))
                changed = True
    return edges


def generate_planar_graph(cfg: PlanarGenConfig) -> Graph:
    """Random planar graph: uniform points, Delaunay edges, then merge nodes
    closer than cfg.collapse_distance (cluster centroid replaces the cluster)
    and remove the longer edge of any incident pair at an angle below
    cfg.min_edge_angle_degrees, to a fixpoint. Self-loops and duplicate edges
    are dropped. Retries with derived seeds if no edges survive."""
    last_err = "no attempts made"
    for attempt in range(10):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, attempt]))
        pts = rng.uniform(0.0, 1.0, size=(cfg.n_init, 2))
        try:
            tris = delaunay(pts)
        except DegenerateInputError as e:
            last_err = str(e)
            continue
        merged, mapping = _merge_close_nodes(pts, cfg.collapse_distance)
        edges: set[tuple[int, int]] = set()
        for t in tris:
            for a, b in ((t[0], t[1]), (t[1], t[2]), (t[0], t[2])):
                u, v = int(mapping[a]), int(mapping[b])
                if u != v:
                    edges.add((min(u, v), max(u, v)))
        edges = _collapse_narrow_angles(
            merged, edges, math.radians(cfg.min_edge_angle_degrees)
        )
        if edges:
            return Graph(merged, tuple(sorted(edges)))
        last_err = "all edges collapsed away"
    raise RuntimeError(f"planar generation failed after 10 attempts: {last_err}")
