"""Ordering-error analysis: ambiguity sets, soft permutation (P) matrices,
Gaussian swap probabilities, rank distributions, the tridiagonal neighbor-swap
approximation, and neighbor-distance error bounds.

Conventions: P is M x M with p[i][j] = probability that position i of the
produced sequence holds element j of the target order, so E[Y] = P @ Y*.
Rows are distributions over elements.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SortedCorpus, SortedSequence, TokenSet, _permutation, set_ids
from .latentsort import LatentSortModel, decode_batch, encode_batch

ROW_SUM_TOL = 1e-9
DEFAULT_KEY_TOL = 1e-9


def validate_probability_matrix(p: np.ndarray) -> None:
    """Raise ValueError unless p is square and finite, with entries in [0, 1]
    and rows summing to 1, both within ROW_SUM_TOL."""
    p = np.asarray(p)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError(f"P must be square, got shape {p.shape}")
    if p.size == 0:
        return  # no rows to check
    if not np.isfinite(p).all():
        raise ValueError("P entries must be finite")
    if p.min() < -ROW_SUM_TOL or p.max() > 1 + ROW_SUM_TOL:
        raise ValueError("P entries must lie in [0, 1]")
    deviation = np.abs(p.sum(axis=1) - 1.0).max()
    if deviation > ROW_SUM_TOL:
        raise ValueError(f"P rows must sum to 1 (max deviation {deviation:.3e})")


@dataclass(frozen=True)
class LatentGaussianProfile:
    """Per-position Gaussian model of the 1-D latents: means and variances."""

    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.means, dtype=np.float64)
        var = np.asarray(self.variances, dtype=np.float64)
        if mu.shape != var.shape or mu.ndim != 1:
            raise ValueError("means and variances must be 1-D arrays of equal length")
        if not np.all(np.isfinite(mu)):
            raise ValueError("means must be finite")
        if not np.all(np.isfinite(var) & (var >= 0)):
            raise ValueError("variances must be finite and non-negative")
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "variances", var)

    @property
    def size(self) -> int:
        return self.means.shape[0]


def _joined(sorted_keys: np.ndarray) -> np.ndarray:
    """For each key after the first, whether it joins the group of the key
    before it: the two are equal, infinite ones included, or within
    DEFAULT_KEY_TOL. A NaN key joins no group."""
    k = sorted_keys
    with np.errstate(invalid="ignore"):  # inf - inf is NaN; equality joins them
        return (k[1:] == k[:-1]) | (np.abs(np.diff(k)) <= DEFAULT_KEY_TOL)


def ambiguity_sets(x: TokenSet, keys) -> list[list[int]]:
    """Partition token indices by key equality within DEFAULT_KEY_TOL, closed
    transitively.

    The stably sorted keys are cut between neighbours that are neither equal
    nor within the tolerance, so a NaN key stays in a group of its own.
    Returns one sorted index group per partition class, ordered by smallest
    member. Exact duplicates in keys, infinite ones included, always land in
    the same group. The CLI's `analyze` groups by the same rule (see
    corpus_ambiguity_sets).
    """
    keys = np.asarray(keys, dtype=np.float64)
    m = x.size
    if keys.shape != (m,):
        raise ValueError(f"need {m} keys, got shape {keys.shape}")
    order = np.argsort(keys, kind="stable")
    cuts = [0, *(np.flatnonzero(~_joined(keys[order])) + 1).tolist(), m]
    order = order.tolist()
    groups = [sorted(order[a:b]) for a, b in zip(cuts, cuts[1:])]
    return sorted(groups, key=lambda g: g[0])


def corpus_ambiguity_sets(corpus: SortedCorpus) -> list[list[list[int]]]:
    """ambiguity_sets of every set of a sorted corpus, over the sorted
    positions of the set, by the keys that ordered it.

    The keys are sorted within each set, so each group is a run of
    positions. An order without keys (lex) is strict on distinct tokens:
    only runs of identical rows tie.
    """
    keys = corpus.keys
    if keys is None:
        keys = np.concatenate([[0], np.cumsum(np.any(np.diff(corpus.rows, axis=0) != 0, axis=1))])
    joined = _joined(keys)
    joined[corpus.starts[1:] - 1] = False  # no group crosses into the next set
    edges = [0, *(np.flatnonzero(~joined) + 1).tolist(), len(keys)]
    owner = set_ids(corpus.sizes)[edges[:-1]].tolist()
    starts = corpus.starts.tolist()
    groups: list[list[list[int]]] = [[] for _ in starts]
    for a, b, k in zip(edges, edges[1:], owner):
        groups[k].append(list(range(a - starts[k], b - starts[k])))
    return groups


def _check_partition(groups: list[list[int]], m: int) -> None:
    _permutation([i for g in groups for i in g], m, "groups")


def ambiguity_error(x_star: SortedSequence, groups: list[list[int]]) -> float:
    """Sum over positions of the squared distance between each token and the
    mean of its ambiguity group."""
    y = x_star.rows
    _check_partition(groups, y.shape[0])
    err = 0.0
    for g in groups:
        if len(g) == 1:
            continue  # a singleton is its own mean and adds exactly 0.0
        members = y[g]
        mean = members.sum(axis=0) / len(g)  # what members.mean(axis=0) computes
        err += float(((members - mean) ** 2).sum())
    return err


def uniform_ambiguity_P(groups: list[list[int]], m: int) -> np.ndarray:
    """Row-stochastic matrix spreading each position uniformly over its group."""
    _check_partition(groups, m)
    p = np.eye(m)  # a singleton keeps its 1.0
    for g in groups:
        if len(g) > 1:
            idx = np.array(g)
            p[idx[:, None], idx] = 1.0 / len(g)
    return p


def sorting_error(p: np.ndarray, y_star: SortedSequence) -> float:
    """Squared Frobenius norm of P @ Y* - Y*."""
    p = np.asarray(p, dtype=np.float64)
    y = y_star.rows
    if p.shape != (y.shape[0], y.shape[0]):
        raise ValueError(f"P shape {p.shape} does not conform with Y* ({y.shape})")
    diff = p @ y - y
    return float(np.sum(diff * diff))


def _phi(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF via the error function, elementwise (abs error
    well under 1e-12)."""
    w = -z / math.sqrt(2.0)
    return 0.5 * np.array([math.erfc(x) for x in w.ravel().tolist()]).reshape(w.shape)


def swap_probability(mu_i, var_i, mu_j, var_j):
    """P(h_i < h_j) for independent Gaussian latents, elementwise over
    arguments that broadcast together; a float64 for scalar arguments.

    Degenerate case (both variances zero): 1 / 0 / 0.5 by mean comparison.
    """
    s2 = np.add(var_i, var_j)
    diff = np.subtract(mu_i, mu_j)
    with np.errstate(divide="ignore", invalid="ignore"):  # where s2 is 0 the means decide
        z = -diff / np.sqrt(s2)
    return np.where(s2 <= 0.0, np.where(diff < 0, 1.0, np.where(diff > 0, 0.0, 0.5)), _phi(z))[()]


def rank_probability_matrix(profile: LatentGaussianProfile) -> np.ndarray:
    """P[k][i] = probability that element i lands at rank k, treating pairwise
    comparisons of the Gaussian latents as independent.

    Under that model the rank of element i is Poisson-binomial: the number of
    successes among the M - 1 comparisons P(h_i > h_j). Its distribution is
    built by the recurrence that adds one comparison at a time (Chen & Liu
    1997), for every element at once: O(M^3) work in M array updates.

    Exact for M = 2. For M >= 3 the comparisons all involve h_i and are not
    independent: entries are off by up to about 0.3 against Monte Carlo, and
    rows (one rank over elements) have summed to anywhere from 0.19 to 1.63.
    Columns sum to 1. The rows are left as computed, so the matrix can fail
    validate_probability_matrix and the approximation stays visible.
    """
    m = profile.size
    mu, var = profile.means, profile.variances
    # c[i][j] = P(h_i > h_j); the zero diagonal leaves rank i unchanged at j = i
    c = swap_probability(mu[None, :], var[None, :], mu[:, None], var[:, None])
    np.fill_diagonal(c, 0.0)
    p = np.zeros((m, m))
    p[:1] = 1.0  # an empty profile has no rank 0
    for j in range(m):
        q = c[:, j]
        p[1:] = p[1:] * (1.0 - q) + p[:-1] * q
        p[0] *= 1.0 - q
    return p


def tridiagonal_P(profile: LatentGaussianProfile) -> np.ndarray:
    """Neighbor-swap-only approximation of P for an ascending latent profile.

    Only adjacent comparisons keep their Gaussian probabilities; farther pairs
    are rounded to certainty. Each element's column is an exact distribution
    over the three nearest positions; rows also sum to 1 up to products of
    neighbor swap probabilities (negligible for well-separated profiles).
    """
    mu, var = profile.means, profile.variances
    m = profile.size
    if np.any(np.diff(mu) < 0):
        raise ValueError("tridiagonal approximation requires non-decreasing latent means")
    # x[j] = P(element j sorts below its left neighbor), y[j] = below its right
    x, y = np.zeros(m), np.ones(m)
    x[1:] = swap_probability(mu[1:], var[1:], mu[:-1], var[:-1])
    y[:-1] = swap_probability(mu[:-1], var[:-1], mu[1:], var[1:])
    p = np.diag(x * (1.0 - y) + y * (1.0 - x))
    j = np.arange(1, m)
    p[j - 1, j] = x[1:] * y[1:]
    p[j, j - 1] = (1.0 - x[:-1]) * (1.0 - y[:-1])
    return p


def _check_tridiagonal(p: np.ndarray) -> None:
    if np.triu(p, 2).any() or np.tril(p, -2).any():
        raise ValueError("P must be tridiagonal")


def neighbor_error_bound(y_star: SortedSequence, p: np.ndarray) -> tuple[float, float]:
    """Ordering error of a tridiagonal P in neighbor-difference form.

    exact: sum_i || p_{i,i-1} (x*_{i-1} - x*_i) + p_{i,i+1} (x*_{i+1} - x*_i) ||^2
    upper: the triangle-inequality bound sum_i (||.|| + ||.||)^2, always >= exact.
    Boundary rows contribute their single existing neighbor term.
    """
    p = np.asarray(p, dtype=np.float64)
    y = y_star.rows
    if p.shape != (y.shape[0], y.shape[0]):
        raise ValueError("shape mismatch")
    _check_tridiagonal(p)
    m = y.shape[0]
    exact = upper = 0.0
    for i in range(m):
        left = p[i, i - 1] * (y[i - 1] - y[i]) if i > 0 else np.zeros(y.shape[1])
        right = p[i, i + 1] * (y[i + 1] - y[i]) if i < m - 1 else np.zeros(y.shape[1])
        exact += float(np.sum((left + right) ** 2))
        upper += (float(np.linalg.norm(left)) + float(np.linalg.norm(right))) ** 2
    return exact, upper


def empirical_constants(m: LatentSortModel, data: TokenSet) -> dict[str, float]:
    """Sampled estimates of the encoder/decoder difference-quotient maxima and
    the reconstruction-error ceiling.

    K_e: max |dh| / ||dx|| over 1000 token pairs drawn at seed 0, less those
         of a token with itself;
    K_d: max ||d x_hat|| / |dh| over the same pairs' latents;
    B:   max ||x - decode(encode(x))|| over all tokens.
    """
    rng = np.random.default_rng(0)
    x = data.values
    h = encode_batch(m, x)
    x_hat = decode_batch(m, h)
    b_hat = float(np.max(np.linalg.norm(x - x_hat, axis=1)))

    n = x.shape[0]
    i = rng.integers(0, n, size=1000)
    j = rng.integers(0, n, size=1000)
    keep = i != j
    i, j = i[keep], j[keep]
    dx = np.linalg.norm(x[i] - x[j], axis=1)
    dh = np.abs(h[i] - h[j])
    dxh = np.linalg.norm(x_hat[i] - x_hat[j], axis=1)
    nz = dx > 0
    k_e = float(np.max(dh[nz] / dx[nz])) if np.any(nz) else 0.0
    nzh = dh > 0
    k_d = float(np.max(dxh[nzh] / dh[nzh])) if np.any(nzh) else 0.0
    return {"K_e": k_e, "K_d": k_d, "B": b_hat}
