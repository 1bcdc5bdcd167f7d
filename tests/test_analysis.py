import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import poisson_binom

from tokensort.analysis import (
    DEFAULT_KEY_TOL,
    LatentGaussianProfile,
    ambiguity_error,
    ambiguity_sets,
    empirical_constants,
    neighbor_error_bound,
    rank_probability_matrix,
    sorting_error,
    swap_probability,
    tridiagonal_P,
    uniform_ambiguity_P,
    validate_probability_matrix,
)
from tokensort.core import SortedSequence, TokenSet
from tokensort.latentsort import init_model
from tokensort.sorters import mean_squared_keys


def test_validate_probability_matrix():
    validate_probability_matrix(np.eye(3))
    with pytest.raises(ValueError):
        validate_probability_matrix(np.array([[0.5, 0.4], [0.5, 0.5]]))
    with pytest.raises(ValueError):
        validate_probability_matrix(np.ones((2, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_validate_probability_matrix_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        validate_probability_matrix(np.full((3, 3), bad))
    p = np.eye(3)
    p[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        validate_probability_matrix(p)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1])
def test_profile_rejects_bad_variances(bad):
    with pytest.raises(ValueError, match="variances"):
        LatentGaussianProfile(np.zeros(3), np.array([0.1, bad, 0.2]))


def _union_find_groups(keys, tol):
    # the former union-find over sorted neighbours, kept as an oracle
    m = keys.shape[0]
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    order = np.argsort(keys, kind="stable")
    for a, b in zip(order[:-1], order[1:]):
        if keys[b] == keys[a] or abs(keys[b] - keys[a]) <= tol:
            parent[find(int(a))] = find(int(b))
    groups: dict[int, list[int]] = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    return sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])


def test_ambiguity_sets_distinct_keys():
    ts = TokenSet(np.random.default_rng(0).normal(size=(5, 2)))
    groups = ambiguity_sets(ts, np.array([0.1, 0.2, 0.3, 0.4, 0.5]))
    assert groups == [[0], [1], [2], [3], [4]]


def test_ambiguity_sets_mean_squared_symmetric_pair():
    ts = TokenSet(np.array([[1.0, 0.0], [0.0, 1.0]]))
    groups = ambiguity_sets(ts, mean_squared_keys(ts.values))
    assert groups == [[0, 1]]


def test_ambiguity_sets_summation_keys():
    vals = np.array([[0.3, 0.7], [0.7, 0.3], [0.0, 0.0]])
    ts = TokenSet(vals)
    groups = ambiguity_sets(ts, vals.sum(axis=1))
    assert sorted(map(sorted, groups)) == [[0, 1], [2]]


def test_ambiguity_sets_transitive_closure():
    # chain 0 ~ 1 ~ 2 under tol even though |k0 - k2| > tol
    ts = TokenSet(np.zeros((3, 1)))
    keys = np.array([0.0, 0.6, 1.2]) * DEFAULT_KEY_TOL
    assert keys[2] - keys[0] > DEFAULT_KEY_TOL
    groups = ambiguity_sets(ts, keys)
    assert groups == [[0, 1, 2]]


def test_ambiguity_sets_chained_ties_and_nan():
    tol = DEFAULT_KEY_TOL
    a = 0.25
    keys = np.array([a + 1.2 * tol, np.nan, 2.0, a, 2.0, np.nan, a + 0.6 * tol, 5.0])
    groups = ambiguity_sets(TokenSet(np.zeros((8, 1))), keys)
    assert groups == [[0, 3, 6], [1], [2, 4], [5], [7]]
    assert all(type(i) is int for g in groups for i in g)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_ambiguity_sets_match_union_find(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 25))
    tol = DEFAULT_KEY_TOL
    # a coarse grid plus sub-tol jitter, in units of tol, gives exact ties,
    # chains and clean gaps
    keys = (rng.integers(0, 6, size=m) * rng.choice([0.5, 0.8, 2.0])
            + rng.choice([0.0, 0.6], size=m)) * tol
    keys[rng.uniform(size=m) < 0.1] = np.nan
    keys[rng.uniform(size=m) < 0.05] = rng.choice([np.inf, -np.inf])
    groups = ambiguity_sets(TokenSet(np.zeros((m, 1))), keys)
    assert groups == _union_find_groups(keys, tol)


def test_ambiguity_sets_equal_infinite_keys():
    keys = np.array([-np.inf, -np.inf, -0.25])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ambiguity_sets(TokenSet(np.zeros((3, 1))), keys) == [[0, 1], [2]]
        assert ambiguity_sets(TokenSet(np.zeros((3, 1))), -keys) == [[0, 1], [2]]


def test_ambiguity_P_and_error_match_loops():
    rng = np.random.default_rng(4)
    vals = rng.normal(size=(9, 3))
    groups = [[0, 4, 7], [1], [2, 3], [5], [6, 8]]
    p_ref = np.zeros((9, 9))
    err_ref = 0.0
    for g in groups:
        for i in g:
            p_ref[i, g] = 1.0 / len(g)
        err_ref += float(np.sum((vals[g] - vals[g].mean(axis=0)) ** 2))
    assert np.array_equal(uniform_ambiguity_P(groups, 9), p_ref)
    assert ambiguity_error(SortedSequence(vals), groups) == err_ref


def test_uniform_P_row_stochastic():
    p = uniform_ambiguity_P([[0, 2], [1]], 3)
    validate_probability_matrix(p)
    assert p[0, 0] == p[0, 2] == 0.5
    assert p[1, 1] == 1.0


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_ambiguity_error_equals_matrix_form(seed):
    # mean-over-group error and ||P Y - Y||_F^2 are the same quantity
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 21))
    vals = rng.normal(size=(m, 3))
    keys = np.sort(rng.choice(np.linspace(0, 1, max(2, m // 2)), size=m))
    ts = TokenSet(vals)
    groups = ambiguity_sets(ts, keys)
    seq = SortedSequence(vals)
    p = uniform_ambiguity_P(groups, m)
    assert ambiguity_error(seq, groups) == pytest.approx(
        sorting_error(p, seq), abs=1e-12)


def test_sorting_error_identity_P():
    seq = SortedSequence(np.random.default_rng(1).normal(size=(4, 2)))
    assert sorting_error(np.eye(4), seq) == 0.0


def test_swap_probability_degenerate():
    assert swap_probability(0.0, 0.0, 1.0, 0.0) == 1.0  # h_i surely below h_j
    assert swap_probability(1.0, 0.0, 0.0, 0.0) == 0.0
    assert swap_probability(0.5, 0.0, 0.5, 0.0) == 0.5


def test_swap_probability_against_erfc_oracle():
    # closed form: P(h_i < h_j) = Phi((mu_j - mu_i) / sqrt(v_i + v_j))
    cases = [(0.0, 1.0, 1.0, 1.0), (0.3, 0.2, -0.1, 0.05), (2.0, 0.5, 2.0, 0.5)]
    for mi, vi, mj, vj in cases:
        z = (mj - mi) / math.sqrt(vi + vj)
        ref = 0.5 * math.erfc(-z / math.sqrt(2))
        assert swap_probability(mi, vi, mj, vj) == pytest.approx(ref, abs=1e-12)


def test_rank_matrix_two_elements():
    prof = LatentGaussianProfile(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
    p = rank_probability_matrix(prof)
    c = swap_probability(1.0, 0.5, 0.0, 0.5)  # P(h_1 < h_0)
    assert p[0, 0] == pytest.approx(1 - c)
    assert p[1, 1] == pytest.approx(1 - c)
    assert p[0, 1] == pytest.approx(c)


def test_rank_matrix_monte_carlo_m2():
    rng = np.random.default_rng(123)
    mu = np.array([0.2, 0.5])
    var = np.array([0.3, 0.1])
    p = rank_probability_matrix(LatentGaussianProfile(mu, var))
    draws = rng.normal(mu, np.sqrt(var), size=(1_000_000, 2))
    emp = np.mean(draws[:, 0] < draws[:, 1])
    assert p[0, 0] == pytest.approx(emp, abs=0.005)


def test_rank_matrix_monte_carlo_m3():
    rng = np.random.default_rng(321)
    mu = np.array([0.0, 0.4, 1.0])
    var = np.array([0.2, 0.3, 0.1])
    p = rank_probability_matrix(LatentGaussianProfile(mu, var))
    draws = rng.normal(mu, np.sqrt(var), size=(200_000, 3))
    ranks = np.argsort(np.argsort(draws, axis=1), axis=1)
    # at M >= 3 the pairwise comparisons are correlated (they share h_i), so
    # treating them as independent is an approximation: close, not exact
    for k in range(3):
        for i in range(3):
            emp = np.mean(ranks[:, i] == k)
            assert p[k, i] == pytest.approx(emp, abs=0.12)


def test_rank_matrix_collapse_identity():
    prof = LatentGaussianProfile(np.array([1.0, 2.0, 3.0]), np.zeros(3))
    assert np.allclose(rank_probability_matrix(prof), np.eye(3))


def test_rank_matrix_large_m():
    prof = LatentGaussianProfile(np.arange(40.0) * 0.3, np.full(40, 0.5))
    p = rank_probability_matrix(prof)
    assert p.shape == (40, 40)
    assert np.abs(p.sum(axis=0) - 1).max() < 1e-13  # each column is a distribution
    # the middle element's rank distribution is symmetric about the middle rank
    assert np.allclose(p[:, 20], p[::-1, 19], atol=1e-14)


def _reference_swap_probability(mu_i, var_i, mu_j, var_j):
    """The former scalar swap_probability, kept as a reference."""
    s2 = var_i + var_j
    if s2 <= 0.0:
        if mu_i < mu_j:
            return 1.0
        if mu_i > mu_j:
            return 0.0
        return 0.5
    z = -(mu_i - mu_j) / math.sqrt(s2)
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _reference_rank_matrix(profile):
    """The former rank matrix, kept as a reference: c built by one scalar
    swap_probability call per ordered pair."""
    m, mu, var = profile.size, profile.means, profile.variances
    c = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            if i != j:
                c[i, j] = _reference_swap_probability(mu[j], var[j], mu[i], var[i])
    p = np.zeros((m, m))
    p[0] = 1.0
    for j in range(m):
        p[1:] = p[1:] * (1.0 - c[:, j]) + p[:-1] * c[:, j]
        p[0] *= 1.0 - c[:, j]
    return p


def _reference_tridiagonal_P(profile):
    """The former tridiagonal_P, kept as a reference: one scalar
    swap_probability call per neighbour, column by column."""
    mu, var, m = profile.means, profile.variances, profile.size
    p = np.zeros((m, m))
    for j in range(m):
        x = _reference_swap_probability(mu[j], var[j], mu[j - 1], var[j - 1]) if j > 0 else 0.0
        y = _reference_swap_probability(mu[j], var[j], mu[j + 1], var[j + 1]) if j < m - 1 else 1.0
        p[j, j] = x * (1.0 - y) + y * (1.0 - x)
        if j > 0:
            p[j - 1, j] = x * y
        if j < m - 1:
            p[j + 1, j] = (1.0 - x) * (1.0 - y)
    return p


def _near_degenerate_profiles(seed, count):
    """Random profiles of 1-13 elements, and near-degenerate ones: zero
    variances (alone or in pairs, where the 1 / 0 / 0.5 rule decides), equal
    means, and both at once."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        m = int(rng.integers(1, 14))
        mu, var = rng.normal(size=m), rng.uniform(0.0, 0.5, size=m)
        if k % 4 == 1:
            var[rng.integers(0, m, size=m // 2 + 1)] = 0.0
            mu = np.round(mu)
        elif k % 4 == 2:
            var[:] = 0.0
            mu = np.round(mu * 2) / 2
        elif k % 4 == 3:
            mu = np.full(m, mu[0])
        yield LatentGaussianProfile(mu, var)


def test_rank_matrix_matches_scalar_reference():
    # bit for bit, on random and near-degenerate profiles
    for prof in _near_degenerate_profiles(29, 800):
        assert rank_probability_matrix(prof).tobytes() == _reference_rank_matrix(prof).tobytes()


def test_tridiagonal_matches_loop_reference():
    for prof in _near_degenerate_profiles(31, 800):
        prof = LatentGaussianProfile(np.sort(prof.means), prof.variances)
        assert tridiagonal_P(prof).tobytes() == _reference_tridiagonal_P(prof).tobytes()
    empty = LatentGaussianProfile(np.zeros(0), np.zeros(0))
    assert tridiagonal_P(empty).shape == (0, 0)
    assert rank_probability_matrix(empty).shape == (0, 0)
    validate_probability_matrix(np.zeros((0, 0)))  # no rows to check


def test_swap_probability_broadcasts_as_the_scalar_reference():
    for prof in _near_degenerate_profiles(37, 300):
        mu, var, m = prof.means, prof.variances, prof.size
        p = swap_probability(mu[:, None], var[:, None], mu[None, :], var[None, :])
        assert p.shape == (m, m) and p.dtype == np.float64
        ref = np.array([[_reference_swap_probability(mu[i], var[i], mu[j], var[j]) for j in range(m)]
                        for i in range(m)])
        assert p.tobytes() == ref.tobytes()
        one = swap_probability(mu[-1], var[-1], mu[0], var[0])  # numpy scalars in
        assert type(one) is np.float64 and one == ref[-1, 0]
    # Python floats in, a float64 out; each argument broadcasts on its own
    assert type(swap_probability(0.3, 0.2, -0.1, 0.05)) is np.float64
    assert swap_probability(np.zeros(3), 0.5, 1.0, np.ones((2, 1))).shape == (2, 3)
    assert swap_probability(np.arange(4.0), 0.0, [[1.0], [2.0]], 0.0).tolist() == [
        [1.0, 0.5, 0.0, 0.0], [1.0, 1.0, 0.5, 0.0]]


def _random_profile(rng, m):
    return LatentGaussianProfile(rng.normal(size=m), rng.uniform(0.0, 0.5, size=m))


def test_rank_matrix_matches_scipy_poisson_binom():
    rng = np.random.default_rng(7)
    for m in range(2, 41):
        prof = _random_profile(rng, m)
        mu, var = prof.means, prof.variances
        p = rank_probability_matrix(prof)
        for i in range(m):
            others = np.arange(m) != i
            c = ndtr((mu[i] - mu[others]) / np.sqrt(var[i] + var[others]))
            ref = poisson_binom(c).pmf(np.arange(m))
            assert np.abs(p[:, i] - ref).max() < 1e-13


def _enumerated_rank_matrix(profile):
    # the former subset enumeration, O(M^2 2^M), kept as an oracle for small M
    m = profile.size
    mu, var = profile.means, profile.variances
    c = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            if i != j:
                c[i, j] = swap_probability(mu[j], var[j], mu[i], var[i])
    p = np.zeros((m, m))
    for i in range(m):
        others = [j for j in range(m) if j != i]
        for k in range(m):
            total = 0.0
            for smaller in itertools.combinations(others, k):
                prod = 1.0
                for j in others:
                    prod *= c[i, j] if j in smaller else (1.0 - c[i, j])
                total += prod
            p[k, i] = total
    return p


def test_rank_matrix_matches_enumeration():
    rng = np.random.default_rng(8)
    for m in range(1, 9):
        for _ in range(3):
            prof = _random_profile(rng, m)
            ref = _enumerated_rank_matrix(prof)
            assert np.abs(rank_probability_matrix(prof) - ref).max() < 1e-14


def test_rank_matrix_degenerate_variances():
    prof = LatentGaussianProfile(np.array([3.0, -1.0, 2.0, 0.5]), np.zeros(4))
    expect = np.zeros((4, 4))
    expect[[3, 0, 2, 1], [0, 1, 2, 3]] = 1.0  # rank of each element by its mean
    assert np.array_equal(rank_probability_matrix(prof), expect)
    # equal means: every comparison is a fair coin, so each rank is Binomial(M-1, 1/2)
    p = rank_probability_matrix(LatentGaussianProfile(np.full(5, 0.7), np.zeros(5)))
    binom = np.array([math.comb(4, k) for k in range(5)]) / 16.0
    assert np.array_equal(p, np.repeat(binom[:, None], 5, axis=1))


def _well_separated_profile(rng, m):
    sigma = rng.uniform(0.005, 0.02, size=m)
    mu = np.cumsum(1.0 + rng.uniform(size=m))
    return LatentGaussianProfile(mu, sigma ** 2)


def test_tridiagonal_rows_and_columns():
    rng = np.random.default_rng(2)
    for _ in range(100):
        prof = _well_separated_profile(rng, int(rng.integers(3, 10)))
        p = tridiagonal_P(prof)
        assert np.abs(p.sum(axis=0) - 1).max() < 1e-15  # exact by construction
        assert np.abs(p.sum(axis=1) - 1).max() < 1e-9   # approximation regime


def test_tridiagonal_row_residual_at_moderate_separation():
    # with overlapping neighbors the row sums visibly deviate from 1: the
    # construction is only column-stochastic in general
    prof = LatentGaussianProfile(np.array([0.0, 0.5, 1.0, 1.5]), np.full(4, 0.2))
    p = tridiagonal_P(prof)
    assert np.abs(p.sum(axis=0) - 1).max() < 1e-15
    assert np.abs(p.sum(axis=1) - 1).max() > 1e-3


def test_tridiagonal_collapse_identity():
    prof = LatentGaussianProfile(np.array([0.0, 1.0, 2.0]), np.full(3, 1e-13))
    assert np.allclose(tridiagonal_P(prof), np.eye(3), atol=1e-9)


def test_tridiagonal_requires_ascending_means():
    with pytest.raises(ValueError):
        tridiagonal_P(LatentGaussianProfile(np.array([1.0, 0.0]), np.ones(2)))


def test_groups_must_be_integers():
    # float groups passed the partition check, then indexing raised IndexError
    seq = SortedSequence(np.arange(6.0).reshape(3, 2))
    for groups in ([[0.0, 1.0], [2]], [[0, True], [2]], [np.array([0.0, 1.0]), [2]]):
        with pytest.raises(ValueError, match="groups must be integers"):
            uniform_ambiguity_P(groups, 3)
        with pytest.raises(ValueError, match="groups must be integers"):
            ambiguity_error(seq, groups)
    groups = [np.array([0, 1]), [np.int32(2)]]
    assert uniform_ambiguity_P(groups, 3).tolist() == uniform_ambiguity_P([[0, 1], [2]], 3).tolist()
    assert ambiguity_error(seq, groups) == ambiguity_error(seq, [[0, 1], [2]])


def test_neighbor_bound_ordering_fuzz():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        m = int(rng.integers(3, 9))
        prof = LatentGaussianProfile(
            np.cumsum(rng.uniform(0.2, 2.0, size=m)), rng.uniform(0.01, 0.5, size=m))
        p = tridiagonal_P(prof)
        y = SortedSequence(rng.normal(size=(m, int(rng.integers(1, 4)))))
        exact, upper = neighbor_error_bound(y, p)
        assert exact <= upper + 1e-12


def test_neighbor_bound_rejects_non_tridiagonal():
    y = SortedSequence(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        neighbor_error_bound(y, np.full((3, 3), 1 / 3))


def test_empirical_constants_shapes():
    m = init_model(2, hidden_sizes=(8,), seed=0)
    data = TokenSet(np.random.default_rng(0).uniform(size=(50, 2)))
    out = empirical_constants(m, data)
    assert set(out) == {"K_e", "K_d", "B"}
    assert all(v >= 0 for v in out.values())
