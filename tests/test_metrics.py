import itertools
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from couplingflow import metrics


def brute_force_w(a, b, squared):
    """Exhaustive minimum over all assignments (the independent oracle)."""
    n = a.shape[0]
    best = np.inf
    for perm in itertools.permutations(range(n)):
        d = np.linalg.norm(a - b[list(perm)], axis=1)
        cost = np.mean(d**2) if squared else np.mean(d)
        best = min(best, cost)
    return np.sqrt(best) if squared else best


def test_identical_clouds_cost_zero():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((10, 3))
    for metric in (metrics.W1, metrics.W2):
        assert metrics.empirical_wasserstein(a, a.copy(), metric).cost == 0.0


def test_two_points_distance():
    a = np.array([[0.0, 0.0]])
    b = np.array([[3.0, 4.0]])
    assert metrics.empirical_wasserstein(a, b, metrics.W1).cost == 5.0
    assert metrics.empirical_wasserstein(a, b, metrics.W2).cost == 5.0


def unreduced_scipy_w(a, b, squared):
    """One dense solve on the full, unreduced cost matrix (the reference)."""
    dist = cdist(a, b, "sqeuclidean" if squared else "euclidean")
    rows, cols = linear_sum_assignment(dist)
    mean = np.mean(dist[rows, cols])
    return np.sqrt(mean) if squared else mean


def test_matches_brute_force_n6():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((6, 2))
    b = rng.standard_normal((6, 2))
    # no shared rows, then rows 0 and 3, then rows 1, 2, 4 and 5 shared
    for shared in ([], [0, 3], [1, 2, 4, 5]):
        b_shared = b.copy()
        b_shared[shared] = a[shared]
        w1 = metrics.empirical_wasserstein(a, b_shared, metrics.W1)
        w2 = metrics.empirical_wasserstein(a, b_shared, metrics.W2)
        assert abs(w1.cost - brute_force_w(a, b_shared, squared=False)) <= 1e-12
        assert abs(w2.cost - brute_force_w(a, b_shared, squared=True)) <= 1e-12


def test_w2_does_not_pair_shared_rows():
    # pairing the shared row 1 <-> 1 would give sqrt(2); squared distance
    # is not a metric, so the optimum crosses over
    a = np.array([[0.0], [1.0]])
    b = np.array([[2.0], [1.0]])
    assert metrics.empirical_wasserstein(a, b, metrics.W2).cost == 1.0
    assert metrics.empirical_wasserstein(a, b, metrics.W1).cost == 1.0


def test_shared_and_duplicate_rows_match_brute_force():
    rng = np.random.default_rng(6)
    for trial in range(80):
        n, m = int(rng.integers(1, 8)), int(rng.integers(1, 4))
        # few distinct values, so duplicate rows within and across clouds occur
        a = rng.integers(-2, 3, size=(n, m)).astype(float)
        b = rng.integers(-2, 3, size=(n, m)).astype(float)
        if trial % 2:
            # down to near-equal rows, which must not count as shared
            scale = 10.0 ** rng.uniform(-9, -1)
            a += scale * rng.standard_normal((n, m))
            b += scale * rng.standard_normal((n, m))
        shared = rng.random(n) < rng.random()
        b[shared] = a[shared]
        dup = rng.integers(0, n, size=2)
        a[dup[0]] = a[dup[1]]
        for metric, squared in ((metrics.W1, False), (metrics.W2, True)):
            plan = metrics.empirical_wasserstein(a, b, metric)
            assert sorted(plan.assignment) == list(range(n))
            assert abs(plan.cost - brute_force_w(a, b, squared)) <= 1e-12, (trial, metric)


def _equivalence_clouds(rng, kind, n, m):
    a = rng.standard_normal((n, m))
    if kind == "identical":
        return a, a.copy()
    b = a + 0.05 * rng.standard_normal((n, m))
    if kind == "shared":
        # all but 3% of the rows equal, as in a selector push
        keep = rng.random(n) < 0.97
        b[keep] = a[keep]
    return a, b


@pytest.mark.parametrize("n", [64, 200, 512])
@pytest.mark.parametrize("kind", ["perturbed", "shared", "identical"])
def test_matches_unreduced_scipy_solve(n, kind):
    rng = np.random.default_rng(n)
    a, b = _equivalence_clouds(rng, kind, n, 2 if kind == "perturbed" else 16)
    a_before, b_before = a.copy(), b.copy()
    for metric, squared in ((metrics.W1, False), (metrics.W2, True)):
        cost = metrics.empirical_wasserstein(a, b, metric).cost
        if kind == "identical":
            assert cost == 0.0
        want = unreduced_scipy_w(a, b, squared)
        assert abs(cost - want) <= 1e-12 * want
    assert np.array_equal(a, a_before) and np.array_equal(b, b_before)


def test_assignment_is_bijection_and_beats_identity():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((30, 4))
    b = rng.standard_normal((30, 4))
    plan = metrics.empirical_wasserstein(a, b, metrics.W1)
    assert sorted(plan.assignment) == list(range(30))
    identity_cost = float(np.mean(np.linalg.norm(a - b, axis=1)))
    assert plan.cost <= identity_cost + 1e-12


def test_symmetry():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((25, 3))
    b = rng.standard_normal((25, 3))
    for metric in (metrics.W1, metrics.W2):
        ab = metrics.empirical_wasserstein(a, b, metric).cost
        ba = metrics.empirical_wasserstein(b, a, metric).cost
        assert abs(ab - ba) <= 1e-12


def test_triangle_inequality_w1():
    rng = np.random.default_rng(4)
    a, b, c = (rng.standard_normal((20, 2)) for _ in range(3))
    ab = metrics.empirical_wasserstein(a, b, metrics.W1).cost
    bc = metrics.empirical_wasserstein(b, c, metrics.W1).cost
    ac = metrics.empirical_wasserstein(a, c, metrics.W1).cost
    assert ac <= ab + bc + 1e-9


def test_cost_matrix_reduced_in_place():
    # one n x n matrix at a time: a reduced copy would double the peak
    rng = np.random.default_rng(7)
    n = 512
    a, b = rng.standard_normal((n, 2)), rng.standard_normal((n, 2))
    tracemalloc.start()
    try:
        metrics.empirical_wasserstein(a, b, metrics.W2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert n * n * 8 <= peak < 1.5 * n * n * 8


def test_size_mismatch_rejected():
    with pytest.raises(ValueError):
        metrics.empirical_wasserstein(np.zeros((3, 2)), np.zeros((4, 2)))


def test_relative_frobenius():
    assert metrics.relative_frobenius(np.eye(3), np.eye(3)) == 0.0
    assert metrics.relative_frobenius(np.zeros((3, 3)), np.eye(3)) == 1.0
    rng = np.random.default_rng(5)
    b = rng.standard_normal((4, 4))
    e = rng.standard_normal((4, 4))
    val = metrics.relative_frobenius(b + e, b)
    assert abs(val - np.linalg.norm(e) / np.linalg.norm(b)) <= 1e-12
    # zero denominator falls back to the absolute norm
    assert metrics.relative_frobenius(np.eye(2), np.zeros((2, 2))) == np.sqrt(2.0)
