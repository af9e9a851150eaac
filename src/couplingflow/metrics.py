"""Empirical optimal-transport distances and residual metrics.

Clouds are (n, m) arrays of n points in R^m. Distances between equal-size
clouds are computed by an exact optimal assignment (no entropic smoothing),
which is affordable at the desk scale used here (n <= 4096).

The assignment solves only the rows it must, and stays exact:

* W1 pairs a[i] with b[i] wherever the two rows are equal in every
  coordinate, and solves the rest. Some optimal plan holds every such pair:
  if a plan sends a[i] to b[k] (k != i) and a[l] to b[i], pairing i with i
  and l with k costs d(a_l, b_k) <= d(a_l, b_i) + d(b_i, b_k) =
  d(a_l, b_i) + d(a_i, b_k) by the triangle inequality, so no more. Each
  such exchange fixes one more shared row and unfixes none. Only rows
  aligned by index are paired; clouds drawn from the same inputs in the
  same order (a push and its reference) share most rows this way.
* W2 solves every row. Its squared cost is not a metric and the argument
  fails: for a = [[0], [1]] and b = [[2], [1]], pairing the shared row
  gives sqrt(2), while the optimum is 1.
* The dense solve runs on column-reduced costs (each column's minimum
  subtracted in place), which shift every assignment's total by the same
  constant and so leave the optimal assignments unchanged.
* The reported cost is taken from exact differences of the matched rows,
  not from the reduced cost matrix.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

MAX_CLOUD = 4096

W1 = "w1_euclidean"
W2 = "w2_euclidean"


@dataclass(frozen=True)
class TransportPlanResult:
    assignment: np.ndarray  # b[assignment[i]] matched to a[i]
    cost: float


def empirical_wasserstein(a, b, metric=W2) -> TransportPlanResult:
    """Exact empirical Wasserstein distance between two equal-size clouds.

    W1 is the mean matched euclidean distance, W2 the root mean squared
    matched distance; each is minimized over assignments for its own cost.
    For W1 (only) rows with a[i] == b[i] are paired i <-> i without a
    solve; see the module docstring for why that is exact. ``a`` and ``b``
    are not modified.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape != b.shape:
        raise ValueError(f"clouds must have identical (n, m) shapes, got {a.shape} vs {b.shape}")
    if a.shape[0] == 0:
        raise ValueError(f"clouds are empty, shape {a.shape}")
    if a.shape[0] > MAX_CLOUD:
        raise ValueError(f"cloud size {a.shape[0]} exceeds {MAX_CLOUD}")
    if metric not in (W1, W2):
        raise ValueError(f"unknown metric {metric!r}")
    n = a.shape[0]
    todo = np.flatnonzero(np.any(a != b, axis=1)) if metric == W1 else np.arange(n)
    assignment = np.arange(n, dtype=np.int64)
    if todo.size:
        dist = cdist(a[todo], b[todo], "sqeuclidean" if metric == W2 else "euclidean")
        # in place: a reduced copy would double the n x n peak
        dist -= dist.min(axis=0)
        _, cols = linear_sum_assignment(dist)
        assignment[todo] = todo[cols]
    sq = np.sum((a - b[assignment]) ** 2, axis=1)
    cost = float(np.sqrt(np.mean(sq))) if metric == W2 else float(np.mean(np.sqrt(sq)))
    return TransportPlanResult(assignment=assignment, cost=cost)


def relative_frobenius(a, b) -> float:
    """||a - b||_F / ||b||_F, falling back to the absolute norm when b = 0."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    denom = np.linalg.norm(b)
    diff = np.linalg.norm(a - b)
    return float(diff if denom == 0.0 else diff / denom)
