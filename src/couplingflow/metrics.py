"""Empirical optimal-transport distances and residual metrics.

Clouds are (n, m) arrays of n points in R^m. Distances between equal-size
clouds are computed by an exact optimal assignment (no entropic smoothing),
which is affordable at the desk scale used here (n <= 4096).
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
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape != b.shape:
        raise ValueError(f"clouds must have identical (n, m) shapes, got {a.shape} vs {b.shape}")
    if a.shape[0] > MAX_CLOUD:
        raise ValueError(f"cloud size {a.shape[0]} exceeds {MAX_CLOUD}")
    if metric not in (W1, W2):
        raise ValueError(f"unknown metric {metric!r}")
    # cdist takes exact differences, so the matched entries are the cost
    dist = cdist(a, b, "sqeuclidean" if metric == W2 else "euclidean")
    rows, cols = linear_sum_assignment(dist)
    assignment = np.empty(a.shape[0], dtype=np.int64)
    assignment[rows] = cols
    mean = float(np.mean(dist[rows, cols]))
    return TransportPlanResult(assignment=assignment,
                               cost=float(np.sqrt(mean)) if metric == W2 else mean)


def relative_frobenius(a, b) -> float:
    """||a - b||_F / ||b||_F, falling back to the absolute norm when b = 0."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    denom = np.linalg.norm(b)
    diff = np.linalg.norm(a - b)
    return float(diff if denom == 0.0 else diff / denom)
