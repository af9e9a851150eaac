"""Test oracle: multiset comparison of two spectra."""

import numpy as np
from scipy.optimize import linear_sum_assignment

from couplingflow import matcore


def spectra_match(s1, s2, rtol: float = 1e-6) -> bool:
    """True when the optimal matching of two spectra pairs every eigenvalue
    within rtol times the larger spectral radius."""
    s1 = np.asarray(s1)
    s2 = np.asarray(s2)
    if s1.shape != s2.shape:
        return False
    scale = max(matcore.spectral_radius(s1), matcore.spectral_radius(s2), 1e-300)
    cost = np.abs(s1[:, None] - s2[None, :])
    rows, cols = linear_sum_assignment(cost)
    return bool(np.max(cost[rows, cols]) <= rtol * scale)
