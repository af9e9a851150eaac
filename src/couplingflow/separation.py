"""Constructions behind the depth separation for general invertible models:
well-separated codebooks, low-overlap subset families, the ReLU selector
generator for Gaussian mixtures, the dual witness that lower-bounds W1
between separated mixtures, and the epsilon-net / transport-inequality
calculators.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist
from scipy.special import ndtri

from couplingflow.errors import RetryBudgetExhaustedError
from couplingflow.rng import stream

RETRY_FACTOR = 100  # draw budget multiplier for the rejection samplers


# ---------------------------------------------------------------------------
# codebooks and subset families


@dataclass(frozen=True)
class Codebook:
    """Unit vectors with pairwise squared distance >= 2(1 - eps_sep)."""

    vectors: np.ndarray
    eps_sep: float

    def __post_init__(self):
        v = self.vectors
        norms = np.linalg.norm(v, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-12:
            raise ValueError("codebook vectors must be unit norm")
        gram = v @ v.T
        n = v.shape[0]
        if n > 1:
            off = gram[~np.eye(n, dtype=bool)]
            if np.max(np.abs(off)) > self.eps_sep + 1e-12:
                raise ValueError("pairwise separation violated")


def well_separated_vectors(d: int, eps: float, n_target: int, seed: int) -> Codebook:
    """Rejection-sample unit vectors with pairwise |<v_i, v_j>| <= eps.

    The existence bound floor(exp(d eps^2 / 4)) and the d >= 8 regime are
    guidance, not hard preconditions: smaller cases are attempted anyway
    and fail with RetryBudgetExhaustedError if the sampler runs out of its
    100 * n_target draw budget.
    """
    if n_target < 1:
        raise ValueError("n_target must be positive")
    rng = stream(seed, "separation", "codebook", d, eps, n_target)
    accepted = np.zeros((0, d))
    budget = RETRY_FACTOR * n_target
    for _ in range(budget):
        v = rng.standard_normal(d)
        v /= np.linalg.norm(v)
        if accepted.shape[0] == 0 or np.max(np.abs(accepted @ v)) <= eps:
            accepted = np.vstack([accepted, v])
            if accepted.shape[0] == n_target:
                return Codebook(vectors=accepted, eps_sep=float(eps))
    raise RetryBudgetExhaustedError(
        f"accepted {accepted.shape[0]}/{n_target} vectors in {budget} draws")


@dataclass(frozen=True)
class SubsetFamily:
    """k-element subsets of a pool with pairwise intersection <= k // 10."""

    subsets: tuple
    k: int

    @property
    def max_overlap(self):
        return self.k // 10

    def __post_init__(self):
        for s in self.subsets:
            if len(s) != self.k:
                raise ValueError("subset has wrong cardinality")
        for i in range(len(self.subsets)):
            for j in range(i + 1, len(self.subsets)):
                if len(self.subsets[i] & self.subsets[j]) > self.max_overlap:
                    raise ValueError("overlap bound violated")


def low_overlap_subsets(n_pool: int, k: int, count: int, seed: int) -> SubsetFamily:
    """Random k-subsets of range(n_pool), rejecting overlaps above k // 10."""
    if k < 10:
        raise ValueError("k >= 10 required so the overlap budget is at least 1")
    if k > n_pool:
        raise ValueError("subset size exceeds pool")
    rng = stream(seed, "separation", "subsets", n_pool, k, count)
    cap = k // 10
    chosen = []
    budget = RETRY_FACTOR * count
    for _ in range(budget):
        cand = frozenset(int(x) for x in rng.choice(n_pool, size=k, replace=False))
        if all(len(cand & prev) <= cap for prev in chosen):
            chosen.append(cand)
            if len(chosen) == count:
                return SubsetFamily(subsets=tuple(chosen), k=k)
    raise RetryBudgetExhaustedError(
        f"accepted {len(chosen)}/{count} subsets in {budget} draws")


# ---------------------------------------------------------------------------
# Gaussian mixtures


@dataclass(frozen=True)
class MixtureSpec:
    """Equal-weight spherical Gaussian mixture with means of squared norm
    20 * gamma^2 * d."""

    means: np.ndarray
    gamma: float

    def __post_init__(self):
        k, d = self.means.shape
        want = 20.0 * self.gamma**2 * d
        norms = np.sum(self.means**2, axis=1)
        if np.max(np.abs(norms - want)) > 1e-9 * want:
            raise ValueError("means violate the norm condition")

    @property
    def k(self):
        return self.means.shape[0]

    @property
    def dim(self):
        return self.means.shape[1]


def mean_radius(gamma: float, d: int) -> float:
    return math.sqrt(20.0 * gamma**2 * d)


def mixture_from_directions(directions, gamma: float) -> MixtureSpec:
    """Scale unit direction vectors onto the required mean sphere."""
    directions = np.asarray(directions, dtype=np.float64)
    radius = mean_radius(gamma, directions.shape[1])
    return MixtureSpec(means=radius * directions, gamma=float(gamma))


def random_mixture(k: int, d: int, gamma: float, seed: int) -> MixtureSpec:
    rng = stream(seed, "separation", "mixture", k, d)
    dirs = rng.standard_normal((k, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return mixture_from_directions(dirs, gamma)


def exact_mixture_sample(mixture: MixtureSpec, n: int, seed: int) -> np.ndarray:
    """Ground-truth sampler: uniform component, then N(mu_i, gamma^2 I)."""
    if n < 1:
        raise ValueError("n must be positive")
    rng = stream(seed, "separation", "mixture-sample", n)
    comp = rng.integers(0, mixture.k, size=n)
    z = rng.standard_normal((n, mixture.dim))
    return mixture.means[comp] + mixture.gamma * z


# ---------------------------------------------------------------------------
# selector network


@dataclass(frozen=True)
class SelectorNet:
    """ReLU generator for a k-component mixture.

    A scalar Gaussian coordinate h is routed through k approximate interval
    indicators built from shared boundary ramps (two ReLUs each), so the
    indicators telescope to an exact partition of unity; the selected mean
    is injected through the clipped-linear ReLU pairs
    ReLU(-M(1 - ind) + mu) - ReLU(-M(1 - ind) - mu).
    """

    mixture: MixtureSpec
    thresholds: np.ndarray  # k-1 equal-probability boundaries
    zone_lo: np.ndarray     # transition zone per boundary
    zone_hi: np.ndarray
    delta: float            # total Gaussian mass of all transition zones
    big_m: float

    @property
    def k(self):
        return self.mixture.k

    def ramps(self, h):
        """Ramp r_j rising 0 -> 1 across transition zone j; shape (n, k-1)."""
        h = np.asarray(h, dtype=np.float64)[:, None]
        width = self.zone_hi - self.zone_lo
        return np.clip((h - self.zone_lo) / width, 0.0, 1.0)

    def indicators(self, h):
        """Approximate interval indicators, exact partition of unity."""
        r = self.ramps(h)
        n = r.shape[0]
        ones = np.ones((n, 1))
        zeros = np.zeros((n, 1))
        upper = np.concatenate([ones, r], axis=1)      # ramp already passed
        lower = np.concatenate([r, zeros], axis=1)     # next ramp
        return upper - lower

    def evaluate(self, h, z):
        """The generator f(h, z); h is (n,), z is (n, d)."""
        ind = self.indicators(h)
        gap = -self.big_m * (1.0 - ind)  # (n, k)
        arg_plus = gap[:, :, None] + self.mixture.means[None, :, :]
        arg_minus = gap[:, :, None] - self.mixture.means[None, :, :]
        relu_terms = np.maximum(arg_plus, 0.0) - np.maximum(arg_minus, 0.0)
        return self.mixture.gamma * np.asarray(z) + np.sum(relu_terms, axis=1)

    def evaluate_exact(self, h, z):
        """The exact indicator map: gamma z + mu_{interval(h)}."""
        idx = np.searchsorted(self.thresholds, np.asarray(h, dtype=np.float64), side="left")
        return self.mixture.gamma * np.asarray(z) + self.mixture.means[idx]


def selector_delta(eps: float, gamma: float, d: int, k: int) -> float:
    """Transition mass delta = eps / (2 M sqrt(d) k) delivering W1 <= eps."""
    return eps / (2.0 * mean_radius(gamma, d) * math.sqrt(d) * k)


def build_selector_net(mixture: MixtureSpec, delta: float) -> SelectorNet:
    """Selector with equal-probability thresholds and transition zones of
    Gaussian mass delta/(k-1) placed symmetrically around each threshold in
    quantile space."""
    k = mixture.k
    if k < 2:
        raise ValueError(f"a selector needs at least 2 components, got {k}")
    if not 0.0 < delta < 1.0 / k:
        raise ValueError("delta must lie in (0, 1/k)")
    qs = np.arange(1, k) / k
    half = delta / (2.0 * (k - 1))
    thresholds = ndtri(qs)
    zone_lo = ndtri(qs - half)
    zone_hi = ndtri(qs + half)
    return SelectorNet(mixture=mixture, thresholds=thresholds, zone_lo=zone_lo,
                       zone_hi=zone_hi, delta=float(delta),
                       big_m=mean_radius(mixture.gamma, mixture.dim))


def selector_w1_bound(net: SelectorNet) -> float:
    """The coupling bound 2 M sqrt(d) k delta on W1(selector, exact mixture)."""
    return 2.0 * net.big_m * math.sqrt(net.mixture.dim) * net.k * net.delta


# ---------------------------------------------------------------------------
# dual witness and calculators


def w1_witness(samples_mu, samples_nu, separated_means, gamma: float) -> float:
    """Kantorovich dual lower-bound estimate of W1 via the 1-Lipschitz
    witness phi(x) = max(0, 2 gamma sqrt(d) - min_{i in S} |x - mu_i|)."""
    samples_mu = np.asarray(samples_mu, dtype=np.float64)
    samples_nu = np.asarray(samples_nu, dtype=np.float64)
    if samples_mu.size == 0 or samples_nu.size == 0:
        raise ValueError("empty sample set")
    means = np.asarray(separated_means, dtype=np.float64)
    d = samples_mu.shape[1]
    cap = 2.0 * gamma * math.sqrt(d)

    def phi(x):
        return np.maximum(0.0, cap - np.min(cdist(x, means), axis=1))

    return float(np.mean(phi(samples_mu)) - np.mean(phi(samples_nu)))


def epsnet_log_size(lipschitz: float, radius: float, d_params: int, eps: float) -> float:
    """log of the epsilon-net size bound (L R / eps)^{d'} for Lipschitz
    bound L, parameter radius R and total parameter count d', constant
    dropped."""
    if min(lipschitz, radius, d_params, eps) <= 0:
        raise ValueError("lipschitz, radius, d_params and eps must be positive")
    ratio = lipschitz * radius / eps
    if ratio <= 1.0:
        return 0.0
    return d_params * math.log(ratio)


def kl_lower_bound(w1: float, c2: float) -> float:
    """Transport inequality: KL >= W1^2 / (2 c^2) for c^2-subgaussian
    witnesses."""
    if w1 < 0 or c2 <= 0:
        raise ValueError("need w1 >= 0 and c2 > 0")
    return w1 * w1 / (2.0 * c2)
