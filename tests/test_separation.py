import numpy as np
import pytest
from scipy.special import ndtri

from couplingflow import metrics
from couplingflow import separation as sep
from couplingflow.errors import RetryBudgetExhaustedError
from couplingflow.rng import stream


def test_codebook_degenerate_small_case():
    # eps = 1 accepts any pair of unit vectors
    cb = sep.well_separated_vectors(2, 1.0, 2, seed=0)
    assert cb.vectors.shape == (2, 2)
    assert np.max(np.abs(np.linalg.norm(cb.vectors, axis=1) - 1.0)) <= 1e-12


def test_codebook_pairwise_separation():
    cb = sep.well_separated_vectors(128, 0.5, 100, seed=1)
    v = cb.vectors
    assert v.shape == (100, 128)
    gram = v @ v.T
    np.fill_diagonal(gram, 0.0)
    assert np.max(np.abs(gram)) <= 0.5
    d2 = np.sum((v[:, None, :] - v[None, :, :]) ** 2, axis=2)
    np.fill_diagonal(d2, np.inf)
    assert np.min(d2) >= 2 * (1 - 0.5) - 1e-9


def test_codebook_budget_exhaustion():
    # 50 vectors in R^3 with near-orthogonality is hopeless
    with pytest.raises(RetryBudgetExhaustedError):
        sep.well_separated_vectors(3, 0.1, 50, seed=2)


def test_codebook_validation_rejects_bad_vectors():
    with pytest.raises(ValueError):
        sep.Codebook(vectors=np.array([[1.0, 0.0], [2.0, 0.0]]), eps_sep=0.5)


def test_low_overlap_subsets():
    fam = sep.low_overlap_subsets(1000, 10, 2, seed=3)
    assert len(fam.subsets) == 2
    assert all(len(s) == 10 for s in fam.subsets)
    assert len(fam.subsets[0] & fam.subsets[1]) <= 1
    single = sep.low_overlap_subsets(100, 12, 1, seed=4)
    assert len(single.subsets[0]) == 12


def test_low_overlap_rejects_small_k():
    with pytest.raises(ValueError):
        sep.low_overlap_subsets(100, 5, 2, seed=5)


def test_mixture_spec_norm_condition():
    mix = sep.random_mixture(6, 12, 0.7, seed=6)
    want = 20 * 0.7**2 * 12
    assert np.max(np.abs(np.sum(mix.means**2, axis=1) - want)) <= 1e-9 * want
    with pytest.raises(ValueError):
        sep.MixtureSpec(means=np.ones((2, 4)), gamma=1.0)


def test_exact_mixture_sampler_stats():
    mix = sep.mixture_from_directions(np.array([[1.0] + [0.0] * 15]), 1.0)
    s = sep.exact_mixture_sample(mix, 4000, seed=7)
    center = mix.means[0]
    assert np.max(np.abs(np.mean(s, axis=0) - center)) <= 3.0 / np.sqrt(4000) * 1.5
    # determinism
    assert np.array_equal(s, sep.exact_mixture_sample(mix, 4000, seed=7))


def test_exact_mixture_component_frequencies():
    mix = sep.random_mixture(4, 8, 1.0, seed=8)
    n = 8000
    s = sep.exact_mixture_sample(mix, n, seed=9)
    # nearest-mean assignment recovers the component (means are far apart)
    d2 = np.sum((s[:, None, :] - mix.means[None, :, :]) ** 2, axis=2)
    counts = np.bincount(np.argmin(d2, axis=1), minlength=4)
    assert np.max(np.abs(counts / n - 0.25)) <= 3 * np.sqrt(0.25 * 0.75 / n)


# ---------------------------------------------------------------------------
# selector network


def test_selector_thresholds_equal_probability():
    m2 = sep.random_mixture(2, 4, 1.0, seed=10)
    assert np.allclose(sep.build_selector_net(m2, 0.01).thresholds, [0.0], atol=1e-12)
    m4 = sep.random_mixture(4, 4, 1.0, seed=11)
    net = sep.build_selector_net(m4, 0.01)
    assert np.allclose(net.thresholds, ndtri(np.array([0.25, 0.5, 0.75])), atol=1e-12)


def test_selector_delta_range_validation():
    mix = sep.random_mixture(4, 4, 1.0, seed=12)
    with pytest.raises(ValueError):
        sep.build_selector_net(mix, 0.3)  # >= 1/k
    with pytest.raises(ValueError):
        sep.build_selector_net(mix, 0.0)


def test_selector_partition_of_unity():
    mix = sep.random_mixture(8, 16, 1.0, seed=13)
    net = sep.build_selector_net(mix, sep.selector_delta(0.5, 1.0, 16, 8))
    h = stream(14, "pou").standard_normal(100000)
    assert np.max(np.abs(net.indicators(h).sum(axis=1) - 1.0)) <= 1e-10


def test_selector_agrees_with_exact_outside_zones():
    mix = sep.random_mixture(8, 16, 1.0, seed=15)
    net = sep.build_selector_net(mix, sep.selector_delta(0.5, 1.0, 16, 8))
    rng = stream(16, "agree")
    h = rng.standard_normal(5000)
    z = rng.standard_normal((5000, 16))
    outside = ~np.any((h[:, None] > net.zone_lo) & (h[:, None] < net.zone_hi), axis=1)
    diff = net.evaluate(h, z) - net.evaluate_exact(h, z)
    assert np.max(np.abs(diff[outside])) == 0.0


def test_selector_pushforward_w1_bound():
    # coupled estimate against the exact-indicator mixture sampler
    for k, d in ((4, 8), (8, 16)):
        mix = sep.random_mixture(k, d, 1.0, seed=17 + k)
        delta = sep.selector_delta(0.5, 1.0, d, k)
        net = sep.build_selector_net(mix, delta)
        rng = stream(18, "w1", k, d)
        n = 4096
        h = rng.standard_normal(n)
        z = rng.standard_normal((n, d))
        plan = metrics.empirical_wasserstein(net.evaluate(h, z), net.evaluate_exact(h, z),
                                             metrics.W1)
        assert plan.cost <= sep.selector_w1_bound(net)


# ---------------------------------------------------------------------------
# dual witness


def test_witness_identical_samples_zero():
    rng = stream(21, "witness")
    s = rng.standard_normal((100, 8))
    means = rng.standard_normal((3, 8))
    assert sep.w1_witness(s, s.copy(), means, 1.0) == 0.0


def test_witness_single_gaussian_symmetric():
    rng = stream(22, "witness2")
    center = np.zeros(16)
    a = center + rng.standard_normal((4096, 16))
    b = center + rng.standard_normal((4096, 16))
    w = sep.w1_witness(a, b, center[None, :], 1.0)
    # both clouds share the law; the witness is zero up to Monte-Carlo error
    assert abs(w) <= 3 * 2 * np.sqrt(16) / np.sqrt(4096)


def test_witness_separated_mixtures():
    cb = sep.well_separated_vectors(64, 0.5, 32, seed=23)
    mu = sep.mixture_from_directions(cb.vectors[:16], 1.0)
    nu = sep.mixture_from_directions(cb.vectors[16:], 1.0)
    w = sep.w1_witness(sep.exact_mixture_sample(mu, 8192, seed=24),
                       sep.exact_mixture_sample(nu, 8192, seed=25), mu.means, 1.0)
    assert w >= 0.05 * np.sqrt(64)


def test_witness_lower_bounds_exact_w1():
    # duality direction: witness <= assignment-based W1 + Monte-Carlo slack
    rng = stream(26, "witness3")
    mu_means = np.array([[2.0, 0.0], [-2.0, 0.0]]) * np.sqrt(20 * 2) / 2
    a = mu_means[rng.integers(0, 2, 512)] + rng.standard_normal((512, 2))
    b = rng.standard_normal((512, 2))
    w_dual = sep.w1_witness(a, b, mu_means, 1.0)
    w_exact = metrics.empirical_wasserstein(a, b, metrics.W1).cost
    stderr = np.std(np.linalg.norm(a - b, axis=1)) / np.sqrt(512)
    assert w_dual <= w_exact + 3 * stderr


def test_witness_rejects_empty():
    with pytest.raises(ValueError):
        sep.w1_witness(np.zeros((0, 2)), np.zeros((1, 2)), np.zeros((1, 2)), 1.0)


# ---------------------------------------------------------------------------
# calculators


def test_epsnet_log_size():
    assert abs(sep.epsnet_log_size(np.e, np.e, 1, 1.0) - 2.0) <= 1e-12
    assert sep.epsnet_log_size(np.e, np.e, 1, np.e * np.e) == 0.0
    assert abs(sep.epsnet_log_size(np.e, np.e, 2, 1.0)
               - 2 * sep.epsnet_log_size(np.e, np.e, 1, 1.0)) <= 1e-12


def test_kl_lower_bound():
    assert sep.kl_lower_bound(0.0, 1.0) == 0.0
    assert sep.kl_lower_bound(2.0, 1.0) == 2.0
    # formula shape at the separation scale: w1 = 10 gamma^2 d, c2 = L^2
    gamma, d, lip = 0.5, 32, 3.0
    val = sep.kl_lower_bound(10 * gamma**2 * d, lip**2)
    assert abs(val - 50 * gamma**4 * d**2 / lip**2) <= 1e-9 * val
    with pytest.raises(ValueError):
        sep.kl_lower_bound(-1.0, 1.0)


def test_bounds_validation():
    for args in ((0.0, 1.0, 1, 1.0), (1.0, -1.0, 1, 1.0), (1.0, 1.0, 0, 1.0), (1.0, 1.0, 1, 0.0)):
        with pytest.raises(ValueError, match="must be positive"):
            sep.epsnet_log_size(*args)
