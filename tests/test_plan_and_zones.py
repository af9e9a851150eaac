import numpy as np
from scipy.special import ndtr

from couplingflow import coupling as cp
from couplingflow import decomposer as dc
from couplingflow import separation as sep


def test_signed_permutation_plan_signs():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = rng.permutation(8)
        layers = dc.permutation_layers(p)
        assert len(layers) <= dc.PERMUTATION_BUDGET
        m = cp.as_matrix(layers)
        signs = m[p, np.arange(8)]
        assert np.all(np.abs(signs) == 1.0)
        # the signs reproduce the product exactly
        rebuilt = np.zeros((8, 8))
        rebuilt[p, np.arange(8)] = signs
        assert np.array_equal(m, rebuilt)

def test_selector_transition_zones_carry_total_mass_delta():
    mix = sep.random_mixture(8, 16, 1.0, seed=1)
    delta = sep.selector_delta(0.5, 1.0, 16, 8)
    net = sep.build_selector_net(mix, delta)
    masses = ndtr(net.zone_hi) - ndtr(net.zone_lo)
    assert np.max(np.abs(masses - delta / 7)) <= 1e-12
    assert abs(np.sum(masses) - delta) <= 1e-12
