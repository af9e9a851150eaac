import numpy as np
from scipy.special import ndtr

from couplingflow import coupling as cp
from couplingflow import decomposer as dc
from couplingflow import separation as sep


def test_signed_permutation_plan_signs():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = rng.permutation(8)
        plan = dc.permutation_plan(p)
        assert len(plan.layers) <= plan.layer_budget
        assert np.all(np.abs(plan.sign_vector) == 1.0)
        # sign vector reproduces the product exactly
        m = cp.as_matrix(plan.layers)
        rebuilt = np.zeros((8, 8))
        rebuilt[p, np.arange(8)] = plan.sign_vector
        assert np.array_equal(m, rebuilt)


def test_selector_transition_zones_carry_total_mass_delta():
    mix = sep.random_mixture(8, 16, 1.0, seed=1)
    delta = sep.selector_delta(0.5, 1.0, 16, 8)
    net = sep.build_selector_net(mix, delta)
    masses = ndtr(net.zone_hi) - ndtr(net.zone_lo)
    assert np.max(np.abs(masses - delta / 7)) <= 1e-12
    assert abs(np.sum(masses) - delta) <= 1e-12
