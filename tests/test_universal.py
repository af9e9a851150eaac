import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import kstest

from couplingflow import metrics
from couplingflow import universal as uv


def test_truncate():
    assert np.array_equal(uv.truncate(np.array([1.0, -2.0]), 3.0), [1.0, -2.0])
    assert np.array_equal(uv.truncate(np.array([5.0, -7.0]), 3.0), [3.0, -3.0])
    rng = np.random.default_rng(0)
    x = 10 * rng.standard_normal(50)
    once = uv.truncate(x, 2.5)
    assert np.array_equal(uv.truncate(once, 2.5), once)
    with pytest.raises(ValueError):
        uv.truncate(x, 0.0)


# ---------------------------------------------------------------------------
# grid rounding


def test_grid_rounder_basics():
    x = np.array([[0.6, -0.2], [1.24, 0.76]])
    f = uv.grid_round(x, 0.5)
    assert np.allclose(f % 0.5, 0.0)
    assert np.max(np.abs(x - f)) <= 0.25 + 1e-15
    assert np.allclose(uv.grid_residual(x, 0.5), x - f)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_grid_rounder_recovery_property(seed):
    # f(f(x) + eps1 y) = f(x) and residual recovery, for y below half a pitch
    rng = np.random.default_rng(seed)
    eps = 0.5
    eps1 = eps * eps / 4.0
    x = 4.0 * rng.standard_normal(3)
    y = rng.uniform(-1, 1, size=3) * (0.49 * eps / eps1)
    z = uv.grid_round(x, eps) + eps1 * y
    assert np.array_equal(uv.grid_round(z, eps), uv.grid_round(x, eps))
    assert np.max(np.abs(uv.grid_residual(z, eps) - eps1 * y)) <= 1e-12


# ---------------------------------------------------------------------------
# transports


def test_affine_transport_roundtrip():
    phi = uv.AffineTransport(shift=np.array([1.0, -2.0]),
                             linear=np.array([[2.0, 0.3], [0.0, 0.7]]))
    rng = np.random.default_rng(1)
    x = rng.standard_normal((20, 2))
    assert np.max(np.abs(phi.inverse(phi.forward(x)) - x)) <= 1e-12


def test_affine_transport_rejects_orientation_reversal():
    with pytest.raises(ValueError):
        uv.AffineTransport(shift=np.zeros(2), linear=np.diag([1.0, -1.0]))


def gaussian_table(lo=-5.5, hi=5.5, n=4001):
    # beyond ~5.5 sigma the upper-tail CDF saturates in float64 and the
    # table would stop being strictly increasing
    vals = np.linspace(lo, hi, n)
    return vals, ndtr(vals)


def test_quantile_transport_gaussian_is_identity():
    phi = uv.quantile_transport([gaussian_table()])
    x = np.linspace(-3, 3, 201)[:, None]
    assert np.max(np.abs(phi.forward(x) - x)) <= 1e-3


def test_quantile_transport_uniform_median():
    vals = np.linspace(0.0, 1.0, 1001)
    phi = uv.quantile_transport([(vals, vals)])
    assert abs(phi.forward(np.array([[0.0]]))[0, 0] - 0.5) <= 1e-12


def test_quantile_transport_roundtrip():
    vals = np.linspace(0.0, 1.0, 2001)
    cdf = vals**2  # triangular-ish target on [0, 1]
    cdf[0], cdf[-1] = 0.0, 1.0
    phi = uv.quantile_transport([(vals[1:], cdf[1:])])
    y = np.linspace(0.05, 0.95, 41)[:, None]
    assert np.max(np.abs(phi.forward(phi.inverse(y)) - y)) <= 1e-8


def test_quantile_transport_ks_statistic():
    phi = uv.quantile_transport([(np.linspace(0, 1, 4001),
                                  np.linspace(0, 1, 4001) ** 2)])
    rng = np.random.default_rng(2)
    x = rng.standard_normal((100000, 1))
    pushed = phi.forward(x)[:, 0]
    stat = kstest(pushed, lambda v: np.clip(v, 0, 1) ** 2).statistic
    assert stat <= 0.01


def test_quantile_transport_rejects_nonmonotone():
    with pytest.raises(ValueError):
        uv.quantile_transport([(np.array([0.0, 1.0, 0.5]), np.array([0.0, 0.5, 1.0]))])


# ---------------------------------------------------------------------------
# padded construction


def test_padded_identity():
    phi = uv.AffineTransport(shift=np.zeros(2), linear=np.eye(2))
    net = uv.build_padded_net(phi, m=6.0)
    x = np.array([[1.0, -2.0, 0.0, 0.0]])
    assert np.array_equal(net.apply(x), x)


def test_padded_affine_hand_values():
    phi = uv.AffineTransport(shift=np.array([1.0, 0.0]), linear=np.diag([2.0, 1.0]))
    net = uv.build_padded_net(phi, m=6.0)
    out = net.apply(np.array([[0.5, -1.0, 0.0, 0.0]]))
    assert np.allclose(out, [[2.0, -1.0, 0.0, 0.0]], atol=1e-12)


def test_padded_padding_stays_zero_and_matches_transport():
    rng = np.random.default_rng(3)
    lin = np.array([[1.2, 0.3], [0.1, 0.9]])
    phi = uv.AffineTransport(shift=np.array([0.2, -0.4]), linear=lin)
    net = uv.build_padded_net(phi, m=6.0)
    data = rng.standard_normal((10000, 2)).clip(-5.9, 5.9)
    x = np.concatenate([data, np.zeros_like(data)], axis=1)
    out = net.apply(x)
    assert np.max(np.abs(out[:, 2:])) <= 1e-9
    assert np.max(np.abs(out[:, :2] - phi.forward(data))) <= 1e-9


# ---------------------------------------------------------------------------
# lattice construction


def affine_2d():
    return uv.AffineTransport(shift=np.array([0.5, -0.3]),
                              linear=np.array([[1.2, 0.3], [0.0, 0.8]]))


def test_lattice_schedule_validation():
    phi = affine_2d()
    uv.build_lattice_net(phi, 0.5, 0.5**2 / 4, (0.5**2 / 4) ** 2 / 4)
    with pytest.raises(ValueError):
        uv.build_lattice_net(phi, 0.5, 0.2, 0.01)  # eps1 > eps/4
    with pytest.raises(ValueError):
        uv.build_lattice_net(phi, 0.5, 0.1, 0.05)  # eps2 > eps1/4


def test_lattice_layer1_stores_rounded_block():
    phi = affine_2d()
    eps = 0.5
    net = uv.build_lattice_net(phi, eps, eps**2 / 4, (eps**2 / 4) ** 2 / 4)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((100, 2))
    x1, x2 = x[:, :1], x[:, 1:]
    stored = net.eps1 * x2 + uv.grid_round(uv.truncate(x1, net.truncation), eps)
    # the stored value encodes both the grid point and the Gaussian residual
    assert np.array_equal(uv.grid_round(stored, eps), uv.grid_round(x1.clip(-6, 6), eps))
    assert np.max(np.abs(uv.grid_residual(stored, eps) - net.eps1 * x2)) <= 1e-12


def test_lattice_identity_marginal():
    phi = uv.AffineTransport(shift=np.zeros(2), linear=np.eye(2))
    eps = 0.5
    net = uv.build_lattice_net(phi, eps, eps**2 / 4, (eps**2 / 4) ** 2 / 4)
    inputs = uv.gaussian_inputs(net, 2048, seed=6)
    pushed = net.apply(inputs)
    w2 = metrics.empirical_wasserstein(pushed[:, :1], inputs[:, :1], metrics.W2).cost
    assert w2 <= eps


def test_lattice_w2_close_to_reference():
    net = uv.build_lattice_net(affine_2d(), 0.1, 0.1**2 / 4, (0.1**2 / 4) ** 2 / 4)
    inputs = uv.gaussian_inputs(net, 2048, seed=7)
    pushed = net.apply(inputs)
    ref = uv.reference_pushforward(net, inputs)
    w2 = metrics.empirical_wasserstein(pushed, ref, metrics.W2).cost
    assert w2 <= 0.15


def test_lattice_coarse_schedule_error_budget():
    # at eps = 0.5 the error is dominated by grid quantization of the first
    # transported block (~ eps/sqrt(12) per coordinate) plus the argument
    # discretization (~ Lip * eps/sqrt(12)); a mild affine target lands
    # around 0.25 and must stay within the combined budget
    phi = uv.AffineTransport(shift=np.array([0.3, -0.2]),
                             linear=np.array([[1.0, 0.1], [0.0, 0.9]]))
    net = uv.build_lattice_net(phi, 0.5, 0.1, 0.01)
    inputs = uv.gaussian_inputs(net, 2048, seed=78)
    pushed = net.apply(inputs)
    ref = uv.reference_pushforward(net, inputs)
    w2 = metrics.empirical_wasserstein(pushed, ref, metrics.W2).cost
    assert w2 <= 0.3


def _lattice_reference(net, x):
    # the lattice net's three layers written out as formulas
    n, eps, eps1, eps2 = net.block_dim, net.eps, net.eps1, net.eps2

    def rnd(v):
        return eps * np.round(v / eps)

    x1, x2 = x[:, :n], x[:, n:]
    x2 = eps1 * x2 + rnd(uv.truncate(x1, net.truncation))
    full = net.transport.forward(np.concatenate([rnd(x2), (x2 - rnd(x2)) / eps1], axis=1))
    x1 = eps2 * x1 + (rnd(full[:, :n]) + eps1 * full[:, n:])
    x2 = eps2 * x2 + (x1 - rnd(x1)) / eps1
    return np.concatenate([x1, x2], axis=1)


def _padded_reference(net, x):
    # the padded net's three layers written out as formulas
    n, phi = net.data_dim, net.transport
    x1, x2 = x[:, :n].copy(), x[:, n:].copy()
    x2 = x2 + phi.forward(uv.truncate(x1, net.truncation))
    x1 = x1 + (x2 - phi.inverse(x2))
    x2 = x2 + -x1
    return np.concatenate([x1, x2], axis=1)


@pytest.mark.parametrize("target", ["affine", "quantile"])
@pytest.mark.parametrize("eps", [0.5, 0.25, 0.125, 0.0625])
def test_nets_match_their_written_out_layers_bitwise(target, eps):
    # the declared steps compute exactly the three-line formulas, on inputs
    # that reach well outside the truncation box m = 2
    rng = np.random.default_rng(int(eps * 64) + (target == "quantile"))

    def transport(dim):
        if target == "affine":
            linear = np.eye(dim) + 0.3 * np.triu(rng.standard_normal((dim, dim)), 1)
            return uv.AffineTransport(shift=rng.standard_normal(dim), linear=linear)
        vals = np.linspace(-4.0, 4.0, 200)
        return uv.quantile_transport([(vals + 0.1 * k, ndtr(vals) * 0.9 + 0.05)
                                      for k in range(dim)])

    eps1 = eps * eps / 4.0
    lattice = uv.build_lattice_net(transport(4), eps, eps1, eps1 * eps1 / 4.0, m=2.0)
    x = 3.0 * rng.standard_normal((500, 4))
    assert np.max(np.abs(x)) > 2.0
    assert lattice.apply(x).tobytes() == _lattice_reference(lattice, x).tobytes()
    padded = uv.build_padded_net(transport(2), m=2.0)
    for inputs in (x, np.hstack([x[:, :2], np.zeros((500, 2))])):
        assert padded.apply(inputs).tobytes() == _padded_reference(padded, inputs).tobytes()


def test_lattice_log_det_constant():
    net = uv.build_lattice_net(affine_2d(), 0.5, 0.5**2 / 4, (0.5**2 / 4) ** 2 / 4)
    expect = np.log(net.eps1) + 2 * np.log(net.eps2)  # block dim 1
    assert abs(net.log_det_jacobian_constant() - expect) <= 1e-14
    # numeric jacobian determinant at random non-boundary points
    rng = np.random.default_rng(8)
    step = 1e-7
    for _ in range(5):
        x = rng.standard_normal(2)
        # stay away from rounding boundaries of the first coordinate
        if min(abs((x[0] / 0.5) % 1 - 0.5), abs((x[0] / 0.5) % 1)) < 0.05:
            continue
        jac = np.zeros((2, 2))
        for k in range(2):
            e = np.zeros(2)
            e[k] = step
            jac[:, k] = (net.apply((x + e)[None])[0] - net.apply((x - e)[None])[0]) / (2 * step)
        _, logdet = np.linalg.slogdet(jac)
        assert abs(logdet - net.log_det_jacobian_constant()) <= 1e-4


def test_push_samples_deterministic():
    net = uv.build_padded_net(affine_2d(), m=6.0)
    s1 = net.apply(uv.gaussian_inputs(net, 64, seed=9))
    s2 = net.apply(uv.gaussian_inputs(net, 64, seed=9))
    assert np.array_equal(s1, s2)
    s3 = net.apply(uv.gaussian_inputs(net, 64, seed=10))
    assert not np.array_equal(s1, s3)


def test_push_samples_identity_padded_net():
    phi = uv.AffineTransport(shift=np.zeros(2), linear=np.eye(2))
    net = uv.build_padded_net(phi, m=6.0)
    inputs = uv.gaussian_inputs(net, 100000, seed=11)
    out = net.apply(inputs)
    assert np.array_equal(out, inputs)
    assert np.max(np.abs(np.mean(out[:, :2], axis=0))) <= 0.02  # 3 sigma over sqrt(N)
