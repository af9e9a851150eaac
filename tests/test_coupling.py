import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from couplingflow import coupling as cp
from couplingflow import matcore as mc
from couplingflow.errors import NonlinearLayerPresentError


def random_linear_sequence(rng, d, n_layers, with_actnorm=False):
    layers = []
    for i in range(n_layers):
        side = cp.LOWER if i % 2 == 0 else cp.UPPER
        layers.append(cp.LinearCouplingLayer(
            side=side, dense=rng.standard_normal((d, d)),
            diag=np.exp(0.3 * rng.standard_normal(d))))
        if with_actnorm:
            layers.append(cp.ActNormLayer(scale=np.exp(0.2 * rng.standard_normal(2 * d))))
    return cp.sequence(layers, ambient_dim=2 * d)


def constant_nonlinear_layer(d, s_bias, t_bias, side=cp.LOWER):
    """Coupling whose networks ignore the input: s = exp(tanh(s_bias))."""
    widths = [d, 4, 4, d]
    s_net = cp.mlp_init(widths, output_transform="exptanh", scale=0.0)
    t_net = cp.mlp_init(widths, scale=0.0)
    s_net.biases[-1][:] = s_bias
    t_net.biases[-1][:] = t_bias
    return cp.NonlinearCouplingLayer(side=side, s_net=s_net, t_net=t_net)


def test_apply_identity_lower_layer():
    layer = cp.identity_layer(3)
    seq = cp.sequence([layer])
    x = np.array([1.0, -2, 3, 4, 5, -6])
    assert np.array_equal(cp.apply(seq, x), x)


def test_apply_small_lower_layer():
    layer = cp.LinearCouplingLayer(side=cp.LOWER, dense=np.array([[1.0]]), diag=np.array([2.0]))
    out = cp.apply(cp.sequence([layer]), np.array([3.0, 5.0]))
    assert np.array_equal(out, np.array([3.0, 13.0]))  # 2*5 + 1*3


def test_apply_constant_nonlinear_matches_hand_formula():
    s_bias, t_bias = 1.2, 0.0
    layer = constant_nonlinear_layer(1, s_bias, t_bias)
    s_val = np.exp(np.tanh(s_bias))
    x = np.array([0.7, -1.3])
    out = cp.apply(cp.sequence([layer]), x)
    assert np.allclose(out, [0.7, s_val * -1.3], rtol=1e-14)


def test_apply_linear_equals_matrix():
    rng = np.random.default_rng(0)
    seq = random_linear_sequence(rng, 3, 4, with_actnorm=True)
    m = cp.as_matrix(seq)
    for _ in range(10):
        x = rng.standard_normal(6)
        assert np.max(np.abs(cp.apply(seq, x) - m @ x)) <= 1e-12 * np.max(np.abs(m @ x) + 1)


def test_invert_identity():
    seq = cp.sequence([cp.identity_layer(2)])
    y = np.array([1.0, 2, 3, 4])
    assert np.array_equal(cp.invert(seq, y), y)


def test_invert_roundtrip_linear():
    rng = np.random.default_rng(1)
    seq = random_linear_sequence(rng, 4, 3)
    y = rng.standard_normal(8)
    x = cp.invert(seq, y)
    assert np.linalg.norm(cp.apply(seq, x) - y) <= 1e-9 * np.linalg.norm(y)


def test_invert_roundtrip_nonlinear():
    rng = np.random.default_rng(2)
    layers = []
    for i in range(3):
        side = cp.LOWER if i % 2 == 0 else cp.UPPER
        s_net = cp.mlp_init([3, 8, 8, 3], output_transform="exptanh", rng=rng)
        t_net = cp.mlp_init([3, 8, 8, 3], rng=rng)
        layers.append(cp.NonlinearCouplingLayer(side=side, s_net=s_net, t_net=t_net))
    seq = cp.sequence(layers, ambient_dim=6)
    y = rng.standard_normal(6)
    x = cp.invert(seq, y)
    assert np.linalg.norm(cp.apply(seq, x) - y) <= 1e-9 * max(1.0, np.linalg.norm(y))


def test_as_matrix_block_structure():
    a = np.array([[1.0, 2], [3, 4]])
    b = np.array([0.5, 2.0])
    m = cp.as_matrix(cp.LinearCouplingLayer(side=cp.LOWER, dense=a, diag=b))
    expect = np.eye(4)
    expect[2:, :2] = a
    expect[2:, 2:] = np.diag(b)
    assert np.array_equal(m, expect)
    m = cp.as_matrix(cp.LinearCouplingLayer(side=cp.UPPER, dense=a, diag=b))
    expect = np.eye(4)
    expect[:2, :2] = np.diag(b)
    expect[:2, 2:] = a
    assert np.array_equal(m, expect)
    assert np.array_equal(cp.as_matrix(cp.ActNormLayer(scale=np.array([2.0, 3, 4, 5]))),
                          np.diag([2.0, 3, 4, 5]))


def test_as_matrix_empty_sequence():
    assert np.array_equal(cp.as_matrix(cp.sequence([], ambient_dim=4)), np.eye(4))


def test_as_matrix_matches_layer_product():
    rng = np.random.default_rng(3)
    seq = random_linear_sequence(rng, 2, 4)
    m = np.eye(4)
    for layer in seq.layers:
        m = cp.as_matrix(layer) @ m
    assert np.allclose(cp.as_matrix(seq), m, rtol=1e-13)


def test_as_matrix_rejects_nonlinear():
    layer = constant_nonlinear_layer(2, 0.5, 0.1)
    with pytest.raises(NonlinearLayerPresentError):
        cp.as_matrix(cp.sequence([layer]))


def test_coupling_products_orientation_preserving():
    rng = np.random.default_rng(4)
    for trial in range(20):
        seq = random_linear_sequence(rng, 3, int(rng.integers(1, 6)))
        sign, _ = mc.slogdet(cp.as_matrix(seq))
        assert sign > 0


def test_jacobian_linear_equals_matrix():
    rng = np.random.default_rng(5)
    seq = random_linear_sequence(rng, 3, 3, with_actnorm=True)
    x = rng.standard_normal(6)
    assert np.allclose(cp.jacobian(seq, x), cp.as_matrix(seq), rtol=1e-13)


def finite_difference_jacobian(f, x, step=1e-6):
    n = x.shape[0]
    cols = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = step
        cols.append((f(x + e) - f(x - e)) / (2 * step))
    return np.column_stack(cols)


def test_jacobian_nonlinear_finite_difference():
    rng = np.random.default_rng(6)
    s_net = cp.mlp_init([2, 8, 8, 2], activation="tanh", output_transform="exptanh", rng=rng)
    t_net = cp.mlp_init([2, 8, 8, 2], activation="tanh", rng=rng)
    layer = cp.NonlinearCouplingLayer(side=cp.UPPER, s_net=s_net, t_net=t_net)
    seq = cp.sequence([layer])
    x = rng.standard_normal(4)
    jac = cp.jacobian(seq, x)
    fd = finite_difference_jacobian(lambda v: cp.apply(seq, v), x)
    assert np.max(np.abs(jac - fd)) <= 1e-5


def test_jacobian_identity_sequence():
    seq = cp.sequence([], ambient_dim=6)
    assert np.array_equal(cp.jacobian(seq, np.zeros(6)), np.eye(6))


def test_jacobian_chain_rule_multi_layer():
    rng = np.random.default_rng(7)
    layers = [
        cp.NonlinearCouplingLayer(
            side=cp.LOWER,
            s_net=cp.mlp_init([2, 6, 6, 2], activation="tanh", output_transform="exptanh", rng=rng),
            t_net=cp.mlp_init([2, 6, 6, 2], activation="tanh", rng=rng)),
        cp.LinearCouplingLayer(side=cp.UPPER, dense=rng.standard_normal((2, 2)),
                               diag=np.array([1.5, 0.5])),
    ]
    seq = cp.sequence(layers, ambient_dim=4)
    x = rng.standard_normal(4)
    fd = finite_difference_jacobian(lambda v: cp.apply(seq, v), x)
    assert np.max(np.abs(cp.jacobian(seq, x) - fd)) <= 1e-5


def test_log_det_identity_zero():
    assert cp.log_det_jacobian(cp.sequence([cp.identity_layer(2)]), np.zeros(4)) == 0.0


def test_log_det_diag_layer():
    layer = cp.LinearCouplingLayer(side=cp.LOWER, dense=np.zeros((2, 2)),
                                   diag=np.array([2.0, 2.0]))
    val = cp.log_det_jacobian(cp.sequence([layer]), np.ones(4))
    assert abs(val - np.log(4.0)) <= 1e-14


def test_log_det_matches_lup_slogdet_of_jacobian():
    rng = np.random.default_rng(8)
    s_net = cp.mlp_init([2, 8, 8, 2], activation="tanh", output_transform="exptanh", rng=rng)
    t_net = cp.mlp_init([2, 8, 8, 2], activation="tanh", rng=rng)
    seq = cp.sequence([
        cp.NonlinearCouplingLayer(side=cp.LOWER, s_net=s_net, t_net=t_net),
        cp.ActNormLayer(scale=np.array([1.5, -0.5, 2.0, 0.25])),
    ], ambient_dim=4)
    x = rng.standard_normal(4)
    _, expected = mc.slogdet(cp.jacobian(seq, x))
    assert abs(cp.log_det_jacobian(seq, x) - expected) <= 1e-8


def test_log_det_additive_under_concatenation():
    rng = np.random.default_rng(9)
    seq1 = random_linear_sequence(rng, 2, 2)
    seq2 = random_linear_sequence(rng, 2, 3)
    x = rng.standard_normal(4)
    mid = cp.apply(seq1, x)
    total = cp.log_det_jacobian(seq1 + seq2, x)
    assert abs(total - cp.log_det_jacobian(seq1, x) - cp.log_det_jacobian(seq2, mid)) <= 1e-12


def test_sequence_json_roundtrip_exact():
    rng = np.random.default_rng(10)
    seq = random_linear_sequence(rng, 3, 2, with_actnorm=True)
    layers = list(seq.layers) + [constant_nonlinear_layer(3, 0.7, -0.2, side=cp.UPPER)]
    seq = cp.sequence(layers, ambient_dim=6)
    text = cp.sequence_to_json(seq)
    back = cp.sequence_from_json(text)
    x = rng.standard_normal(6)
    assert np.array_equal(cp.apply(seq, x), cp.apply(back, x))
    for a, b in zip(seq.layers[:-1], back.layers[:-1]):
        assert np.array_equal(a.dense if hasattr(a, "dense") else a.scale,
                              b.dense if hasattr(b, "dense") else b.scale)


def test_sequence_json_text_pinned():
    # the wire format: row-major float64 values, each in its shortest repr,
    # whatever the memory order or integer dtype of the stored array
    s_net = cp.Mlp(weights=[np.array([[0.5], [-1.25], [1e-300]]), np.array([[0.1, -0.0, 3.0]])],
                   biases=[np.array([2.5e-8]), np.array([1 / 3, 0.0, -2.0])], activation="tanh",
                   output_transform="exptanh")
    t_net = cp.Mlp(weights=[np.array([[2.0], [7e22], [-4.0]]), np.array([[1.0, 0.3, 0.2]])],
                   biases=[np.zeros(1), np.array([-0.7, 5.0, 6.0])])
    seq = cp.sequence([
        cp.LinearCouplingLayer(side=cp.LOWER, dense=np.array([[1, 2, 3], [4, 5, 6], [7, 8, 9]]).T,
                               diag=np.array([0.1, 1.0, 123456789.125])),
        cp.ActNormLayer(scale=np.array([1.5, -0.25, 1e-5, 2.0, -3.0, np.pi])),
        cp.NonlinearCouplingLayer(side=cp.UPPER, s_net=s_net, t_net=t_net),
    ])
    assert cp.sequence_to_json(seq) == (
        '{"ambient_dim": 6, "layers": ['
        '{"kind": "linear", "side": "lower", "dim_half": 3, '
        '"dense": [1.0, 4.0, 7.0, 2.0, 5.0, 8.0, 3.0, 6.0, 9.0], '
        '"diag": [0.1, 1.0, 123456789.125]}, '
        '{"kind": "actnorm", "scale": [1.5, -0.25, 1e-05, 2.0, -3.0, 3.141592653589793]}, '
        '{"kind": "nonlinear", "side": "upper", '
        '"s_net": {"widths": [3, 1, 3], "activation": "tanh", "output_transform": "exptanh", '
        '"weights": [[0.5, -1.25, 1e-300], [0.1, -0.0, 3.0]], '
        '"biases": [[2.5e-08], [0.3333333333333333, 0.0, -2.0]]}, '
        '"t_net": {"widths": [3, 1, 3], "activation": "relu", "output_transform": "identity", '
        '"weights": [[2.0, 7e+22, -4.0], [1.0, 0.3, 0.2]], '
        '"biases": [[0.0], [-0.7, 5.0, 6.0]]}}]}')


def test_layer_invariants_enforced():
    with pytest.raises(ValueError):
        cp.LinearCouplingLayer(side=cp.LOWER, dense=np.zeros((2, 2)),
                               diag=np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        cp.ActNormLayer(scale=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        cp.LinearCouplingLayer(side="diagonal", dense=np.zeros((2, 2)), diag=np.ones(2))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_invert_apply_roundtrip_property(d, n_layers, seed):
    rng = np.random.default_rng(seed)
    seq = random_linear_sequence(rng, d, n_layers, with_actnorm=bool(seed % 2))
    x = rng.standard_normal(2 * d)
    y = cp.apply(seq, x)
    back = cp.invert(seq, y)
    assert np.linalg.norm(back - x) <= 1e-9 * max(1.0, np.linalg.norm(x))
