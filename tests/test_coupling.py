import base64
import json
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from couplingflow import coupling as cp
from couplingflow import matcore as mc
from couplingflow.errors import NonlinearLayerPresentError


def random_linear_sequence(rng, d, n_layers):
    layers = []
    for i in range(n_layers):
        side = cp.LOWER if i % 2 == 0 else cp.UPPER
        layers.append(cp.LinearCouplingLayer(
            side=side, dense=rng.standard_normal((d, d)),
            diag=np.exp(0.3 * rng.standard_normal(d))))
    return cp.sequence(layers, ambient_dim=2 * d)


def constant_nonlinear_layer(d, s_bias, t_bias, side=cp.LOWER):
    """Coupling whose networks ignore the input: s = exp(tanh(s_bias))."""
    widths = [d, 4, 4, d]

    def zero_net(output_transform, bias):
        return cp.Mlp(weights=[np.zeros(shape) for shape in zip(widths, widths[1:])],
                      biases=[np.zeros(w) for w in widths[1:-1]] + [np.full(d, float(bias))],
                      output_transform=output_transform)

    return cp.NonlinearCouplingLayer(side=side, s_net=zero_net("exptanh", s_bias),
                                     t_net=zero_net("identity", t_bias))


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
    seq = random_linear_sequence(rng, 3, 4)
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
    ys = rng.standard_normal((5, 6))
    xs = cp.invert(seq, ys)
    assert np.max(np.abs(cp.apply(seq, xs) - ys)) <= 1e-9 * max(1.0, np.max(np.abs(ys)))
    # a point gives its batch row (up to BLAS summation order)
    for row, out in zip(xs, cp.apply(seq, xs)):
        assert np.allclose(cp.apply(seq, row), out, rtol=1e-14, atol=1e-14)


def test_unknown_layer_type_rejected():
    @dataclass(frozen=True)
    class ForeignLayer:
        side: str = cp.LOWER
        ambient_dim: int = 4

    # a sequence refuses any other object, so apply, invert, jacobian and
    # apply_with_log_det never meet one
    for foreign in (ForeignLayer(), SimpleNamespace(ambient_dim=4)):
        with pytest.raises(TypeError, match="unknown layer type"):
            cp.sequence([cp.identity_layer(2), foreign])
    for fn in (cp.apply_layer, cp.invert_layer):
        with pytest.raises(TypeError, match="unknown layer type"):
            fn(ForeignLayer(), np.ones(4))


def test_as_matrix_block_structure():
    a = np.array([[1.0, 2], [3, 4]])
    b = np.array([0.5, 2.0])
    m = cp.as_matrix(cp.sequence([cp.LinearCouplingLayer(side=cp.LOWER, dense=a, diag=b)]))
    expect = np.eye(4)
    expect[2:, :2] = a
    expect[2:, 2:] = np.diag(b)
    assert np.array_equal(m, expect)
    m = cp.as_matrix(cp.sequence([cp.LinearCouplingLayer(side=cp.UPPER, dense=a, diag=b)]))
    expect = np.eye(4)
    expect[:2, :2] = np.diag(b)
    expect[:2, 2:] = a
    assert np.array_equal(m, expect)


def test_as_matrix_empty_sequence():
    assert np.array_equal(cp.as_matrix(cp.sequence([], ambient_dim=4)), np.eye(4))


def test_as_matrix_matches_layer_product():
    rng = np.random.default_rng(3)
    seq = random_linear_sequence(rng, 2, 4)
    m = np.eye(4)
    for layer in seq.layers:
        m = cp.as_matrix(cp.sequence([layer])) @ m
    assert np.allclose(cp.as_matrix(seq), m, rtol=1e-13)


def test_as_matrix_rejects_nonlinear():
    layer = constant_nonlinear_layer(2, 0.5, 0.1)
    with pytest.raises(NonlinearLayerPresentError):
        cp.as_matrix(cp.sequence([layer]))


def test_coupling_products_orientation_preserving():
    rng = np.random.default_rng(4)
    for trial in range(20):
        seq = random_linear_sequence(rng, 3, int(rng.integers(1, 6)))
        sign, _ = np.linalg.slogdet(cp.as_matrix(seq))
        assert sign > 0


def test_jacobian_linear_equals_matrix():
    rng = np.random.default_rng(5)
    seq = random_linear_sequence(rng, 3, 3)
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
    assert np.array_equal(cp.jacobian(seq, np.ones((5, 6))),
                          np.broadcast_to(np.eye(6), (5, 6, 6)))


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


def mixed_sequence(rng, d=2):
    """Linear lower and upper, and nonlinear layers on both sides with relu
    and tanh nets."""
    def nonlinear(side, activation):
        widths = [d, 6, 6, d]
        return cp.NonlinearCouplingLayer(
            side=side,
            s_net=cp.mlp_init(widths, activation=activation, output_transform="exptanh", rng=rng),
            t_net=cp.mlp_init(widths, activation=activation, rng=rng))

    layers = [
        cp.LinearCouplingLayer(side=cp.LOWER, dense=rng.standard_normal((d, d)),
                               diag=np.exp(0.3 * rng.standard_normal(d))),
        nonlinear(cp.UPPER, "relu"),
        nonlinear(cp.LOWER, "tanh"),
        cp.LinearCouplingLayer(side=cp.UPPER, dense=rng.standard_normal((d, d)),
                               diag=np.exp(0.3 * rng.standard_normal(d))),
        nonlinear(cp.LOWER, "relu"),
        nonlinear(cp.UPPER, "tanh"),
    ]
    return cp.sequence(layers, ambient_dim=2 * d)


def test_jacobian_batch_matches_finite_differences_per_row():
    rng = np.random.default_rng(10)
    seq = mixed_sequence(rng)
    x = rng.standard_normal((12, 4))
    jac = cp.jacobian(seq, x)
    assert jac.shape == (12, 4, 4)
    for row, j in zip(x, jac):
        fd = finite_difference_jacobian(lambda v: cp.apply(seq, v), row)
        assert np.max(np.abs(j - fd)) <= 1e-5
        # a point gives its own (2d, 2d) matrix, equal to its batch row
        single = cp.jacobian(seq, row)
        assert single.shape == (4, 4)
        assert np.allclose(single, j, rtol=1e-13, atol=1e-13)
    assert cp.jacobian(seq, np.zeros((0, 4))).shape == (0, 4, 4)


def test_log_det_identity_zero():
    seq = cp.sequence([cp.identity_layer(2)])
    y, log_det = cp.apply_with_log_det(seq, np.zeros(4))
    assert np.array_equal(y, np.zeros(4)) and log_det.shape == () and log_det == 0.0
    # a batch gives one value per row; a wrong dimension is an error
    assert np.array_equal(cp.apply_with_log_det(seq, np.ones((3, 4)))[1], np.zeros(3))
    with pytest.raises(ValueError, match="ambient 4"):
        cp.apply_with_log_det(seq, np.zeros(6))


def test_log_det_diag_layer():
    layer = cp.LinearCouplingLayer(side=cp.LOWER, dense=np.zeros((2, 2)),
                                   diag=np.array([2.0, 3.0]))
    seq = cp.sequence([layer])
    _, val = cp.apply_with_log_det(seq, np.ones(4))
    assert abs(val - np.log(6.0)) <= 1e-14
    # a linear-only batch: one log 6 per row
    y, log_det = cp.apply_with_log_det(seq, np.ones((3, 4)))
    assert log_det.shape == (3,)
    assert np.allclose(log_det, np.log(6.0), rtol=0.0, atol=1e-14)
    assert np.array_equal(y, np.tile([1.0, 1.0, 2.0, 3.0], (3, 1)))


def test_log_det_matches_lup_slogdet_of_jacobian():
    rng = np.random.default_rng(8)
    seq = mixed_sequence(rng)
    x = rng.standard_normal((16, 4))
    y, log_det = cp.apply_with_log_det(seq, x)
    sign, expected = np.linalg.slogdet(cp.jacobian(seq, x))
    assert np.all(sign == 1.0)  # every coupling step has s > 0
    assert np.max(np.abs(log_det - expected)) <= 1e-10
    assert np.array_equal(y, cp.apply(seq, x))


def test_apply_with_log_det_batch_equals_its_rows():
    rng = np.random.default_rng(11)
    seq = mixed_sequence(rng)
    x = rng.standard_normal((9, 4))
    y, log_det = cp.apply_with_log_det(seq, x)
    for row, y_row, ld_row in zip(x, y, log_det):
        y_point, ld_point = cp.apply_with_log_det(seq, row)
        # equal up to BLAS summation order between a one-row and a 9-row product
        assert np.allclose(y_point, y_row, rtol=1e-14, atol=1e-14)
        assert abs(ld_point - ld_row) <= 1e-14


def test_log_det_additive_under_concatenation():
    rng = np.random.default_rng(9)
    seq1 = random_linear_sequence(rng, 2, 2)
    seq2 = random_linear_sequence(rng, 2, 3)
    x = rng.standard_normal((5, 4))
    mid, first = cp.apply_with_log_det(seq1, x)
    _, total = cp.apply_with_log_det(cp.sequence(seq1.layers + seq2.layers), x)
    assert np.max(np.abs(total - first - cp.apply_with_log_det(seq2, mid)[1])) <= 1e-12


def layer_arrays(layer):
    """Every stored array of a layer, MLP weights and biases included."""
    if isinstance(layer, cp.LinearCouplingLayer):
        return [layer.dense, layer.diag]
    return [a for net in (layer.s_net, layer.t_net) for a in net.weights + net.biases]


def assert_bitwise_equal(seq, back):
    """back has seq's layers, fields and array bits (so -0.0 != 0.0), with
    every array read back native, writable, C-contiguous float64."""
    assert back.ambient_dim == seq.ambient_dim and len(back) == len(seq)
    for a, b in zip(seq.layers, back.layers):
        assert type(a) is type(b)
        assert getattr(a, "side", None) == getattr(b, "side", None)
        if isinstance(a, cp.NonlinearCouplingLayer):
            for net_a, net_b in ((a.s_net, b.s_net), (a.t_net, b.t_net)):
                assert (net_a.activation, net_a.output_transform) == \
                    (net_b.activation, net_b.output_transform)
        arrays_a, arrays_b = layer_arrays(a), layer_arrays(b)
        assert len(arrays_a) == len(arrays_b)
        for x, y in zip(arrays_a, arrays_b):
            assert y.dtype == np.float64 and y.dtype.isnative
            assert y.flags.c_contiguous and y.flags.writeable
            x = np.ascontiguousarray(x, dtype=np.float64)
            assert x.shape == y.shape
            assert np.array_equal(x.view(np.uint64), y.view(np.uint64))


def test_sequence_json_roundtrip_exact():
    rng = np.random.default_rng(10)
    seq = random_linear_sequence(rng, 3, 2)
    nonlinear = cp.NonlinearCouplingLayer(
        side=cp.UPPER, s_net=cp.mlp_init([3, 4, 4, 3], output_transform="exptanh", rng=rng),
        t_net=cp.mlp_init([3, 4, 4, 3], activation="tanh", rng=rng))
    nonlinear.t_net.biases[0][:] = rng.standard_normal(4)
    seq = cp.sequence(list(seq.layers) + [nonlinear], ambient_dim=6)
    back = cp.sequence_from_json(cp.sequence_to_json(seq))
    assert_bitwise_equal(seq, back)
    x = rng.standard_normal(6)
    assert np.array_equal(cp.apply(seq, x), cp.apply(back, x))


EDGE_FLOATS = [-0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-300, 1.7976931348623157e308,
               -1.7976931348623157e308]
FINITE_FLOAT64 = st.one_of(st.sampled_from(EDGE_FLOATS),
                           st.floats(allow_nan=False, allow_infinity=False, width=64))


@settings(max_examples=60, deadline=None)
@given(st.lists(FINITE_FLOAT64, min_size=26, max_size=26))
def test_sequence_json_roundtrip_bitwise_property(values):
    # every finite float64 bit pattern survives in every array a layer stores;
    # where a layer invariant forbids a zero, it becomes the smallest subnormal
    v = iter(values)
    take = lambda *shape: np.fromiter(v, np.float64, count=int(np.prod(shape))).reshape(shape)
    nonzero = lambda a: np.where(a != 0.0, a, np.copysign(5e-324, a))
    net = lambda **kw: cp.Mlp(weights=[take(2, 1), take(1, 2)], biases=[take(1), take(2)], **kw)
    seq = cp.sequence([
        cp.LinearCouplingLayer(side=cp.LOWER, dense=take(2, 2), diag=np.abs(nonzero(take(2)))),
        cp.NonlinearCouplingLayer(side=cp.UPPER, s_net=net(output_transform="exptanh"),
                                  t_net=net(activation="tanh")),
        cp.LinearCouplingLayer(side=cp.UPPER, dense=take(2, 2), diag=np.abs(nonzero(take(2)))),
    ])
    assert_bitwise_equal(seq, cp.sequence_from_json(cp.sequence_to_json(seq)))


def test_sequence_json_text_pinned():
    # the wire format: each array is base64 of its row-major little-endian
    # float64 bytes, whatever the memory order or integer dtype it is stored in
    s_net = cp.Mlp(weights=[np.array([[0.5], [-1.25], [1e-300]]), np.array([[0.1, -0.0, 3.0]])],
                   biases=[np.array([2.5e-8]), np.array([1 / 3, 0.0, -2.0])], activation="tanh",
                   output_transform="exptanh")
    t_net = cp.Mlp(weights=[np.array([[2.0], [7e22], [-4.0]]), np.array([[1.0, 0.3, 0.2]])],
                   biases=[np.zeros(1), np.array([-0.7, 5.0, 6.0])])
    seq = cp.sequence([
        cp.LinearCouplingLayer(side=cp.LOWER, dense=np.array([[1, 2, 3], [4, 5, 6], [7, 8, 9]]).T,
                               diag=np.array([0.1, 1.0, 123456789.125])),
        cp.NonlinearCouplingLayer(side=cp.UPPER, s_net=s_net, t_net=t_net),
    ])
    text = (
        '{"ambient_dim": 6, "layers": ['
        '{"kind": "linear", "side": "lower", "dim_half": 3, '
        '"dense": "AAAAAAAA8D8AAAAAAAAQQAAAAAAAABxAAAAAAAAAAEAAAAAAAAAUQAAAAAAAACBA'
        'AAAAAAAACEAAAAAAAAAYQAAAAAAAACJA", '
        '"diag": "mpmZmZmZuT8AAAAAAADwPwAAgFQ0b51B"}, '
        '{"kind": "nonlinear", "side": "upper", '
        '"s_net": {"widths": [3, 1, 3], "activation": "tanh", "output_transform": "exptanh", '
        '"weights": ["AAAAAAAA4D8AAAAAAAD0v1nz+MIfbqUB", "mpmZmZmZuT8AAAAAAAAAgAAAAAAAAAhA"], '
        '"biases": ["SK+8mvLXWj4=", "VVVVVVVV1T8AAAAAAAAAAAAAAAAAAADA"]}, '
        '"t_net": {"widths": [3, 1, 3], "activation": "relu", "output_transform": "identity", '
        '"weights": ["AAAAAAAAAEDANQhLaqWtRAAAAAAAABDA", "AAAAAAAA8D8zMzMzMzPTP5qZmZmZmck/"], '
        '"biases": ["AAAAAAAAAAA=", "ZmZmZmZm5r8AAAAAAAAUQAAAAAAAABhA"]}}]}')
    assert cp.sequence_to_json(seq) == text
    assert_bitwise_equal(seq, cp.sequence_from_json(text))


def _tamper(layer, path, value):
    """layer_to_dict(layer) with the array field at ``path`` replaced."""
    doc = cp.layer_to_dict(layer)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value(node[path[-1]])
    return doc


@pytest.mark.parametrize("path, value, field", [
    (("dense",), lambda s: [1.0, 0.0, 0.0, 1.0], "dense"),
    (("diag",), lambda s: s[:4] + "!" + s[5:], "diag"),
    (("diag",), lambda s: base64.b64encode(b"\0" * 12).decode(), "diag"),
    (("dense",), lambda s: s[:-12], "dense"),
    (("t_net", "biases", 1), lambda s: s[:-12], r"t_net\.biases\[1\]"),
    (("s_net", "weights", 0), lambda s: base64.b64encode(b"\0" * 40).decode(), r"s_net\.weights\[0\]"),
    (("t_net", "biases"), lambda s: s[:-1], "t_net"),
    (("s_net", "weights"), lambda s: s + s[-1:], "s_net"),
    (("t_net", "output_transform"), lambda s: "bogus", r"^t_net\.output_transform"),
    (("s_net", "activation"), lambda s: "sigmoid", r"^s_net\.activation"),
], ids=["number-list", "not-base64", "not-whole-floats", "not-dim-half-squared",
        "bias-not-widths", "weight-not-widths", "bias-count", "weight-count",
        "unknown-output-transform", "unknown-activation"])
def test_layer_from_dict_rejects_malformed_array(path, value, field):
    layers = {"dense": cp.identity_layer(2), "diag": cp.identity_layer(2),
              "t_net": constant_nonlinear_layer(2, 0.5, 0.5),
              "s_net": constant_nonlinear_layer(2, 0.5, 0.5)}
    doc = _tamper(layers[path[0]], path, value)
    with pytest.raises(ValueError, match=field):
        cp.layer_from_dict(doc)


def _linear_doc(**changes):
    """A one-layer linear layers document with its layer fields changed; a
    value of None drops the field."""
    layer = dict(cp.layer_to_dict(cp.identity_layer(2)), **changes)
    return {"ambient_dim": 4, "layers": [{k: v for k, v in layer.items() if v is not None}]}


@pytest.mark.parametrize("doc, field", [
    ({"layers": []}, "ambient_dim"),
    (_linear_doc(diag=None), "diag"),
    (_linear_doc(dim_half="2"), "dim_half"),
    ([], "layers"),
    ({"ambient_dim": 4, "layers": [[]]}, "kind"),
    ({"ambient_dim": 4.0, "layers": []}, "ambient_dim"),
], ids=["no-ambient-dim", "no-diag", "string-dim-half", "top-level-list", "layer-not-object",
        "float-ambient-dim"])
def test_sequence_from_json_names_the_malformed_field(doc, field):
    with pytest.raises(ValueError, match=f"^{field}: "):
        cp.sequence_from_json(json.dumps(doc))


def test_layer_from_dict_refuses_unknown_kind():
    # every layer is a coupling step; a diagonal scaling has no kind of its own
    for kind in ("actnorm", "bogus"):
        with pytest.raises(ValueError, match=f"^unknown layer kind '{kind}'$"):
            cp.layer_from_dict({"kind": kind, "scale": "AAAAAAAA8D8="})


def test_layer_invariants_enforced():
    with pytest.raises(ValueError):
        cp.LinearCouplingLayer(side=cp.LOWER, dense=np.zeros((2, 2)),
                               diag=np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        cp.LinearCouplingLayer(side="diagonal", dense=np.zeros((2, 2)), diag=np.ones(2))
    # a one-layer net has no hidden activation to run, yet its name is checked
    with pytest.raises(ValueError, match="activation"):
        cp.Mlp(weights=[np.zeros((2, 2))], biases=[np.zeros(2)], activation="sigmoid")
    with pytest.raises(ValueError, match="output_transform"):
        cp.Mlp(weights=[np.zeros((2, 2))], biases=[np.zeros(2)], output_transform="softplus")


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_invert_apply_roundtrip_property(d, n_layers, seed):
    rng = np.random.default_rng(seed)
    seq = random_linear_sequence(rng, d, n_layers)
    x = rng.standard_normal(2 * d)
    y = cp.apply(seq, x)
    back = cp.invert(seq, y)
    assert np.linalg.norm(back - x) <= 1e-9 * max(1.0, np.linalg.norm(x))
