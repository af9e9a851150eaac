"""Affine coupling layers and ordered sequences of them.

The coordinate partition is fixed throughout: the first half of the 2d
coordinates versus the second half. A "lower" layer keeps the first half
and updates the second; an "upper" layer keeps the second half and updates
the first. Linear layers realize the block matrices

    lower: [I 0; A diag(b)]        upper: [diag(c) D; 0 I]

with strictly positive diagonal blocks, so every coupling product has
positive determinant. Nonlinear layers use a scale network s (positive by
construction, s = exp(tanh(.)) on the output) and a translation network t.

Sequences are applied first-layer-first; ``as_matrix`` therefore returns
the reverse-order product, so as_matrix(seq) @ x == apply(seq, x).
"""

import json
from dataclasses import dataclass

import numpy as np

from couplingflow.errors import NonlinearLayerPresentError

LOWER = "lower"
UPPER = "upper"


# ---------------------------------------------------------------------------
# small fixed-shape MLPs (two hidden layers in the experiments, but the
# evaluation code accepts any depth)


@dataclass
class Mlp:
    """Feedforward net: weights[k] has shape (fan_in, fan_out).

    activation: "relu" or "tanh" on hidden layers.
    output_transform: "identity", or "exptanh" for strictly positive output
    (used for coupling scale maps; note log(output) = tanh(pre-activation)).
    """

    weights: list
    biases: list
    activation: str = "relu"
    output_transform: str = "identity"

    @property
    def in_dim(self):
        return self.weights[0].shape[0]

    @property
    def out_dim(self):
        return self.weights[-1].shape[1]


def mlp_init(widths, activation="relu", output_transform="identity", rng=None, scale=None):
    """He/Xavier-style initialization for the given layer widths."""
    rng = rng or np.random.default_rng(0)
    weights, biases = [], []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        std = scale if scale is not None else np.sqrt(1.0 / fan_in)
        weights.append(rng.normal(0.0, std, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return Mlp(weights=weights, biases=biases, activation=activation,
               output_transform=output_transform)


def _act(name, u):
    if name == "relu":
        return np.maximum(u, 0.0)
    if name == "tanh":
        return np.tanh(u)
    raise ValueError(f"unknown activation {name!r}")


def _act_deriv(name, u):
    # relu derivative at exactly 0 is taken as 0
    if name == "relu":
        return (u > 0.0).astype(np.float64)
    if name == "tanh":
        return 1.0 - np.tanh(u) ** 2
    raise ValueError(f"unknown activation {name!r}")


def mlp_forward(mlp: Mlp, x: np.ndarray, want_cache: bool = False):
    """Evaluate the net on a batch (n, in_dim). Returns output or
    (output, cache) where cache holds pre-activations for the backward pass."""
    h = x
    pre = []
    hidden = [x]
    last = len(mlp.weights) - 1
    for k, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        u = h @ w + b
        pre.append(u)
        h = u if k == last else _act(mlp.activation, u)
        hidden.append(h)
    if mlp.output_transform == "exptanh":
        out = np.exp(np.tanh(h))
    else:
        out = h
    if want_cache:
        return out, {"pre": pre, "hidden": hidden, "out": out}
    return out


def mlp_backward(mlp: Mlp, cache, dout):
    """Reverse-mode gradients. Returns (grad_weights, grad_biases, dx)."""
    pre, hidden = cache["pre"], cache["hidden"]
    if mlp.output_transform == "exptanh":
        u = pre[-1]
        dh = dout * cache["out"] * (1.0 - np.tanh(u) ** 2)
    else:
        dh = dout
    grad_w = [None] * len(mlp.weights)
    grad_b = [None] * len(mlp.biases)
    last = len(mlp.weights) - 1
    for k in range(last, -1, -1):
        if k != last:
            dh = dh * _act_deriv(mlp.activation, pre[k])
        grad_w[k] = hidden[k].T @ dh
        grad_b[k] = np.sum(dh, axis=0)
        dh = dh @ mlp.weights[k].T
    return grad_w, grad_b, dh


def mlp_jacobian(mlp: Mlp, x1d: np.ndarray) -> np.ndarray:
    """Jacobian (out_dim, in_dim) at a single input point."""
    _, cache = mlp_forward(mlp, x1d[None, :], want_cache=True)
    jac = np.eye(mlp.in_dim)
    last = len(mlp.weights) - 1
    for k, w in enumerate(mlp.weights):
        jac = w.T @ jac
        if k != last:
            jac = _act_deriv(mlp.activation, cache["pre"][k][0])[:, None] * jac
    if mlp.output_transform == "exptanh":
        u = cache["pre"][-1][0]
        jac = (cache["out"][0] * (1.0 - np.tanh(u) ** 2))[:, None] * jac
    return jac


# ---------------------------------------------------------------------------
# layer types


@dataclass(frozen=True)
class LinearCouplingLayer:
    """One linear coupling matrix; ``dense`` is A (lower) or D (upper),
    ``diag`` the strictly positive diagonal block b (lower) or c (upper)."""

    side: str
    dense: np.ndarray
    diag: np.ndarray

    def __post_init__(self):
        if self.side not in (LOWER, UPPER):
            raise ValueError(f"side must be lower/upper, got {self.side!r}")
        d = self.dense.shape[0]
        if self.dense.shape != (d, d) or self.diag.shape != (d,):
            raise ValueError("block shape mismatch")
        if np.any(self.diag <= 0.0):
            raise ValueError("diagonal block must be strictly positive")
        if not (np.all(np.isfinite(self.dense)) and np.all(np.isfinite(self.diag))):
            raise ValueError("non-finite layer entries")

    @property
    def ambient_dim(self):
        return 2 * self.dense.shape[0]


@dataclass(frozen=True)
class ActNormLayer:
    """Diagonal scaling of all 2d coordinates; entries nonzero, sign free."""

    scale: np.ndarray

    def __post_init__(self):
        if np.any(self.scale == 0.0) or not np.all(np.isfinite(self.scale)):
            raise ValueError("actnorm scale entries must be nonzero and finite")

    @property
    def ambient_dim(self):
        return self.scale.shape[0]


@dataclass(frozen=True)
class NonlinearCouplingLayer:
    """Affine coupling block with networks s (positive scale) and t."""

    side: str
    s_net: Mlp
    t_net: Mlp

    def __post_init__(self):
        if self.side not in (LOWER, UPPER):
            raise ValueError(f"side must be lower/upper, got {self.side!r}")
        if self.s_net.output_transform != "exptanh":
            raise ValueError("scale net must use the exptanh output transform")
        if self.s_net.in_dim != self.t_net.in_dim or self.s_net.out_dim != self.t_net.out_dim:
            raise ValueError("s and t nets must share input/output dims")

    @property
    def ambient_dim(self):
        return self.s_net.in_dim + self.s_net.out_dim


@dataclass(frozen=True)
class LayerSequence:
    layers: tuple
    ambient_dim: int

    def __post_init__(self):
        for layer in self.layers:
            if layer.ambient_dim != self.ambient_dim:
                raise ValueError("layers disagree on ambient dimension")

    def __len__(self):
        return len(self.layers)

    def __add__(self, other):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return LayerSequence(self.layers + other.layers, self.ambient_dim)


def sequence(layers, ambient_dim=None) -> LayerSequence:
    layers = tuple(layers)
    if ambient_dim is None:
        if not layers:
            raise ValueError("ambient_dim required for an empty sequence")
        ambient_dim = layers[0].ambient_dim
    return LayerSequence(layers, ambient_dim)


def identity_layer(dim_half: int, side: str = LOWER) -> LinearCouplingLayer:
    return LinearCouplingLayer(side=side, dense=np.zeros((dim_half, dim_half)),
                               diag=np.ones(dim_half))


# ---------------------------------------------------------------------------
# evaluation


def _split(x, d):
    return x[..., :d], x[..., d:]


def apply_layer(layer, x: np.ndarray) -> np.ndarray:
    """Apply one layer to x; x may be a vector (2d,) or a batch (n, 2d)."""
    d = layer.ambient_dim // 2
    if isinstance(layer, ActNormLayer):
        return x * layer.scale
    x1, x2 = _split(x, d)
    if isinstance(layer, LinearCouplingLayer):
        if layer.side == LOWER:
            return np.concatenate([x1, x2 * layer.diag + x1 @ layer.dense.T], axis=-1)
        return np.concatenate([x1 * layer.diag + x2 @ layer.dense.T, x2], axis=-1)
    if isinstance(layer, NonlinearCouplingLayer):
        batched = x.ndim == 2
        xa = x if batched else x[None, :]
        x1, x2 = _split(xa, d)
        if layer.side == LOWER:
            out = np.concatenate([x1, x2 * mlp_forward(layer.s_net, x1) + mlp_forward(layer.t_net, x1)], axis=-1)
        else:
            out = np.concatenate([x1 * mlp_forward(layer.s_net, x2) + mlp_forward(layer.t_net, x2), x2], axis=-1)
        return out if batched else out[0]
    raise TypeError(f"unknown layer type {type(layer)!r}")


def invert_layer(layer, y: np.ndarray) -> np.ndarray:
    d = layer.ambient_dim // 2
    if isinstance(layer, ActNormLayer):
        return y / layer.scale
    y1, y2 = _split(y, d)
    if isinstance(layer, LinearCouplingLayer):
        if layer.side == LOWER:
            return np.concatenate([y1, (y2 - y1 @ layer.dense.T) / layer.diag], axis=-1)
        return np.concatenate([(y1 - y2 @ layer.dense.T) / layer.diag, y2], axis=-1)
    if isinstance(layer, NonlinearCouplingLayer):
        batched = y.ndim == 2
        ya = y if batched else y[None, :]
        y1, y2 = _split(ya, d)
        if layer.side == LOWER:
            out = np.concatenate([y1, (y2 - mlp_forward(layer.t_net, y1)) / mlp_forward(layer.s_net, y1)], axis=-1)
        else:
            out = np.concatenate([(y1 - mlp_forward(layer.t_net, y2)) / mlp_forward(layer.s_net, y2), y2], axis=-1)
        return out if batched else out[0]
    raise TypeError(f"unknown layer type {type(layer)!r}")


def apply(seq: LayerSequence, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != seq.ambient_dim:
        raise ValueError(f"input dim {x.shape[-1]} != ambient {seq.ambient_dim}")
    for layer in seq.layers:
        x = apply_layer(layer, x)
    return x


def invert(seq: LayerSequence, y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    if y.shape[-1] != seq.ambient_dim:
        raise ValueError(f"input dim {y.shape[-1]} != ambient {seq.ambient_dim}")
    for layer in reversed(seq.layers):
        y = invert_layer(layer, y)
    return y


def _left_multiply(layer, m: np.ndarray) -> None:
    """Overwrite m with (matrix of layer) @ m, touching only the rows the
    layer changes."""
    if isinstance(layer, ActNormLayer):
        m *= layer.scale[:, None]
        return
    if isinstance(layer, NonlinearCouplingLayer):
        raise NonlinearLayerPresentError("nonlinear layer has no fixed matrix")
    d = layer.dense.shape[0]
    src, dst = (m[:d], m[d:]) if layer.side == LOWER else (m[d:], m[:d])
    dst *= layer.diag[:, None]
    dst += layer.dense @ src


def layer_matrix(layer) -> np.ndarray:
    """Dense matrix of a single linear layer."""
    m = np.eye(layer.ambient_dim)
    _left_multiply(layer, m)
    return m


def as_matrix(seq) -> np.ndarray:
    """Matrix realization of a linear layer or sequence of linear layers.

    For a sequence this is the product of the per-layer matrices in reverse
    order, so it acts on column vectors exactly like apply().
    """
    if not isinstance(seq, LayerSequence):
        return layer_matrix(seq)
    m = np.eye(seq.ambient_dim)
    for layer in seq.layers:
        _left_multiply(layer, m)
    return m


def layer_jacobian(layer, x: np.ndarray) -> np.ndarray:
    if isinstance(layer, (LinearCouplingLayer, ActNormLayer)):
        return layer_matrix(layer)
    d = layer.ambient_dim // 2
    x1, x2 = x[:d], x[d:]
    jac = np.eye(2 * d)
    if layer.side == LOWER:
        s = mlp_forward(layer.s_net, x1[None, :])[0]
        jac[d:, d:] = np.diag(s)
        jac[d:, :d] = x2[:, None] * mlp_jacobian(layer.s_net, x1) + mlp_jacobian(layer.t_net, x1)
    else:
        s = mlp_forward(layer.s_net, x2[None, :])[0]
        jac[:d, :d] = np.diag(s)
        jac[:d, d:] = x1[:, None] * mlp_jacobian(layer.s_net, x2) + mlp_jacobian(layer.t_net, x2)
    return jac


def jacobian(seq: LayerSequence, x: np.ndarray) -> np.ndarray:
    """Chain-rule Jacobian of the sequence at x."""
    x = np.asarray(x, dtype=np.float64)
    jac = np.eye(seq.ambient_dim)
    for layer in seq.layers:
        jac = layer_jacobian(layer, x) @ jac
        x = apply_layer(layer, x)
    return jac


def log_det_jacobian(seq: LayerSequence, x: np.ndarray) -> float:
    """Sum over layers of the triangular log-determinant contributions."""
    x = np.asarray(x, dtype=np.float64)
    total = 0.0
    d = seq.ambient_dim // 2
    for layer in seq.layers:
        if isinstance(layer, ActNormLayer):
            total += float(np.sum(np.log(np.abs(layer.scale))))
        elif isinstance(layer, LinearCouplingLayer):
            total += float(np.sum(np.log(layer.diag)))
        else:
            cond = x[:d] if layer.side == LOWER else x[d:]
            # log s = tanh(pre-activation) by the exptanh construction
            s = mlp_forward(layer.s_net, cond[None, :])[0]
            total += float(np.sum(np.log(s)))
        x = apply_layer(layer, x)
    return total


# ---------------------------------------------------------------------------
# serialization (exact round-trip: repr of float64 is shortest exact form)


def _arr(a):
    return np.asarray(a, dtype=np.float64).ravel().tolist()


def layer_to_dict(layer) -> dict:
    if isinstance(layer, LinearCouplingLayer):
        return {"kind": "linear", "side": layer.side, "dim_half": layer.dense.shape[0],
                "dense": _arr(layer.dense), "diag": _arr(layer.diag)}
    if isinstance(layer, ActNormLayer):
        return {"kind": "actnorm", "scale": _arr(layer.scale)}
    if isinstance(layer, NonlinearCouplingLayer):
        return {"kind": "nonlinear", "side": layer.side,
                "s_net": _mlp_to_dict(layer.s_net), "t_net": _mlp_to_dict(layer.t_net)}
    raise TypeError(f"unknown layer type {type(layer)!r}")


def _mlp_to_dict(mlp: Mlp) -> dict:
    return {"widths": [mlp.weights[0].shape[0]] + [w.shape[1] for w in mlp.weights],
            "activation": mlp.activation, "output_transform": mlp.output_transform,
            "weights": [_arr(w) for w in mlp.weights], "biases": [_arr(b) for b in mlp.biases]}


def _mlp_from_dict(d) -> Mlp:
    widths = d["widths"]
    weights = [np.array(w).reshape(widths[k], widths[k + 1]) for k, w in enumerate(d["weights"])]
    biases = [np.array(b) for b in d["biases"]]
    return Mlp(weights=weights, biases=biases, activation=d["activation"],
               output_transform=d["output_transform"])


def layer_from_dict(d) -> object:
    kind = d["kind"]
    if kind == "linear":
        dh = d["dim_half"]
        return LinearCouplingLayer(side=d["side"], dense=np.array(d["dense"]).reshape(dh, dh),
                                   diag=np.array(d["diag"]))
    if kind == "actnorm":
        return ActNormLayer(scale=np.array(d["scale"]))
    if kind == "nonlinear":
        return NonlinearCouplingLayer(side=d["side"], s_net=_mlp_from_dict(d["s_net"]),
                                      t_net=_mlp_from_dict(d["t_net"]))
    raise ValueError(f"unknown layer kind {kind!r}")


def sequence_to_json(seq: LayerSequence) -> str:
    doc = {"ambient_dim": seq.ambient_dim, "layers": [layer_to_dict(l) for l in seq.layers]}
    return json.dumps(doc)


def sequence_from_json(text: str) -> LayerSequence:
    doc = json.loads(text)
    return LayerSequence(tuple(layer_from_dict(d) for d in doc["layers"]), doc["ambient_dim"])
