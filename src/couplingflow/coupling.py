"""Affine coupling layers and ordered sequences of them.

The coordinate partition is fixed throughout: the first half of the 2d
coordinates versus the second half. A "lower" layer keeps the first half
and updates the second; an "upper" layer keeps the second half and updates
the first. Every coupling layer is one step: the kept half k stays, the
passive half p goes to p * s(k) + t(k) with s > 0. Linear layers are the
case s = b, t = A k, realizing the block matrices

    lower: [I 0; A diag(b)]        upper: [diag(c) D; 0 I]

with strictly positive diagonal blocks, so every coupling product has
positive determinant. Nonlinear layers use a scale network s (positive by
construction, s = exp(tanh(.)) on the output) and a translation network t.

Sequences are applied first-layer-first; ``as_matrix`` therefore returns
the reverse-order product, so as_matrix(seq) @ x == apply(seq, x).
"""

import json
from base64 import b64decode, b64encode
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

    def __post_init__(self):
        if self.activation not in ("relu", "tanh"):
            raise ValueError(f"activation: expected 'relu' or 'tanh', got {self.activation!r}")
        if self.output_transform not in ("identity", "exptanh"):
            raise ValueError(f"output_transform: expected 'identity' or 'exptanh', "
                             f"got {self.output_transform!r}")

    @property
    def in_dim(self):
        return self.weights[0].shape[0]

    @property
    def out_dim(self):
        return self.weights[-1].shape[1]


def mlp_init(widths, activation="relu", output_transform="identity", *, rng):
    """He/Xavier-style initialization for the given layer widths, drawn
    from ``rng``."""
    weights, biases = [], []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        weights.append(rng.normal(0.0, np.sqrt(1.0 / fan_in), size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return Mlp(weights=weights, biases=biases, activation=activation,
               output_transform=output_transform)


def _act_deriv(name, h):
    """Derivative of the hidden activation, read off its output h: relu
    gives h > 0 (0 at exactly 0), tanh gives 1 - h^2."""
    if name == "relu":
        return h > 0.0
    return 1.0 - h**2


def mlp_forward(mlp: Mlp, x: np.ndarray):
    """Evaluate the net on a batch (n, in_dim). Returns (output, cache).

    Each layer adds its bias and applies its activation in place on its
    matmul result. The cache holds what the backward pass needs and nothing
    else: ``hidden``, the input followed by each layer's output (the last
    one before the output transform), and ``out``. Derivatives are taken
    from these activations, so no pre-activation is kept."""
    hidden = [x]
    last = len(mlp.weights) - 1
    for k, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        h = hidden[-1] @ w
        h += b
        if k == last:
            pass  # the output layer is affine; its transform comes below
        elif mlp.activation == "relu":
            np.maximum(h, 0.0, out=h)
        else:
            np.tanh(h, out=h)
        hidden.append(h)
    out = np.exp(np.tanh(h)) if mlp.output_transform == "exptanh" else h
    return out, {"hidden": hidden, "out": out}


def mlp_backward(mlp: Mlp, cache, dout):
    """Reverse-mode gradients. Returns (grad_weights, grad_biases, dx)."""
    hidden = cache["hidden"]
    if mlp.output_transform == "exptanh":
        dh = dout * cache["out"] * (1.0 - np.tanh(hidden[-1]) ** 2)
    else:
        dh = dout
    grad_w = [None] * len(mlp.weights)
    grad_b = [None] * len(mlp.biases)
    last = len(mlp.weights) - 1
    for k in range(last, -1, -1):
        if k != last:
            # dh is the fresh product of the layer above, so scale it in place
            dh *= _act_deriv(mlp.activation, hidden[k + 1])
        grad_w[k] = hidden[k].T @ dh
        grad_b[k] = np.sum(dh, axis=0)
        dh = dh @ mlp.weights[k].T
    return grad_w, grad_b, dh


def _mlp_jacobians(mlp: Mlp, cache) -> np.ndarray:
    """Per-row Jacobians (n, out_dim, in_dim) of the batch that filled
    ``cache`` (from ``mlp_forward``).

    Carried transposed, as (n, in_dim, width), so each weight is one matrix
    product over all rows."""
    hidden = cache["hidden"]
    n, in_dim = hidden[0].shape
    jac_t = np.broadcast_to(np.eye(in_dim), (n, in_dim, in_dim))
    last = len(mlp.weights) - 1
    for k, w in enumerate(mlp.weights):
        jac_t = (jac_t.reshape(n * in_dim, w.shape[0]) @ w).reshape(n, in_dim, w.shape[1])
        if k != last:
            jac_t *= _act_deriv(mlp.activation, hidden[k + 1])[:, None, :]
    if mlp.output_transform == "exptanh":
        jac_t *= (cache["out"] * (1.0 - np.tanh(hidden[-1]) ** 2))[:, None, :]
    return jac_t.transpose(0, 2, 1)


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
        if (self.diag <= 0.0).any():
            raise ValueError("diagonal block must be strictly positive")
        if not (np.isfinite(self.dense).all() and np.isfinite(self.diag).all()):
            raise ValueError("non-finite layer entries")

    @property
    def ambient_dim(self):
        return 2 * self.dense.shape[0]


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
            if not isinstance(layer, (LinearCouplingLayer, NonlinearCouplingLayer)):
                raise TypeError(f"unknown layer type {type(layer)!r}")
            if layer.ambient_dim != self.ambient_dim:
                raise ValueError("layers disagree on ambient dimension")

    def __len__(self):
        return len(self.layers)


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


def _halves(side, x):
    """(kept, passive) halves of x (..., 2d) for a layer on ``side``."""
    d = x.shape[-1] // 2
    return (x[..., :d], x[..., d:]) if side == LOWER else (x[..., d:], x[..., :d])


def _join(side, kept, updated):
    """Inverse of ``_halves``: reassemble x from its kept and updated halves."""
    return np.concatenate([kept, updated] if side == LOWER else [updated, kept], axis=-1)


def _scale_shift(layer, kept):
    """Scale s and shift t of the coupling step passive -> passive * s + t.

    A linear layer is the case s = diag, t = dense @ kept; a nonlinear one
    evaluates its nets (a single point runs as a one-row batch)."""
    if isinstance(layer, LinearCouplingLayer):
        return layer.diag, kept @ layer.dense.T
    if isinstance(layer, NonlinearCouplingLayer):
        rows = np.atleast_2d(kept)
        return (mlp_forward(layer.s_net, rows)[0].reshape(kept.shape),
                mlp_forward(layer.t_net, rows)[0].reshape(kept.shape))
    raise TypeError(f"unknown layer type {type(layer)!r}")


def apply_layer(layer, x: np.ndarray) -> np.ndarray:
    """Apply one layer to x; x may be a vector (2d,) or a batch (n, 2d)."""
    kept, passive = _halves(layer.side, x)
    s, t = _scale_shift(layer, kept)
    return _join(layer.side, kept, passive * s + t)


def invert_layer(layer, y: np.ndarray) -> np.ndarray:
    kept, updated = _halves(layer.side, y)
    s, t = _scale_shift(layer, kept)
    return _join(layer.side, kept, (updated - t) / s)


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


def _couple_rows(side, dense, diag, m: np.ndarray) -> None:
    """Overwrite the updated half of the rows of m with
    diag * (those rows) + dense @ (the kept rows). dense and diag are one
    block or one per member of the stack m."""
    d = diag.shape[-1]
    src, dst = (m[..., :d, :], m[..., d:, :]) if side == LOWER else (m[..., d:, :], m[..., :d, :])
    dst *= diag[..., :, None]
    dst += dense @ src


def as_matrix(seq: LayerSequence) -> np.ndarray:
    """Matrix realization of a sequence of linear layers: the product of
    the per-layer matrices in reverse order, so it acts on column vectors
    exactly like apply(). Each layer overwrites only the rows it changes.
    """
    m = np.eye(seq.ambient_dim)
    for layer in seq.layers:
        if isinstance(layer, NonlinearCouplingLayer):
            raise NonlinearLayerPresentError("nonlinear layer has no fixed matrix")
        _couple_rows(layer.side, layer.dense, layer.diag, m)
    return m


def jacobian(seq: LayerSequence, x: np.ndarray) -> np.ndarray:
    """Chain-rule Jacobian of the sequence at a point x (2d,), giving
    (2d, 2d), or at each row of a batch x (n, 2d), giving (n, 2d, 2d).

    The layers are walked once for the whole batch. Each updates the rows
    of its passive half as its coupling step does: a linear layer with its
    fixed blocks, a nonlinear one with per-row blocks from one batched pass
    of its s and t nets."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != seq.ambient_dim:
        raise ValueError(f"input dim {x.shape[-1]} != ambient {seq.ambient_dim}")
    single = x.ndim == 1
    if single:
        x = x[None, :]
    jac = np.tile(np.eye(seq.ambient_dim), (x.shape[0], 1, 1))
    for layer in seq.layers:
        kept, passive = _halves(layer.side, x)
        if isinstance(layer, LinearCouplingLayer):
            s, t = _scale_shift(layer, kept)
            dense = layer.dense
        else:
            s, s_cache = mlp_forward(layer.s_net, kept)
            t, t_cache = mlp_forward(layer.t_net, kept)
            # d(passive * s + t)/d(kept) = diag(passive) J_s + J_t, per row
            dense = passive[:, :, None] * _mlp_jacobians(layer.s_net, s_cache) \
                + _mlp_jacobians(layer.t_net, t_cache)
        _couple_rows(layer.side, dense, s, jac)
        x = _join(layer.side, kept, passive * s + t)
    return jac[0] if single else jac


def apply_with_log_det(seq: LayerSequence, x: np.ndarray):
    """Apply the sequence to a point x (2d,) or a batch x (n, 2d) and return
    (y, log_det): y as ``apply`` gives it, and log |det| of the Jacobian at
    each input row, shape x.shape[:-1] (a 0-d array for a point).

    The layers are walked once. Each adds sum(log s) of its coupling step,
    and no net keeps a backward cache, so this is the evaluation-only
    forward of a trained flow."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != seq.ambient_dim:
        raise ValueError(f"input dim {x.shape[-1]} != ambient {seq.ambient_dim}")
    log_det = np.zeros(x.shape[:-1])
    for layer in seq.layers:
        kept, passive = _halves(layer.side, x)
        s, t = _scale_shift(layer, kept)
        log_det += np.sum(np.log(s), axis=-1)
        x = _join(layer.side, kept, passive * s + t)
    return x, log_det


# ---------------------------------------------------------------------------
# serialization: every array is base64 of its row-major little-endian float64 bytes


def _arr(a):
    return b64encode(np.asarray(a, dtype="<f8").tobytes()).decode("ascii")


def _unarr(text, field, shape=-1):
    try:
        return np.frombuffer(b64decode(text, validate=True), "<f8").astype(float).reshape(shape)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{field}: {exc}") from exc


def _field(doc, key, kind=object, where=""):
    """``doc[key]`` when ``doc`` is a JSON object holding a ``kind`` there (a
    bool is not an int); a ValueError naming the field otherwise."""
    name = where + key
    if not isinstance(doc, dict):
        raise ValueError(f"{name}: expected a JSON object around it, got {type(doc).__name__}")
    if key not in doc:
        raise ValueError(f"{name}: missing")
    value = doc[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(f"{name}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def layer_to_dict(layer) -> dict:
    if isinstance(layer, LinearCouplingLayer):
        return {"kind": "linear", "side": layer.side, "dim_half": layer.dense.shape[0],
                "dense": _arr(layer.dense), "diag": _arr(layer.diag)}
    if isinstance(layer, NonlinearCouplingLayer):
        return {"kind": "nonlinear", "side": layer.side,
                "s_net": _mlp_to_dict(layer.s_net), "t_net": _mlp_to_dict(layer.t_net)}
    raise TypeError(f"unknown layer type {type(layer)!r}")


def _mlp_to_dict(mlp: Mlp) -> dict:
    return {"widths": [mlp.weights[0].shape[0]] + [w.shape[1] for w in mlp.weights],
            "activation": mlp.activation, "output_transform": mlp.output_transform,
            "weights": [_arr(w) for w in mlp.weights], "biases": [_arr(b) for b in mlp.biases]}


def _mlp_from_dict(d, net) -> Mlp:
    widths, weights, biases = (_field(d, key, list, f"{net}.")
                               for key in ("widths", "weights", "biases"))
    shapes = list(zip(widths, widths[1:]))
    if not len(weights) == len(biases) == len(shapes):
        raise ValueError(f"{net}: widths {widths} do not fit its weights and biases")
    weights = [_unarr(a, f"{net}.weights[{k}]", shapes[k]) for k, a in enumerate(weights)]
    biases = [_unarr(a, f"{net}.biases[{k}]", shapes[k][1]) for k, a in enumerate(biases)]
    activation, output_transform = (_field(d, key, str, f"{net}.")
                                    for key in ("activation", "output_transform"))
    try:
        return Mlp(weights, biases, activation, output_transform)
    except ValueError as exc:
        raise ValueError(f"{net}.{exc}") from exc


def layer_from_dict(d) -> object:
    kind = _field(d, "kind", str)
    if kind == "linear":
        dh = _field(d, "dim_half", int)
        return LinearCouplingLayer(side=_field(d, "side", str),
                                   dense=_unarr(_field(d, "dense"), "dense", (dh, dh)),
                                   diag=_unarr(_field(d, "diag"), "diag", (dh,)))
    if kind == "nonlinear":
        return NonlinearCouplingLayer(side=_field(d, "side", str),
                                      s_net=_mlp_from_dict(_field(d, "s_net"), "s_net"),
                                      t_net=_mlp_from_dict(_field(d, "t_net"), "t_net"))
    raise ValueError(f"unknown layer kind {kind!r}")


def sequence_to_json(seq: LayerSequence) -> str:
    doc = {"ambient_dim": seq.ambient_dim, "layers": [layer_to_dict(l) for l in seq.layers]}
    return json.dumps(doc)


def sequence_from_json(text: str) -> LayerSequence:
    doc = json.loads(text)
    layers = tuple(layer_from_dict(d) for d in _field(doc, "layers", list))
    return LayerSequence(layers, _field(doc, "ambient_dim", int))
