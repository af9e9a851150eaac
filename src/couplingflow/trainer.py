"""Gradient-based experiments on coupling stacks.

Four experiment families share the machinery here: regression of
partitioned linear networks (PLN) onto fixed linear maps, regression of
nonlinear coupling stacks and small MLPs onto elementwise nonlinearities,
max-likelihood training of a RealNVP-style stack on 2-D synthetic datasets
with different padding schemes, and an MLE consistency check against the
sample covariance on Gaussian data.

All gradients are computed by hand-written reverse accumulation over the
fixed layer shapes and are checked against central finite differences in
the test suite. Diagonal blocks and actnorm scales are stored as logs and
exponentiated, which keeps them strictly positive without projections.
"""

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from couplingflow import coupling, matcore
from couplingflow.coupling import Mlp, mlp_backward, mlp_forward, mlp_init
from couplingflow.errors import DivergedRunError
from couplingflow.metrics import relative_frobenius
from couplingflow.rng import stream

GAUSSIAN_ENTROPY_2D = 1.0 + math.log(2.0 * math.pi)  # differential entropy of N(0, I2) per point


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-4
    steps: int = 20000
    batch_size: int = 256
    seeds: int = 5
    init_std: float = 1e-5
    target_kind: str = "gaussian_matrix"
    log_interval: int = 100

    def __post_init__(self):
        if min(self.lr, self.steps, self.batch_size, self.seeds, self.log_interval) <= 0:
            raise ValueError("hyperparameters must be positive")
        if self.init_std < 0:
            raise ValueError("init_std must be nonnegative")


def config_hash(config: TrainConfig, **extra) -> str:
    doc = dict(asdict(config), **extra)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


@dataclass
class RunRecord:
    seed: int
    config_hash: str
    metrics: dict = field(default_factory=dict)  # column name -> list, aligned on "step"
    final: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def log(self, step, **values):
        self.metrics.setdefault("step", []).append(int(step))
        for key, val in values.items():
            self.metrics.setdefault(key, []).append(float(val))


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    """First/second moment accumulators over a flat parameter vector."""

    m: np.ndarray
    v: np.ndarray
    lr: float
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, params: np.ndarray, lr: float):
        return cls(m=np.zeros_like(params), v=np.zeros_like(params), lr=lr)

    def update(self, params: np.ndarray, grad: np.ndarray):
        self.step += 1
        self.m *= self.beta1
        self.m += (1.0 - self.beta1) * grad
        self.v *= self.beta2
        self.v += (1.0 - self.beta2) * grad * grad
        bc1 = 1.0 - self.beta1**self.step
        bc2 = 1.0 - self.beta2**self.step
        params -= (self.lr / bc1) * self.m / (np.sqrt(self.v / bc2) + self.eps)


class AdamList:
    """Adam over a list of arrays (used for the MLP-based models)."""

    def __init__(self, params: list, lr: float):
        self.params = params
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.lr = lr
        self.step = 0
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8

    def update(self, grads: list):
        self.step += 1
        bc1 = 1.0 - self.beta1**self.step
        bc2 = 1.0 - self.beta2**self.step
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= (self.lr / bc1) * m / (np.sqrt(v / bc2) + self.eps)


# ---------------------------------------------------------------------------
# partitioned linear networks


class PlnModel:
    """Stack of n layers, each lower coupling, upper coupling, actnorm, on
    d = 2h coordinates. Parameters live in one flat vector (dense blocks
    first, then every log-diagonal), so Adam is a handful of vector ops and
    the diagonals exponentiate in a single call per step."""

    def __init__(self, d: int, n_layers: int, init_std: float, seed: int):
        if d % 2 != 0 or d < 2:
            raise ValueError("d must be even and >= 2")
        if n_layers < 1:
            raise ValueError("n_layers must be >= 1")
        self.d, self.h, self.n_layers = d, d // 2, n_layers
        h = self.h
        dense_size = n_layers * 2 * h * h
        log_size = n_layers * (2 * h + d)
        self.params = np.zeros(dense_size + log_size)
        self.grad = np.zeros_like(self.params)
        self._log_offset = dense_size
        self._exp_buf = np.empty(log_size)
        self.views = []
        self.grad_views = []
        off, log_off = 0, 0
        for _ in range(n_layers):
            layer, glayer = {}, {}
            for name, shape in (("A", (h, h)), ("D", (h, h))):
                size = h * h
                layer[name] = self.params[off : off + size].reshape(shape)
                glayer[name] = self.grad[off : off + size].reshape(shape)
                off += size
            for name, size in (("logb", h), ("logc", h), ("loge", d)):
                start = dense_size + log_off
                layer[name] = self.params[start : start + size]
                glayer[name] = self.grad[start : start + size]
                layer["exp" + name[3:]] = self._exp_buf[log_off : log_off + size]
                log_off += size
            self.views.append(layer)
            self.grad_views.append(glayer)
        rng = stream(seed, "pln-init", d, n_layers)
        for layer in self.views:
            layer["A"][:] = init_std * rng.standard_normal((h, h))
            layer["D"][:] = init_std * rng.standard_normal((h, h))
            # log-parameterized diagonals start at exactly one

    def _refresh_diagonals(self):
        np.exp(self.params[self._log_offset :], out=self._exp_buf)

    def forward(self, z: np.ndarray):
        """Apply the stack to a batch; returns (output, caches)."""
        h = self.h
        self._refresh_diagonals()
        x = z
        caches = []
        for layer in self.views:
            x1, x2 = x[:, :h], x[:, h:]
            u2 = x2 * layer["expb"] + x1 @ layer["A"].T
            v1 = x1 * layer["expc"] + u2 @ layer["D"].T
            out = np.empty_like(x)
            np.multiply(v1, layer["expe"][:h], out=out[:, :h])
            np.multiply(u2, layer["expe"][h:], out=out[:, h:])
            caches.append((x, u2, v1))
            x = out
        return x, caches

    def backward(self, dout: np.ndarray, caches, logdet_coeff: float = 0.0):
        """Accumulate gradients into self.grad, assuming forward() just ran.

        ``logdet_coeff`` adds logdet_coeff * d(sum of log-diagonals) to the
        objective gradient, which is the whole log-determinant contribution
        under the log parameterization.
        """
        h = self.h
        for layer, glayer, cache in zip(reversed(self.views), reversed(self.grad_views),
                                        reversed(caches)):
            x, u2, v1 = cache
            x1, x2 = x[:, :h], x[:, h:]
            # actnorm: out = (v1 | u2) * e
            dv1 = dout[:, :h] * layer["expe"][:h]
            du2 = dout[:, h:] * layer["expe"][h:]
            glayer["loge"][:h] = np.einsum("bj,bj->j", dv1, v1)
            glayer["loge"][h:] = np.einsum("bj,bj->j", du2, u2)
            # upper: v1 = c * x1 + u2 @ D.T
            glayer["D"][:] = dv1.T @ u2
            np.multiply(np.einsum("bj,bj->j", dv1, x1), layer["expc"], out=glayer["logc"])
            dx1 = dv1 * layer["expc"]
            du2 += dv1 @ layer["D"]
            # lower: u2 = b * x2 + x1 @ A.T
            glayer["A"][:] = du2.T @ x1
            np.multiply(np.einsum("bj,bj->j", du2, x2), layer["expb"], out=glayer["logb"])
            dout = np.empty_like(x)
            np.add(dx1, du2 @ layer["A"], out=dout[:, :h])
            np.multiply(du2, layer["expb"], out=dout[:, h:])
        if logdet_coeff != 0.0:
            self.grad[self._log_offset :] += logdet_coeff
        return dout

    def as_matrix(self) -> np.ndarray:
        """Multiply the layers out into the recovered d x d matrix."""
        h = self.h
        m = np.eye(self.d)
        for layer in self.views:
            lower = np.eye(self.d)
            lower[h:, :h] = layer["A"]
            lower[h:, h:] = np.diag(np.exp(layer["logb"]))
            upper = np.eye(self.d)
            upper[:h, :h] = np.diag(np.exp(layer["logc"]))
            upper[:h, h:] = layer["D"]
            m = np.diag(np.exp(layer["loge"])) @ upper @ lower @ m
        return m

    def log_det(self) -> float:
        total = 0.0
        for layer in self.views:
            total += float(np.sum(layer["logb"]) + np.sum(layer["logc"]) + np.sum(layer["loge"]))
        return total


def init_pln(d: int, n_layers: int, init_std: float, seed: int) -> PlnModel:
    return PlnModel(d, n_layers, init_std, seed)


def pln_gradients(model: PlnModel, batch_z: np.ndarray, target_matrix: np.ndarray) -> np.ndarray:
    """Gradient of the normalized batch regression loss; also returns the
    gradient vector referenced by model.grad."""
    if batch_z.shape[0] == 0:
        raise ValueError("batch must be nonempty")
    out, caches = model.forward(batch_z)
    resid = out - batch_z @ target_matrix.T
    dout = 2.0 * resid / (batch_z.shape[0] * model.d)
    model.backward(dout, caches)
    return model.grad.copy()


def pln_loss(model: PlnModel, batch_z: np.ndarray, target_matrix: np.ndarray) -> float:
    out, _ = model.forward(batch_z)
    resid = out - batch_z @ target_matrix.T
    return float(np.mean(np.sum(resid * resid, axis=1)) / model.d)


def make_target_matrix(kind: str, d: int, seed: int) -> np.ndarray:
    rng = stream(seed, "pln-target", kind, d)
    if kind == "gaussian_matrix":
        return rng.standard_normal((d, d))
    if kind == "toeplitz_matrix":
        # one Gaussian value per diagonal, constant along it
        vals = rng.standard_normal(2 * d - 1)
        t = np.empty((d, d))
        for i in range(d):
            for j in range(d):
                t[i, j] = vals[i - j + d - 1]
        return t
    if kind == "identity":
        return np.eye(d)
    raise ValueError(f"unknown target kind {kind!r}")


def train_pln(config: TrainConfig, d: int, n_layers: int, seed: int,
              target_matrix=None) -> RunRecord:
    """Adam regression of a PLN onto a linear target over fresh Gaussian
    batches. Frobenius error is normalized by 1/d^2 and the L2 loss by 1/d."""
    target = (np.asarray(target_matrix, dtype=np.float64) if target_matrix is not None
              else make_target_matrix(config.target_kind, d, seed))
    model = init_pln(d, n_layers, config.init_std, seed)
    adam = AdamState.for_params(model.params, config.lr)
    batches = stream(seed, "pln-batches", d, n_layers)
    record = RunRecord(seed=seed, config_hash=config_hash(config, d=d, n_layers=n_layers))

    def frob_err():
        return relative_frobenius(model.as_matrix(), target) ** 2 * (
            np.linalg.norm(target) ** 2) / d**2

    for step in range(config.steps):
        z = batches.standard_normal((config.batch_size, d))
        # the batch loss and its gradient depend on z only through z^T z, so
        # the stack runs on the at most d rows of the QR factor r of z
        # (r^T r = z^T z) instead of on all of z
        z = np.linalg.qr(z, mode="r")
        out, caches = model.forward(z)
        resid = out - z @ target.T
        loss = float(np.sum(resid * resid)) / (config.batch_size * d)
        if not np.isfinite(loss):
            raise DivergedRunError(f"loss diverged at step {step}", record)
        if step % config.log_interval == 0:
            record.log(step, loss=loss, frobenius_error=frob_err())
        model.backward(2.0 * resid / (config.batch_size * d), caches)
        adam.update(model.params, model.grad)
    final_err = frob_err()
    record.log(config.steps, loss=pln_loss(model, batches.standard_normal((config.batch_size, d)), target),
               frobenius_error=final_err)
    record.final = {"loss": record.metrics["loss"][-1], "frobenius_error": final_err,
                    "recovered_matrix": model.as_matrix().tolist()}
    return record


def pln_depth_sweep(config: TrainConfig, d: int, layer_counts, seeds=None) -> dict:
    """RunRecords per layer count over the configured seeds."""
    seeds = range(config.seeds) if seeds is None else seeds
    return {n: [train_pln(config, d, n, seed) for seed in seeds] for n in layer_counts}


# ---------------------------------------------------------------------------
# nonlinear coupling stacks


def _coupling_stack(d: int, n_pairs: int, hidden: int, activation: str, seed: int,
                    init_scale: float = None) -> list:
    """Alternating lower/upper nonlinear couplings; s uses exptanh output."""
    h = d // 2
    rng = stream(seed, "stack-init", d, n_pairs, hidden)
    layers = []
    for i in range(2 * n_pairs):
        side = coupling.LOWER if i % 2 == 0 else coupling.UPPER
        widths = [h, hidden, hidden, h]
        s_net = mlp_init(widths, activation=activation, output_transform="exptanh",
                         rng=rng, scale=init_scale)
        t_net = mlp_init(widths, activation=activation, rng=rng, scale=init_scale)
        layers.append(coupling.NonlinearCouplingLayer(side=side, s_net=s_net, t_net=t_net))
    return layers


def _stack_params(layers) -> list:
    params = []
    for layer in layers:
        for net in (layer.s_net, layer.t_net):
            params.extend(net.weights)
            params.extend(net.biases)
    return params


def _stack_forward(layers, x: np.ndarray, want_logdet: bool = False):
    """Forward through the coupling stack, caching everything the backward
    pass needs; logdet is the per-sample sum of log scale outputs."""
    h = layers[0].ambient_dim // 2 if layers else x.shape[1] // 2
    caches = []
    logdet = np.zeros(x.shape[0])
    for layer in layers:
        x1, x2 = x[:, :h], x[:, h:]
        cond, passive = (x1, x2) if layer.side == coupling.LOWER else (x2, x1)
        s, s_cache = mlp_forward(layer.s_net, cond, want_cache=True)
        t, t_cache = mlp_forward(layer.t_net, cond, want_cache=True)
        updated = passive * s + t
        if want_logdet:
            logdet += np.sum(np.log(s), axis=1)
        caches.append((x, cond, passive, s, s_cache, t_cache))
        if layer.side == coupling.LOWER:
            x = np.concatenate([x1, updated], axis=1)
        else:
            x = np.concatenate([updated, x2], axis=1)
    return x, caches, logdet


def _stack_backward(layers, caches, dout: np.ndarray, logdet_coeff: float = 0.0) -> list:
    """Gradients in the order of _stack_params; logdet_coeff weights the
    d(sum log s)/dparams term (per sample)."""
    h = layers[0].ambient_dim // 2
    grads = {id(layer): None for layer in layers}
    for layer, cache in zip(reversed(layers), reversed(caches)):
        x, cond, passive, s, s_cache, t_cache = cache
        if layer.side == coupling.LOWER:
            dcond_direct, dupd = dout[:, :h], dout[:, h:]
        else:
            dupd, dcond_direct = dout[:, :h], dout[:, h:]
        ds = dupd * passive
        if logdet_coeff != 0.0:
            ds = ds + logdet_coeff / s
        sw, sb, dcond_s = mlp_backward(layer.s_net, s_cache, ds)
        tw, tb, dcond_t = mlp_backward(layer.t_net, t_cache, dupd)
        dpassive = dupd * s
        dcond = dcond_direct + dcond_s + dcond_t
        if layer.side == coupling.LOWER:
            dout = np.concatenate([dcond, dpassive], axis=1)
        else:
            dout = np.concatenate([dpassive, dcond], axis=1)
        grads[id(layer)] = (sw, sb, tw, tb)
    flat = []
    for layer in layers:
        sw, sb, tw, tb = grads[id(layer)]
        flat.extend(sw)
        flat.extend(sb)
        flat.extend(tw)
        flat.extend(tb)
    return flat


def _mlp_params(net: Mlp) -> list:
    return list(net.weights) + list(net.biases)


def _regression_target(kind: str, z: np.ndarray, matrix=None) -> np.ndarray:
    if kind == "elementwise_tanh":
        return np.tanh(z)
    if kind == "elementwise_relu":
        return np.maximum(z, 0.0)
    if kind == "linear":
        return z @ matrix.T
    raise ValueError(f"unknown regression target {kind!r}")


def train_coupling_regression(config: TrainConfig, d: int, target: str,
                              architecture: str, seed: int, n_pairs: int = 5,
                              hidden: int = 128) -> RunRecord:
    """Regress either a coupling stack or one of its subnetworks (a small
    MLP of identical shape) onto an elementwise nonlinearity, under an
    identical data stream."""
    record = RunRecord(seed=seed, config_hash=config_hash(
        config, d=d, target=target, architecture=architecture))
    lin = make_target_matrix("gaussian_matrix", d, seed) if target == "linear" else None
    batches = stream(seed, "regression-batches", d, target)

    if architecture == "coupling_stack":
        layers = _coupling_stack(d, n_pairs, hidden, activation="tanh", seed=seed)
        params = _stack_params(layers)
        adam = AdamList(params, config.lr)
        for step in range(config.steps):
            z = batches.standard_normal((config.batch_size, d))
            y = _regression_target(target, z, lin)
            out, caches, _ = _stack_forward(layers, z)
            resid = out - y
            loss = float(np.mean(np.sum(resid * resid, axis=1)) / d)
            if not np.isfinite(loss):
                raise DivergedRunError(f"loss diverged at step {step}", record)
            if step % config.log_interval == 0:
                record.log(step, loss=loss)
            grads = _stack_backward(layers, caches, 2.0 * resid / (config.batch_size * d))
            adam.update(grads)
    elif architecture == "small_mlp":
        net = mlp_init([d, hidden, hidden, d], activation="tanh",
                       rng=stream(seed, "mlp-init", d, hidden))
        params = _mlp_params(net)
        adam = AdamList(params, config.lr)
        for step in range(config.steps):
            z = batches.standard_normal((config.batch_size, d))
            y = _regression_target(target, z, lin)
            out, cache = mlp_forward(net, z, want_cache=True)
            resid = out - y
            loss = float(np.mean(np.sum(resid * resid, axis=1)) / d)
            if not np.isfinite(loss):
                raise DivergedRunError(f"loss diverged at step {step}", record)
            if step % config.log_interval == 0:
                record.log(step, loss=loss)
            gw, gb, _ = mlp_backward(net, cache, 2.0 * resid / (config.batch_size * d))
            adam.update(list(gw) + list(gb))
    else:
        raise ValueError(f"unknown architecture {architecture!r}")

    z = batches.standard_normal((1024, d))
    y = _regression_target(target, z, lin)
    if architecture == "coupling_stack":
        out, _, _ = _stack_forward(layers, z)
    else:
        out = mlp_forward(net, z)
    final_loss = float(np.mean(np.sum((out - y) ** 2, axis=1)) / d)
    record.log(config.steps, loss=final_loss)
    record.final = {"loss": final_loss}
    return record


# ---------------------------------------------------------------------------
# synthetic 2-D datasets


def dataset_sample(kind: str, n: int, seed: int) -> np.ndarray:
    """Deterministic 2-D samples for the named synthetic dataset."""
    if n < 1:
        raise ValueError("n must be positive")
    rng = stream(seed, "dataset", kind)
    if kind == "four_gaussians":
        comp = rng.integers(0, 4, size=n)
        centers = np.array([[2.0, 2.0], [2.0, -2.0], [-2.0, 2.0], [-2.0, -2.0]])
        return centers[comp] + 0.3 * rng.standard_normal((n, 2))
    if kind == "swissroll":
        t = rng.uniform(1.5 * np.pi, 4.5 * np.pi, size=n)
        pts = np.stack([t * np.cos(t), t * np.sin(t)], axis=1)
        return pts / 7.5 + 0.02 * rng.standard_normal((n, 2))
    if kind == "two_moons":
        raw = two_moons_raw(n, rng)
        return (raw - np.array([0.5, 0.25])) / 0.9
    if kind == "checkerboard":
        x1 = rng.uniform(-2.0, 2.0, size=n)
        x2 = rng.uniform(0.0, 1.0, size=n) - rng.integers(0, 2, size=n) * 2.0
        x2 = x2 + np.floor(x1) % 2
        return np.stack([x1, x2], axis=1) / 2.0
    raise ValueError(f"unknown dataset {kind!r}")


def two_moons_raw(n: int, rng) -> np.ndarray:
    """Two interleaved half circles with Gaussian jitter, pre-normalization."""
    theta = rng.uniform(0.0, np.pi, size=n)
    upper = rng.integers(0, 2, size=n).astype(bool)
    x = np.where(upper, np.cos(theta), 1.0 - np.cos(theta))
    y = np.where(upper, np.sin(theta), 0.5 - np.sin(theta))
    return np.stack([x, y], axis=1) + 0.1 * rng.standard_normal((n, 2))


# ---------------------------------------------------------------------------
# max-likelihood training with padding


DEQUANT_NOISE = 1e-4  # jitter on zero-padded coordinates; keeps the likelihood finite


def _padded_batch(kind: str, padding: str, batch_size: int, rng) -> np.ndarray:
    base = _dataset_batch(kind, batch_size, rng)
    if padding == "none":
        return base
    if padding == "zero":
        pad = DEQUANT_NOISE * rng.standard_normal((batch_size, 2))
        return np.concatenate([base, pad], axis=1)
    if padding == "gaussian":
        pad = rng.standard_normal((batch_size, 2))
        return np.concatenate([base, pad], axis=1)
    raise ValueError(f"unknown padding {padding!r}")


def _dataset_batch(kind: str, batch_size: int, rng) -> np.ndarray:
    # same parametric families as dataset_sample, driven by a live stream
    if kind == "gaussian":
        return rng.standard_normal((batch_size, 2))
    if kind == "four_gaussians":
        comp = rng.integers(0, 4, size=batch_size)
        centers = np.array([[2.0, 2.0], [2.0, -2.0], [-2.0, 2.0], [-2.0, -2.0]])
        return centers[comp] + 0.3 * rng.standard_normal((batch_size, 2))
    if kind == "swissroll":
        t = rng.uniform(1.5 * np.pi, 4.5 * np.pi, size=batch_size)
        pts = np.stack([t * np.cos(t), t * np.sin(t)], axis=1)
        return pts / 7.5 + 0.02 * rng.standard_normal((batch_size, 2))
    if kind == "two_moons":
        return (two_moons_raw(batch_size, rng) - np.array([0.5, 0.25])) / 0.9
    if kind == "checkerboard":
        x1 = rng.uniform(-2.0, 2.0, size=batch_size)
        x2 = rng.uniform(0.0, 1.0, size=batch_size) - rng.integers(0, 2, size=batch_size) * 2.0
        x2 = x2 + np.floor(x1) % 2
        return np.stack([x1, x2], axis=1) / 2.0
    raise ValueError(f"unknown dataset {kind!r}")


def _nll(y: np.ndarray, logdet: np.ndarray) -> float:
    dim = y.shape[1]
    return float(np.mean(0.5 * np.sum(y * y, axis=1) - logdet) + 0.5 * dim * math.log(2.0 * math.pi))


def train_nvp_mle(dataset: str, padding: str, config: TrainConfig, seed: int,
                  n_pairs: int = 3, hidden: int = 128,
                  probe_size: int = 64) -> RunRecord:
    """Max-likelihood training of a nonlinear coupling stack (normalizing
    direction) with the chosen padding; records NLL and the Jacobian
    condition number at a fixed probe batch."""
    dim = 2 if padding == "none" else 4
    layers = _coupling_stack(dim, n_pairs, hidden, activation="relu", seed=seed)
    params = _stack_params(layers)
    adam = AdamList(params, config.lr)
    record = RunRecord(seed=seed, config_hash=config_hash(
        config, dataset=dataset, padding=padding))
    if padding == "zero":
        record.notes.append(f"zero padding dequantized with noise {DEQUANT_NOISE:g}")

    data_rng = stream(seed, "mle-data", dataset, padding)
    probe = _padded_batch(dataset, padding, probe_size, stream(seed, "mle-probe", dataset, padding))
    eval_batch = _padded_batch(dataset, padding, 512, stream(seed, "mle-eval", dataset, padding))
    seq = coupling.sequence(layers, ambient_dim=dim)

    def probe_condition():
        conds = []
        for row in probe:
            jac = coupling.jacobian(seq, row)
            conds.append(matcore.condition_number(jac))
        conds = np.asarray(conds)
        return float(np.median(np.log10(conds))), float(np.max(np.log10(conds)))

    for step in range(config.steps):
        x = _padded_batch(dataset, padding, config.batch_size, data_rng)
        y, caches, logdet = _stack_forward(layers, x, want_logdet=True)
        nll = _nll(y, logdet)
        if not np.isfinite(nll):
            raise DivergedRunError(f"NLL diverged at step {step}", record)
        if step % config.log_interval == 0:
            ey, _, elogdet = _stack_forward(layers, eval_batch, want_logdet=True)
            cond_med, cond_max = probe_condition()
            record.log(step, nll=_nll(ey, elogdet), cond_log10_median=cond_med,
                       cond_log10_max=cond_max)
        dy = y / config.batch_size
        grads = _stack_backward(layers, caches, dy, logdet_coeff=-1.0 / config.batch_size)
        adam.update(grads)

    ey, _, elogdet = _stack_forward(layers, eval_batch, want_logdet=True)
    cond_med, cond_max = probe_condition()
    final_nll = _nll(ey, elogdet)
    record.log(config.steps, nll=final_nll, cond_log10_median=cond_med, cond_log10_max=cond_max)
    record.final = {"nll": final_nll, "cond_log10_median": cond_med, "cond_log10_max": cond_max}
    return record


# ---------------------------------------------------------------------------
# MLE consistency on Gaussian data


def mle_linear_gaussian_check(sigma, n_samples: int, config: TrainConfig = None,
                              seed: int = 0, n_layers: int = 4):
    """Train a linear coupling stack by MLE on N(0, sigma) draws and compare
    the fitted covariance (from the recovered matrix) to the sample
    covariance. Returns (fitted_cov, sample_cov, relative_gap)."""
    sigma = matcore.as_matrix_array(sigma)
    dim = sigma.shape[0]
    if dim % 2 != 0:
        raise ValueError("dimension must be even")
    if config is None:
        config = TrainConfig(lr=2e-3, steps=8000, batch_size=1024, seeds=1)
    chol = np.linalg.cholesky(sigma)
    rng = stream(seed, "mle-gaussian", dim, n_samples)
    data = rng.standard_normal((n_samples, dim)) @ chol.T
    sample_cov = data.T @ data / n_samples

    model = PlnModel(dim, n_layers, config.init_std, seed)
    adam = AdamState.for_params(model.params, config.lr)
    batches = stream(seed, "mle-gaussian-batches", dim)
    record = RunRecord(seed=seed, config_hash=config_hash(config, dim=dim))
    for step in range(config.steps):
        idx = batches.integers(0, n_samples, size=config.batch_size)
        x = data[idx]
        y, caches = model.forward(x)
        nll = float(np.mean(0.5 * np.sum(y * y, axis=1)) - model.log_det()
                    + 0.5 * dim * math.log(2.0 * math.pi))
        if not np.isfinite(nll):
            raise DivergedRunError(f"NLL diverged at step {step}", record)
        if step % config.log_interval == 0:
            record.log(step, nll=nll)
        model.backward(y / config.batch_size, caches, logdet_coeff=-1.0)
        adam.update(model.params, model.grad)

    g = model.as_matrix()           # normalizing map: data -> latent
    g_inv = matcore.inv(g)          # generator
    fitted_cov = g_inv @ g_inv.T
    gap = relative_frobenius(fitted_cov, sample_cov)
    return fitted_cov, sample_cov, float(gap)
