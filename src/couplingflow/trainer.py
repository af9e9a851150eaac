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

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import toeplitz

from couplingflow import coupling, matcore
from couplingflow.coupling import _halves, _join, mlp_backward, mlp_forward, mlp_init
from couplingflow.errors import DivergedRunError
from couplingflow.metrics import relative_frobenius
from couplingflow.rng import stream

PLN_INIT_STD = 1e-5  # std of the PLN dense-block draws at initialization


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-4
    steps: int = 20000
    batch_size: int = 256
    log_interval: int = 100

    def __post_init__(self):
        if min(self.lr, self.steps, self.batch_size, self.log_interval) <= 0:
            raise ValueError("hyperparameters must be positive")


@dataclass
class RunRecord:
    seed: int
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
    d = 2h coordinates. Parameters live in one flat vector, dense blocks
    first, then every log-diagonal, so Adam is a handful of vector ops. Two
    views stack them per layer: ``dense`` (n, 2, h, h) holds A and D and
    ``logs`` (n, 2d) holds log b, log c and log e; ``grad_dense`` and
    ``grad_logs`` view ``grad`` the same way."""

    def __init__(self, d: int, n_layers: int, init_std: float, seed: int):
        if d % 2 != 0 or d < 2:
            raise ValueError("d must be even and >= 2")
        if n_layers < 1:
            raise ValueError("n_layers must be >= 1")
        self.d, self.h, self.n_layers = d, d // 2, n_layers
        h = self.h
        split = n_layers * 2 * h * h
        self.params = np.zeros(split + n_layers * 2 * d)
        self.grad = np.zeros_like(self.params)
        self.dense = self.params[:split].reshape(n_layers, 2, h, h)
        self.logs = self.params[split:].reshape(n_layers, 2 * d)
        self.grad_dense = self.grad[:split].reshape(n_layers, 2, h, h)
        self.grad_logs = self.grad[split:].reshape(n_layers, 2 * d)
        # log-parameterized diagonals start at exactly one
        rng = stream(seed, "pln-init", d, n_layers)
        self.dense[:] = init_std * rng.standard_normal(self.dense.shape)

    def forward(self, z: np.ndarray):
        """Apply the stack to a batch; returns (output, caches)."""
        h = self.h
        diag = np.exp(self.logs)
        dense_t = self.dense.transpose(0, 1, 3, 2)
        x = z
        caches = []
        # index per layer: unpacking a numpy array row by row costs more
        for i in range(self.n_layers):
            x1, x2 = x[:, :h], x[:, h:]
            b, c, e = diag[i, :h], diag[i, h:2 * h], diag[i, 2 * h:]
            u2 = x2 * b + x1 @ dense_t[i, 0]
            v1 = x1 * c + u2 @ dense_t[i, 1]
            caches.append((x1, x2, u2, v1, b, c, e))
            x = np.concatenate((v1, u2), axis=1)
            x *= e
        return x, caches

    def backward(self, dout: np.ndarray, caches, logdet_coeff: float = 0.0):
        """Accumulate gradients into self.grad, assuming forward() just ran.

        ``logdet_coeff`` adds logdet_coeff * d(sum of log-diagonals) to the
        objective gradient, which is the whole log-determinant contribution
        under the log parameterization.
        """
        h = self.h
        for i in reversed(range(self.n_layers)):
            x1, x2, u2, v1, b, c, e = caches[i]
            grad_diag = self.grad_logs[i]
            # actnorm: out = (v1 | u2) * e
            dv1 = dout[:, :h] * e[:h]
            du2 = dout[:, h:] * e[h:]
            grad_diag[2 * h:3 * h] = np.einsum("bj,bj->j", dv1, v1)
            grad_diag[3 * h:] = np.einsum("bj,bj->j", du2, u2)
            # upper: v1 = c * x1 + u2 @ D.T
            self.grad_dense[i, 1] = dv1.T @ u2
            grad_diag[h:2 * h] = np.einsum("bj,bj->j", dv1, x1) * c
            du2 += dv1 @ self.dense[i, 1]
            # lower: u2 = b * x2 + x1 @ A.T
            self.grad_dense[i, 0] = du2.T @ x1
            grad_diag[:h] = np.einsum("bj,bj->j", du2, x2) * b
            dout = np.concatenate((dv1 * c + du2 @ self.dense[i, 0], du2 * b), axis=1)
        if logdet_coeff != 0.0:
            self.grad_logs += logdet_coeff
        return dout

    def as_matrix(self) -> np.ndarray:
        """Multiply the layers out into the recovered d x d matrix, a product
        of 2n couplings: each actnorm E = diag(e1, e2) folds into its layer's
        pair as E U(D, c) L(A, b) = U(e1 D / e2, e1 c) L(e2 A, e2 b)."""
        h = self.h
        layers = []
        for (a, dm), diag in zip(self.dense, np.exp(self.logs)):
            b, c, e1, e2 = diag[:h], diag[h:2 * h], diag[2 * h:3 * h], diag[3 * h:]
            layers += [coupling.LinearCouplingLayer(coupling.LOWER, e2[:, None] * a, e2 * b),
                       coupling.LinearCouplingLayer(coupling.UPPER, e1[:, None] * dm / e2, e1 * c)]
        return coupling.as_matrix(coupling.sequence(layers, ambient_dim=self.d))

    def log_det(self) -> float:
        return float(np.sum(self.logs))


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
        return toeplitz(vals[d - 1:], vals[d - 1::-1])
    raise ValueError(f"unknown target kind {kind!r}")


def train_pln(config: TrainConfig, d: int, n_layers: int, seed: int,
              target_matrix) -> RunRecord:
    """Adam regression of a PLN onto a linear target over fresh Gaussian
    batches. Frobenius error is normalized by 1/d^2 and the L2 loss by 1/d."""
    target = np.asarray(target_matrix, dtype=np.float64)
    model = PlnModel(d, n_layers, PLN_INIT_STD, seed)
    adam = AdamState.for_params(model.params, config.lr)
    batches = stream(seed, "pln-batches", d, n_layers)
    record = RunRecord(seed=seed)

    def frob_err():
        return float(np.sum((model.as_matrix() - target) ** 2)) / d**2

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


# ---------------------------------------------------------------------------
# nonlinear coupling stacks


def _coupling_stack(d: int, n_pairs: int, hidden: int, activation: str, seed: int) -> list:
    """Alternating lower/upper nonlinear couplings; s uses exptanh output."""
    h = d // 2
    rng = stream(seed, "stack-init", d, n_pairs, hidden)
    layers = []
    for i in range(2 * n_pairs):
        side = coupling.LOWER if i % 2 == 0 else coupling.UPPER
        widths = [h, hidden, hidden, h]
        s_net = mlp_init(widths, activation=activation, output_transform="exptanh", rng=rng)
        t_net = mlp_init(widths, activation=activation, rng=rng)
        layers.append(coupling.NonlinearCouplingLayer(side=side, s_net=s_net, t_net=t_net))
    return layers


def _stack_params(layers) -> list:
    params = []
    for layer in layers:
        for net in (layer.s_net, layer.t_net):
            params.extend(net.weights)
            params.extend(net.biases)
    return params


def _stack_forward(layers, x: np.ndarray):
    """Forward through the coupling stack for a training step, caching
    everything the backward pass needs; logdet is the per-sample sum of log
    scale outputs. Evaluation goes through ``coupling.apply_with_log_det``,
    which keeps no cache."""
    caches = []
    logdet = np.zeros(x.shape[0])
    for layer in layers:
        kept, passive = _halves(layer.side, x)
        s, s_cache = mlp_forward(layer.s_net, kept)
        t, t_cache = mlp_forward(layer.t_net, kept)
        logdet += np.sum(np.log(s), axis=1)
        caches.append((passive, s, s_cache, t_cache))
        x = _join(layer.side, kept, passive * s + t)
    return x, caches, logdet


def _stack_backward(layers, caches, dout: np.ndarray, logdet_coeff: float = 0.0) -> list:
    """Gradients in the order of _stack_params; logdet_coeff weights the
    d(sum log s)/dparams term (per sample)."""
    grads = []
    for layer, (passive, s, s_cache, t_cache) in zip(reversed(layers), reversed(caches)):
        dkept, dupd = _halves(layer.side, dout)
        ds = dupd * passive
        if logdet_coeff != 0.0:
            ds = ds + logdet_coeff / s
        sw, sb, dkept_s = mlp_backward(layer.s_net, s_cache, ds)
        tw, tb, dkept_t = mlp_backward(layer.t_net, t_cache, dupd)
        dout = _join(layer.side, dkept + dkept_s + dkept_t, dupd * s)
        grads.append(sw + sb + tw + tb)
    return [g for layer_grads in reversed(grads) for g in layer_grads]


def _regression_target(kind: str, z: np.ndarray, matrix=None) -> np.ndarray:
    if kind == "elementwise_tanh":
        return np.tanh(z)
    if kind == "elementwise_relu":
        return np.maximum(z, 0.0)
    if kind == "linear":
        return z @ matrix.T
    raise ValueError(f"unknown regression target {kind!r}")


REGRESSION_PAIRS = 5  # lower/upper layer pairs of the regression coupling stack
REGRESSION_HIDDEN = 128  # hidden width of its nets and of the small MLP


def train_coupling_regression(config: TrainConfig, d: int, target: str,
                              architecture: str, seed: int) -> RunRecord:
    """Regress either a coupling stack or one of its subnetworks (a small
    MLP of identical shape) onto an elementwise nonlinearity, under an
    identical data stream."""
    record = RunRecord(seed=seed)
    lin = make_target_matrix("gaussian_matrix", d, seed) if target == "linear" else None
    batches = stream(seed, "regression-batches", d, target)

    if architecture == "coupling_stack":
        layers = _coupling_stack(d, REGRESSION_PAIRS, REGRESSION_HIDDEN, activation="tanh",
                                 seed=seed)
        params = _stack_params(layers)
        seq = coupling.sequence(layers, ambient_dim=d)

        def forward(z):
            out, caches, _ = _stack_forward(layers, z)
            return out, caches

        def backward(caches, dout):
            return _stack_backward(layers, caches, dout)

        def evaluate(z):
            return coupling.apply(seq, z)
    elif architecture == "small_mlp":
        net = mlp_init([d, REGRESSION_HIDDEN, REGRESSION_HIDDEN, d], activation="tanh",
                       rng=stream(seed, "mlp-init", d, REGRESSION_HIDDEN))
        params = net.weights + net.biases

        def forward(z):
            return mlp_forward(net, z)

        def backward(cache, dout):
            gw, gb, _ = mlp_backward(net, cache, dout)
            return gw + gb

        def evaluate(z):
            return mlp_forward(net, z)[0]
    else:
        raise ValueError(f"unknown architecture {architecture!r}")

    adam = AdamList(params, config.lr)
    for step in range(config.steps):
        z = batches.standard_normal((config.batch_size, d))
        y = _regression_target(target, z, lin)
        out, cache = forward(z)
        resid = out - y
        loss = float(np.mean(np.sum(resid * resid, axis=1)) / d)
        if not np.isfinite(loss):
            raise DivergedRunError(f"loss diverged at step {step}", record)
        if step % config.log_interval == 0:
            record.log(step, loss=loss)
        adam.update(backward(cache, 2.0 * resid / (config.batch_size * d)))

    z = batches.standard_normal((1024, d))
    y = _regression_target(target, z, lin)
    out = evaluate(z)
    final_loss = float(np.mean(np.sum((out - y) ** 2, axis=1)) / d)
    record.log(config.steps, loss=final_loss)
    record.final = {"loss": final_loss}
    return record


# ---------------------------------------------------------------------------
# synthetic 2-D datasets


def two_moons_raw(n: int, rng) -> np.ndarray:
    """Two interleaved half circles with Gaussian jitter, pre-normalization."""
    theta = rng.uniform(0.0, np.pi, size=n)
    upper = rng.integers(0, 2, size=n).astype(bool)
    x = np.where(upper, np.cos(theta), 1.0 - np.cos(theta))
    y = np.where(upper, np.sin(theta), 0.5 - np.sin(theta))
    return np.stack([x, y], axis=1) + 0.1 * rng.standard_normal((n, 2))


def _four_gaussians(n: int, rng) -> np.ndarray:
    comp = rng.integers(0, 4, size=n)
    centers = np.array([[2.0, 2.0], [2.0, -2.0], [-2.0, 2.0], [-2.0, -2.0]])
    return centers[comp] + 0.3 * rng.standard_normal((n, 2))


def _swissroll(n: int, rng) -> np.ndarray:
    t = rng.uniform(1.5 * np.pi, 4.5 * np.pi, size=n)
    pts = np.stack([t * np.cos(t), t * np.sin(t)], axis=1)
    return pts / 7.5 + 0.02 * rng.standard_normal((n, 2))


def _checkerboard(n: int, rng) -> np.ndarray:
    x1 = rng.uniform(-2.0, 2.0, size=n)
    x2 = rng.uniform(0.0, 1.0, size=n) - rng.integers(0, 2, size=n) * 2.0
    x2 = x2 + np.floor(x1) % 2
    return np.stack([x1, x2], axis=1) / 2.0


# the 2-D dataset families by name, each a sampler (n, rng) -> (n, 2) array
DATASETS = {
    "gaussian": lambda n, rng: rng.standard_normal((n, 2)),
    "four_gaussians": _four_gaussians,
    "swissroll": _swissroll,
    "two_moons": lambda n, rng: (two_moons_raw(n, rng) - np.array([0.5, 0.25])) / 0.9,
    "checkerboard": _checkerboard,
}


# ---------------------------------------------------------------------------
# max-likelihood training with padding


DEQUANT_NOISE = 1e-4  # jitter on zero-padded coordinates; keeps the likelihood finite

# the paddings by name, each a sampler (n, rng) -> (n, width) array appended
# to the data
PADDINGS = {
    "none": lambda n, rng: np.empty((n, 0)),
    "zero": lambda n, rng: DEQUANT_NOISE * rng.standard_normal((n, 2)),
    "gaussian": lambda n, rng: rng.standard_normal((n, 2)),
}


def _lookup(table: dict, name: str, what: str):
    if name not in table:
        raise ValueError(f"unknown {what} {name!r}")
    return table[name]


def _dataset_batch(kind: str, batch_size: int, rng) -> np.ndarray:
    return _lookup(DATASETS, kind, "dataset")(batch_size, rng)


def _padded_batch(kind: str, padding: str, batch_size: int, rng) -> np.ndarray:
    base = _dataset_batch(kind, batch_size, rng)
    return np.concatenate([base, _lookup(PADDINGS, padding, "padding")(batch_size, rng)], axis=1)


def _nll(y: np.ndarray, logdet: np.ndarray) -> float:
    dim = y.shape[1]
    return float(np.mean(0.5 * np.sum(y * y, axis=1) - logdet) + 0.5 * dim * math.log(2.0 * math.pi))


def train_nvp_mle(dataset: str, padding: str, config: TrainConfig, seed: int,
                  n_pairs: int = 3, hidden: int = 128,
                  probe_size: int = 64) -> RunRecord:
    """Max-likelihood training of a nonlinear coupling stack (normalizing
    direction) with the chosen padding.

    Each training step runs ``_stack_forward``, which keeps the backward
    caches. At each log point the record holds the eval-batch NLL, computed
    by ``coupling.apply_with_log_det`` with no cache, ``nll_batch_max``
    (the largest training-batch NLL since the previous log point) and the
    median and max log10 condition number of the Jacobian over a fixed probe
    batch. One probe is one ``coupling.jacobian`` call on the whole batch and
    one stacked ``matcore.condition_number``. A final eval NLL above the
    first logged one adds a warning to ``record.notes``."""
    dim = 2 if padding == "none" else 4
    layers = _coupling_stack(dim, n_pairs, hidden, activation="relu", seed=seed)
    params = _stack_params(layers)
    adam = AdamList(params, config.lr)
    record = RunRecord(seed=seed)
    if padding == "zero":
        record.notes.append(f"zero padding dequantized with noise {DEQUANT_NOISE:g}")

    data_rng = stream(seed, "mle-data", dataset, padding)
    probe = _padded_batch(dataset, padding, probe_size, stream(seed, "mle-probe", dataset, padding))
    eval_batch = _padded_batch(dataset, padding, 512, stream(seed, "mle-eval", dataset, padding))
    seq = coupling.sequence(layers, ambient_dim=dim)

    def probe_condition():
        log_conds = np.log10(matcore.condition_number(coupling.jacobian(seq, probe)))
        return float(np.median(log_conds)), float(np.max(log_conds))

    batch_max = -np.inf  # largest training-batch NLL since the last log point
    for step in range(config.steps):
        x = _padded_batch(dataset, padding, config.batch_size, data_rng)
        y, caches, logdet = _stack_forward(layers, x)
        nll = _nll(y, logdet)
        if not np.isfinite(nll):
            raise DivergedRunError(f"NLL diverged at step {step}", record)
        batch_max = max(batch_max, nll)
        if step % config.log_interval == 0:
            ey, elogdet = coupling.apply_with_log_det(seq, eval_batch)
            cond_med, cond_max = probe_condition()
            record.log(step, nll=_nll(ey, elogdet), nll_batch_max=batch_max,
                       cond_log10_median=cond_med, cond_log10_max=cond_max)
            batch_max = -np.inf
        dy = y / config.batch_size
        grads = _stack_backward(layers, caches, dy, logdet_coeff=-1.0 / config.batch_size)
        adam.update(grads)

    ey, elogdet = coupling.apply_with_log_det(seq, eval_batch)
    cond_med, cond_max = probe_condition()
    final_nll = _nll(ey, elogdet)
    # the final window always holds the last step, even if it was logged
    record.log(config.steps, nll=final_nll, nll_batch_max=max(batch_max, nll),
               cond_log10_median=cond_med, cond_log10_max=cond_max)
    record.final = {"nll": final_nll, "cond_log10_median": cond_med, "cond_log10_max": cond_max}
    first_nll = record.metrics["nll"][0]
    if final_nll > first_nll:
        record.notes.append(f"warning: final eval NLL {final_nll:.4g} is above the first "
                            f"logged {first_nll:.4g}; nll_batch_max shows where it rose")
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
        config = TrainConfig(lr=2e-3, steps=8000, batch_size=1024)
    chol = np.linalg.cholesky(sigma)
    rng = stream(seed, "mle-gaussian", dim, n_samples)
    data = rng.standard_normal((n_samples, dim)) @ chol.T
    sample_cov = data.T @ data / n_samples

    model = PlnModel(dim, n_layers, PLN_INIT_STD, seed)
    adam = AdamState.for_params(model.params, config.lr)
    batches = stream(seed, "mle-gaussian-batches", dim)
    record = RunRecord(seed=seed)
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
