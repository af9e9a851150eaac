"""Explicit shallow universal-approximation constructions.

Two three-layer coupling networks push a standard Gaussian onto a target
pushforward distribution:

* the zero-padded network carries the data in the first half and uses the
  padding half as workspace: (x, 0) -> (x, phi(x)) -> (phi(x), phi(x))
  -> (phi(x), 0), with all scale maps identically one;

* the lattice network needs no padding: the first layer shrinks the second
  half by a factor eps1 and stores the grid-rounded first half there, the
  second layer rebuilds the transported point in quantized-plus-residual
  form, and the third recovers the second transported block from the
  residual, with constant scale maps eps1, eps2, eps2.

Transport maps are evaluated exactly (affine, or coordinatewise quantile
tables); the ReLU approximation step of the companion theory is classical
and not part of the artifact.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from couplingflow import matcore
from couplingflow.rng import stream


def truncate(x, m: float):
    """Coordinatewise clamp to [-m, m]."""
    if m <= 0:
        raise ValueError("truncation level must be positive")
    return np.clip(np.asarray(x, dtype=np.float64), -m, m)


# ---------------------------------------------------------------------------
# transport maps


@dataclass(frozen=True)
class AffineTransport:
    """x -> linear @ x + shift with det(linear) > 0."""

    shift: np.ndarray
    linear: np.ndarray

    def __post_init__(self):
        if matcore.det(self.linear) <= 0.0:
            raise ValueError("transport must be orientation preserving")

    @property
    def dim(self):
        return self.shift.shape[0]

    def forward(self, x):
        return np.asarray(x, dtype=np.float64) @ self.linear.T + self.shift

    def inverse(self, y):
        return (np.asarray(y, dtype=np.float64) - self.shift) @ matcore.inv(self.linear).T


@dataclass(frozen=True)
class QuantileTransport:
    """Coordinatewise x_k -> F_k^{-1}(Phi(x_k)) for tabulated target CDFs.

    tables[k] is a pair (values, cdf) with both columns strictly increasing;
    queries outside the tabulated CDF range clamp to the table endpoints.
    """

    tables: tuple

    @property
    def dim(self):
        return len(self.tables)

    def forward(self, x):
        single = np.asarray(x).ndim == 1
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        out = np.empty_like(x)
        p = ndtr(x)
        for k, (vals, cdf) in enumerate(self.tables):
            out[:, k] = np.interp(p[:, k], cdf, vals)
        return out[0] if single else out

    def inverse(self, y):
        single = np.asarray(y).ndim == 1
        y = np.atleast_2d(np.asarray(y, dtype=np.float64))
        out = np.empty_like(y)
        for k, (vals, cdf) in enumerate(self.tables):
            p = np.clip(np.interp(y[:, k], vals, cdf), 1e-15, 1.0 - 1e-15)
            out[:, k] = ndtri(p)
        return out[0] if single else out


def quantile_transport(tables) -> QuantileTransport:
    """Build a coordinatewise quantile transport, validating monotonicity."""
    checked = []
    for k, (vals, cdf) in enumerate(tables):
        vals = np.asarray(vals, dtype=np.float64)
        cdf = np.asarray(cdf, dtype=np.float64)
        if vals.shape != cdf.shape or vals.ndim != 1 or vals.shape[0] < 2:
            raise ValueError(f"table {k} malformed")
        if np.any(np.diff(vals) <= 0.0) or np.any(np.diff(cdf) <= 0.0):
            raise ValueError(f"table {k} is not strictly increasing")
        checked.append((vals, cdf))
    return QuantileTransport(tables=tuple(checked))


# ---------------------------------------------------------------------------
# grid rounding


@dataclass(frozen=True)
class GridRounder:
    """Rounds each coordinate to the nearest multiple of eps."""

    eps: float

    def __post_init__(self):
        if self.eps <= 0.0:
            raise ValueError("grid pitch must be positive")

    def round(self, x):
        return self.eps * np.round(np.asarray(x, dtype=np.float64) / self.eps)

    def residual(self, x):
        x = np.asarray(x, dtype=np.float64)
        return x - self.round(x)


# ---------------------------------------------------------------------------
# padded construction


@dataclass(frozen=True)
class PaddedNet:
    """Three translation-only coupling layers on (data, padding) pairs."""

    transport: object
    truncation: float

    @property
    def data_dim(self):
        return self.transport.dim

    @property
    def ambient_dim(self):
        return 2 * self.transport.dim

    def t1(self, x):
        return self.transport.forward(truncate(x, self.truncation))

    def t2(self, v):
        return v - self.transport.inverse(v)

    def t3(self, x):
        return -x

    def apply(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        n = self.data_dim
        if x.shape[1] != 2 * n:
            raise ValueError(f"expected ambient dim {2 * n}")
        x1, x2 = x[:, :n].copy(), x[:, n:].copy()
        x2 = x2 + self.t1(x1)
        x1 = x1 + self.t2(x2)
        x2 = x2 + self.t3(x1)
        return np.concatenate([x1, x2], axis=1)


def build_padded_net(phi, m: float) -> PaddedNet:
    if m <= 0:
        raise ValueError("truncation level must be positive")
    return PaddedNet(transport=phi, truncation=float(m))


# ---------------------------------------------------------------------------
# lattice construction


@dataclass(frozen=True)
class LatticeNet:
    """Three alternating couplings with constant scale maps eps1, eps2, eps2.

    The transport acts on 2n dimensions; its two n-blocks are evaluated at
    the quantized first block and the recovered Gaussian second block.
    """

    transport: object
    eps: float
    eps1: float
    eps2: float
    rounder: GridRounder
    truncation: float

    @property
    def block_dim(self):
        return self.transport.dim // 2

    @property
    def ambient_dim(self):
        return self.transport.dim

    def _transported_blocks(self, stored):
        """phi evaluated at (f(stored), g(stored)/eps1), split into blocks."""
        n = self.block_dim
        quant = self.rounder.round(stored)
        recovered = self.rounder.residual(stored) / self.eps1
        full = self.transport.forward(np.concatenate([quant, recovered], axis=1))
        return full[:, :n], full[:, n:]

    def t2(self, stored):
        phi1, phi2 = self._transported_blocks(stored)
        return self.rounder.round(phi1) + self.eps1 * phi2

    def t3(self, u):
        return self.rounder.residual(u) / self.eps1

    def apply(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        n = self.block_dim
        if x.shape[1] != 2 * n:
            raise ValueError(f"expected ambient dim {2 * n}")
        x1, x2 = x[:, :n], x[:, n:]
        # layer 1 (scale eps1): store the rounded, clamped first block
        x2 = self.eps1 * x2 + self.rounder.round(truncate(x1, self.truncation))
        # layer 2 (scale eps2): rebuild the transported point, quantized + residual
        x1 = self.eps2 * x1 + self.t2(x2)
        # layer 3 (scale eps2): recover the second transported block
        x2 = self.eps2 * x2 + self.t3(x1)
        return np.concatenate([x1, x2], axis=1)

    def log_det_jacobian_constant(self):
        """log-det wherever the rounding maps are locally constant."""
        n = self.block_dim
        return float(n * (np.log(self.eps1) + 2.0 * np.log(self.eps2)))


def build_lattice_net(phi, eps: float, eps1: float, eps2: float,
                      m: float = 6.0) -> LatticeNet:
    """Assemble the lattice network, enforcing the schedule constraint
    eps1/eps <= 1/4 and eps2/eps1 <= 1/4."""
    if phi.dim % 2 != 0:
        raise ValueError("lattice transport must act on an even dimension")
    if not (0.0 < eps2 < eps1 < eps):
        raise ValueError("need 0 < eps2 < eps1 < eps")
    slack = 1.0 + 1e-12
    if eps1 > eps / 4.0 * slack or eps2 > eps1 / 4.0 * slack:
        raise ValueError("schedule violation: need eps1 <= eps/4 and eps2 <= eps1/4")
    return LatticeNet(transport=phi, eps=float(eps), eps1=float(eps1), eps2=float(eps2),
                      rounder=GridRounder(eps=float(eps)),
                      truncation=float(m))


# ---------------------------------------------------------------------------
# sampling


def gaussian_inputs(net, n_samples: int, seed: int) -> np.ndarray:
    """The deterministic Gaussian input batch a network pushes forward:
    n_samples rows of ambient width, zero on the padding half of a
    PaddedNet."""
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    rng = stream(seed, "universal", "inputs")
    if isinstance(net, PaddedNet):
        data = rng.standard_normal((n_samples, net.data_dim))
        return np.concatenate([data, np.zeros_like(data)], axis=1)
    return rng.standard_normal((n_samples, net.ambient_dim))


def reference_pushforward(net, inputs: np.ndarray) -> np.ndarray:
    """Exact transported targets for the same inputs (the natural coupling)."""
    inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    if isinstance(net, PaddedNet):
        n = net.data_dim
        out = np.zeros_like(inputs)
        out[:, :n] = net.transport.forward(inputs[:, :n])
        return out
    return net.transport.forward(inputs)
