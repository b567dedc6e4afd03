"""Minimal fully-connected scalar-output network with hand-written gradients.

The model is a stack of affine layers with Leaky ReLU activations between
them and a single linear output unit.  Everything is float64 numpy; there is
no computation graph.  Gradients with respect to parameters and inputs are
produced by an explicit reverse pass so that they can be checked against
finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class ConfigurationError(ValueError):
    """Invalid architecture or hyperparameter."""


class ShapeError(ValueError):
    """Array shape does not match the network."""


class InputError(ValueError):
    """Non-finite or otherwise unusable input."""


class TrainingDivergenceError(RuntimeError):
    """Raised when gradients or losses stop being finite during training."""

    def __init__(self, message, last_good=None):
        super().__init__(message)
        self.last_good = last_good


@dataclass
class Network:
    """Feedforward net: layer_dims[0] inputs -> hidden layers -> 1 output.

    weights[k] has shape (layer_dims[k+1], layer_dims[k]); biases[k] has
    shape (layer_dims[k+1],).  leaky_slope is the negative-side slope of the
    activation, in (0, 1).
    """

    layer_dims: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    leaky_slope: float = 0.01

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    def copy(self) -> "Network":
        return Network(
            list(self.layer_dims),
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            self.leaky_slope,
        )


@dataclass
class ParamGrads:
    """Per-layer gradients, shape-congruent with a Network."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @staticmethod
    def zeros_like(net: Network) -> "ParamGrads":
        return ParamGrads(
            [np.zeros_like(w) for w in net.weights],
            [np.zeros_like(b) for b in net.biases],
        )

    def scale(self, factor: float) -> "ParamGrads":
        for a in (*self.weights, *self.biases):
            a *= factor
        return self

    def add_scaled(self, other: "ParamGrads", scale: float = 1.0) -> "ParamGrads":
        for w, ow in zip(self.weights, other.weights):
            w += scale * ow
        for b, ob in zip(self.biases, other.biases):
            b += scale * ob
        return self

    def is_finite(self) -> bool:
        return all(np.all(np.isfinite(w)) for w in self.weights) and all(
            np.all(np.isfinite(b)) for b in self.biases
        )


def init_network(layer_dims, leaky_slope: float = 0.01, seed: int = 0) -> Network:
    """Build a network with uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights.

    Biases start at zero.  The same (layer_dims, seed) always produces
    bitwise-identical parameters.
    """
    dims = [int(d) for d in layer_dims]
    if len(dims) < 2:
        raise ConfigurationError("need at least an input and an output layer")
    if any(d <= 0 for d in dims):
        raise ConfigurationError(f"layer dims must be positive, got {dims}")
    if dims[-1] != 1:
        raise ConfigurationError("output dimension must be 1 (scalar model)")
    if not (0.0 < leaky_slope < 1.0):
        raise ConfigurationError(f"leaky_slope must lie in (0, 1), got {leaky_slope}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return Network(dims, weights, biases, float(leaky_slope))


def leaky_relu(z: np.ndarray, slope: float) -> np.ndarray:
    return np.where(z >= 0.0, z, slope * z)


def leaky_relu_grad(z: np.ndarray, slope: float) -> np.ndarray:
    # Subgradient at the kink is taken from the positive branch (slope 1).
    return np.where(z >= 0.0, 1.0, slope)


def _check_batch(net: Network, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != net.input_dim:
        raise ShapeError(
            f"expected (batch, {net.input_dim}) inputs, got shape {X.shape}"
        )
    if not np.all(np.isfinite(X)):
        raise InputError("inputs contain non-finite values")
    return X


def forward_batch(net: Network, X: np.ndarray):
    """Evaluate the net on a (batch, d) matrix.

    Returns (outputs, caches) where outputs has shape (batch,) and caches
    holds the per-layer inputs and pre-activations needed by backward_batch.
    """
    X = _check_batch(net, X)
    a = X
    layer_inputs = [a]
    pre_acts = []
    for k, (W, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ W.T + b
        pre_acts.append(z)
        if k < net.n_layers - 1:
            a = leaky_relu(z, net.leaky_slope)
            layer_inputs.append(a)
    return pre_acts[-1][:, 0], (layer_inputs, pre_acts)


def backward_batch(net: Network, caches, upstream: np.ndarray):
    """Reverse pass: d(sum_i upstream_i * G_i)/dtheta and per-row input grads."""
    layer_inputs, pre_acts = caches
    upstream = np.asarray(upstream, dtype=float)
    dz = upstream[:, None]
    grads = ParamGrads.zeros_like(net)
    for k in range(net.n_layers - 1, -1, -1):
        grads.weights[k] += dz.T @ layer_inputs[k]
        grads.biases[k] += dz.sum(axis=0)
        da = dz @ net.weights[k]
        if k > 0:
            dz = da * leaky_relu_grad(pre_acts[k - 1], net.leaky_slope)
    return grads, da


def input_grads_batch(net: Network, caches, upstream: np.ndarray):
    """Per-row input grads of sum_i upstream_i * G_i, without the parameter
    grads: the dz @ W chain of backward_batch, equal to its second result."""
    _, pre_acts = caches
    dz = np.asarray(upstream, dtype=float)[:, None]
    for k in range(net.n_layers - 1, 0, -1):
        dz = (dz @ net.weights[k]) * leaky_relu_grad(pre_acts[k - 1],
                                                     net.leaky_slope)
    return dz @ net.weights[0]


def forward(net: Network, x) -> float:
    """Scalar model output G(x) for a single covariate vector."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ShapeError(f"expected a 1-d covariate vector, got shape {x.shape}")
    out, _ = forward_batch(net, x[None, :])
    return float(out[0])


def backward(net: Network, x, upstream: float = 1.0):
    """Gradients of upstream * G(x) w.r.t. parameters and the input vector."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ShapeError(f"expected a 1-d covariate vector, got shape {x.shape}")
    _, caches = forward_batch(net, x[None, :])
    grads, input_grads = backward_batch(net, caches, np.array([float(upstream)]))
    return grads, input_grads[0]


@dataclass
class AdamState:
    """Adam accumulators (bias-corrected update)."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m_w: list[np.ndarray] = field(default_factory=list)
    v_w: list[np.ndarray] = field(default_factory=list)
    m_b: list[np.ndarray] = field(default_factory=list)
    v_b: list[np.ndarray] = field(default_factory=list)


def init_adam(net: Network, lr: float = 1e-3, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> AdamState:
    return AdamState(
        lr=lr, beta1=beta1, beta2=beta2, eps=eps, step=0,
        m_w=[np.zeros_like(w) for w in net.weights],
        v_w=[np.zeros_like(w) for w in net.weights],
        m_b=[np.zeros_like(b) for b in net.biases],
        v_b=[np.zeros_like(b) for b in net.biases],
    )


def adam_step(state: AdamState, net: Network, grads: ParamGrads):
    """One Adam update.  Returns (new_network, new_state); inputs unchanged."""
    if not grads.is_finite():
        raise TrainingDivergenceError("non-finite gradient in optimizer step")
    t = state.step + 1
    b1, b2 = state.beta1, state.beta2
    corr1 = 1.0 - b1 ** t
    corr2 = 1.0 - b2 ** t
    new_net = net.copy()
    new_state = AdamState(state.lr, b1, b2, state.eps, t, [], [], [], [])
    for k in range(net.n_layers):
        for params, g, m_list, v_list, nm, nv in (
            (new_net.weights, grads.weights[k], state.m_w, state.v_w,
             new_state.m_w, new_state.v_w),
            (new_net.biases, grads.biases[k], state.m_b, state.v_b,
             new_state.m_b, new_state.v_b),
        ):
            m = b1 * m_list[k] + (1.0 - b1) * g
            v = b2 * v_list[k] + (1.0 - b2) * g * g
            m_hat = m / corr1
            v_hat = v / corr2
            params[k] = params[k] - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
            nm.append(m)
            nv.append(v)
    return new_net, new_state
