"""Minimal fully-connected scalar-output network with hand-written gradients.

The model is a stack of affine layers with Leaky ReLU activations between
them and a single linear output unit.  Everything is float64 numpy; there is
no computation graph.  Gradients with respect to parameters and inputs are
produced by an explicit reverse pass so that they can be checked against
finite differences.

`Network` checks its own structure whenever one is built or loaded; an
`adam_step` result keeps the layout of the checked network it steps, and
`adam_step` never writes into its inputs.

A `Network` and a `ParamGrads` each copy their parameters, when built, into
one C-contiguous float64 buffer, `flat`, in `Network.params` order
([*weights, *biases]), and their `weights[k]` and `biases[k]` are views of
it.  `adam_step` and the `ParamGrads` arithmetic then work on one array
instead of one per layer; a write into a view is a write into `flat`.
`adam_step` and `ParamGrads.zeros_like` build theirs on a buffer they have
just made, laid out as an already checked network's, without copying or
checking it again.

Two exact, branch-free helpers stand for the two `np.where` forms the
training hot path takes on a per-neuron or per-pair matrix:
`_slope(mask, alpha)` for `np.where(mask, 1.0, alpha)` and `_keep(mask, x)`
for `np.where(mask, x, 0.0)`, each with `np.where`'s bytes.  `np.where`
branches once per entry, and on an activation or pair mask, which the CPU
cannot predict, it costs 3.2-4.5 ns per element against about 0.6 ns for a
multiply (2 vCPUs, numpy 2.4.6, one BLAS thread).  A select between two
arrays and a per-record select stay `np.where`: their masks branch
predictably, and an exact integer blend of two arrays was slower there.
"""

from __future__ import annotations

import numbers
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
    activation, in (0, 1).  Construction checks all of this.
    """

    layer_dims: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    leaky_slope: float = 0.01
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dims = self.layer_dims
        _check_architecture(dims, self.leaky_slope)
        if ([w.shape for w in self.weights] != list(zip(dims[1:], dims[:-1]))
                or [b.shape for b in self.biases] != list(zip(dims[1:]))):
            raise ShapeError(f"parameter shapes do not match layer_dims {dims}")
        _pack(self)

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def params(self) -> list[np.ndarray]:
        """Every parameter in the one order: [*weights, *biases]."""
        return [*self.weights, *self.biases]


@dataclass
class ParamGrads:
    """Per-layer gradients, shape-congruent with a Network."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _pack(self)

    @staticmethod
    def zeros_like(net: Network) -> "ParamGrads":
        return _on_flat(ParamGrads, np.zeros(net.flat.size), net)

    def scale(self, factor: float) -> "ParamGrads":
        self.flat *= factor
        return self

    def add_scaled(self, other: "ParamGrads", scale: float = 1.0) -> "ParamGrads":
        self.flat += scale * other.flat
        return self

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.flat).all())


def _pack(obj) -> None:
    """Copy obj's weights and biases into one new C-contiguous float64
    buffer, `obj.flat`, in `Network.params` order, and rebind them to views
    of it."""
    arrays = [*obj.weights, *obj.biases]
    _adopt(obj, np.concatenate([np.ravel(a) for a in arrays], dtype=float),
           obj)


def _on_flat(cls, flat: np.ndarray, like, **attrs):
    """A `cls` (Network or ParamGrads) on the buffer `flat` in `like`'s
    layout, with the other fields `attrs`, built without `__post_init__`:
    neither copied nor checked, so `flat` must be a new buffer of
    `like.flat`'s size and `like` a checked network."""
    obj = object.__new__(cls)
    obj.__dict__.update(attrs)
    _adopt(obj, flat, like)
    return obj


def _adopt(obj, flat: np.ndarray, like) -> None:
    """Make `flat` obj's buffer, and obj's weights and biases consecutive
    views of it in the shapes of `like`'s."""
    views, start = [], 0
    for a in (*like.weights, *like.biases):
        stop = start + a.size
        views.append(flat[start:stop].reshape(a.shape))
        start = stop
    n = len(like.weights)
    obj.flat, obj.weights, obj.biases = flat, views[:n], views[n:]


def _check_architecture(dims, leaky_slope) -> None:
    """The rules of every Network's dims and slope, which the bounds in
    `bounds` need: a scalar output and a convex activation.  NaN fails."""
    if len(dims) < 2 or dims[-1] != 1 or not all(
            isinstance(d, numbers.Integral) and not isinstance(d, bool)
            and d > 0 for d in dims):
        raise ConfigurationError(f"layer dims must be two or more positive "
                                 f"integers ending in 1 (scalar model), got {dims}")
    if not (0.0 < leaky_slope < 1.0):
        raise ConfigurationError(f"leaky_slope must lie in (0, 1), got {leaky_slope}")


def init_network(layer_dims, leaky_slope: float = 0.01, seed: int = 0) -> Network:
    """Build a network with uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights.

    Biases start at zero.  The same (layer_dims, seed) always produces
    bitwise-identical parameters.
    """
    dims = [int(d) for d in layer_dims]
    _check_architecture(dims, leaky_slope)
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return Network(dims, weights, biases, float(leaky_slope))


def _slope(mask: np.ndarray, alpha: float) -> np.ndarray:
    """np.where(mask, 1.0, alpha) for a float alpha in (0, 1), bit for bit:
    True is 1.0 and False 0.0, and alpha lies between them."""
    return np.maximum(mask, alpha)


def _keep(mask: np.ndarray, x: np.ndarray) -> np.ndarray:
    """np.where(mask, x, 0.0) for float64 x, bit for bit (NaN payloads,
    infinities and -0.0 included): each entry is x's bit pattern times 1
    or 0, and the zero pattern is +0.0.  mask and x broadcast."""
    return np.multiply(x.view(np.int64), mask).view(np.float64)


def _check_batch(net: Network, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != net.input_dim:
        raise ShapeError(
            f"expected (batch, {net.input_dim}) inputs, got shape {X.shape}"
        )
    if not np.isfinite(X).all():
        raise InputError("inputs contain non-finite values")
    return X


def forward_batch(net: Network, X: np.ndarray):
    """Evaluate the net on a (batch, d) matrix.

    Returns (outputs, caches) where outputs has shape (batch,) and caches
    is (layer_inputs, pre_acts, slopes): each layer's input (X first),
    each layer's pre-activation z, and each hidden layer's activation
    slope (1 where z >= 0, else leaky_slope), which the reverse passes
    read.  The activation is z * slope: z where z >= 0, else
    leaky_slope * z, bit for bit.
    """
    return _forward(net, _check_batch(net, X))


def _forward(net: Network, X: np.ndarray):
    """forward_batch on inputs `_check_batch` has already accepted."""
    a = X
    layer_inputs, pre_acts, slopes = [a], [], []
    for k, (W, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ W.T
        z += b
        pre_acts.append(z)
        if k < net.n_layers - 1:
            d = _slope(z >= 0.0, net.leaky_slope)
            slopes.append(d)
            a = z * d
            layer_inputs.append(a)
    return pre_acts[-1][:, 0], (layer_inputs, pre_acts, slopes)


def backward_batch(net: Network, caches, upstream: np.ndarray):
    """Reverse pass: d(sum_i upstream_i * G_i)/dtheta and per-row input grads."""
    layer_inputs, _, slopes = caches
    upstream = np.asarray(upstream, dtype=float)
    dz = upstream[:, None]
    grads = ParamGrads.zeros_like(net)
    for k in range(net.n_layers - 1, -1, -1):
        grads.weights[k] += dz.T @ layer_inputs[k]
        grads.biases[k] += dz.sum(axis=0)
        dz = dz @ net.weights[k]
        if k > 0:
            dz *= slopes[k - 1]
    return grads, dz


def input_grads_batch(net: Network, caches, upstream: np.ndarray):
    """Per-row input grads of sum_i upstream_i * G_i, without the parameter
    grads: the dz @ W chain of backward_batch, equal to its second result."""
    _, _, slopes = caches
    dz = np.asarray(upstream, dtype=float)[:, None]
    for k in range(net.n_layers - 1, 0, -1):
        dz = dz @ net.weights[k]
        dz *= slopes[k - 1]
    return dz @ net.weights[0]


@dataclass
class AdamState:
    """Adam accumulators (bias-corrected update); the moments m and v are
    flat vectors in `Network.params` order, as `Network.flat` is."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))


def init_adam(net: Network, lr: float = 1e-3, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> AdamState:
    # adam_step never writes into its state, so m and v share the zeros
    zeros = np.zeros_like(net.flat)
    return AdamState(lr, beta1, beta2, eps, 0, zeros, zeros)


def adam_step(state: AdamState, net: Network, grads: ParamGrads):
    """One Adam update.  Returns (new_network, new_state); inputs unchanged:
    every result is a fresh array."""
    if not grads.is_finite():
        raise TrainingDivergenceError("non-finite gradient in optimizer step")
    t = state.step + 1
    b1, b2, lr, eps = state.beta1, state.beta2, state.lr, state.eps
    corr1 = 1.0 - b1 ** t
    corr2 = 1.0 - b2 ** t
    g = grads.flat
    m = b1 * state.m + (1.0 - b1) * g
    v = b2 * state.v + (1.0 - b2) * g * g
    flat = net.flat - lr * (m / corr1) / (np.sqrt(v / corr2) + eps)
    new_net = _on_flat(Network, flat, net, layer_dims=net.layer_dims,
                       leaky_slope=net.leaky_slope)
    return new_net, AdamState(lr, b1, b2, eps, t, m, v)
