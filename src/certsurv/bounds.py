"""Certified output bounds for the scalar network over l-inf input balls.

Two propagators are provided:

* interval propagation (box arithmetic through every layer), and
* a backward linear-relaxation pass over the final output that uses the
  interval pre-activation boxes to classify each Leaky ReLU as active,
  inactive, or crossing zero.  Crossing neurons are relaxed between the
  chord (the upper envelope of the convex activation) and a line through
  the origin whose slope is 1 when |ub| >= |lb| and the leaky slope
  otherwise.  One chain (`_upper_chain`) computes upper bounds; the lower
  bound of the output f is the negated upper bound of -f.

The refined bound is intersected elementwise with the interval bound, so
the refined interval is never wider.  `crown_ibp_batch_tape` additionally
records every intermediate needed to pull loss gradients back through the
whole bound computation (used by the certified training objective); the
adjoint is written out by hand in `crown_ibp_batch_vjp`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import Network, ParamGrads, ShapeError, leaky_relu, leaky_relu_grad


def _check_radius(eps) -> None:
    """Reject a radius that is negative or not finite (NaN included)."""
    if not 0.0 <= eps < math.inf:
        raise ValueError(f"radius must be finite and nonnegative, got {eps}")


@dataclass(frozen=True)
class PerturbationSet:
    """l-inf ball of radius eps around a covariate vector."""

    center: np.ndarray
    eps: float

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        if not np.all(np.isfinite(c)):
            raise ValueError("perturbation center must be finite")
        _check_radius(self.eps)
        object.__setattr__(self, "center", c)


@dataclass(frozen=True)
class ScalarBounds:
    lb: float
    ub: float

    def __post_init__(self):
        if self.lb > self.ub:
            raise ValueError(f"lb {self.lb} exceeds ub {self.ub}")

    @property
    def width(self) -> float:
        return self.ub - self.lb


@dataclass
class LayerBounds:
    """Pre-activation lower/upper vectors for every layer (output last)."""

    lower: list[np.ndarray]
    upper: list[np.ndarray]


def _interval_forward(net: Network, X: np.ndarray, eps: float):
    """Box propagation; returns per-layer pre-activation bounds and the
    activation-box centers/radii feeding each layer."""
    c = X
    r = np.full_like(X, eps)
    centers, radii = [c], [r]
    lows, ups = [], []
    for k, (W, b) in enumerate(zip(net.weights, net.biases)):
        m = c @ W.T + b
        s = r @ np.abs(W).T
        lows.append(m - s)
        ups.append(m + s)
        if k < net.n_layers - 1:
            al = leaky_relu(lows[-1], net.leaky_slope)
            au = leaky_relu(ups[-1], net.leaky_slope)
            c = 0.5 * (au + al)
            r = 0.5 * (au - al)
            centers.append(c)
            radii.append(r)
    return lows, ups, centers, radii


def _relaxation(net: Network, lows, ups):
    """Per activation layer: upper-line slope/intercept and lower-line slope.

    Active (l >= 0) and inactive (u <= 0) neurons are exact; crossing
    neurons use the chord above and an origin line below.
    """
    alpha = net.leaky_slope
    up_slope, up_icpt, low_slope, crossing = [], [], [], []
    for k in range(net.n_layers - 1):
        l, u = lows[k], ups[k]
        cross = (l < 0.0) & (u > 0.0)
        denom = np.where(cross, u - l, 1.0)
        chord = np.where(cross, (u - alpha * l) / denom, 1.0)
        us = np.where(l >= 0.0, 1.0, np.where(cross, chord, alpha))
        ui = np.where(cross, (alpha - chord) * l, 0.0)
        ls = np.where(l >= 0.0, 1.0,
                      np.where(cross, np.where(np.abs(u) >= np.abs(l), 1.0, alpha),
                               alpha))
        up_slope.append(us)
        up_icpt.append(ui)
        low_slope.append(ls)
        crossing.append(cross)
    return up_slope, up_icpt, low_slope, crossing


@dataclass
class BoundTape:
    """Intermediates of one batched bound computation, for the adjoint."""

    X: np.ndarray
    eps: float
    lows: list
    ups: list
    centers: list
    radii: list
    up_slope: list
    up_icpt: list
    low_slope: list
    crossing: list
    stages_u: list  # (A entering stage k,) for k = L-1 .. 1, upper chain of f
    stages_l: list  # the same for the upper chain of -f (the lower bound)
    A_u: np.ndarray  # final input-space coefficients, upper chain of f
    A_l: np.ndarray  # the same for -f
    crown_lb: np.ndarray
    crown_ub: np.ndarray
    ibp_lb: np.ndarray
    ibp_ub: np.ndarray
    use_crown_ub: np.ndarray
    use_crown_lb: np.ndarray


def _upper_chain(net: Network, X, eps, w_out, b_out, up_slope, up_icpt,
                 low_slope):
    """Backward linear upper bound on w_out . z + b_out, z the last hidden
    layer (or the input); returns it, the coefficients entering each stage
    and the final input-space coefficients."""
    A = np.broadcast_to(w_out, (X.shape[0], w_out.shape[0])).copy()
    d = np.full(X.shape[0], b_out)
    stages = []
    for k in range(net.n_layers - 2, -1, -1):
        W, b = net.weights[k], net.biases[k]
        stages.append(A)
        pos = A >= 0.0
        lam = np.where(pos, up_slope[k], low_slope[k])
        mu = np.where(pos, up_icpt[k], 0.0)
        d = d + (A * mu).sum(axis=1)
        B = A * lam
        A = B @ W
        d = d + B @ b
    ub = (A * X).sum(axis=1) + eps * np.abs(A).sum(axis=1) + d
    return ub, stages, A


def _backward_pass(net: Network, X, eps, up_slope, up_icpt, low_slope):
    """Backward linear bounds on the output f, and their tape pieces; the
    lower bound is minus the upper chain of -f."""
    w, b = net.weights[-1][0], net.biases[-1][0]
    ub, stages_u, AU = _upper_chain(net, X, eps, w, b, up_slope, up_icpt,
                                    low_slope)
    neg_lb, stages_l, AL = _upper_chain(net, X, eps, -w, -b, up_slope,
                                        up_icpt, low_slope)
    return -neg_lb, ub, stages_u, stages_l, AU, AL


def crown_ibp_batch_tape(net: Network, X, eps: float):
    """Refined bounds for every row of X, plus the full adjoint tape."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != net.input_dim:
        raise ShapeError(f"expected (batch, {net.input_dim}), got {X.shape}")
    eps = float(eps)
    _check_radius(eps)
    lows, ups, centers, radii = _interval_forward(net, X, eps)
    up_slope, up_icpt, low_slope, crossing = _relaxation(net, lows, ups)
    crown_lb, crown_ub, stages_u, stages_l, AU, AL = _backward_pass(
        net, X, eps, up_slope, up_icpt, low_slope
    )
    ibp_lb, ibp_ub = lows[-1][:, 0], ups[-1][:, 0]
    use_crown_ub = crown_ub <= ibp_ub
    use_crown_lb = crown_lb >= ibp_lb
    lb = np.where(use_crown_lb, crown_lb, ibp_lb)
    ub = np.where(use_crown_ub, crown_ub, ibp_ub)
    # Both branches are sound; rounding noise at eps=0 can leave lb a few
    # ulp above ub after the intersection, so repair downward.
    lb = np.minimum(lb, ub)
    tape = BoundTape(
        X, eps, lows, ups, centers, radii, up_slope, up_icpt, low_slope,
        crossing, stages_u, stages_l, AU, AL, crown_lb, crown_ub,
        ibp_lb, ibp_ub, use_crown_ub, use_crown_lb,
    )
    return lb, ub, tape


def crown_ibp_batch(net: Network, X, eps: float):
    lb, ub, _ = crown_ibp_batch_tape(net, X, eps)
    return lb, ub


def crown_ibp_batch_vjp(net: Network, tape: BoundTape, dlb, dub):
    """Pull (dL/dlb_i, dL/dub_i) back to parameter and input gradients.

    Hand-written adjoint of crown_ibp_batch_tape: routes through the
    bound intersection, the backward linear pass (including the chord
    coefficients of crossing neurons), and the interval recursion.
    """
    X, eps = tape.X, tape.eps
    L = net.n_layers
    alpha = net.leaky_slope
    dlb = np.asarray(dlb, dtype=float)
    dub = np.asarray(dub, dtype=float)
    grads = ParamGrads.zeros_like(net)
    dX = np.zeros_like(X)

    guC = np.where(tape.use_crown_ub, dub, 0.0)
    glC = np.where(tape.use_crown_lb, dlb, 0.0)
    guI = dub - guC
    glI = dlb - glC

    # Pre-activation bound adjoints for every layer; the interval output
    # bound picks up the non-refined branch of the intersection.
    lbar = [np.zeros_like(l) for l in tape.lows]
    ubar = [np.zeros_like(u) for u in tape.ups]
    lbar[L - 1][:, 0] += glI
    ubar[L - 1][:, 0] += guI

    us_bar = [np.zeros_like(s) for s in tape.up_slope]
    ui_bar = [np.zeros_like(s) for s in tape.up_icpt]

    # The same adjoint serves the upper chain of f (seeded with guC) and the
    # upper chain of -f, whose bound is -lb (seeded with -glC).
    seed_bars = []
    for stages, A_fin, g in ((tape.stages_u, tape.A_u, guC),
                             (tape.stages_l, tape.A_l, -glC)):
        # Adjoint of the concretization step.
        A_bar = g[:, None] * (X + eps * np.sign(A_fin))
        dX += g[:, None] * A_fin
        d_bar = g
        # Walk the chain in reverse: stages were recorded for
        # k = L-2 .. 0, so the adjoint visits k = 0 .. L-2.
        for idx in range(len(stages) - 1, -1, -1):
            k = L - 2 - idx
            W, b = net.weights[k], net.biases[k]
            A_in = stages[idx]
            pos = A_in >= 0.0
            lam = np.where(pos, tape.up_slope[k], tape.low_slope[k])
            mu = np.where(pos, tape.up_icpt[k], 0.0)
            B = A_in * lam
            B_bar = A_bar @ W.T + d_bar[:, None] * b[None, :]
            grads.weights[k] += B.T @ A_bar
            grads.biases[k] += B.T @ d_bar
            sel = pos & tape.crossing[k]
            us_bar[k] += np.where(sel, B_bar * A_in, 0.0)
            ui_bar[k] += np.where(sel, d_bar[:, None] * A_in, 0.0)
            A_bar = B_bar * lam + d_bar[:, None] * mu
        seed_bars.append((A_bar, d_bar))

    # Each chain's initial coefficients were the output layer's weights and
    # bias, negated for the chain of -f.
    (Au_bar, du_bar), (Al_bar, dl_bar) = seed_bars
    grads.weights[L - 1] += (Au_bar - Al_bar).sum(axis=0, keepdims=True)
    grads.biases[L - 1] += np.array([(du_bar - dl_bar).sum()])

    # Chord slope/intercept sensitivities to the interval endpoints.
    for k in range(L - 1):
        cross = tape.crossing[k]
        if not np.any(cross):
            continue
        l, u = tape.lows[k], tape.ups[k]
        denom = np.where(cross, u - l, 1.0)
        chord = np.where(cross, (u - alpha * l) / denom, 1.0)
        dchord_du = (alpha - 1.0) * l / denom ** 2
        dchord_dl = (1.0 - alpha) * u / denom ** 2
        dicpt_dl = (alpha - chord) - l * dchord_dl
        dicpt_du = -l * dchord_du
        ubar[k] += np.where(cross, us_bar[k] * dchord_du + ui_bar[k] * dicpt_du, 0.0)
        lbar[k] += np.where(cross, us_bar[k] * dchord_dl + ui_bar[k] * dicpt_dl, 0.0)

    # Adjoint of the interval recursion, deepest layer first.
    for k in range(L - 1, -1, -1):
        W = net.weights[k]
        m_bar = lbar[k] + ubar[k]
        s_bar = ubar[k] - lbar[k]
        c_prev, r_prev = tape.centers[k], tape.radii[k]
        grads.weights[k] += m_bar.T @ c_prev + np.sign(W) * (s_bar.T @ r_prev)
        grads.biases[k] += m_bar.sum(axis=0)
        c_bar = m_bar @ W
        r_bar = s_bar @ np.abs(W)
        if k == 0:
            dX += c_bar
        else:
            au_bar = 0.5 * (c_bar + r_bar)
            al_bar = 0.5 * (c_bar - r_bar)
            ubar[k - 1] += au_bar * leaky_relu_grad(tape.ups[k - 1], alpha)
            lbar[k - 1] += al_bar * leaky_relu_grad(tape.lows[k - 1], alpha)
    return grads, dX


def ibp_bounds(net: Network, pset: PerturbationSet):
    """Interval output bounds plus all pre-activation layer bounds."""
    X = pset.center[None, :]
    if X.shape[1] != net.input_dim:
        raise ShapeError(f"center has dim {X.shape[1]}, net expects {net.input_dim}")
    lows, ups, _, _ = _interval_forward(net, X, pset.eps)
    layer = LayerBounds([l[0] for l in lows], [u[0] for u in ups])
    return ScalarBounds(float(lows[-1][0, 0]), float(ups[-1][0, 0])), layer


def crown_ibp_bounds(net: Network, pset: PerturbationSet) -> ScalarBounds:
    """Backward linear-relaxation bounds, never wider than the interval ones."""
    lb, ub = crown_ibp_batch(net, pset.center[None, :], pset.eps)
    return ScalarBounds(float(lb[0]), float(ub[0]))


def worst_case_hazard(net: Network, pset: PerturbationSet) -> float:
    """Certified upper bound on exp(G) over the ball (+inf on overflow)."""
    ub = crown_ibp_bounds(net, pset).ub
    with np.errstate(over="ignore"):
        return float(np.exp(ub))


def worst_case_log_hazard_batch(net: Network, X, eps: float) -> np.ndarray:
    """Certified per-row upper bounds on G, for evaluation sweeps."""
    _, ub = crown_ibp_batch(net, X, eps)
    return ub
