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
returns a `BoundTape` holding every intermediate needed to pull loss
gradients back through the whole bound computation (used by the certified
training objective): the interval boxes, each layer's crossing mask, chord,
chord denominator and exact-neuron slope from `_relaxation`, and each chain
step's line choice, slope, intercept and scaled coefficients from
`_upper_chain`.  The adjoint, written out by hand in `crown_ibp_batch_vjp`,
only reads the tape and recomputes none of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .network import (Network, ParamGrads, _check_batch, leaky_relu,
                      leaky_relu_grad)
from .survival import hazard


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
    """Per activation layer: the relaxation lines, and the pieces of them
    that the adjoint reads back.

    Active (l >= 0) and inactive (u <= 0) neurons are exact; crossing
    neurons use the chord above and an origin line below.  Returns
    (up_slope, up_icpt, low_slope, crossing, width, chord, base), one array
    per layer each: `width` is u - l on crossing neurons and 1 elsewhere
    (the chord's denominator), and `base` is the slope of an exact neuron,
    the activation's derivative at l (1 where l >= 0, else the leaky
    slope).
    """
    alpha = net.leaky_slope
    pieces = tuple([] for _ in range(7))
    for k in range(net.n_layers - 1):
        l, u = lows[k], ups[k]
        base = leaky_relu_grad(l, alpha)
        cross = (l < 0.0) & (u > 0.0)
        width = np.where(cross, u - l, 1.0)
        chord = np.where(cross, (u - alpha * l) / width, 1.0)
        # A crossing neuron's lower line has slope 1 when |u| >= |l|, that
        # is u >= -l; on an exact neuron u >= -l holds exactly when base = 1.
        layer = (np.where(cross, chord, base),
                 np.where(cross, (alpha - chord) * l, 0.0),
                 np.where(u >= -l, 1.0, base),
                 cross, width, chord, base)
        for piece, value in zip(pieces, layer):
            piece.append(value)
    return pieces


class Stage(NamedTuple):
    """One step of a backward chain through activation layer k."""

    A: np.ndarray    # coefficients entering the step
    pos: np.ndarray  # A >= 0: the neuron takes its upper line
    lam: np.ndarray  # the slope taken
    mu: np.ndarray   # the intercept taken
    B: np.ndarray    # A * lam, the coefficients handed to layer k's weights


@dataclass
class BoundTape:
    """Intermediates of one batched bound computation, for the adjoint.

    The forward pass writes every value the adjoint needs; the adjoint only
    reads them.  Per-layer lists run over layers 0 .. L-1 (pre-activations)
    or over activation layers 0 .. L-2 (relaxation pieces).
    """

    X: np.ndarray
    eps: float
    lows: list      # interval pre-activation bounds of every layer
    ups: list
    centers: list   # center and radius of the box feeding every layer
    radii: list
    crossing: list  # l < 0 < u, per activation layer
    width: list     # u - l on crossing neurons, 1 elsewhere
    chord: list     # chord slope on crossing neurons, 1 elsewhere
    base: list      # 1 where l >= 0, else the leaky slope
    stages_u: list  # Stage of the upper chain of f, for k = L-2 .. 0
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
    layer (or the input); returns it, the Stage of every step and the final
    input-space coefficients."""
    A = np.broadcast_to(w_out, (X.shape[0], w_out.shape[0])).copy()
    d = np.full(X.shape[0], b_out)
    stages = []
    for k in range(net.n_layers - 2, -1, -1):
        W, b = net.weights[k], net.biases[k]
        pos = A >= 0.0
        lam = np.where(pos, up_slope[k], low_slope[k])
        mu = np.where(pos, up_icpt[k], 0.0)
        d = d + (A * mu).sum(axis=1)
        B = A * lam
        stages.append(Stage(A, pos, lam, mu, B))
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
    X = _check_batch(net, X)
    eps = float(eps)
    _check_radius(eps)
    lows, ups, centers, radii = _interval_forward(net, X, eps)
    up_slope, up_icpt, low_slope, crossing, width, chord, base = _relaxation(
        net, lows, ups)
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
        X, eps, lows, ups, centers, radii, crossing, width, chord, base,
        stages_u, stages_l, AU, AL, crown_lb, crown_ub, ibp_lb, ibp_ub,
        use_crown_ub, use_crown_lb,
    )
    return lb, ub, tape


def crown_ibp_batch(net: Network, X, eps: float):
    lb, ub, _ = crown_ibp_batch_tape(net, X, eps)
    return lb, ub


def crown_ibp_batch_vjp(net: Network, tape: BoundTape, dlb, dub):
    """Pull (dL/dlb_i, dL/dub_i) back to parameter and input gradients.

    Hand-written adjoint of crown_ibp_batch_tape: routes through the
    bound intersection, the backward linear pass (including the chord
    coefficients of crossing neurons), and the interval recursion.  It
    reads every forward value from the tape and recomputes none.
    """
    X, eps = tape.X, tape.eps
    L = net.n_layers
    alpha = net.leaky_slope
    dlb = np.asarray(dlb, dtype=float)
    dub = np.asarray(dub, dtype=float)
    # The accumulators start at +0.0, so an entry that sums to zero is +0.0.
    grads = ParamGrads.zeros_like(net)
    dX = np.zeros_like(X)

    guC = np.where(tape.use_crown_ub, dub, 0.0)
    glC = np.where(tape.use_crown_lb, dlb, 0.0)

    # Adjoints of each activation layer's chord slope and intercept, summed
    # over both chains.
    us_bar = [None] * (L - 1)
    ui_bar = [None] * (L - 1)

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
            st = stages[idx]
            B_bar = A_bar @ W.T + d_bar[:, None] * b[None, :]
            grads.weights[k] += st.B.T @ A_bar
            grads.biases[k] += st.B.T @ d_bar
            sel = st.pos & tape.crossing[k]
            us = np.where(sel, B_bar * st.A, 0.0)
            ui = np.where(sel, d_bar[:, None] * st.A, 0.0)
            if us_bar[k] is None:
                us_bar[k], ui_bar[k] = us, ui
            else:
                us_bar[k] += us
                ui_bar[k] += ui
            A_bar = B_bar * st.lam + d_bar[:, None] * st.mu
        seed_bars.append((A_bar, d_bar))

    # Each chain's initial coefficients were the output layer's weights and
    # bias, negated for the chain of -f.
    (Au_bar, du_bar), (Al_bar, dl_bar) = seed_bars
    grads.weights[L - 1] += (Au_bar - Al_bar).sum(axis=0, keepdims=True)
    grads.biases[L - 1] += np.array([(du_bar - dl_bar).sum()])

    # Adjoint of the interval recursion, deepest layer first.  The output's
    # interval bounds pick up the non-refined branch of the intersection.
    lbar = (dlb - glC)[:, None]
    ubar = (dub - guC)[:, None]
    for k in range(L - 1, -1, -1):
        W = net.weights[k]
        m_bar = lbar + ubar
        s_bar = ubar - lbar
        c_prev, r_prev = tape.centers[k], tape.radii[k]
        grads.weights[k] += m_bar.T @ c_prev + np.sign(W) * (s_bar.T @ r_prev)
        grads.biases[k] += m_bar.sum(axis=0)
        c_bar = m_bar @ W
        r_bar = s_bar @ np.abs(W)
        if k == 0:
            dX += c_bar
            break
        j = k - 1
        ubar = 0.5 * (c_bar + r_bar) * leaky_relu_grad(tape.ups[j], alpha)
        lbar = 0.5 * (c_bar - r_bar) * tape.base[j]
        cross = tape.crossing[j]
        if cross.any():
            # Chord slope/intercept sensitivities to the interval endpoints.
            l, u, chord = tape.lows[j], tape.ups[j], tape.chord[j]
            width2 = tape.width[j] ** 2
            dchord_du = (alpha - 1.0) * l / width2
            dchord_dl = (1.0 - alpha) * u / width2
            dicpt_dl = (alpha - chord) - l * dchord_dl
            dicpt_du = -l * dchord_du
            ubar += np.where(cross, us_bar[j] * dchord_du
                             + ui_bar[j] * dicpt_du, 0.0)
            lbar += np.where(cross, us_bar[j] * dchord_dl
                             + ui_bar[j] * dicpt_dl, 0.0)
    return grads, dX


def ibp_bounds(net: Network, pset: PerturbationSet):
    """Interval output bounds plus all pre-activation layer bounds."""
    X = _check_batch(net, pset.center[None, :])
    lows, ups, _, _ = _interval_forward(net, X, pset.eps)
    layer = LayerBounds([l[0] for l in lows], [u[0] for u in ups])
    return ScalarBounds(float(lows[-1][0, 0]), float(ups[-1][0, 0])), layer


def crown_ibp_bounds(net: Network, pset: PerturbationSet) -> ScalarBounds:
    """Backward linear-relaxation bounds, never wider than the interval ones."""
    lb, ub = crown_ibp_batch(net, pset.center[None, :], pset.eps)
    return ScalarBounds(float(lb[0]), float(ub[0]))


def worst_case_hazard(net: Network, pset: PerturbationSet) -> float:
    """Certified upper bound on exp(G) over the ball (+inf on overflow)."""
    return float(hazard(crown_ibp_bounds(net, pset).ub))


def worst_case_log_hazard_batch(net: Network, X, eps: float) -> np.ndarray:
    """Certified per-row upper bounds on G, for evaluation sweeps."""
    _, ub = crown_ibp_batch(net, X, eps)
    return ub
