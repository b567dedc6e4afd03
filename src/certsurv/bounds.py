"""Certified output bounds for the scalar network over l-inf input balls.

Two propagators are provided:

* interval propagation (box arithmetic through every layer), and
* a backward linear-relaxation pass over the final output that uses the
  interval pre-activation boxes to classify each Leaky ReLU as active,
  inactive, or crossing zero.  Crossing neurons are relaxed between the
  chord (the upper envelope of the convex activation) and a line through
  the origin whose slope is 1 when |ub| >= |lb| and the leaky slope
  otherwise.  The backward pass (`_backward_pass`) computes upper bounds;
  the lower bound of the output f is the negated upper bound of -f.

The chains of f and of -f run the same ops, so one pass runs both, for
every caller, on arrays with a leading chain axis: index 0 is f and index
1 is -f.  At the batch sizes training uses (3 to 128 rows), a numpy call's
fixed cost outweighs its arithmetic below about 100 rows, so one stacked
call costs little more than either of the two it replaces.  Each layer's
relaxation lines broadcast over the axis, and a product with a weight
matrix runs the same gemm on each chain's slice, so each chain's slice of
the tape holds the values of that chain run alone.

The refined bound is intersected elementwise with the interval bound, so
the refined interval is never wider.  `crown_ibp_batch_tape` additionally
returns a `BoundTape` holding every intermediate needed to pull loss
gradients back through the whole bound computation (used by the certified
training objective): the interval boxes, each hidden layer's box-edge
slopes and each layer's |W| from `_interval_forward`, each layer's crossing
mask, chord and chord denominator from `_relaxation`, and each stacked
chain step's line choice, slope, intercept and scaled coefficients from
`_backward_pass`.  The adjoint, written out by hand in
`crown_ibp_batch_vjp`, walks both chains in one stacked loop too; it
recomputes nothing the tape holds, and takes sign(W) from the parameters.

Each of these functions builds its elementwise results in arrays it made
itself (`out=`, `+=`), with the arithmetic of the plain expression.  On a
per-neuron matrix, a select of 1 or the leaky slope is `network._slope`
and a select of a value or 0 is `network._keep`, each with `np.where`'s
bytes and no branch per entry; a select between two arrays (`width`,
`chord`, `up_slope`, `lam`) or along the rows stays `np.where`.  One
rule decides which bits the code keeps: those of its outputs (the
checkpoints, `metrics.csv` and `train_report.csv`), and no others.  Every
entry of the tape and of the gradients holds the plain expression's value,
NaN in exactly the same entries; only a NaN's sign may differ, which no
output shows: a NaN linear bound never reaches `lb` or `ub`, where the
intersection takes the interval bound, and `adam_step` refuses a NaN
gradient.  No array outlives its call other than as a result: a returned
tape is never written again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .network import Network, ParamGrads, _check_batch, _keep, _slope


def _check_radius(eps) -> None:
    """Reject a radius that is negative or not finite (NaN included)."""
    if not 0.0 <= eps < math.inf:
        raise ValueError(f"radius must be finite and nonnegative, got {eps}")


def _interval_forward(net: Network, X: np.ndarray, eps: float):
    """Box propagation.  Returns (lows, ups, centers, radii, slopes_l,
    slopes_u, abs_w): per-layer pre-activation bounds, the center and radius
    of the activation box feeding each layer, each hidden layer's box-edge
    slopes at l and at u (1 where the edge is >= 0, else the leaky slope),
    and each layer's |W|.  An activation edge is the bound times its slope:
    the bound where it is >= 0, else the leaky slope times it, bit for
    bit."""
    alpha = net.leaky_slope
    c = X
    r = np.full_like(X, eps)
    centers, radii = [c], [r]
    lows, ups, slopes_l, slopes_u, abs_w = [], [], [], [], []
    for k, (W, b) in enumerate(zip(net.weights, net.biases)):
        aW = np.abs(W)
        abs_w.append(aW)
        m = c @ W.T + b
        s = r @ aW.T
        l = m - s
        u = np.add(m, s, out=s)
        lows.append(l)
        ups.append(u)
        if k < net.n_layers - 1:
            dl = _slope(l >= 0.0, alpha)
            du = _slope(u >= 0.0, alpha)
            slopes_l.append(dl)
            slopes_u.append(du)
            al = l * dl
            r = u * du          # the upper activation edge
            c = r + al
            c *= 0.5
            r -= al
            r *= 0.5
            centers.append(c)
            radii.append(r)
    return lows, ups, centers, radii, slopes_l, slopes_u, abs_w


def _relaxation(net: Network, lows, ups, bases):
    """Per activation layer: the relaxation lines, and the pieces of them
    that the adjoint reads back.

    Active (l >= 0) and inactive (u <= 0) neurons are exact; crossing
    neurons use the chord above and an origin line below.  `bases` holds
    each layer's slope of an exact neuron, the activation's derivative at l
    (1 where l >= 0, else the leaky slope).  Returns (up_slope, up_icpt,
    low_slope, crossing, width, chord), one array per layer each: `width`
    is u - l on crossing neurons and 1 elsewhere (the chord's denominator).
    """
    alpha = net.leaky_slope
    pieces = tuple([] for _ in range(6))
    for l, u, base in zip(lows, ups, bases):
        cross = l < 0.0
        cross &= u > 0.0
        work = u - l
        width = np.where(cross, work, 1.0)
        np.multiply(l, alpha, out=work)
        np.subtract(u, work, out=work)
        work /= width
        chord = np.where(cross, work, 1.0)
        up_slope = np.where(cross, chord, base)
        np.subtract(alpha, chord, out=work)
        work *= l
        up_icpt = _keep(cross, work)
        # A crossing neuron's lower line has slope 1 when |u| >= |l|, that
        # is u >= -l.  On an exact neuron u >= -l holds exactly when base
        # = 1, that is l >= 0: u = m + s >= l there, and u is not NaN,
        # since s >= 0 makes m - s and m + s NaN or -inf together.
        np.negative(l, out=work)
        low_slope = _slope(u >= work, alpha)
        layer = (up_slope, up_icpt, low_slope, cross, width, chord)
        for piece, value in zip(pieces, layer):
            piece.append(value)
    return pieces


class Stage(NamedTuple):
    """One step of the stacked backward chains through activation layer k;
    every field is (chains, rows, neurons of layer k)."""

    A: np.ndarray    # coefficients entering the step
    pos: np.ndarray  # A >= 0: the neuron takes its upper line
    lam: np.ndarray  # the slope taken
    mu: np.ndarray   # the intercept taken
    B: np.ndarray    # A * lam, the coefficients handed to layer k's weights


@dataclass
class BoundTape:
    """Intermediates of one batched bound computation, for the adjoint.

    The forward pass writes every value the adjoint needs; the adjoint only
    reads them.  Per-layer lists run over layers 0 .. L-1 (pre-activations,
    |W|) or over activation layers 0 .. L-2 (box-edge slopes, relaxation
    pieces).  `stages` and `A` carry the backward chains stacked on a
    leading chain axis: index 0 is the upper chain of f and index 1 the
    upper chain of -f.
    """

    X: np.ndarray
    eps: float
    lows: list      # interval pre-activation bounds of every layer
    ups: list
    centers: list   # center and radius of the box feeding every layer
    radii: list
    slope_l: list   # box-edge slopes: 1 where l >= 0, else the leaky slope
    slope_u: list   # the same at u
    abs_w: list     # |W| of every layer
    crossing: list  # l < 0 < u, per activation layer
    width: list     # u - l on crossing neurons, 1 elsewhere
    chord: list     # chord slope on crossing neurons, 1 elsewhere
    stages: list    # stacked Stage of the chains, for k = L-2 .. 0
    A: np.ndarray   # stacked final input-space coefficients
    crown_lb: np.ndarray
    crown_ub: np.ndarray
    ibp_lb: np.ndarray
    ibp_ub: np.ndarray
    use_crown_ub: np.ndarray
    use_crown_lb: np.ndarray


def _backward_pass(net: Network, X, eps, up_slope, up_icpt, low_slope):
    """Backward linear bounds (lb, ub) on the output f, and their tape
    pieces: the upper chains of f and of -f run stacked, and lb is minus
    the second.  Also returns the stacked Stage of every step and the final
    input-space coefficients (chains, rows, inputs)."""
    w, b = net.weights[-1][0], net.biases[-1][0]
    n = X.shape[0]
    A = np.empty((2, n, len(w)))
    A[0], A[1] = w, -w
    d = np.empty((2, n))
    d[0], d[1] = b, -b
    stages = []
    for k in range(net.n_layers - 2, -1, -1):
        W, b = net.weights[k], net.biases[k]
        pos = A >= 0.0
        lam = np.where(pos, up_slope[k], low_slope[k])
        mu = _keep(pos, up_icpt[k])
        B = A * mu
        d += B.sum(axis=2)
        np.multiply(A, lam, out=B)
        stages.append(Stage(A, pos, lam, mu, B))
        A = B @ W
        d += B @ b
    work = A * X
    ub = work.sum(axis=2) + eps * np.abs(A, out=work).sum(axis=2)
    ub += d
    return -ub[1], ub[0], stages, A


def crown_ibp_batch_tape(net: Network, X, eps: float):
    """Refined bounds for every row of X, plus the full adjoint tape."""
    X = _check_batch(net, X)
    eps = float(eps)
    _check_radius(eps)
    lows, ups, centers, radii, slope_l, slope_u, abs_w = _interval_forward(
        net, X, eps)
    up_slope, up_icpt, low_slope, crossing, width, chord = _relaxation(
        net, lows, ups, slope_l)
    crown_lb, crown_ub, stages, A = _backward_pass(
        net, X, eps, up_slope, up_icpt, low_slope)
    ibp_lb, ibp_ub = lows[-1][:, 0], ups[-1][:, 0]
    use_crown_ub = crown_ub <= ibp_ub
    use_crown_lb = crown_lb >= ibp_lb
    lb = np.where(use_crown_lb, crown_lb, ibp_lb)
    ub = np.where(use_crown_ub, crown_ub, ibp_ub)
    # Both branches are sound; rounding noise at eps=0 can leave lb a few
    # ulp above ub after the intersection, so repair downward.
    lb = np.minimum(lb, ub)
    tape = BoundTape(
        X, eps, lows, ups, centers, radii, slope_l, slope_u, abs_w, crossing,
        width, chord, stages, A, crown_lb, crown_ub, ibp_lb, ibp_ub,
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
    reads every forward value from the tape and recomputes none; sign(W),
    which only the interval recursion uses, it takes from the parameters.
    Every array it writes in place is one it made itself, never the tape's
    or dlb and dub.
    """
    X, eps = tape.X, tape.eps
    L = net.n_layers
    alpha = net.leaky_slope
    dlb = np.asarray(dlb, dtype=float)
    dub = np.asarray(dub, dtype=float)
    # The accumulators start at +0.0, so an entry that sums to zero is +0.0.
    # Each one adds the sum of its two chains' slices.
    grads = ParamGrads.zeros_like(net)
    dX = np.zeros(X.shape)

    guC = np.where(tape.use_crown_ub, dub, 0.0)
    glC = np.where(tape.use_crown_lb, dlb, 0.0)

    # Adjoints of each activation layer's chord slope and intercept, summed
    # over both chains.
    us_bar = [None] * (L - 1)
    ui_bar = [None] * (L - 1)

    # The chain of f is seeded with guC, and the chain of -f, whose bound is
    # -lb, with -glC.  A chain's constant term d has the seed itself as its
    # adjoint at every step.
    d_bar = np.array((guC, -glC))
    g = d_bar[:, :, None]
    # Adjoint of the concretization step.
    A_bar = np.sign(tape.A)
    A_bar *= eps
    A_bar += X
    np.multiply(g, A_bar, out=A_bar)
    work = np.multiply(g, tape.A)
    dX += work[0] + work[1]
    # Walk the chains in reverse: stages were recorded for k = L-2 .. 0, so
    # the adjoint visits k = 0 .. L-2.
    for idx in range(len(tape.stages) - 1, -1, -1):
        k = L - 2 - idx
        W, b = net.weights[k], net.biases[k]
        st = tape.stages[idx]
        work = A_bar @ W.T
        B_bar = np.multiply(g, b)
        np.add(work, B_bar, out=B_bar)
        gW = st.B.mT @ A_bar
        gb = st.B.mT @ g
        grads.weights[k] += gW[0] + gW[1]
        grads.biases[k] += gb[0, :, 0] + gb[1, :, 0]
        sel = st.pos & tape.crossing[k]
        us = _keep(sel, np.multiply(B_bar, st.A, out=work))
        ui = _keep(sel, np.multiply(g, st.A, out=work))
        us_bar[k], ui_bar[k] = us[0] + us[1], ui[0] + ui[1]
        B_bar *= st.lam
        A_bar = np.add(B_bar, np.multiply(g, st.mu, out=work), out=work)

    # Each chain's initial coefficients were the output layer's weights and
    # bias, negated for the chain of -f.
    Au_bar = A_bar[0]
    Au_bar -= A_bar[1]
    grads.weights[L - 1] += Au_bar.sum(axis=0, keepdims=True)
    grads.biases[L - 1] += np.array([(d_bar[0] - d_bar[1]).sum()])

    # Adjoint of the interval recursion, deepest layer first.  The output's
    # interval bounds pick up the non-refined branch of the intersection.
    lbar = (dlb - glC).reshape(-1, 1)
    ubar = (dub - guC).reshape(-1, 1)
    for k in range(L - 1, -1, -1):
        W = net.weights[k]
        m_bar = lbar + ubar
        s_bar = np.subtract(ubar, lbar, out=ubar)
        c_prev, r_prev = tape.centers[k], tape.radii[k]
        gW = s_bar.T @ r_prev
        np.multiply(np.sign(W), gW, out=gW)
        grads.weights[k] += np.add(m_bar.T @ c_prev, gW, out=gW)
        grads.biases[k] += m_bar.sum(axis=0)
        c_bar = m_bar @ W
        if k == 0:
            dX += c_bar
            break
        r_bar = s_bar @ tape.abs_w[k]
        j = k - 1
        ubar = c_bar + r_bar
        ubar *= 0.5
        ubar *= tape.slope_u[j]
        lbar = np.subtract(c_bar, r_bar, out=c_bar)
        lbar *= 0.5
        lbar *= tape.slope_l[j]
        cross = tape.crossing[j]
        if cross.any():
            # Chord slope/intercept sensitivities to the interval endpoints,
            # then weighted by the adjoints of the slope and the intercept.
            l, u = tape.lows[j], tape.ups[j]
            width2 = tape.width[j] ** 2
            dchord_du = l * (alpha - 1.0)
            dchord_du /= width2
            dchord_dl = u * (1.0 - alpha)
            dchord_dl /= width2
            dicpt_dl = alpha - tape.chord[j]
            # r_bar is spent: its array holds l * dchord_dl, then -l
            dicpt_dl -= np.multiply(l, dchord_dl, out=r_bar)
            dicpt_du = np.negative(l, out=r_bar)
            dicpt_du *= dchord_du
            np.multiply(us_bar[j], dchord_du, out=dchord_du)
            np.multiply(ui_bar[j], dicpt_du, out=dicpt_du)
            ubar += _keep(cross, np.add(dchord_du, dicpt_du, out=dicpt_du))
            np.multiply(us_bar[j], dchord_dl, out=dchord_dl)
            np.multiply(ui_bar[j], dicpt_dl, out=dicpt_dl)
            lbar += _keep(cross, np.add(dchord_dl, dicpt_dl, out=dicpt_dl))
    return grads, dX


def worst_case_log_hazard_batch(net: Network, X, eps: float) -> np.ndarray:
    """Certified per-row upper bounds on G, for evaluation sweeps: the bits
    of crown_ibp_batch's upper bound."""
    return crown_ibp_batch_tape(net, X, eps)[1]
