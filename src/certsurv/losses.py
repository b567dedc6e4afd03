"""Training objectives and input perturbers for the survival model.

The clean objective is the negative right-censored log likelihood plus a
weighted pairwise ranking penalty.  Robust training variants either move
the covariates (single-step / iterated gradient ascent, Gaussian noise) or
replace the inner maximization with a certified upper bound assembled from
per-record score bounds:

* each likelihood term is convex in the score, so its maximum over
  [lb, ub] sits at an endpoint;
* each ranking term grows when the earlier instance's event probability
  drops and the later one's rises, so it is maximized at (lb_i, ub_j).

One pair kernel (`_pair_terms`) and one likelihood term (`_ll_term`) serve
both: the clean loss evaluates them at the scores G, the certified bound at
the score endpoints.  The kernel takes hazards, not scores: each caller
exponentiates a score vector once and forms exp(G) * t once, and the
likelihood value, its gradient and the kernel share them.  Both expose
exact gradients with respect to parameters and inputs (the certified one
via the bound-engine adjoint).  `_clean_engine` is the only code that
computes the clean value: `combined_loss`, `sawar_loss_grads` and training
read its fields, so they agree bit for bit.

Only a record with an event and a later time in its batch can be the
earlier member of a pair.  `Batch.pairs`, the one plan, lists those rows
once per batch and is shared by its perturbed copies, as are -t at those
rows and -e as floats; the kernel computes the ranking terms on the plan's
rows alone, a compact (plan rows x batch) array.  The ranking value, clean
and certified, is that array's `eta.sum()`: the one sum order of the
ranking term.

One rule decides which bits the code keeps: those of its outputs (the
checkpoints, `metrics.csv` and `train_report.csv`), and no others; no code
exists only to fix a sum order or a NaN's sign that no output shows.

The kernel makes six (rows x batch) passes for a value and ten with
gradients, at sigma = 1 (one more otherwise), and three per-record passes:
it builds -(t_i * lambda_j) in one outer product from the batch's cached
-t, and keeps F's difference negated, so no pass negates a matrix.  It
opens no `np.errstate`: exp overflow and inf * 0 are expected there, and
`_clean_engine`, `_certified_terms`, `pgd_perturb` and `_fgsm_scores` each
open one per call around the kernel and the gradient arithmetic (for
`_clean_engine`, also the forward and backward passes; for `pgd_perturb`,
around all its steps).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .bounds import (_check_radius, crown_ibp_batch_tape,
                     crown_ibp_batch_vjp)
from .data import Batch
from .network import (Network, _check_batch, _forward, _keep,
                      backward_batch, forward_batch, input_grads_batch)

log = logging.getLogger(__name__)

# glibc's malloc hands free memory at the top of its heap back to the
# system beyond a trim threshold (256 KiB at start).  At 128 rows the bound
# engine's stacked per-layer arrays (100 KiB at width 50) and the pair
# kernel's (plan rows x batch) arrays (up to 127 KiB) come and go at the
# heap top, so every step would give their pages back and fault them in
# again.  Freeing one block at or above the mmap threshold (128 KiB at
# start), as this 8 MiB one is, raises that threshold to its size and the
# trim threshold to twice that.  One warm cycle on the three fixtures (seed
# 5; 100 epochs of sawar, 50 of pgd; glibc 2.36; three sets of runs) makes
# 0-2 minor page faults with this line and 198,240-205,841 without it for
# sawar training; pgd training makes 0-2 against 2,589-16,389.  A trim
# threshold of 16 MiB alone (MALLOC_TRIM_THRESHOLD_) gives 0-5 and 0.
np.empty(1 << 20)


@dataclass
class LossBreakdown:
    """Per-batch loss components, logged during training."""

    neg_ll: float
    rank: float
    clean_combined: float
    certified_upper: float
    total: float


def _resolve_w(w, batch: Batch) -> float:
    # Default pairing weight: one over the batch size.
    return 1.0 / len(batch) if w is None else float(w)


def _ll_term(G, t, e, lam_t=None):
    """Per-record negative log likelihood -e * G + exp(G) * t; a caller that
    holds the cumulative hazards lam_t = exp(G) * t passes them."""
    if lam_t is None:
        with np.errstate(over="ignore"):
            lam_t = np.exp(G) * t
    return -(e * G) + lam_t


def _pair_terms(lam_t_own, lam_cross, batch: Batch, sigma, need_grads=True):
    """(eta, D_own, row_sums, cross_sums) over `batch.pairs`, for each
    pair's earlier record i at cumulative hazard lam_t_own_i = lambda_i *
    t_i and its later record j at hazard lam_cross_j = lambda_j, with
    lambda = exp(G) at the scores of that member.

    eta[r, j] is the ranking term of pair (rows[r], j) where A[r, j], else
    0: the plan's rows of the (batch x batch) pair matrix, every other row
    of which is 0.  With D[i, j] = dF(t_i|g)/dg at the later member's
    score g and D_own[i] the same at the earlier member's, row_sums[i] is
    the sum of row i of eta (0 off the plan) and cross_sums[j] the sum of
    column j of eta * D over the plan's rows (+0.0 on a batch with no plan
    rows).  The last three are None without need_grads.

    The (rows x batch) terms take six passes, four more with need_grads:
    `ntl` = -(t_i * lambda_j), one outer product of the batch's cached
    `minus_pair_times`; `eta` = exp(ntl), which is S; with need_grads,
    ntl *= S, so ntl = -D; eta = 1 - S, then eta -= 1 - S_own, the
    negated F difference; eta /= sigma, skipped at sigma = 1, since x / 1
    is x; exp; `_keep`, which applies A; and with need_grads the row
    sums of eta, ntl *= eta and the column sums of ntl, which cross_sums
    subtracts from 0.0.  The per-record side takes two passes for S_own =
    exp(-lam_t_own) and one for D_own = lam_t_own * S_own.  IEEE rounding
    is symmetric in sign, so every entry is NaN exactly where the plain
    formula gives NaN and has its bytes elsewhere; only a NaN's sign may
    differ.

    The caller opens the `np.errstate` that lets exp overflow and inf * 0
    make NaN without a warning.
    """
    rows, A = batch.pairs
    ntl = np.multiply.outer(batch.minus_pair_times, lam_cross)
    S_own = np.exp(-lam_t_own)   # S(t_i | G_own_i)
    eta = np.exp(ntl)            # S[r, j] = S(t_rows[r] | G_cross_j)
    if need_grads:
        ntl *= eta               # -dF(t|g)/dg = -t * exp(g) * S(t|g)
    np.subtract(1.0, eta, out=eta)
    eta -= (1.0 - S_own[rows])[:, None]
    if sigma != 1.0:
        eta /= sigma
    np.exp(eta, out=eta)
    eta = _keep(A, eta)
    if not need_grads:
        return eta, None, None, None
    row_sums = np.zeros(len(lam_cross))
    row_sums[rows] = eta.sum(axis=1)
    ntl *= eta
    # 0.0 - gives a column with no plan rows +0.0, an empty sum's value
    cross_sums = 0.0 - ntl.sum(axis=0)
    return eta, lam_t_own * S_own, row_sums, cross_sums


def combined_loss(net: Network, batch: Batch, w: float | None = None,
                  sigma: float = 1.0) -> float:
    """Negative log likelihood plus w times the ranking penalty."""
    return _clean_engine(net, batch, _resolve_w(w, batch), sigma,
                         need_grads=False)[2]


def _loss_grad(G: np.ndarray, batch: Batch, w_s: float, sigma: float,
               need_grads: bool = True):
    """(lam_t, eta, dG): the cumulative hazards exp(G) * t, `_pair_terms`
    at G for both members of a pair, and the gradient of neg_ll + w_val *
    (sum of eta) with respect to G, w_s = w_val / sigma (None without
    need_grads).  G is exponentiated once and exp(G) * t formed once."""
    lam = np.exp(G)
    lam_t = lam * batch.t
    eta, D_own, row_sums, cross_sums = _pair_terms(lam_t, lam, batch, sigma,
                                                   need_grads)
    if not need_grads:
        return lam_t, eta, None
    dG = (batch.minus_events + lam_t) + w_s * (cross_sums - D_own * row_sums)
    return lam_t, eta, dG


def _clean_engine(net: Network, batch: Batch, w_val: float, sigma: float,
                  need_grads: bool):
    """The clean loss: (neg_ll, rank, value, pgrads, igrads), the last two
    None without need_grads.  Every clean value is read from here."""
    # an overflowing network gives non-finite results, not warnings:
    # train() skips such an update, and a run of them has diverged
    with np.errstate(over="ignore", invalid="ignore"):
        G, caches = forward_batch(net, batch.X)
        lam_t, eta, dG = _loss_grad(G, batch, w_val / sigma, sigma,
                                    need_grads)
        neg_ll = float(_ll_term(G, batch.t, batch.e, lam_t).sum())
        rank = float(eta.sum())
        grads = backward_batch(net, caches, dG) if need_grads else (None, None)
    return neg_ll, rank, neg_ll + w_val * rank, *grads


def _project(X: np.ndarray, lo, hi) -> np.ndarray:
    """X clipped into [lo, hi] in place; np.clip's bytes, without its
    Python wrappers."""
    np.maximum(X, lo, out=X)
    return np.minimum(X, hi, out=X)


def _project_ball(X_new: np.ndarray, X0: np.ndarray, eps: float) -> np.ndarray:
    # written in place: every caller passes a fresh X_new
    return _project(X_new, X0 - eps, X0 + eps)


def pgd_perturb(net: Network, batch: Batch, eps: float, steps: int,
                w: float | None = None, sigma: float = 1.0,
                sign_mode: bool = False) -> Batch:
    """Iterated projected gradient ascent on the combined loss.

    Step size is eps/steps.  By default the raw input gradient is used as
    the ascent direction; sign_mode switches to its elementwise sign.
    Times and event indicators are never touched, so what depends only on
    them is built once per attack, not once per step: the ball's bounds,
    the weight w / sigma, and the batch's pairs, -t at the plan's rows and
    -e as floats (cached on the batch and shared by the result).  The
    input is checked once, and every step runs the unchecked forward core:
    each step after the first starts from a point clipped into the ball,
    which is finite wherever X - eps and X + eps are.  Each step computes
    only the input gradient, not the loss, and exponentiates the scores
    once.  A row whose gradient is non-finite at a step skips that step
    (logged) and keeps what earlier steps moved it.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    _check_radius(eps)
    if eps == 0.0:
        return batch
    X = _check_batch(net, batch.X)
    lo, hi = X - eps, X + eps
    alpha = eps / steps
    w_s = _resolve_w(w, batch) / sigma
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            # the direction is a fresh array: the step is built in it, so
            # that batch.X is never written
            step = _ascent_step(net, X, batch, w_s, sigma, sign_mode)[1]
            step *= alpha
            step += X
            X = _project(step, lo, hi)
    return batch.with_X(X)


def _ascent_step(net: Network, X, batch: Batch, w_s, sigma, sign_mode):
    """(G, ascent direction) at X, which `_check_batch` has accepted; a row
    with a non-finite gradient gets 0.  w_s is w / sigma.  The caller opens
    the errstate, once for all its steps."""
    G, caches = _forward(net, X)
    dG = _loss_grad(G, batch, w_s, sigma)[2]
    igrads = input_grads_batch(net, caches, dG)
    if not np.isfinite(igrads).all():
        bad = ~np.isfinite(igrads).all(axis=1)
        log.warning("skipping perturbation for %d record(s) with "
                    "non-finite input gradient", int(bad.sum()))
        igrads[bad] = 0.0
    return G, np.sign(igrads) if sign_mode else igrads


def fgsm_perturb(net: Network, batch: Batch, eps: float,
                 w: float | None = None, sigma: float = 1.0,
                 sign_mode: bool = False) -> Batch:
    """Single-step gradient perturbation (the steps=1 special case)."""
    return pgd_perturb(net, batch, eps, 1, w, sigma, sign_mode)


def _fgsm_scores(net: Network, batch: Batch, eps_grid, w, sigma, sign_mode):
    """Each radius's fgsm_perturb scores G, bit for bit, from one direction."""
    for eps in eps_grid:
        _check_radius(eps)
    X0 = _check_batch(net, batch.X)
    if not any(eps != 0.0 for eps in eps_grid):
        return [_forward(net, X0)[0]] * len(eps_grid)
    with np.errstate(over="ignore", invalid="ignore"):
        G0, step = _ascent_step(net, X0, batch, _resolve_w(w, batch) / sigma,
                                sigma, sign_mode)
    return [forward_batch(net, _project_ball(X0 + eps * step, X0, eps))[0]
            if eps != 0.0 else G0 for eps in eps_grid]


def noise_perturb(batch: Batch, eps: float, rng_seed) -> Batch:
    """Gaussian noise with standard deviation sqrt(eps), clipped to the ball."""
    _check_radius(eps)
    if eps == 0.0:
        return batch
    rng = np.random.default_rng(rng_seed)
    z = rng.standard_normal(batch.X.shape)
    # project after adding so containment is exact in floating point
    return batch.with_X(_project_ball(batch.X + np.sqrt(eps) * z,
                                      batch.X, eps))


def _certified_terms(lb, ub, batch: Batch, w_val: float, sigma: float,
                     need_grads: bool = True):
    """Endpoint maxima of every loss term given per-record score bounds.

    Returns the bound value plus the sensitivities (dlb, dub) of that value
    to each record's bounds (None without need_grads).
    """
    t, e = batch.t, batch.e
    paired = batch.pairs.rows.size > 0
    with np.errstate(over="ignore", invalid="ignore"):
        lam_ub = np.exp(ub)
        lam_t_lb, lam_t_ub = np.exp(lb) * t, lam_ub * t
        ll_lb = _ll_term(lb, t, e, lam_t_lb)
        ll_ub = _ll_term(ub, t, e, lam_t_ub)
        take_ub = ll_ub >= ll_lb  # ties go to the upper endpoint
        value = float(np.where(take_ub, ll_ub, ll_lb).sum())
        if paired:
            eta, D_own, row_sums, cross_sums = _pair_terms(
                lam_t_lb, lam_ub, batch, sigma, need_grads)
            value += w_val * float(eta.sum())
        if not need_grads:
            return value, None, None
        dlb = np.where(take_ub, 0.0, batch.minus_events + lam_t_lb)
        dub = np.where(take_ub, batch.minus_events + lam_t_ub, 0.0)
        if paired:
            dlb = dlb + (w_val / sigma) * (-D_own) * row_sums
            dub = dub + (w_val / sigma) * cross_sums
    return value, dlb, dub


def certified_upper_loss_grads(net: Network, batch: Batch, eps: float,
                               w: float | None = None, sigma: float = 1.0,
                               need_grads: bool = True):
    """Certified loss bound with gradients through the bound computation:
    (value, pgrads, igrads), the last two None without need_grads."""
    _check_radius(eps)
    lb, ub, tape = crown_ibp_batch_tape(net, batch.X, eps)
    value, dlb, dub = _certified_terms(lb, ub, batch, _resolve_w(w, batch),
                                       sigma, need_grads)
    grads = (crown_ibp_batch_vjp(net, tape, dlb, dub) if need_grads
             else (None, None))
    return value, *grads


def sawar_loss_grads(net: Network, batch: Batch, eps: float,
                     kappa: float = 0.5, w: float | None = None,
                     sigma: float = 1.0, need_grads: bool = True):
    """The kappa mix of the clean loss and its certified upper bound, with
    its parameter and input gradients (None without need_grads).  A term of
    weight 0 adds nothing, so at kappa = 1 the result is the clean loss's
    even when the certified bound overflows."""
    if not (0.0 <= kappa <= 1.0):
        raise ValueError(f"kappa must lie in [0, 1], got {kappa}")
    w_val = _resolve_w(w, batch)
    neg_ll, rank, clean, clean_pg, clean_ig = _clean_engine(
        net, batch, w_val, sigma, need_grads
    )
    if eps == 0.0:
        # Zero-width bounds make the certified term the clean loss itself;
        # reuse it so the warmup trajectory matches plain training bitwise.
        return LossBreakdown(neg_ll, rank, clean, clean, clean), clean_pg, clean_ig
    cert, cert_pg, cert_ig = certified_upper_loss_grads(
        net, batch, eps, w_val, sigma, need_grads and kappa != 1.0
    )
    # A term of weight 0 is left out: 0 * inf is NaN.
    total = (clean if kappa == 1.0 else cert if kappa == 0.0
             else kappa * clean + (1.0 - kappa) * cert)
    breakdown = LossBreakdown(neg_ll, rank, clean, cert, total)
    if kappa == 1.0:
        return breakdown, clean_pg, clean_ig
    if kappa == 0.0 or not need_grads:  # cert_pg is None without need_grads
        return breakdown, cert_pg, cert_ig
    pgrads = clean_pg.scale(kappa).add_scaled(cert_pg, 1.0 - kappa)
    return breakdown, pgrads, kappa * clean_ig + (1.0 - kappa) * cert_ig
