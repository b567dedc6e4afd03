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
the score endpoints.  Both expose exact gradients with respect to
parameters and inputs (the certified one via the bound-engine adjoint).
`_clean_engine` is the only code that computes the clean value:
`combined_loss`, `rank_loss`, `combined_loss_grads`, `sawar_loss_grads` and
training read its fields, so they agree bit for bit.

Only a record with an event and a later time in its batch can be the
earlier member of a pair.  `Batch.pairs`, the one plan, lists those rows
once per batch and is shared by its perturbed copies; the kernel computes
its (batch x batch) terms on them alone, the other rows being zero.  Row
and column sums come out the same bit for bit, but numpy sums a whole array
pairwise, so every sum of the ranking terms over all pairs, clean and
certified, is `_whole_sum`: a full-size matrix with the zero rows put back.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .bounds import (_check_radius, crown_ibp_batch_tape,
                     crown_ibp_batch_vjp)
from .data import Batch
from .network import (Network, ParamGrads, backward_batch, forward_batch,
                      input_grads_batch)

log = logging.getLogger(__name__)

# glibc's malloc maps each block at or above its mmap threshold (128 KiB at
# start) afresh: a 128-row batch's full pair matrix and the bound engine's
# per-layer arrays are that large.  Freeing one large mapped block raises
# the threshold to its size.  One 50-epoch cycle on the three fixtures
# (seed 5) makes 297 minor page faults with this line and 5,226 without it
# for pgd training (2,944 with the full pair matrix in a reused buffer), and
# 802 against 127,426 for sawar training, which is then 13% slower.
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


def _ll_term(G, t, e):
    # Per-record negative log likelihood contribution, as a function of G.
    with np.errstate(over="ignore"):
        return -(e * G) + np.exp(G) * t


def _ll_term_grad(G, t, e):
    with np.errstate(over="ignore"):
        return -np.asarray(e, dtype=float) + np.exp(G) * t


def _pair_terms(G_own, G_cross, batch: Batch, sigma, need_grads=True):
    """(eta, D_own, row_sums, cross_sums) at scores G_own for each pair's
    earlier record and G_cross for its later one, over `batch.pairs`.

    eta[r, j] is the ranking term of pair (rows[r], j) where A[r, j], else
    0.  Only the plan's rows are computed; every other row of the full
    (batch x batch) matrix is 0.  With D[i, j] = dF(t_i|g)/dg at G_cross_j
    and D_own[i] the same at G_own_i, row_sums[i] is the sum of row i of
    eta (0 off the plan) and cross_sums[j] the sum of column j of eta * D.
    Both equal the full matrix's sums bit for bit: a row sum reads only its
    row, numpy adds a column's rows in order, and a zero row adds +0.0 --
    or NaN to the column sum, where 0 * D[i, j] is NaN because
    t_i * exp(G_cross_j) overflows.
    The latest record is never on the plan and has the largest t_i, so it
    stands in for every record that is not.  The last three are None
    without need_grads.
    """
    t, (rows, A) = batch.t, batch.pairs
    with np.errstate(over="ignore"):
        lam_own = np.exp(G_own)
        lam_cross = np.exp(G_cross)
        tl = np.outer(t[rows], lam_cross)
        S_own = np.exp(-lam_own * t)  # S(t_i | G_own_i)
        S = np.exp(-tl)               # S[r, j] = S(t_rows[r] | G_cross_j)
    eta = np.where(A, np.exp(-((1.0 - S_own[rows])[:, None]
                               - (1.0 - S)) / sigma), 0.0)
    if not need_grads:
        return eta, None, None, None
    row_sums = np.zeros(len(t))
    row_sums[rows] = eta.sum(axis=1)
    # dF(t|g)/dg = t * exp(g) * S(t|g)
    with np.errstate(invalid="ignore", over="ignore"):
        cross_sums = ((eta * (tl * S)).sum(axis=0)
                      + 0.0 * (t.max() * lam_cross))
        return eta, t * lam_own * S_own, row_sums, cross_sums


def _whole_sum(eta: np.ndarray, rows: np.ndarray) -> float:
    """eta.sum() of the full (batch x batch) matrix, the one sum order of
    the ranking term in every clean and certified value.  numpy sums a
    whole array pairwise, so its rounding depends on where the zero rows
    sit: eta is put back into a full-size zero matrix before the sum."""
    full = np.zeros((eta.shape[1], eta.shape[1]))
    full[rows] = eta
    return float(full.sum())


def loglik(net: Network, batch: Batch) -> float:
    """Right-censored log likelihood: sum of e*log f + (1-e)*log S."""
    G, _ = forward_batch(net, batch.X)
    return -float(_ll_term(G, batch.t, batch.e).sum())


def rank_loss(net: Network, batch: Batch, sigma: float = 1.0) -> float:
    """Pairwise penalty exp(-(F(t_i|x_i) - F(t_i|x_j)) / sigma) over
    comparable pairs; zero when no pair is comparable."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    return _clean_engine(net, batch, 0.0, sigma, need_grads=False)[1]


def combined_loss(net: Network, batch: Batch, w: float | None = None,
                  sigma: float = 1.0) -> float:
    """Negative log likelihood plus w times the ranking penalty."""
    return _clean_engine(net, batch, _resolve_w(w, batch), sigma,
                         need_grads=False)[2]


def _loss_grad(G: np.ndarray, batch: Batch, w_val: float, sigma: float):
    """(eta, dG): `_pair_terms` at (G, G) and the gradient of neg_ll +
    w_val * (sum of eta) with respect to G."""
    eta, D_own, row_sums, cross_sums = _pair_terms(G, G, batch, sigma)
    with np.errstate(invalid="ignore", over="ignore"):
        dG = _ll_term_grad(G, batch.t, batch.e) + (w_val / sigma) * (
            cross_sums - D_own * row_sums)
    return eta, dG


def _clean_engine(net: Network, batch: Batch, w_val: float, sigma: float,
                  need_grads: bool):
    """The clean loss: (neg_ll, rank, value, pgrads, igrads), the last two
    None without need_grads.  Every clean value is read from here."""
    G, caches = forward_batch(net, batch.X)
    if need_grads:
        eta, dG = _loss_grad(G, batch, w_val, sigma)
    else:
        eta = _pair_terms(G, G, batch, sigma, need_grads=False)[0]
    neg_ll = float(_ll_term(G, batch.t, batch.e).sum())
    rank = _whole_sum(eta, batch.pairs.rows)
    grads = backward_batch(net, caches, dG) if need_grads else (None, None)
    return neg_ll, rank, neg_ll + w_val * rank, *grads


def combined_loss_grads(net: Network, batch: Batch, w: float | None = None,
                        sigma: float = 1.0):
    """Value plus exact parameter and input gradients of the clean loss."""
    return _clean_engine(net, batch, _resolve_w(w, batch), sigma,
                         need_grads=True)[2:]


def _project_ball(X_new: np.ndarray, X0: np.ndarray, eps: float) -> np.ndarray:
    return np.clip(X_new, X0 - eps, X0 + eps)


def pgd_perturb(net: Network, batch: Batch, eps: float, steps: int,
                w: float | None = None, sigma: float = 1.0,
                sign_mode: bool = False) -> Batch:
    """Iterated projected gradient ascent on the combined loss.

    Step size is eps/steps.  By default the raw input gradient is used as
    the ascent direction; sign_mode switches to its elementwise sign.
    Times and event indicators are never touched.  Each step computes only
    the input gradient, not the loss.  A row whose gradient is non-finite
    at a step skips that step (logged) and keeps what earlier steps moved
    it.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    _check_radius(eps)
    if eps == 0.0:
        return batch
    X0 = batch.X
    X = X0.copy()
    alpha = eps / steps
    # times and events never change, so neither do the pairs and the weight
    w_val = _resolve_w(w, batch)
    for _ in range(steps):
        G, caches = forward_batch(net, X)
        _, dG = _loss_grad(G, batch, w_val, sigma)
        igrads = input_grads_batch(net, caches, dG)
        bad = ~np.all(np.isfinite(igrads), axis=1)
        if bad.any():
            log.warning("skipping perturbation for %d record(s) with "
                        "non-finite input gradient", int(bad.sum()))
            igrads[bad] = 0.0
        step = np.sign(igrads) if sign_mode else igrads
        X = _project_ball(X + alpha * step, X0, eps)
    return batch.with_X(X)


def fgsm_perturb(net: Network, batch: Batch, eps: float,
                 w: float | None = None, sigma: float = 1.0,
                 sign_mode: bool = False) -> Batch:
    """Single-step gradient perturbation (the steps=1 special case)."""
    return pgd_perturb(net, batch, eps, 1, w, sigma, sign_mode)


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
    ll_lb = _ll_term(lb, t, e)
    ll_ub = _ll_term(ub, t, e)
    take_ub = ll_ub >= ll_lb  # ties go to the upper endpoint
    value = float(np.where(take_ub, ll_ub, ll_lb).sum())
    rows = batch.pairs.rows
    paired = rows.size > 0
    if paired:
        eta, D_own, row_sums, cross_sums = _pair_terms(lb, ub, batch, sigma,
                                                       need_grads)
        value += w_val * _whole_sum(eta, rows)
    if not need_grads:
        return value, None, None
    dlb = np.where(take_ub, 0.0, _ll_term_grad(lb, t, e))
    dub = np.where(take_ub, _ll_term_grad(ub, t, e), 0.0)
    if paired:
        with np.errstate(invalid="ignore", over="ignore"):
            dlb = dlb + (w_val / sigma) * (-D_own) * row_sums
            dub = dub + (w_val / sigma) * cross_sums
    return value, dlb, dub


def certified_upper_loss(net: Network, batch: Batch, eps: float,
                         w: float | None = None, sigma: float = 1.0) -> float:
    """Sound upper bound on the combined loss over per-record input balls."""
    value, _, _ = certified_upper_loss_grads(net, batch, eps, w, sigma,
                                             need_grads=False)
    return value


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


def sawar_loss(net: Network, batch: Batch, eps: float, kappa: float = 0.5,
               w: float | None = None, sigma: float = 1.0) -> LossBreakdown:
    """Convex mix of the clean objective and its certified upper bound."""
    breakdown, _, _ = sawar_loss_grads(net, batch, eps, kappa, w, sigma,
                                       need_grads=False)
    return breakdown


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
