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
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .bounds import (_check_radius, crown_ibp_batch_tape,
                     crown_ibp_batch_vjp)
from .network import (Network, ParamGrads, backward_batch, forward_batch,
                      input_grads_batch)

log = logging.getLogger(__name__)

# glibc's malloc maps each block above its mmap threshold (128 KiB at start)
# afresh, and a 128-row batch's 128 x 128 pair matrices are just above it.
# Freeing one large mapped block raises the threshold to its size: 20 pgd
# epochs on retinopathy then make ~250 page faults, not ~39,000.
np.empty(1 << 20)


@dataclass
class Batch:
    """Covariate rows with observed times and event indicators."""

    X: np.ndarray
    t: np.ndarray
    e: np.ndarray
    indices: np.ndarray | None = None

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.t = np.asarray(self.t, dtype=float)
        self.e = np.asarray(self.e, dtype=int)
        if self.X.ndim != 2 or len(self.X) == 0:
            raise ValueError("batch must be a nonempty 2-d covariate matrix")
        if not (len(self.X) == len(self.t) == len(self.e)):
            raise ValueError("X, t, e must have equal length")
        if self.indices is None:
            self.indices = np.arange(len(self.X))

    def __len__(self) -> int:
        return len(self.X)

    def with_X(self, X: np.ndarray) -> "Batch":
        return Batch(X, self.t, self.e, self.indices)


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


def _comparable_pairs(batch: Batch) -> np.ndarray:
    """A[i, j] = 1 when t_i < t_j and instance i had an observed event."""
    t, e = batch.t, batch.e
    return (t[:, None] < t[None, :]) & (e[:, None] == 1)


def _ll_term(G, t, e):
    # Per-record negative log likelihood contribution, as a function of G.
    with np.errstate(over="ignore"):
        return -(e * G) + np.exp(G) * t


def _ll_term_grad(G, t, e):
    with np.errstate(over="ignore"):
        return -np.asarray(e, dtype=float) + np.exp(G) * t


def _pair_terms(G_own, G_cross, t, A, sigma, need_grads=True):
    """(eta, D, D_own): eta[i, j] is the ranking term of pair (i, j) at
    scores (G_own_i, G_cross_j) where A[i, j], else 0; D[i, j] and D_own[i]
    are dF(t_i|g)/dg at G_cross_j and G_own_i (None without need_grads)."""
    with np.errstate(over="ignore"):
        lam_own = np.exp(G_own)
        tl = np.outer(t, np.exp(G_cross))
        S_own = np.exp(-lam_own * t)  # S(t_i | G_own_i)
        S = np.exp(-tl)               # S[i, j] = S(t_i | G_cross_j)
    eta = np.where(A, np.exp(-((1.0 - S_own)[:, None] - (1.0 - S)) / sigma),
                   0.0)
    if not need_grads:
        return eta, None, None
    # dF(t|g)/dg = t * exp(g) * S(t|g)
    with np.errstate(invalid="ignore", over="ignore"):
        return eta, tl * S, t * lam_own * S_own


def loglik(net: Network, batch: Batch) -> float:
    """Right-censored log likelihood: sum of e*log f + (1-e)*log S."""
    G, _ = forward_batch(net, batch.X)
    return -float(_ll_term(G, batch.t, batch.e).sum())


def rank_loss(net: Network, batch: Batch, sigma: float = 1.0) -> float:
    """Pairwise penalty exp(-(F(t_i|x_i) - F(t_i|x_j)) / sigma) over
    comparable pairs; zero when no pair is comparable."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    G, _ = forward_batch(net, batch.X)
    A = _comparable_pairs(batch)
    eta, _, _ = _pair_terms(G, G, batch.t, A, sigma, need_grads=False)
    return float(eta[A].sum())


def combined_loss(net: Network, batch: Batch, w: float | None = None,
                  sigma: float = 1.0) -> float:
    """Negative log likelihood plus w times the ranking penalty."""
    G, _ = forward_batch(net, batch.X)
    A = _comparable_pairs(batch)
    w_val = _resolve_w(w, batch)
    neg_ll, eta, _ = _pair_loss(G, batch.t, batch.e, A, w_val, sigma,
                                need_grads=False)
    return neg_ll + w_val * float(eta[A].sum())


def _pair_loss(G: np.ndarray, t: np.ndarray, e: np.ndarray, A: np.ndarray,
               w_val: float, sigma: float, need_grads: bool = True):
    """Clean-loss pieces from the scores G: (neg_ll, eta, dG).

    eta is `_pair_terms` at (G, G); dG is the gradient of neg_ll + w_val *
    eta.sum() with respect to G (None without need_grads).  The training
    engine sums eta whole and the loss functions sum eta[A]; the two orders
    round differently, and each caller keeps its own.
    """
    eta, D, D_own = _pair_terms(G, G, t, A, sigma, need_grads)
    neg_ll = float(_ll_term(G, t, e).sum())
    if not need_grads:
        return neg_ll, eta, None
    with np.errstate(invalid="ignore", over="ignore"):
        dG = _ll_term_grad(G, t, e) + (w_val / sigma) * (
            (eta * D).sum(axis=0) - D_own * eta.sum(axis=1))
    return neg_ll, eta, dG


def _clean_engine(net: Network, batch: Batch, w_val: float, sigma: float,
                  need_grads: bool, pairs: np.ndarray | None = None):
    """One forward pass worth of clean-loss pieces (and optionally grads).

    `pairs` is the batch's comparable-pair matrix, built here when None.
    """
    G, caches = forward_batch(net, batch.X)
    A = _comparable_pairs(batch) if pairs is None else pairs
    neg_ll, eta, dG = _pair_loss(G, batch.t, batch.e, A, w_val, sigma,
                                 need_grads)
    rank = float(eta.sum())
    value = neg_ll + w_val * rank
    if not need_grads:
        return neg_ll, rank, value, None, None
    pgrads, igrads = backward_batch(net, caches, dG)
    return neg_ll, rank, value, pgrads, igrads


def combined_loss_grads(net: Network, batch: Batch, w: float | None = None,
                        sigma: float = 1.0):
    """Value plus exact parameter and input gradients of the clean loss."""
    _, _, value, pgrads, igrads = _clean_engine(
        net, batch, _resolve_w(w, batch), sigma, need_grads=True
    )
    return value, pgrads, igrads


def _project_ball(X_new: np.ndarray, X0: np.ndarray, eps: float) -> np.ndarray:
    return np.clip(X_new, X0 - eps, X0 + eps)


def pgd_perturb(net: Network, batch: Batch, eps: float, steps: int,
                w: float | None = None, sigma: float = 1.0,
                sign_mode: bool = False) -> Batch:
    """Iterated projected gradient ascent on the combined loss.

    Step size is eps/steps.  By default the raw input gradient is used as
    the ascent direction; sign_mode switches to its elementwise sign.
    Times and event indicators are never touched.  Each step computes only
    the input gradient.  A row whose gradient is non-finite at a step skips
    that step (logged) and keeps what earlier steps moved it.
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
    A = _comparable_pairs(batch)
    w_val = _resolve_w(w, batch)
    for _ in range(steps):
        G, caches = forward_batch(net, X)
        _, _, dG = _pair_loss(G, batch.t, batch.e, A, w_val, sigma)
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
                     need_grads: bool = True,
                     pairs: np.ndarray | None = None):
    """Endpoint maxima of every loss term given per-record score bounds.

    Returns the bound value plus the sensitivities (dlb, dub) of that value
    to each record's bounds (None without need_grads).  `pairs` is the
    batch's comparable-pair matrix, built here when None.
    """
    t, e = batch.t, batch.e
    ll_lb = _ll_term(lb, t, e)
    ll_ub = _ll_term(ub, t, e)
    take_ub = ll_ub >= ll_lb  # ties go to the upper endpoint
    value = float(np.where(take_ub, ll_ub, ll_lb).sum())
    A = _comparable_pairs(batch) if pairs is None else pairs
    if A.any():
        eta, D_cross, D_own = _pair_terms(lb, ub, t, A, sigma, need_grads)
        value += w_val * float(eta.sum())
    if not need_grads:
        return value, None, None
    dlb = np.where(take_ub, 0.0, _ll_term_grad(lb, t, e))
    dub = np.where(take_ub, _ll_term_grad(ub, t, e), 0.0)
    if A.any():
        with np.errstate(invalid="ignore", over="ignore"):
            dlb = dlb + (w_val / sigma) * (-D_own) * eta.sum(axis=1)
            dub = dub + (w_val / sigma) * (eta * D_cross).sum(axis=0)
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
    """Certified loss bound with gradients through the bound computation."""
    return _certified_engine(net, batch, eps, _resolve_w(w, batch), sigma,
                             need_grads)


def _certified_engine(net: Network, batch: Batch, eps: float, w_val: float,
                      sigma: float, need_grads: bool,
                      pairs: np.ndarray | None = None):
    """The certified counterpart of `_clean_engine`: bound, terms, adjoint."""
    _check_radius(eps)
    lb, ub, tape = crown_ibp_batch_tape(net, batch.X, eps)
    value, dlb, dub = _certified_terms(lb, ub, batch, w_val, sigma,
                                       need_grads, pairs)
    if not need_grads:
        return value, None, None
    pgrads, igrads = crown_ibp_batch_vjp(net, tape, dlb, dub)
    return value, pgrads, igrads


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
    pairs = _comparable_pairs(batch)
    neg_ll, rank, clean, clean_pg, clean_ig = _clean_engine(
        net, batch, w_val, sigma, need_grads, pairs
    )
    if eps == 0.0:
        # Zero-width bounds make the certified term the clean loss itself;
        # reuse it so the warmup trajectory matches plain training bitwise.
        return LossBreakdown(neg_ll, rank, clean, clean, clean), clean_pg, clean_ig
    cert, cert_pg, cert_ig = _certified_engine(
        net, batch, eps, w_val, sigma, need_grads and kappa != 1.0, pairs
    )
    # A term of weight 0 is left out: 0 * inf is NaN.
    total = (clean if kappa == 1.0 else cert if kappa == 0.0
             else kappa * clean + (1.0 - kappa) * cert)
    breakdown = LossBreakdown(neg_ll, rank, clean, cert, total)
    if not need_grads:
        return breakdown, None, None
    if kappa == 1.0:
        return breakdown, clean_pg, clean_ig
    if kappa == 0.0:
        return breakdown, cert_pg, cert_ig
    pgrads = clean_pg.scale(kappa).add_scaled(cert_pg, 1.0 - kappa)
    return breakdown, pgrads, kappa * clean_ig + (1.0 - kappa) * cert_ig
