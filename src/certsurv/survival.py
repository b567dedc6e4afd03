"""Exponential proportional-hazard distribution functions and curve tools.

The relative-risk model is parameterized by a scalar score G = G(x): the
hazard is exp(G) (constant in time; the baseline rate is absorbed into the
network bias), so S(t|x) = exp(-exp(G) t).  All likelihood arithmetic stays
in log space; exponentiation happens only at the metric/curve boundary,
where overflow is mapped to an infinity sentinel rather than an exception.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import Network, forward_batch


class DomainError(ValueError):
    """Argument outside the mathematical domain of the function."""


def hazard(G: float) -> float:
    """Constant event rate exp(G); overflows to +inf without raising."""
    with np.errstate(over="ignore"):
        return float(np.exp(G))


def log_survival(G: float, t: float) -> float:
    """log S(t) = -exp(G) * t for t >= 0."""
    if t < 0:
        raise DomainError(f"survival requires t >= 0, got {t}")
    with np.errstate(over="ignore"):
        return float(-np.exp(G) * t)


def survival(G: float, t: float) -> float:
    """S(t) = exp(-exp(G) t), in [0, 1]."""
    return float(np.exp(log_survival(G, t)))


def log_pdf(G: float, t: float) -> float:
    """log f(t) = G - exp(G) * t for t > 0 (never exponentiate-then-log)."""
    if t <= 0:
        raise DomainError(f"event density requires t > 0, got {t}")
    with np.errstate(over="ignore"):
        return float(G - np.exp(G) * t)


@dataclass
class StepCurve:
    """Right-continuous step function starting at 1 for t < first breakpoint.

    breakpoints are strictly increasing times; values[j] is the curve value
    on [breakpoints[j], breakpoints[j+1]).
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __call__(self, t):
        """Curve value at time(s) t."""
        idx = np.searchsorted(self.breakpoints, t, side="right") - 1
        vals = np.where(idx < 0, 1.0, self.values[np.maximum(idx, 0)])
        return float(vals) if np.isscalar(t) else vals

    def at_left(self, t):
        """Left limit: value just before t (1.0 before the first breakpoint)."""
        idx = np.searchsorted(self.breakpoints, t, side="left") - 1
        vals = np.where(idx < 0, 1.0, self.values[np.maximum(idx, 0)])
        return float(vals) if np.isscalar(t) else vals


def km_estimator(times, events) -> StepCurve:
    """Product-limit estimate of the population survival curve.

    At tied times, events are processed before censorings: both reduce the
    risk set only after the factor for that time is applied.  Censoring-only
    times do not create a drop.
    """
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=int)
    if times.size == 0:
        raise DomainError("empty sample")
    if times.shape != events.shape:
        raise DomainError("times and events must have equal length")
    if not np.all(times > 0):
        raise DomainError("times must be positive")
    order = np.argsort(times)
    times, events = times[order], events[order]
    distinct, first = np.unique(times, return_index=True)
    deaths = np.add.reduceat(events, first)
    at_risk = times.size - first
    drop = deaths > 0
    if not drop.any():
        # All censored: the curve never drops.
        return StepCurve(np.array([np.inf]), np.array([1.0]))
    # cumprod multiplies the factors in time order, as a running product
    return StepCurve(distinct[drop],
                     np.cumprod(1.0 - deaths[drop] / at_risk[drop]))


def scores_for(net: Network, X) -> np.ndarray:
    """Model scores G(x_i) for each row of X."""
    G, _ = forward_batch(net, np.asarray(X, dtype=float))
    return G


def survival_matrix(G: np.ndarray, grid) -> np.ndarray:
    """S(t|x_i) for every instance (rows) at every grid time (columns)."""
    grid = np.asarray(grid, dtype=float)
    if np.any(grid < 0):
        raise DomainError("time grid must be nonnegative")
    with np.errstate(over="ignore"):
        lam = np.exp(np.asarray(G, dtype=float))
    return np.exp(-np.outer(lam, grid))


def population_curve(net: Network, X, grid) -> np.ndarray:
    """Dataset average of instance survival curves on the grid."""
    X = np.asarray(X, dtype=float)
    if X.size == 0:
        raise DomainError("population curve needs at least one instance")
    return survival_matrix(scores_for(net, X), grid).mean(axis=0)


def population_curve_from_hazards(hazards, grid) -> np.ndarray:
    """Average survival curve from explicit per-instance hazard rates."""
    hazards = np.asarray(hazards, dtype=float)
    if hazards.size == 0:
        raise DomainError("population curve needs at least one instance")
    grid = np.asarray(grid, dtype=float)
    with np.errstate(invalid="ignore"):
        return np.exp(-np.outer(hazards, grid)).mean(axis=0)


def survival_quantiles(net: Network, X, grid, q_lo: float = 0.05,
                       q_hi: float = 0.95):
    """Pointwise survival-band curves at the q_lo and q_hi levels.

    Survival is strictly decreasing in the score, so the q-quantile of the
    instance survival values equals the curve at the (1-q) order-statistic
    quantile of G (method "higher", matching method "lower" in S-space).
    """
    X = np.asarray(X, dtype=float)
    if X.size == 0:
        raise DomainError("quantile curves need at least one instance")
    G = scores_for(net, X)
    g_for_lo = np.quantile(G, 1.0 - q_lo, method="higher")
    g_for_hi = np.quantile(G, 1.0 - q_hi, method="higher")
    lo = survival_matrix(np.array([g_for_lo]), grid)[0]
    hi = survival_matrix(np.array([g_for_hi]), grid)[0]
    return lo, hi


def default_time_grid(times, n_points: int = 100) -> np.ndarray:
    """Evenly spaced evaluation grid from 0 to the maximum observed time."""
    tmax = float(np.max(times))
    return np.linspace(0.0, tmax, n_points)

