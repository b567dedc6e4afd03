"""Exponential proportional-hazard distribution functions and curve tools.

The relative-risk model is parameterized by a scalar score G = G(x): the
hazard is exp(G) (constant in time; the baseline rate is absorbed into the
network bias), so S(t|x) = exp(-exp(G) t).  All likelihood arithmetic stays
in log space; exponentiation happens only at the metric/curve boundary,
where overflow is mapped to an infinity sentinel rather than an exception.
The curve tools take per-record hazards, not a network, and build every
curve from the one survival matrix exp(-hazard * t).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Q_LO, Q_HI = 0.05, 0.95  # the survival band's quantile levels


class DomainError(ValueError):
    """Argument outside the mathematical domain of the function."""


def hazard(G):
    """Constant event rate exp(G), elementwise; overflows to +inf without
    raising."""
    with np.errstate(over="ignore"):
        return np.exp(G)


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
        return self._lookup(t, "right")

    def at_left(self, t):
        """Left limit: value just before t (1.0 before the first breakpoint)."""
        return self._lookup(t, "left")

    def _lookup(self, t, side):
        idx = np.searchsorted(self.breakpoints, t, side=side) - 1
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


def survival_matrix(hazards, grid) -> np.ndarray:
    """S(t|x_i) = exp(-hazard_i * t) for every record (rows) at every grid
    time (columns).  S(0) = 1 in every row, also where a hazard is +inf."""
    grid = np.asarray(grid, dtype=float)
    if (grid < 0).any():
        raise DomainError("time grid must be nonnegative")
    with np.errstate(invalid="ignore", over="ignore"):
        minus_lam_t = np.outer(-np.asarray(hazards, dtype=float), grid)
    # an infinite hazard makes inf * 0 = nan at t = 0
    minus_lam_t[:, grid == 0] = 0.0
    return np.exp(minus_lam_t, out=minus_lam_t)


def population_curve(hazards, grid) -> np.ndarray:
    """Dataset average of the records' survival curves on the grid."""
    hazards = np.asarray(hazards, dtype=float)
    if hazards.size == 0:
        raise DomainError("population curve needs at least one instance")
    return survival_matrix(hazards, grid).mean(axis=0)


def survival_quantiles(hazards, grid):
    """Pointwise survival-band curves at the Q_LO and Q_HI levels, the
    `quantile_lo05` and `quantile_hi95` curves of `evaluate`.

    Survival is strictly decreasing in the hazard, so the q-quantile of the
    record survival values equals the curve at the (1-q) order-statistic
    quantile of the hazards (method "higher", matching method "lower" in
    S-space).
    """
    hazards = np.asarray(hazards, dtype=float)
    if hazards.size == 0:
        raise DomainError("quantile curves need at least one instance")
    lo, hi = survival_matrix(
        np.quantile(hazards, [1.0 - Q_LO, 1.0 - Q_HI], method="higher"), grid)
    return lo, hi


def default_time_grid(times) -> np.ndarray:
    """100 evenly spaced curve times from 0 to the maximum observed time."""
    # curves start at t = 0, where every survival curve reads 1
    return np.linspace(0.0, float(np.max(times)), 100)


def evaluation_grid(times) -> np.ndarray:
    """100 positive Brier horizons spanning (0, max observed time]."""
    # Brier horizons leave out t = 0: adding it would move every ibs value
    return np.linspace(0.0, float(np.max(times)), 101)[1:]
