"""Survival metrics, adversarial evaluation sweeps, and the report tables.

The sweep measures the network's scores G.  Concordance is Harrell's C on
G over the test batch's comparable pairs (earlier time had an event), with
half credit for ties, so scores whose hazards exp(G) round alike still rank
apart; the negative log likelihood is the training term `losses._ll_term`.
The Brier score uses the inverse-probability-of-censoring weighting with
the censoring curve fitted on the training split, integrated by the
trapezoid rule.  A score that is not finite or whose hazard overflows
flags every metric of its cell instead of being dropped.
Radius-free work (the Brier plan, FGSM's direction) runs once per sweep.
The report indexes each attack's records once, into one cell table
(`RankTable.values`, per dataset, eps, metric and method), and reads its
ranks, percent changes and Friedman tests from that table.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass

import numpy as np

from .bounds import worst_case_log_hazard_batch
from .data import (Batch, FormatError, Pairs, atomic_open, comparable_pairs,
                   read_csv, write_csv, write_json)
from .losses import _fgsm_scores, _ll_term
from .network import Network
from .survival import (StepCurve, evaluation_grid, hazard, km_estimator,
                       survival_matrix)
from .training import TrainConfig

log = logging.getLogger(__name__)

DEFAULT_EPS_GRID = (0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
ATTACKS = ("fgsm", "worstcase")
# rank direction per metric: +1 ranks ascending (lower is better)
METRIC_DIRECTIONS = {"ci": -1, "ibs": 1, "negll": 1}


class UndefinedMetricError(ValueError):
    """The metric has no defined value on this sample."""


class AggregationError(ValueError):
    """Rank aggregation input is incomplete or inconsistent."""


def _concordance(risks: np.ndarray, pairs: Pairs) -> float:
    """Harrell's C: concordant fraction over the pair plan; undefined
    without a pair or with a NaN risk, which has no order."""
    if np.isnan(risks).any():
        raise UndefinedMetricError("a risk is NaN")
    rows, A = pairs
    n_pairs = int(A.sum())
    if n_pairs == 0:
        raise UndefinedMetricError("no comparable pairs")
    ri, rj = risks[rows, None], risks[None, :]
    concordant = A & (ri > rj)
    tied = A & (ri == rj)
    return float((concordant.sum() + 0.5 * tied.sum()) / n_pairs)


def concordance_index(risks, times, events) -> float:
    """Harrell's C over `comparable_pairs(times, events)`."""
    risks = np.asarray(risks, dtype=float)
    if not (len(risks) == len(times) == len(events)):
        raise ValueError("risks, times, events must have equal length")
    return _concordance(risks, comparable_pairs(times, events))


class _BrierPlan:
    """IPCW Brier work no survival matrix enters, once per (records, censoring
    curve, horizons); `excluded` counts terms with a zero censoring weight."""

    def __init__(self, times, events, censor_km: StepCurve, grid):
        self.grid = grid = np.asarray(grid, dtype=float)
        if grid.ndim != 1 or np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        times = np.asarray(times, dtype=float)
        if len(times) == 0:
            raise UndefinedMetricError("empty sample")
        self.g_at_t = censor_km.at_left(times)[:, None]
        self.g_at_tau = censor_km(grid)[None, :]
        t, e = times[:, None], np.asarray(events, dtype=int)[:, None]
        event_before = (e == 1) & (t <= grid[None, :])
        still_at_risk = t > grid[None, :]
        # censored at or before tau is in neither mask and contributes zero
        zero_t = event_before & (self.g_at_t <= 0.0)
        zero_tau = still_at_risk & (self.g_at_tau <= 0.0)
        self.event_terms = event_before & ~zero_t
        self.risk_terms = still_at_risk & ~zero_tau
        self.excluded = int(zero_t.sum() + zero_tau.sum())

    def scores(self, surv) -> np.ndarray:
        """Score per horizon of a (records x horizons) survival matrix: the
        sequential sum of its terms in record order (cumsum, not np.sum)."""
        surv = np.asarray(surv, dtype=float)
        if surv.shape != self.event_terms.shape:
            raise ValueError(f"survival matrix has shape {surv.shape}, "
                             f"expected {self.event_terms.shape}")
        # entries outside the masks may divide by a zero weight; dropped
        with np.errstate(all="ignore"):
            term = np.where(self.event_terms, surv ** 2 / self.g_at_t, 0.0)
            term += np.where(self.risk_terms,
                             (1.0 - surv) ** 2 / self.g_at_tau, 0.0)
        return np.cumsum(term, axis=0)[-1] / len(surv)

    def integrated(self, surv) -> float:
        """Trapezoidal integral of the scores, span-normalized."""
        g = self.grid
        if g.size < 2:
            raise ValueError("grid must contain at least two points")
        return float(np.trapezoid(self.scores(surv), g) / (g[-1] - g[0]))


def brier_ipcw(surv_at_tau, times, events, censor_km: StepCurve, tau: float):
    """IPCW Brier score at one horizon.

    Returns (score, n_excluded): records whose censoring weight hits an
    estimated zero are excluded from the sum but kept in the denominator.
    """
    plan = _BrierPlan(times, events, censor_km, np.array([float(tau)]))
    s = np.asarray(surv_at_tau, dtype=float)[:, None]
    return float(plan.scores(s)[0]), plan.excluded


def integrated_brier(surv_over_grid, times, events, censor_km: StepCurve,
                     grid):
    """Trapezoidal integral of the Brier score over the grid, span-normalized."""
    plan = _BrierPlan(times, events, censor_km, grid)
    return plan.integrated(surv_over_grid), plan.excluded


@dataclass
class MetricRecord:
    dataset: str
    method: str
    attack: str
    eps: float
    ci: float
    ibs: float
    negll: float
    ci_flag: bool = False
    ibs_flag: bool = False
    negll_flag: bool = False
    seed: int = 0

    CSV_FIELDS = ("dataset", "method", "attack", "eps", "ci", "ibs", "negll",
                  "ci_flag", "ibs_flag", "negll_flag", "seed")

    def csv_row(self):
        return [self.dataset, self.method, self.attack, repr(float(self.eps)),
                repr(float(self.ci)), repr(float(self.ibs)),
                repr(float(self.negll)), int(self.ci_flag),
                int(self.ibs_flag), int(self.negll_flag), self.seed]


def write_metrics_csv(path, records) -> None:
    write_csv(path, MetricRecord.CSV_FIELDS, [r.csv_row() for r in records])


def read_metrics_csv(path) -> list[MetricRecord]:
    """Inverse of write_metrics_csv, read through `read_csv`.  A missing or
    repeated column, a short or long row, a bad cell (an `eps` that is not
    finite included), a file that is not UTF-8 or one that cannot be read
    raises FormatError naming the file (and the line)."""
    fields, records = MetricRecord.CSV_FIELDS, []
    kinds = (str,) * 3 + (float,) * 4 + (lambda v: bool(int(v)),) * 3 + (int,)
    lines = read_csv(path)
    _, header = next(lines, (0, []))
    if len(set(header)) != len(header) or not set(fields) <= set(header):
        raise FormatError(f"{path}: header must name each of {list(fields)} "
                          "once")
    at = [header.index(f) for f in fields]
    for line_no, rec in lines:
        if not rec:
            continue
        try:
            if len(rec) != len(header):
                raise ValueError(f"expected {len(header)} fields, "
                                 f"got {len(rec)}")
            records.append(MetricRecord(
                *[kind(rec[i]) for kind, i in zip(kinds, at)]))
            if not math.isfinite(records[-1].eps):
                raise ValueError(f"eps {rec[at[3]]!r} is not finite")
        except ValueError as exc:
            raise FormatError(f"{path}: line {line_no}: {exc}") from None
    return records


def censoring_km(train: Batch) -> StepCurve:
    """Kaplan-Meier curve of the censoring distribution (events flipped)."""
    return km_estimator(train.t, 1 - train.e)


def _metrics_from_scores(G, test: Batch, brier: _BrierPlan) -> tuple:
    hazards = hazard(G)
    # a score that is not finite or whose hazard overflows flags every metric
    nonfinite = not (np.isfinite(G).all() and np.isfinite(hazards).all())
    try:
        ci = _concordance(G, test.pairs)
        ci_flag = nonfinite
    except UndefinedMetricError:
        ci, ci_flag = float("nan"), True
    ibs = brier.integrated(survival_matrix(hazards, brier.grid))
    ibs_flag = bool(not np.isfinite(ibs) or brier.excluded > 0 or nonfinite)
    negll = float(_ll_term(G, test.t, test.e, hazards * test.t).sum())
    negll_flag = bool(not np.isfinite(negll) or nonfinite)
    return ci, ibs, negll, ci_flag, ibs_flag, negll_flag


def _sweep_scores(net: Network, test: Batch, attack: str, eps_grid,
                  config: TrainConfig) -> list[np.ndarray]:
    """Scores G under the attack at every radius of the grid."""
    if attack == "fgsm":
        return _fgsm_scores(net, test, eps_grid, config.w, config.sigma,
                            config.fgsm_sign_mode)
    if attack == "worstcase":
        return [worst_case_log_hazard_batch(net, test.X, e) for e in eps_grid]
    raise ValueError(f"unknown attack {attack!r}; expected one of {ATTACKS}")


def attack_scores(net: Network, test: Batch, attack: str, eps: float,
                  config: TrainConfig) -> np.ndarray:
    """Per-record scores G under the chosen evaluation attack."""
    return _sweep_scores(net, test, attack, [eps], config)[0]


def attack_hazards(net: Network, test: Batch, attack: str, eps: float,
                   config: TrainConfig) -> np.ndarray:
    """Per-record hazard rates exp(G) under the chosen evaluation attack."""
    return hazard(attack_scores(net, test, attack, eps, config))


def attack_sweep(net: Network, test: Batch, attack: str, eps_grid,
                 config: TrainConfig, censor_km: StepCurve,
                 dataset_name: str = "", method_name: str = "",
                 seed: int = 0, on_scores=None) -> list[MetricRecord]:
    """Concordance / integrated Brier / negative log likelihood per radius.

    on_scores, if given, is called as on_scores(eps, G) for every radius,
    so callers can reuse the attacked scores without recomputing them.
    Overflow in the scoring, the metrics and the hook raises no warning;
    it reaches the flags.
    """
    eps_grid = [float(eps) for eps in eps_grid]
    with np.errstate(over="ignore", invalid="ignore"):
        brier = _BrierPlan(test.t, test.e, censor_km, evaluation_grid(test.t))
        scores = _sweep_scores(net, test, attack, eps_grid, config)
        for eps, G in zip(eps_grid, scores):
            if on_scores is not None:
                on_scores(eps, G)
        return [MetricRecord(dataset_name, method_name, attack, eps,
                             *_metrics_from_scores(G, test, brier), seed)
                for eps, G in zip(eps_grid, scores)]


@dataclass
class RankTable:
    """The one cell table of an attack's records: `values[d, e, k, m]` is
    metric `metrics[k]` of method `methods[m]` on dataset `datasets[d]` at
    radius `eps_values[e]`, each axis sorted and every cell present;
    `mean_ranks[(eps, metric)][method]` is the method's rank averaged
    over the datasets (rank 1 is best)."""

    datasets: list[str]
    eps_values: list[float]
    metrics: list[str]
    methods: list[str]
    values: np.ndarray
    mean_ranks: dict


def _oriented(values, metrics) -> np.ndarray:
    """`values[..., k, m]` signed so that smaller is better for metric
    `metrics[k]`; undefined (NaN) cells become +inf, so they and
    overflowed cells tie at the worst rank."""
    signs = np.array([METRIC_DIRECTIONS[k] for k in metrics])[:, None]
    oriented = signs * np.asarray(values, dtype=float)
    return np.where(np.isnan(oriented), np.inf, oriented)


def _ranks(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Average 1-based ranks along the last axis (ties share their mean)
    and each entry's tie count, itself included, from one comparison of
    every pair, in exact half-integers.  `v` holds no NaN (no order)."""
    v, w = v[..., :, None], v[..., None, :]
    below, ties = (v > w).sum(-1), (v == w).sum(-1)
    return below + (ties + 1) / 2, ties


def average_ranks(records: list[MetricRecord],
                  metrics=("ci", "ibs", "negll")) -> RankTable:
    """Index one attack's records into its RankTable, rank the methods
    within each (dataset, eps, metric) cell and average the ranks across
    datasets.  No records, a repeated (dataset, eps, method) cell, or a
    (dataset, eps) pair that lacks a method raise AggregationError naming
    the first such cell."""
    if not records:
        raise AggregationError("no records to rank")
    cells = {}
    for r in records:
        key = (r.dataset, r.eps, r.method)
        if key in cells:
            raise AggregationError(f"duplicate cell {key}")
        cells[key] = r
    datasets, eps_values, methods = (sorted({getattr(r, a) for r in records})
                                     for a in ("dataset", "eps", "method"))
    values = np.empty((len(datasets), len(eps_values), len(metrics),
                       len(methods)))
    for e, eps in enumerate(eps_values):
        for d, ds in enumerate(datasets):
            for m, method in enumerate(methods):
                if (rec := cells.get((ds, eps, method))) is None:
                    raise AggregationError(f"missing cell dataset={ds} "
                                           f"eps={eps} method={method}")
                values[d, e, :, m] = [getattr(rec, k) for k in metrics]
    mean = _ranks(_oriented(values, metrics))[0].sum(axis=0) / len(datasets)
    return RankTable(datasets, eps_values, list(metrics), methods, values, {
        (eps, k): dict(zip(methods, mean[e, i].tolist()))
        for e, eps in enumerate(eps_values) for i, k in enumerate(metrics)})


def chi2_sf(x: float, df: int) -> float:
    """Upper tail P(X > x) of a chi-square law with integer df, in closed
    form (Abramowitz & Stegun 26.4.4 and 26.4.5): a finite Poisson sum for
    even df, the normal tail plus a finite series for odd df."""
    if df < 1:
        raise ValueError(f"df must be a positive integer, got {df}")
    if x <= 0.0:
        return 1.0
    half = 0.5 * x
    if df % 2 == 0:
        term = total = 1.0
        for k in range(1, df // 2):
            term *= half / k
            total += term
        return math.exp(-half) * total
    term, total = math.sqrt(x), 0.0
    for r in range(1, (df + 1) // 2):
        total += term
        term *= x / (2 * r + 1)
    return (math.erfc(math.sqrt(half))
            + math.sqrt(2.0 / math.pi) * math.exp(-half) * total)


def friedman_test(matrix) -> tuple[float, float]:
    """Friedman chi-square with tie correction, and its p-value, over a
    blocks x treatments matrix of values (smaller rank = smaller value);
    fully tied blocks give (0.0, 1.0).  Fewer than 2 blocks or 2
    treatments, or a NaN value, which has no rank, raise ValueError."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[1] < 2 or m.shape[0] < 2:
        raise ValueError("need at least 2 blocks and 2 treatments")
    if np.isnan(m).any():
        raise ValueError("a value is NaN, which has no rank")
    n, k = m.shape
    ranks, ties = _ranks(m)
    rank_sums = ranks.sum(axis=0)
    stat = 12.0 / (n * k * (k + 1)) * float((rank_sums ** 2).sum()) \
        - 3.0 * n * (k + 1)
    # each entry of a tie of t adds t^2 - 1, so the tie adds t^3 - t
    correction = 1.0 - float((ties ** 2 - 1).sum()) / (n * k * (k * k - 1))
    if correction <= 0.0:
        return 0.0, 1.0  # every block fully tied
    stat /= correction
    return stat, chi2_sf(stat, k - 1)


def report_tables(records: list[MetricRecord]) -> dict:
    """The tables of `certsurv report`, as {file name: (header, rows)}, each
    read from one attack's RankTable: mean ranks per (eps, metric), mean
    percent change from `baseline` over the sorted datasets, and a Friedman
    test per metric over (dataset, eps) blocks.  Every (dataset, attack)
    pair must hold every method (AggregationError)."""
    by_attack: dict[str, list[MetricRecord]] = {}
    for r in records:
        by_attack.setdefault(r.attack, []).append(r)
    methods = sorted({r.method for r in records})
    rank_rows, pc_rows, fr_rows = [], [], []
    for attack, recs in sorted(by_attack.items()):
        table = average_ranks(recs)
        if table.methods != methods:
            lacks = sorted(set(methods) - set(table.methods))
            raise AggregationError(f"attack {attack} lacks methods {lacks}")
        values = table.values
        for (eps, metric), cell in table.mean_ranks.items():
            rank_rows.append([attack, repr(float(eps)), metric,
                              *[repr(float(cell[m])) for m in methods]])
        if "baseline" in methods:
            # skip and count a change that is not finite: a zero or
            # non-finite baseline, a non-finite value, or an overflow; a
            # mean that is not finite counts every cell
            base = values[..., [methods.index("baseline")]]
            with np.errstate(all="ignore"):  # a mean's sum may overflow
                change = 100.0 * (values - base) / base
                kept = np.isfinite(change)
                for m, method in enumerate(methods):
                    if method == "baseline":
                        continue
                    for e, eps in enumerate(table.eps_values):
                        for k, metric in enumerate(table.metrics):
                            c = change[:, e, k, m][kept[:, e, k, m]]
                            mean = float(np.mean(c)) if c.size else math.nan
                            used = c.size if math.isfinite(mean) else 0
                            pc_rows.append([attack, method, repr(float(eps)),
                                            metric, repr(mean),
                                            len(values) - used])
        oriented = _oriented(values, table.metrics)
        for k, metric in enumerate(table.metrics):
            # a block with an undefined (NaN) value is left out
            block_nan = np.isnan(values[:, :, k]).any(axis=-1).reshape(-1)
            matrix = oriented[:, :, k].reshape(-1, len(methods))[~block_nan]
            # the test is undefined with one treatment or one block
            defined = len(methods) > 1 and len(matrix) > 1
            stat, p = map(repr, friedman_test(matrix)) if defined else ("", "")
            fr_rows.append([attack, metric, stat, p, len(matrix),
                            len(methods)])
    return {
        "ranks.csv": (["attack", "eps", "metric", *methods], rank_rows),
        "percent_change.csv": (["attack", "method", "eps", "metric",
                                "pct_change_vs_baseline", "flagged_cells"],
                               pc_rows),
        "friedman.csv": (["attack", "metric", "statistic", "p_value",
                          "n_blocks", "n_methods"], fr_rows),
    }


def emit_report(records, out_dir, curves: tuple | None = None,
                summary: dict | None = None):
    """Write metrics.csv, summary.json and, for curves = (grid, {name: values}),
    curves.csv (`curve,time,survival` rows, np.savetxt's %.18e digits)."""
    if not records:
        raise ValueError("nothing to report")
    os.makedirs(out_dir, exist_ok=True)
    paths = {"metrics": os.path.join(out_dir, "metrics.csv")}
    write_metrics_csv(paths["metrics"], records)
    if curves:
        grid, named = curves
        paths["curves"] = os.path.join(out_dir, "curves.csv")
        times = [",%.18e," % x for x in np.asarray(grid, dtype=float).tolist()]
        with atomic_open(paths["curves"]) as fh:
            fh.write("curve,time,survival\n")
            for name, values in named.items():
                values = np.asarray(values, dtype=float).tolist()
                fh.write("".join([name + x + "%.18e\n" % y for x, y
                                  in zip(times, values, strict=True)]))
    if summary is not None:
        paths["summary"] = os.path.join(out_dir, "summary.json")
        write_json(paths["summary"], summary)
    return paths
