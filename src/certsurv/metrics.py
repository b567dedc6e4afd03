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
"""

from __future__ import annotations

import csv
import logging
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .bounds import worst_case_log_hazard_batch
from .data import (Batch, FormatError, Pairs, atomic_open, comparable_pairs,
                   write_csv, write_json)
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
    """Inverse of write_metrics_csv.  A missing or repeated column, a short
    or long row, a bad cell, a file that is not UTF-8 or one that cannot be
    read raises FormatError naming the file (and the line)."""
    fields, records = MetricRecord.CSV_FIELDS, []
    kinds = (str,) * 3 + (float,) * 4 + (lambda v: bool(int(v)),) * 3 + (int,)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            if (len(set(header)) != len(header)
                    or not set(fields) <= set(header)):
                raise FormatError(f"{path}: header must name each of "
                                  f"{list(fields)} once")
            at = [header.index(f) for f in fields]
            for rec in filter(None, reader):
                try:
                    if len(rec) != len(header):
                        raise ValueError(f"expected {len(header)} fields, "
                                         f"got {len(rec)}")
                    records.append(MetricRecord(
                        *[kind(rec[i]) for kind, i in zip(kinds, at)]))
                except ValueError as exc:
                    raise FormatError(f"{path}: line {reader.line_num}: "
                                      f"{exc}") from None
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 ({exc.reason})") from None
    except OSError as exc:
        raise FormatError(f"{path}: cannot read ({exc.strerror})") from None
    except csv.Error as exc:
        raise FormatError(f"{path}: line {reader.line_num}: {exc}") from None
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
    negll = float(_ll_term(G, test.t, test.e).sum())
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
    """Mean rank of each method per (eps, metric); rank 1 is best."""

    methods: list[str]
    eps_values: list[float]
    metrics: list[str]
    mean_ranks: dict = field(default_factory=dict)  # (eps, metric) -> {method: rank}


def _oriented(metric: str, values) -> np.ndarray:
    """Metric values signed so that smaller is better; undefined (NaN)
    cells become +inf, so they and overflowed cells tie at the worst rank."""
    oriented = METRIC_DIRECTIONS[metric] * np.asarray(values, dtype=float)
    return np.where(np.isnan(oriented), np.inf, oriented)


def _rank_with_ties(values: np.ndarray) -> np.ndarray:
    """Average ranks, 1-based, ties share the mean rank."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def average_ranks(records: list[MetricRecord],
                  metrics=("ci", "ibs", "negll")) -> RankTable:
    """Rank methods within each (dataset, eps, metric) cell, then average
    the ranks across datasets."""
    if not records:
        raise AggregationError("no records to rank")
    methods = sorted({r.method for r in records})
    datasets = sorted({r.dataset for r in records})
    eps_values = sorted({r.eps for r in records})
    by_key = {}
    for r in records:
        key = (r.dataset, r.eps, r.method)
        if key in by_key:
            raise AggregationError(f"duplicate cell {key}")
        by_key[key] = r
    table = RankTable(methods, eps_values, list(metrics))
    for eps in eps_values:
        for metric in metrics:
            acc = {m: 0.0 for m in methods}
            for ds in datasets:
                vals = []
                for m in methods:
                    rec = by_key.get((ds, eps, m))
                    if rec is None:
                        raise AggregationError(
                            f"missing cell dataset={ds} eps={eps} method={m}"
                        )
                    vals.append(getattr(rec, metric))
                ranks = _rank_with_ties(_oriented(metric, vals))
                for m, rk in zip(methods, ranks):
                    acc[m] += rk
            table.mean_ranks[(eps, metric)] = {
                m: float(acc[m]) / len(datasets) for m in methods
            }
    return table


def relative_percent_change(baseline_records, method_records,
                            metrics=("ci", "ibs", "negll")):
    """Mean percent change from the baseline, and the number of flagged
    cells, each per (eps, metric).  A cell whose baseline is zero or whose
    baseline or method value is not finite is skipped and flagged.
    """
    base = {(r.dataset, r.eps): r for r in baseline_records}
    out, flagged = {}, {}
    for eps in sorted({r.eps for r in method_records}):
        cells = [r for r in method_records if r.eps == eps]
        for metric in metrics:
            changes = []
            for r in cells:
                b = base.get((r.dataset, r.eps))
                if b is None:
                    raise AggregationError(
                        f"no baseline cell for dataset={r.dataset} eps={r.eps}"
                    )
                bv, v = getattr(b, metric), getattr(r, metric)
                if bv != 0.0 and math.isfinite(bv) and math.isfinite(v):
                    changes.append(100.0 * (v - bv) / bv)
            out[(eps, metric)] = float(np.mean(changes)) if changes else float("nan")
            flagged[(eps, metric)] = len(cells) - len(changes)
    return out, flagged


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
    """Friedman chi-square with tie correction over a blocks x treatments
    matrix of values (smaller rank = smaller value)."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[1] < 2 or m.shape[0] < 2:
        raise ValueError("need at least 2 blocks and 2 treatments")
    n, k = m.shape
    ranks = np.vstack([_rank_with_ties(row) for row in m])
    rank_sums = ranks.sum(axis=0)
    stat = 12.0 / (n * k * (k + 1)) * float((rank_sums ** 2).sum()) \
        - 3.0 * n * (k + 1)
    tie_term = 0.0
    for row in m:
        _, counts = np.unique(row, return_counts=True)
        tie_term += float((counts ** 3 - counts).sum())
    correction = 1.0 - tie_term / (n * k * (k * k - 1))
    if correction <= 0.0:
        return 0.0, 1.0  # every block fully tied
    stat /= correction
    return stat, chi2_sf(stat, k - 1)


def report_tables(records: list[MetricRecord]) -> dict:
    """The tables of `certsurv report`, as {file name: (header, rows)}:
    per attack, mean ranks per (eps, metric), mean percent change from
    `baseline`, and a Friedman test per metric over (dataset, eps) blocks.
    Every (dataset, attack) pair must hold every method (AggregationError)."""
    by_attack: dict[str, list[MetricRecord]] = {}
    present: dict[tuple, set] = {}
    for r in records:
        by_attack.setdefault(r.attack, []).append(r)
        present.setdefault((r.dataset, r.attack), set()).add(r.method)
    methods = sorted(set().union(*present.values()))
    for key, have in sorted(present.items()):
        if missing := set(methods) - have:
            raise AggregationError(
                f"dataset/attack {key} lacks methods {sorted(missing)}")
    rank_rows, pc_rows, fr_rows = [], [], []
    for attack, recs in sorted(by_attack.items()):
        table = average_ranks(recs)
        for eps in table.eps_values:
            for metric in table.metrics:
                cell = table.mean_ranks[(eps, metric)]
                rank_rows.append([attack, repr(float(eps)), metric,
                                  *[repr(float(cell[m])) for m in methods]])
        if "baseline" in methods:
            base = [r for r in recs if r.method == "baseline"]
            for method in methods:
                if method == "baseline":
                    continue
                changes, flagged = relative_percent_change(
                    base, [r for r in recs if r.method == method])
                for (eps, metric), val in sorted(changes.items()):
                    pc_rows.append([attack, method, repr(float(eps)), metric,
                                    repr(float(val)), flagged[(eps, metric)]])
        # average_ranks has checked that every (dataset, eps, method) exists
        cell = {(r.dataset, r.eps, r.method): r for r in recs}
        blocks = sorted({(r.dataset, r.eps) for r in recs})
        for metric in METRIC_DIRECTIONS:
            # a block with an undefined (NaN) value is left out
            matrix = [row for row in (
                [getattr(cell[(ds, eps, m)], metric) for m in methods]
                for ds, eps in blocks) if not np.isnan(row).any()]
            if len(methods) < 2 or len(matrix) < 2:
                # test undefined with one treatment or one block
                fr_rows.append([attack, metric, "", "", len(matrix),
                                len(methods)])
                continue
            stat, p = friedman_test(_oriented(metric, matrix))
            fr_rows.append([attack, metric, repr(stat), repr(p), len(matrix),
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
