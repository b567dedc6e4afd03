"""Survival metrics, adversarial evaluation sweeps, and the report tables.

Concordance is Harrell's C over `data.comparable_pairs` (earlier time had
an event), with half credit for risk ties.  The Brier score uses the
inverse-probability-of-censoring weighting with the censoring curve fitted
on the training split, integrated by the trapezoid rule.  Hazards that
overflow float64 are carried as +inf sentinels and surfaced as flags on the
metric records instead of being dropped.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .bounds import worst_case_log_hazard_batch
from .data import (Batch, FormatError, atomic_open, comparable_pairs,
                   write_csv)
from .losses import fgsm_perturb
from .network import Network, forward_batch
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


def concordance_index(risks, times, events) -> float:
    """Harrell's C: concordant fraction over `comparable_pairs`; undefined
    without a pair or with a NaN risk, which has no order."""
    risks = np.asarray(risks, dtype=float)
    if not (len(risks) == len(times) == len(events)):
        raise ValueError("risks, times, events must have equal length")
    if np.isnan(risks).any():
        raise UndefinedMetricError("a risk is NaN")
    rows, A = comparable_pairs(times, events)
    n_pairs = int(A.sum())
    if n_pairs == 0:
        raise UndefinedMetricError("no comparable pairs")
    ri, rj = risks[rows, None], risks[None, :]
    concordant = A & (ri > rj)
    tied = A & (ri == rj)
    return float((concordant.sum() + 0.5 * tied.sum()) / n_pairs)


def _brier_scores(surv, times, events, censor_km: StepCurve, grid):
    """IPCW Brier score at every horizon of the grid, in one array pass.

    surv is (records x horizons).  Returns (scores per horizon, excluded
    count over all horizons): a record whose censoring weight hits an
    estimated zero is excluded from the sum but kept in the denominator.
    Terms are added over records in index order (cumsum, not the pairwise
    np.sum), so each score is the sequential sum of its terms.
    """
    surv = np.asarray(surv, dtype=float)
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=int)
    n = len(times)
    if n == 0:
        raise UndefinedMetricError("empty sample")
    if surv.shape != (n, len(grid)):
        raise ValueError(f"survival matrix has shape {surv.shape}, "
                         f"expected {(n, len(grid))}")
    g_at_t = censor_km.at_left(times)[:, None]
    g_at_tau = censor_km(grid)[None, :]
    t = times[:, None]
    event_before = (events == 1)[:, None] & (t <= grid[None, :])
    still_at_risk = t > grid[None, :]
    # censored at or before tau is in neither mask and contributes zero
    zero_t = event_before & (g_at_t <= 0.0)
    zero_tau = still_at_risk & (g_at_tau <= 0.0)
    # entries outside the masks may divide by a zero weight; they are dropped
    with np.errstate(all="ignore"):
        term = np.where(event_before & ~zero_t, surv ** 2 / g_at_t, 0.0)
        term += np.where(still_at_risk & ~zero_tau,
                         (1.0 - surv) ** 2 / g_at_tau, 0.0)
    scores = np.cumsum(term, axis=0)[-1] / n
    return scores, int(zero_t.sum() + zero_tau.sum())


def brier_ipcw(surv_at_tau, times, events, censor_km: StepCurve, tau: float):
    """IPCW Brier score at one horizon.

    Returns (score, n_excluded): records whose censoring weight hits an
    estimated zero are excluded from the sum but kept in the denominator.
    """
    s = np.asarray(surv_at_tau, dtype=float)
    scores, excluded = _brier_scores(s[:, None], times, events, censor_km,
                                     np.array([float(tau)]))
    return float(scores[0]), excluded


def integrated_brier(surv_over_grid, times, events, censor_km: StepCurve,
                     grid):
    """Trapezoidal integral of the Brier score over the grid, span-normalized."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("grid must contain at least two points")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    scores, excluded = _brier_scores(surv_over_grid, times, events, censor_km,
                                     grid)
    value = float(np.trapezoid(scores, grid) / (grid[-1] - grid[0]))
    return value, excluded


def negll_metric(hazards, times, events) -> float:
    """Negative right-censored log likelihood from explicit hazard rates.

    Infinite hazards propagate to an infinite value (flag upstream) rather
    than raising.
    """
    lam = np.asarray(hazards, dtype=float)
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=int)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ll = np.where(events == 1, np.log(lam) - lam * times, -lam * times)
    total = -float(np.sum(ll))
    return total


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
    or long row, a bad cell or a file that is not UTF-8 raises FormatError
    naming the file (and the line)."""
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
    except csv.Error as exc:
        raise FormatError(f"{path}: line {reader.line_num}: {exc}") from None
    return records


def censoring_km(train: Batch) -> StepCurve:
    """Kaplan-Meier curve of the censoring distribution (events flipped)."""
    return km_estimator(train.t, 1 - train.e)


def _metrics_from_hazards(hazards, test: Batch, censor_km: StepCurve,
                          grid) -> tuple:
    hazards = np.asarray(hazards, dtype=float)
    # overflowed (+inf) or undefined (NaN) hazards flag every metric
    nonfinite = not bool(np.isfinite(hazards).all())
    surv = survival_matrix(hazards, grid)
    try:
        ci = concordance_index(hazards, test.t, test.e)
        ci_flag = nonfinite
    except UndefinedMetricError:
        ci, ci_flag = float("nan"), True
    ibs, excluded = integrated_brier(surv, test.t, test.e, censor_km, grid)
    ibs_flag = bool(not np.isfinite(ibs) or excluded > 0 or nonfinite)
    negll = negll_metric(hazards, test.t, test.e)
    negll_flag = bool(not np.isfinite(negll) or nonfinite)
    return ci, ibs, negll, ci_flag, ibs_flag, negll_flag


def attack_hazards(net: Network, test: Batch, attack: str, eps: float,
                   config: TrainConfig) -> np.ndarray:
    """Per-record hazard rates under the chosen evaluation attack."""
    if attack == "fgsm":
        perturbed = fgsm_perturb(net, test, eps, config.w, config.sigma,
                                 config.fgsm_sign_mode)
        G, _ = forward_batch(net, perturbed.X)
    elif attack == "worstcase":
        G = worst_case_log_hazard_batch(net, test.X, eps)
    else:
        raise ValueError(f"unknown attack {attack!r}; expected one of {ATTACKS}")
    return hazard(G)


def attack_sweep(net: Network, test: Batch, attack: str, eps_grid,
                 config: TrainConfig, censor_km: StepCurve,
                 dataset_name: str = "", method_name: str = "",
                 seed: int = 0, on_hazards=None) -> list[MetricRecord]:
    """Concordance / integrated Brier / negative log likelihood per radius.

    on_hazards, if given, is called as on_hazards(eps, hazards) for every
    radius, so callers can reuse the attacked hazards without recomputing
    them.
    """
    grid = evaluation_grid(test.t)
    records = []
    for eps in eps_grid:
        hazards = attack_hazards(net, test, attack, float(eps), config)
        if on_hazards is not None:
            on_hazards(float(eps), hazards)
        ci, ibs, negll, cf, bf, nf = _metrics_from_hazards(
            hazards, test, censor_km, grid
        )
        records.append(MetricRecord(dataset_name, method_name, attack,
                                    float(eps), ci, ibs, negll, cf, bf, nf,
                                    seed))
    return records


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


def emit_report(records, out_dir, curves: dict | None = None,
                summary: dict | None = None):
    """Write metrics.csv, the curve CSVs, and summary.json, each atomically."""
    if not records:
        raise ValueError("nothing to report")
    os.makedirs(out_dir, exist_ok=True)
    paths = {"metrics": os.path.join(out_dir, "metrics.csv")}
    write_metrics_csv(paths["metrics"], records)
    if curves:
        cdir = os.path.join(out_dir, "curves")
        os.makedirs(cdir, exist_ok=True)
        for name, (grid, values) in curves.items():
            cpath = os.path.join(cdir, f"{name}.csv")
            rows = np.column_stack([grid, values]).tolist()
            with atomic_open(cpath) as fh:
                # the bytes np.savetxt writes, formatted in one join
                fh.write("time,survival\n" + "".join(
                    "%.18e,%.18e\n" % (x, y) for x, y in rows))
            paths[f"curve:{name}"] = cpath
    if summary is not None:
        paths["summary"] = os.path.join(out_dir, "summary.json")
        with atomic_open(paths["summary"]) as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return paths

