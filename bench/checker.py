"""Output checks behind the benchmark's ``failed`` count.

Each check returns a list of problems (empty when the output is right).  An
operation whose output has any problem counts as failed.

* Trained models: finite weights; sampled points in the radius-0.5 ball of
  every test row stay inside the certified [lb, ub]; clean concordance and
  certified worst-case integrated Brier score at radius 0.5 match the
  committed reference within QUALITY_ATOL (or clear fixed floors for seeds
  without a reference).
* Evaluation cells: each row's worst-case hazard is at least its FGSM
  hazard; ``metrics.csv`` matches the committed reference within
  EVAL_RTOL / EVAL_ATOL.
* Report: ``ranks.csv``, ``percent_change.csv`` and ``friedman.csv`` match
  the committed reference within the same tolerance.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

CHECK_EPS = 0.5
BALL_SAMPLES = 16
BOUND_TOL = 1e-9
QUALITY_ATOL = 0.05
CI_FLOOR = 0.5
EVAL_RTOL = 1e-9
EVAL_ATOL = 1e-12
REPORT_FILES = ("ranks.csv", "percent_change.csv", "friedman.csv")


def model_quality(net, split, config) -> dict:
    """Clean concordance and certified worst-case IBS at CHECK_EPS."""
    from certsurv import metrics, network
    test = split.test
    G, _ = network.forward_batch(net, test.X)
    ckm = metrics.censoring_km(split.train)
    wc = metrics.attack_sweep(net, test, "worstcase", [CHECK_EPS], config, ckm)
    return {"clean_ci": metrics.concordance_index(G, test.t, test.e),
            "wc_ibs": wc[0].ibs}


def check_model(net, split, rng) -> list[str]:
    """Finite weights, and sampled ball points inside the certified bounds."""
    from certsurv import bounds, network
    params = [*net.weights, *net.biases]
    if not all(np.all(np.isfinite(p)) for p in params):
        return ["non-finite weights"]
    X = split.test.X
    lb, ub = bounds.crown_ibp_batch(net, X, CHECK_EPS)
    tol = BOUND_TOL * (1.0 + np.maximum(np.abs(lb), np.abs(ub)))
    worst = 0
    for k in range(BALL_SAMPLES):
        if k % 2:   # a random corner of the ball
            delta = CHECK_EPS * rng.choice([-1.0, 1.0], size=X.shape)
        else:
            delta = rng.uniform(-CHECK_EPS, CHECK_EPS, size=X.shape)
        G, _ = network.forward_batch(net, X + delta)
        worst += int(np.sum((G > ub + tol) | (G < lb - tol)))
    return [f"{worst} sampled ball points outside [lb, ub]"] if worst else []


def check_quality(quality: dict, reference: dict) -> list[str]:
    """A model's quality matches its committed reference."""
    return [f"{key} {quality[key]} vs reference {reference[key]}"
            for key in ("clean_ci", "wc_ibs")
            if not abs(quality[key] - reference[key]) <= QUALITY_ATOL]


def check_quality_floor(qualities: list[dict]) -> list[str]:
    """For seeds without a reference: the models of a cycle rank better
    than chance on average (one small test split alone can fall below
    0.5), and every worst-case IBS is a finite nonnegative score."""
    problems = []
    mean_ci = sum(q["clean_ci"] for q in qualities) / len(qualities)
    if not mean_ci > CI_FLOOR:
        problems.append(f"mean clean_ci {mean_ci} <= {CI_FLOOR}")
    if not all(0.0 <= q["wc_ibs"] < math.inf for q in qualities):
        problems.append("a worst-case IBS is negative or not finite")
    return problems


def check_dominance(net, split, config, eps_grid) -> list[str]:
    """Every row's worst-case hazard is at least its FGSM hazard."""
    from certsurv import metrics
    problems = []
    for eps in eps_grid:
        fgsm = metrics.attack_hazards(net, split.test, "fgsm", eps, config)
        wc = metrics.attack_hazards(net, split.test, "worstcase", eps, config)
        bad = ~(wc >= fgsm * (1.0 - BOUND_TOL))
        if bad.any():
            problems.append(f"eps {eps}: {int(bad.sum())} rows with "
                            "worst-case hazard below the FGSM hazard")
    return problems


def _same(a: str, b: str) -> bool:
    if a == b:
        return True
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return math.isclose(x, y, rel_tol=EVAL_RTOL, abs_tol=EVAL_ATOL)


def read_rows(path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [row for row in csv.reader(fh)]


def compare_csv(path, expected: list[list[str]]) -> list[str]:
    path = Path(path)
    if not path.is_file():
        return [f"{path.name} missing"]
    actual = read_rows(path)
    if len(actual) != len(expected):
        return [f"{path.name}: {len(actual)} rows, expected {len(expected)}"]
    bad = sum(1 for ra, re_ in zip(actual, expected)
              if len(ra) != len(re_)
              or not all(_same(a, b) for a, b in zip(ra, re_)))
    return [f"{path.name}: {bad} rows differ from the reference"] if bad else []


def check_report_output(out_dir, expected: dict) -> list[str]:
    problems = []
    for fname in REPORT_FILES:
        problems += compare_csv(Path(out_dir) / fname, expected[fname])
    return problems
