import io
import json
import os

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from certsurv import data as data_module
from certsurv.data import Batch
from certsurv.metrics import (AggregationError, DEFAULT_EPS_GRID,
                              METRIC_DIRECTIONS, MetricRecord,
                              UndefinedMetricError, _metrics_from_hazards,
                              attack_sweep, average_ranks, brier_ipcw,
                              censoring_km, chi2_sf, concordance_index,
                              emit_report, friedman_test, integrated_brier,
                              negll_metric, read_metrics_csv,
                              relative_percent_change, report_tables,
                              write_metrics_csv)
from certsurv.bounds import worst_case_log_hazard_batch
from certsurv.network import forward_batch
from certsurv.survival import StepCurve, km_estimator, population_curve
from certsurv.training import TrainConfig

from conftest import random_net


def _worst_case_curve(net, X, eps, grid):
    """Population curve under per-record certified-maximum hazards."""
    return population_curve(
        np.exp(worst_case_log_hazard_batch(net, X, eps)), grid)


NO_CENSOR = StepCurve(np.array([np.inf]), np.array([1.0]))
# any float64, with the values whose text is easiest to get wrong
CURVE_FLOATS = st.one_of(st.floats(width=64), st.sampled_from(
    [-0.0, 5e-324, -5e-324, math.nan, math.inf, -math.inf, 1e308]))


class TestConcordance:
    def test_perfect_anti_ordering(self):
        assert concordance_index([3, 2, 1], [1, 2, 3], [1, 1, 1]) == 1.0

    def test_all_ties_give_half(self):
        assert concordance_index([2, 2, 2], [1, 2, 3], [1, 1, 1]) == 0.5

    def test_two_discordant_pairs(self):
        assert concordance_index([1, 3, 2], [1, 2, 3], [1, 0, 1]) == 0.0

    def test_no_comparable_pairs(self):
        with pytest.raises(UndefinedMetricError):
            concordance_index([1, 2], [1, 2], [0, 0])

    def test_empty_sample_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            concordance_index([], [], [])

    def test_nan_risk_is_undefined(self):
        # a NaN has no order: it is neither concordant, tied nor discordant
        with pytest.raises(UndefinedMetricError, match="NaN"):
            concordance_index([3.0, np.nan, 1.0], [1, 2, 3], [1, 1, 1])

    def test_negation_flips(self):
        rng = np.random.default_rng(0)
        risks = rng.normal(size=30)
        times = rng.uniform(0.1, 5.0, size=30)
        events = (rng.random(30) < 0.7).astype(int)
        ci = concordance_index(risks, times, events)
        assert concordance_index(-risks, times, events) == pytest.approx(1 - ci)

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(5, 200))
            risks = rng.choice([0.1, 0.5, 0.9, 1.5], size=n)  # force ties
            times = rng.uniform(0.1, 10.0, size=n)
            events = (rng.random(n) < 0.6).astype(int)
            comparable = 0
            score = 0.0
            for i in range(n):
                for j in range(n):
                    if times[i] < times[j] and events[i] == 1:
                        comparable += 1
                        if risks[i] > risks[j]:
                            score += 1.0
                        elif risks[i] == risks[j]:
                            score += 0.5
            if comparable == 0:
                continue
            assert concordance_index(risks, times, events) == score / comparable


def _full_matrix_concordance(risks, times, events):
    """Harrell's C counted over the whole (n x n) comparable-pair matrix."""
    risks = np.asarray(risks, dtype=float)
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=int)
    comparable = (times[:, None] < times[None, :]) & (events[:, None] == 1)
    n_pairs = int(comparable.sum())
    if n_pairs == 0:
        raise UndefinedMetricError("no comparable pairs")
    ri, rj = risks[:, None], risks[None, :]
    concordant = comparable & (ri > rj)
    tied = comparable & (ri == rj)
    return float((concordant.sum() + 0.5 * tied.sum()) / n_pairs)


@st.composite
def concordance_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.sampled_from([0, 1]) | st.integers(0, 200))
    risks = (rng.choice([-1.0, 0.0, 0.5, 2.0], size=n) if draw(st.booleans())
             else rng.normal(size=n))
    if draw(st.booleans()):
        risks[rng.random(n) < 0.1] = np.inf
        risks[rng.random(n) < 0.1] = -np.inf
    times = (rng.choice([0.5, 1.0, 2.0], size=n) if draw(st.booleans())
             else rng.uniform(0.1, 5.0, size=n))
    if draw(st.booleans()):
        times[rng.random(n) < 0.2] = np.nan
    events = draw(st.sampled_from(["mixed", "all", "none", "one"]))
    e = {"mixed": (rng.random(n) < 0.5).astype(int),
         "all": np.ones(n, dtype=int), "none": np.zeros(n, dtype=int),
         "one": (np.arange(n) == rng.integers(max(n, 1))).astype(int)}[events]
    return risks, times, e


@settings(max_examples=200, deadline=None)
@given(concordance_cases())
def test_concordance_equals_full_matrix_count(case):
    # The plan's rows hold every comparable pair, so the counts and the
    # ratio are the full matrix's, bit for bit, undefined where it is.
    try:
        want = _full_matrix_concordance(*case)
    except UndefinedMetricError:
        with pytest.raises(UndefinedMetricError):
            concordance_index(*case)
        return
    got = concordance_index(*case)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestBrier:
    def test_perfect_predictor_scores_zero(self):
        # S(tau|x) is 1 before each subject's event and 0 after it.
        times = np.array([1.0, 2.0, 3.0])
        events = np.array([1, 1, 1])
        for tau in (0.5, 1.5, 2.5):
            surv = (times > tau).astype(float)
            score, excl = brier_ipcw(surv, times, events, NO_CENSOR, tau)
            assert score == 0.0 and excl == 0

    def test_constant_half_predictor(self):
        times = np.array([1.0, 2.0, 3.0, 4.0])
        events = np.array([1, 1, 1, 1])
        for tau in (0.5, 2.5, 3.5):
            score, _ = brier_ipcw(np.full(4, 0.5), times, events, NO_CENSOR, tau)
            assert score == pytest.approx(0.25)

    def test_hand_computed_ipcw_fixture(self):
        # 4 records, one censored; censoring curve G with one drop at 2.5:
        # G(t) = 1 for t < 2.5, 0.5 after.
        ckm = StepCurve(np.array([2.5]), np.array([0.5]))
        times = np.array([1.0, 2.0, 3.0, 4.0])
        events = np.array([1, 0, 1, 1])
        surv = np.array([0.8, 0.6, 0.4, 0.3])
        tau = 2.6
        # i=0: event before tau: 0.8^2 / G(1-) = 0.64 / 1
        # i=1: censored before tau: 0
        # i=2: t>tau: (1-0.4)^2 / G(2.6) = 0.36 / 0.5
        # i=3: t>tau: (1-0.3)^2 / 0.5 = 0.49 / 0.5
        expected = (0.64 + 0.0 + 0.72 + 0.98) / 4
        score, excl = brier_ipcw(surv, times, events, ckm, tau)
        assert score == pytest.approx(expected, abs=1e-10)
        assert excl == 0

    def test_zero_weight_exclusion_counted(self):
        ckm = StepCurve(np.array([0.5]), np.array([0.0]))
        score, excl = brier_ipcw(np.array([0.9]), np.array([1.0]),
                                 np.array([1]), ckm, 2.0)
        assert excl == 1
        assert score == 0.0


class TestIntegratedBrier:
    def test_constant_brier_integrates_to_itself(self):
        times = np.array([1.0, 2.0, 3.0, 4.0])
        events = np.array([1, 1, 1, 1])
        grid = np.linspace(0.5, 3.5, 20)
        surv = np.full((4, 20), 0.5)
        val, _ = integrated_brier(surv, times, events, NO_CENSOR, grid)
        assert val == pytest.approx(0.25, abs=1e-12)

    def test_perfect_predictor_zero(self):
        times = np.array([1.0, 2.0, 3.0])
        events = np.array([1, 1, 1])
        grid = np.array([0.5, 1.5, 2.5])
        surv = np.stack([(times[i] > grid).astype(float) for i in range(3)])
        val, _ = integrated_brier(surv, times, events, NO_CENSOR, grid)
        assert val == 0.0

    def test_hand_trapezoid(self):
        times = np.array([1.0, 3.0])
        events = np.array([1, 1])
        grid = np.array([0.5, 1.5, 2.0])
        surv = np.array([[0.9, 0.2, 0.1], [0.8, 0.7, 0.6]])
        per_tau = []
        for j, tau in enumerate(grid):
            total = 0.0
            for i in range(2):
                if times[i] <= tau and events[i] == 1:
                    total += surv[i, j] ** 2
                elif times[i] > tau:
                    total += (1 - surv[i, j]) ** 2
            per_tau.append(total / 2)
        expected = np.trapezoid(per_tau, grid) / (grid[-1] - grid[0])
        val, _ = integrated_brier(surv, times, events, NO_CENSOR, grid)
        assert val == pytest.approx(expected, abs=1e-10)

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            integrated_brier(np.zeros((1, 1)), [1.0], [1], NO_CENSOR, [1.0])

    def test_monotone_under_worse_calibration(self):
        # moving the perfect predictor toward 0.5 everywhere can only hurt
        times = np.array([1.0, 2.0, 3.0])
        events = np.array([1, 1, 1])
        grid = np.array([0.5, 1.5, 2.5])
        perfect = np.stack([(times[i] > grid).astype(float) for i in range(3)])
        prev = 0.0
        for blend in (0.0, 0.3, 0.7, 1.0):
            surv = (1 - blend) * perfect + blend * 0.5
            val, _ = integrated_brier(surv, times, events, NO_CENSOR, grid)
            assert val >= prev - 1e-12
            assert 0.0 <= val <= 1.0
            prev = val


def _reference_brier(s, times, events, censor_km, tau):
    """Per-record loop of the IPCW Brier score at one horizon (oracle)."""
    g_at_t = censor_km.at_left(times)
    g_at_tau = float(censor_km(tau))
    total = 0.0
    excluded = 0
    for i in range(len(times)):
        if events[i] == 1 and times[i] <= tau:
            if g_at_t[i] <= 0.0:
                excluded += 1
                continue
            total += s[i] ** 2 / g_at_t[i]
        elif times[i] > tau:
            if g_at_tau <= 0.0:
                excluded += 1
                continue
            total += (1.0 - s[i]) ** 2 / g_at_tau
    return total / len(times), excluded


def _reference_integrated(surv, times, events, censor_km, grid):
    scores = np.empty(len(grid))
    excluded = 0
    for j, tau in enumerate(grid):
        scores[j], exc = _reference_brier(surv[:, j], times, events,
                                          censor_km, tau)
        excluded += exc
    return float(np.trapezoid(scores, grid) / (grid[-1] - grid[0])), excluded


def _close(a, b):
    return a == b or math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)


@st.composite
def brier_cases(draw, min_horizons=1):
    """Random samples whose times may sit on a horizon, whose censoring
    curve may drop to 0 (excluding records), and that may be all censored."""
    n = draw(st.integers(1, 25))
    h = draw(st.integers(min_horizons, 8))
    grid = np.array(sorted(draw(st.sets(
        st.floats(0.1, 10.0, allow_nan=False), min_size=h, max_size=h))))
    time_value = st.one_of(st.sampled_from(list(grid)),
                           st.floats(0.05, 12.0, allow_nan=False))
    times = np.array(draw(st.lists(time_value, min_size=n, max_size=n)))
    events = np.array(draw(st.one_of(
        st.just([0] * n),
        st.lists(st.integers(0, 1), min_size=n, max_size=n))))
    k = draw(st.integers(1, 5))
    bps = np.array(sorted(draw(st.sets(
        st.one_of(st.sampled_from(list(grid) + list(times)),
                  st.floats(0.05, 12.0, allow_nan=False)),
        min_size=k, max_size=k))))
    drops = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
                          min_size=k, max_size=k))
    values = np.cumprod(drops)
    if draw(st.booleans()):
        values[-1] = 0.0
    censor_km = StepCurve(bps, values)
    surv = np.array(draw(st.lists(
        st.lists(st.floats(0.0, 1.0), min_size=h, max_size=h),
        min_size=n, max_size=n)))
    return surv, times, events, censor_km, grid


class TestBrierOracle:
    """The array pass agrees with the per-record, per-horizon loop."""

    @settings(max_examples=200, deadline=None)
    @given(brier_cases(min_horizons=2))
    def test_integrated_matches_loop(self, case):
        surv, times, events, censor_km, grid = case
        val, excl = integrated_brier(surv, times, events, censor_km, grid)
        ref, ref_excl = _reference_integrated(surv, times, events, censor_km,
                                              grid)
        assert excl == ref_excl
        assert _close(val, ref)

    @settings(max_examples=200, deadline=None)
    @given(brier_cases())
    def test_single_horizon_matches_loop(self, case):
        surv, times, events, censor_km, grid = case
        for j, tau in enumerate(grid):
            score, excl = brier_ipcw(surv[:, j], times, events, censor_km, tau)
            ref, ref_excl = _reference_brier(surv[:, j], times, events,
                                             censor_km, tau)
            assert excl == ref_excl
            assert _close(score, ref)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            integrated_brier(np.zeros((2, 3)), [1.0, 2.0, 3.0], [1, 1, 1],
                             NO_CENSOR, [0.5, 1.5, 2.5])


class TestNegll:
    def test_unit_hazard_single_event(self):
        assert negll_metric([1.0], [1.0], [1]) == pytest.approx(1.0)

    def test_all_censored_unit_hazard(self):
        t = np.array([0.5, 1.5, 2.0])
        assert negll_metric(np.ones(3), t, np.zeros(3, int)) == pytest.approx(t.sum())

    def test_three_record_hand_sum(self):
        lam = np.array([0.5, 2.0, 1.5])
        t = np.array([1.0, 0.5, 2.0])
        e = np.array([1, 0, 1])
        expected = -((np.log(0.5) - 0.5) + (-1.0) + (np.log(1.5) - 3.0))
        assert negll_metric(lam, t, e) == pytest.approx(expected, rel=1e-12)

    def test_infinite_hazard_flags_not_raises(self):
        val = negll_metric([np.inf], [1.0], [0])
        assert np.isinf(val)


def _dataset(rng, n=30, d=2):
    X = rng.normal(size=(n, d))
    t = rng.uniform(0.2, 5.0, size=n)
    e = (rng.random(n) < 0.6).astype(int)
    e[0] = 1
    return Batch(X, t, e)


class TestAttackSweep:
    def test_zero_radius_fgsm_is_bitwise_clean(self):
        rng = np.random.default_rng(2)
        net = random_net(rng, [2, 5, 1])
        test = _dataset(rng)
        cfg = TrainConfig()
        ckm = NO_CENSOR
        recs = attack_sweep(net, test, "fgsm", [0.0], cfg, ckm, "d", "m")
        G, _ = forward_batch(net, test.X)
        clean = np.exp(G)
        assert recs[0].ci == concordance_index(clean, test.t, test.e)

    def test_zero_radius_worstcase_close_to_clean(self):
        rng = np.random.default_rng(3)
        net = random_net(rng, [2, 5, 1])
        test = _dataset(rng)
        cfg = TrainConfig()
        fg = attack_sweep(net, test, "fgsm", [0.0], cfg, NO_CENSOR, "d", "m")[0]
        wc = attack_sweep(net, test, "worstcase", [0.0], cfg, NO_CENSOR, "d", "m")[0]
        assert wc.negll == pytest.approx(fg.negll, abs=1e-9)
        assert wc.ibs == pytest.approx(fg.ibs, abs=1e-9)

    def test_worst_case_curve_pointwise_decreasing_in_radius(self):
        rng = np.random.default_rng(4)
        net = random_net(rng, [2, 5, 1])
        test = _dataset(rng)
        grid = np.linspace(0.1, 4.0, 25)
        prev = _worst_case_curve(net, test.X, 0.1, grid)
        for eps in (0.3, 0.6, 1.0):
            cur = _worst_case_curve(net, test.X, eps, grid)
            assert np.all(cur <= prev + 1e-12)
            prev = cur

    def test_hazard_hook_gives_worst_case_curve(self):
        rng = np.random.default_rng(6)
        net = random_net(rng, [2, 5, 1])
        test = _dataset(rng)
        grid = np.linspace(0.1, 4.0, 25)
        seen = {}
        attack_sweep(net, test, "worstcase", [0.0, 0.5, 1.0], TrainConfig(),
                     NO_CENSOR, "d", "m",
                     on_hazards=lambda eps, h: seen.setdefault(eps, h))
        assert sorted(seen) == [0.0, 0.5, 1.0]
        for eps, hazards in seen.items():
            np.testing.assert_array_equal(
                population_curve(hazards, grid),
                _worst_case_curve(net, test.X, eps, grid))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_hazard_flags_every_metric(self, bad):
        rng = np.random.default_rng(7)
        test = _dataset(rng)
        hazards = rng.uniform(0.1, 2.0, size=len(test.t))
        hazards[3] = bad
        grid = np.linspace(0.1, 4.0, 10)
        _, _, _, ci_flag, ibs_flag, negll_flag = _metrics_from_hazards(
            hazards, test, NO_CENSOR, grid)
        assert ci_flag and ibs_flag and negll_flag

    def test_nan_hazard_leaves_concordance_undefined(self):
        # a NaN risk is written as ci = nan, which report skips and flags,
        # not as a finite score that counts the NaN as discordant
        rng = np.random.default_rng(8)
        test = _dataset(rng)
        hazards = rng.uniform(0.1, 2.0, size=len(test.t))
        hazards[5] = np.nan
        ci, _, _, ci_flag, _, _ = _metrics_from_hazards(
            hazards, test, NO_CENSOR, np.linspace(0.1, 4.0, 10))
        assert math.isnan(ci) and ci_flag

    def test_default_grid_matches_report_columns(self):
        assert len(DEFAULT_EPS_GRID) == 12
        assert DEFAULT_EPS_GRID[0] == 0.0
        assert DEFAULT_EPS_GRID[-1] == 1.0
        assert 0.05 in DEFAULT_EPS_GRID

    def test_metrics_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        net = random_net(rng, [2, 4, 1])
        test = _dataset(rng)
        cfg = TrainConfig()
        recs = attack_sweep(net, test, "worstcase", [0.0, 0.5], cfg,
                            NO_CENSOR, "toy", "baseline", seed=3)
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, recs)
        back = read_metrics_csv(path)
        assert back == recs


class TestRanks:
    def _records(self, values):
        recs = []
        for (ds, method), (ci, ibs, negll) in values.items():
            recs.append(MetricRecord(ds, method, "worstcase", 0.5, ci, ibs,
                                     negll))
        return recs

    def test_dominating_method_ranks_first_everywhere(self):
        vals = {}
        for ds in ("a", "b"):
            vals[(ds, "good")] = (0.9, 0.1, 10.0)
            vals[(ds, "bad")] = (0.6, 0.3, 50.0)
        table = average_ranks(self._records(vals))
        for metric in ("ci", "ibs", "negll"):
            cell = table.mean_ranks[(0.5, metric)]
            assert cell["good"] == 1.0
            assert cell["bad"] == 2.0

    def test_ties_share_mean_rank(self):
        vals = {("a", "m1"): (0.7, 0.2, 5.0), ("a", "m2"): (0.7, 0.2, 5.0)}
        table = average_ranks(self._records(vals))
        assert table.mean_ranks[(0.5, "ci")] == {"m1": 1.5, "m2": 1.5}

    def test_two_dataset_three_method_hand_ranking(self):
        vals = {
            ("a", "m1"): (0.9, 0.1, 1.0), ("a", "m2"): (0.8, 0.2, 2.0),
            ("a", "m3"): (0.7, 0.3, 3.0),
            ("b", "m1"): (0.7, 0.3, 3.0), ("b", "m2"): (0.9, 0.1, 1.0),
            ("b", "m3"): (0.8, 0.2, 2.0),
        }
        table = average_ranks(self._records(vals))
        cell = table.mean_ranks[(0.5, "ci")]
        assert cell == {"m1": 2.0, "m2": 1.5, "m3": 2.5}

    def test_missing_cell_names_the_gap(self):
        vals = {("a", "m1"): (0.9, 0.1, 1.0), ("a", "m2"): (0.8, 0.2, 2.0),
                ("b", "m1"): (0.7, 0.3, 3.0)}
        with pytest.raises(AggregationError, match="m2"):
            average_ranks(self._records(vals))


class TestPercentChange:
    def test_identical_gives_zero(self):
        base = [MetricRecord("a", "baseline", "fgsm", 0.1, 0.5, 0.2, 10.0)]
        out, flagged = relative_percent_change(base, [
            MetricRecord("a", "m", "fgsm", 0.1, 0.5, 0.2, 10.0)])
        assert out[(0.1, "ci")] == 0.0
        assert flagged == {(0.1, m): 0 for m in ("ci", "ibs", "negll")}

    def test_fifty_percent_gain(self):
        base = [MetricRecord("a", "baseline", "fgsm", 0.1, 0.5, 0.2, 10.0)]
        out, _ = relative_percent_change(base, [
            MetricRecord("a", "m", "fgsm", 0.1, 0.75, 0.2, 10.0)])
        assert out[(0.1, "ci")] == pytest.approx(50.0)

    def test_mean_across_datasets(self):
        base = [MetricRecord("a", "baseline", "fgsm", 0.1, 0.5, 0.2, 10.0),
                MetricRecord("b", "baseline", "fgsm", 0.1, 0.4, 0.2, 10.0)]
        out, _ = relative_percent_change(base, [
            MetricRecord("a", "m", "fgsm", 0.1, 0.55, 0.2, 10.0),
            MetricRecord("b", "m", "fgsm", 0.1, 0.5, 0.2, 10.0)])
        assert out[(0.1, "ci")] == pytest.approx((10.0 + 25.0) / 2)

    def test_zero_baseline_flagged(self):
        base = [MetricRecord("a", "baseline", "fgsm", 0.1, 0.0, 0.2, 10.0)]
        out, flagged = relative_percent_change(base, [
            MetricRecord("a", "m", "fgsm", 0.1, 0.5, 0.2, 10.0)])
        assert flagged == {(0.1, "ci"): 1, (0.1, "ibs"): 0, (0.1, "negll"): 0}
        assert np.isnan(out[(0.1, "ci")])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_method_value_flagged_per_row(self, bad):
        base = [MetricRecord(ds, "baseline", "fgsm", eps, 0.5, 0.2, 10.0)
                for ds in ("a", "b") for eps in (0.0, 0.1)]
        out, flagged = relative_percent_change(base, [
            MetricRecord(ds, "m", "fgsm", eps,
                         bad if (ds, eps) == ("a", 0.1) else 0.75, 0.2, 10.0)
            for ds in ("a", "b") for eps in (0.0, 0.1)])
        assert out[(0.1, "ci")] == pytest.approx(50.0)
        assert flagged[(0.1, "ci")] == 1
        assert sum(flagged.values()) == 1


class TestFriedman:
    def test_identical_treatments(self):
        m = np.tile([1.0, 1.0, 1.0], (5, 1))
        stat, p = friedman_test(m)
        assert stat == 0.0
        assert p == 1.0

    def test_closed_form_on_strict_ordering(self):
        chi2 = pytest.importorskip("scipy.stats").chi2
        # one treatment strictly best in all n blocks of k=3
        n, k = 6, 3
        m = np.tile([1.0, 2.0, 3.0], (n, 1))
        stat, p = friedman_test(m)
        # rank sums: n, 2n, 3n; chi2 = 12/(nk(k+1)) * sum R^2 - 3n(k+1)
        expected = 12.0 / (n * k * (k + 1)) * (n ** 2 + 4 * n ** 2 + 9 * n ** 2) \
            - 3 * n * (k + 1)
        assert stat == pytest.approx(expected)
        assert p == pytest.approx(chi2.sf(expected, k - 1))

    def test_two_treatments_reduce_to_sign_test_statistic(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(3, 11))
            wins = rng.random(n) < 0.5
            m = np.column_stack([np.where(wins, 1.0, 2.0),
                                 np.where(wins, 2.0, 1.0)])
            n_plus = int(wins.sum())
            stat, _ = friedman_test(m)
            assert stat == pytest.approx((n - 2 * n_plus) ** 2 / n)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(6, 4))
        s1, p1 = friedman_test(m)
        s2, p2 = friedman_test(np.exp(3.0 * m))  # strictly monotone
        assert s1 == pytest.approx(s2)
        assert p1 == pytest.approx(p2)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            friedman_test(np.ones((5, 1)))


class TestChi2Tail:
    def test_matches_scipy(self):
        chi2 = pytest.importorskip("scipy.stats").chi2
        xs = np.concatenate([np.linspace(0.0, 300.0, 1201),
                             np.geomspace(1e-9, 300.0, 200)])
        for df in range(1, 13):
            assert chi2_sf(0.0, df) == 1.0
            ref = chi2.sf(xs, df)
            got = np.array([chi2_sf(float(x), df) for x in xs])
            check = ref >= 1e-300
            assert check.sum() > 1000
            rel = np.abs(got[check] - ref[check]) / ref[check]
            assert rel.max() <= 1e-12, (df, xs[check][np.argmax(rel)])

    def test_negative_x_and_bad_df(self):
        assert chi2_sf(-1.0, 3) == 1.0
        with pytest.raises(ValueError):
            chi2_sf(1.0, 0)


class TestReportTables:
    METHODS = ("baseline", "fgsm", "sawar")

    def _records(self):
        rng = np.random.default_rng(11)
        recs = {}
        for ds in ("a", "b", "c"):
            for eps in (0.0, 0.5):
                for m in self.METHODS:
                    ci, ibs = rng.uniform(0.1, 0.9, size=2)
                    recs[(ds, eps, m)] = MetricRecord(
                        ds, m, "worstcase", eps, ci, ibs,
                        rng.uniform(1.0, 100.0))
        nan, inf = float("nan"), float("inf")
        recs[("a", 0.0, "fgsm")].ci = nan
        recs[("a", 0.5, "sawar")].ibs = nan
        recs[("b", 0.0, "baseline")].negll = nan     # NaN and +inf in one
        recs[("b", 0.0, "sawar")].negll = inf        # block tie at the worst
        recs[("c", 0.5, "fgsm")].negll = inf
        return recs

    def test_nonfinite_cells_rank_as_a_large_worst_value(self):
        recs = self._records()
        header, rows = report_tables(list(recs.values()))["friedman.csv"]
        assert header[:4] == ["attack", "metric", "statistic", "p_value"]
        blocks = sorted({(ds, eps) for ds, eps, _ in recs})
        for row in rows:
            metric = row[1]
            values = np.array(
                [[getattr(recs[(ds, eps, m)], metric) for m in self.METHODS]
                 for ds, eps in blocks])
            # the block holding a NaN is left out; +inf stays in
            kept = values[~np.isnan(values).any(axis=1)]
            assert len(kept) == len(blocks) - 1
            oriented = METRIC_DIRECTIONS[metric] * kept
            oriented[~np.isfinite(oriented)] = 1e300
            stat, p = friedman_test(oriented)
            assert float(row[2]) == stat
            assert float(row[3]) == p
            assert row[4:] == [len(kept), len(self.METHODS)]


class TestEmitReport:
    def test_no_curves_dir_when_disabled(self, tmp_path):
        recs = [MetricRecord("d", "m", "fgsm", 0.0, 0.7, 0.2, 5.0)]
        paths = emit_report(recs, tmp_path / "out")
        assert os.path.exists(paths["metrics"])
        assert not os.path.exists(tmp_path / "out" / "curves")

    def test_summary_and_curves_written(self, tmp_path):
        recs = [MetricRecord("d", "m", "fgsm", 0.0, 0.7, 0.2, 5.0)]
        grid = np.linspace(0, 1, 5)
        paths = emit_report(recs, tmp_path / "out2",
                            curves={"km": (grid, np.exp(-grid))},
                            summary={"seed": 0})
        assert os.path.exists(paths["curve:km"])
        with open(paths["curve:km"]) as fh:
            body = fh.read().splitlines()
        assert body[0] == "time,survival"
        assert os.path.exists(paths["summary"])

    def test_failed_summary_write_keeps_the_old_file(self, tmp_path,
                                                     monkeypatch):
        recs = [MetricRecord("d", "m", "fgsm", 0.0, 0.7, 0.2, 5.0)]
        out = tmp_path / "out3"
        emit_report(recs, out, summary={"seed": 0})
        before = (out / "summary.json").read_bytes()

        def broken_dump(doc, fh, **kw):
            fh.write('{"seed": ')
            raise OSError("disk full")
        monkeypatch.setattr(json, "dump", broken_dump)
        with pytest.raises(OSError, match="disk full"):
            emit_report(recs, out, summary={"seed": 1})
        assert (out / "summary.json").read_bytes() == before
        assert not list(out.rglob("*.tmp"))

    def test_failed_curve_write_leaves_no_file(self, tmp_path, monkeypatch):
        recs = [MetricRecord("d", "m", "fgsm", 0.0, 0.7, 0.2, 5.0)]
        out = tmp_path / "out4"
        real_open = open

        class DiskFull:
            """A curve handle that writes part of its text, then fails."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[:20])
                raise OSError("disk full")

        def curve_open(path, *args, **kw):
            fh = real_open(path, *args, **kw)
            return DiskFull(fh) if "curves" in os.fspath(path) else fh
        monkeypatch.setattr(data_module, "open", curve_open, raising=False)
        grid = np.linspace(0, 1, 5)
        with pytest.raises(OSError, match="disk full"):
            emit_report(recs, out, curves={"km": (grid, np.exp(-grid))})
        assert os.listdir(out / "curves") == []
        assert not list(out.rglob("*.tmp"))

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.tuples(CURVE_FLOATS, CURVE_FLOATS), max_size=30))
    def test_curve_bytes_equal_savetxt(self, tmp_path, points):
        grid = np.array([p[0] for p in points], dtype=float)
        values = np.array([p[1] for p in points], dtype=float)
        recs = [MetricRecord("d", "m", "fgsm", 0.0, 0.7, 0.2, 5.0)]
        paths = emit_report(recs, tmp_path / "out5",
                            curves={"c": (grid, values)})
        buf = io.StringIO()
        np.savetxt(buf, np.column_stack([grid, values]), delimiter=",",
                   header="time,survival", comments="")
        with open(paths["curve:c"], "rb") as fh:
            assert fh.read() == buf.getvalue().encode()


class TestCensoringKm:
    def test_flips_event_indicator(self):
        ds = Batch(np.zeros((3, 1)), np.array([1.0, 2.0, 3.0]),
                   np.array([0, 0, 1]))
        ckm = censoring_km(ds)
        direct = km_estimator(ds.t, 1 - ds.e)
        grid = np.linspace(0, 4, 9)
        assert np.allclose(ckm(grid), direct(grid))
