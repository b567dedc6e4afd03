import io
import json
import os

import math
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from certsurv import data as data_module
from certsurv import losses as losses_module
from certsurv.data import Batch, FormatError
from certsurv.losses import _ll_term, fgsm_perturb
from certsurv.metrics import (AggregationError, DEFAULT_EPS_GRID,
                              METRIC_DIRECTIONS, MetricRecord,
                              UndefinedMetricError, _BrierPlan, _concordance,
                              _metrics_from_scores, _ranks, attack_scores,
                              attack_sweep, average_ranks, brier_ipcw,
                              censoring_km, chi2_sf, concordance_index,
                              emit_report, friedman_test, integrated_brier,
                              read_metrics_csv, report_tables,
                              write_metrics_csv)
from certsurv.bounds import crown_ibp_batch, worst_case_log_hazard_batch
from certsurv.network import forward_batch
from certsurv.survival import (StepCurve, evaluation_grid, hazard,
                               km_estimator, population_curve,
                               survival_matrix)
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

    @pytest.mark.parametrize("grid", [1.0, [], [[0.5, 1.5]], [[0.5], [1.5]],
                                      [1.5, 0.5], [0.5, 0.5]])
    def test_malformed_grid_raises_value_error(self, grid):
        with pytest.raises(ValueError, match="grid must"):
            integrated_brier(np.zeros((2, 2)), [1.0, 2.0], [1, 1], NO_CENSOR,
                             grid)

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

    @settings(max_examples=150, deadline=None)
    @given(brier_cases(min_horizons=2), st.integers(0, 2 ** 32 - 1))
    def test_one_plan_serves_many_survival_matrices(self, case, seed):
        surv, times, events, censor_km, grid = case
        rng = np.random.default_rng(seed)
        plan = _BrierPlan(times, events, censor_km, grid)
        for m in (surv, rng.uniform(size=surv.shape), surv ** 3,
                  np.round(surv)):
            want, excluded = _one_pass_brier_scores(m, times, events,
                                                    censor_km, grid)
            assert plan.scores(m).tobytes() == want.tobytes()
            assert plan.excluded == excluded
            ibs = float(np.trapezoid(want, grid) / (grid[-1] - grid[0]))
            assert plan.integrated(m) == ibs
            assert integrated_brier(m, times, events, censor_km,
                                    grid) == (ibs, excluded)


def _one_pass_brier_scores(surv, times, events, censor_km, grid):
    """The IPCW Brier score per horizon as one function, with every
    operation in the order the plan splits it into (bitwise reference)."""
    n = len(times)
    g_at_t = censor_km.at_left(times)[:, None]
    g_at_tau = censor_km(grid)[None, :]
    t = times[:, None]
    event_before = (events == 1)[:, None] & (t <= grid[None, :])
    still_at_risk = t > grid[None, :]
    zero_t = event_before & (g_at_t <= 0.0)
    zero_tau = still_at_risk & (g_at_tau <= 0.0)
    with np.errstate(all="ignore"):
        term = np.where(event_before & ~zero_t, surv ** 2 / g_at_t, 0.0)
        term += np.where(still_at_risk & ~zero_tau,
                         (1.0 - surv) ** 2 / g_at_tau, 0.0)
    scores = np.cumsum(term, axis=0)[-1] / n
    return scores, int(zero_t.sum() + zero_tau.sum())


def _scored_metrics(G, test):
    """(ci, ibs, negll, ci_flag, ibs_flag, negll_flag) of scores G, under
    the errstate that attack_sweep scores and measures each radius in."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _metrics_from_scores(np.asarray(G, dtype=float), test,
                                    _BrierPlan(test.t, test.e, NO_CENSOR,
                                               np.linspace(0.1, 4.0, 10)))


class TestNegll:
    """negll is the training likelihood term on the scores G = log(hazard)."""

    @staticmethod
    def _negll(G, t, e):
        test = Batch(np.zeros((len(t), 1)), t, e)
        _, _, negll, _, _, negll_flag = _scored_metrics(G, test)
        return negll, negll_flag

    def test_unit_hazard_single_event(self):
        negll, flag = self._negll([0.0], [1.0], [1])
        assert negll == pytest.approx(1.0) and not flag

    def test_all_censored_unit_hazard(self):
        t = np.array([0.5, 1.5, 2.0])
        negll, _ = self._negll(np.zeros(3), t, np.zeros(3, int))
        assert negll == pytest.approx(t.sum())

    def test_three_record_hand_sum(self):
        lam = np.array([0.5, 2.0, 1.5])
        t = np.array([1.0, 0.5, 2.0])
        e = np.array([1, 0, 1])
        expected = -((np.log(0.5) - 0.5) + (-1.0) + (np.log(1.5) - 3.0))
        negll, _ = self._negll(np.log(lam), t, e)
        assert negll == pytest.approx(expected, rel=1e-12)

    def test_infinite_hazard_flags_not_raises(self):
        negll, flag = self._negll([np.inf], [1.0], [0])
        assert not np.isfinite(negll) and flag


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
        assert recs[0].ci == concordance_index(G, test.t, test.e)

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

    def test_score_hook_gives_worst_case_curve(self):
        rng = np.random.default_rng(6)
        net = random_net(rng, [2, 5, 1])
        test = _dataset(rng)
        grid = np.linspace(0.1, 4.0, 25)
        seen = {}
        attack_sweep(net, test, "worstcase", [0.0, 0.5, 1.0], TrainConfig(),
                     NO_CENSOR, "d", "m",
                     on_scores=lambda eps, G: seen.setdefault(eps, G))
        assert sorted(seen) == [0.0, 0.5, 1.0]
        for eps, G in seen.items():
            np.testing.assert_array_equal(
                population_curve(hazard(G), grid),
                _worst_case_curve(net, test.X, eps, grid))

    # -inf has hazard 0 and 800 a finite score whose hazard overflows
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 800.0])
    def test_nonfinite_hazard_flags_every_metric(self, bad):
        rng = np.random.default_rng(7)
        test = _dataset(rng)
        G = np.log(rng.uniform(0.1, 2.0, size=len(test.t)))
        G[3] = bad
        _, _, _, ci_flag, ibs_flag, negll_flag = _scored_metrics(G, test)
        assert ci_flag and ibs_flag and negll_flag

    def test_nan_hazard_leaves_concordance_undefined(self):
        # a NaN score is written as ci = nan, which report skips and flags,
        # not as a finite score that counts the NaN as discordant
        rng = np.random.default_rng(8)
        test = _dataset(rng)
        G = np.log(rng.uniform(0.1, 2.0, size=len(test.t)))
        G[5] = np.nan
        ci, _, _, ci_flag, _, _ = _scored_metrics(G, test)
        assert math.isnan(ci) and ci_flag

    @pytest.mark.parametrize("sign_mode", [False, True])
    @pytest.mark.parametrize("attack", ["fgsm", "worstcase"])
    def test_sweep_equals_a_per_radius_loop(self, attack, sign_mode):
        rng = np.random.default_rng(9)
        net = random_net(rng, [2, 5, 4, 1], scale=2.0)
        test, train = _dataset(rng), _dataset(rng)
        ckm = km_estimator(train.t, 1 - train.e)
        cfg = TrainConfig(fgsm_sign_mode=sign_mode)
        radii = [0.0, 0.05, 0.5, 1.0]
        recs = attack_sweep(net, test, attack, radii, cfg, ckm, "d", "m",
                            seed=4)
        grid = evaluation_grid(test.t)
        assert len(recs) == len(radii)
        for rec, eps in zip(recs, radii):
            G = attack_scores(net, test, attack, eps, cfg)
            # each attack as written before the sweep shared any work
            if attack == "fgsm":
                moved = fgsm_perturb(net, test, eps, cfg.w, cfg.sigma,
                                     sign_mode)
                assert G.tobytes() == forward_batch(net, moved.X)[0].tobytes()
            else:
                assert G.tobytes() == crown_ibp_batch(net, test.X,
                                                      eps)[1].tobytes()
            ibs, excluded = integrated_brier(
                survival_matrix(hazard(G), grid), test.t, test.e, ckm, grid)
            want = MetricRecord("d", "m", attack, eps,
                                _concordance(G, test.pairs), ibs,
                                float(_ll_term(G, test.t, test.e).sum()),
                                False, excluded > 0, False, 4)
            assert rec.csv_row() == want.csv_row()

    def _count_input_gradients(self, monkeypatch, radii):
        calls = []
        real = losses_module.input_grads_batch

        def counted(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(losses_module, "input_grads_batch", counted)
        rng = np.random.default_rng(10)
        attack_sweep(random_net(rng, [2, 5, 1]), _dataset(rng), "fgsm", radii,
                     TrainConfig(), NO_CENSOR)
        return len(calls)

    def test_fgsm_sweep_takes_one_input_gradient(self, monkeypatch):
        assert self._count_input_gradients(monkeypatch,
                                           [0.0, 0.1, 0.5, 1.0]) == 1

    def test_fgsm_sweep_at_radius_zero_takes_no_input_gradient(
            self, monkeypatch):
        assert self._count_input_gradients(monkeypatch, [0.0]) == 0

    def test_fgsm_sweep_logs_a_non_finite_gradient_once(self, monkeypatch,
                                                         caplog):
        real = losses_module.input_grads_batch

        def nan_first_row(*args):
            igrads = real(*args)
            igrads[0] = np.nan
            return igrads
        monkeypatch.setattr(losses_module, "input_grads_batch", nan_first_row)
        rng = np.random.default_rng(11)
        net, test = random_net(rng, [2, 5, 1]), _dataset(rng)
        with caplog.at_level("WARNING", logger="certsurv.losses"):
            attack_sweep(net, test, "fgsm", [0.0, 0.5, 1.0], TrainConfig(),
                         NO_CENSOR)
        assert [r.getMessage() for r in caplog.records] == [
            "skipping perturbation for 1 record(s) with non-finite input "
            "gradient"]

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

    def _two_records(self, path):
        recs = [MetricRecord("two\nlines", "baseline", "fgsm", 0.0, 0.7, 0.2,
                             5.0),
                MetricRecord("toy", "baseline", "fgsm", 0.5, 0.6, 0.3, 6.0)]
        write_metrics_csv(path, recs)
        return recs

    def test_metrics_csv_bad_line_is_the_physical_line(self, tmp_path):
        # the first record's dataset name holds a newline, so the record
        # spans lines 2 and 3 and the second record is on line 4
        path = tmp_path / "metrics.csv"
        recs = self._two_records(path)
        assert read_metrics_csv(path) == recs
        path.write_bytes(path.read_bytes().replace(b",0.5,", b",abc,", 1))
        with pytest.raises(FormatError) as err:
            read_metrics_csv(path)
        assert str(err.value) == (f"{path}: line 4: could not convert string "
                                  "to float: 'abc'")

    def test_metrics_csv_byte_order_mark_is_skipped(self, tmp_path):
        # spreadsheet programs start a UTF-8 CSV with a byte-order mark
        path = tmp_path / "metrics.csv"
        recs = self._two_records(path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert read_metrics_csv(path) == recs


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


def _percent_change(base, method_records):
    """Mean percent change and flagged cells per (eps, metric), read from
    the `percent_change.csv` rows of `report_tables`."""
    _, rows = report_tables(base + method_records)["percent_change.csv"]
    out = {(float(r[2]), r[3]): float(r[4]) for r in rows}
    return out, {(float(r[2]), r[3]): r[5] for r in rows}


class TestPercentChange:
    def test_identical_gives_zero(self):
        base = [MetricRecord("a", "baseline", "fgsm", 0.1, 0.5, 0.2, 10.0)]
        out, flagged = _percent_change(base, [
            MetricRecord("a", "m", "fgsm", 0.1, 0.5, 0.2, 10.0)])
        assert out[(0.1, "ci")] == 0.0
        assert flagged == {(0.1, m): 0 for m in ("ci", "ibs", "negll")}

    def test_fifty_percent_gain(self):
        base = [MetricRecord("a", "baseline", "fgsm", 0.1, 0.5, 0.2, 10.0)]
        out, _ = _percent_change(base, [
            MetricRecord("a", "m", "fgsm", 0.1, 0.75, 0.2, 10.0)])
        assert out[(0.1, "ci")] == pytest.approx(50.0)

    def test_mean_across_datasets(self):
        base = [MetricRecord("a", "baseline", "fgsm", 0.1, 0.5, 0.2, 10.0),
                MetricRecord("b", "baseline", "fgsm", 0.1, 0.4, 0.2, 10.0)]
        out, _ = _percent_change(base, [
            MetricRecord("a", "m", "fgsm", 0.1, 0.55, 0.2, 10.0),
            MetricRecord("b", "m", "fgsm", 0.1, 0.5, 0.2, 10.0)])
        assert out[(0.1, "ci")] == pytest.approx((10.0 + 25.0) / 2)

    def test_zero_baseline_flagged(self):
        base = [MetricRecord("a", "baseline", "fgsm", 0.1, 0.0, 0.2, 10.0)]
        out, flagged = _percent_change(base, [
            MetricRecord("a", "m", "fgsm", 0.1, 0.5, 0.2, 10.0)])
        assert flagged == {(0.1, "ci"): 1, (0.1, "ibs"): 0, (0.1, "negll"): 0}
        assert np.isnan(out[(0.1, "ci")])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_method_value_flagged_per_row(self, bad):
        base = [MetricRecord(ds, "baseline", "fgsm", eps, 0.5, 0.2, 10.0)
                for ds in ("a", "b") for eps in (0.0, 0.1)]
        out, flagged = _percent_change(base, [
            MetricRecord(ds, "m", "fgsm", eps,
                         bad if (ds, eps) == ("a", 0.1) else 0.75, 0.2, 10.0)
            for ds in ("a", "b") for eps in (0.0, 0.1)])
        assert out[(0.1, "ci")] == pytest.approx(50.0)
        assert flagged[(0.1, "ci")] == 1
        assert sum(flagged.values()) == 1

    @pytest.mark.parametrize("datasets", [("a", "b"), ("a",)])
    def test_overflowed_change_flagged(self, datasets):
        # finite values whose change overflows: +-1e300 against 1e-300
        base = [MetricRecord(ds, "baseline", "fgsm", 0.1, 0.5, 1e-300, 10.0)
                for ds in datasets]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, flagged = _percent_change(base, [
                MetricRecord(ds, "m", "fgsm", 0.1, 0.5, sign * 1e300, 10.0)
                for ds, sign in zip(datasets, (1.0, -1.0))])
        assert flagged == {(0.1, "ci"): 0, (0.1, "ibs"): len(datasets),
                           (0.1, "negll"): 0}
        assert np.isnan(out[(0.1, "ibs")])

    def test_overflowed_mean_flagged(self):
        # each change (1e308) is finite, their sum is not
        base = [MetricRecord(ds, "baseline", "fgsm", 0.1, 0.5, 1.0, 10.0)
                for ds in ("a", "b")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, flagged = _percent_change(base, [
                MetricRecord(ds, "m", "fgsm", 0.1, 0.5, 1e306, 10.0)
                for ds in ("a", "b")])
        assert out[(0.1, "ibs")] == math.inf
        assert flagged == {(0.1, "ci"): 0, (0.1, "ibs"): 2, (0.1, "negll"): 0}


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

    def test_nan_rejected(self):
        # a NaN has no rank, so it must not turn into a p-value
        with pytest.raises(ValueError, match="NaN"):
            friedman_test([[math.nan, 1.0], [2.0, 3.0]])


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


RANKED = st.sampled_from([-math.inf, -1.5, -0.0, 0.0, 0.5, 2.0, math.inf]) \
    | st.floats(allow_nan=False)
MAYBE_NAN = st.sampled_from([math.nan, -math.inf, -0.0, 0.0, 1.0, math.inf]) \
    | st.floats(-1e3, 1e3)


def _argsort_ranks(values):
    """Average 1-based ranks by a stable argsort and a scan of equal runs."""
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


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.integers(1, 7), st.data())
def test_ranks_equal_rankdata_and_an_argsort_scan(n_rows, n_cols, data):
    rankdata = pytest.importorskip("scipy.stats").rankdata
    size = n_rows * n_cols
    v = np.array(data.draw(st.lists(RANKED, min_size=size, max_size=size)))
    v = v.reshape(n_rows, n_cols)
    ranks, ties = _ranks(v)
    for row, got, tie in zip(v, ranks, ties):
        assert got.tolist() == rankdata(row, method="average").tolist()
        assert got.tolist() == _argsort_ranks(row).tolist()
        assert tie.tolist() == [int((row == x).sum()) for x in row]
        assert [a.tolist() for a in _ranks(row)] == [got.tolist(),
                                                      tie.tolist()]


@st.composite
def record_trees(draw):
    """Complete records over 1-4 datasets, 1-3 radii, 1-5 methods and 1-2
    attacks, whose values hold NaN, +-inf, -0.0 and ties."""
    axes = [draw(st.lists(st.sampled_from(pool), min_size=1, unique=True))
            for pool in (("a", "b", "c", "d"), (0.0, 0.5, 1.0),
                         ("baseline", "fgsm", "noise", "pgd", "sawar"),
                         ("fgsm", "worstcase"))]
    return [MetricRecord(ds, m, attack, eps,
                         *draw(st.lists(MAYBE_NAN, min_size=3, max_size=3)))
            for ds in axes[0] for eps in axes[1] for m in axes[2]
            for attack in axes[3]]


@settings(max_examples=300, deadline=None)
@given(record_trees(), st.randoms(use_true_random=False))
def test_report_tables_do_not_depend_on_record_order(records, rnd):
    shuffled = list(records)
    rnd.shuffle(shuffled)
    assert report_tables(shuffled) == report_tables(records)


class TestEmitReport:
    def test_no_curves_dir_when_disabled(self, tmp_path):
        recs = [MetricRecord("d", "m", "fgsm", 0.0, 0.7, 0.2, 5.0)]
        paths = emit_report(recs, tmp_path / "out")
        assert os.path.exists(paths["metrics"])
        assert not os.path.exists(tmp_path / "out" / "curves.csv")

    def test_summary_and_curves_written(self, tmp_path):
        recs = [MetricRecord("d", "m", "fgsm", 0.0, 0.7, 0.2, 5.0)]
        grid = np.linspace(0, 1, 5)
        paths = emit_report(recs, tmp_path / "out2",
                            curves=(grid, {"km": np.exp(-grid)}),
                            summary={"seed": 0})
        assert os.path.exists(paths["curves"])
        with open(paths["curves"]) as fh:
            body = fh.read().splitlines()
        assert body[0] == "curve,time,survival"
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
            emit_report(recs, out, curves=(grid, {"km": np.exp(-grid)}))
        assert not os.path.exists(out / "curves.csv")
        assert not list(out.rglob("*.tmp"))

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.tuples(CURVE_FLOATS, CURVE_FLOATS), max_size=30))
    def test_curve_bytes_equal_savetxt(self, tmp_path, points):
        grid = np.array([p[0] for p in points], dtype=float)
        values = np.array([p[1] for p in points], dtype=float)
        recs = [MetricRecord("d", "m", "fgsm", 0.0, 0.7, 0.2, 5.0)]
        # a fresh directory per example: a rename over an existing file
        # costs far more than one to a new name while the disk is busy
        paths = emit_report(recs, tempfile.mkdtemp(dir=tmp_path),
                            curves=(grid, {"c": values}))
        buf = io.StringIO()
        np.savetxt(buf, np.column_stack([grid, values]), delimiter=",",
                   header="time,survival", comments="")
        header, *lines = buf.getvalue().splitlines(keepends=True)
        expected = "curve," + header + "".join("c," + line for line in lines)
        with open(paths["curves"], "rb") as fh:
            assert fh.read() == expected.encode()


class TestCensoringKm:
    def test_flips_event_indicator(self):
        ds = Batch(np.zeros((3, 1)), np.array([1.0, 2.0, 3.0]),
                   np.array([0, 0, 1]))
        ckm = censoring_km(ds)
        direct = km_estimator(ds.t, 1 - ds.e)
        grid = np.linspace(0, 4, 9)
        assert np.allclose(ckm(grid), direct(grid))
