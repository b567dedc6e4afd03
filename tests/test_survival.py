import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from certsurv.network import Network, forward_batch
from certsurv.survival import (DomainError, StepCurve, hazard, km_estimator,
                               population_curve, survival_matrix,
                               survival_quantiles)

from conftest import log_pdf, log_survival


def linear_net(weight, bias=0.0):
    return Network([1, 1], [np.array([[float(weight)]])],
                   [np.array([float(bias)])])


def hazards_of(net, X):
    """The net's per-record hazards exp(G(x)) on the rows of X."""
    return np.exp(forward_batch(net, np.asarray(X, dtype=float))[0])


class TestPointwiseFunctions:
    def test_hazard_values(self):
        assert hazard(0.0) == 1.0
        assert hazard(np.log(2.0)) == pytest.approx(2.0, rel=1e-15)

    def test_hazard_underflow_is_quiet(self):
        assert hazard(-700.0) >= 0.0

    def test_hazard_overflow_sentinel(self):
        assert np.isinf(hazard(1000.0))

    def test_survival_values(self):
        S = survival_matrix(hazard(np.array([0.0, 5.0, np.log(2.0)])),
                            [0.0, 1.0, 3.0])
        assert S[0, 1] == pytest.approx(np.exp(-1.0), rel=1e-15)
        assert S[1, 0] == 1.0
        assert S[2, 2] == pytest.approx(np.exp(-6.0), rel=1e-12)

    def test_survival_negative_time(self):
        with pytest.raises(DomainError):
            survival_matrix(np.ones(1), [-1.0])

    def test_log_pdf_values(self):
        assert log_pdf(0.0, 2.0) == -2.0
        assert log_pdf(1.0, 1.0) == pytest.approx(1.0 - np.e, rel=1e-12)

    def test_log_pdf_domain(self):
        with pytest.raises(DomainError):
            log_pdf(0.0, 0.0)

    def test_log_survival_values(self):
        assert log_survival(0.0, 1.0) == -1.0
        assert log_survival(0.0, 0.0) == 0.0
        assert log_survival(-1.0, 2.0) == pytest.approx(-2.0 * np.exp(-1.0),
                                                        rel=1e-12)

    def test_pdf_equals_hazard_times_survival(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            G = rng.uniform(-3, 3)
            t = rng.uniform(0.01, 5.0)
            if np.exp(log_pdf(G, t)) < 1e-300:
                continue
            lhs = np.exp(log_pdf(G, t))
            rhs = hazard(G) * np.exp(log_survival(G, t))
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_survival_monotone_and_limits(self):
        grid = np.linspace(0.0, 50.0, 200)
        vals = survival_matrix(np.array([0.3]), grid)[0]
        assert vals[0] == 1.0
        assert np.all(np.diff(vals) <= 0)
        assert vals[-1] < 1e-4


class TestPopulationCurve:
    def test_single_instance_is_instance_curve(self):
        net = linear_net(0.0, 0.0)
        grid = np.array([0.0, 1.0, 2.0])
        pc = population_curve(hazards_of(net, np.zeros((1, 1))), grid)
        assert np.allclose(pc, np.exp(-grid))

    def test_identical_instances(self):
        net = linear_net(0.0, 0.0)
        grid = np.linspace(0, 3, 7)
        pc = population_curve(hazards_of(net, np.zeros((2, 1))), grid)
        assert np.allclose(pc, np.exp(-grid))

    def test_hand_average(self):
        # scores 0 and ln 2 at t=1: (e^-1 + e^-2) / 2
        net = linear_net(np.log(2.0), 0.0)
        X = np.array([[0.0], [1.0]])
        pc = population_curve(hazards_of(net, X), np.array([1.0]))
        assert pc[0] == pytest.approx(0.5 * (np.exp(-1) + np.exp(-2)), abs=1e-6)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            population_curve(np.zeros(0), [0.0, 1.0])

    def test_equals_mean_of_instance_curves(self):
        rng = np.random.default_rng(1)
        net = linear_net(1.3, -0.2)
        X = rng.normal(size=(20, 1))
        grid = np.linspace(0, 5, 11)
        pc = population_curve(hazards_of(net, X), grid)
        inst = survival_matrix(hazards_of(net, X), grid)
        assert np.allclose(pc, inst.mean(axis=0), atol=1e-12)


class TestSurvivalQuantiles:
    def test_degenerate_distribution(self):
        net = linear_net(0.0, 0.7)
        X = np.zeros((10, 1))
        grid = np.linspace(0, 2, 5)
        lo, hi = survival_quantiles(hazards_of(net, X), grid)
        pc = population_curve(hazards_of(net, X), grid)
        assert np.allclose(lo, pc)
        assert np.allclose(hi, pc)

    def test_monotone_inversion(self):
        # The low survival band comes from the high quantile of the score.
        net = linear_net(1.0, 0.0)
        X = np.linspace(-2, 2, 100)[:, None]
        grid = np.array([1.0])
        lo, hi = survival_quantiles(hazards_of(net, X), grid)
        G = forward_batch(net, X)[0]
        g_hi = np.quantile(G, 0.95, method="higher")
        assert lo[0] == pytest.approx(np.exp(-np.exp(g_hi) * 1.0), rel=1e-12)

    def test_matches_per_point_sorting(self):
        net = linear_net(1.0, 0.2)
        X = np.array([[-1.0], [0.3], [0.9]])
        grid = np.linspace(0.1, 4.0, 6)
        lo, hi = survival_quantiles(hazards_of(net, X), grid)
        surv = survival_matrix(hazards_of(net, X), grid)
        assert np.allclose(lo, np.quantile(surv, 0.05, axis=0, method="lower"))
        assert np.allclose(hi, np.quantile(surv, 0.95, axis=0, method="lower"))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 200),
       st.sampled_from(["spread", "tied", "extreme"]))
def test_curves_equal_exp_of_scores_bit_for_bit(seed, n, scores):
    """The hazard-keyed curves give the bits of the score-keyed formulas."""
    rng = np.random.default_rng(seed)
    G = {"spread": lambda: rng.normal(0.0, 3.0, size=n),
         "tied": lambda: rng.choice([-2.0, 0.0, 0.5, 3.0], size=n),
         "extreme": lambda: rng.uniform(-700.0, 700.0, size=n)}[scores]()
    grid = np.linspace(0.0, rng.uniform(0.1, 20.0), 100)
    got = population_curve(np.exp(G), grid)
    assert got.tobytes() == np.exp(-np.outer(np.exp(G), grid)).mean(0).tobytes()
    for curve, q in zip(survival_quantiles(np.exp(G), grid), (0.05, 0.95)):
        g = np.quantile(G, 1.0 - q, method="higher")
        assert curve.tobytes() == np.exp(-np.exp(g) * grid).tobytes()


def test_infinite_hazard_survives_to_time_zero_quietly():
    grid = np.array([0.0, 0.5, 1.0])
    hazards = np.array([np.inf, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        S = survival_matrix(hazards, grid)
        pc = population_curve(hazards, grid)
        lo, hi = survival_quantiles(hazards, grid)
    np.testing.assert_array_equal(S[:, 0], [1.0, 1.0])
    np.testing.assert_array_equal(S[0, 1:], [0.0, 0.0])
    assert pc[0] == lo[0] == hi[0] == 1.0
    assert not np.isnan(np.concatenate([pc, lo, hi])).any()


class TestKaplanMeier:
    def test_all_events(self):
        km = km_estimator([1.0, 2.0, 3.0], [1, 1, 1])
        assert km(1.0) == pytest.approx(2 / 3)
        assert km(2.0) == pytest.approx(1 / 3)
        assert km(3.0) == pytest.approx(0.0)
        assert km(0.5) == 1.0

    def test_trailing_censor_keeps_curve_flat(self):
        km = km_estimator([1.0, 2.0, 3.0], [1, 1, 0])
        assert km(1.0) == pytest.approx(2 / 3)
        assert km(2.0) == pytest.approx(1 / 3)
        assert km(10.0) == pytest.approx(1 / 3)

    def test_all_censored(self):
        km = km_estimator([1.0, 2.0], [0, 0])
        assert km(100.0) == 1.0

    def test_tied_events_and_censorings(self):
        # Events at a tied time are processed before the censoring there.
        km = km_estimator([1.0, 1.0, 2.0], [1, 0, 1])
        assert km(1.0) == pytest.approx(2 / 3)
        assert km(2.0) == pytest.approx(0.0)

    def test_is_valid_step_curve(self):
        rng = np.random.default_rng(2)
        times = rng.uniform(0.1, 9.0, size=60)
        events = (rng.random(60) < 0.5).astype(int)
        km = km_estimator(times, events)
        grid = np.linspace(0, 10, 50)
        vals = km(grid)
        assert np.all((vals >= 0) & (vals <= 1))
        assert np.all(np.diff(vals) <= 1e-15)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            km_estimator([], [])

    def test_nan_time_rejected(self):
        with pytest.raises(DomainError):
            km_estimator([1.0, np.nan], [1, 1])

    def test_left_limit(self):
        curve = StepCurve(np.array([1.0, 2.0]), np.array([0.5, 0.25]))
        assert curve.at_left(1.0) == 1.0
        assert curve.at_left(1.5) == 0.5
        assert curve.at_left(2.0) == 0.5
        assert curve(2.0) == 0.25

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=8,
                    unique=True),
           st.lists(st.floats(-1.0, 12.0), max_size=20))
    def test_left_limit_differs_only_at_breakpoints(self, bps, ts):
        bps = np.sort(bps)
        values = np.linspace(0.9, 0.1, bps.size)
        curve = StepCurve(bps, values)
        t = np.concatenate([ts, bps])
        right, left = curve(t), curve.at_left(t)
        at_bp = np.isin(t, bps)
        np.testing.assert_array_equal(left[~at_bp], right[~at_bp])
        i = np.searchsorted(bps, t[at_bp])
        np.testing.assert_array_equal(right[at_bp], values[i])
        np.testing.assert_array_equal(left[at_bp],
                                      np.where(i > 0, values[i - 1], 1.0))

    @pytest.mark.parametrize("method", ["__call__", "at_left"])
    def test_scalar_lookup_is_a_float_equal_to_the_array_lookup(self,
                                                                 method):
        curve = StepCurve(np.array([1.0, 2.0]), np.array([0.5, 0.25]))
        look = getattr(curve, method)
        ts = [0.5, 1.0, 1.5, 2.0, 3.0]
        got = [look(t) for t in ts]
        assert all(type(g) is float for g in got)
        np.testing.assert_array_equal(got, look(np.array(ts)))


def _km_loop(times, events):
    """The product-limit estimate as a loop over the distinct times."""
    order = np.argsort(times, kind="stable")
    times, events = times[order], events[order]
    n_at_risk = times.size
    bps, vals = [], []
    surv = 1.0
    for tj in np.unique(times):
        here = times == tj
        d = int(events[here].sum())
        if d > 0:
            surv *= 1.0 - d / n_at_risk
            bps.append(tj)
            vals.append(surv)
        n_at_risk -= int(here.sum())
    if not bps:
        return StepCurve(np.array([np.inf]), np.array([1.0]))
    return StepCurve(np.array(bps), np.array(vals))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 300),
       st.sampled_from(["distinct", "tied", "censored"]))
def test_km_estimator_equals_loop(seed, n, times):
    rng = np.random.default_rng(seed)
    t = (rng.choice([0.5, 1.0, 2.0, 7.25], size=n) if times == "tied"
         else rng.uniform(0.01, 9.0, size=n))
    e = (np.zeros(n, dtype=int) if times == "censored"
         else (rng.random(n) < rng.random()).astype(int))
    got, want = km_estimator(t, e), _km_loop(t, e)
    assert got.breakpoints.tobytes() == want.breakpoints.tobytes()
    assert got.values.tobytes() == want.values.tobytes()
