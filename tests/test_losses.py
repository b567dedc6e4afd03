import logging
import os
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from certsurv import losses
from certsurv.data import load_csv, stratified_split
from certsurv.losses import (Batch, _certified_terms, _clean_engine,
                             _ll_term, _loss_grad, _pair_terms, _resolve_w,
                             certified_upper_loss_grads, combined_loss,
                             fgsm_perturb, noise_perturb, pgd_perturb,
                             sawar_loss_grads)
from certsurv.network import (Network, ParamGrads, adam_step, backward_batch,
                              forward_batch, init_adam, input_grads_batch)
from certsurv.training import TrainConfig, train

from conftest import (DATA_DIR, equal_but_nan_sign, log_pdf, log_survival,
                      random_batch, random_net)


def linear_net(weight, bias=0.0):
    return Network([1, 1], [np.array([[float(weight)]])],
                   [np.array([float(bias)])])


def identity_batch(t, e):
    # one feature equal to 0 everywhere: G = bias
    n = len(t)
    return Batch(np.zeros((n, 1)), t, e)


class TestLogLik:
    def test_all_censored_zero_score(self):
        t = np.array([1.0, 2.5, 0.5])
        batch = identity_batch(t, [0, 0, 0])
        neg_ll = _clean_engine(linear_net(1.0, 0.0), batch, 0.0, 1.0,
                               need_grads=False)[0]
        assert neg_ll == pytest.approx(t.sum())

    def test_single_event(self):
        batch = identity_batch([1.0], [1])
        neg_ll = _clean_engine(linear_net(1.0, 0.0), batch, 0.0, 1.0,
                               need_grads=False)[0]
        assert neg_ll == pytest.approx(1.0)

    def test_mixed_matches_per_record_sum(self):
        rng = np.random.default_rng(0)
        net = random_net(rng, [2, 4, 1])
        batch = random_batch(rng, 5, 2)
        G, _ = forward_batch(net, batch.X)
        expected = 0.0
        for i in range(5):
            if batch.e[i] == 1:
                expected += log_pdf(G[i], batch.t[i])
            else:
                expected += log_survival(G[i], batch.t[i])
        neg_ll = _clean_engine(net, batch, 0.0, 1.0, need_grads=False)[0]
        assert -neg_ll == pytest.approx(expected, rel=1e-12)


class TestRankLoss:
    def test_no_comparable_pairs(self):
        batch = identity_batch([1.0, 2.0], [0, 0])
        assert _clean_engine(linear_net(1.0), batch, 0.0, 1.0,
                             need_grads=False)[1] == 0.0

    def test_equal_cdfs_give_unit_term(self):
        # identical covariates: F(t1|x1) == F(t1|x2), one comparable pair
        batch = identity_batch([1.0, 2.0], [1, 0])
        assert _clean_engine(linear_net(1.0, 0.3), batch, 0.0, 1.0,
                             need_grads=False)[1] == pytest.approx(1.0)

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(1)
        net = random_net(rng, [2, 3, 1])
        batch = random_batch(rng, 6, 2)
        G, _ = forward_batch(net, batch.X)
        sigma = 1.0
        expected = 0.0
        for i in range(6):
            for j in range(6):
                if i == j or not (batch.t[i] < batch.t[j] and batch.e[i] == 1):
                    continue
                Gi, Gj = G[i], G[j]
                Fi = 1 - np.exp(-np.exp(Gi) * batch.t[i])
                Fj = 1 - np.exp(-np.exp(Gj) * batch.t[i])
                expected += np.exp(-(Fi - Fj) / sigma)
        rank = _clean_engine(net, batch, 0.0, sigma, need_grads=False)[1]
        assert rank == pytest.approx(expected, rel=1e-12)

    def test_nonnegative_and_zero_iff_no_pairs(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            net = random_net(rng, [2, 3, 1])
            batch = random_batch(rng, 5, 2)
            val = _clean_engine(net, batch, 0.0, 1.0, need_grads=False)[1]
            has_pair = any(
                batch.t[i] < batch.t[j] and batch.e[i] == 1
                for i in range(5) for j in range(5) if i != j
            )
            assert val >= 0.0
            assert (val > 0.0) == has_pair


class TestCombinedLoss:
    def test_w_zero_is_negative_loglik(self):
        rng = np.random.default_rng(3)
        net = random_net(rng, [2, 3, 1])
        batch = random_batch(rng, 5, 2)
        neg_ll = _clean_engine(net, batch, 0.0, 1.0, need_grads=False)[0]
        assert combined_loss(net, batch, w=0.0) == pytest.approx(
            neg_ll, rel=1e-12
        )

    def test_w_one_is_sum(self):
        rng = np.random.default_rng(4)
        net = random_net(rng, [2, 3, 1])
        batch = random_batch(rng, 5, 2)
        neg_ll, rank = _clean_engine(net, batch, 0.0, 1.0,
                                     need_grads=False)[:2]
        assert combined_loss(net, batch, w=1.0) == pytest.approx(
            neg_ll + rank, rel=1e-12
        )

    def test_default_weight_is_one_over_batch(self):
        rng = np.random.default_rng(5)
        net = random_net(rng, [2, 3, 1])
        batch = random_batch(rng, 8, 2)
        assert combined_loss(net, batch) == pytest.approx(
            combined_loss(net, batch, w=1.0 / 8), rel=1e-12
        )


class TestFgsm:
    def test_eps_zero_unchanged(self):
        rng = np.random.default_rng(6)
        net = random_net(rng, [2, 3, 1])
        batch = random_batch(rng, 4, 2)
        out = fgsm_perturb(net, batch, 0.0)
        assert np.array_equal(out.X, batch.X)

    def test_linear_censored_hand_gradient(self):
        # G(x) = x, censored record t=1: loss = exp(x) * t, gradient 1 at 0,
        # step eps * 1 inside the ball.
        net = linear_net(1.0, 0.0)
        batch = Batch(np.zeros((1, 1)), [1.0], [0])
        out = fgsm_perturb(net, batch, 0.1)
        assert out.X[0, 0] == pytest.approx(0.1, rel=1e-12)

    def test_projection_contract(self):
        rng = np.random.default_rng(7)
        net = random_net(rng, [3, 5, 1], scale=3.0)
        batch = random_batch(rng, 6, 3)
        for eps in (0.05, 0.5):
            out = fgsm_perturb(net, batch, eps)
            assert np.all(np.abs(out.X - batch.X) <= eps + 1e-12)
            assert np.array_equal(out.t, batch.t)
            assert np.array_equal(out.e, batch.e)

    def test_sign_mode_steps_full_radius(self):
        net = linear_net(1.0, 0.0)
        batch = Batch(np.zeros((1, 1)), [1.0], [0])
        out = fgsm_perturb(net, batch, 0.25, sign_mode=True)
        assert out.X[0, 0] == pytest.approx(0.25)


class TestPgd:
    def test_single_step_equals_fgsm_bitwise(self):
        rng = np.random.default_rng(8)
        net = random_net(rng, [2, 4, 1])
        batch = random_batch(rng, 5, 2)
        a = pgd_perturb(net, batch, 0.3, 1)
        b = fgsm_perturb(net, batch, 0.3)
        assert np.array_equal(a.X, b.X)

    def test_eps_zero_any_steps(self):
        rng = np.random.default_rng(9)
        net = random_net(rng, [2, 4, 1])
        batch = random_batch(rng, 5, 2)
        out = pgd_perturb(net, batch, 0.0, 7)
        assert np.array_equal(out.X, batch.X)

    def test_monotone_ascent_on_convex_toy(self):
        # censored record under a linear score: loss exp(x) t is convex and
        # increasing, so iterates never decrease the loss.
        net = linear_net(1.0, 0.0)
        batch = Batch(np.zeros((1, 1)), [1.0], [0])
        prev = combined_loss(net, batch)
        for k in range(1, 6):
            out = pgd_perturb(net, batch, 0.5, k)
            val = combined_loss(net, out)
            assert val >= prev - 1e-12
            prev = val

    @pytest.mark.parametrize("sign_mode", [False, True])
    @pytest.mark.parametrize("steps", range(1, 11))
    def test_batch_X_is_never_written(self, steps, sign_mode):
        # the steps are built in place; none of them may land in batch.X
        rng = np.random.default_rng(steps)
        net = random_net(rng, [3, 6, 1], scale=2.0)
        batch = random_batch(rng, 9, 3)
        before = batch.X.tobytes()
        for out in (pgd_perturb(net, batch, 0.3, steps, sign_mode=sign_mode),
                    fgsm_perturb(net, batch, 0.3, sign_mode=sign_mode)):
            assert batch.X.tobytes() == before
            assert not np.shares_memory(out.X, batch.X)

    def test_invalid_steps(self):
        net = linear_net(1.0)
        batch = Batch(np.zeros((1, 1)), [1.0], [0])
        with pytest.raises(ValueError):
            pgd_perturb(net, batch, 0.1, 0)


    def test_nonfinite_gradient_rows_skip_the_step(self, caplog):
        # G = 800 x: exp(G) overflows on the first row, so its input gradient
        # is NaN at every step; the other rows stay finite.
        net = linear_net(800.0)
        batch = Batch(np.array([[1.0], [0.0], [0.1], [-0.2]]),
                      [1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1])
        steps = 3
        with caplog.at_level(logging.WARNING, logger="certsurv.losses"):
            out = pgd_perturb(net, batch, 0.05, steps)
        skips = [r for r in caplog.records if "non-finite" in r.getMessage()]
        assert len(skips) == steps
        assert out.X[0, 0] == batch.X[0, 0]
        assert np.all(out.X[1:] != batch.X[1:])

    def test_nonfinite_gradient_keeps_earlier_steps(self):
        # The first row's gradient is finite at x = 0.7; one sign step of
        # 0.25 takes it to 0.95, where exp(800 x) overflows, and it stays.
        net = linear_net(800.0)
        batch = Batch(np.array([[0.7], [0.0]]), [1.0, 2.0], [1, 1])
        out = pgd_perturb(net, batch, 0.75, 3, sign_mode=True)
        assert out.X[0, 0] == 0.7 + 0.25
        assert out.X[1, 0] == 0.75


def _written_out_input_grads(net, batch, w, sigma):
    """Input gradient of the clean loss with the pair formula spelled out
    here, apart from losses._loss_grad."""
    t, e = batch.t, batch.e
    G, caches = forward_batch(net, batch.X)
    lam = np.exp(G)
    S = np.exp(-np.outer(t, lam))
    F = 1.0 - S
    A = (t[:, None] < t[None, :]) & (e[:, None] == 1)
    eta = np.where(A, np.exp(-(np.diag(F)[:, None] - F) / sigma), 0.0)
    w_val = 1.0 / len(batch) if w is None else float(w)
    D = t[:, None] * lam[None, :] * S
    dG = -e + lam * t
    dG = dG + (w_val / sigma) * ((eta * D).sum(axis=0)
                                 - np.diag(D) * eta.sum(axis=1))
    return backward_batch(net, caches, dG)[1]


def _stepwise_pgd(net, batch, eps, steps, w, sigma, sign_mode,
                  engine=_clean_engine):
    """Projected gradient ascent that takes every step's input gradient
    from `engine`, by default the clean engine (parameter gradients
    included), and projects with np.clip."""
    if eps == 0.0:
        return batch.X
    X0 = batch.X
    X = X0.copy()
    for _ in range(steps):
        moved = batch.with_X(X)
        ig = engine(net, moved, _resolve_w(w, moved), sigma,
                    need_grads=True)[4]
        ig[~np.all(np.isfinite(ig), axis=1)] = 0.0
        step = np.sign(ig) if sign_mode else ig
        X = np.clip(X + (eps / steps) * step, X0 - eps, X0 + eps)
    return X


@st.composite
def attack_cases(draw):
    """A random net and batch: depth 0-3 hidden layers, 1-160 rows, tied or
    distinct times, all-censored batches (no comparable pair) included."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = draw(st.integers(1, 4))
    hidden = [draw(st.integers(1, 8))] * draw(st.integers(0, 3))
    net = random_net(rng, [d, *hidden, 1], slope=draw(st.floats(0.01, 0.9)),
                     scale=draw(st.sampled_from([0.5, 2.0])))
    n = draw(st.integers(1, 160))
    times = draw(st.sampled_from(["distinct", "tied", "censored"]))
    t = (rng.choice([0.5, 1.0, 2.0], size=n) if times == "tied"
         else rng.uniform(0.2, 3.0, size=n))
    e = (np.zeros(n, dtype=int) if times == "censored"
         else (rng.random(n) < 0.6).astype(int))
    batch = Batch(rng.normal(size=(n, d)), t, e)
    w = draw(st.sampled_from([None, 0.0, 2.0]))
    sigma = draw(st.sampled_from([1e-3, 1.0, 4.0]))  # 1e-3: eta overflows
    return net, batch, w, sigma


class TestAttackPath:
    @settings(max_examples=100, deadline=None)
    @given(attack_cases())
    def test_pair_loss_and_input_pass_equal_full_backward(self, case):
        net, batch, w, sigma = case
        with np.errstate(all="ignore"):
            G, caches = forward_batch(net, batch.X)
            w_val = 1.0 / len(batch) if w is None else w
            dG = _loss_grad(G, batch, w_val / sigma, sigma)[2]
            got = input_grads_batch(net, caches, dG)
            full = _clean_engine(net, batch, _resolve_w(w, batch), sigma,
                                 need_grads=True)[4]
            spelled = _written_out_input_grads(net, batch, w, sigma)
        assert got.tobytes() == full.tobytes()
        assert got.tobytes() == spelled.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(attack_cases(), st.integers(1, 10), st.booleans(),
           st.sampled_from([0.0, 0.05, 0.5]))
    def test_pgd_and_fgsm_equal_stepwise_full_gradients(self, case, steps,
                                                         sign_mode, eps):
        net, batch, w, sigma = case
        with np.errstate(all="ignore"):
            pgd = pgd_perturb(net, batch, eps, steps, w, sigma, sign_mode)
            fgsm = fgsm_perturb(net, batch, eps, w, sigma, sign_mode)
            want_pgd = _stepwise_pgd(net, batch, eps, steps, w, sigma,
                                     sign_mode)
            want_fgsm = _stepwise_pgd(net, batch, eps, 1, w, sigma, sign_mode)
        assert pgd.X.tobytes() == want_pgd.tobytes()
        assert fgsm.X.tobytes() == want_fgsm.tobytes()


@st.composite
def hoisted_attack_cases(draw):
    """Two batches on the same rows with different times, at covariates
    that hold +-0.0 and the ball's edges +-eps (where a bound of the ball
    is +-0.0), and a net that is random or linear_net(800.0), whose input
    gradients overflow to +-inf on some rows; all-censored or one-row
    batches have no pair plan."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    eps = draw(st.sampled_from([0.05, 0.5]))
    n = draw(st.integers(1, 40))
    overflow = draw(st.booleans())
    d = 1 if overflow else draw(st.integers(1, 3))
    net = (linear_net(800.0) if overflow
           else random_net(rng, [d, draw(st.integers(1, 6)), 1]))
    edge = np.array([0.0, -0.0, eps, -eps, 0.9, 1.0])
    X = np.where(rng.random((n, d)) < 0.5, rng.choice(edge, size=(n, d)),
                 rng.normal(size=(n, d)))
    e = (np.zeros(n, dtype=int) if draw(st.booleans())
         else (rng.random(n) < 0.6).astype(int))
    t_a, t_b = rng.uniform(0.2, 3.0, size=(2, n))
    w = draw(st.sampled_from([None, 2.0]))
    sigma = draw(st.sampled_from([1e-3, 1.0]))  # 1e-3: eta overflows
    return net, X, t_a, t_b, e, eps, w, sigma


def test_in_place_projection_equals_clip():
    # every (x, lo, hi) over signed zeros, infinities, NaN, the smallest
    # subnormals and +-0.5, +-1, inverted bounds included
    vals = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
            0.5, -0.5, 1.0, -1.0]
    x, lo, hi = (a.ravel() for a in np.meshgrid(vals, vals, vals))
    want = np.clip(x, lo, hi)
    got = losses._project(x.copy(), lo, hi)
    assert got.tobytes() == want.tobytes()


def _written_out_engine(net, batch, w_val, sigma, need_grads):
    # the written-out engine builds -t and -e from t and e itself
    return _written_out_clean_engine(net, batch, w_val, sigma)


@settings(max_examples=150, deadline=None)
@given(hoisted_attack_cases(), st.integers(1, 6), st.booleans())
def test_pgd_hoisted_constants_equal_stepwise_reference(case, steps,
                                                         sign_mode):
    # pgd_perturb builds -t at the plan's rows, -e and w / sigma once and
    # projects in place; the references build each step's gradient from a
    # fresh copy and clip with np.clip.  Two batches on the same rows with
    # different times, and a with_X copy, each get their own constants.
    net, X, t_a, t_b, e, eps, w, sigma = case
    batch_a, batch_b = Batch(X, t_a, e), Batch(X, t_b, e)
    X_moved = X[::-1].copy()
    runs = [(batch_a, Batch(X, t_a, e)), (batch_b, Batch(X, t_b, e)),
            (batch_a.with_X(X_moved), Batch(X_moved, t_a, e))]
    with np.errstate(all="ignore"):
        for attacked, fresh in runs:
            got = pgd_perturb(net, attacked, eps, steps, w, sigma, sign_mode)
            for engine in (_clean_engine, _written_out_engine):
                want = _stepwise_pgd(net, fresh, eps, steps, w, sigma,
                                     sign_mode, engine)
                assert got.X.tobytes() == want.tobytes()


def _written_out_clean_engine(net, batch, w_val, sigma):
    """_clean_engine's (neg_ll, rank, value, pgrads, igrads), with the pair
    formula written out here on the rows of the pair matrix that hold a
    pair, and the ranking value summed over them in one `eta.sum()`."""
    t, e = batch.t, batch.e
    G, caches = forward_batch(net, batch.X)
    lam = np.exp(G)
    A = (t[:, None] < t[None, :]) & (e[:, None] == 1)
    rows = np.flatnonzero(A.any(axis=1))
    S = np.exp(-np.outer(t[rows], lam))
    F_own = 1.0 - np.exp(-lam * t)
    eta = np.where(A[rows], np.exp(-(F_own[rows, None] - (1.0 - S)) / sigma),
                   0.0)
    neg_ll = float((-(e * G) + lam * t).sum())
    rank = float(eta.sum())
    D = t[rows, None] * lam[None, :] * S
    row_sums = np.zeros(len(t))
    row_sums[rows] = eta.sum(axis=1)
    dG = -e + lam * t
    dG = dG + (w_val / sigma) * ((0.0 + (eta * D).sum(axis=0))
                                 - t * lam * np.exp(-lam * t) * row_sums)
    return (neg_ll, rank, neg_ll + w_val * rank,
            *backward_batch(net, caches, dG))


@st.composite
def engine_cases(draw):
    """A random net, or an identity net whose scores are the inputs, on 1-160
    rows: tied or distinct times; mixed, all-event, no-event or one-event
    batches; and optionally one score of 709.5 (exp(G) * t overflows only
    for t > 1.32) or 800 (exp(G) overflows) in a column whose other rows
    may all be censored."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.just(1) | st.integers(1, 160))
    t = (rng.choice([0.5, 1.0, 2.0], size=n)
         if draw(st.booleans()) else rng.uniform(0.2, 3.0, size=n))
    events = draw(st.sampled_from(["mixed", "all", "none", "one"]))
    e = {"mixed": (rng.random(n) < 0.5).astype(int),
         "all": np.ones(n, dtype=int), "none": np.zeros(n, dtype=int),
         "one": (np.arange(n) == rng.integers(n)).astype(int)}[events]
    huge = draw(st.sampled_from([None, 709.5, 800.0]))
    if huge is None:
        d = draw(st.integers(1, 4))
        net = random_net(rng, [d, draw(st.integers(1, 8)), 1],
                         slope=draw(st.floats(0.01, 0.9)))
        X = rng.normal(size=(n, d))
    else:
        net = Network([1, 1], [np.array([[1.0]])], [np.array([0.0])])
        X = rng.normal(size=(n, 1))
        X[rng.integers(n), 0] = huge
    w = draw(st.sampled_from([None, 0.0, 2.0]))
    sigma = draw(st.sampled_from([1e-3, 1.0, 4.0]))  # 1e-3: eta overflows
    return net, Batch(X, t, e), (1.0 / n if w is None else w), sigma


@settings(max_examples=150, deadline=None)
@given(engine_cases())
def test_clean_engine_equals_written_out_formula(case):
    net, batch, w_val, sigma = case
    with np.errstate(all="ignore"):
        got = _clean_engine(net, batch, w_val, sigma, need_grads=True)
        value_only = _clean_engine(net, batch, w_val, sigma, need_grads=False)
        want = _written_out_clean_engine(net, batch, w_val, sigma)
    for g, v, w in zip(got[:3], value_only[:3], want[:3]):
        assert np.float64(g).tobytes() == np.float64(w).tobytes()
        assert np.float64(v).tobytes() == np.float64(w).tobytes()
    assert _grad_bytes(*got[3:]) == _grad_bytes(*want[3:])
    assert value_only[3:] == (None, None)


@settings(max_examples=100, deadline=None)
@given(engine_cases(), st.sampled_from([0.05, 0.5]))
def test_every_clean_value_is_the_clean_engine_value(case, eps):
    # One sum order: combined_loss, the kappa = 1 mix and the ranking term
    # at w = 0 read the clean engine's fields, so they agree bit for bit.
    net, batch, w_val, sigma = case
    with np.errstate(all="ignore"):
        _, rank, value, _, _ = _clean_engine(net, batch, w_val, sigma,
                                             need_grads=False)
        combined = combined_loss(net, batch, w_val, sigma)
        mixed = sawar_loss_grads(net, batch, eps, 1.0, w_val, sigma,
                                 need_grads=False)[0].total
        ranked = _clean_engine(net, batch, 0.0, sigma, need_grads=False)[1]
    assert np.float64(combined).tobytes() == np.float64(value).tobytes()
    assert np.float64(mixed).tobytes() == np.float64(value).tobytes()
    assert np.float64(ranked).tobytes() == np.float64(rank).tobytes()


@settings(max_examples=100, deadline=None)
@given(engine_cases())
def test_pair_plan_holds_the_nonzero_rows_of_the_pair_matrix(case):
    _, batch, _, _ = case
    t, e = batch.t, batch.e
    A = (t[:, None] < t[None, :]) & (e[:, None] == 1)
    pairs = batch.pairs
    assert np.array_equal(pairs.rows, np.flatnonzero(A.any(axis=1)))
    assert np.array_equal(pairs.A, A[pairs.rows])


def _out_of_place_pair_terms(G_own, G_cross, batch, sigma, need_grads):
    """`_pair_terms` at scores (not hazards) G_own and G_cross, written with
    one fresh array per expression, in the order of its plain formula; a
    column sum over no plan rows is +0.0."""
    t, (rows, A) = batch.t, batch.pairs
    lam_own = np.exp(G_own)
    lam_cross = np.exp(G_cross)
    tl = np.outer(t[rows], lam_cross)
    S = np.exp(-tl)
    S_own = np.exp(-lam_own * t)
    eta = np.where(A, np.exp(-((1.0 - S_own[rows])[:, None] - (1.0 - S))
                             / sigma), 0.0)
    if not need_grads:
        return eta, None, None, None
    row_sums = np.zeros(len(t))
    row_sums[rows] = eta.sum(axis=1)
    D = tl * S
    cross_sums = 0.0 + (D * eta).sum(axis=0)
    return eta, t * lam_own * S_own, row_sums, cross_sums


@st.composite
def pair_kernel_cases(draw):
    """Scores and a batch of 1-60 rows: tied, distinct or all-censored
    times; scores that may hold NaN, +-inf, -0.0, 709.5 (t * exp(G)
    overflows for t > 1.32) or 800 (exp(G) overflows); shared or distinct
    score vectors for the two members of a pair."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.just(1) | st.integers(1, 60))
    t = (rng.choice([0.5, 1.0, 2.0], size=n) if draw(st.booleans())
         else rng.uniform(0.2, 3.0, size=n))
    e = (np.zeros(n, dtype=int) if draw(st.booleans())
         else (rng.random(n) < 0.6).astype(int))
    G = rng.normal(size=n) * draw(st.sampled_from([1.0, 30.0]))
    odd = draw(st.lists(st.sampled_from(
        [np.nan, np.inf, -np.inf, -0.0, 709.5, 800.0]), max_size=3))
    G[rng.integers(n, size=len(odd))] = odd
    G_cross = G if draw(st.booleans()) else G + rng.normal(size=n)
    sigma = draw(st.sampled_from([1e-3, 1.0, 4.0]))  # 1e-3: eta overflows
    return G, G_cross, Batch(np.zeros((n, 1)), t, e), sigma


@settings(max_examples=300, deadline=None)
@given(pair_kernel_cases(), st.booleans())
def test_pair_kernel_equals_out_of_place_formula(case, need_grads):
    G, G_cross, batch, sigma = case
    with np.errstate(over="ignore", invalid="ignore"):
        got = _pair_terms(np.exp(G) * batch.t, np.exp(G_cross), batch,
                          sigma, need_grads)
        want = _out_of_place_pair_terms(G, G_cross, batch, sigma, need_grads)
    exact = not (np.isnan(G).any() or np.isnan(G_cross).any())
    for g, w in zip(got, want):
        assert equal_but_nan_sign(g, w)
        # only a NaN score can flip a NaN's sign
        assert not exact or w is None or g.tobytes() == w.tobytes()


def test_a_later_censored_record_leaves_a_finite_gradient_finite():
    # Record 2 is censored and latest, so it is on no pair's earlier side,
    # and 3 * exp(709) overflows where the plan rows' 0.5 * exp(709) and
    # 1.0 * exp(709) do not.  No pair has record 0 as its later member, so
    # its column of the pair terms is 0 and its gradient is the likelihood
    # term's alone: finite, and an update adam_step applies.
    batch = Batch(np.array([[1.0], [0.0], [0.0]]), np.array([0.5, 1.0, 3.0]),
                  np.array([1, 1, 0]))
    net = linear_net(709.0)
    G = forward_batch(net, batch.X)[0]
    want = -1.0 + np.exp(709.0) * 0.5
    with np.errstate(over="ignore", invalid="ignore"):
        dG = _loss_grad(G, batch, 1.0 / 3.0, 1.0)[2]
        dub = _certified_terms(G - 0.1, G, batch, 1.0 / 3.0, 1.0)[2]
        pgrads = _clean_engine(net, batch, 1.0 / 3.0, 1.0, need_grads=True)[3]
    assert np.isfinite(dG).all() and dG[0] == want
    assert np.isfinite(dub).all() and dub[0] == want
    with np.errstate(over="ignore"):  # Adam squares the gradient
        adam_step(init_adam(net), net, pgrads)


def _full_matrix_pair_terms(lam_t_own, lam_cross, batch, sigma,
                            need_grads=True):
    """The pair kernel with the earlier ranking sum order and stand-in: eta
    put back into the full (batch x batch) matrix, whose eta.sum() every
    caller takes, and cross_sums with 0 * (t.max() * lambda_j) added, NaN
    where that product overflows."""
    eta, D_own, row_sums, cross_sums = _pair_terms(lam_t_own, lam_cross,
                                                   batch, sigma, need_grads)
    t = batch.t
    full = np.zeros((len(t), len(t)))
    full[batch.pairs.rows] = eta
    if need_grads:
        cross_sums = 0.0 * (t.max() * lam_cross) + cross_sums
    return full, D_own, row_sums, cross_sums


@pytest.mark.parametrize("method", ["sawar", "pgd"])
@pytest.mark.parametrize("name", ["stagec", "zinc"])
def test_training_does_not_depend_on_the_ranking_sum_order(name, method,
                                                           monkeypatch):
    # 45 epochs run past the warmup and through the radius ramp; zinc's
    # last training batch has 3 rows.  The ranking value only enters the
    # report, so the weights and the best epoch keep their bytes and the
    # report's values move in their last bits at most.
    split = stratified_split(load_csv(os.path.join(DATA_DIR, f"{name}.csv")),
                             seed=0)
    config = TrainConfig(method=method, max_epochs=45)

    def run():
        net, report = train(config, split)
        return (net.flat.tobytes(), report.best_epoch,
                np.array([astuple(row) for row in report.rows]))

    compact = run()
    monkeypatch.setattr(losses, "_pair_terms", _full_matrix_pair_terms)
    full = run()
    assert compact[:2] == full[:2]
    np.testing.assert_allclose(compact[2], full[2], rtol=1e-12, atol=0.0)
    assert len(compact[2]) == 45


def _overflowing_nets():
    """Nets whose scores are finite but exp(score) overflows: a single
    affine layer, and a hidden layer under an output layer, each with its
    weights (the output layer's only, for the second) times 1e300."""
    rng = np.random.default_rng(8)
    single = random_net(rng, [3, 1])
    deep = random_net(rng, [3, 4, 1])
    single.weights[0] *= 1e300
    deep.weights[-1] *= 1e300
    return {"single": single, "deep": deep}


@pytest.mark.parametrize("net_name", ["single", "deep"])
@pytest.mark.parametrize("sigma", [1e-3, 1.0])
@pytest.mark.parametrize("call", [
    lambda net, b, s: _ll_term(forward_batch(net, b.X)[0], b.t, b.e),
    lambda net, b, s: _clean_engine(net, b, 0.0, s, need_grads=False),
    lambda net, b, s: combined_loss(net, b, sigma=s),
    lambda net, b, s: certified_upper_loss_grads(net, b, 0.1, sigma=s,
                                                 need_grads=False),
    lambda net, b, s: sawar_loss_grads(net, b, 0.1, sigma=s, need_grads=False),
    lambda net, b, s: pgd_perturb(net, b, 0.1, 3, sigma=s),
    lambda net, b, s: pgd_perturb(net, b, 0.1, 3, sigma=s, sign_mode=True),
    lambda net, b, s: fgsm_perturb(net, b, 0.1, sigma=s),
], ids=["loglik", "rank_loss", "combined_loss", "certified_upper_loss",
        "sawar_loss", "pgd_perturb", "pgd_perturb_sign", "fgsm_perturb"])
def test_overflowing_scores_raise_no_warning(call, sigma, net_name):
    # pytest makes a RuntimeWarning an error: each public loss and attack
    # holds the errstate its pair kernel and gradients need
    net = _overflowing_nets()[net_name]
    rng = np.random.default_rng(9)
    batch = random_batch(rng, 40, 3)
    G, _ = forward_batch(net, batch.X)
    assert np.isfinite(G).all() and G.max() > 710.0  # exp(710) overflows
    call(net, batch, sigma)


class TestNoise:
    def test_eps_zero_unchanged(self):
        rng = np.random.default_rng(10)
        batch = random_batch(rng, 4, 2)
        out = noise_perturb(batch, 0.0, 0)
        assert np.array_equal(out.X, batch.X)

    def test_ball_containment(self):
        rng = np.random.default_rng(11)
        batch = random_batch(rng, 50, 3)
        out = noise_perturb(batch, 0.05, 42)
        assert np.all(np.abs(out.X - batch.X) <= 0.05 + 1e-12)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(12)
        batch = random_batch(rng, 5, 2)
        a = noise_perturb(batch, 0.3, 7)
        b = noise_perturb(batch, 0.3, 7)
        assert np.array_equal(a.X, b.X)

    def test_unclipped_scale_is_sqrt_eps(self):
        # eps = 4: sqrt(eps) = 2, clipping at 4 = 2 sigma keeps most mass;
        # use the unclipped fraction only.
        eps = 4.0
        batch = Batch(np.zeros((100_000, 1)), np.ones(100_000),
                      np.zeros(100_000, dtype=int))
        out = noise_perturb(batch, eps, 3)
        deltas = out.X[:, 0]
        interior = deltas[np.abs(deltas) < eps - 1e-9]
        # std of a truncated normal at 2 sigma, correction factor ~0.8796
        from scipy.stats import truncnorm
        expected = np.sqrt(eps) * truncnorm.std(-2, 2)
        assert np.std(interior) == pytest.approx(expected, rel=0.05)


class TestCertifiedUpper:
    def test_eps_zero_equals_combined(self):
        rng = np.random.default_rng(13)
        net = random_net(rng, [2, 4, 1])
        batch = random_batch(rng, 5, 2)
        cert = certified_upper_loss_grads(net, batch, 0.0, need_grads=False)[0]
        assert cert == pytest.approx(combined_loss(net, batch), abs=1e-9)

    def test_single_censored_linear_exact(self):
        # one censored record, G(x) = x: the loss is exp(x) * t, maximized
        # at the upper bound x + eps, and linear bounds are exact.
        net = linear_net(1.0, 0.0)
        t = 1.7
        batch = Batch(np.zeros((1, 1)), [t], [0])
        for eps in (0.1, 0.5):
            got = certified_upper_loss_grads(net, batch, eps, w=0.0,
                                             need_grads=False)[0]
            assert got == pytest.approx(np.exp(eps) * t, rel=1e-12)

    def test_dominates_samples_and_corners(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            net = random_net(rng, [2, 5, 1])
            batch = random_batch(rng, 4, 2)
            for eps in (0.1, 0.5):
                cert = certified_upper_loss_grads(net, batch, eps,
                                                  need_grads=False)[0]
                worst = combined_loss(net, batch)
                for _ in range(2000):
                    delta = rng.uniform(-eps, eps, size=batch.X.shape)
                    worst = max(worst, combined_loss(
                        net, batch.with_X(batch.X + delta)))
                corners = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]],
                                   dtype=float)
                for c in corners:
                    worst = max(worst, combined_loss(
                        net, batch.with_X(batch.X + eps * c)))
                assert cert >= worst - 1e-9

    def test_nondecreasing_in_eps(self):
        rng = np.random.default_rng(15)
        net = random_net(rng, [3, 4, 1])
        batch = random_batch(rng, 6, 3)
        vals = [certified_upper_loss_grads(net, batch, eps, need_grads=False)[0]
                for eps in (0.0, 0.1, 0.2, 0.4, 0.8)]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_sandwich_clean_pgd_certified(self):
        # On a censored linear toy the attacked loss provably ascends, so
        # clean <= attacked <= certified bound.
        net = linear_net(1.0, 0.0)
        batch = Batch(np.zeros((3, 1)), [1.0, 2.0, 0.5], [0, 0, 0])
        for eps in (0.1, 0.5):
            clean = combined_loss(net, batch)
            attacked = combined_loss(net, pgd_perturb(net, batch, eps, 5))
            cert = certified_upper_loss_grads(net, batch, eps,
                                              need_grads=False)[0]
            assert clean <= attacked + 1e-12
            assert attacked <= cert + 1e-9


class TestSawar:
    def test_kappa_one_is_clean(self):
        rng = np.random.default_rng(16)
        net = random_net(rng, [2, 4, 1])
        batch = random_batch(rng, 5, 2)
        bd = sawar_loss_grads(net, batch, 0.3, kappa=1.0, need_grads=False)[0]
        assert (np.float64(bd.total).tobytes()
                == np.float64(combined_loss(net, batch)).tobytes())

    def test_kappa_zero_is_certified(self):
        rng = np.random.default_rng(17)
        net = random_net(rng, [2, 4, 1])
        batch = random_batch(rng, 5, 2)
        bd = sawar_loss_grads(net, batch, 0.3, kappa=0.0, need_grads=False)[0]
        cert = certified_upper_loss_grads(net, batch, 0.3, need_grads=False)[0]
        assert bd.total == pytest.approx(cert, rel=1e-12)

    def test_half_mix(self):
        rng = np.random.default_rng(18)
        net = random_net(rng, [2, 4, 1])
        batch = random_batch(rng, 5, 2)
        bd = sawar_loss_grads(net, batch, 0.3, kappa=0.5, need_grads=False)[0]
        a = combined_loss(net, batch)
        b = certified_upper_loss_grads(net, batch, 0.3, need_grads=False)[0]
        assert bd.total == pytest.approx(0.5 * (a + b), rel=1e-12)
        assert bd.certified_upper >= bd.clean_combined - 1e-9

    @pytest.mark.parametrize("eps", [2.0, 1e-3])
    def test_kappa_one_is_the_clean_engine_bit_for_bit(self, eps):
        # At eps=2 the certified bound overflows to +inf; its weight of 0
        # must not turn the finite clean objective into NaN.
        net = Network([1, 2, 1], [np.array([[30.0], [-30.0]]),
                                  np.array([[20.0, 20.0]])],
                      [np.zeros(2), np.zeros(1)])
        batch = Batch(np.array([[0.01], [-0.01], [0.02]]), [1.0, 2.0, 3.0],
                      [1, 0, 1])
        bd, pgrads, igrads = sawar_loss_grads(net, batch, eps, kappa=1.0)
        neg_ll, rank, clean, clean_pg, clean_ig = _clean_engine(
            net, batch, 1.0 / 3, 1.0, need_grads=True)
        assert (np.isinf(bd.certified_upper) if eps == 2.0
                else np.isfinite(bd.certified_upper))
        assert (bd.neg_ll, bd.rank, bd.clean_combined) == (neg_ll, rank, clean)
        assert np.float64(bd.total).tobytes() == np.float64(clean).tobytes()
        assert _grad_bytes(pgrads, igrads) == _grad_bytes(clean_pg, clean_ig)

    def test_kappa_zero_is_the_certified_loss_bit_for_bit(self):
        rng = np.random.default_rng(20)
        net = random_net(rng, [2, 4, 1])
        batch = random_batch(rng, 6, 2)
        bd, pgrads, igrads = sawar_loss_grads(net, batch, 0.3, kappa=0.0)
        cert, cert_pg, cert_ig = certified_upper_loss_grads(net, batch, 0.3)
        assert np.float64(bd.total).tobytes() == np.float64(cert).tobytes()
        assert _grad_bytes(pgrads, igrads) == _grad_bytes(cert_pg, cert_ig)

    @pytest.mark.parametrize("kappa", [0.25, 0.5, 0.9])
    def test_mix_equals_a_zero_started_sum(self, kappa):
        rng = np.random.default_rng(21)
        net = random_net(rng, [3, 5, 4, 1])
        batch = random_batch(rng, 9, 3)
        _, pgrads, igrads = sawar_loss_grads(net, batch, 0.2, kappa=kappa)
        clean_pg, clean_ig = _clean_engine(net, batch, 1.0 / 9, 1.0,
                                           need_grads=True)[3:]
        _, cert_pg, cert_ig = certified_upper_loss_grads(net, batch, 0.2)
        want = ParamGrads.zeros_like(net)
        want.add_scaled(clean_pg, kappa)
        want.add_scaled(cert_pg, 1.0 - kappa)
        assert _grad_bytes(pgrads, igrads) == _grad_bytes(
            want, kappa * clean_ig + (1.0 - kappa) * cert_ig)

    def test_invalid_kappa(self):
        net = linear_net(1.0)
        batch = Batch(np.zeros((1, 1)), [1.0], [0])
        with pytest.raises(ValueError):
            sawar_loss_grads(net, batch, 0.1, kappa=1.5)


def _grad_bytes(pgrads, igrads):
    return [a.tobytes() for a in (*pgrads.weights, *pgrads.biases, igrads)]


def _fd_wrt_params(fn, net, rng, n_probe, h=1e-5):
    """Sample parameter coordinates and return (fd, analytic) pairs."""
    pairs = []
    for _ in range(n_probe):
        k = int(rng.integers(net.n_layers))
        W = net.weights[k]
        i = int(rng.integers(W.shape[0]))
        j = int(rng.integers(W.shape[1]))
        W[i, j] += h
        fp = fn()
        W[i, j] -= 2 * h
        fm = fn()
        W[i, j] += h
        pairs.append(((fp - fm) / (2 * h), ("w", k, i, j)))
    return pairs


class TestGradients:
    @pytest.mark.parametrize("which", ["combined", "certified", "sawar"])
    def test_param_and_input_grads_match_fd(self, which):
        rng = np.random.default_rng(19)
        h = 1e-5
        for _ in range(20):
            net = random_net(rng, [2, 4, 1])
            batch = random_batch(rng, 4, 2)
            eps = 0.2
            if which == "combined":
                fn = lambda: combined_loss(net, batch)
                pg, ig = _clean_engine(net, batch, 1.0 / 4, 1.0,
                                       need_grads=True)[3:]
            elif which == "certified":
                fn = lambda: certified_upper_loss_grads(
                    net, batch, eps, need_grads=False)[0]
                _, pg, ig = certified_upper_loss_grads(net, batch, eps)
            else:
                def fn():
                    bd, _, _ = sawar_loss_grads(net, batch, eps,
                                                need_grads=False)
                    return bd.total
                _, pg, ig = sawar_loss_grads(net, batch, eps)
            for fd, (_, k, i, j) in _fd_wrt_params(fn, net, rng, 4, h):
                got = pg.weights[k][i, j]
                assert abs(fd - got) <= max(1e-4 * abs(fd), 1e-6)
            r = int(rng.integers(len(batch)))
            c = int(rng.integers(2))
            batch.X[r, c] += h
            fp = fn()
            batch.X[r, c] -= 2 * h
            fm = fn()
            batch.X[r, c] += h
            fd = (fp - fm) / (2 * h)
            assert abs(fd - ig[r, c]) <= max(1e-4 * abs(fd), 1e-6)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 60),
       st.sampled_from([0.0, 0.3, 2.0]))
def test_value_only_certified_loss_keeps_its_bits(seed, n, eps):
    rng = np.random.default_rng(seed)
    net = random_net(rng, [3, 6, 1])
    batch = random_batch(rng, n, 3)
    want, _, _ = certified_upper_loss_grads(net, batch, eps)
    got, pgrads, igrads = certified_upper_loss_grads(net, batch, eps,
                                                     need_grads=False)
    assert pgrads is None and igrads is None
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    full, _, _ = sawar_loss_grads(net, batch, eps)
    assert sawar_loss_grads(net, batch, eps, need_grads=False)[0] == full
