import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from certsurv.losses import (Batch, _clean_engine, _loss_grad,
                             certified_upper_loss,
                             certified_upper_loss_grads, combined_loss,
                             combined_loss_grads, fgsm_perturb, loglik,
                             noise_perturb, pgd_perturb, rank_loss,
                             sawar_loss, sawar_loss_grads)
from certsurv.network import (Network, ParamGrads, backward_batch,
                              forward_batch, input_grads_batch)
from certsurv.survival import log_pdf, log_survival

from conftest import random_batch, random_net


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
        assert loglik(linear_net(1.0, 0.0), batch) == pytest.approx(-t.sum())

    def test_single_event(self):
        batch = identity_batch([1.0], [1])
        assert loglik(linear_net(1.0, 0.0), batch) == pytest.approx(-1.0)

    def test_mixed_matches_per_record_sum(self):
        rng = np.random.default_rng(0)
        net = random_net(rng, [2, 4, 1])
        batch = random_batch(rng, 5, 2)
        from certsurv.network import forward
        expected = 0.0
        for i in range(5):
            G = forward(net, batch.X[i])
            if batch.e[i] == 1:
                expected += log_pdf(G, batch.t[i])
            else:
                expected += log_survival(G, batch.t[i])
        assert loglik(net, batch) == pytest.approx(expected, rel=1e-12)


class TestRankLoss:
    def test_no_comparable_pairs(self):
        batch = identity_batch([1.0, 2.0], [0, 0])
        assert rank_loss(linear_net(1.0), batch) == 0.0

    def test_equal_cdfs_give_unit_term(self):
        # identical covariates: F(t1|x1) == F(t1|x2), one comparable pair
        batch = identity_batch([1.0, 2.0], [1, 0])
        assert rank_loss(linear_net(1.0, 0.3), batch) == pytest.approx(1.0)

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(1)
        net = random_net(rng, [2, 3, 1])
        batch = random_batch(rng, 6, 2)
        from certsurv.network import forward
        sigma = 1.0
        expected = 0.0
        for i in range(6):
            for j in range(6):
                if i == j or not (batch.t[i] < batch.t[j] and batch.e[i] == 1):
                    continue
                Gi = forward(net, batch.X[i])
                Gj = forward(net, batch.X[j])
                Fi = 1 - np.exp(-np.exp(Gi) * batch.t[i])
                Fj = 1 - np.exp(-np.exp(Gj) * batch.t[i])
                expected += np.exp(-(Fi - Fj) / sigma)
        assert rank_loss(net, batch, sigma) == pytest.approx(expected, rel=1e-12)

    def test_nonnegative_and_zero_iff_no_pairs(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            net = random_net(rng, [2, 3, 1])
            batch = random_batch(rng, 5, 2)
            val = rank_loss(net, batch)
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
        assert combined_loss(net, batch, w=0.0) == pytest.approx(
            -loglik(net, batch), rel=1e-12
        )

    def test_w_one_is_sum(self):
        rng = np.random.default_rng(4)
        net = random_net(rng, [2, 3, 1])
        batch = random_batch(rng, 5, 2)
        assert combined_loss(net, batch, w=1.0) == pytest.approx(
            -loglik(net, batch) + rank_loss(net, batch), rel=1e-12
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


def _stepwise_pgd(net, batch, eps, steps, w, sigma, sign_mode):
    """Projected gradient ascent that takes every step's input gradient
    from combined_loss_grads (parameter gradients included)."""
    if eps == 0.0:
        return batch.X
    X0 = batch.X
    X = X0.copy()
    for _ in range(steps):
        _, _, ig = combined_loss_grads(net, batch.with_X(X), w, sigma)
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
            _, dG = _loss_grad(G, batch, w_val, sigma)
            got = input_grads_batch(net, caches, dG)
            full = combined_loss_grads(net, batch, w, sigma)[2]
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


def _written_out_clean_engine(net, batch, w_val, sigma):
    """_clean_engine's (neg_ll, rank, value, pgrads, igrads), with the full
    (batch x batch) pair formula written out here."""
    t, e = batch.t, batch.e
    G, caches = forward_batch(net, batch.X)
    lam = np.exp(G)
    S = np.exp(-np.outer(t, lam))
    F = 1.0 - S
    A = (t[:, None] < t[None, :]) & (e[:, None] == 1)
    eta = np.where(A, np.exp(-(np.diag(F)[:, None] - F) / sigma), 0.0)
    neg_ll = float((-(e * G) + lam * t).sum())
    rank = float(eta.sum())
    D = t[:, None] * lam[None, :] * S
    dG = -e + lam * t
    dG = dG + (w_val / sigma) * ((eta * D).sum(axis=0)
                                 - np.diag(D) * eta.sum(axis=1))
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
def test_clean_engine_equals_written_out_full_matrix(case):
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
    # One sum order: combined_loss, rank_loss and the kappa = 1 mix read
    # the clean engine's fields, so they agree bit for bit.
    net, batch, w_val, sigma = case
    with np.errstate(all="ignore"):
        _, rank, value, _, _ = _clean_engine(net, batch, w_val, sigma,
                                             need_grads=False)
        combined = combined_loss(net, batch, w_val, sigma)
        mixed = sawar_loss(net, batch, eps, 1.0, w_val, sigma).total
        ranked = rank_loss(net, batch, sigma)
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
        assert certified_upper_loss(net, batch, 0.0) == pytest.approx(
            combined_loss(net, batch), abs=1e-9
        )

    def test_single_censored_linear_exact(self):
        # one censored record, G(x) = x: the loss is exp(x) * t, maximized
        # at the upper bound x + eps, and linear bounds are exact.
        net = linear_net(1.0, 0.0)
        t = 1.7
        batch = Batch(np.zeros((1, 1)), [t], [0])
        for eps in (0.1, 0.5):
            got = certified_upper_loss(net, batch, eps, w=0.0)
            assert got == pytest.approx(np.exp(eps) * t, rel=1e-12)

    def test_dominates_samples_and_corners(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            net = random_net(rng, [2, 5, 1])
            batch = random_batch(rng, 4, 2)
            for eps in (0.1, 0.5):
                cert = certified_upper_loss(net, batch, eps)
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
        vals = [certified_upper_loss(net, batch, eps)
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
            cert = certified_upper_loss(net, batch, eps)
            assert clean <= attacked + 1e-12
            assert attacked <= cert + 1e-9


class TestSawar:
    def test_kappa_one_is_clean(self):
        rng = np.random.default_rng(16)
        net = random_net(rng, [2, 4, 1])
        batch = random_batch(rng, 5, 2)
        bd = sawar_loss(net, batch, 0.3, kappa=1.0)
        assert (np.float64(bd.total).tobytes()
                == np.float64(combined_loss(net, batch)).tobytes())

    def test_kappa_zero_is_certified(self):
        rng = np.random.default_rng(17)
        net = random_net(rng, [2, 4, 1])
        batch = random_batch(rng, 5, 2)
        bd = sawar_loss(net, batch, 0.3, kappa=0.0)
        assert bd.total == pytest.approx(
            certified_upper_loss(net, batch, 0.3), rel=1e-12
        )

    def test_half_mix(self):
        rng = np.random.default_rng(18)
        net = random_net(rng, [2, 4, 1])
        batch = random_batch(rng, 5, 2)
        bd = sawar_loss(net, batch, 0.3, kappa=0.5)
        a = combined_loss(net, batch)
        b = certified_upper_loss(net, batch, 0.3)
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
        _, clean_pg, clean_ig = combined_loss_grads(net, batch)
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
            sawar_loss(net, batch, 0.1, kappa=1.5)


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
                _, pg, ig = combined_loss_grads(net, batch)
            elif which == "certified":
                fn = lambda: certified_upper_loss(net, batch, eps)
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
    assert sawar_loss(net, batch, eps) == full
