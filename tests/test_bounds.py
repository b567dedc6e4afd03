from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from certsurv.bounds import (PerturbationSet, ScalarBounds,
                             _interval_forward, _relaxation, crown_ibp_batch,
                             crown_ibp_batch_tape, crown_ibp_batch_vjp,
                             crown_ibp_bounds, ibp_bounds, worst_case_hazard)
from certsurv.losses import (Batch, _certified_terms, certified_upper_loss,
                             certified_upper_loss_grads, fgsm_perturb,
                             noise_perturb, pgd_perturb, sawar_loss)
from certsurv.network import (Network, ParamGrads, forward, forward_batch,
                              leaky_relu_grad)

from conftest import random_batch, random_net


def corner_grid_extrema(net, center, eps, n_grid=101):
    """Brute-force min/max of the output over a 2-d ball: corners + grid."""
    lin = np.linspace(-eps, eps, n_grid)
    gx, gy = np.meshgrid(lin, lin)
    pts = center[None, :] + np.column_stack([gx.ravel(), gy.ravel()])
    corners = center[None, :] + eps * np.array(
        [[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float
    )
    vals, _ = forward_batch(net, np.vstack([pts, corners]))
    return vals.min(), vals.max()


class TestPerturbationSet:
    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            PerturbationSet(np.zeros(2), -0.1)

    def test_nonfinite_center_rejected(self):
        with pytest.raises(ValueError):
            PerturbationSet(np.array([np.inf, 0.0]), 0.1)

    def test_bounds_ordering_enforced(self):
        with pytest.raises(ValueError):
            ScalarBounds(1.0, 0.0)


class TestIbp:
    def test_single_layer_radius(self):
        net = Network([2, 1], [np.array([[1.0, -2.0]])], [np.array([0.5])])
        sb, layer = ibp_bounds(net, PerturbationSet(np.zeros(2), 0.1))
        assert sb.lb == pytest.approx(0.2, abs=1e-12)
        assert sb.ub == pytest.approx(0.8, abs=1e-12)
        assert layer.lower[-1][0] == sb.lb

    def test_eps_zero_collapses_to_forward(self):
        rng = np.random.default_rng(0)
        net = random_net(rng, [3, 6, 1])
        x = rng.normal(size=3)
        sb, _ = ibp_bounds(net, PerturbationSet(x, 0.0))
        g = forward(net, x)
        assert sb.lb == pytest.approx(g, abs=1e-12)
        assert sb.ub == pytest.approx(g, abs=1e-12)

    def test_contains_corner_and_sample_extrema(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            net = random_net(rng, [2, 4, 4, 1])
            x = rng.normal(size=2)
            vmin, vmax = corner_grid_extrema(net, x, 0.25)
            samples = x[None, :] + rng.uniform(-0.25, 0.25, size=(10_000, 2))
            svals, _ = forward_batch(net, samples)
            sb, _ = ibp_bounds(net, PerturbationSet(x, 0.25))
            assert sb.lb <= min(vmin, svals.min()) + 1e-9
            assert sb.ub >= max(vmax, svals.max()) - 1e-9

    def test_dimension_mismatch(self):
        net = Network([2, 1], [np.array([[1.0, -2.0]])], [np.array([0.5])])
        with pytest.raises(Exception):
            ibp_bounds(net, PerturbationSet(np.zeros(3), 0.1))


class TestCrownIbp:
    def test_purely_linear_net_equals_ibp(self):
        # No activation layers at all: both propagators reduce to the same
        # center/radius formula.
        net = Network([2, 1], [np.array([[1.5, -0.5]])], [np.array([0.2])])
        pset = PerturbationSet(np.array([0.3, -0.1]), 0.25)
        ib, _ = ibp_bounds(net, pset)
        cb = crown_ibp_bounds(net, pset)
        assert cb.lb == pytest.approx(ib.lb, abs=1e-12)
        assert cb.ub == pytest.approx(ib.ub, abs=1e-12)

    def test_stable_activations_give_exact_linear_bounds(self):
        # All pre-activations provably positive at small radius: the
        # relaxation is slope-1 everywhere, so the refined bound equals
        # the exact extremum of the equivalent affine map (and the
        # interval bound can only be looser).
        W1 = np.array([[1.0, 0.5], [0.25, 1.0]])
        b1 = np.array([10.0, 10.0])  # force the active branch
        W2 = np.array([[1.0, -1.0]])
        b2 = np.array([0.0])
        net = Network([2, 2, 1], [W1, W2], [b1, b2])
        eps = 0.05
        pset = PerturbationSet(np.zeros(2), eps)
        cb = crown_ibp_bounds(net, pset)
        ib, _ = ibp_bounds(net, pset)
        eff_W = (W2 @ W1)[0]
        eff_b = float((W2 @ b1 + b2)[0])
        assert cb.ub == pytest.approx(eff_b + eps * np.abs(eff_W).sum(), abs=1e-12)
        assert cb.lb == pytest.approx(eff_b - eps * np.abs(eff_W).sum(), abs=1e-12)
        assert cb.ub <= ib.ub + 1e-12 and cb.lb >= ib.lb - 1e-12

    def test_eps_zero_collapse(self):
        rng = np.random.default_rng(3)
        net = random_net(rng, [3, 7, 1])
        x = rng.normal(size=3)
        cb = crown_ibp_bounds(net, PerturbationSet(x, 0.0))
        g = forward(net, x)
        assert abs(cb.ub - cb.lb) <= 1e-12
        assert cb.lb == pytest.approx(g, abs=1e-12)

    def test_sound_and_no_looser_than_ibp(self):
        rng = np.random.default_rng(4)
        for trial in range(200):
            net = random_net(rng, [2, 8, 1])
            x = rng.normal(size=2)
            for eps in (0.01, 0.1, 0.5):
                pset = PerturbationSet(x, eps)
                ib, _ = ibp_bounds(net, pset)
                cb = crown_ibp_bounds(net, pset)
                vmin, vmax = corner_grid_extrema(net, x, eps)
                assert cb.ub <= ib.ub + 1e-9
                assert cb.lb >= ib.lb - 1e-9
                assert cb.lb <= vmin + 1e-9
                assert cb.ub >= vmax - 1e-9

    def test_monotone_in_radius(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            net = random_net(rng, [3, 6, 6, 1])
            x = rng.normal(size=3)
            prev = None
            for eps in (0.0, 0.05, 0.1, 0.2, 0.4, 0.8):
                cb = crown_ibp_bounds(net, PerturbationSet(x, eps))
                if prev is not None:
                    assert cb.lb <= prev.lb + 1e-9
                    assert cb.ub >= prev.ub - 1e-9
                prev = cb

    def test_batch_matches_single(self):
        rng = np.random.default_rng(6)
        net = random_net(rng, [3, 5, 1])
        X = rng.normal(size=(4, 3))
        lb, ub = crown_ibp_batch(net, X, 0.2)
        for i in range(4):
            cb = crown_ibp_bounds(net, PerturbationSet(X[i], 0.2))
            assert cb.lb == pytest.approx(lb[i], abs=1e-12)
            assert cb.ub == pytest.approx(ub[i], abs=1e-12)


class TestWorstCaseHazard:
    def test_zero_radius_zero_score(self):
        net = Network([1, 1], [np.array([[1.0]])], [np.array([0.0])])
        assert worst_case_hazard(net, PerturbationSet(np.zeros(1), 0.0)) == 1.0

    def test_linear_exact(self):
        net = Network([1, 1], [np.array([[1.0]])], [np.array([0.0])])
        wc = worst_case_hazard(net, PerturbationSet(np.zeros(1), 0.3))
        assert wc == pytest.approx(np.exp(0.3), rel=1e-12)

    def test_dominates_sampled_hazards(self):
        rng = np.random.default_rng(7)
        net = random_net(rng, [2, 5, 1])
        x = rng.normal(size=2)
        eps = 0.4
        samples = x[None, :] + rng.uniform(-eps, eps, size=(10_000, 2))
        vals, _ = forward_batch(net, samples)
        wc = worst_case_hazard(net, PerturbationSet(x, eps))
        assert wc >= np.exp(vals).max()

    def test_overflow_sentinel(self):
        net = Network([1, 1], [np.array([[1000.0]])], [np.array([800.0])])
        wc = worst_case_hazard(net, PerturbationSet(np.zeros(1), 1.0))
        assert np.isinf(wc)


_RADIUS_ENTRY_POINTS = {
    "PerturbationSet": lambda net, b, eps: PerturbationSet(b.X[0], eps),
    "crown_ibp_batch": lambda net, b, eps: crown_ibp_batch(net, b.X, eps),
    "crown_ibp_batch_tape":
        lambda net, b, eps: crown_ibp_batch_tape(net, b.X, eps),
    "pgd_perturb": lambda net, b, eps: pgd_perturb(net, b, eps, 3),
    "fgsm_perturb": lambda net, b, eps: fgsm_perturb(net, b, eps),
    "noise_perturb": lambda net, b, eps: noise_perturb(b, eps, 0),
    "certified_upper_loss":
        lambda net, b, eps: certified_upper_loss(net, b, eps),
    "certified_upper_loss_grads":
        lambda net, b, eps: certified_upper_loss_grads(net, b, eps),
    "sawar_loss": lambda net, b, eps: sawar_loss(net, b, eps),
}


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), -1.0])
@pytest.mark.parametrize("entry", sorted(_RADIUS_ENTRY_POINTS))
def test_bad_radius_rejected(entry, eps):
    rng = np.random.default_rng(8)
    net = random_net(rng, [2, 3, 1])
    batch = random_batch(rng, 4, 2)
    with pytest.raises(ValueError, match="radius"):
        _RADIUS_ENTRY_POINTS[entry](net, batch, eps)


# Reference copies of the bound engine as it was written with two mirrored
# chains (an upper and a lower one).  `lower_pos` decides which line the
# lower chain takes: np.greater_equal puts an exactly-zero coefficient on the
# lower line, np.greater on the upper line.

def _two_chain_backward_pass(net, X, eps, up_slope, up_icpt, low_slope,
                             lower_pos):
    I = X.shape[0]
    L = net.n_layers
    W_out, b_out = net.weights[-1], net.biases[-1]
    AU = np.broadcast_to(W_out[0], (I, W_out.shape[1])).copy()
    AL = AU.copy()
    dU = np.full(I, b_out[0])
    dL = dU.copy()
    stages_u, stages_l = [], []
    for k in range(L - 2, -1, -1):
        W, b = net.weights[k], net.biases[k]
        stages_u.append(AU)
        posU = AU >= 0.0
        lamU = np.where(posU, up_slope[k], low_slope[k])
        muU = np.where(posU, up_icpt[k], 0.0)
        dU = dU + (AU * muU).sum(axis=1)
        BU = AU * lamU
        AU = BU @ W
        dU = dU + BU @ b

        stages_l.append(AL)
        posL = lower_pos(AL, 0.0)
        lamL = np.where(posL, low_slope[k], up_slope[k])
        muL = np.where(posL, 0.0, up_icpt[k])
        dL = dL + (AL * muL).sum(axis=1)
        BL = AL * lamL
        AL = BL @ W
        dL = dL + BL @ b
    ub = (AU * X).sum(axis=1) + eps * np.abs(AU).sum(axis=1) + dU
    lb = (AL * X).sum(axis=1) - eps * np.abs(AL).sum(axis=1) + dL
    return lb, ub, stages_u, stages_l, AU, AL


def _two_chain_tape(net, X, eps, lower_pos):
    lows, ups, centers, radii = _interval_forward(net, X, eps)
    up_slope, up_icpt, low_slope, crossing = _relaxation(net, lows, ups)[:4]
    crown_lb, crown_ub, stages_u, stages_l, AU, AL = _two_chain_backward_pass(
        net, X, eps, up_slope, up_icpt, low_slope, lower_pos)
    ibp_lb, ibp_ub = lows[-1][:, 0], ups[-1][:, 0]
    use_crown_ub = crown_ub <= ibp_ub
    use_crown_lb = crown_lb >= ibp_lb
    lb = np.where(use_crown_lb, crown_lb, ibp_lb)
    ub = np.where(use_crown_ub, crown_ub, ibp_ub)
    lb = np.minimum(lb, ub)
    tape = SimpleNamespace(
        X=X, eps=eps, lows=lows, ups=ups, centers=centers, radii=radii,
        up_slope=up_slope, up_icpt=up_icpt, low_slope=low_slope,
        crossing=crossing, stages_u=stages_u, stages_l=stages_l, A_u=AU,
        A_l=AL, crown_lb=crown_lb, crown_ub=crown_ub, ibp_lb=ibp_lb,
        ibp_ub=ibp_ub, use_crown_ub=use_crown_ub, use_crown_lb=use_crown_lb)
    return lb, ub, tape


def _two_chain_vjp(net, tape, dlb, dub, lower_pos):
    X, eps = tape.X, tape.eps
    L = net.n_layers
    alpha = net.leaky_slope
    grads = ParamGrads.zeros_like(net)
    dX = np.zeros_like(X)
    guC = np.where(tape.use_crown_ub, dub, 0.0)
    glC = np.where(tape.use_crown_lb, dlb, 0.0)
    guI = dub - guC
    glI = dlb - glC
    lbar = [np.zeros_like(l) for l in tape.lows]
    ubar = [np.zeros_like(u) for u in tape.ups]
    lbar[L - 1][:, 0] += glI
    ubar[L - 1][:, 0] += guI
    A_u_bar = guC[:, None] * (X + eps * np.sign(tape.A_u))
    A_l_bar = glC[:, None] * (X - eps * np.sign(tape.A_l))
    dX += guC[:, None] * tape.A_u + glC[:, None] * tape.A_l
    dU_bar, dL_bar = guC, glC
    us_bar = [np.zeros_like(s) for s in tape.up_slope]
    ui_bar = [np.zeros_like(s) for s in tape.up_icpt]
    for idx in range(len(tape.stages_u) - 1, -1, -1):
        k = L - 2 - idx
        W, b = net.weights[k], net.biases[k]

        A_in = tape.stages_u[idx]
        posU = A_in >= 0.0
        lamU = np.where(posU, tape.up_slope[k], tape.low_slope[k])
        muU = np.where(posU, tape.up_icpt[k], 0.0)
        BU = A_in * lamU
        BU_bar = A_u_bar @ W.T + dU_bar[:, None] * b[None, :]
        grads.weights[k] += BU.T @ A_u_bar
        grads.biases[k] += BU.T @ dU_bar
        sel = posU & tape.crossing[k]
        us_bar[k] += np.where(sel, BU_bar * A_in, 0.0)
        ui_bar[k] += np.where(sel, dU_bar[:, None] * A_in, 0.0)
        A_u_bar = BU_bar * lamU + dU_bar[:, None] * muU

        A_in = tape.stages_l[idx]
        posL = lower_pos(A_in, 0.0)
        lamL = np.where(posL, tape.low_slope[k], tape.up_slope[k])
        muL = np.where(posL, 0.0, tape.up_icpt[k])
        BL = A_in * lamL
        BL_bar = A_l_bar @ W.T + dL_bar[:, None] * b[None, :]
        grads.weights[k] += BL.T @ A_l_bar
        grads.biases[k] += BL.T @ dL_bar
        sel = (~posL) & tape.crossing[k]
        us_bar[k] += np.where(sel, BL_bar * A_in, 0.0)
        ui_bar[k] += np.where(sel, dL_bar[:, None] * A_in, 0.0)
        A_l_bar = BL_bar * lamL + dL_bar[:, None] * muL
    grads.weights[L - 1] += (A_u_bar + A_l_bar).sum(axis=0, keepdims=True)
    grads.biases[L - 1] += np.array([(dU_bar + dL_bar).sum()])
    for k in range(L - 1):
        cross = tape.crossing[k]
        if not np.any(cross):
            continue
        l, u = tape.lows[k], tape.ups[k]
        denom = np.where(cross, u - l, 1.0)
        chord = np.where(cross, (u - alpha * l) / denom, 1.0)
        dchord_du = (alpha - 1.0) * l / denom ** 2
        dchord_dl = (1.0 - alpha) * u / denom ** 2
        dicpt_dl = (alpha - chord) - l * dchord_dl
        dicpt_du = -l * dchord_du
        ubar[k] += np.where(cross, us_bar[k] * dchord_du
                            + ui_bar[k] * dicpt_du, 0.0)
        lbar[k] += np.where(cross, us_bar[k] * dchord_dl
                            + ui_bar[k] * dicpt_dl, 0.0)
    for k in range(L - 1, -1, -1):
        W = net.weights[k]
        m_bar = lbar[k] + ubar[k]
        s_bar = ubar[k] - lbar[k]
        c_prev, r_prev = tape.centers[k], tape.radii[k]
        grads.weights[k] += m_bar.T @ c_prev + np.sign(W) * (s_bar.T @ r_prev)
        grads.biases[k] += m_bar.sum(axis=0)
        c_bar = m_bar @ W
        r_bar = s_bar @ np.abs(W)
        if k == 0:
            dX += c_bar
        else:
            au_bar = 0.5 * (c_bar + r_bar)
            al_bar = 0.5 * (c_bar - r_bar)
            ubar[k - 1] += au_bar * leaky_relu_grad(tape.ups[k - 1], alpha)
            lbar[k - 1] += al_bar * leaky_relu_grad(tape.lows[k - 1], alpha)
    return grads, dX


def _grad_bytes(grads, dX):
    return [a.tobytes() for a in (*grads.weights, *grads.biases, dX)]


@st.composite
def bound_cases(draw, radii=(0.0, 0.05, 0.5, 2.0), max_rows=20):
    """A random net, rows and radius: 0-3 hidden layers of width 1-8."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = draw(st.integers(1, 4))
    hidden = [draw(st.integers(1, 8)) for _ in range(draw(st.integers(0, 3)))]
    net = random_net(rng, [d, *hidden, 1], slope=draw(st.floats(0.01, 0.9)),
                     scale=draw(st.sampled_from([0.5, 2.0])))
    X = rng.normal(size=(draw(st.integers(1, max_rows)), d))
    eps = draw(st.sampled_from(radii))
    return net, X, eps, rng


def _discrete_choices(net, tape):
    """Every discrete choice behind a bound, as bytes: the signs of the
    weights (|W| in the interval radius), the active and crossing masks,
    which line a crossing neuron's lower bound takes, each chain step's
    line choice, the signs of the final coefficients (|A| in the
    concretization), the intersection branches and the lb <= ub repair."""
    parts = [np.sign(W) for W in net.weights]
    for l, u in zip(tape.lows, tape.ups):
        parts += [l >= 0.0, u >= 0.0, u >= -l]
    parts += tape.crossing
    parts += [stage.pos for stage in (*tape.stages_u, *tape.stages_l)]
    lb = np.where(tape.use_crown_lb, tape.crown_lb, tape.ibp_lb)
    ub = np.where(tape.use_crown_ub, tape.crown_ub, tape.ibp_ub)
    parts += [np.sign(tape.A_u), np.sign(tape.A_l), tape.use_crown_ub,
              tape.use_crown_lb, lb <= ub]
    return b"".join(np.ascontiguousarray(p).tobytes() for p in parts)


class TestBoundEngineProperties:
    @settings(max_examples=150, deadline=None)
    @given(bound_cases())
    def test_bounds_and_vjp_equal_two_chain_reference(self, case):
        net, X, eps, rng = case
        dlb, dub = rng.normal(size=len(X)), rng.normal(size=len(X))
        lb, ub, tape = crown_ibp_batch_tape(net, X, eps)
        got = _grad_bytes(*crown_ibp_batch_vjp(net, tape, dlb, dub))
        ref_lb, ref_ub, ref_tape = _two_chain_tape(net, X, eps,
                                                   np.greater_equal)
        want = _grad_bytes(*_two_chain_vjp(net, ref_tape, dlb, dub,
                                           np.greater_equal))
        assert lb.tobytes() == ref_lb.tobytes()
        assert ub.tobytes() == ref_ub.tobytes()
        assert got == want

    @settings(max_examples=100, deadline=None)
    @given(bound_cases())
    def test_sound_and_no_wider_than_intervals(self, case):
        net, X, eps, rng = case
        lb, ub, tape = crown_ibp_batch_tape(net, X, eps)
        assert np.all(lb <= ub)
        assert np.all(ub <= tape.ibp_ub)
        assert np.all(lb >= np.minimum(tape.ibp_lb, ub))
        d = X.shape[1]
        corners = np.array(np.meshgrid(*[[-1.0, 1.0]] * d)).reshape(d, -1).T
        offsets = np.vstack([corners, rng.uniform(-1.0, 1.0, size=(64, d))])
        for i, x in enumerate(X):
            vals, _ = forward_batch(net, x + eps * offsets)
            tol = 1e-9 * max(1.0, np.abs(vals).max())
            assert lb[i] <= vals.min() + tol
            assert ub[i] >= vals.max() - tol

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=150, deadline=None)
    @given(bound_cases(radii=(0.05, 0.5, 2.0), max_rows=6))
    def test_vjp_matches_central_differences(self, case):
        # d/dp of sum(dlb * lb + dub * ub) for sampled parameter and input
        # coordinates p, away from the kinks of the bound: a coordinate is
        # skipped when a discrete choice differs at p - h, p or p + h.
        net, X, eps, rng = case
        dlb, dub = rng.normal(size=len(X)), rng.normal(size=len(X))
        crown_ibp_batch_vjp(net, crown_ibp_batch_tape(net, X, 0.0)[2],
                            dlb, dub)

        def objective():
            lb, ub, tape = crown_ibp_batch_tape(net, X, eps)
            size = np.abs(dlb) @ np.abs(lb) + np.abs(dub) @ np.abs(ub)
            return dlb @ lb + dub @ ub, size, _discrete_choices(net, tape)

        _, _, tape = crown_ibp_batch_tape(net, X, eps)
        grads, dX = crown_ibp_batch_vjp(net, tape, dlb, dub)
        pairs = list(zip((*net.weights, *net.biases, X),
                         (*grads.weights, *grads.biases, dX)))
        h = 1e-6
        for _ in range(10):
            p, g = pairs[int(rng.integers(len(pairs)))]
            at = tuple(int(rng.integers(n)) for n in p.shape)
            p0 = p[at]
            values = []
            for step in (h, -h, 0.0):
                p[at] = p0 + step
                values.append(objective())
            p[at] = p0
            (f_plus, _, c_plus), (f_minus, _, c_minus), (_, size, c0) = values
            if not c_plus == c_minus == c0:
                continue
            fd = (f_plus - f_minus) / (2 * h)
            assert abs(fd - g[at]) <= 1e-5 * (1.0 + abs(g[at])) + 1e-8 * size

    def test_zero_output_weight_takes_the_upper_line_in_both_chains(self):
        # Every hidden neuron crosses zero and the output ignores the first.
        # The other two nearly cancel, so the linear lower bound beats the
        # interval one.  The lower bound is minus the upper chain of -f,
        # where the coefficient -0.0 counts as nonnegative: at a zero
        # coefficient the lower bound's adjoint is its derivative from the
        # negative side, where the first neuron takes its chord.
        net = Network([2, 3, 1], [np.array([[0.0, 1.0], [1.0, 1.0],
                                            [-1.0, -0.9]]),
                                  np.array([[0.0, 1.0, 1.0]])],
                      [np.array([0.1, 0.1, 0.1]), np.array([0.0])])
        X, eps = np.zeros((1, 2)), 0.5
        lb, ub, tape = crown_ibp_batch_tape(net, X, eps)
        assert tape.crossing[0].all() and tape.use_crown_lb.all()
        dlb, dub = np.ones(1), np.zeros(1)
        grads, dX = crown_ibp_batch_vjp(net, tape, dlb, dub)
        for lower_pos in (np.greater_equal, np.greater):
            ref_lb, ref_ub, _ = _two_chain_tape(net, X, eps, lower_pos)
            assert (lb, ub) == (ref_lb, ref_ub)
        _, _, ref_tape = _two_chain_tape(net, X, eps, np.greater)
        assert _grad_bytes(grads, dX) == _grad_bytes(
            *_two_chain_vjp(net, ref_tape, dlb, dub, np.greater))

        def lb_at(w):
            net.weights[1][0, 0] = w
            value = crown_ibp_batch(net, X, eps)[0][0]
            net.weights[1][0, 0] = 0.0
            return value

        h = 1e-6
        from_left = (lb[0] - lb_at(-h)) / h
        from_right = (lb_at(h) - lb[0]) / h
        assert grads.weights[1][0, 0] == pytest.approx(from_left, abs=1e-6)
        assert abs(from_right - from_left) > 0.1


def _one_piece_certified_terms(lb, ub, t, e, w_val, sigma):
    """The certified loss terms and their endpoint sensitivities, with
    every formula written out here."""
    with np.errstate(over="ignore"):
        ll_lb = -(e * lb) + np.exp(lb) * t
        ll_ub = -(e * ub) + np.exp(ub) * t
        g_lb = -np.asarray(e, dtype=float) + np.exp(lb) * t
        g_ub = -np.asarray(e, dtype=float) + np.exp(ub) * t
    take_ub = ll_ub >= ll_lb
    value = float(np.where(take_ub, ll_ub, ll_lb).sum())
    dlb = np.where(take_ub, 0.0, g_lb)
    dub = np.where(take_ub, g_ub, 0.0)
    A = (t[:, None] < t[None, :]) & (e[:, None] == 1)
    if A.any():
        with np.errstate(over="ignore"):
            lam_lb = np.exp(lb)
            lam_ub = np.exp(ub)
            S_own = np.exp(-lam_lb * t)
            S_cross = np.exp(-np.outer(t, lam_ub))
        F_own = 1.0 - S_own
        F_cross = 1.0 - S_cross
        eta = np.where(A, np.exp(-(F_own[:, None] - F_cross) / sigma), 0.0)
        value += w_val * float(eta.sum())
        with np.errstate(invalid="ignore", over="ignore"):
            D_own = t * lam_lb * S_own
            D_cross = t[:, None] * lam_ub[None, :] * S_cross
            dlb = dlb + (w_val / sigma) * (-D_own) * eta.sum(axis=1)
            dub = dub + (w_val / sigma) * (eta * D_cross).sum(axis=0)
    return value, dlb, dub


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 150),
       st.sampled_from(["distinct", "tied", "censored"]),
       st.sampled_from([1e-3, 1.0, 4.0]), st.sampled_from([0.0, None, 2.0]),
       st.sampled_from([1.0, 40.0]))
def test_certified_terms_equal_written_out_formula(seed, n, times, sigma, w,
                                                   spread):
    # sigma=1e-3 overflows eta; a spread of 40 overflows exp(ub)
    rng = np.random.default_rng(seed)
    t = (rng.choice([0.5, 1.0, 2.0], size=n) if times == "tied"
         else rng.uniform(0.2, 3.0, size=n))
    e = (np.zeros(n, dtype=int) if times == "censored"
         else (rng.random(n) < 0.6).astype(int))
    batch = Batch(np.zeros((n, 1)), t, e)
    g = rng.normal(size=n)
    r = spread * np.abs(rng.normal(size=n))
    lb, ub = g - r, g + r
    w_val = 1.0 / n if w is None else w
    with np.errstate(all="ignore"):
        got = _certified_terms(lb, ub, batch, w_val, sigma)
        want = _one_piece_certified_terms(lb, ub, batch.t, batch.e, w_val,
                                          sigma)
    assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    assert got[2].tobytes() == want[2].tobytes()
