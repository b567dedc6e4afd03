"""Built-in oracle suites: run cheap independent checks of the core math.

Covers gradient agreement with central finite differences, bound soundness
against corner/grid enumeration, certified-loss dominance against sampled
perturbations, and the metric implementations against brute-force pair
enumeration and hand-computed product-limit fixtures.  Deterministic for a
given seed; prints one line per suite.
"""

from __future__ import annotations

import numpy as np

from .bounds import crown_ibp_batch_tape
from .losses import Batch, certified_upper_loss_grads, combined_loss
from .metrics import brier_ipcw, concordance_index
from .network import backward_batch, forward_batch, init_network
from .survival import StepCurve, km_estimator


def _random_net(rng, dims, slope=0.01):
    net = init_network(dims, slope, seed=int(rng.integers(0, 2 ** 31)))
    for w in net.weights:
        w[:] = rng.uniform(-1.0, 1.0, size=w.shape)
    for b in net.biases:
        b[:] = rng.uniform(-0.5, 0.5, size=b.shape)
    return net


def _output(net, x) -> float:
    """G(x) for one covariate vector."""
    return float(forward_batch(net, x[None, :])[0][0])


def check_gradients(seed: int, trials: int) -> tuple[bool, str]:
    rng = np.random.default_rng((seed, 1))
    h = 1e-5
    worst = 0.0
    for _ in range(trials):
        net = _random_net(rng, [3, 6, 1])
        x = rng.normal(size=3)
        grads, igrads = backward_batch(net, forward_batch(net, x[None, :])[1],
                                       np.ones(1))
        igrad = igrads[0]
        for j in range(3):
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            fd = (_output(net, xp) - _output(net, xm)) / (2 * h)
            worst = max(worst, abs(fd - igrad[j]) / max(abs(fd), 1e-7))
        W = net.weights[0]
        i, j = int(rng.integers(W.shape[0])), int(rng.integers(W.shape[1]))
        W[i, j] += h
        fp = _output(net, x)
        W[i, j] -= 2 * h
        fm = _output(net, x)
        W[i, j] += h
        fd = (fp - fm) / (2 * h)
        worst = max(worst, abs(fd - grads.weights[0][i, j]) / max(abs(fd), 1e-7))
    return worst < 1e-4, f"max rel err {worst:.3e}"


def check_bound_soundness(seed: int, trials: int) -> tuple[bool, str]:
    rng = np.random.default_rng((seed, 2))
    worst = 0.0
    lin = np.linspace(-1.0, 1.0, 41)
    gx, gy = np.meshgrid(lin, lin)
    unit_grid = np.column_stack([gx.ravel(), gy.ravel()])
    for _ in range(trials):
        net = _random_net(rng, [2, 8, 8, 1])
        x0 = rng.normal(size=2)
        for eps in (0.01, 0.1, 0.5):
            pts = x0[None, :] + eps * unit_grid
            vals, _ = forward_batch(net, pts)
            lb, ub, tape = crown_ibp_batch_tape(net, x0[None, :], eps)
            ib_lb, ib_ub = float(tape.ibp_lb[0]), float(tape.ibp_ub[0])
            worst = max(worst, float(vals.max() - ub[0]),
                        float(lb[0] - vals.min()),
                        float(vals.max() - ib_ub), float(ib_lb - vals.min()),
                        float((ub[0] - lb[0]) - (ib_ub - ib_lb)))
    return worst < 1e-6, f"max violation {worst:.3e}"


def check_certified_dominance(seed: int, trials: int) -> tuple[bool, str]:
    rng = np.random.default_rng((seed, 3))
    worst = -np.inf
    for _ in range(trials):
        net = _random_net(rng, [2, 6, 1])
        n = 5
        X = rng.normal(size=(n, 2))
        t = rng.uniform(0.2, 3.0, size=n)
        e = (rng.random(n) < 0.6).astype(int)
        batch = Batch(X, t, e)
        eps = float(rng.choice([0.1, 0.3, 0.5]))
        cert = certified_upper_loss_grads(net, batch, eps,
                                          need_grads=False)[0]
        for _ in range(200):
            delta = rng.uniform(-eps, eps, size=X.shape)
            worst = max(worst, combined_loss(net, batch.with_X(X + delta)) - cert)
        worst = max(worst, combined_loss(net, batch) - cert)
    return worst < 1e-9, f"max gap over bound {worst:.3e}"


def check_metric_oracles(seed: int, trials: int) -> tuple[bool, str]:
    rng = np.random.default_rng((seed, 4))
    for _ in range(trials):
        n = int(rng.integers(4, 40))
        times = rng.uniform(0.1, 10.0, size=n)
        events = (rng.random(n) < 0.7).astype(int)
        risks = rng.normal(size=n)
        if not ((times[:, None] < times[None, :]) & (events[:, None] == 1)).any():
            continue
        num = 0.0
        den = 0
        for i in range(n):
            for j in range(n):
                if times[i] < times[j] and events[i] == 1:
                    den += 1
                    if risks[i] > risks[j]:
                        num += 1
                    elif risks[i] == risks[j]:
                        num += 0.5
        if abs(concordance_index(risks, times, events) - num / den) > 0:
            return False, "concordance mismatch"
    km = km_estimator([1.0, 2.0, 3.0], [1, 1, 0])
    if not (abs(km(1.0) - 2 / 3) < 1e-12 and abs(km(2.5) - 1 / 3) < 1e-12
            and abs(km(3.5) - 1 / 3) < 1e-12):
        return False, "product-limit fixture mismatch"
    ckm = StepCurve(np.array([np.inf]), np.array([1.0]))  # no censoring
    score, _ = brier_ipcw(np.full(4, 0.5), [1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1],
                          ckm, 2.5)
    if abs(score - 0.25) > 1e-12:
        return False, "constant-predictor Brier fixture mismatch"
    return True, "pair enumeration + fixtures ok"


SUITES = (
    ("gradients", check_gradients),
    ("bound_soundness", check_bound_soundness),
    ("certified_dominance", check_certified_dominance),
    ("metric_oracles", check_metric_oracles),
)


def run_selftest(seed: int = 0, trials: int = 50) -> bool:
    all_ok = True
    for name, fn in SUITES:
        ok, detail = fn(seed, trials)
        print(f"{'ok' if ok else 'FAIL'} {name}: {detail}")
        all_ok &= ok
    print(f"selftest {'passed' if all_ok else 'FAILED'} (seed={seed}, trials={trials})")
    return all_ok
