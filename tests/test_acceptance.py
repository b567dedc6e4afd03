"""Acceptance gate: every criterion below prints one PASS line when green.

Run with `pytest tests/test_acceptance.py -s` to see the lines.  Budgeted
to finish on a laptop-class CPU in a few minutes; all randomness is seeded,
so outcomes are reproducible.
"""

import hashlib
import os
import time

import numpy as np
import pytest

from certsurv.bounds import crown_ibp_batch, crown_ibp_batch_tape
from certsurv.data import load_csv, stratified_split
from certsurv.losses import (Batch, _clean_engine, certified_upper_loss_grads,
                             combined_loss, fgsm_perturb, noise_perturb,
                             pgd_perturb, sawar_loss_grads)
from certsurv.metrics import (attack_sweep, average_ranks, brier_ipcw,
                              censoring_km, concordance_index, friedman_test,
                              integrated_brier)
from certsurv.network import forward_batch, init_network
from certsurv.survival import StepCurve, km_estimator
from certsurv.training import TrainConfig, eps_schedule, train

from conftest import DATA_DIR, planted_linear_csv, run_child

RETINOPATHY = os.path.join(DATA_DIR, "retinopathy.csv")
STAGEC = os.path.join(DATA_DIR, "stagec.csv")
ZINC = os.path.join(DATA_DIR, "zinc.csv")


def _random_bound_net(rng):
    net = init_network([2, 8, 8, 1], 0.01, seed=int(rng.integers(2 ** 31)))
    for w in net.weights:
        w[:] = rng.uniform(-1.0, 1.0, size=w.shape)
    for b in net.biases:
        b[:] = rng.uniform(-1.0, 1.0, size=b.shape)
    return net


@pytest.fixture(scope="module")
def bound_trials():
    """Shared trials for criteria 1 and 2."""
    rng = np.random.default_rng(1001)
    lin = np.linspace(-1.0, 1.0, 101)
    gx, gy = np.meshgrid(lin, lin)
    unit = np.column_stack([gx.ravel(), gy.ravel()])
    corners = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)
    probe = np.vstack([unit, corners])
    results = []
    start = time.perf_counter()
    for _ in range(1000):
        net = _random_bound_net(rng)
        x0 = rng.normal(size=2)
        for eps in (0.01, 0.1, 0.5):
            vals, _ = forward_batch(net, x0[None, :] + eps * probe)
            clb, cub, tape = crown_ibp_batch_tape(net, x0[None, :], eps)
            results.append((float(vals.min()), float(vals.max()),
                            float(tape.ibp_lb[0]), float(tape.ibp_ub[0]),
                            float(clb[0]), float(cub[0])))
    elapsed = time.perf_counter() - start
    return results, elapsed


def test_criterion_1_bound_soundness(bound_trials):
    results, elapsed = bound_trials
    worst = 0.0
    for vmin, vmax, ilb, iub, clb, cub in results:
        worst = max(worst, ilb - vmin, vmax - iub, clb - vmin, vmax - cub)
    assert worst <= 1e-6, f"soundness violation {worst}"
    assert elapsed < 120.0, f"bound trials took {elapsed:.1f}s"
    print(f"\nPASS criterion 1: bound soundness over 3000 trials "
          f"(max violation {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_tightness_ordering(bound_trials):
    results, _ = bound_trials
    violations = sum(
        1 for _, _, ilb, iub, clb, cub in results
        if (cub - clb) > (iub - ilb) + 1e-9
    )
    assert violations == 0
    print(f"PASS criterion 2: refined interval never wider than the "
          f"interval bound in {len(results)} trials")


def _multi_draw_combined(net, batch, deltas, w, sigma=1.0):
    """Vectorized combined loss at many whole-batch perturbations.

    Independent of the library path: evaluates the closed-form loss per
    draw from raw scores.  deltas has shape (n_draws, n, d).
    """
    n_draws, n, d = deltas.shape
    pts = (batch.X[None, :, :] + deltas).reshape(n_draws * n, d)
    G, _ = forward_batch(net, pts)
    G = G.reshape(n_draws, n)
    lam = np.exp(G)
    t, e = batch.t, batch.e
    ll = (e[None, :] * G - lam * t[None, :]).sum(axis=1)
    A = (t[:, None] < t[None, :]) & (e[:, None] == 1)
    S = np.exp(-t[None, :, None] * lam[:, None, :])  # S[d, i, j]
    F = 1.0 - S
    own = np.einsum("dii->di", F)
    eta = np.exp(-(own[:, :, None] - F) / sigma)
    rank = np.where(A[None, :, :], eta, 0.0).sum(axis=(1, 2))
    return -ll + w * rank


def test_criterion_3_certified_dominance():
    rng = np.random.default_rng(1003)
    start = time.perf_counter()
    worst_gap = -np.inf
    corners2 = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)
    for trial in range(50):
        net = init_network([2, 6, 1], 0.01, seed=trial)
        for w_ in net.weights:
            w_[:] = rng.uniform(-1, 1, size=w_.shape)
        n = 5
        batch = Batch(rng.normal(size=(n, 2)), rng.uniform(0.2, 3.0, size=n),
                      (rng.random(n) < 0.6).astype(int))
        eps = float(rng.choice([0.1, 0.5]))
        w = 1.0 / n
        cert = certified_upper_loss_grads(net, batch, eps, w,
                                          need_grads=False)[0]
        # cross-check the vectorized oracle against the library on 3 draws
        check = rng.uniform(-eps, eps, size=(3, n, 2))
        fast = _multi_draw_combined(net, batch, check, w)
        for k in range(3):
            direct = combined_loss(net, batch.with_X(batch.X + check[k]), w)
            assert fast[k] == pytest.approx(direct, rel=1e-10)
        deltas = rng.uniform(-eps, eps, size=(10_000, n, 2))
        vals = _multi_draw_combined(net, batch, deltas, w)
        # every record at every corner simultaneously
        corner_sets = eps * np.repeat(corners2[:, None, :], n, axis=1)
        corner_vals = _multi_draw_combined(net, batch, corner_sets, w)
        worst_gap = max(worst_gap,
                        float(vals.max() - cert), float(corner_vals.max() - cert))
        assert vals.max() <= cert + 1e-9
        assert corner_vals.max() <= cert + 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"PASS criterion 3: certified bound dominates 10^4 sampled + corner "
          f"perturbations in 50 trials (max gap {worst_gap:.2e}, {elapsed:.1f}s)")


def _loss_for_method(method, net, batch, eps):
    """(value_fn, grads) with any input perturbation frozen first."""
    if method == "baseline":
        frozen = batch
    elif method == "noise":
        frozen = noise_perturb(batch, eps, 7)
    elif method == "fgsm":
        frozen = fgsm_perturb(net, batch, eps)
    elif method == "pgd":
        frozen = pgd_perturb(net, batch, eps, 3)
    else:
        def value():
            bd, _, _ = sawar_loss_grads(net, batch, eps, need_grads=False)
            return bd.total
        _, pg, ig = sawar_loss_grads(net, batch, eps)
        return value, pg, ig, batch
    def value():
        return combined_loss(net, frozen)
    _, pg, ig = _clean_engine(net, frozen, 1.0 / len(frozen), 1.0,
                              need_grads=True)[2:]
    return value, pg, ig, frozen


def _kink_margin(net, batch, eps):
    """Smallest distance to any gradient-defining switch for this instance."""
    G, (_, pre_acts, _) = forward_batch(net, batch.X)
    margin = min(float(np.abs(z).min()) for z in pre_acts[:-1])
    lb, ub = crown_ibp_batch(net, batch.X, eps)
    from certsurv.losses import _ll_term
    tie = np.abs(_ll_term(ub, batch.t, batch.e) - _ll_term(lb, batch.t, batch.e))
    margin = min(margin, float(tie.min()))
    from certsurv.bounds import _interval_forward
    lows, ups = _interval_forward(net, batch.X, eps)[:2]
    for l, u in zip(lows[:-1], ups[:-1]):
        margin = min(margin, float(np.abs(l).min()), float(np.abs(u).min()),
                     float(np.abs(np.abs(u) - np.abs(l)).min()))
    return margin


def test_criterion_4_gradient_correctness():
    rng = np.random.default_rng(1004)
    h = 1e-5
    methods = ("baseline", "noise", "fgsm", "pgd", "sawar")
    n_instances = 0
    worst = 0.0
    start = time.perf_counter()
    while n_instances < 100:
        net = init_network([2, 6, 1], 0.01, seed=int(rng.integers(2 ** 31)))
        for w_ in net.weights:
            w_[:] = rng.uniform(-1, 1, size=w_.shape)
        n = 4
        batch = Batch(rng.normal(size=(n, 2)), rng.uniform(0.3, 2.5, size=n),
                      (rng.random(n) < 0.6).astype(int))
        eps = 0.2
        # finite differences are meaningless within h of a subgradient
        # switch, so redraw instances that sit on one
        if _kink_margin(net, batch, eps) < 1e-3:
            continue
        n_instances += 1
        method = methods[n_instances % len(methods)]
        value_fn, pg, ig, frozen = _loss_for_method(method, net, batch, eps)
        for k in range(net.n_layers):
            W = net.weights[k]
            for i in range(W.shape[0]):
                for j in range(W.shape[1]):
                    W[i, j] += h
                    fp = value_fn()
                    W[i, j] -= 2 * h
                    fm = value_fn()
                    W[i, j] += h
                    fd = (fp - fm) / (2 * h)
                    err = abs(fd - pg.weights[k][i, j]) / max(abs(fd), 1e-3)
                    worst = max(worst, err)
            b = net.biases[k]
            for i in range(b.shape[0]):
                b[i] += h
                fp = value_fn()
                b[i] -= 2 * h
                fm = value_fn()
                b[i] += h
                fd = (fp - fm) / (2 * h)
                err = abs(fd - pg.biases[k][i]) / max(abs(fd), 1e-3)
                worst = max(worst, err)
        X = frozen.X if method != "sawar" else batch.X
        for r in range(n):
            for c in range(2):
                X[r, c] += h
                fp = value_fn()
                X[r, c] -= 2 * h
                fm = value_fn()
                X[r, c] += h
                fd = (fp - fm) / (2 * h)
                err = abs(fd - ig[r, c]) / max(abs(fd), 1e-3)
                worst = max(worst, err)
        assert worst <= 1e-4, (method, worst)
    elapsed = time.perf_counter() - start
    print(f"PASS criterion 4: parameter+input gradients of all five methods "
          f"match central differences on 100 instances "
          f"(max rel err {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_5_metric_oracles():
    rng = np.random.default_rng(1005)
    for _ in range(50):
        n = int(rng.integers(5, 201))
        risks = rng.choice([0.2, 0.7, 1.3, 2.9], size=n)
        times = rng.uniform(0.1, 10.0, size=n)
        events = (rng.random(n) < 0.6).astype(int)
        num, den = 0.0, 0
        for i in range(n):
            for j in range(n):
                if times[i] < times[j] and events[i] == 1:
                    den += 1
                    if risks[i] > risks[j]:
                        num += 1.0
                    elif risks[i] == risks[j]:
                        num += 0.5
        if den == 0:
            continue
        assert concordance_index(risks, times, events) == num / den

    km = km_estimator([1.0, 2.0, 3.0], [1, 1, 1])
    assert abs(km(1.0) - 2 / 3) < 1e-10
    assert abs(km(2.0) - 1 / 3) < 1e-10
    assert abs(km(3.0) - 0.0) < 1e-10
    km2 = km_estimator([1.0, 2.0, 3.0], [1, 1, 0])
    assert abs(km2(3.0) - 1 / 3) < 1e-10

    ckm = StepCurve(np.array([2.5]), np.array([0.5]))
    times = np.array([1.0, 2.0, 3.0, 4.0])
    events = np.array([1, 0, 1, 1])
    surv = np.array([0.8, 0.6, 0.4, 0.3])
    score, _ = brier_ipcw(surv, times, events, ckm, 2.6)
    assert abs(score - (0.64 + 0.72 + 0.98) / 4) < 1e-10
    grid = np.array([2.6, 3.1])
    surv2 = np.column_stack([surv, surv])
    val, _ = integrated_brier(surv2, times, events, ckm, grid)
    # at 3.1 the t=3 event weighs by the left limit of the censor curve (0.5)
    score31 = (0.64 + 0.4 ** 2 / 0.5 + 0.49 / 0.5) / 4
    expected = 0.5 * (score + score31)  # two-point trapezoid over the span
    assert abs(val - expected) < 1e-10
    print("PASS criterion 5: concordance equals exhaustive enumeration on 50 "
          "fixtures; product-limit and weighted Brier match hand values to 1e-10")


@pytest.fixture(scope="module")
def retinopathy_runs():
    raw = load_csv(RETINOPATHY)
    split = stratified_split(raw, seed=0)
    ckm = censoring_km(split.train)
    out = {}
    start = time.perf_counter()
    for method in ("baseline", "sawar"):
        per_seed = []
        for seed in (0, 1, 2):
            cfg = TrainConfig(method=method, seed=seed)
            net, _ = train(cfg, split)
            recs = attack_sweep(net, split.test, "worstcase", [0.0, 0.5, 1.0],
                                cfg, ckm, "retinopathy", method, seed)
            per_seed.append({r.eps: r for r in recs})
        out[method] = per_seed
    out["elapsed"] = time.perf_counter() - start
    return out


def test_criterion_6_desk_scale_reproduction(retinopathy_runs):
    runs = retinopathy_runs
    assert runs["elapsed"] < 600.0, f"training took {runs['elapsed']:.0f}s"
    ci_base = np.mean([r[0.0].ci for r in runs["baseline"]])
    ci_sawar = np.mean([r[0.0].ci for r in runs["sawar"]])
    # (a) clean concordance for both methods (seed-mean) in [0.60, 0.70]
    assert 0.60 <= ci_base <= 0.70, ci_base
    assert 0.60 <= ci_sawar <= 0.70, ci_sawar
    # (b) certified-attack integrated Brier gap at radius 0.5
    ibs_base = np.mean([r[0.5].ibs for r in runs["baseline"]])
    ibs_sawar = np.mean([r[0.5].ibs for r in runs["sawar"]])
    assert ibs_sawar < ibs_base - 0.15, (ibs_sawar, ibs_base)
    # (c) certified-attack negative log likelihood at radius 1.0
    negll_sawar = max(r[1.0].negll for r in runs["sawar"])
    negll_base = min(r[1.0].negll for r in runs["baseline"])
    assert negll_sawar < 2e3, negll_sawar
    assert negll_base > 5e3, negll_base
    print(f"PASS criterion 6: desk-scale benchmark reproduction — clean CI "
          f"{ci_base:.3f}/{ci_sawar:.3f} (window 0.60-0.70), certified IBS@0.5 "
          f"{ibs_sawar:.3f} vs {ibs_base:.3f} (gap >= 0.15), certified "
          f"NegLL@1.0 {negll_sawar:.3g} < 2e3 vs {negll_base:.3g} > 5e3 "
          f"({runs['elapsed']:.0f}s)")


def test_criterion_7_rank_direction():
    methods = ("baseline", "noise", "fgsm", "pgd", "sawar")
    eps_grid = (0.3, 0.5, 0.7)
    datasets = (("retinopathy", RETINOPATHY), ("stagec", STAGEC),
                ("zinc", ZINC))
    records = []
    for name, path in datasets:
        raw = load_csv(path)
        split = stratified_split(raw, seed=0)
        ckm = censoring_km(split.train)
        for method in methods:
            cfg = TrainConfig(method=method, seed=0)
            net, _ = train(cfg, split)
            records.extend(attack_sweep(net, split.test, "worstcase",
                                        eps_grid, cfg, ckm, name, method, 0))
    table = average_ranks(records, metrics=("ibs", "negll"))
    cellmap = {(r.dataset, r.eps, r.method): r for r in records}
    for metric in ("ibs", "negll"):
        overall = {m: np.mean([table.mean_ranks[(e, metric)][m]
                               for e in eps_grid]) for m in methods}
        for m in methods:
            if m != "sawar":
                assert overall["sawar"] < overall[m], (metric, overall)
        blocks = [[getattr(cellmap[(ds, e, m)], metric) for m in methods]
                  for ds, _ in datasets for e in eps_grid]
        stat, p = friedman_test(np.asarray(blocks))
        assert p < 0.05, (metric, stat, p)
        print(f"PASS criterion 7 ({metric}): certified-objective arm has the "
              f"best mean certified-attack rank "
              f"({overall['sawar']:.2f} vs others), Friedman p={p:.2e}")


def test_criterion_8_scheduler_and_guard(tmp_path):
    cfg = TrainConfig()
    assert eps_schedule(cfg, cfg.warmup_epochs) == 0.0
    assert eps_schedule(cfg, cfg.warmup_epochs + 30) == 0.5
    assert eps_schedule(cfg, cfg.warmup_epochs + 15) == 0.25
    vals = [eps_schedule(cfg, e) for e in range(120)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert max(vals) == 0.5

    path = planted_linear_csv(str(tmp_path / "toy.csv"), n=40, seed=3)
    split = stratified_split(load_csv(path), seed=0)
    cfg = TrainConfig(method="sawar", warmup_epochs=3, ramp_epochs=5,
                      max_epochs=30, patience=4, batch_size=16,
                      hidden_dims=(8,), seed=0)
    _, report = train(cfg, split)
    assert report.best_epoch >= 8  # never a checkpoint below the full radius
    print("PASS criterion 8: radius schedule anchors exact; no checkpoint "
          "selected before the radius cap")


def test_criterion_9_byte_reproducibility(tmp_path):
    toy = planted_linear_csv(str(tmp_path / "toy.csv"), n=40, seed=3)

    outs = []
    for run in ("s1", "s2"):
        proc = run_child(["selftest", "--trials", "5"], cwd=str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]

    digests = {"ckpt": [], "report": [], "metrics": []}
    for run in ("t1", "t2"):
        out = tmp_path / run
        proc = run_child(["train", "--dataset", toy, "--method", "sawar",
                          "--seed", "0", "--out", str(out),
                          "--max-epochs", "14", "--warmup-epochs", "2",
                          "--ramp-epochs", "6", "--batch-size", "16",
                          "--patience", "4"], cwd=str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        ckpt = out / "checkpoint.ckpt.json"
        digests["ckpt"].append(hashlib.sha256(ckpt.read_bytes()).hexdigest())
        digests["report"].append(hashlib.sha256(
            (out / "train_report.csv").read_bytes()).hexdigest())
        eout = tmp_path / f"{run}_eval"
        proc = run_child(["evaluate", "--model", str(ckpt), "--dataset", toy,
                          "--attack", "worstcase", "--eps-grid", "0,0.5",
                          "--out", str(eout)], cwd=str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        digests["metrics"].append(hashlib.sha256(
            (eout / "metrics.csv").read_bytes()).hexdigest())
    for kind, (a, b) in digests.items():
        assert a == b, f"{kind} differs between identical runs"
    print("PASS criterion 9: selftest output, checkpoints, and sweep metrics "
          "are byte-identical across repeated seeded runs")
