"""Training loop for every objective, with radius scheduling and early stop.

All methods share the loop: shuffle, batch, compute the method's loss and
gradients, apply one Adam update.  The perturbation radius ramps linearly
from 0 to eps_max over ramp_epochs after a warmup, and the early-stopping
monitor only starts once the ramp has finished, so the selected checkpoint
always comes from a full-radius epoch.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass, field, asdict

import numpy as np

from .data import FeatureCodec, SplitDataset
from .losses import (Batch, LossBreakdown, combined_loss,
                     combined_loss_components_grads, fgsm_perturb,
                     noise_perturb, pgd_perturb, sawar_loss_grads)
from .network import (Network, TrainingDivergenceError, adam_step,
                      init_adam, init_network)

log = logging.getLogger(__name__)

METHODS = ("baseline", "noise", "fgsm", "pgd", "sawar")
CHECKPOINT_SCHEMA = 1


class CheckpointError(ValueError):
    """Unreadable or incompatible checkpoint file."""


@dataclass
class TrainConfig:
    method: str = "baseline"
    kappa: float = 0.5
    eps_max: float = 0.5
    warmup_epochs: int = 10
    ramp_epochs: int = 30
    max_epochs: int = 500
    batch_size: int = 128
    patience: int = 20
    pgd_steps: int = 10
    sigma: float = 1.0
    w: float | None = None          # None means 1 / batch size
    seed: int = 0
    hidden_dims: tuple[int, ...] = (50, 50)
    leaky_slope: float = 0.01
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    fgsm_sign_mode: bool = False
    val_monitor: str = "objective"  # or "clean"
    normalize_onehot: bool = False  # standardize one-hot columns too

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.val_monitor not in ("objective", "clean"):
            raise ValueError(f"val_monitor must be 'objective' or 'clean', "
                             f"got {self.val_monitor!r}")
        if not (0.0 <= self.kappa <= 1.0):
            raise ValueError(f"kappa must lie in [0, 1], got {self.kappa}")
        if self.eps_max < 0:
            raise ValueError(f"eps_max must be nonnegative, got {self.eps_max}")
        if self.ramp_epochs < 1:
            raise ValueError(f"ramp_epochs must be >= 1, got {self.ramp_epochs}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if self.warmup_epochs < 0:
            raise ValueError(f"warmup_epochs must be >= 0, got {self.warmup_epochs}")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be positive, "
                             f"got {self.learning_rate}")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["hidden_dims"] = list(self.hidden_dims)
        return d

    @staticmethod
    def from_dict(d: dict) -> "TrainConfig":
        d = dict(d)
        if "hidden_dims" in d:
            d["hidden_dims"] = tuple(int(h) for h in d["hidden_dims"])
        return TrainConfig(**d)


@dataclass
class EpochRow:
    epoch: int
    eps: float
    train_neg_ll: float
    train_rank: float
    train_clean: float
    train_certified: float
    train_total: float
    val_loss: float


@dataclass
class TrainReport:
    rows: list[EpochRow] = field(default_factory=list)
    stopped_epoch: int = -1
    best_epoch: int = -1
    wall_time_s: float = 0.0

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "eps", "train_neg_ll", "train_rank",
                             "train_clean", "train_certified", "train_total",
                             "val_loss"])
            for r in self.rows:
                writer.writerow([r.epoch, repr(float(r.eps)),
                                 repr(float(r.train_neg_ll)),
                                 repr(float(r.train_rank)),
                                 repr(float(r.train_clean)),
                                 repr(float(r.train_certified)),
                                 repr(float(r.train_total)),
                                 repr(float(r.val_loss))])


def eps_schedule(config: TrainConfig, epoch: int) -> float:
    """0 during warmup, linear up to eps_max over the ramp, flat after."""
    if epoch < 0:
        raise ValueError(f"epoch must be nonnegative, got {epoch}")
    if epoch <= config.warmup_epochs:
        return 0.0
    ramped = epoch - config.warmup_epochs
    if ramped >= config.ramp_epochs:
        return config.eps_max
    return config.eps_max * ramped / config.ramp_epochs


def _guard_epoch(config: TrainConfig) -> int:
    """First epoch whose radius equals eps_max (checkpoint eligibility)."""
    if config.eps_max == 0.0:
        return 0
    return config.warmup_epochs + config.ramp_epochs


def _batch_loss_grads(net: Network, batch: Batch, config: TrainConfig,
                      eps: float, epoch: int, batch_idx: int):
    """Method dispatch; returns (LossBreakdown, ParamGrads)."""
    w, sigma = config.w, config.sigma
    if config.method == "sawar":
        breakdown, pgrads, _ = sawar_loss_grads(net, batch, eps, config.kappa,
                                                w, sigma)
        return breakdown, pgrads
    if config.method == "baseline" or eps == 0.0:
        perturbed = batch
    elif config.method == "noise":
        perturbed = noise_perturb(batch, eps, (config.seed, epoch, batch_idx))
    elif config.method == "fgsm":
        perturbed = fgsm_perturb(net, batch, eps, w, sigma,
                                 config.fgsm_sign_mode)
    else:  # pgd
        perturbed = pgd_perturb(net, batch, eps, config.pgd_steps, w, sigma,
                                config.fgsm_sign_mode)
    neg_ll, rank, value, pgrads, _ = combined_loss_components_grads(
        net, perturbed, w, sigma
    )
    breakdown = LossBreakdown(neg_ll, rank, value, value, value)
    return breakdown, pgrads


def _validation_loss(net: Network, split: SplitDataset, config: TrainConfig,
                     eps: float, epoch: int) -> float:
    """Early-stopping monitor: the method's own objective on validation.

    Selecting checkpoints by the clean loss systematically discards the
    robustness gained after the radius ramp (the certified term keeps
    falling while the clean term is flat), so the default evaluates the
    training objective itself; val_monitor="clean" restores the plain
    combined loss.
    """
    val = split.validation
    batch = Batch(val.X, val.t, val.e)
    w, sigma = config.w, config.sigma
    if config.val_monitor == "clean" or config.method == "baseline" or eps == 0.0:
        return combined_loss(net, batch, w, sigma)
    if config.method == "sawar":
        breakdown, _, _ = sawar_loss_grads(net, batch, eps, config.kappa,
                                           w, sigma, need_grads=False)
        return breakdown.total
    if config.method == "noise":
        # distinct stream from the training batches
        perturbed = noise_perturb(batch, eps, (config.seed, epoch, 10_000_019))
    elif config.method == "fgsm":
        perturbed = fgsm_perturb(net, batch, eps, w, sigma,
                                 config.fgsm_sign_mode)
    else:  # pgd
        perturbed = pgd_perturb(net, batch, eps, config.pgd_steps, w, sigma,
                                config.fgsm_sign_mode)
    return combined_loss(net, perturbed, w, sigma)


def train(config: TrainConfig, split: SplitDataset):
    """Run the configured method; returns (best Network, TrainReport).

    The returned network is the checkpoint with the best validation loss
    among guard-eligible epochs; training stops once that loss has not
    improved for `patience` eligible epochs, or at max_epochs.
    """
    import time
    start = time.perf_counter()
    tr = split.train
    dims = [tr.X.shape[1], *config.hidden_dims, 1]
    net = init_network(dims, config.leaky_slope, seed=config.seed)
    state = init_adam(net, config.learning_rate, config.adam_beta1,
                      config.adam_beta2, config.adam_eps)
    guard = _guard_epoch(config)
    report = TrainReport()
    best_net = None
    best_val = np.inf
    best_epoch = -1
    stale = 0
    n = len(tr.X)
    last_good = net
    for epoch in range(config.max_epochs):
        eps = eps_schedule(config, epoch)
        shuffle_rng = np.random.default_rng((config.seed, epoch))
        order = shuffle_rng.permutation(n)
        sums = np.zeros(5)
        n_batches = 0
        epoch_finite = False
        for b0 in range(0, n, config.batch_size):
            idx = order[b0:b0 + config.batch_size]
            batch = Batch(tr.X[idx], tr.t[idx], tr.e[idx], idx)
            breakdown, pgrads = _batch_loss_grads(net, batch, config, eps,
                                                  epoch, n_batches)
            if np.isfinite(breakdown.total) and pgrads.is_finite():
                epoch_finite = True
                net, state = adam_step(state, net, pgrads)
                last_good = net
            else:
                log.warning("epoch %d batch %d: non-finite loss, update skipped",
                            epoch, n_batches)
            sums += [breakdown.neg_ll, breakdown.rank, breakdown.clean_combined,
                     breakdown.certified_upper, breakdown.total]
            n_batches += 1
        if not epoch_finite:
            raise TrainingDivergenceError(
                f"no finite training loss in epoch {epoch}", last_good=last_good
            )
        val_loss = _validation_loss(net, split, config, eps, epoch)
        avg = sums / n_batches
        report.rows.append(EpochRow(epoch, eps, *avg, val_loss))
        if epoch >= guard:
            if val_loss < best_val:
                best_val = val_loss
                best_net = net.copy()
                best_epoch = epoch
                stale = 0
            else:
                stale += 1
                if stale >= config.patience:
                    break
    report.stopped_epoch = report.rows[-1].epoch
    if best_net is None:
        # max_epochs ended before the ramp finished; fall back to the last
        # weights rather than returning an ineligible checkpoint.
        log.warning("training ended before the radius ramp completed; "
                    "returning final weights")
        best_net = net.copy()
        best_epoch = report.stopped_epoch
    report.best_epoch = best_epoch
    report.wall_time_s = time.perf_counter() - start
    return best_net, report


def save_checkpoint(net: Network, codec: FeatureCodec, config: TrainConfig,
                    path, extra: dict | None = None) -> None:
    """Serialize weights, codec, and config as JSON (exact float round-trip)."""
    doc = {
        "schema_version": CHECKPOINT_SCHEMA,
        "layer_dims": list(net.layer_dims),
        "leaky_slope": net.leaky_slope,
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
        "codec": codec.to_dict() if codec is not None else None,
        "config": config.to_dict(),
    }
    if extra:
        doc["extra"] = extra
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_checkpoint(path):
    """Inverse of save_checkpoint: (Network, FeatureCodec, TrainConfig)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise CheckpointError(f"checkpoint {path} is not a JSON object")
    if doc.get("schema_version") != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"unsupported checkpoint schema {doc.get('schema_version')!r}"
        )
    try:
        net = Network(
            [int(d) for d in doc["layer_dims"]],
            [np.array(w, dtype=float) for w in doc["weights"]],
            [np.array(b, dtype=float) for b in doc["biases"]],
            float(doc["leaky_slope"]),
        )
        codec = (FeatureCodec.from_dict(doc["codec"])
                 if doc.get("codec") is not None else None)
        config = TrainConfig.from_dict(doc["config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed checkpoint {path}: {exc}") from exc
    return net, codec, config
