"""Training loop for every objective, with radius scheduling and early stop.

All methods share the loop: shuffle, batch, compute the method's loss and
gradients, apply one Adam update.  The perturbation radius ramps linearly
from 0 to eps_max over ramp_epochs after a warmup, and the early-stopping
monitor only starts once the ramp has finished, so the selected checkpoint
always comes from a full-radius epoch.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, astuple, dataclass, field, fields

import numpy as np

from .data import FeatureCodec, SplitDataset, atomic_open, write_csv
from .losses import (Batch, LossBreakdown, _clean_engine, _resolve_w,
                     combined_loss, fgsm_perturb, noise_perturb, pgd_perturb,
                     sawar_loss_grads)
from .network import (Network, TrainingDivergenceError, adam_step,
                      init_adam, init_network)

log = logging.getLogger(__name__)

METHODS = ("baseline", "noise", "fgsm", "pgd", "sawar")
CHECKPOINT_SCHEMA = 1
# (fields, predicate, rule) for TrainConfig; NaN fails every predicate
_CONFIG_RULES = (
    ("kappa", lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]"),
    ("eps_max warmup_epochs seed", lambda v: 0 <= v < math.inf,
     "must be finite and nonnegative"),
    ("ramp_epochs max_epochs batch_size patience pgd_steps", lambda v: v >= 1,
     "must be >= 1"),
    ("learning_rate sigma adam_eps", lambda v: v > 0, "must be positive"),
    ("adam_beta1 adam_beta2", lambda v: 0.0 <= v < 1.0, "must lie in [0, 1)"),
    ("leaky_slope", lambda v: 0.0 < v < 1.0, "must lie in (0, 1)"),
    ("hidden_dims", lambda v: all(h >= 1 for h in v), "must be widths >= 1"),
    ("w", lambda v: v is None or 0.0 <= v < math.inf,
     "must be None or a finite nonnegative weight"),
)


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
        for names, ok, rule in _CONFIG_RULES:
            for name in names.split():
                value = getattr(self, name)
                if not ok(value):
                    raise ValueError(f"{name} {rule}, got {value!r}")

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
        rows = [[r.epoch, *[repr(float(v)) for v in astuple(r)[1:]]]
                for r in self.rows]
        write_csv(path, [f.name for f in fields(EpochRow)], rows)


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


def _perturbed(net: Network, batch: Batch, config: TrainConfig, eps: float,
               noise_seed) -> Batch:
    """The batch a baseline, noise, fgsm or pgd model is scored on at eps."""
    if config.method == "baseline" or eps == 0.0:
        return batch
    if config.method == "noise":
        return noise_perturb(batch, eps, noise_seed)
    if config.method == "fgsm":
        return fgsm_perturb(net, batch, eps, config.w, config.sigma,
                            config.fgsm_sign_mode)
    return pgd_perturb(net, batch, eps, config.pgd_steps, config.w,
                       config.sigma, config.fgsm_sign_mode)


def _batch_loss_grads(net: Network, batch: Batch, config: TrainConfig,
                      eps: float, epoch: int, batch_idx: int):
    """Method dispatch; returns (LossBreakdown, ParamGrads)."""
    w, sigma = config.w, config.sigma
    if config.method == "sawar":
        breakdown, pgrads, _ = sawar_loss_grads(net, batch, eps, config.kappa,
                                                w, sigma)
        return breakdown, pgrads
    perturbed = _perturbed(net, batch, config, eps,
                           (config.seed, epoch, batch_idx))
    neg_ll, rank, value, pgrads, _ = _clean_engine(
        net, perturbed, _resolve_w(w, perturbed), sigma, need_grads=True
    )
    breakdown = LossBreakdown(neg_ll, rank, value, value, value)
    return breakdown, pgrads


def _validation_loss(net: Network, batch: Batch, config: TrainConfig,
                     eps: float, epoch: int) -> float:
    """Early-stopping monitor: the method's own objective on validation.

    Selecting checkpoints by the clean loss systematically discards the
    robustness gained after the radius ramp (the certified term keeps
    falling while the clean term is flat), so the default evaluates the
    training objective itself; val_monitor="clean" restores the plain
    combined loss.  `batch` is the whole validation split.
    """
    w, sigma = config.w, config.sigma
    if config.val_monitor == "clean":
        return combined_loss(net, batch, w, sigma)
    if config.method == "sawar" and eps != 0.0:
        breakdown, _, _ = sawar_loss_grads(net, batch, eps, config.kappa,
                                           w, sigma, need_grads=False)
        return breakdown.total
    # the noise stream is distinct from the training batches'
    perturbed = _perturbed(net, batch, config, eps,
                           (config.seed, epoch, 10_000_019))
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
    val = split.validation
    val_batch = Batch(val.X, val.t, val.e)
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
            try:
                if not np.isfinite(breakdown.total):
                    raise TrainingDivergenceError("non-finite loss")
                # adam_step refuses a non-finite gradient
                net, state = adam_step(state, net, pgrads)
            except TrainingDivergenceError:
                log.warning("epoch %d batch %d: non-finite loss, update skipped",
                            epoch, n_batches)
            else:
                epoch_finite = True
                last_good = net
            sums += [breakdown.neg_ll, breakdown.rank, breakdown.clean_combined,
                     breakdown.certified_upper, breakdown.total]
            n_batches += 1
        if not epoch_finite:
            raise TrainingDivergenceError(
                f"no finite training loss in epoch {epoch}", last_good=last_good
            )
        val_loss = _validation_loss(net, val_batch, config, eps, epoch)
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
    with atomic_open(path) as fh:
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
    dims = net.layer_dims
    shapes = [(o, i) for i, o in zip(dims[:-1], dims[1:])]
    if ([w.shape for w in net.weights] != shapes
            or [b.shape for b in net.biases] != [(o,) for o, _ in shapes]):
        raise CheckpointError(f"checkpoint {path}: parameter shapes do not "
                              f"match layer_dims {dims}")
    if not all(np.isfinite(p).all() for p in (*net.weights, *net.biases)):
        raise CheckpointError(f"checkpoint {path} has non-finite parameters")
    return net, codec, config
