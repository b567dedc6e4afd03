"""Training loop for every objective, with radius scheduling and early stop.

All methods share the loop: shuffle, batch, compute the method's loss and
gradients, apply one Adam update.  The perturbation radius ramps linearly
from 0 to eps_max over ramp_epochs after a warmup, and the early-stopping
monitor only starts once the ramp has finished, so the selected checkpoint
always comes from a full-radius epoch.
"""

from __future__ import annotations

import configparser
import json
import logging
import math
import numbers
from dataclasses import asdict, astuple, dataclass, field, fields

import numpy as np

from .data import Batch, FeatureCodec, SplitDataset, atomic_open, write_csv
from .losses import (LossBreakdown, _clean_engine, _resolve_w, fgsm_perturb,
                     noise_perturb, pgd_perturb, sawar_loss_grads)
from .network import (Network, TrainingDivergenceError, _check_architecture,
                      adam_step, init_adam, init_network)

log = logging.getLogger(__name__)

METHODS = ("baseline", "noise", "fgsm", "pgd", "sawar")
CHECKPOINT_SCHEMA = 1


def _of(*kinds):
    """Type check for an instance of `kinds`, where a bool is not an int."""
    return lambda v: (isinstance(v, kinds)
                      and isinstance(v, bool) == (bool in kinds))


def _parse_bool(text: str) -> bool:
    states = configparser.ConfigParser.BOOLEAN_STATES  # getboolean's words
    if (key := text.strip().lower()) not in states:
        raise ValueError(f"not a boolean: {text!r}")
    return states[key]


# TrainConfig annotation -> (parser of INI/flag text, type check of a value);
# an integer (numpy's too) is fine where a float is expected
FIELD_TYPES = {
    "str": (str.strip, _of(str)),
    "bool": (_parse_bool, _of(bool)),
    "int": (int, _of(numbers.Integral)),
    "float": (float, _of(numbers.Real)),
    "float | None": (lambda text: None if text.strip().lower() == "auto"
                     else float(text), _of(numbers.Real, type(None))),
    "tuple[int, ...]": (
        lambda text: tuple(int(v) for v in text.replace(",", " ").split()),
        lambda v: _of(tuple)(v) and all(map(_of(numbers.Integral), v))),
}
# (fields, predicate, rule) for TrainConfig; NaN fails every predicate.  The
# network's rules check hidden_dims and leaky_slope.
_CONFIG_RULES = (
    ("method", lambda v: v in METHODS, f"must be one of {METHODS}"),
    ("val_monitor", lambda v: v in ("objective", "clean"),
     "must be 'objective' or 'clean'"),
    ("kappa", lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]"),
    ("eps_max warmup_epochs seed", lambda v: 0 <= v < math.inf,
     "must be finite and nonnegative"),
    ("ramp_epochs max_epochs batch_size patience pgd_steps", lambda v: v >= 1,
     "must be >= 1"),
    ("learning_rate sigma adam_eps", lambda v: v > 0, "must be positive"),
    ("adam_beta1 adam_beta2", lambda v: 0.0 <= v < 1.0, "must lie in [0, 1)"),
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
        typed = [(f.name, FIELD_TYPES[f.type][1], f"must be of type {f.type}")
                 for f in fields(self)]
        for names, ok, rule in (*typed, *_CONFIG_RULES):
            for name in names.split():
                value = getattr(self, name)
                if not ok(value):
                    raise ValueError(f"{name} {rule}, got {value!r}")
        _check_architecture([1, *self.hidden_dims, 1], self.leaky_slope)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["hidden_dims"] = list(self.hidden_dims)
        return d

    @staticmethod
    def from_dict(d: dict) -> "TrainConfig":
        # JSON gives the hidden widths back as a list
        return TrainConfig(**{k: tuple(v) if isinstance(v, list) else v
                              for k, v in d.items()})


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
    """The batch a baseline, noise, fgsm or pgd model is scored on at eps;
    it shares `batch.pairs`, which no perturbation changes."""
    if config.method == "baseline" or eps == 0.0:
        return batch
    if config.method == "noise":
        return noise_perturb(batch, eps, noise_seed)
    if config.method == "fgsm":
        return fgsm_perturb(net, batch, eps, config.w, config.sigma,
                            config.fgsm_sign_mode)
    return pgd_perturb(net, batch, eps, config.pgd_steps, config.w,
                       config.sigma, config.fgsm_sign_mode)


def _objective(net: Network, batch: Batch, config: TrainConfig, eps: float,
               noise_seed, need_grads: bool):
    """The method's own loss on `batch` at radius eps, and its parameter
    gradients (None without need_grads); the one dispatch on the method.
    `noise_seed` seeds the noise method's draw."""
    w, sigma = config.w, config.sigma
    if config.method == "sawar":
        breakdown, pgrads, _ = sawar_loss_grads(net, batch, eps, config.kappa,
                                                w, sigma, need_grads)
        return breakdown, pgrads
    perturbed = _perturbed(net, batch, config, eps, noise_seed)
    neg_ll, rank, value, pgrads, _ = _clean_engine(
        net, perturbed, _resolve_w(w, perturbed), sigma, need_grads
    )
    return LossBreakdown(neg_ll, rank, value, value, value), pgrads


def _batch_loss_grads(net: Network, batch: Batch, config: TrainConfig,
                      eps: float, epoch: int, batch_idx: int):
    """(LossBreakdown, ParamGrads) of one training batch."""
    return _objective(net, batch, config, eps,
                      (config.seed, epoch, batch_idx), need_grads=True)


def _validation_loss(net: Network, batch: Batch, config: TrainConfig,
                     eps: float, epoch: int) -> float:
    """Early-stopping monitor: the method's own objective on validation.

    Selecting checkpoints by the clean loss systematically discards the
    robustness gained after the radius ramp (the certified term keeps
    falling while the clean term is flat), so the default evaluates the
    training objective itself, through the code that trains it;
    val_monitor="clean" evaluates it at radius 0, the plain combined loss.
    `batch` is the whole validation split.
    """
    # the noise stream is distinct from the training batches'
    breakdown, _ = _objective(net, batch, config,
                              0.0 if config.val_monitor == "clean" else eps,
                              (config.seed, epoch, 10_000_019),
                              need_grads=False)
    return breakdown.total


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
            batch = Batch(tr.X[idx], tr.t[idx], tr.e[idx])
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
            sums += astuple(breakdown)
            n_batches += 1
        if not epoch_finite:
            raise TrainingDivergenceError(
                f"no finite training loss in epoch {epoch}", last_good=last_good
            )
        val_loss = _validation_loss(net, split.validation, config, eps,
                                    epoch)
        avg = sums / n_batches
        report.rows.append(EpochRow(epoch, eps, *avg, val_loss))
        if epoch >= guard:
            if val_loss < best_val:
                best_val = val_loss
                best_net = net
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
        best_net = net
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
    except (OSError, RecursionError, UnicodeDecodeError,
            json.JSONDecodeError) as exc:  # RecursionError: deep nesting
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise CheckpointError(f"checkpoint {path} is not a JSON object")
    if doc.get("schema_version") != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"unsupported checkpoint schema {doc.get('schema_version')!r}"
        )
    try:
        codec = (FeatureCodec.from_dict(doc["codec"])
                 if doc.get("codec") is not None else None)
        config = TrainConfig.from_dict(doc["config"])
        # layer_dims and leaky_slope repeat the codec width and the config
        dims = [codec.dim if codec is not None else doc["layer_dims"][0],
                *config.hidden_dims, 1]
        if (doc["layer_dims"] != dims
                or doc["leaky_slope"] != config.leaky_slope):
            raise ValueError(f"codec and config give layer_dims {dims} and "
                             f"leaky_slope {config.leaky_slope}, which the "
                             "checkpoint's own copies contradict")
        net = Network(dims, [np.array(w, dtype=float) for w in doc["weights"]],
                      [np.array(b, dtype=float) for b in doc["biases"]],
                      config.leaky_slope)
    except (AttributeError, LookupError, OverflowError, TypeError,
            ValueError) as exc:  # a value of the wrong type, size or range
        raise CheckpointError(f"malformed checkpoint {path}: {exc}") from exc
    if not all(np.isfinite(p).all() for p in net.params):
        raise CheckpointError(f"checkpoint {path} has non-finite parameters")
    return net, codec, config
