"""Training loop for every objective, with radius scheduling and early stop.

All methods share the loop: shuffle, batch, compute the method's loss and
gradients, apply one Adam update.  The perturbation radius ramps linearly
from 0 to eps_max over ramp_epochs after a warmup.  One rule picks the
returned weights: an epoch is eligible if it trained at eps_max, or if it is
the last epoch of a run that ends before the ramp does, and the eligible
epoch with the lowest finite validation loss wins.  A run with no such epoch
has diverged (TrainingDivergenceError), as has an epoch with no finite batch.
"""

from __future__ import annotations

import configparser
import json
import logging
import math
import numbers
from dataclasses import asdict, astuple, dataclass, field, fields

import numpy as np

from .data import Batch, FeatureCodec, SplitDataset, write_csv, write_json
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
    ("learning_rate sigma adam_eps", lambda v: 0 < v < math.inf,
     "must be finite and positive"),
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


def _perturbed(net: Network, batch: Batch, config: TrainConfig, eps: float,
               noise_seed) -> Batch:
    """The batch a baseline, noise, fgsm or pgd model is scored on at eps;
    it shares `batch.pairs`, which no perturbation changes."""
    if config.method == "baseline":
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

    The returned network is the eligible epoch's (see the module docstring)
    with the lowest finite validation loss; training stops once that loss
    has not improved for `patience` eligible epochs, or at max_epochs.
    """
    import time
    start = time.perf_counter()
    tr = split.train
    dims = [tr.X.shape[1], *config.hidden_dims, 1]
    net = init_network(dims, config.leaky_slope, seed=config.seed)
    state = init_adam(net, config.learning_rate, config.adam_beta1,
                      config.adam_beta2, config.adam_eps)
    report = TrainReport()
    best_net = None
    best_val = np.inf
    stale = 0
    n = len(tr.X)
    for epoch in range(config.max_epochs):
        eps = eps_schedule(config, epoch)
        shuffle_rng = np.random.default_rng((config.seed, epoch))
        order = shuffle_rng.permutation(n)
        sums = np.zeros(5)
        n_batches = n_stepped = 0
        for b0 in range(0, n, config.batch_size):
            idx = order[b0:b0 + config.batch_size]
            batch = Batch(tr.X[idx], tr.t[idx], tr.e[idx])
            breakdown, pgrads = _batch_loss_grads(net, batch, config, eps,
                                                  epoch, n_batches)
            if np.isfinite(breakdown.total) and pgrads.is_finite():
                net, state = adam_step(state, net, pgrads)
                # the epoch's means are over the batches that stepped
                sums += (breakdown.neg_ll, breakdown.rank,
                         breakdown.clean_combined, breakdown.certified_upper,
                         breakdown.total)
                n_stepped += 1
            else:
                log.warning("epoch %d batch %d: non-finite loss, update skipped",
                            epoch, n_batches)
            n_batches += 1
        if not n_stepped:
            raise TrainingDivergenceError(
                f"no finite training loss in epoch {epoch}", last_good=net)
        val_loss = _validation_loss(net, split.validation, config, eps,
                                    epoch)
        avg = sums / n_stepped
        report.rows.append(EpochRow(epoch, eps, *avg, val_loss))
        # the last epoch is at eps_max unless the run ends before the ramp
        if eps == config.eps_max or epoch == config.max_epochs - 1:
            if np.isfinite(val_loss) and val_loss < best_val:
                best_val, best_net, report.best_epoch = val_loss, net, epoch
                stale = 0
            else:
                stale += 1
                if stale >= config.patience:
                    break
    report.stopped_epoch = report.rows[-1].epoch
    if best_net is None:
        raise TrainingDivergenceError(
            "no finite validation loss in an eligible epoch", last_good=net)
    if report.rows[report.best_epoch].eps < config.eps_max:
        log.warning("training ended before the radius ramp completed; "
                    "returning final weights")
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
        "codec": codec.to_dict(),
        "config": config.to_dict(),
    }
    if extra:
        doc["extra"] = extra
    write_json(path, doc, sort_keys=False)


def load_checkpoint(path):
    """Inverse of save_checkpoint: (Network, FeatureCodec, TrainConfig).  A
    CheckpointError names path, and a field that is missing or malformed."""
    def arrays(rows):
        return [np.array(a, dtype=float) for a in rows]

    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, RecursionError, UnicodeDecodeError,
            json.JSONDecodeError) as exc:  # RecursionError: deep nesting
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise CheckpointError(f"checkpoint {path} is not a JSON object")
    if doc.get("schema_version") != CHECKPOINT_SCHEMA:
        raise CheckpointError(f"checkpoint {path} has unsupported schema "
                              f"{doc.get('schema_version')!r}")
    got = {}  # each field, what it holds and its reader
    for name, what, read in (
            ("codec", "feature codec", FeatureCodec.from_dict),
            ("config", "training config", TrainConfig.from_dict),
            ("weights", "weight matrices", arrays),
            ("biases", "bias vectors", arrays),
            ("layer_dims", "layer widths", None),
            ("leaky_slope", "activation slope", None)):
        if (value := doc.get(name)) is None:
            raise CheckpointError(f"checkpoint {path} has no {what} ({name})")
        try:
            got[name] = read(value) if read else value
        except (AttributeError, LookupError, OverflowError, TypeError,
                ValueError) as exc:  # a value of the wrong type, size or range
            problem = "lacks" if isinstance(exc, KeyError) else "is malformed:"
            raise CheckpointError(f"malformed checkpoint {path}: {name} "
                                  f"{problem} {exc}") from exc
    codec, config = got["codec"], got["config"]
    dims = [codec.dim, *config.hidden_dims, 1]
    # layer_dims and leaky_slope repeat the codec width and the config
    for name, want in (("layer_dims", dims),
                       ("leaky_slope", config.leaky_slope)):
        if got[name] != want:
            raise CheckpointError(f"malformed checkpoint {path}: codec and "
                                  f"config give {name} {want!r}, but the "
                                  f"checkpoint says {got[name]!r}")
    try:
        net = Network(dims, got["weights"], got["biases"], config.leaky_slope)
    except ValueError as exc:  # a shape that layer_dims does not give
        raise CheckpointError(f"malformed checkpoint {path}: weights or "
                              f"biases: {exc}") from exc
    if not np.isfinite(net.flat).all():
        raise CheckpointError(f"checkpoint {path} has non-finite parameters")
    return net, codec, config
