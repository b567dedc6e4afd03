"""Workload definitions shared by the benchmark and its set-up probe.

Every path is resolved against the checkout that holds this directory, so
the benchmark measures the certsurv sources next to it (``src/``) and not
an installed copy.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
INPUTS = BENCH / "inputs"

WORKLOADS = ("train-sawar", "train-pgd", "eval-grid")
FIXTURES = ("retinopathy", "stagec", "zinc")
METHODS = ("baseline", "noise", "fgsm", "pgd", "sawar")
ATTACKS = ("fgsm", "worstcase")
# Every train() call runs exactly this many epochs (patience never fires),
# so the work in a run does not depend on where early stopping lands.  A
# pgd epoch costs about 1.5 times a sawar epoch.  At 100 epochs, a 20 s
# run held only 2-3 train-pgd cycles, and their median spread 9% between
# runs; at 50, a run holds about twice as many.
TRAIN_EPOCHS = {"sawar": 100, "pgd": 50}
# Seeds whose eval-grid checkpoints are committed under inputs/.
CKPT_SEEDS = (0, 1)
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class CheckoutError(RuntimeError):
    """The directory does not hold the certsurv sources and data."""


def require_checkout() -> None:
    needed = [ROOT / "src" / "certsurv" / "__init__.py",
              ROOT / "src" / "certsurv" / "cli.py",
              INPUTS / "reference.json"]
    needed += [dataset_path(ds) for ds in FIXTURES]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise CheckoutError("not a certsurv checkout; missing "
                            + ", ".join(missing))


def use_checkout_source() -> None:
    src = str(ROOT / "src")
    if sys.path[:1] != [src]:
        sys.path.insert(0, src)


def dataset_path(name: str) -> Path:
    return ROOT / "data" / f"{name}.csv"


def ckpt_seed(seed: int) -> int:
    """The committed checkpoint set that eval-grid uses for a run seed."""
    return CKPT_SEEDS[seed % len(CKPT_SEEDS)]


def ckpt_name(ds: str, method: str) -> str:
    return f"{ds}_{method}.ckpt.json"


def ckpt_path(cseed: int, ds: str, method: str) -> Path:
    return INPUTS / f"s{cseed}" / ckpt_name(ds, method)


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def train_method(workload: str) -> str:
    return workload.split("-", 1)[1]


def train_config(method: str, seed: int):
    from certsurv.training import TrainConfig
    epochs = TRAIN_EPOCHS[method]
    return TrainConfig(method=method, seed=seed, max_epochs=epochs,
                       patience=epochs)


@dataclass
class SetUp:
    """What a workload needs before its first timed operation."""

    workload: str
    seed: int
    import_s: float = 0.0
    # fixture -> split
    splits: dict = field(default_factory=dict)
    # (fixture, method) -> (net, codec, config), for eval-grid
    models: dict = field(default_factory=dict)


def set_up(workload: str, seed: int) -> SetUp:
    """Import the CLI, load and split the fixtures, load checkpoints."""
    t0 = time.perf_counter()
    importlib.import_module("certsurv.cli")
    state = SetUp(workload, seed, import_s=time.perf_counter() - t0)
    from certsurv import data, training
    split_seed = ckpt_seed(seed) if workload == "eval-grid" else seed
    for ds in FIXTURES:
        raw = data.load_csv(dataset_path(ds))
        state.splits[ds] = data.stratified_split(raw, seed=split_seed)
    if workload == "eval-grid":
        cseed = ckpt_seed(seed)
        for ds in FIXTURES:
            for method in METHODS:
                state.models[(ds, method)] = training.load_checkpoint(
                    ckpt_path(cseed, ds, method))
    return state
