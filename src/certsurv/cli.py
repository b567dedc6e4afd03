"""Command-line entry point: train, evaluate, report, selftest.

Exit codes: 0 success, 1 a failed `selftest`, 2 configuration/usage error
or any output that cannot be written, 3 data error, 4 training divergence;
`main` alone maps a failure to its code, but for a diverged `train`, which
saves its last good weights first.  `train` and `evaluate` write a
manifest.json into their output directory before heavy work starts;
`report` writes its manifest only after it has read and aggregated its
inputs; `selftest` writes no file.  Each output is written atomically, but
a failed command may leave the files it finished first.

Configuration precedence (lowest to highest): built-in defaults, the
`[train]` section of an INI-style config file, command-line flags.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import datetime
import os
import sys

import numpy as np

from . import __version__
from .data import (CodecError, FormatError, apply_codec, load_csv,
                   split_indices, stratified_split, write_csv, write_json)
from .metrics import (ATTACKS, DEFAULT_EPS_GRID, AggregationError,
                      attack_sweep, emit_report, read_metrics_csv,
                      report_tables)
from .network import TrainingDivergenceError, forward_batch
from .survival import (default_time_grid, hazard, km_estimator,
                       population_curve, survival_quantiles)
from .training import (FIELD_TYPES, METHODS, CheckpointError, TrainConfig,
                       load_checkpoint, save_checkpoint, train)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4

OUT_ROOT_ENV = "CERTSURV_OUT_ROOT"


class CliError(Exception):
    """A usage or configuration error (exit 2)."""


def _out_root() -> str:
    return os.environ.get(OUT_ROOT_ENV, "runs")


def _write_manifest(out_dir: str, command: str, args: argparse.Namespace,
                    config: TrainConfig | None, datasets: list[str]) -> None:
    doc = {
        "command": command,
        "argv": sys.argv[1:],
        "config_file": getattr(args, "config", None),
        "resolved_config": config.to_dict() if config is not None else None,
        "datasets": datasets,
        "out_dir": out_dir,
        "seed": getattr(args, "seed", None),
        "tool_version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    os.makedirs(out_dir, exist_ok=True)
    write_json(os.path.join(out_dir, "manifest.json"), doc)


# TrainConfig fields that `certsurv train` also takes as flags
_TRAIN_FLAGS = ("method", "seed", "kappa", "eps_max", "max_epochs",
               "batch_size", "patience", "warmup_epochs", "ramp_epochs",
               "learning_rate", "pgd_steps")
_FIELD_PARSERS = {f.name: FIELD_TYPES[f.type][0]
                  for f in dataclasses.fields(TrainConfig)}


def _config_from_file(path: str) -> dict:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8-sig")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise CliError(f"cannot parse config file {path}: {exc}") from exc
    if not read:
        raise CliError(f"cannot read config file {path}")
    if not parser.has_section("train"):
        raise CliError(f"config file {path} has no [train] section")
    out = {}
    for key, raw in parser.items("train"):
        if key not in _FIELD_PARSERS:
            raise CliError(f"unknown config key {key!r} in {path}")
        try:
            out[key] = _FIELD_PARSERS[key](raw)
        except ValueError as exc:
            raise CliError(f"bad value for {key!r} in {path}: {exc}") from exc
    return out


def _resolve_train_config(args: argparse.Namespace) -> TrainConfig:
    overrides: dict = {}
    if getattr(args, "config", None):
        overrides.update(_config_from_file(args.config))
    overrides.update({flag: val for flag in _TRAIN_FLAGS
                      if (val := getattr(args, flag, None)) is not None})
    if "method" not in overrides:
        raise CliError("no training method: pass --method or set method in "
                       "the [train] section of --config")
    try:
        return TrainConfig(**overrides)
    except (TypeError, ValueError) as exc:
        raise CliError(f"invalid configuration: {exc}") from exc


def cmd_train(args: argparse.Namespace) -> int:
    config = _resolve_train_config(args)
    name = os.path.splitext(os.path.basename(args.dataset))[0]
    out_dir = args.out or os.path.join(
        _out_root(), f"train_{name}_{config.method}_s{config.seed}"
    )
    _write_manifest(out_dir, "train", args, config, [args.dataset])
    split = stratified_split(load_csv(args.dataset), config.seed,
                             config.normalize_onehot)
    try:
        net, report = train(config, split)
    except TrainingDivergenceError as exc:
        path = os.path.join(out_dir, "last_good.ckpt.json")
        save_checkpoint(exc.last_good, split.codec, config, path,
                        extra={"dataset": name, "diverged": True})
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    ckpt_path = os.path.join(out_dir, "checkpoint.ckpt.json")
    save_checkpoint(net, split.codec, config, ckpt_path,
                    extra={"dataset": name, "best_epoch": report.best_epoch,
                           "stopped_epoch": report.stopped_epoch})
    report.to_csv(os.path.join(out_dir, "train_report.csv"))
    print(f"trained {config.method} on {name}: best epoch "
          f"{report.best_epoch}, stopped at {report.stopped_epoch}, "
          f"checkpoint {ckpt_path}")
    return EXIT_OK


def _parse_eps_grid(raw: str | None):
    if raw is None:
        return list(DEFAULT_EPS_GRID)
    try:
        grid = [float(v) for v in raw.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise CliError(f"bad --eps-grid: {exc}") from exc
    if not grid or not all(np.isfinite(e) and e >= 0 for e in grid):
        raise CliError("--eps-grid must list finite nonnegative radii")
    if len({f"{abs(e):g}" for e in grid}) < len(grid):  # -0.0 is 0.0
        raise CliError(f"--eps-grid radii must differ under %g (each names a "
                       f"curve in curves.csv and a report cell): {raw}")
    return grid


def cmd_evaluate(args: argparse.Namespace) -> int:
    eps_grid = _parse_eps_grid(args.eps_grid)
    net, codec, config = load_checkpoint(args.model)
    name = os.path.splitext(os.path.basename(args.dataset))[0]
    out_dir = args.out or os.path.join(
        _out_root(), f"eval_{name}_{config.method}_{args.attack}_s{config.seed}"
    )
    _write_manifest(out_dir, "evaluate", args, config, [args.dataset])
    raw = load_csv(args.dataset)
    train_idx, _, test_idx = split_indices(raw, config.seed)
    test = apply_codec(codec, raw.take(test_idx))
    # censoring distribution of the training rows (events flipped)
    ckm = km_estimator(raw.time[train_idx], 1 - raw.event[train_idx])
    curve_grid = default_time_grid(test.t)
    with np.errstate(over="ignore", invalid="ignore"):  # as in attack_sweep
        clean_hazards = hazard(forward_batch(net, test.X)[0])
        lo, hi = survival_quantiles(clean_hazards, curve_grid)
        curves = {
            "km_test": km_estimator(test.t, test.e)(curve_grid),
            "population_clean": population_curve(clean_hazards, curve_grid),
            "quantile_lo05": lo,
            "quantile_hi95": hi,
        }

    def worst_case_curve(eps, G):
        # the sweep's certified scores give the worst-case population curve
        curves[f"population_worstcase_eps{eps:g}"] = population_curve(
            hazard(G), curve_grid)

    records = attack_sweep(
        net, test, args.attack, sorted(eps_grid), config, ckm,
        dataset_name=name, method_name=config.method, seed=config.seed,
        on_scores=worst_case_curve if args.attack == "worstcase" else None)
    summary = {
        "dataset": name,
        "method": config.method,
        "attack": args.attack,
        "eps_grid": eps_grid,
        "seed": config.seed,
        "config": config.to_dict(),
        "rows_dropped_nonpositive_time": raw.n_dropped_nonpositive,
        "flagged_cells": sum(r.negll_flag or r.ibs_flag or r.ci_flag
                             for r in records),
        "tool_version": __version__,
    }
    emit_report(records, out_dir, curves=(curve_grid, curves), summary=summary)
    print(f"evaluated {config.method} on {name} under {args.attack}: "
          f"{len(records)} cells -> {out_dir}/metrics.csv")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    out_dir = args.out or os.path.join(_out_root(), "report")
    if not os.path.isdir(args.inputs):
        raise FormatError(f"{args.inputs} is not a directory")
    records = []
    for root, _, files in sorted(os.walk(args.inputs)):
        if "metrics.csv" in files:
            records.extend(read_metrics_csv(os.path.join(root, "metrics.csv")))
    if not records:
        raise FormatError(f"no metrics.csv found under {args.inputs}")
    tables = report_tables(records)
    _write_manifest(out_dir, "report", args, None, [args.inputs])
    wrote = [os.path.join(out_dir, fname) for fname in tables]
    for path, (header, rows) in zip(wrote, tables.values()):
        write_csv(path, header, rows)
    print(f"report over {len(records)} records -> {', '.join(wrote)}")
    return EXIT_OK


def cmd_selftest(args: argparse.Namespace) -> int:
    if args.seed < 0 or args.trials < 1:
        raise CliError("need --seed >= 0 and --trials >= 1")
    from .selftest import run_selftest
    ok = run_selftest(seed=args.seed, trials=args.trials)
    return EXIT_OK if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="certsurv",
        description="Robust exponential proportional-hazard survival models "
                    "with certified evaluation sweeps.",
        epilog="Config precedence: defaults < config file [train] section < "
               "flags. Output root defaults to ./runs, or the "
               f"{OUT_ROOT_ENV} environment variable.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="fit one method on one dataset")
    p_train.add_argument("--dataset", required=True, help="survival CSV path")
    p_train.add_argument("--config", help="INI config file with a [train] section")
    p_train.add_argument("--out", help="output directory")
    for name in _TRAIN_FLAGS:
        kind = ({"choices": METHODS} if name == "method"
                else {"type": _FIELD_PARSERS[name], "default": None})
        p_train.add_argument("--" + name.replace("_", "-"), dest=name, **kind)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("evaluate", help="metric sweep for a checkpoint")
    p_eval.add_argument("--model", required=True, help="checkpoint path")
    p_eval.add_argument("--dataset", required=True, help="survival CSV path")
    p_eval.add_argument("--attack", required=True, choices=ATTACKS)
    p_eval.add_argument("--eps-grid", dest="eps_grid", default=None,
                        help="comma-separated radii (default: the 12-point grid)")
    p_eval.add_argument("--out", help="output directory")
    p_eval.set_defaults(func=cmd_evaluate)

    p_rep = sub.add_parser("report", help="aggregate metrics.csv files")
    p_rep.add_argument("--inputs", required=True,
                       help="directory tree containing metrics.csv files")
    p_rep.add_argument("--out", help="output directory")
    p_rep.set_defaults(func=cmd_report)

    p_self = sub.add_parser("selftest",
                            help="run the built-in oracle suites")
    p_self.add_argument("--seed", type=int, default=0)
    p_self.add_argument("--trials", type=int, default=50)
    p_self.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (AggregationError, CheckpointError, CodecError, FormatError) as exc:
        print(f"error: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        # reads raise data errors; filename2 is a failed rename's target
        print(f"error: cannot write {exc.filename2 or exc.filename}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
