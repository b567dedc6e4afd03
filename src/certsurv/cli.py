"""Command-line entry point: train, evaluate, report, selftest.

Exit codes: 0 success, 2 configuration/usage error, 3 data error,
4 training divergence.  Every successful command writes a manifest.json
into its output directory before heavy work starts; outputs are written to
a temp file and renamed so failures never leave partial files.

Configuration precedence (lowest to highest): built-in defaults, the
`[train]` section of an INI-style config file, command-line flags.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import datetime
import json
import os
import sys

import numpy as np

from . import __version__
from .data import (CodecError, FormatError, RowError, atomic_open, load_csv,
                   stratified_split, write_csv)
from .metrics import (DEFAULT_EPS_GRID, AggregationError, attack_sweep,
                      censoring_km, emit_report, read_metrics_csv,
                      report_tables)
from .network import TrainingDivergenceError
from .survival import (km_estimator, population_curve,
                       population_curve_from_hazards, survival_quantiles,
                       default_time_grid)
from .training import (CheckpointError, TrainConfig, load_checkpoint,
                       save_checkpoint, train)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4

OUT_ROOT_ENV = "CERTSURV_OUT_ROOT"


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _out_root() -> str:
    return os.environ.get(OUT_ROOT_ENV, "runs")


def _write_manifest(out_dir: str, command: str, args: argparse.Namespace,
                    config: TrainConfig | None, datasets: list[str]) -> None:
    os.makedirs(out_dir, exist_ok=True)
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
    with atomic_open(os.path.join(out_dir, "manifest.json")) as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


_BOOL_FIELDS = {"fgsm_sign_mode", "normalize_onehot"}


def _config_from_file(path: str) -> dict:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8-sig")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise CliError(f"cannot parse config file {path}: {exc}",
                       EXIT_CONFIG) from exc
    if not read:
        raise CliError(f"cannot read config file {path}", EXIT_CONFIG)
    if not parser.has_section("train"):
        raise CliError(f"config file {path} has no [train] section", EXIT_CONFIG)
    valid = {f.name for f in dataclasses.fields(TrainConfig)}
    out = {}
    for key, raw in parser.items("train"):
        if key not in valid:
            raise CliError(f"unknown config key {key!r} in {path}", EXIT_CONFIG)
        try:
            if key in _BOOL_FIELDS:
                out[key] = parser.getboolean("train", key)
            elif key in ("method", "val_monitor"):
                out[key] = raw.strip()
            elif key == "hidden_dims":
                out[key] = tuple(int(v) for v in raw.replace(",", " ").split())
            elif key == "w":
                out[key] = None if raw.strip().lower() == "auto" else float(raw)
            elif key in ("warmup_epochs", "ramp_epochs", "max_epochs",
                         "batch_size", "patience", "pgd_steps", "seed"):
                out[key] = int(raw)
            else:
                out[key] = float(raw)
        except ValueError as exc:
            raise CliError(f"bad value for {key!r} in {path}: {exc}",
                           EXIT_CONFIG) from exc
    return out


def _resolve_train_config(args: argparse.Namespace) -> TrainConfig:
    overrides: dict = {}
    if getattr(args, "config", None):
        overrides.update(_config_from_file(args.config))
    for flag in ("method", "seed", "kappa", "eps_max", "max_epochs",
                 "batch_size", "patience", "warmup_epochs", "ramp_epochs",
                 "learning_rate", "pgd_steps"):
        val = getattr(args, flag, None)
        if val is not None:
            overrides[flag] = val
    try:
        return TrainConfig(**overrides)
    except (TypeError, ValueError) as exc:
        raise CliError(f"invalid configuration: {exc}", EXIT_CONFIG) from exc


def _load_split(dataset_path: str, seed: int, normalize_onehot: bool = False):
    try:
        raw = load_csv(dataset_path)
        return raw, stratified_split(raw, seed=seed,
                                     normalize_onehot=normalize_onehot)
    except (FormatError, RowError, CodecError, OSError) as exc:
        raise CliError(f"data error: {exc}", EXIT_DATA) from exc


def cmd_train(args: argparse.Namespace) -> int:
    config = _resolve_train_config(args)
    name = os.path.splitext(os.path.basename(args.dataset))[0]
    out_dir = args.out or os.path.join(
        _out_root(), f"train_{name}_{config.method}_s{config.seed}"
    )
    _write_manifest(out_dir, "train", args, config, [args.dataset])
    raw, split = _load_split(args.dataset, config.seed, config.normalize_onehot)
    try:
        net, report = train(config, split)
    except TrainingDivergenceError as exc:
        if exc.last_good is not None:
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
        raise CliError(f"bad --eps-grid: {exc}", EXIT_CONFIG) from exc
    if not grid or not all(np.isfinite(e) and e >= 0 for e in grid):
        raise CliError("--eps-grid must list finite nonnegative radii",
                       EXIT_CONFIG)
    return grid


def cmd_evaluate(args: argparse.Namespace) -> int:
    eps_grid = _parse_eps_grid(args.eps_grid)
    try:
        net, codec, config = load_checkpoint(args.model)
    except CheckpointError as exc:
        raise CliError(f"data error: {exc}", EXIT_DATA) from exc
    name = os.path.splitext(os.path.basename(args.dataset))[0]
    out_dir = args.out or os.path.join(
        _out_root(), f"eval_{name}_{config.method}_{args.attack}_s{config.seed}"
    )
    _write_manifest(out_dir, "evaluate", args, config, [args.dataset])
    raw, split = _load_split(args.dataset, config.seed, config.normalize_onehot)
    if codec is not None:
        same_cols = (codec.fac_levels.keys() <= raw.fac.keys()
                     and codec.num_stats.keys() <= raw.num.keys())
        if not same_cols or codec.dim != net.input_dim:
            raise CliError(
                "data error: checkpoint codec does not match the dataset "
                f"(codec dim {codec.dim}, net input {net.input_dim})",
                EXIT_DATA,
            )
        if split.codec.dim != codec.dim:
            raise CliError(
                f"data error: dataset encodes to {split.codec.dim} features "
                f"but the checkpoint expects {codec.dim}", EXIT_DATA)
    test = split.test
    ckm = censoring_km(split.train)
    curve_grid = default_time_grid(test.t)
    lo, hi = survival_quantiles(net, test.X, curve_grid)
    curve_payload = {
        "km_test": (curve_grid, km_estimator(test.t, test.e)(curve_grid)),
        "population_clean": (curve_grid,
                             population_curve(net, test.X, curve_grid)),
        "quantile_lo05": (curve_grid, lo),
        "quantile_hi95": (curve_grid, hi),
    }

    def worst_case_curve(eps, hazards):
        # the sweep's certified hazards give the worst-case population curve
        curve_payload[f"population_worstcase_eps{eps:g}"] = (
            curve_grid, population_curve_from_hazards(hazards, curve_grid))

    # --jobs is accepted and ignored: the cells run in this process
    records = attack_sweep(
        net, test, args.attack, sorted(eps_grid), config, ckm,
        dataset_name=name, method_name=config.method, seed=config.seed,
        on_hazards=worst_case_curve if args.attack == "worstcase" else None)
    summary = {
        "dataset": name,
        "method": config.method,
        "attack": args.attack,
        "eps_grid": eps_grid,
        "seed": config.seed,
        "config": config.to_dict(),
        "rows_dropped_nonpositive_time": raw.n_dropped_nonpositive,
        "overflow_cells": sum(r.negll_flag or r.ibs_flag or r.ci_flag
                              for r in records),
        "tool_version": __version__,
    }
    emit_report(records, out_dir, curves=curve_payload, summary=summary)
    print(f"evaluated {config.method} on {name} under {args.attack}: "
          f"{len(records)} cells -> {out_dir}/metrics.csv")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    out_dir = args.out or os.path.join(_out_root(), "report")
    if not os.path.isdir(args.inputs):
        raise CliError(f"data error: {args.inputs} is not a directory",
                       EXIT_DATA)
    records = []
    for root, _, files in sorted(os.walk(args.inputs)):
        if "metrics.csv" in files:
            records.extend(read_metrics_csv(os.path.join(root, "metrics.csv")))
    if not records:
        raise CliError(f"data error: no metrics.csv found under {args.inputs}",
                       EXIT_DATA)
    try:
        tables = report_tables(records)
    except AggregationError as exc:
        raise CliError(f"data error: {exc}", EXIT_DATA) from exc
    _write_manifest(out_dir, "report", args, None, [args.inputs])
    wrote = [os.path.join(out_dir, fname) for fname in tables]
    for path, (header, rows) in zip(wrote, tables.values()):
        write_csv(path, header, rows)
    print(f"report over {len(records)} records -> {', '.join(wrote)}")
    return EXIT_OK


def cmd_selftest(args: argparse.Namespace) -> int:
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
    p_train.add_argument("--method", required=True,
                         choices=["baseline", "noise", "fgsm", "pgd", "sawar"])
    p_train.add_argument("--config", help="INI config file with a [train] section")
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--out", help="output directory")
    p_train.add_argument("--kappa", type=float, default=None)
    p_train.add_argument("--eps-max", dest="eps_max", type=float, default=None)
    p_train.add_argument("--max-epochs", dest="max_epochs", type=int, default=None)
    p_train.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p_train.add_argument("--patience", type=int, default=None)
    p_train.add_argument("--warmup-epochs", dest="warmup_epochs", type=int,
                         default=None)
    p_train.add_argument("--ramp-epochs", dest="ramp_epochs", type=int,
                         default=None)
    p_train.add_argument("--learning-rate", dest="learning_rate", type=float,
                         default=None)
    p_train.add_argument("--pgd-steps", dest="pgd_steps", type=int, default=None)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("evaluate", help="metric sweep for a checkpoint")
    p_eval.add_argument("--model", required=True, help="checkpoint path")
    p_eval.add_argument("--dataset", required=True, help="survival CSV path")
    p_eval.add_argument("--attack", required=True, choices=["fgsm", "worstcase"])
    p_eval.add_argument("--eps-grid", dest="eps_grid", default=None,
                        help="comma-separated radii (default: the 12-point grid)")
    p_eval.add_argument("--out", help="output directory")
    p_eval.add_argument("--jobs", type=int, default=1,
                        help="ignored; kept for compatibility (cells run "
                             "sequentially in one process)")
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
        return exc.code
    except (FormatError, RowError, CodecError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TrainingDivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
