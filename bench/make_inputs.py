"""Generate the benchmark's committed inputs and reference values.

Usage (from the root of a checkout):

    python3 bench/make_inputs.py

* ``inputs/s<k>/<fixture>_<method>.ckpt.json`` for every seed k in
  ``workloads.CKPT_SEEDS``: the 15 eval-grid checkpoints, trained through
  ``certsurv train`` with the default configuration.
* ``inputs/reference.json``: sha256 of every dataset and checkpoint; the
  ``metrics.csv`` of all 30 eval-grid cells and the three ``report`` tables
  per checkpoint seed; and clean concordance plus worst-case integrated
  Brier score at radius 0.5 of every model the train-* workloads produce
  for run seeds 0 .. TRAIN_REF_SEEDS - 1.

Run it on the code the references should describe; the output is
deterministic for a given code version.
"""

from __future__ import annotations

import contextlib
import io
import json
import logging
import shutil
import tempfile
from pathlib import Path

import run  # first: caps BLAS threads before numpy loads
import checker
import workloads as wl

# train-* run seeds whose model quality reference.json records.
TRAIN_REF_SEEDS = 10


def make_checkpoints(tmp_dir: Path) -> None:
    from certsurv import cli
    for cseed in wl.CKPT_SEEDS:
        (wl.INPUTS / f"s{cseed}").mkdir(parents=True, exist_ok=True)
        for ds in wl.FIXTURES:
            for method in wl.METHODS:
                out = tmp_dir / f"train_s{cseed}_{ds}_{method}"
                argv = ["train", "--dataset", str(wl.dataset_path(ds)),
                        "--method", method, "--seed", str(cseed),
                        "--out", str(out)]
                with contextlib.redirect_stdout(io.StringIO()):
                    if cli.main(argv) != 0:
                        raise SystemExit(f"training failed: {argv}")
                shutil.copyfile(out / "checkpoint.ckpt.json",
                                wl.ckpt_path(cseed, ds, method))
                print(f"checkpoint s{cseed} {ds} {method}", flush=True)


def eval_reference(tmp_dir: Path) -> dict:
    refs = {}
    for cseed in wl.CKPT_SEEDS:
        state = wl.set_up("eval-grid", cseed)
        ops = run.eval_cycle(state, tmp_dir / f"eval_s{cseed}")
        cells, report = {}, {}
        for op in ops:
            if op.problems:
                raise SystemExit(f"{op.key}: {op.problems}")
            if op.key[0] == "report":
                report = {f: checker.read_rows(op.output / f)
                          for f in checker.REPORT_FILES}
            else:
                ds, method, attack, _ = op.key
                cells[f"{ds}_{method}_{attack}"] = checker.read_rows(
                    op.output / "metrics.csv")
        refs[str(cseed)] = {"cells": cells, "report": report}
        print(f"eval-grid reference s{cseed}", flush=True)
    return refs


def train_reference() -> dict:
    refs = {}
    for method in ("sawar", "pgd"):
        refs[method] = {}
        for seed in range(TRAIN_REF_SEEDS):
            state = wl.set_up(f"train-{method}", seed)
            per_fixture = {}
            for op in run.train_cycle(state, method):
                net, _, config = op.output
                per_fixture[op.key[0]] = checker.model_quality(
                    net, state.splits[op.key[0]], config)
            refs[method][str(seed)] = per_fixture
            print(f"train reference {method} seed {seed}: {per_fixture}",
                  flush=True)
    return refs


def main() -> None:
    wl.use_checkout_source()
    logging.getLogger("certsurv").addHandler(logging.NullHandler())
    run.OUT_DIR.mkdir(exist_ok=True)
    tmp_dir = Path(tempfile.mkdtemp(prefix="inputs-", dir=run.OUT_DIR))
    try:
        make_checkpoints(tmp_dir)
        inputs = {
            "datasets": {ds: wl.sha256_file(wl.dataset_path(ds))
                         for ds in wl.FIXTURES},
            "checkpoints": {
                f"s{k}/{wl.ckpt_name(ds, m)}": wl.sha256_file(
                    wl.ckpt_path(k, ds, m))
                for k in wl.CKPT_SEEDS for ds in wl.FIXTURES
                for m in wl.METHODS},
        }
        reference = {"inputs": inputs,
                     "eval_grid": eval_reference(tmp_dir),
                     "train": train_reference()}
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    with open(wl.INPUTS / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
