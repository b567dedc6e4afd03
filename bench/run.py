"""certsurv benchmark: certified training, attack training, evaluation grid.

Usage (from the root of a checkout):

    python3 bench/run.py --workload train-sawar --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all          # every workload, one table

One process drives the library and CLI in a closed loop: a single caller,
each operation starting after the previous one finished.  A run repeats
whole cycles of its workload, as many as fit in ``--seconds`` (at least
one), and reports medians over cycles.  With ``--trace 1`` it instead runs
one untraced and one traced cycle and reports per-layer span metrics.  The
last line of standard output is the result object; the line before it
records the environment and input digests.  See bench/README.md.
"""

from __future__ import annotations

import os

import workloads as wl

# Cap BLAS threads before numpy is first imported (children inherit it).
for _var in wl.BLAS_ENV:
    os.environ[_var] = str(wl.BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

N_PROBES = 7
PROBE_TIMEOUT_S = 60
OUT_DIR = wl.ROOT / ".bench_out"

# The speed.py kernel that resembles each workload's dominant work.
SPEED_KERNEL = {"train-sawar": "numpy", "train-pgd": "numpy",
                "eval-grid": "python"}

END_TO_END_UNITS = {"setup_s": "s", "work_s": "s", "rows_per_s": "rows/s",
                    "peak_rss_mb": "MB"}


@dataclass
class Op:
    """One timed operation: a train() call or a CLI command."""

    key: tuple
    seconds: float
    rows: int
    output: object = None
    problems: list = field(default_factory=list)


@dataclass
class Cycle:
    ops: list
    wall_s: float           # including the speed-probe slices
    speed_factor: float     # see speed.py
    traced: bool = False

    def seconds(self, kind=None) -> float:
        return sum(op.seconds for op in self.ops
                   if kind is None or op.key[-1] == kind)


# -- set-up --------------------------------------------------------------

def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """(set-up seconds, certsurv.cli import seconds) in a fresh interpreter."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(wl.BENCH / "probe.py"), "--workload", workload,
         "--seed", str(seed)],
        cwd=wl.ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    return doc["done"] - t0, doc["import_s"]


def input_digests(workload: str, seed: int, reference: dict) -> dict:
    """sha256 of every input file, and which differ from the reference."""
    digests = {"datasets": {ds: wl.sha256_file(wl.dataset_path(ds))
                            for ds in wl.FIXTURES}}
    if workload == "eval-grid":
        cseed = wl.ckpt_seed(seed)
        digests["checkpoints"] = {
            f"s{cseed}/{wl.ckpt_name(ds, m)}":
                wl.sha256_file(wl.ckpt_path(cseed, ds, m))
            for ds in wl.FIXTURES for m in wl.METHODS}
    expected = reference["inputs"]
    digests["tampered"] = sorted(
        name for group in ("datasets", "checkpoints")
        for name, sha in digests.get(group, {}).items()
        if expected[group].get(name) != sha)
    return digests


# -- workload cycles ------------------------------------------------------

def _no_pause(op_seconds: float) -> None:
    pass


def train_cycle(state, method: str, after_op=_no_pause) -> list[Op]:
    from certsurv import training
    ops = []
    for ds in wl.FIXTURES:
        split = state.splits[ds]
        config = wl.train_config(method, state.seed)
        t0 = time.perf_counter()
        net, report = training.train(config, split)
        dt = time.perf_counter() - t0
        epochs = report.stopped_epoch + 1
        ops.append(Op((ds, "train"), dt, epochs * len(split.train.X),
                      (net, report, config)))
        after_op(dt)
    return ops


def eval_cycle(state, out_dir, after_op=_no_pause) -> list[Op]:
    from certsurv import cli, metrics
    cells = len(metrics.DEFAULT_EPS_GRID)
    cseed = wl.ckpt_seed(state.seed)
    sink = io.StringIO()
    ops = []
    for ds in wl.FIXTURES:
        n_test = len(state.splits[ds].test.X)
        for method in wl.METHODS:
            for attack in wl.ATTACKS:
                out = out_dir / "eval" / f"{ds}_{method}_{attack}"
                argv = ["evaluate", "--model",
                        str(wl.ckpt_path(cseed, ds, method)),
                        "--dataset", str(wl.dataset_path(ds)),
                        "--attack", attack, "--out", str(out)]
                with contextlib.redirect_stdout(sink):
                    t0 = time.perf_counter()
                    code = cli.main(argv)
                    dt = time.perf_counter() - t0
                op = Op((ds, method, attack, "evaluate"), dt, cells * n_test,
                        out)
                if code != 0:
                    op.problems.append(f"evaluate exited {code}")
                ops.append(op)
                after_op(dt)
    out = out_dir / "report"
    argv = ["report", "--inputs", str(out_dir / "eval"), "--out", str(out)]
    with contextlib.redirect_stdout(sink):
        t0 = time.perf_counter()
        code = cli.main(argv)
        dt = time.perf_counter() - t0
    op = Op(("report",), dt, 0, out)
    if code != 0:
        op.problems.append(f"report exited {code}")
    ops.append(op)
    after_op(dt)
    return ops


def run_cycle(state, tmp_dir, index: int, traced: bool,
              work_speed) -> Cycle:
    first_slice = len(work_speed.slices)
    t0 = time.perf_counter()
    if state.workload == "eval-grid":
        ops = eval_cycle(state, tmp_dir / f"cycle{index}", work_speed.after)
    else:
        ops = train_cycle(state, wl.train_method(state.workload),
                          work_speed.after)
    return Cycle(ops, time.perf_counter() - t0,
                 work_speed.factor(first_slice), traced)


# -- checks ---------------------------------------------------------------

def check_train(cycles, state, reference) -> list[dict]:
    """Check the first cycle's models; later cycles must match them."""
    import numpy as np

    import checker
    rng = np.random.default_rng((state.seed, 7))
    refs = reference["train"].get(wl.train_method(state.workload), {}).get(
        str(state.seed), {})
    qualities = []
    first = cycles[0].ops
    for op in first:
        net, _, config = op.output
        split = state.splits[op.key[0]]
        op.problems += checker.check_model(net, split, rng)
        if not op.problems:
            quality = checker.model_quality(net, split, config)
            qualities.append(quality)
            if op.key[0] in refs:
                op.problems += checker.check_quality(quality, refs[op.key[0]])
    if not refs and qualities:
        floor = checker.check_quality_floor(qualities)
        for op in first:
            op.problems += floor
    for cycle in cycles[1:]:
        for op, ref_op in zip(cycle.ops, first):
            same = all(np.array_equal(a, b) for a, b in zip(
                [*op.output[0].weights, *op.output[0].biases],
                [*ref_op.output[0].weights, *ref_op.output[0].biases]))
            if not same:
                op.problems.append("model differs from the first cycle's")
            op.problems += ref_op.problems
    return qualities


def check_eval(cycles, state, reference, tampered) -> list[dict]:
    import checker
    from certsurv import metrics
    ref = reference["eval_grid"][str(wl.ckpt_seed(state.seed))]
    dominance = {}
    for (ds, method), (net, _, config) in state.models.items():
        dominance[(ds, method)] = checker.check_dominance(
            net, state.splits[ds], config, metrics.DEFAULT_EPS_GRID)
    cseed = wl.ckpt_seed(state.seed)
    for cycle in cycles:
        for op in cycle.ops:
            if op.key[0] == "report":
                op.problems += checker.check_report_output(op.output,
                                                           ref["report"])
                continue
            ds, method, attack, _ = op.key
            name = f"s{cseed}/{wl.ckpt_name(ds, method)}"
            if name in tampered:
                op.problems.append(f"checkpoint {name} differs from the "
                                   "committed input")
            if attack == "worstcase":
                op.problems += dominance[(ds, method)]
            op.problems += checker.compare_csv(
                op.output / "metrics.csv",
                ref["cells"][f"{ds}_{method}_{attack}"])
    return grid_quality(cycles[-1])


def grid_quality(cycle) -> list[dict]:
    """Clean concordance and worst-case IBS at 0.5 per checkpoint, read
    back from the cycle's metrics.csv files."""
    import checker
    by_model = {}
    for op in cycle.ops:
        if op.key[0] == "report" or op.problems:
            continue
        ds, method, attack, _ = op.key
        rows = checker.read_rows(op.output / "metrics.csv")
        head = rows[0]
        cells = {float(r[head.index("eps")]): r for r in rows[1:]}
        q = by_model.setdefault((ds, method), {})
        if attack == "fgsm" and 0.0 in cells:
            q["clean_ci"] = float(cells[0.0][head.index("ci")])
        if attack == "worstcase" and checker.CHECK_EPS in cells:
            q["wc_ibs"] = float(cells[checker.CHECK_EPS][head.index("ibs")])
    return [q for q in by_model.values() if len(q) == 2]


# -- metrics ---------------------------------------------------------------

def cycle_figures(cycle: Cycle, workload: str) -> tuple[float, float]:
    """(work seconds, rows per second) of one cycle, speed-normalized."""
    rows = sum(op.rows for op in cycle.ops)
    work = cycle.seconds() * cycle.speed_factor
    if workload == "eval-grid":
        return work, rows / (cycle.seconds("evaluate") * cycle.speed_factor)
    return work, rows / work


def per_layer_spec() -> list[dict]:
    """Every per-layer metric a traced run emits, with unit and direction."""
    import tracer
    spec = []
    for name in tracer.span_names():
        spec.append({"name": f"{name}.calls", "unit": "count",
                     "better": "lower"})
        spec.append({"name": f"{name}.self_s", "unit": "s", "better": "lower"})
    for name in tracer.HOT:
        spec.append({"name": f"{name}.p50_ms", "unit": "ms", "better": "lower"})
        spec.append({"name": f"{name}.tail_ms", "unit": "ms",
                     "better": "lower"})
        spec.append({"name": f"{name}.tail_q", "unit": "%", "better": "higher"})
    for name in tracer.ROWS:
        spec.append({"name": f"{name}.rows", "unit": "rows", "better": "lower"})
    for layer in tracer.LAYERS:
        spec.append({"name": f"{layer}.self_s", "unit": "s", "better": "lower"})
    for layer in tracer.TRAIN_LAYERS:
        spec.append({"name": f"{layer}.train_share", "unit": "ratio",
                     "better": "lower"})
    spec += [
        {"name": "bounds.crossing_share", "unit": "ratio", "better": "lower"},
        {"name": "bounds.refined_ub_share", "unit": "ratio",
         "better": "higher"},
        {"name": "training.epochs", "unit": "count", "better": "lower"},
        {"name": "training.tail_share", "unit": "ratio", "better": "lower"},
        {"name": "training.update_share", "unit": "ratio", "better": "higher"},
        {"name": "training.train.unattributed_share", "unit": "ratio",
         "better": "lower"},
        {"name": "cli.cmd_evaluate.unattributed_share", "unit": "ratio",
         "better": "lower"},
        {"name": "cli.import_s", "unit": "s", "better": "lower"},
        {"name": "trace.overhead", "unit": "ratio", "better": "lower"},
        {"name": "quality.clean_ci", "unit": "score", "better": "higher"},
        {"name": "quality.wc_ibs_eps0.5", "unit": "score", "better": "lower"},
        {"name": "checker.failed_share", "unit": "ratio", "better": "lower"},
    ]
    return spec


def layer_metrics(trc, cycles, import_s, qualities, failed, attempted) -> dict:
    import tracer
    spans, layer_self, train_self = trc.summarize()
    values = {}
    for name, agg in spans.items():
        values[f"{name}.calls"] = agg["calls"]
        values[f"{name}.self_s"] = agg["self_ns"] / 1e9
    for name in tracer.HOT:
        durs = spans[name]["durs"]
        q = tracer.tail_percentile(len(durs))
        values[f"{name}.p50_ms"] = tracer.percentile_ms(durs, 50.0)
        values[f"{name}.tail_ms"] = tracer.percentile_ms(durs, q)
        values[f"{name}.tail_q"] = q
    for name in tracer.ROWS:
        values[f"{name}.rows"] = spans[name]["rows"]
    for layer, ns in layer_self.items():
        values[f"{layer}.self_s"] = ns / 1e9
    train_ns = sum(spans["training.train"]["durs"])
    for layer, ns in train_self.items():
        values[f"{layer}.train_share"] = ns / train_ns if train_ns else 0.0

    def share(num, den):
        return num / den if den else 0.0

    untraced = [c for c in cycles if not c.traced]
    traced = [c for c in cycles if c.traced]
    reports = [op.output[1] for c in traced for op in c.ops
               if op.key[-1] == "train"]
    epochs = sum(r.stopped_epoch + 1 for r in reports)
    evaluate_ns = sum(spans["cli.cmd_evaluate"]["durs"])
    values.update({
        "bounds.crossing_share": share(*trc.crossing),
        "bounds.refined_ub_share": share(*trc.refined_ub),
        "training.epochs": epochs,
        "training.tail_share": share(
            sum(r.stopped_epoch - r.best_epoch for r in reports), epochs),
        "training.update_share": share(
            spans["network.adam_step"]["calls"],
            spans["training._batch_loss_grads"]["calls"]),
        "training.train.unattributed_share": share(
            spans["training.train"]["self_ns"], train_ns),
        "cli.cmd_evaluate.unattributed_share": share(
            spans["cli.cmd_evaluate"]["self_ns"], evaluate_ns),
        "cli.import_s": import_s,
        "trace.overhead": share(
            sum(c.seconds() * c.speed_factor for c in traced),
            sum(c.seconds() * c.speed_factor for c in untraced)),
        "quality.clean_ci": mean_of(qualities, "clean_ci"),
        "quality.wc_ibs_eps0.5": mean_of(qualities, "wc_ibs"),
        "checker.failed_share": share(failed, attempted),
    })
    return values


def mean_of(qualities, key) -> float:
    """Mean over the models that passed their checks (0 when none did)."""
    vals = [q[key] for q in qualities]
    return sum(vals) / len(vals) if vals else 0.0


# -- environment --------------------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git repository.  The
    ceiling keeps git from reporting a repository that encloses it."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(wl.ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=wl.ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = len(os.sched_getaffinity(0))
    src = hashlib.sha256()
    for path in sorted((wl.ROOT / "src" / "certsurv").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": min(wl.BLAS_THREADS, nproc),
        "commit": git_commit(),
        "source_sha256": src.hexdigest(),
    }


# -- one run -------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float,
        trace: bool) -> tuple[dict, dict]:
    """One run: (record of environment and inputs, result object)."""
    import tracer
    wl.use_checkout_source()
    logging.getLogger("certsurv").addHandler(logging.NullHandler())
    with open(wl.INPUTS / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)
    digests = input_digests(workload, seed, reference)

    # (set-up s, import s, reference interpreter s) per probe
    probes = [(*probe_setup(workload, seed), speed.interpreter_slice())
              for _ in range(N_PROBES)]
    setup_s = statistics.median(
        setup * speed.INTERPRETER_REFERENCE_S / ref for setup, _, ref in probes)
    import_s = statistics.median(
        imp * speed.INTERPRETER_REFERENCE_S / ref for _, imp, ref in probes)
    work_speed = speed.SpeedProbe(SPEED_KERNEL[workload])

    trc = tracer.Tracer()
    OUT_DIR.mkdir(exist_ok=True)
    tmp_dir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        if trace:
            trc.install()
            trc.active = True
        state = wl.set_up(workload, seed)
        trc.active = False
        cycles = []
        t_start = time.perf_counter()
        if trace:
            cycles.append(run_cycle(state, tmp_dir, 0, False, work_speed))
            trc.active = True
            cycles.append(run_cycle(state, tmp_dir, 1, True, work_speed))
            trc.active = False
        else:
            # whole cycles, as many as fit in the time budget (at least one)
            while not cycles or (time.perf_counter() - t_start
                                 + cycles[-1].wall_s <= seconds):
                cycles.append(run_cycle(state, tmp_dir, len(cycles), False,
                                        work_speed))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        if workload == "eval-grid":
            qualities = check_eval(cycles, state, reference,
                                   digests["tampered"])
        else:
            qualities = check_train(cycles, state, reference)
    finally:
        trc.uninstall()
        shutil.rmtree(tmp_dir, ignore_errors=True)

    ops = [op for c in cycles for op in c.ops]
    failed = sum(1 for op in ops if op.problems)
    if trace:
        (OUT_DIR / "traces").mkdir(exist_ok=True)
        trc.write_csv(OUT_DIR / "traces" / f"{workload}-s{seed}.csv")
        values = layer_metrics(trc, cycles, import_s, qualities, failed,
                               len(ops))
        units = {m["name"]: m["unit"] for m in per_layer_spec()}
    else:
        figures = [cycle_figures(c, workload) for c in cycles]
        values = {
            "setup_s": setup_s,
            "work_s": statistics.median(f[0] for f in figures),
            "rows_per_s": statistics.median(f[1] for f in figures),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    record = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "environment": environment(), "inputs": digests,
        "setup_raw_s": [p[0] for p in probes],
        "setup_reference_s": [p[2] for p in probes],
        "cycles": [{"wall_s": c.wall_s, "work_raw_s": c.seconds(),
                    "speed_factor": c.speed_factor, "traced": c.traced,
                    "ops": [[list(op.key), op.seconds] for op in c.ops]}
                   for c in cycles],
        "problems": [[list(op.key), p] for op in ops for p in op.problems],
    }
    if trace:
        record["traced_bindings"] = trc.bindings
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    return record, result


def run_all(seed: int, seconds: float) -> int:
    """Run every workload untraced in its own process and print one table."""
    status = 0
    print(f"{'workload':<12} {'metric':<14} {'value':>14}  unit")
    for workload in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(wl.BENCH / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=wl.ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0:
            status = 1
        if not lines:
            print(f"{workload:<12} no result (exit {proc.returncode})\n"
                  f"{proc.stderr}", file=sys.stderr)
            continue
        result = json.loads(lines[-1])
        for name, m in result["metrics"].items():
            print(f"{workload:<12} {name:<14} {m['value']:>14.4f}  {m['unit']}")
        share = result["failed"] / result["attempted"]
        print(f"{workload:<12} {'failed_share':<14} {share:>14.4f}  "
              f"failed/attempted ({result['failed']}/{result['attempted']})")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        wl.require_checkout()
    except wl.CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    record, result = run(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
