"""In-memory span tracer that wraps certsurv entry points from outside.

Tracing rebinds module attributes: every binding of a traced function in
any loaded ``certsurv`` module (including names imported into other
modules, such as ``losses.crown_ibp_batch_tape``) is replaced by a wrapper
that records a span.  No source file of the library is edited, and
``Tracer.uninstall`` restores every original binding.

A span is (id, parent id, name, start ns, end ns, rows).  Spans are kept in
memory; self time is a span's duration minus the time its children cover
(children never overlap, because everything runs on one thread).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

# (layer, function name) for every traced entry point.  The layer is the
# certsurv module that defines the function.
SPANS = (
    ("data", "load_csv"),
    ("data", "stratified_split"),
    ("cli", "cmd_evaluate"),
    ("cli", "cmd_report"),
    ("network", "forward_batch"),
    ("network", "backward_batch"),
    ("network", "adam_step"),
    ("bounds", "crown_ibp_batch_tape"),
    ("bounds", "_interval_forward"),
    ("bounds", "_relaxation"),
    ("bounds", "_backward_pass"),
    ("bounds", "crown_ibp_batch_vjp"),
    ("bounds", "worst_case_log_hazard_batch"),
    ("losses", "_clean_engine"),
    ("losses", "_certified_terms"),
    ("losses", "sawar_loss_grads"),
    ("losses", "pgd_perturb"),
    ("losses", "combined_loss"),
    ("training", "train"),
    ("training", "_batch_loss_grads"),
    ("training", "_validation_loss"),
    ("metrics", "attack_sweep"),
    ("metrics", "concordance_index"),
    ("metrics", "integrated_brier"),
    ("metrics", "brier_ipcw"),
    ("metrics", "average_ranks"),
    ("metrics", "friedman_test"),
    ("survival", "km_estimator"),
    ("survival", "population_curve"),
    ("survival", "survival_quantiles"),
)

# Spans called often enough for a latency distribution.
HOT = (
    "network.forward_batch", "network.backward_batch", "network.adam_step",
    "bounds.crown_ibp_batch_tape", "bounds.crown_ibp_batch_vjp",
    "losses._clean_engine", "losses.sawar_loss_grads", "losses.pgd_perturb",
    "metrics.integrated_brier", "cli.cmd_evaluate",
)

# Spans that count rows: the position of their row-batch argument.
ROWS = {"network.forward_batch": 1, "network.backward_batch": 2}

LAYERS = ("data", "cli", "network", "bounds", "losses", "training",
          "metrics", "survival")
TRAIN_LAYERS = ("network", "bounds", "losses", "training")
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)


class TracerError(RuntimeError):
    """The library no longer has an entry point that SPANS names."""


def span_names():
    return [f"{layer}.{fn}" for layer, fn in SPANS]


class Tracer:
    """Records spans around the certsurv entry points listed in SPANS."""

    def __init__(self):
        self.records = []       # (id, parent, name, t0, t1, rows)
        self.active = False
        self._stack = []
        self._next_id = 0
        self._saved = []        # (module, attribute, original)
        self.bindings = {}      # span name -> every "module.attr" rebound
        self.crossing = [0, 0]      # crossing neurons, hidden neurons
        self.refined_ub = [0, 0]    # rows with linear ub < interval ub, rows

    # -- installation -------------------------------------------------
    def install(self):
        """Rebind every SPANS entry point.  Raises TracerError, with nothing
        rebound, when one is missing: a span that silently read 0 calls
        would look like a layer that costs nothing."""
        for layer in LAYERS:
            importlib.import_module(f"certsurv.{layer}")
        missing = [f"certsurv.{layer}.{fn}" for layer, fn in SPANS
                   if not callable(getattr(sys.modules[f"certsurv.{layer}"],
                                           fn, None))]
        if missing:
            raise TracerError("traced entry points not found: "
                              + ", ".join(missing)
                              + "; update tracer.SPANS to the library")
        modules = [(name, m) for name, m in sys.modules.items()
                   if name == "certsurv" or name.startswith("certsurv.")]
        for layer, fn in SPANS:
            name = f"{layer}.{fn}"
            original = getattr(sys.modules[f"certsurv.{layer}"], fn)
            wrapper = self._wrap(name, original)
            for mod_name, mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, original))
                        self.bindings.setdefault(name, []).append(
                            f"{mod_name}.{attr}")
                        setattr(mod, attr, wrapper)
        assert set(self.bindings) == set(span_names())
        return self

    def uninstall(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn):
        rows_arg = ROWS.get(name)
        observe = {"bounds._relaxation": self._observe_relaxation,
                   "bounds.crown_ibp_batch_tape": self._observe_tape}.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._stack.pop()
                rows = len(args[rows_arg]) if rows_arg is not None else 0
                self.records.append((sid, parent, name, t0, t1, rows))
            if observe is not None:
                observe(out)
            return out

        return traced

    def _observe_relaxation(self, out):
        # out = (up_slope, up_icpt, low_slope, crossing masks per layer)
        for cross in out[3]:
            self.crossing[0] += int(cross.sum())
            self.crossing[1] += cross.size

    def _observe_tape(self, out):
        # out = (lb, ub, tape); a row's linear pass paid off when its upper
        # bound beat the interval one
        tape = out[2]
        refined = tape.crown_ub < tape.ibp_ub
        self.refined_ub[0] += int(refined.sum())
        self.refined_ub[1] += refined.size

    # -- output ---------------------------------------------------------
    def write_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_ns,end_ns,rows\n")
            for rec in sorted(self.records):
                fh.write(",".join(str(v) for v in rec) + "\n")

    def summarize(self):
        """Per-span, per-layer and within-train() aggregates."""
        by_id = {rec[0]: rec for rec in self.records}
        child_ns = dict.fromkeys(by_id, 0)
        for sid, parent, _, t0, t1, _ in self.records:
            if parent in child_ns:
                child_ns[parent] += t1 - t0
        # the outermost train() span enclosing each span, if any
        in_train = {}
        for sid in sorted(by_id):
            _, parent, name, _, _, _ = by_id[sid]
            if parent in in_train and in_train[parent] is not None:
                in_train[sid] = in_train[parent]
            else:
                in_train[sid] = sid if name == "training.train" else None

        spans = {name: {"calls": 0, "self_ns": 0, "rows": 0, "durs": []}
                 for name in span_names()}
        layer_self = dict.fromkeys(LAYERS, 0)
        train_layer_self = dict.fromkeys(TRAIN_LAYERS, 0)
        for sid, _, name, t0, t1, rows in self.records:
            agg = spans[name]
            self_ns = (t1 - t0) - child_ns[sid]
            agg["calls"] += 1
            agg["self_ns"] += self_ns
            agg["rows"] += rows
            agg["durs"].append(t1 - t0)
            layer = name.split(".", 1)[0]
            layer_self[layer] += self_ns
            if in_train[sid] is not None and layer in train_layer_self:
                train_layer_self[layer] += self_ns
        return spans, layer_self, train_layer_self


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least 10 of n samples beyond it
    (the median when even that has fewer)."""
    best = PERCENTILE_LADDER[0]
    for q in PERCENTILE_LADDER:
        if n * (1.0 - q / 100.0) >= 10.0:
            best = q
    return best


def percentile_ms(durs_ns, q: float) -> float:
    if not durs_ns:
        return 0.0
    return float(np.percentile(durs_ns, q)) / 1e6
