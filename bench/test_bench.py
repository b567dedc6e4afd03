"""Tests of the benchmark itself (not part of the library's test suite).

Run from the root of a checkout:  python3 -m pytest -q bench/test_bench.py

Training workloads run here with a shortened epoch count and one set-up
probe, so the whole file takes about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (first: caps BLAS threads before numpy loads)
import checker  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
SEED_WITHOUT_REFERENCE = 1000


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(wl, "TRAIN_EPOCHS", {"sawar": 45, "pgd": 45})
    monkeypatch.setattr(run, "N_PROBES", 1)


def assert_emits(result, spec_metrics):
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in spec_metrics}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_per_layer_list_matches_the_traced_output_spec():
    assert SPEC["per_layer"] == run.per_layer_spec()
    assert len(SPEC["per_layer"]) <= 128


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(tiny, workload):
    _, result = run.run(workload, SEED_WITHOUT_REFERENCE, 0, trace=False)
    assert_emits(result, SPEC["end_to_end"])
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_sawar_run_separates_layers(tiny):
    record, result = run.run("train-sawar", SEED_WITHOUT_REFERENCE, 0,
                             trace=True)
    assert_emits(result, SPEC["per_layer"])
    # the traced cycle reproduced the untraced cycle's models exactly
    assert result["failed"] == 0, record["problems"]
    m = {name: v["value"] for name, v in result["metrics"].items()}
    assert m["bounds.crown_ibp_batch_vjp.calls"] > 0
    shares = {layer: m[f"{layer}.train_share"]
              for layer in ("network", "bounds", "losses", "training")}
    assert max(shares, key=shares.get) == "bounds"
    assert 0.0 < m["bounds.crossing_share"] < 1.0
    assert m["trace.overhead"] > 0.0


def test_traced_pgd_run_never_calls_bounds(tiny):
    record, result = run.run("train-pgd", SEED_WITHOUT_REFERENCE, 0,
                             trace=True)
    m = {name: v["value"] for name, v in result["metrics"].items()}
    assert m["losses.pgd_perturb.calls"] > 0
    # the zero calls below come from installed wrappers, including the
    # names losses imported from bounds
    bindings = record["traced_bindings"]
    assert "certsurv.losses.crown_ibp_batch_tape" in bindings[
        "bounds.crown_ibp_batch_tape"]
    for name in ("crown_ibp_batch_tape", "crown_ibp_batch_vjp",
                 "_interval_forward", "_backward_pass"):
        assert f"certsurv.bounds.{name}" in bindings[f"bounds.{name}"]
        assert m[f"bounds.{name}.calls"] == 0


def test_tracer_refuses_a_missing_entry_point(monkeypatch):
    import tracer
    wl.use_checkout_source()
    monkeypatch.setattr(tracer, "SPANS",
                        (*tracer.SPANS, ("bounds", "_no_such_pass")))
    trc = tracer.Tracer()
    with pytest.raises(tracer.TracerError, match="_no_such_pass"):
        trc.install()
    assert trc.bindings == {}


def test_traced_eval_grid_uses_forward_bounds_only(tiny):
    record, result = run.run("eval-grid", 0, 0, trace=True)
    assert result["failed"] == 0, record["problems"]
    m = {name: v["value"] for name, v in result["metrics"].items()}
    assert m["bounds.crown_ibp_batch_tape.calls"] > 0
    assert m["bounds.crown_ibp_batch_vjp.calls"] == 0


def test_tampered_checkpoint_counts_as_failure(tiny, monkeypatch, tmp_path):
    inputs = tmp_path / "inputs"
    shutil.copytree(wl.INPUTS, inputs)
    path = inputs / "s0" / wl.ckpt_name("stagec", "sawar")
    doc = json.loads(path.read_text())
    doc["biases"][-1][0] += 0.25
    path.write_text(json.dumps(doc))
    monkeypatch.setattr(wl, "INPUTS", inputs)
    record, result = run.run("eval-grid", 0, 0, trace=False)
    assert not result["correct"]
    # both attacks on the tampered checkpoint, and the report over them
    assert result["failed"] == 3
    assert "s0/stagec_sawar.ckpt.json" in record["inputs"]["tampered"]


def test_tampered_metrics_csv_counts_as_failure(tmp_path):
    reference = json.loads((wl.INPUTS / "reference.json").read_text())
    rows = reference["eval_grid"]["0"]["cells"]["zinc_pgd_worstcase"]
    out = tmp_path / "eval"
    out.mkdir()
    write = (out / "metrics.csv").write_text
    write("\n".join(",".join(r) for r in rows) + "\n")
    assert checker.compare_csv(out / "metrics.csv", rows) == []
    tampered = [list(r) for r in rows]
    tampered[3][5] = repr(float(tampered[3][5]) * (1 + 1e-6))
    write("\n".join(",".join(r) for r in tampered) + "\n")
    assert checker.compare_csv(out / "metrics.csv", rows) != []
    (out / "metrics.csv").unlink()
    assert checker.compare_csv(out / "metrics.csv", rows) != []


def test_bare_benchmark_directory_exits_nonzero_without_result(tmp_path):
    shutil.copy(wl.ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(wl.ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "eval-grid", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
