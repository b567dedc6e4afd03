import csv
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import certsurv
from certsurv import data, metrics
from certsurv.cli import main
from certsurv.data import comparable_pairs
from certsurv.metrics import ATTACKS
from certsurv.training import TrainConfig

from conftest import (BAD_CODEC_EDITS, DATA_DIR, cli_env,
                      planted_linear_csv, run_child)


def run_cli(args, **kw):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def toy_csv(tmp_path_factory):
    return planted_linear_csv(
        str(tmp_path_factory.mktemp("data") / "toy.csv"), n=40, seed=3
    )


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, toy_csv):
    out = str(tmp_path_factory.mktemp("run") / "base")
    code = run_cli(["train", "--dataset", toy_csv, "--method", "baseline",
                    "--seed", 0, "--out", out, "--max-epochs", 20,
                    "--warmup-epochs", 2, "--ramp-epochs", 6,
                    "--batch-size", 16, "--patience", 5])
    assert code == 0
    return out


def file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# Every [train] key: its INI text and the value it resolves to (as JSON
# gives it back).  Two small epochs, so stagec trains on these quickly.
ALL_KEYS_INI = {
    "method": ("noise", "noise"),
    "kappa": ("0.3", 0.3),
    "eps_max": ("0.2", 0.2),
    "warmup_epochs": ("0", 0),
    "ramp_epochs": ("1", 1),
    "max_epochs": ("2", 2),
    "batch_size": ("32", 32),
    "patience": ("3", 3),
    "pgd_steps": ("2", 2),
    "sigma": ("0.5", 0.5),
    "w": ("0.05", 0.05),
    "seed": ("4", 4),
    "hidden_dims": ("8, 8", [8, 8]),
    "leaky_slope": ("0.1", 0.1),
    "learning_rate": ("0.01", 0.01),
    "adam_beta1": ("0.8", 0.8),
    "adam_beta2": ("0.99", 0.99),
    "adam_eps": ("1e-7", 1e-7),
    "fgsm_sign_mode": ("yes", True),
    "val_monitor": ("clean", "clean"),
    "normalize_onehot": ("on", True),
}


@pytest.mark.parametrize("out", ["afile", "afile/sub"])
@pytest.mark.parametrize("command", ["train", "evaluate", "report"])
def test_out_naming_a_file_exits_2(trained_dir, toy_csv, tmp_path, command,
                                   out):
    from certsurv.metrics import MetricRecord, write_metrics_csv
    (tmp_path / "afile").write_text("")
    (tmp_path / "inputs").mkdir()
    write_metrics_csv(tmp_path / "inputs" / "metrics.csv",
                      [MetricRecord("d", "solo", "fgsm", 0.0, 0.7, 0.2, 5.0)])
    args = {
        "train": ["--dataset", toy_csv, "--method", "baseline"],
        "evaluate": ["--model", os.path.join(trained_dir, "checkpoint.ckpt.json"),
                     "--dataset", toy_csv, "--attack", "fgsm",
                     "--eps-grid", "0"],
        "report": ["--inputs", tmp_path / "inputs"],
    }[command]
    proc = run_child([command, *args, "--out", out], cwd=tmp_path)
    assert proc.returncode == 2
    assert "afile" in proc.stderr
    assert (tmp_path / "afile").read_text() == ""


OUTPUTS = {
    "train": {"manifest.json", "checkpoint.ckpt.json", "train_report.csv"},
    "evaluate": {"manifest.json", "metrics.csv", "curves.csv",
                 "summary.json"},
    "report": {"manifest.json", "ranks.csv", "percent_change.csv",
               "friedman.csv"},
}


def _full_run(command, attack, trained_dir, toy_csv, tmp_path):
    """Argv (without --out) on which `command` writes each of its outputs;
    report reads a one-record tree that it makes under tmp_path."""
    from certsurv.metrics import MetricRecord, write_metrics_csv
    if command == "train":
        return ["train", "--dataset", toy_csv, "--method", "baseline",
                "--max-epochs", 2, "--warmup-epochs", 0, "--ramp-epochs", 1]
    if command == "evaluate":
        return ["evaluate", "--model",
                os.path.join(trained_dir, "checkpoint.ckpt.json"),
                "--dataset", toy_csv, "--attack", attack, "--eps-grid",
                "0,0.5"]
    (tmp_path / "inputs").mkdir()
    write_metrics_csv(tmp_path / "inputs" / "metrics.csv",
                      [MetricRecord("d", "solo", "fgsm", 0.0, 0.7, 0.2, 5.0)])
    return ["report", "--inputs", tmp_path / "inputs"]


@pytest.mark.parametrize("command,attack", [
    ("train", None), ("evaluate", "fgsm"), ("evaluate", "worstcase"),
    ("report", None)])
def test_each_command_leaves_exactly_its_outputs(trained_dir, toy_csv,
                                                 tmp_path, command, attack):
    # no subdirectory and no *.tmp beside the files
    out = tmp_path / "out"
    args = _full_run(command, attack, trained_dir, toy_csv, tmp_path)
    assert run_cli([*args, "--out", out]) == 0
    assert set(os.listdir(out)) == OUTPUTS[command]
    assert all((out / name).is_file() for name in OUTPUTS[command])


@pytest.mark.parametrize("command,name", [
    ("train", "manifest.json"), ("train", "checkpoint.ckpt.json"),
    ("evaluate", "manifest.json"), ("evaluate", "summary.json"),
    ("report", "manifest.json")])
def test_json_outputs_have_one_space_indents_and_a_final_newline(
        trained_dir, toy_csv, tmp_path, command, name):
    # only the checkpoint keeps its keys in the order they were written
    out = tmp_path / "out"
    args = _full_run(command, "worstcase", trained_dir, toy_csv, tmp_path)
    assert run_cli([*args, "--out", out]) == 0
    text = (out / name).read_bytes().decode("utf-8")
    doc = json.loads(text)
    sort_keys = name != "checkpoint.ckpt.json"
    assert text == json.dumps(doc, indent=1, sort_keys=sort_keys) + "\n"
    assert (list(doc) == sorted(doc)) == sort_keys


@pytest.mark.parametrize("command,name", [
    ("evaluate", "metrics.csv"), ("evaluate", "curves.csv"),
    ("evaluate", "summary.json"), ("report", "ranks.csv"),
    ("train", "checkpoint.ckpt.json")])
def test_directory_at_an_output_name_exits_2(trained_dir, toy_csv, tmp_path,
                                             command, name):
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    args = _full_run(command, "worstcase", trained_dir, toy_csv, tmp_path)
    proc = run_child([*args, "--out", out], cwd=tmp_path)
    assert proc.returncode == 2
    assert f"error: cannot write {out / name}: " in proc.stderr
    assert (out / name).is_dir()
    assert not list(out.rglob("*.tmp"))


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_full_disk_exits_2_naming_the_output(trained_dir, toy_csv, tmp_path):
    # a temp file linked to /dev/full fails its write with ENOSPC, an
    # OSError that names no file
    out = tmp_path / "out"
    out.mkdir()
    (out / "metrics.csv.tmp").symlink_to("/dev/full")
    args = _full_run("evaluate", "fgsm", trained_dir, toy_csv, tmp_path)
    proc = run_child([*args, "--out", out], cwd=tmp_path)
    assert proc.returncode == 2
    assert f"error: cannot write {out / 'metrics.csv'}: " in proc.stderr
    assert sorted(os.listdir(out)) == ["manifest.json"]


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_bad_dataset_line_names_file_and_line(trained_dir, toy_csv, tmp_path,
                                              capsys, command):
    with open(toy_csv) as fh:
        lines = fh.read().splitlines()
    lines[7] = lines[7].rsplit(",", 1)[0] + ",oops"
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    args = {"train": ["--method", "baseline"],
            "evaluate": ["--model",
                         os.path.join(trained_dir, "checkpoint.ckpt.json"),
                         "--attack", "fgsm"]}[command]
    assert run_cli([command, "--dataset", bad, *args,
                    "--out", tmp_path / "o"]) == 3
    assert (f"error: data error: {bad}: line 8: unparseable numeric "
            "num_b='oops'") in capsys.readouterr().err.splitlines()


class TestTrainCommand:
    def test_missing_dataset_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["train", "--method", "baseline"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_writes_checkpoint_report_manifest(self, trained_dir):
        assert os.path.exists(os.path.join(trained_dir, "checkpoint.ckpt.json"))
        assert os.path.exists(os.path.join(trained_dir, "train_report.csv"))
        with open(os.path.join(trained_dir, "manifest.json")) as fh:
            manifest = json.load(fh)
        assert manifest["command"] == "train"
        assert manifest["resolved_config"]["method"] == "baseline"

    def test_same_seed_identical_checkpoint_digest(self, toy_csv, tmp_path):
        digests = []
        for sub in ("a", "b"):
            out = str(tmp_path / sub)
            code = run_cli(["train", "--dataset", toy_csv, "--method",
                            "baseline", "--seed", 1, "--out", out,
                            "--max-epochs", 12, "--warmup-epochs", 2,
                            "--ramp-epochs", 6, "--batch-size", 16,
                            "--patience", 4])
            assert code == 0
            digests.append(file_digest(os.path.join(out, "checkpoint.ckpt.json")))
        assert digests[0] == digests[1]

    def test_unreadable_dataset_exits_3(self, tmp_path, capsys):
        code = run_cli(["train", "--dataset", tmp_path / "nope.csv",
                        "--method", "baseline", "--out", tmp_path / "o"])
        assert code == 3

    def test_small_fixture_trains_quickly(self, toy_csv, tmp_path):
        import time
        start = time.perf_counter()
        code = run_cli(["train", "--dataset", toy_csv, "--method", "baseline",
                        "--seed", 2, "--out", tmp_path / "quick",
                        "--batch-size", 16])
        elapsed = time.perf_counter() - start
        assert code == 0
        assert elapsed < 30.0

    def test_divergence_exits_4_and_keeps_last_good(self, toy_csv, tmp_path):
        cfg = tmp_path / "diverge.ini"
        cfg.write_text("[train]\nlearning_rate = 1e5\nmax_epochs = 10\n"
                       "warmup_epochs = 1\nramp_epochs = 2\npatience = 3\n"
                       "batch_size = 16\n")
        out = tmp_path / "div"
        code = run_cli(["train", "--dataset", toy_csv, "--method", "baseline",
                        "--config", cfg, "--out", out])
        assert code == 4
        assert os.path.exists(out / "last_good.ckpt.json")

    def test_no_finite_validation_loss_exits_4(self, toy_csv, tmp_path):
        # one finite update to weights near 1e300; the validation loss of
        # the only (eligible) epoch is not finite
        cfg = tmp_path / "huge_lr.ini"
        cfg.write_text("[train]\nlearning_rate = 1e300\n")
        out = tmp_path / "div"
        proc = run_child(["train", "--dataset", toy_csv, "--method",
                          "baseline", "--max-epochs", 1, "--batch-size", 16,
                          "--config", cfg, "--out", out], cwd=tmp_path)
        assert proc.returncode == 4, proc.stderr
        assert "error: training diverged: " in proc.stderr
        with open(out / "last_good.ckpt.json", encoding="utf-8") as fh:
            assert json.load(fh)["extra"]["diverged"] is True
        assert not os.path.exists(out / "checkpoint.ckpt.json")

    def test_invalid_config_value_exits_2(self, toy_csv, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[train]\nkappa = 1.7\n")
        code = run_cli(["train", "--dataset", toy_csv, "--method", "sawar",
                        "--config", cfg, "--out", tmp_path / "o"])
        assert code == 2

    @pytest.mark.parametrize("flag,value", [("--batch-size", "0"),
                                            ("--max-epochs", "0"),
                                            ("--learning-rate", "-0.001"),
                                            ("--pgd-steps", "0")])
    def test_bad_training_value_exits_2(self, toy_csv, tmp_path, flag, value):
        code = run_child(["train", "--dataset", toy_csv, "--method",
                          "baseline", "--out", tmp_path / "o", flag, value],
                         cwd=tmp_path).returncode
        assert code == 2

    @pytest.mark.parametrize("method", ["noise", "pgd", "sawar"])
    def test_infinite_eps_max_exits_2(self, toy_csv, tmp_path, method):
        code = run_child(["train", "--dataset", toy_csv, "--method", method,
                          "--out", tmp_path / "o", "--eps-max", "inf"],
                         cwd=tmp_path).returncode
        assert code == 2

    @pytest.mark.parametrize("line", ["sigma = 0", "hidden_dims = 0",
                                      "hidden_dims = 8, 0", "leaky_slope = 2",
                                      "leaky_slope = 0", "adam_beta1 = 1",
                                      "adam_beta2 = -0.5", "adam_eps = 0",
                                      "w = -1", "w = nan"])
    def test_bad_config_file_value_exits_2(self, toy_csv, tmp_path, line):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[train]\n{line}\n")
        code = run_child(["train", "--dataset", toy_csv, "--method",
                          "baseline", "--config", cfg, "--out", tmp_path / "o"],
                         cwd=tmp_path).returncode
        assert code == 2

    @pytest.mark.parametrize("edit", [
        lambda lines: lines[:3] + ["9.5,inf,0.1,0.2"] + lines[4:],
        lambda lines: lines[:3] + ["9.5,0.9,0.1,0.2"] + lines[4:],
        lambda lines: lines[:3] + ["9.5,1.5,0.1,0.2"] + lines[4:],
        lambda lines: lines[:3] + ["9.5,1,inf,0.2"] + lines[4:],
        lambda lines: ["time,event,num_a,num_a"] + lines[1:],
    ], ids=["event-inf", "event-0.9", "event-1.5", "numeric-inf",
            "duplicate-header"])
    def test_bad_csv_exits_3(self, tmp_path, capsys, edit):
        lines = ["time,event,num_a,num_b"] + [f"{i}.5,{i % 2},{i / 7:.3f},"
                                              f"{i % 3}" for i in range(1, 30)]
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(edit(lines)) + "\n")
        code = run_cli(["train", "--dataset", path, "--method", "baseline",
                        "--max-epochs", 1, "--out", tmp_path / "o"])
        assert code == 3
        assert "error: data error" in capsys.readouterr().err

    def test_constant_columns_name_the_dataset(self, tmp_path, capsys):
        rows = ["time,event,num_a,num_b"] + [f"{i}.5,{i % 2},3.0,-1"
                                             for i in range(1, 30)]
        path = tmp_path / "constant.csv"
        path.write_text("\n".join(rows) + "\n")
        assert run_cli(["train", "--dataset", path, "--method", "baseline",
                        "--max-epochs", 1, "--out", tmp_path / "o"]) == 3
        assert (f"error: data error: {path}: no usable feature columns after "
                "fitting") in capsys.readouterr().err.splitlines()

    def test_non_utf8_csv_exits_3(self, tmp_path, capsys):
        rows = ["time,event,fac_city"] + [f"{i}.5,{i % 2},b"
                                          for i in range(1, 30)]
        rows[5] = "5.5,1,M\xfcnchen"
        path = tmp_path / "latin1.csv"
        path.write_bytes(("\n".join(rows) + "\n").encode("latin-1"))
        code = run_cli(["train", "--dataset", path, "--method", "baseline",
                        "--max-epochs", 1, "--out", tmp_path / "o"])
        assert code == 3
        assert "UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("marked", ["csv", "ini"])
    def test_byte_order_mark_is_dropped(self, tmp_path, marked):
        # a UTF-8 byte-order mark before the CSV header or the INI section
        rows = ["time,event,num_a"] + [f"{i}.5,{i % 2},{i / 7:.3f}"
                                       for i in range(1, 30)]
        def bom(kind):
            return b"\xef\xbb\xbf" if kind == marked else b""

        path = tmp_path / "data.csv"
        path.write_bytes(bom("csv") + ("\n".join(rows) + "\n").encode())
        cfg = tmp_path / "cfg.ini"
        cfg.write_bytes(bom("ini") + b"[train]\nmax_epochs = 3\n")
        out = tmp_path / "o"
        code = run_cli(["train", "--dataset", path, "--method", "baseline",
                        "--config", cfg, "--out", out])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["resolved_config"]["max_epochs"] == 3

    @pytest.mark.parametrize("text", [
        b"[train]\nkappa = 0.2\nkappa = 0.3\n",
        b"kappa = 0.2\n",
        b"[train]\nkappa = 5%\n",
        b"[train]\nmethod = baseline\n# caf\xe9\n",
        b"[train]\nseed = -1\n",
        b"[train]\nseed = 1.5\n",
    ], ids=["duplicate-key", "no-section", "percent", "non-utf8",
            "negative-seed", "float-seed"])
    def test_bad_config_file_exits_2(self, toy_csv, tmp_path, capsys, text):
        cfg = tmp_path / "bad.ini"
        cfg.write_bytes(text)
        code = run_cli(["train", "--dataset", toy_csv, "--method", "baseline",
                        "--config", cfg, "--out", tmp_path / "o"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_config_file_and_flag_precedence(self, toy_csv, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[train]\nmax_epochs = 9\nbatch_size = 16\n"
                       "warmup_epochs = 1\nramp_epochs = 4\npatience = 2\n")
        out = tmp_path / "o2"
        code = run_cli(["train", "--dataset", toy_csv, "--method", "baseline",
                        "--config", cfg, "--out", out, "--max-epochs", 7])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        resolved = manifest["resolved_config"]
        assert resolved["max_epochs"] == 7      # flag beats file
        assert resolved["batch_size"] == 16     # file beats default

    def test_every_config_key_reaches_the_resolved_config(self, tmp_path):
        # each value differs from its default, so each key must be read
        assert set(ALL_KEYS_INI) == {f.name for f in dataclasses.fields(
            TrainConfig)}
        defaults = TrainConfig().to_dict()
        assert all(value != defaults[key]
                   for key, (_, value) in ALL_KEYS_INI.items())
        cfg = tmp_path / "all.ini"
        cfg.write_text("[train]\n" + "".join(
            f"{key} = {text}\n" for key, (text, _) in ALL_KEYS_INI.items()))
        out = tmp_path / "o"
        assert run_cli(["train", "--dataset", os.path.join(DATA_DIR,
                                                           "stagec.csv"),
                        "--method", "pgd", "--config", cfg,
                        "--out", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        expected = {key: value for key, (_, value) in ALL_KEYS_INI.items()}
        assert manifest["resolved_config"] == {**expected, "method": "pgd"}

    def test_method_from_config_file_alone(self, toy_csv, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[train]\nmethod = noise\nmax_epochs = 2\n"
                       "warmup_epochs = 0\nramp_epochs = 1\n")
        out = tmp_path / "o3"
        code = run_cli(["train", "--dataset", toy_csv, "--config", cfg,
                        "--out", out])
        assert code == 0
        doc = json.loads((out / "checkpoint.ckpt.json").read_text())
        assert doc["config"]["method"] == "noise"

    def test_no_method_anywhere_exits_2(self, toy_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[train]\nmax_epochs = 2\n")
        for extra in ([], ["--config", cfg]):
            code = run_cli(["train", "--dataset", toy_csv,
                            "--out", tmp_path / "o4", *extra])
            assert code == 2
            assert "--method" in capsys.readouterr().err
            assert not os.path.exists(tmp_path / "o4")


class TestEvaluateCommand:
    def test_default_grid_has_twelve_points(self, trained_dir, toy_csv,
                                            tmp_path):
        out = tmp_path / "eval"
        code = run_cli(["evaluate", "--model",
                        os.path.join(trained_dir, "checkpoint.ckpt.json"),
                        "--dataset", toy_csv, "--attack", "worstcase",
                        "--out", out])
        assert code == 0
        rows = (out / "metrics.csv").read_text().strip().splitlines()
        assert len(rows) == 13  # header + 12 radii
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["eps_grid"]) == 12

    def test_zero_only_grid_equals_clean(self, trained_dir, toy_csv, tmp_path):
        out1, out2 = tmp_path / "e1", tmp_path / "e2"
        for out, grid in ((out1, "0"), (out2, "0.0")):
            code = run_cli(["evaluate", "--model",
                            os.path.join(trained_dir, "checkpoint.ckpt.json"),
                            "--dataset", toy_csv, "--attack", "fgsm",
                            "--eps-grid", grid, "--out", out])
            assert code == 0
        a = (out1 / "metrics.csv").read_text()
        b = (out2 / "metrics.csv").read_text()
        assert a == b

    def test_nonnumeric_grid_exits_2(self, trained_dir, toy_csv, tmp_path):
        code = run_cli(["evaluate", "--model",
                        os.path.join(trained_dir, "checkpoint.ckpt.json"),
                        "--dataset", toy_csv, "--attack", "fgsm",
                        "--eps-grid", "0,abc", "--out", tmp_path / "e3"])
        assert code == 2

    @pytest.mark.parametrize("grid", ["nan", "inf", "0,0.5,nan", "0,-inf"])
    def test_nonfinite_grid_exits_2(self, trained_dir, toy_csv, tmp_path,
                                    grid):
        code = run_cli(["evaluate", "--model",
                        os.path.join(trained_dir, "checkpoint.ckpt.json"),
                        "--dataset", toy_csv, "--attack", "worstcase",
                        "--eps-grid", grid, "--out", tmp_path / "e"])
        assert code == 2
        assert not (tmp_path / "e" / "metrics.csv").exists()

    @pytest.mark.parametrize("grid", ["0.1,0.1000001", "0.5,0.5", "0,-0"])
    def test_colliding_grid_exits_2(self, trained_dir, toy_csv, tmp_path,
                                    grid):
        # equal under %g, the radii would share a curve and a report cell
        code = run_cli(["evaluate", "--model",
                        os.path.join(trained_dir, "checkpoint.ckpt.json"),
                        "--dataset", toy_csv, "--attack", "worstcase",
                        "--eps-grid", grid, "--out", tmp_path / "e"])
        assert code == 2
        assert not (tmp_path / "e" / "metrics.csv").exists()

    def test_checkpoint_dataset_mismatch_exits_3(self, trained_dir, tmp_path):
        other = planted_linear_csv(str(tmp_path / "other.csv"), n=40, seed=1)
        # different numeric column names break the codec contract
        from pathlib import Path
        text = Path(other).read_text().replace("num_a", "num_x")
        Path(other).write_text(text)
        code = run_cli(["evaluate", "--model",
                        os.path.join(trained_dir, "checkpoint.ckpt.json"),
                        "--dataset", other, "--attack", "fgsm",
                        "--out", tmp_path / "e4"])
        assert code == 3

    def test_corrupt_checkpoint_exits_3(self, toy_csv, tmp_path):
        ck = tmp_path / "bad.ckpt.json"
        ck.write_text("{")
        code = run_cli(["evaluate", "--model", ck, "--dataset", toy_csv,
                        "--attack", "fgsm", "--out", tmp_path / "e5"])
        assert code == 3

    def test_non_object_checkpoint_exits_3(self, toy_csv, tmp_path):
        ck = tmp_path / "list.ckpt.json"
        ck.write_text("[1, 2, 3]")
        code = run_child(["evaluate", "--model", ck, "--dataset", toy_csv,
                          "--attack", "fgsm", "--out", tmp_path / "e"],
                         cwd=tmp_path).returncode
        assert code == 3

    @pytest.mark.parametrize("data", [b"\xff\xfe{}", b"[" * 100_000],
                             ids=["non-utf8", "deep-nesting"])
    def test_unparseable_checkpoint_exits_3(self, toy_csv, tmp_path, data):
        ck = tmp_path / "bytes.ckpt.json"
        ck.write_bytes(data)
        code = run_child(["evaluate", "--model", ck, "--dataset", toy_csv,
                          "--attack", "fgsm", "--out", tmp_path / "e"],
                         cwd=tmp_path).returncode
        assert code == 3

    def _evaluate_edited_checkpoint(self, trained_dir, toy_csv, tmp_path,
                                    edit):
        """Exit code of a child `evaluate` on the trained checkpoint after
        edit(doc); no metrics.csv may appear."""
        with open(os.path.join(trained_dir, "checkpoint.ckpt.json")) as fh:
            doc = json.load(fh)
        edit(doc)
        ck = tmp_path / "edited.ckpt.json"
        ck.write_text(json.dumps(doc))
        code = run_child(["evaluate", "--model", ck, "--dataset", toy_csv,
                          "--attack", "fgsm", "--out", tmp_path / "e"],
                         cwd=tmp_path).returncode
        assert not os.path.exists(tmp_path / "e" / "metrics.csv")
        return code

    def test_checkpoint_weight_shape_mismatch_exits_3(self, trained_dir,
                                                      toy_csv, tmp_path):
        def drop_row(doc):
            doc["weights"][1].pop()
        assert self._evaluate_edited_checkpoint(trained_dir, toy_csv,
                                                tmp_path, drop_row) == 3

    def test_checkpoint_nan_weight_exits_3(self, trained_dir, toy_csv,
                                           tmp_path):
        def set_nan(doc):
            doc["weights"][0][0][0] = float("nan")
        assert self._evaluate_edited_checkpoint(trained_dir, toy_csv,
                                                tmp_path, set_nan) == 3

    @pytest.mark.parametrize("edit", [
        lambda d: d.__setitem__("leaky_slope", 5.0),
        lambda d: d.__setitem__("leaky_slope", -1.0),
        lambda d: d.__setitem__("leaky_slope", float("nan")),
        lambda d: d.__setitem__("leaky_slope", 0.02),   # config has 0.01
        lambda d: (d["layer_dims"].__setitem__(-1, 2),  # shapes still match
                   d["weights"][-1].append(d["weights"][-1][0]),
                   d["biases"][-1].append(0.0)),
        lambda d: d["config"].__setitem__("hidden_dims", [7]),
        lambda d: d["layer_dims"].__setitem__(1, 50.5),
    ], ids=["slope_5", "slope_negative", "slope_nan", "slope_not_config",
            "two_outputs", "config_hidden_dims", "fractional_dim"])
    def test_checkpoint_architecture_exits_3(self, trained_dir, toy_csv,
                                             tmp_path, edit):
        # the CROWN-IBP bounds are sound only for a scalar output and a
        # slope in (0, 1), and both copies of the architecture must agree
        assert self._evaluate_edited_checkpoint(trained_dir, toy_csv,
                                                tmp_path, edit) == 3

    @pytest.mark.parametrize("key,value", [
        ("seed", 1.5), ("seed", True), ("batch_size", 2.5),
        ("fgsm_sign_mode", "no"), ("normalize_onehot", 2),
        ("hidden_dims", [50.5, 50]), ("hidden_dims", ["50", 50])])
    def test_wrong_typed_checkpoint_config_exits_3(self, trained_dir, toy_csv,
                                                   tmp_path, key, value):
        def retype(doc):
            doc["config"][key] = value
        assert self._evaluate_edited_checkpoint(trained_dir, toy_csv,
                                                tmp_path, retype) == 3

    @pytest.mark.parametrize("field,value,want", [
        ("codec", [1], "malformed checkpoint {}: codec is malformed: "),
        ("codec", 3, "malformed checkpoint {}: codec is malformed: "),
        ("codec", {}, "malformed checkpoint {}: codec lacks 'fac_levels'"),
        ("config", None, "checkpoint {} has no training config (config)"),
        ("config", [], "malformed checkpoint {}: config is malformed: "),
        ("weights", 3, "malformed checkpoint {}: weights is malformed: "),
        ("schema_version", 2, "checkpoint {} has unsupported schema 2\n"),
    ], ids=["codec-list", "codec-int", "codec-empty", "no-config",
            "config-list", "weights-int", "schema-2"])
    def test_bad_checkpoint_field_is_named(self, trained_dir, toy_csv,
                                           tmp_path, capsys, field, value,
                                           want):
        # value None deletes the field; {} in want is the checkpoint's path
        with open(os.path.join(trained_dir, "checkpoint.ckpt.json")) as fh:
            doc = json.load(fh)
        if value is None:
            del doc[field]
        else:
            doc[field] = value
        ck = tmp_path / "edited.ckpt.json"
        ck.write_text(json.dumps(doc))
        assert run_cli(["evaluate", "--model", ck, "--dataset", toy_csv,
                        "--attack", "fgsm", "--out", tmp_path / "e"]) == 3
        assert capsys.readouterr().err.startswith(
            "error: data error: " + want.format(ck))
        assert not os.path.exists(tmp_path / "e")

    def test_emits_curves(self, trained_dir, toy_csv, tmp_path):
        out = tmp_path / "e6"
        code = run_cli(["evaluate", "--model",
                        os.path.join(trained_dir, "checkpoint.ckpt.json"),
                        "--dataset", toy_csv, "--attack", "worstcase",
                        "--eps-grid", "0,0.5", "--out", out])
        assert code == 0
        with open(out / "curves.csv", newline="") as fh:
            names = {row["curve"] for row in csv.DictReader(fh)}
        assert {"km_test", "population_clean", "quantile_lo05",
                "quantile_hi95"} <= names
        assert any(n.startswith("population_worstcase_eps0.5") for n in names)

    def test_byte_reproducible(self, trained_dir, toy_csv, tmp_path):
        outs = []
        for sub in ("r1", "r2"):
            out = tmp_path / sub
            code = run_cli(["evaluate", "--model",
                            os.path.join(trained_dir, "checkpoint.ckpt.json"),
                            "--dataset", toy_csv, "--attack", "worstcase",
                            "--eps-grid", "0,0.3", "--out", out])
            assert code == 0
            outs.append(file_digest(out / "metrics.csv"))
        assert outs[0] == outs[1]

    def test_nan_risks_write_undefined_concordance(self, trained_dir, toy_csv,
                                                   tmp_path):
        # first-layer weights scaled by 1e308 overflow to NaN scores: no
        # record can be ranked, so every ci is nan and flagged
        with open(os.path.join(trained_dir, "checkpoint.ckpt.json")) as fh:
            doc = json.load(fh)
        doc["weights"][0] = (np.array(doc["weights"][0]) * 1e308).tolist()
        ck = tmp_path / "scaled.ckpt.json"
        ck.write_text(json.dumps(doc))
        for attack in ATTACKS:
            out = tmp_path / attack
            assert run_child(["evaluate", "--model", ck, "--dataset", toy_csv,
                              "--attack", attack, "--eps-grid", "0,0.5",
                              "--out", out], cwd=tmp_path).returncode == 0
            with open(out / "metrics.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == 2
            for row in rows:
                assert math.isnan(float(row["ci"])), (attack, row)
                assert row["ci_flag"] == "1"
            summary = json.loads((out / "summary.json").read_text())
            assert summary["flagged_cells"] == 2
            assert "overflow_cells" not in summary

    def test_underflowed_hazards_keep_concordance(self, trained_dir, toy_csv,
                                                  tmp_path):
        # an output bias 800 lower underflows every hazard to 0, but the
        # scores keep their order: ci is the unshifted one, and negll is
        # the finite likelihood of the shifted scores
        with open(os.path.join(trained_dir, "checkpoint.ckpt.json")) as fh:
            doc = json.load(fh)
        doc["biases"][-1] = [doc["biases"][-1][0] - 800.0]
        ck = tmp_path / "shifted.ckpt.json"
        ck.write_text(json.dumps(doc))
        for attack in ATTACKS:
            cells = {}
            for model in (os.path.join(trained_dir, "checkpoint.ckpt.json"),
                          ck):
                out = tmp_path / f"{attack}_{len(cells)}"
                assert run_cli(["evaluate", "--model", model, "--dataset",
                                toy_csv, "--attack", attack, "--eps-grid", "0",
                                "--out", out]) == 0
                with open(out / "metrics.csv", newline="") as fh:
                    cells[model] = next(csv.DictReader(fh))
            clean, shifted = cells.values()
            assert shifted["ci"] == clean["ci"], attack
            assert shifted["ci_flag"] == "0"
            assert math.isfinite(float(shifted["negll"]))
            assert shifted["negll_flag"] == "0"

    def test_one_pair_build_per_evaluate(self, trained_dir, toy_csv,
                                         tmp_path, monkeypatch):
        # every radius counts Harrell's C over the test batch's one plan
        builds = []

        def counting(t, e):
            builds.append(len(t))
            return comparable_pairs(t, e)
        monkeypatch.setattr(data, "comparable_pairs", counting)
        monkeypatch.setattr(metrics, "comparable_pairs", counting)
        for attack in ATTACKS:
            builds.clear()
            assert run_cli(["evaluate", "--model",
                            os.path.join(trained_dir, "checkpoint.ckpt.json"),
                            "--dataset", toy_csv, "--attack", attack,
                            "--eps-grid", "0,0.5,1", "--out",
                            tmp_path / attack]) == 0
            assert len(builds) == 1, attack

    def test_overflowed_hazard_curves_start_at_one(self, trained_dir, toy_csv,
                                                   tmp_path):
        # an output bias of 800 overflows every record's hazard to +inf
        with open(os.path.join(trained_dir, "checkpoint.ckpt.json")) as fh:
            doc = json.load(fh)
        doc["biases"][-1] = [800.0]
        ck = tmp_path / "huge.ckpt.json"
        ck.write_text(json.dumps(doc))
        out = tmp_path / "e_inf"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(["evaluate", "--model", ck, "--dataset", toy_csv,
                            "--attack", "worstcase", "--eps-grid", "0,0.5",
                            "--out", out])
        assert code == 0
        first = {}
        with open(out / "curves.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                first.setdefault(row["curve"], row)
        names = sorted(n for n in first
                       if n.startswith(("population_", "quantile_")))
        assert len(names) == 5
        for name in names:
            assert float(first[name]["time"]) == 0.0
            assert float(first[name]["survival"]) == 1.0, name


def _edit_csv(src, dst_dir, edit):
    """Copy a CSV under its own name into dst_dir, so it names the same
    dataset, passing each row (a dict) through edit(row index, row)."""
    dst = dst_dir / os.path.basename(src)
    dst_dir.mkdir()
    with open(src, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for i, row in enumerate(rows):
        edit(i, row)
    with open(dst, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return dst


# Runs `certsurv evaluate` (argv[2:]) and saves the covariate matrix of the
# first forward pass, the clean one on the encoded test rows, to argv[1].
_RECORD_TEST_MATRIX = """
import sys
import numpy as np
from certsurv import cli
seen, forward = [], cli.forward_batch
def recording(net, X):
    seen.append(np.array(X))
    return forward(net, X)
cli.forward_batch = recording
code = cli.main(sys.argv[2:])
np.save(sys.argv[1], seen[0])
sys.exit(code)
"""


class TestEvaluateEncoding:
    """`evaluate` encodes with the checkpoint's codec, never a refitted one."""

    STAGEC = os.path.join(DATA_DIR, "stagec.csv")

    @pytest.fixture(scope="class")
    def model(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("stagec") / "m"
        assert run_cli(["train", "--dataset", self.STAGEC, "--method",
                        "baseline", "--max-epochs", 3, "--warmup-epochs", 0,
                        "--ramp-epochs", 1, "--out", out]) == 0
        return out / "checkpoint.ckpt.json"

    def _evaluate(self, model, dataset, out, cwd):
        code = run_child(["evaluate", "--model", model, "--dataset", dataset,
                          "--attack", "worstcase", "--eps-grid", "0,0.5",
                          "--out", out], cwd=cwd).returncode
        return code, out / "metrics.csv"

    def test_foreign_scale_is_standardized_with_training_statistics(
            self, model, tmp_path):
        def times_ten(_, row):
            row["num_age"] = repr(float(row["num_age"]) * 10)
        scaled = _edit_csv(self.STAGEC, tmp_path / "scaled", times_ten)
        code, ref = self._evaluate(model, self.STAGEC, tmp_path / "a",
                                   tmp_path)
        assert code == 0
        code, got = self._evaluate(model, scaled, tmp_path / "b", tmp_path)
        assert code == 0
        assert got.read_bytes() != ref.read_bytes()

    def test_unseen_level_sets_no_indicator(self, model, tmp_path):
        from certsurv.data import apply_codec, load_csv, split_indices
        from certsurv.training import load_checkpoint

        def rename(_, row):
            if row["fac_grade"] == "g1":
                row["fac_grade"] = "g9"
        renamed = _edit_csv(self.STAGEC, tmp_path / "g9", rename)
        matrix = tmp_path / "X.npy"
        proc = subprocess.run(
            [sys.executable, "-c", _RECORD_TEST_MATRIX, str(matrix),
             "evaluate", "--model", str(model), "--dataset", str(renamed),
             "--attack", "worstcase", "--eps-grid", "0",
             "--out", str(tmp_path / "e")],
            capture_output=True, text=True, cwd=tmp_path, env=cli_env())
        assert proc.returncode == 0, proc.stderr
        _, codec, config = load_checkpoint(model)
        raw = load_csv(str(renamed))
        test = raw.take(split_indices(raw, config.seed)[2])
        X = np.load(matrix)
        assert np.array_equal(X, apply_codec(codec, test).X)
        block = [j for j, name in enumerate(codec.feature_names)
                 if name.startswith("fac_grade=")]
        unseen = test.fac["fac_grade"] == "g9"
        assert unseen.any()
        assert not X[np.ix_(unseen, block)].any()
        assert (X[np.ix_(~unseen, block)].sum(axis=1) == 1).all()

    def test_extra_column_is_ignored(self, model, tmp_path):
        def add(i, row):
            row["num_extra"] = f"{i % 7}.5"
        extra = _edit_csv(self.STAGEC, tmp_path / "extra", add)
        code, ref = self._evaluate(model, self.STAGEC, tmp_path / "a",
                                   tmp_path)
        assert code == 0
        code, got = self._evaluate(model, extra, tmp_path / "b", tmp_path)
        assert code == 0
        assert got.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("edit", [
        *BAD_CODEC_EDITS.values(), None], ids=[*BAD_CODEC_EDITS, "no_codec"])
    def test_bad_codec_exits_3(self, model, tmp_path, edit):
        doc = json.loads(model.read_text())
        if edit is None:
            doc["codec"] = None
        else:
            edit(doc["codec"])
        ck = tmp_path / "edited.ckpt.json"
        ck.write_text(json.dumps(doc))
        code, got = self._evaluate(ck, self.STAGEC, tmp_path / "e", tmp_path)
        assert code == 3
        assert not got.exists()

    def test_evaluate_fits_no_codec(self, model, tmp_path, monkeypatch):
        from certsurv import data
        calls = []
        fit = data.fit_codec
        monkeypatch.setattr(data, "fit_codec",
                            lambda *a, **kw: calls.append(a) or fit(*a, **kw))
        assert run_cli(["evaluate", "--model", model, "--dataset",
                        self.STAGEC, "--attack", "fgsm", "--eps-grid", "0",
                        "--out", tmp_path / "e"]) == 0
        assert calls == []


def _make_dangling_link(path):
    path.unlink()
    path.symlink_to(path.parent / "gone")


class TestReportCommand:
    @pytest.fixture()
    def metrics_tree(self, tmp_path):
        from certsurv.metrics import MetricRecord, write_metrics_csv
        root = tmp_path / "inputs"
        for ds in ("d1", "d2"):
            for method, ci in (("baseline", 0.6), ("sawar", 0.7)):
                d = root / f"{ds}_{method}"
                d.mkdir(parents=True)
                recs = [MetricRecord(ds, method, "worstcase", eps,
                                     ci, 0.3 - ci / 10, 100 - ci * 50)
                        for eps in (0.0, 0.5)]
                write_metrics_csv(d / "metrics.csv", recs)
        return root

    def test_report_outputs(self, metrics_tree, tmp_path):
        out = tmp_path / "rep"
        code = run_cli(["report", "--inputs", metrics_tree, "--out", out])
        assert code == 0
        assert os.path.exists(out / "ranks.csv")
        assert os.path.exists(out / "percent_change.csv")
        assert os.path.exists(out / "friedman.csv")
        ranks = (out / "ranks.csv").read_text().splitlines()
        header = ranks[0].split(",")
        assert header[:3] == ["attack", "eps", "metric"]
        assert set(header[3:]) == {"baseline", "sawar"}
        # sawar dominates the synthetic fixture, so it ranks 1.0 everywhere
        for line in ranks[1:]:
            cells = dict(zip(header, line.split(",")))
            assert float(cells["sawar"]) == 1.0
            assert float(cells["baseline"]) == 2.0

    def test_single_method_ranks_all_one(self, tmp_path):
        from certsurv.metrics import MetricRecord, write_metrics_csv
        root = tmp_path / "inputs1"
        d = root / "only"
        d.mkdir(parents=True)
        write_metrics_csv(d / "metrics.csv",
                          [MetricRecord("d", "solo", "fgsm", 0.0, 0.7, 0.2, 5.0)])
        out = tmp_path / "rep1"
        assert run_cli(["report", "--inputs", root, "--out", out]) == 0
        body = (out / "ranks.csv").read_text().splitlines()[1:]
        assert all(line.rsplit(",", 1)[1] == "1.0" for line in body)

    def test_report_runs_without_scipy(self, metrics_tree, tmp_path):
        blocked = ("import sys; sys.modules['scipy'] = None; "
                   "from certsurv.cli import main; sys.exit(main(sys.argv[1:]))")
        out = tmp_path / "rep"
        proc = subprocess.run(
            [sys.executable, "-c", blocked, "report", "--inputs",
             str(metrics_tree), "--out", str(out)],
            capture_output=True, text=True, cwd=tmp_path, env=cli_env(),
        )
        assert proc.returncode == 0, proc.stderr
        rows = (out / "friedman.csv").read_text().splitlines()[1:]
        assert rows and all(line.split(",")[3] for line in rows)

    def test_unflagged_nan_is_flagged_and_left_out(self, tmp_path):
        from certsurv.metrics import MetricRecord, write_metrics_csv
        root = tmp_path / "inputs"
        for ds in ("d1", "d2"):
            for method, ci in (("baseline", 0.6), ("sawar", 0.75)):
                if (ds, method) == ("d1", "sawar"):
                    ci = float("nan")   # with ci_flag = 0
                d = root / f"{ds}_{method}"
                d.mkdir(parents=True)
                write_metrics_csv(d / "metrics.csv", [
                    MetricRecord(ds, method, "worstcase", eps, ci, 0.2, 5.0)
                    for eps in (0.0, 0.5)])
        out = tmp_path / "rep"
        assert run_cli(["report", "--inputs", root, "--out", out]) == 0
        with open(out / "percent_change.csv") as fh:
            pct = {(r["eps"], r["metric"]): r for r in csv.DictReader(fh)}
        for eps in ("0.0", "0.5"):
            ci = pct[(eps, "ci")]
            assert float(ci["pct_change_vs_baseline"]) == pytest.approx(25.0)
            assert ci["flagged_cells"] == "1"
            for metric in ("ibs", "negll"):
                assert pct[(eps, metric)]["flagged_cells"] == "0"
        with open(out / "friedman.csv") as fh:
            friedman = {r["metric"]: r for r in csv.DictReader(fh)}
        assert friedman["ci"]["n_blocks"] == "2"
        assert friedman["ibs"]["n_blocks"] == "4"

    def test_empty_dir_exits_3(self, tmp_path):
        (tmp_path / "empty").mkdir()
        assert run_cli(["report", "--inputs", tmp_path / "empty",
                        "--out", tmp_path / "r"]) == 3

    def test_inconsistent_methods_exit_3_names_gap(self, tmp_path, capsys):
        from certsurv.metrics import MetricRecord, write_metrics_csv
        root = tmp_path / "inputs2"
        for ds, methods in (("d1", ("baseline", "sawar")), ("d2", ("baseline",))):
            for m in methods:
                d = root / f"{ds}_{m}"
                d.mkdir(parents=True)
                write_metrics_csv(d / "metrics.csv",
                                  [MetricRecord(ds, m, "fgsm", 0.0, 0.7, 0.2, 5.0)])
        code = run_cli(["report", "--inputs", root, "--out", tmp_path / "r2"])
        assert code == 3
        assert "sawar" in capsys.readouterr().err


    @pytest.mark.parametrize("edit", [
        lambda path: path.write_text(
            path.read_text().replace("negll,", "", 1)),
        lambda path: path.write_text(
            path.read_text().replace(",0.0,", ",abc,", 1)),
        lambda path: path.write_text(path.read_text().replace(",0,", ",", 1)),
        lambda path: path.write_bytes(
            path.read_bytes().replace(b"sawar", b"saw\xe4r")),
        _make_dangling_link,
        lambda path: path.write_text(
            path.read_text().replace(",0.0,", ",nan,", 1)),
    ], ids=["missing-column", "non-numeric-eps", "short-row", "non-utf8",
            "dangling-link", "nan-eps"])
    def test_malformed_metrics_csv_exits_3(self, metrics_tree, tmp_path,
                                           capsys, edit):
        path = metrics_tree / "d2_sawar" / "metrics.csv"
        edit(path)
        assert run_cli(["report", "--inputs", metrics_tree,
                        "--out", tmp_path / "r"]) == 3
        err = capsys.readouterr().err
        assert "error: data error" in err and str(path) in err
        assert not os.path.exists(tmp_path / "r")


class TestSelftestCommand:
    def test_selftest_passes_and_reproduces(self, capsys):
        assert run_cli(["selftest", "--trials", 5]) == 0
        out1 = capsys.readouterr().out
        assert run_cli(["selftest", "--trials", 5]) == 0
        out2 = capsys.readouterr().out
        assert out1 == out2
        assert "selftest passed" in out1

    @pytest.mark.parametrize("flag,value", [("--seed", -1), ("--trials", 0)])
    def test_selftest_bad_seed_or_trials_exits_2(self, capsys, flag, value):
        assert run_cli(["selftest", flag, value]) == 2
        captured = capsys.readouterr()
        assert "selftest passed" not in captured.out
        assert flag in captured.err


class TestEntrypoint:
    def test_module_invocation(self, tmp_path):
        proc = run_child(["--version"], cwd=tmp_path)
        assert proc.returncode == 0
        assert proc.stdout.strip() == certsurv.__version__
