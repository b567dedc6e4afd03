"""Input fuzzing: generated CSV and INI files through `cli.main`.

Every generated input (a survival CSV, an INI config, a metrics.csv tree,
a checkpoint) must end in a documented exit code (0 success, 2 configuration
error, 3 data error) and never in an uncaught exception.
"""

import os
import re
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from certsurv.cli import main
from certsurv.metrics import MetricRecord

from conftest import planted_linear_csv

NA = ["", "NA", "nan", "None", " null ", "na", "NaN"]
# Cells a valid file may hold, by column kind
GOOD = {
    "time": st.floats(0.01, 50.0).map(lambda v: f"{v:.3f}"),
    "event": st.sampled_from(["0", "1", "1.0", "0.0", " 1 ", "-0", "1e0"]),
    "num": st.one_of(st.floats(-5.0, 5.0).map(lambda v: f"{v:.4f}"),
                     st.sampled_from(NA)),
    "fac": st.sampled_from(["a", "b", " c ", "B", "a b", "é"] + NA),
    "pid": st.integers(0, 999).map(str),
}
# Cells that break a file or get its row dropped, by column kind
BAD = {
    "time": st.sampled_from(["0", "-1.5", "x", "nan", "inf", "", "1e999"]),
    "event": st.sampled_from(["2", "0.5", "-1", "x", "inf", "nan", ""]),
    "num": st.sampled_from(["oops", "inf", "-inf", "-nan", "1e999", "1,5"]),
    "fac": st.sampled_from(["\x00", '"', "a\tb"]),
    "pid": st.just(""),
}
STRAY = st.sampled_from([b"\xff", b"\xc3", b"\x00", b'"', b"\r", b",",
                         b"\n", b"\xef\xbb\xbf"])
FAST = ["--method", "baseline", "--max-epochs", "1", "--batch-size", "16",
        "--seed", "0"]
FUZZ = settings(max_examples=100, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@st.composite
def csv_bytes(draw):
    """A valid survival CSV, then up to four edits that may break it."""
    header = draw(st.permutations(["time", "event", "num_a", "num_b",
                                   "fac_g", "pid"]))
    table = [header] + [[draw(GOOD[h.split("_")[0]]) for h in header]
                        for _ in range(draw(st.integers(10, 40)))]
    stray = b""
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(1, len(table) - 1))
        j = draw(st.integers(0, len(header) - 1))
        row = table[i]
        edit = draw(st.sampled_from(["cell", "cell", "ragged", "duplicate",
                                     "drop", "blank", "stray"]))
        if edit == "cell" and j < len(row):
            row[j] = draw(BAD[header[j].split("_")[0]])
        elif edit == "ragged":
            if draw(st.booleans()):
                row.append("9")
            else:
                del row[-1:]
        elif edit == "duplicate":
            for r in table:
                r.extend(r[j:j + 1])
        elif edit == "drop" and len(header) > 1:
            for r in table:
                del r[j:j + 1]
        elif edit == "blank":
            table.insert(i, [])
        elif edit == "stray":
            stray += draw(STRAY)
    data = "".join(",".join(r) + "\n" for r in table).encode("utf-8")
    at = draw(st.integers(0, len(data)))
    return data[:at] + stray + data[at:]


@FUZZ
@given(csv_bytes())
def test_generated_csv_exits_0_or_3(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.csv")
        with open(path, "wb") as fh:
            fh.write(data)
        code = main(["train", "--dataset", path, "--out",
                     os.path.join(tmp, "out"), *FAST])
    assert code in (0, 3)


# Found by test_generated_csv_exits_0_or_3: on the training rows num_b is
# 1.1016 once and blank otherwise, so the median fill gives seven copies of
# one value, whose float std is 2.2e-16.  Kept as a constant column, it
# scaled the validation rows' 0.0 to -4.96e15 and training diverged (exit 4).
ALL_EQUAL_ON_TRAIN = (
    "time,event,num_a,num_b\n"
    "1.000,1,0.5000,1.1016\n1.000,0,-1.2000,\n1.000,1,2.0000,0.0000\n"
    "1.000,1,0.1000,\n1.000,0,-0.7000,0.0000\n1.000,1,1.3000,0.0000\n"
    "1.000,1,0.0000,\n1.000,1,-2.1000,0.0000\n1.000,1,0.9000,\n"
    "1.000,0,1.7000,\n1.000,1,-0.3000,\n1.000,0,0.4000,0.0000\n"
    "1.000,1,-1.5000,0.0000\n")


def test_all_equal_training_column_exits_0(tmp_path):
    path = tmp_path / "equal.csv"
    path.write_text(ALL_EQUAL_ON_TRAIN)
    assert main(["train", "--dataset", str(path), "--out",
                 str(tmp_path / "out"), *FAST]) == 0


# One legal value per [train] key; together they train in well under a second
LEGAL = {"kappa": "0.3", "eps_max": "0.2", "warmup_epochs": "1",
         "ramp_epochs": "2", "batch_size": "8", "patience": "3",
         "pgd_steps": "2", "sigma": "1", "w": "auto", "seed": "4",
         "hidden_dims": "8, 8", "leaky_slope": "0.1", "learning_rate": "0.01",
         "fgsm_sign_mode": "yes", "val_monitor": "clean",
         "normalize_onehot": "on", "method": "noise"}
ODD_VALUES = ["-1", "nan", "inf", "", "5%", "%(kappa)s", "x", "0", "0.5",
              "true", "1, 0", "2.5", "no"]
ODD_LINES = ["[train]", "[other]", "[", "bogus = 1", "kappa", "  0.5",
             "# note", "Kappa = 0.2", "kappa: 0.4"]


@st.composite
def ini_bytes(draw):
    """A legal [train] section, then up to three edits that may break it."""
    keys = draw(st.lists(st.sampled_from(sorted(LEGAL)), max_size=6,
                         unique=True))
    lines = ["[train]"] + [f"{k} = {LEGAL[k]}" for k in keys]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        edit = draw(st.sampled_from(["line", "value", "header"]))
        if edit == "line":
            lines.insert(at, draw(st.sampled_from(ODD_LINES)))
        elif edit == "value":
            lines.insert(at, draw(st.sampled_from(sorted(LEGAL))) + " = "
                         + draw(st.sampled_from(ODD_VALUES)))
        elif lines:
            lines.pop(0)
    data = "".join(line + "\n" for line in lines).encode("utf-8")
    if draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(STRAY) + data[at:]
    return data


@FUZZ
@given(ini_bytes())
def test_generated_ini_exits_0_or_2(data):
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = planted_linear_csv(os.path.join(tmp, "toy.csv"), n=40,
                                      seed=3)
        cfg = os.path.join(tmp, "fuzz.ini")
        with open(cfg, "wb") as fh:
            fh.write(data)
        code = main(["train", "--dataset", csv_path, "--config", cfg,
                     "--out", os.path.join(tmp, "out"), *FAST])
    assert code in (0, 2)



METRIC_CELLS = st.sampled_from(["abc", "", "nan", "inf", "-1", "2", "1e999",
                                "0.5", "x y", "\x00"])
TREE = [(ds, method, ci) for ds in ("d1", "d2")
        for method, ci in (("baseline", 0.6), ("sawar", 0.7))]


def _metrics_table(ds, method, ci):
    return [list(MetricRecord.CSV_FIELDS)] + [
        [str(c) for c in MetricRecord(ds, method, "fgsm", eps, ci, 0.2,
                                      5.0).csv_row()] for eps in (0.0, 0.5)]


@st.composite
def metrics_bytes(draw, ds, method, ci):
    """A valid metrics.csv, then up to four edits that may break it."""
    table = _metrics_table(ds, method, ci)
    stray = b""
    for _ in range(draw(st.integers(0, 4))):
        row = table[draw(st.integers(0, len(table) - 1))]
        j = draw(st.integers(0, len(table[0]) - 1))
        edit = draw(st.sampled_from(["cell", "cell", "ragged", "duplicate",
                                     "drop", "stray"]))
        if edit == "cell" and j < len(row):
            row[j] = draw(METRIC_CELLS)
        elif edit == "ragged":
            if draw(st.booleans()):
                row.append("9")
            else:
                del row[-1:]
        elif edit == "duplicate":
            for r in table:
                r.extend(r[j:j + 1])
        elif edit == "drop" and len(table[0]) > 1:
            for r in table:
                del r[j:j + 1]
        elif edit == "stray":
            stray += draw(STRAY)
    data = "".join(",".join(r) + "\n" for r in table).encode("utf-8")
    at = draw(st.integers(0, len(data)))
    return data[:at] + stray + data[at:]


@FUZZ
@given(st.sampled_from(range(len(TREE))).flatmap(
    lambda k: st.tuples(st.just(k), metrics_bytes(*TREE[k]))))
def test_generated_metrics_tree_exits_0_or_3(case):
    which, data = case
    with tempfile.TemporaryDirectory() as tmp:
        root = os.path.join(tmp, "inputs")
        for k, (ds, method, ci) in enumerate(TREE):
            os.makedirs(os.path.join(root, f"{ds}_{method}"))
            text = "".join(",".join(r) + "\n"
                           for r in _metrics_table(ds, method, ci))
            with open(os.path.join(root, f"{ds}_{method}", "metrics.csv"),
                      "wb") as fh:
                fh.write(data if k == which else text.encode("utf-8"))
        code = main(["report", "--inputs", root, "--out",
                     os.path.join(tmp, "r")])
    assert code in (0, 3)


@pytest.fixture(scope="module")
def checkpoint_text(tmp_path_factory):
    """A toy CSV and the text of a small checkpoint fitted to it."""
    from certsurv.data import load_csv, stratified_split
    from certsurv.network import init_network
    from certsurv.training import TrainConfig, save_checkpoint
    tmp = tmp_path_factory.mktemp("ckpt")
    csv_path = planted_linear_csv(str(tmp / "toy.csv"), n=40, seed=3)
    split = stratified_split(load_csv(csv_path), seed=0)
    net = init_network([split.codec.dim, 3, 1], 0.01, seed=0)
    save_checkpoint(net, split.codec, TrainConfig(hidden_dims=(3,)),
                    tmp / "ck.json")
    return csv_path, (tmp / "ck.json").read_bytes()


JSON_VALUE = re.compile(rb'-?\d[\d.eE+-]*|"[^"]*"|true|false|null')
ODD_JSON = st.sampled_from([b"NaN", b"Infinity", b"1e999", b"-1", b"0",
                            b"2.5", b'"x"', b"null", b"[]", b"{}", b"true",
                            b"99999999999999999999", b'"no"', b"[1.5]",
                            b'["8"]'])


@st.composite
def checkpoint_edits(draw, data):
    """Up to three edits to a valid checkpoint: a JSON value or key
    replaced, a span cut out, or a stray byte."""
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(["value", "value", "cut", "stray"]))
        if edit == "value":
            a, b = draw(st.sampled_from(
                [m.span() for m in JSON_VALUE.finditer(data)]))
            data = data[:a] + draw(ODD_JSON) + data[b:]
        elif edit == "cut":
            data = data[:at] + data[at + draw(st.integers(1, 40)):]
        else:
            data = data[:at] + draw(STRAY) + data[at:]
    return data


@FUZZ
@given(st.data())
def test_generated_checkpoint_exits_0_or_3(checkpoint_text, data):
    csv_path, text = checkpoint_text
    ck_bytes = data.draw(checkpoint_edits(text))
    with tempfile.TemporaryDirectory() as tmp:
        ck = os.path.join(tmp, "ck.json")
        with open(ck, "wb") as fh:
            fh.write(ck_bytes)
        code = main(["evaluate", "--model", ck, "--dataset", csv_path,
                     "--attack", "fgsm", "--eps-grid", "0,0.5", "--out",
                     os.path.join(tmp, "e")])
    assert code in (0, 3)
