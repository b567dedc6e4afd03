"""Input fuzzing: generated CSV and INI files through `cli.main`.

Every generated input must end in a documented exit code (0 success,
2 configuration error, 3 data error) and never in an uncaught exception.
"""

import os
import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

from certsurv.cli import main

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


# One legal value per [train] key; together they train in well under a second
LEGAL = {"kappa": "0.3", "eps_max": "0.2", "warmup_epochs": "1",
         "ramp_epochs": "2", "batch_size": "8", "patience": "3",
         "pgd_steps": "2", "sigma": "1", "w": "auto", "seed": "4",
         "hidden_dims": "8, 8", "leaky_slope": "0.1", "learning_rate": "0.01",
         "fgsm_sign_mode": "yes", "val_monitor": "clean",
         "normalize_onehot": "on", "method": "noise"}
ODD_VALUES = ["-1", "nan", "inf", "", "5%", "%(kappa)s", "x", "0", "0.5",
              "true", "1, 0"]
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
