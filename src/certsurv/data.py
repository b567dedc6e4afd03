"""CSV ingestion, feature encoding, stratified splitting, and atomic writes.

Input files are headered, comma-separated, UTF-8 (a leading byte-order mark
is skipped), with unique column names, a positive `time` column, a 0/1
`event` column, numeric features prefixed `num_`, and categorical features
prefixed `fac_`; other columns are ignored with a warning.  `load_csv`
converts each column once into a `RawDataset`: float arrays for `time` and
each `num_*` column (NaN where missing), an int `event` array, and per
`fac_*` column a string array whose missing-value spellings are already
`__missing__`, so no other code knows them.  Encoding is one binary column
per observed level plus numeric columns standardized with training-row
statistics.  Output files are written through `atomic_open`, so a failed
write never leaves a partial file.
"""

from __future__ import annotations

import csv
import logging
import os
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

log = logging.getLogger(__name__)

_MISSING_LEVEL = "__missing__"
_NA_STRINGS = {"", "na", "nan", "none", "null"}


class FormatError(ValueError):
    """Structurally unusable input file."""


class RowError(ValueError):
    """A single row failed to parse; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class CodecError(ValueError):
    """Feature encoding cannot be fitted or applied."""


@contextmanager
def atomic_open(path):
    """Text handle on `path + ".tmp"`, renamed over path when the block ends;
    if the block raises, the temp file is removed and path is untouched.
    No newline translation, so csv rows end in CRLF on every platform."""
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header, rows) -> None:
    """Header plus rows through csv.writer, written atomically."""
    with atomic_open(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


@dataclass
class RawDataset:
    """Parsed survival records, one array per column (see the module
    docstring); `fac` and `num` keep the header order."""

    name: str
    time: np.ndarray
    event: np.ndarray
    fac: dict[str, np.ndarray]
    num: dict[str, np.ndarray]
    n_dropped_nonpositive: int = 0

    def __len__(self) -> int:
        return len(self.time)

    def take(self, idx) -> "RawDataset":
        """The records at positions idx, in that order."""
        return RawDataset(self.name, self.time[idx], self.event[idx],
                          {c: v[idx] for c, v in self.fac.items()},
                          {c: v[idx] for c, v in self.num.items()},
                          self.n_dropped_nonpositive)


@dataclass
class SurvivalDataset:
    """Dense encoded design matrix with outcomes."""

    X: np.ndarray
    t: np.ndarray
    e: np.ndarray
    feature_names: list[str]

    def __len__(self) -> int:
        return len(self.X)


@dataclass
class FeatureCodec:
    """Train-split encoding state: level maps, means/stds, medians."""

    fac_levels: dict[str, list[str]]
    num_stats: dict[str, tuple[float, float]]   # column -> (mean, std)
    num_medians: dict[str, float]
    feature_names: list[str] = field(default_factory=list)
    normalize_onehot: bool = False
    onehot_stats: dict[str, tuple[float, float]] = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return len(self.feature_names)

    def to_dict(self) -> dict:
        return {
            "fac_levels": self.fac_levels,
            "num_stats": {k: list(v) for k, v in self.num_stats.items()},
            "num_medians": self.num_medians,
            "feature_names": self.feature_names,
            "normalize_onehot": self.normalize_onehot,
            "onehot_stats": {k: list(v) for k, v in self.onehot_stats.items()},
        }

    @staticmethod
    def from_dict(d: dict) -> "FeatureCodec":
        return FeatureCodec(
            {k: list(v) for k, v in d["fac_levels"].items()},
            {k: (float(v[0]), float(v[1])) for k, v in d["num_stats"].items()},
            {k: float(v) for k, v in d["num_medians"].items()},
            list(d["feature_names"]),
            bool(d.get("normalize_onehot", False)),
            {k: (float(v[0]), float(v[1]))
             for k, v in d.get("onehot_stats", {}).items()},
        )


def _floats(cells):
    """float() of each cell, NaN where it fails, and the mask of failures."""
    vals, bad = np.full(len(cells), np.nan), np.zeros(len(cells), dtype=bool)
    for i, cell in enumerate(cells):
        try:
            vals[i] = float(cell)
        except ValueError:
            bad[i] = True
    return vals, bad


def _strip_missing(cells, fill):
    """Stripped cells with every missing-value spelling replaced by fill,
    and the mask of those cells."""
    cells = np.array([c.strip() for c in cells], dtype=object)
    missing = np.array([c.lower() in _NA_STRINGS for c in cells], dtype=bool)
    cells[missing] = fill
    return cells, missing


def load_csv(path, name: str | None = None) -> RawDataset:
    """Parse a survival CSV; rows with time <= 0 are dropped and counted.

    A bad file raises FormatError; a ragged line or a bad cell raises
    RowError for the first such line in file order.
    """
    name = name or str(path)
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            lines = list(reader)
    except UnicodeDecodeError as exc:
        raise FormatError(f"{name}: not UTF-8 ({exc.reason})") from None
    except csv.Error as exc:
        raise FormatError(f"{name}: line {reader.line_num}: {exc}") from None
    if not lines:
        raise FormatError(f"{name}: empty file")
    header = [h.strip() for h in lines[0]]
    if len(set(header)) != len(header):
        dups = sorted({h for h in header if header.count(h) > 1})
        raise FormatError(f"{name}: duplicate column name(s) {dups}")
    if "time" not in header or "event" not in header:
        raise FormatError(f"{name}: header must contain 'time' and 'event'")
    for h in header:
        if h not in ("time", "event") and not h.startswith(("fac_", "num_")):
            log.warning("%s: ignoring unrecognized column %r", name, h)
    # Each check records the first line it rejects.  The earliest line wins,
    # and on one line the check made first: fields, time, event, numerics.
    records, line_nos, errors = [], [], []
    for line_no, rec in enumerate(lines[1:], start=2):
        if not rec:
            continue
        if len(rec) != len(header):
            errors.append(RowError(line_no, f"expected {len(header)} "
                                            f"fields, got {len(rec)}"))
            break
        records.append(rec)
        line_nos.append(line_no)
    cols = dict(zip(header, np.array(records, dtype=object).reshape(
        len(records), len(header)).T))

    def reject(mask, cells, prefix):
        if mask.any():
            i = mask.argmax()
            errors.append(RowError(line_nos[i], prefix + repr(cells[i])))

    time, bad = _floats(cols["time"])
    reject(bad, cols["time"], "unparseable time ")
    events = [c.strip() for c in cols["event"]]
    event, bad = _floats(events)
    reject(bad, events, "unparseable event ")
    reject(~bad & (event != 0.0) & (event != 1.0), events,
           "event must be 0 or 1, got ")
    kept = np.isfinite(time) & (time > 0)
    num = {}
    for c in (h for h in header if h.startswith("num_")):
        cells, missing = _strip_missing(cols[c], np.nan)
        num[c], bad = _floats(cells)
        reject(kept & bad, cells, f"unparseable numeric {c}=")
        reject(kept & ~missing & ~bad & ~np.isfinite(num[c]), cells,
               f"non-finite numeric {c}=")
    if errors:
        raise min(errors, key=lambda err: err.line_no)
    fac = {h: _strip_missing(cols[h], _MISSING_LEVEL)[0]
           for h in header if h.startswith("fac_")}
    dropped = len(kept) - int(kept.sum())
    if dropped:
        log.warning("%s: dropped %d row(s) with nonpositive time", name, dropped)
    if kept.sum() < 10:
        raise FormatError(f"{name}: need at least 10 usable rows, got "
                          f"{kept.sum()}")
    return RawDataset(name, time, event.astype(int), fac, num,
                      dropped).take(np.flatnonzero(kept))


def _onehot(col: np.ndarray, levels: list[str]) -> np.ndarray:
    # unseen levels encode as an all-zero row
    return (col[:, None] == np.array(levels, dtype=object)).astype(float)


def fit_codec(raw: RawDataset, normalize_onehot: bool = False) -> FeatureCodec:
    """Fit level maps and normalization statistics on training rows only."""
    if not len(raw):
        raise CodecError("cannot fit a codec on zero rows")
    fac_levels = {c: sorted(set(col.tolist())) for c, col in raw.fac.items()}
    num_stats, num_medians = {}, {}
    for c, vals in raw.num.items():
        present = vals[~np.isnan(vals)]
        if present.size == 0:
            log.warning("numeric column %s has no observed values; dropped", c)
            continue
        med = float(np.median(present))
        filled = np.where(np.isnan(vals), med, vals)
        mean, std = float(filled.mean()), float(filled.std())
        if std <= 0.0:
            log.warning("numeric column %s is constant on train; dropped", c)
            continue
        num_stats[c] = (mean, std)
        num_medians[c] = med
    names = [f"{c}={lv}" for c, levels in fac_levels.items() for lv in levels]
    names.extend(num_stats)
    if not names:
        raise CodecError("no usable feature columns after fitting")
    codec = FeatureCodec(fac_levels, num_stats, num_medians, names,
                         normalize_onehot)
    if normalize_onehot:
        for c, levels in fac_levels.items():
            block = _onehot(raw.fac[c], levels)
            for lv, col in zip(levels, block.T):
                std = float(col.std())
                codec.onehot_stats[f"{c}={lv}"] = (float(col.mean()),
                                                   std if std > 0.0 else 1.0)
    return codec


def apply_codec(codec: FeatureCodec, raw: RawDataset) -> SurvivalDataset:
    """Encode records with a fitted codec (train statistics, never refitted)."""
    if codec.dim == 0:
        raise CodecError("codec has no features")
    blocks = []
    for c, levels in codec.fac_levels.items():
        block = _onehot(raw.fac[c], levels)
        if codec.normalize_onehot:
            mean, std = np.array([codec.onehot_stats[f"{c}={lv}"]
                                  for lv in levels]).T
            block = (block - mean) / std
        blocks.append(block)
    for c, (mean, std) in codec.num_stats.items():
        vals = raw.num[c]
        vals = np.where(np.isnan(vals), codec.num_medians[c], vals)
        blocks.append(((vals - mean) / std)[:, None])
    return SurvivalDataset(np.hstack(blocks), raw.time, raw.event,
                           list(codec.feature_names))


@dataclass
class SplitDataset:
    train: SurvivalDataset
    validation: SurvivalDataset
    test: SurvivalDataset
    codec: FeatureCodec
    seed: int
    train_idx: np.ndarray = None
    val_idx: np.ndarray = None
    test_idx: np.ndarray = None


def _allocate(n: int) -> tuple[int, int]:
    n_train = int(round(0.6 * n))
    n_val = int(round(0.2 * n))
    return n_train, n_val


def stratified_split(raw: RawDataset, seed: int = 0,
                     normalize_onehot: bool = False) -> SplitDataset:
    """Event-stratified 60/20/20 split; the codec is fitted on train only."""
    if len(raw) < 10:
        raise FormatError(f"{raw.name}: need at least 10 rows to split")
    rng = np.random.default_rng(seed)
    classes = np.unique(raw.event)
    if classes.size < 2:
        log.warning("%s: single event class; falling back to a plain shuffle",
                    raw.name)
        idx = rng.permutation(len(raw))
        n_tr, n_va = _allocate(len(raw))
        parts = (idx[:n_tr], idx[n_tr:n_tr + n_va], idx[n_tr + n_va:])
    else:
        tr, va, te = [], [], []
        for cls in classes:
            cls_idx = np.flatnonzero(raw.event == cls)
            cls_idx = cls_idx[rng.permutation(cls_idx.size)]
            n_tr, n_va = _allocate(cls_idx.size)
            tr.append(cls_idx[:n_tr])
            va.append(cls_idx[n_tr:n_tr + n_va])
            te.append(cls_idx[n_tr + n_va:])
        parts = (np.sort(np.concatenate(tr)), np.sort(np.concatenate(va)),
                 np.sort(np.concatenate(te)))
    codec = fit_codec(raw.take(parts[0]), normalize_onehot)
    return SplitDataset(*(apply_codec(codec, raw.take(p)) for p in parts),
                        codec, seed, *parts)
