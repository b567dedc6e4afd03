"""CSV ingestion, feature encoding, stratified splitting, and atomic writes.

Input files are headered, comma-separated, UTF-8, with a positive `time`
column, a 0/1 `event` column, numeric features prefixed `num_`, and
categorical features prefixed `fac_`.  Other columns are ignored with a
warning.  Encoding is one binary column per observed categorical level
(missing values get their own level) plus standardized numeric columns
whose statistics come from the training rows only.  Output files are
written through `atomic_open`, so a failed write never leaves a partial file.
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
class RawRow:
    time: float
    event: int
    fac: dict[str, str]
    num: dict[str, float]  # missing numerics stored as nan


@dataclass
class RawDataset:
    name: str
    rows: list[RawRow]
    fac_columns: list[str]
    num_columns: list[str]
    n_dropped_nonpositive: int = 0

    def __len__(self) -> int:
        return len(self.rows)


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


def load_csv(path, name: str | None = None) -> RawDataset:
    """Parse a survival CSV; rows with time <= 0 are dropped and counted."""
    name = name or str(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{name}: empty file") from None
        header = [h.strip() for h in header]
        if "time" not in header or "event" not in header:
            raise FormatError(f"{name}: header must contain 'time' and 'event'")
        t_idx = header.index("time")
        e_idx = header.index("event")
        fac_cols = [h for h in header if h.startswith("fac_")]
        num_cols = [h for h in header if h.startswith("num_")]
        known = {"time", "event", *fac_cols, *num_cols}
        for h in header:
            if h not in known:
                log.warning("%s: ignoring unrecognized column %r", name, h)
        col_idx = {h: i for i, h in enumerate(header)}

        rows: list[RawRow] = []
        dropped = 0
        for line_no, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != len(header):
                raise RowError(line_no, f"expected {len(header)} fields, got {len(rec)}")
            try:
                t = float(rec[t_idx])
            except ValueError:
                raise RowError(line_no, f"unparseable time {rec[t_idx]!r}") from None
            ev_raw = rec[e_idx].strip()
            try:
                ev = int(float(ev_raw))
            except ValueError:
                raise RowError(line_no, f"unparseable event {ev_raw!r}") from None
            if ev not in (0, 1):
                raise RowError(line_no, f"event must be 0 or 1, got {ev_raw!r}")
            if not np.isfinite(t) or t <= 0:
                dropped += 1
                continue
            fac = {c: rec[col_idx[c]].strip() for c in fac_cols}
            num = {}
            for c in num_cols:
                raw = rec[col_idx[c]].strip()
                if raw.lower() in _NA_STRINGS:
                    num[c] = float("nan")
                else:
                    try:
                        num[c] = float(raw)
                    except ValueError:
                        raise RowError(
                            line_no, f"unparseable numeric {c}={raw!r}"
                        ) from None
            rows.append(RawRow(t, ev, fac, num))
    if dropped:
        log.warning("%s: dropped %d row(s) with nonpositive time", name, dropped)
    if len(rows) < 10:
        raise FormatError(f"{name}: need at least 10 usable rows, got {len(rows)}")
    return RawDataset(name, rows, fac_cols, num_cols, dropped)


def fit_codec(rows: list[RawRow], fac_columns: list[str], num_columns: list[str],
              normalize_onehot: bool = False) -> FeatureCodec:
    """Fit level maps and normalization statistics on training rows only."""
    if not rows:
        raise CodecError("cannot fit a codec on zero rows")
    fac_levels: dict[str, list[str]] = {}
    for c in fac_columns:
        levels = sorted({r.fac[c] if r.fac[c].lower() not in _NA_STRINGS
                         else _MISSING_LEVEL for r in rows})
        fac_levels[c] = levels
    num_stats, num_medians = {}, {}
    kept_num = []
    for c in num_columns:
        vals = np.array([r.num[c] for r in rows])
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
        kept_num.append(c)
    names: list[str] = []
    for c in fac_columns:
        names.extend(f"{c}={lv}" for lv in fac_levels[c])
    names.extend(kept_num)
    if not names:
        raise CodecError("no usable feature columns after fitting")
    codec = FeatureCodec(fac_levels, num_stats, num_medians, names,
                         normalize_onehot)
    if normalize_onehot:
        X = _encode(codec, rows, standardize_onehot=False)
        oh_names = names[: len(names) - len(kept_num)]
        stats = {}
        for j, nm in enumerate(oh_names):
            col = X[:, j]
            std = float(col.std())
            if std <= 0.0:
                std = 1.0
            stats[nm] = (float(col.mean()), std)
        codec.onehot_stats = stats
    return codec


def _encode(codec: FeatureCodec, rows: list[RawRow],
            standardize_onehot: bool | None = None) -> np.ndarray:
    if standardize_onehot is None:
        standardize_onehot = codec.normalize_onehot
    n = len(rows)
    X = np.zeros((n, codec.dim))
    j = 0
    for c, levels in codec.fac_levels.items():
        pos = {lv: j + k for k, lv in enumerate(levels)}
        for i, r in enumerate(rows):
            raw = r.fac.get(c, "")
            lv = _MISSING_LEVEL if raw.lower() in _NA_STRINGS else raw
            k = pos.get(lv)
            if k is not None:  # unseen levels encode as an all-zero block
                X[i, k] = 1.0
        j += len(levels)
    for c, (mean, std) in codec.num_stats.items():
        med = codec.num_medians[c]
        vals = np.array([r.num.get(c, float("nan")) for r in rows])
        vals = np.where(np.isnan(vals), med, vals)
        X[:, j] = (vals - mean) / std
        j += 1
    if standardize_onehot and codec.onehot_stats:
        for k, nm in enumerate(codec.feature_names):
            if nm in codec.onehot_stats:
                mean, std = codec.onehot_stats[nm]
                X[:, k] = (X[:, k] - mean) / std
    return X


def apply_codec(codec: FeatureCodec, rows: list[RawRow]) -> SurvivalDataset:
    """Encode rows with a fitted codec (train statistics, never refitted)."""
    if codec.dim == 0:
        raise CodecError("codec has no features")
    X = _encode(codec, rows)
    t = np.array([r.time for r in rows])
    e = np.array([r.event for r in rows], dtype=int)
    return SurvivalDataset(X, t, e, list(codec.feature_names))


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
    events = np.array([r.event for r in raw.rows])
    rng = np.random.default_rng(seed)
    classes = np.unique(events)
    if classes.size < 2:
        log.warning("%s: single event class; falling back to a plain shuffle",
                    raw.name)
        idx = rng.permutation(len(raw))
        n_tr, n_va = _allocate(len(raw))
        parts = (idx[:n_tr], idx[n_tr:n_tr + n_va], idx[n_tr + n_va:])
    else:
        tr, va, te = [], [], []
        for cls in classes:
            cls_idx = np.flatnonzero(events == cls)
            cls_idx = cls_idx[rng.permutation(cls_idx.size)]
            n_tr, n_va = _allocate(cls_idx.size)
            tr.append(cls_idx[:n_tr])
            va.append(cls_idx[n_tr:n_tr + n_va])
            te.append(cls_idx[n_tr + n_va:])
        parts = (np.sort(np.concatenate(tr)), np.sort(np.concatenate(va)),
                 np.sort(np.concatenate(te)))
    train_rows = [raw.rows[i] for i in parts[0]]
    codec = fit_codec(train_rows, raw.fac_columns, raw.num_columns,
                      normalize_onehot)
    split = SplitDataset(
        apply_codec(codec, train_rows),
        apply_codec(codec, [raw.rows[i] for i in parts[1]]),
        apply_codec(codec, [raw.rows[i] for i in parts[2]]),
        codec,
        seed,
        *[np.asarray(p) for p in parts],
    )
    return split
