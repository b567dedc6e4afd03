"""CSV ingestion, feature encoding, stratified splitting, and atomic writes.

`read_csv` is the one reader of every CSV file the package reads, datasets
and `metrics.csv` alike: UTF-8 (a leading byte-order mark is skipped), each
record numbered by the physical line where it ends.  Input files are
headered and comma-separated, with unique column names, a positive `time`
column, a 0/1 `event` column, numeric features prefixed `num_`, and
categorical features prefixed `fac_`; other columns are ignored with a
warning.  `load_csv` converts each column once into a `RawDataset`: float
arrays for `time` and each `num_*` column (NaN where missing), an int
`event` array, and per `fac_*` column a string array whose missing-value
spellings are already `__missing__`, so no other code knows them.  A
`FeatureCodec`, fitted on a split's training rows and saved in the
checkpoint, is the model's one encoding: one binary column per training
level of a factor (an unseen level encodes as zeros) and numeric columns
standardized with the training mean and std, a missing value taking the
training median.  It ignores columns it does not name; a column it names
that the data lacks is a `CodecError`, and `FeatureCodec.from_dict` refuses
a codec that `fit_codec` could not make.  Encoded rows are an immutable
`Batch`; `Batch.pairs`, its comparable pairs built once by
`comparable_pairs`, is the one plan of every ranking term and attack, and
concordance counts over the same rule.  The loss's other time-and-event
constants are cached beside it, so an attack builds them once, not at each
step.  Output files are written through `atomic_open`, so a failed write
never leaves a partial file.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

log = logging.getLogger(__name__)

_MISSING_LEVEL = "__missing__"
_NA_STRINGS = {"", "na", "nan", "none", "null"}


class FormatError(ValueError):
    """Unusable input file or directory; the message names it."""


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
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno and exc.filename is None:
            exc.filename = os.fspath(path)  # ENOSPC at a flush names no file
        raise


def write_csv(path, header, rows) -> None:
    """Header plus rows through csv.writer, written atomically."""
    with atomic_open(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, doc, sort_keys=True) -> None:
    """`doc` as JSON, one-space indents and a final newline, written
    atomically."""
    with atomic_open(path) as fh:
        json.dump(doc, fh, indent=1, sort_keys=sort_keys)
        fh.write("\n")


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


class Pairs(NamedTuple):
    """A sample's comparable pairs, kept on the rows that have one.

    `rows` are the records with an event and a later time in the sample;
    `A[r, j]` is True when t[rows[r]] < t[j].  Every other record's row of
    the (n x n) pair matrix is all False.
    """

    rows: np.ndarray
    A: np.ndarray


def comparable_pairs(t, e) -> Pairs:
    """The pairs (i, j) with t_i < t_j where record i had an observed event
    (Harrell's rule); a NaN time pairs with nothing."""
    t, e = np.asarray(t, dtype=float), np.asarray(e, dtype=int)
    rows = np.flatnonzero((e == 1) & (t < np.fmax.reduce(t, initial=-np.inf)))
    return Pairs(rows, t[rows, None] < t[None, :])


@dataclass(frozen=True)
class Batch:
    """Covariate rows with observed times and event indicators; frozen, and
    `t` and `e` are read-only copies, so what is cached from them (`pairs`
    and the loss constants) stays valid."""

    X: np.ndarray
    t: np.ndarray
    e: np.ndarray

    def __post_init__(self):
        t, e = np.array(self.t, dtype=float), np.array(self.e, dtype=int)
        t.flags.writeable = e.flags.writeable = False
        object.__setattr__(self, "X", np.asarray(self.X, dtype=float))
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "e", e)
        if self.X.ndim != 2 or len(self.X) == 0:
            raise ValueError("batch must be a nonempty 2-d covariate matrix")
        if not (len(self.X) == len(self.t) == len(self.e)):
            raise ValueError("X, t, e must have equal length")

    def __len__(self) -> int:
        return len(self.X)

    @cached_property
    def pairs(self) -> Pairs:
        """The batch's comparable pairs, built on first use."""
        return comparable_pairs(self.t, self.e)

    @cached_property
    def minus_pair_times(self) -> np.ndarray:
        """-t at the pair plan's rows, the outer factor of the loss's
        survival terms S(t_i | g_j)."""
        return -self.t[self.pairs.rows]

    @cached_property
    def minus_events(self) -> np.ndarray:
        """-e as floats, the constant part of the likelihood gradient."""
        return -self.e.astype(float)

    def with_X(self, X: np.ndarray) -> "Batch":
        """The records at covariates X, sharing times, events, pairs and
        the constants built from them."""
        moved = Batch(X, self.t, self.e)
        for name in ("pairs", "minus_pair_times", "minus_events"):
            object.__setattr__(moved, name, getattr(self, name))
        return moved


@dataclass
class FeatureCodec:
    """Train-split encoding state: level maps, means/stds, medians."""

    fac_levels: dict[str, list[str]]
    num_stats: dict[str, tuple[float, float]]   # column -> (mean, std)
    num_medians: dict[str, float]
    normalize_onehot: bool = False
    onehot_stats: dict[str, tuple[float, float]] = field(default_factory=dict)

    @property
    def onehot_names(self) -> list[str]:
        return [f"{c}={lv}" for c, levels in self.fac_levels.items()
                for lv in levels]

    @property
    def feature_names(self) -> list[str]:
        return self.onehot_names + list(self.num_stats)

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
        """Inverse of to_dict; ValueError for a codec fit_codec cannot make."""
        codec = FeatureCodec(
            {k: list(v) for k, v in d["fac_levels"].items()},
            {k: (float(v[0]), float(v[1])) for k, v in d["num_stats"].items()},
            {k: float(v) for k, v in d["num_medians"].items()},
            bool(d.get("normalize_onehot", False)),
            {k: (float(v[0]), float(v[1]))
             for k, v in d.get("onehot_stats", {}).items()},
        )
        if not all(isinstance(lv, str) for lvs in codec.fac_levels.values()
                   for lv in lvs):
            raise ValueError("codec levels must be strings")
        if list(d["feature_names"]) != codec.feature_names:
            raise ValueError("codec feature_names must list its levels and "
                             "numeric columns in order")
        onehot = [codec.onehot_stats.get(name, (0.0, math.nan))
                  for name in codec.onehot_names if codec.normalize_onehot]
        for mean, std in (*codec.num_stats.values(), *onehot):
            if not (math.isfinite(mean) and math.isfinite(std) and std > 0.0):
                raise ValueError("codec needs finite means and stds, stds > 0")
        if not all(math.isfinite(codec.num_medians.get(c, math.nan))
                   for c in codec.num_stats):
            raise ValueError("codec needs a finite median per numeric column")
        return codec


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


def read_csv(path):
    """Each record of the CSV file at path as (line, cells), where line is
    the 1-based physical line on which the record ends; blank lines are
    records with no cells.  The file is read as UTF-8, a leading byte-order
    mark skipped, and lazily, so a caller stops at its first bad record.  A
    file that cannot be read or decoded, or that csv cannot parse, raises
    FormatError naming path (and the line)."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            for rec in reader:
                yield reader.line_num, rec
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 ({exc.reason})") from None
    except OSError as exc:
        raise FormatError(f"{path}: cannot read ({exc.strerror})") from None
    except csv.Error as exc:
        raise FormatError(f"{path}: line {reader.line_num}: {exc}") from None


def load_csv(path) -> RawDataset:
    """Parse a survival CSV; rows with time <= 0 are dropped and counted.

    A bad file raises FormatError, and so does a ragged line or a bad cell:
    `<path>: line <n>: <message>` for the first such line in file order.
    """
    name = str(path)
    lines = list(read_csv(path))
    if not lines:
        raise FormatError(f"{name}: empty file")
    header = [h.strip() for h in lines[0][1]]
    if len(set(header)) != len(header):
        dups = sorted({h for h in header if header.count(h) > 1})
        raise FormatError(f"{name}: duplicate column name(s) {dups}")
    if "time" not in header or "event" not in header:
        raise FormatError(f"{name}: header must contain 'time' and 'event'")
    for h in header:
        if h not in ("time", "event") and not h.startswith(("fac_", "num_")):
            log.warning("%s: ignoring unrecognized column %r", name, h)
    # Each check records (line, message) of the first line it rejects.  The
    # earliest line wins, and on one line the check made first: fields,
    # time, event, numerics.
    records, line_nos, errors = [], [], []
    for line_no, rec in lines[1:]:
        if not rec:
            continue
        if len(rec) != len(header):
            errors.append((line_no, f"expected {len(header)} fields, got "
                                    f"{len(rec)}"))
            break
        records.append(rec)
        line_nos.append(line_no)
    cols = dict(zip(header, np.array(records, dtype=object).reshape(
        len(records), len(header)).T))

    def reject(mask, cells, prefix):
        if mask.any():
            i = mask.argmax()
            errors.append((line_nos[i], prefix + repr(cells[i])))

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
        # a missing spelling never reads as finite: only the other cells are
        # stripped and parsed again (float() keeps \x1c-\x1f, strip() not)
        num[c], bad = _floats(cols[c])
        odd = np.flatnonzero(~np.isfinite(num[c]))
        cells, missing = cols[c].copy(), np.zeros(len(bad), dtype=bool)
        cells[odd], missing[odd] = _strip_missing(cells[odd], np.nan)
        num[c][odd], bad[odd] = _floats(cells[odd])
        reject(kept & bad, cells, f"unparseable numeric {c}=")
        reject(kept & ~missing & ~bad & ~np.isfinite(num[c]), cells,
               f"non-finite numeric {c}=")
    if errors:
        line_no, message = min(errors, key=lambda err: err[0])
        raise FormatError(f"{name}: line {line_no}: {message}")
    fac = {}
    for h in (h for h in header if h.startswith("fac_")):
        # a factor column repeats a few levels: each is tested once
        cells = cols[h].tolist()
        index = {c: i for i, c in enumerate(dict.fromkeys(cells))}
        levels, _ = _strip_missing(list(index), _MISSING_LEVEL)
        fac[h] = levels[np.fromiter(map(index.__getitem__, cells), np.intp,
                                    len(cells))]
    dropped = len(kept) - int(kept.sum())
    if dropped:
        log.warning("%s: dropped %d row(s) with nonpositive time", name, dropped)
    if kept.sum() < 10:
        raise FormatError(f"{name}: need at least 10 usable rows, got "
                          f"{kept.sum()}")
    return RawDataset(name, time, event.astype(int), fac, num,
                      dropped).take(np.flatnonzero(kept))


def _onehot(col: np.ndarray, levels: list[str]) -> np.ndarray:
    return (col[:, None] == np.array(levels, dtype=object)).astype(float)


def fit_codec(raw: RawDataset, normalize_onehot: bool = False) -> FeatureCodec:
    """Fit level maps and normalization statistics on training rows only."""
    if not len(raw):
        raise CodecError(f"{raw.name}: cannot fit a codec on zero rows")
    fac_levels = {c: sorted(set(col.tolist())) for c, col in raw.fac.items()}
    num_stats, num_medians = {}, {}
    for c, vals in raw.num.items():
        present = vals[~np.isnan(vals)]
        if present.size == 0:
            log.warning("%s: numeric column %s has no observed values; "
                        "dropped", raw.name, c)
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            med = float(np.median(present))
            filled = np.where(np.isnan(vals), med, vals)
            mean, std = float(filled.mean()), float(filled.std())
        if not np.isfinite([med, mean, std]).all():
            raise CodecError(f"{raw.name}: numeric column {c} overflows its "
                             "statistics")
        # all-equal values can leave a float std of a few ulp
        if std <= 0.0 or filled.min() == filled.max():
            log.warning("%s: numeric column %s is constant on train; dropped",
                        raw.name, c)
            continue
        num_stats[c] = (mean, std)
        num_medians[c] = med
    codec = FeatureCodec(fac_levels, num_stats, num_medians, normalize_onehot)
    if not codec.dim:
        raise CodecError(f"{raw.name}: no usable feature columns after "
                         "fitting")
    if normalize_onehot:
        for c, levels in fac_levels.items():
            block = _onehot(raw.fac[c], levels)
            for lv, col in zip(levels, block.T):
                std = float(col.std())
                codec.onehot_stats[f"{c}={lv}"] = (float(col.mean()),
                                                   std if std > 0.0 else 1.0)
    return codec


def apply_codec(codec: FeatureCodec, raw: RawDataset) -> Batch:
    """Encode records with a fitted codec: its levels and training
    statistics, never refitted.  Columns the codec does not name are
    ignored and a level it has not seen encodes as zeros in its factor's
    indicators; a codec column missing from raw raises CodecError."""
    if codec.dim == 0:
        raise CodecError(f"{raw.name}: codec has no features")
    missing = [c for c in codec.fac_levels if c not in raw.fac]
    missing += [c for c in codec.num_stats if c not in raw.num]
    if missing:
        raise CodecError(f"{raw.name}: lacks codec column(s) {missing}")
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
    X = np.hstack(blocks)
    if not np.isfinite(X).all():
        raise CodecError(f"{raw.name}: a value overflows when standardized")
    return Batch(X, raw.time, raw.event)


@dataclass
class SplitDataset:
    train: Batch
    validation: Batch
    test: Batch
    codec: FeatureCodec


def split_indices(raw: RawDataset, seed: int = 0):
    """(train, validation, test) row indices of an event-stratified
    60/20/20 split."""
    if len(raw) < 10:
        raise FormatError(f"{raw.name}: need at least 10 rows to split")
    rng = np.random.default_rng(seed)
    classes = np.unique(raw.event)
    if classes.size < 2:
        log.warning("%s: single event class; falling back to a plain shuffle",
                    raw.name)
    cuts = []
    for cls in classes:
        idx = np.flatnonzero(raw.event == cls)
        idx = idx[rng.permutation(idx.size)]
        n_tr = round(0.6 * idx.size)
        cuts.append(np.split(idx, [n_tr, n_tr + round(0.2 * idx.size)]))
    # a stratified part lists its rows in file order, a plain shuffle not
    order = np.sort if classes.size > 1 else np.asarray
    return tuple(order(np.concatenate(part)) for part in zip(*cuts))


def stratified_split(raw: RawDataset, seed: int = 0,
                     normalize_onehot: bool = False) -> SplitDataset:
    """The split_indices split, encoded by a codec fitted on train only."""
    parts = split_indices(raw, seed)
    codec = fit_codec(raw.take(parts[0]), normalize_onehot)
    return SplitDataset(*(apply_codec(codec, raw.take(p)) for p in parts),
                        codec)
