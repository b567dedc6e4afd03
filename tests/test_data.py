import dataclasses
import os
import warnings

import numpy as np
import pytest

from certsurv import data
from certsurv.data import (Batch, CodecError, FormatError, RowError,
                           apply_codec, comparable_pairs, fit_codec, load_csv,
                           split_indices, stratified_split)


@pytest.fixture
def small_csv(tmp_path):
    path = tmp_path / "small.csv"
    path.write_text(
        "pid,event,time,fac_color,num_a,num_b\n"
        "0,1,1.5,red,0.1,10\n"
        "1,0,2.0,green,0.4,20\n"
        "2,1,0.7,blue,-0.3,30\n"
        "3,0,3.1,red,0.9,40\n"
        "4,1,1.1,green,0.5,50\n"
        "5,0,2.2,blue,0.0,60\n"
        "6,1,0.4,red,0.2,15\n"
        "7,0,1.9,green,0.8,25\n"
        "8,1,2.8,blue,-0.5,35\n"
        "9,0,3.3,red,0.6,45\n"
    )
    return str(path)


class TestLoadCsv:
    def test_parses_structure(self, small_csv):
        raw = load_csv(small_csv)
        assert len(raw) == 10
        assert list(raw.fac) == ["fac_color"]
        assert list(raw.num) == ["num_a", "num_b"]
        levels = set(raw.fac["fac_color"])
        assert levels == {"red", "green", "blue"}

    def test_nonpositive_time_dropped_and_counted(self, tmp_path):
        path = tmp_path / "drop.csv"
        rows = ["pid,event,time,num_a"]
        rows.append("0,1,0,1.0")  # dropped
        rows += [f"{i},{i % 2},{i}.5,{i / 10}" for i in range(1, 12)]
        path.write_text("\n".join(rows) + "\n")
        raw = load_csv(str(path))
        assert raw.n_dropped_nonpositive == 1
        assert len(raw) == 11

    def test_missing_required_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("pid,when,event,num_a\n0,1.0,1,0.5\n")
        with pytest.raises(FormatError):
            load_csv(str(path))

    def test_unparseable_numeric_names_line(self, tmp_path):
        path = tmp_path / "bad2.csv"
        rows = ["time,event,num_a"] + [f"{i}.5,1,0.5" for i in range(1, 11)]
        rows.insert(3, "2.5,1,oops")
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(RowError) as err:
            load_csv(str(path))
        assert "line 4" in str(err.value)

    def test_too_few_rows(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("time,event,num_a\n1.0,1,0.5\n")
        with pytest.raises(FormatError):
            load_csv(str(path))

    @pytest.mark.parametrize("event", ["inf", "-inf", "nan", "0.9", "1.5",
                                       "2", "-1"])
    def test_event_must_be_exactly_zero_or_one(self, tmp_path, event):
        path = tmp_path / "ev.csv"
        rows = ["time,event,num_a"] + [f"{i}.5,{i % 2},0.5" for i in range(1, 12)]
        rows[4] = f"4.5,{event},0.5"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(RowError) as err:
            load_csv(str(path))
        assert str(err.value).startswith("line 5: ")

    def test_event_spellings_of_zero_and_one_accepted(self, tmp_path):
        path = tmp_path / "ev.csv"
        events = ["1.0", " 0 ", "0.0", "1e0", "-0", "1", "0", "1", "0", "1"]
        rows = ["time,event,num_a"] + [f"{i + 1}.5,{ev},{i}"
                                       for i, ev in enumerate(events)]
        path.write_text("\n".join(rows) + "\n")
        raw = load_csv(str(path))
        assert raw.event.tolist() == [1, 0, 0, 1, 0, 1, 0, 1, 0, 1]

    @pytest.mark.parametrize("value", ["inf", "-inf", "Infinity", "1e999",
                                       "-nan"])
    def test_non_finite_numeric_names_line(self, tmp_path, value):
        path = tmp_path / "inf.csv"
        rows = ["time,event,num_a"] + [f"{i}.5,1,0.5" for i in range(1, 12)]
        rows[6] = f"6.5,1,{value}"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(RowError) as err:
            load_csv(str(path))
        assert str(err.value).startswith("line 7: ")

    def test_non_finite_numeric_in_dropped_row_ignored(self, tmp_path):
        path = tmp_path / "drop_inf.csv"
        rows = ["time,event,num_a"] + [f"{i}.5,1,0.5" for i in range(1, 12)]
        rows.append("0,1,inf")
        path.write_text("\n".join(rows) + "\n")
        assert load_csv(str(path)).n_dropped_nonpositive == 1

    def test_non_utf8_file_is_format_error(self, tmp_path):
        path = tmp_path / "latin1.csv"
        rows = ["time,event,fac_city"] + [f"{i}.5,1,a" for i in range(1, 12)]
        rows[3] = "3.5,1,M\xfcnchen"
        path.write_bytes(("\n".join(rows) + "\n").encode("latin-1"))
        with pytest.raises(FormatError):
            load_csv(str(path))

    def test_utf8_byte_order_mark_is_dropped(self, tmp_path):
        # spreadsheet programs start a UTF-8 CSV with a byte-order mark
        text = "\n".join(["time,event,num_a,fac_city"]
                         + [f"{i}.5,{i % 2},{i / 7:.3f},M\u00fcnchen"
                            for i in range(1, 12)]) + "\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        want, got = load_csv(str(plain)), load_csv(str(marked))
        assert got.time.tobytes() == want.time.tobytes()
        assert got.event.tobytes() == want.event.tobytes()
        assert list(got.num) == ["num_a"] and list(got.fac) == ["fac_city"]
        assert got.num["num_a"].tobytes() == want.num["num_a"].tobytes()
        assert list(got.fac["fac_city"]) == list(want.fac["fac_city"])

    def test_duplicate_header_is_format_error(self, tmp_path):
        path = tmp_path / "dup.csv"
        rows = ["time,event,num_a,num_a"] + [f"{i}.5,1,{i},{-i}"
                                             for i in range(1, 12)]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(FormatError, match="num_a"):
            load_csv(str(path))

    @pytest.mark.parametrize("bad,want", [
        # (line number -> replacement row, expected message prefix)
        ({3: "2.5,1,0.1,oops", 6: "x,1,0.1,0.2"},
         "line 3: unparseable numeric num_b='oops'"),
        ({4: "x,1,0.1,0.2", 6: "5.5,1,0.1,oops"}, "line 4: unparseable time"),
        ({5: "x,7,oops,oops"}, "line 5: unparseable time 'x'"),
        ({5: "4.5,7,oops,0.2"}, "line 5: event must be 0 or 1"),
        ({5: "4.5,1,oops,inf"}, "line 5: unparseable numeric num_a"),
        ({3: "2.5,1,0.1,oops", 5: "4.5,1,0.1"}, "line 3: unparseable"),
        ({3: "2.5,1,0.1", 5: "4.5,1,0.1,oops"}, "line 3: expected 4 fields"),
    ])
    def test_first_bad_line_in_file_order(self, tmp_path, bad, want):
        path = tmp_path / "order.csv"
        rows = ["time,event,num_a,num_b"] + [f"{i}.5,1,0.1,0.2"
                                             for i in range(1, 13)]
        for line_no, row in bad.items():
            rows[line_no - 1] = row
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(RowError) as err:
            load_csv(str(path))
        assert str(err.value).startswith(want)

    def test_bundled_retinopathy_shape(self, data_dir):
        raw = load_csv(os.path.join(data_dir, "retinopathy.csv"))
        assert len(raw) == 394
        assert len(raw.fac) == 5
        assert len(raw.num) == 2

    def test_bundled_stagec_shape(self, data_dir):
        raw = load_csv(os.path.join(data_dir, "stagec.csv"))
        assert len(raw) == 146
        assert len(raw.fac) == 4
        assert len(raw.num) == 3


class TestCodec:
    def test_one_hot_partition(self, small_csv):
        raw = load_csv(small_csv)
        codec = fit_codec(raw)
        ds = apply_codec(codec, raw)
        onehot = ds.X[:, :3]
        assert np.all(onehot.sum(axis=1) == 1.0)

    def test_standardization(self, small_csv):
        raw = load_csv(small_csv)
        codec = fit_codec(raw)
        ds = apply_codec(codec, raw)
        for j in range(3, 5):
            assert abs(ds.X[:, j].mean()) < 1e-10
            assert abs(ds.X[:, j].std() - 1.0) < 1e-10

    def test_unseen_level_encodes_as_zero_block(self, small_csv):
        raw = load_csv(small_csv)
        codec = fit_codec(raw.take(np.arange(6)))
        row = raw.take([0])
        row.fac["fac_color"][0] = "chartreuse"
        ds = apply_codec(codec, row)
        n_levels = len(codec.fac_levels["fac_color"])
        assert np.all(ds.X[0, :n_levels] == 0.0)

    def test_manual_row_encoding(self, small_csv):
        raw = load_csv(small_csv)
        codec = fit_codec(raw)
        ds = apply_codec(codec, raw)
        # row 0: red, a=0.1, b=10; levels sorted: blue, green, red
        a = raw.num["num_a"]
        b = raw.num["num_b"]
        expected = [0.0, 0.0, 1.0,
                    (0.1 - a.mean()) / a.std(),
                    (10 - b.mean()) / b.std()]
        assert np.allclose(ds.X[0], expected, atol=1e-12)

    def test_missing_numeric_gets_train_median(self, tmp_path):
        path = tmp_path / "miss.csv"
        rows = ["time,event,num_a"]
        vals = [1.0, 2.0, 3.0, 4.0, 100.0, 5.0, 6.0, 7.0, 8.0, 9.0]
        for i, v in enumerate(vals):
            rows.append(f"{i + 1}.0,{i % 2},{v}")
        rows.append("11.0,1,")  # missing numeric
        path.write_text("\n".join(rows) + "\n")
        raw = load_csv(str(path))
        codec = fit_codec(raw)
        assert codec.num_medians["num_a"] == pytest.approx(np.median(vals))
        ds = apply_codec(codec, raw)
        mean, std = codec.num_stats["num_a"]
        assert ds.X[-1, 0] == pytest.approx((codec.num_medians["num_a"] - mean) / std)

    def test_missing_categorical_gets_own_level(self, tmp_path):
        path = tmp_path / "missfac.csv"
        rows = ["time,event,fac_g,num_a"]
        for i in range(10):
            level = "" if i == 3 else ("a" if i % 2 else "b")
            rows.append(f"{i + 1}.0,{i % 2},{level},{i / 7:.3f}")
        path.write_text("\n".join(rows) + "\n")
        raw = load_csv(str(path))
        codec = fit_codec(raw)
        assert "__missing__" in codec.fac_levels["fac_g"]
        ds = apply_codec(codec, raw)
        miss_col = codec.feature_names.index("fac_g=__missing__")
        assert ds.X[3, miss_col] == 1.0
        assert ds.X[:, :3].sum(axis=1).tolist() == [1.0] * 10

    def test_factor_cells_are_stripped_and_missing_per_cell(self, tmp_path):
        # distinct spellings of one level, and of the missing value, each
        # map on their own
        cells = ["a", " a", "a ", "NA", " na ", "None", "b", "", "a", "b\t"]
        path = tmp_path / "spell.csv"
        path.write_text("time,event,fac_g\n" + "".join(
            f"{i + 1}.0,{i % 2},{c}\n" for i, c in enumerate(cells)))
        raw = load_csv(str(path))
        assert raw.fac["fac_g"].dtype == object
        assert raw.fac["fac_g"].tolist() == [
            "a", "a", "a", "__missing__", "__missing__", "__missing__", "b",
            "__missing__", "a", "b"]

    def test_constant_column_dropped(self, tmp_path):
        path = tmp_path / "const.csv"
        rows = ["time,event,num_a,num_c"]
        for i in range(10):
            rows.append(f"{i + 1}.0,{i % 2},{i / 5},7.0")
        path.write_text("\n".join(rows) + "\n")
        raw = load_csv(str(path))
        codec = fit_codec(raw)
        assert "num_c" not in codec.num_stats
        assert codec.dim == 1

    def test_all_constant_rejected(self, tmp_path):
        path = tmp_path / "allconst.csv"
        rows = ["time,event,num_c"] + [f"{i + 1}.0,{i % 2},7.0" for i in range(10)]
        path.write_text("\n".join(rows) + "\n")
        raw = load_csv(str(path))
        with pytest.raises(CodecError):
            fit_codec(raw)

    def test_overflowing_statistics_name_the_column(self, tmp_path):
        path = tmp_path / "huge.csv"
        rows = ["time,event,num_a,num_b"] + [
            f"{i + 1}.0,{i % 2},{1.6e308 if i % 2 else 1.7e308},{i / 7}"
            for i in range(30)]
        path.write_text("\n".join(rows) + "\n")
        raw = load_csv(str(path))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way
            with pytest.raises(CodecError, match="num_a"):
                fit_codec(raw)

    def test_no_leakage(self, small_csv):
        import copy
        raw = load_csv(small_csv)
        codec = fit_codec(raw.take(np.arange(6)))
        before = copy.deepcopy(codec.to_dict())
        apply_codec(codec, raw.take(np.arange(6, len(raw))))
        assert codec.to_dict() == before

    @pytest.mark.parametrize("column", ["fac_color", "num_b"])
    def test_missing_codec_column_raises(self, small_csv, column):
        raw = load_csv(small_csv)
        codec = fit_codec(raw)
        (raw.fac if column.startswith("fac_") else raw.num).pop(column)
        with pytest.raises(CodecError, match=column):
            apply_codec(codec, raw)

    def test_encoding_reproducible(self, small_csv):
        raw = load_csv(small_csv)
        codec = fit_codec(raw)
        a = apply_codec(codec, raw)
        b = apply_codec(codec, raw)
        assert np.array_equal(a.X, b.X)

    def test_normalize_onehot_option(self, small_csv):
        raw = load_csv(small_csv)
        codec = fit_codec(raw, normalize_onehot=True)
        ds = apply_codec(codec, raw)
        for j in range(3):
            assert abs(ds.X[:, j].mean()) < 1e-10
            assert abs(ds.X[:, j].std() - 1.0) < 1e-10


class TestStratifiedSplit:
    def _toy(self, tmp_path, n=100, events=40):
        path = tmp_path / "toy.csv"
        rows = ["time,event,num_a"]
        for i in range(n):
            e = 1 if i < events else 0
            rows.append(f"{(i % 17) + 1}.0,{e},{np.sin(i):.4f}")
        path.write_text("\n".join(rows) + "\n")
        return load_csv(str(path))

    def test_proportions_and_stratification(self, tmp_path):
        raw = self._toy(tmp_path)
        split = stratified_split(raw, seed=0)
        assert len(split.train) == 60
        assert len(split.validation) == 20
        assert len(split.test) == 20
        assert abs(int(split.train.e.sum()) - 24) <= 1

    def test_deterministic(self, tmp_path):
        raw = self._toy(tmp_path)
        a = stratified_split(raw, seed=5)
        b = stratified_split(raw, seed=5)
        assert np.array_equal(a.train_idx, b.train_idx)
        assert np.array_equal(a.test_idx, b.test_idx)

    def test_partition(self, tmp_path):
        raw = self._toy(tmp_path, n=103, events=41)
        split = stratified_split(raw, seed=3)
        all_idx = np.concatenate([split.train_idx, split.val_idx,
                                  split.test_idx])
        assert len(all_idx) == 103
        assert len(set(all_idx.tolist())) == 103

    def test_single_class_falls_back(self, tmp_path):
        path = tmp_path / "onec.csv"
        rows = ["time,event,num_a"] + [f"{i + 1}.0,1,{i / 7:.3f}" for i in range(20)]
        path.write_text("\n".join(rows) + "\n")
        raw = load_csv(str(path))
        split = stratified_split(raw, seed=0)
        assert len(split.train) == 12

    def test_event_rate_balance_on_larger_data(self, data_dir):
        raw = load_csv(os.path.join(data_dir, "zinc.csv"))
        overall = np.mean(raw.event)
        split = stratified_split(raw, seed=1)
        for part in (split.train, split.validation, split.test):
            assert abs(part.e.mean() - overall) <= 0.05

    @pytest.mark.parametrize("events", [40, 0])
    def test_rows_come_from_split_indices(self, tmp_path, events):
        raw = self._toy(tmp_path, events=events)
        split = stratified_split(raw, seed=4)
        parts = split_indices(raw, seed=4)
        for got, want in zip((split.train_idx, split.val_idx,
                              split.test_idx), parts):
            assert np.array_equal(got, want)
        assert np.array_equal(split.test.t, raw.time[parts[2]])

    def test_codec_fitted_on_train_only(self, tmp_path):
        raw = self._toy(tmp_path)
        split = stratified_split(raw, seed=2)
        refit = fit_codec(raw.take(split.train_idx))
        assert refit.num_stats == split.codec.num_stats


class TestBatch:
    @staticmethod
    def batch():
        return Batch(np.zeros((4, 2)), [2.0, 1.0, 3.0, 1.0], [1, 1, 0, 0])

    def test_plan_is_built_once_and_shared_by_moved_copies(self, monkeypatch):
        calls = []

        def counted(t, e):
            calls.append(len(t))
            return comparable_pairs(t, e)

        monkeypatch.setattr(data, "comparable_pairs", counted)
        batch = self.batch()
        moved = batch.with_X(np.ones((4, 2)))
        assert moved.pairs is batch.pairs
        assert batch.with_X(np.zeros((4, 2))).pairs is batch.pairs
        assert calls == [4]

    def test_fields_cannot_change(self):
        batch = self.batch()
        with pytest.raises(dataclasses.FrozenInstanceError):
            batch.t = np.ones(4)
        with pytest.raises(ValueError, match="read-only"):
            batch.t[0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            batch.e[0] = 0

    def test_caller_arrays_stay_writable(self):
        t, e = np.array([2.0, 1.0]), np.array([1, 0])
        Batch(np.zeros((2, 1)), t, e)
        t[0], e[0] = 0.5, 0
        assert t.flags.writeable and e.flags.writeable

    def test_empty_and_nan_times_give_no_pairs(self):
        rows, A = comparable_pairs([], [])
        assert rows.size == 0 and A.shape == (0, 0)
        rows, A = comparable_pairs([np.nan, np.nan], [1, 1])
        assert rows.size == 0 and A.shape == (0, 2)
