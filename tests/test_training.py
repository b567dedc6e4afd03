import json
import os
from dataclasses import astuple

import numpy as np
import pytest

from certsurv import training
from certsurv.data import FeatureCodec, load_csv, stratified_split
from certsurv.losses import Batch, LossBreakdown
from certsurv.metrics import concordance_index
from certsurv.network import (TrainingDivergenceError, forward_batch,
                              init_network)
from certsurv.training import (CheckpointError, TrainConfig,
                               _batch_loss_grads, _validation_loss,
                               eps_schedule, load_checkpoint, save_checkpoint,
                               train)

from conftest import BAD_CODEC_EDITS, DATA_DIR, planted_linear_csv


@pytest.fixture(scope="module")
def planted_split(tmp_path_factory):
    path = planted_linear_csv(str(tmp_path_factory.mktemp("d") / "toy.csv"),
                              n=40, seed=3)
    raw = load_csv(path)
    return stratified_split(raw, seed=0)


def fast_config(**kw):
    base = dict(max_epochs=60, warmup_epochs=2, ramp_epochs=8, patience=10,
                batch_size=16, hidden_dims=(16,), seed=0)
    base.update(kw)
    return TrainConfig(**base)


def converged_config(**kw):
    base = dict(max_epochs=300, warmup_epochs=2, ramp_epochs=8, patience=30,
                batch_size=16, hidden_dims=(16,), seed=0, learning_rate=1e-2)
    base.update(kw)
    return TrainConfig(**base)


class TestEpsSchedule:
    def test_anchor_points_with_defaults(self):
        cfg = TrainConfig()
        w = cfg.warmup_epochs
        assert eps_schedule(cfg, w) == 0.0
        assert eps_schedule(cfg, w + 30) == 0.5
        assert eps_schedule(cfg, w + 15) == 0.25

    def test_zero_before_warmup_flat_after_ramp(self):
        cfg = TrainConfig(warmup_epochs=5, ramp_epochs=10, eps_max=0.8)
        assert eps_schedule(cfg, 0) == 0.0
        assert eps_schedule(cfg, 5) == 0.0
        assert eps_schedule(cfg, 15) == pytest.approx(0.8)
        assert eps_schedule(cfg, 200) == pytest.approx(0.8)

    def test_nondecreasing_piecewise_linear(self):
        cfg = TrainConfig(warmup_epochs=3, ramp_epochs=7, eps_max=0.5)
        vals = [eps_schedule(cfg, e) for e in range(40)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert max(vals) == pytest.approx(0.5)

    def test_negative_epoch(self):
        with pytest.raises(ValueError):
            eps_schedule(TrainConfig(), -1)


class TestTrainConfig:
    def test_unknown_method(self):
        with pytest.raises(ValueError):
            TrainConfig(method="dropout")

    @pytest.mark.parametrize("field,value", [("kappa", 1.5), ("eps_max", -0.1),
                                             ("ramp_epochs", 0), ("patience", 0),
                                             ("max_epochs", 0), ("batch_size", 0),
                                             ("learning_rate", 0.0),
                                             ("learning_rate", -1e-3),
                                             ("learning_rate", float("nan")),
                                             ("learning_rate", float("inf")),
                                             ("pgd_steps", 0), ("sigma", 0.0),
                                             ("sigma", float("nan")),
                                             ("sigma", float("inf")),
                                             ("hidden_dims", (0,)),
                                             ("hidden_dims", (8, -1)),
                                             ("leaky_slope", 0.0),
                                             ("leaky_slope", 2.0),
                                             ("adam_beta1", 1.0),
                                             ("adam_beta2", -0.1),
                                             ("adam_eps", 0.0),
                                             ("adam_eps", float("inf")),
                                             ("w", -0.5), ("w", float("inf")),
                                             ("w", float("nan")),
                                             ("eps_max", float("inf"))])
    def test_invalid_fields(self, field, value):
        with pytest.raises(ValueError):
            TrainConfig(**{field: value})

    def test_round_trip_dict(self):
        cfg = TrainConfig(method="pgd", hidden_dims=(32, 16), kappa=0.25)
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("field,value", [("batch_size", 2.5),
                                             ("seed", True),
                                             ("hidden_dims", (8.0,)),
                                             ("hidden_dims", (True,)),
                                             ("hidden_dims", [8]),
                                             ("kappa", True), ("kappa", "0.5"),
                                             ("fgsm_sign_mode", "no"),
                                             ("normalize_onehot", 1),
                                             ("method", None), ("w", "auto")])
    def test_wrong_type_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be of type"):
            TrainConfig(**{field: value})

    def test_int_accepted_for_float_and_kept(self):
        cfg = TrainConfig(kappa=1, w=0)
        assert cfg.to_dict()["kappa"] == 1
        assert type(cfg.to_dict()["kappa"]) is int
        assert cfg.w == 0 and type(cfg.w) is int
        assert TrainConfig(seed=np.int64(3), hidden_dims=(np.int64(4),),
                           kappa=np.float64(0.25)).seed == 3


class TestTrain:
    def test_recovers_planted_linear_risk(self, planted_split):
        # Data generated from a known exponential model with a strong
        # linear risk: both the plain and the certified objectives should
        # rank held-out rows well.
        for method in ("baseline", "sawar"):
            cfg = converged_config(method=method)
            net, report = train(cfg, planted_split)
            test = planted_split.test
            risks, _ = forward_batch(net, test.X)
            ci = concordance_index(np.exp(risks), test.t, test.e)
            assert ci > 0.8, (method, ci)

    @pytest.mark.parametrize("method", ["fgsm", "pgd"])
    def test_attack_training_builds_one_pair_plan_per_batch(
            self, tmp_path, monkeypatch, method):
        # The attack and the loss share the batch's comparable pairs: one
        # plan per training batch, and one for the validation split, which
        # is the same Batch in every epoch.  The split is built here: a
        # shared one may already hold its validation plan.
        from certsurv import data
        split = stratified_split(load_csv(planted_linear_csv(
            str(tmp_path / "toy.csv"), n=40, seed=3)), seed=0)
        build = data.comparable_pairs
        sizes = []

        def counted(t, e):
            sizes.append(len(t))
            return build(t, e)

        monkeypatch.setattr(data, "comparable_pairs", counted)
        cfg = fast_config(method=method, max_epochs=4, warmup_epochs=1,
                          ramp_epochs=1)
        train(cfg, split)
        n, bs = len(split.train), cfg.batch_size
        epoch = [min(bs, n - b0) for b0 in range(0, n, bs)]
        assert sizes == epoch + [len(split.validation)] + epoch * 3

    @pytest.mark.parametrize("eps", [0.0, 0.3])
    @pytest.mark.parametrize("method", ["baseline", "fgsm", "pgd", "sawar"])
    def test_validation_loss_is_the_training_objective(self, planted_split,
                                                       method, eps):
        # Validation scores a batch with the code that trains on it.  The
        # noise method is left out on purpose: its validation draw comes
        # from its own stream, not from a training batch's.
        val = planted_split.validation
        batch = Batch(val.X, val.t, val.e)
        cfg = fast_config(method=method, pgd_steps=3)
        net = init_network([val.X.shape[1], 16, 1], cfg.leaky_slope, seed=5)
        got = _validation_loss(net, batch, cfg, eps, 7)
        want = _batch_loss_grads(net, batch, cfg, eps, 7, 0)[0].total
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_baseline_ignores_radius(self, planted_split):
        cfg_a = fast_config(method="baseline", eps_max=0.5)
        cfg_b = fast_config(method="baseline", eps_max=0.0)
        net_a, rep_a = train(cfg_a, planted_split)
        net_b, rep_b = train(cfg_b, planted_split)
        # identical per-epoch training losses (the radius never enters)
        for ra, rb in zip(rep_a.rows, rep_b.rows):
            assert ra.train_total == rb.train_total

    def test_sawar_with_zero_radius_matches_baseline(self, planted_split):
        cfg_s = fast_config(method="sawar", eps_max=0.0)
        cfg_b = fast_config(method="baseline", eps_max=0.0)
        net_s, rep_s = train(cfg_s, planted_split)
        net_b, rep_b = train(cfg_b, planted_split)
        for ws, wb in zip(net_s.weights, net_b.weights):
            assert np.array_equal(ws, wb)
        assert [r.train_total for r in rep_s.rows] == \
               [r.train_total for r in rep_b.rows]

    def test_sawar_kappa_one_equals_baseline_batch_losses(self, planted_split):
        cfg_s = fast_config(method="sawar", kappa=1.0, max_epochs=16)
        cfg_b = fast_config(method="baseline", max_epochs=16)
        _, rep_s = train(cfg_s, planted_split)
        _, rep_b = train(cfg_b, planted_split)
        assert [r.train_clean for r in rep_s.rows] == \
               [r.train_clean for r in rep_b.rows]

    def test_determinism(self, planted_split):
        cfg = fast_config(method="fgsm")
        net_a, rep_a = train(cfg, planted_split)
        net_b, rep_b = train(cfg, planted_split)
        for wa, wb in zip(net_a.weights, net_b.weights):
            assert np.array_equal(wa, wb)
        assert [r.val_loss for r in rep_a.rows] == \
               [r.val_loss for r in rep_b.rows]

    def test_early_stop_guard(self, planted_split):
        # No checkpoint may be selected before the radius reaches its cap.
        cfg = fast_config(method="sawar", warmup_epochs=4, ramp_epochs=6)
        net, report = train(cfg, planted_split)
        assert report.best_epoch >= 10

    def test_run_ending_before_the_ramp_returns_its_last_epoch(
            self, planted_split, caplog):
        cfg = fast_config(method="sawar", warmup_epochs=4, ramp_epochs=6,
                          max_epochs=8)
        with caplog.at_level("WARNING", logger="certsurv.training"):
            _, report = train(cfg, planted_split)
        assert report.best_epoch == report.stopped_epoch == cfg.max_epochs - 1
        ramp = [r for r in caplog.records
                if "before the radius ramp" in r.getMessage()]
        assert len(ramp) == 1

    @pytest.mark.parametrize("eps_max", [0.5, 0.0])
    def test_no_finite_eligible_val_loss_diverges(self, planted_split,
                                                  caplog, eps_max):
        # the first update is finite (weights near 1e300) and every later
        # loss, validation included, is not; eps_max 0 makes epoch 0 a
        # full-radius epoch, 0.5 ends the run before the ramp
        cfg = TrainConfig(method="baseline", learning_rate=1e300,
                          max_epochs=1, batch_size=16, eps_max=eps_max)
        with caplog.at_level("WARNING", logger="certsurv.training"):
            with pytest.raises(TrainingDivergenceError,
                               match="no finite validation loss") as err:
                train(cfg, planted_split)
        assert all(np.isfinite(w).all() for w in err.value.last_good.weights)
        assert not [r for r in caplog.records
                    if "before the radius ramp" in r.getMessage()]

    def test_skipped_batch_leaves_the_epoch_means(self, planted_split,
                                                  monkeypatch):
        # 24 training rows in batches of 16 and 8: batch 0 of every epoch
        # is made non-finite and skipped, so each row is batch 1's losses
        real = training._batch_loss_grads
        stepped = {}

        def first_batch_overflows(net, batch, config, eps, epoch, batch_idx):
            breakdown, pgrads = real(net, batch, config, eps, epoch,
                                     batch_idx)
            if batch_idx == 0:
                return LossBreakdown(*[np.inf] * 5), pgrads
            stepped[epoch] = astuple(breakdown)
            return breakdown, pgrads

        monkeypatch.setattr(training, "_batch_loss_grads",
                            first_batch_overflows)
        _, report = train(fast_config(max_epochs=5), planted_split)
        assert [astuple(r)[2:7] for r in report.rows] == [
            stepped[r.epoch] for r in report.rows]

    def test_report_radius_column_matches_schedule(self, planted_split):
        cfg = fast_config(method="noise")
        _, report = train(cfg, planted_split)
        for row in report.rows:
            assert row.eps == eps_schedule(cfg, row.epoch)

    @pytest.mark.parametrize("method", ["noise", "fgsm", "pgd"])
    def test_perturbation_methods_run(self, planted_split, method):
        cfg = fast_config(method=method, max_epochs=14, patience=3,
                          pgd_steps=3)
        net, report = train(cfg, planted_split)
        assert len(report.rows) >= 10

    def test_divergence_carries_last_good_weights(self, planted_split):
        cfg = fast_config(method="baseline", learning_rate=1e5, max_epochs=10)
        with pytest.raises(TrainingDivergenceError) as err:
            train(cfg, planted_split)
        assert err.value.last_good is not None
        assert all(np.all(np.isfinite(w)) for w in err.value.last_good.weights)


class TestCheckpoint:
    def test_round_trip_is_exact(self, planted_split, tmp_path):
        cfg = fast_config(method="baseline", max_epochs=14, patience=3)
        net, _ = train(cfg, planted_split)
        path = tmp_path / "model.ckpt.json"
        save_checkpoint(net, planted_split.codec, cfg, path)
        net2, codec2, cfg2 = load_checkpoint(path)
        X = np.random.default_rng(0).normal(size=(100, net.input_dim))
        assert (forward_batch(net, X)[0].tobytes()
                == forward_batch(net2, X)[0].tobytes())  # 0 ulp
        assert codec2.to_dict() == planted_split.codec.to_dict()
        assert cfg2 == cfg

    def test_corrupted_file_raises(self, tmp_path):
        path = tmp_path / "bad.ckpt.json"
        path.write_text("{ not json")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_schema_mismatch(self, tmp_path):
        path = tmp_path / "old.ckpt.json"
        path.write_text(json.dumps({"schema_version": 99}))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("doc", [[1, 2], "text", 3, None])
    def test_non_object_document(self, tmp_path, doc):
        path = tmp_path / "list.ckpt.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="not a JSON object"):
            load_checkpoint(path)

    def _saved_doc(self, tmp_path):
        path = tmp_path / "m.ckpt.json"
        cols = ("num_a", "num_b", "num_c")
        codec = FeatureCodec({}, dict.fromkeys(cols, (0.0, 1.0)),
                             dict.fromkeys(cols, 0.0))
        save_checkpoint(init_network([3, 4, 1], seed=0), codec,
                        TrainConfig(hidden_dims=(4,)), path)
        return path, json.loads(path.read_text())

    @pytest.mark.parametrize("edit", [
        lambda d: d["weights"][1].pop(),          # one row too few
        lambda d: [row.pop() for row in d["weights"][0]],   # one column
        lambda d: d["biases"][0].append(0.0),     # one bias too many
        lambda d: d["biases"].pop(),              # a layer without biases
    ], ids=["short_rows", "short_columns", "long_bias", "missing_bias"])
    def test_shape_mismatch_raises(self, tmp_path, edit):
        path, doc = self._saved_doc(tmp_path)
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        lambda d: d.pop("codec"), lambda d: d.__setitem__("codec", None),
    ], ids=["missing", "null"])
    def test_checkpoint_without_codec_raises(self, tmp_path, edit):
        path, doc = self._saved_doc(tmp_path)
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="has no feature codec"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("param", ["weights", "biases"])
    def test_non_finite_parameter_raises(self, tmp_path, param, value):
        path, doc = self._saved_doc(tmp_path)
        flat = doc[param][0]
        if param == "weights":
            flat = flat[0]
        flat[0] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="non-finite"):
            load_checkpoint(path)

    @pytest.fixture(scope="class")
    def stagec_doc(self, tmp_path_factory):
        """A saved checkpoint dict whose codec standardizes every column."""
        split = stratified_split(load_csv(os.path.join(DATA_DIR,
                                                       "stagec.csv")),
                                 seed=0, normalize_onehot=True)
        path = tmp_path_factory.mktemp("ck") / "m.ckpt.json"
        save_checkpoint(init_network([split.codec.dim, 4, 1], seed=0),
                        split.codec, TrainConfig(hidden_dims=(4,)), path)
        return json.loads(path.read_text())

    def test_stagec_codec_loads(self, stagec_doc, tmp_path):
        path = tmp_path / "m.ckpt.json"
        path.write_text(json.dumps(stagec_doc))
        net, codec, _ = load_checkpoint(path)
        assert codec.dim == net.input_dim
        assert codec.to_dict() == stagec_doc["codec"]

    @pytest.mark.parametrize("edit", [
        *BAD_CODEC_EDITS.values(),
        lambda c: c["onehot_stats"]["fac_grade=g2"].__setitem__(1, 0.0),
        lambda c: c["onehot_stats"]["fac_grade=g2"].__setitem__(0, np.inf),
        lambda c: c["onehot_stats"].pop("fac_grade=g2"),
    ], ids=[*BAD_CODEC_EDITS, "onehot_std_zero", "onehot_mean_inf",
            "onehot_missing"])
    def test_bad_codec_raises(self, stagec_doc, tmp_path, edit):
        doc = json.loads(json.dumps(stagec_doc))
        edit(doc["codec"])
        path = tmp_path / "m.ckpt.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match=r"\.json: codec "):
            load_checkpoint(path)
