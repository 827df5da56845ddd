"""Tests for the optimizer, schedule, and training loop.

AdamW is verified against a closed-form single-step computation, the
schedule against its defining formula, and the training loop for
determinism, early stopping, and head/task consistency.
"""

import math

import numpy as np
import pytest

from marble.bagdata import (DatasetIndex, ManifestRecord, SynthSpec,
                            generate_dataset)
from marble.errors import ConfigError
from marble.metrics import SurvivalRecord
from marble.network import HEAD_SURVIVAL
from marble.numerics import Tensor
from marble.trainer import (OptimizerState, TrainConfig, adamw_step,
                            clip_gradients, cosine_warmup_lr, derive_seed,
                            evaluate, train)


def make_index(task="classification", n=24, seed=0, **kwargs):
    spec = SynthSpec(n_slides=n, seed=seed, dim=16, coarse_rows=3,
                     coarse_cols=3, task=task, **kwargs)
    slides = generate_dataset(spec)
    records = []
    for i, s in enumerate(slides):
        split = "train" if i < n - 8 else ("val" if i < n - 4 else "test")
        records.append(ManifestRecord(s.slide_id, "", label=s.label,
                                      record=s.record, split=split))
    lookup = {s.slide_id: s.bag for s in slides}
    index = DatasetIndex(task=task, records=records)
    return index, (lambda rec: lookup[rec.slide_id])


def tiny_config(**kwargs):
    defaults = dict(d_model=16, d_state=4, epochs=3, warmup_epochs=1,
                    base_lr=1e-3, seed=0)
    defaults.update(kwargs)
    return TrainConfig(**defaults)


class TestDeriveSeed:

    def test_deterministic_and_label_sensitive(self):
        assert derive_seed(1, "init") == derive_seed(1, "init")
        assert derive_seed(1, "init") != derive_seed(1, "order")
        assert derive_seed(1, "init") != derive_seed(2, "init")


class TestAdamW:

    def test_single_step_closed_form(self):
        rng = np.random.default_rng(0)
        p = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        g = rng.normal(size=(3, 2))
        p.grad = g.copy()
        start = p.data.copy()
        lr, wd, b1, b2, eps = 0.01, 0.1, 0.9, 0.999, 1e-8
        adamw_step([("p", p)], OptimizerState(), lr, (b1, b2), wd)
        m_hat = (1 - b1) * g / (1 - b1)
        v_hat = (1 - b2) * g * g / (1 - b2)
        expected = start - lr * m_hat / (np.sqrt(v_hat) + eps) - lr * wd * start
        np.testing.assert_allclose(p.data, expected, atol=1e-14)

    def test_decay_is_decoupled(self):
        # zero gradient still shrinks the parameter by lr * wd * p
        p = Tensor(np.array([2.0]), requires_grad=True)
        p.grad = np.array([0.0])
        adamw_step([("p", p)], OptimizerState(), 0.1, (0.9, 0.999), 0.5)
        assert p.data[0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)

    def test_missing_grad_counts_as_zero(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = None
        adamw_step([("p", p)], OptimizerState(), 0.1, (0.9, 0.999), 0.0)
        assert p.data[0] == pytest.approx(1.0)

    def test_moments_persist_across_steps(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        state = OptimizerState()
        for _ in range(3):
            p.grad = np.array([1.0])
            adamw_step([("p", p)], state, 0.01, (0.9, 0.999), 0.0)
        assert state.step == 3
        assert p.data[0] < 0  # moving against the gradient

    def test_negative_lr_rejected(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        with pytest.raises(ConfigError):
            adamw_step([("p", p)], OptimizerState(), -1.0)


class TestClip:

    def test_scales_to_max_norm(self):
        a = Tensor(np.zeros(2), requires_grad=True)
        b = Tensor(np.zeros(2), requires_grad=True)
        a.grad = np.array([3.0, 0.0])
        b.grad = np.array([0.0, 4.0])
        norm = clip_gradients([("a", a), ("b", b)], 1.0)
        assert norm == pytest.approx(5.0)
        total = np.sum(a.grad ** 2) + np.sum(b.grad ** 2)
        assert math.sqrt(total) == pytest.approx(1.0)

    def test_no_scaling_below_threshold(self):
        a = Tensor(np.zeros(1), requires_grad=True)
        a.grad = np.array([0.5])
        clip_gradients([("a", a)], 1.0)
        assert a.grad[0] == 0.5

    def test_disabled_when_nonpositive(self):
        a = Tensor(np.zeros(1), requires_grad=True)
        a.grad = np.array([100.0])
        clip_gradients([("a", a)], 0.0)
        assert a.grad[0] == 100.0


class TestSchedule:

    def test_warmup_then_cosine(self):
        cfg = tiny_config(epochs=10, warmup_epochs=2, base_lr=1.0)
        assert cosine_warmup_lr(0, cfg) == pytest.approx(0.5)
        assert cosine_warmup_lr(1, cfg) == pytest.approx(1.0)
        for e in range(2, 10):
            progress = (e - 2) / 8
            assert cosine_warmup_lr(e, cfg) == pytest.approx(
                0.5 * (1 + math.cos(math.pi * progress)))

    def test_monotone_decay_after_warmup(self):
        cfg = tiny_config(epochs=20, warmup_epochs=3)
        lrs = [cosine_warmup_lr(e, cfg) for e in range(3, 20)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_epoch_out_of_range(self):
        cfg = tiny_config(epochs=5, warmup_epochs=1)
        with pytest.raises(ConfigError):
            cosine_warmup_lr(5, cfg)


class TestTrainConfig:

    def test_d_inner_defaults_to_twice_d_model(self):
        assert tiny_config(d_model=16).d_inner == 32

    @pytest.mark.parametrize("kwargs", [
        {"drop_alpha": 1.0}, {"warmup_epochs": 5, "epochs": 3},
        {"head": "regression"},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            tiny_config(**kwargs)


class TestTrainLoop:

    def test_classification_runs_and_reports(self):
        index, loader = make_index()
        result = train(index, tiny_config(), bag_loader=loader)
        assert len(result.reports) == 3
        assert result.best_epoch >= 0
        assert 0.0 <= result.best_metric <= 1.0
        assert all(r.lr > 0 for r in result.reports)

    def test_survival_runs(self):
        index, loader = make_index(task="survival")
        cfg = tiny_config(head=HEAD_SURVIVAL, cox_chunk=8)
        result = train(index, cfg, bag_loader=loader)
        assert 0.0 <= result.best_metric <= 1.0

    def test_deterministic_given_seed(self):
        index, loader = make_index()
        a = train(index, tiny_config(seed=7), bag_loader=loader)
        b = train(index, tiny_config(seed=7), bag_loader=loader)
        assert [r.val_metric for r in a.reports] == \
            [r.val_metric for r in b.reports]
        for (na, pa), (nb, pb) in zip(a.params.named_params(),
                                      b.params.named_params()):
            assert na == nb
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_seed_changes_trajectory(self):
        index, loader = make_index()
        a = train(index, tiny_config(seed=1), bag_loader=loader)
        b = train(index, tiny_config(seed=2), bag_loader=loader)
        pa = dict(a.params.named_params())["pool_w"].data
        pb = dict(b.params.named_params())["pool_w"].data
        assert not np.array_equal(pa, pb)

    def test_early_stopping_truncates(self):
        index, loader = make_index()
        cfg = tiny_config(epochs=30, warmup_epochs=1, base_lr=0.0,
                          early_stop_patience=2)
        result = train(index, cfg, bag_loader=loader)
        # lr 0 means no learning, so the metric never improves after
        # epoch 0 and patience cuts the run short
        assert len(result.reports) == 3
        assert result.reports[-1].stopped

    def test_head_task_mismatch_rejected(self):
        index, loader = make_index(task="survival")
        with pytest.raises(ConfigError, match="does not match"):
            train(index, tiny_config(), bag_loader=loader)

    def test_empty_split_rejected(self):
        index, loader = make_index()
        index.records = [r for r in index.records if r.split != "val"]
        with pytest.raises(ConfigError):
            train(index, tiny_config(), bag_loader=loader)

    @pytest.mark.parametrize("task", ["classification", "survival"])
    def test_unscorable_val_rejected_before_training(self, task):
        index, loader = make_index(task=task)
        # one class, or no observed event: no metric whatever the scores
        for rec in index.split_records("val"):
            if task == "classification":
                rec.label = 0
            else:
                rec.record = SurvivalRecord(rec.record.time, False)
        loaded = []
        with pytest.raises(ConfigError, match="val split cannot be scored"):
            train(index, tiny_config(head=task),
                  bag_loader=lambda rec: loaded.append(rec) or loader(rec))
        assert loaded == []

    def test_returns_best_not_last(self):
        index, loader = make_index()
        result = train(index, tiny_config(epochs=4), bag_loader=loader)
        best = max(r.val_metric for r in result.reports)
        assert result.best_metric == best


class TestEvaluate:

    def test_classification_report_fields(self):
        index, loader = make_index()
        result = train(index, tiny_config(), bag_loader=loader)
        test = index.split_records("test")
        report = evaluate(result.params, test, bag_loader=loader)
        assert report["task"] == "classification"
        assert 0.0 <= report["accuracy"] <= 1.0
        assert 0.0 <= report["auc"] <= 1.0
        assert len(report["per_slide"]) == len(test)
        for row in report["per_slide"]:
            assert sum(row["probs"]) == pytest.approx(1.0)

    def test_survival_report_fields(self):
        index, loader = make_index(task="survival")
        cfg = tiny_config(head=HEAD_SURVIVAL, cox_chunk=8)
        result = train(index, cfg, bag_loader=loader)
        test = index.split_records("test")
        report = evaluate(result.params, test, bag_loader=loader)
        assert report["task"] == "survival"
        assert 0.0 <= report["c_index"] <= 1.0

    def test_bit_identical_reruns(self):
        index, loader = make_index()
        result = train(index, tiny_config(), bag_loader=loader)
        test = index.split_records("test")
        a = evaluate(result.params, test, bag_loader=loader)
        b = evaluate(result.params, test, bag_loader=loader)
        assert a["per_slide"] == b["per_slide"]

    def test_empty_records_rejected(self):
        index, loader = make_index()
        result = train(index, tiny_config(), bag_loader=loader)
        with pytest.raises(ConfigError):
            evaluate(result.params, [], bag_loader=loader)
