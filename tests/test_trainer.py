"""Tests for the optimizer, schedule, and training loop.

AdamW is verified against a closed-form single-step computation, the
schedule against its defining formula, and the training loop for
determinism, early stopping, and head/task consistency.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from marble import trainer
from marble.bagdata import (DatasetIndex, ManifestRecord, SynthSpec,
                            generate_dataset)
from marble.errors import ConfigError, DimensionError, NumericError
from marble.metrics import (CoxBatch, DegenerateCohortWarning,
                            SurvivalRecord, cox_loss)
from marble.network import HEAD_SURVIVAL, encode_slide, init_marble_params
from marble.numerics import Tape, Tensor
from marble.pyramid import TokenBag
from marble.trainer import (OptimizerState, TrainConfig, adamw_step,
                            clip_gradients, cosine_warmup_lr, derive_seed,
                            evaluate, predict, train)


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
        theta = rng.normal(size=6)
        g = rng.normal(size=6)
        start = theta.copy()
        lr, wd, b1, b2, eps = 0.01, 0.1, 0.9, 0.999, 1e-8
        adamw_step(theta, g, OptimizerState(6), lr, (b1, b2), wd)
        m_hat = (1 - b1) * g / (1 - b1)
        v_hat = (1 - b2) * g * g / (1 - b2)
        expected = start - lr * m_hat / (np.sqrt(v_hat) + eps) - lr * wd * start
        np.testing.assert_allclose(theta, expected, atol=1e-14)

    def test_five_steps_match_textbook_bias_correction(self):
        rng = np.random.default_rng(1)
        theta = rng.normal(size=7)
        want = theta.copy()
        m, v = np.zeros(7), np.zeros(7)
        lr, wd, b1, b2, eps = 0.01, 0.1, 0.9, 0.999, 1e-8
        state = OptimizerState(7)
        for t in range(1, 6):
            g = rng.normal(size=7)
            adamw_step(theta, g, state, lr, (b1, b2), wd, eps)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1 ** t)
            v_hat = v / (1 - b2 ** t)
            want = want - lr * m_hat / (np.sqrt(v_hat) + eps) - lr * wd * want
        np.testing.assert_allclose(theta, want, rtol=1e-12)

    def test_decay_is_decoupled(self):
        # zero gradient still shrinks the parameter by lr * wd * p
        theta = np.array([2.0])
        adamw_step(theta, np.array([0.0]), OptimizerState(1), 0.1,
                   (0.9, 0.999), 0.5)
        assert theta[0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)

    def test_moments_persist_across_steps(self):
        theta = np.array([0.0])
        state = OptimizerState(1)
        for _ in range(3):
            adamw_step(theta, np.array([1.0]), state, 0.01, (0.9, 0.999), 0.0)
        assert state.step == 3
        assert theta[0] < 0  # moving against the gradient

    def test_negative_lr_rejected(self):
        with pytest.raises(ConfigError):
            adamw_step(np.array([1.0]), np.array([0.0]), OptimizerState(1),
                       -1.0)


class TestClip:

    def test_scales_to_max_norm(self):
        grad = np.array([3.0, 0.0, 0.0, 4.0])
        norm = clip_gradients(grad, 1.0)
        assert norm == pytest.approx(5.0)
        assert math.sqrt(np.sum(grad ** 2)) == pytest.approx(1.0)

    def test_no_scaling_below_threshold(self):
        grad = np.array([0.5])
        clip_gradients(grad, 1.0)
        assert grad[0] == 0.5

    def test_disabled_when_nonpositive(self):
        grad = np.array([100.0])
        clip_gradients(grad, 0.0)
        assert grad[0] == 100.0


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
        {"head": "regression"}, {"cox_chunk": 0}, {"cox_lambda": -1e-4},
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

    @pytest.mark.parametrize("corrupt,error", [
        (lambda emb: emb[:, :6], DimensionError),
        (lambda emb: np.full_like(emb, np.nan), NumericError),
    ], ids=["narrow", "nan"])
    @pytest.mark.parametrize("task,where", [
        ("classification", "epoch 0, slide s00005"),
        ("survival", "epoch 0, slide s00005"),
    ], ids=["classification", "survival"])
    def test_step_failure_names_epoch_and_slide(self, corrupt, error, task,
                                                where):
        index, loader = make_index(task=task)

        def load(rec):
            bag = loader(rec)
            if rec.slide_id != "s00005":
                return bag
            return TokenBag([replace(lv, embeddings=corrupt(lv.embeddings))
                             for lv in bag.levels])

        with pytest.raises(error, match=where) as exc:
            train(index, tiny_config(head=task, cox_chunk=8), bag_loader=load)
        if error is NumericError:
            assert exc.value.op

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("largest", [1e20, 1e30, 3e38])
    def test_overflowing_bag_fails_in_the_scan_without_warnings(self,
                                                                largest):
        # float32-representable embeddings so large that the scan
        # overflows: a NumericError, not a RuntimeWarning turned error
        index, loader = make_index()

        def load(rec):
            bag = loader(rec)
            top = max(np.abs(lv.embeddings).max() for lv in bag.levels)
            return TokenBag([replace(lv, embeddings=(
                lv.embeddings * (largest / top)).astype(np.float32)
                .astype(np.float64)) for lv in bag.levels])

        with pytest.raises(NumericError, match="epoch 0") as exc:
            train(index, tiny_config(), bag_loader=load)
        assert exc.value.op == "selective_scan"

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

    @pytest.mark.parametrize("task,shape", [("classification", (4, 2)),
                                            ("survival", (4,))])
    def test_predict_gives_the_reported_scores(self, task, shape):
        index, loader = make_index(task=task)
        params = init_marble_params(16, 32, 4, 2, task, 2,
                                    np.random.default_rng(0))
        test = index.split_records("test")
        scores = predict(params, [loader(rec) for rec in test])
        assert scores.shape == shape
        report = evaluate(params, test, bag_loader=loader)
        key = "probs" if task == "classification" else "risk"
        assert [row[key] for row in report["per_slide"]] == scores.tolist()

    def test_each_slide_loaded_just_before_its_forward(self, monkeypatch):
        index, loader = make_index()
        params = init_marble_params(16, 32, 4, 2, "classification", 2,
                                    np.random.default_rng(0))
        events = []
        encode = trainer.encode_slide
        monkeypatch.setattr(trainer, "encode_slide", lambda bag, p: (
            events.append("encode"), encode(bag, p))[1])
        test = index.split_records("test")
        evaluate(params, test,
                 bag_loader=lambda rec: events.append("load") or loader(rec))
        assert events == ["load", "encode"] * len(test)

    def test_empty_records_rejected(self):
        index, loader = make_index()
        result = train(index, tiny_config(), bag_loader=loader)
        with pytest.raises(ConfigError):
            evaluate(result.params, [], bag_loader=loader)

    @pytest.mark.parametrize("task", ["classification", "survival"])
    def test_failure_names_the_slide(self, task):
        index, loader = make_index(task=task)
        params = init_marble_params(16, 32, 4, 2, task, 2,
                                    np.random.default_rng(0))
        test = index.split_records("test")
        bad = test[2].slide_id

        def load(rec):
            bag = loader(rec)
            if rec.slide_id != bad:
                return bag
            return TokenBag([replace(lv, embeddings=np.full_like(
                lv.embeddings, np.nan)) for lv in bag.levels])

        with pytest.raises(NumericError, match=f"slide {bad}") as exc:
            evaluate(params, test, bag_loader=load)
        assert exc.value.op


def cox_chunk(times, events, dim=16):
    """Bags and manifest records of a survival chunk with the given
    times and event flags."""
    spec = SynthSpec(n_slides=len(times), seed=3, dim=dim, coarse_rows=3,
                     coarse_cols=3, task="survival")
    slides = generate_dataset(spec)
    chunk = [ManifestRecord(s.slide_id, "", record=SurvivalRecord(t, e),
                            split="train")
             for s, t, e in zip(slides, times, events)]
    return [s.bag for s in slides], chunk


class TestCoxWalk:
    """The survival step streams the Breslow gradient over per-slide
    tapes; it must equal g^T J + 2 lam theta, with J the per-slide risk
    Jacobian and g the closed-form dL/dr of cox_loss."""

    LAM = 1e-2

    def _params(self, dim=16, inner=32):
        return init_marble_params(dim, inner, 4, 2, HEAD_SURVIVAL, 2,
                                  np.random.default_rng(7))

    def _reference(self, bags, chunk, params):
        rows = []
        for bag in bags:
            params.grad.fill(0.0)
            with Tape() as tape:
                risk = encode_slide(bag, params).output
                tape.backward(risk)
            rows.append((risk.item(), params.grad.copy()))
        jac = np.array([row for _, row in rows])
        risks = Tensor(np.array([r for r, _ in rows]), requires_grad=True)
        theta = params.theta
        with Tape() as tape:
            loss = cox_loss(CoxBatch(risks, [c.record for c in chunk]),
                            self.LAM, theta @ theta)
            tape.backward(loss)
        return loss.item(), risks.grad @ jac + 2 * self.LAM * theta

    @pytest.mark.parametrize("times,events", [
        ([2.0, 1.0, 2.0, 3.0, 1.0, 2.0], [1, 1, 0, 1, 1, 1]),
        ([4.0, 1.5, 3.0, 2.5, 0.5, 5.0], [1, 1, 1, 1, 1, 1]),
        ([4.0, 1.5, 3.0, 2.5, 0.5, 5.0], [0, 0, 1, 0, 0, 0]),
    ], ids=["tied-times", "all-events", "one-event"])
    def test_matches_jacobian_reference(self, times, events):
        bags, chunk = cox_chunk(times, [bool(e) for e in events])
        params = self._params()
        loss = trainer._cox_gradient(bags, chunk, params, self.LAM, 0)
        walk = params.grad.copy()
        want_loss, want = self._reference(bags, chunk, params)
        assert np.abs(walk - want).max() <= 1e-12 * np.abs(want).max()
        assert loss == pytest.approx(want_loss, rel=1e-14)

    def test_event_free_chunk_gives_the_penalty_gradient(self):
        bags, chunk = cox_chunk([1.0, 2.0, 3.0], [False] * 3)
        params = self._params()
        theta = params.theta
        with pytest.warns(DegenerateCohortWarning):
            loss = trainer._cox_gradient(bags, chunk, params, self.LAM, 0)
        assert np.array_equal(params.grad, 2 * self.LAM * theta)
        assert loss == pytest.approx(self.LAM * (theta @ theta), rel=1e-14)

    def test_central_differences(self):
        # D = 8, 4 slides, two tied pairs of times
        bags, chunk = cox_chunk([2.0, 1.0, 2.0, 1.0], [True, True, False, True],
                                dim=8)
        params = self._params(dim=8, inner=16)
        named = params.named_params()
        trainer._cox_gradient(bags, chunk, params, self.LAM, 0)
        walk = [p.grad.copy() for _, p in named]
        records = [c.record for c in chunk]

        def loss():
            risks = [encode_slide(bag, params).output.item() for bag in bags]
            theta_sq = sum(float(np.sum(p.data ** 2)) for _, p in named)
            return cox_loss(CoxBatch(Tensor(risks), records), self.LAM,
                            theta_sq).item()

        eps, worst = 3e-4, 0.0
        for (_, p), grad in zip(named, walk):
            flat, gflat = p.data.reshape(-1), grad.reshape(-1)
            for i in range(0, flat.size, 7):     # every 7th entry
                orig = flat[i]
                flat[i] = orig + eps
                up = loss()
                flat[i] = orig - eps
                down = loss()
                flat[i] = orig
                numeric = (up - down) / (2 * eps)
                worst = max(worst, abs(gflat[i] - numeric)
                            / max(abs(gflat[i]), abs(numeric), 1e-8))
        assert worst < 1e-4

    def test_memory_does_not_grow_with_the_chunk(self):
        bags, chunk = cox_chunk([1.0 + (i % 5) for i in range(32)],
                                [i % 3 != 0 for i in range(32)])
        config = tiny_config(head=HEAD_SURVIVAL)
        peaks = []
        for n in (2, 32):
            params = self._params()
            state = OptimizerState(params.theta.size)
            tracemalloc.start()
            trainer._step(bags[:n], chunk[:n], params, state, 1e-3, config, 0)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] < 3 * peaks[0], peaks
