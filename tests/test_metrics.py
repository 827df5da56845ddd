"""Tests for losses and evaluation metrics.

Cross-entropy and the Cox loss are checked against brute-force
probability computations and finite differences; c-index and AUC are
checked against exhaustive pair counting.
"""

import warnings

import numpy as np
import pytest

from marble import numerics as nm
from marble.errors import ConfigError, DimensionError, UndefinedMetricError
from marble.metrics import (CoxBatch, DegenerateCohortWarning, SurvivalRecord,
                            accuracy, auc_binary, auc_macro_ovr, c_index,
                            cox_loss, cross_entropy)
from marble.numerics import Tape, Tensor


def brute_force_c_index(risks, records):
    num = 0.0
    den = 0
    n = len(records)
    for i in range(n):
        for j in range(n):
            if records[i].event and records[i].time < records[j].time:
                den += 1
                if risks[i] > risks[j]:
                    num += 1.0
                elif risks[i] == risks[j]:
                    num += 0.5
    return num / den


def brute_force_cox_nll(risks, records):
    total = 0.0
    times = np.array([r.time for r in records])
    for i, rec in enumerate(records):
        if not rec.event:
            continue
        denom = np.sum(np.exp(risks[times >= rec.time]))
        total -= risks[i] - np.log(denom)
    return total


def brute_force_cox_grad(risks, records):
    """dL/dr of brute_force_cox_nll from its defining sums: each event i
    adds softmax(r) over its at-risk set and -1 at i."""
    grad = np.zeros(len(records))
    times = np.array([r.time for r in records])
    for i, rec in enumerate(records):
        if not rec.event:
            continue
        at_risk = times >= rec.time
        w = np.exp(risks[at_risk])
        grad[at_risk] += w / w.sum()
        grad[i] -= 1.0
    return grad


class TestCrossEntropy:

    def test_matches_direct_softmax(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            logits = rng.normal(size=5)
            label = int(rng.integers(5))
            probs = np.exp(logits) / np.exp(logits).sum()
            expected = -np.log(probs[label])
            got = cross_entropy(Tensor(logits), label)
            assert got.data == pytest.approx(expected, rel=1e-12)

    def test_stable_under_large_logits(self):
        logits = np.array([1000.0, 999.0])
        value = cross_entropy(Tensor(logits), 0)
        assert np.isfinite(value.data)
        assert value.data == pytest.approx(np.log1p(np.exp(-1.0)), rel=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(1)
        logits = Tensor(rng.normal(size=4), requires_grad=True)

        def f():
            return cross_entropy(logits, 2)

        assert nm.finite_diff_check(f, [logits]) < 1e-6

    def test_gradient_is_softmax_minus_onehot(self):
        rng = np.random.default_rng(2)
        logits = Tensor(rng.normal(size=4), requires_grad=True)
        with Tape() as tape:
            loss = cross_entropy(logits, 1)
        tape.backward(loss)
        probs = np.exp(logits.data) / np.exp(logits.data).sum()
        expected = probs - np.eye(4)[1]
        np.testing.assert_allclose(logits.grad, expected, atol=1e-12)

    @pytest.mark.parametrize("logits, label", [
        ([0.3, -1.2], 1),
        ([0.5, 2.0, -0.7], 0),
        ([1000.0, 999.0], 0),
        ([1000.0, 999.0], 1),
        ([-1e3, 0.0, 1e3], 0),
        ([-1e3, 0.0, 1e3], 2),
    ])
    def test_one_node_bit_equal_to_log_sum_exp(self, logits, label):
        x = np.array(logits)
        shift = float(x.max())
        e = np.exp(x - shift)
        total = e.sum()
        expected_grad = (1.0 / total) * e
        expected_grad[label] -= 1.0
        t = Tensor(x, requires_grad=True)
        with Tape() as tape:
            loss = cross_entropy(t, label)
        assert len(tape.nodes) == 1
        tape.backward(loss)
        assert np.array_equal(loss.item(), np.log(total) + shift - x[label])
        assert np.array_equal(t.grad, expected_grad)

    def test_rejects_bad_label(self):
        with pytest.raises(ConfigError):
            cross_entropy(Tensor(np.zeros(3)), 3)

    def test_rejects_matrix_logits(self):
        with pytest.raises(DimensionError):
            cross_entropy(Tensor(np.zeros((2, 3))), 0)


class TestSurvivalRecord:

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ConfigError):
            SurvivalRecord(time=0.0, event=True)

    def test_batch_shape_check(self):
        with pytest.raises(DimensionError):
            CoxBatch(Tensor(np.zeros(3)), [SurvivalRecord(1.0, True)])


class TestCoxLoss:

    def _random_batch(self, rng, n):
        risks = rng.normal(size=n)
        records = [SurvivalRecord(time=float(rng.uniform(0.1, 10.0)),
                                  event=bool(rng.random() < 0.7))
                   for _ in range(n)]
        if not any(r.event for r in records):
            records[0] = SurvivalRecord(records[0].time, True)
        return risks, records

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            risks, records = self._random_batch(rng, int(rng.integers(2, 12)))
            got = cox_loss(CoxBatch(Tensor(risks), records))
            expected = brute_force_cox_nll(risks, records)
            assert got.data == pytest.approx(expected, rel=1e-10)

    def test_breslow_tied_times_share_denominator(self):
        # two events at the same time: both use the full at-risk set
        risks = np.array([0.3, -0.2, 1.1])
        records = [SurvivalRecord(5.0, True), SurvivalRecord(5.0, True),
                   SurvivalRecord(9.0, False)]
        denom = np.log(np.exp(risks).sum())
        expected = (denom - risks[0]) + (denom - risks[1])
        got = cox_loss(CoxBatch(Tensor(risks), records))
        assert got.data == pytest.approx(expected, rel=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(4)
        risks_np, records = self._random_batch(rng, 8)
        risks = Tensor(risks_np, requires_grad=True)

        def f():
            return cox_loss(CoxBatch(risks, records))

        assert nm.finite_diff_check(f, [risks]) < 1e-6

    def test_brute_force_gradient_matches_central_differences(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            risks, records = self._random_batch(rng, int(rng.integers(2, 12)))
            eps = 1e-6
            numeric = [(brute_force_cox_nll(risks + eps * e, records)
                        - brute_force_cox_nll(risks - eps * e, records))
                       / (2 * eps) for e in np.eye(len(risks))]
            np.testing.assert_allclose(brute_force_cox_grad(risks, records),
                                       numeric, atol=1e-7)

    def test_penalty_term(self):
        risks = np.array([0.5, -0.5])
        records = [SurvivalRecord(1.0, True), SurvivalRecord(2.0, False)]
        base = cox_loss(CoxBatch(Tensor(risks), records)).data
        theta = Tensor(np.array(4.0))
        with_pen = cox_loss(CoxBatch(Tensor(risks), records),
                            lam=0.25, theta_sq_norm=theta).data
        assert with_pen == pytest.approx(base + 1.0, rel=1e-12)

    def test_zero_events_warns_and_returns_penalty(self):
        risks = Tensor(np.array([0.1, 0.2]))
        records = [SurvivalRecord(1.0, False), SurvivalRecord(2.0, False)]
        with pytest.warns(DegenerateCohortWarning):
            loss = cox_loss(CoxBatch(risks, records), lam=0.5, theta_sq_norm=2.0)
        assert loss.data == pytest.approx(1.0)

    def test_rejects_negative_penalty_weight(self):
        risks = Tensor(np.array([0.1]))
        with pytest.raises(ConfigError):
            cox_loss(CoxBatch(risks, [SurvivalRecord(1.0, True)]), lam=-1.0)


class TestCIndex:

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            risks = np.round(rng.normal(size=n), 1)  # induce occasional ties
            times = np.round(rng.uniform(0.1, 5.0, size=n), 1)
            events = rng.random(size=n) < 0.7
            records = [SurvivalRecord(float(t), bool(e))
                       for t, e in zip(times, events)]
            comparable = (times[:, None] < times[None, :]) & events[:, None]
            if not comparable.any():
                with pytest.raises(UndefinedMetricError):
                    c_index(risks, records)
                continue
            assert c_index(risks, records) == pytest.approx(
                brute_force_c_index(risks, records), abs=1e-12)

    def test_perfect_and_inverted(self):
        records = [SurvivalRecord(t, True) for t in (1.0, 2.0, 3.0)]
        assert c_index(np.array([3.0, 2.0, 1.0]), records) == 1.0
        assert c_index(np.array([1.0, 2.0, 3.0]), records) == 0.0

    def test_all_censored_raises(self):
        records = [SurvivalRecord(1.0, False), SurvivalRecord(2.0, False)]
        with pytest.raises(UndefinedMetricError):
            c_index(np.zeros(2), records)

    def test_accepts_tensor_risks(self):
        records = [SurvivalRecord(1.0, True), SurvivalRecord(2.0, False)]
        assert c_index(Tensor(np.array([1.0, 0.0])), records) == 1.0


class TestAuc:

    def test_matches_pair_counting(self):
        # lightly tied, heavily tied and tie-free scores
        rng = np.random.default_rng(6)
        for i in range(300):
            n = int(rng.integers(4, 300))
            scores = [np.round(rng.normal(size=n), 1),
                      rng.integers(0, 3, size=n).astype(float),
                      rng.permutation(n) + rng.random()][i % 3]
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                labels[0] = 1 - labels[0]
            pos = scores[labels == 1]
            neg = scores[labels == 0]
            wins = (pos[:, None] > neg[None, :]).sum()
            ties = (pos[:, None] == neg[None, :]).sum()
            expected = (wins + 0.5 * ties) / (len(pos) * len(neg))
            assert abs(auc_binary(scores, labels) - expected) <= 1e-15

    def test_single_class_raises(self):
        with pytest.raises(UndefinedMetricError):
            auc_binary(np.array([0.1, 0.2]), np.array([1, 1]))

    def test_macro_ovr_averages_per_class(self):
        scores = np.array([[0.9, 0.1], [0.2, 0.8], [0.7, 0.3], [0.1, 0.9]])
        labels = np.array([0, 1, 0, 1])
        a0 = auc_binary(scores[:, 0], (labels == 0).astype(int))
        a1 = auc_binary(scores[:, 1], (labels == 1).astype(int))
        assert auc_macro_ovr(scores, labels) == pytest.approx((a0 + a1) / 2)

    def test_macro_ovr_skips_absent_classes(self):
        scores = np.array([[0.9, 0.1, 0.0], [0.2, 0.8, 0.0]])
        labels = np.array([0, 1])
        assert auc_macro_ovr(scores, labels) == pytest.approx(1.0)


class TestAccuracy:

    def test_basic(self):
        assert accuracy([0, 1, 1, 0], [0, 1, 0, 0]) == 0.75

    def test_empty_raises(self):
        with pytest.raises(DimensionError):
            accuracy([], [])

    def test_shape_mismatch_raises(self):
        with pytest.raises(DimensionError):
            accuracy([0, 1], [0])
