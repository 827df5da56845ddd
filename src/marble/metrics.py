"""Losses and evaluation metrics.

Cross-entropy is built from differentiable primitives; the Cox negative
partial log-likelihood (Breslow tie handling, optional l2 penalty) is one
primitive with a closed-form backward. The descending-time tie-group
walk that the Cox loss, the concordance index and the Cox training step
share lives here once. The evaluation metrics (accuracy, AUC,
concordance index) are plain numpy.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .errors import ConfigError, DimensionError, UndefinedMetricError
from .numerics import Tensor


class DegenerateCohortWarning(UserWarning):
    """Raised when a Cox batch carries no observed events."""


@dataclass(frozen=True)
class SurvivalRecord:
    """Time-to-event supervision: follow-up time and event indicator
    (True = event observed, False = censored)."""

    time: float
    event: bool

    def __post_init__(self):
        if self.time <= 0:
            raise ConfigError(f"survival time must be positive, got {self.time}")


@dataclass
class CoxBatch:
    risks: Tensor                  # (n,)
    records: list[SurvivalRecord]

    def __post_init__(self):
        if self.risks.data.ndim != 1 or self.risks.shape[0] != len(self.records):
            raise DimensionError(
                f"risks shape {self.risks.shape} does not match "
                f"{len(self.records)} records")


def cross_entropy(logits: Tensor, label: int) -> Tensor:
    """-log softmax(logits)[label], in stable log-sum-exp form."""
    if logits.data.ndim != 1:
        raise DimensionError(f"logits must be 1-D, got {logits.shape}")
    n_classes = logits.shape[0]
    if not 0 <= label < n_classes:
        raise ConfigError(f"label {label} out of range for {n_classes} classes")
    shift = float(logits.data.max())
    lse = nm.add_scalar(
        nm.log(nm.tsum(nm.exp(nm.add_scalar(logits, -shift)))), shift)
    onehot = Tensor(np.eye(n_classes)[label])
    picked = nm.dot(logits, onehot)
    return nm.add(lse, nm.scale(picked, -1.0))


def descending_tie_groups(times) -> list[np.ndarray]:
    """Subject indices grouped by equal time, latest time first; within a
    group, input order.

    Walking the groups in this order, every subject seen so far has a
    time at or after the current group's, so the subjects seen once a
    group closes are exactly its Breslow at-risk set, ties included.
    """
    t = np.asarray(times, dtype=np.float64)
    order = np.argsort(-t, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(t[order])) + 1)


def cox_loss(batch: CoxBatch, lam: float = 0.0,
             theta_sq_norm: Tensor | float = 0.0) -> Tensor:
    """Negative partial log-likelihood with Breslow tie handling.

    The at-risk set for an event at t_i is {j : t_j >= t_i} (ties share
    one denominator). With zero observed events the partial likelihood is
    empty: the penalty alone is returned and a DegenerateCohortWarning is
    issued.

    One primitive. The forward accumulates log-sum-exp of the risks in
    descending time order and reads it at the end of each tie group k,
    giving log at-risk sums A_k; with d_k events in group k the loss is
    sum_k d_k A_k - sum_events r_i. The backward is the closed form
    dL/dr_j = sum_{k : t_k <= t_j} d_k exp(r_j - A_k) - event_j.
    """
    if lam < 0:
        raise ConfigError(f"penalty weight must be non-negative, got {lam}")
    if not isinstance(theta_sq_norm, Tensor):
        theta_sq_norm = Tensor(float(theta_sq_norm))
    event = np.array([r.event for r in batch.records], dtype=bool)
    if not event.any():
        warnings.warn("Cox batch has no observed events; loss is penalty only",
                      DegenerateCohortWarning)
        return nm.scale(theta_sq_norm, lam)

    r = batch.risks.data
    groups = descending_tie_groups([rec.time for rec in batch.records])
    sizes = [len(g) for g in groups]
    order = np.concatenate(groups)
    log_at_risk = np.logaddexp.accumulate(r[order])[np.cumsum(sizes) - 1]
    deaths = np.array([np.count_nonzero(event[g]) for g in groups])
    value = deaths @ log_at_risk - r[event].sum() + lam * theta_sq_norm.data

    def backward(g):
        with np.errstate(divide="ignore"):      # log 0 for event-free groups
            log_w = np.log(deaths) - log_at_risk
        # log sum of d_k exp(-A_k) over group k and every earlier time
        log_tail = np.logaddexp.accumulate(log_w[::-1])[::-1]
        grad_r = np.empty_like(r)
        grad_r[order] = np.exp(r[order] + np.repeat(log_tail, sizes))
        return (g * (grad_r - event), g * lam)

    return nm.record_primitive("cox_loss", value, (batch.risks, theta_sq_norm),
                               backward)


def c_index(risks, records: list[SurvivalRecord]) -> float:
    """Concordance over comparable pairs (t_i < t_j, event at i).

    Higher risk for the earlier event counts 1, tied risks count 0.5.
    Pairs with tied times are incomparable and skipped. Walks the tie
    groups from the latest time down, keeping the risks of the subjects
    already passed (strictly later times) in a sorted list: O(n) memory.
    """
    r = np.asarray(risks.data if isinstance(risks, Tensor) else risks,
                   dtype=np.float64)
    if r.ndim != 1 or len(records) != r.shape[0]:
        raise DimensionError("risks and records must align")
    if len(records) < 2:
        raise UndefinedMetricError("need at least 2 subjects")
    values = r.tolist()
    later: list[float] = []
    concordant = tied = n_pairs = 0
    for group in descending_tie_groups([rec.time for rec in records]):
        for i in group:
            if records[i].event:
                below = bisect_left(later, values[i])
                concordant += below
                tied += bisect_right(later, values[i]) - below
                n_pairs += len(later)
        for i in group:
            insort(later, values[i])
    if n_pairs == 0:
        raise UndefinedMetricError("no comparable pairs in cohort")
    return float((concordant + 0.5 * tied) / n_pairs)


def auc_binary(scores, labels) -> float:
    """Rank-based (Mann-Whitney) AUC; tied scores contribute 0.5."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise DimensionError("scores and labels must be equal 1-D arrays")
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC undefined with a single class")
    order = np.argsort(s, kind="stable")
    sorted_s = s[order]
    # a run of tied scores at 1-based ranks first..last shares the average
    # rank (first + last) / 2, exact for consecutive integers
    starts = np.flatnonzero(np.r_[True, sorted_s[1:] != sorted_s[:-1]])
    ends = np.r_[starts[1:], len(s)]
    ranks = np.empty_like(s)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    rank_sum = ranks[y == 1].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def auc_macro_ovr(scores, labels) -> float:
    """Macro one-vs-rest AUC for multi-class scores (n, C); classes not
    present in the labels are skipped."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.ndim != 2 or s.shape[0] != y.shape[0]:
        raise DimensionError("scores must be (n, C) aligned with labels")
    values = []
    for c in range(s.shape[1]):
        binary = (y == c).astype(int)
        if 0 < binary.sum() < len(binary):
            values.append(auc_binary(s[:, c], binary))
    if not values:
        raise UndefinedMetricError("no class with both positives and negatives")
    return float(np.mean(values))


def accuracy(predicted, actual) -> float:
    p = np.asarray(predicted)
    a = np.asarray(actual)
    if p.shape != a.shape:
        raise DimensionError(f"length mismatch: {p.shape} vs {a.shape}")
    if p.size == 0:
        raise DimensionError("empty prediction vector")
    return float((p == a).mean())
