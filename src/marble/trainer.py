"""Training engine: AdamW with decoupled weight decay, cosine schedule
with linear warm-up, slide-at-a-time optimization with the two
training-only regularizers (coarse-branch drop and within-level
shuffling), early stopping, and deterministic evaluation.

Classification takes one optimizer step per slide. The Cox partial
likelihood needs a cohort in its denominators, so survival training
steps once per chunk of slides. Each slide of the chunk still gets its
own tape: the step walks the chunk in descending survival time and
streams the Breslow gradient, so memory is one slide's tape plus three
parameter-length vectors, whatever the chunk size.
"""

from __future__ import annotations

import hashlib
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .bagdata import DatasetIndex, ManifestRecord
from .errors import (ConfigError, MarbleError, NumericError,
                     UndefinedMetricError)
from .metrics import (CoxBatch, accuracy, auc_binary, auc_macro_ovr,
                      c_index, cox_loss, cross_entropy, descending_tie_groups)
from .network import (HEAD_CLASSIFICATION, HEAD_SURVIVAL, MarbleParams,
                      encode_slide, init_marble_params)
from .numerics import Tape, Tensor
from .pyramid import TokenBag, coarse_branch_drop, shuffle_within_levels


# The metric each task is scored and early-stopped by.
METRIC = {HEAD_CLASSIFICATION: "auc", HEAD_SURVIVAL: "c_index"}


def derive_seed(master: int, label: str) -> int:
    """Independent sub-stream seed from the master seed and a purpose tag."""
    digest = hashlib.sha256(f"{master}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass
class TrainConfig:
    """Hyperparameters; defaults follow the training protocol."""

    base_lr: float = 3e-5
    weight_decay: float = 1e-2
    epochs: int = 30
    warmup_epochs: int = 5
    early_stop_patience: int = 10
    drop_alpha: float = 0.1
    shuffle_each_epoch: bool = True
    seed: int = 0
    head: str = HEAD_CLASSIFICATION
    cox_lambda: float = 1e-4
    cox_chunk: int = 32          # slides per survival optimizer step
    grad_clip: float = 5.0       # global-norm clip; <= 0 disables
    d_model: int = 64
    d_inner: int = 0             # 0 -> 2 * d_model
    d_state: int = 16
    n_levels: int = 2
    n_classes: int = 2

    def __post_init__(self):
        if not 0.0 <= self.drop_alpha < 1.0:
            raise ConfigError(f"drop_alpha must be in [0, 1), got {self.drop_alpha}")
        if self.warmup_epochs >= self.epochs:
            raise ConfigError("warmup_epochs must be smaller than epochs")
        if self.head not in (HEAD_CLASSIFICATION, HEAD_SURVIVAL):
            raise ConfigError(f"unknown head '{self.head}'")
        if self.cox_chunk < 1:
            raise ConfigError(f"cox_chunk must be at least 1, got {self.cox_chunk}")
        if self.cox_lambda < 0:
            raise ConfigError(f"cox_lambda must be non-negative, got {self.cox_lambda}")
        if self.d_state < 1 or self.d_inner < 0:
            raise ConfigError(f"need d_state >= 1 and d_inner >= 0, got "
                              f"{self.d_state} and {self.d_inner}")
        if self.d_inner == 0:
            self.d_inner = 2 * self.d_model


class OptimizerState:
    """AdamW moments and one work array, all of the parameter count."""

    def __init__(self, size: int):
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.work = np.empty(size)
        self.step = 0


def adamw_step(theta: np.ndarray, grad: np.ndarray, state: OptimizerState,
               lr: float, betas=(0.9, 0.999), weight_decay: float = 1e-2,
               eps: float = 1e-8) -> None:
    """One decoupled-weight-decay Adam update of `theta` in place:
    theta - lr m_hat / (sqrt(v_hat) + eps) - lr wd theta, with the bias
    corrections folded into two scalars."""
    if lr < 0:
        raise ConfigError("learning rate must be non-negative")
    b1, b2 = betas
    state.step += 1
    t = state.step
    m, v, a = state.m, state.v, state.work
    np.subtract(grad, m, out=a)
    a *= 1 - b1
    m += a
    np.multiply(grad, grad, out=a)
    a -= v
    a *= 1 - b2
    v += a
    # m_hat / (sqrt(v_hat) + eps) == m c2 / (c1 (sqrt(v) + eps c2))
    c1, c2 = 1 - b1 ** t, math.sqrt(1 - b2 ** t)
    np.sqrt(v, out=a)
    a += eps * c2
    np.divide(m, a, out=a)
    a *= lr * c2 / c1
    theta *= 1 - lr * weight_decay
    theta -= a


def clip_gradients(grad: np.ndarray, max_norm: float) -> float:
    """Scale `grad` in place so its l2 norm is at most max_norm; returns
    the norm before clipping."""
    norm = math.sqrt(float(grad @ grad))
    if max_norm > 0 and norm > max_norm:
        grad *= max_norm / norm
    return norm


def cosine_warmup_lr(epoch: int, config: TrainConfig) -> float:
    """Linear warm-up to base_lr, then cosine decay to zero."""
    if not 0 <= epoch < config.epochs:
        raise ConfigError(f"epoch {epoch} out of range [0, {config.epochs})")
    w = config.warmup_epochs
    if epoch < w:
        return config.base_lr * (epoch + 1) / w
    progress = (epoch - w) / (config.epochs - w)
    return config.base_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


@dataclass
class EpochReport:
    epoch: int
    lr: float
    train_loss: float
    val_metric: float
    best_so_far: float
    stopped: bool


@dataclass
class TrainResult:
    params: MarbleParams          # best-validation checkpoint
    best_epoch: int
    best_metric: float
    reports: list[EpochReport]


def _regularized_bag(bag: TokenBag, config: TrainConfig, epoch: int,
                     position: int) -> TokenBag:
    if config.drop_alpha > 0.0 and bag.n_levels > 0:
        bag = coarse_branch_drop(bag, config.drop_alpha, derive_seed(
            config.seed, f"drop:{epoch}:{position}"))
    if config.shuffle_each_epoch:
        bag = shuffle_within_levels(bag, derive_seed(
            config.seed, f"shuffle:{epoch}:{position}"))
    return bag


def train(index: DatasetIndex, config: TrainConfig,
          bag_loader) -> TrainResult:
    """Full training run per the protocol; reproducible from config.seed."""
    train_recs = index.split_records("train")
    val_recs = index.split_records("val")
    if not train_recs or not val_recs:
        raise ConfigError("train and val splits must both be non-empty")
    expected_head = (HEAD_CLASSIFICATION if index.task == "classification"
                     else HEAD_SURVIVAL)
    if config.head != expected_head:
        raise ConfigError(f"config head '{config.head}' does not match "
                          f"dataset task '{index.task}'")
    check_scorable("val", val_recs, config)
    cache: dict[str, TokenBag] = {}

    def cached(record: ManifestRecord) -> TokenBag:   # each bag read once
        if record.slide_id not in cache:
            cache[record.slide_id] = bag_loader(record)
        return cache[record.slide_id]

    params = init_marble_params(
        config.d_model, config.d_inner, config.d_state, config.n_levels,
        config.head, config.n_classes,
        np.random.default_rng(derive_seed(config.seed, "init")))
    state = OptimizerState(params.theta.size)
    order_rng = np.random.default_rng(derive_seed(config.seed, "order"))
    step = 1 if config.head == HEAD_CLASSIFICATION else config.cox_chunk

    best_metric = -math.inf
    best_epoch = -1
    best_params: MarbleParams | None = None
    stagnant = 0
    reports: list[EpochReport] = []

    for epoch in range(config.epochs):
        lr = cosine_warmup_lr(epoch, config)
        order = order_rng.permutation(len(train_recs))
        losses: list[float] = []
        for start in range(0, len(order), step):
            chunk = [train_recs[i] for i in order[start:start + step]]
            bags = [cached(rec) for rec in chunk]
            losses.append(_step(
                lambda j: _regularized_bag(bags[j], config, epoch, start + j),
                chunk, params, state, lr, config, epoch))
        train_loss = float(np.mean(losses)) if losses else 0.0

        val_metric = evaluate(params, val_recs,
                              bag_loader=cached)[METRIC[index.task]]
        improved = val_metric > best_metric
        if improved:
            best_metric = val_metric
            best_epoch = epoch
            best_params = params.copy()
            stagnant = 0
        else:
            stagnant += 1
        stop = stagnant >= config.early_stop_patience
        reports.append(EpochReport(epoch, lr, train_loss, val_metric,
                                   best_metric, stop))
        if stop:
            break

    assert best_params is not None
    return TrainResult(params=best_params, best_epoch=best_epoch,
                       best_metric=best_metric, reports=reports)


@contextmanager
def _naming(where: str):
    """Re-raise a MarbleError from the block as the same class, with
    `where` added; NumericError keeps its op."""
    try:
        yield
    except MarbleError as exc:
        if isinstance(exc, NumericError):
            raise NumericError(exc.op, where) from exc
        raise type(exc)(f"{exc} ({where})") from exc


def _step(bag_of, chunk, params, state, lr, config, epoch) -> float:
    """One optimizer step on `chunk`, slide j's bag built by `bag_of(j)`
    when reached: cross-entropy on one slide, or the Cox loss on the chunk."""
    if config.head == HEAD_CLASSIFICATION:
        loss = _slide_backward(bag_of(0), chunk[0], params, epoch,
                               lambda out: cross_entropy(out, chunk[0].label))
    else:
        loss = _cox_gradient(bag_of, chunk, params, config.cox_lambda, epoch)
    clip_gradients(params.grad, config.grad_clip)
    adamw_step(params.theta, params.grad, state, lr,
               weight_decay=config.weight_decay)
    return loss


def _slide_backward(bag, rec, params, epoch, head) -> float:
    """Forward and backward of `head(output)` for one slide on its own
    tape; leaves its gradient in `params.grad` and returns its value."""
    params.grad.fill(0.0)
    with _naming(f"epoch {epoch}, slide {rec.slide_id}"), Tape() as tape:
        value = head(encode_slide(bag, params).output)
        tape.backward(value)
    return value.item()


def _cox_gradient(bag_of, chunk, params, lam, epoch) -> float:
    """Write the gradient of the chunk's Cox loss into `params.grad` and
    return the loss, holding one slide's bag, bag_of(j), and tape at once.

    The loss depends on theta only through the risks r_j. The walk visits
    the tie groups from the latest time to the earliest and keeps, with
    m the largest risk so far, S = sum exp(r_j - m) and
    V = sum exp(r_j - m) dr_j/dtheta over the slides seen, which at a
    group's close are its Breslow at-risk set. Each event adds
    -dr_i/dtheta, each group of d events d V / S, and the penalty
    2 lam theta. Every exponent is <= 0.
    """
    records = [rec.record for rec in chunk]
    risks = np.empty(len(chunk))
    d_risk = params.grad             # dr_j/dtheta, rewritten for each slide
    grad = np.zeros_like(d_risk)                         # G
    weighted = np.zeros_like(grad)                       # V
    at_risk, top = 0.0, -math.inf                        # S, m
    for group in descending_tie_groups([r.time for r in records]):
        deaths = 0
        for j in group:
            risks[j] = r = _slide_backward(bag_of(j), chunk[j], params, epoch,
                                           lambda out: out)
            if records[j].event:
                grad -= d_risk
                deaths += 1
            if r > top:
                rescale = math.exp(top - r)
                at_risk *= rescale
                weighted *= rescale
                top = r
            w = math.exp(r - top)
            at_risk += w
            d_risk *= w
            weighted += d_risk
        if deaths:
            grad += (deaths / at_risk) * weighted
    theta = params.theta
    loss = cox_loss(CoxBatch(Tensor(risks), records), lam, theta @ theta)
    grad += 2.0 * lam * theta
    params.grad[...] = grad
    return loss.item()


def _split_metric(head: str, scores: np.ndarray,
                  records: list[ManifestRecord]) -> float:
    """A split's metric: AUC of class probabilities (n, C), binary or macro
    one-vs-rest, or the C-index of risk scores (n,)."""
    if head == HEAD_SURVIVAL:
        return c_index(scores, [rec.record for rec in records])
    labels = np.array([rec.label for rec in records], dtype=int)
    if scores.shape[1] == 2:
        return auc_binary(scores[:, 1], labels)
    return auc_macro_ovr(scores, labels)


def check_scorable(split: str, records: list[ManifestRecord],
                   config: TrainConfig) -> None:
    """ConfigError unless `split` yields a metric whatever the model
    predicts: its labels or event times, not the scores, decide."""
    if not records:
        raise ConfigError(f"{split} split is empty")
    shape = ((len(records), config.n_classes)
             if config.head == HEAD_CLASSIFICATION else len(records))
    try:
        _split_metric(config.head, np.zeros(shape), records)
    except UndefinedMetricError as exc:
        raise ConfigError(f"{split} split cannot be scored: {exc}") from exc


def predict(params: MarbleParams, bags) -> np.ndarray:
    """Class probabilities (n, C) or risk scores (n,) for the bags of an
    iterable, in order, with no regularizers."""
    return np.array([_score(params, bag) for bag in bags])


def _score(params: MarbleParams, bag: TokenBag):
    """One slide's class probabilities or risk score."""
    output = encode_slide(bag, params).output
    if params.head == HEAD_SURVIVAL:
        return output.item()
    e = np.exp(output.data - output.data.max())
    return e / e.sum()


def evaluate(params: MarbleParams, records: list[ManifestRecord],
             bag_loader) -> dict:
    """Deterministic evaluation: full bags, canonical order, no
    regularizers. Returns metrics plus per-slide predictions."""
    if not records:
        raise ConfigError("cannot evaluate on an empty split")
    rows = []
    for rec in records:    # each slide loaded just before its forward pass
        with _naming(f"slide {rec.slide_id}"):
            rows.append(_score(params, bag_loader(rec)))
    scores = np.array(rows)
    metric = _split_metric(params.head, scores, records)
    if params.head == HEAD_CLASSIFICATION:
        labels = np.array([rec.label for rec in records], dtype=int)
        per_slide = [{"slide_id": rec.slide_id, "label": rec.label,
                      "probs": row.tolist()}
                     for rec, row in zip(records, scores)]
        return {"task": "classification",
                "accuracy": accuracy(scores.argmax(axis=1), labels),
                "auc": metric, "per_slide": per_slide}
    per_slide = [{"slide_id": rec.slide_id, "time": rec.record.time,
                  "event": rec.record.event, "risk": risk}
                 for rec, risk in zip(records, scores)]
    return {"task": "survival", "c_index": metric, "per_slide": per_slide}
