"""Training engine: AdamW with decoupled weight decay, cosine schedule
with linear warm-up, slide-at-a-time optimization with the two
training-only regularizers (coarse-branch drop and within-level
shuffling), early stopping, and deterministic evaluation.

Classification takes one optimizer step per slide. The Cox partial
likelihood needs a cohort in its denominators, so survival training
accumulates per-slide forwards on one tape over a small chunk of slides
and steps once per chunk; each forward still processes a single slide.
"""

from __future__ import annotations

import copy
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import numerics as nm
from .bagdata import DatasetIndex, ManifestRecord, read_bag
from .errors import ConfigError, NumericError, UndefinedMetricError
from .metrics import (CoxBatch, accuracy, auc_binary, auc_macro_ovr,
                      c_index, cox_loss, cross_entropy)
from .network import (HEAD_CLASSIFICATION, HEAD_SURVIVAL, MarbleParams,
                      encode_slide, init_marble_params)
from .numerics import Tape, Tensor
from .pyramid import TokenBag, coarse_branch_drop, shuffle_within_levels


def derive_seed(master: int, label: str) -> int:
    """Independent sub-stream seed from the master seed and a purpose tag."""
    digest = hashlib.sha256(f"{master}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass
class TrainConfig:
    """Hyperparameters; defaults follow the training protocol."""

    base_lr: float = 3e-5
    beta1: float = 0.9
    beta2: float = 0.999
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
        if self.d_inner == 0:
            self.d_inner = 2 * self.d_model


@dataclass
class OptimizerState:
    """AdamW moments, one pair of arrays per parameter name."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0


def adamw_step(named_params: list[tuple[str, Tensor]], state: OptimizerState,
               lr: float, betas=(0.9, 0.999), weight_decay: float = 1e-2,
               eps: float = 1e-8) -> None:
    """One decoupled-weight-decay Adam update; missing grads count as 0."""
    if lr < 0:
        raise ConfigError("learning rate must be non-negative")
    b1, b2 = betas
    state.step += 1
    t = state.step
    for name, p in named_params:
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if g.shape != p.data.shape:
            raise ConfigError(f"gradient shape mismatch for '{name}'")
        m = state.m.setdefault(name, np.zeros_like(p.data))
        v = state.v.setdefault(name, np.zeros_like(p.data))
        m[...] = b1 * m + (1 - b1) * g
        v[...] = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + eps) \
            - lr * weight_decay * p.data


def clip_gradients(named_params: list[tuple[str, Tensor]],
                   max_norm: float) -> float:
    """Scale all grads so their global l2 norm is at most max_norm."""
    total = 0.0
    for _, p in named_params:
        if p.grad is not None:
            total += float(np.sum(p.grad * p.grad))
    norm = math.sqrt(total)
    if max_norm > 0 and norm > max_norm:
        factor = max_norm / norm
        for _, p in named_params:
            if p.grad is not None:
                p.grad = p.grad * factor
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


class _BagCache:
    """Reads bags from disk once; accepts a custom loader for in-memory
    datasets."""

    def __init__(self, loader=None):
        self._loader = loader or (lambda record: read_bag(record.path))
        self._cache: dict[str, TokenBag] = {}

    def get(self, record: ManifestRecord) -> TokenBag:
        bag = self._cache.get(record.slide_id)
        if bag is None:
            bag = self._loader(record)
            self._cache[record.slide_id] = bag
        return bag


def _regularized_bag(bag: TokenBag, config: TrainConfig, drop_seed: int,
                     shuffle_seed: int) -> TokenBag:
    if config.drop_alpha > 0.0 and bag.n_levels > 0:
        bag = coarse_branch_drop(bag, config.drop_alpha, drop_seed)
    if config.shuffle_each_epoch:
        bag = shuffle_within_levels(bag, shuffle_seed)
    return bag


def train(index: DatasetIndex, config: TrainConfig,
          bag_loader=None, params: MarbleParams | None = None) -> TrainResult:
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
    cache = _BagCache(bag_loader)
    if params is None:
        params = init_marble_params(
            config.d_model, config.d_inner, config.d_state, config.n_levels,
            config.head, config.n_classes,
            np.random.default_rng(derive_seed(config.seed, "init")))
    named = params.named_params()
    state = OptimizerState()
    order_rng = np.random.default_rng(derive_seed(config.seed, "order"))

    best_metric = -math.inf
    best_epoch = -1
    best_params: MarbleParams | None = None
    stagnant = 0
    reports: list[EpochReport] = []

    for epoch in range(config.epochs):
        lr = cosine_warmup_lr(epoch, config)
        order = order_rng.permutation(len(train_recs))
        losses: list[float] = []
        if config.head == HEAD_CLASSIFICATION:
            for pos, rec_idx in enumerate(order):
                rec = train_recs[rec_idx]
                bag = _regularized_bag(
                    cache.get(rec), config,
                    derive_seed(config.seed, f"drop:{epoch}:{pos}"),
                    derive_seed(config.seed, f"shuffle:{epoch}:{pos}"))
                losses.append(_class_step(bag, rec, params, named, state,
                                          lr, config, epoch))
        else:
            for start in range(0, len(order), config.cox_chunk):
                chunk = [train_recs[i] for i in order[start:start + config.cox_chunk]]
                bags = [_regularized_bag(
                    cache.get(rec), config,
                    derive_seed(config.seed, f"drop:{epoch}:{start + j}"),
                    derive_seed(config.seed, f"shuffle:{epoch}:{start + j}"))
                    for j, rec in enumerate(chunk)]
                losses.append(_cox_step(bags, chunk, params, named, state,
                                        lr, config, epoch))
        train_loss = float(np.mean(losses)) if losses else 0.0

        val_metric = _val_metric(params, val_recs, cache, index.task)
        improved = val_metric > best_metric
        if improved:
            best_metric = val_metric
            best_epoch = epoch
            best_params = copy.deepcopy(params)
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


def _class_step(bag, rec, params, named, state, lr, config, epoch) -> float:
    for _, p in named:
        p.grad = None
    with Tape() as tape:
        try:
            out = encode_slide(bag, params)
            loss = cross_entropy(out.output, rec.label)
            tape.backward(loss)
        except NumericError as exc:
            raise NumericError(exc.op,
                               f"epoch {epoch}, slide {rec.slide_id}") from exc
    clip_gradients(named, config.grad_clip)
    adamw_step(named, state, lr, (config.beta1, config.beta2),
               config.weight_decay)
    return loss.item()


def _cox_step(bags, chunk, params, named, state, lr, config, epoch) -> float:
    for _, p in named:
        p.grad = None
    with Tape() as tape:
        try:
            risks = [encode_slide(bag, params).output for bag in bags]
            batch = CoxBatch(nm.stack_scalars(risks),
                             [rec.record for rec in chunk])
            loss = cox_loss(batch, config.cox_lambda, params.squared_norm())
            tape.backward(loss)
        except NumericError as exc:
            ids = ",".join(rec.slide_id for rec in chunk)
            raise NumericError(exc.op, f"epoch {epoch}, slides {ids}") from exc
    clip_gradients(named, config.grad_clip)
    adamw_step(named, state, lr, (config.beta1, config.beta2),
               config.weight_decay)
    return loss.item()


def _val_metric(params, records, cache, task) -> float:
    report = evaluate(params, records, bag_loader=cache.get)
    return report["auc"] if task == "classification" else report["c_index"]


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


def evaluate(params: MarbleParams, records: list[ManifestRecord],
             bag_loader=None) -> dict:
    """Deterministic evaluation: full bags, canonical order, no
    regularizers. Returns metrics plus per-slide predictions."""
    if not records:
        raise ConfigError("cannot evaluate on an empty split")
    loader = bag_loader or (lambda record: read_bag(record.path))
    per_slide = []
    if params.head == HEAD_CLASSIFICATION:
        scores = np.zeros((len(records), params.n_classes))
        labels = np.zeros(len(records), dtype=int)
        for i, rec in enumerate(records):
            out = encode_slide(loader(rec), params)
            logits = out.output.data
            e = np.exp(logits - logits.max())
            scores[i] = e / e.sum()
            labels[i] = rec.label
            per_slide.append({"slide_id": rec.slide_id, "label": rec.label,
                              "probs": scores[i].tolist()})
        predicted = scores.argmax(axis=1)
        return {"task": "classification", "accuracy": accuracy(predicted, labels),
                "auc": _split_metric(params.head, scores, records),
                "per_slide": per_slide}
    risks = np.zeros(len(records))
    for i, rec in enumerate(records):
        out = encode_slide(loader(rec), params)
        risks[i] = out.output.item()
        per_slide.append({"slide_id": rec.slide_id, "time": rec.record.time,
                          "event": rec.record.event, "risk": risks[i]})
    return {"task": "survival",
            "c_index": _split_metric(params.head, risks, records),
            "per_slide": per_slide}
