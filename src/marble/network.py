"""The full multi-scale network: per-level SSM encoders, token-aligned
coarse-to-fine fusion, attention pooling over the finest level, and one
slide-level head (linear classifier or Cox risk score).

Levels are encoded strictly coarsest-first because fusing level k reads
the encoded output of level k-1. Pooling and the head see only the
finest level.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .errors import ConfigError, DimensionError, FormatError
from .numerics import Tensor
from .pyramid import TokenBag
from .ssmcore import (SsmBlockParams, _row_blocks, block_shapes,
                      init_ssm_params, ssm_block_forward)

HEAD_CLASSIFICATION = "classification"
HEAD_SURVIVAL = "survival"
_HEAD_TAGS = {HEAD_CLASSIFICATION: 0, HEAD_SURVIVAL: 1}
_TAG_HEADS = {v: k for k, v in _HEAD_TAGS.items()}

CHECKPOINT_MAGIC = b"MRBL"
CHECKPOINT_VERSION = 2


class MarbleParams:
    """All trainable parameters of one model instance, in one float64
    vector `theta` laid out by `param_shapes`, with their gradient in
    `grad`. Every named parameter is a `Tensor` whose `.data` and `.grad`
    are views into the two; rebinding either would detach it."""

    def __init__(self, d_model: int, d_inner: int, d_state: int,
                 n_levels: int, head: str, n_classes: int,
                 theta: np.ndarray | None = None):
        if head not in _HEAD_TAGS:
            raise ConfigError(f"unknown head kind '{head}'")
        if n_levels < 1:
            raise ConfigError("need at least one level")
        if head == HEAD_CLASSIFICATION and n_classes < 2:
            raise ConfigError("classification needs at least 2 classes")
        shapes = param_shapes(d_model, d_inner, d_state, n_levels, head,
                              n_classes)
        cuts = np.cumsum([math.prod(shape) for _, shape in shapes])
        self.head = head
        self.grad = np.zeros(cuts[-1])
        self.theta = np.zeros(cuts[-1]) if theta is None else theta
        self._named: list[tuple[str, Tensor]] = []
        for (name, shape), data, grad in zip(
                shapes, np.split(self.theta, cuts[:-1]),
                np.split(self.grad, cuts[:-1])):
            tensor = Tensor(data.reshape(shape), requires_grad=True)
            tensor.grad = grad.reshape(shape)
            self._named.append((name, tensor))
        named = dict(self._named)
        block = block_shapes(d_model, d_inner, d_state)
        self.blocks = [SsmBlockParams(**{f: named[f"block{k}.{f}"]
                                         for f in block})
                       for k in range(n_levels)]     # coarsest first
        self.fuse_w = [named[f"fuse{k}.w"] for k in range(1, n_levels)]
        self.fuse_b = [named[f"fuse{k}.b"] for k in range(1, n_levels)]
        self.pool_w = named["pool_w"]
        self.cls_w = named.get("cls_w")         # classification only
        self.cls_b = named.get("cls_b")
        self.cox_beta = named.get("cox_beta")   # survival only

    @property
    def d_model(self) -> int:
        return self.blocks[0].d_model

    @property
    def n_levels(self) -> int:
        return len(self.blocks)

    @property
    def n_classes(self) -> int:
        return 0 if self.cls_w is None else self.cls_w.shape[0]

    def named_params(self) -> list[tuple[str, Tensor]]:
        """(name, tensor) of every parameter, in `param_shapes` order."""
        return list(self._named)

    def squared_norm(self) -> Tensor:
        """Sum of squares over every trainable parameter (for the l2
        penalty of the survival loss)."""
        leaves = [p for _, p in self._named]
        return nm.record_primitive(
            "squared_norm", self.theta @ self.theta, leaves,
            lambda g: [2.0 * g * p.data for p in leaves])


@dataclass
class SlideOutput:
    """Everything the forward pass produces for one slide."""

    pool_weights: np.ndarray  # (T_finest,)
    output: Tensor            # logits (C,) or risk scalar ()


def param_shapes(d_model: int, d_inner: int, d_state: int, n_levels: int,
                 head: str, n_classes: int) -> list[tuple[str, tuple]]:
    """(name, shape) of every parameter, in the order `MarbleParams` lays
    them out in `theta`."""
    block = block_shapes(d_model, d_inner, d_state).items()
    out = [(f"block{k}.{name}", shape)
           for k in range(n_levels) for name, shape in block]
    for k in range(1, n_levels):
        out += [(f"fuse{k}.w", (2 * d_model, d_model)),
                (f"fuse{k}.b", (d_model,))]
    out.append(("pool_w", (d_model,)))
    if head == HEAD_CLASSIFICATION:
        return out + [("cls_w", (n_classes, d_model)), ("cls_b", (n_classes,))]
    return out + [("cox_beta", (d_model,))]


def init_marble_params(d_model: int, d_inner: int, d_state: int,
                       n_levels: int, head: str, n_classes: int,
                       rng: np.random.Generator) -> MarbleParams:
    """Uniform weights with bound 1/sqrt(fan-in), zero biases; every shape
    comes from `param_shapes`."""
    params = MarbleParams(d_model, d_inner, d_state, n_levels, head,
                          n_classes)

    def uniform(tensor, bound):
        tensor.data[...] = rng.uniform(-bound, bound, size=tensor.shape)

    for block in params.blocks:
        fresh = init_ssm_params(d_model, d_inner, d_state, rng)
        for (_, view), (_, value) in zip(block.named(), fresh.named()):
            view.data[...] = value.data
    for fuse_w in params.fuse_w:
        uniform(fuse_w, 1.0 / np.sqrt(2 * d_model))
    params.pool_w.data[...] = (rng.uniform(-1, 1, size=d_model)
                               / np.sqrt(d_model))
    uniform(params.cls_w if head == HEAD_CLASSIFICATION else params.cox_beta,
            1.0 / np.sqrt(d_model))
    return params


def fuse_level(x_k: np.ndarray, y_prev: Tensor, parents, fuse_w: Tensor,
               fuse_b: Tensor) -> Tensor:
    """Augment fine tokens with their parent's encoded embedding: project
    [x_i || y_prev[parents[i]]] back to D, as one node. `x_k` is the
    level's embeddings as stored (float32 or float64); the forward builds
    the float64 concatenation for one block of `ssmcore._ROW_BLOCK` rows
    at a time and backward rebuilds it whole. Duplicate parents
    accumulate, in one `np.bincount` over (parent, column) bins."""
    xd, yd, wd, bd = np.asarray(x_k), y_prev.data, fuse_w.data, fuse_b.data
    idx = np.asarray(parents, dtype=np.int64)
    if xd.ndim != 2 or yd.ndim != 2 or idx.shape != xd.shape[:1] \
            or bd.ndim != 1 or wd.shape != (xd.shape[1] + yd.shape[1], bd.size) \
            or idx.size and (idx.min() < 0 or idx.max() >= yd.shape[0]):
        raise DimensionError(
            f"fuse_level: tokens {xd.shape}, parents {idx.shape} into parent "
            f"rows {yd.shape}, weight {wd.shape} and bias {bd.shape} disagree")

    joined = lambda rows=slice(None): np.concatenate(
        [xd[rows], yd[idx[rows]]], axis=1, dtype=np.float64)
    out = np.empty((idx.size, bd.size))
    for rows in _row_blocks(idx.size):
        o = np.matmul(joined(rows), wd, out=out[rows])
        o += bd

    def backward(g):
        # one bin per (parent, column), each summed in row order from 0.0
        d_y = yd.shape[1]
        gy = np.bincount((idx[:, None] * d_y + np.arange(d_y)).ravel(),
                         weights=(g @ wd[xd.shape[1]:].T).ravel(),
                         minlength=yd.size)
        return (gy.reshape(yd.shape), joined().T @ g, g.sum(axis=0))

    return nm.record_primitive("fuse_level", out, (y_prev, fuse_w, fuse_b),
                               backward)


def pool_head(y: Tensor, pool_w: Tensor, head_w: Tensor,
              head_b: Tensor | None = None) -> tuple[Tensor, np.ndarray]:
    """Attention pooling (Ilse et al. 2018) and the slide head as one node:
    the logits head_w @ pooled + head_b, or with no bias the risk pooled .
    head_w, and the (T,) pool weights; in the separate steps' order."""
    yd, wd, hd = y.data, pool_w.data, head_w.data
    d_model = wd.size
    head_shape = (d_model,) if head_b is None else (*head_b.shape, d_model)
    if yd.ndim != 2 or yd.shape[0] < 1 or yd.shape[1:] != wd.shape \
            or hd.shape != head_shape or hd.ndim != 1 + (head_b is not None):
        raise DimensionError(f"pool_head: tokens {yd.shape}, pool weight "
                             f"{wd.shape} and head {hd.shape} disagree")
    with np.errstate(over="ignore", invalid="ignore"):    # caught by record_primitive
        scores = (yd @ wd.reshape(d_model, 1)).reshape(-1)
        e = np.exp(scores - scores.max())
        weights = e / e.sum()
        row = weights.reshape(1, -1)
        pooled = (row @ yd).reshape(d_model)
        out = (np.dot(pooled, hd) if head_b is None else
               (hd @ pooled.reshape(d_model, 1)).reshape(-1) + head_b.data)

    def backward(g):
        if head_b is None:
            g_pooled, g_head = g * hd, g * pooled
        else:
            g_col, z_col = g.reshape(-1, 1), pooled.reshape(d_model, 1)
            g_pooled, g_head = hd.T @ g_col, g_col @ z_col.T
        g_pooled = g_pooled.reshape(1, d_model)
        g_weights = (g_pooled @ yd.T).reshape(-1)
        g_y = row.T @ g_pooled           # the pooling term, then the scores'
        g_scores = ((g_weights - np.dot(g_weights, weights))
                    * weights).reshape(-1, 1)
        g_y += g_scores @ wd.reshape(d_model, 1).T
        # the bias gradient is g; without a bias the tape ignores it
        return g_y, (yd.T @ g_scores).reshape(d_model), g_head, g

    inputs = (y, pool_w, head_w) + (() if head_b is None else (head_b,))
    return nm.record_primitive("pool_head", out, inputs, backward), weights


def encode_slide(bag: TokenBag, params: MarbleParams) -> SlideOutput:
    """Full forward pass over one slide's token pyramid."""
    if bag.n_levels != params.n_levels:
        raise DimensionError(
            f"bag has {bag.n_levels} levels, model expects {params.n_levels}")
    y_prev: Tensor | None = None
    for k, level in enumerate(bag.levels):
        if level.count < 1:
            raise DimensionError(f"level {k} is empty")
        if level.embeddings.shape[1] != params.d_model:
            raise DimensionError(
                f"level {k} embedding dim {level.embeddings.shape[1]} != "
                f"model dim {params.d_model}")
        if k == 0:
            x = Tensor(level.embeddings)  # widened to float64 here; finer
        else:                             # levels widen inside fuse_level
            x = fuse_level(level.embeddings, y_prev, level.parents,
                           params.fuse_w[k - 1], params.fuse_b[k - 1])
        y_prev = ssm_block_forward(x, params.blocks[k])
    if params.head == HEAD_CLASSIFICATION:
        output, weights = pool_head(y_prev, params.pool_w, params.cls_w,
                                    params.cls_b)
    else:
        output, weights = pool_head(y_prev, params.pool_w, params.cox_beta)
    return SlideOutput(pool_weights=weights, output=output)


# ---------------------------------------------------------------------------
# checkpoint format, little-endian: a 24-byte header (magic "MRBL", version
# u16, head tag u8, level count u8, then D, E, N and C as u32, C being 0 for
# a survival model), then theta as float64, laid out by `param_shapes`.

_HEADER = struct.Struct("<4sHBBIIII")


def _refuse_non_finite(theta: np.ndarray) -> None:
    bad = np.flatnonzero(~np.isfinite(theta))
    if bad.size:
        raise FormatError(f"non-finite parameter at offset "
                          f"{_HEADER.size + 8 * bad[0]}")


def save_checkpoint(params: MarbleParams, path: str) -> None:
    """Write `params`, refusing a non-finite one as load_checkpoint does."""
    _refuse_non_finite(params.theta)
    block = params.blocks[0]
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                              _HEAD_TAGS[params.head], params.n_levels,
                              params.d_model, block.d_inner, block.d_state,
                              params.n_classes))
        fh.write(params.theta.astype("<f8").tobytes())


def load_checkpoint(path: str) -> MarbleParams:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise FormatError("bad checkpoint magic at offset 0")
    if len(blob) < _HEADER.size:
        raise FormatError(f"checkpoint truncated at offset {len(blob)}")
    _, version, tag, n_levels, *dims, n_classes = _HEADER.unpack_from(blob)
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version} at "
                          f"offset 4")
    if tag not in _TAG_HEADS:
        raise FormatError(f"unknown head tag {tag} at offset 6")
    if 0 in dims:
        raise FormatError(f"zero dimension at offset {8 + 4 * dims.index(0)}")
    head = _TAG_HEADS[tag]
    if head == HEAD_SURVIVAL and n_classes:
        raise FormatError(f"survival model with C = {n_classes} at offset 20")
    # the file's size is checked before anything of the model's is built
    size = sum(math.prod(shape) for _, shape in
               param_shapes(*dims, n_levels, head, n_classes))
    end = _HEADER.size + 8 * size
    if len(blob) != end:
        raise FormatError(
            f"checkpoint truncated at offset {len(blob)} (theta ends at {end})"
            if len(blob) < end else
            f"{len(blob) - end} bytes after the last record at offset {end}")
    theta = np.frombuffer(blob, "<f8", size, _HEADER.size).astype(np.float64)
    _refuse_non_finite(theta)
    try:
        return MarbleParams(*dims, n_levels, head, n_classes, theta=theta)
    except ConfigError as exc:
        raise FormatError(f"{exc} (checkpoint header at offset 0)") from exc
