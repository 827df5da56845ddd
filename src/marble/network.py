"""The full multi-scale network: per-level SSM encoders, token-aligned
coarse-to-fine fusion, attention pooling over the finest level, and one
slide-level head (linear classifier or Cox risk score).

Levels are encoded strictly coarsest-first because fusing level k reads
the encoded output of level k-1. Pooling and the head see only the
finest level; coarser encodings are exposed on the output for
inspection.
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
from .ssmcore import (SsmBlockParams, block_shapes, init_ssm_params,
                      ssm_block_forward)

HEAD_CLASSIFICATION = "classification"
HEAD_SURVIVAL = "survival"
_HEAD_TAGS = {HEAD_CLASSIFICATION: 0, HEAD_SURVIVAL: 1}
_TAG_HEADS = {v: k for k, v in _HEAD_TAGS.items()}

CHECKPOINT_MAGIC = b"MRBL"
CHECKPOINT_VERSION = 1


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

    def copy(self) -> MarbleParams:
        """An independent model with the same parameter values."""
        block = self.blocks[0]
        return MarbleParams(self.d_model, block.d_inner, block.d_state,
                            self.n_levels, self.head, self.n_classes,
                            theta=self.theta.copy())

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

    encoded: list[Tensor]     # Y^(k) per level
    pooled: Tensor            # (D,)
    pool_weights: Tensor      # (T_finest,)
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


def fuse_level(x_k: Tensor, y_prev: Tensor, parents, fuse_w: Tensor,
               fuse_b: Tensor) -> Tensor:
    """Augment fine tokens with their parent's encoded embedding:
    project the concatenation [x_i || y_prev[parents[i]]] back to D."""
    context = nm.gather_rows(y_prev, parents)
    joined = nm.concat_last_dim(x_k, context)
    return nm.affine(joined, fuse_w, fuse_b)


def attention_pool(y: Tensor, w: Tensor) -> tuple[Tensor, Tensor]:
    """Softmax-weighted sum of token rows; returns (pooled, weights)."""
    t_len, d_model = y.shape
    scores = nm.reshape(nm.matmul(y, nm.reshape(w, (d_model, 1))), (t_len,))
    weights = nm.softmax_1d(scores)
    pooled = nm.reshape(nm.matmul(nm.reshape(weights, (1, t_len)), y),
                        (d_model,))
    return pooled, weights


def classify(z: Tensor, cls_w: Tensor, cls_b: Tensor) -> Tensor:
    d_model = z.shape[0]
    logits = nm.reshape(nm.matmul(cls_w, nm.reshape(z, (d_model, 1))),
                        (cls_w.shape[0],))
    return nm.add(logits, cls_b)


def risk_score(z: Tensor, beta: Tensor) -> Tensor:
    return nm.dot(z, beta)


def encode_slide(bag: TokenBag, params: MarbleParams) -> SlideOutput:
    """Full forward pass over one slide's token pyramid."""
    if bag.n_levels != params.n_levels:
        raise DimensionError(
            f"bag has {bag.n_levels} levels, model expects {params.n_levels}")
    encoded: list[Tensor] = []
    y_prev: Tensor | None = None
    for k, level in enumerate(bag.levels):
        if level.count < 1:
            raise DimensionError(f"level {k} is empty")
        if level.embeddings.shape[1] != params.d_model:
            raise DimensionError(
                f"level {k} embedding dim {level.embeddings.shape[1]} != "
                f"model dim {params.d_model}")
        x = Tensor(level.embeddings)
        if k > 0:
            x = fuse_level(x, y_prev, level.parents,
                           params.fuse_w[k - 1], params.fuse_b[k - 1])
        y_prev = ssm_block_forward(x, params.blocks[k])
        encoded.append(y_prev)
    pooled, weights = attention_pool(encoded[-1], params.pool_w)
    if params.head == HEAD_CLASSIFICATION:
        output = classify(pooled, params.cls_w, params.cls_b)
    else:
        output = risk_score(pooled, params.cox_beta)
    return SlideOutput(encoded=encoded, pooled=pooled, pool_weights=weights,
                       output=output)


# ---------------------------------------------------------------------------
# checkpoint format: magic "MRBL", version u16, head tag u8, level count
# u8, record count u32, then per record: name (u16 length + utf-8),
# ndim u8, dims u32..., float64 payload. Little-endian throughout. The
# record shapes carry the model dimensions: block0.w_in is (D, E),
# block0.w_b is (E, N), cls_w is (C, D).


def save_checkpoint(params: MarbleParams, path: str) -> None:
    named = params.named_params()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<HBB", CHECKPOINT_VERSION,
                             _HEAD_TAGS[params.head], params.n_levels))
        fh.write(struct.pack("<I", len(named)))
        for name, tensor in named:
            raw = name.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<B", tensor.data.ndim))
            for dim in tensor.data.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(np.ascontiguousarray(tensor.data,
                                          dtype="<f8").tobytes())


def load_checkpoint(path: str) -> MarbleParams:
    with open(path, "rb") as fh:
        blob = fh.read()
    off = 0

    def need(n, what):
        nonlocal off
        if off + n > len(blob):
            raise FormatError(f"checkpoint truncated at offset {off} ({what})")
        piece = blob[off:off + n]
        off += n
        return piece

    if need(4, "magic") != CHECKPOINT_MAGIC:
        raise FormatError("bad checkpoint magic at offset 0")
    version, head_tag, n_levels = struct.unpack("<HBB", need(4, "header"))
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    if head_tag not in _TAG_HEADS:
        raise FormatError(f"unknown head tag {head_tag}")
    (n_records,) = struct.unpack("<I", need(4, "record count"))
    records: dict[str, tuple[tuple[int, ...], bytes]] = {}
    for _ in range(n_records):
        (name_len,) = struct.unpack("<H", need(2, "name length"))
        try:
            name = need(name_len, "name").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"record name at offset {off - name_len} is "
                              f"not valid UTF-8") from exc
        (ndim,) = struct.unpack("<B", need(1, "ndim"))
        shape = tuple(struct.unpack("<I", need(4, "dim"))[0]
                      for _ in range(ndim))
        if 0 in shape:
            raise FormatError(f"record '{name}' has a zero dimension "
                              f"(offset {off})")
        records[name] = (shape, need(8 * math.prod(shape), f"payload of {name}"))
    if off != len(blob):
        raise FormatError(f"{len(blob) - off} bytes after the last record "
                          f"at offset {off}")
    head = _TAG_HEADS[head_tag]
    try:
        d_model, d_inner = records["block0.w_in"][0]
        _, d_state = records["block0.w_b"][0]
        n_classes = (records["cls_w"][0][0] if head == HEAD_CLASSIFICATION
                     else 2)
        # check every record against the model before allocating it
        expected = param_shapes(d_model, d_inner, d_state, n_levels, head,
                                n_classes)
        if n_records != len(expected):
            raise FormatError(f"checkpoint has {n_records} records, a model "
                              f"of its dimensions has {len(expected)}")
        for name, shape in expected:
            if name not in records:
                raise FormatError(f"checkpoint missing parameter '{name}'")
            if records[name][0] != shape:
                raise FormatError(f"parameter '{name}' has shape "
                                  f"{records[name][0]}, expected {shape}")
        params = MarbleParams(d_model, d_inner, d_state, n_levels, head,
                              n_classes)
    except (KeyError, IndexError, ValueError, ConfigError) as exc:
        raise FormatError(f"checkpoint dimensions unreadable: {exc!r}") from exc
    for name, tensor in params.named_params():
        shape, payload = records[name]
        tensor.data[...] = np.frombuffer(payload, dtype="<f8").reshape(shape)
        if not np.isfinite(tensor.data).all():
            raise FormatError(f"parameter '{name}' has non-finite values")
    return params
