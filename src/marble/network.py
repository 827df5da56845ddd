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
from .ssmcore import SsmBlockParams, init_ssm_params, ssm_block_forward

HEAD_CLASSIFICATION = "classification"
HEAD_SURVIVAL = "survival"
_HEAD_TAGS = {HEAD_CLASSIFICATION: 0, HEAD_SURVIVAL: 1}
_TAG_HEADS = {v: k for k, v in _HEAD_TAGS.items()}

CHECKPOINT_MAGIC = b"MRBL"
CHECKPOINT_VERSION = 1


@dataclass
class MarbleParams:
    """All trainable parameters of one model instance."""

    blocks: list[SsmBlockParams]          # one per level, coarsest first
    fuse_w: list[Tensor]                  # (2D, D) per level k >= 1
    fuse_b: list[Tensor]                  # (D,) per level k >= 1
    pool_w: Tensor                        # (D,)
    head: str                             # "classification" | "survival"
    cls_w: Tensor | None = None           # (C, D)
    cls_b: Tensor | None = None           # (C,)
    cox_beta: Tensor | None = None        # (D,)

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
        out: list[tuple[str, Tensor]] = []
        for k, block in enumerate(self.blocks):
            out.extend(block.named(prefix=f"block{k}."))
        for k, (w, b) in enumerate(zip(self.fuse_w, self.fuse_b), start=1):
            out.append((f"fuse{k}.w", w))
            out.append((f"fuse{k}.b", b))
        out.append(("pool_w", self.pool_w))
        if self.head == HEAD_CLASSIFICATION:
            out.append(("cls_w", self.cls_w))
            out.append(("cls_b", self.cls_b))
        else:
            out.append(("cox_beta", self.cox_beta))
        return out

    def squared_norm(self) -> Tensor:
        """Sum of squares over every trainable parameter (for the l2
        penalty of the survival loss)."""
        total = None
        for _, p in self.named_params():
            flat = nm.reshape(p, (p.size,))
            term = nm.dot(flat, flat)
            total = term if total is None else nm.add(total, term)
        return total


@dataclass
class SlideOutput:
    """Everything the forward pass produces for one slide."""

    encoded: list[Tensor]     # Y^(k) per level
    pooled: Tensor            # (D,)
    pool_weights: Tensor      # (T_finest,)
    output: Tensor            # logits (C,) or risk scalar ()


def init_marble_params(d_model: int, d_inner: int, d_state: int,
                       n_levels: int, head: str, n_classes: int,
                       rng: np.random.Generator) -> MarbleParams:
    if head not in _HEAD_TAGS:
        raise ConfigError(f"unknown head kind '{head}'")
    if n_levels < 1:
        raise ConfigError("need at least one level")
    blocks = [init_ssm_params(d_model, d_inner, d_state, rng)
              for _ in range(n_levels)]
    bound = 1.0 / np.sqrt(2 * d_model)
    fuse_w = [Tensor(rng.uniform(-bound, bound, size=(2 * d_model, d_model)),
                     requires_grad=True) for _ in range(n_levels - 1)]
    fuse_b = [Tensor(np.zeros(d_model), requires_grad=True)
              for _ in range(n_levels - 1)]
    pool_w = Tensor(rng.uniform(-1, 1, size=d_model) / np.sqrt(d_model),
                    requires_grad=True)
    params = MarbleParams(blocks=blocks, fuse_w=fuse_w, fuse_b=fuse_b,
                          pool_w=pool_w, head=head)
    cbound = 1.0 / np.sqrt(d_model)
    if head == HEAD_CLASSIFICATION:
        if n_classes < 2:
            raise ConfigError("classification needs at least 2 classes")
        params.cls_w = Tensor(rng.uniform(-cbound, cbound,
                                          size=(n_classes, d_model)),
                              requires_grad=True)
        params.cls_b = Tensor(np.zeros(n_classes), requires_grad=True)
    else:
        params.cox_beta = Tensor(rng.uniform(-cbound, cbound, size=d_model),
                                 requires_grad=True)
    return params


def fuse_level(x_k: Tensor, y_prev: Tensor, parents, fuse_w: Tensor,
               fuse_b: Tensor) -> Tensor:
    """Augment fine tokens with their parent's encoded embedding:
    project the concatenation [x_i || y_prev[parents[i]]] back to D."""
    context = nm.gather_rows(y_prev, parents)
    joined = nm.concat_last_dim(x_k, context)
    return nm.add(nm.matmul(joined, fuse_w), fuse_b)


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
        params = init_marble_params(d_model, d_inner, d_state, n_levels, head,
                                    n_classes, np.random.default_rng(0))
    except (KeyError, IndexError, ValueError, ConfigError) as exc:
        raise FormatError(f"checkpoint dimensions unreadable: {exc!r}") from exc
    named = params.named_params()
    if n_records != len(named):
        raise FormatError(f"checkpoint has {n_records} records, a model of "
                          f"its dimensions has {len(named)}")
    for name, tensor in named:
        if name not in records:
            raise FormatError(f"checkpoint missing parameter '{name}'")
        shape, payload = records[name]
        if shape != tensor.data.shape:
            raise FormatError(f"parameter '{name}' has shape {shape}, "
                              f"expected {tensor.data.shape}")
        tensor.data = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
        if not np.isfinite(tensor.data).all():
            raise FormatError(f"parameter '{name}' has non-finite values")
    return params
