"""Dense float64 tensors with define-by-run reverse-mode autodiff.

A `Tape` is opened per forward pass; primitives record themselves on the
active tape only when an input requires gradients. `Tape.backward` walks
the records in reverse and deposits `.grad` arrays on every leaf tensor
with ``requires_grad=True``. Every primitive checks its output for
NaN/Inf and fails fast instead of propagating garbage.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, DomainError, NumericError

_ACTIVE_TAPE: "Tape | None" = None


class Tensor:
    """Contiguous row-major float64 array plus grad bookkeeping."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of primitive applications for one forward pass.

    Not reentrant and not thread-safe: one tape per forward/backward,
    never shared across threads.
    """

    def __init__(self):
        # each node: (out_tensor, input_tensors, backward_fn); None once swept
        self.nodes: list[tuple[Tensor, tuple[Tensor, ...], Callable] | None] = []

    def __enter__(self) -> "Tape":
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise RuntimeError("a Tape is already active; tapes do not nest")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False

    def backward(self, loss: Tensor) -> None:
        """Reverse sweep from a scalar loss; writes `.grad` on leaves. A
        leaf whose `.grad` is already an array (e.g. a view into
        MarbleParams.grad) gets each contribution written into it as it
        arrives, the first assigned and the rest added, so the sweep holds
        no copy of it. Each node is released (set to None) before its
        backward runs, and the sweep keeps only its output's id, so an
        output that no backward reads is freed before its node allocates
        gradients; a tape sweeps only once."""
        if loss.data.size != 1:
            raise DimensionError(f"backward needs a scalar loss, got shape {loss.shape}")
        nodes = self.nodes
        if nodes and nodes[-1] is None:
            raise RuntimeError("this tape was already swept; record a new one")
        outputs = {id(node[0]) for node in nodes}
        written: set[int] = set()          # bound leaves written this sweep
        grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        holders: dict[int, Tensor] = {id(loss): loss}
        for i in reversed(range(len(nodes))):
            key = id(nodes[i][0])
            inputs, backward_fn = nodes[i][1:]
            nodes[i] = None
            holders.pop(key, None)
            g = grads.pop(key, None)
            if g is None:
                continue
            for tensor, gi in zip(inputs, backward_fn(g)):
                if gi is None or not tensor.requires_grad:
                    continue
                key = id(tensor)
                if tensor.grad is not None and key not in outputs:
                    gi = np.reshape(gi, tensor.shape)
                    if key in written:
                        tensor.grad += gi
                    else:
                        tensor.grad[...] = gi
                        written.add(key)
                elif key in grads:
                    grads[key] = grads[key] + gi
                else:
                    grads[key] = np.asarray(gi, dtype=np.float64).reshape(tensor.shape)
                    holders[key] = tensor
            # neither may outlive the node: `tensor` can be the next output
            tensor = gi = None
        for key, g in grads.items():
            tensor = holders[key]
            if tensor.requires_grad and tensor.grad is not None:
                tensor.grad[...] = g      # a bound loss with no nodes
            elif tensor.requires_grad:    # a copy: one array may feed two leaves
                tensor.grad = g.copy()


def active_tape() -> Tape | None:
    return _ACTIVE_TAPE


def _finish(op: str, data: np.ndarray, inputs: tuple[Tensor, ...],
            backward_fn: Callable) -> Tensor:
    """Finalize a primitive: finiteness check, grad flag, tape record."""
    if not np.isfinite(data).all():
        raise NumericError(op)
    out = Tensor(data, requires_grad=any(t.requires_grad for t in inputs))
    if _ACTIVE_TAPE is not None and out.requires_grad:
        _ACTIVE_TAPE.nodes.append((out, inputs, backward_fn))
    return out


def record_primitive(op: str, data: np.ndarray, inputs: Sequence[Tensor],
                     backward_fn: Callable) -> Tensor:
    """Hook for custom primitives defined outside this module."""
    return _finish(op, np.asarray(data, dtype=np.float64), tuple(inputs), backward_fn)


# ---------------------------------------------------------------------------
# primitives


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"mul: shapes differ {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data
    return _finish("mul", ad * bd, (a, b), lambda g: (g * bd, g * ad))


def scale(a: Tensor, c: float) -> Tensor:
    return _finish("scale", a.data * c, (a,), lambda g: (g * c,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dims disagree, {a.shape} x {b.shape}")
    ad, bd = a.data, b.data
    return _finish("matmul", ad @ bd, (a, b),
                   lambda g: (g @ bd.T if a.requires_grad else None,
                              ad.T @ g if b.requires_grad else None))


def exp(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):   # inf is caught by _finish
        out = np.exp(a.data)
    return _finish("exp", out, (a,), lambda g: (g * out,))


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + e^-x) built in one new buffer, or in `out` (may be x)."""
    s = np.negative(x, out=out)
    with np.errstate(over="ignore"):   # e^-x -> inf gives sigmoid 0
        np.exp(s, out=s)
    s += 1.0
    return np.divide(1.0, s, out=s)


def tsum(a: Tensor) -> Tensor:
    shape = a.shape
    return _finish("sum", np.sum(a.data), (a,),
                   lambda g: (np.broadcast_to(g, shape).copy(),))


# ---------------------------------------------------------------------------
# gradient verification


def finite_diff_check(f: Callable[[], Tensor], params: Sequence[Tensor],
                      eps: float = 1e-5) -> float:
    """Max relative error between tape gradients and central differences.

    `f` must rebuild the forward pass from the current contents of
    `params` on every call and return a scalar Tensor.
    """
    if eps <= 0:
        raise DomainError("finite_diff_check: eps must be positive")
    for p in params:
        if p.grad is not None:
            p.grad.fill(0.0)    # in place: it may be a view into a model's grad
    with Tape() as tape:
        loss = f()
        tape.backward(loss)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                for p in params]
    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.data.reshape(-1)
        gflat = ga.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = f().item()
            flat[i] = orig - eps
            f_minus = f().item()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            denom = max(abs(gflat[i]), abs(numeric), 1e-8)
            worst = max(worst, abs(gflat[i] - numeric) / denom)
    return worst
