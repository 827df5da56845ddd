"""Selective state-space sequence block with a linear-time scan.

The block is a simplified diagonal selective SSM: per-channel scalar
decay a < 0, input-dependent step delta through softplus, per-step input
and output maps B_t / C_t shared across channels, a multiplicative silu
gate, a skip path, and a residual connection. The scan runs over T in
fixed chunks with only the state recursion in the Python loop; in
gradient mode it keeps only each chunk's start state beside its operands
and output, (T / 16) E N floats, and backward recomputes each chunk's
decays, injections and states from it, so no (T, E, N) array and no
(T, E) intermediate is stored. The step size and the gated residual are
one tape node each, keeping only u, x and s and rebuilding the rest in
backward. The scan's and the gate's backward do their per-row work in
blocks of `_ROW_BLOCK` rows, so neither allocates a (T, E) array beyond
the gradients it returns. A naive O(T^2) materialization of the same
recurrence (`reference_scan`) serves as the correctness oracle, and a
plain quadratic self-attention layer is kept around as the benchmark
foil.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, fields

import numpy as np

from . import numerics as nm
from .errors import ConfigError, DimensionError, DomainError, NumericError
from .numerics import Tensor

# scan steps per chunk; a (_CHUNK, E, N) state buffer at E=128, N=16 is
# 256 KB and stays in L2 cache
_CHUNK = 16
# rows per block of the scan's and the gate's backward work; a sequence
# of at most this many rows is one block
_ROW_BLOCK = 256


@dataclass
class SsmBlockParams:
    """Trainable parameters of one sequence block (model width D, inner
    width E, state size N)."""

    w_in: Tensor      # (D, E)
    w_gate: Tensor    # (D, E)
    w_delta: Tensor   # (E, E)
    b_delta: Tensor   # (E,)
    w_b: Tensor       # (E, N)
    w_c: Tensor       # (E, N)
    a_log: Tensor     # (E,), decay = -exp(a_log)
    d_skip: Tensor    # (E,)
    w_out: Tensor     # (E, D)

    @property
    def d_model(self) -> int:
        return self.w_in.shape[0]

    @property
    def d_inner(self) -> int:
        return self.w_in.shape[1]

    @property
    def d_state(self) -> int:
        return self.w_b.shape[1]

    def named(self, prefix: str = "") -> list[tuple[str, Tensor]]:
        return [(prefix + f.name, getattr(self, f.name)) for f in fields(self)]


def block_shapes(d_model: int, d_inner: int,
                 d_state: int) -> dict[str, tuple[int, ...]]:
    """Shape of each block parameter, in `SsmBlockParams` field order."""
    return {"w_in": (d_model, d_inner), "w_gate": (d_model, d_inner),
            "w_delta": (d_inner, d_inner), "b_delta": (d_inner,),
            "w_b": (d_inner, d_state), "w_c": (d_inner, d_state),
            "a_log": (d_inner,), "d_skip": (d_inner,),
            "w_out": (d_inner, d_model)}


def init_ssm_params(d_model: int, d_inner: int, d_state: int,
                    rng: np.random.Generator) -> SsmBlockParams:
    """Conventional stable init: small uniform projections (bound
    1/sqrt(fan-in)), softplus step size starting in [0.01, 0.1], decay
    magnitudes log-spaced in [1, N]."""
    dt = np.exp(rng.uniform(np.log(0.01), np.log(0.1), size=d_inner))
    a_mag = np.exp(np.linspace(0.0, np.log(max(d_state, 2)), d_inner))
    fixed = {"b_delta": np.log(np.expm1(dt)),  # softplus(b_delta) == dt
             "a_log": np.log(a_mag), "d_skip": np.ones(d_inner)}

    def uniform(shape):
        bound = 1.0 / np.sqrt(shape[0])
        return rng.uniform(-bound, bound, size=shape)

    return SsmBlockParams(**{
        name: Tensor(fixed[name] if name in fixed else uniform(shape),
                     requires_grad=True)
        for name, shape in block_shapes(d_model, d_inner, d_state).items()})


def selective_scan(u: Tensor, delta: Tensor, b: Tensor, c: Tensor,
                   a: Tensor, d: Tensor) -> Tensor:
    """Linear-time recurrence over T steps.

    h[t] = exp(delta[t] * a) (.) h[t-1] + delta[t] * u[t] (x) b[t]
    y[t] = h[t] c[t] + d (.) u[t]

    with h in R^{E x N}, h[0-] = 0. Time Theta(T E N). The scan walks T in
    chunks of `_CHUNK` steps: only the state recursion runs per step, and
    the injections, outputs and gradients are batched per chunk. When
    gradients are being recorded the node keeps, beside its operands and
    output, only each chunk's start state, (T / _CHUNK) E N floats;
    backward recomputes the chunk's decays, injections and states from
    it. Overflow is not warned about: it reaches the finiteness check as
    `NumericError('selective_scan')`.
    """
    ud, dd, bd, cd = u.data, delta.data, b.data, c.data
    ad, skip = a.data, d.data
    if ud.ndim != 2 or ud.shape[0] < 1:
        raise DimensionError(f"selective_scan needs (T, E) input, got {u.shape}")
    t_len, e_dim = ud.shape
    n_dim = bd.shape[1]
    if dd.shape != (t_len, e_dim) or bd.shape != (t_len, n_dim) \
            or cd.shape != (t_len, n_dim) or ad.shape != (e_dim,) \
            or skip.shape != (e_dim,):
        raise DimensionError("selective_scan: inconsistent operand shapes")
    if np.any(dd <= 0.0):
        raise DomainError("selective_scan: delta must be strictly positive")

    needs_grad = nm.active_tape() is not None and any(
        t.requires_grad for t in (u, delta, b, c, a, d))
    # states are held transposed, (N, E). hbuf[0] is the state before a
    # chunk and hbuf[1 + i] the state after its step i. abar = exp(delta a)
    # and du = delta u are built one chunk at a time, in forward and again
    # in backward; decay is abar broadcast over the N state rows, so each
    # step's decay multiply is one flat (N, E) loop.
    chunks = range(0, t_len, _CHUNK)
    hbuf = np.zeros((_CHUNK + 1, n_dim, e_dim))
    abar = np.empty((_CHUNK, e_dim))
    du = np.empty((_CHUNK, e_dim))
    decay = np.empty((_CHUNK, n_dim, e_dim))
    tmp = np.empty((n_dim, e_dim))

    def load_chunk(s, e):
        """abar, du and decay for steps s..e-1 into the chunk buffers."""
        n = e - s
        np.multiply(dd[s:e], ad, out=abar[:n])
        np.exp(abar[:n], out=abar[:n])
        np.multiply(dd[s:e], ud[s:e], out=du[:n])
        decay[:n] = abar[:n, None, :]

    def chunk_states(s, e):
        """States after the loaded steps s..e-1 into hbuf[1:], recurred
        from hbuf[0]."""
        states = hbuf[1:e - s + 1]
        np.einsum("tn,te->tne", bd[s:e], du[:e - s], out=states)
        for h_prev, h, decay_t in zip(hbuf, states, decay):
            np.multiply(decay_t, h_prev, out=tmp)
            h += tmp
        return states

    starts = np.empty((len(chunks), n_dim, e_dim)) if needs_grad else None
    y = np.empty_like(ud)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, s in enumerate(chunks):
            e = min(s + _CHUNK, t_len)
            if k:
                hbuf[0] = hbuf[_CHUNK]    # every chunk but the last is full
            if needs_grad:
                starts[k] = hbuf[0]
            load_chunk(s, e)
            states = chunk_states(s, e)
            np.matmul(cd[s:e, None, :], states, out=y[s:e, None, :])
        y += skip * ud
    last_in_hbuf = needs_grad

    def backward(gy):
        # the first call reads the last chunk's buffers as the forward
        # left them, then recomputes the others over them; a later call
        # recomputes every chunk
        nonlocal last_in_hbuf
        reuse, last_in_hbuf = last_in_hbuf, False
        g_abar = np.empty_like(dd)    # d loss / d abar[t], then d / d delta
        g_inj = np.empty_like(dd)     # b[t] . d loss / d h[t], then d / d u
        gb = np.empty_like(bd)
        gc = np.empty_like(cd)
        gh = np.empty((_CHUNK, n_dim, e_dim))
        carry = np.zeros((n_dim, e_dim))
        with np.errstate(over="ignore", invalid="ignore"):
            for k in reversed(range(len(chunks))):
                s = chunks[k]
                e = min(s + _CHUNK, t_len)
                n = e - s
                if not (reuse and k == len(chunks) - 1):
                    load_chunk(s, e)
                    hbuf[0] = starts[k]
                    chunk_states(s, e)
                states = hbuf[1:n + 1]
                ghc = gh[:n]
                np.einsum("tn,te->tne", cd[s:e], gy[s:e], out=ghc)
                for gh_t, decay_t in zip(ghc[::-1], decay[:n][::-1]):
                    gh_t += carry
                    np.multiply(gh_t, decay_t, out=carry)
                np.matmul(states, gy[s:e, :, None], out=gc[s:e, :, None])
                np.einsum("tne,tne->te", ghc, hbuf[:n], out=g_abar[s:e])
                g_abar[s:e] *= abar[:n]
                np.matmul(bd[s:e, None, :], ghc, out=g_inj[s:e, None, :])
                np.matmul(ghc, du[:n, :, None], out=gb[s:e, :, None])
            # d/d delta, d/d u and the ga, gskip sums, one block of rows
            # at a time in one (_ROW_BLOCK, E) work buffer
            work = np.empty((min(_ROW_BLOCK, t_len), e_dim))
            for r in range(0, t_len, _ROW_BLOCK):
                rows = slice(r, r + _ROW_BLOCK)
                g_d, g_u, d_r, u_r, gy_r = (g_abar[rows], g_inj[rows],
                                            dd[rows], ud[rows], gy[rows])
                w = work[:len(d_r)]
                ga_r = np.multiply(g_d, d_r, out=w).sum(axis=0)
                g_d *= ad
                g_d += np.multiply(g_u, u_r, out=w)
                gskip_r = np.multiply(gy_r, u_r, out=w).sum(axis=0)
                g_u *= d_r
                g_u += np.multiply(gy_r, skip, out=w)
                if r:
                    ga += ga_r
                    gskip += gskip_r
                else:
                    ga, gskip = ga_r, gskip_r
        return (g_inj, g_abar, gb, gc, ga, gskip)

    return nm.record_primitive("selective_scan", y, (u, delta, b, c, a, d),
                               backward)


def reference_scan(u, delta, b, c, a, d) -> np.ndarray:
    """Naive O(T^2) materialization of the scan (test oracle)."""
    u, delta, b, c = (np.asarray(x, dtype=np.float64) for x in (u, delta, b, c))
    a, d = np.asarray(a, dtype=np.float64), np.asarray(d, dtype=np.float64)
    t_len, e_dim = u.shape
    y = np.zeros_like(u)
    for t in range(t_len):
        for e in range(e_dim):
            acc = 0.0
            for s in range(t + 1):
                decay = 1.0
                for r in range(s + 1, t + 1):
                    decay *= np.exp(delta[r, e] * a[e])
                acc += float(np.dot(c[t], b[s])) * decay * delta[s, e] * u[s, e]
            y[t, e] = acc + d[e] * u[t, e]
    return y


def step_size(u: Tensor, w_delta: Tensor, b_delta: Tensor) -> Tensor:
    """delta = softplus(u @ w_delta + b_delta) as one node, floored at the
    smallest normal float64 where it would underflow to 0. The tape keeps
    only u; backward rebuilds the pre-activation and its sigmoid in place."""
    ud, wd, bd = u.data, w_delta.data, b_delta.data
    pre = ud @ wd
    pre += bd
    if not np.isfinite(pre).all():     # softplus(-inf) would pass as tiny
        raise NumericError("step_size")
    out = np.negative(np.abs(pre))
    np.log1p(np.exp(out, out=out), out=out)
    out += np.maximum(pre, 0.0, out=pre)
    np.maximum(out, np.finfo(np.float64).tiny, out=out)

    def backward(g):
        sig = ud @ wd
        sig += bd
        nm._sigmoid(sig, out=sig)
        sig *= g
        return (sig @ wd.T, ud.T @ sig, sig.sum(axis=0))

    return nm.record_primitive("step_size", out, (u, w_delta, b_delta),
                               backward)


def gated_residual(x: Tensor, s: Tensor, w_gate: Tensor,
                   w_out: Tensor) -> Tensor:
    """x + (s * silu(x @ w_gate)) @ w_out as one node. The tape keeps only
    x and s; backward rebuilds z = x @ w_gate, its sigmoid and silu for
    one block of `_ROW_BLOCK` rows at a time, in three buffers reused in
    place, and sums the weight gradients over the blocks."""
    xd, sd, wg, wo = x.data, s.data, w_gate.data, w_out.data
    z = xd @ wg
    m = nm._sigmoid(z)
    m *= z                             # silu(z)
    m *= sd
    out = m @ wo
    out += xd

    def backward(g):
        g_x = np.empty_like(xd) if x.requires_grad else None
        g_s = np.empty_like(sd)
        for r in range(0, xd.shape[0], _ROW_BLOCK):
            rows = slice(r, r + _ROW_BLOCK)
            xr, sr, gr = xd[rows], sd[rows], g[rows]
            silu = xr @ wg             # z for now
            sig = nm._sigmoid(silu)
            dsilu = np.subtract(1.0, sig)  # silu'(z) = sig (1 + z (1 - sig))
            dsilu *= silu
            dsilu += 1.0
            dsilu *= sig
            silu *= sig
            g_wo_r = np.multiply(sr, silu, out=sig).T @ gr
            g_m = np.matmul(gr, wo.T, out=sig)
            np.multiply(silu, g_m, out=g_s[rows])   # d loss / d s
            g_m *= sr
            g_m *= dsilu               # d loss / d z
            if g_x is not None:
                np.add(g_m @ wg.T, gr, out=g_x[rows])
            g_wg_r = xr.T @ g_m
            if r:
                g_wg += g_wg_r
                g_wo += g_wo_r
            else:
                g_wg, g_wo = g_wg_r, g_wo_r
        return (g_x, g_s, g_wg, g_wo)

    return nm.record_primitive("gated_residual", out, (x, s, w_gate, w_out),
                               backward)


def ssm_block_forward(x: Tensor, p: SsmBlockParams) -> Tensor:
    """One residual selective-SSM block applied to a (T, D) sequence."""
    if x.data.ndim != 2 or x.shape[0] < 1:
        raise DimensionError(f"ssm_block_forward needs (T, D), got {x.shape}")
    want = block_shapes(x.shape[1], p.d_inner, p.d_state)
    if any(t.shape != want[name] for name, t in p.named()):
        raise DimensionError(f"block parameters do not fit a {x.shape} input")
    u = nm.matmul(x, p.w_in)
    delta = step_size(u, p.w_delta, p.b_delta)
    b = nm.matmul(u, p.w_b)
    c = nm.matmul(u, p.w_c)
    a = nm.scale(nm.exp(p.a_log), -1.0)
    s = selective_scan(u, delta, b, c, a, p.d_skip)
    return gated_residual(x, s, p.w_gate, p.w_out)


# ---------------------------------------------------------------------------
# quadratic self-attention reference (benchmark foil, forward only)


@dataclass
class AttentionRefParams:
    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray


def init_attention_params(d_model: int, rng: np.random.Generator) -> AttentionRefParams:
    bound = 1.0 / np.sqrt(d_model)
    mk = lambda: rng.uniform(-bound, bound, size=(d_model, d_model))
    return AttentionRefParams(mk(), mk(), mk(), mk())


def attention_ref_forward(x, p: AttentionRefParams,
                          row_block: int = 1024) -> np.ndarray:
    """Single softmax self-attention layer plus residual, Theta(T^2 D).

    Queries are processed in row blocks to bound the score-matrix memory;
    the result is identical to the dense computation.
    """
    xd = x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)
    if xd.ndim != 2 or xd.shape[0] < 1:
        raise DimensionError(f"attention needs (T, D) input, got {xd.shape}")
    t_len, d_model = xd.shape
    q, k, v = xd @ p.w_q, xd @ p.w_k, xd @ p.w_v
    scale = 1.0 / np.sqrt(d_model)
    out = np.empty_like(xd)
    for start in range(0, t_len, row_block):
        stop = min(start + row_block, t_len)
        scores = (q[start:stop] @ k.T) * scale
        scores -= scores.max(axis=1, keepdims=True)
        weights = np.exp(scores)
        weights /= weights.sum(axis=1, keepdims=True)
        out[start:stop] = weights @ v
    return xd + out @ p.w_o


# ---------------------------------------------------------------------------
# scaling benchmark


def scaling_bench(encoder: str, d_model: int, d_state: int,
                  t_values: list[int], repetitions: int = 5,
                  rng_seed: int = 0) -> list[dict]:
    """Median per-run CPU time per sequence length, inference mode.

    Returns one row per T: {encoder, T, median_ms, min_ms,
    ratio_vs_prev}. The ratio column reports median time(T) / median
    time(previous T); min_ms is the best repetition. Process CPU time is
    used rather than wall clock so scheduling gaps on busy or virtualized
    machines do not distort the scaling ratios.
    """
    if encoder not in ("scan", "attention"):
        raise ConfigError(f"unknown encoder kind '{encoder}'")
    if min(t_values, default=1) < 1 or min(d_model, d_state) < 1:
        raise ConfigError("T, d_model and d_state must be at least 1")
    if any(b <= a for a, b in zip(t_values, t_values[1:])):
        raise ConfigError("T values must be strictly increasing")
    if repetitions < 3:
        raise ConfigError("need at least 3 repetitions for a stable median")
    rng = np.random.default_rng(rng_seed)
    if encoder == "scan":
        params = init_ssm_params(d_model, 2 * d_model, d_state, rng)
        for _, t in params.named():
            t.requires_grad = False
        run = lambda x: ssm_block_forward(Tensor(x), params)
    else:
        params = init_attention_params(d_model, rng)
        run = lambda x: attention_ref_forward(x, params)

    rows: list[dict] = []
    prev_median = None
    for t_len in t_values:
        x = rng.standard_normal((t_len, d_model))
        run(x)  # warm-up
        times = []
        for _ in range(repetitions):
            gc.collect()
            gc.disable()  # collector pauses would charge longer runs more
            try:
                start = time.process_time()
                run(x)
                times.append((time.process_time() - start) * 1e3)
            finally:
                gc.enable()
        median = float(np.median(times))
        ratio = None if prev_median is None else median / prev_median
        rows.append({"encoder": encoder, "T": t_len,
                     "median_ms": median, "min_ms": float(min(times)),
                     "ratio_vs_prev": ratio})
        prev_median = median
    return rows
