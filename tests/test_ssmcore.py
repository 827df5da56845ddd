import tracemalloc

import numpy as np
import pytest

import marble.numerics as nm
from marble.errors import (ConfigError, DimensionError, DomainError,
                           NumericError)
from marble.numerics import Tensor
from marble.ssmcore import (AttentionRefParams, attention_ref_forward,
                            gated_residual, init_attention_params,
                            init_ssm_params, reference_scan, scaling_bench,
                            selective_scan, ssm_block_forward, step_size)


def random_scan_inputs(rng, t_len, e_dim, n_dim, requires_grad=False):
    return dict(
        u=Tensor(rng.standard_normal((t_len, e_dim)), requires_grad),
        delta=Tensor(rng.uniform(0.01, 0.8, (t_len, e_dim)), requires_grad),
        b=Tensor(rng.standard_normal((t_len, n_dim)), requires_grad),
        c=Tensor(rng.standard_normal((t_len, n_dim)), requires_grad),
        a=Tensor(-rng.uniform(0.2, 3.0, e_dim), requires_grad),
        d=Tensor(rng.standard_normal(e_dim), requires_grad),
    )


def per_step_scan(u, delta, b, c, a, d, gy):
    """One-step-at-a-time scan and its backward, storing every state: the
    loop reference for the chunked kernel. Returns (y, (gu, gdelta, gb,
    gc, ga, gd)) for output gradient gy."""
    t_len, e_dim = u.shape
    n_dim = b.shape[1]
    abar = np.exp(delta * a)
    du = delta * u
    y = np.empty_like(u)
    hs = np.empty((t_len, e_dim, n_dim))
    h = np.zeros((e_dim, n_dim))
    for t in range(t_len):
        h = abar[t][:, None] * h + du[t][:, None] * b[t][None, :]
        hs[t] = h
        y[t] = h @ c[t] + d * u[t]
    gu = gy * d
    gd = (gy * u).sum(axis=0)
    gdelta = np.zeros_like(delta)
    gb = np.zeros_like(b)
    gc = np.zeros_like(c)
    ga = np.zeros_like(a)
    carry = np.zeros((e_dim, n_dim))
    for t in range(t_len - 1, -1, -1):
        gh = carry + gy[t][:, None] * c[t][None, :]
        gc[t] = gy[t] @ hs[t]
        h_prev = hs[t - 1] if t > 0 else np.zeros((e_dim, n_dim))
        g_abar = (gh * h_prev).sum(axis=1)
        gdelta[t] = g_abar * a * abar[t]
        ga += g_abar * delta[t] * abar[t]
        s = gh @ b[t]
        gdelta[t] += s * u[t]
        gu[t] += s * delta[t]
        gb[t] = gh.T @ du[t]
        carry = gh * abar[t][:, None]
    return y, (gu, gdelta, gb, gc, ga, gd)


class TestSelectiveScan:
    def test_single_step_formula(self):
        rng = np.random.default_rng(0)
        ops = random_scan_inputs(rng, 1, 3, 2)
        y = selective_scan(**ops).data
        cb = float(np.dot(ops["c"].data[0], ops["b"].data[0]))
        expected = (cb * ops["delta"].data[0] * ops["u"].data[0]
                    + ops["d"].data * ops["u"].data[0])
        assert np.allclose(y[0], expected, atol=1e-14)

    def test_vanishing_delta_reduces_to_skip(self):
        rng = np.random.default_rng(1)
        ops = random_scan_inputs(rng, 4, 2, 2)
        ops["delta"] = Tensor(np.full((4, 2), 1e-14))
        y = selective_scan(**ops).data
        assert np.allclose(y, ops["d"].data * ops["u"].data, atol=1e-10)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            t_len = int(rng.integers(1, 9))
            e_dim = int(rng.integers(1, 4))
            n_dim = int(rng.integers(1, 4))
            ops = random_scan_inputs(rng, t_len, e_dim, n_dim)
            y = selective_scan(**ops).data
            ref = reference_scan(ops["u"].data, ops["delta"].data,
                                 ops["b"].data, ops["c"].data,
                                 ops["a"].data, ops["d"].data)
            assert np.abs(y - ref).max() < 1e-12

    def test_rejects_non_positive_delta(self):
        rng = np.random.default_rng(3)
        ops = random_scan_inputs(rng, 3, 2, 2)
        ops["delta"] = Tensor(np.zeros((3, 2)))
        with pytest.raises(DomainError):
            selective_scan(**ops)

    def test_rejects_empty_sequence(self):
        rng = np.random.default_rng(4)
        ops = random_scan_inputs(rng, 2, 2, 2)
        ops["u"] = Tensor(np.zeros((0, 2)))
        with pytest.raises(DimensionError):
            selective_scan(**ops)

    @pytest.mark.parametrize("t_len", [1, 15, 16, 17, 33, 100, 257, 600])
    def test_matches_per_step_reference(self, t_len):
        # chunk boundaries fall at multiples of 16 steps, and backward's
        # row blocks at multiples of 256
        rng = np.random.default_rng(100 + t_len)
        ops = random_scan_inputs(rng, t_len, 6, 4, requires_grad=True)
        w = rng.standard_normal((t_len, 6))
        with nm.Tape() as tape:
            y = selective_scan(**ops)
            tape.backward(nm.tsum(nm.mul(y, Tensor(w))))
        want_y, want_grads = per_step_scan(
            *(t.data for t in ops.values()), w)
        for got, want in zip([y.data] + [t.grad for t in ops.values()],
                             (want_y,) + want_grads):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_grad_mode_keeps_only_chunk_start_states(self):
        # storing every (E, N) state would keep T*E*N*8 bytes
        t_len, e_dim, n_dim = 2048, 32, 8
        ops = random_scan_inputs(np.random.default_rng(15), t_len, e_dim,
                                 n_dim, requires_grad=True)
        with nm.Tape():
            tracemalloc.start()
            try:
                y = selective_scan(**ops)
                kept, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert y.shape == (t_len, e_dim)
        assert kept < t_len * e_dim * n_dim * 8 / 2

    @pytest.mark.parametrize("t_len", [1, 15, 16, 17, 40])
    def test_backward_twice_gives_the_same_gradients(self, t_len):
        # the first call reads the last chunk's states from the forward's
        # buffer and then overwrites it; the second must recompute them
        rng = np.random.default_rng(200 + t_len)
        ops = random_scan_inputs(rng, t_len, 5, 3, requires_grad=True)
        gy = rng.standard_normal((t_len, 5))
        with nm.Tape() as tape:
            selective_scan(**ops)
        (_, _, backward), = tape.nodes
        first = [g.copy() for g in backward(gy)]
        second = backward(gy)
        for g1, g2 in zip(first, second):
            assert np.array_equal(g1, g2)

    @pytest.mark.parametrize("t_len", [40, 600])
    def test_backward_leaves_the_incoming_gradient_unchanged(self, t_len):
        rng = np.random.default_rng(300 + t_len)
        ops = random_scan_inputs(rng, t_len, 5, 3, requires_grad=True)
        gy = rng.standard_normal((t_len, 5))
        kept = gy.copy()
        with nm.Tape() as tape:
            selective_scan(**ops)
        (_, _, backward), = tape.nodes
        backward(gy)
        assert np.array_equal(gy, kept)

    def test_gradients(self):
        rng = np.random.default_rng(5)
        ops = random_scan_inputs(rng, 5, 2, 3, requires_grad=True)
        w = Tensor(rng.standard_normal((5, 2)))
        err = nm.finite_diff_check(
            lambda: nm.tsum(nm.mul(selective_scan(**ops), w)),
            list(ops.values()))
        assert err < 1e-6

    def test_gradients_across_chunks(self):
        # 40 steps span three chunks; the central differences of the
        # longer sum carry more rounding than the 5-step case above
        rng = np.random.default_rng(5)
        ops = random_scan_inputs(rng, 40, 2, 3, requires_grad=True)
        w = Tensor(rng.standard_normal((40, 2)))
        err = nm.finite_diff_check(
            lambda: nm.tsum(nm.mul(selective_scan(**ops), w)),
            list(ops.values()))
        assert err < 1e-5

    def test_bounded_inputs_stay_bounded(self):
        rng = np.random.default_rng(6)
        t_len = 65536
        ops = random_scan_inputs(rng, t_len, 2, 2)
        ops["u"] = Tensor(rng.uniform(-10, 10, (t_len, 2)))
        y = selective_scan(**ops).data  # NumericError would fire on overflow
        assert np.isfinite(y).all()


def composite_step_size(u, w_delta, b_delta, g):
    """softplus(u @ w_delta + b_delta) as separate affine and softplus
    steps, and the gradients for output gradient g."""
    pre = u @ w_delta
    pre += b_delta
    out = np.maximum(np.maximum(pre, 0.0) + np.log1p(np.exp(-np.abs(pre))),
                     np.finfo(np.float64).tiny)
    g_pre = (1.0 / (1.0 + np.exp(-pre))) * g
    return out, (g_pre @ w_delta.T, u.T @ g_pre, g_pre.sum(axis=0))


def composite_gate(x, s, w_gate, w_out, g):
    """x + (s * silu(x @ w_gate)) @ w_out one product at a time, and the
    gradients for output gradient g."""
    z = x @ w_gate
    sig = 1.0 / (1.0 + np.exp(-z))
    silu = sig * z
    m = s * silu
    out = x + m @ w_out
    g_m = g @ w_out.T
    g_z = (g_m * s) * (sig * (1.0 + z * (1.0 - sig)))
    return out, (g + g_z @ w_gate.T, g_m * silu, x.T @ g_z, m.T @ g)


FUSED = {"step_size": (step_size, composite_step_size,
                       [(9, 6), (6, 6), (6,)]),
         "gated_residual": (gated_residual, composite_gate,
                            [(9, 4), (9, 6), (4, 6), (6, 4)])}


@pytest.mark.parametrize("name", FUSED)
class TestFusedNodes:
    def test_matches_the_composite_bit_for_bit(self, name):
        node, composite, shapes = FUSED[name]
        rng = np.random.default_rng(18)
        inputs = [Tensor(rng.standard_normal(sh), True) for sh in shapes]
        w = rng.standard_normal(shapes[0][:1] + shapes[-1][-1:])
        with nm.Tape() as tape:
            out = node(*inputs)
            tape.backward(nm.tsum(nm.mul(out, Tensor(w))))
        want, grads = composite(*(t.data for t in inputs), w)
        assert np.array_equal(out.data, want)
        for t, g in zip(inputs, grads):
            assert np.array_equal(t.grad, g)

    def test_gradients(self, name):
        node, _, shapes = FUSED[name]
        rng = np.random.default_rng(19)
        inputs = [Tensor(rng.standard_normal(sh), True) for sh in shapes]
        w = Tensor(rng.standard_normal(shapes[0][:1] + shapes[-1][-1:]))
        err = nm.finite_diff_check(
            lambda: nm.tsum(nm.mul(node(*inputs), w)), inputs)
        assert err <= 1e-4


class TestGateRowBlocks:
    # 600 rows are three backward row blocks of at most 256

    def test_matches_the_composite(self):
        rng = np.random.default_rng(20)
        shapes = [(600, 4), (600, 6), (4, 6), (6, 4)]
        inputs = [Tensor(rng.standard_normal(sh), True) for sh in shapes]
        w = rng.standard_normal((600, 4))
        with nm.Tape() as tape:
            out = gated_residual(*inputs)
            tape.backward(nm.tsum(nm.mul(out, Tensor(w))))
        want, grads = composite_gate(*(t.data for t in inputs), w)
        assert np.array_equal(out.data, want)
        for t, g in zip(inputs, grads):
            assert np.abs(t.grad - g).max() <= 1e-12 * np.abs(g).max()

    def test_forward_with_a_lone_last_row_matches_the_composite(self):
        rng = np.random.default_rng(25)
        inputs = [rng.standard_normal(sh)
                  for sh in [(513, 4), (513, 6), (4, 6), (6, 4)]]
        out = gated_residual(*(Tensor(a) for a in inputs))
        want, _ = composite_gate(*inputs, np.zeros((513, 4)))
        assert np.array_equal(out.data, want)

    def test_gradients(self):
        rng = np.random.default_rng(21)
        inputs = [Tensor(rng.standard_normal(sh), True)
                  for sh in [(600, 2), (600, 3), (2, 3), (3, 2)]]
        w = Tensor(rng.standard_normal((600, 2)))
        err = nm.finite_diff_check(
            lambda: nm.tsum(nm.mul(gated_residual(*inputs), w)), inputs)
        assert err <= 1e-4

    @pytest.mark.parametrize("t_len", [9, 600])
    def test_backward_leaves_the_incoming_gradient_unchanged(self, t_len):
        rng = np.random.default_rng(22)
        inputs = [Tensor(rng.standard_normal(sh), True)
                  for sh in [(t_len, 4), (t_len, 6), (4, 6), (6, 4)]]
        g = rng.standard_normal((t_len, 4))
        kept = g.copy()
        with nm.Tape() as tape:
            gated_residual(*inputs)
        (_, _, backward), = tape.nodes
        backward(g)
        assert np.array_equal(g, kept)


class TestStepSizeRowBlocks:
    # 600 rows are two full forward row blocks of 256 and a partial one;
    # in 513 rows the lone last row joins the second block

    @pytest.mark.parametrize("t_len", [513, 600])
    def test_matches_the_composite_bit_for_bit(self, t_len):
        rng = np.random.default_rng(23)
        inputs = [Tensor(rng.standard_normal(sh), True)
                  for sh in [(t_len, 6), (6, 6), (6,)]]
        w = rng.standard_normal((t_len, 6))
        with nm.Tape() as tape:
            out = step_size(*inputs)
            tape.backward(nm.tsum(nm.mul(out, Tensor(w))))
        want, grads = composite_step_size(*(t.data for t in inputs), w)
        assert np.array_equal(out.data, want)
        for t, g in zip(inputs, grads):
            assert np.array_equal(t.grad, g)

    def test_non_finite_pre_activation_in_the_last_block(self):
        rng = np.random.default_rng(24)
        u = rng.standard_normal((600, 6))
        u[599, 2] = np.inf
        inputs = [Tensor(u, True), Tensor(rng.standard_normal((6, 6)), True),
                  Tensor(rng.standard_normal(6), True)]
        with np.errstate(all="ignore"), nm.Tape() as tape:
            with pytest.raises(NumericError) as exc:
                step_size(*inputs)
        assert exc.value.op == "step_size"
        assert tape.nodes == []


class TestSsmBlock:
    def test_zero_output_projection_is_identity(self):
        rng = np.random.default_rng(7)
        p = init_ssm_params(4, 8, 3, rng)
        p.w_out = Tensor(np.zeros((8, 4)))
        x = rng.standard_normal((5, 4))
        y = ssm_block_forward(Tensor(x), p)
        assert np.array_equal(y.data, x)

    def test_single_step_matches_hand_composition(self):
        rng = np.random.default_rng(8)
        p = init_ssm_params(3, 4, 2, rng)
        x = rng.standard_normal((1, 3))
        u = x @ p.w_in.data
        z = x @ p.w_gate.data
        delta = np.logaddexp(0.0, u @ p.w_delta.data + p.b_delta.data)
        bb = u @ p.w_b.data
        cc = u @ p.w_c.data
        cb = float(np.dot(cc[0], bb[0]))
        s = cb * delta[0] * u[0] + p.d_skip.data * u[0]
        gate = z / (1.0 + np.exp(-z))
        expected = x + (s * gate[0]) @ p.w_out.data
        y = ssm_block_forward(Tensor(x), p)
        assert np.allclose(y.data, expected, atol=1e-12)

    def test_all_parameter_gradients(self):
        rng = np.random.default_rng(9)
        p = init_ssm_params(8, 16, 4, rng)
        x = rng.standard_normal((12, 8))
        err = nm.finite_diff_check(
            lambda: nm.tsum(ssm_block_forward(Tensor(x), p)),
            [t for _, t in p.named()], eps=3e-4)
        assert err < 1e-4

    def test_order_sensitivity(self):
        # a causal scan is NOT permutation invariant
        rng = np.random.default_rng(10)
        p = init_ssm_params(4, 8, 3, rng)
        x = rng.standard_normal((6, 4))
        y_fwd = ssm_block_forward(Tensor(x), p).data
        y_rev = ssm_block_forward(Tensor(x[::-1]), p).data[::-1]
        assert not np.allclose(y_fwd, y_rev)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_large_inputs_keep_delta_positive(self):
        # softplus underflows to exactly 0.0 for pre-activations below ~-745
        rng = np.random.default_rng(16)
        p = init_ssm_params(64, 128, 16, rng)
        x = rng.standard_normal((20, 64)) * 1e3
        y = ssm_block_forward(Tensor(x), p)
        assert np.isfinite(y.data).all()

    def test_tape_keeps_only_what_backward_reads(self):
        # bytes held after a training forward, and at the peak of its
        # backward, in units of one (T, E) float64 array
        t_len, d_model, e_dim, n_dim = 2048, 64, 128, 16
        rng = np.random.default_rng(17)
        p = init_ssm_params(d_model, e_dim, n_dim, rng)
        x = Tensor(rng.standard_normal((t_len, d_model)))
        unit = t_len * e_dim * 8
        tracemalloc.start()
        try:
            with nm.Tape() as tape:
                loss = nm.tsum(ssm_block_forward(x, p))
                kept, forward_peak = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                tape.backward(loss)
                _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept <= 5.5 * unit
        assert forward_peak <= 5.8 * unit
        assert peak <= 7.4 * unit

    def test_forward_without_a_tape_builds_no_full_length_temporaries(self):
        # peak bytes of an evaluation forward, output included, in units
        # of one (T, E) float64 array
        t_len, d_model, e_dim, n_dim = 2048, 64, 128, 16
        rng = np.random.default_rng(17)
        p = init_ssm_params(d_model, e_dim, n_dim, rng)
        x = Tensor(rng.standard_normal((t_len, d_model)))
        tracemalloc.start()
        try:
            ssm_block_forward(x, p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4.8 * t_len * e_dim * 8

    def test_decay_strictly_negative(self):
        rng = np.random.default_rng(11)
        p = init_ssm_params(4, 8, 16, rng)
        assert (-np.exp(p.a_log.data) < 0).all()


class TestAttentionRef:
    def test_single_token(self):
        rng = np.random.default_rng(12)
        p = init_attention_params(4, rng)
        x = rng.standard_normal((1, 4))
        y = attention_ref_forward(x, p)
        assert np.allclose(y, x + (x @ p.w_v) @ p.w_o, atol=1e-12)

    def test_identical_rows_give_identical_outputs(self):
        rng = np.random.default_rng(13)
        p = init_attention_params(4, rng)
        x = np.tile(rng.standard_normal(4), (5, 1))
        y = attention_ref_forward(x, p)
        assert np.allclose(y, y[0], atol=1e-12)

    def test_matches_dense_computation(self):
        rng = np.random.default_rng(14)
        p = init_attention_params(3, rng)
        x = rng.standard_normal((4, 3))
        q, k, v = x @ p.w_q, x @ p.w_k, x @ p.w_v
        scores = q @ k.T / np.sqrt(3)
        w = np.exp(scores - scores.max(axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
        expected = x + (w @ v) @ p.w_o
        assert np.allclose(attention_ref_forward(x, p, row_block=2), expected,
                           atol=1e-12)


class TestScalingBench:
    def test_single_row_no_ratio(self):
        rows = scaling_bench("scan", 8, 4, [32], repetitions=3)
        assert len(rows) == 1 and rows[0]["ratio_vs_prev"] is None

    def test_ratios_reported(self):
        rows = scaling_bench("attention", 8, 4, [16, 32], repetitions=3)
        assert rows[1]["ratio_vs_prev"] is not None

    def test_rejects_bad_sizes(self):
        with pytest.raises(ConfigError):
            scaling_bench("scan", 8, 4, [64, 32], repetitions=3)
        with pytest.raises(ConfigError):
            scaling_bench("scan", 8, 4, [32], repetitions=2)
        with pytest.raises(ConfigError):
            scaling_bench("fft", 8, 4, [32], repetitions=3)

    @pytest.mark.parametrize("d_model,d_state,sizes", [
        (8, 4, [0, 16]), (8, 4, [-3]), (0, 4, [16]), (8, 0, [16])])
    def test_rejects_non_positive_dims(self, d_model, d_state, sizes):
        with pytest.raises(ConfigError):
            scaling_bench("scan", d_model, d_state, sizes, repetitions=3)
