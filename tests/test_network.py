"""Tests for the full multi-scale network and its checkpoint format."""

import os
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from marble import numerics as nm
from marble.bagdata import SynthSpec, generate_slide
from marble.errors import ConfigError, DimensionError, FormatError, NumericError
from marble.metrics import cross_entropy
from marble.network import (HEAD_CLASSIFICATION, HEAD_SURVIVAL, MarbleParams,
                            encode_slide, fuse_level, init_marble_params,
                            load_checkpoint, param_shapes, pool_head,
                            save_checkpoint)
from marble.numerics import Tape, Tensor
from marble.pyramid import LevelGrid, TokenBag, build_bag


def small_bag(rng, d_model=8, coarse=(2, 2), levels=2):
    height, width = coarse
    grids = [LevelGrid(level=k, rows=height * 2 ** k, cols=width * 2 ** k,
                       ratio_to_parent=None if k == 0 else 2,
                       tissue_mask=np.ones((height * 2 ** k, width * 2 ** k),
                                           dtype=bool))
             for k in range(levels)]
    embeds = [rng.normal(size=(g.rows * g.cols, d_model)) for g in grids]
    return build_bag(grids, embeds)


class TestInit:

    def test_classification_params_present(self):
        params = init_marble_params(8, 16, 4, 2, HEAD_CLASSIFICATION, 3,
                                    np.random.default_rng(0))
        assert params.cls_w.shape == (3, 8)
        assert params.cls_b.shape == (3,)
        assert params.cox_beta is None
        assert params.n_classes == 3
        assert len(params.fuse_w) == 1
        assert params.fuse_w[0].shape == (16, 8)

    def test_survival_params_present(self):
        params = init_marble_params(8, 16, 4, 2, HEAD_SURVIVAL, 2,
                                    np.random.default_rng(0))
        assert params.cox_beta.shape == (8,)
        assert params.cls_w is None

    def test_rejects_unknown_head(self):
        with pytest.raises(ConfigError):
            init_marble_params(8, 16, 4, 2, "regression", 2,
                               np.random.default_rng(0))

    def test_rejects_single_class(self):
        with pytest.raises(ConfigError):
            init_marble_params(8, 16, 4, 2, HEAD_CLASSIFICATION, 1,
                               np.random.default_rng(0))

    def test_named_params_unique_and_grad_enabled(self):
        params = init_marble_params(8, 16, 4, 3, HEAD_CLASSIFICATION, 2,
                                    np.random.default_rng(1))
        names = [n for n, _ in params.named_params()]
        assert len(names) == len(set(names))
        assert all(p.requires_grad for _, p in params.named_params())

    @pytest.mark.parametrize("dims,levels,head,n_classes", [
        ((8, 16, 4), 1, HEAD_SURVIVAL, 2),
        ((8, 16, 4), 2, HEAD_CLASSIFICATION, 2),
        ((4, 6, 2), 3, HEAD_CLASSIFICATION, 5),
        ((5, 10, 3), 4, HEAD_SURVIVAL, 2),
    ])
    def test_param_shapes_match_named_params(self, dims, levels, head,
                                             n_classes):
        params = init_marble_params(*dims, levels, head, n_classes,
                                    np.random.default_rng(3))
        assert param_shapes(*dims, levels, head, n_classes) == [
            (name, p.shape) for name, p in params.named_params()]

    def test_squared_norm_matches_numpy(self):
        params = init_marble_params(8, 16, 4, 2, HEAD_SURVIVAL, 2,
                                    np.random.default_rng(2))
        expected = sum(float((p.data ** 2).sum())
                       for _, p in params.named_params())
        assert params.squared_norm().data == pytest.approx(expected,
                                                           rel=1e-12)

    def test_squared_norm_gradient(self):
        params = init_marble_params(4, 6, 2, 2, HEAD_SURVIVAL, 2,
                                    np.random.default_rng(3))
        leaves = [p for _, p in params.named_params()]
        assert nm.finite_diff_check(params.squared_norm, leaves) < 1e-6
        np.testing.assert_array_equal(params.grad, 2.0 * params.theta)


class TestLayout:
    """Every parameter is a view into the model's flat theta/grad pair."""

    @pytest.mark.parametrize("levels,head,n_classes", [
        (1, HEAD_SURVIVAL, 2), (3, HEAD_CLASSIFICATION, 4),
    ])
    def test_views_sit_at_param_shapes_offsets(self, levels, head, n_classes):
        params = init_marble_params(8, 12, 4, levels, head, n_classes,
                                    np.random.default_rng(4))
        offset = 0
        for (name, shape), (got, p) in zip(
                param_shapes(8, 12, 4, levels, head, n_classes),
                params.named_params(), strict=True):
            size = int(np.prod(shape))
            assert got == name and p.shape == shape
            for view, flat in ((p.data, params.theta), (p.grad, params.grad)):
                assert np.shares_memory(view, flat)
                np.testing.assert_array_equal(
                    view.ravel(), flat[offset:offset + size])
            p.data[...] = -1.0 - offset       # a write shows in the vector
            assert np.all(params.theta[offset:offset + size] == -1.0 - offset)
            offset += size
        assert offset == params.theta.size == params.grad.size

    def test_views_survive_finite_diff_check(self):
        rng = np.random.default_rng(6)
        bag = small_bag(rng, levels=1)
        params = init_marble_params(8, 16, 4, 1, HEAD_SURVIVAL, 2, rng)
        leaves = [p for _, p in params.named_params()]
        params.grad[...] = 7.0                # stale values are cleared

        def f():
            return encode_slide(bag, params).output

        assert nm.finite_diff_check(f, leaves[-2:], eps=3e-4) < 1e-4
        for p in leaves:
            assert np.shares_memory(p.data, params.theta)
            assert np.shares_memory(p.grad, params.grad)
        assert not np.any(params.grad == 7.0)
        assert np.any(params.cox_beta.grad != 0.0)

    def test_backward_writes_into_the_flat_grad(self):
        rng = np.random.default_rng(8)
        bag = small_bag(rng)
        params = init_marble_params(8, 16, 4, 2, HEAD_CLASSIFICATION, 2, rng)
        with Tape() as tape:
            out = encode_slide(bag, params).output
            tape.backward(nm.tsum(nm.mul(out, Tensor(np.array([1.0, -1.0])))))
        flat = np.concatenate([p.grad.ravel()
                               for _, p in params.named_params()])
        np.testing.assert_array_equal(flat, params.grad)
        assert params.grad.any()


class TestFusionAndPooling:

    def test_fuse_gathers_parent_rows(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(4, 3)))
        y_prev = Tensor(rng.normal(size=(2, 3)))
        parents = np.array([0, 0, 1, 1])
        w = Tensor(rng.normal(size=(6, 3)))
        b = Tensor(rng.normal(size=3))
        out = fuse_level(x.data, y_prev, parents, w, b)
        expected = np.concatenate(
            [x.data, y_prev.data[parents]], axis=1) @ w.data + b.data
        np.testing.assert_allclose(out.data, expected, atol=1e-14)

    # 600 rows are two full forward row blocks of 256 and a partial one;
    # in 513 rows the lone last row joins the second block
    @pytest.mark.parametrize(
        "parents", [[1, 0, 1, 1, 2, 0], [2],
                    np.random.default_rng(0).permutation(600) % 37,
                    np.random.default_rng(1).permutation(513) % 37],
        ids=["duplicate-parents", "one-token", "600-rows-shuffled-parents",
             "513-rows-shuffled-parents"])
    def test_fuse_matches_the_composite_bit_for_bit(self, parents):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(len(parents), 4)).astype(np.float32)
        y_prev = Tensor(rng.normal(size=(max(parents) + 1, 4)),
                        requires_grad=True)
        w = Tensor(rng.normal(size=(8, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=4), requires_grad=True)
        g = rng.normal(size=(len(parents), 4))
        with Tape() as tape:
            out = fuse_level(x, y_prev, parents, w, b)
            tape.backward(nm.tsum(nm.mul(out, Tensor(g))))
        # gather, concatenate and affine map as separate steps
        joined = np.concatenate([x.astype(np.float64), y_prev.data[parents]],
                                axis=1)
        want_gy = np.zeros_like(y_prev.data)
        np.add.at(want_gy, parents, (g @ w.data.T)[:, 4:])
        assert np.array_equal(out.data, joined @ w.data + b.data)
        assert np.array_equal(y_prev.grad, want_gy)
        assert np.array_equal(w.grad, joined.T @ g)
        assert np.array_equal(b.grad, g.sum(axis=0))

    def test_fuse_gradients(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(5, 3)).astype(np.float32)
        leaves = [Tensor(rng.normal(size=shape), requires_grad=True)
                  for shape in [(2, 3), (6, 3), (3,)]]
        g = Tensor(rng.normal(size=(5, 3)))
        err = nm.finite_diff_check(lambda: nm.tsum(nm.mul(
            fuse_level(x, leaves[0], [1, 1, 0, 1, 0], *leaves[1:]), g)),
            leaves)
        assert err <= 1e-4

    def test_pool_weights_sum_to_one(self):
        rng = np.random.default_rng(4)
        y = Tensor(rng.normal(size=(6, 5)))
        w, beta = Tensor(rng.normal(size=5)), Tensor(rng.normal(size=5))
        risk, weights = pool_head(y, w, beta)
        assert isinstance(weights, np.ndarray)
        assert weights.sum() == pytest.approx(1.0)
        assert risk.data[0] == pytest.approx(weights @ y.data @ beta.data,
                                             rel=1e-12)

    def test_pool_concentrates_on_high_score_token(self):
        y = np.zeros((4, 3))
        y[2] = 50.0
        risk, weights = pool_head(Tensor(y), Tensor(np.ones(3)),
                                  Tensor(np.array([1.0, 0.0, 0.0])))
        assert weights[2] > 0.999
        assert risk.data[0] == pytest.approx(50.0, rel=1e-3)

    def test_heads(self):
        rng = np.random.default_rng(5)
        y, w = Tensor(rng.normal(size=(7, 4))), Tensor(rng.normal(size=4))
        cls_w = Tensor(rng.normal(size=(3, 4)))
        cls_b = Tensor(rng.normal(size=3))
        logits, weights = pool_head(y, w, cls_w, cls_b)
        pooled = weights @ y.data
        np.testing.assert_allclose(logits.data, cls_w.data @ pooled
                                   + cls_b.data, atol=1e-14)
        beta = Tensor(rng.normal(size=4))
        risk, _ = pool_head(y, w, beta)
        assert risk.data[0] == pytest.approx(float(pooled @ beta.data))

    @pytest.mark.parametrize("head_shape,bias", [
        ((4,), (4,)), ((2, 4), None), ((2, 4), (3,)), ((2, 3), (2,)),
        ((4, 1), (4,)), ((5,), None)])
    def test_pool_head_refuses_mismatched_shapes(self, head_shape, bias):
        y, w = Tensor(np.zeros((3, 4))), Tensor(np.zeros(4))
        with pytest.raises(DimensionError):
            pool_head(y, w, Tensor(np.zeros(head_shape)),
                      None if bias is None else Tensor(np.zeros(bias)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("where", ["scores", "head"])
    def test_non_finite_head_fails_without_warnings(self, where):
        y = np.ones((3, 2))
        head_w = np.ones((2, 2))
        if where == "scores":
            y[1] = 1e308        # y @ w overflows, the weights turn NaN
        else:
            head_w[0] = 1e308   # the logits overflow
        with pytest.raises(NumericError) as exc:
            pool_head(Tensor(y), Tensor(np.ones(2)), Tensor(head_w),
                      Tensor(np.zeros(2)))
        assert exc.value.op == "pool_head"


def composite_pool_head(y, w, head_w, head_b, g):
    """The replaced composite in plain numpy: attention_pool, then classify
    (head_b given) or risk_score, as reshape, matmul, softmax_1d, add and
    dot forwards, then their backwards in reverse tape order with `g` the
    gradient of the output. Returns the output, the pool weights and the
    gradients of (y, w, head_w, head_b)."""
    t_len, d = y.shape
    w_col = w.reshape(d, 1)                         # reshape
    scores = (y @ w_col).reshape(t_len)             # matmul, reshape
    shifted = scores - scores.max()                 # softmax_1d
    e = np.exp(shifted)
    s = e / e.sum()
    s_row = s.reshape(1, t_len)                     # reshape
    pooled = (s_row @ y).reshape(d)                 # matmul, reshape
    if head_b is None:
        out = np.dot(pooled, head_w)                # dot
        g_pooled, g_head, g_b = g * head_w, g * pooled, None
    else:
        z_col = pooled.reshape(d, 1)                # reshape
        out = (head_w @ z_col).reshape(-1) + head_b  # matmul, reshape, add
        g_col = g.reshape(-1, 1)
        g_head, g_z, g_b = g_col @ z_col.T, head_w.T @ g_col, g
        g_pooled = g_z.reshape(d)
    g_p = g_pooled.reshape(1, d)
    g_s_row = g_p @ y.T                             # matmul(s_row, y)
    g_y_pool = s_row.T @ g_p
    g_s = g_s_row.reshape(t_len)
    g_scores = ((g_s - np.dot(g_s, s)) * s).reshape(t_len, 1)  # softmax_1d
    g_y_scores = g_scores @ w_col.T                 # matmul(y, w_col)
    g_w = (y.T @ g_scores).reshape(d)
    return out, s, [g_y_pool + g_y_scores, g_w, g_head, g_b]


class TestPoolHead:
    """`pool_head` equals the composite it replaced bit for bit."""

    @pytest.mark.parametrize("n_classes", [2, 3, 0], ids=["C2", "C3", "risk"])
    @pytest.mark.parametrize("t_len", [1, 13])
    def test_matches_the_composite_bit_for_bit(self, n_classes, t_len):
        rng = np.random.default_rng(30 + t_len + n_classes)
        d = 6
        arrays = [rng.normal(size=(t_len, d)), rng.normal(size=d),
                  rng.normal(size=(n_classes, d) if n_classes else d)]
        if n_classes:
            arrays.append(rng.normal(size=n_classes))
        g = rng.normal(size=n_classes or 1)
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        with Tape() as tape:
            out, weights = pool_head(*leaves)
            assert len(tape.nodes) == 1
            tape.backward(nm.tsum(nm.mul(out, Tensor(g))))
        want_out, want_weights, want_grads = composite_pool_head(
            *arrays, *([] if n_classes else [None]), g)
        assert np.array_equal(out.data.ravel(), np.ravel(want_out))
        assert np.array_equal(weights, want_weights)
        for leaf, want in zip(leaves, want_grads):
            assert np.array_equal(leaf.grad, want)

    @pytest.mark.parametrize("n_classes", [3, 0], ids=["logits", "risk"])
    def test_gradients(self, n_classes):
        rng = np.random.default_rng(40 + n_classes)
        leaves = [Tensor(rng.normal(size=shape), requires_grad=True)
                  for shape in [(9, 5), (5,), (n_classes, 5) if n_classes
                                else (5,)] + ([(n_classes,)] if n_classes
                                              else [])]
        g = Tensor(rng.normal(size=n_classes or 1))
        err = nm.finite_diff_check(
            lambda: nm.tsum(nm.mul(pool_head(*leaves)[0], g)), leaves)
        assert err <= 1e-4


class TestEncodeSlide:

    def test_output_shapes(self):
        rng = np.random.default_rng(6)
        bag = small_bag(rng)
        params = init_marble_params(8, 16, 4, 2, HEAD_CLASSIFICATION, 2, rng)
        out = encode_slide(bag, params)
        assert out.pool_weights.shape == (16,)
        assert out.output.shape == (2,)

    def test_survival_output_is_scalar(self):
        rng = np.random.default_rng(7)
        bag = small_bag(rng)
        params = init_marble_params(8, 16, 4, 2, HEAD_SURVIVAL, 2, rng)
        out = encode_slide(bag, params)
        assert out.output.data.size == 1

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        bag = small_bag(rng)
        params = init_marble_params(8, 16, 4, 2, HEAD_CLASSIFICATION, 2, rng)
        a = encode_slide(bag, params).output.data
        b = encode_slide(bag, params).output.data
        np.testing.assert_array_equal(a, b)

    def test_level_count_mismatch(self):
        rng = np.random.default_rng(9)
        bag = small_bag(rng, levels=2)
        params = init_marble_params(8, 16, 4, 3, HEAD_CLASSIFICATION, 2, rng)
        with pytest.raises(DimensionError):
            encode_slide(bag, params)

    def test_embedding_dim_mismatch(self):
        rng = np.random.default_rng(10)
        bag = small_bag(rng, d_model=8)
        params = init_marble_params(16, 32, 4, 2, HEAD_CLASSIFICATION, 2, rng)
        with pytest.raises(DimensionError):
            encode_slide(bag, params)

    def test_coarse_context_changes_fine_encoding(self):
        # fusion must propagate coarse information into the fine level
        rng = np.random.default_rng(11)
        bag = small_bag(rng)
        params = init_marble_params(8, 16, 4, 2, HEAD_CLASSIFICATION, 2, rng)
        base = encode_slide(bag, params).output.data.copy()
        bag.levels[0].embeddings = bag.levels[0].embeddings + 1.0
        shifted = encode_slide(bag, params).output.data
        assert not np.allclose(base, shifted)

    def test_float32_bag_matches_its_float64_widening(self):
        # encode_slide widens rows to float64 itself, so a bag kept at
        # its stored float32 gives the same bits as a float64 copy
        bag, _ = generate_slide(SynthSpec(seed=5, dim=8, coarse_rows=2,
                                          coarse_cols=2, task="survival"),
                                2, np.random.default_rng(5))
        wide = TokenBag([replace(lv, embeddings=lv.embeddings.astype(
            np.float64)) for lv in bag.levels])
        assert bag.levels[0].embeddings.dtype == np.float32
        params = init_marble_params(8, 16, 4, 2, HEAD_SURVIVAL, 2,
                                    np.random.default_rng(6))
        runs = []
        for b in (bag, wide):
            params.grad.fill(0.0)
            with Tape() as tape:
                out = encode_slide(b, params)
                tape.backward(out.output)
            runs.append((out.output.data.tobytes(),
                         out.pool_weights.tobytes(),
                         params.grad.tobytes()))
        assert runs[0] == runs[1]

    def test_nan_in_a_fine_level_fails_in_the_fusion(self):
        rng = np.random.default_rng(15)
        bag = small_bag(rng)
        bag.levels[1].embeddings[3, 2] = np.nan
        params = init_marble_params(8, 16, 4, 2, HEAD_CLASSIFICATION, 2, rng)
        with pytest.raises(NumericError) as exc:
            encode_slide(bag, params)
        assert exc.value.op == "fuse_level"

    def test_two_level_slide_records_19_nodes(self):
        # 8 per block (4 projections and step size, decay, scan, gate), 1
        # fusion, 1 pooling and head, and 1 loss
        rng = np.random.default_rng(16)
        bag = small_bag(rng)
        params = init_marble_params(8, 16, 4, 2, HEAD_CLASSIFICATION, 2, rng)
        with Tape() as tape:
            cross_entropy(encode_slide(bag, params).output, 1)
        assert len(tape.nodes) == 19

    def test_tape_keeps_only_what_backward_reads(self):
        # bytes held after a 3-level training forward, and at the peak of
        # its backward, in units of one (T, E) float64 array over all
        # levels; the bag is float32 as stored
        rng = np.random.default_rng(18)
        bag = small_bag(rng, d_model=32, coarse=(8, 8), levels=3)
        bag = TokenBag([replace(lv, embeddings=lv.embeddings.astype(
            np.float32)) for lv in bag.levels])
        params = init_marble_params(32, 64, 8, 3, HEAD_CLASSIFICATION, 2, rng)
        unit = sum(bag.token_counts()) * 64 * 8
        tracemalloc.start()
        try:
            with Tape() as tape:
                loss = cross_entropy(encode_slide(bag, params).output, 1)
                kept, _ = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                tape.backward(loss)
                _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept <= 6.0 * unit
        assert peak <= 7.9 * unit

    def test_full_model_gradient(self):
        rng = np.random.default_rng(12)
        bag = small_bag(rng)
        params = init_marble_params(8, 16, 4, 2, HEAD_CLASSIFICATION, 2, rng)
        leaves = [p for _, p in params.named_params()]

        def f():
            out = encode_slide(bag, params)
            return nm.tsum(nm.mul(out.output, Tensor(np.array([1.0, -1.0]))))

        # composed-model finite differences need a larger step: at 1e-5
        # the difference quotient is dominated by float64 roundoff
        assert nm.finite_diff_check(f, leaves, eps=3e-4) < 1e-4


class TestCheckpoint:

    @pytest.mark.parametrize("head,n_classes", [
        (HEAD_CLASSIFICATION, 2), (HEAD_CLASSIFICATION, 4), (HEAD_SURVIVAL, 2),
    ])
    def test_round_trip_bit_exact(self, tmp_path, head, n_classes):
        rng = np.random.default_rng(13)
        params = init_marble_params(8, 16, 4, 2, head, n_classes, rng)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.head == head
        for (name_a, a), (name_b, b) in zip(params.named_params(),
                                            loaded.named_params()):
            assert name_a == name_b
            np.testing.assert_array_equal(a.data, b.data)

    def test_loaded_params_reproduce_forward(self, tmp_path):
        rng = np.random.default_rng(14)
        bag = small_bag(rng)
        params = init_marble_params(8, 16, 4, 2, HEAD_CLASSIFICATION, 2, rng)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        np.testing.assert_array_equal(encode_slide(bag, params).output.data,
                                      encode_slide(bag, loaded).output.data)

    def test_bad_magic(self, tmp_path):
        rng = np.random.default_rng(15)
        params = init_marble_params(8, 16, 4, 1, HEAD_SURVIVAL, 2, rng)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(params, path)
        blob = bytearray(open(path, "rb").read())
        blob[0] = ord("X")
        open(path, "wb").write(bytes(blob))
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        rng = np.random.default_rng(16)
        params = init_marble_params(8, 16, 4, 1, HEAD_SURVIVAL, 2, rng)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(params, path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:len(blob) // 2])
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(path)

    def test_loads_without_sidecar(self, tmp_path):
        # the record shapes carry every dimension: D, E, N, levels, C
        rng = np.random.default_rng(17)
        params = init_marble_params(8, 12, 4, 3, HEAD_CLASSIFICATION, 3, rng)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(params, path)
        assert os.listdir(tmp_path) == ["model.ckpt"]
        loaded = load_checkpoint(path)
        assert (loaded.d_model, loaded.blocks[0].d_inner,
                loaded.blocks[0].d_state, loaded.n_levels,
                loaded.n_classes) == (8, 12, 4, 3, 3)
        for (_, a), (_, b) in zip(params.named_params(),
                                  loaded.named_params()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_trailing_bytes_rejected(self, tmp_path):
        rng = np.random.default_rng(18)
        params = init_marble_params(8, 16, 4, 1, HEAD_SURVIVAL, 2, rng)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(params, path)
        with open(path, "ab") as fh:
            fh.write(b"\0")
        with pytest.raises(FormatError, match="after the last record"):
            load_checkpoint(path)

    @pytest.mark.parametrize("offset,raw,message", [
        (8, struct.pack("<I", 0), "zero dimension at offset 8"),   # D
        # versions 1 and 2 share magic and version field, so this is how
        # a version-1 file starts
        (4, struct.pack("<H", 1), "unsupported checkpoint version 1 at "
                                  "offset 4$"),
        (6, b"\x07", "unknown head tag 7 at offset 6$"),
        (20, struct.pack("<I", 3), "C = 3 at offset 20$"),         # survival
        (24 + 8 * 37, struct.pack("<d", np.nan), f"offset {24 + 8 * 37}$"),
        (24 + 8 * 5, struct.pack("<d", -np.inf), f"offset {24 + 8 * 5}$"),
    ])
    def test_corrupt_record_header(self, tmp_path, offset, raw, message):
        rng = np.random.default_rng(20)
        params = init_marble_params(8, 16, 4, 1, HEAD_SURVIVAL, 2, rng)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(params, path)
        blob = bytearray(open(path, "rb").read())
        blob[offset:offset + len(raw)] = raw
        open(path, "wb").write(bytes(blob))
        with pytest.raises(FormatError, match=message):
            load_checkpoint(path)

    @pytest.mark.parametrize("index,value", [(37, np.nan), (0, np.inf)])
    def test_non_finite_parameter_refused_before_writing(self, tmp_path,
                                                         index, value):
        params = init_marble_params(8, 16, 4, 1, HEAD_SURVIVAL, 2,
                                    np.random.default_rng(21))
        params.theta[index] = value
        path = tmp_path / "model.ckpt"
        with pytest.raises(FormatError, match=f"non-finite parameter at "
                                              f"offset {24 + 8 * index}$"):
            save_checkpoint(params, str(path))
        assert not path.exists()

    @pytest.mark.parametrize("head,n_classes,levels", [
        (HEAD_SURVIVAL, 0, 1), (HEAD_SURVIVAL, 2, 3),
        (HEAD_CLASSIFICATION, 2, 1), (HEAD_CLASSIFICATION, 4, 3),
    ])
    def test_header_carries_every_dimension(self, tmp_path, head, n_classes,
                                            levels):
        params = init_marble_params(8, 12, 4, levels, head, n_classes,
                                    np.random.default_rng(22))
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(params, path)
        blob = open(path, "rb").read()
        c = n_classes if head == HEAD_CLASSIFICATION else 0
        assert struct.unpack_from("<IIII", blob, 8) == (8, 12, 4, c)
        assert len(blob) == 24 + 8 * params.theta.size
        loaded = load_checkpoint(path)
        assert (loaded.head, loaded.d_model, loaded.blocks[0].d_inner,
                loaded.blocks[0].d_state, loaded.n_levels,
                loaded.n_classes) == (head, 8, 12, 4, levels, c)
        assert np.array_equal(loaded.theta, params.theta)

    @pytest.mark.parametrize("levels,n_classes,message", [
        (0, 2, "at least one level"), (1, 1, "at least 2 classes"),
    ])
    def test_model_the_constructor_rejects(self, tmp_path, levels, n_classes,
                                           message):
        # a well-sized file whose header names no valid model
        size = sum(int(np.prod(shape)) for _, shape in param_shapes(
            2, 2, 1, levels, HEAD_CLASSIFICATION, n_classes))
        path = str(tmp_path / "model.ckpt")
        with open(path, "wb") as fh:
            fh.write(b"MRBL" + struct.pack("<HBBIIII", 2, 0, levels, 2, 2, 1,
                                           n_classes))
            fh.write(np.zeros(size).tobytes())
        with pytest.raises(FormatError, match=f"{message}.*offset 0"):
            load_checkpoint(path)

    def test_fuzz_corruptions_raise_format_error(self, tmp_path):
        # criterion 10's four corruption modes applied to a checkpoint:
        # each corrupted file either loads or raises FormatError, and every
        # truncated or extended file is rejected
        rng = np.random.default_rng(1000)
        params = init_marble_params(8, 16, 4, 2, HEAD_CLASSIFICATION, 2,
                                    np.random.default_rng(19))
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(params, path)
        blob = open(path, "rb").read()
        rejected = [0, 0, 0, 0]
        for case in range(500):
            corrupt = bytearray(blob)
            mode = case % 4
            if mode == 0:
                corrupt = corrupt[:int(rng.integers(len(blob)))]
            elif mode == 1:
                pos = int(rng.integers(len(corrupt)))
                corrupt[pos] = int(rng.integers(256))
            elif mode == 2:
                corrupt += bytes(rng.integers(0, 256, size=int(
                    rng.integers(1, 16)), dtype=np.uint8))
            else:
                pos = int(rng.integers(4, len(corrupt)))
                corrupt[pos:pos + 4] = struct.pack(
                    "<I", int(rng.integers(0, 2 ** 32)))
            open(path, "wb").write(bytes(corrupt))
            try:
                load_checkpoint(path)
            except FormatError:
                rejected[mode] += 1
        assert rejected[0] == rejected[2] == 125

    def test_shapes_checked_before_allocating(self, tmp_path):
        # a 48 KB file whose header claims E = 3000 and 4 levels: a model
        # of those dimensions holds 4 (E, E) w_delta matrices, 288 MB, so
        # it must be rejected before it is built
        path = str(tmp_path / "model.ckpt")
        with open(path, "wb") as fh:
            fh.write(b"MRBL" + struct.pack("<HBBIIII", 2, 1, 4, 1, 3000, 1, 0))
            fh.write(np.zeros(6001).tobytes())
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="truncated at offset 48032"):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2 ** 20
