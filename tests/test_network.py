"""Tests for the full multi-scale network and its checkpoint format."""

import os
import struct
import tracemalloc

import numpy as np
import pytest

from marble import numerics as nm
from marble.errors import ConfigError, DimensionError, FormatError
from marble.network import (HEAD_CLASSIFICATION, HEAD_SURVIVAL, MarbleParams,
                            attention_pool, classify, encode_slide,
                            fuse_level, init_marble_params, load_checkpoint,
                            param_shapes, risk_score, save_checkpoint)
from marble.numerics import Tape, Tensor
from marble.pyramid import LevelGrid, build_bag


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

    def test_copy_is_independent(self):
        params = init_marble_params(8, 16, 4, 2, HEAD_CLASSIFICATION, 3,
                                    np.random.default_rng(5))
        twin = params.copy()
        np.testing.assert_array_equal(twin.theta, params.theta)
        assert not np.shares_memory(twin.theta, params.theta)
        assert (twin.head, twin.n_classes) == (params.head, params.n_classes)
        before = params.theta.copy()
        twin.pool_w.data[...] = 0.0
        twin.grad[...] = 1.0
        np.testing.assert_array_equal(params.theta, before)
        assert not params.grad.any()
        assert not twin.pool_w.data.any()

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
            tape.backward(nm.dot(out, Tensor(np.array([1.0, -1.0]))))
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
        out = fuse_level(x, y_prev, parents, w, b)
        expected = np.concatenate(
            [x.data, y_prev.data[parents]], axis=1) @ w.data + b.data
        np.testing.assert_allclose(out.data, expected, atol=1e-14)

    def test_pool_weights_sum_to_one(self):
        rng = np.random.default_rng(4)
        y = Tensor(rng.normal(size=(6, 5)))
        w = Tensor(rng.normal(size=5))
        pooled, weights = attention_pool(y, w)
        assert weights.data.sum() == pytest.approx(1.0)
        np.testing.assert_allclose(pooled.data, weights.data @ y.data,
                                   atol=1e-14)

    def test_pool_concentrates_on_high_score_token(self):
        y = np.zeros((4, 3))
        y[2] = 50.0
        pooled, weights = attention_pool(Tensor(y), Tensor(np.ones(3)))
        assert weights.data[2] > 0.999
        np.testing.assert_allclose(pooled.data, y[2], rtol=1e-3)

    def test_heads(self):
        rng = np.random.default_rng(5)
        z = Tensor(rng.normal(size=4))
        cls_w = Tensor(rng.normal(size=(3, 4)))
        cls_b = Tensor(rng.normal(size=3))
        np.testing.assert_allclose(classify(z, cls_w, cls_b).data,
                                   cls_w.data @ z.data + cls_b.data,
                                   atol=1e-14)
        beta = Tensor(rng.normal(size=4))
        assert risk_score(z, beta).data == pytest.approx(
            float(z.data @ beta.data))


class TestEncodeSlide:

    def test_output_shapes(self):
        rng = np.random.default_rng(6)
        bag = small_bag(rng)
        params = init_marble_params(8, 16, 4, 2, HEAD_CLASSIFICATION, 2, rng)
        out = encode_slide(bag, params)
        assert len(out.encoded) == 2
        assert out.encoded[0].shape == (4, 8)
        assert out.encoded[1].shape == (16, 8)
        assert out.pooled.shape == (8,)
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

    def test_full_model_gradient(self):
        rng = np.random.default_rng(12)
        bag = small_bag(rng)
        params = init_marble_params(8, 16, 4, 2, HEAD_CLASSIFICATION, 2, rng)
        leaves = [p for _, p in params.named_params()]

        def f():
            out = encode_slide(bag, params)
            return nm.dot(out.output, Tensor(np.array([1.0, -1.0])))

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
        (14, b"\xff", "not valid UTF-8"),          # first record's name
        (26, struct.pack("<I", 0), "zero dimension"),  # its first dim
    ])
    def test_corrupt_record_header(self, tmp_path, offset, raw, message):
        rng = np.random.default_rng(20)
        params = init_marble_params(8, 16, 4, 1, HEAD_SURVIVAL, 2, rng)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(params, path)
        blob = bytearray(open(path, "rb").read())
        assert blob[14:25] == b"block0.w_in"
        blob[offset:offset + len(raw)] = raw
        open(path, "wb").write(bytes(blob))
        with pytest.raises(FormatError, match=message):
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
        # a 48 KB file whose block0 records claim E = 3000 under a 4-level
        # header: a model of those dimensions holds 4 (E, E) w_delta
        # matrices, 288 MB, so it must be rejected before it is built
        path = str(tmp_path / "model.ckpt")
        with open(path, "wb") as fh:
            fh.write(b"MRBL" + struct.pack("<HBBI", 1, 1, 4, 3))
            for name, shape in (("block0.w_in", (1, 3000)),
                                ("block0.w_b", (3000, 1)),
                                ("cox_beta", (1,))):
                fh.write(struct.pack("<H", len(name)) + name.encode())
                fh.write(struct.pack(f"<B{len(shape)}I", len(shape), *shape))
                fh.write(np.zeros(shape).tobytes())
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="3 records"):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2 ** 20
