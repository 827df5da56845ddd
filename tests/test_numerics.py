import tracemalloc
import weakref

import numpy as np
import pytest

import marble.numerics as nm
from marble.errors import DimensionError, DomainError, NumericError
from marble.network import fuse_level, pool_head
from marble.numerics import Tape, Tensor
from marble.ssmcore import gated_residual, step_size


def rand_tensor(rng, shape, requires_grad=True):
    return Tensor(rng.standard_normal(shape), requires_grad=requires_grad)


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(nm.matmul(a, b).data, b.data)

    def test_selection(self):
        out = nm.matmul(Tensor([[1.0, 0.0]]), Tensor([[0.0], [5.0]]))
        assert np.array_equal(out.data, [[0.0]])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            nm.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(0)
        a = rand_tensor(rng, (3, 4))
        b = rand_tensor(rng, (4, 2))
        err = nm.finite_diff_check(lambda: nm.tsum(nm.matmul(a, b)), [a, b])
        assert err < 1e-6

    def test_backward_skips_an_operand_without_grad(self):
        rng = np.random.default_rng(1)
        x = rand_tensor(rng, (5, 3), requires_grad=False)
        w = rand_tensor(rng, (3, 2))
        with Tape() as tape:
            nm.matmul(x, w)
        (_, _, backward), = tape.nodes
        g = rng.standard_normal((5, 2))
        gx, gw = backward(g)
        assert gx is None
        assert np.array_equal(gw, x.data.T @ g)


def softplus(x: Tensor) -> Tensor:
    """softplus through the step-size node: identity w_delta, zero bias."""
    e_dim = x.shape[1]
    return step_size(x, Tensor(np.eye(e_dim)), Tensor(np.zeros(e_dim)))


def silu_residual(z: Tensor) -> Tensor:
    """z + silu(z) through the gate node: identity gate and out maps, s = 1
    (each product with the identity is exact)."""
    eye = Tensor(np.eye(z.shape[1]))
    return gated_residual(z, Tensor(np.ones(z.shape)), eye, eye)


def parent_rows(y_prev: Tensor, parents) -> Tensor:
    """y_prev[parents] through the fusion node: zero tokens and a [0; I]
    weight, so each output row is exactly its parent's row."""
    d_model = y_prev.shape[1]
    w = np.vstack([np.zeros((d_model, d_model)), np.eye(d_model)])
    return fuse_level(np.zeros((len(parents), d_model)), y_prev, parents,
                      Tensor(w), Tensor(np.zeros(d_model)))


class TestElementwise:
    # softplus, silu, the row gather and the affine map live inside the
    # fused step-size, gate and fusion nodes; these tests drive them there

    def test_silu_at_zero(self):
        assert silu_residual(Tensor([[0.0]])).data[0, 0] == 0.0

    def test_softplus_at_zero(self):
        assert softplus(Tensor([[0.0]])).data[0, 0] == pytest.approx(
            np.log(2.0), abs=1e-12)

    def test_softplus_matches_logaddexp(self):
        tiny = np.finfo(np.float64).tiny
        x = np.r_[np.linspace(-800.0, 800.0, 20_001),
                  0.0, 1e-300, -1e-300, -745.0, 36.0, 710.0]
        out = softplus(Tensor(x[:, None])).data[:, 0]
        want = np.logaddexp(0.0, x)
        normal = want >= tiny
        assert normal.any() and not normal.all()
        assert (np.abs(out[normal] - want[normal])
                <= 1e-15 * want[normal]).all()
        assert (out >= tiny).all()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_softplus_rejects_non_finite(self, bad):
        with pytest.raises(NumericError) as exc:
            softplus(Tensor([[0.0], [bad]]))
        assert "step_size" in str(exc.value)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_softplus_gradient_saturates_exactly(self):
        x = Tensor([[-800.0], [800.0]], requires_grad=True)
        with Tape() as tape:
            tape.backward(nm.tsum(softplus(x)))
        assert np.array_equal(x.grad, [[0.0], [1.0]])

    def test_silu_matches_sigmoid_product(self):
        x = np.random.default_rng(4).standard_normal((1000, 1)) * 20
        assert np.array_equal(silu_residual(Tensor(x)).data,
                              x + x * (1.0 / (1.0 + np.exp(-x))))

    def test_gather_rows_forward_and_backward(self):
        x = Tensor([[1.0], [2.0], [3.0]], requires_grad=True)
        with Tape() as tape:
            out = parent_rows(x, [2, 0, 2])
            tape.backward(nm.tsum(out))
        assert np.array_equal(out.data, [[3.0], [1.0], [3.0]])
        assert np.array_equal(x.grad, [[1.0], [0.0], [2.0]])

    def test_gather_rows_index_error(self):
        with pytest.raises(DimensionError):
            parent_rows(Tensor([[1.0], [2.0]]), [0, 2])
        with pytest.raises(DimensionError):
            parent_rows(Tensor([[1.0], [2.0]]), [-1, 0])

    def test_gather_backward_conserves_mass(self):
        rng = np.random.default_rng(3)
        x = rand_tensor(rng, (5, 3))
        idx = rng.integers(0, 5, size=11)
        g_in = rng.standard_normal((11, 3))
        with Tape() as tape:
            out = parent_rows(x, idx)
            loss = nm.tsum(nm.mul(out, Tensor(g_in)))
            tape.backward(loss)
        assert x.grad.sum() == pytest.approx(g_in.sum(), rel=1e-12)

    @pytest.mark.parametrize("op", [
        pytest.param(nm.exp, id="exp"),
        pytest.param(softplus, id="softplus"),
        pytest.param(silu_residual, id="silu")])
    def test_unary_gradients(self, op):
        rng = np.random.default_rng(7)
        x = rand_tensor(rng, (4, 3))
        err = nm.finite_diff_check(lambda: nm.tsum(op(x)), [x])
        assert err < 1e-6

    def test_binary_gradients(self):
        rng = np.random.default_rng(8)
        a = rand_tensor(rng, (3, 2))
        b = rand_tensor(rng, (3, 2))
        w = rand_tensor(rng, (2, 2))
        for f in (lambda: nm.tsum(nm.mul(a, b)),
                  lambda: nm.tsum(nm.mul(nm.matmul(a, w), b))):
            assert nm.finite_diff_check(f, [a, b, w]) < 1e-6

    def test_affine_matches_product_plus_bias(self):
        rng = np.random.default_rng(10)
        x, y = rng.standard_normal((6, 3)), rng.standard_normal((2, 2))
        w, bias = rng.standard_normal((5, 4)), rng.standard_normal(4)
        parents = [0, 1, 1, 0, 1, 0]
        out = fuse_level(x, Tensor(y), parents, Tensor(w), Tensor(bias)).data
        assert np.array_equal(out, np.hstack([x, y[parents]]) @ w + bias)
        with pytest.raises(DimensionError):
            fuse_level(x, Tensor(y), parents, Tensor(w), Tensor(np.zeros(3)))

    def test_mul_needs_equal_shapes(self):
        with pytest.raises(DimensionError):
            nm.mul(Tensor(np.zeros((3, 2))), Tensor(np.zeros(2)))


def pool_weights(scores):
    """The pool weights `pool_head` gives tokens of these scores (D = 1)."""
    y = Tensor(np.asarray(scores, dtype=np.float64).reshape(-1, 1))
    return pool_head(y, Tensor(np.ones(1)), Tensor(np.ones(1)))[1]


class TestSoftmax:
    """The softmax inside `network.pool_head`, seen through its weights."""

    def test_symmetry(self):
        assert np.allclose(pool_weights([0.0, 0.0]), [0.5, 0.5])

    def test_shift_invariance(self):
        for c in (-3.0, 0.0, 17.5):
            out = pool_weights([c, c, c])
            assert np.allclose(out, 1.0 / 3.0, atol=1e-15)

    def test_no_overflow(self):
        out = pool_weights([1000.0, 0.0])
        # high-precision oracle: exp(-1000) / (1 + exp(-1000))
        assert out[0] == pytest.approx(1.0, abs=1e-12)
        assert out[1] == pytest.approx(np.exp(-1000.0), abs=1e-300)

    def test_sums_to_one(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            out = pool_weights(rng.standard_normal(7) * 10)
            assert abs(out.sum() - 1.0) < 1e-12
            assert (out > 0).all()

    def test_empty_error(self):
        with pytest.raises(DimensionError):
            pool_weights(np.zeros(0))

    def test_gradient(self):
        rng = np.random.default_rng(6)
        x = rand_tensor(rng, (5, 3))
        w, head = rand_tensor(rng, (3,)), Tensor(rng.standard_normal(3))
        err = nm.finite_diff_check(lambda: pool_head(x, w, head)[0], [x, w])
        assert err < 1e-6


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with Tape() as tape:
            tape.backward(nm.tsum(x))
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_square_at_three(self):
        x = Tensor(3.0, requires_grad=True)
        with Tape() as tape:
            tape.backward(nm.mul(x, x))
        assert x.grad.reshape(()).item() == pytest.approx(6.0, abs=1e-12)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        with Tape() as tape:
            y = nm.exp(x)
            with pytest.raises(DimensionError):
                tape.backward(y)

    def test_determinism(self):
        def run():
            rng = np.random.default_rng(12)
            a = rand_tensor(rng, (4, 4))
            b = rand_tensor(rng, (4, 4))
            with Tape() as tape:
                loss = nm.tsum(nm.exp(nm.matmul(a, b)))
                tape.backward(loss)
            return loss.item(), a.grad.copy(), b.grad.copy()

        l1, ga1, gb1 = run()
        l2, ga2, gb2 = run()
        assert l1 == l2
        assert np.array_equal(ga1, ga2) and np.array_equal(gb1, gb2)

    def test_backward_releases_every_node_and_sweeps_once(self):
        rng = np.random.default_rng(13)
        a, b = rand_tensor(rng, (4, 4)), rand_tensor(rng, (4, 4))
        with Tape() as tape:
            loss = nm.tsum(nm.exp(nm.matmul(a, b)))
            recorded = len(tape.nodes)
            tape.backward(loss)
        assert recorded == 3
        assert tape.nodes == [None] * recorded
        with pytest.raises(RuntimeError, match="already swept"):
            tape.backward(loss)

    def test_intermediates_are_freed_during_the_sweep(self):
        # by the time the sweep reaches the first node, the arrays that
        # only later nodes held must be gone
        rng = np.random.default_rng(14)
        x = rand_tensor(rng, (8, 8))
        seen = {}

        def probe(g):
            seen["alive"] = late() is not None
            return (g,)

        with Tape() as tape:
            first = nm.record_primitive("probe", x.data.copy(), [x], probe)
            hidden = nm.exp(nm.exp(first))
            late = weakref.ref(hidden.data)
            loss = nm.tsum(hidden)
            del hidden
            tape.backward(loss)
        assert seen == {"alive": False}

    def test_output_is_freed_before_its_backward_runs(self):
        # a node whose backward does not read its output must not keep it
        # alive while that backward allocates its gradients
        rng = np.random.default_rng(15)
        x = rand_tensor(rng, (8, 8))
        seen = {}

        def twice(g):
            seen["alive"] = own() is not None
            return (2.0 * g,)

        with Tape() as tape:
            doubled = nm.record_primitive("twice", 2.0 * x.data, [x], twice)
            own = weakref.ref(doubled.data)
            loss = nm.tsum(doubled)
            del doubled
            tape.backward(loss)
        assert seen == {"alive": False}
        assert np.array_equal(x.grad, np.full((8, 8), 2.0))

    def test_bound_leaf_gradients_are_not_held_to_the_end(self):
        # k large weights, tiny activations: each weight's gradient goes
        # into its bound .grad when it arrives, so the sweep holds about
        # one of them at a time, not all k
        rng = np.random.default_rng(16)
        n, k = 128, 8
        weights = [rand_tensor(rng, (n, n)) for _ in range(k)]
        for w in weights:
            w.grad = np.full((n, n), np.nan)     # stale: the sweep assigns
        h = Tensor(rng.standard_normal((1, n)) / n)
        with Tape() as tape:
            for w in weights:
                h = nm.matmul(h, w)
            loss = nm.tsum(h)
            tracemalloc.start()
            try:
                tape.backward(loss)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        size = weights[0].data.nbytes
        assert peak < 2.5 * size, (peak, size)
        assert all(np.isfinite(w.grad).all() for w in weights)

    def test_bound_leaf_feeding_two_nodes_gets_the_exact_sum(self):
        rng = np.random.default_rng(17)
        flat = np.full(12, np.nan)                  # stale: the sweep assigns
        w = rand_tensor(rng, (3, 4))
        w.grad = flat.reshape(3, 4)
        x1, x2 = rand_tensor(rng, (2, 3), False), rand_tensor(rng, (5, 3), False)
        with Tape() as tape:
            p, q = nm.matmul(x1, w), nm.matmul(x2, w)
            loss = nm.tsum(nm.mul(nm.exp(nm.tsum(p)), nm.exp(nm.tsum(q))))
            tape.backward(loss)
        e = np.exp(p.data.sum() + q.data.sum())
        # contributions arrive in reverse record order: q's, then p's
        want = x2.data.T @ np.full((5, 4), e) + x1.data.T @ np.full((2, 4), e)
        assert np.array_equal(w.grad, want)
        assert np.shares_memory(w.grad, flat)
        assert np.array_equal(flat, want.ravel())

    def test_nan_fails_fast(self):
        with pytest.raises(NumericError) as exc:
            nm.exp(Tensor([1e6]))
        assert "exp" in str(exc.value)


class TestFiniteDiffCheck:
    def test_square(self):
        x = Tensor(1.0, requires_grad=True)
        assert nm.finite_diff_check(lambda: nm.mul(x, x), [x]) < 1e-9

    def test_softplus_derivative_is_half_at_zero(self):
        x = Tensor([[0.0]], requires_grad=True)
        with Tape() as tape:
            tape.backward(softplus(x))
        assert x.grad.reshape(()).item() == pytest.approx(0.5, abs=1e-12)

    def test_bad_eps(self):
        x = Tensor(1.0, requires_grad=True)
        with pytest.raises(DomainError):
            nm.finite_diff_check(lambda: nm.mul(x, x), [x], eps=0.0)
