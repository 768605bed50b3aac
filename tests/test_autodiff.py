import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dafss import autodiff as ad
from dafss.autodiff import BATCH_NORM_MOMENTUM, NORM_EPS, Tensor, backward, constant, parameter
from dafss.errors import DegenerateBatchError, GraphError, InputError, ShapeError

from conftest import central_difference, check_grads, relative_error


class TestMatmul:
    def test_identity(self):
        a = constant(np.eye(2))
        b = constant([[1.0, 2.0], [3.0, 4.0]])
        out = ad.matmul(a, b)
        np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_hand_product(self):
        out = ad.matmul(constant([[1.0, 2.0]]), constant([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(constant(np.zeros((2, 3))), constant(np.zeros((2, 3))))

    def test_gradient_vs_finite_differences(self, rng):
        a = parameter(rng.standard_normal((3, 4)))
        b = parameter(rng.standard_normal((4, 2)))
        check_grads(lambda: ad.sum_all(ad.matmul(a, b)), {"a": a, "b": b}, tol=1e-4)


class TestSoftmax:
    def test_uniform_on_equal_inputs(self):
        out = ad.softmax(constant([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[1 / 3] * 3], rtol=0, atol=1e-15)

    @given(st.floats(-50, 50), st.floats(-30, 30), st.floats(-700, 700))
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance(self, x, c, shift):
        base = ad.softmax(constant([[x, x + c]])).data
        shifted = ad.softmax(constant([[x + shift, x + c + shift]])).data
        np.testing.assert_allclose(base, shifted, rtol=0, atol=1e-12)

    def test_matches_direct_exp_sum(self):
        x = np.array([[1.0, 2.0, 3.0]])
        expected = np.exp(x) / np.sum(np.exp(x))
        out = ad.softmax(constant(x))
        assert relative_error(out.data, expected) < 1e-12

    def test_rows_sum_to_one(self, rng):
        x = constant(rng.standard_normal((5, 7)) * 30)
        out = ad.softmax(x)
        np.testing.assert_allclose(np.sum(out.data, axis=1), 1.0, atol=1e-9)
        assert np.all(out.data >= 0)

    @pytest.mark.parametrize("op", [ad.softmax, ad.log_softmax], ids=["softmax", "log_softmax"])
    @pytest.mark.parametrize("shape", [(3,), (2, 2, 2)], ids=["vector", "rank_3"])
    def test_non_matrix_rejected(self, op, shape):
        with pytest.raises(ShapeError, match="expects a matrix"):
            op(constant(np.zeros(shape)))

    @pytest.mark.parametrize("op", [ad.softmax, ad.log_softmax], ids=["softmax", "log_softmax"])
    def test_no_columns_rejected(self, op):
        # np.max over an empty row would raise numpy's ValueError instead.
        with pytest.raises(ShapeError, match=r"at least one column, got shape \(2, 0\)"):
            op(constant(np.zeros((2, 0))))

    @pytest.mark.parametrize("op", [ad.softmax, ad.log_softmax], ids=["softmax", "log_softmax"])
    def test_no_rows_accepted(self, op):
        assert op(constant(np.zeros((0, 3)))).shape == (0, 3)

    def test_gradient(self, rng):
        x = parameter(rng.standard_normal((3, 4)))
        w = constant(rng.standard_normal((3, 4)))
        check_grads(lambda: ad.sum_all(ad.mul(ad.softmax(x), w)), {"x": x}, tol=1e-4)

    def test_bitwise_equal_to_textbook_formula(self, rng):
        # exp(x - max) / sum and s * (g - sum(g s)) over each row, one temporary each.
        x = rng.standard_normal((6, 9)) * 20
        g = rng.standard_normal((6, 9))
        e = np.exp(x - np.max(x, axis=1, keepdims=True))
        s = e / np.sum(e, axis=1, keepdims=True)
        p = parameter(x)
        out = ad.softmax(p)
        backward(ad.sum_all(ad.mul(out, constant(g))))
        np.testing.assert_array_equal(out.data, s)
        np.testing.assert_array_equal(p.grad, s * (g - np.sum(g * s, axis=1, keepdims=True)))


def attention_chain(q, k_t, v, c, key_bias=None):
    """The per-head chain that ``attention`` replaces, op by op, with the
    keys given as their transpose ``k_t``."""
    scores = ad.matmul(q, k_t)
    if c != 1.0:
        scores = ad.scale(scores, c)
    if key_bias is not None:
        scores = ad.add(scores, constant(np.broadcast_to(key_bias, scores.shape)))
    return ad.matmul(ad.softmax(scores), v)


def kept_tiles(out):
    """The ``(e, l)`` tiles that a recorded ``attention`` node keeps."""
    cells = dict(zip(out._backward.__code__.co_freevars,
                     (cell.cell_contents for cell in out._backward.__closure__)))
    return cells["tiles"]


class TestAttention:
    @staticmethod
    def run(op, tensors, w, *args):
        for t in tensors:
            t.grad = None
        out = op(*args)
        backward(ad.sum_all(ad.mul(out, w)))
        return [out.data] + [t.grad for t in tensors]

    @classmethod
    def against_chain(cls, q, k, v, w, c, key_bias=None):
        """Output and q, k, v gradients of ``attention`` and of the chain."""
        k_t = parameter(k.data.T)
        got = cls.run(ad.attention, (q, k, v), w, q, k, v, c, key_bias)
        ref = cls.run(attention_chain, (q, k_t, v), w, q, k_t, v, c, key_bias)
        ref[2] = ref[2].T  # the gradient of k is that of k_t, transposed
        return got, ref

    @pytest.mark.parametrize("c", [1.0, 0.25, 1.0 / np.sqrt(3)])
    @pytest.mark.parametrize("n", [1, 17, 256])
    def test_one_tile_matches_chain(self, n, c):
        assert ad.ATTENTION_TILE_ELEMS // n >= n  # one tile of n rows over n keys
        rng = np.random.default_rng([n, int(1000 * c)])
        q = parameter(rng.standard_normal((n, 5)) * 3)
        k = parameter(rng.standard_normal((n, 5)) * 3)
        v = parameter(rng.standard_normal((n, 4)))
        w = constant(rng.standard_normal((n, 4)))
        got, ref = self.against_chain(q, k, v, w, c)
        for what, a, b in zip(("out", "q", "k", "v"), got, ref):
            assert relative_error(a, b) <= 1e-13, what

    @pytest.mark.parametrize("c", [1.0, 0.7])
    @pytest.mark.parametrize("n", [4, 7, 10])
    def test_several_tiles_match_chain_and_finite_differences(self, monkeypatch, n, c):
        monkeypatch.setattr(ad, "ATTENTION_TILE_ELEMS", 3 * n)  # 3 rows per tile over n keys
        rng = np.random.default_rng([n, int(10 * c)])
        # k and v are one shared tensor, as in the experts' factored attention.
        x = parameter(rng.standard_normal((n, 3)))
        core = parameter(rng.standard_normal((3, 3)))
        w = constant(rng.standard_normal((n, 3)))
        assert len(kept_tiles(ad.attention(ad.matmul(x, core), x, x, c))) >= 2

        x_t = parameter(x.data.T)  # the chain's keys: a leaf of their own

        def loss(op, keys):
            return ad.sum_all(ad.mul(op(ad.matmul(x, core), keys, x, c), w))

        def run(op, keys):
            x.grad = x_t.grad = core.grad = None
            value = loss(op, keys)
            backward(value)
            if keys is x_t:  # fold the keys' gradient back into x
                x.grad += x_t.grad.T
            return value.data, x.grad, core.grad

        for what, a, b in zip(("loss", "x", "core"), run(ad.attention, x), run(attention_chain, x_t)):
            assert relative_error(a, b) <= 1e-12, what
        check_grads(lambda: loss(ad.attention, x), {"x": x, "core": core}, tol=1e-6)

    def test_recorded_graph_keeps_only_exp_tiles_and_row_sums(self, monkeypatch, rng):
        monkeypatch.setattr(ad, "ATTENTION_TILE_ELEMS", 15)  # 3 rows per tile over 5 keys
        q = parameter(rng.standard_normal((7, 2)))
        k = constant(rng.standard_normal((5, 2)))
        v = constant(rng.standard_normal((5, 4)))
        out = ad.attention(q, k, v)
        tiles = kept_tiles(out)
        assert [e.shape for e, _ in tiles] == [(3, 5), (3, 5), (1, 5)]
        assert [l.shape for _, l in tiles] == [(3, 1), (3, 1), (1, 1)]
        e = np.vstack([e for e, _ in tiles])
        assert np.all(np.max(e, axis=1) == 1.0)  # exp(0) at each row's largest score
        np.testing.assert_array_equal(np.vstack([l for _, l in tiles]),
                                      np.sum(e, axis=1, keepdims=True))
        with ad.no_grad():
            out = ad.attention(q, k, v)
        assert not out.requires_grad
        assert out._parents == () and out._backward is None

    @pytest.mark.parametrize("tile_elems", [ad.ATTENTION_TILE_ELEMS, 12])
    def test_key_bias_of_log_counts_equals_expanded_keys(self, monkeypatch, tile_elems):
        # Distinct keys and values, each weighed by a bias of log(count),
        # against attention over the keys and values repeated count times.
        monkeypatch.setattr(ad, "ATTENTION_TILE_ELEMS", tile_elems)
        rng = np.random.default_rng(tile_elems)
        counts = np.array([3, 1, 4, 2])
        group = np.repeat(np.arange(len(counts)), counts)
        rng.shuffle(group)
        q = parameter(rng.standard_normal((8, 3)) * 2)
        k = parameter(rng.standard_normal((len(counts), 3)) * 2)
        v = parameter(rng.standard_normal((len(counts), 5)))
        k_all, v_all = parameter(k.data[group]), parameter(v.data[group])
        w = constant(rng.standard_normal((8, 5)))
        tiles = len(kept_tiles(ad.attention(q, k, v, 0.6, np.log(counts))))
        assert tiles == (1 if tile_elems > 12 else 3)  # 3 rows per tile at 12 over 4 keys
        got = TestAttention.run(ad.attention, (q, k, v), w, q, k, v, 0.6, np.log(counts))
        ref = TestAttention.run(ad.attention, (q, k_all, v_all), w, q, k_all, v_all, 0.6)
        for i in (2, 3):  # the expanded keys' and values' gradients, summed per group
            ref[i] = np.stack([ref[i][group == u].sum(axis=0) for u in range(len(counts))])
        for what, a, b in zip(("out", "q", "k", "v"), got, ref):
            assert relative_error(a, b) <= 1e-13, what

    @pytest.mark.parametrize("case", ["scores_1e3", "equal_scores", "log_counts"])
    def test_extreme_scores_stay_finite_and_match_chain(self, monkeypatch, case):
        # Scores of magnitude 1e3 (exp of the unshifted ones overflows), a
        # query row whose scores are all equal, and a key bias of log counts,
        # over several tiles; pytest turns any floating-point warning into
        # an error.
        monkeypatch.setattr(ad, "ATTENTION_TILE_ELEMS", 3 * 9)  # 3 rows per tile over 9 keys
        rng = np.random.default_rng(7)
        q = rng.standard_normal((8, 5)) * (20.0 if case == "scores_1e3" else 2.0)
        k = rng.standard_normal((9, 5)) * (20.0 if case == "scores_1e3" else 2.0)
        if case == "equal_scores":
            q[3] = 0.0
        bias = np.log(rng.integers(1, 50, size=9)) if case == "log_counts" else None
        if case == "scores_1e3":
            assert np.max(np.abs(q @ k.T)) > 1e3
        v = rng.standard_normal((9, 4))
        got, ref = self.against_chain(parameter(q), parameter(k), parameter(v),
                                      constant(rng.standard_normal((8, 4))), 1.0, bias)
        if case == "equal_scores":  # uniform weights: the mean value row
            assert relative_error(got[0][3], np.mean(v, axis=0)) <= 1e-15
        for what, a, b in zip(("out", "q", "k", "v"), got, ref):
            assert np.all(np.isfinite(a)), what
            assert relative_error(a, b) <= 1e-12, what

    def test_losses_backpropagated_in_turn_equal_their_sum(self, monkeypatch, rng):
        # One multi-tile self-attention graph, reused by two backward sweeps,
        # against one sweep of the summed loss through a fresh graph.
        monkeypatch.setattr(ad, "ATTENTION_TILE_ELEMS", 2 * 9)  # 2 rows per tile over 9 keys
        x = parameter(rng.standard_normal((9, 4)))
        wa, wb = constant(rng.standard_normal((9, 4))), constant(rng.standard_normal((9, 4)))
        out = ad.attention(x, x, x, 0.5)
        assert len(kept_tiles(out)) >= 2
        backward(ad.sum_all(ad.mul(out, wa)))
        backward(ad.sum_all(ad.mul(out, wb)))
        in_turn, x.grad = x.grad, None
        out = ad.attention(x, x, x, 0.5)
        backward(ad.add(ad.sum_all(ad.mul(out, wa)), ad.sum_all(ad.mul(out, wb))))
        assert relative_error(in_turn, x.grad) <= 1e-13

    @pytest.mark.parametrize("bias, error", [(np.zeros(3), ShapeError),
                                             (np.zeros((1, 2)), ShapeError),
                                             (np.array([0.0, np.inf]), InputError),
                                             (np.array([np.nan, 0.0]), InputError)])
    def test_key_bias_shape_and_finiteness(self, bias, error):
        x = constant(np.zeros((2, 3)))
        with pytest.raises(error, match="key_bias"):
            ad.attention(x, x, x, key_bias=bias)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\) x \(2, 4\)"):
            ad.attention(constant(np.zeros((2, 3))), constant(np.zeros((2, 4))),
                         constant(np.zeros((4, 1))))

    @pytest.mark.parametrize("requires_grad", [False, True])
    def test_zero_keys_rejected(self, requires_grad):
        q = parameter(np.zeros((2, 3))) if requires_grad else constant(np.zeros((2, 3)))
        with pytest.raises(ShapeError, match=r"m >= 1, got \(2, 3\) x \(0, 3\) x \(0, 4\)"):
            ad.attention(q, constant(np.zeros((0, 3))), constant(np.zeros((0, 4))))


class TestLogSoftmax:
    def test_matches_log_of_softmax(self, rng):
        x = rng.standard_normal((4, 5))
        ls = ad.log_softmax(constant(x)).data
        s = ad.softmax(constant(x)).data
        assert relative_error(ls, np.log(s)) < 1e-12

    def test_gradient(self, rng):
        x = parameter(rng.standard_normal((3, 4)))
        w = constant(rng.standard_normal((3, 4)))
        check_grads(lambda: ad.sum_all(ad.mul(ad.log_softmax(x), w)), {"x": x}, tol=1e-4)


class TestLayerNorm:
    def test_constant_row_maps_to_zero(self):
        x = constant(np.full((1, 4), 3.7))
        out = ad.layer_norm(x, constant(np.ones(4)), constant(np.zeros(4)))
        np.testing.assert_array_equal(out.data, np.zeros((1, 4)))

    def test_row_mean_is_zero(self, rng):
        x = constant(rng.standard_normal((6, 5)) * 4 + 2)
        out = ad.layer_norm(x, constant(np.ones(5)), constant(np.zeros(5)))
        np.testing.assert_allclose(np.mean(out.data, axis=1), 0.0, atol=1e-10)

    def test_gradient(self, rng):
        x = parameter(rng.standard_normal((2, 5)))
        gamma = parameter(rng.standard_normal(5))
        beta = parameter(rng.standard_normal(5))
        w = constant(rng.standard_normal((2, 5)))
        check_grads(
            lambda: ad.sum_all(ad.mul(ad.layer_norm(x, gamma, beta), w)),
            {"x": x, "gamma": gamma, "beta": beta},
            tol=1e-4,
        )


def running_stats(d):
    """Fresh batch-norm running statistics: zero mean, unit variance."""
    return Tensor(np.zeros(d), name="mean"), Tensor(np.ones(d), name="var")


class TestBatchNorm:
    def test_train_column_means_zero(self, rng):
        x = constant(rng.standard_normal((8, 3)) * 2 + 5)
        out = ad.batch_norm(x, constant(np.ones(3)), constant(np.zeros(3)), *running_stats(3),
                            train=True)
        np.testing.assert_allclose(np.mean(out.data, axis=0), 0.0, atol=1e-10)

    def test_eval_passthrough_with_identity_stats(self, rng):
        x = rng.standard_normal((4, 3))
        gamma = rng.standard_normal(3)
        beta = rng.standard_normal(3)
        mean, var = running_stats(3)
        var.data -= NORM_EPS  # so that var + NORM_EPS is exactly 1
        out = ad.batch_norm(constant(x), constant(gamma), constant(beta), mean, var, train=False)
        np.testing.assert_array_equal(out.data, gamma * x + beta)

    def test_train_updates_running_stats(self, rng):
        x = rng.standard_normal((16, 2)) + 3.0
        mean, var = running_stats(2)
        ad.batch_norm(constant(x), constant(np.ones(2)), constant(np.zeros(2)), mean, var,
                      train=True)
        m = BATCH_NORM_MOMENTUM
        np.testing.assert_allclose(mean.data, m * x.mean(axis=0))
        np.testing.assert_allclose(var.data, (1 - m) + m * x.var(axis=0))
        assert not mean.requires_grad and not var.requires_grad

    def test_degenerate_batch(self):
        mean, var = running_stats(3)
        with pytest.raises(DegenerateBatchError):
            ad.batch_norm(constant(np.zeros((1, 3))), constant(np.ones(3)), constant(np.zeros(3)),
                          mean, var, train=True)
        assert mean.data.tobytes() == np.zeros(3).tobytes()

    def test_gradient_train_mode(self, rng):
        x = parameter(rng.standard_normal((4, 3)))
        gamma = parameter(rng.standard_normal(3))
        beta = parameter(rng.standard_normal(3))
        w = constant(rng.standard_normal((4, 3)))

        def make_loss():
            return ad.sum_all(ad.mul(ad.batch_norm(x, gamma, beta, *running_stats(3), train=True), w))

        check_grads(make_loss, {"x": x, "gamma": gamma, "beta": beta}, tol=1e-4)


class TestWeightedBatchNorm:
    """``batch_norm(x, counts=c)`` is batch norm over ``np.repeat(x, c, 0)``,
    its output gathered to those rows."""

    COUNTS = np.array([3, 1, 5, 2])

    @staticmethod
    def grouped_and_expanded(x0, counts, train):
        """Output, running statistics and gradients of the weighted batch
        norm gathered to the expanded rows, and of plain batch norm over
        them, under one upstream gradient."""
        rng = np.random.default_rng(7)
        d = x0.shape[1]
        inverse = np.repeat(np.arange(len(counts)), counts)
        g0, b0, up = rng.standard_normal(d), rng.standard_normal(d), rng.standard_normal((len(inverse), d))
        group_starts = np.r_[0, np.cumsum(counts)[:-1]]
        sides = []
        for grouped in (True, False):
            x = parameter(x0 if grouped else x0[inverse])
            gamma, beta = parameter(g0), parameter(b0)
            mean, var = Tensor(np.full(d, 0.5), name="mean"), Tensor(np.full(d, 2.0), name="var")
            out = ad.batch_norm(x, gamma, beta, mean, var, train, counts=counts if grouped else None)
            if grouped:
                out = ad.take_rows(out, inverse)
            backward(ad.sum_all(ad.mul(out, constant(up))))
            gx = x.grad if grouped else np.add.reduceat(x.grad, group_starts)
            sides.append((out.data, mean.data, var.data, gx, gamma.grad, beta.grad))
        return sides

    @pytest.mark.parametrize("train", [True, False])
    def test_equals_batch_norm_over_expanded_rows(self, rng, train):
        x0 = rng.standard_normal((4, 6)) * 3 + 1
        got, ref = self.grouped_and_expanded(x0, self.COUNTS, train)
        for what, a, b in zip(("out", "running mean", "running var", "x grad summed per group",
                               "gamma grad", "beta grad"), got, ref):
            assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(b))), what

    @pytest.mark.parametrize("train", [True, False])
    def test_gradient(self, rng, train):
        x = parameter(rng.standard_normal((4, 3)))
        gamma = parameter(rng.standard_normal(3))
        beta = parameter(rng.standard_normal(3))
        inverse = np.repeat(np.arange(4), self.COUNTS)
        w = constant(rng.standard_normal((len(inverse), 3)))

        def make_loss():
            mean, var = Tensor(np.full(3, 0.5), name="mean"), Tensor(np.full(3, 2.0), name="var")
            out = ad.batch_norm(x, gamma, beta, mean, var, train, counts=self.COUNTS)
            return ad.sum_all(ad.mul(ad.take_rows(out, inverse), w))

        check_grads(make_loss, {"x": x, "gamma": gamma, "beta": beta}, tol=1e-4)

    def test_one_row_standing_for_five_trains(self, rng):
        # All points of a query can share one row; the batch then has 5 rows.
        x0 = rng.standard_normal((1, 3))
        mean, var = running_stats(3)
        beta = rng.standard_normal(3)
        out = ad.batch_norm(parameter(x0), parameter(np.ones(3)), constant(beta), mean, var,
                            train=True, counts=np.array([5]))
        np.testing.assert_array_equal(out.data, beta[None, :])
        np.testing.assert_allclose(mean.data, BATCH_NORM_MOMENTUM * x0[0])
        assert var.data.tobytes() == np.full(3, 1.0 - BATCH_NORM_MOMENTUM).tobytes()

    def test_one_row_standing_for_one_is_degenerate(self):
        mean, var = running_stats(3)
        with pytest.raises(DegenerateBatchError, match="got 1"):
            ad.batch_norm(constant(np.ones((1, 3))), constant(np.ones(3)), constant(np.zeros(3)),
                          mean, var, train=True, counts=np.array([1]))
        assert mean.data.tobytes() == np.zeros(3).tobytes()

    def test_counts_must_match_rows(self):
        with pytest.raises(ShapeError, match="counts"):
            ad.batch_norm(constant(np.ones((3, 2))), constant(np.ones(2)), constant(np.zeros(2)),
                          *running_stats(2), train=True, counts=np.array([2, 2]))


def norm_reference(x, gamma, beta, g, axis, stats=None):
    """Forward and gradients by the np.var formula, stats from ``x`` unless given."""
    mu, var = stats if stats is not None else (np.mean(x, axis=axis, keepdims=True),
                                               np.var(x, axis=axis, keepdims=True))
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = (x - mu) * inv
    dxhat = g * gamma
    if stats is None:
        m1 = np.mean(dxhat, axis=axis, keepdims=True)
        m2 = np.mean(dxhat * xhat, axis=axis, keepdims=True)
        gx = inv * (dxhat - m1 - xhat * m2)
    else:
        gx = dxhat * inv
    return xhat * gamma + beta, gx, np.sum(g * xhat, axis=0), np.sum(g, axis=0)


class TestNormsBitwise:
    @pytest.mark.parametrize("shape", [(2, 5), (4, 3), (9, 16), (37, 64)])
    @pytest.mark.parametrize("kind", ["layer", "batch_train", "batch_eval"])
    def test_forward_and_gradients_equal_np_var_formula(self, kind, shape):
        rng = np.random.default_rng(list(shape))
        x0 = rng.standard_normal(shape) * 3 + 1
        g0, b0, up = (rng.standard_normal(shape[1]), rng.standard_normal(shape[1]),
                      rng.standard_normal(shape))
        x, gamma, beta = parameter(x0), parameter(g0), parameter(b0)
        if kind == "layer":
            out = ad.layer_norm(x, gamma, beta)
            ref = norm_reference(x0, g0, b0, up, axis=1)
        else:
            mean = Tensor(rng.standard_normal(shape[1]), name="mean")
            var = Tensor(rng.uniform(0.5, 2.0, shape[1]), name="var")
            stats = (mean.data, var.data) if kind == "batch_eval" else None
            ref = norm_reference(x0, g0, b0, up, axis=0, stats=stats)
            running_var = 0.9 * var.data + 0.1 * np.var(x0, axis=0)
            out = ad.batch_norm(x, gamma, beta, mean, var, train=kind == "batch_train")
            if kind == "batch_train":
                assert var.data.tobytes() == running_var.tobytes()
        backward(ad.sum_all(ad.mul(out, constant(up))))
        for what, a, b in zip(("out", "x", "gamma", "beta"),
                              (out.data, x.grad, gamma.grad, beta.grad), ref):
            assert a.tobytes() == b.tobytes(), what


class TestElementwise:
    def test_relu_definition(self):
        out = ad.relu(constant([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_sigmoid_at_zero(self):
        assert ad.sigmoid(constant([0.0])).data[0] == 0.5

    def test_binary_shape_mismatch(self):
        for op in (ad.add, ad.sub, ad.mul):
            with pytest.raises(ShapeError):
                op(constant(np.zeros(3)), constant(np.zeros(4)))

    def test_sigmoid_saturates_without_overflow(self):
        # exp only ever sees -|x|, so no overflow warning fails the test
        x = parameter([-800.0, 800.0])
        out = ad.sigmoid(x)
        assert out.data[1] == 1.0
        assert np.isfinite(out.data[0]) and out.data[0] >= 0.0
        assert np.all(np.isfinite(backward(ad.sum_all(out))[x]))

    def test_sigmoid_gradient(self, rng):
        x = parameter(rng.standard_normal(6))
        check_grads(lambda: ad.sum_all(ad.sigmoid(x)), {"x": x}, tol=1e-4)

    def test_safe_log_mul_gradients(self, rng):
        x = parameter(rng.uniform(0.5, 2.0, size=5))
        y = parameter(rng.standard_normal(5))
        check_grads(lambda: ad.sum_all(ad.mul(ad.safe_log(x), ad.sigmoid(y))), {"x": x, "y": y},
                    tol=1e-4)

    def test_safe_log_floor_blocks_gradient(self):
        x = parameter([1e-30, 2.0])
        loss = ad.sum_all(ad.safe_log(x))
        grads = backward(loss)
        np.testing.assert_allclose(grads[x], [0.0, 0.5])
        assert ad.safe_log(constant([1e-30])).data[0] == np.log(1e-12)

    def test_rowvec_ops(self, rng):
        x = parameter(rng.standard_normal((4, 3)))
        v = parameter(rng.standard_normal(3))
        check_grads(lambda: ad.sum_all(ad.add_rowvec(x, v)), {"x": x, "v": v}, tol=1e-4)
        check_grads(lambda: ad.sum_all(ad.mul_rowvec(x, v)), {"x": x, "v": v}, tol=1e-4)


# Column ranges of one [t, 5] tensor: one range repeated, one the full width.
SLICES = [(0, 2), (1, 4), (1, 4), (0, 5)]


def padded_slice_grads(shape, weights, prior=None):
    """The gradient that ``SLICES`` with these upstream ``weights`` leave in
    their input, built with one zero-padded full-width buffer per slice.
    Integer weights keep every sum exact, whatever order slices arrive in."""
    total = np.zeros(shape) if prior is None else prior.copy()
    for (lo, hi), w in zip(SLICES, weights):
        full = np.zeros(shape)
        full[:, lo:hi] = w
        total += full
    return total


class TestConcat:
    def test_definition(self):
        out = ad.concat([constant([[1.0, 2.0]]), constant([[3.0, 4.0]])], axis=1)
        np.testing.assert_array_equal(out.data, [[1.0, 2.0, 3.0, 4.0]])

    def test_empty_along_axis_is_identity(self):
        x = constant([[1.0, 2.0]])
        empty = constant(np.zeros((1, 0)))
        out = ad.concat([x, empty], axis=1)
        np.testing.assert_array_equal(out.data, x.data)

    def test_incompatible_shapes(self):
        with pytest.raises(ShapeError):
            ad.concat([constant(np.zeros((2, 2))), constant(np.zeros((3, 2)))], axis=1)

    def test_backward_routes_slices(self, rng):
        a = parameter(rng.standard_normal((2, 3)))
        b = parameter(rng.standard_normal((2, 2)))
        x = parameter(rng.standard_normal((2, 5)))
        widths = [hi - lo for lo, hi in SLICES]
        w = constant(rng.integers(-3, 4, (2, 5 + sum(widths))).astype(float))

        def loss():
            parts = [a, b] + [ad.slice_cols(x, lo, hi) for lo, hi in SLICES]
            return ad.sum_all(ad.mul(ad.concat(parts, axis=1), w))

        weights = np.split(w.data, np.cumsum([3, 2] + widths)[:-1], axis=1)
        grads = backward(loss())
        np.testing.assert_array_equal(grads[a], weights[0])
        np.testing.assert_array_equal(grads[b], weights[1])
        assert grads[x].tobytes() == padded_slice_grads(x.shape, weights[2:]).tobytes()
        prior = x.grad.copy()  # x now holds a gradient; the next sweep adds to it
        backward(loss())
        assert x.grad.tobytes() == padded_slice_grads(x.shape, weights[2:], prior).tobytes()
        a.grad = b.grad = x.grad = None
        check_grads(lambda: ad.sum_all(ad.concat([a, b], axis=1)), {"a": a, "b": b}, tol=1e-4)

    def test_slice_cols_roundtrip(self, rng):
        x = parameter(rng.standard_normal((3, 5)))
        left = ad.slice_cols(x, 0, 2)
        right = ad.slice_cols(x, 2, 5)
        np.testing.assert_array_equal(np.hstack([left.data, right.data]), x.data)
        # A view, so a recorded graph holds no copy of the columns.
        assert np.shares_memory(left.data, x.data) and np.shares_memory(right.data, x.data)
        weights = [rng.integers(-3, 4, (3, hi - lo)).astype(float) for lo, hi in SLICES]

        def loss():
            return functools.reduce(ad.add, [ad.sum_all(ad.mul(ad.slice_cols(x, lo, hi), constant(w)))
                                             for (lo, hi), w in zip(SLICES, weights)])

        for _ in range(2):  # the second sweep adds to the gradient the first left in x
            prior = None if x.grad is None else x.grad.copy()
            backward(loss())
            assert x.grad.tobytes() == padded_slice_grads(x.shape, weights, prior).tobytes()
        x.grad = None
        check_grads(lambda: ad.sum_all(ad.mul(ad.slice_cols(x, 1, 4), ad.slice_cols(x, 1, 4))), {"x": x}, tol=1e-4)


def summed_rows(idx, g, n_rows):
    """The gradient that ``take_rows`` owes its input: row ``u`` is the sum
    of the rows of ``g`` at the positions where ``idx`` is ``u``."""
    out = np.zeros((n_rows, g.shape[1]))
    for i, u in enumerate(idx):
        out[u] += g[i]
    return out


class TestTakeRows:
    IDX = np.array([2, 0, 2, 2, 0, 4])  # repeats 0 and 2, leaves 1 and 3 out

    def test_gradient_with_repeated_and_unused_rows(self, rng):
        x = parameter(rng.standard_normal((5, 3)))
        w = constant(rng.standard_normal((len(self.IDX), 3)))
        out = ad.take_rows(x, self.IDX)
        assert out.data.tobytes() == x.data[self.IDX].tobytes()
        grads = backward(ad.sum_all(ad.mul(out, w)))
        assert relative_error(grads[x], summed_rows(self.IDX, w.data, 5)) <= 1e-15
        assert not grads[x][[1, 3]].any()
        check_grads(lambda: ad.sum_all(ad.mul(ad.take_rows(x, self.IDX), ad.take_rows(x, self.IDX))),
                    {"x": x}, tol=1e-6)

    def test_second_backward_through_shared_subgraph_adds(self, rng):
        # Integer weights keep every sum exact, whatever order rows arrive in.
        x = parameter(rng.standard_normal((5, 3)))
        w1, w2 = (rng.integers(-3, 4, (len(self.IDX), 3)).astype(float) for _ in range(2))
        shared = ad.take_rows(ad.scale(x, 2.0), self.IDX)
        backward(ad.sum_all(ad.mul(shared, constant(w1))))
        first = x.grad.copy()
        assert first.tobytes() == (2.0 * summed_rows(self.IDX, w1, 5)).tobytes()
        backward(ad.sum_all(ad.mul(shared, constant(w2))))
        assert x.grad.tobytes() == (first + 2.0 * summed_rows(self.IDX, w2, 5)).tobytes()

    def test_empty_index_gives_zero_gradient(self, rng):
        x = parameter(rng.standard_normal((3, 2)))
        out = ad.take_rows(x, np.array([], dtype=np.int64))
        assert out.shape == (0, 2)
        backward(ad.sum_all(out))
        assert x.grad.tobytes() == np.zeros((3, 2)).tobytes()

    @pytest.mark.parametrize("idx, error, match", [
        (np.array([0, 3]), InputError, "index 3 at position 1 outside"),
        (np.array([-1, 0]), InputError, "index -1 at position 0 outside"),
        (np.array([0.0, 1.0]), InputError, "integers"),
        (np.array([True, False]), InputError, "integers"),
        (np.array([[0, 1]]), ShapeError, "1-D"),
    ])
    def test_malformed_index(self, idx, error, match):
        with pytest.raises(error, match=match):
            ad.take_rows(constant(np.zeros((3, 2))), idx)

    def test_input_must_be_a_matrix(self):
        with pytest.raises(ShapeError, match="matrix"):
            ad.take_rows(constant(np.zeros(3)), np.array([0]))


def weighted_rows(x, idx, weights):
    """Row ``i`` is ``sum_j weights[i, j] * x[idx[i, j]]``, one term at a time."""
    out = np.zeros((len(idx), x.shape[1]))
    for i in range(len(idx)):
        for j in range(idx.shape[1]):
            out[i] += weights[i, j] * x[idx[i, j]]
    return out


def spread_rows(idx, weights, g, n_rows):
    """The gradient that the weighted ``take_rows`` owes its input: row
    ``u`` sums ``weights[i, j] * g[i]`` over the positions where ``idx`` is ``u``."""
    out = np.zeros((n_rows, g.shape[1]))
    for i in range(len(idx)):
        for j in range(idx.shape[1]):
            out[idx[i, j]] += weights[i, j] * g[i]
    return out


class TestWeightedTakeRows:
    # Row 0 reads row 2 twice, row 1 reads row 4 twice, row 3 reads row 1
    # three times; rows 1 and 3 of x are read only with a zero weight here
    # and there, and no result row is fed by row 3 alone.
    IDX = np.array([[2, 0, 2], [4, 4, 1], [0, 3, 3], [1, 1, 1]])
    WEIGHTS = np.array([[0.5, -1.25, 2.0], [0.0, 1.5, 0.75], [3.0, 0.0, -0.5], [1.0, 0.0, 0.25]])

    @pytest.mark.parametrize("tile_rows", [ad.GATHER_TILE_ROWS, 3])
    def test_forward_is_the_weighted_sum_of_the_rows(self, monkeypatch, rng, tile_rows):
        monkeypatch.setattr(ad, "GATHER_TILE_ROWS", tile_rows)
        x = rng.standard_normal((5, 3))
        out = ad.take_rows(constant(x), self.IDX, self.WEIGHTS).data
        assert out.shape == (4, 3)
        assert relative_error(out, weighted_rows(x, self.IDX, self.WEIGHTS)) <= 1e-15

    def test_gradient_with_repeated_indices_and_zero_weights(self, rng):
        x = parameter(rng.standard_normal((5, 3)))
        w = constant(rng.standard_normal((4, 3)))
        grads = backward(ad.sum_all(ad.mul(ad.take_rows(x, self.IDX, self.WEIGHTS), w)))
        assert relative_error(grads[x], spread_rows(self.IDX, self.WEIGHTS, w.data, 5)) <= 1e-15
        x.grad = None
        check_grads(lambda: ad.sum_all(ad.mul(ad.take_rows(x, self.IDX, self.WEIGHTS),
                                              ad.take_rows(x, self.IDX[::-1], self.WEIGHTS))),
                    {"x": x}, tol=1e-6)

    def test_neighbour_sum_over_the_rows_themselves(self, rng):
        # k > 1 indices into the result's own rows, as the decoder uses it.
        x = parameter(rng.standard_normal((6, 4)))
        idx = np.array([rng.permutation(6)[:3] for _ in range(6)])
        weights = rng.uniform(0.0, 1.0, (6, 3))
        weights[::2, 1] = 0.0
        check_grads(lambda: ad.sum_all(ad.mul(ad.sigmoid(ad.take_rows(x, idx, weights)), x)),
                    {"x": x}, tol=1e-6)

    def test_second_backward_through_shared_subgraph_adds(self, rng):
        # Integer weights and gradients keep every sum exact, whatever the order.
        x = parameter(rng.standard_normal((5, 3)))
        weights = np.array([[1.0, -2.0, 3.0], [0.0, 1.0, 2.0], [-1.0, 0.0, 1.0], [2.0, 0.0, 1.0]])
        w1, w2 = (rng.integers(-3, 4, (4, 3)).astype(float) for _ in range(2))
        shared = ad.take_rows(ad.scale(x, 2.0), self.IDX, weights)
        backward(ad.sum_all(ad.mul(shared, constant(w1))))
        first = x.grad.copy()
        assert first.tobytes() == (2.0 * spread_rows(self.IDX, weights, w1, 5)).tobytes()
        backward(ad.sum_all(ad.mul(shared, constant(w2))))
        assert x.grad.tobytes() == (first + 2.0 * spread_rows(self.IDX, weights, w2, 5)).tobytes()

    @pytest.mark.parametrize("idx, weights, error, match", [
        (np.array([0, 1]), np.ones((2, 1)), ShapeError, r"\[M, k\] index.*\(2,\).*\(2, 1\)"),
        (np.zeros((2, 2, 1), dtype=int), np.ones((2, 2, 1)), ShapeError, r"\[M, k\] index"),
        (np.zeros((2, 2), dtype=int), np.ones((2, 3)), ShapeError, r"index \(2, 2\) and weights \(2, 3\)"),
        (np.zeros((2, 2)), np.ones((2, 2)), InputError, "integers"),
        (np.array([[0, 1], [2, 3]]), np.ones((2, 2)), InputError, "index 3 at position 1, 1 outside"),
        (np.zeros((2, 2), dtype=int), np.array([[1.0, np.nan], [1.0, 1.0]]), InputError,
         "weight nan at position 0, 1 is not finite"),
        (np.zeros((2, 2), dtype=int), np.array([[1.0, 1.0], [-np.inf, 1.0]]), InputError,
         "weight -inf at position 1, 0 is not finite"),
        (np.zeros((2, 2), dtype=int), np.ones((2, 2), dtype=bool), InputError, "real numbers"),
    ])
    def test_malformed_index_or_weights(self, idx, weights, error, match):
        with pytest.raises(error, match=match):
            ad.take_rows(constant(np.zeros((3, 2))), idx, weights)


class TestStopGradient:
    def test_identity_forward(self, rng):
        x = parameter(rng.standard_normal((3, 3)))
        sg = ad.stop_gradient(x)
        np.testing.assert_array_equal(sg.data, x.data)

    def test_detached_from_graph(self, rng):
        x = parameter(rng.standard_normal(4))
        y = parameter(rng.standard_normal(4))
        grads = backward(ad.sum_all(ad.mul(ad.stop_gradient(x), y)))
        assert x not in grads
        assert x.grad is None

    def test_gradient_flows_to_other_factor(self, rng):
        x = parameter(rng.standard_normal(4))
        y = parameter(rng.standard_normal(4))
        grads = backward(ad.sum_all(ad.mul(ad.stop_gradient(x), y)))
        np.testing.assert_allclose(grads[y], x.data, atol=1e-15)
        y.grad = None
        fd = central_difference(lambda: ad.sum_all(ad.mul(ad.stop_gradient(x), y)), y)
        assert relative_error(x.data, fd) < 1e-6


class TestNoGrad:
    def test_ops_record_no_graph(self, rng):
        a = parameter(rng.standard_normal((3, 4)))
        b = parameter(rng.standard_normal((4, 2)))
        with ad.no_grad():
            out = ad.softmax(ad.matmul(a, b))
        assert not out.requires_grad
        assert out._parents == () and out._backward is None
        np.testing.assert_array_equal(out.data, ad.softmax(ad.matmul(a, b)).data)

    def test_state_restored_after_nesting(self, rng):
        a = parameter(rng.standard_normal(3))
        with ad.no_grad():
            with ad.no_grad():
                pass
            assert not ad.scale(a, 2.0).requires_grad
        assert ad.scale(a, 2.0).requires_grad

    def test_state_restored_after_exception(self, rng):
        a = parameter(rng.standard_normal(3))
        with pytest.raises(ShapeError):
            with ad.no_grad():
                ad.add(a, constant(np.zeros(4)))
        grads = backward(ad.sum_all(ad.scale(a, 2.0)))
        np.testing.assert_array_equal(grads[a], np.full(3, 2.0))

    def test_graph_built_outside_still_backpropagates(self, rng):
        a = parameter(rng.standard_normal(3))
        loss = ad.sum_all(ad.mul(a, a))
        with ad.no_grad():
            ad.sum_all(ad.mul(a, a))
            grads = backward(loss)
        np.testing.assert_array_equal(grads[a], 2 * a.data)


class TestBackward:
    def test_sum_gives_ones(self, rng):
        x = parameter(rng.standard_normal((2, 3)))
        grads = backward(ad.sum_all(x))
        np.testing.assert_array_equal(grads[x], np.ones((2, 3)))

    def test_quadratic(self, rng):
        x = parameter(rng.standard_normal(5))
        grads = backward(ad.sum_all(ad.mul(x, x)))
        assert relative_error(grads[x], 2 * x.data) < 1e-12

    def test_non_scalar_loss_rejected(self, rng):
        x = parameter(rng.standard_normal(3))
        with pytest.raises(ShapeError):
            backward(x)

    def test_repeated_backward_rejected(self, rng):
        x = parameter(rng.standard_normal(3))
        loss = ad.sum_all(x)
        backward(loss)
        with pytest.raises(GraphError):
            backward(loss)

    def test_accumulation_over_two_paths(self, rng):
        # x consumed twice must match the fused expression x*x + 3x.
        x = parameter(rng.standard_normal(4))
        c = constant(np.full(4, 3.0))
        grads = backward(ad.sum_all(ad.add(ad.mul(x, x), ad.mul(c, x))))
        assert relative_error(grads[x], 2 * x.data + 3.0) < 1e-12

    def test_explicit_zeroing_required_between_graphs(self, rng):
        x = parameter(rng.standard_normal(3))
        backward(ad.sum_all(x))
        backward(ad.sum_all(x))  # fresh graph, same leaf: accumulates
        np.testing.assert_array_equal(x.grad, 2 * np.ones(3))
        x.grad = None
        backward(ad.sum_all(x))
        np.testing.assert_array_equal(x.grad, np.ones(3))

    def test_leaf_loss_accumulates(self):
        x = parameter(2.0)
        x.grad = np.array(5.0)
        grads = backward(x)
        assert x.grad == 6.0 and grads[x] is x.grad

    def test_first_gradient_is_a_private_copy(self, rng):
        # add hands the same upstream array to both parents; neither may
        # keep it, or accumulating into one would move the other.
        a = parameter(rng.standard_normal(3))
        b = parameter(rng.standard_normal(3))
        backward(ad.sum_all(ad.add(a, b)))
        assert not np.shares_memory(a.grad, b.grad)
        assert isinstance(a.grad, np.ndarray) and a.grad.flags.c_contiguous
        s = parameter(1.0)  # g * c of a 0-d g is a numpy scalar, not an array
        backward(ad.scale(s, 2.0))
        assert isinstance(s.grad, np.ndarray) and s.grad.shape == () and s.grad == 2.0

    def test_add_gives_each_leaf_its_own_gradient(self, rng):
        a = parameter(rng.standard_normal((2, 3)))
        b = parameter(rng.standard_normal((2, 3)))
        w = rng.standard_normal((2, 3))
        backward(ad.sum_all(ad.mul(ad.add(a, b), constant(w))))
        assert a.grad is not b.grad
        a.grad += 1.0
        np.testing.assert_array_equal(b.grad, w)
        np.testing.assert_array_equal(a.grad, w + 1.0)

    def test_add_of_one_leaf_twice_gives_twice_the_gradient(self, rng):
        x = parameter(rng.standard_normal((2, 3)))
        w = rng.standard_normal((2, 3))
        backward(ad.sum_all(ad.mul(ad.add(x, x), constant(w))))
        np.testing.assert_array_equal(x.grad, 2 * w)

    def test_second_backward_through_shared_subgraph(self):
        # d/dw sum(3w) + d/dw sum(1 * 3w) = 3 + 3; the first loss's
        # gradient must not flow through the shared node h a second time.
        w = parameter(np.array([1.0]))
        h = ad.scale(w, 3)
        backward(ad.sum_all(h))
        backward(ad.sum_all(ad.scale(h, 1)))
        np.testing.assert_array_equal(w.grad, [6.0])

    def test_determinism(self, rng):
        vals = rng.standard_normal((4, 4))

        def run():
            x = parameter(vals.copy())
            w = parameter(np.linspace(-1, 1, 16).reshape(4, 4))
            loss = ad.sum_all(ad.mul(ad.softmax(ad.matmul(x, w)), constant(vals)))
            grads = backward(loss)
            return loss.data.copy(), grads[x].copy(), grads[w].copy()

        l1, gx1, gw1 = run()
        l2, gx2, gw2 = run()
        assert np.array_equal(l1, l2) and np.array_equal(gx1, gx2) and np.array_equal(gw1, gw2)


class TestCosineRows:
    def test_self_similarity(self, rng):
        a = rng.standard_normal((1, 4))
        out = ad.cosine_rows(constant(a), constant(a))
        np.testing.assert_allclose(out.data, [[1.0]], atol=1e-12)

    def test_orthogonal(self):
        out = ad.cosine_rows(constant([[1.0, 0.0]]), constant([[0.0, 1.0]]))
        np.testing.assert_allclose(out.data, [[0.0]], atol=1e-15)

    def test_zero_norm_guard(self):
        out = ad.cosine_rows(constant([[0.0, 0.0]]), constant([[1.0, 2.0]]))
        assert out.data[0, 0] == 0.0

    def test_matches_direct_oracle(self, rng):
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((2, 3))
        expected = np.array([[np.dot(q, p) / (np.linalg.norm(q) * np.linalg.norm(p)) for p in b] for q in a])
        out = ad.cosine_rows(constant(a), constant(b))
        assert relative_error(out.data, expected) < 1e-12

    def test_range(self, rng):
        a = rng.standard_normal((16, 5))
        b = rng.standard_normal((4, 5))
        out = ad.cosine_rows(constant(a), constant(b)).data
        assert np.all(out <= 1.0 + 1e-12) and np.all(out >= -1.0 - 1e-12)

    def test_gradient(self, rng):
        a = parameter(rng.standard_normal((3, 4)))
        b = parameter(rng.standard_normal((2, 4)))
        w = constant(rng.standard_normal((3, 2)))
        check_grads(lambda: ad.sum_all(ad.mul(ad.cosine_rows(a, b), w)), {"a": a, "b": b}, tol=1e-4)


class TestMisc:
    def test_sum_rows_and_scale(self, rng):
        x = parameter(rng.standard_normal((3, 4)))
        check_grads(lambda: ad.sum_all(ad.scale(ad.sum_rows(x), 2.5)), {"x": x}, tol=1e-4)

    def test_tensor_invariant_flat_size(self, rng):
        t = Tensor(rng.standard_normal((3, 4)))
        assert int(np.prod(t.shape)) == t.data.size
