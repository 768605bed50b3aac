import numpy as np
import pytest

from dafss import autodiff as ad
from dafss.arbitration import (
    DecoderParams,
    arbitrate,
    arbitration_layer,
    init_arbitration,
    init_decoder,
    inject_background_guidance,
    knn_weights,
    merge_features,
    decode,
    semantic_gate,
)
from dafss.autodiff import NORM_EPS, constant, parameter
from dafss.errors import ConfigurationError, DegenerateBatchError
from dafss.model import named_tensors

from conftest import check_grads, relative_error


@pytest.fixture
def params(rng):
    return init_arbitration(rng, d_in=12, d_arb=8, d_guid=6, n_layers=1, heads=2, d_bg=2)


class TestMerge:
    def test_outputs_nonnegative(self, rng, params):
        r_geo = constant(rng.standard_normal((5, 4)))
        r_sem = constant(rng.standard_normal((5, 8)) * 4)
        out = merge_features(ad.concat([r_geo, r_sem], axis=1), params, train=True)
        assert np.all(out.data >= 0)
        assert out.shape == (5, 8)

    def test_zero_weights_zero_output_in_eval(self, rng, params):
        params.conv.w.data[:] = 0.0
        params.conv.b.data[:] = 0.0
        out = merge_features(constant(rng.standard_normal((3, 12))), params, train=False)
        np.testing.assert_array_equal(out.data, np.zeros((3, 8)))

    def test_degenerate_batch_in_train(self, rng, params):
        with pytest.raises(DegenerateBatchError):
            merge_features(constant(rng.standard_normal((1, 12))), params, train=True)

    def test_hand_composed_fixture(self, rng):
        # 2 points, hand-set BN/conv parameters, eval mode with known stats
        p = init_arbitration(rng, d_in=3, d_arb=2, d_guid=2, n_layers=1, heads=1, d_bg=1)
        p.bn_mean.data = np.array([1.0, 0.0, -1.0])
        p.bn_var.data = np.array([4.0, 1.0, 1.0]) - NORM_EPS
        p.bn_gamma.data[:] = [2.0, 1.0, 1.0]
        p.bn_beta.data[:] = [0.0, 0.5, 0.0]
        p.conv.w.data[:] = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]])
        p.conv.b.data[:] = [0.1, -0.2]
        x = np.array([[3.0, 1.0, 0.0], [0.0, -2.0, 2.0]])
        out = merge_features(constant(x), p, train=False).data

        normed = (x - p.bn_mean.data) / np.sqrt([4.0, 1.0, 1.0])
        normed = normed * p.bn_gamma.data + p.bn_beta.data
        manual = np.maximum(normed @ p.conv.w.data + p.conv.b.data, 0.0)
        assert relative_error(out, manual) < 1e-10


class TestInjection:
    def test_foreground_untouched_bitwise(self, rng, params):
        r = constant(rng.standard_normal((6, 8)))
        g = constant(rng.standard_normal(6))
        out = inject_background_guidance(r, g, params.layers[0])
        assert out.data[:, 2:].tobytes() == r.data[:, 2:].tobytes()

    def test_identity_embedding_is_noop(self, rng, params):
        layer = params.layers[0]
        layer.inject.w.data[:] = 0.0
        layer.inject.w.data[:2, :2] = np.eye(2)
        layer.inject.b.data[:] = 0.0
        r = constant(rng.standard_normal((4, 8)))
        g = constant(rng.standard_normal(6))
        out = inject_background_guidance(r, g, layer)
        np.testing.assert_array_equal(out.data, r.data)

    def test_matches_concat_matmul_oracle(self, rng, params):
        layer = params.layers[0]
        r = rng.standard_normal((5, 8))
        g = rng.standard_normal(6)
        out = inject_background_guidance(constant(r), constant(g), layer).data
        concat_in = np.hstack([r[:, :2], np.tile(g, (5, 1))])
        manual_bg = concat_in @ layer.inject.w.data + layer.inject.b.data
        manual = np.hstack([manual_bg, r[:, 2:]])
        assert relative_error(out, manual) < 1e-12

    def test_foreground_untouched_at_every_stacked_layer(self, rng):
        p = init_arbitration(rng, d_in=8, d_arb=8, d_guid=4, n_layers=2, heads=2, d_bg=2)
        g = constant(rng.standard_normal(4))
        r = constant(rng.standard_normal((5, 8)))
        for layer in p.layers:
            injected = inject_background_guidance(r, g, layer)
            assert injected.data[:, 2:].tobytes() == r.data[:, 2:].tobytes()
            r = arbitration_layer(injected, layer)


class TestArbitrationLayer:
    def test_permutation_equivariance(self, rng, params):
        layer = params.layers[0]
        x = rng.standard_normal((6, 8))
        out = arbitration_layer(constant(x), layer).data
        perm = rng.permutation(6)
        out_p = arbitration_layer(constant(x[perm]), layer).data
        np.testing.assert_allclose(out_p, out[perm], atol=1e-12)

    def test_single_token_hand_oracle(self, rng, params):
        layer = params.layers[0]
        x = rng.standard_normal((1, 8))
        out = arbitration_layer(constant(x), layer).data
        att = np.hstack([x @ layer.attn.wv[i].data for i in range(2)]) @ layer.attn.wo.data
        pre = x + att
        manual = (pre - pre.mean()) / np.sqrt(pre.var() + 1e-5) * layer.ln_gamma.data + layer.ln_beta.data
        assert relative_error(out, manual) < 1e-10

    def test_two_layer_stack_equals_manual_composition(self, rng):
        p = init_arbitration(rng, d_in=8, d_arb=8, d_guid=4, n_layers=2, heads=2, d_bg=2)
        g = constant(rng.standard_normal(4))
        r = constant(rng.standard_normal((4, 8)))
        stacked = arbitrate(r, g, p).data
        manual = r
        for layer in p.layers:
            manual = arbitration_layer(inject_background_guidance(manual, g, layer), layer)
        np.testing.assert_array_equal(stacked, manual.data)


class TestSemanticGate:
    def test_closed_gate_limit(self, rng, params):
        params.gate.b.data[:] = -60.0
        params.gate.w.data[:] = 0.0
        r = constant(rng.standard_normal((4, 8)))
        g_q = constant(rng.standard_normal((1, 6)))
        out = semantic_gate(r, g_q, params)
        assert relative_error(out.data, r.data) < 1e-6

    def test_ratio_in_one_two(self, rng, params):
        r = rng.standard_normal((5, 8))
        g_q = constant(rng.standard_normal((2, 6)))
        out = semantic_gate(constant(r), g_q, params).data
        nz = r != 0
        ratio = out[nz] / r[nz]
        assert np.all(ratio > 1.0) and np.all(ratio < 2.0)

    def test_sign_preserved(self, rng, params):
        r = rng.standard_normal((5, 8))
        out = semantic_gate(constant(r), constant(rng.standard_normal((1, 6))), params).data
        np.testing.assert_array_equal(np.sign(out), np.sign(r))

    def test_matches_elementwise_hand_oracle(self, rng, params):
        r = rng.standard_normal((3, 8))
        g_q = rng.standard_normal((2, 6))
        out = semantic_gate(constant(r), constant(g_q), params).data
        z = 1.0 / (1.0 + np.exp(-(g_q @ params.gate.w.data + params.gate.b.data)))
        manual = r * (1.0 + z.mean(axis=0))
        assert relative_error(out, manual) < 1e-12


def knn_weights_loop(points, k, radius):
    """The pre-vectorisation knn_weights: full stable argsort, one entry at a time."""
    n = len(points)
    d2 = np.sum((points[:, None, :] - points[None, :, :]) ** 2, axis=2)
    order = np.argsort(d2, axis=1, kind="stable")[:, :k]
    weights = np.zeros((n, n))
    for i in range(n):
        for j in order[i]:
            dist = np.sqrt(d2[i, j])
            if j != i and dist > radius:
                continue
            weights[i, j] = 1.0 / (dist + 1e-3)
    weights /= weights.sum(axis=1, keepdims=True)
    return weights


class TestKnnBitIdentity:
    @pytest.mark.parametrize("k", [1, 2, 5, 8])
    def test_uniform_points(self, rng, k):
        points = rng.uniform(-1, 1, (40, 3))
        np.testing.assert_array_equal(knn_weights(points, k, 0.5),
                                      knn_weights_loop(points, k, 0.5))

    @pytest.mark.parametrize("k", [1, 3, 8, 30])
    def test_duplicate_points(self, rng, k):
        points = rng.uniform(-1, 1, (10, 3))[rng.integers(0, 10, 30)]
        np.testing.assert_array_equal(knn_weights(points, k, 0.3),
                                      knn_weights_loop(points, k, 0.3))

    @pytest.mark.parametrize("k,radius", [(2, 0.5), (4, 0.6), (8, 1.0), (12, 0.1)])
    def test_half_grid_ties_at_kth_distance(self, rng, k, radius):
        points = np.round(rng.uniform(-1, 1, (50, 3)) * 2) / 2
        np.testing.assert_array_equal(knn_weights(points, k, radius),
                                      knn_weights_loop(points, k, radius))

    def test_k_equals_n(self, rng):
        for points in (rng.uniform(-1, 1, (9, 3)), np.round(rng.uniform(-1, 1, (9, 3))),
                       np.zeros((1, 3))):
            n = len(points)
            np.testing.assert_array_equal(knn_weights(points, n, 0.7),
                                          knn_weights_loop(points, n, 0.7))


class TestDecoder:
    def test_k1_is_identity_aggregation(self, rng):
        points = rng.uniform(-1, 1, (6, 3))
        w = knn_weights(points, k=1, radius=0.3)
        np.testing.assert_array_equal(w, np.eye(6))

    def test_uniform_features_unchanged(self, rng):
        points = rng.uniform(-0.1, 0.1, (8, 3))
        feats = np.tile(rng.standard_normal(4), (8, 1))
        for k in (1, 3, 8):
            w = knn_weights(points, k=k, radius=1.0)
            np.testing.assert_allclose(w @ feats, feats, atol=1e-12)

    def test_matches_bruteforce_knn_oracle(self, rng):
        points = rng.uniform(-1, 1, (4, 3))
        feats = rng.standard_normal((4, 5))
        k, radius = 3, 10.0
        w = knn_weights(points, k=k, radius=radius)
        agg = w @ feats
        for i in range(4):
            dists = sorted((np.linalg.norm(points[i] - points[j]), j) for j in range(4))
            neigh = dists[:k]
            wts = np.array([1.0 / (d + 1e-3) for d, _ in neigh])
            wts = wts / wts.sum()
            manual = sum(wt * feats[j] for wt, (_, j) in zip(wts, neigh))
            assert relative_error(agg[i], manual) < 1e-10

    def test_k_exceeds_points(self, rng):
        with pytest.raises(ConfigurationError, match="k = 5 exceeds the 3"):
            knn_weights(rng.uniform(-1, 1, (3, 3)), k=5, radius=0.3)

    def test_radius_drops_far_neighbors(self):
        points = np.array([[0.0, 0, 0], [0.05, 0, 0], [5.0, 0, 0]])
        w = knn_weights(points, k=3, radius=0.3)
        assert w[0, 2] == 0.0 and w[0, 1] > 0.0
        assert w[2, 2] == 1.0  # far point keeps only itself

    def test_decode_shapes_and_gradient(self, rng, monkeypatch):
        monkeypatch.setattr(DecoderParams, "k", 2)  # 8 neighbours would exceed the 5 points
        monkeypatch.setattr(DecoderParams, "radius", 1.0)
        dec = init_decoder(rng, d_arb=6, n_classes=3)
        points = rng.uniform(-1, 1, (5, 3))
        r = parameter(rng.standard_normal((5, 6)))
        logits = decode(r, points, dec)
        assert logits.shape == (5, 3)
        tensors = {"r": r}
        tensors.update(named_tensors(dec))
        w = constant(rng.standard_normal((5, 3)))
        check_grads(lambda: ad.sum_all(ad.mul(decode(r, points, dec), w)), tensors, tol=1e-3)


class TestEndToEndGradient:
    def test_full_stack_gradcheck(self, rng, monkeypatch):
        # merge -> inject+attend -> gate -> decode, finite differences over
        # every parameter of a miniature configuration
        monkeypatch.setattr(DecoderParams, "k", 2)  # 8 neighbours would exceed the 4 points
        monkeypatch.setattr(DecoderParams, "radius", 1.0)
        p = init_arbitration(rng, d_in=10, d_arb=8, d_guid=4, n_layers=2, heads=2, d_bg=2)
        dec = init_decoder(rng, d_arb=8, n_classes=2)
        r_geo = parameter(rng.standard_normal((4, 4)))
        r_sem = constant(rng.standard_normal((4, 6)))
        g_base = constant(rng.standard_normal(4))
        g_q = constant(rng.standard_normal((1, 4)))
        points = rng.uniform(-1, 1, (4, 3))
        w = constant(rng.standard_normal((4, 2)))

        def make_loss():
            merged = merge_features(ad.concat([r_geo, r_sem], axis=1), p, train=True)
            arb = arbitrate(merged, g_base, p)
            gated = semantic_gate(arb, g_q, p)
            return ad.sum_all(ad.mul(decode(gated, points, dec), w))

        tensors = {"r_geo": r_geo}
        tensors.update({n: t for n, t in named_tensors(p).items() if t.requires_grad})
        tensors.update(named_tensors(dec))
        check_grads(make_loss, tensors, tol=1e-3)
