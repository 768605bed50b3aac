import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dafss import autodiff as ad
from dafss.arbitration import (
    NEIGHBOUR_BLOCK_ROWS,
    ArbitrationParams,
    DecoderParams,
    MergePathway,
    arbitrate,
    arbitration_layer,
    init_arbitration,
    init_attention,
    init_decoder,
    inject_background_guidance,
    knn_weights,
    merge_features,
    mhsa,
    decode,
    neighbours,
    semantic_gate,
)
from dafss.autodiff import NORM_EPS, Tensor, backward, constant, parameter
from dafss.errors import ConfigurationError, DegenerateBatchError, ShapeError
from dafss.layers import init_weight, linear
from dafss.model import named_tensors

from conftest import check_grads, relative_error, value_weights


class TestMHSA:
    @pytest.mark.parametrize("d, h", [(6, 1), (8, 2), (12, 4)])
    def test_init_draws_per_head_blocks_in_order(self, d, h):
        # wqkv holds the draws of 3h per-head [d, d/h] weights, q heads
        # first, then k, then v, side by side; wo is drawn after them.
        rng = np.random.default_rng(5)
        attn = init_attention(rng, d, h)
        ref_rng = np.random.default_rng(5)
        blocks = [init_weight(ref_rng, d, d // h) for _ in range(3 * h)]
        assert attn.wqkv.shape == (d, 3 * d) and attn.heads == h
        for i, block in enumerate(blocks):
            got = attn.wqkv.data[:, i * (d // h):(i + 1) * (d // h)]
            assert got.tobytes() == block.tobytes(), f"block {i}"
        assert attn.wo.data.tobytes() == init_weight(ref_rng, d, d).tobytes()
        assert rng.standard_normal(4).tobytes() == ref_rng.standard_normal(4).tobytes()
        assert list(named_tensors(attn)) == ["wqkv", "wo"]

    def test_single_token_hand_computation(self, rng):
        # one token: softmax over a single key is exactly 1, so the output
        # is concat_h(x @ Wv_h) @ Wo computed by hand
        d, h = 6, 2
        attn = init_attention(rng, d, h)
        x = rng.standard_normal((1, d))
        out = mhsa(constant(x), attn).data
        manual = np.hstack([x @ value_weights(attn, i) for i in range(h)]) @ attn.wo.data
        assert relative_error(out, manual) < 1e-12

    def test_permutation_equivariance(self, rng):
        d, h = 8, 2
        attn = init_attention(rng, d, h)
        x = rng.standard_normal((5, d))
        out = mhsa(constant(x), attn).data
        perm = rng.permutation(5)
        out_p = mhsa(constant(x[perm]), attn).data
        np.testing.assert_allclose(out_p, out[perm], atol=1e-12)

    def test_gradient(self, rng):
        d, h = 8, 2
        attn = init_attention(rng, d, h)
        x = parameter(rng.standard_normal((3, d)))
        w = constant(rng.standard_normal((3, d)))
        tensors = {"x": x}
        tensors.update(named_tensors(attn))
        check_grads(lambda: ad.sum_all(ad.mul(mhsa(x, attn), w)), tensors, tol=1e-3)


@pytest.fixture
def params(rng):
    return init_arbitration(rng, [4, 8], d_arb=8, d_guid=6, n_layers=1, heads=2,
                            d_bg=2)


def concatenated(params):
    """Single-pathway parameters holding the pathways' tensors side by side."""
    return ArbitrationParams(pathways=[MergePathway(**{
        f: Tensor(np.concatenate([getattr(p, f).data for p in params.pathways]))
        for f in ("bn_gamma", "bn_beta", "bn_mean", "bn_var", "conv_w")})],
        conv_b=params.conv_b, gate=params.gate, layers=params.layers)


class TestMerge:
    def test_outputs_nonnegative(self, rng, params):
        r_geo = constant(rng.standard_normal((5, 4)))
        r_sem = constant(rng.standard_normal((5, 8)) * 4)
        out = merge_features([(r_geo, None), (r_sem, None)], params, train=True)
        assert np.all(out.data >= 0)
        assert out.shape == (5, 8)

    def test_zero_weights_zero_output_in_eval(self, rng, params):
        for p in params.pathways:
            p.conv_w.data[:] = 0.0
        params.conv_b.data[:] = 0.0
        blocks = [(constant(rng.standard_normal((3, d))), None) for d in (4, 8)]
        out = merge_features(blocks, params, train=False)
        np.testing.assert_array_equal(out.data, np.zeros((3, 8)))

    def test_degenerate_batch_in_train(self, rng, params):
        with pytest.raises(DegenerateBatchError):
            merge_features([(constant(rng.standard_normal((1, d))), None) for d in (4, 8)],
                           params, train=True)

    def test_one_block_per_pathway(self, rng, params):
        with pytest.raises(ShapeError, match="1 pathway blocks, expected 2"):
            merge_features([(constant(rng.standard_normal((3, 12))), None)], params, train=False)

    def test_init_splits_one_draw_of_the_weight(self):
        # The pathways' conv_w rows are one [12, 8] draw, split; the draws
        # before and after it are those of a single 12-column pathway.
        split = init_arbitration(np.random.default_rng(3), [4, 8], d_arb=8,
                                 d_guid=6, n_layers=1, heads=2, d_bg=2)
        whole = init_arbitration(np.random.default_rng(3), [12], d_arb=8,
                                 d_guid=6, n_layers=1, heads=2, d_bg=2)
        assert (np.vstack([p.conv_w.data for p in split.pathways]).tobytes()
                == whole.pathways[0].conv_w.data.tobytes())
        rest = [n for n in named_tensors(whole) if not n.startswith("pathways.")]
        assert rest == [n for n in named_tensors(split) if not n.startswith("pathways.")]
        assert all(named_tensors(split)[n].data.tobytes() == named_tensors(whole)[n].data.tobytes()
                   for n in rest)
        assert list(named_tensors(split))[:10] == [
            f"pathways.{i}.{f}" for i in (0, 1)
            for f in ("bn_gamma", "bn_beta", "bn_mean", "bn_var", "conv_w")]

    @pytest.mark.parametrize("train", [True, False])
    def test_sum_of_blocks_equals_merge_of_concatenation(self, rng, params, train):
        for p in params.pathways:  # running statistics away from their start
            p.bn_mean.data = rng.standard_normal(p.bn_mean.shape)
            p.bn_var.data = rng.uniform(0.5, 2.0, p.bn_var.shape)
        cat = concatenated(params)
        r_geo = rng.standard_normal((6, 4))
        r_sem = rng.standard_normal((6, 8)) * 3 + 1
        out = merge_features([(constant(r_geo), None), (constant(r_sem), None)], params, train)
        ref = merge_features([(constant(np.hstack([r_geo, r_sem])), None)], cat, train)
        assert np.max(np.abs(out.data - ref.data)) <= 1e-12 * np.max(np.abs(ref.data))
        for f in ("bn_mean", "bn_var"):
            got = np.concatenate([getattr(p, f).data for p in params.pathways])
            np.testing.assert_allclose(got, getattr(cat.pathways[0], f).data, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("train", [True, False])
    def test_grouped_block_equals_its_rows_gathered(self, rng, params, train):
        # A block at its distinct rows, with the points' grouping, gives the
        # output, statistics and gradients of that block gathered to the points.
        inverse = np.array([2, 0, 0, 1, 2, 2, 0])
        counts = np.bincount(inverse)
        r_geo = constant(rng.standard_normal((7, 4)))
        sem_rows = rng.standard_normal((3, 8)) * 2
        w = constant(rng.standard_normal((7, 8)))
        sides = []
        for grouped in (True, False):
            p = init_arbitration(np.random.default_rng(9), [4, 8], d_arb=8,
                                 d_guid=6, n_layers=1, heads=2, d_bg=2)
            r_sem = parameter(sem_rows)
            block = ((r_sem, (inverse, counts)) if grouped
                     else (ad.take_rows(r_sem, inverse), None))
            out = merge_features([(r_geo, None), block], p, train)
            backward(ad.sum_all(ad.mul(out, w)))
            # running statistics by value, parameters by gradient
            sides.append([out.data, r_sem.grad]
                         + [t.data if t.grad is None else t.grad
                            for t in named_tensors(p.pathways).values()])
        for a, b in zip(*sides):
            assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(b)))

    def test_hand_composed_fixture(self, rng):
        # 2 points, hand-set BN/conv parameters, eval mode with known stats
        p = init_arbitration(rng, [3], d_arb=2, d_guid=2, n_layers=1, heads=1, d_bg=1)
        bn = p.pathways[0]
        bn.bn_mean.data = np.array([1.0, 0.0, -1.0])
        bn.bn_var.data = np.array([4.0, 1.0, 1.0]) - NORM_EPS
        bn.bn_gamma.data[:] = [2.0, 1.0, 1.0]
        bn.bn_beta.data[:] = [0.0, 0.5, 0.0]
        bn.conv_w.data[:] = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]])
        p.conv_b.data[:] = [0.1, -0.2]
        x = np.array([[3.0, 1.0, 0.0], [0.0, -2.0, 2.0]])
        out = merge_features([(constant(x), None)], p, train=False).data

        normed = (x - bn.bn_mean.data) / np.sqrt([4.0, 1.0, 1.0])
        normed = normed * bn.bn_gamma.data + bn.bn_beta.data
        manual = np.maximum(normed @ bn.conv_w.data + p.conv_b.data, 0.0)
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
        p = init_arbitration(rng, [8], d_arb=8, d_guid=4, n_layers=2, heads=2, d_bg=2)
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
        att = np.hstack([x @ value_weights(layer.attn, i) for i in range(2)]) @ layer.attn.wo.data
        pre = x + att
        manual = (pre - pre.mean()) / np.sqrt(pre.var() + 1e-5) * layer.ln_gamma.data + layer.ln_beta.data
        assert relative_error(out, manual) < 1e-10

    def test_two_layer_stack_equals_manual_composition(self, rng):
        p = init_arbitration(rng, [8], d_arb=8, d_guid=4, n_layers=2, heads=2, d_bg=2)
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


@st.composite
def point_clouds(draw):
    """A point cloud of at most about 400 points, with a k and a radius.

    Besides uniform points it can hold: a run of copies of one point that
    is longer than a block, so that its copies sit on both sides of a block
    boundary; half-grid coordinates, which tie at the k-th distance; far
    isolated points, which keep only themselves; and a point count trimmed
    to whole blocks, so that the isolated points, last in the serpentine
    order, form a block whose box holds fewer than k points."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    extent = draw(st.sampled_from([0.5, 2.0, 5.6]))
    points = rng.uniform(-extent / 2, extent / 2, (draw(st.integers(1, 260)), 3)) * [1.0, 1.0, 0.5]
    copies = draw(st.sampled_from([0, 3, NEIGHBOUR_BLOCK_ROWS + 12]))
    points = np.vstack([points, np.repeat(points[:1], copies, axis=0)])
    if draw(st.booleans()):
        points = np.round(points * 2) / 2
    if draw(st.booleans()) and len(points) >= NEIGHBOUR_BLOCK_ROWS:
        points = points[:len(points) - len(points) % NEIGHBOUR_BLOCK_ROWS]
    isolated = draw(st.integers(0, 3))
    far = extent + 10.0 * np.arange(1, isolated + 1)
    points = np.vstack([points, np.column_stack([far, far, np.zeros(isolated)])])
    points = points[rng.permutation(len(points))]
    k = draw(st.integers(1, min(len(points), 12)))
    return points, k, draw(st.floats(0.05, 2.0))


class TestBlockNeighbourSearch:
    @given(point_clouds())
    @example((np.vstack([np.zeros((NEIGHBOUR_BLOCK_ROWS + 12, 3)), np.ones((20, 3))]), 12, 0.3))
    @example((np.vstack([np.round(np.random.default_rng(3).uniform(-1, 1, (256, 3)) * 2) / 2,
                         [[20.0, 20.0, 0.0], [30.0, 30.0, 0.0]]]), 5, 0.5))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_dense_view_equals_the_loop_reference(self, cloud):
        points, k, radius = cloud
        np.testing.assert_array_equal(knn_weights(points, k, radius),
                                      knn_weights_loop(points, k, radius))

    def test_rows_hold_the_k_nearest_by_distance_then_index(self):
        # Ten copies of one point: each row picks the three lowest indices.
        points = np.zeros((10, 3))
        idx, w = neighbours(points, 3, 0.3)
        assert idx.shape == w.shape == (10, 3)
        np.testing.assert_array_equal(np.sort(idx, axis=1), np.tile([0, 1, 2], (10, 1)))
        np.testing.assert_array_equal(w, np.full((10, 3), 1e3))


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
        monkeypatch.setattr(DecoderParams, "k", 2)  # fewer neighbours than the 5 points
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

    def test_decode_matches_the_dense_smoother(self, rng):
        # About 800 points in objects strewn over a room, as in a dense
        # evaluation query: several blocks, neighbours cut by the radius.
        centres = rng.uniform(-2.8, 2.8, (8, 3)) * [1.0, 1.0, 0.5]
        points = np.vstack([c + rng.uniform(-0.4, 0.4, (100, 3)) for c in centres])
        dec = init_decoder(rng, d_arb=16, n_classes=2)
        r = parameter(rng.standard_normal((len(points), 16)))
        w = constant(rng.standard_normal((len(points), 2)))
        smoother = constant(knn_weights(points, DecoderParams.k, DecoderParams.radius))

        def dense_decode():
            agg = ad.matmul(smoother, r)
            return linear(ad.relu(linear(agg, dec.conv)), dec.out)

        tensors = {"r": r, **named_tensors(dec)}
        runs = []
        for run in (lambda: decode(r, points, dec), dense_decode):
            for t in tensors.values():
                t.grad = None
            logits = run()
            backward(ad.sum_all(ad.mul(logits, w)))
            runs.append((logits.data, {name: t.grad.copy() for name, t in tensors.items()}))
        (got, got_grads), (ref, ref_grads) = runs
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        largest = max(np.max(np.abs(g)) for g in ref_grads.values())
        for name, g in ref_grads.items():
            assert np.max(np.abs(got_grads[name] - g)) <= 1e-10 * largest, name

    def test_decode_holds_no_dense_matrix(self, rng):
        # Below one [N, N] float64 array for a 3000-point query; a dense
        # smoother holds three (distances, scratch and weights).
        n = 3000
        points = rng.uniform(-2.8, 2.8, (n, 3)) * [1.0, 1.0, 0.5]
        dec = init_decoder(rng, d_arb=192, n_classes=2)
        r = constant(rng.standard_normal((n, 192)))
        tracemalloc.start()
        try:
            with ad.no_grad():
                decode(r, points, dec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8, f"decode peaked at {peak / 1e6:.1f} MB"

    def test_decode_smooths_a_query_smaller_than_k_over_every_point(self, rng, monkeypatch):
        dec = init_decoder(rng, d_arb=6, n_classes=3)
        points = rng.uniform(-0.1, 0.1, (5, 3))
        r = constant(rng.standard_normal((5, 6)))
        assert DecoderParams.k > 5
        clipped = decode(r, points, dec).data
        monkeypatch.setattr(DecoderParams, "k", 5)
        assert clipped.tobytes() == decode(r, points, dec).data.tobytes()


class TestEndToEndGradient:
    def test_full_stack_gradcheck(self, rng, monkeypatch):
        # merge -> inject+attend -> gate -> decode, finite differences over
        # every parameter of a miniature configuration
        monkeypatch.setattr(DecoderParams, "k", 2)  # fewer neighbours than the 4 points
        monkeypatch.setattr(DecoderParams, "radius", 1.0)
        p = init_arbitration(rng, [4, 6], d_arb=8, d_guid=4, n_layers=2, heads=2,
                             d_bg=2)
        dec = init_decoder(rng, d_arb=8, n_classes=2)
        r_geo = parameter(rng.standard_normal((4, 4)))
        r_sem = parameter(rng.standard_normal((2, 6)))  # its 2 rows stand for the 4 points
        groups = (np.array([1, 0, 0, 1]), np.array([2, 2]))
        g_base = constant(rng.standard_normal(4))
        g_q = constant(rng.standard_normal((1, 4)))
        points = rng.uniform(-1, 1, (4, 3))
        w = constant(rng.standard_normal((4, 2)))

        def make_loss():
            merged = merge_features([(r_geo, None), (r_sem, groups)], p, train=True)
            arb = arbitrate(merged, g_base, p)
            gated = semantic_gate(arb, g_q, p)
            return ad.sum_all(ad.mul(decode(gated, points, dec), w))

        tensors = {"r_geo": r_geo, "r_sem": r_sem}
        tensors.update({n: t for n, t in named_tensors(p).items() if t.requires_grad})
        tensors.update(named_tensors(dec))
        check_grads(make_loss, tensors, tol=1e-3)
