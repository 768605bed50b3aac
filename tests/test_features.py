import numpy as np
import pytest

from dafss import autodiff as ad
from dafss import features
from dafss.autodiff import backward, constant, parameter
from dafss.errors import DegenerateSupportError, InputError, ShapeError
from dafss.features import (
    IF_CONFUSION,
    IF_FEATURE_NORM,
    IFHead,
    TextStub,
    UFHead,
    compute_correlations,
    extract_prototypes,
    if_encode,
    pooling_matrix,
    text_guidance,
    uf_encode,
)
from dafss.model import ModelConfig, named_tensors
from dafss.scenes import N_CLASSES, Scene, SceneConfig, generate_scene

from conftest import check_grads, relative_error


def make_scene(rng, n=40, n_classes=4):
    points = rng.uniform(-2, 2, (n, 3))
    labels = rng.integers(0, n_classes, n)
    return Scene(points=points, texture=labels.copy(), labels=labels,
                 class_set=sorted(set(int(c) for c in labels)), seed=0)


@pytest.fixture
def no_confusion(monkeypatch):
    """Semantic heads built in the test get an identity confusion matrix."""
    monkeypatch.setattr(features, "IF_CONFUSION", 0.0)


class TestUFHead:
    def test_output_shape_at_defaults(self, rng):
        scene = generate_scene(SceneConfig(points_per_object=(86, 86), plane_count=(2, 2),
                                           box_count=(2, 2), cylinder_count=(2, 2), seed=1), 0)
        cfg = ModelConfig()
        head = UFHead(rng, d_out=cfg.d_uf, hidden=cfg.uf_hidden)
        out = uf_encode(scene, head)
        assert out.shape == (len(scene), cfg.d_uf)

    def test_permutation_equivariance(self, rng):
        scene = make_scene(rng)
        head = UFHead(rng, d_out=8, hidden=16)
        out = uf_encode(scene, head).data
        perm = rng.permutation(len(scene))
        scene_p = Scene(points=scene.points[perm], texture=scene.texture[perm],
                        labels=scene.labels[perm], class_set=scene.class_set, seed=0)
        out_p = uf_encode(scene_p, head).data
        np.testing.assert_array_equal(out_p, out[perm])

    def test_gradient_wrt_params(self, rng):
        scene = make_scene(rng, n=6, n_classes=3)
        head = UFHead(rng, d_out=4, hidden=5)
        w = constant(rng.standard_normal((6, 4)))
        check_grads(
            lambda: ad.sum_all(ad.mul(uf_encode(scene, head), w)),
            named_tensors(head),
            tol=1e-3,
        )


def set_texture(scene, i, value):
    scene.texture[i] = value


def set_point(scene, i, value):
    scene.points[i, 1] = value


@pytest.mark.parametrize("rows", [
    lambda rng: UFHead(rng, d_out=8, hidden=16).hidden.w.shape[0] - 3,  # xyz, then the one-hot
    lambda rng: len(IFHead(rng, d_out=8).class_embed),
    lambda rng: len(TextStub(rng, d_out=8).table),
], ids=["uf", "if", "text"])
def test_heads_hold_a_row_per_catalog_class(rng, rows):
    # texture ids and class ids are catalog class ids
    assert rows(rng) == N_CLASSES


class TestMalformedScene:
    """Both encoders reject, through one check, a scene they cannot read."""

    ENCODERS = {
        "uf": lambda rng: (uf_encode, UFHead(rng, d_out=8, hidden=16)),
        "if": lambda rng: (if_encode, IFHead(rng, d_out=8)),
    }

    @pytest.mark.parametrize("encoder", ["uf", "if"])
    @pytest.mark.parametrize("corrupt, error, message", [
        (lambda s: set_texture(s, 3, N_CLASSES), InputError,
         f"scene.texture id {N_CLASSES} outside \\[0, {N_CLASSES}\\) at point 3"),
        (lambda s: set_texture(s, 0, 99), InputError, "texture id 99 outside"),
        (lambda s: set_texture(s, 5, -1), InputError, "scene.texture id -1 outside"),
        (lambda s: setattr(s, "texture", s.texture[:-1]), ShapeError,
         "scene.texture of shape \\(39,\\) are not"),
        (lambda s: setattr(s, "texture", s.texture + 0.0), InputError,
         "scene.texture must be an integer array, got dtype float64"),
        (lambda s: setattr(s, "texture", s.texture > 0), InputError,
         "scene.texture must be an integer array, got dtype bool"),
        (lambda s: setattr(s, "points", s.points[:, :2]), ShapeError,
         "scene.points of shape \\(40, 2\\) and .* are not \\[N, 3\\] and \\[N\\]"),
        (lambda s: set_point(s, 7, np.nan), InputError,
         "scene.points has a non-finite coordinate at point 7"),
        (lambda s: set_point(s, 2, -np.inf), InputError,
         "scene.points has a non-finite coordinate at point 2"),
    ], ids=["texture_past_table", "texture_far_past_table", "negative_texture",
            "short_texture", "float_texture", "bool_texture", "points_not_xyz", "nan_coordinate",
            "infinite_coordinate"])
    def test_rejected_naming_the_field(self, rng, encoder, corrupt, error, message):
        encode, head = self.ENCODERS[encoder](rng)
        scene = make_scene(rng)
        corrupt(scene)
        with pytest.raises(error, match=message):
            encode(scene, head)


class TestIFHead:
    def test_frozen_no_gradient_path(self, rng):
        scene = make_scene(rng)
        head = IFHead(rng, d_out=8)
        feats = if_encode(scene, head)
        assert not feats.requires_grad
        y = parameter(rng.standard_normal(feats.shape))
        grads = backward(ad.sum_all(ad.mul(feats, y)))
        assert set(grads) == {y}

    def test_feature_norms_scaled(self, rng):
        scene = make_scene(rng)
        head = IFHead(rng, d_out=8)
        feats = if_encode(scene, head).data
        np.testing.assert_allclose(np.linalg.norm(feats, axis=1), IF_FEATURE_NORM, atol=1e-9)

    def test_confusion_is_row_stochastic(self, rng):
        head = IFHead(rng, d_out=8)
        off = ~np.eye(N_CLASSES, dtype=bool)
        assert np.all(np.diag(head.confusion) == 1.0 - IF_CONFUSION)
        assert np.all(head.confusion[off] == IF_CONFUSION / (N_CLASSES - 1))
        np.testing.assert_allclose(head.confusion.sum(axis=1), 1.0, rtol=0, atol=1e-15)

    def test_zero_off_mass_is_identity(self, rng, no_confusion):
        head = IFHead(rng, d_out=8)
        assert head.confusion.tobytes() == np.eye(N_CLASSES).tobytes()

    def test_identity_confusion_separates_classes(self, rng, no_confusion):
        scene = make_scene(rng, n=60)
        head = IFHead(rng, d_out=16)
        feats = if_encode(scene, head).data
        unit = feats / np.linalg.norm(feats, axis=1, keepdims=True)
        labels = scene.labels
        within, cross = [], []
        for i in range(len(scene)):
            for j in range(i + 1, len(scene)):
                cos = float(unit[i] @ unit[j])
                (within if labels[i] == labels[j] else cross).append(cos)
        assert min(within) > max(cross)

    def test_uniform_confusion_collapses_class_means(self, rng, monkeypatch):
        monkeypatch.setattr(features, "IF_CONFUSION", (N_CLASSES - 1) / N_CLASSES)
        monkeypatch.setattr(features, "IF_POS_GAIN", 0.0)
        scene = make_scene(rng, n=80)
        head = IFHead(rng, d_out=8)
        np.testing.assert_allclose(head.confusion,  # uniform rows
                                   np.full((N_CLASSES, N_CLASSES), 1 / N_CLASSES))
        feats = if_encode(scene, head).data
        means = [feats[scene.labels == c].mean(axis=0) for c in range(4)]
        for m in means[1:]:
            assert relative_error(m, means[0]) < 1e-9

    def test_scale_invariance_of_correlations(self, rng):
        # scaling semantic features by a positive constant leaves cosines unchanged
        scene = make_scene(rng, n=10)
        head = IFHead(rng, d_out=8)
        feats = if_encode(scene, head).data
        protos = rng.standard_normal((3, 8))
        c1 = ad.cosine_rows(constant(feats), constant(protos)).data
        c2 = ad.cosine_rows(constant(feats * 7.5), constant(protos)).data
        assert relative_error(c1, c2) < 1e-12


class TestTextStub:
    def test_single_base_class_mean(self, rng):
        stub = TextStub(rng, d_out=8)
        g_base, g_q = text_guidance([2], [0, 1], stub)
        np.testing.assert_array_equal(g_base.data, stub.table[2])
        assert g_q.shape == (2, 8)

    def test_symmetric_embeddings_cancel(self, rng):
        stub = TextStub(rng, d_out=4)
        stub.table[1] = -stub.table[0]
        g_base, _ = text_guidance([0, 1], [0], stub)
        np.testing.assert_allclose(g_base.data, np.zeros(4), atol=1e-15)

    def test_three_class_mean_matches_hand_computation(self, rng):
        stub = TextStub(rng, d_out=3)
        stub.table = np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 1.0], [2.0, 3.0, 0.0], [9.0, 9.0, 9.0]])
        g_base, _ = text_guidance([0, 1, 2], [3], stub)
        np.testing.assert_allclose(g_base.data, [1.0, 2.0, 1.0], atol=1e-12)

    def test_unknown_id(self, rng):
        stub = TextStub(rng, d_out=4)
        with pytest.raises(InputError, match=f"class id {N_CLASSES} outside"):
            text_guidance([N_CLASSES], [0], stub)
        assert not text_guidance([0], [1], stub)[1].requires_grad


class TestPrototypes:
    def test_single_point_mask(self, rng):
        feats = rng.standard_normal((5, 6))
        mask = np.zeros(5, dtype=bool)
        mask[3] = True
        geo, sem = extract_prototypes(parameter(feats), constant(feats.copy()), [mask])
        np.testing.assert_array_equal(geo.data[1], feats[3])

    def test_duplicate_points_idempotent(self, rng):
        base = rng.standard_normal(6)
        feats = np.vstack([base, base, rng.standard_normal(6)])
        mask = np.array([True, True, False])
        geo, _ = extract_prototypes(parameter(feats), constant(feats.copy()), [mask])
        np.testing.assert_allclose(geo.data[1], base, atol=1e-15)

    def test_hand_fixture_mean(self):
        feats = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 9.0]])
        mask = np.array([True, True, True])
        # background would be empty, so provide one extra bg point
        feats = np.vstack([feats, [0.0, 0.0]])
        mask = np.append(mask, False)
        geo, _ = extract_prototypes(parameter(feats), constant(feats.copy()), [mask])
        np.testing.assert_allclose(geo.data[1], [3.0, 5.0], atol=1e-12)

    def test_empty_mask_names_way(self, rng):
        feats = rng.standard_normal((4, 3))
        masks = [np.array([True, False, False, False]), np.zeros(4, dtype=bool)]
        with pytest.raises(DegenerateSupportError, match="way 1"):
            extract_prototypes(parameter(feats), constant(feats.copy()), masks)

    def test_empty_background_errors(self, rng):
        feats = rng.standard_normal((3, 2))
        with pytest.raises(DegenerateSupportError, match="background"):
            extract_prototypes(parameter(feats), constant(feats.copy()), [np.ones(3, dtype=bool)])

    def test_semantic_prototypes_detached(self, rng):
        feats = parameter(rng.standard_normal((5, 4)))
        sem_in = parameter(rng.standard_normal((5, 4)))
        mask = np.array([True, True, False, False, False])
        geo, sem = extract_prototypes(feats, sem_in, [mask])
        grads = backward(ad.sum_all(ad.add(geo, sem)))
        assert feats in grads
        assert sem_in not in grads

    def test_pooling_matrix_row_stochastic(self, rng):
        masks = [np.array([True, False, False, True]), np.array([False, True, False, False])]
        pool = pooling_matrix(masks)
        np.testing.assert_allclose(pool.sum(axis=1), 1.0)
        assert pool.shape == (3, 4)


class TestCorrelations:
    def test_exact_prototype_match_scores_one(self, rng):
        protos = rng.standard_normal((3, 5))
        q = np.vstack([protos[1], rng.standard_normal(5)])
        pair = compute_correlations(constant(q), constant(q.copy()),
                                    constant(protos), constant(protos.copy()))
        assert abs(pair.geo.data[0, 1] - 1.0) < 1e-12

    def test_orthogonal_scores_zero(self):
        q = np.array([[1.0, 0.0]])
        p = np.array([[0.0, 2.0]])
        pair = compute_correlations(constant(q), constant(q.copy()), constant(p), constant(p.copy()))
        assert abs(pair.geo.data[0, 0]) < 1e-15

    def test_fixture_matches_direct_oracle(self, rng):
        q = rng.standard_normal((4, 3))
        p = rng.standard_normal((2, 3))
        pair = compute_correlations(constant(q), constant(q.copy()), constant(p), constant(p.copy()))
        expected = np.array([[qi @ pj / (np.linalg.norm(qi) * np.linalg.norm(pj)) for pj in p] for qi in q])
        assert relative_error(pair.geo.data, expected) < 1e-12

    def test_gradient_only_into_geometric_inputs(self, rng):
        q_geo = parameter(rng.standard_normal((4, 3)))
        q_sem = parameter(rng.standard_normal((4, 3)))
        p_geo = parameter(rng.standard_normal((2, 3)))
        p_sem = parameter(rng.standard_normal((2, 3)))
        pair = compute_correlations(q_geo, q_sem, p_geo, p_sem)
        grads = backward(ad.sum_all(ad.add(pair.geo, pair.sem)))
        assert q_geo in grads and p_geo in grads
        assert q_sem not in grads and p_sem not in grads

    def test_support_points_score_own_class_highest(self, rng, monkeypatch, no_confusion):
        # with confusion and the positional code off, each support point
        # argmaxes on its own class column
        monkeypatch.setattr(features, "IF_POS_GAIN", 0.0)
        scene = make_scene(rng, n=30, n_classes=3)
        if_head = IFHead(rng, d_out=16)
        feats = if_encode(scene, if_head)
        masks = [scene.labels == 1, scene.labels == 2]
        geo, sem = extract_prototypes(feats, feats, masks)
        pair = compute_correlations(feats, feats, geo, sem)
        preds = np.argmax(pair.sem.data, axis=1)
        expected = np.zeros(len(scene), dtype=int)
        expected[scene.labels == 1] = 1
        expected[scene.labels == 2] = 2
        np.testing.assert_array_equal(preds, expected)
