import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dafss.errors import InputError, ShapeError, UndefinedMetricError
from dafss.metrics import confusion_matrix, evaluate, macc, miou
from dafss.model import ModelConfig, SegModel
from dafss.scenes import SceneConfig, build_pool, fold_classes, sample_episode


def brute_force_counts(preds, labels, n):
    counts = np.zeros((n, n), dtype=np.int64)
    for p, l in zip(preds, labels):
        counts[l, p] += 1
    return counts


class TestConfusionMatrix:
    def test_perfect_predictions_diagonal(self, rng):
        labels = rng.integers(0, 4, 30)
        conf = confusion_matrix(labels, labels, 4)
        assert np.all(conf == np.diag(np.diag(conf)))

    def test_total_conserved(self, rng):
        preds = rng.integers(0, 3, 50)
        labels = rng.integers(0, 3, 50)
        assert confusion_matrix(preds, labels, 3).sum() == 50

    def test_ten_point_fixture_matches_counting_oracle(self, rng):
        preds = rng.integers(0, 3, 10)
        labels = rng.integers(0, 3, 10)
        np.testing.assert_array_equal(confusion_matrix(preds, labels, 3),
                                      brute_force_counts(preds, labels, 3))

    def test_out_of_range(self):
        with pytest.raises(InputError, match="prediction value 5 outside"):
            confusion_matrix(np.array([0, 5]), np.array([0, 1]), 3)

    @given(st.integers(2, 5), st.integers(1, 60), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_oracle_property(self, n_classes, n_points, seed):
        r = np.random.default_rng(seed)
        preds = r.integers(0, n_classes, n_points)
        labels = r.integers(0, n_classes, n_points)
        np.testing.assert_array_equal(confusion_matrix(preds, labels, n_classes),
                                      brute_force_counts(preds, labels, n_classes))


class TestShapeErrors:
    def test_length_mismatch(self):
        with pytest.raises(ShapeError, match="lengths differ"):
            confusion_matrix(np.zeros(3, dtype=int), np.zeros(4, dtype=int), 2)

    @pytest.mark.parametrize("metric", [miou, macc])
    @pytest.mark.parametrize("shape", [(2, 3), (4,)])
    def test_non_square_matrix(self, metric, shape):
        with pytest.raises(ShapeError, match="square"):
            metric(np.ones(shape, dtype=np.int64))


class TestMiou:
    def test_perfect_prediction(self):
        conf = np.diag([10, 5, 7])
        per_class, mean = miou(conf)
        assert mean == 1.0 and per_class == {1: 1.0, 2: 1.0}

    def test_complement_prediction_is_zero(self):
        # binary task, prediction exactly flipped
        preds = np.array([1, 1, 0, 0])
        labels = np.array([0, 0, 1, 1])
        conf = confusion_matrix(preds, labels, 2)
        per_class, mean = miou(conf)
        assert mean == 0.0

    def test_hand_counts(self):
        # TP=3, FP=1, FN=2 -> IoU = 3/6
        conf = np.array([[10, 1], [2, 3]])
        per_class, mean = miou(conf)
        assert per_class[1] == 0.5

    def test_absent_class_excluded(self):
        conf = np.zeros((3, 3), dtype=int)
        conf[0, 0] = 5
        conf[1, 1] = 3
        per_class, mean = miou(conf)
        assert 2 not in per_class and mean == 1.0

    def test_all_absent_undefined(self):
        conf = np.zeros((3, 3), dtype=int)
        conf[0, 0] = 9
        with pytest.raises(UndefinedMetricError):
            miou(conf)


class TestMacc:
    def test_perfect(self):
        assert macc(np.diag([4, 4])) == 1.0

    def test_all_foreground_prediction_gives_full_recall(self):
        # over-segmentation: everything predicted foreground, recall still 1
        preds = np.ones(6, dtype=int)
        labels = np.array([0, 0, 0, 1, 1, 1])
        conf = confusion_matrix(preds, labels, 2)
        assert macc(conf) == 1.0
        assert miou(conf)[1] == 0.5

    def test_hand_counts(self):
        # TP=3, FN=1 -> recall 0.75
        conf = np.array([[5, 0], [1, 3]])
        assert macc(conf) == 0.75

    def test_undefined_when_no_labels(self):
        conf = np.zeros((2, 2), dtype=int)
        conf[0, 0] = 4
        with pytest.raises(UndefinedMetricError):
            macc(conf)


class TestEvaluate:
    @pytest.fixture(scope="class")
    def setup(self):
        pool = build_pool(SceneConfig(points_per_object=(10, 16), seed=2,
                                      plane_count=(2, 3), box_count=(1, 2),
                                      cylinder_count=(1, 2)), 20)
        base, novel = fold_classes(0)
        cfg = ModelConfig(base_class_ids=tuple(base), n_way=1,
                          d_uf=8, uf_hidden=10, d_if=12, d_geo=8, d_sem=12,
                          d_arb=8, heads=2, seed=1)
        model = SegModel(cfg, "decoupled")
        episodes = [sample_episode(pool, 1, 1, seed=s, candidate_classes=base)
                    for s in range(6)]
        return model, episodes

    def test_oracle_predictor_scores_one(self, setup):
        model, episodes = setup

        class Oracle:
            config = model.config

            def frozen(self):
                return contextlib.nullcontext()

            def predict(self, episode):
                return episode.query_labels

        report = evaluate(Oracle(), episodes[:1])
        assert report.miou == 1.0 and report.macc == 1.0

    def test_merged_matrices_equal_joint_evaluation(self, setup):
        model, episodes = setup
        joint = evaluate(model, episodes)
        first = evaluate(model, episodes[:3])
        second = evaluate(model, episodes[3:])
        total_points_joint = joint.episode_count
        assert first.episode_count + second.episode_count == total_points_joint
        # additivity at the confusion level: recompute from raw predictions
        conf = np.zeros((2, 2), dtype=np.int64)
        for ep in episodes:
            conf += confusion_matrix(model.predict(ep), ep.query_labels, 2)
        per_class, mean = miou(conf)
        assert abs(mean - joint.miou) < 1e-12

    def test_evaluation_never_mutates_parameters(self, setup):
        model, episodes = setup
        before = {k: v.tobytes() for k, v in model.state_dict().items()}
        evaluate(model, episodes)
        after = {k: v.tobytes() for k, v in model.state_dict().items()}
        assert before == after

    def test_empty_stream_undefined(self, setup):
        model, _ = setup
        with pytest.raises(UndefinedMetricError):
            evaluate(model, [])

    def test_report_invariant_miou_is_mean(self, setup):
        model, episodes = setup
        report = evaluate(model, episodes)
        assert abs(report.miou - np.mean(list(report.per_class_iou.values()))) < 1e-12
        assert 0.0 <= report.miou <= 1.0 and 0.0 <= report.macc <= 1.0


class TestRandomizedOracles:
    def test_twenty_randomized_fixtures(self):
        # pipeline metrics must match per-point counting oracles exactly
        for seed in range(20):
            r = np.random.default_rng(seed)
            n_classes = int(r.integers(2, 5))
            n = int(r.integers(5, 80))
            preds = r.integers(0, n_classes, n)
            labels = r.integers(0, n_classes, n)
            conf = confusion_matrix(preds, labels, n_classes)
            np.testing.assert_array_equal(conf, brute_force_counts(preds, labels, n_classes))
            try:
                per_class, mean = miou(conf)
            except UndefinedMetricError:
                continue
            present = set(preds.tolist()) | set(labels.tolist())
            assert set(per_class) == {c for c in range(1, n_classes) if c in present}
            for c, v in per_class.items():
                tp = np.sum((preds == c) & (labels == c))
                fp = np.sum((preds == c) & (labels != c))
                fn = np.sum((preds != c) & (labels == c))
                assert v == tp / (tp + fp + fn)
