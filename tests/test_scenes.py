import dataclasses

import numpy as np
import pytest

from dafss.errors import CapacityError, ConfigurationError, SamplingError, SceneParseError
from dafss.scenes import (
    CLASS_CATALOG,
    N_CLASSES,
    ROOM_HALF,
    Scene,
    SceneConfig,
    build_pool,
    fold_classes,
    generate_scene,
    read_scene,
    sample_episode,
    scenes_equal,
    write_scene,
    _sample_box,
)


def small_config(**kw):
    defaults = dict(points_per_object=(10, 20), seed=7)
    defaults.update(kw)
    return SceneConfig(**defaults)


class TestGeneration:
    def test_determinism(self):
        cfg = small_config()
        a = generate_scene(cfg, 42)
        b = generate_scene(cfg, 42)
        assert scenes_equal(a, b)
        assert a.points.tobytes() == b.points.tobytes()

    def test_different_seeds_differ(self):
        cfg = small_config()
        assert not scenes_equal(generate_scene(cfg, 1), generate_scene(cfg, 2))

    def test_labels_all_in_class_set(self):
        scene = generate_scene(small_config(), 3)
        assert set(int(c) for c in scene.labels) == set(scene.class_set)

    def test_arrays_consistent(self):
        scene = generate_scene(small_config(), 5)
        n = len(scene)
        assert scene.points.shape == (n, 3)
        assert scene.texture.shape == (n,)
        assert scene.labels.shape == (n,)
        assert n <= 2048

    def test_no_confusion_means_distinct_textures(self):
        cfg = small_config(texture_confusion=0.0)
        for seed in range(20):
            scene = generate_scene(cfg, seed)
            for cls in scene.class_set:
                tex = set(scene.texture[scene.labels == cls])
                assert tex == {cls}

    def test_full_confusion_all_classes_share_texture(self):
        # every class after the first adopts an earlier one's texture, so the
        # whole scene carries the texture id of one of its classes
        cfg = small_config(texture_confusion=1.0)
        for seed in range(10):
            scene = generate_scene(cfg, seed)
            assert len(scene.class_set) >= 2
            # exhaustive scan: every point carries one shared id
            ids = set(int(t) for t in scene.texture)
            assert len(ids) == 1 and ids <= set(scene.class_set)

    def test_scenes_draw_from_the_whole_catalog(self):
        # each family's objects take its catalog classes, and over enough
        # scenes every class of the catalog turns up
        seen = set()
        for seed in range(40):
            scene = generate_scene(small_config(), seed)
            seen.update(scene.class_set)
        assert seen == set(range(N_CLASSES))

    def test_capacity_error(self):
        cfg = small_config(points_per_object=(400, 600), plane_count=(2, 2),
                           box_count=(2, 2), cylinder_count=(2, 2))
        with pytest.raises(CapacityError):
            generate_scene(cfg, 0)

    @pytest.mark.parametrize("field, kwargs", [
        ("points_per_object", dict(points_per_object=(48, 24))),
        ("points_per_object", dict(points_per_object=(0, 4))),
        ("points_per_object", dict(points_per_object=(-2, 4))),
        ("plane_count", dict(plane_count=(2, 1))),
        ("box_count", dict(box_count=(-1, 1))),
        ("cylinder_count", dict(cylinder_count=(1, 2, 3))),
        ("plane_count, box_count, cylinder_count",
         dict(plane_count=(0, 1), box_count=(0, 1), cylinder_count=(0, 1))),
        ("plane_count, box_count, cylinder_count",
         dict(plane_count=(0, 0), box_count=(0, 0), cylinder_count=(0, 0))),
        ("texture_confusion", dict(texture_confusion=1.5)),
        ("texture_confusion", dict(texture_confusion=np.nan)),
        ("seed", dict(seed=-1)),
    ])
    def test_invalid_config_names_field(self, field, kwargs):
        with pytest.raises(ConfigurationError, match=f"^{field} = "):
            small_config(**kwargs)

    @pytest.mark.parametrize("field, kwargs", [
        ("seed", dict(seed=2.5)),
        ("seed", dict(seed=True)),
        ("plane_count", dict(plane_count=(1.5, 2))),
        ("box_count", dict(box_count=(1, 2.0))),
        ("cylinder_count", dict(cylinder_count=(False, 1))),
        ("points_per_object", dict(points_per_object=(10.0, 20))),
    ], ids=["fractional_seed", "bool_seed", "fractional_plane_count", "float_box_count",
            "bool_cylinder_count", "float_points_per_object"])
    def test_integer_field_rejects_non_integer(self, field, kwargs):
        with pytest.raises(ConfigurationError, match=f"^{field} = .*integer"):
            small_config(**kwargs)

    @pytest.mark.parametrize("seed", [1.5, True, "2"])
    def test_non_integer_scene_seed_rejected(self, seed):
        with pytest.raises(ConfigurationError, match=f"^scene seed = {seed!r}: .*integer"):
            generate_scene(small_config(), seed)

    def test_numpy_integers_are_integers(self):
        cfg = small_config(seed=np.int64(7), plane_count=(np.int32(1), np.int64(2)))
        assert scenes_equal(generate_scene(cfg, np.int64(4)), generate_scene(small_config(), 4))

    def test_scene_config_cannot_be_changed_past_its_checks(self):
        cfg = SceneConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.seed = 1.5
        with pytest.raises(ConfigurationError, match="^points_per_object = "):
            dataclasses.replace(cfg, points_per_object=(48, 24))

    def test_negative_scene_seed_rejected(self):
        with pytest.raises(ConfigurationError, match="^scene seed = -3: "):
            generate_scene(small_config(), -3)

    def test_zero_lower_bounds_with_one_guaranteed_object_always_generate(self):
        cfg = small_config(plane_count=(0, 1), box_count=(0, 1), cylinder_count=(1, 1))
        for seed in range(40):
            assert len(generate_scene(cfg, seed)) >= 1

    def test_fold_split(self):
        base0, novel0 = fold_classes(0)
        base1, novel1 = fold_classes(1)
        assert len(base0) == 6 and len(novel0) == 4
        assert len(base1) == 6 and len(novel1) == 4
        assert set(novel0).isdisjoint(novel1)
        assert set(base0) | set(novel0) == set(range(N_CLASSES))


def sample_box_loop(rng, spec, n):
    """The pre-vectorisation _sample_box: one point at a time."""
    ex = rng.uniform(*spec["footprint"])
    ey = rng.uniform(*spec["footprint"])
    ez = rng.uniform(*spec["height"])
    z0 = rng.uniform(*spec["z"]) if "z" in spec else 0.0
    cx, cy = rng.uniform(-ROOM_HALF, ROOM_HALF, size=2)
    areas = np.array([ey * ez, ey * ez, ex * ez, ex * ez, ex * ey, ex * ey])
    faces = rng.choice(6, size=n, p=areas / areas.sum())
    u = rng.uniform(-0.5, 0.5, size=n)
    v = rng.uniform(-0.5, 0.5, size=n)
    pts = np.empty((n, 3))
    for i, f in enumerate(faces):
        if f < 2:  # +-x faces
            pts[i] = ((-1) ** f * ex / 2, u[i] * ey, (v[i] + 0.5) * ez)
        elif f < 4:  # +-y faces
            pts[i] = (u[i] * ex, (-1) ** f * ey / 2, (v[i] + 0.5) * ez)
        else:  # bottom/top
            pts[i] = (u[i] * ex, v[i] * ey, (f - 4) * ez)
    pts[:, 0] += cx
    pts[:, 1] += cy
    pts[:, 2] += z0
    return pts


class TestSampleBoxBitIdentity:
    @pytest.mark.parametrize("cls", [c for c, entry in enumerate(CLASS_CATALOG) if entry[1] == "box"])
    @pytest.mark.parametrize("n", [1, 2, 48, 400])
    def test_matches_point_loop(self, cls, n):
        spec = CLASS_CATALOG[cls][2]
        for seed in range(5):
            rng_vec, rng_loop = np.random.default_rng([cls, n, seed]), np.random.default_rng([cls, n, seed])
            np.testing.assert_array_equal(_sample_box(rng_vec, spec, n),
                                          sample_box_loop(rng_loop, spec, n))
            assert rng_vec.random() == rng_loop.random()  # same draws, in the same order


class TestEpisodes:
    @pytest.fixture
    def pool(self):
        return build_pool(small_config(plane_count=(2, 3), box_count=(1, 2), cylinder_count=(1, 2)), 30)

    def test_support_query_disjoint(self, pool):
        ep = sample_episode(pool, n_way=1, k_shot=1, seed=0)
        support_scene = ep.support[0][0].scene
        assert support_scene is not ep.query

    def test_two_way_distinct_classes(self, pool):
        ep = sample_episode(pool, n_way=2, k_shot=1, seed=3)
        assert len(set(ep.novel_classes)) == 2

    def test_query_label_remap_is_bijection(self, pool):
        ep = sample_episode(pool, n_way=2, k_shot=1, seed=5)
        for way, cls in enumerate(ep.novel_classes):
            np.testing.assert_array_equal(ep.query_labels == way + 1, ep.query.labels == cls)
        bg = ep.query_labels == 0
        for cls in ep.novel_classes:
            assert not np.any(ep.query.labels[bg] == cls)

    def test_mask_matches_class(self, pool):
        ep = sample_episode(pool, n_way=1, k_shot=2, seed=9)
        assert len(ep.support[0]) == 2
        for shot in ep.support[0]:
            np.testing.assert_array_equal(shot.mask, shot.scene.labels == ep.novel_classes[0])
            assert shot.mask.any()

    def test_insufficient_pool_names_class(self):
        cfg = small_config(plane_count=(1, 1), box_count=(1, 1), cylinder_count=(0, 0))
        tiny = build_pool(cfg, 2)
        with pytest.raises(SamplingError):
            sample_episode(tiny, n_way=1, k_shot=3, seed=0)

    @pytest.mark.parametrize("n_way, k_shot, name", [(1, 0, "k_shot"), (0, 1, "n_way"),
                                                     (-1, 1, "n_way"), (1, -2, "k_shot")])
    def test_empty_request_names_argument(self, pool, n_way, k_shot, name):
        with pytest.raises(SamplingError, match=f"^{name} = "):
            sample_episode(pool, n_way, k_shot, seed=0)

    @pytest.mark.parametrize("name, kwargs", [
        ("seed", dict(seed=1.5)), ("seed", dict(seed=True)),
        ("n_way", dict(n_way=1.0)), ("k_shot", dict(k_shot=True)),
    ], ids=["fractional_seed", "bool_seed", "float_n_way", "bool_k_shot"])
    def test_non_integer_request_names_argument(self, pool, name, kwargs):
        request = dict(n_way=1, k_shot=1, seed=0)
        request.update(kwargs)
        with pytest.raises(SamplingError, match=f"^{name} = .*integer"):
            sample_episode(pool, **request)

    def test_negative_episode_seed_rejected(self, pool):
        with pytest.raises(SamplingError, match="^seed = -1: "):
            sample_episode(pool, 1, 1, seed=-1)

    def test_sampling_frequency_near_uniform(self):
        cfg = small_config(plane_count=(2, 3), box_count=(2, 3), cylinder_count=(2, 3))
        pool = build_pool(cfg, 60)
        counts = {}
        n_draws = 1000
        for seed in range(n_draws):
            ep = sample_episode(pool, n_way=1, k_shot=1, seed=seed)
            counts[ep.novel_classes[0]] = counts.get(ep.novel_classes[0], 0) + 1
        eligible = sorted(counts)
        uniform = 1.0 / len(eligible)
        for cls in eligible:
            assert abs(counts[cls] / n_draws - uniform) < 0.05

    def test_base_class_labels(self, pool):
        base, novel = fold_classes(0)
        ep = sample_episode(pool, n_way=1, k_shot=1, seed=2, base_classes=base,
                            candidate_classes=novel)
        assert ep.novel_classes[0] in novel
        assert ep.base_class_labels is not None
        for i, cls in enumerate(ep.query.labels):
            if int(cls) in base:
                assert ep.base_class_labels[i] == base.index(int(cls))
            else:
                assert ep.base_class_labels[i] == -1

    def test_determinism(self, pool):
        a = sample_episode(pool, n_way=2, k_shot=1, seed=11)
        b = sample_episode(pool, n_way=2, k_shot=1, seed=11)
        assert a.novel_classes == b.novel_classes
        assert a.query is b.query


class TestSceneIO:
    def test_roundtrip(self, tmp_path):
        scene = generate_scene(small_config(), 8)
        path = tmp_path / "scene.dafs"
        write_scene(scene, path)
        loaded = read_scene(path)
        assert scenes_equal(scene, loaded)

    def test_truncated_file_errors_at_line_3(self, tmp_path):
        path = tmp_path / "bad.dafs"
        path.write_text("DAFS 1\n2 1\n0.0 0.0 0.0 1 1\n")
        with pytest.raises(SceneParseError, match="line 3") as exc:
            read_scene(path)
        assert exc.value.line == 3

    def test_hand_written_fixture(self, tmp_path):
        path = tmp_path / "hand.dafs"
        path.write_text(
            "DAFS 1\n"
            "3 2\n"
            "0.5 -1.25 2 1 1\n"
            "1e-3 0 3.5 1 1\n"
            "2.25 0.125 0.0625 4 4\n"
        )
        scene = read_scene(path)
        np.testing.assert_array_equal(
            scene.points,
            [[0.5, -1.25, 2.0], [1e-3, 0.0, 3.5], [2.25, 0.125, 0.0625]],
        )
        np.testing.assert_array_equal(scene.texture, [1, 1, 4])
        np.testing.assert_array_equal(scene.labels, [1, 1, 4])
        assert scene.class_set == [1, 4]

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.dafs"
        path.write_text("NOPE\n1 1\n0 0 0 1 1\n")
        with pytest.raises(SceneParseError, match="line 1"):
            read_scene(path)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.dafs"
        path.write_text("DAFS 1\n2 1\n0 0 0 1 1\n0 0 oops 1 1\n")
        with pytest.raises(SceneParseError, match="line 4"):
            read_scene(path)

    @pytest.mark.parametrize("text, problem", [
        ("DAFS 1\n-1 0\n", "point count -1 is negative"),
        ("DAFS 1\n-2 1\n0 0 0 1 1\n", "point count -2 is negative"),
        ("DAFS 1\n1 -1\n0 0 0 1 1\n", "class count -1 is negative"),
    ], ids=["no_rows", "one_row", "negative_class_count"])
    def test_negative_count_names_line_2(self, tmp_path, text, problem):
        path = tmp_path / "bad.dafs"
        path.write_text(text)
        with pytest.raises(SceneParseError, match=f"^line 2: {problem}$") as exc:
            read_scene(path)
        assert exc.value.line == 2

    def test_class_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.dafs"
        path.write_text("DAFS 1\n1 3\n0 0 0 1 1\n")
        with pytest.raises(SceneParseError, match="line 2"):
            read_scene(path)

    @pytest.mark.parametrize("row, problem", [
        ("nan 0 0 -3 2", "non-finite"),
        ("0 -inf 0 1 2", "non-finite"),
        ("0 0 0 -3 2", "texture id -3"),
        ("0 0 0 10 2", "texture id 10"),
        ("0 0 0 1 -1", "label id -1"),
        ("0 0 0 1 10", "label id 10"),
    ])
    def test_invalid_row_values_name_line(self, tmp_path, row, problem):
        path = tmp_path / "bad.dafs"
        path.write_text(f"DAFS 1\n2 2\n0 0 0 1 1\n{row}\n")
        with pytest.raises(SceneParseError, match=f"line 4: {problem}") as exc:
            read_scene(path)
        assert exc.value.line == 4
