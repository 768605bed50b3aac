import dataclasses
import gc

import numpy as np
import pytest

from dafss import autodiff as ad
from dafss import model as model_module
from dafss.arbitration import DecoderParams
from dafss.autodiff import Tensor, backward, constant
from dafss.errors import ConfigurationError, InputError, NumericError, ShapeError
from dafss.experts import run_expert
from dafss.metrics import evaluate
from dafss.model import MODES, ModelConfig, SegModel, named_tensors
from dafss.optim import AdamW
from dafss.scenes import SceneConfig, build_pool, fold_classes, sample_episode
from dafss.training import (
    LossWeights,
    base_loss,
    grad_norm,
    seg_loss,
    total_loss,
    train_episode,
    train_run,
)

from conftest import central_difference, relative_error


def tiny_config(**kw):
    defaults = dict(base_class_ids=tuple(fold_classes(0)[0]), n_way=1,
                    d_uf=8, uf_hidden=12, d_if=12, d_geo=12, d_sem=16, d_arb=8,
                    heads=2, sam_layers=1, seed=3)
    defaults.update(kw)
    return ModelConfig(**defaults)


# Each real-valued setting, built from one value.
REAL_SETTINGS = {
    **{field: (lambda v, field=field: LossWeights(**{field: v}))
       for field in ("lambda_base", "lambda_proto", "lambda_consistency")},
    "lr": lambda v: AdamW({}, lr=v),
    "weight_decay": lambda v: AdamW({}, weight_decay=v),
    "texture_confusion": lambda v: SceneConfig(texture_confusion=v),
}


@pytest.fixture(scope="module")
def pool():
    cfg = SceneConfig(points_per_object=(12, 20), plane_count=(2, 3), box_count=(1, 2),
                      cylinder_count=(1, 2), seed=5)
    return build_pool(cfg, 25)


def expert_features(monkeypatch, model, episode, train):
    """``model.forward`` once, returning the features each expert produced,
    keyed by its attribute: "geo_expert" (also the fused variant's one
    expert) or "sem_expert". The semantic expert's features hold one row per
    distinct row of its correlation."""
    seen = {}
    names = {id(t): name for name, t in named_tensors(model).items()}

    def recording_expert(corr, params, counts=None):
        seen[names[id(params.ln_gamma)].split(".")[0]] = out = run_expert(corr, params, counts)
        return out

    monkeypatch.setattr(model_module, "run_expert", recording_expert)
    model.forward(episode, train=train)
    monkeypatch.undo()
    return seen


def running_statistics(model):
    """The bytes of every merge pathway's batch-norm running statistics."""
    return [t.data.tobytes() for p in model.arb.pathways for t in (p.bn_mean, p.bn_var)]


@pytest.fixture
def episode(pool):
    base, _ = fold_classes(0)
    return sample_episode(pool, n_way=1, k_shot=1, seed=4, base_classes=base,
                          candidate_classes=base)


class TestLosses:
    def test_seg_uniform_logits(self, rng):
        logits = constant(np.zeros((7, 3)))
        labels = rng.integers(0, 3, 7)
        assert abs(seg_loss(logits, labels).item() - np.log(3)) < 1e-10

    def test_seg_loss_vanishes_with_margin(self):
        labels = np.array([0, 1])
        prev = np.inf
        for margin in (1.0, 4.0, 16.0):
            logits = constant(np.array([[margin, 0.0], [0.0, margin]]))
            val = seg_loss(logits, labels).item()
            assert val < prev
            prev = val
        assert prev < 1e-6

    def test_seg_fixture_matches_log_softmax_oracle(self, rng):
        logits = rng.standard_normal((3, 4))
        labels = np.array([2, 0, 3])
        expected = -np.mean([
            logits[i, l] - np.log(np.sum(np.exp(logits[i]))) for i, l in enumerate(labels)
        ])
        got = seg_loss(constant(logits), labels).item()
        assert abs(got - expected) < 1e-12

    def test_seg_out_of_range_label_names_point(self):
        with pytest.raises(InputError, match="point 1"):
            seg_loss(constant(np.zeros((2, 2))), np.array([0, 5]))

    def test_base_loss_empty_is_exact_zero(self):
        loss = base_loss(constant(np.zeros((3, 4))), np.array([-1, -1, -1]))
        assert loss.item() == 0.0 and not loss.requires_grad

    def test_base_loss_uniform(self):
        aux = constant(np.zeros((4, 5)))
        labels = np.array([0, 2, -1, 4])
        assert abs(base_loss(aux, labels).item() - np.log(5)) < 1e-10

    def test_base_fixture_matches_oracle(self, rng):
        aux = rng.standard_normal((2, 3))
        labels = np.array([1, 2])
        expected = -np.mean([
            aux[i, l] - np.log(np.sum(np.exp(aux[i]))) for i, l in enumerate(labels)
        ])
        assert abs(base_loss(constant(aux), labels).item() - expected) < 1e-12

    def test_total_loss_degenerate_weights_is_seg(self):
        seg = constant(2.5)
        w = LossWeights(lambda_base=0.0, lambda_proto=0.0, lambda_consistency=0.0)
        total = total_loss(seg, constant(1.0), constant(1.0), constant(1.0), w)
        assert total is seg

    def test_total_loss_default_weights_arithmetic(self):
        w = LossWeights()  # 0.1, 0.001, 0.5
        total = total_loss(constant(1.0), constant(1.0), constant(1.0), constant(1.0), w)
        assert abs(total.item() - 1.601) < 1e-12

    def test_total_loss_linearity(self):
        w = LossWeights(lambda_base=0.2, lambda_proto=0.0, lambda_consistency=0.0)
        t1 = total_loss(constant(1.0), constant(1.0), None, None, w).item()
        t2 = total_loss(constant(1.0), constant(3.0), None, None, w).item()
        assert abs((t2 - t1) - 0.2 * 2.0) < 1e-12


def seg_loss_reference(logits, labels):
    """seg_loss as its own formula, before it shared one cross-entropy with base_loss."""
    n, c = logits.shape
    onehot = np.zeros((n, c))
    onehot[np.arange(n), labels] = 1.0
    return ad.scale(ad.sum_all(ad.mul(ad.log_softmax(logits), constant(onehot))), -1.0 / n)


def base_loss_reference(aux_logits, base_labels):
    """base_loss as its own formula, before it shared one cross-entropy with seg_loss."""
    keep = base_labels >= 0
    n, c = aux_logits.shape
    onehot = np.zeros((n, c))
    onehot[keep, base_labels[keep]] = 1.0
    picked = ad.mul(ad.log_softmax(aux_logits), constant(onehot))
    return ad.scale(ad.sum_all(picked), -1.0 / int(keep.sum()))


class TestSharedCrossEntropy:
    @pytest.mark.parametrize("loss, reference, low", [(seg_loss, seg_loss_reference, 0),
                                                      (base_loss, base_loss_reference, -1)],
                             ids=["seg", "base"])
    @pytest.mark.parametrize("n, c", [(1, 2), (9, 3), (40, 7)])
    def test_bitwise_equal_to_own_formula(self, loss, reference, low, n, c):
        rng = np.random.default_rng([n, c, -low])
        data = rng.standard_normal((n, c)) * 3
        labels = rng.integers(low, c, n)
        labels[0] = c - 1  # at least one labelled point
        results = []
        for fn in (loss, reference):
            logits = ad.parameter(data.copy())
            value = fn(logits, labels)
            grads = backward(value)
            results.append((value.data.tobytes(), grads[logits].tobytes()))
        assert results[0] == results[1]

    def test_base_out_of_range_label_names_point(self):
        with pytest.raises(InputError, match="base label 3 out of range \\[0,3\\) at point 2"):
            base_loss(constant(np.zeros((3, 3))), np.array([-1, 0, 3]))

    def test_negative_seg_label_rejected(self):
        with pytest.raises(InputError, match="label -1 out of range \\[0,2\\) at point 0"):
            seg_loss(constant(np.zeros((2, 2))), np.array([-1, 0]))

    @pytest.mark.parametrize("loss, what", [(seg_loss, "labels"), (base_loss, "base labels")])
    @pytest.mark.parametrize("n_labels", [4, 6])
    def test_label_count_must_match_logit_rows(self, loss, what, n_labels):
        with pytest.raises(ShapeError, match=f"^{n_labels} {what} for 5 rows of logits"):
            loss(constant(np.zeros((5, 3))), np.zeros(n_labels, dtype=np.int64))


class TestGradNorm:
    def test_three_four_five(self):
        a = ad.parameter(np.array([0.0]))
        b = ad.parameter(np.array([0.0]))
        a.grad, b.grad = np.array([3.0]), np.array([4.0])
        assert grad_norm([a, b]) == 5.0

    def test_all_zero(self):
        a = ad.parameter(np.zeros(3))
        a.grad = np.zeros(3)
        assert grad_norm([a]) == 0.0

    def test_tensor_without_gradient_adds_zero(self):
        a = ad.parameter(np.zeros(2))
        b = ad.parameter(np.zeros(1))
        b.grad = np.array([2.0])
        assert grad_norm([a, b]) == 2.0
        assert grad_norm([a]) == 0.0

    def test_matches_flat_concatenation_oracle(self, episode):
        model = SegModel(tiny_config(), "decoupled")
        out = model.forward(episode, train=True)
        loss = seg_loss(out.logits, episode.query_labels)
        grad_map = backward(loss)
        for tensors in model.pathway_tensors():
            flat = np.concatenate([
                grad_map.get(t, np.zeros_like(t.data)).ravel() for t in tensors
            ]) if tensors else np.zeros(1)
            assert abs(grad_norm(tensors) - np.linalg.norm(flat)) < 1e-12


class TestConfigurationErrors:
    @pytest.mark.parametrize("field, kwargs", [
        ("heads", dict(heads=0)),
        ("d_geo", dict(d_geo=13)),
        ("d_sem", dict(heads=3, d_geo=12, d_sem=16, d_arb=9)),
        ("d_arb", dict(d_arb=9)),
        ("d_arb", dict(heads=1, d_arb=1)),
        ("sam_layers", dict(sam_layers=0)),
        ("n_way", dict(n_way=0)),
        ("base_class_ids", dict(base_class_ids=())),
        ("base_class_ids", dict(base_class_ids=(0, 1, 1))),
        ("base_class_ids", dict(base_class_ids=(0, 10))),
        ("base_class_ids", dict(base_class_ids=(-1, 2))),
        ("d_uf", dict(d_uf=0)),
        ("uf_hidden", dict(uf_hidden=0)),
        ("d_if", dict(d_if=0)),
        ("d_geo", dict(d_geo=0)),
        ("d_sem", dict(d_sem=-2)),
        ("seed", dict(seed=-1)),
    ], ids=["no_heads", "heads_split_d_geo", "heads_split_d_sem", "heads_split_d_arb",
            "no_background_partition", "no_sam_layer", "no_way", "no_base_class",
            "repeated_base_class", "base_class_past_table", "negative_base_class",
            "no_uf_width", "no_uf_hidden_width", "no_if_width", "no_geo_width",
            "negative_sem_width", "negative_seed"])
    def test_invalid_model_config_names_field(self, field, kwargs):
        with pytest.raises(ConfigurationError, match=f"^{field} = "):
            tiny_config(**kwargs)

    @pytest.mark.parametrize("field, value", [
        ("d_geo", 192.0), ("heads", 4.0), ("sam_layers", 1.5), ("seed", 1.5),
        ("n_way", True), ("d_arb", "8"), ("base_class_ids", (0, 1.5)),
        ("base_class_ids", (False, 1)),
    ], ids=["float_d_geo", "float_heads", "fractional_sam_layers", "fractional_seed",
            "bool_n_way", "string_d_arb", "fractional_base_class", "bool_base_class"])
    def test_integer_field_rejects_non_integer(self, field, value):
        with pytest.raises(ConfigurationError, match=f"^{field} = .*integer"):
            ModelConfig(**{field: value})

    def test_numpy_integers_are_integers(self, episode):
        cfg = tiny_config(d_geo=np.int64(12), heads=np.int32(2), seed=np.uint8(3),
                          base_class_ids=tuple(np.array(fold_classes(0)[0])))
        logits = SegModel(cfg, "decoupled").forward(episode, train=False).logits.data
        np.testing.assert_array_equal(
            logits, SegModel(tiny_config(), "decoupled").forward(episode, train=False).logits.data)

    def test_model_config_cannot_be_changed_past_its_checks(self):
        cfg = tiny_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.heads = 5
        with pytest.raises(ConfigurationError, match="^d_geo = "):
            dataclasses.replace(cfg, heads=5)

    def test_smallest_valid_model_config_builds(self, episode):
        cfg = tiny_config(heads=1, d_geo=1, d_sem=1, d_arb=2, base_class_ids=(0, 9))
        assert cfg.d_bg == 1
        for mode in MODES:
            assert SegModel(cfg, mode).forward(episode, train=True).logits.shape[1] == 2

    def test_loss_weights_cannot_be_changed_past_their_checks(self):
        weights = LossWeights()
        with pytest.raises(dataclasses.FrozenInstanceError):
            weights.lambda_base = "0.1"
        with pytest.raises(ConfigurationError, match="^lambda_base = "):
            dataclasses.replace(weights, lambda_base="0.1")

    @pytest.mark.parametrize("field", ["lambda_base", "lambda_proto", "lambda_consistency"])
    @pytest.mark.parametrize("value", [-1.0, np.nan, np.inf])
    def test_invalid_loss_weight_names_field(self, field, value):
        with pytest.raises(ConfigurationError, match=f"^{field} = "):
            LossWeights(**{field: value})

    @pytest.mark.parametrize("make", [
        lambda: LossWeights(lambda_proto=-1.0),
        lambda: SceneConfig(texture_confusion=1.5),
        lambda: AdamW({}, lr=0.0),
        lambda: AdamW({}, weight_decay=-1.0),
        lambda: fold_classes(2),
    ], ids=["loss_weight", "texture_confusion", "lr", "weight_decay", "fold"])
    def test_other_configs_raise_configuration_error(self, make):
        with pytest.raises(ConfigurationError):
            make()

    @pytest.mark.parametrize("field", list(REAL_SETTINGS))
    @pytest.mark.parametrize("value", ["0.1", None, True, np.array([0.1, 0.2])],
                             ids=["string", "none", "bool", "array"])
    def test_real_setting_rejects_a_non_number_by_name(self, field, value):
        with pytest.raises(ConfigurationError, match=f"^{field} = .*number"):
            REAL_SETTINGS[field](value)

    @pytest.mark.parametrize("field", list(REAL_SETTINGS))
    def test_real_setting_takes_numpy_scalars(self, field):
        for value in (np.float32(0.5), np.int64(1)):
            assert getattr(REAL_SETTINGS[field](value), field) == value


class TestModelStructure:
    def test_unknown_mode(self):
        with pytest.raises(ConfigurationError):
            SegModel(tiny_config(), "hybrid")

    def test_parameter_keys_are_attribute_paths(self):
        for mode in MODES:
            model = SegModel(tiny_config(sam_layers=2), mode)
            for name, t in model.parameters().items():
                owner = model
                for key in name.split("."):
                    owner = owner[int(key)] if isinstance(owner, list) else getattr(owner, key)
                assert owner is t, name

    def test_one_tensor_under_two_paths_rejected(self):
        # AdamW would step a tensor reached twice twice.
        model = SegModel(tiny_config(), "fused")
        model.base.b = model.base.w
        with pytest.raises(ConfigurationError, match="'base.w' and 'base.b'"):
            model.parameters()

    @pytest.mark.parametrize("mode", MODES)
    def test_state_dict_keys(self, mode):
        model = SegModel(tiny_config(sam_layers=2), mode)
        decoupled = mode == "decoupled"
        linear = ("w", "b")
        pathway = ("bn_gamma", "bn_beta", "bn_mean", "bn_var", "conv_w")
        layer = ("inject.w", "inject.b", "ln_gamma", "ln_beta", "attn.wqkv", "attn.wo")
        expected = ([f"uf.{n}.{p}" for n in ("hidden", "out") for p in linear]
                    + ["geo_expert.cores", "geo_expert.mix", "geo_expert.ln_gamma"]
                    + (["geo_head.w", "geo_head.b",
                        "sem_expert.cores", "sem_expert.mix", "sem_expert.ln_gamma",
                        "sem_head.w", "sem_head.b", "align.w", "align.b"] if decoupled else [])
                    + [f"arb.pathways.{i}.{n}" for i in range(1 + decoupled) for n in pathway]
                    + ["arb.conv_b", "arb.gate.w", "arb.gate.b"]
                    + [f"arb.layers.{i}.{n}" for i in range(2) for n in layer]
                    + [f"decoder.{n}.{p}" for n in ("conv", "out") for p in linear]
                    + ["base.w", "base.b"])
        assert list(model.state_dict()) == expected

    @pytest.mark.parametrize("mode, count", [("decoupled", 41), ("fused", 27)])
    def test_state_dict_is_parameters_plus_running_statistics(self, mode, count):
        # Default sizes: 37 and 25 parameters, the counts AdamW steps.
        model = SegModel(ModelConfig(), mode)
        params, state = model.parameters(), model.state_dict()
        assert len(state) == count
        pathways = {"decoupled": 2, "fused": 1}[mode]
        assert [n for n in state if n not in params] == [
            f"arb.pathways.{i}.bn_{s}" for i in range(pathways) for s in ("mean", "var")]
        assert [n for n in state if n in params] == list(params)

    def test_parameters_hold_no_statistic(self):
        # The bench's directional derivative and AdamW step every entry.
        for mode in MODES:
            model = SegModel(tiny_config(), mode)
            params = model.parameters()
            assert all(p.requires_grad for p in params.values())
            for p in model.arb.pathways:
                assert p.bn_mean not in params.values()
                assert p.bn_var not in params.values()

    def test_pathways_are_disjoint_expert_groups(self):
        pathways = {"decoupled": (("uf", "geo_expert", "geo_head"), ("sem_expert", "sem_head")),
                    "fused": (("uf", "geo_expert"), ())}
        for mode, prefixes in pathways.items():
            model = SegModel(tiny_config(), mode)
            names = {id(t): name for name, t in named_tensors(model).items()}
            uf, sem = ([names[id(t)] for t in tensors] for tensors in model.pathway_tensors())
            assert not set(uf) & set(sem)
            for names, owners in zip((uf, sem), prefixes):
                assert names == [n for n in model.parameters() if n.split(".")[0] in owners]

    def test_fused_has_no_classifier_head(self):
        # the fused variant is the decoupled one without the semantic expert,
        # its merge pathway, the alignment projection and both classifier heads
        fused = list(SegModel(tiny_config(), "fused").parameters())
        decoupled = [n for n in SegModel(tiny_config(), "decoupled").parameters()
                     if n.split(".")[0] not in ("geo_head", "sem_expert", "sem_head", "align")
                     and not n.startswith("arb.pathways.1.")]
        assert fused == decoupled

    @pytest.mark.parametrize("mode", MODES)
    def test_support_mask_that_is_not_bool_rejected(self, episode, mode):
        shot = episode.support[0][0]
        ints = dataclasses.replace(shot, mask=shot.mask.astype(np.int64))
        with pytest.raises(InputError, match="^support mask of way 0, shot 0 has dtype int64, not bool$"):
            SegModel(tiny_config(), mode).forward(dataclasses.replace(episode, support=[[ints]]),
                                                  train=False)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("change", [-1, 1], ids=["short", "long"])
    def test_support_mask_of_another_size_names_way_shot_and_sizes(self, pool, mode, change):
        base, _ = fold_classes(0)
        episode = sample_episode(pool, n_way=1, k_shot=2, seed=4, base_classes=base,
                                 candidate_classes=base)
        shot = episode.support[0][1]
        n = len(shot.scene)
        mask = np.resize(shot.mask, n + change)
        bad = [[episode.support[0][0], dataclasses.replace(shot, mask=mask)]]
        with pytest.raises(ShapeError, match=rf"^support mask of way 0, shot 1 has shape "
                                             rf"\({n + change},\), its scene has {n} points"):
            SegModel(tiny_config(), mode).forward(dataclasses.replace(episode, support=bad),
                                                  train=False)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("ways", [0, 2], ids=["none", "twice"])
    def test_support_with_another_number_of_ways_names_both_counts(self, episode, mode, ways):
        support = [episode.support[0]] * ways
        with pytest.raises(ShapeError, match=f"^support holds {ways} ways, the episode is 1-way$"):
            SegModel(tiny_config(), mode).forward(dataclasses.replace(episode, support=support),
                                                  train=False)

    @pytest.mark.parametrize("mode", MODES)
    def test_support_way_without_shots_named(self, episode, mode):
        with pytest.raises(ShapeError, match="^support way 0 holds no shot$"):
            SegModel(tiny_config(), mode).forward(dataclasses.replace(episode, support=[[]]),
                                                  train=False)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("shots", [2, 3])
    def test_way_with_another_number_of_shots_names_way_shots_and_k_shot(self, episode, mode,
                                                                          shots):
        # Such a support used to run as a shots-shot episode, whatever k_shot said.
        assert episode.k_shot == 1
        support = [list(episode.support[0]) * shots]
        with pytest.raises(ShapeError,
                           match=f"^support way 0 holds {shots} shots, the episode is 1-shot$"):
            SegModel(tiny_config(), mode).forward(dataclasses.replace(episode, support=support),
                                                  train=False)

    def test_variants_share_logit_interface(self, episode):
        cfg = tiny_config()
        for mode in ("decoupled", "fused"):
            model = SegModel(cfg, mode)
            out = model.forward(episode, train=False)
            assert out.logits.shape == (len(episode.query), 2)

    def test_fused_couples_semantic_input(self, episode):
        cfg = tiny_config()
        model = SegModel(cfg, "fused")
        before = model.forward(episode, train=False).logits.data.copy()
        model.if_head.class_embed = model.if_head.class_embed[::-1].copy()
        after = model.forward(episode, train=False).logits.data
        assert not np.array_equal(before, after)

    def test_decoupled_geo_path_ignores_semantic_perturbation(self, episode, monkeypatch):
        cfg = tiny_config()
        model = SegModel(cfg, "decoupled")
        before = expert_features(monkeypatch, model, episode, train=False)
        model.if_head.class_embed = model.if_head.class_embed[::-1].copy()
        after = expert_features(monkeypatch, model, episode, train=False)
        assert before["geo_expert"].data.tobytes() == after["geo_expert"].data.tobytes()
        assert not np.array_equal(before["sem_expert"].data, after["sem_expert"].data)

    def test_cross_expert_gradients_zero_with_alignment_off(self, episode, monkeypatch):
        model = SegModel(tiny_config(), "decoupled")
        r_geo = expert_features(monkeypatch, model, episode, train=True)["geo_expert"]
        grads = backward(ad.sum_all(r_geo))
        names = {id(t): name for name, t in named_tensors(model).items()}
        assert all(not names[id(t)].startswith("sem_expert.") for t in grads)
        for t in named_tensors(model.sem_expert).values():
            assert t.grad is None

    def test_decoupled_train_builds_both_alignment_losses(self, episode):
        # The losses do not depend on the weights; total_loss alone applies them.
        out = SegModel(tiny_config(), "decoupled").forward(episode, train=True)
        assert out.proto_loss.item() > 0.0 and out.consist_loss.item() > 0.0

    def test_eval_builds_no_alignment_nodes(self, episode):
        model = SegModel(tiny_config(), "decoupled")
        out = model.forward(episode, train=False)
        assert out.proto_loss is None and out.consist_loss is None

    def test_fused_never_builds_alignment_nodes(self, episode):
        model = SegModel(tiny_config(), "fused")
        out = model.forward(episode, train=True)
        assert out.proto_loss is None and out.consist_loss is None

    @pytest.mark.parametrize("sam_layers", [1, 2])
    @pytest.mark.parametrize("mode, experts", [("decoupled", 2), ("fused", 1)])
    def test_one_attention_call_per_expert_and_arbitration_layer(self, episode, monkeypatch,
                                                                 mode, experts, sam_layers):
        model = SegModel(tiny_config(sam_layers=sam_layers), mode)
        calls, attention = [], ad.attention

        def counting(*args, **kwargs):
            calls.append(kwargs.get("heads", 1))
            return attention(*args, **kwargs)

        monkeypatch.setattr(ad, "attention", counting)
        model.forward(episode, train=True)
        assert calls == [model.config.heads] * (experts + sam_layers)

    def test_param_counts_reported(self):
        counts = {mode: sum(p.data.size for p in SegModel(tiny_config(), mode).parameters().values())
                  for mode in MODES}
        assert counts["decoupled"] > counts["fused"] > 0

    def test_state_dict_roundtrip(self, episode):
        cfg = tiny_config()
        model = SegModel(cfg, "decoupled")
        state = model.state_dict()
        clone = SegModel(cfg, "decoupled")
        for p in clone.parameters().values():
            p.data = p.data + 0.1
        clone.load_state_dict(state)
        np.testing.assert_array_equal(clone.forward(episode, train=False).logits.data,
                                      model.forward(episode, train=False).logits.data)

    def test_load_empty_checkpoint_rejected(self):
        with pytest.raises(ConfigurationError, match="arb.pathways.0.bn_var"):
            SegModel(tiny_config(), "fused").load_state_dict({})

    @pytest.mark.parametrize("key", ["geo_expert.mix", "arb.pathways.1.bn_mean"])
    def test_load_checkpoint_missing_key_rejected(self, key):
        model = SegModel(tiny_config(), "decoupled")
        state = model.state_dict()
        del state[key]
        with pytest.raises(ConfigurationError, match=key):
            model.load_state_dict(state)

    @pytest.mark.parametrize("mode, old, new", [
        ("decoupled", "uf.w1", "uf.hidden.w"),
        ("decoupled", "arb.bn_state.running_mean", "arb.pathways.0.bn_mean"),
        ("decoupled", "arb.bn_state.running_var", "arb.pathways.0.bn_var"),
        ("decoupled", "arb.bn_gamma", "arb.pathways.0.bn_gamma"),
        ("decoupled", "arb.conv_w", "arb.pathways.1.conv_w"),
        ("fused", "arb.bn_mean", "arb.pathways.0.bn_mean"),
        ("decoupled", "arb.l0.attn.wq0", "arb.layers.0.attn.wqkv"),
        ("decoupled", "geo.attn.wqkv", "geo_expert.cores"),
        ("decoupled", "sem.attn.wo", "sem_expert.mix"),
        ("decoupled", "geo.lift_w", "geo_expert.mix"),
        ("decoupled", "geo.attn.core0", "geo_expert.cores"),
        ("fused", "fused.attn.proj", "geo_expert.mix"),
        ("fused", "fused.ln_beta", "geo_expert.ln_gamma"),
        # the names tensors carried before a name became the attribute path
        ("decoupled", "uf.hidden_w", "uf.hidden.w"), ("decoupled", "base_b", "base.b"),
        ("decoupled", "geo.attn.cores", "geo_expert.cores"),
        ("decoupled", "sem.cls_w", "sem_head.w"), ("decoupled", "align.proj_b", "align.b"),
        ("decoupled", "arb.sem.bn_mean", "arb.pathways.1.bn_mean"),
        ("decoupled", "arb.geo.conv_w", "arb.pathways.0.conv_w"),
        ("decoupled", "arb.gate_w", "arb.gate.w"),
        ("decoupled", "arb.l0.attn.wqkv", "arb.layers.0.attn.wqkv"),
        ("decoupled", "arb.l0.inject_b", "arb.layers.0.inject.b"),
        ("decoupled", "dec.out_w", "decoder.out.w"),
        ("fused", "fused.attn.mix", "geo_expert.mix"),
        ("fused", "fused.ln_gamma", "geo_expert.ln_gamma"),
        ("fused", "arb.fused.bn_var", "arb.pathways.0.bn_var"),
    ])
    def test_load_checkpoint_with_old_key_name_rejected(self, mode, old, new):
        model = SegModel(tiny_config(), mode)
        state = model.state_dict()
        state[old] = state.pop(new)
        with pytest.raises(ConfigurationError, match="unknown"):
            model.load_state_dict(state)

    def test_failed_load_writes_nothing(self):
        cfg = tiny_config()
        model = SegModel(cfg, "decoupled")
        before = model.state_dict()
        state = {name: arr + 1.0 for name, arr in SegModel(cfg, "decoupled").state_dict().items()}
        last = list(model.parameters())[-1]
        state[last] = np.zeros(state.pop(last).size + 1)  # now the last key
        with pytest.raises(ConfigurationError, match=last):
            model.load_state_dict(state)
        after = model.state_dict()
        assert list(after) == list(before)
        assert all(np.array_equal(after[name], before[name]) for name in before)

    @pytest.mark.parametrize("convert", [
        lambda a: np.round(a * 8).astype(np.int64),
        lambda a: a.astype(np.float32),
        lambda a: a.tolist(),
    ], ids=["int64", "float32", "list"])
    def test_loaded_values_train_as_c_order_float64(self, convert, episode):
        source = SegModel(tiny_config(seed=4), "decoupled").state_dict()
        state = {name: convert(arr) for name, arr in source.items()}
        model = SegModel(tiny_config(), "decoupled")
        model.load_state_dict(state)
        for name, t in named_tensors(model).items():
            assert t.data.dtype == np.float64 and t.data.flags.c_contiguous, name
            np.testing.assert_array_equal(t.data, np.asarray(state[name], dtype=np.float64))
        train_episode(model, episode, AdamW(model.parameters()), LossWeights(), step=0)
        assert all(t.data.dtype == np.float64 for t in named_tensors(model).values())

    def test_loaded_values_are_copies(self):
        model = SegModel(tiny_config(), "fused")
        state = model.state_dict()
        model.load_state_dict(state)
        state["base.b"] += 1.0
        assert not np.any(model.base.b.data)

    @pytest.mark.parametrize("bad, match", [
        (lambda a: np.full_like(a, np.nan), "non-finite"),
        (lambda a: np.where(np.arange(a.size).reshape(a.shape) == 1, np.inf, a), "non-finite"),
        (lambda a: np.full(a.shape, "0.5"), "not an integer or float"),
        (lambda a: [[0.0] * a.shape[1], [0.0]], "not an integer or float"),
        (lambda a: a.astype(complex), "not an integer or float"),
        (lambda a: a > 0, "not an integer or float"),
        (lambda a: None, "not an integer or float"),
    ], ids=["nan", "inf", "strings", "ragged_list", "complex", "bool", "none"])
    def test_non_numeric_or_non_finite_value_names_key_and_writes_nothing(self, bad, match):
        cfg = tiny_config()
        model = SegModel(cfg, "decoupled")
        before = model.state_dict()
        state = {name: arr + 1.0 for name, arr in SegModel(cfg, "decoupled").state_dict().items()}
        state["arb.pathways.1.conv_w"] = bad(state["arb.pathways.1.conv_w"])
        with pytest.raises(ConfigurationError, match=f"'arb.pathways.1.conv_w'.*{match}"):
            model.load_state_dict(state)
        after = model.state_dict()
        assert all(after[name].tobytes() == before[name].tobytes() for name in before)


class TestPredict:
    @pytest.mark.parametrize("mode", MODES)
    def test_matches_argmax_of_forward(self, mode, pool):
        model = SegModel(tiny_config(), mode)
        _, novel = fold_classes(0)
        for seed in range(3):
            ep = sample_episode(pool, 1, 1, seed=seed, candidate_classes=novel)
            logits = model.forward(ep, train=False).logits
            assert logits.requires_grad
            np.testing.assert_array_equal(model.predict(ep), np.argmax(logits.data, axis=1))
        assert all(p.grad is None for p in model.parameters().values())
        assert model.forward(ep, train=False).logits.requires_grad  # graph mode is back

    @pytest.mark.parametrize("mode", MODES)
    def test_logits_without_a_graph_equal_recorded_logits_over_several_tiles(self, mode, pool,
                                                                           monkeypatch):
        _, novel = fold_classes(0)
        ep = sample_episode(pool, 1, 1, seed=0, candidate_classes=novel)
        n = len(ep.query)
        # 4 query rows per tile wherever the keys are the query's points.
        monkeypatch.setattr(ad, "ATTENTION_TILE_ELEMS", 4 * n)
        assert n > 2 * 4
        model = SegModel(tiny_config(), mode)
        recorded = model.forward(ep, train=False).logits
        assert recorded.requires_grad
        with ad.no_grad():
            logits = model.forward(ep, train=False).logits
        assert logits.data.tobytes() == recorded.data.tobytes()
        np.testing.assert_array_equal(model.predict(ep), np.argmax(recorded.data, axis=1))

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("texture_id", [-1, 10])
    def test_texture_id_outside_the_table_names_it(self, mode, texture_id, pool):
        _, novel = fold_classes(0)
        ep = sample_episode(pool, 1, 1, seed=0, candidate_classes=novel)
        texture = ep.query.texture.copy()
        texture[1] = texture_id
        bad = dataclasses.replace(ep, query=dataclasses.replace(ep.query, texture=texture))
        with pytest.raises(InputError, match=f"scene.texture id {texture_id} outside .* at point 1"):
            SegModel(tiny_config(), mode).predict(bad)


@pytest.mark.parametrize("mode", MODES)
def test_query_smaller_than_decoder_k_trains_and_predicts(mode):
    # a valid 7-point query: the decoder smooths over all of its points
    pool = build_pool(SceneConfig(points_per_object=(1, 2), seed=1), 40)
    ep = sample_episode(pool, 1, 1, seed=1)
    assert len(ep.query) < DecoderParams.k
    model = SegModel(tiny_config(), mode)
    record = train_episode(model, ep, AdamW(model.parameters()), LossWeights(), step=0)
    assert np.isfinite(record.loss_total)
    assert model.predict(ep).shape == (len(ep.query),)


@pytest.mark.parametrize("mode", MODES)
class TestEvaluationLeavesNoTrace:
    @pytest.fixture
    def novel_episodes(self, pool):
        _, novel = fold_classes(0)
        return [sample_episode(pool, 1, 1, seed=s, candidate_classes=novel) for s in range(4)]

    @staticmethod
    def outputs(model, episodes):
        return [(model.predict(ep).tobytes(), model.forward(ep, train=False).logits.data.tobytes())
                for ep in episodes]

    def test_evaluate_changes_no_parameter_statistic_or_output(self, mode, novel_episodes):
        model = SegModel(tiny_config(), mode)
        params, state = model.parameters(), model.state_dict()
        before = self.outputs(model, novel_episodes)
        evaluate(model, novel_episodes)
        after_params, after_state = model.parameters(), model.state_dict()
        assert list(after_params) == list(params)
        assert all(after_params[k] is params[k] for k in params)
        assert list(after_state) == list(state)
        assert all(after_state[k].tobytes() == state[k].tobytes() for k in state)
        assert self.outputs(model, novel_episodes) == before

    def test_training_after_evaluate_equals_training_alone(self, mode, pool, novel_episodes):
        base, _ = fold_classes(0)
        train_ep = sample_episode(pool, 1, 1, seed=4, base_classes=base, candidate_classes=base)

        def trained(evaluate_first):
            model = SegModel(tiny_config(), mode)
            if evaluate_first:
                evaluate(model, novel_episodes)
            train_episode(model, train_ep, AdamW(model.parameters(), lr=1e-2), LossWeights(), 0)
            return model, evaluate(model, novel_episodes)

        model, after = trained(evaluate_first=True)
        fresh, fresh_after = trained(evaluate_first=False)
        assert vars(after) == vars(fresh_after)
        assert self.outputs(model, novel_episodes) == self.outputs(fresh, novel_episodes)
        # The step moves the logits, so outputs of the untrained model would show.
        assert self.outputs(model, novel_episodes) != self.outputs(SegModel(tiny_config(), mode),
                                                                   novel_episodes)

    def test_episode_that_raises_leaves_graph_mode_and_outputs(self, mode, pool, novel_episodes):
        model = SegModel(tiny_config(), mode)
        before = self.outputs(model, novel_episodes)
        wrong_way = sample_episode(pool, 2, 1, seed=0)
        with pytest.raises(ConfigurationError, match="2-way"):
            evaluate(model, [novel_episodes[0], wrong_way, novel_episodes[1]])
        assert self.outputs(model, novel_episodes) == before
        assert model.forward(novel_episodes[0], train=True).logits.requires_grad


class TestTrainEpisode:
    def test_deterministic_records(self, pool):
        base, _ = fold_classes(0)

        def run():
            model = SegModel(tiny_config(), "decoupled")
            opt = AdamW(model.parameters(), lr=1e-3)
            eps = [sample_episode(pool, 1, 1, seed=s, base_classes=base, candidate_classes=base)
                   for s in range(5)]
            return train_run(model, eps, opt, LossWeights())

        r1, r2 = run(), run()
        assert [vars(a) for a in r1] == [vars(b) for b in r2]

    def test_step_leaves_nothing_to_the_cyclic_collector(self, episode):
        # Every object a decoupled training step creates is freed by
        # reference counting: the collector, saving what it finds, finds
        # nothing.
        model = SegModel(tiny_config(), "decoupled")
        opt = AdamW(model.parameters())
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.garbage.clear()
            train_episode(model, episode, opt, LossWeights(), step=0)
            gc.collect()
            found = [type(x).__name__ for x in gc.garbage]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert found == []

    def test_frozen_heads_bit_identical_after_training(self, pool):
        base, _ = fold_classes(0)
        model = SegModel(tiny_config(), "decoupled")
        frozen_before = model.frozen_state()
        opt = AdamW(model.parameters(), lr=1e-3)
        eps = [sample_episode(pool, 1, 1, seed=s, base_classes=base, candidate_classes=base)
               for s in range(10)]
        train_run(model, eps, opt, LossWeights())
        for before, after in zip(frozen_before, model.frozen_state()):
            assert before.tobytes() == after.tobytes()

    def test_total_decomposition_matches_components(self, pool):
        base, _ = fold_classes(0)
        model = SegModel(tiny_config(), "decoupled")
        opt = AdamW(model.parameters(), lr=1e-3)
        w = LossWeights()
        eps = [sample_episode(pool, 1, 1, seed=s, base_classes=base, candidate_classes=base)
               for s in range(5)]
        for rec in train_run(model, eps, opt, w):
            recomposed = (rec.loss_seg + w.lambda_base * rec.loss_base
                          + w.lambda_proto * rec.loss_proto
                          + w.lambda_consistency * rec.loss_consistency)
            assert abs(recomposed - rec.loss_total) < 1e-9

    def test_consistency_gradient_reaches_semantic_classifier(self, pool):
        base, _ = fold_classes(0)
        model = SegModel(tiny_config(), "decoupled")
        ep = sample_episode(pool, 1, 1, seed=2, base_classes=base, candidate_classes=base)
        out = model.forward(ep, train=True)
        grads = backward(out.consist_loss)
        assert np.linalg.norm(grads[model.sem_head.w]) > 0
        assert np.linalg.norm(grads[model.geo_head.w]) > 0

    @pytest.mark.parametrize("mode", MODES)
    def test_every_parameter_gets_a_gradient(self, mode, episode):
        model = SegModel(tiny_config(), mode)
        out = model.forward(episode, train=True)
        assert out.base_logits is not None
        seg = seg_loss(out.logits, episode.query_labels)
        base = base_loss(out.base_logits, episode.base_class_labels)
        backward(total_loss(seg, base, out.proto_loss, out.consist_loss, LossWeights()))
        assert [n for n, p in model.parameters().items() if p.grad is None] == []

    @pytest.mark.parametrize("mode", MODES)
    def test_sweep_reaches_every_parent_before_its_child(self, mode, episode):
        out = SegModel(tiny_config(), mode).forward(episode, train=True)
        seg = seg_loss(out.logits, episode.query_labels)
        base = base_loss(out.base_logits, episode.base_class_labels)
        total = total_loss(seg, base, out.proto_loss, out.consist_loss, LossWeights())
        order = ad._toposort(total)
        place = {id(t): i for i, t in enumerate(order)}
        assert order[-1] is total and len(place) == len(order)
        for child in order:
            for parent in child._parents:
                if parent.requires_grad:
                    assert place[id(parent)] < place[id(child)]

    def test_nonfinite_loss_leaves_batch_norm_statistics_untouched(self, episode):
        model = SegModel(tiny_config(), "decoupled")
        opt = AdamW(model.parameters(), lr=1e-3)
        model.base.w.data[0, 0] = np.nan
        before = running_statistics(model)
        with pytest.raises(NumericError):
            train_episode(model, episode, opt, LossWeights(), step=0)
        assert running_statistics(model) == before

    @pytest.mark.parametrize("field", ["query_labels", "base_class_labels"])
    def test_label_one_short_raises_shape_error(self, episode, field):
        short = dataclasses.replace(episode, **{field: getattr(episode, field)[:-1]})
        model = SegModel(tiny_config(), "decoupled")
        with pytest.raises(ShapeError, match=f"{len(episode.query) - 1} .*labels for "
                                             f"{len(episode.query)} rows of logits"):
            train_episode(model, short, AdamW(model.parameters()), LossWeights(), step=0)

    @pytest.mark.parametrize("field", ["query_labels", "base_class_labels"])
    def test_shape_error_leaves_batch_norm_statistics_untouched(self, episode, field):
        short = dataclasses.replace(episode, **{field: getattr(episode, field)[:-1]})
        model = SegModel(tiny_config(), "decoupled")
        opt = AdamW(model.parameters())
        before = running_statistics(model)
        with pytest.raises(ShapeError):
            train_episode(model, short, opt, LossWeights(), step=0)
        assert running_statistics(model) == before
        assert all(p.grad is None for p in model.parameters().values())
        assert all(st.step_count == 0 for st in opt.state.values())

    def test_named_tensor_added_outside_the_library_is_model_state(self, episode, monkeypatch):
        # A non-trainable tensor anywhere under the model is checkpointed,
        # loaded and rolled back like the batch-norm running statistics.
        def with_counter(fill):
            model = SegModel(tiny_config(), "decoupled")
            model.counter = Tensor(np.full(3, fill))
            return model

        model = with_counter(1.0)
        assert "counter" not in model.parameters()
        state = model.state_dict()
        assert state["counter"].tobytes() == np.full(3, 1.0).tobytes()
        clone = with_counter(0.0)
        clone.load_state_dict(state)
        assert clone.counter.data.tobytes() == model.counter.data.tobytes()
        del state["counter"]
        with pytest.raises(ConfigurationError, match="counter"):
            clone.load_state_dict(state)

        merge = model_module.merge_features
        bumps = []

        def counting_merge(blocks, params, train):
            model.counter.data += 1.0  # in place
            bumps.append(model.counter.data.copy())
            return merge(blocks, params, train)

        monkeypatch.setattr(model_module, "merge_features", counting_merge)
        model.base.w.data[0, 0] = np.nan
        with pytest.raises(NumericError):
            train_episode(model, episode, AdamW(model.parameters()), LossWeights(), step=0)
        assert [b.tolist() for b in bumps] == [[2.0] * 3]
        assert model.counter.data.tobytes() == np.full(3, 1.0).tobytes()

    def test_loss_decreases_on_separable_fixture(self):
        # 1-way 1-shot, no texture confusion, tiny pool: the total loss
        # after 20 steps should be below the starting loss for most seeds
        scene_cfg = SceneConfig(points_per_object=(12, 18), plane_count=(1, 2),
                                box_count=(1, 2), cylinder_count=(1, 1), seed=11)
        pool = build_pool(scene_cfg, 12)
        base, _ = fold_classes(0)
        wins = 0
        for seed in range(5):
            model = SegModel(tiny_config(seed=seed), "decoupled")
            opt = AdamW(model.parameters(), lr=1e-3)
            eps = [sample_episode(pool, 1, 1, seed=100 * seed + s, base_classes=base,
                                  candidate_classes=base) for s in range(20)]
            recs = train_run(model, eps, opt, LossWeights())
            first = np.mean([r.loss_total for r in recs[:5]])
            last = np.mean([r.loss_total for r in recs[-5:]])
            if last < first:
                wins += 1
        assert wins >= 4


class TestDistinctSemanticRows:
    """The semantic expert refines each distinct row of its correlation once,
    and its features stay at those rows through its classifier head and the
    merge's batch norm and product."""

    @staticmethod
    def logits_and_grads(model, episode, train):
        out = model.forward(episode, train=train)
        loss = seg_loss(out.logits, episode.query_labels)
        if train:
            loss = total_loss(loss, base_loss(out.base_logits, episode.base_class_labels),
                              out.proto_loss, out.consist_loss, LossWeights())
        backward(loss)
        return out.logits.data, {n: p.grad for n, p in model.parameters().items()
                                 if p.grad is not None}

    @staticmethod
    def every_row(corr_sem, params):
        """The semantic expert over every row, each row a group of its own."""
        n = corr_sem.shape[0]
        return run_expert(corr_sem, params), (np.arange(n), np.ones(n, dtype=np.int64))

    @staticmethod
    def concatenated_merge(blocks, params, train):
        """The blocks gathered to the points and put side by side, through
        one batch norm and one product built from the pathways' tensors."""
        x = ad.concat([r if groups is None else ad.take_rows(r, groups[0]) for r, groups in blocks],
                      axis=1)

        def joined(field):
            return ad.concat([getattr(p, field) for p in params.pathways], axis=0)

        stats = [Tensor(np.concatenate([getattr(p, f).data for p in params.pathways]))
                 for f in ("bn_mean", "bn_var")]
        normed = ad.batch_norm(x, joined("bn_gamma"), joined("bn_beta"), *stats, train)
        bounds = np.cumsum([0] + [p.bn_mean.shape[0] for p in params.pathways])
        for p, lo, hi in zip(params.pathways, bounds[:-1], bounds[1:]):
            p.bn_mean.data, p.bn_var.data = (s.data[lo:hi].copy() for s in stats)
        return ad.relu(ad.add_rowvec(ad.matmul(normed, joined("conv_w")), params.conv_b))

    @pytest.mark.parametrize("train", [False, True])
    def test_forward_matches_expert_over_all_rows(self, episode, monkeypatch, train):
        model = SegModel(tiny_config(), "decoupled")
        logits, grads = self.logits_and_grads(model, episode, train)
        monkeypatch.setattr(model_module, "_refine_semantic", self.every_row)
        monkeypatch.setattr(model_module, "merge_features", self.concatenated_merge)
        reference = SegModel(tiny_config(), "decoupled")
        ref_logits, ref_grads = self.logits_and_grads(reference, episode, train)
        assert np.max(np.abs(logits - ref_logits)) <= 1e-12 * np.max(np.abs(ref_logits))
        assert set(grads) == set(ref_grads) and "sem_expert.mix" in grads
        assert "arb.pathways.1.conv_w" in grads and "arb.pathways.1.bn_gamma" in grads
        largest = max(np.max(np.abs(g)) for g in ref_grads.values())
        worst = max(np.max(np.abs(grads[n] - ref_grads[n])) for n in grads)
        assert worst <= 1e-10 * largest
        state, ref_state = model.state_dict(), reference.state_dict()
        for name in (f"arb.pathways.{i}.bn_{s}" for i in (0, 1) for s in ("mean", "var")):
            assert np.max(np.abs(state[name] - ref_state[name])) <= 1e-12 * np.max(
                np.abs(ref_state[name])), name

    def test_semantic_expert_sees_fewer_rows_than_points(self, episode, monkeypatch):
        # So do the semantic classifier head and the merge's semantic product.
        model = SegModel(tiny_config(), "decoupled")
        product_rows = {}
        names = {id(t): name for name, t in named_tensors(model).items()}
        matmul = ad.matmul

        def recording_matmul(a, b):
            product_rows[names.get(id(b))] = a.shape[0]
            return matmul(a, b)

        monkeypatch.setattr(ad, "matmul", recording_matmul)
        seen = expert_features(monkeypatch, model, episode, train=True)
        n, u = len(episode.query), seen["sem_expert"].shape[0]
        assert seen["geo_expert"].shape[0] == n
        assert u < n // 2
        assert product_rows["sem_head.w"] == product_rows["arb.pathways.1.conv_w"] == u
        assert product_rows["geo_head.w"] == product_rows["arb.pathways.0.conv_w"] == n

    @pytest.mark.parametrize("train", [False, True])
    def test_forward_forms_no_array_of_points_by_semantic_width(self, monkeypatch, train):
        # d_sem = 28 and d_geo + d_sem = 40 are widths no other array has.
        cfg = SceneConfig(seed=9)  # default density: over a hundred query points
        base, _ = fold_classes(0)
        episode = sample_episode(build_pool(cfg, 6), n_way=1, k_shot=1, seed=2, base_classes=base,
                                 candidate_classes=base)
        model = SegModel(tiny_config(d_sem=28), "decoupled")
        shapes = []
        node = ad._node

        def recording_node(data, parents, backward):
            out = node(data, parents, backward)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(ad, "_node", recording_node)
        model.forward(episode, train=train)
        n = len(episode.query)
        assert n > 100 and (n, 12) in shapes and any(s[1:] == (28,) for s in shapes)
        assert [s for s in shapes if s in ((n, 28), (n, 40))] == []


class TestGradientFreezing:
    def test_no_parameter_named_frozen(self, episode):
        model = SegModel(tiny_config(), "decoupled")
        out = model.forward(episode, train=True)
        loss = seg_loss(out.logits, episode.query_labels)
        grads = backward(loss)
        # every gradient belongs to a registered trainable parameter
        registered = set(model.parameters().values())
        assert all(t in registered for t in grads)


class TestWholeModelGradient:
    @pytest.mark.parametrize("mode", MODES)
    def test_sampled_entries_match_central_differences(self, episode, mode):
        # The consistency term's gradient is by design not its derivative
        # (each side is a stop-gradient anchor for the other), so it weighs zero.
        model = SegModel(tiny_config(), mode)
        weights = LossWeights(lambda_consistency=0.0)
        statistics = [(t, t.data.copy()) for t in named_tensors(model).values()
                      if not t.requires_grad]

        def loss():
            out = model.forward(episode, train=True)
            for t, data in statistics:  # train mode folds the batch into them
                t.data = data.copy()
            return total_loss(seg_loss(out.logits, episode.query_labels),
                              base_loss(out.base_logits, episode.base_class_labels),
                              out.proto_loss, out.consist_loss, weights)

        grads = backward(loss())
        rng = np.random.default_rng(17)
        for name, p in model.parameters().items():
            idx = rng.choice(p.data.size, size=min(3, p.data.size), replace=False)
            analytic = grads.get(p, np.zeros(p.shape)).reshape(-1)[idx]
            numeric = central_difference(loss, p, eps=1e-6, indices=idx)
            assert relative_error(analytic, numeric) <= 1e-6, name


def permuted_scene(scene, perm):
    """``scene`` with its points, and everything per point, in order ``perm``."""
    return dataclasses.replace(scene, points=scene.points[perm], texture=scene.texture[perm],
                               labels=scene.labels[perm])


def with_query_permuted(episode, perm):
    base = episode.base_class_labels
    return dataclasses.replace(episode, query=permuted_scene(episode.query, perm),
                               query_labels=episode.query_labels[perm],
                               base_class_labels=None if base is None else base[perm])


class TestWholeModelPermutation:
    """A scene is a set of points: permuting a query's points permutes
    everything the model says about them, and permuting a support shot's
    points changes nothing. Only rounding may differ, since sums over
    points run in another order."""

    @pytest.mark.parametrize("mode", MODES)
    def test_permuting_the_query_permutes_the_logits(self, episode, mode):
        model = SegModel(tiny_config(), mode)
        perm = np.random.default_rng(0).permutation(len(episode.query))
        logits = model.forward(episode, train=False).logits.data
        got = model.forward(with_query_permuted(episode, perm), train=False).logits.data
        assert np.max(np.abs(got - logits[perm])) <= 1e-12 * np.max(np.abs(logits))

    @pytest.mark.parametrize("mode", MODES)
    def test_permuting_each_support_shot_leaves_the_logits(self, pool, mode):
        base, _ = fold_classes(0)
        episode = sample_episode(pool, n_way=1, k_shot=2, seed=4, base_classes=base,
                                 candidate_classes=base)
        rng = np.random.default_rng(1)
        support = []
        for shots in episode.support:
            support.append([])
            for shot in shots:
                perm = rng.permutation(len(shot.scene))
                support[-1].append(dataclasses.replace(
                    shot, scene=permuted_scene(shot.scene, perm), mask=shot.mask[perm]))
        model = SegModel(tiny_config(), mode)
        logits = model.forward(episode, train=False).logits.data
        got = model.forward(dataclasses.replace(episode, support=support), train=False).logits.data
        assert np.max(np.abs(got - logits)) <= 1e-12 * np.max(np.abs(logits))

    @pytest.mark.parametrize("mode", MODES)
    def test_a_step_on_a_permuted_query_trains_the_same(self, episode, mode):
        def step(ep):
            model = SegModel(tiny_config(), mode)
            record = train_episode(model, ep, AdamW(model.parameters()), LossWeights(), step=0)
            return vars(record), model.state_dict()

        perm = np.random.default_rng(2).permutation(len(episode.query))
        record, state = step(episode)
        got_record, got_state = step(with_query_permuted(episode, perm))
        for field, want in record.items():
            assert abs(got_record[field] - want) <= 1e-12 * abs(want), field
        largest = max(np.max(np.abs(a)) for a in state.values())
        for name, want in state.items():
            assert np.max(np.abs(got_state[name] - want)) <= 1e-12 * largest, name
