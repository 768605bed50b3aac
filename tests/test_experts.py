import numpy as np
import pytest

from dafss import autodiff as ad
from dafss.autodiff import backward, constant, parameter
from dafss.errors import ShapeError
from dafss.experts import attention_factors, init_attention, init_expert, mhsa, run_expert
from dafss.layers import init_weight, linear
from dafss.model import named_tensors

from conftest import check_grads, relative_error, value_weights


def factored_expert(corr, params):
    """``run_expert`` with its weight-only factors built in the same graph."""
    return run_expert(corr, params, attention_factors(params))


class TestMHSA:
    @pytest.mark.parametrize("d, h", [(6, 1), (8, 2), (12, 4)])
    def test_init_draws_per_head_blocks_in_order(self, d, h):
        # wqkv holds the draws of 3h per-head [d, d/h] weights, q heads
        # first, then k, then v, side by side; wo is drawn after them.
        rng = np.random.default_rng(5)
        attn = init_attention(rng, d, h, "t")
        ref_rng = np.random.default_rng(5)
        blocks = [init_weight(ref_rng, d, d // h, "ref").data for _ in range(3 * h)]
        assert attn.wqkv.shape == (d, 3 * d) and attn.heads == h
        for i, block in enumerate(blocks):
            got = attn.wqkv.data[:, i * (d // h):(i + 1) * (d // h)]
            assert got.tobytes() == block.tobytes(), f"block {i}"
        assert attn.wo.data.tobytes() == init_weight(ref_rng, d, d, "ref").data.tobytes()
        assert rng.standard_normal(4).tobytes() == ref_rng.standard_normal(4).tobytes()
        assert list(named_tensors(attn)) == ["t.wqkv", "t.wo"]

    def test_single_token_hand_computation(self, rng):
        # one token: softmax over a single key is exactly 1, so the output
        # is concat_h(x @ Wv_h) @ Wo computed by hand
        d, h = 6, 2
        attn = init_attention(rng, d, h, "t")
        x = rng.standard_normal((1, d))
        out = mhsa(constant(x), attn).data
        manual = np.hstack([x @ value_weights(attn, i) for i in range(h)]) @ attn.wo.data
        assert relative_error(out, manual) < 1e-12

    def test_permutation_equivariance(self, rng):
        d, h = 8, 2
        attn = init_attention(rng, d, h, "t")
        x = rng.standard_normal((5, d))
        out = mhsa(constant(x), attn).data
        perm = rng.permutation(5)
        out_p = mhsa(constant(x[perm]), attn).data
        np.testing.assert_allclose(out_p, out[perm], atol=1e-12)

    def test_gradient(self, rng):
        d, h = 8, 2
        attn = init_attention(rng, d, h, "t")
        x = parameter(rng.standard_normal((3, d)))
        w = constant(rng.standard_normal((3, d)))
        tensors = {"x": x}
        tensors.update(named_tensors(attn))
        check_grads(lambda: ad.sum_all(ad.mul(mhsa(x, attn), w)), tensors, tol=1e-3)


class TestExperts:
    def test_output_shapes_at_paper_defaults(self, rng):
        n_s, n_q = 2, 7
        geo = init_expert(rng, n_s, 192, heads=4, prefix="geo")
        sem = init_expert(rng, n_s, 512, heads=4, prefix="sem")
        c = constant(rng.uniform(-1, 1, (n_q, n_s)))
        assert factored_expert(c, geo).shape == (n_q, 192)
        assert factored_expert(c, sem).shape == (n_q, 512)

    def test_decoupling_by_construction(self, rng):
        # the geometric output is a function of its own correlation only
        n_s, n_q = 3, 5
        geo = init_expert(rng, n_s, 16, heads=2, prefix="geo")
        c_geo = rng.uniform(-1, 1, (n_q, n_s))
        c_sem = rng.uniform(-1, 1, (n_q, n_s))
        before = factored_expert(constant(c_geo), geo).data
        c_sem += rng.standard_normal(c_sem.shape)  # perturb the other modality
        after = factored_expert(constant(c_geo), geo).data
        assert before.tobytes() == after.tobytes()

    def test_single_token_hand_oracle(self, rng):
        n_s = 2
        params = init_expert(rng, n_s, 8, heads=2, prefix="e")
        c = rng.uniform(-1, 1, (1, n_s))
        out = factored_expert(constant(c), params).data

        h = c @ params.lift.w.data + params.lift.b.data
        att = np.hstack([h @ value_weights(params.attn, i) for i in range(2)]) @ params.attn.wo.data
        pre = h + att
        mu, var = pre.mean(), pre.var()
        manual = (pre - mu) / np.sqrt(var + 1e-5) * params.ln_gamma.data + params.ln_beta.data
        assert relative_error(out, manual) < 1e-10

    def test_factors_built_once_serve_every_input_bitwise(self, rng):
        params = init_expert(rng, 2, 16, heads=4, prefix="e")
        with ad.no_grad():
            factors = attention_factors(params)
        assert not any(t.requires_grad for t in factors.cores + [factors.out_proj])
        for n in (1, 9, 40):
            c = constant(rng.uniform(-1, 1, (n, 2)))
            assert (run_expert(c, params, factors).data.tobytes()
                    == factored_expert(c, params).data.tobytes())

    def test_shape_mismatch(self, rng):
        params = init_expert(rng, 3, 8, heads=2, prefix="e")
        with pytest.raises(ShapeError):
            factored_expert(constant(np.zeros((4, 2))), params)

    def test_gradient_isolation_between_experts(self, rng):
        geo = init_expert(rng, 2, 8, heads=2, prefix="geo")
        sem = init_expert(rng, 2, 12, heads=2, prefix="sem")
        c = constant(rng.uniform(-1, 1, (4, 2)))
        grads = backward(ad.sum_all(factored_expert(c, geo)))
        geo_names = set(named_tensors(geo))
        touched = {t.name for t in grads}
        assert touched <= geo_names
        for t in named_tensors(sem).values():
            assert t.grad is None

    def test_gradient_vs_finite_differences(self, rng):
        params = init_expert(rng, 2, 8, heads=2, prefix="e")
        c = parameter(rng.uniform(-1, 1, (3, 2)))
        w = constant(rng.standard_normal((3, 8)))
        tensors = {"c": c}
        tensors.update(named_tensors(params))
        check_grads(lambda: ad.sum_all(ad.mul(factored_expert(c, params), w)), tensors, tol=1e-3)


def dense_expert(corr, params):
    """The expert with self-attention over the lifted [N, d] tokens."""
    h = linear(corr, params.lift)
    return ad.layer_norm(ad.add(h, mhsa(h, params.attn)), params.ln_gamma, params.ln_beta)


class TestLowRankAttention:
    @pytest.mark.parametrize("n", [1, 7, 200])
    @pytest.mark.parametrize("n_way", [1, 2])
    @pytest.mark.parametrize("d", [192, 512])
    def test_matches_dense_attention(self, d, n_way, n):
        rng = np.random.default_rng([d, n_way, n])
        params = init_expert(rng, n_way + 1, d, heads=4, prefix="e")
        tensors = named_tensors(params)
        for t in tensors.values():  # move biases and norms off their trivial init
            t.data = t.data + rng.normal(0, 0.1, t.shape)
        corr = parameter(rng.uniform(-1, 1, (n, n_way + 1)), name="corr")
        tensors["corr"] = corr
        w_ref = constant(rng.standard_normal((n, d)))

        def run(expert):
            for t in tensors.values():
                t.grad = None
            refined = expert(corr, params)
            grads = backward(ad.sum_all(ad.mul(refined, w_ref)))
            return refined.data, {name: grads[t].copy() for name, t in tensors.items()}

        ref_refined, ref_grads = run(dense_expert)
        got_refined, got_grads = run(factored_expert)
        pairs = {"refined": (got_refined, ref_refined)}
        pairs.update({f"grad {k}": (got_grads[k], ref_grads[k]) for k in tensors})
        for what, (got, ref) in pairs.items():
            # relative to the largest reference entry; an all-zero reference
            # (query/key weights when N=1) must be matched exactly
            err = np.max(np.abs(got - ref))
            assert err <= 1e-10 * np.max(np.abs(ref)), f"{what}: max abs error {err:.3e}"

