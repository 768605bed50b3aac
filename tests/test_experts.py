from types import SimpleNamespace

import numpy as np
import pytest

from dafss import autodiff as ad
from dafss.arbitration import init_attention, mhsa
from dafss.autodiff import backward, constant, parameter
from dafss.errors import ShapeError
from dafss.experts import init_expert, run_expert
from dafss.layers import init_linear, linear
from dafss.model import named_tensors

from conftest import check_grads, relative_error


def dense_draws(seed, n_s, d, heads):
    """The draws ``init_expert`` makes, from a second generator on the same
    seed: ``lift``, then the dense q/k/v and output weights of ``mhsa``."""
    rng = np.random.default_rng(seed)
    return init_linear(rng, n_s, d), init_attention(rng, d, heads), rng


def dense_factors(lift, attn):
    """``run_expert``'s ``K_h`` (a list) and ``mix = [L'; P]`` from dense
    weights, head by head."""
    lifted = np.vstack([lift.w.data, lift.b.data])  # L'
    d = attn.wo.shape[0]
    dh = d // attn.heads
    q, k, v = (lifted @ attn.wqkv.data[:, g * d:(g + 1) * d] for g in range(3))
    heads = [slice(h * dh, (h + 1) * dh) for h in range(attn.heads)]
    cores = [q[:, s] @ k[:, s].T / np.sqrt(dh) for s in heads]
    return cores, np.vstack([lifted] + [v[:, s] @ attn.wo.data[s] for s in heads])


class TestExperts:
    def test_output_shapes_at_paper_defaults(self, rng):
        n_s, n_q = 2, 7
        geo = init_expert(rng, n_s, 192, heads=4)
        sem = init_expert(rng, n_s, 512, heads=4)
        c = constant(rng.uniform(-1, 1, (n_q, n_s)))
        assert run_expert(c, geo).shape == (n_q, 192)
        assert run_expert(c, sem).shape == (n_q, 512)

    @pytest.mark.parametrize("n_s, d, h", [(2, 8, 2), (3, 12, 4), (2, 192, 4)])
    def test_init_keeps_the_factors_of_dense_draws(self, n_s, d, h):
        rng = np.random.default_rng(9)
        params = init_expert(rng, n_s, d, heads=h)
        lift, attn, ref_rng = dense_draws(9, n_s, d, h)
        r = n_s + 1
        assert params.cores.shape == (r, h * r) and params.mix.shape == ((h + 1) * r, d)
        assert params.mix.data[:n_s].tobytes() == lift.w.data.tobytes()
        assert not params.mix.data[r - 1].any()  # the zero lift bias
        assert rng.standard_normal(4).tobytes() == ref_rng.standard_normal(4).tobytes()
        cores, mix = dense_factors(lift, attn)
        for i, ref in enumerate(cores):
            assert relative_error(params.cores.data[:, i * r:(i + 1) * r], ref) < 1e-14
        assert relative_error(params.mix.data[r:], mix[r:]) < 1e-14
        assert list(named_tensors(params)) == ["cores", "mix", "ln_gamma"]

    def test_decoupling_by_construction(self, rng):
        # the geometric output is a function of its own correlation only
        n_s, n_q = 3, 5
        geo = init_expert(rng, n_s, 16, heads=2)
        c_geo = rng.uniform(-1, 1, (n_q, n_s))
        c_sem = rng.uniform(-1, 1, (n_q, n_s))
        before = run_expert(constant(c_geo), geo).data
        c_sem += rng.standard_normal(c_sem.shape)  # perturb the other modality
        after = run_expert(constant(c_geo), geo).data
        assert before.tobytes() == after.tobytes()

    def test_single_token_hand_oracle(self, rng):
        # one token: softmax over a single key is exactly 1, so each head
        # mixes C' into itself and the residual plus attention is
        # C' L' + [C', C'] @ P, with mix = [L'; P] from dense weights
        n_s = 2
        params = init_expert(rng, n_s, 8, heads=2)
        lift, attn, ref_rng = dense_draws(5, n_s, 8, 2)
        lift.b.data = ref_rng.normal(0, 0.1, 8)
        cores, mix = dense_factors(lift, attn)
        params.cores.data, params.mix.data = np.hstack(cores), mix
        c = rng.uniform(-1, 1, (1, n_s))
        out = run_expert(constant(c), params).data

        c1 = np.hstack([c, np.ones((1, 1))])
        pre = c @ lift.w.data + lift.b.data + np.hstack([c1, c1]) @ mix[n_s + 1:]
        manual = (pre - pre.mean()) / np.sqrt(pre.var() + 1e-5) * params.ln_gamma.data
        assert relative_error(out, manual) < 1e-10

    @pytest.mark.parametrize("n", [1, 9, 40])
    def test_output_without_graph_equals_recorded_bitwise(self, rng, n):
        # ``predict`` runs the experts under ``no_grad``, training records a
        # graph; the stored factors must give both the same bytes.
        params = init_expert(rng, 2, 16, heads=4)
        c = constant(rng.uniform(-1, 1, (n, 2)))
        recorded = run_expert(c, params)
        with ad.no_grad():
            free = run_expert(c, params)
        assert recorded.requires_grad and not free.requires_grad
        assert free.data.tobytes() == recorded.data.tobytes()

    def test_shape_mismatch(self, rng):
        params = init_expert(rng, 3, 8, heads=2)
        with pytest.raises(ShapeError):
            run_expert(constant(np.zeros((4, 2))), params)

    def test_gradient_isolation_between_experts(self, rng):
        geo = init_expert(rng, 2, 8, heads=2)
        sem = init_expert(rng, 2, 12, heads=2)
        c = constant(rng.uniform(-1, 1, (4, 2)))
        grads = backward(ad.sum_all(run_expert(c, geo)))
        names = {id(t): name for name, t in named_tensors(SimpleNamespace(geo=geo, sem=sem)).items()}
        touched = {names.get(id(t)) for t in grads}
        assert touched == {"geo.cores", "geo.mix", "geo.ln_gamma"}
        for t in named_tensors(sem).values():
            assert t.grad is None

    def test_gradient_vs_finite_differences(self, rng):
        params = init_expert(rng, 2, 8, heads=2)
        for t in named_tensors(params).values():  # move the zero bias and its factor rows
            t.data = t.data + rng.normal(0, 0.1, t.shape)
        c = parameter(rng.uniform(-1, 1, (3, 2)))
        w = constant(rng.standard_normal((3, 8)))
        tensors = {"c": c}
        tensors.update(named_tensors(params))
        check_grads(lambda: ad.sum_all(ad.mul(run_expert(c, params), w)), tensors, tol=1e-3)


class TestLowRankAttention:
    """``run_expert`` against residual ``mhsa`` over the lifted ``[N, d]``
    tokens, with the dense weights its factors were built from."""

    @pytest.mark.parametrize("n", [1, 7, 200])
    @pytest.mark.parametrize("n_way", [1, 2])
    @pytest.mark.parametrize("d", [192, 512])
    def test_matches_dense_attention(self, d, n_way, n):
        seed = [d, n_way, n]
        params = init_expert(np.random.default_rng(seed), n_way + 1, d, heads=4)
        lift, attn, rng = dense_draws(seed, n_way + 1, d, 4)
        # Move the bias and the norm off their trivial init, and give the
        # expert the factors of the dense weights with that bias.
        lift.b.data = rng.normal(0, 0.1, d)
        params.ln_gamma.data = params.ln_gamma.data + rng.normal(0, 0.1, d)
        cores, mix = dense_factors(lift, attn)
        params.cores.data, params.mix.data = np.hstack(cores), mix
        corr = parameter(rng.uniform(-1, 1, (n, n_way + 1)))
        w_ref = constant(rng.standard_normal((n, d)))
        no_shift = constant(np.zeros(d))

        def dense_expert(corr, params):
            h = linear(corr, lift)
            return ad.layer_norm(ad.add(h, mhsa(h, attn)), params.ln_gamma, no_shift)

        # Only corr and ln_gamma are inputs of both functions. The gradient
        # w.r.t. lift is another function in each: lift reaches the dense
        # attention's tokens, but only the identity head's block of mix.
        shared = {"corr": corr, "ln_gamma": params.ln_gamma}

        def run(expert):
            for t in shared.values():
                t.grad = None
            refined = expert(corr, params)
            grads = backward(ad.sum_all(ad.mul(refined, w_ref)))
            return refined.data, {name: grads[t].copy() for name, t in shared.items()}

        ref_refined, ref_grads = run(dense_expert)
        got_refined, got_grads = run(run_expert)
        pairs = {"refined": (got_refined, ref_refined)}
        pairs.update({f"grad {k}": (got_grads[k], ref_grads[k]) for k in shared})
        for what, (got, ref) in pairs.items():
            # relative to the largest reference entry
            err = np.max(np.abs(got - ref))
            assert err <= 1e-10 * np.max(np.abs(ref)), f"{what}: max abs error {err:.3e}"
