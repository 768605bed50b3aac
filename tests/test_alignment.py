import numpy as np
import pytest

from dafss import autodiff as ad
from dafss.alignment import consistency_loss, head_probs, prototype_alignment_loss
from dafss.autodiff import backward, constant, parameter
from dafss.errors import ShapeError
from dafss.layers import Linear, init_linear
from dafss.training import LossWeights, total_loss

from conftest import check_grads, relative_error


def identity_params(d):
    return Linear(w=constant(np.eye(d)), b=constant(np.zeros(d)))


class TestPrototypeAlignment:
    def test_zero_at_exact_match(self, rng):
        protos = rng.standard_normal((3, 4))
        loss = prototype_alignment_loss(constant(protos), constant(protos.copy()), identity_params(4))
        assert loss.item() == 0.0

    def test_single_pair_hand_computation(self):
        geo = np.array([[1.0, 2.0]])
        sem = np.array([[0.0, -1.0]])
        # identity projection: squared distance is 1 + 9 = 10, one pair
        loss = prototype_alignment_loss(constant(geo), constant(sem), identity_params(2))
        assert abs(loss.item() - 10.0) < 1e-12

    def test_mean_over_pairs(self, rng):
        geo = rng.standard_normal((4, 3))
        sem = rng.standard_normal((4, 3))
        loss = prototype_alignment_loss(constant(geo), constant(sem), identity_params(3))
        expected = float(np.mean(np.sum((geo - sem) ** 2, axis=1)))
        assert abs(loss.item() - expected) < 1e-12

    def test_anchor_gets_zero_gradient(self, rng):
        geo = parameter(rng.standard_normal((3, 2)))
        sem = parameter(rng.standard_normal((3, 4)))
        params = init_linear(rng, 2, 4, "align.proj")
        grads = backward(prototype_alignment_loss(geo, sem, params))
        assert sem not in grads and sem.grad is None
        assert geo in grads and params.w in grads

    def test_count_mismatch(self, rng):
        with pytest.raises(ShapeError, match="pair"):
            prototype_alignment_loss(constant(np.zeros((3, 2))), constant(np.zeros((2, 2))),
                                     identity_params(2))

    def test_nonnegative_and_gradient(self, rng):
        geo = parameter(rng.standard_normal((3, 2)))
        sem = constant(rng.standard_normal((3, 4)))
        params = init_linear(rng, 2, 4, "align.proj")
        loss = prototype_alignment_loss(geo, sem, params)
        assert loss.item() >= 0.0
        tensors = {"geo": geo, "w": params.w, "b": params.b}
        check_grads(lambda: prototype_alignment_loss(geo, sem, params), tensors, tol=1e-4)

    def test_one_step_decreases_distance_with_anchor_fixed(self, rng):
        geo = parameter(rng.standard_normal((3, 4)))
        sem = constant(rng.standard_normal((3, 4)))
        sem_before = sem.data.copy()
        params = identity_params(4)

        def distance():
            return float(np.mean(np.sum((geo.data - sem.data) ** 2, axis=1)))

        before = distance()
        grads = backward(prototype_alignment_loss(geo, sem, params))
        geo.data -= 0.05 * grads[geo]
        assert distance() < before
        np.testing.assert_array_equal(sem.data, sem_before)


class TestConsistency:
    def test_zero_when_equal(self, rng):
        p = rng.dirichlet(np.ones(3), size=5)
        loss = consistency_loss(constant(p), constant(p.copy()))
        assert abs(loss.item()) < 1e-15

    def test_hand_fixture_matches_direct_log_sum(self):
        p = np.array([[0.5, 0.5]])
        q = np.array([[0.9, 0.1]])
        kl_pq = np.sum(p * (np.log(p) - np.log(q)))
        kl_qp = np.sum(q * (np.log(q) - np.log(p)))
        expected = 0.5 * kl_pq + 0.5 * kl_qp
        loss = consistency_loss(constant(p), constant(q))
        assert abs(loss.item() - expected) < 1e-10

    def test_first_term_blocks_gradient_into_anchor(self, rng):
        from dafss.alignment import _kl_vs_anchor

        p = parameter(rng.dirichlet(np.ones(3), size=4))
        q = parameter(rng.dirichlet(np.ones(3), size=4))
        grads = backward(_kl_vs_anchor(p, q))
        assert p in grads
        assert q not in grads and q.grad is None

    def test_gradient_reaches_both_sides_of_symmetric_loss(self, rng):
        p = parameter(rng.dirichlet(np.ones(3), size=4))
        q = parameter(rng.dirichlet(np.ones(3), size=4))
        grads = backward(consistency_loss(p, q))
        assert np.linalg.norm(grads[p]) > 0
        assert np.linalg.norm(grads[q]) > 0

    def test_probability_floor_guards_zeros(self):
        p = np.array([[1.0, 0.0]])
        q = np.array([[0.5, 0.5]])
        loss = consistency_loss(constant(p), constant(q))
        assert np.isfinite(loss.item())

    def test_nonnegative(self, rng):
        for _ in range(10):
            p = rng.dirichlet(np.ones(4), size=6)
            q = rng.dirichlet(np.ones(4), size=6)
            assert consistency_loss(constant(p), constant(q)).item() >= -1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            consistency_loss(constant(np.ones((2, 2)) / 2), constant(np.ones((3, 2)) / 2))

    def test_gradient_vs_finite_differences_with_frozen_anchors(self, rng):
        # Finite differences through a stop-gradient anchor would see the
        # anchor move; the correct oracle freezes both anchors at their
        # base values, which is exactly what the loss claims to compute.
        a = parameter(rng.standard_normal((3, 4)))
        b = parameter(rng.standard_normal((3, 4)))
        p0 = ad.softmax(a).data.copy()
        q0 = ad.softmax(b).data.copy()

        def kl_rows(p, anchor_vals):
            log_ratio = ad.sub(ad.safe_log(p), constant(np.log(anchor_vals)))
            return ad.scale(ad.sum_all(ad.mul(p, log_ratio)), 1.0 / p.shape[0])

        def surrogate():
            p = ad.softmax(a)
            q = ad.softmax(b)
            return ad.add(ad.scale(kl_rows(p, q0), 0.5), ad.scale(kl_rows(q, p0), 0.5))

        loss = consistency_loss(ad.softmax(a), ad.softmax(b))
        grads = backward(loss)
        from conftest import central_difference

        for t in (a, b):
            fd = central_difference(surrogate, t).reshape(t.shape)
            assert relative_error(grads[t], fd) < 1e-4


class TestHeadProbs:
    def test_zero_classifier_gives_uniform(self, rng):
        head = init_linear(rng, 8, 4, "e.cls")
        head.w.data[:] = 0.0
        probs = head_probs(constant(rng.standard_normal((5, 8))), head).data
        np.testing.assert_allclose(probs, 0.25, atol=1e-15)

    def test_rows_sum_to_one(self, rng):
        head = init_linear(rng, 8, 3, "e.cls")
        probs = head_probs(constant(rng.standard_normal((6, 8))), head).data
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_argmax_matches_bruteforce(self, rng):
        head = init_linear(rng, 6, 3, "e.cls")
        head.b.data = rng.standard_normal(3)
        refined = rng.standard_normal((10, 6))
        probs = head_probs(constant(refined), head).data
        logits = refined @ head.w.data + head.b.data
        brute = np.array([int(np.argmax(row)) for row in logits])
        np.testing.assert_array_equal(np.argmax(probs, axis=1), brute)


class TestAlignmentTotal:
    """The alignment terms of ``training.total_loss``, weighted by ``LossWeights``."""

    def test_both_weights_zero_gives_exact_zero(self):
        seg = constant(0.0)
        w = LossWeights(lambda_proto=0.0, lambda_consistency=0.0)
        total = total_loss(seg, None, parameter(5.0), parameter(3.0), w)
        assert total is seg
        assert total.item() == 0.0 and not total.requires_grad

    def test_default_weights_arithmetic(self):
        total = total_loss(constant(0.0), None, constant(2.0), constant(0.4), LossWeights())
        assert abs(total.item() - 0.202) < 1e-15

    def test_linearity_in_each_component(self):
        w = LossWeights(lambda_proto=0.01, lambda_consistency=0.25)
        base = total_loss(constant(0.0), None, constant(1.0), constant(1.0), w).item()
        scaled = total_loss(constant(0.0), None, constant(3.0), constant(1.0), w).item()
        assert abs((scaled - base) - 0.01 * 2.0) < 1e-15

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            LossWeights(lambda_proto=-0.1)
