import numpy as np
import pytest

from dafss import autodiff as ad
from dafss.alignment import consistency_loss, prototype_alignment_loss
from dafss.autodiff import backward, constant, parameter
from dafss.errors import ShapeError
from dafss.layers import Linear, init_linear
from dafss.training import LossWeights, total_loss

from conftest import central_difference, check_grads, relative_error


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
        params = init_linear(rng, 2, 4)
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
        params = init_linear(rng, 2, 4)
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
        z = rng.standard_normal((5, 3))
        loss = consistency_loss(constant(z), constant(z.copy()))
        assert abs(loss.item()) < 1e-15

    def test_hand_fixture_matches_direct_log_sum(self):
        p = np.array([[0.5, 0.5]])
        q = np.array([[0.9, 0.1]])
        kl_pq = np.sum(p * (np.log(p) - np.log(q)))
        kl_qp = np.sum(q * (np.log(q) - np.log(p)))
        expected = 0.5 * kl_pq + 0.5 * kl_qp
        loss = consistency_loss(constant(np.log(p) + 3.0), constant(np.log(q) - 2.0))
        assert abs(loss.item() - expected) < 1e-10

    def test_first_term_blocks_gradient_into_anchor(self, rng):
        from dafss.alignment import _kl_vs_anchor

        a = parameter(rng.standard_normal((4, 3)))
        b = parameter(rng.standard_normal((4, 3)))
        grads = backward(_kl_vs_anchor(ad.softmax(a), ad.log_softmax(a), ad.log_softmax(b)))
        assert a in grads
        assert b not in grads and b.grad is None

    def test_gradient_reaches_both_sides_of_symmetric_loss(self, rng):
        a = parameter(rng.standard_normal((4, 3)))
        b = parameter(rng.standard_normal((4, 3)))
        grads = backward(consistency_loss(a, b))
        assert np.linalg.norm(grads[a]) > 0
        assert np.linalg.norm(grads[b]) > 0

    @pytest.mark.parametrize("z_sem", [[[0.0, 0.0]], [[-800.0, 800.0]]], ids=["uniform", "opposite"])
    def test_saturated_logits_give_finite_loss_and_gradients(self, z_sem):
        # softmax underflows to an exact 0 here, where the log of it would be -inf
        a = parameter([[800.0, -800.0]])
        b = parameter(z_sem)
        loss = consistency_loss(a, b)
        assert np.isfinite(loss.item())
        grads = backward(loss)
        assert np.all(np.isfinite(grads[a])) and np.all(np.isfinite(grads[b]))

    def test_nonnegative(self, rng):
        for _ in range(10):
            z_geo = rng.standard_normal((6, 4)) * 3
            z_sem = rng.standard_normal((6, 4)) * 3
            assert consistency_loss(constant(z_geo), constant(z_sem)).item() >= -1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError, match="logit shapes differ"):
            consistency_loss(constant(np.zeros((2, 2))), constant(np.zeros((3, 2))))

    def test_gradient_vs_finite_differences_with_frozen_anchors(self, rng):
        # Finite differences through a stop-gradient anchor would see the
        # anchor move; the correct oracle freezes both anchors at their
        # base values, which is exactly what the loss claims to compute.
        a = parameter(rng.standard_normal((3, 4)))
        b = parameter(rng.standard_normal((3, 4)))
        log_p0 = ad.log_softmax(a).data.copy()
        log_q0 = ad.log_softmax(b).data.copy()

        def kl_rows(z, anchor_log):
            log_ratio = ad.sub(ad.log_softmax(z), constant(anchor_log))
            return ad.scale(ad.sum_all(ad.mul(ad.softmax(z), log_ratio)), 1.0 / z.shape[0])

        def surrogate():
            return ad.add(ad.scale(kl_rows(a, log_q0), 0.5), ad.scale(kl_rows(b, log_p0), 0.5))

        grads = backward(consistency_loss(a, b))
        for t in (a, b):
            fd = central_difference(surrogate, t).reshape(t.shape)
            assert relative_error(grads[t], fd) < 1e-4


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
