import numpy as np

from dafss import autodiff as ad
from dafss.autodiff import constant, parameter
from dafss.layers import init_linear, init_weight, linear

from conftest import check_grads


def test_init_weight_draws_normal_with_inverse_fan_in_variance():
    w = init_weight(np.random.default_rng(3), 7, 5)
    expected = np.random.default_rng(3).normal(0, 1.0 / np.sqrt(7), (7, 5))
    assert isinstance(w, np.ndarray) and w.tobytes() == expected.tobytes()


def test_init_linear_draws_the_weight_and_a_zero_bias():
    layer = init_linear(np.random.default_rng(0), 4, 3)
    assert layer.w.requires_grad and layer.b.requires_grad
    assert layer.w.data.tobytes() == init_weight(np.random.default_rng(0), 4, 3).tobytes()
    np.testing.assert_array_equal(layer.b.data, np.zeros(3))


def test_linear_is_matmul_plus_row_bias_bitwise(rng):
    layer = init_linear(rng, 4, 3)
    layer.b.data = rng.standard_normal(3)
    x = constant(rng.standard_normal((6, 4)))
    by_hand = ad.add_rowvec(ad.matmul(x, layer.w), layer.b)
    assert linear(x, layer).data.tobytes() == by_hand.data.tobytes()


def test_linear_gradient(rng):
    layer = init_linear(rng, 4, 3)
    x = parameter(rng.standard_normal((5, 4)))
    up = constant(rng.standard_normal((5, 3)))
    check_grads(lambda: ad.sum_all(ad.mul(linear(x, layer), up)),
                {"x": x, "w": layer.w, "b": layer.b})
