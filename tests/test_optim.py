import numpy as np
import pytest

from dafss.autodiff import parameter
from dafss.errors import ConfigurationError, NumericError
from dafss.optim import ADAMW_BLOCK, AdamW


def test_zero_grad_zero_decay_is_fixed_point():
    p = parameter(np.array([1.0, -2.0, 3.0]), name="w")
    p.grad = np.zeros(3)
    opt = AdamW({"w": p}, lr=0.1, weight_decay=0.0)
    opt.step()
    np.testing.assert_array_equal(p.data, [1.0, -2.0, 3.0])


def test_decoupled_decay_with_zero_gradient():
    p = parameter(np.array([2.0, -4.0]), name="w")
    p.grad = np.zeros(2)
    opt = AdamW({"w": p}, lr=0.1, weight_decay=0.01)
    opt.step()
    np.testing.assert_allclose(p.data, np.array([2.0, -4.0]) * (1.0 - 0.001), rtol=0, atol=1e-15)


def test_single_step_matches_hand_stepped_update():
    # One step on f(x) = x^2 at x0, stepped by hand with the same rule.
    x0, lr, wd, b1, b2, eps = 1.5, 0.05, 0.01, 0.9, 0.999, 1e-8
    g = 2.0 * x0
    m = (1 - b1) * g
    v = (1 - b2) * g * g
    m_hat = m / (1 - b1)
    v_hat = v / (1 - b2)
    expected = x0 - lr * wd * x0 - lr * m_hat / (np.sqrt(v_hat) + eps)

    p = parameter(np.array([x0]), name="x")
    p.grad = np.array([g])
    opt = AdamW({"x": p}, lr=lr, weight_decay=wd)
    opt.step()
    assert abs(p.data[0] - expected) < 1e-12


def two_steps_against_hand_stepped_reference(b1, b2, eps):
    """Two steps on f(x) = x^2 from x = 1, stepped by hand at these moments."""
    lr, wd = 0.1, 0.0
    x = 1.0
    m = v = 0.0
    p = parameter(np.array([x]), name="x")
    opt = AdamW({"x": p}, lr=lr, weight_decay=wd)
    for t in (1, 2):
        g = 2.0 * x
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        x = x - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)

        p.grad = np.array([2.0 * p.data[0]])
        opt.step()
    assert abs(p.data[0] - x) < 1e-12
    assert opt.state["x"].step_count == 2


def test_two_steps_match_hand_stepped_reference():
    two_steps_against_hand_stepped_reference(0.9, 0.999, 1e-8)


@pytest.mark.parametrize("b1, b2, eps", [(0.0, 0.0, 1e-12), (0.5, 0.9, 1e-6)])
def test_other_moments_follow_the_same_rule(monkeypatch, b1, b2, eps):
    # The moments are class constants; patched, the step must still read them.
    monkeypatch.setattr(AdamW, "beta1", b1)
    monkeypatch.setattr(AdamW, "beta2", b2)
    monkeypatch.setattr(AdamW, "eps", eps)
    two_steps_against_hand_stepped_reference(b1, b2, eps)


def test_nonfinite_gradient_names_parameter():
    p = parameter(np.array([1.0]), name="uf.hidden_w")
    p.grad = np.array([np.nan])
    opt = AdamW({"uf.hidden_w": p})
    with pytest.raises(NumericError, match="uf.hidden_w"):
        opt.step()


def test_nonfinite_gradient_leaves_every_parameter_untouched():
    a = parameter(np.array([1.0, 2.0]), name="a")
    b = parameter(np.array([3.0, 4.0]), name="b")
    opt = AdamW({"a": a, "b": b}, lr=0.1, weight_decay=0.01)

    def snapshot():
        return [(p.data.tobytes(), opt.state[n].first_moment.tobytes(),
                 opt.state[n].second_moment.tobytes(), opt.state[n].step_count)
                for n, p in opt.params.items()]

    a.grad, b.grad = np.array([1.0, -1.0]), np.array([0.5, 0.5])
    opt.step()
    before = snapshot()
    a.grad, b.grad = np.array([1.0, -1.0]), np.array([np.nan, 1.0])
    with pytest.raises(NumericError, match="'b'"):
        opt.step()
    assert snapshot() == before


def test_none_grad_is_skipped():
    p = parameter(np.array([1.0]), name="w")
    opt = AdamW({"w": p}, lr=0.1, weight_decay=0.01)
    opt.step()
    np.testing.assert_array_equal(p.data, [1.0])
    assert opt.state["w"].step_count == 0


def test_descends_quadratic():
    p = parameter(np.array([3.0]), name="x")
    opt = AdamW({"x": p}, lr=0.1, weight_decay=0.0)
    for _ in range(200):
        p.grad = 2.0 * p.data
        opt.step()
        opt.zero_grad()
    assert abs(p.data[0]) < 0.05


def test_in_place_step_matches_out_of_place_formula_bitwise():
    # Tensors of several sizes share the work buffers; one sits out a step,
    # and one spans four blocks, the last of them partly filled.
    rng = np.random.default_rng(0)
    shapes = {"blocks": (3, ADAMW_BLOCK // 2 + 7, 2), "big": (7, 5), "row": (5,), "scalar": ()}
    params = {n: parameter(rng.standard_normal(s), name=n) for n, s in shapes.items()}
    opt = AdamW(params, lr=0.01, weight_decay=0.1)
    ref = {n: [p.data.copy(), np.zeros(shapes[n]), np.zeros(shapes[n]), 0] for n, p in params.items()}
    for step in range(4):
        for n, p in params.items():
            p.grad = None if (n == "row" and step == 1) else rng.standard_normal(shapes[n])
            if p.grad is None:
                continue
            x, m, v, t = ref[n]
            t += 1
            m = opt.beta1 * m + (1.0 - opt.beta1) * p.grad
            v = opt.beta2 * v + (1.0 - opt.beta2) * p.grad * p.grad
            x = x - opt.lr * opt.weight_decay * x
            x = x - opt.lr * (m / (1.0 - opt.beta1**t)) / (np.sqrt(v / (1.0 - opt.beta2**t)) + opt.eps)
            ref[n] = [x, m, v, t]
        grads = {n: None if p.grad is None else p.grad.copy() for n, p in params.items()}
        opt.step()
        for n, p in params.items():
            x, m, v, t = ref[n]
            np.testing.assert_array_equal(p.data, x)
            np.testing.assert_array_equal(opt.state[n].first_moment, m)
            np.testing.assert_array_equal(opt.state[n].second_moment, v)
            assert opt.state[n].step_count == t
            if grads[n] is not None:
                np.testing.assert_array_equal(p.grad, grads[n])
        opt.zero_grad()


@pytest.mark.parametrize("field, value", [
    ("lr", 0.0), ("lr", -1e-3), ("lr", np.nan), ("lr", np.inf),
    ("weight_decay", -1.0), ("weight_decay", np.nan), ("weight_decay", np.inf),
])
def test_invalid_setting_names_field(field, value):
    with pytest.raises(ConfigurationError, match=f"^{field} = "):
        AdamW({}, **{field: value})


def test_boundary_settings_accepted():
    p = parameter(np.array([1.0, -2.0]), name="x")
    p.grad = np.array([0.5, -0.25])
    opt = AdamW({"x": p}, lr=1e-3, weight_decay=0.0)
    opt.step()
    assert np.all(np.isfinite(p.data))
