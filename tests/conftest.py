import numpy as np
import pytest

from dafss.autodiff import Tensor, backward


def relative_error(a, b):
    """Elementwise |a-b| / max(1, |a|, |b|), reduced to the worst entry."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom))


def value_weights(attn, h):
    """Head ``h``'s value weights: column block ``h`` of the v group of ``attn.wqkv``."""
    d = attn.wo.shape[0]
    dh = d // attn.heads
    return attn.wqkv.data[:, 2 * d + h * dh:2 * d + (h + 1) * dh]


def central_difference(make_loss, tensor, eps=1e-5, indices=None):
    """Finite-difference gradient of make_loss() w.r.t. tensor.data.

    make_loss must rebuild the forward pass from scratch, reading
    tensor.data live. Returns a flat array over the probed indices
    (all of them by default).
    """
    flat = tensor.data.reshape(-1)
    if indices is None:
        indices = range(flat.size)
    out = np.zeros(len(list(indices)) if not isinstance(indices, range) else len(indices))
    indices = list(indices)
    for j, i in enumerate(indices):
        old = flat[i]
        flat[i] = old + eps
        f_plus = float(make_loss().data)
        flat[i] = old - eps
        f_minus = float(make_loss().data)
        flat[i] = old
        out[j] = (f_plus - f_minus) / (2.0 * eps)
    return out


def check_grads(make_loss, tensors, eps=1e-5, tol=1e-4):
    """Assert analytic gradients of make_loss() match central differences.

    tensors: dict name -> Tensor (all requiring grad). Returns the worst
    relative error seen, for reporting.
    """
    for t in tensors.values():
        t.grad = None
    loss = make_loss()
    grad_map = backward(loss)
    worst = 0.0
    for name, t in tensors.items():
        analytic = grad_map.get(t)
        if analytic is None:
            analytic = np.zeros_like(t.data)
        fd = central_difference(make_loss, t, eps=eps).reshape(t.data.shape)
        err = relative_error(analytic, fd)
        assert err <= tol, f"gradient mismatch for {name}: rel err {err:.3e} > {tol}"
        worst = max(worst, err)
    return worst


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
