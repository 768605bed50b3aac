"""Adaptive-moment optimizer with decoupled weight decay.

The moment decay rates and the denominator's epsilon are fixed at Adam's
defaults (Kingma & Ba, arXiv:1412.6980); the decay is decoupled from the
moments as in AdamW (Loshchilov & Hutter, arXiv:1711.05101).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dafss.autodiff import Tensor
from dafss.errors import NumericError, require

# Elements per block of an update: six blocks of float64 (gradient, two
# moments, parameter, two work buffers) fit a 2 MB L2 cache.
ADAMW_BLOCK = 32768


@dataclass
class OptimizerState:
    """One parameter's moment buffers and its own step count; the
    hyperparameters live on :class:`AdamW`."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0


class AdamW:
    """Adam with weight decay applied directly to the parameters.

    The decay term never passes through the moment estimates: each step
    first shrinks the parameter by ``lr * weight_decay`` and then applies
    the bias-corrected moment update. Parameters whose ``grad`` is ``None``
    are skipped entirely (they did not participate in the step). A step is
    all or nothing: every gradient is checked before any parameter moves.

    Only ``lr`` and ``weight_decay`` are settable; the moment decay rates
    ``beta1``, ``beta2`` and the denominator's ``eps`` are Adam's defaults.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-4,
                 weight_decay: float = 0.01):
        self.params = dict(params)
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        for field, ok, rule in (("lr", self.lr > 0, "must be finite and positive"),
                                ("weight_decay", self.weight_decay >= 0,
                                 "must be finite and non-negative")):
            require(self, ok and np.isfinite(getattr(self, field)), field, rule)
        self.state: dict[str, OptimizerState] = {
            name: OptimizerState(np.zeros_like(p.data), np.zeros_like(p.data))
            for name, p in self.params.items()
        }
        # Two work buffers, one block long: every step updates the moments
        # and the parameters in place, one cache-sized block at a time.
        largest = max((p.data.size for p in self.params.values()), default=0)
        self._work = np.empty((2, min(largest, ADAMW_BLOCK)))

    def step(self) -> None:
        live = [(name, p) for name, p in self.params.items() if p.grad is not None]
        for name, p in live:
            if not np.all(np.isfinite(p.grad)):
                raise NumericError(f"non-finite gradient for parameter {name!r}")
        b1, b2, decay = self.beta1, self.beta2, self.lr * self.weight_decay
        for name, p in live:
            st = self.state[name]
            st.step_count += 1
            t = st.step_count
            # Flat views: parameter data and the moments are C-contiguous.
            fg, fm, fv, fx = (p.grad.reshape(-1), st.first_moment.reshape(-1),
                              st.second_moment.reshape(-1), p.data.reshape(-1))
            for lo in range(0, fx.size, ADAMW_BLOCK):
                r = slice(lo, lo + ADAMW_BLOCK)
                g, m, v, x = fg[r], fm[r], fv[r], fx[r]
                a, b = self._work[0, :g.size], self._work[1, :g.size]
                # In place, in the operation order of the plain expressions in
                # these comments, so the result is bitwise the one they give.
                # m = b1 m + (1 - b1) g;  v = b2 v + ((1 - b2) g) g
                m *= b1
                m += np.multiply(g, 1.0 - b1, out=a)
                v *= b2
                np.multiply(g, 1.0 - b2, out=a)
                v += np.multiply(a, g, out=a)
                # x -= (lr wd) x;  x -= (lr m_hat) / (sqrt(v_hat) + eps)
                x -= np.multiply(x, decay, out=a)
                np.divide(v, 1.0 - b2**t, out=a)
                np.sqrt(a, out=a)
                a += self.eps
                np.divide(m, 1.0 - b1**t, out=b)
                b *= self.lr
                x -= np.divide(b, a, out=b)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None
