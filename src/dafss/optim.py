"""Adaptive-moment optimizer with decoupled weight decay."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dafss.autodiff import Tensor
from dafss.errors import NumericError


@dataclass
class OptimizerState:
    """Per-parameter moment buffers plus the shared hyperparameters."""

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
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-4,
                 weight_decay: float = 0.01, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if weight_decay < 0:
            raise ValueError(f"weight decay must be non-negative, got {weight_decay}")
        self.params = dict(params)
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.state: dict[str, OptimizerState] = {
            name: OptimizerState(np.zeros_like(p.data), np.zeros_like(p.data))
            for name, p in self.params.items()
        }
        # Two work buffers as large as the largest parameter: every step
        # updates the moments and the parameters in place.
        largest = max((p.data.size for p in self.params.values()), default=0)
        self._work = np.empty((2, largest))

    def step(self) -> None:
        live = [(name, p) for name, p in self.params.items() if p.grad is not None]
        for name, p in live:
            if not np.all(np.isfinite(p.grad)):
                raise NumericError(f"non-finite gradient for parameter {name!r}")
        b1, b2 = self.beta1, self.beta2
        for name, p in live:
            g = p.grad
            st = self.state[name]
            st.step_count += 1
            t = st.step_count
            m, v = st.first_moment, st.second_moment
            a, b = (buf[:g.size].reshape(g.shape) for buf in self._work)
            # In place, in the operation order of the plain expressions in these
            # comments, so the result is bitwise the one they give.
            # m = b1 m + (1 - b1) g;  v = b2 v + ((1 - b2) g) g
            m *= b1
            m += np.multiply(g, 1.0 - b1, out=a)
            v *= b2
            np.multiply(g, 1.0 - b2, out=a)
            v += np.multiply(a, g, out=a)
            # p -= (lr wd) p;  p -= (lr m_hat) / (sqrt(v_hat) + eps)
            p.data -= np.multiply(p.data, self.lr * self.weight_decay, out=a)
            np.divide(v, 1.0 - b2**t, out=a)
            np.sqrt(a, out=a)
            a += self.eps
            np.divide(m, 1.0 - b1**t, out=b)
            b *= self.lr
            p.data -= np.divide(b, a, out=b)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None
