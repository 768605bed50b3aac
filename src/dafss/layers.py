"""The one init rule for a trainable matrix, and the affine layer built on it.

Every per-point 1x1 convolution of the model is an affine map of token rows,
``x @ w + b``. Its weight is drawn from ``N(0, 1/d_in)`` and its bias starts
at zero; the attention projections use the same weight rule without a bias.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dafss import autodiff as ad
from dafss.autodiff import Tensor, parameter


def init_weight(rng: np.random.Generator, d_in: int, d_out: int) -> np.ndarray:
    """A ``[d_in, d_out]`` weight array drawn from ``N(0, 1/d_in)``."""
    return rng.normal(0, 1.0 / np.sqrt(d_in), (d_in, d_out))


@dataclass
class Linear:
    w: Tensor  # [d_in, d_out]
    b: Tensor  # [d_out]


def init_linear(rng: np.random.Generator, d_in: int, d_out: int) -> Linear:
    """Weight ``w`` by :func:`init_weight`, zero bias ``b``."""
    return Linear(w=parameter(init_weight(rng, d_in, d_out)), b=parameter(np.zeros(d_out)))


def linear(x: Tensor, layer: Linear) -> Tensor:
    """``x @ w + b`` over the token rows of ``x``."""
    return ad.add_rowvec(ad.matmul(x, layer.w), layer.b)
