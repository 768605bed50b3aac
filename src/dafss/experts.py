"""Parallel expert blocks: linear lift + residual self-attention + norm.

Each expert consumes exactly one correlation matrix and never sees the
other modality; the geometric expert adapts while the semantic expert
refines frozen priors. An expert returns its refined features only; the
classifier heads of the consistency regularizer live in
:mod:`dafss.alignment`. The lifted tokens an expert attends over have rank
at most ``n_way+2``, so its multi-head self-attention (Vaswani et al.,
arXiv:1706.03762) is stored as the factors it reads its weights through:
one small core per head and one output projection (see :func:`run_expert`).
An expert holds no query, key, value or output weight matrix. It can refine
the distinct rows of a query, each weighed by how often it occurs, in place
of every row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from dafss import autodiff as ad
from dafss.autodiff import Tensor, constant, parameter
from dafss.errors import ShapeError
from dafss.layers import Linear, init_linear, init_weight, linear


@dataclass
class ExpertParams:
    lift: Linear  # [n_s, d]
    ln_gamma: Tensor  # [d]; no shift: the merge batch norm would cancel it
    cores: list  # per head K_h, [r, r] with r = n_s + 1, scaled by 1/sqrt(d_h)
    proj: Tensor  # P, [H r, d]


def init_expert(rng: np.random.Generator, n_s: int, d_model: int, heads: int,
                prefix: str) -> ExpertParams:
    """Draws ``lift``, then the 3H ``[d, d_h]`` blocks of a q/k/v matrix
    ``W`` (q heads, then k, then v) and a ``[d, d]`` output matrix ``W_o``.

    Keeps ``K_h`` and ``P`` as :func:`run_expert` defines them from those
    draws, and drops ``W`` and ``W_o``."""
    lift = init_linear(rng, n_s, d_model, f"{prefix}.lift")
    dh = d_model // heads
    w = np.hstack([init_weight(rng, d_model, dh, "w").data for _ in range(3 * heads)])
    w_o = init_weight(rng, d_model, d_model, "w_o").data
    lifted = np.vstack([lift.w.data, lift.b.data])  # L' [r, d]
    qkv = lifted @ w
    r = lifted.shape[0]
    cores, value_blocks = [], np.zeros((heads * r, d_model))
    for h in range(heads):
        q, k, v = (qkv[:, g * d_model + h * dh:g * d_model + (h + 1) * dh] for g in range(3))
        cores.append(parameter((q @ k.T) * (1.0 / np.sqrt(dh)), name=f"{prefix}.attn.core{h}"))
        value_blocks[h * r:(h + 1) * r, h * dh:(h + 1) * dh] = v
    return ExpertParams(lift=lift, ln_gamma=parameter(np.ones(d_model), name=f"{prefix}.ln_gamma"),
                        cores=cores, proj=parameter(value_blocks @ w_o, name=f"{prefix}.attn.proj"))


def run_expert(corr: Tensor, params: ExpertParams, counts: Optional[np.ndarray] = None) -> Tensor:
    """Refine one correlation matrix into ``[N, d]`` features that depend on
    that input alone: ``LN(linear(C, lift) + mhsa)``, with no shift.

    ``counts``, when given, says that row ``i`` of ``C`` stands for
    ``counts[i]`` equal rows of a larger query. The attention then weighs
    it as that many keys (a key bias of ``log counts[i]``), so output row
    ``i`` is what a run over the whole query gives each of those rows.

    The lifted tokens ``h = C @ lift.w + 1 lift.b^T`` are ``C' @ L'`` with
    ``C' = [C, 1]`` (``[N, r]``, ``r = n_way+2``) and ``L' = [lift.w;
    lift.b^T]`` (``[r, d]``), so their rank is at most ``r`` however large
    ``d`` is. Self-attention over them with a q/k/v matrix ``W`` and an
    output matrix ``W_o`` is therefore, exactly,

        scores_h = C' K_h C'^T,         K_h = (L' W_q,h)(L' W_k,h)^T / sqrt(d_h)
        mhsa     = [softmax(scores_h) C']_h  P,   P = blockdiag(L' W_v,h) @ W_o,

    where ``[.]_h`` stacks the heads' ``[N, r]`` blocks side by side and
    ``W_q,h`` is column block h of the q group of ``W`` (k, v alike). The
    expert stores and trains the cores ``K_h`` (``[r, r]``) and ``P``
    (``[H r, d]``) themselves, so ``lift`` reaches the output only through
    the residual. Free ``(L', K, P)`` span exactly the functions that
    ``(L', W, W_o)`` span when ``r <= d_h`` (``n_way <= 46`` at the default
    ``d_h = 48``); beyond that they span a superset. The cost is
    O(N^2 r + N H r d) per expert instead of O(N^2 d + N d^2); over the
    ``U`` distinct rows of a query it is O(U^2 r + U H r d).
    """
    if corr.shape[1] != params.lift.w.shape[0]:
        raise ShapeError(
            f"correlation has {corr.shape[1]} columns, lift expects {params.lift.w.shape[0]}"
        )
    n = corr.shape[0]
    c1 = ad.concat([corr, constant(np.ones((n, 1)))], axis=1)  # C' [N, r]
    key_bias = None if counts is None else np.log(counts)
    mixed = [ad.attention(ad.matmul(c1, core), c1, c1, key_bias=key_bias)
             for core in params.cores]  # [N, r] each
    lifted_attention = ad.matmul(ad.concat(mixed, axis=1), params.proj)
    no_shift = constant(np.zeros(params.ln_gamma.shape[0]))
    return ad.layer_norm(ad.add(linear(corr, params.lift), lifted_attention),
                         params.ln_gamma, no_shift)
