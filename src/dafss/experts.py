"""Parallel expert blocks: residual self-attention over lifted tokens, then a norm.

Each expert consumes exactly one correlation matrix and never sees the
other modality; the geometric expert adapts while the semantic expert
refines frozen priors. An expert returns its refined features only; the
classifier heads of the consistency regularizer live in
:mod:`dafss.alignment`. The lifted tokens an expert attends over have rank
at most ``n_way+2``, so its multi-head self-attention (Vaswani et al.,
arXiv:1706.03762) is stored as the factors it reads its weights through:
the heads' cores in one matrix, and one output matrix for the residual and
every head, one attention call serving all heads (see :func:`run_expert`).
It can refine just the distinct rows of a query, weighed by their counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from dafss import autodiff as ad
from dafss.autodiff import Tensor, constant, parameter
from dafss.errors import ShapeError
from dafss.layers import init_weight


@dataclass
class ExpertParams:
    cores: Tensor  # [r, H r], r = n_s + 1; column block h is K_h, scaled by 1/sqrt(d_h)
    mix: Tensor  # [(H+1) r, d]: L' over P
    ln_gamma: Tensor  # [d]; no shift: the merge batch norm would cancel it


def init_expert(rng: np.random.Generator, n_s: int, d_model: int, heads: int) -> ExpertParams:
    """Draws an ``[n_s, d]`` lift weight (its bias is zero), then the 3H
    ``[d, d_h]`` blocks of a q/k/v matrix ``W`` (q heads, then k, then v)
    and a ``[d, d]`` output matrix ``W_o``, and keeps only ``cores`` and
    ``mix`` as :func:`run_expert` defines them from those draws."""
    lifted = np.vstack([init_weight(rng, n_s, d_model), np.zeros((1, d_model))])  # L' [r, d]
    dh = d_model // heads
    w = np.hstack([init_weight(rng, d_model, dh) for _ in range(3 * heads)])
    w_o = init_weight(rng, d_model, d_model)
    qkv = lifted @ w
    r = n_s + 1
    cores, value_blocks = np.zeros((r, heads * r)), np.zeros((heads * r, d_model))
    for h in range(heads):
        q, k, v = (qkv[:, g * d_model + h * dh:g * d_model + (h + 1) * dh] for g in range(3))
        cores[:, h * r:(h + 1) * r] = (q @ k.T) * (1.0 / np.sqrt(dh))
        value_blocks[h * r:(h + 1) * r, h * dh:(h + 1) * dh] = v
    return ExpertParams(cores=parameter(cores),
                        mix=parameter(np.vstack([lifted, value_blocks @ w_o])),
                        ln_gamma=parameter(np.ones(d_model)))


def run_expert(corr: Tensor, params: ExpertParams, counts: Optional[np.ndarray] = None) -> Tensor:
    """Refine one correlation matrix into ``[N, d]`` features that depend on
    that input alone: ``LN([C', A_1 C', ..., A_H C'] @ mix)``, with no shift,
    ``C' = [C, 1]`` (``[N, r]``, ``r = n_way+2``), ``A_h = softmax(C' K_h
    C'^T)`` and ``K_h`` column block h of ``cores``: one attention call with
    queries ``C' @ cores`` and ``C'`` as every head's keys and values.

    ``counts``, when given, says that row ``i`` of ``C`` stands for
    ``counts[i]`` equal rows of a larger query. The attention then weighs
    it as that many keys (a key bias of ``log counts[i]``), so output row
    ``i`` is what a run over the whole query gives each of those rows.

    That is residual self-attention over lifted tokens, exactly. A lift
    ``L' = [w; b^T]`` (``[r, d]``) gives tokens ``C' L'`` of rank at most
    ``r`` however large ``d`` is, and self-attention over them with a q/k/v
    matrix ``W`` and an output matrix ``W_o`` is

        scores_h = C' K_h C'^T,         K_h = (L' W_q,h)(L' W_k,h)^T / sqrt(d_h)
        mhsa     = [A_1 C', ..., A_H C'] P,   P = blockdiag(L' W_v,h) @ W_o,

    with ``W_q,h`` column block h of the q group of ``W`` (k, v alike). So
    ``C' L' + mhsa`` is one product with ``mix = [L'; P]``, the residual
    being an identity head. Free ``(cores, mix)`` span exactly the
    functions that ``(L', W, W_o)`` span when ``r <= d_h`` (``n_way <= 46``
    at the default ``d_h = 48``); beyond that they span a superset. The
    cost is O(N^2 r + N H r d) per expert instead of O(N^2 d + N d^2); over
    the ``U`` distinct rows of a query it is O(U^2 r + U H r d).
    """
    r = params.cores.shape[0]
    if corr.shape[1] != r - 1:
        raise ShapeError(f"correlation has {corr.shape[1]} columns, the expert expects {r - 1}")
    n = corr.shape[0]
    c1 = ad.concat([corr, constant(np.ones((n, 1)))], axis=1)  # C' [N, r]
    key_bias = None if counts is None else np.log(counts)
    queries = ad.matmul(c1, params.cores)  # [N, H r]: head h's are column block h
    heads = ad.attention(queries, c1, c1, key_bias=key_bias, heads=queries.shape[1] // r)
    no_shift = constant(np.zeros(params.ln_gamma.shape[0]))
    return ad.layer_norm(ad.matmul(ad.concat([c1, heads], axis=1), params.mix),
                         params.ln_gamma, no_shift)
