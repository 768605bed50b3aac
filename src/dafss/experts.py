"""Parallel expert blocks: linear lift + residual self-attention + norm.

Each expert consumes exactly one correlation matrix and never sees the
other modality; the geometric expert adapts while the semantic expert
refines frozen priors. An expert returns its refined features only; the
classifier heads of the consistency regularizer live in
:mod:`dafss.alignment`. Every attention block holds its query, key and
value weights in one ``[d, 3d]`` matrix, and one product with it gives
every head's q, k and v as column blocks. The experts' attention works
through the low-rank factors of the lifted tokens (see :func:`run_expert`).
The factors that depend on the weights alone come from
:func:`attention_factors`, so a caller whose weights are fixed can build
them once and reuse them; :func:`mhsa` is the dense form over arbitrary
token rows, used by the arbitration layers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dafss import autodiff as ad
from dafss.autodiff import Tensor, constant, parameter
from dafss.errors import ShapeError
from dafss.layers import Linear, init_linear, init_weight, linear


@dataclass
class AttentionParams:
    wqkv: Tensor  # [d, 3d]: column groups q | k | v, each H blocks of d/H; block h is head h's
    wo: Tensor  # [d, d]
    heads: int  # H


def init_attention(rng: np.random.Generator, d: int, heads: int, prefix: str) -> AttentionParams:
    """Draws the 3H ``[d, d/H]`` blocks of ``wqkv`` in column order, then ``wo``."""
    blocks = [init_weight(rng, d, d // heads, f"{prefix}.wqkv").data for _ in range(3 * heads)]
    return AttentionParams(wqkv=parameter(np.hstack(blocks), name=f"{prefix}.wqkv"),
                           wo=init_weight(rng, d, d, f"{prefix}.wo"), heads=heads)


def _head_qkv(x: Tensor, attn: AttentionParams) -> list:
    """Each head's ``(q, k, v)`` of the token rows ``x``: column blocks of
    the one product ``x @ wqkv``."""
    qkv = ad.matmul(x, attn.wqkv)
    d, dh = attn.wo.shape[0], attn.wo.shape[0] // attn.heads
    return [tuple(ad.slice_cols(qkv, g * d + h * dh, g * d + (h + 1) * dh) for g in range(3))
            for h in range(attn.heads)]


def mhsa(x: Tensor, attn: AttentionParams) -> Tensor:
    """Scaled dot-product self-attention over token rows of [t, d]."""
    inv_sqrt = 1.0 / np.sqrt(attn.wo.shape[0] // attn.heads)
    heads = [ad.attention(q, k, v, inv_sqrt) for q, k, v in _head_qkv(x, attn)]
    return ad.matmul(ad.concat(heads, axis=1), attn.wo)


@dataclass
class ExpertParams:
    lift: Linear  # [n_s, d_model]
    ln_gamma: Tensor
    ln_beta: Tensor
    attn: AttentionParams  # after the tensors: parameter order follows field order


def init_expert(rng: np.random.Generator, n_s: int, d_model: int, heads: int,
                prefix: str) -> ExpertParams:
    return ExpertParams(
        lift=init_linear(rng, n_s, d_model, f"{prefix}.lift"),
        attn=init_attention(rng, d_model, heads, prefix=f"{prefix}.attn"),
        ln_gamma=parameter(np.ones(d_model), name=f"{prefix}.ln_gamma"),
        ln_beta=parameter(np.zeros(d_model), name=f"{prefix}.ln_beta"),
    )


@dataclass
class AttentionFactors:
    """The weight-only factors of an expert's attention (see :func:`run_expert`)."""

    cores: list  # per head (L' W_q,h)(L' W_k,h)^T / sqrt(d_h), [n_way+2, n_way+2]
    out_proj: Tensor  # blockdiag(L' W_v,h) @ W_o, [H(n_way+2), d]


def attention_factors(params: ExpertParams) -> AttentionFactors:
    """The factors of :func:`run_expert` that depend on the weights alone.

    They hold 6 of an expert's 12 matrix products and no per-point data,
    so one build serves every episode while the weights are unchanged."""
    attn = params.attn
    r, d = params.lift.w.shape[0] + 1, params.lift.w.shape[1]
    heads, dh = attn.heads, d // attn.heads
    bias_row = ad.add_rowvec(constant(np.zeros((1, d))), params.lift.b)
    lift = ad.concat([params.lift.w, bias_row], axis=0)  # L' [r, d]
    cores, value_blocks = [], []
    for h, (q, k, v) in enumerate(_head_qkv(lift, attn)):  # L' W_q,h etc., [r, dh] each
        cores.append(ad.scale(ad.matmul(q, ad.transpose(k)), 1.0 / np.sqrt(dh)))  # [r, r]
        # Row block h of blockdiag(L'W_v,h): L'W_v,h in head h's columns.
        left, right = (constant(np.zeros((r, w))) for w in (h * dh, (heads - 1 - h) * dh))
        value_blocks.append(ad.concat([left, v, right], axis=1))
    return AttentionFactors(cores=cores,
                            out_proj=ad.matmul(ad.concat(value_blocks, axis=0), attn.wo))


def run_expert(corr: Tensor, params: ExpertParams, factors: AttentionFactors) -> Tensor:
    """Refine one correlation matrix into ``[N, d]`` features that depend on
    that input alone; ``factors`` are ``attention_factors(params)``.

    The lifted tokens ``h = C @ lift.w + 1 lift.b^T`` are ``C' @ L'`` with
    ``C' = [C, 1]`` (``[N, r]``, ``r = n_way+2``) and ``L' = [lift.w;
    lift.b^T]`` (``[r, d]``), so their rank is at most ``r`` however large
    ``d`` is. Self-attention over them is therefore computed exactly,
    without any ``[N, d]`` projection, from the identities

        scores_h = C' K_h C'^T,         K_h = (L' W_q,h)(L' W_k,h)^T / sqrt(d_h)
        mhsa(h)  = [softmax(scores_h) C']_h  P,   P = blockdiag(L' W_v,h) @ W_o,

    where ``[.]_h`` stacks the heads' ``[N, r]`` blocks side by side and
    ``W_q,h`` is column block h of the q group of ``wqkv`` (k, v alike). The
    cores ``K_h`` (``[r, r]``) and the projection ``P`` (``[H r, d]``) are
    built from the weights alone, by :func:`attention_factors`; only
    ``C'``, the four attention calls and the product with ``P`` see the
    points. That costs O(N^2 r + N H r d) per expert instead of
    O(N^2 d + N d^2), plus O(H r d^2) for the factors.
    """
    if corr.shape[1] != params.lift.w.shape[0]:
        raise ShapeError(
            f"correlation has {corr.shape[1]} columns, lift expects {params.lift.w.shape[0]}"
        )
    n = corr.shape[0]
    c1 = ad.concat([corr, constant(np.ones((n, 1)))], axis=1)  # C' [N, r]
    mixed = [ad.attention(ad.matmul(c1, core), c1, c1) for core in factors.cores]  # [N, r] each
    lifted_attention = ad.matmul(ad.concat(mixed, axis=1), factors.out_proj)
    return ad.layer_norm(ad.add(linear(corr, params.lift), lifted_attention),
                         params.ln_gamma, params.ln_beta)
