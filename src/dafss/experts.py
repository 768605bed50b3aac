"""Parallel expert blocks: linear lift + residual self-attention + norm.

Each expert consumes exactly one correlation matrix and never sees the
other modality; the geometric expert adapts while the semantic expert
refines frozen priors. An expert returns its refined features only; the
classifier heads of the consistency regularizer live in
:mod:`dafss.alignment`. The experts' attention works through the low-rank
factors of the lifted tokens (see :func:`run_expert`); :func:`mhsa` is the
dense form over arbitrary token rows, used by the arbitration layers.
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
    wq: list  # per-head [d, d/h]
    wk: list
    wv: list
    wo: Tensor  # [d, d]


def init_attention(rng: np.random.Generator, d: int, heads: int, prefix: str) -> AttentionParams:
    dh = d // heads
    wq = [init_weight(rng, d, dh, f"{prefix}.wq{h}") for h in range(heads)]
    wk = [init_weight(rng, d, dh, f"{prefix}.wk{h}") for h in range(heads)]
    wv = [init_weight(rng, d, dh, f"{prefix}.wv{h}") for h in range(heads)]
    return AttentionParams(wq=wq, wk=wk, wv=wv, wo=init_weight(rng, d, d, f"{prefix}.wo"))


def mhsa(x: Tensor, attn: AttentionParams) -> Tensor:
    """Scaled dot-product self-attention over token rows of [t, d]."""
    inv_sqrt = 1.0 / np.sqrt(attn.wq[0].shape[1])
    heads = []
    for wq, wk, wv in zip(attn.wq, attn.wk, attn.wv):
        q = ad.matmul(x, wq)
        k = ad.matmul(x, wk)
        v = ad.matmul(x, wv)
        heads.append(ad.attention(q, ad.transpose(k), v, inv_sqrt))
    stacked = heads[0] if len(heads) == 1 else ad.concat(heads, axis=1)
    return ad.matmul(stacked, attn.wo)


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


def _lifted_attention(corr: Tensor, params: ExpertParams) -> Tensor:
    """``mhsa(linear(corr, params.lift), params.attn)`` through rank factors.

    Never forms an ``[N, d]`` projection; see :func:`run_expert`."""
    n, r = corr.shape[0], corr.shape[1] + 1
    attn = params.attn
    heads, d, dh = len(attn.wq), params.lift.w.shape[1], attn.wq[0].shape[1]
    c1 = ad.concat([corr, constant(np.ones((n, 1)))], axis=1)  # C' [N, r]
    c1_t = ad.transpose(c1)
    bias_row = ad.add_rowvec(constant(np.zeros((1, d))), params.lift.b)
    lift = ad.concat([params.lift.w, bias_row], axis=0)  # L' [r, d]
    mixed, value_blocks = [], []
    for h in range(heads):
        q = ad.matmul(lift, attn.wq[h])  # [r, dh]
        k = ad.matmul(lift, attn.wk[h])
        v = ad.matmul(lift, attn.wv[h])
        core = ad.scale(ad.matmul(q, ad.transpose(k)), 1.0 / np.sqrt(dh))  # [r, r]
        mixed.append(ad.attention(ad.matmul(c1, core), c1_t, c1))  # [N, r]
        # Row block h of blockdiag(L'W_v,h): L'W_v,h in head h's columns.
        value_blocks.append(ad.concat([constant(np.zeros((r, h * dh))), v,
                                       constant(np.zeros((r, (heads - 1 - h) * dh)))],
                                      axis=1))
    out_proj = ad.matmul(ad.concat(value_blocks, axis=0), attn.wo)  # [H*r, d]
    return ad.matmul(ad.concat(mixed, axis=1), out_proj)


def run_expert(corr: Tensor, params: ExpertParams) -> Tensor:
    """Refine one correlation matrix into ``[N, d]`` features that depend on
    that input alone.

    The lifted tokens ``h = C @ lift.w + 1 lift.b^T`` are ``C' @ L'`` with
    ``C' = [C, 1]`` (``[N, n_way+2]``) and ``L' = [lift.w; lift.b^T]``
    (``[n_way+2, d]``), so their rank is at most ``n_way+2`` however large
    ``d`` is. Self-attention over them is therefore computed exactly,
    without any ``[N, d]`` projection, from the identities

        scores_h = C' (L' W_q,h)(L' W_k,h)^T C'^T / sqrt(d_h)
        mhsa(h)  = sum_h (softmax(scores_h) C') (L' W_v,h W_o,h),

    where ``W_o,h`` is the h-th row block of ``W_o``. The sum over heads is
    one ``[N, H(n_way+2)] x [H(n_way+2), d]`` product whose right factor is
    ``blockdiag(L' W_v,h) @ W_o``. That costs O(N^2 (n_way+2) + N H
    (n_way+2) d) per expert instead of O(N^2 d + N d^2).
    """
    if corr.shape[1] != params.lift.w.shape[0]:
        raise ShapeError(
            f"correlation has {corr.shape[1]} columns, lift expects {params.lift.w.shape[0]}"
        )
    h = linear(corr, params.lift)
    return ad.layer_norm(ad.add(h, _lifted_attention(corr, params)),
                         params.ln_gamma, params.ln_beta)
