"""Arbitration stack: fusion, guidance injection, attention layers, gating.

The (concatenated) expert features are batch-normalized to reconcile their
scales (the running statistics are named tensors without a gradient),
projected per point and rectified. Each arbitration layer first rewrites the
background channel partition of every token from base-class guidance
(foreground channels pass through bitwise untouched), then applies residual
self-attention with a layer norm. Its tokens have full rank, so the
attention keeps dense weights: one ``[d, 3d]`` q/k/v matrix, whose one
product gives every head's q, k and v as column blocks, and a ``[d, d]``
output matrix. The final features are amplified
channel-wise by a sigmoid gate driven by the target-class embeddings, and a
small inverse-distance k-NN smoother plus classifier turns them into
per-point logits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from dafss import autodiff as ad
from dafss.autodiff import Tensor, constant, parameter
from dafss.errors import ConfigurationError, ShapeError
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
class ArbitrationLayerParams:
    inject: Linear  # [d_bg + d_guid, d_bg]
    ln_gamma: Tensor
    ln_beta: Tensor
    attn: AttentionParams  # last: parameter order follows field order


@dataclass
class ArbitrationParams:
    bn_gamma: Tensor
    bn_beta: Tensor
    bn_mean: Tensor  # running statistics: no gradient
    bn_var: Tensor
    conv: Linear  # [d_in, d_arb], the per-point 1x1 convolution
    gate: Linear  # [d_guid, d_arb]
    layers: list  # after the tensors: parameter order follows field order


def init_arbitration(rng: np.random.Generator, d_in: int, d_arb: int, d_guid: int,
                     n_layers: int, heads: int, d_bg: int) -> ArbitrationParams:
    layers = []
    for i in range(n_layers):
        layers.append(ArbitrationLayerParams(
            inject=init_linear(rng, d_bg + d_guid, d_bg, f"arb.l{i}.inject"),
            attn=init_attention(rng, d_arb, heads, prefix=f"arb.l{i}.attn"),
            ln_gamma=parameter(np.ones(d_arb), name=f"arb.l{i}.ln_gamma"),
            ln_beta=parameter(np.zeros(d_arb), name=f"arb.l{i}.ln_beta"),
        ))
    return ArbitrationParams(
        bn_gamma=parameter(np.ones(d_in), name="arb.bn_gamma"),
        bn_beta=parameter(np.zeros(d_in), name="arb.bn_beta"),
        bn_mean=Tensor(np.zeros(d_in), name="arb.bn_mean"),
        bn_var=Tensor(np.ones(d_in), name="arb.bn_var"),
        conv=init_linear(rng, d_in, d_arb, "arb.conv"),
        layers=layers,
        gate=init_linear(rng, d_guid, d_arb, "arb.gate"),
    )


def merge_features(x: Tensor, params: ArbitrationParams, train: bool) -> Tensor:
    """Batch norm -> per-point linear -> ReLU over expert features. Outputs are >= 0.
    Train mode folds the batch's statistics into ``params.bn_mean``/``bn_var``."""
    if x.shape[1] != params.conv.w.shape[0]:
        raise ShapeError(f"merge input dim {x.shape[1]} != conv dim {params.conv.w.shape[0]}")
    normed = ad.batch_norm(x, params.bn_gamma, params.bn_beta, params.bn_mean, params.bn_var, train)
    return ad.relu(linear(normed, params.conv))


def inject_background_guidance(r: Tensor, g_base: Tensor, layer: ArbitrationLayerParams) -> Tensor:
    """Rewrite the background channel partition from base-class guidance.

    The partition is the first ``len(layer.inject.b)`` channels; the
    foreground partition is copied through bitwise unchanged."""
    n, d = r.shape
    d_bg = layer.inject.b.shape[0]
    bg = ad.slice_cols(r, 0, d_bg)
    fg = ad.slice_cols(r, d_bg, d)
    guid = constant(np.tile(g_base.data, (n, 1)))
    new_bg = linear(ad.concat([bg, guid], axis=1), layer.inject)
    return ad.concat([new_bg, fg], axis=1)


def arbitration_layer(r_in: Tensor, layer: ArbitrationLayerParams) -> Tensor:
    """Residual self-attention over query-point tokens, then layer norm."""
    return ad.layer_norm(ad.add(r_in, mhsa(r_in, layer.attn)), layer.ln_gamma, layer.ln_beta)


def arbitrate(r: Tensor, g_base: Tensor, params: ArbitrationParams) -> Tensor:
    """Guidance injection followed by attention, repeated per stacked layer."""
    for layer in params.layers:
        r = arbitration_layer(inject_background_guidance(r, g_base, layer), layer)
    return r


def semantic_gate(r_arb: Tensor, g_q: Tensor, params: ArbitrationParams) -> Tensor:
    """Scale features by (1 + sigmoid(gate(g_q))), averaged over ways.

    A pure magnitude modulation: every channel grows by a factor in (1, 2)."""
    z = ad.sigmoid(linear(g_q, params.gate))
    gate = ad.scale(ad.sum_rows(z), 1.0 / g_q.shape[0])
    multiplier = ad.add(gate, constant(np.ones(params.gate.b.shape[0])))
    return ad.mul_rowvec(r_arb, multiplier)


# ---------------------------------------------------------------------------
# decoder
# ---------------------------------------------------------------------------


@dataclass
class DecoderParams:
    """Two linear layers behind a k-NN smoother whose ``k`` and ``radius``
    (metres) are the same for every model."""

    conv: Linear  # [d_arb, d_arb]
    out: Linear  # [d_arb, n_way+1]
    k: ClassVar[int] = 8
    radius: ClassVar[float] = 0.3


def init_decoder(rng: np.random.Generator, d_arb: int, n_classes: int) -> DecoderParams:
    return DecoderParams(
        conv=init_linear(rng, d_arb, d_arb, "dec.conv"),
        out=init_linear(rng, d_arb, n_classes, "dec.out"),
    )


def knn_weights(points: np.ndarray, k: int, radius: float) -> np.ndarray:
    """Row-stochastic [N, N] smoothing matrix over the k nearest neighbors.

    Weights are inverse distances; neighbors beyond the radius are dropped
    (a point always keeps itself). k = 1 reduces to the identity. Ties at
    the k-th distance go to the lower index, as in a stable sort."""
    n = len(points)
    if k > n:
        raise ConfigurationError(f"k = {k} exceeds the {n} available points")
    d2 = np.zeros((n, n))
    diff = np.empty((n, n))
    for c in range(points.shape[1]):
        np.subtract(points[:, None, c], points[None, :, c], out=diff)
        diff *= diff
        d2 += diff
    nearest = np.argpartition(d2, k - 1, axis=1)[:, :k]
    kth = np.max(np.take_along_axis(d2, nearest, axis=1), axis=1)
    # Rows with more than k candidates at or below the k-th distance have a
    # tie on the boundary; only a stable sort picks the same k there.
    for i in np.flatnonzero(np.count_nonzero(d2 <= kth[:, None], axis=1) > k):
        nearest[i] = np.argsort(d2[i], kind="stable")[:k]
    rows = np.arange(n)[:, None]
    dist = np.sqrt(np.take_along_axis(d2, nearest, axis=1))
    keep = (nearest == rows) | ~(dist > radius)
    weights = np.zeros((n, n))
    weights[rows, nearest] = np.where(keep, 1.0 / (dist + 1e-3), 0.0)
    weights /= weights.sum(axis=1, keepdims=True)
    return weights


def decode(r_final: Tensor, query_points: np.ndarray, params: DecoderParams) -> Tensor:
    """k-NN smoothing (over every point of a query smaller than k), pointwise transform, logits."""
    k = min(params.k, len(query_points))
    smoother = constant(knn_weights(query_points, k, params.radius))
    agg = ad.matmul(smoother, r_final)
    return linear(ad.relu(linear(agg, params.conv)), params.out)
