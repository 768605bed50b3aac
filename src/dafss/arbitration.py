"""Arbitration stack: fusion, guidance injection, attention layers, gating.

The merge reconciles the scales of the expert pathways' features and
projects them per point: ``relu(sum_p BN_p(r_p) @ W_p + b)``, a sum of
per-pathway blocks, each with its own batch norm (whose running statistics
are named tensors without a gradient) and its own rows ``W_p`` of the 1x1
convolution. Batch norm acts per column, so this is the batch norm and
product of the pathways' concatenation, and a pathway that holds one row
per distinct input row stays at those rows until after its product.
Each arbitration layer first rewrites the background channel partition of
every token from base-class guidance
(foreground channels pass through bitwise untouched), then applies residual
self-attention with a layer norm. Its tokens have full rank, so the
attention keeps dense weights: one ``[d, 3d]`` q/k/v matrix, whose one
product gives every head's q, k and v as column blocks of one attention
call, and a ``[d, d]`` output matrix. The final features are amplified
channel-wise by a sigmoid gate driven by the target-class embeddings. The
decoder smooths them over each point's k nearest neighbours, found by a
block-local search and applied as one weighted row gather, and a small
classifier turns them into per-point logits.
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


def init_attention(rng: np.random.Generator, d: int, heads: int) -> AttentionParams:
    """Draws the 3H ``[d, d/H]`` blocks of ``wqkv`` in column order, then ``wo``."""
    wqkv = np.hstack([init_weight(rng, d, d // heads) for _ in range(3 * heads)])
    return AttentionParams(wqkv=parameter(wqkv), wo=parameter(init_weight(rng, d, d)), heads=heads)


def mhsa(x: Tensor, attn: AttentionParams) -> Tensor:
    """Scaled dot-product self-attention over token rows of [t, d], every head in one call."""
    d, h = attn.wo.shape[0], attn.heads
    qkv = ad.matmul(x, attn.wqkv)
    q, k, v = (ad.slice_cols(qkv, g * d, (g + 1) * d) for g in range(3))
    return ad.matmul(ad.attention(q, k, v, 1.0 / np.sqrt(d // h), heads=h), attn.wo)


@dataclass
class ArbitrationLayerParams:
    inject: Linear  # [d_bg + d_guid, d_bg]
    ln_gamma: Tensor
    ln_beta: Tensor
    attn: AttentionParams  # last: parameter order follows field order


@dataclass
class MergePathway:
    """One expert pathway's batch norm and its rows of the merge convolution."""

    bn_gamma: Tensor
    bn_beta: Tensor
    bn_mean: Tensor  # running statistics: no gradient
    bn_var: Tensor
    conv_w: Tensor  # [d_p, d_arb]


@dataclass
class ArbitrationParams:
    pathways: list  # MergePathway per merged pathway, in merge order
    conv_b: Tensor  # [d_arb], shared by the pathways' blocks
    gate: Linear  # [d_guid, d_arb]
    layers: list  # after the tensors: parameter order follows field order


def init_arbitration(rng: np.random.Generator, widths: list, d_arb: int, d_guid: int,
                     n_layers: int, heads: int, d_bg: int) -> ArbitrationParams:
    """``widths`` holds each merged pathway's feature width, in merge order.
    The merge weight is drawn whole, ``[sum of widths, d_arb]``, and split
    into the pathways' rows."""
    layers = [ArbitrationLayerParams(inject=init_linear(rng, d_bg + d_guid, d_bg),
                                     attn=init_attention(rng, d_arb, heads),
                                     ln_gamma=parameter(np.ones(d_arb)),
                                     ln_beta=parameter(np.zeros(d_arb)))
              for _ in range(n_layers)]
    conv_w = np.split(init_weight(rng, sum(widths), d_arb), np.cumsum(widths)[:-1])
    return ArbitrationParams(
        pathways=[MergePathway(bn_gamma=parameter(np.ones(d)), bn_beta=parameter(np.zeros(d)),
                               bn_mean=Tensor(np.zeros(d)), bn_var=Tensor(np.ones(d)),
                               conv_w=parameter(w.copy()))
                  for d, w in zip(widths, conv_w)],
        conv_b=parameter(np.zeros(d_arb)),
        layers=layers,
        gate=init_linear(rng, d_guid, d_arb),
    )


def merge_features(blocks: list, params: ArbitrationParams, train: bool) -> Tensor:
    """``relu(sum_p BN_p(x_p) @ W_p + b)`` over the pathways' features, one
    ``(x_p, groups)`` block per entry of ``params.pathways``. Outputs are >= 0.

    ``groups`` is None when ``x_p`` holds one row per point, or ``(inverse,
    counts)`` when row ``i`` stands for the ``counts[i]`` points ``j`` with
    ``inverse[j] == i``. Such a block is normalised with the statistics of
    the points (see :func:`autodiff.batch_norm`) and multiplied at its own
    rows; only its ``[rows, d_arb]`` product is gathered to the points.
    Train mode folds the batch's statistics into each pathway's
    ``bn_mean``/``bn_var``."""
    if len(blocks) != len(params.pathways):
        raise ShapeError(f"merge got {len(blocks)} pathway blocks, expected "
                         f"{len(params.pathways)}")
    total = None
    for i, ((x, groups), p) in enumerate(zip(blocks, params.pathways)):
        if x.shape[1] != p.conv_w.shape[0]:
            raise ShapeError(f"merge input dim {x.shape[1]} != dim {p.conv_w.shape[0]} "
                             f"of pathway {i}")
        inverse, counts = (None, None) if groups is None else groups
        normed = ad.batch_norm(x, p.bn_gamma, p.bn_beta, p.bn_mean, p.bn_var, train, counts)
        block = ad.matmul(normed, p.conv_w)
        if inverse is not None:
            block = ad.take_rows(block, inverse)
        total = block if total is None else ad.add(total, block)
    return ad.relu(ad.add_rowvec(total, params.conv_b))


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


NEIGHBOUR_BLOCK_ROWS = 128  # points per block of the neighbour search


@dataclass
class DecoderParams:
    """Two linear layers behind an inverse-distance smoother over each
    point's ``k`` nearest neighbours within ``radius`` (metres); ``k`` and
    ``radius`` are the same for every model."""

    conv: Linear  # [d_arb, d_arb]
    out: Linear  # [d_arb, n_way+1]
    k: ClassVar[int] = 8
    radius: ClassVar[float] = 0.3


def init_decoder(rng: np.random.Generator, d_arb: int, n_classes: int) -> DecoderParams:
    return DecoderParams(
        conv=init_linear(rng, d_arb, d_arb),
        out=init_linear(rng, d_arb, n_classes),
    )


def neighbours(points: np.ndarray, k: int, radius: float) -> tuple:
    """Each point's k nearest points ``idx`` ``[N, k]`` and their raw
    inverse-distance weights ``w`` ``[N, k]``.

    The k nearest go by (squared distance, index), so a tie at the k-th
    distance goes to the lower index, as in a stable sort. A neighbour
    beyond ``radius`` gets weight 0 (a point always keeps itself).

    The search never forms the ``[N, N]`` distances. Points are sorted in
    serpentine order of x/y cells of side ``2 * radius``, and each block of
    ``NEIGHBOUR_BLOCK_ROWS`` consecutive points is compared only with the
    points inside the block's bounding box grown by ``radius`` (with every
    point, if that box holds fewer than k). The box holds every point
    within ``radius`` of the block, so the neighbours with a weight are
    exactly those of an all-pairs search, and their weights have the same
    bits: candidates stay in index order, and squared distances are summed
    one coordinate at a time. A zero-weight neighbour is the nearest the
    box offers, which need not be the nearest overall."""
    n = len(points)
    if k > n:
        raise ConfigurationError(f"k = {k} exceeds the {n} available points")
    cell = np.floor(points[:, :2] / (2 * radius)).astype(np.int64)
    lane = np.where(cell[:, 0] % 2 == 1, -cell[:, 1], cell[:, 1])
    order = np.lexsort((lane, cell[:, 0]))
    idx = np.empty((n, k), dtype=np.intp)
    d2 = np.empty((n, k))
    for start in range(0, n, NEIGHBOUR_BLOCK_ROWS):
        rows = order[start:start + NEIGHBOUR_BLOCK_ROWS]
        block = points[rows]
        # A pair's rounded distance is at least its rounded gap in each
        # coordinate, and no gap to the block is smaller than the one to its
        # min or max, so this box misses no point within radius.
        near = (block.min(axis=0) - points <= radius) & (points - block.max(axis=0) <= radius)
        cand = np.flatnonzero(np.all(near, axis=1))
        if len(cand) < k:
            cand = np.arange(n)
        others = points[cand]
        block_d2 = np.zeros((len(rows), len(cand)))
        diff = np.empty_like(block_d2)
        for c in range(points.shape[1]):
            np.subtract(block[:, None, c], others[None, :, c], out=diff)
            diff *= diff
            block_d2 += diff
        nearest = np.argpartition(block_d2, k - 1, axis=1)[:, :k]
        nearest_d2 = np.take_along_axis(block_d2, nearest, axis=1)
        # Rows with more than k candidates at or below the k-th distance have
        # a tie on the boundary; only a stable sort picks the same k there.
        ties = np.count_nonzero(block_d2 <= nearest_d2.max(axis=1)[:, None], axis=1) > k
        for i in np.flatnonzero(ties):
            nearest[i] = np.argsort(block_d2[i], kind="stable")[:k]
            nearest_d2[i] = block_d2[i, nearest[i]]
        idx[rows] = cand[nearest]
        d2[rows] = nearest_d2
    dist = np.sqrt(d2)
    keep = (idx == np.arange(n)[:, None]) | ~(dist > radius)
    return idx, np.where(keep, 1.0 / (dist + 1e-3), 0.0)


def knn_weights(points: np.ndarray, k: int, radius: float) -> np.ndarray:
    """The dense ``[N, N]`` row-stochastic view of :func:`neighbours`, for
    ``bench/checks.py`` to compare with its reference: ``w`` scattered
    into its rows and each row normalised. The decoder's forward pass
    never forms it."""
    idx, w = neighbours(points, k, radius)
    n = len(points)
    weights = np.zeros((n, n))
    weights[np.arange(n)[:, None], idx] = w
    weights /= weights.sum(axis=1, keepdims=True)
    return weights


def decode(r_final: Tensor, query_points: np.ndarray, params: DecoderParams) -> Tensor:
    """Smoothing over each point's neighbours (over every point of a query
    smaller than k) with weights normalised over its k, then a pointwise
    transform and the logits. One weighted row gather does the smoothing,
    so the forward pass forms no ``[N, N]`` array. Its backward does: the
    gather's backward multiplies by an ``[N, N]`` spread matrix, as
    :func:`autodiff.take_rows` says for U = M."""
    idx, w = neighbours(query_points, min(params.k, len(query_points)), params.radius)
    agg = ad.take_rows(r_final, idx, w / w.sum(axis=1, keepdims=True))
    return linear(ad.relu(linear(agg, params.conv)), params.out)
