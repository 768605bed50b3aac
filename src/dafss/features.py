"""Feature heads and the support-query correlation stage.

Two encoders stand in for the usual pretrained backbones:

  * a trainable pointwise MLP over (x, y, z, texture one-hot) supplying the
    geometric pathway, and
  * a frozen semantic head keyed on the texture channel (``IFHead``, its
    formula and constants), whose class embeddings are mixed through a
    row-stochastic confusion matrix and rescaled to a fixed norm. It is
    deliberately blind wherever two classes share a texture id.

Prototypes are masked average pools over support points, one per way plus
one background prototype (row 0). Correlations are cosine similarities of
query features against the prototypes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dafss import autodiff as ad
from dafss.autodiff import Tensor, constant
from dafss.errors import DegenerateSupportError, InputError, ShapeError
from dafss.layers import init_linear, linear
from dafss.scenes import N_CLASSES, Scene


IF_CELLS = 64  # rows of the semantic head's positional table
IF_CELL_SIZE = 2.0  # metres per grid cell hashed into that table
IF_CONFUSION = 0.1  # off-diagonal mass of the semantic head's confusion matrix
IF_FEATURE_NORM = 4.0  # norm of every semantic feature
IF_POS_GAIN = 0.25  # weight of the positional code against the class embedding


@dataclass
class CorrelationPair:
    geo: Tensor  # [N_q, n_way+1] cosine similarities in the geometric space
    sem: Tensor  # same shape, semantic space


# ---------------------------------------------------------------------------
# trainable geometric head
# ---------------------------------------------------------------------------


class UFHead:
    """Pointwise two-layer MLP: (xyz, texture one-hot) -> geometric feature.

    The one-hot has a column per catalog class (``N_CLASSES``), since a
    texture id is a class id."""

    def __init__(self, rng: np.random.Generator, d_out: int, hidden: int):
        self.hidden = init_linear(rng, 3 + N_CLASSES, hidden)
        self.out = init_linear(rng, hidden, d_out)


def _check_scene(scene: Scene) -> None:
    """Raise unless ``scene.points`` is a finite ``[N, 3]`` array and
    ``scene.texture`` holds N integer ids in ``[0, N_CLASSES)``: what both encoders read."""
    points, t = scene.points, scene.texture
    if points.ndim != 2 or points.shape[1] != 3 or t.shape != (len(points),):
        raise ShapeError(f"scene.points of shape {points.shape} and scene.texture of shape "
                         f"{t.shape} are not [N, 3] and [N]")
    nonfinite = ~np.all(np.isfinite(points), axis=1)
    if nonfinite.any():
        raise InputError(f"scene.points has a non-finite coordinate at point {np.argmax(nonfinite)}")
    if t.dtype.kind not in "iu":  # floats and bools are not texture ids
        raise InputError(f"scene.texture must be an integer array, got dtype {t.dtype}")
    bad = (t < 0) | (t >= N_CLASSES)
    if bad.any():
        i = int(np.argmax(bad))
        raise InputError(f"scene.texture id {t[i]} outside [0, {N_CLASSES}) at point {i}")


def uf_encode(scene: Scene, head: UFHead) -> Tensor:
    """Per-point geometric features, differentiable w.r.t. the head."""
    _check_scene(scene)
    x = constant(np.hstack([scene.points, np.eye(N_CLASSES)[scene.texture]]))
    return linear(ad.relu(linear(x, head.hidden)), head.out)


# ---------------------------------------------------------------------------
# frozen semantic head
# ---------------------------------------------------------------------------


class IFHead:
    """Frozen semantic encoder; all state is plain numpy, never in the graph.

    feature(point) = IF_FEATURE_NORM * unit( confusion[texture] @ class_embed
                                             + IF_POS_GAIN * pos_table[cell(xyz)] )

    ``confusion`` is row-stochastic, ``1 - IF_CONFUSION`` on the diagonal and
    the rest spread evenly; ``cell`` hashes the ``IF_CELL_SIZE``-metre grid
    cell of a point into one of the ``IF_CELLS`` rows of ``pos_table``.
    ``class_embed`` and ``confusion`` have a row per catalog class
    (``N_CLASSES``).
    """

    def __init__(self, rng: np.random.Generator, d_out: int):
        self.class_embed = rng.normal(0, 1.0, (N_CLASSES, d_out))
        self.class_embed /= np.linalg.norm(self.class_embed, axis=1, keepdims=True)
        self.confusion = np.full((N_CLASSES, N_CLASSES), IF_CONFUSION / (N_CLASSES - 1))
        np.fill_diagonal(self.confusion, 1.0 - IF_CONFUSION)
        self.pos_table = rng.normal(0, 1.0, (IF_CELLS, d_out))
        self.pos_table /= np.linalg.norm(self.pos_table, axis=1, keepdims=True)

    def state_arrays(self) -> list[np.ndarray]:
        return [self.class_embed, self.confusion, self.pos_table]

    def _cells(self, points: np.ndarray) -> np.ndarray:
        cells = np.floor(points / IF_CELL_SIZE).astype(np.int64)
        mixed = cells[:, 0] * 73856093 ^ cells[:, 1] * 19349663 ^ cells[:, 2] * 83492791
        return np.abs(mixed) % len(self.pos_table)


def if_encode(scene: Scene, head: IFHead) -> Tensor:
    """Per-point semantic features as a detached constant tensor."""
    _check_scene(scene)
    mixed = head.confusion[scene.texture] @ head.class_embed
    mixed = mixed + IF_POS_GAIN * head.pos_table[head._cells(scene.points)]
    norms = np.maximum(np.linalg.norm(mixed, axis=1, keepdims=True), 1e-12)
    return constant(IF_FEATURE_NORM * mixed / norms)


# ---------------------------------------------------------------------------
# frozen text-embedding stub
# ---------------------------------------------------------------------------


class TextStub:
    """Seeded class-id -> embedding table standing in for a text encoder,
    one row per catalog class (``N_CLASSES``)."""

    def __init__(self, rng: np.random.Generator, d_out: int):
        self.table = rng.normal(0, 1.0, (N_CLASSES, d_out))
        self.table /= np.linalg.norm(self.table, axis=1, keepdims=True)

    def state_arrays(self) -> list[np.ndarray]:
        return [self.table]

    def lookup(self, class_id: int) -> np.ndarray:
        if not 0 <= class_id < len(self.table):
            raise InputError(f"class id {class_id} outside the embedding table (0..{len(self.table) - 1})")
        return self.table[class_id]


def text_guidance(base_class_ids, novel_class_ids, stub: TextStub) -> tuple[Tensor, Tensor]:
    """(mean base-class embedding, per-way novel embeddings), both detached."""
    base = np.stack([stub.lookup(int(c)) for c in base_class_ids])
    novel = np.stack([stub.lookup(int(c)) for c in novel_class_ids])
    return constant(base.mean(axis=0)), constant(novel)


# ---------------------------------------------------------------------------
# prototypes and correlations
# ---------------------------------------------------------------------------


def pooling_matrix(masks: list[np.ndarray]) -> np.ndarray:
    """Row-stochastic [n_way+1, N] matrix: row 0 background, then one per way."""
    n = len(masks[0])
    fg_union = np.zeros(n, dtype=bool)
    for m in masks:
        fg_union |= m
    rows = [~fg_union] + list(masks)
    mat = np.zeros((len(rows), n))
    for i, m in enumerate(rows):
        count = int(m.sum())
        if count == 0:
            which = "background" if i == 0 else f"way {i - 1}"
            raise DegenerateSupportError(f"empty support mask for {which}")
        mat[i, m] = 1.0 / count
    return mat


def extract_prototypes(geo_feats: Tensor, sem_feats: Tensor,
                       masks: list[np.ndarray]) -> tuple[Tensor, Tensor]:
    """Masked average pooling per way plus background, for both modalities.

    The geometric prototypes stay in the graph; the semantic ones are
    detached regardless of how the features arrived.
    """
    if geo_feats.shape[0] != sem_feats.shape[0]:
        raise ShapeError(f"feature row counts differ: {geo_feats.shape} vs {sem_feats.shape}")
    pool = constant(pooling_matrix(masks))
    geo_protos = ad.matmul(pool, geo_feats)
    sem_protos = ad.stop_gradient(ad.matmul(pool, sem_feats))
    return geo_protos, sem_protos


def compute_correlations(query_geo: Tensor, query_sem: Tensor,
                         geo_protos: Tensor, sem_protos: Tensor) -> CorrelationPair:
    """Cosine similarity of each query point against each prototype."""
    return CorrelationPair(
        geo=ad.cosine_rows(query_geo, geo_protos),
        sem=ad.cosine_rows(ad.stop_gradient(query_sem), ad.stop_gradient(sem_protos)),
    )
