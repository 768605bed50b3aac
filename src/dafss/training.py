"""Compound objective, episodic training loop, gradient-norm monitor."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from dafss import autodiff as ad
from dafss.autodiff import Tensor, backward, constant
from dafss.errors import (InputError, NumericError, ShapeError, UndefinedMetricError, is_real,
                          require)
from dafss.metrics import confusion_matrix, miou
from dafss.model import SegModel, named_tensors
from dafss.optim import AdamW
from dafss.scenes import Episode


@dataclass(frozen=True)
class LossWeights:
    """The one home of every loss weight; ``total_loss`` applies them."""

    lambda_base: float = 0.1
    lambda_proto: float = 0.001
    lambda_consistency: float = 0.5

    def __post_init__(self):
        for field in ("lambda_base", "lambda_proto", "lambda_consistency"):
            value = getattr(self, field)
            require(self, is_real(value) and np.isfinite(value) and value >= 0, field,
                    "must be a finite, non-negative number")


@dataclass
class TrainRecord:
    step: int
    loss_total: float
    loss_seg: float
    loss_base: float
    loss_proto: float
    loss_consistency: float
    grad_norm_uf: float
    grad_norm_sem: float
    miou_train: float


def _masked_cross_entropy(logits: Tensor, labels: np.ndarray, keep: np.ndarray,
                          what: str) -> Tensor:
    """Mean softmax cross-entropy over the points where ``keep`` holds.

    ``labels`` holds one entry per row of ``logits``. Those kept must lie in
    ``[0, c)``; with no kept point the loss is an exact zero constant."""
    n, c = logits.shape
    if len(labels) != n:
        raise ShapeError(f"{len(labels)} {what}s for {n} rows of logits")
    bad = keep & ((labels < 0) | (labels >= c))
    if np.any(bad):
        i = int(np.argmax(bad))
        raise InputError(f"{what} {int(labels[i])} out of range [0,{c}) at point {i}")
    m = int(keep.sum())
    if m == 0:
        return constant(0.0)
    onehot = np.zeros((n, c))
    onehot[keep, labels[keep]] = 1.0
    picked = ad.mul(ad.log_softmax(logits), constant(onehot))
    return ad.scale(ad.sum_all(picked), -1.0 / m)


def seg_loss(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy over query points."""
    labels = np.asarray(labels)
    return _masked_cross_entropy(logits, labels, np.ones(len(labels), dtype=bool), "label")


def base_loss(aux_logits: Optional[Tensor], base_labels: Optional[np.ndarray]) -> Tensor:
    """Cross-entropy of the auxiliary head on points that carry a base label.

    Points labelled -1 are excluded; with no labelled point at all the loss
    is an exact zero constant."""
    if aux_logits is None or base_labels is None:
        return constant(0.0)
    base_labels = np.asarray(base_labels)
    return _masked_cross_entropy(aux_logits, base_labels, base_labels >= 0, "base label")


def total_loss(seg: Tensor, base: Optional[Tensor], proto: Optional[Tensor],
               consist: Optional[Tensor], weights: LossWeights) -> Tensor:
    """Weighted sum of the components; with all weights zero this IS seg."""
    total = seg
    for term, lam in ((base, weights.lambda_base),
                      (proto, weights.lambda_proto),
                      (consist, weights.lambda_consistency)):
        if term is not None and lam > 0.0:
            total = ad.add(total, ad.scale(term, lam))
    return total


def grad_norm(tensors: Iterable[Tensor]) -> float:
    """L2 norm over the ``.grad`` of a parameter group's tensors.

    Tensors the last backward pass never reached hold no gradient and
    contribute zero."""
    total = 0.0
    for t in tensors:
        if t.grad is not None:
            total += float(np.vdot(t.grad, t.grad))  # no gradient-sized temporary
    return float(np.sqrt(total))


def train_episode(model: SegModel, episode: Episode, optimizer: AdamW,
                  weights: LossWeights, step: int) -> TrainRecord:
    """One optimization step; pathway gradient norms are read pre-step.

    A step that raises, on a non-finite loss or for any other cause, leaves no
    trace: the parameters and optimizer moments are untouched (``AdamW.step``
    is all or nothing, and last), every named tensor that takes no gradient,
    such as the batch-norm running statistics, is restored, and the gradients are cleared."""
    saved = [(t, t.data.copy()) for t in named_tensors(model).values() if not t.requires_grad]
    try:
        out = model.forward(episode, train=True)
        seg = seg_loss(out.logits, episode.query_labels)
        base = base_loss(out.base_logits, episode.base_class_labels)
        total = total_loss(seg, base, out.proto_loss, out.consist_loss, weights)

        components = {
            "seg": seg.item(),
            "base": base.item(),
            "proto": out.proto_loss.item() if out.proto_loss is not None else 0.0,
            "consistency": out.consist_loss.item() if out.consist_loss is not None else 0.0,
        }
        if not np.isfinite(total.item()):
            raise NumericError(f"non-finite loss at step {step}: components {components}")

        backward(total)
        gn_uf, gn_sem = (grad_norm(tensors) for tensors in model.pathway_tensors())
        optimizer.step()
    except BaseException:
        for t, data in saved:
            t.data = data
        raise
    finally:
        optimizer.zero_grad()

    conf = confusion_matrix(np.argmax(out.logits.data, axis=1), episode.query_labels,
                            episode.n_way + 1)
    try:
        miou_train = miou(conf)[1]
    except UndefinedMetricError:  # no foreground point predicted or labelled
        miou_train = 0.0
    return TrainRecord(
        step=step,
        loss_total=total.item(),
        loss_seg=components["seg"],
        loss_base=components["base"],
        loss_proto=components["proto"],
        loss_consistency=components["consistency"],
        grad_norm_uf=gn_uf,
        grad_norm_sem=gn_sem,
        miou_train=miou_train,
    )


def train_run(model: SegModel, episodes: Iterable[Episode], optimizer: AdamW,
              weights: LossWeights) -> list:
    return [train_episode(model, episode, optimizer, weights, step)
            for step, episode in enumerate(episodes)]
