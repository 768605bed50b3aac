"""Confusion-matrix metrics over the foreground classes 1..n-1, and episodic evaluation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from dafss.errors import InputError, ShapeError, UndefinedMetricError, is_integer
from dafss.model import SegModel
from dafss.scenes import Episode


@dataclass
class MetricsReport:
    per_class_iou: dict
    miou: float
    macc: float
    episode_count: int


def confusion_matrix(preds: np.ndarray, labels: np.ndarray, n_classes: int) -> np.ndarray:
    """counts[i, j] = number of points with label i predicted as j."""
    preds, labels = np.asarray(preds), np.asarray(labels)
    if not (is_integer(n_classes) and n_classes >= 1):
        raise InputError(f"n_classes must be an integer of at least 1, got {n_classes!r}")
    if preds.shape != labels.shape:
        raise ShapeError(f"prediction/label lengths differ: {preds.shape} vs {labels.shape}")
    for name, arr in (("prediction", preds), ("label", labels)):
        if arr.dtype.kind not in "iu":  # floats and bools are not class ids
            raise InputError(f"{name}s must be an integer array, got dtype {arr.dtype}")
        if np.any(arr < 0) or np.any(arr >= n_classes):
            bad = arr[(arr < 0) | (arr >= n_classes)][0]
            raise InputError(f"{name} value {int(bad)} outside [0,{n_classes})")
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (labels, preds), 1)
    return counts


def _foreground(conf: np.ndarray) -> range:
    """Classes 1..n-1 of a square n x n confusion matrix."""
    if conf.ndim != 2 or conf.shape[0] != conf.shape[1]:
        raise ShapeError(f"confusion matrix must be square, got {conf.shape}")
    return range(1, conf.shape[0])


def miou(conf: np.ndarray) -> tuple[dict, float]:
    """Per-class IoU of the foreground classes 1..n-1, and its mean.

    A class absent from both predictions and labels is excluded; if every
    foreground class is absent the metric is undefined."""
    per_class = {}
    for c in _foreground(conf):
        tp = int(conf[c, c])
        fp = int(conf[:, c].sum()) - tp
        fn = int(conf[c, :].sum()) - tp
        denom = tp + fp + fn
        if denom == 0:
            continue
        per_class[c] = tp / denom
    if not per_class:
        raise UndefinedMetricError("no foreground class present in predictions or labels")
    return per_class, float(np.mean(list(per_class.values())))


def macc(conf: np.ndarray) -> float:
    """Mean recall over the foreground classes 1..n-1 with labelled points."""
    recalls = []
    for c in _foreground(conf):
        tp = int(conf[c, c])
        fn = int(conf[c, :].sum()) - tp
        if tp + fn == 0:
            continue
        recalls.append(tp / (tp + fn))
    if not recalls:
        raise UndefinedMetricError("no foreground class has labelled points")
    return float(np.mean(recalls))


def evaluate(model: SegModel, episodes: Iterable[Episode]) -> MetricsReport:
    """Accumulate one confusion matrix over all episodes in the shared
    remapped label space {0..n_way}, then reduce to mIoU / mAcc.

    Each episode is one graph-free ``model.predict``; nothing is carried
    from one episode to the next but the confusion counts."""
    n_classes = model.config.n_way + 1
    conf = np.zeros((n_classes, n_classes), dtype=np.int64)
    count = 0
    for episode in episodes:
        preds = model.predict(episode)
        conf += confusion_matrix(preds, episode.query_labels, n_classes)
        count += 1
    if count == 0:
        raise UndefinedMetricError("evaluation over an empty episode stream")
    per_class, mean_iou = miou(conf)
    return MetricsReport(per_class_iou=per_class, miou=mean_iou, macc=macc(conf),
                         episode_count=count)
