"""Stop-gradient regularizers coordinating the two expert pathways.

Both losses exist only while the decoupled variant trains. The prototype
term pulls projected geometric prototypes toward their frozen semantic
anchors, which no gradient ever reaches. The consistency term, the only
reader of the experts' classifier heads, is a symmetric KL between their
per-point class distributions where each half only trains its own first
argument. Their weights live in ``training.LossWeights`` and are applied
by ``training.total_loss``.
"""

from __future__ import annotations

from dafss import autodiff as ad
from dafss.autodiff import Tensor
from dafss.errors import ShapeError
from dafss.layers import Linear, linear


def head_probs(refined: Tensor, head: Linear) -> Tensor:
    """Per-point class distribution ``softmax(refined @ w + b)``."""
    return ad.softmax(linear(refined, head), axis=1)


def prototype_alignment_loss(geo_protos: Tensor, sem_protos: Tensor, proj: Linear) -> Tensor:
    """Mean squared distance between projected geometric prototypes and
    stop-gradient semantic anchors, averaged over the prototype pairs."""
    if geo_protos.shape[0] != sem_protos.shape[0]:
        raise ShapeError(
            f"prototype counts differ: {geo_protos.shape[0]} vs {sem_protos.shape[0]}, "
            "cannot pair them"
        )
    projected = linear(geo_protos, proj)
    if projected.shape != sem_protos.shape:
        raise ShapeError(f"projection maps to {projected.shape}, anchors are {sem_protos.shape}")
    diff = ad.sub(projected, ad.stop_gradient(sem_protos))
    return ad.scale(ad.sum_all(ad.mul(diff, diff)), 1.0 / geo_protos.shape[0])


def _kl_vs_anchor(p: Tensor, q: Tensor) -> Tensor:
    """Mean per-row KL(p || sg(q)); gradient flows into p only."""
    anchor = ad.stop_gradient(q)
    log_ratio = ad.sub(ad.safe_log(p), ad.safe_log(anchor))
    return ad.scale(ad.sum_all(ad.mul(p, log_ratio)), 1.0 / p.shape[0])


def consistency_loss(p_geo: Tensor, p_sem: Tensor) -> Tensor:
    """Symmetric stop-gradient KL between the experts' distributions."""
    if p_geo.shape != p_sem.shape:
        raise ShapeError(f"distribution shapes differ: {p_geo.shape} vs {p_sem.shape}")
    half_fwd = ad.scale(_kl_vs_anchor(p_geo, p_sem), 0.5)
    half_rev = ad.scale(_kl_vs_anchor(p_sem, p_geo), 0.5)
    return ad.add(half_fwd, half_rev)
