"""Stop-gradient regularizers coordinating the two expert pathways.

Both losses exist only while the decoupled variant trains. The prototype
term pulls projected geometric prototypes toward their frozen semantic
anchors, which no gradient ever reaches. The consistency term, the only
reader of the experts' classifier heads, is a symmetric KL between their
per-point class distributions, taken from the heads' logits in log space,
where each half only trains its own first argument. Their weights live in
``training.LossWeights`` and are applied by ``training.total_loss``.
"""

from __future__ import annotations

from dafss import autodiff as ad
from dafss.autodiff import Tensor
from dafss.errors import ShapeError
from dafss.layers import Linear, linear


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


def _kl_vs_anchor(p: Tensor, log_p: Tensor, log_q: Tensor) -> Tensor:
    """Mean per-row KL(p || sg(q)) from ``p`` and both log-probabilities;
    gradient flows into ``p`` and ``log_p`` only."""
    log_ratio = ad.sub(log_p, ad.stop_gradient(log_q))
    return ad.scale(ad.sum_all(ad.mul(p, log_ratio)), 1.0 / p.shape[0])


def consistency_loss(z_geo: Tensor, z_sem: Tensor) -> Tensor:
    """Symmetric stop-gradient KL between the distributions of the experts'
    per-point logits ``z_geo`` and ``z_sem``."""
    if z_geo.shape != z_sem.shape:
        raise ShapeError(f"logit shapes differ: {z_geo.shape} vs {z_sem.shape}")
    log_geo, log_sem = ad.log_softmax(z_geo), ad.log_softmax(z_sem)
    half_fwd = ad.scale(_kl_vs_anchor(ad.softmax(z_geo), log_geo, log_sem), 0.5)
    half_rev = ad.scale(_kl_vs_anchor(ad.softmax(z_sem), log_sem, log_geo), 0.5)
    return ad.add(half_fwd, half_rev)
