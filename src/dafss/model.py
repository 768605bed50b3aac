"""Full segmentation model: heads, experts, arbitration, decoder.

Two variants share every stage except the expert block. The decoupled
variant refines the geometric and semantic correlations in separate experts
and trains with the alignment regularizers and their two classifier heads;
the fused baseline sums the two correlation matrices and refines them in a
single expert, with no heads and no alignment graph at all. The semantic
expert refines only the distinct rows of its detached correlation, and its
features stay at those rows through its classifier head and the merge's
batch norm and product: only the head's class logits and the merge's
``[rows, d_arb]`` product are gathered to the points. The geometric and
fused experts, whose inputs carry a gradient per row, refine every row.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import partial
from typing import Optional

import numpy as np

from dafss import autodiff as ad
from dafss.alignment import consistency_loss, prototype_alignment_loss
from dafss.arbitration import (
    arbitrate,
    decode,
    init_arbitration,
    init_decoder,
    merge_features,
    semantic_gate,
)
from dafss.autodiff import Tensor, constant
from dafss.errors import ConfigurationError, InputError, ShapeError, is_integer, require
from dafss.experts import ExpertParams, init_expert, run_expert
from dafss.features import (
    IFHead,
    TextStub,
    UFHead,
    compute_correlations,
    extract_prototypes,
    if_encode,
    text_guidance,
    uf_encode,
)
from dafss.layers import init_linear, linear
from dafss.scenes import N_CLASSES, Episode

MODES = ("decoupled", "fused")


def named_tensors(obj) -> dict[str, Tensor]:
    """Every tensor under ``obj`` by its path: parameters, and state no
    gradient moves, such as batch-norm running statistics.

    Walks tensors, lists, tuples and the attributes of plain objects and
    dataclasses depth first, in attribute order, so a tensor's position
    follows the order of the fields that hold it. A path joins attribute
    names and list indices with dots (``arb.layers.0.attn.wqkv``). A tensor
    reached by two paths raises, for an optimizer would step it twice."""
    found: dict[int, tuple] = {}
    _walk(obj, "", found)
    return dict(found.values())


def _walk(x, path: str, found: dict) -> None:
    """Adds ``id: (path, tensor)`` to ``found`` for each tensor under ``x``. A
    module-level function, not a closure, so a walk leaves no reference cycle."""
    if isinstance(x, Tensor):
        if id(x) in found:
            raise ConfigurationError(f"one tensor is both {found[id(x)][0]!r} and {path!r}")
        found[id(x)] = (path, x)
    elif isinstance(x, (list, tuple)) or hasattr(x, "__dict__"):
        for key, value in enumerate(x) if isinstance(x, (list, tuple)) else vars(x).items():
            _walk(value, f"{path}.{key}" if path else str(key), found)


def _refine_semantic(corr_sem: Tensor, params: ExpertParams) -> tuple:
    """The semantic expert's features at the distinct rows of the
    correlation, ``[U, d]``, and the grouping ``(inverse, counts)`` that
    maps them to the N query points: point ``j`` holds row ``inverse[j]``,
    and row ``i`` stands for ``counts[i]`` points.

    The semantic correlation comes from a frozen lookup keyed on texture id
    and grid cell, so a query of hundreds of points holds at most a few tens of distinct
    rows. Each distinct row weighs as the number of points it stands for
    (see :func:`run_expert`), so every point's features are those of a run
    over all N rows, and the expert costs O(U^2 r + U H r d) for U distinct
    rows. The gradient stays exact because the correlation is detached: no
    gradient is owed to the rows folded together, and each parameter's
    gradient is the sum over the points of each group, which the gathers
    after the head and the merge product form."""
    rows, inverse, counts = np.unique(corr_sem.data, axis=0, return_inverse=True,
                                      return_counts=True)
    return run_expert(constant(rows), params, counts), (inverse.reshape(-1), counts)


@dataclass(frozen=True)
class ModelConfig:
    """Every structural hyperparameter, validated once at construction.

    Frozen, so a built config cannot be changed past its checks."""

    base_class_ids: tuple = tuple(range(6))
    n_way: int = 1
    d_uf: int = 32
    uf_hidden: int = 64
    d_if: int = 64
    d_geo: int = 192
    d_sem: int = 512
    d_arb: int = 192
    heads: int = 4
    sam_layers: int = 1
    seed: int = 0

    def __post_init__(self):
        """Reject an inconsistent structure before any parameter is drawn."""
        need = partial(require, self)
        for name in (f.name for f in fields(self) if f.type == "int"):
            need(is_integer(getattr(self, name)), name, "must be an integer")
        need(self.seed >= 0, "seed", "must be non-negative")
        for field in ("d_uf", "uf_hidden", "d_if", "d_geo", "d_sem"):
            need(getattr(self, field) >= 1, field, "need a width of at least 1")
        need(self.heads >= 1, "heads", "need at least one attention head")
        for field in ("d_geo", "d_sem", "d_arb"):
            need(getattr(self, field) % self.heads == 0, field,
                 f"must be divisible by heads = {self.heads}")
        need(self.sam_layers >= 1, "sam_layers", "need at least one arbitration layer")
        need(self.d_arb >= 2, "d_arb", "the background partition d_bg needs 0 < d_bg < d_arb")
        need(self.n_way >= 1, "n_way", "need at least one way")
        ids = list(self.base_class_ids)
        need(all(is_integer(c) for c in ids), "base_class_ids", "must be integers")
        need(len(ids) >= 1, "base_class_ids", "need at least one base class")
        need(len(set(ids)) == len(ids), "base_class_ids", "must be unique")
        need(all(0 <= c < N_CLASSES for c in ids), "base_class_ids",
             f"must lie in [0, {N_CLASSES})")

    @property
    def d_bg(self) -> int:
        return max(self.d_arb // 4, 1)


@dataclass
class ForwardOutput:
    logits: Tensor  # [N_q, n_way+1]
    base_logits: Optional[Tensor]  # [N_q, n_base] or None
    proto_loss: Optional[Tensor]
    consist_loss: Optional[Tensor]


class SegModel:
    """One variant (decoupled or fused) with its full parameter set."""

    def __init__(self, config: ModelConfig, mode: str):
        if mode not in MODES:
            raise ConfigurationError(f"unknown variant {mode!r}, expected one of {MODES}")
        self.config = config
        self.mode = mode
        rng = np.random.default_rng([config.seed, MODES.index(mode)])

        n_out = config.n_way + 1  # background plus one class per way
        self.uf = UFHead(rng, d_out=config.d_uf, hidden=config.uf_hidden)
        self.if_head = IFHead(rng, d_out=config.d_if)
        self.text = TextStub(rng, d_out=config.d_if)

        self.geo_expert = init_expert(rng, n_out, config.d_geo, config.heads)
        if mode == "decoupled":
            self.geo_head = init_linear(rng, config.d_geo, n_out)
            self.sem_expert = init_expert(rng, n_out, config.d_sem, config.heads)
            self.sem_head = init_linear(rng, config.d_sem, n_out)
            self.align = init_linear(rng, config.d_uf, config.d_if)
            widths = [config.d_geo, config.d_sem]
        else:
            self.geo_head = self.sem_expert = self.sem_head = self.align = None
            widths = [config.d_geo]

        self.arb = init_arbitration(rng, widths, d_arb=config.d_arb,
                                    d_guid=config.d_if, n_layers=config.sam_layers,
                                    heads=config.heads, d_bg=config.d_bg)
        self.decoder = init_decoder(rng, config.d_arb, n_out)
        self.base = init_linear(rng, config.d_arb, len(config.base_class_ids))

    # -- parameter bookkeeping ------------------------------------------------

    def parameters(self) -> dict[str, Tensor]:
        """The trainable part of :func:`named_tensors`, in its order."""
        return {name: t for name, t in named_tensors(self).items() if t.requires_grad}

    def pathway_tensors(self) -> tuple[list[Tensor], list[Tensor]]:
        """Tensors of the geometric pathway (point encoder, its expert and
        head) and of the semantic one (expert and head; none if fused)."""
        return (list(named_tensors((self.uf, self.geo_expert, self.geo_head)).values()),
                list(named_tensors((self.sem_expert, self.sem_head)).values()))

    def frozen_state(self) -> list[np.ndarray]:
        """Copies of every frozen array, for bit-identity audits."""
        return [a.copy() for a in self.if_head.state_arrays() + self.text.state_arrays()]

    def state_dict(self) -> dict[str, np.ndarray]:
        """A copy of every named tensor: the parameters and the batch-norm
        running statistics, keyed by name in :func:`named_tensors` order."""
        return {name: t.data.copy() for name, t in named_tensors(self).items()}

    def load_state_dict(self, state: dict) -> None:
        """Load a full checkpoint, or raise before anything is written.

        The keys must be exactly those of ``state_dict()``, each holding
        finite integer or float values in the shape it has there. Each is
        stored as a fresh C-order float64 array, as ``Tensor`` stores data."""
        tensors = named_tensors(self)
        unknown = [name for name in state if name not in tensors]
        if unknown:
            raise ConfigurationError(f"checkpoint contains unknown entries {unknown}")
        missing = [name for name in tensors if name not in state]
        if missing:
            raise ConfigurationError(f"checkpoint lacks entries {missing}")
        loaded = {}
        for name, t in tensors.items():
            try:
                value = np.asarray(state[name])
                numeric = value.dtype.kind in "iuf"
            except ValueError:  # a ragged nested list
                numeric = False
            if not numeric:
                raise ConfigurationError(f"checkpoint entry {name!r} is not an integer or float array")
            if value.shape != t.data.shape:
                raise ConfigurationError(f"checkpoint shape {value.shape} does not match "
                                         f"{name!r} of shape {t.data.shape}")
            if not np.all(np.isfinite(value)):
                raise ConfigurationError(f"checkpoint entry {name!r} holds a non-finite value")
            loaded[name] = np.array(value, dtype=np.float64, order="C")
        for name, t in tensors.items():
            t.data = loaded[name]

    # -- forward --------------------------------------------------------------

    def _encode_support(self, episode: Episode):
        if len(episode.support) != episode.n_way:
            raise ShapeError(f"support holds {len(episode.support)} ways, "
                             f"the episode is {episode.n_way}-way")
        geo_parts, sem_parts = [], []
        mask_cols: list[list[np.ndarray]] = [[] for _ in range(episode.n_way)]
        for way, shots in enumerate(episode.support):
            if len(shots) == 0:
                raise ShapeError(f"support way {way} holds no shot")
            if len(shots) != episode.k_shot:
                raise ShapeError(f"support way {way} holds {len(shots)} shots, "
                                 f"the episode is {episode.k_shot}-shot")
            for i, shot in enumerate(shots):
                n, mask, which = len(shot.scene), np.asarray(shot.mask), f"way {way}, shot {i}"
                if mask.dtype != bool:
                    raise InputError(f"support mask of {which} has dtype {mask.dtype}, not bool")
                if mask.shape != (n,):
                    raise ShapeError(f"support mask of {which} has shape {mask.shape}, its scene "
                                     f"has {n} points")
                geo_parts.append(uf_encode(shot.scene, self.uf))
                sem_parts.append(if_encode(shot.scene, self.if_head))
                for other in range(episode.n_way):
                    mask_cols[other].append(mask if other == way else np.zeros(n, dtype=bool))
        geo = geo_parts[0] if len(geo_parts) == 1 else ad.concat(geo_parts, axis=0)
        sem = sem_parts[0] if len(sem_parts) == 1 else ad.concat(sem_parts, axis=0)
        masks = [np.concatenate(cols) for cols in mask_cols]
        return geo, sem, masks

    def forward(self, episode: Episode, train: bool) -> ForwardOutput:
        """One episode through the pipeline.

        Both alignment losses are built in train mode on the decoupled
        variant; ``training.total_loss`` weighs them."""
        if episode.n_way != self.config.n_way:
            raise ConfigurationError(
                f"episode is {episode.n_way}-way, model built for {self.config.n_way}-way")
        sup_geo, sup_sem, masks = self._encode_support(episode)
        geo_protos, sem_protos = extract_prototypes(sup_geo, sup_sem, masks)

        q_geo = uf_encode(episode.query, self.uf)
        q_sem = if_encode(episode.query, self.if_head)
        corr = compute_correlations(q_geo, q_sem, geo_protos, sem_protos)

        proto_loss = consist_loss = None
        if self.mode == "decoupled":
            r_geo = run_expert(corr.geo, self.geo_expert)
            r_sem, groups = _refine_semantic(corr.sem, self.sem_expert)
            if train:
                proto_loss = prototype_alignment_loss(geo_protos, sem_protos, self.align)
                consist_loss = consistency_loss(
                    linear(r_geo, self.geo_head),
                    ad.take_rows(linear(r_sem, self.sem_head), groups[0]))
            blocks = [(r_geo, None), (r_sem, groups)]
        else:
            blocks = [(run_expert(ad.add(corr.geo, corr.sem), self.geo_expert), None)]
        merged = merge_features(blocks, self.arb, train)

        g_base, g_q = text_guidance(self.config.base_class_ids, episode.novel_classes, self.text)
        arb_out = arbitrate(merged, g_base, self.arb)
        gated = semantic_gate(arb_out, g_q, self.arb)
        logits = decode(gated, episode.query.points, self.decoder)

        base_logits = None
        if train and episode.base_class_labels is not None:
            base_logits = linear(merged, self.base)

        return ForwardOutput(logits=logits, base_logits=base_logits,
                             proto_loss=proto_loss, consist_loss=consist_loss)

    def predict(self, episode: Episode) -> np.ndarray:
        """Per-point class predictions in the episode's {0..n_way} space.

        Runs ``forward(train=False)`` without recording an autodiff graph."""
        with ad.no_grad():
            out = self.forward(episode, train=False)
        return np.argmax(out.logits.data, axis=1)
