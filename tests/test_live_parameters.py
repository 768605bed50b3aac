"""Every trainable tensor of either variant gets a real gradient from one
default training step; a parameter that no loss can see is dead weight.

The twin of ``test_dead_code.py`` for parameters. A tensor whose true
gradient is zero still reads rounding noise, far below the rest of the
model, and AdamW's per-coordinate step would walk it on that noise alone."""

import numpy as np
import pytest

from dafss.model import MODES, ModelConfig, SegModel
from dafss.scenes import SceneConfig, build_pool, fold_classes, sample_episode
from dafss.training import LossWeights, train_episode

# Of the largest |grad| in the model. Rounding noise reads about 1e-14 of
# it; on this episode the least live tensor, the fused variant's
# geo_expert.ln_gamma, reads 5.5e-4, and the decoupled model's least live
# block, geo_expert.cores[0], 2.0e-3.
LIVE_FRACTION = 1e-8


def head_blocks(name: str, grad: np.ndarray, params: dict) -> dict:
    """``grad`` by name, or split per head for an expert's merged attention
    tensors, whose heads share one tensor: each head's ``[r, r]`` column
    block of ``<expert>.cores``, and each of the H+1 ``r``-row blocks of
    ``<expert>.mix`` (block 0 is the residual lift, block h+1 head h's
    values). One dead head then shows, however live the others are."""
    expert, _, field = name.partition(".")
    if field not in ("cores", "mix"):
        return {name: grad}
    r = params[f"{expert}.cores"].shape[0]
    axis = 1 if field == "cores" else 0
    return {f"{name}[{i}]": block
            for i, block in enumerate(np.split(grad, grad.shape[axis] // r, axis=axis))}


class GradientProbe:
    """Stands in for the optimizer: keeps the largest |grad| of each
    parameter, or of each head's block of one, at the step and moves
    nothing."""

    def __init__(self, params: dict):
        self.params = params
        self.peaks: dict = {}

    def step(self) -> None:
        self.peaks = {}
        for name, p in self.params.items():
            grad = np.zeros_like(p.data) if p.grad is None else np.abs(p.grad)
            self.peaks.update({label: float(np.max(block))
                               for label, block in head_blocks(name, grad, self.params).items()})

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None


@pytest.fixture(scope="module")
def base_episode():
    base, _ = fold_classes(0)
    pool = build_pool(SceneConfig(texture_confusion=0.3, seed=2), 12)
    return sample_episode(pool, 1, 1, seed=100_000, base_classes=base, candidate_classes=base)


@pytest.mark.parametrize("mode", MODES)
def test_every_parameter_gets_a_gradient(mode, base_episode):
    model = SegModel(ModelConfig(base_class_ids=tuple(fold_classes(0)[0]), seed=1), mode)
    probe = GradientProbe(model.parameters())
    train_episode(model, base_episode, probe, LossWeights(), step=0)
    largest = max(probe.peaks.values())
    dead = {name: f"{peak / largest:.1e}" for name, peak in probe.peaks.items()
            if peak < LIVE_FRACTION * largest}
    assert not dead, f"parameters with no gradient beyond rounding, of the largest: {dead}"
