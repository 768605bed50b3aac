"""Once warm, a training step takes no fresh pages from the kernel.

A step frees its whole graph at once after the update. With glibc's default,
self-adjusting thresholds the heap top was handed back to the kernel and
faulted in again on every step (``autodiff._keep_freed_heap``), which made
the step's time follow the host's load. The thresholds depend on what the
process has freed before, so each case runs in a fresh interpreter."""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from dafss.model import MODES

ROOT = Path(__file__).resolve().parents[1]
# Minor faults per warm step. On these episodes glibc's default thresholds
# gave 810 (decoupled) and 654 (fused); fixed, both variants gave under 1.
FAULTS_PER_STEP = 100

STEPS = """
import resource, sys
from dafss.model import ModelConfig, SegModel
from dafss.optim import AdamW
from dafss.scenes import SceneConfig, build_pool, fold_classes, sample_episode
from dafss.training import LossWeights, train_episode

base, _ = fold_classes(0)
pool = build_pool(SceneConfig(texture_confusion=0.3, seed=2), 12)
episodes = [sample_episode(pool, 1, 1, seed=100_000 + i, base_classes=base,
                           candidate_classes=base) for i in range(6)]
model = SegModel(ModelConfig(base_class_ids=tuple(base), seed=1), sys.argv[1])
optimizer = AdamW(model.parameters())
for step, episode in enumerate(episodes[:3]):
    train_episode(model, episode, optimizer, LossWeights(), step)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for step, episode in enumerate(episodes[3:], start=3):
    train_episode(model, episode, optimizer, LossWeights(), step)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 3)
"""


@pytest.mark.skipif(platform.system() != "Linux" or platform.libc_ver()[0] != "glibc",
                    reason="the thresholds are fixed under glibc only")
@pytest.mark.parametrize("mode", MODES)
def test_warm_training_step_takes_no_fresh_pages(mode):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", STEPS, mode], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    faults = float(proc.stdout.strip().splitlines()[-1])
    assert faults < FAULTS_PER_STEP, f"{faults:.0f} minor faults per warm {mode} step"
