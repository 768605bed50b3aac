"""Spans around the calls into each dafss module, recorded from outside it.

The tracer swaps selected public functions and methods of the loaded
``dafss`` modules for wrappers that record a span (name, start, end, parent,
phase, variant) per call, then puts the originals back. Nothing in the
library changes. Spans stay in memory; ``write`` saves them once, when the
run ends. Autodiff operations are counted rather than spanned, because there
are hundreds per episode and a span each would cost more than the op.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

# Spanned callables: (module, attribute or "Class.method"), span name.
SPANNED = (
    ("dafss.scenes", "build_pool", "scenes.build_pool"),
    ("dafss.scenes", "sample_episode", "scenes.sample_episode"),
    ("dafss.model", "SegModel.__init__", "model.init"),
    ("dafss.model", "SegModel.forward", "model.forward"),
    ("dafss.model", "SegModel.predict", "model.predict"),
    ("dafss.features", "uf_encode", "features.uf_encode"),
    ("dafss.features", "if_encode", "features.if_encode"),
    ("dafss.features", "extract_prototypes", "features.correlate"),
    ("dafss.features", "compute_correlations", "features.correlate"),
    ("dafss.experts", "run_expert", "experts.run_expert"),
    ("dafss.alignment", "prototype_alignment_loss", "alignment.losses"),
    ("dafss.alignment", "consistency_loss", "alignment.losses"),
    ("dafss.arbitration", "merge_features", "arbitration.merge"),
    ("dafss.arbitration", "arbitrate", "arbitration.arbitrate"),
    ("dafss.arbitration", "semantic_gate", "arbitration.gate"),
    ("dafss.arbitration", "decode", "arbitration.decode"),
    ("dafss.arbitration", "knn_weights", "arbitration.knn_weights"),
    ("dafss.training", "train_episode", "training.train_episode"),
    ("dafss.training", "seg_loss", "training.losses"),
    ("dafss.training", "base_loss", "training.losses"),
    ("dafss.training", "total_loss", "training.losses"),
    ("dafss.autodiff", "backward", "autodiff.backward"),
    ("dafss.optim", "AdamW.step", "optim.step"),
)

# Counts taken from a call's arguments: attribute -> args -> {counter: value}.
COUNTERS = {
    "matmul": lambda a, b: {"autodiff.fwd_matmul_mflop": 2e-6 * a.shape[0] * a.shape[1] * b.shape[1]},
    "AdamW.step": lambda opt: {"optim.tensors": sum(p.grad is not None for p in opt.params.values())},
}

# Spans that open an episode.
EPISODE_ROOTS = {"train": "training.train_episode", "eval": "model.predict"}

# Autodiff functions that are not graph operations.
NOT_OPS = {"backward", "zero_grads", "parameter", "constant"}


class Tracer:
    """Records spans and counts while installed; inert otherwise."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent, phase, variant]
        self.counts: dict = defaultdict(float)  # (phase, variant, counter) -> total
        self.phase = "setup"
        self.variant = ""
        self._stack: list = []
        self._saved: list = []  # (owner, attribute, original)

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, name in SPANNED:
            owner, original = _resolve(module, attr)
            self._replace(owner, attr.split(".")[-1], original,
                          self._spanned(original, name, COUNTERS.get(attr)))
        autodiff = sys.modules["dafss.autodiff"]
        for attr, fn in list(vars(autodiff).items()):
            if (inspect.isfunction(fn) and fn.__module__ == "dafss.autodiff"
                    and not attr.startswith("_") and attr not in NOT_OPS):
                self._replace(autodiff, attr, fn, self._counted(fn, attr))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _replace(self, owner, attr, original, wrapper) -> None:
        if inspect.isclass(owner):
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        # A function imported by name into other dafss modules is bound there
        # too; swap every binding so calls through any module are seen.
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "dafss" or mod_name.startswith("dafss."):
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, name, original))
                        setattr(mod, name, wrapper)

    # -- wrappers -------------------------------------------------------------

    def _spanned(self, fn, name, counter=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                self._add(counter(*args))
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.phase, self.variant])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return wrapper

    def _counted(self, fn, name):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._add({"autodiff.op_calls": 1})
            if counter is not None:
                self._add(counter(*args))
            return fn(*args, **kwargs)

        return wrapper

    def _add(self, values: dict) -> None:
        for counter, value in values.items():
            self.counts[(self.phase, self.variant, counter)] += value

    # -- reduction ------------------------------------------------------------

    def self_times(self) -> dict:
        """(phase, variant, span name) -> summed self time in seconds.

        A span's self time is its duration minus that of its direct
        children; calls nest on one thread, so children never overlap."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(float)
        for (name, start, end, _, phase, variant), c in zip(self.spans, child):
            out[(phase, variant, name)] += (end - start) - c
        return out

    def durations(self, name: str, variant: str | None = None) -> list:
        return [end - start for n, start, end, _, _, v in self.spans
                if n == name and (variant is None or v == variant)]

    def episodes(self, phase: str, variant: str) -> list:
        root = EPISODE_ROOTS[phase]
        return [end - start for n, start, end, _, p, v in self.spans
                if n == root and p == phase and v == variant]

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "phase", "variant")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def _resolve(module: str, attr: str):
    owner = sys.modules[module]
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, vars(owner)[last] if inspect.isclass(owner) else getattr(owner, last)
