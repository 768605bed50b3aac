"""Workload inputs, set-up and the timed rounds.

Both workloads follow the paper's protocol on fold 0 in the
semantic-blindness regime (``texture_confusion=0.3``): each variant trains
on a fixed list of 1-way 1-shot base-class episodes, from its initial
state, and is then evaluated with ``metrics.evaluate`` on a fixed list of
novel-class episodes. One round does this for both variants. Every round
restores the initial parameters and starts a fresh optimizer, so all rounds
of a run replay exactly the same computation and a rate is taken over a
whole, fixed episode list.
"""

from __future__ import annotations

import gc
import time
import traceback
from dataclasses import dataclass

import numpy as np

from checks import fingerprint
from dafss import scenes, training
from dafss.metrics import evaluate
from dafss.model import MODES, ModelConfig, SegModel
from dafss.optim import AdamW
from dafss.scenes import SceneConfig, fold_classes
from dafss.training import LossWeights

# Library functions are called through their modules so that the tracer,
# which swaps module attributes, sees these calls too.
FOLD = 0
TEXTURE_CONFUSION = 0.3
POOL_SCENES = 60  # per pool; one pool for training queries, one for evaluation
CANDIDATES_PER_EPISODE = 4
WARMUP_EPISODES = 2
DEFAULT_POINTS = SceneConfig().points_per_object


@dataclass(frozen=True)
class Workload:
    name: str
    eval_points: tuple  # points per object in the evaluation scenes
    n_train: int  # training episodes per variant and round
    n_eval: int  # evaluation episodes per variant and round


# Short lists give many short rounds, so each rate samples the machine's
# drifting speed at many moments of the run (README, "Noise").
WORKLOADS = {
    # The paper's protocol at default density: backward and AdamW dominate.
    "fit_novel": Workload("fit_novel", DEFAULT_POINTS, n_train=10, n_eval=20),
    # Evaluation on 4x denser scenes, where the O(N^2) expert, arbitration
    # and k-NN layers dominate; the short fit only feeds the same metrics.
    "eval_dense": Workload("eval_dense", tuple(4 * p for p in DEFAULT_POINTS), n_train=4, n_eval=4),
}


def size_targets(config: SceneConfig, n: int) -> np.ndarray:
    """n evenly spaced quantiles of a scene's point count under ``config``.

    Episode cost grows with the query's point count, between linearly and
    quadratically. Lists drawn freely from one seed's pool differed in mean
    squared point count by 7-15% from seed to seed, which showed up as
    spread in every rate. Matching each list to these fixed targets cuts
    that to about 1% while the scenes themselves still come from the seed.
    """
    rng = np.random.default_rng(0)
    objects = sum(rng.integers(lo, hi + 1, size=20_000)
                  for lo, hi in (config.plane_count, config.box_count, config.cylinder_count))
    lo, hi = config.points_per_object
    points = rng.integers(lo, hi + 1, size=(len(objects), objects.max()))
    sizes = np.sum(points * (np.arange(objects.max()) < objects[:, None]), axis=1)
    return np.quantile(sizes, (np.arange(n) + 0.5) / n)


def size_matched_episodes(pool, config: SceneConfig, n: int, first_seed: int, **kwargs) -> list:
    """n episodes whose query sizes follow ``size_targets``, picked from
    CANDIDATES_PER_EPISODE * n seeded draws and kept in draw order."""
    candidates = [scenes.sample_episode(pool, 1, 1, seed=first_seed + i, **kwargs)
                  for i in range(CANDIDATES_PER_EPISODE * n)]
    free = set(range(len(candidates)))
    for target in size_targets(config, n):
        best = min(free, key=lambda i: (abs(len(candidates[i].query) - target), i))
        free.remove(best)
    return [c for i, c in enumerate(candidates) if i not in free]


@dataclass
class Inputs:
    train_episodes: list
    eval_episodes: list
    models: dict  # variant -> SegModel
    initial_state: dict  # variant -> state_dict straight after construction


def set_up(workload: Workload, seed: int, tracer) -> Inputs:
    """Scene pools, episode lists and both models, all derived from ``seed``."""
    base, novel = fold_classes(FOLD)
    tracer.phase, tracer.variant = "setup", ""
    train_cfg = SceneConfig(texture_confusion=TEXTURE_CONFUSION, seed=2 * seed)
    eval_cfg = SceneConfig(texture_confusion=TEXTURE_CONFUSION, seed=2 * seed + 1,
                           points_per_object=workload.eval_points)
    first = 100_000 * seed
    train_eps = size_matched_episodes(scenes.build_pool(train_cfg, POOL_SCENES), train_cfg,
                                      workload.n_train, first, base_classes=base,
                                      candidate_classes=base)
    eval_eps = size_matched_episodes(scenes.build_pool(eval_cfg, POOL_SCENES), eval_cfg,
                                     workload.n_eval, first + 50_000, candidate_classes=novel)
    models = {}
    for variant in MODES:
        tracer.variant = variant
        models[variant] = SegModel(ModelConfig(base_class_ids=tuple(base), seed=seed), variant)
    return Inputs(train_eps, eval_eps, models,
                  {v: m.state_dict() for v, m in models.items()})


def warm_up(inputs: Inputs) -> None:
    """A few untimed episodes per variant; every round restores the state."""
    for model in inputs.models.values():
        opt = AdamW(model.parameters())
        for step, ep in enumerate(inputs.train_episodes[:WARMUP_EPISODES]):
            training.train_episode(model, ep, opt, LossWeights(), step)
        evaluate(model, inputs.eval_episodes[:WARMUP_EPISODES])


def _stamped(episodes, stamps: list):
    """Yield episodes, stamping the clock at each request: ``evaluate``
    asks for the next episode right after finishing the previous one."""
    for episode in episodes:
        stamps.append(time.perf_counter())
        yield episode
    stamps.append(time.perf_counter())


def run_variant(inputs: Inputs, variant: str, tracer, errors: list) -> dict:
    """Train then evaluate one variant once, timing every episode.

    Operations that raise are counted and their tracebacks kept."""
    model = inputs.models[variant]
    model.load_state_dict(inputs.initial_state[variant])
    optimizer = AdamW(model.parameters())
    weights = LossWeights()
    records, train_times, train_raised = [], [], 0

    gc.collect()
    tracer.phase, tracer.variant = "train", variant
    for step, episode in enumerate(inputs.train_episodes):
        t0 = time.perf_counter()
        try:
            records.append(training.train_episode(model, episode, optimizer, weights, step))
        except Exception:  # one failed step must not end the run
            train_raised += 1
            errors.append(traceback.format_exc())
        train_times.append(time.perf_counter() - t0)

    pre_eval = fingerprint(model)
    gc.collect()
    tracer.phase = "eval"
    stamps: list = []
    try:
        miou, eval_raised = evaluate(model, _stamped(inputs.eval_episodes, stamps)).miou, 0
    except Exception:  # evaluate is one call: it fails all its episodes at once
        miou, eval_raised = float("nan"), len(inputs.eval_episodes)
        errors.append(traceback.format_exc())
    eval_times = [b - a for a, b in zip(stamps, stamps[1:])]

    return {"train_times": train_times, "eval_times": eval_times, "records": records,
            "miou": miou, "train_raised": train_raised, "eval_raised": eval_raised,
            "optimizer": optimizer, "pre_eval_fingerprint": pre_eval,
            "post_eval_fingerprint": fingerprint(model)}


@dataclass
class Measurement:
    inputs: Inputs
    setup_times: list  # seconds, one per set-up
    frozen: dict  # variant -> frozen semantic state before any training
    untraced: list  # rounds run before the tracer was installed (traced runs)
    rounds: list  # rounds that give the reported figures


def measure(workload: Workload, seed: int, seconds: float, tracer, trace: bool,
            errors: list) -> Measurement:
    """Set up, warm up, then whole rounds while the next one still fits in
    ``seconds`` (judged by the last round's length); at least one.

    A fresh set-up is timed before every round and thrown away, so set-up
    times are sampled across the run like the rates, not in one burst at
    its start. A traced run first runs one round untraced, for the
    tracing overhead, then installs the tracer."""
    setup_times = []

    def timed_set_up() -> Inputs:
        gc.collect()
        t0 = time.perf_counter()
        inputs = set_up(workload, seed, tracer)
        setup_times.append(time.perf_counter() - t0)
        return inputs

    inputs = timed_set_up()
    frozen = {v: m.frozen_state() for v, m in inputs.models.items()}
    warm_up(inputs)
    rounds = []
    start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        if trace and len(rounds) == 1:
            tracer.install()
        if rounds:
            timed_set_up()
            for result in rounds[-1].values():
                del result["optimizer"]  # only the latest is kept, for the checks
        rounds.append({v: run_variant(inputs, v, tracer, errors) for v in MODES})
        now = time.perf_counter()
        if len(rounds) > trace and (now - start) + (now - r0) > seconds:
            tracer.uninstall()
            return Measurement(inputs, setup_times, frozen, rounds[:trace], rounds[trace:])
