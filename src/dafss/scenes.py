"""Seeded synthetic indoor-like point cloud scenes and episode sampling.

A scene is a flat point list with a texture channel and per-point class
labels. Objects are drawn from a fixed ten-class catalog whose archetypes
differ in primitive family, footprint and vertical profile, so a pointwise
encoder can separate most of them from coordinates alone. Each class owns a
canonical texture id; the ``texture_confusion`` knob makes geometrically
different classes share one texture id within a scene, which is the
controlled failure mode the rest of the pipeline is built to survive.
Every coordinate carries ``NOISE_SIGMA`` of Gaussian jitter, and a scene
holds at most ``MAX_POINTS`` points. Every scene draws its objects from
the whole catalog.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

import numpy as np

from dafss.errors import (CapacityError, ConfigurationError, SamplingError, SceneParseError,
                          is_integer, require)

ROOM_HALF = 2.8  # lateral placement bound, meters
NOISE_SIGMA = 0.01  # std of the Gaussian jitter on every coordinate, meters
MAX_POINTS = 2048  # point budget of one scene

# class id -> (name, family, parameters); sizes are (lo, hi) ranges in meters
CLASS_CATALOG = (
    ("floor_slab", "plane", {"extent": (1.8, 2.6), "z": (0.0, 0.02), "vertical": False}),
    ("wall_panel", "plane", {"extent": (1.4, 2.2), "height": (2.2, 2.8), "vertical": True}),
    ("table_top", "plane", {"extent": (0.6, 1.0), "z": (0.72, 0.78), "vertical": False}),
    ("crate", "box", {"footprint": (0.4, 0.6), "height": (0.4, 0.6)}),
    ("cabinet", "box", {"footprint": (0.5, 0.7), "height": (1.6, 2.0)}),
    ("shelf_board", "plane", {"extent": (0.3, 0.7), "z": (1.4, 1.6), "vertical": False}),
    ("column", "cylinder", {"radius": (0.12, 0.18), "height": (2.4, 2.8)}),
    ("barrel", "cylinder", {"radius": (0.25, 0.35), "height": (0.8, 1.0)}),
    ("screen_slab", "box", {"footprint": (0.08, 0.55), "height": (0.3, 0.4), "z": (0.9, 1.1)}),
    ("lamp_post", "cylinder", {"radius": (0.04, 0.07), "height": (1.6, 2.0)}),
)

N_CLASSES = len(CLASS_CATALOG)
FAMILIES = ("plane", "box", "cylinder")  # each has a ``<family>_count`` range in SceneConfig


def fold_classes(fold: int) -> tuple[list[int], list[int]]:
    """(base_classes, novel_classes) for the two-fold protocol."""
    if fold == 0:
        novel = [6, 7, 8, 9]
    elif fold == 1:
        novel = [0, 1, 2, 3]
    else:
        raise ConfigurationError(f"fold must be 0 or 1, got {fold}")
    base = [c for c in range(N_CLASSES) if c not in novel]
    return base, novel


@dataclass(frozen=True)
class SceneConfig:
    """How many objects of each family a scene places, how many points each
    object gets, and how often classes share a texture id. The class of an
    object is drawn from its family's catalog classes."""

    plane_count: tuple[int, int] = (1, 2)
    box_count: tuple[int, int] = (1, 2)
    cylinder_count: tuple[int, int] = (1, 2)
    points_per_object: tuple[int, int] = (24, 48)
    texture_confusion: float = 0.0
    seed: int = 0

    def __post_init__(self):
        """Reject a setting that could not generate a valid scene."""
        need = partial(require, self)
        need(is_integer(self.seed) and self.seed >= 0, "seed", "must be a non-negative integer")
        for field in [f"{fam}_count" for fam in FAMILIES] + ["points_per_object"]:
            r = getattr(self, field)
            need(len(r) == 2 and is_integer(r[0]) and is_integer(r[1]) and 0 <= r[0] <= r[1],
                 field, "must be a range (lo, hi) of integers, 0 <= lo <= hi")
        need(self.points_per_object[0] >= 1, "points_per_object", "need a point per object")
        counts = [getattr(self, f"{fam}_count") for fam in FAMILIES]
        if sum(lo for lo, _ in counts) < 1:
            raise ConfigurationError(
                f"{', '.join(f'{fam}_count' for fam in FAMILIES)} = "
                f"{', '.join(map(repr, counts))}: their lower bounds must sum to at least 1")
        need(0.0 <= self.texture_confusion <= 1.0, "texture_confusion", "must lie in [0, 1]")


@dataclass(eq=False)
class Scene:
    points: np.ndarray  # [N,3] float64
    texture: np.ndarray  # [N] int64
    labels: np.ndarray  # [N] int64
    class_set: list[int]
    seed: int

    def __len__(self) -> int:
        return len(self.labels)

    def contains(self, class_id: int) -> bool:
        return class_id in self.class_set


def scenes_equal(a: Scene, b: Scene) -> bool:
    return (
        np.array_equal(a.points, b.points)
        and np.array_equal(a.texture, b.texture)
        and np.array_equal(a.labels, b.labels)
        and a.class_set == b.class_set
    )


@dataclass
class SupportShot:
    scene: Scene
    mask: np.ndarray  # bool [N], true on the shot's target class


@dataclass
class Episode:
    support: list  # [n_way][k_shot] SupportShot
    query: Scene
    query_labels: np.ndarray  # [N] in {0..n_way}; 0 is background
    n_way: int
    k_shot: int
    novel_classes: list[int]
    base_class_labels: Optional[np.ndarray] = None  # [N], -1 where no base class


# ---------------------------------------------------------------------------
# primitive surface samplers
# ---------------------------------------------------------------------------


def _sample_plane(rng, spec, n):
    if spec.get("vertical"):
        w = rng.uniform(*spec["extent"])
        h = rng.uniform(*spec["height"])
        theta = rng.uniform(0, 2 * np.pi)
        cx, cy = rng.uniform(-ROOM_HALF, ROOM_HALF, size=2)
        u = rng.uniform(-w / 2, w / 2, size=n)
        z = rng.uniform(0, h, size=n)
        return np.stack([cx + u * np.cos(theta), cy + u * np.sin(theta), z], axis=1)
    ex = rng.uniform(*spec["extent"])
    ey = rng.uniform(*spec["extent"])
    z0 = rng.uniform(*spec["z"])
    cx, cy = rng.uniform(-ROOM_HALF, ROOM_HALF, size=2)
    x = cx + rng.uniform(-ex / 2, ex / 2, size=n)
    y = cy + rng.uniform(-ey / 2, ey / 2, size=n)
    return np.stack([x, y, np.full(n, z0)], axis=1)


def _sample_box(rng, spec, n):
    ex = rng.uniform(*spec["footprint"])
    ey = rng.uniform(*spec["footprint"])
    ez = rng.uniform(*spec["height"])
    z0 = rng.uniform(*spec["z"]) if "z" in spec else 0.0
    cx, cy = rng.uniform(-ROOM_HALF, ROOM_HALF, size=2)
    areas = np.array([ey * ez, ey * ez, ex * ez, ex * ez, ex * ey, ex * ey])
    faces = rng.choice(6, size=n, p=areas / areas.sum())
    u = rng.uniform(-0.5, 0.5, size=n)
    v = rng.uniform(-0.5, 0.5, size=n)
    sign = 1 - 2 * (faces % 2)  # (-1) ** face
    x, y, z = faces < 2, (faces >= 2) & (faces < 4), faces >= 4
    pts = np.empty((n, 3))
    pts[x] = np.column_stack([sign[x] * ex / 2, u[x] * ey, (v[x] + 0.5) * ez])  # +-x faces
    pts[y] = np.column_stack([u[y] * ex, sign[y] * ey / 2, (v[y] + 0.5) * ez])  # +-y faces
    pts[z] = np.column_stack([u[z] * ex, v[z] * ey, (faces[z] - 4) * ez])  # bottom/top
    pts[:, 0] += cx
    pts[:, 1] += cy
    pts[:, 2] += z0
    return pts


def _sample_cylinder(rng, spec, n):
    r = rng.uniform(*spec["radius"])
    h = rng.uniform(*spec["height"])
    cx, cy = rng.uniform(-ROOM_HALF, ROOM_HALF, size=2)
    theta = rng.uniform(0, 2 * np.pi, size=n)
    z = rng.uniform(0, h, size=n)
    return np.stack([cx + r * np.cos(theta), cy + r * np.sin(theta), z], axis=1)


_SAMPLERS = {"plane": _sample_plane, "box": _sample_box, "cylinder": _sample_cylinder}


def generate_scene(config: SceneConfig, seed: int) -> Scene:
    """Deterministic scene for a given (config, seed) pair."""
    if not (is_integer(seed) and seed >= 0):
        raise ConfigurationError(f"scene seed = {seed!r}: must be a non-negative integer")
    most = sum(getattr(config, f"{fam}_count")[1] for fam in FAMILIES) * config.points_per_object[1]
    if most > MAX_POINTS:
        raise CapacityError(f"config can produce up to {most} points, over the budget of {MAX_POINTS}")

    rng = np.random.default_rng([config.seed, seed])
    counts = [rng.integers(lo, hi + 1)
              for lo, hi in (getattr(config, f"{fam}_count") for fam in FAMILIES)]

    chunks, labels = [], []
    for fam, count in zip(FAMILIES, counts):
        pool = [c for c, entry in enumerate(CLASS_CATALOG) if entry[1] == fam]
        for _ in range(count):
            cls = int(rng.choice(pool))
            n = int(rng.integers(config.points_per_object[0], config.points_per_object[1] + 1))
            pts = _SAMPLERS[fam](rng, CLASS_CATALOG[cls][2], n)
            chunks.append(pts + rng.normal(0.0, NOISE_SIGMA, size=pts.shape))
            labels.append(np.full(n, cls, dtype=np.int64))

    points = np.concatenate(chunks, axis=0)
    labels = np.concatenate(labels)
    texture = labels.copy()  # canonical texture id equals class id

    # Confusion pass: in a shuffled order, each class after the first may
    # adopt the (already settled) texture of an earlier class.
    present = sorted(set(int(c) for c in labels))
    order = [present[i] for i in rng.permutation(len(present))]
    tex_of = {c: c for c in present}
    for i, cls in enumerate(order[1:], start=1):
        if rng.random() < config.texture_confusion:
            donor = order[int(rng.integers(0, i))]
            tex_of[cls] = tex_of[donor]
    for cls in present:
        if tex_of[cls] != cls:
            texture[labels == cls] = tex_of[cls]

    return Scene(points=points, texture=texture, labels=labels, class_set=present, seed=seed)


def build_pool(config: SceneConfig, n_scenes: int) -> list:
    """n_scenes scenes generated from consecutive seeds."""
    return [generate_scene(config, i) for i in range(n_scenes)]


# ---------------------------------------------------------------------------
# episode sampling
# ---------------------------------------------------------------------------


def sample_episode(pool: Sequence[Scene], n_way: int, k_shot: int, seed: int,
                   base_classes: Optional[Sequence[int]] = None,
                   candidate_classes: Optional[Sequence[int]] = None) -> Episode:
    """Draw one episode: novel classes, disjoint support scenes, one query.

    Classes with fewer than k_shot + 1 containing scenes are ineligible.
    candidate_classes restricts the novel-class draw (e.g. to a fold).
    """
    for name, value, lo in (("n_way", n_way, 1), ("k_shot", k_shot, 1), ("seed", seed, 0)):
        if not (is_integer(value) and value >= lo):
            raise SamplingError(f"{name} = {value!r}: must be an integer of at least {lo}")
    rng = np.random.default_rng(seed)
    all_classes = sorted({c for s in pool for c in s.class_set})
    if candidate_classes is not None:
        all_classes = [c for c in all_classes if c in set(candidate_classes)]
    by_class = {c: [i for i, s in enumerate(pool) if s.contains(c)] for c in all_classes}
    eligible = [c for c in all_classes if len(by_class[c]) >= k_shot + 1]
    if len(eligible) < n_way:
        short = {c: len(by_class[c]) for c in all_classes if c not in eligible}
        raise SamplingError(
            f"need {n_way} classes with >= {k_shot + 1} scenes, have {len(eligible)}; "
            f"lacking shots: {short}"
        )

    ways = [int(c) for c in rng.choice(eligible, size=n_way, replace=False)]
    query_candidates = [i for i in range(len(pool)) if all(pool[i].contains(c) for c in ways)]
    if not query_candidates:
        raise SamplingError(f"no scene contains all of classes {ways} to serve as query")
    query_idx = int(rng.choice(query_candidates))

    used = {query_idx}
    support = []
    for way, cls in enumerate(ways):
        cand = [i for i in by_class[cls] if i not in used]
        if len(cand) < k_shot:
            raise SamplingError(f"class {cls} lacks shots: {len(cand)} free scenes, need {k_shot}")
        chosen = [int(i) for i in rng.choice(cand, size=k_shot, replace=False)]
        used.update(chosen)
        support.append([SupportShot(pool[i], pool[i].labels == cls) for i in chosen])

    query = pool[query_idx]
    query_labels = np.zeros(len(query), dtype=np.int64)
    for way, cls in enumerate(ways):
        query_labels[query.labels == cls] = way + 1

    base_labels = None
    if base_classes is not None:
        index = {c: i for i, c in enumerate(base_classes)}
        base_labels = np.array([index.get(int(c), -1) for c in query.labels], dtype=np.int64)

    return Episode(support=support, query=query, query_labels=query_labels,
                   n_way=n_way, k_shot=k_shot, novel_classes=ways,
                   base_class_labels=base_labels)


# ---------------------------------------------------------------------------
# scene file format
# ---------------------------------------------------------------------------

_MAGIC = "DAFS 1"


def write_scene(scene: Scene, path) -> None:
    lines = [_MAGIC, f"{len(scene)} {len(scene.class_set)}"]
    for (x, y, z), t, l in zip(scene.points, scene.texture, scene.labels):
        lines.append(f"{x:.17g} {y:.17g} {z:.17g} {int(t)} {int(l)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_scene(path) -> Scene:
    with open(path, encoding="utf-8") as fh:
        raw = fh.read().split("\n")
    while raw and raw[-1] == "":
        raw.pop()
    if not raw or raw[0] != _MAGIC:
        raise SceneParseError(1, f"expected header {_MAGIC!r}")
    if len(raw) < 2:
        raise SceneParseError(2, "missing point/class count line")
    fields = raw[1].split()
    if len(fields) != 2:
        raise SceneParseError(2, f"expected '<point_count> <class_count>', got {raw[1]!r}")
    try:
        n_points, n_classes = int(fields[0]), int(fields[1])
    except ValueError:
        raise SceneParseError(2, f"counts must be integers, got {raw[1]!r}") from None
    for what, count in (("point", n_points), ("class", n_classes)):
        if count < 0:
            raise SceneParseError(2, f"{what} count {count} is negative")

    rows = raw[2:]
    if len(rows) < n_points:
        raise SceneParseError(2 + len(rows), f"expected {n_points} point rows, found {len(rows)}")
    if len(rows) > n_points:
        raise SceneParseError(3 + n_points, "unexpected trailing content")

    points = np.empty((n_points, 3))
    texture = np.empty(n_points, dtype=np.int64)
    labels = np.empty(n_points, dtype=np.int64)
    for i, row in enumerate(rows):
        parts = row.split()
        if len(parts) != 5:
            raise SceneParseError(3 + i, f"expected 5 fields, got {len(parts)}")
        try:
            points[i] = [float(parts[0]), float(parts[1]), float(parts[2])]
            texture[i] = int(parts[3])
            labels[i] = int(parts[4])
        except ValueError:
            raise SceneParseError(3 + i, f"malformed row {row!r}") from None
        if not np.all(np.isfinite(points[i])):
            raise SceneParseError(3 + i, f"non-finite coordinate in row {row!r}")
        for what, value in (("texture", texture[i]), ("label", labels[i])):
            if not 0 <= value < N_CLASSES:
                raise SceneParseError(3 + i, f"{what} id {value} outside [0, {N_CLASSES})")

    class_set = sorted(set(int(c) for c in labels))
    if len(class_set) != n_classes:
        raise SceneParseError(2, f"class count {n_classes} does not match {len(class_set)} distinct labels")
    return Scene(points=points, texture=texture, labels=labels, class_set=class_set, seed=0)
