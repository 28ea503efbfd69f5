"""Synthetic panoramic world: labeled region grid, ground-truth objects, motion.

The world is a width x height pixel grid where every pixel belongs to exactly
one labeled region (regions partition the panorama).  Ground-truth objects
live in panoramic pixel coordinates and move with constant velocity, bouncing
off the borders.  A single linear scale maps panoramic pixels onto mirror
angles: the full panorama width spans the configured angular range and the
vertical axis uses the same degrees-per-pixel factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .config import ConfigError, SceneConfig


@dataclass(frozen=True)
class Region:
    id: int
    label: str
    area_px: float
    class_prior: dict[str, float]

    def prior(self, target: str) -> float:
        return float(self.class_prior.get(target, 0.0))


@dataclass(frozen=True)
class GtObject:
    id: int
    class_name: str
    center: tuple[float, float]   # panoramic px
    size: tuple[float, float]     # (w, h) px
    velocity: tuple[float, float] # px per motion step
    occlusion: float
    pano_detectable: bool


@dataclass(frozen=True)
class SceneMap:
    """Immutable world snapshot.  `labels` is shared and must not be mutated."""

    width: int
    height: int
    labels: np.ndarray                     # (H, W) int16 region ids
    regions: tuple[Region, ...]
    objects: tuple[GtObject, ...]
    deg_per_px: float
    region_bboxes: tuple[tuple[int, int, int, int], ...]  # (x0, y0, x1, y1) exclusive
    # derived horizontal index for capture_view, rebuilt with every snapshot:
    # object indices ordered by center x, those centers, the widest half-width
    band_order: list[int] = field(init=False, compare=False, repr=False)
    band_x: list[float] = field(init=False, compare=False, repr=False)
    max_half_w: float = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        order = sorted(range(len(self.objects)),
                       key=lambda i: self.objects[i].center[0])
        object.__setattr__(self, "band_order", order)
        object.__setattr__(self, "band_x",
                           [self.objects[i].center[0] for i in order])
        object.__setattr__(self, "max_half_w",
                           max((obj.size[0] / 2.0 for obj in self.objects),
                               default=0.0))

    def pano_to_galvo(self, x: float, y: float) -> tuple[float, float]:
        return ((x - self.width / 2.0) * self.deg_per_px,
                (y - self.height / 2.0) * self.deg_per_px)

    def galvo_to_pano(self, theta_h: float, theta_v: float) -> tuple[float, float]:
        return (self.width / 2.0 + theta_h / self.deg_per_px,
                self.height / 2.0 + theta_v / self.deg_per_px)


def build_scene(config: SceneConfig, seed) -> SceneMap:
    """Construct a world from a scene config, deterministically for (config, seed).

    Region rectangles are stamped in declaration order and must not overlap;
    pixels claimed by no rectangle form the background region (dropped when
    empty).  Objects are placed in regions drawn proportionally to
    area x class prior, or uniformly inside a pinned region.
    """
    rng = np.random.default_rng(seed)
    width, height = config.width, config.height
    if width <= 0 or height <= 0:
        raise ConfigError("panorama dimensions must be positive")

    labels = np.full((height, width), -1, dtype=np.int16)
    regions: list[Region] = []
    for idx, spec in enumerate(config.regions):
        x, y, w, h = spec.rect
        if w <= 0 or h <= 0:
            raise ConfigError(f"region {spec.label!r}: zero-area rectangle")
        if x < 0 or y < 0 or x + w > width or y + h > height:
            raise ConfigError(f"region {spec.label!r}: rectangle outside the panorama")
        window = labels[y:y + h, x:x + w]
        if (window != -1).any():
            raise ConfigError(f"region {spec.label!r}: overlaps an earlier region")
        window[:] = idx
        regions.append(Region(
            id=idx, label=spec.label, area_px=float(w * h),
            class_prior={cls: config.prior(cls, spec.label)
                         for cls in config.class_priors},
        ))

    uncovered = int((labels == -1).sum())
    if uncovered > 0:
        bg_id = len(regions)
        labels[labels == -1] = bg_id
        regions.append(Region(
            id=bg_id, label=config.background_label, area_px=float(uncovered),
            class_prior={cls: config.prior(cls, config.background_label)
                         for cls in config.class_priors},
        ))
    labels.setflags(write=False)

    bboxes = []
    for region in regions:
        if region.id < len(config.regions):
            x, y, w, h = config.regions[region.id].rect
            bboxes.append((x, y, x + w, y + h))
        else:
            bboxes.append((0, 0, width, height))

    label_to_region = {}
    for region in regions:
        label_to_region.setdefault(region.label, region)

    objects: list[GtObject] = []
    obj_id = 0
    for group in config.groups:
        for _ in range(group.count):
            if group.region_label is not None:
                region = label_to_region.get(group.region_label)
                if region is None:
                    raise ConfigError(f"object group pinned to unknown region "
                                      f"{group.region_label!r}")
            else:
                weights = np.array([r.area_px * r.prior(group.class_name)
                                    for r in regions])
                total = weights.sum()
                if total <= 0:
                    # no informative prior for this class: fall back to area
                    weights = np.array([r.area_px for r in regions])
                    total = weights.sum()
                region = regions[int(rng.choice(len(regions), p=weights / total))]
            center = _sample_in_region(rng, labels, bboxes[region.id], region.id)
            angle = rng.uniform(0.0, 2.0 * math.pi)
            velocity = (group.speed * math.cos(angle), group.speed * math.sin(angle))
            w, h = group.size
            objects.append(GtObject(
                id=obj_id, class_name=group.class_name, center=center,
                size=(float(w), float(h)), velocity=velocity,
                occlusion=float(group.occlusion),
                pano_detectable=max(w, h) >= config.pano_detect_threshold,
            ))
            obj_id += 1

    return SceneMap(width=width, height=height, labels=labels,
                    regions=tuple(regions), objects=tuple(objects),
                    deg_per_px=config.deg_per_px,
                    region_bboxes=tuple(bboxes))


def _sample_in_region(rng: np.random.Generator, labels: np.ndarray,
                      bbox: tuple[int, int, int, int], region_id: int,
                      max_rounds: int = 64) -> tuple[float, float]:
    """Uniform point inside a region via bbox rejection sampling."""
    x0, y0, x1, y1 = bbox
    for _ in range(max_rounds):
        xs = rng.uniform(x0, x1, size=16)
        ys = rng.uniform(y0, y1, size=16)
        hit = labels[ys.astype(np.intp), xs.astype(np.intp)] == region_id
        idx = np.flatnonzero(hit)
        if idx.size:
            i = int(idx[0])
            return (float(xs[i]), float(ys[i]))
    raise ConfigError(f"could not place a point in region {region_id} "
                      f"(is its area vanishing?)")


def _reflect(pos: float, lo: float, hi: float) -> tuple[float, float]:
    """Fold pos into [lo, hi] by mirror reflection; returns (pos, direction)."""
    span = hi - lo
    if span <= 0:
        return lo, 1.0
    t = (pos - lo) % (2.0 * span)
    if t <= span:
        return lo + t, 1.0
    return hi - (t - span), -1.0


def step_motion(scene: SceneMap, dt: float) -> SceneMap:
    """Advance object centers by velocity * dt with border reflection.

    The label grid and regions are untouched; object count is conserved.
    """
    if dt < 0:
        raise ValueError("dt must be >= 0")
    if dt == 0:
        return scene
    hi_x, hi_y = scene.width - 1.0, scene.height - 1.0
    moved = []
    for obj in scene.objects:
        x, dir_x = _reflect(obj.center[0] + obj.velocity[0] * dt, 0.0, hi_x)
        y, dir_y = _reflect(obj.center[1] + obj.velocity[1] * dt, 0.0, hi_y)
        moved.append(GtObject(
            id=obj.id, class_name=obj.class_name, center=(x, y),
            size=obj.size,
            velocity=(obj.velocity[0] * dir_x, obj.velocity[1] * dir_y),
            occlusion=obj.occlusion, pano_detectable=obj.pano_detectable))
    return replace(scene, objects=tuple(moved))


def region_at(scene: SceneMap, x: float, y: float) -> int:
    """Region id at a panoramic pixel; raises ValueError outside the panorama."""
    if not (0 <= x < scene.width and 0 <= y < scene.height):
        raise ValueError(f"pixel ({x}, {y}) outside the {scene.width}x{scene.height} panorama")
    return int(scene.labels[int(y), int(x)])


def write_label_grid(scene: SceneMap, path: str) -> None:
    """Dump the region-id grid: header 'W H', then one space-separated row per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{scene.width} {scene.height}\n")
        for row in scene.labels:
            fh.write(" ".join(str(int(v)) for v in row))
            fh.write("\n")
