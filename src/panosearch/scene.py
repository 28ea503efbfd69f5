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
import weakref
from dataclasses import dataclass, replace

import numpy as np

from .config import (ConfigError, SceneConfig, pin_errors, region_parts,
                     stamp_regions)


def left_sum(values, groups=None, count: int = 1):
    """0.0 + v0 + v1 + ... in index order, a float; with `groups`, an array
    of `count` such sums, value i going to sum groups[i].  (From Python 3.12
    the builtin sum() compensates, and numpy's reductions add pairwise.)"""
    values = np.asarray(values, dtype=float)
    total = np.zeros(count)
    np.add.at(total, np.zeros(values.size, dtype=int) if groups is None
              else groups, values)
    return total[0].item() if groups is None else total


@dataclass(frozen=True)
class Region:
    id: int
    label: str
    area_px: float
    class_prior: dict[str, float]

    def prior(self, target: str) -> float:
        return float(self.class_prior.get(target, 0.0))


def region_sampling_prob(regions, target: str) -> dict[int, float]:
    """Sampling probability per region id: area x class prior, or area alone
    when every product is zero, over its sum.  Object placement and the
    probability map share this rule; raises ValueError only when no region
    holds any area."""
    weights = [r.area_px * r.prior(target) for r in regions]
    if not any(weights):  # no region can hold the target: fall back to area
        weights = [r.area_px for r in regions]
    z = left_sum(weights)
    if z <= 0.0:
        raise ValueError("no region holds any area")
    return {r.id: w / z for r, w in zip(regions, weights)}


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
    """Immutable world snapshot; capture_view's `among` indexes `objects`.

    `labels` is read-only and shared: every live world with the same width,
    height and region rectangles, and every motion snapshot of it, holds
    the one grid object.
    """

    width: int
    height: int
    labels: np.ndarray                     # (H, W) int8 region ids (int16 past 127)
    regions: tuple[Region, ...]
    objects: tuple[GtObject, ...]
    deg_per_px: float
    region_bboxes: tuple[tuple[int, int, int, int], ...]  # (x0, y0, x1, y1) exclusive

    def pano_to_galvo(self, x: float, y: float) -> tuple[float, float]:
        return ((x - self.width / 2.0) * self.deg_per_px,
                (y - self.height / 2.0) * self.deg_per_px)

    def galvo_to_pano(self, theta_h: float, theta_v: float) -> tuple[float, float]:
        return (self.width / 2.0 + theta_h / self.deg_per_px,
                self.height / 2.0 + theta_v / self.deg_per_px)


def build_scene(config: SceneConfig, seed) -> SceneMap:
    """Construct a world from a scene config, deterministically for (config, seed).

    Regions are those of region_parts: the rectangles, which must not
    overlap, then the background when they leave pixels.  Objects are placed
    in regions drawn by region_sampling_prob, or uniformly inside a pinned
    region.  A bad layout or pin raises ConfigError with the lines that
    check_scenario reports for it.
    """
    rng = np.random.default_rng(seed)
    labels = _label_grid(config)
    parts = region_parts(config)
    regions = [Region(id=idx, label=label, area_px=float(area),
                      class_prior={cls: config.prior(cls, label)
                                   for cls in config.class_priors})
               for idx, (label, area, _) in enumerate(parts)]
    bboxes = [box for _, _, box in parts]
    label_to_region = {r.label: r for r in reversed(regions)}  # first wins
    errors = pin_errors(config, label_to_region)
    if errors:
        raise ConfigError("\n".join(errors))

    objects: list[GtObject] = []
    obj_id = 0
    for group in config.groups:
        if group.region_label is not None:
            region = label_to_region.get(group.region_label)
        else:
            weights = list(region_sampling_prob(regions, group.class_name).values())
        for _ in range(group.count):
            if group.region_label is None:
                region = regions[int(rng.choice(len(regions), p=weights))]
            xs, ys = sample_region(rng, labels, region.id, bboxes[region.id], 1,
                                   max_rounds=64)
            center = (float(xs[0]), float(ys[0]))
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

    return SceneMap(width=config.width, height=config.height, labels=labels,
                    regions=tuple(regions), objects=tuple(objects),
                    deg_per_px=config.deg_per_px,
                    region_bboxes=tuple(bboxes))


# one read-only grid per layout, alive while some world holds it
_GRIDS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _label_grid(config: SceneConfig) -> np.ndarray:
    """The read-only region-id grid of config's layout, stamped once by
    stamp_regions and shared; raises ConfigError with its layout errors."""
    key = (config.width, config.height, tuple(tuple(r.rect) for r in config.regions))
    labels = _GRIDS.get(key)
    if labels is None:
        labels, errors = stamp_regions(config)
        if errors:
            raise ConfigError("\n".join(errors))
        labels.setflags(write=False)
        _GRIDS[key] = labels
    return labels


def bbox_draw(bbox: tuple[int, int, int, int]):
    """A `draw` for rejection_sample: points uniform in an (x0, y0, x1, y1) box."""
    x0, y0, x1, y1 = bbox
    return lambda rng, n: (rng.uniform(x0, x1, size=n), rng.uniform(y0, y1, size=n))


def rejection_sample(rng: np.random.Generator, labels: np.ndarray,
                     region_id: int, draw, count: int,
                     max_rounds: int) -> tuple[np.ndarray, np.ndarray]:
    """Up to `count` points from draw(rng, n) -> (xs, ys) inside a region,
    as (xs, ys) arrays in draw order.

    Each round draws max(2 * still needed, 16) candidates and keeps the
    first hits; after max_rounds rounds the caller handles any shortfall.
    """
    xs, ys = np.empty(0), np.empty(0)
    for _ in range(max_rounds):
        need = count - len(xs)
        if need <= 0:
            break
        cand_x, cand_y = draw(rng, max(2 * need, 16))
        hit = np.flatnonzero(labels[cand_y.astype(np.intp),
                                    cand_x.astype(np.intp)] == region_id)[:need]
        xs = np.concatenate((xs, cand_x[hit]))
        ys = np.concatenate((ys, cand_y[hit]))
    return xs, ys


def sample_region(rng: np.random.Generator, labels: np.ndarray, region_id: int,
                  bbox: tuple[int, int, int, int], count: int,
                  max_rounds: int) -> tuple[np.ndarray, np.ndarray]:
    """`count` points uniform over the region's pixels in an (x0, y0, x1, y1)
    box that holds some of them, as (xs, ys) arrays.

    Rejection rounds in the box come first, so no draw changes when they
    suffice; uniform picks among the region's pixels in the box, each at a
    uniform offset inside its pixel, fill any shortfall.
    """
    xs, ys = rejection_sample(rng, labels, region_id, bbox_draw(bbox), count,
                              max_rounds)
    short = count - len(xs)
    if short > 0:
        x0, y0, x1, y1 = bbox
        py, px = np.nonzero(labels[y0:y1, x0:x1] == region_id)
        pick = rng.integers(len(px), size=short)
        xs = np.concatenate((xs, x0 + px[pick] + rng.random(short)))
        ys = np.concatenate((ys, y0 + py[pick] + rng.random(short)))
    return xs, ys


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
