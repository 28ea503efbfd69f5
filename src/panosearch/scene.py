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
from functools import cached_property

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
    """Immutable world snapshot; an object's id is its row, which `among` indexes.

    `labels` is read-only and shared: every live world with the same width,
    height and region rectangles, and every motion snapshot of it, holds
    the one grid object.
    """

    width: int
    height: int
    labels: np.ndarray                     # (H, W) int8 region ids (int16 past 127)
    regions: tuple[Region, ...]
    deg_per_px: float
    region_bboxes: tuple[tuple[int, int, int, int], ...]  # (x0, y0, x1, y1) exclusive
    class_names: tuple[str, ...]
    centers: np.ndarray                    # (M, 2) float64 panoramic px
    sizes: np.ndarray                      # (M, 2) float64 (w, h) px
    velocities: np.ndarray                 # (M, 2) float64 px per motion step
    occlusion: np.ndarray                  # (M,) float64
    pano_detectable: np.ndarray            # (M,) bool

    @property
    def objects(self) -> tuple[GtObject, ...]:
        """The objects as GtObjects, built anew on every access."""
        return tuple(map(GtObject, range(len(self.class_names)), self.class_names,
                         *(map(tuple, a.tolist()) for a in
                           (self.centers, self.sizes, self.velocities)),
                         self.occlusion.tolist(), self.pano_detectable.tolist()))

    @cached_property
    def capture_rows(self) -> list[tuple]:
        """(id, c_x, c_y, w, h, occlusion) per object, as Python scalars."""
        return list(zip(range(len(self.class_names)), *self.centers.T.tolist(),
                        *self.sizes.T.tolist(), self.occlusion.tolist()))

    def pano_to_galvo(self, x: float, y: float) -> tuple[float, float]:
        return ((x - self.width / 2.0) * self.deg_per_px,
                (y - self.height / 2.0) * self.deg_per_px)

    def galvo_to_pano(self, theta_h: float, theta_v: float) -> tuple[float, float]:
        return (self.width / 2.0 + theta_h / self.deg_per_px,
                self.height / 2.0 + theta_v / self.deg_per_px)


def object_columns(rows) -> dict:
    """SceneMap's object columns, for replace() or SceneMap(), from rows in
    GtObject's field order (id, class_name, center, size, ...).

    The columns hold no id, since an object's id is its row, so each row's
    id must be its position; ValueError names the first row whose id is not.
    """
    ids, names, centers, sizes, velocities, occlusion, flags = (
        tuple(zip(*rows)) or ((),) * 7)
    for row, object_id in enumerate(ids):
        if object_id != row:
            raise ValueError(f"object row {row} has id {object_id!r}; "
                             "an object's id must be its row")
    return dict(class_names=names,
                centers=np.array(centers, dtype=float).reshape(-1, 2),
                sizes=np.array(sizes, dtype=float).reshape(-1, 2),
                velocities=np.array(velocities, dtype=float).reshape(-1, 2),
                occlusion=np.array(occlusion, dtype=float),
                pano_detectable=np.array(flags, dtype=bool))


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

    rows = []
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
            angle = rng.uniform(0.0, 2.0 * math.pi)
            w, h = group.size
            rows.append((len(rows), group.class_name, (xs[0], ys[0]), (w, h),
                         (group.speed * math.cos(angle),
                          group.speed * math.sin(angle)),
                         group.occlusion,
                         max(w, h) >= config.pano_detect_threshold))

    return SceneMap(width=config.width, height=config.height, labels=labels,
                    regions=tuple(regions), deg_per_px=config.deg_per_px,
                    region_bboxes=tuple(bboxes), **object_columns(rows))


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


def step_motion(scene: SceneMap, dt: float) -> SceneMap:
    """Advance object centers by velocity * dt with border reflection, all
    in one expression; a 1-pixel axis stays at 0, a non-finite position
    becomes NaN.  The label grid and regions are untouched; object count is
    conserved."""
    if dt < 0:
        raise ValueError("dt must be >= 0")
    if dt == 0:
        return scene
    hi = np.array([scene.width - 1.0, scene.height - 1.0])
    with np.errstate(all="ignore"):  # silent, as float overflow and inf % x are
        t = np.remainder(scene.centers + scene.velocities * dt, 2.0 * hi)
        back = ~(t <= hi) & (hi > 0)  # past the far border, or NaN
        centers = np.where(back, hi - (t - hi), np.where(hi > 0, t, 0.0))
    return replace(scene, centers=centers,
                   velocities=np.where(back, -scene.velocities, scene.velocities))
