"""Panoramic probability map: simulated wide-camera perception and allocation.

The wide camera yields a (possibly noisy) region segmentation plus coarse
detections of panorama-scale objects.  Regions are sampled by area x class
prior, the rule that also places the objects; coarse detections then carve
high-confidence sub-region discs inside their regions and pull a share of
the region's particle allocation into them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import EngineConfig, SegNoiseConfig
from .scene import Region, SceneMap, left_sum, region_sampling_prob


@dataclass(frozen=True)
class PanoDetection:
    """Coarse panorama-scale detection of one large object."""

    object_id: int
    center: tuple[float, float]  # panoramic px
    confidence: float
    sigma_o: float               # dimensionless uncertainty scalar, > 0


@dataclass(frozen=True)
class SubRegion:
    region_id: int
    center: tuple[float, float]
    radius_px: float
    count: int


@dataclass(frozen=True)
class Ppm:
    region_probs: dict[int, float]
    sub_regions: tuple[SubRegion, ...]
    remainder_counts: dict[int, int]
    total_particles: int
    label_grid: np.ndarray       # segmentation actually used (noisy when configured)
    regions: tuple[Region, ...]  # areas re-measured on label_grid
    region_bboxes: tuple[tuple[int, int, int, int], ...]


def segment_panorama(scene: SceneMap, noise: SegNoiseConfig, seed):
    """Simulated panoramic segmentation and coarse object detection.

    Returns (label_grid, detections).  With all-zero noise the grid is the
    ground-truth partition and detections sit exactly on object centers.
    Label noise draws flip gaps (_flip_positions; none at label_flip >= 1,
    where every pixel flips), id offsets, then normals.
    Confidence falls with occlusion and rises with object size; the
    uncertainty scalar is clamp(1 - confidence, sigma_min, sigma_max).
    """
    rng = np.random.default_rng(seed)
    n_regions = len(scene.regions)
    if noise.label_flip > 0.0 and n_regions > 1:
        grid = scene.labels.copy()
        flat = grid.reshape(-1)
        # at p >= 1 every pixel flips, so the chunks are plain slices
        at = (None if noise.label_flip >= 1.0
              else _flip_positions(flat.size, noise.label_flip, rng))
        count = flat.size if at is None else at.size
        # int16 offsets (an int8 draw is another stream); sums at twice the
        # grid's item size cannot wrap, and as both terms are under n_regions
        # one subtract reduces them; 16 Ki flips a chunk bound the temporaries
        offsets = rng.integers(1, n_regions, size=count, dtype=np.int16)
        wide = np.int16 if flat.dtype == np.int8 else np.int32
        for lo in range(0, count, 1 << 14):
            hi = lo + (1 << 14)
            hit = slice(lo, hi) if at is None else at[lo:hi]
            total = np.add(flat[hit], offsets[lo:hi], dtype=wide)
            np.subtract(total, n_regions, out=total, where=total >= n_regions)
            flat[hit] = total.astype(flat.dtype)
        grid.setflags(write=False)
    else:
        grid = scene.labels

    detections = []
    for oid, (occlusion, size, (cx, cy), detectable) in enumerate(zip(
            scene.occlusion.tolist(), scene.sizes.tolist(),
            scene.centers.tolist(), scene.pano_detectable.tolist())):
        if not detectable:
            continue
        raw = (1.0 - occlusion) * min(1.0, max(size) / noise.size_ref_px)
        if noise.conf_std > 0.0:
            raw += rng.normal(0.0, noise.conf_std)
        confidence = min(max(raw, noise.conf_floor), 1.0)
        if noise.center_std_px > 0.0:
            cx += rng.normal(0.0, noise.center_std_px)
            cy += rng.normal(0.0, noise.center_std_px)
        cx = min(max(cx, 0.0), scene.width - 1.0)
        cy = min(max(cy, 0.0), scene.height - 1.0)
        sigma_o = min(max(1.0 - confidence, noise.sigma_min), noise.sigma_max)
        detections.append(PanoDetection(object_id=oid, center=(cx, cy),
                                        confidence=confidence, sigma_o=sigma_o))
    return grid, detections


def _flip_positions(n: int, p: float, rng, batch: int = 0) -> np.ndarray:
    """Ascending positions of the successes among n Bernoulli(p) trials, 0 < p < 1.

    Draws the gaps, geometric(p), by inverting exponentials: ceil(E / s) with
    s = -log1p(-p), in batches of int(n p + 6 sqrt(n p)) + 16 (six SE past
    the mean count) while the last position is short of n - 1; the batch
    size is part of the stream.  Below p = 1/3 each gap equals numpy's
    geometric(p), which inverts the same way; from 1/3 numpy searches
    sequentially, so the gaps there follow the same law on another stream.
    """
    s = -math.log1p(-p)
    batch = batch or int(n * p + 6.0 * math.sqrt(n * p)) + 16
    parts, last = [], -1.0
    while last < n - 1:
        pos = rng.standard_exponential(batch)
        # clamping E keeps E / s finite down to p = 5e-324; a gap of n + 1 or
        # n + 2 (its most) puts every later position at n or past it alike, and
        # with E < 45 it is at most 45 / p + 1: a batch sums under 2^40 < 2^53
        np.minimum(pos, (n + 1) * s, out=pos)
        pos /= s
        np.ceil(pos, out=pos)
        pos[0] += last
        kept = pos[:np.searchsorted(np.cumsum(pos, out=pos), n)]
        last = float(pos[-1])
        # whole floats under n, cast to int64 in place: no second copy
        parts.append(kept.view(np.int64))
        parts[-1][...] = kept
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def subregion_share(s_ro: float, s_rm: float, f_region: float) -> float:
    """Fraction of a region's particles pulled into one sub-region disc.

    Both operands weight probability by absolute area; the sub-region
    probability is certainty.
    """
    denom = s_ro + f_region * s_rm
    if denom <= 0.0:
        return 0.0
    return s_ro / denom


def apportion(total: int, weights) -> list[int]:
    """Largest-remainder apportionment of `total` items proportional to weights.

    Sums exactly to `total`; ties go to the lower index.  All-zero weights
    degrade to an even split.
    """
    weights = [max(float(w), 0.0) for w in weights]
    if total <= 0 or not weights:
        return [0] * len(weights)
    z = left_sum(weights)
    if z <= 0.0:
        weights = [1.0] * len(weights)
        z = float(len(weights))
    shares = [w / z * total for w in weights]
    counts = [int(math.floor(s)) for s in shares]
    short = total - sum(counts)
    order = sorted(range(len(shares)),
                   key=lambda i: (-(shares[i] - counts[i]), i))
    for i in order[:short]:
        counts[i] += 1
    return counts


def refine_allocation(region: Region, x_r: int, dets, f_region: float,
                      r_scale: float = EngineConfig.subregion_scale
                      ) -> tuple[list[int], int]:
    """Split a region's x_r particles between detection discs and the remainder.

    Each detection o claims a disc of area pi * (r_scale * sigma_o)^2 and
    receives round(share * x_r) particles where the share trades the disc
    area (at certainty) against the rest of the region at the region's own
    probability.  The remainder keeps x_rm = x_r - sum(x_ro), never negative.
    When the discs nominally exceed the region area the remainder collapses
    to zero and all x_r particles split across discs proportionally to area
    (degenerate geometry).
    """
    if x_r < 0:
        raise ValueError("x_r must be >= 0")
    if not dets:
        return [], x_r
    areas = [math.pi * (r_scale * d.sigma_o) ** 2 for d in dets]
    total_disc = left_sum(areas)
    if total_disc >= region.area_px:
        counts = apportion(x_r, areas)
        return counts, 0
    s_rm = region.area_px - total_disc
    shares = [subregion_share(a, s_rm, f_region) * x_r for a in areas]
    counts = [int(round(s)) for s in shares]
    overshoot = sum(counts) - x_r
    if overshoot > 0:
        counts = apportion(x_r, shares)
    return counts, x_r - sum(counts)


def build_ppm(scene: SceneMap, noise: SegNoiseConfig, target: str, n: int,
              seed, r_scale: float = EngineConfig.subregion_scale) -> Ppm:
    """Compose segmentation, region probabilities, and per-region refinement.

    Allocates exactly n particles: largest-remainder split across regions by
    sampling probability, then detection discs inside each region.
    """
    grid, dets = segment_panorama(scene, noise, seed)
    return allocate_ppm(scene, grid, dets, target, n, r_scale=r_scale)


def allocate_ppm(scene: SceneMap, grid: np.ndarray, dets, target: str, n: int,
                 r_scale: float = EngineConfig.subregion_scale) -> Ppm:
    """Allocation half of build_ppm, reusable with a fixed segmentation."""
    if n <= 0:
        raise ValueError("particle count must be > 0")
    if grid is scene.labels:
        regions = scene.regions
        bboxes = scene.region_bboxes
    else:
        areas, bboxes = _measure_regions(grid, len(scene.regions))
        regions = tuple(replace(r, area_px=float(areas[r.id])) for r in scene.regions)

    probs = region_sampling_prob(regions, target)

    by_region: dict[int, list[PanoDetection]] = {}
    for det in dets:
        rid = int(grid[int(det.center[1]), int(det.center[0])])
        by_region.setdefault(rid, []).append(det)

    sub_regions: list[SubRegion] = []
    remainder: dict[int, int] = {}
    for region, x_r in zip(regions, apportion(n, probs.values())):
        region_dets = by_region.get(region.id, [])
        counts, x_rm = refine_allocation(region, x_r, region_dets,
                                         probs[region.id], r_scale=r_scale)
        remainder[region.id] = x_rm
        for det, count in zip(region_dets, counts):
            sub_regions.append(SubRegion(region_id=region.id, center=det.center,
                                         radius_px=r_scale * det.sigma_o, count=count))

    return Ppm(region_probs=probs, sub_regions=tuple(sub_regions),
               remainder_counts=remainder, total_particles=n,
               label_grid=grid, regions=regions, region_bboxes=bboxes)


def _measure_regions(grid: np.ndarray, n_regions: int):
    """Pixel count and (x0, y0, x1, y1) exclusive bbox of each region id.

    Each region's box shrinks from the panorama edges while its edge rows or
    columns hold none of its pixels, which are then counted in the box; the
    largest box's region gets what the others leave.  An absent region has
    area 0 and bbox (0, 0, 0, 0).
    """
    height, width = grid.shape
    bboxes = []
    for rid in range(n_regions):
        y0 = _first_line(grid, rid)
        if y0 == height:
            bboxes.append((0, 0, 0, 0))
            continue
        y1 = height - _first_line(grid[::-1], rid)
        cols = grid[y0:y1].T
        x0 = _first_line(cols, rid)
        x1 = width - _first_line(cols[::-1], rid)
        bboxes.append((x0, y0, x1, y1))
    big = int(np.argmax([(x1 - x0) * (y1 - y0) for x0, y0, x1, y1 in bboxes]))
    band = max(1, 2**16 // width)  # 64 KiB masks: full-box ones page-fault anew per trial
    areas = [0 if rid == big else sum(
        np.count_nonzero(grid[y:y + band, x0:x1] == rid) for y in range(y0, y1, band))
        for rid, (x0, y0, x1, y1) in enumerate(bboxes)]
    areas[big] = height * width - sum(areas)
    return areas, tuple(bboxes)


def _first_line(lines: np.ndarray, rid: int) -> int:
    """Index of the first row of `lines` holding `rid`, or len(lines).

    Scans bands of 1, 2, 4, ... rows, so a hit in row d costs O(log d) numpy
    calls over at most 2d + 1 rows; a noisy grid usually hits in row 0.
    """
    start, size = 0, 1
    while start < len(lines):
        hit = np.flatnonzero((lines[start:start + size] == rid).any(axis=1))
        if hit.size:
            return start + int(hit[0])
        start, size = start + size, 2 * size
    return len(lines)
