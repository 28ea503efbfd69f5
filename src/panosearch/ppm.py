"""Panoramic probability map: simulated wide-camera perception and allocation.

The wide camera yields a (possibly noisy) region segmentation plus coarse
detections of panorama-scale objects.  Region sampling probabilities combine
relative region area with a per-class prior table; coarse detections then
carve high-confidence sub-region discs inside their regions and pull a share
of the region's particle allocation into them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import SegNoiseConfig
from .scene import Region, SceneMap


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
    area_px: float
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
    detections: tuple[PanoDetection, ...]


def segment_panorama(scene: SceneMap, noise: SegNoiseConfig, seed):
    """Simulated panoramic segmentation and coarse object detection.

    Returns (label_grid, detections).  With all-zero noise the grid is the
    ground-truth partition and detections sit exactly on object centers.
    Confidence falls with occlusion and rises with object size; the
    uncertainty scalar is clamp(1 - confidence, sigma_min, sigma_max).
    """
    rng = np.random.default_rng(seed)
    n_regions = len(scene.regions)
    if noise.label_flip > 0.0 and n_regions > 1:
        grid = scene.labels.copy()
        flip = rng.random(grid.shape) < noise.label_flip
        offsets = rng.integers(1, n_regions, size=int(flip.sum()), dtype=np.int16)
        grid[flip] = (grid[flip] + offsets) % n_regions
        grid.setflags(write=False)
    else:
        grid = scene.labels

    detections = []
    for obj in scene.objects:
        if not obj.pano_detectable:
            continue
        raw = (1.0 - obj.occlusion) * min(1.0, max(obj.size) / noise.size_ref_px)
        if noise.conf_std > 0.0:
            raw += rng.normal(0.0, noise.conf_std)
        confidence = min(max(raw, noise.conf_floor), 1.0)
        cx, cy = obj.center
        if noise.center_std_px > 0.0:
            cx += rng.normal(0.0, noise.center_std_px)
            cy += rng.normal(0.0, noise.center_std_px)
        cx = min(max(cx, 0.0), scene.width - 1.0)
        cy = min(max(cy, 0.0), scene.height - 1.0)
        sigma_o = min(max(1.0 - confidence, noise.sigma_min), noise.sigma_max)
        detections.append(PanoDetection(object_id=obj.id, center=(cx, cy),
                                        confidence=confidence, sigma_o=sigma_o))
    return grid, detections


def region_sampling_prob(regions, target: str) -> dict[int, float]:
    """Normalized sampling probability per region: area share times class prior."""
    total_area = sum(r.area_px for r in regions)
    numerators = {r.id: (r.area_px / total_area) * r.prior(target) for r in regions}
    z = sum(numerators.values())
    if z <= 0.0:
        # an area share times a subnormal prior can underflow to zero
        numerators = {r.id: r.area_px * r.prior(target) for r in regions}
        z = sum(numerators.values())
    if z <= 0.0:
        raise ValueError(f"no admissible region for target {target!r}: "
                         "every area x prior product is zero")
    return {rid: v / z for rid, v in numerators.items()}


def subregion_share(s_ro: float, s_rm: float, f_region: float,
                    f_sub: float = 1.0) -> float:
    """Fraction of a region's particles pulled into one sub-region disc.

    Both operands weight probability by absolute area; the sub-region
    probability defaults to certainty.
    """
    denom = f_sub * s_ro + f_region * s_rm
    if denom <= 0.0:
        return 0.0
    return f_sub * s_ro / denom


def apportion(total: int, weights) -> list[int]:
    """Largest-remainder apportionment of `total` items proportional to weights.

    Sums exactly to `total`; ties go to the lower index.  All-zero weights
    degrade to an even split.
    """
    weights = [max(float(w), 0.0) for w in weights]
    if total <= 0 or not weights:
        return [0] * len(weights)
    z = sum(weights)
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
                      r_scale: float = 50.0) -> tuple[list[int], int]:
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
    total_disc = sum(areas)
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
              seed, r_scale: float = 50.0) -> Ppm:
    """Compose segmentation, region probabilities, and per-region refinement.

    Allocates exactly n particles: largest-remainder split across regions by
    sampling probability, then detection discs inside each region.
    """
    if n <= 0:
        raise ValueError("particle count must be > 0")
    grid, dets = segment_panorama(scene, noise, seed)
    return allocate_ppm(scene, grid, dets, target, n, r_scale=r_scale)


def allocate_ppm(scene: SceneMap, grid: np.ndarray, dets, target: str, n: int,
                 r_scale: float = 50.0) -> Ppm:
    """Allocation half of build_ppm, reusable with a fixed segmentation."""
    if n <= 0:
        raise ValueError("particle count must be > 0")
    if grid is scene.labels:
        regions = scene.regions
        bboxes = scene.region_bboxes
    else:
        areas = np.bincount(grid.ravel(), minlength=len(scene.regions))
        regions = tuple(replace(r, area_px=float(areas[r.id])) for r in scene.regions)
        bboxes = _measure_bboxes(grid, len(regions))

    probs = region_sampling_prob([r for r in regions if r.area_px > 0], target)
    for r in regions:
        probs.setdefault(r.id, 0.0)

    ordered = sorted(probs)
    x_r = dict(zip(ordered, apportion(n, [probs[rid] for rid in ordered])))

    by_region: dict[int, list[PanoDetection]] = {}
    for det in dets:
        rid = int(grid[int(det.center[1]), int(det.center[0])])
        by_region.setdefault(rid, []).append(det)

    sub_regions: list[SubRegion] = []
    remainder: dict[int, int] = {}
    for region in regions:
        region_dets = by_region.get(region.id, [])
        counts, x_rm = refine_allocation(region, x_r[region.id], region_dets,
                                         probs[region.id], r_scale=r_scale)
        remainder[region.id] = x_rm
        for det, count in zip(region_dets, counts):
            radius = r_scale * det.sigma_o
            sub_regions.append(SubRegion(
                region_id=region.id, center=det.center, radius_px=radius,
                area_px=math.pi * radius * radius, count=count))

    return Ppm(region_probs=probs, sub_regions=tuple(sub_regions),
               remainder_counts=remainder, total_particles=n,
               label_grid=grid, regions=regions, region_bboxes=bboxes,
               detections=tuple(dets))


def _measure_bboxes(grid: np.ndarray, n_regions: int):
    bboxes = []
    for rid in range(n_regions):
        mask = grid == rid
        rows = np.flatnonzero(mask.any(axis=1))
        cols = np.flatnonzero(mask.any(axis=0))
        if rows.size == 0:
            bboxes.append((0, 0, 0, 0))
        else:
            bboxes.append((int(cols[0]), int(rows[0]),
                           int(cols[-1]) + 1, int(rows[-1]) + 1))
    return tuple(bboxes)


def write_ppm_csv(ppm: Ppm, path: str, target: str = "car") -> None:
    """PPM dump: one row per region, then one row per sub-region disc."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("kind,region_id,label,area_px,prior,F,x_r,x_rm,center_x,center_y,radius_px,x_ro\n")
        by_id = {r.id: r for r in ppm.regions}
        for rid in sorted(ppm.region_probs):
            region = by_id[rid]
            allocated = ppm.remainder_counts.get(rid, 0) + sum(
                s.count for s in ppm.sub_regions if s.region_id == rid)
            fh.write(f"region,{rid},{region.label},{region.area_px:.0f},"
                     f"{region.prior(target):.4f},{ppm.region_probs[rid]:.9f},"
                     f"{allocated},{ppm.remainder_counts.get(rid, 0)},,,,\n")
        for s in ppm.sub_regions:
            fh.write(f"subregion,{s.region_id},,,,,,,"
                     f"{s.center[0]:.2f},{s.center[1]:.2f},{s.radius_px:.3f},{s.count}\n")
