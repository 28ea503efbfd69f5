"""Particle set over mirror-angle space: sampling, weighting, pruning.

A particle is a candidate gaze point with an importance weight.  The initial
set is drawn from the probability map (uniform over each region's remainder,
uniform over each sub-region disc); later stages draw from a Gaussian mixture
built around the retained weighted particles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .galvo import clamp_angle
from .ppm import Ppm
from .scene import SceneMap, bbox_draw, rejection_sample

_PRUNE_BLOCK = 32  # ranked particles whose distance rows are computed at once


@dataclass
class Particle:
    theta_h: float
    theta_v: float
    weight: float
    sigma: float = 1.0  # per-particle sampling std, degrees


@dataclass(frozen=True)
class MixtureComponent:
    mean_h: float
    mean_v: float
    std: float
    weight: float


@dataclass(frozen=True)
class ProposalMixture:
    components: tuple[MixtureComponent, ...]


def initial_sample(ppm: Ppm, scene: SceneMap, seed,
                   sigma0: float = 1.0, limit: float = 20.0) -> list[Particle]:
    """Draw the stage-0 particle set from the probability map.

    Remainder counts sample uniformly over their region's pixels; sub-region
    counts sample uniformly over the detection disc clipped at the region
    border.  All weights start at 1/N.
    """
    rng = np.random.default_rng(seed)
    w0 = 1.0 / ppm.total_particles
    grid = ppm.label_grid
    h, w = grid.shape
    points: list[tuple[float, float]] = []
    for rid in sorted(ppm.remainder_counts):
        count = ppm.remainder_counts[rid]
        x0, y0, x1, y1 = ppm.region_bboxes[rid]
        if count <= 0 or x1 <= x0 or y1 <= y0:
            continue
        hits = rejection_sample(rng, grid, rid, bbox_draw(ppm.region_bboxes[rid]),
                                count, max_rounds=200)
        if len(hits) < count:
            raise RuntimeError(f"region {rid}: rejection sampling starved "
                               f"({len(hits)}/{count} placed)")
        points += hits
    for sub in ppm.sub_regions:
        if sub.count <= 0:
            continue
        cx, cy = sub.center
        hits = rejection_sample(rng, grid, sub.region_id,
                                _disc_draw(sub.center, sub.radius_px, w, h),
                                sub.count, max_rounds=200)
        # disc barely intersects its region: fall back to the detection center
        center = (float(min(max(cx, 0.0), w - 1.0)),
                  float(min(max(cy, 0.0), h - 1.0)))
        points += hits + [center] * (sub.count - len(hits))
    particles = []
    for x, y in points:
        th, tv = scene.pano_to_galvo(x, y)
        particles.append(Particle(clamp_angle(th, limit), clamp_angle(tv, limit),
                                  w0, sigma=sigma0))
    return particles


def _disc_draw(center: tuple[float, float], radius: float, w: int, h: int):
    """A `draw` for rejection_sample: points uniform in a disc, clipped to the grid."""
    cx, cy = center

    def draw(rng, n):
        r = radius * np.sqrt(rng.random(n))
        phi = rng.uniform(0.0, 2.0 * math.pi, size=n)
        return (np.clip(cx + r * np.cos(phi), 0.0, w - 1.0),
                np.clip(cy + r * np.sin(phi), 0.0, h - 1.0))
    return draw


def build_proposal(particles: list[Particle]) -> ProposalMixture:
    """Gaussian mixture with one component per retained particle.

    Component mean is the particle's gaze point, std its sampling sigma, and
    mix weight its normalized importance weight.
    """
    total = sum(p.weight for p in particles)
    if not particles or total <= 0.0:
        raise ValueError("degenerate particle set: no positive weights")
    comps = tuple(MixtureComponent(p.theta_h, p.theta_v, p.sigma, p.weight / total)
                  for p in particles)
    return ProposalMixture(components=comps)


def sample_next(mixture: ProposalMixture, count: int, seed,
                limit: float = 20.0) -> list[Particle]:
    """Draw the next stage's particles from the proposal mixture.

    Component choice follows the mix weights, then an isotropic Gaussian
    around the component mean; angles clamp to the mirror range.  Children
    inherit the component's weight (their previous-stage weight) and std.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    comps = mixture.components
    weights = np.array([c.weight for c in comps])
    weights = weights / weights.sum()
    picks = rng.choice(len(comps), size=count, p=weights)
    noise = rng.standard_normal((count, 2))
    out = []
    for i in range(count):
        c = comps[int(picks[i])]
        th = clamp_angle(c.mean_h + noise[i, 0] * c.std, limit)
        tv = clamp_angle(c.mean_v + noise[i, 1] * c.std, limit)
        out.append(Particle(th, tv, c.weight, sigma=c.std))
    return out


def update_weights(particles: list[Particle], likelihoods) -> list[Particle]:
    """Multiply each weight by its view likelihood; weights stay unnormalized."""
    if len(particles) != len(likelihoods):
        raise ValueError(f"{len(particles)} particles but {len(likelihoods)} likelihoods")
    for p, lk in zip(particles, likelihoods):
        p.weight *= lk
    return particles


def normalize_weights(particles: list[Particle]) -> list[Particle]:
    total = sum(p.weight for p in particles)
    if total <= 0.0:
        raise ValueError("particle degeneracy: all weights zero")
    for p in particles:
        p.weight /= total
    return particles


def prune_redundant(particles: list[Particle], fov_deg: float,
                    overlap_frac: float = 0.5) -> list[Particle]:
    """Drop particles whose gaze lies within overlap_frac * fov of a kept one.

    Greedy by descending weight (ties: lower index first), so the heaviest
    representative of each cluster survives.  Output preserves the input
    order and is never empty.  Distances are computed as arrays, one block
    of ranks against every later rank at a time.
    """
    n = len(particles)
    if n <= 1:
        return list(particles)
    thr = overlap_frac * fov_deg
    weights = np.array([p.weight for p in particles])
    order = np.argsort(-weights, kind="stable")
    ranked = np.array([[p.theta_h, p.theta_v] for p in particles])[order]
    alive = np.ones(n, dtype=bool)
    kept = np.zeros(n, dtype=bool)
    # ranks before `start` are decided by the time its block is reached,
    # so the block's particles only suppress ranks >= start
    for start in range(0, n, _PRUNE_BLOCK):
        stop = min(start + _PRUNE_BLOCK, n)
        if not alive[start:stop].any():
            continue
        d = ranked[start:] - ranked[start:stop, None]
        far = (d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]) >= thr * thr
        for r in range(start, stop):
            if alive[r]:
                kept[r] = True
                alive[start:] &= far[r - start]
    keep = np.zeros(n, dtype=bool)
    keep[order[kept]] = True
    return [p for p, k in zip(particles, keep) if k]


def write_particles_csv(path: str, rows) -> None:
    """Particle log CSV over (stage, theta_h, theta_v, weight, sigma) rows."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("stage,theta_h,theta_v,weight,sigma\n")
        for stage, th, tv, weight, sigma in rows:
            fh.write(f"{stage},{th:.6f},{tv:.6f},{weight:.9e},{sigma:.6f}\n")
