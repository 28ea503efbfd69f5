"""Particle set over mirror-angle space: sampling, weighting, pruning.

A particle is a candidate gaze point with an importance weight.  The initial
set is drawn from the probability map (uniform over each region's remainder,
uniform over each sub-region disc); later stages draw from a Gaussian mixture
whose components are the retained particles with their weights normalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import EngineConfig
from .galvo import clamp_angle
from .ppm import Ppm
from .scene import SceneMap, left_sum, rejection_sample, sample_region

_PRUNE_BLOCK = 32  # ranked particles whose distance rows are computed at once


@dataclass(eq=False)
class ParticleSet:
    """Gaze points (degrees), importance weights and sampling stds, one array each.

    As a proposal, each particle is one isotropic Gaussian component: mean
    its gaze point, std its sigma, mix weight its normalized weight.
    """

    theta_h: np.ndarray
    theta_v: np.ndarray
    weight: np.ndarray
    sigma: np.ndarray

    @classmethod
    def fresh(cls, theta_h, theta_v, weight: float, sigma: float) -> ParticleSet:
        """Points sharing one weight and one sigma."""
        n = len(theta_h)
        return cls(theta_h, theta_v, np.full(n, weight), np.full(n, sigma))

    def __len__(self) -> int:
        return len(self.weight)

    def subset(self, index) -> ParticleSet:
        """The particles an index array or boolean mask selects, in its order."""
        return ParticleSet(self.theta_h[index], self.theta_v[index],
                           self.weight[index], self.sigma[index])


@dataclass
class Particle:
    """One weighted gaze point.

    The engine works on `ParticleSet`; this type and the list form of
    `normalize_weights` stay because the acceptance suite's conservation
    criterion builds and normalizes a list of them.
    """

    theta_h: float
    theta_v: float
    weight: float
    sigma: float = EngineConfig.sigma0_deg  # per-particle sampling std, degrees


def initial_sample(ppm: Ppm, scene: SceneMap, seed,
                   sigma0: float = EngineConfig.sigma0_deg,
                   limit: float = EngineConfig.galvo_limit_deg) -> ParticleSet:
    """Draw the stage-0 particle set from the probability map.

    Remainder counts sample uniformly over their region's pixels; sub-region
    counts sample uniformly over the detection disc clipped at the region
    border.  All weights start at 1/N.
    """
    rng = np.random.default_rng(seed)
    grid = ppm.label_grid
    h, w = grid.shape
    xs, ys = [np.empty(0)], [np.empty(0)]  # so that no hits concatenate too
    for rid in sorted(ppm.remainder_counts):
        count = ppm.remainder_counts[rid]
        x0, y0, x1, y1 = ppm.region_bboxes[rid]
        if count <= 0 or x1 <= x0 or y1 <= y0:
            continue
        hx, hy = sample_region(rng, grid, rid, ppm.region_bboxes[rid], count,
                               max_rounds=200)
        xs.append(hx)
        ys.append(hy)
    for sub in ppm.sub_regions:
        if sub.count <= 0:
            continue
        cx, cy = sub.center
        hx, hy = rejection_sample(rng, grid, sub.region_id,
                                  _disc_draw(sub.center, sub.radius_px, w, h),
                                  sub.count, max_rounds=200)
        # disc barely intersects its region: fall back to the detection center
        short = sub.count - len(hx)
        xs += [hx, np.full(short, min(max(cx, 0.0), w - 1.0))]
        ys += [hy, np.full(short, min(max(cy, 0.0), h - 1.0))]
    th, tv = scene.pano_to_galvo(np.concatenate(xs), np.concatenate(ys))
    return ParticleSet.fresh(clamp_angle(th, limit), clamp_angle(tv, limit),
                             1.0 / ppm.total_particles, sigma0)


def _disc_draw(center: tuple[float, float], radius: float, w: int, h: int):
    """A `draw` for rejection_sample: points uniform in a disc, clipped to the grid."""
    cx, cy = center

    def draw(rng, n):
        r = radius * np.sqrt(rng.random(n))
        phi = rng.uniform(0.0, 2.0 * math.pi, size=n)
        return (np.clip(cx + r * np.cos(phi), 0.0, w - 1.0),
                np.clip(cy + r * np.sin(phi), 0.0, h - 1.0))
    return draw


def _normalized(particles: ParticleSet, error: str) -> ParticleSet:
    """Weights divided by their left-to-right sum, so the result does not
    depend on numpy's summation order; raises ValueError(error) when the
    sum is not positive."""
    total = left_sum(particles.weight)
    if total <= 0.0:
        raise ValueError(error)
    return replace(particles, weight=particles.weight / total)


def build_proposal(particles: ParticleSet) -> ParticleSet:
    """The Gaussian-mixture proposal: the retained particles, weights normalized."""
    return _normalized(particles, "degenerate particle set: no positive weights")


def sample_next(proposal: ParticleSet, count: int, seed,
                limit: float = EngineConfig.galvo_limit_deg) -> ParticleSet:
    """Draw the next stage's particles from the proposal mixture.

    Component choice follows the mix weights, then an isotropic Gaussian
    around the component mean; angles clamp to the mirror range.  Children
    inherit the component's weight (their previous-stage weight) and std.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(proposal), size=count,
                       p=proposal.weight / proposal.weight.sum())
    noise = rng.standard_normal((count, 2))
    c = proposal.subset(picks)
    return replace(c, theta_h=clamp_angle(c.theta_h + noise[:, 0] * c.sigma, limit),
                   theta_v=clamp_angle(c.theta_v + noise[:, 1] * c.sigma, limit))


def update_weights(particles: ParticleSet, likelihoods) -> ParticleSet:
    """Multiply each weight by its view likelihood; weights stay unnormalized."""
    if len(particles) != len(likelihoods):
        raise ValueError(f"{len(particles)} particles but {len(likelihoods)} likelihoods")
    return replace(particles,
                   weight=particles.weight * np.asarray(likelihoods, dtype=float))


def normalize_weights(particles: ParticleSet) -> ParticleSet:
    """Weights divided by their left-to-right sum, as a new set.

    A `list[Particle]` (see `Particle`) is normalized in place instead.
    """
    error = "particle degeneracy: all weights zero"
    if isinstance(particles, ParticleSet):
        return _normalized(particles, error)
    total = left_sum([p.weight for p in particles])
    if total <= 0.0:
        raise ValueError(error)
    for p in particles:
        p.weight /= total
    return particles


def prune_redundant(particles: ParticleSet, fov_deg: float,
                    overlap_frac: float = EngineConfig.overlap_frac) -> ParticleSet:
    """Drop particles whose gaze lies within overlap_frac * fov of a kept one.

    Greedy by descending weight (ties: lower index first), so the heaviest
    representative of each cluster survives.  Output preserves the input
    order and is never empty.  Distances are computed as arrays, one block
    of ranks against every later rank at a time; only a kept particle near
    another one costs a numpy call.
    """
    n = len(particles)
    if n <= 1:
        return particles
    thr = overlap_frac * fov_deg
    order = np.argsort(-particles.weight, kind="stable")
    th, tv = particles.theta_h[order], particles.theta_v[order]
    alive = np.ones(n, dtype=bool)
    kept = np.zeros(n, dtype=bool)
    # ranks before `start` are decided by the time its block is reached,
    # so the block's particles only suppress ranks >= start
    for start in range(0, n, _PRUNE_BLOCK):
        stop = min(start + _PRUNE_BLOCK, n)
        if not alive[start:stop].any():
            continue
        d_h = th[start:] - th[start:stop, None]
        d_v = tv[start:] - tv[start:stop, None]
        far = d_h * d_h + d_v * d_v >= thr * thr
        np.fill_diagonal(far, True)  # a particle is not near itself
        busy = (~far.all(axis=1)).tolist()
        for r in range(start, stop):
            if alive[r]:
                kept[r] = True
                if busy[r - start]:
                    alive[start:] &= far[r - start]
    keep = np.zeros(n, dtype=bool)
    keep[order[kept]] = True
    return particles.subset(keep)
