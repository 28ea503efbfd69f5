"""Coordinate refinement: overlap-weighted, precision-weighted merging of boxes.

Confidence-ranked NMS groups the overlapping rows of a pass's detection
table into `SearchWindows`.  Each window's center is then re-estimated by
voting: every member contributes its center weighted by overlap probability
over localization variance, so tight, well-localized neighbours dominate and
uncertain or barely-overlapping ones are discounted.  The same weights
aggregate into a shrunken per-axis sampling radius for the next search stage.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .config import EngineConfig
from .detector import Detection
from .galvo import clamp_angle
from .scene import left_sum

VAR_FLOOR = 1e-6  # degrees^2
_NMS_BLOCK = 32   # selected boxes whose IoU rows nms_merge computes at once


@dataclass(frozen=True, eq=False)
class SearchWindows:
    """A stage's search windows as columns, one row per window, and
    `window_of`, the window of each row of the merged detection table."""

    center_h: np.ndarray
    center_v: np.ndarray
    radius_h: np.ndarray      # per-axis variance of the window estimate, deg^2
    radius_v: np.ndarray
    confidence: np.ndarray    # best member confidence
    width_deg: np.ndarray     # extent kept from the best member
    height_deg: np.ndarray
    window_of: np.ndarray     # int, one per detection row

    def __len__(self) -> int:
        return len(self.center_h)


def iou(a: Detection, b: Detection) -> float:
    """Intersection over union of two center+extent angular rectangles."""
    boxes = box_bounds(np.array([(a.theta_h, a.theta_v), (b.theta_h, b.theta_v)]),
                       np.array([(a.width_deg, a.height_deg),
                                 (b.width_deg, b.height_deg)]))
    return float(bounds_iou(boxes[0], boxes[1]))


def box_bounds(centers: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """(..., 5) rows x0, y0, x1, y1, area from (..., 2) centers and extents."""
    half = sizes / 2.0
    return np.concatenate((centers - half, centers + half,
                           (sizes[..., 0] * sizes[..., 1])[..., None]), axis=-1)


def bounds_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of box_bounds rows a and b, broadcast against each other.

    A disjoint pair, or one whose intersection underflows, is 0 (also a
    zero-area box against itself).
    """
    over_h = np.maximum(np.minimum(a[..., 2], b[..., 2])
                        - np.maximum(a[..., 0], b[..., 0]), 0.0)
    over_v = np.maximum(np.minimum(a[..., 3], b[..., 3])
                        - np.maximum(a[..., 1], b[..., 1]), 0.0)
    inter = over_h * over_v
    return np.divide(inter, a[..., 4] + b[..., 4] - inter,
                     out=np.zeros_like(inter), where=inter > 0.0)


def _overlap_weights(ious, sigma_t: float) -> list[float]:
    """exp(-(1 - IoU)^2 / sigma_t) per IoU, by math.exp (numpy's exp may
    differ from it by an ulp)."""
    miss = 1.0 - np.atleast_1d(ious)
    return [math.exp(x) for x in (-miss * miss / sigma_t).tolist()]


def overlap_prob(b_i: Detection, b_m: Detection,
                 sigma_t: float = EngineConfig.sigma_t) -> float:
    """exp(-(1 - IoU)^2 / sigma_t); callers only pass overlapping pairs."""
    return _overlap_weights(iou(b_i, b_m), sigma_t)[0]


def _vote(theta_h, theta_v, var_h, var_v, p, window=None, count: int = 1):
    """Precision-weighted center and aggregate radius of each window.

    Member i, with overlap weight p[i], is in window window[i] < count (in
    the one window, with float results, when `window` is None).  Per axis
    the center is sum(p * c / var) / sum(p / var) and the radius 1 / sum(p /
    var), each sum left to right (left_sum).  Variances are floored so a
    perfect detection cannot zero out the vote.
    """
    w_h = p / np.maximum(var_h, VAR_FLOOR)
    w_v = p / np.maximum(var_v, VAR_FLOOR)
    num_h, num_v, den_h, den_v = (left_sum(t, window, count) for t in
                                  (w_h * theta_h, w_v * theta_v, w_h, w_v))
    return num_h / den_h, num_v / den_v, 1.0 / den_h, 1.0 / den_v


def variance_vote(members) -> tuple[float, float, float, float]:
    """The vote of nms_merge over one window's (detection, p) pairs."""
    if not members:
        raise ValueError("variance_vote needs at least one member")
    return _vote(*np.array([(d.theta_h, d.theta_v, d.var_h, d.var_v, p)
                            for d, p in members]).T)


def nms_merge(dets: np.ndarray, iou_keep: float = EngineConfig.iou_keep,
              sigma_t: float = EngineConfig.sigma_t, vote: bool = True,
              limit: float = EngineConfig.galvo_limit_deg) -> SearchWindows:
    """Greedy confidence-ranked suppression into voted search windows.

    Rows overlapping a selected box above iou_keep join its window instead
    of surviving on their own.  With voting enabled the window center moves
    to the members' precision-weighted vote and its radii are the vote's
    aggregate variances; otherwise it stays at the best member, whose
    floored variances are the radii.  IoUs are computed as arrays, one block
    of ranks against every later untaken rank at a time, so memory stays
    O(n) for a fixed block size; only a box that merges others costs numpy
    calls in the walk.  One vote then covers every window.
    """
    n = len(dets)
    order = np.argsort(-dets["confidence"], kind="stable")  # ties: lower index first
    ranked = dets[order]
    bounds = box_bounds(np.column_stack((ranked["theta_h"], ranked["theta_v"])),
                        np.column_stack((ranked["width_deg"], ranked["height_deg"])))
    best_iou = bounds_iou(bounds, bounds)  # each rank's IoU with its window's best
    alive = np.ones(n, dtype=bool)
    groups: list[list[int]] = []  # each window's ranks, best first
    # every rank before `start` is taken by the time its block is reached,
    # so the block's boxes only need IoUs against the untaken ranks >= start
    for start in range(0, n, _NMS_BLOCK):
        untaken = start + np.flatnonzero(alive[start:])
        rows = untaken[:np.searchsorted(untaken, start + _NMS_BLOCK)]
        if not rows.size:
            continue
        ious = bounds_iou(bounds[rows, None], bounds[untaken])
        over = ious > iou_keep
        np.fill_diagonal(over, False)
        # IoU is symmetric, so a box that overlaps no other untaken one is
        # never merged either: it is a one-member window, left unmarked
        busy = over.any(axis=1).tolist()
        for i, p in enumerate(rows.tolist()):
            if not busy[i]:
                groups.append([p])
            elif alive[p]:
                alive[p] = False
                merge = np.flatnonzero(over[i] & alive[untaken])
                alive[untaken[merge]] = False
                best_iou[untaken[merge]] = ious[i, merge]
                groups.append([p, *untaken[merge].tolist()])
    m = np.fromiter(itertools.chain.from_iterable(groups), np.intp, n)
    # the window of each rank in m, and of each row
    window = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    window_of = np.empty(n, dtype=np.intp)
    window_of[order[m]] = window
    heads = ranked[[g[0] for g in groups]]
    if vote:
        c_h, c_v, r_h, r_v = _vote(
            ranked["theta_h"][m], ranked["theta_v"][m], ranked["var_h"][m],
            ranked["var_v"][m], np.array(_overlap_weights(best_iou[m], sigma_t)),
            window, len(groups))
    else:
        c_h, c_v = heads["theta_h"], heads["theta_v"]
        r_h = np.maximum(heads["var_h"], VAR_FLOOR)
        r_v = np.maximum(heads["var_v"], VAR_FLOOR)
    return SearchWindows(clamp_angle(c_h, limit), clamp_angle(c_v, limit), r_h,
                         r_v, heads["confidence"], heads["width_deg"],
                         heads["height_deg"], window_of)
