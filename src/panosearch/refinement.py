"""Coordinate refinement: overlap-weighted, precision-weighted merging of boxes.

`greedy_heads` is the one ranked greedy grouping of the search: confidence-
ranked NMS uses it to group the overlapping rows of a pass's detection table
into `SearchWindows`, and `particles.prune_redundant` to drop particles near
a heavier one.  Each window's center is then re-estimated by voting: every
member contributes its center weighted by overlap probability over
localization variance, so tight, well-localized neighbours dominate and
uncertain or barely-overlapping ones are discounted.  The same weights
aggregate into a shrunken per-axis sampling radius for the next search stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import EngineConfig
from .detector import Detection
from .galvo import clamp_angle
from .scene import left_sum

VAR_FLOOR = 1e-6  # degrees^2
_GREEDY_BLOCK = 32  # ranks whose pair tests greedy_heads makes at once


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


def greedy_heads(n: int, near) -> np.ndarray:
    """Each rank's head in a greedy walk over ranks 0 .. n-1.

    An untaken rank heads itself and takes every later untaken rank it is
    near; a taken rank takes none.  near(start, stop) is the caller's
    symmetric pair test, a boolean matrix of ranks start:stop against
    start:; its diagonal is ignored.  When the block at `start` is reached,
    each earlier rank is a head or taken, and by symmetry an untaken rank is
    near no earlier head, so no column before `start` is needed.  Memory
    stays O(n) for a fixed block size, and only a rank that takes others
    costs numpy calls in the walk.
    """
    head = np.arange(n)
    alive = np.ones(n, dtype=bool)  # untaken
    for start in range(0, n, _GREEDY_BLOCK):
        stop = min(start + _GREEDY_BLOCK, n)
        if not alive[start:stop].any():
            continue
        pairs = near(start, stop)
        np.fill_diagonal(pairs, False)
        busy = pairs.any(axis=1).tolist()
        live, heads = alive[start:], head[start:]
        for i in range(stop - start):
            if busy[i] and live[i]:
                take = pairs[i] & live
                live[take] = False
                heads[take] = start + i
    return head


def nms_merge(dets: np.ndarray, iou_keep: float = EngineConfig.iou_keep,
              sigma_t: float = EngineConfig.sigma_t, vote: bool = True,
              limit: float = EngineConfig.galvo_limit_deg) -> SearchWindows:
    """Greedy confidence-ranked suppression into voted search windows.

    Rows overlapping a selected box above iou_keep join its window instead
    of surviving on their own (greedy_heads over the ranks, ties: lower
    index first).  With voting enabled the window center moves to the
    members' precision-weighted vote and its radii are the vote's aggregate
    variances; otherwise it stays at the best member, whose floored
    variances are the radii.  One vote covers every window, its members in
    rank order.
    """
    order = np.argsort(-dets["confidence"], kind="stable")
    ranked = dets[order]
    bounds = box_bounds(np.column_stack((ranked["theta_h"], ranked["theta_v"])),
                        np.column_stack((ranked["width_deg"], ranked["height_deg"])))
    head = greedy_heads(len(dets), lambda start, stop: bounds_iou(
        bounds[start:stop, None], bounds[start:]) > iou_keep)
    best = np.flatnonzero(head == np.arange(len(dets)))  # each window's head
    window = np.searchsorted(best, head)  # the window of each rank
    window_of = np.empty_like(window)
    window_of[order] = window
    heads = ranked[best]
    if vote:
        p = _overlap_weights(bounds_iou(bounds[head], bounds), sigma_t)
        c_h, c_v, r_h, r_v = _vote(ranked["theta_h"], ranked["theta_v"],
                                   ranked["var_h"], ranked["var_v"], np.array(p),
                                   window, len(best))
    else:
        c_h, c_v = heads["theta_h"], heads["theta_v"]
        r_h = np.maximum(heads["var_h"], VAR_FLOOR)
        r_v = np.maximum(heads["var_v"], VAR_FLOOR)
    return SearchWindows(clamp_angle(c_h, limit), clamp_angle(c_v, limit), r_h,
                         r_v, heads["confidence"], heads["width_deg"],
                         heads["height_deg"], window_of)
