"""Coordinate refinement: overlap-weighted, precision-weighted merging of boxes.

Confidence-ranked NMS groups overlapping detections into search windows.
Each window's center is then re-estimated by voting: every member
contributes its center weighted by overlap probability over localization
variance, so tight, well-localized neighbours dominate and uncertain or
barely-overlapping ones are discounted.  The same weights aggregate into a
shrunken per-axis sampling radius for the next search stage.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .detector import Detection
from .galvo import clamp_angle
from .scene import left_sum

VAR_FLOOR = 1e-6  # degrees^2
_NMS_BLOCK = 32   # selected boxes whose IoU rows nms_merge computes at once


class SearchWindow(NamedTuple):
    center_h: float
    center_v: float
    radius_h: float           # per-axis variance of the window estimate, deg^2
    radius_v: float
    confidence: float         # best member confidence
    width_deg: float          # extent kept from the best member
    height_deg: float
    members: tuple[Detection, ...]


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


def overlap_prob(b_i: Detection, b_m: Detection, sigma_t: float = 0.025) -> float:
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


def nms_merge(dets, iou_keep: float = 0.5, sigma_t: float = 0.025,
              vote: bool = True, limit: float = 20.0) -> list[SearchWindow]:
    """Greedy confidence-ranked suppression into voted search windows.

    Detections overlapping a selected box above iou_keep fold into its member
    list instead of surviving on their own.  With voting enabled the window
    center moves to the members' precision-weighted vote and its radii are
    the vote's aggregate variances; otherwise it stays at the best member,
    whose floored variances are the radii.  IoUs are computed as arrays, one
    block of ranks against every later untaken rank at a time, so memory
    stays O(n) for a fixed block size; only a box that merges others costs
    numpy calls in the walk.  One vote then covers every window.
    """
    if not dets:
        return []
    n = len(dets)
    # theta_h, theta_v, width_deg, height_deg, confidence, var_h, var_v
    table = np.array([d[:7] for d in dets])
    order = np.argsort(-table[:, 4], kind="stable")  # ties: lower index first
    ranked = table[order]
    bounds = box_bounds(ranked[:, :2], ranked[:, 2:4])
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
    if vote:
        m = np.fromiter(itertools.chain.from_iterable(groups), int, n)
        c_h, c_v, r_h, r_v = _vote(
            *ranked[m][:, [0, 1, 5, 6]].T,
            np.array(_overlap_weights(best_iou[m], sigma_t)),
            np.repeat(np.arange(len(groups)), [len(g) for g in groups]),
            len(groups))
    else:
        heads = ranked[[g[0] for g in groups]]
        c_h, c_v = heads[:, 0], heads[:, 1]
        r_h, r_v = np.maximum(heads[:, 5:7], VAR_FLOOR).T
    ranked_dets = [dets[i] for i in order.tolist()]
    return [SearchWindow(ch, cv, rh, rv, ms[0].confidence, ms[0].width_deg,
                         ms[0].height_deg, ms)
            for ch, cv, rh, rv, ms in zip(
                clamp_angle(c_h, limit).tolist(), clamp_angle(c_v, limit).tolist(),
                r_h.tolist(), r_v.tolist(),
                [tuple([ranked_dets[j] for j in g]) for g in groups])]
