"""Coordinate refinement: overlap-weighted, precision-weighted merging of boxes.

Confidence-ranked NMS groups overlapping detections into search windows.
Each window's center is then re-estimated by voting: every member
contributes its center weighted by overlap probability over localization
variance, so tight, well-localized neighbours dominate and uncertain or
barely-overlapping ones are discounted.  The same weights aggregate into a
shrunken per-axis sampling radius for the next search stage.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .detector import Detection
from .galvo import clamp_angle

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
    overlap = np.maximum(np.minimum(a[..., 2:4], b[..., 2:4])
                         - np.maximum(a[..., :2], b[..., :2]), 0.0)
    inter = overlap[..., 0] * overlap[..., 1]
    return np.divide(inter, a[..., 4] + b[..., 4] - inter,
                     out=np.zeros_like(inter), where=inter > 0.0)


def _overlap_weight(iou_value: float, sigma_t: float) -> float:
    miss = 1.0 - iou_value
    return math.exp(-miss * miss / sigma_t)


def overlap_prob(b_i: Detection, b_m: Detection, sigma_t: float = 0.025) -> float:
    """exp(-(1 - IoU)^2 / sigma_t); callers only pass overlapping pairs."""
    return _overlap_weight(iou(b_i, b_m), sigma_t)


def variance_vote(members) -> tuple[float, float, float, float]:
    """Precision-weighted center and aggregated radius over (detection, p) pairs.

    Per axis the refined coordinate is sum(p * c / var) / sum(p / var) and the
    new sampling radius is the aggregate 1 / sum(p / var).  Variances are
    floored so a perfect detection cannot zero out the vote.
    """
    if not members:
        raise ValueError("variance_vote needs at least one member")
    num_h = num_v = den_h = den_v = 0.0
    for det, p in members:
        wh = p / max(det.var_h, VAR_FLOOR)
        wv = p / max(det.var_v, VAR_FLOOR)
        num_h += wh * det.theta_h
        num_v += wv * det.theta_v
        den_h += wh
        den_v += wv
    return num_h / den_h, num_v / den_v, 1.0 / den_h, 1.0 / den_v


def nms_merge(dets, iou_keep: float = 0.5, sigma_t: float = 0.025,
              vote: bool = True, limit: float = 20.0) -> list[SearchWindow]:
    """Greedy confidence-ranked suppression into voted search windows.

    Detections overlapping a selected box above iou_keep fold into its member
    list instead of surviving on their own.  With voting enabled the window
    center moves to the members' precision-weighted vote and its radii are
    the vote's aggregate variances; otherwise it stays at the best member,
    whose floored variances are the radii.  IoUs are computed as arrays, one
    block of ranks against every later rank at a time, so memory stays O(n)
    for a fixed block size; voting reuses each member's IoU with the best
    box from the same block.
    """
    if not dets:
        return []
    n = len(dets)
    cols = np.array([(d.theta_h, d.theta_v, d.width_deg, d.height_deg,
                      d.confidence) for d in dets])
    order = np.argsort(-cols[:, 4], kind="stable")  # ties: lower index first
    bounds = box_bounds(cols[order, :2], cols[order, 2:4])
    alive = np.ones(n, dtype=bool)
    windows: list[SearchWindow] = []
    # every rank before `start` is taken by the time its block is reached,
    # so the block's boxes only need IoUs against ranks >= start
    for start in range(0, n, _NMS_BLOCK):
        stop = min(start + _NMS_BLOCK, n)
        if not alive[start:stop].any():
            continue
        ious = bounds_iou(bounds[start:stop, None], bounds[start:])
        over = ious > iou_keep
        for p in range(start, stop):
            if not alive[p]:
                continue
            alive[p] = False
            row = p - start
            best = dets[order[p]]
            members = [best]
            member_ious = [float(ious[row, row])]
            merge = over[row] & alive[start:]
            if merge.any():
                alive[start:] &= ~merge
                members += [dets[j] for j in order[start:][merge]]
                member_ious += ious[row, merge].tolist()
            windows.append(_window(best, members, member_ious, sigma_t, vote,
                                   limit))
    return windows


def _window(best: Detection, members, member_ious, sigma_t: float,
            vote: bool, limit: float) -> SearchWindow:
    """Window around `best`; member_ious[i] is members[i]'s IoU with best."""
    if vote:
        pairs = [(m, _overlap_weight(v, sigma_t))
                 for m, v in zip(members, member_ious)]
        c_h, c_v, r_h, r_v = variance_vote(pairs)
    else:
        c_h, c_v = best.theta_h, best.theta_v
        r_h, r_v = max(best.var_h, VAR_FLOOR), max(best.var_v, VAR_FLOOR)
    return SearchWindow(
        center_h=clamp_angle(c_h, limit), center_v=clamp_angle(c_v, limit),
        radius_h=r_h, radius_v=r_v, confidence=best.confidence,
        width_deg=best.width_deg, height_deg=best.height_deg,
        members=tuple(members))
