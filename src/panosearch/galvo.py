"""Dual-axis steerable-mirror model: view capture and scan planning.

The mirror redirects a fixed search camera; a pose is a pair of angles in
[-limit, +limit] degrees.  Each view pixel subtends `alpha` degrees, so the
view-to-angle transform is affine around the image center.  `view_candidates`
alone decides what a view sees; `capture_view` places what it names.  Every
view costs one step response plus one dwell, so the trial's simulated time
follows from its view count alone.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import NamedTuple

import numpy as np

from .config import EngineConfig
from .scene import SceneMap


class VisibleObject(NamedTuple):
    object_id: int
    x_px: float          # view pixels, clipped into the view
    y_px: float
    width_px: float      # apparent size (may exceed the view)
    height_px: float
    occlusion: float


class View(NamedTuple):
    theta_h: float
    theta_v: float
    width: int
    height: int
    visible: tuple[VisibleObject, ...]


# tuple.__new__(View, fields) builds the same tuple as View(*fields) without
# the namedtuple's Python-level __new__ frame: about 270 against 590 ns on a
# shared 2-vCPU VM, most of an empty view's capture, and 94% of the curve
# study's views are empty
_new = tuple.__new__


def clamp_angle(theta, limit: float = EngineConfig.galvo_limit_deg):
    """Angles in an array clamped into [-limit, limit]; NaN and -0.0 pass through."""
    return np.minimum(np.maximum(theta, -limit), limit)


def image_to_galvo(theta_h: float, theta_v: float, t_x: float, t_y: float,
                   alpha: float = EngineConfig.alpha, width: int = EngineConfig.view_w,
                   height: int = EngineConfig.view_h,
                   limit: float = EngineConfig.galvo_limit_deg) -> tuple[float, float, bool]:
    """Refine a mirror pose toward a view-pixel target.

    The target offset from the image center converts to degrees at alpha
    degrees per pixel and adds onto the current pose.  Returns the refined
    (theta_h, theta_v) clamped into the mirror range plus a flag set when
    clamping occurred.
    """
    g_h = theta_h + alpha * (t_x - width / 2.0)
    g_v = theta_v + alpha * (t_y - height / 2.0)
    # min(max(g, -limit), limit) as comparisons in the builtins' argument order,
    # so NaN and -0.0 come out as there, in ~30 ns against ~280 (clamp_angle ~1,700)
    c_h = limit if limit < (c_h := -limit if -limit > g_h else g_h) else c_h
    c_v = limit if limit < (c_v := -limit if -limit > g_v else g_v) else c_v
    return c_h, c_v, (c_h != g_h or c_v != g_v)


def capture_view(scene: SceneMap, theta_h: float, theta_v: float,
                 width: int = EngineConfig.view_w, height: int = EngineConfig.view_h,
                 alpha: float = EngineConfig.alpha, among=None) -> View:
    """Simulate the search camera at a mirror pose.

    Places the objects `among` names, indices in scene order as
    `view_candidates` gives them (None asks it for this gaze), without
    testing them again.  Positions are the object centers in view pixels,
    clipped into the view, onto its border for an object not seen.  Sizes
    scale by the optics' magnification (panorama scale / alpha), as
    positions do, which makes gaze refinement via image_to_galvo exact.
    """
    if among is None:
        (among,) = view_candidates(scene, [theta_h], [theta_v], width, height, alpha)
    if not among:
        return _new(View, (theta_h, theta_v, width, height, ()))
    rows = scene.capture_rows
    dpp = scene.deg_per_px
    magnification = dpp / alpha
    gx, gy = scene.galvo_to_pano(theta_h, theta_v)
    half_w, half_h, x_max, y_max = width / 2.0, height / 2.0, width - 1.0, height - 1.0
    visible = []
    for object_id, c_x, c_y, w, h, occlusion in [rows[i] for i in among]:
        x_px, y_px = half_w + (c_x - gx) * dpp / alpha, half_h + (c_y - gy) * dpp / alpha
        # min(max(p, 0.0), p_max), as image_to_galvo clamps
        x_px = x_max if x_max < (x_px := 0.0 if 0.0 > x_px else x_px) else x_px
        y_px = y_max if y_max < (y_px := 0.0 if 0.0 > y_px else y_px) else y_px
        visible.append(_new(VisibleObject, (object_id, x_px, y_px,
                                            w * magnification,
                                            h * magnification, occlusion)))
    return _new(View, (theta_h, theta_v, width, height, tuple(visible)))


def view_candidates(scene: SceneMap, theta_h, theta_v,
                    width: int = EngineConfig.view_w, height: int = EngineConfig.view_h,
                    alpha: float = EngineConfig.alpha) -> list[tuple]:
    """Per gaze, the indices of the objects whose angular footprint meets its
    view window, in scene order, tested over blocks of 2^16 gaze x object
    pairs, or of one gaze.  A NaN axis rejects nothing, an infinite one all."""
    out, dpp = [()] * len(theta_h), scene.deg_per_px
    if not len(scene.centers):
        return out
    c_x, c_y, w, h = np.hstack((scene.centers, scene.sizes)).T[..., None]
    step = max(1, 2 ** 16 // len(scene.centers))
    with np.errstate(over="ignore"):  # what overflows is infinite in floats too
        reach_h = width * alpha / 2.0 + w * dpp / 2.0
        reach_v = height * alpha / 2.0 + h * dpp / 2.0
        gx, gy = scene.galvo_to_pano(*np.array([theta_h, theta_v], dtype=float))
        for lo in range(0, len(out), step):
            dv, dh = (c_y - gy[lo:lo + step]) * dpp, (c_x - gx[lo:lo + step]) * dpp
            views, ids = np.nonzero(~((abs(dv) > reach_v) | (abs(dh) > reach_h)).T)
            seen = {}  # the pairs come gaze by gaze, objects in scene order
            for v, i in zip((views + lo).tolist(), ids.tolist()):
                seen.setdefault(v, []).append(i)
            for v, run in seen.items():
                out[v] = tuple(run)
    return out


# below this magnitude no coordinate difference squared, nor a sum of two,
# can overflow, so the sweep's axis bound and distances are exact
_SWEEP_LIMIT = 1e150


def plan_scan(pose: tuple[float, float], positions) -> list[int]:
    """Nearest-neighbour tour over gaze positions from the current pose.

    `pose` is a (theta_h, theta_v) pair, `positions` an (n, 2) array-like of
    them.  Returns the visiting order (indices into `positions`).  Ties break
    toward the lower index so the tour is deterministic.

    Each step picks the unvisited position with the least squared distance
    `dx*dx + dy*dy` from the cursor.  The positions are sorted stably along
    the axis of larger extent and kept in a doubly linked list of unvisited
    ranks; a step walks outward from the cursor's rank on both sides and
    stops a side once the squared gap along that axis alone exceeds the
    best distance found, so points at an equal distance are still examined.
    Cost: an O(n log n) sort, then per step a walk over the unvisited points
    within the current best distance along the axis; O(n^2) Python work in
    the worst case (every point inside every step's band, as on a plus
    shape).  Raises ValueError when a coordinate or the cursor is
    non-finite or has a magnitude of at least 1e150; no trial produces
    such a pose, since every angle is clamped into the mirror range.
    """
    pts = np.asarray(positions, dtype=float).reshape(len(positions), 2)
    if len(pts) == 0:
        raise ValueError("cannot plan a scan over zero positions")
    cx, cy = float(pose[0]), float(pose[1])
    if not (np.abs(np.vstack((pts, (cx, cy)))) < _SWEEP_LIMIT).all():
        raise ValueError("plan_scan needs finite angles of magnitude < 1e150")
    xs, ys = pts[:, 0].tolist(), pts[:, 1].tolist()
    if np.ptp(pts[:, 1]) > np.ptp(pts[:, 0]):
        return _sweep_tour(ys, xs, cy, cx)
    return _sweep_tour(xs, ys, cx, cy)


def _sweep_tour(us: list[float], vs: list[float], cu: float,
                cv: float) -> list[int]:
    """Nearest-neighbour order by a sweep over the positions sorted along u.

    Every distance is `du*du + dv*dv` (float addition commutes, so the axis
    choice cannot change a sum), and `du*du` never exceeds it, so a side
    whose `du*du` is strictly greater than the best holds no closer or
    equally close point further out.
    """
    n = len(us)
    rank = sorted(range(n), key=us.__getitem__)  # stable: ties in index order
    su = [us[i] for i in rank]
    sv = [vs[i] for i in rank]
    prv = list(range(-1, n - 1))
    nxt = list(range(1, n + 1))
    left = bisect_left(su, cu) - 1
    right = left + 1
    order = [0] * n
    inf = math.inf
    for step in range(n):
        best = inf
        best_r = -1
        j = left
        while j >= 0:
            du = su[j] - cu
            d = du * du
            if d > best:
                break
            dv = sv[j] - cv
            d += dv * dv
            if d <= best and (d < best or rank[j] < rank[best_r]):
                best, best_r = d, j
            j = prv[j]
        j = right
        while j < n:
            du = su[j] - cu
            d = du * du
            if d > best:
                break
            dv = sv[j] - cv
            d += dv * dv
            if d <= best and (d < best or rank[j] < rank[best_r]):
                best, best_r = d, j
            j = nxt[j]
        order[step] = rank[best_r]
        left, right = prv[best_r], nxt[best_r]
        if left >= 0:
            nxt[left] = right
        if right < n:
            prv[right] = left
        cu, cv = su[best_r], sv[best_r]
    return order
