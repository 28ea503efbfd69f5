"""Dual-axis steerable-mirror model: pose state, view capture, scan planning.

The mirror redirects a fixed search camera; a pose is a pair of angles in
[-limit, +limit] degrees.  Each view pixel subtends `alpha` degrees, so the
view-to-angle transform is affine around the image center.  Moves cost a
fixed step-response time and each captured view costs a dwell time.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .scene import SceneMap

GALVO_LIMIT_DEG = 20.0
STEP_RESPONSE_MS = 0.25


@dataclass
class GalvoState:
    theta_h: float = 0.0
    theta_v: float = 0.0
    elapsed_ms: float = 0.0
    step_response_ms: float = STEP_RESPONSE_MS


@dataclass(frozen=True)
class VisibleObject:
    object_id: int
    x_px: float          # view pixels, clipped into the view
    y_px: float
    width_px: float      # apparent size (may exceed the view)
    height_px: float
    occlusion: float


@dataclass(frozen=True)
class View:
    theta_h: float
    theta_v: float
    width: int
    height: int
    visible: tuple[VisibleObject, ...]


def clamp_angle(theta: float, limit: float = GALVO_LIMIT_DEG) -> float:
    return -limit if theta < -limit else (limit if theta > limit else theta)


def image_to_galvo(theta_h: float, theta_v: float, t_x: float, t_y: float,
                   alpha: float = 0.002, width: int = 264, height: int = 224,
                   limit: float = GALVO_LIMIT_DEG) -> tuple[float, float, bool]:
    """Refine a mirror pose toward a view-pixel target.

    The target offset from the image center converts to degrees at alpha
    degrees per pixel and adds onto the current pose.  Returns the refined
    (theta_h, theta_v) clamped into the mirror range plus a flag set when
    clamping occurred.
    """
    g_h = theta_h + alpha * (t_x - width / 2.0)
    g_v = theta_v + alpha * (t_y - height / 2.0)
    c_h = clamp_angle(g_h, limit)
    c_v = clamp_angle(g_v, limit)
    return c_h, c_v, (c_h != g_h or c_v != g_v)


def capture_view(scene: SceneMap, theta_h: float, theta_v: float,
                 width: int = 264, height: int = 224, alpha: float = 0.002,
                 magnification: float | None = None) -> View:
    """Simulate the search camera at a mirror pose.

    Includes every object whose angular footprint intersects the view
    window, in scene order.  Positions are the object centers in view
    pixels, clipped into the view when only part of the object is visible.
    By default the magnification matches the optics (panorama scale /
    alpha), which makes gaze refinement via image_to_galvo exact.

    Only objects whose center x lies within the view's half-width plus the
    widest object half-width (and a 1 px margin) of the gaze are tested,
    found by bisecting the scene's band index; a non-finite gaze tests
    every object.
    """
    if magnification is None:
        magnification = scene.deg_per_px / alpha
    half_w_deg = width * alpha / 2.0
    half_h_deg = height * alpha / 2.0
    dpp = scene.deg_per_px
    gx = scene.width / 2.0 + theta_h / dpp
    gy = scene.height / 2.0 + theta_v / dpp
    reach = half_w_deg / dpp + scene.max_half_w + 1.0
    lo_x, hi_x = gx - reach, gx + reach
    objects = scene.objects
    if math.isfinite(lo_x) and math.isfinite(hi_x):
        band = scene.band_x
        # detect draws the RNG in view.visible order: restore scene order
        candidates = sorted(scene.band_order[bisect_left(band, lo_x):
                                             bisect_right(band, hi_x)])
    else:
        candidates = range(len(objects))
    visible = []
    for i in candidates:
        obj = objects[i]
        dh = (obj.center[0] - gx) * dpp
        dv = (obj.center[1] - gy) * dpp
        half_obj_h = obj.size[0] * dpp / 2.0
        half_obj_v = obj.size[1] * dpp / 2.0
        if abs(dh) > half_w_deg + half_obj_h or abs(dv) > half_h_deg + half_obj_v:
            continue
        x_px = width / 2.0 + dh / alpha
        y_px = height / 2.0 + dv / alpha
        x_px = min(max(x_px, 0.0), width - 1.0)
        y_px = min(max(y_px, 0.0), height - 1.0)
        visible.append(VisibleObject(
            object_id=obj.id, x_px=x_px, y_px=y_px,
            width_px=obj.size[0] * magnification,
            height_px=obj.size[1] * magnification,
            occlusion=obj.occlusion,
        ))
    return View(theta_h=theta_h, theta_v=theta_v, width=width, height=height,
                visible=tuple(visible))


# below this magnitude no coordinate difference squared, nor a sum of two,
# can overflow, so the sweep's axis bound and distances are exact
_SWEEP_LIMIT = 1e150


def plan_scan(state: GalvoState, positions, dwell_ms: float = 2.0):
    """Nearest-neighbour tour over gaze positions from the current pose.

    `positions` is a sequence of (theta_h, theta_v) pairs.  Returns the
    visiting order (indices into `positions`) and the total time in ms:
    one step-response per move plus one dwell per view.  Ties break toward
    the lower index so the tour is deterministic.

    Each step picks the unvisited position with the least squared distance
    `dx*dx + dy*dy` from the cursor.  The positions are sorted stably along
    the axis of larger extent and kept in a doubly linked list of unvisited
    ranks; a step walks outward from the cursor's rank on both sides and
    stops a side once the squared gap along that axis alone exceeds the
    best distance found, so points at an equal distance are still examined.
    Cost: an O(n log n) sort, then per step a walk over the unvisited points
    within the current best distance along the axis; O(n^2) Python work in
    the worst case (every point inside every step's band, as on a plus
    shape).  Inputs with a non-finite coordinate or cursor, or a magnitude
    of at least 1e150, take the O(n)-per-step array scan instead, whose
    argmin also orders NaN and infinite distances.
    """
    n = len(positions)
    if n == 0:
        raise ValueError("cannot plan a scan over zero positions")
    xs = [float(h) for h, _ in positions]
    ys = [float(v) for _, v in positions]
    cx, cy = float(state.theta_h), float(state.theta_v)
    if _bounded(xs) and _bounded(ys) and _bounded((cx, cy)):
        if max(ys) - min(ys) > max(xs) - min(xs):
            order = _sweep_tour(ys, xs, cy, cx)
        else:
            order = _sweep_tour(xs, ys, cx, cy)
    else:
        order = _scan_tour(np.array(xs), np.array(ys), cx, cy)
    total_ms = n * state.step_response_ms + n * dwell_ms
    return order, total_ms


def _bounded(values) -> bool:
    return all(-_SWEEP_LIMIT < v < _SWEEP_LIMIT for v in values)


def _sweep_tour(us: list[float], vs: list[float], cu: float,
                cv: float) -> list[int]:
    """Nearest-neighbour order by a sweep over the positions sorted along u.

    Every distance is `du*du + dv*dv` on the same doubles as the array scan
    (float addition commutes, so the axis choice cannot change a sum), and
    `du*du` never exceeds it, so a side whose `du*du` is strictly greater
    than the best holds no closer or equally close point further out.
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
    for step in range(n):
        best = math.inf
        best_i = n
        best_r = -1
        j = left
        while j >= 0:
            du = su[j] - cu
            d = du * du
            if d > best:
                break
            dv = sv[j] - cv
            d += dv * dv
            if d < best or (d == best and rank[j] < best_i):
                best, best_i, best_r = d, rank[j], j
            j = prv[j]
        j = right
        while j < n:
            du = su[j] - cu
            d = du * du
            if d > best:
                break
            dv = sv[j] - cv
            d += dv * dv
            if d < best or (d == best and rank[j] < best_i):
                best, best_i, best_r = d, rank[j], j
            j = nxt[j]
        order[step] = best_i
        left, right = prv[best_r], nxt[best_r]
        if left >= 0:
            nxt[left] = right
        if right < n:
            prv[right] = left
        cu, cv = su[best_r], sv[best_r]
    return order


def _scan_tour(xs: np.ndarray, ys: np.ndarray, cx: float,
               cy: float) -> list[int]:
    """Nearest-neighbour order by a full array scan per step.

    Each step computes the squared distance from the cursor to every
    position, sets the visited ones to inf and takes argmin, which returns
    the first minimum (or the first NaN).
    """
    n = len(xs)
    dx = np.empty(n)
    dy = np.empty(n)
    visited = np.zeros(n, dtype=bool)
    order = [0] * n
    for i in range(n):
        np.subtract(xs, cx, out=dx)
        np.multiply(dx, dx, out=dx)
        np.subtract(ys, cy, out=dy)
        np.multiply(dy, dy, out=dy)
        np.add(dx, dy, out=dx)
        np.putmask(dx, visited, np.inf)
        pick = int(dx.argmin())
        if visited[pick]:  # every unvisited distance is inf: take the first
            pick = int(visited.argmin())
        order[i] = pick
        visited[pick] = True
        cx = xs[pick]
        cy = ys[pick]
    return order


def write_scan_log(path: str, rows) -> None:
    """Scan log CSV: seq, theta_h, theta_v, elapsed_ms, n_visible."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("seq,theta_h,theta_v,elapsed_ms,n_visible\n")
        for seq, th, tv, elapsed, n_vis in rows:
            fh.write(f"{seq},{th:.6f},{tv:.6f},{elapsed:.4f},{n_vis}\n")
