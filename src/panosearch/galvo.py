"""Dual-axis steerable-mirror model: pose state, view capture, scan planning.

The mirror redirects a fixed search camera; a pose is a pair of angles in
[-limit, +limit] degrees.  Each view pixel subtends `alpha` degrees, so the
view-to-angle transform is affine around the image center.  Moves cost a
fixed step-response time and each captured view costs a dwell time.
"""

from __future__ import annotations

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

    def move_to(self, theta_h: float, theta_v: float) -> None:
        self.theta_h = theta_h
        self.theta_v = theta_v
        self.elapsed_ms += self.step_response_ms

    def dwell(self, ms: float) -> None:
        self.elapsed_ms += ms


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
    window.  Positions are the object centers in view pixels, clipped into
    the view when only part of the object is visible.  By default the
    magnification matches the optics (panorama scale / alpha), which makes
    gaze refinement via image_to_galvo exact.
    """
    if magnification is None:
        magnification = scene.deg_per_px / alpha
    half_w_deg = width * alpha / 2.0
    half_h_deg = height * alpha / 2.0
    dpp = scene.deg_per_px
    gx = scene.width / 2.0 + theta_h / dpp
    gy = scene.height / 2.0 + theta_v / dpp
    visible = []
    for obj in scene.objects:
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


def plan_scan(state: GalvoState, positions, dwell_ms: float = 2.0):
    """Nearest-neighbour tour over gaze positions from the current pose.

    `positions` is a sequence of (theta_h, theta_v) pairs.  Returns the
    visiting order (indices into `positions`) and the total time in ms:
    one step-response per move plus one dwell per view.  Ties break toward
    the lower index so the tour is deterministic.

    Cost: O(n) array work per step, O(n^2) per pass.  Each step computes
    the squared distance from the cursor to every position, sets the
    visited ones to inf and takes argmin, which returns the first minimum.
    """
    n = len(positions)
    if n == 0:
        raise ValueError("cannot plan a scan over zero positions")
    pts = np.asarray(positions, dtype=float).reshape(n, 2)
    xs = pts[:, 0].copy()
    ys = pts[:, 1].copy()
    dx = np.empty(n)
    dy = np.empty(n)
    visited = np.zeros(n, dtype=bool)
    order = [0] * n
    cx, cy = float(state.theta_h), float(state.theta_v)
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
    total_ms = n * state.step_response_ms + n * dwell_ms
    return order, total_ms


def write_scan_log(path: str, rows) -> None:
    """Scan log CSV: seq, theta_h, theta_v, elapsed_ms, n_visible."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("seq,theta_h,theta_v,elapsed_ms,n_visible\n")
        for seq, th, tv, elapsed, n_vis in rows:
            fh.write(f"{seq},{th:.6f},{tv:.6f},{elapsed:.4f},{n_vis}\n")
