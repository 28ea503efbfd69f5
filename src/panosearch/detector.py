"""Search-camera detector: the synthetic model every trial runs.

A detector turns captured views into detections carrying a confidence and
per-axis localization variances.  A trial builds its `SyntheticDetector` from
the config and, per scan pass, calls its ``detect_pass(views, rng)`` once for
the pass's table of `DETECTION_ROW`s, with the draws of one
``detect(view, rng)`` per view.  ``likelihood(view, detections)`` is a
view's particle weight; the trial reads it off the table's confidence column.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .config import DetectorConfig, EngineConfig
from .galvo import View, clamp_angle, image_to_galvo


class Detection(NamedTuple):
    theta_h: float        # refined mirror angles of the box center
    theta_v: float
    width_deg: float
    height_deg: float
    confidence: float
    var_h: float          # localization variance, degrees^2
    var_v: float
    object_id: int | None = None  # simulator truth tag; None for false positives


# a pass's detection table holds these rows by view, a view's true detections
# in visible order, then its false positives; `view` is a position in the
# pass, and `object_id` is -1 for a false positive
DETECTION_ROW = np.dtype([("view", np.intp),
                          *((name, float) for name in Detection._fields[:7]),
                          ("object_id", np.intp)])


def _model(cfg: DetectorConfig, occlusion: float, width_px: float,
           height_px: float, dist_norm: float) -> tuple[float, float, float]:
    """(detection probability, var_h, var_v) of an object in a view: both
    variances (degrees^2) grow with occlusion and border distance and shrink
    with size, as the probability falls with the one and rises with the other."""
    size_factor = min(1.0, math.sqrt(width_px * height_px) / cfg.size_ref_px)
    center_factor = max(0.0, 1.0 - cfg.center_falloff * dist_norm)
    base = cfg.sigma_base_deg ** 2
    common = (1.0 + cfg.k_occ * occlusion) * (1.0 + cfg.k_ctr * dist_norm)
    return (cfg.base_recall * (1.0 - occlusion) * size_factor * center_factor,
            base * common * (cfg.size_ref_px / max(width_px, 1.0)),
            base * common * (cfg.size_ref_px / max(height_px, 1.0)))


class SyntheticDetector:
    """The synthetic detector bound to a config, as a trial calls it."""

    def __init__(self, cfg: DetectorConfig, alpha: float = EngineConfig.alpha,
                 limit: float = EngineConfig.galvo_limit_deg,
                 floor: float = EngineConfig.likelihood_floor):
        self.cfg = cfg
        self.alpha = alpha
        self.limit = limit
        self.floor = floor

    def detect(self, view: View, seed) -> list[Detection]:
        """Run the synthetic detector on one view.

        Each visible object fires with probability
        base_recall * (1 - occlusion) * size_factor * center_factor and
        yields a box at its (noisy) center, already transformed into mirror
        angles.  False positives arrive Poisson-distributed at fp_rate per
        view with confidence below fp_conf_cap.
        """
        rows, fps = [], []
        self._detect(0, view, np.random.default_rng(seed), rows, fps)
        return [Detection(*row[1:8], None if row[8] < 0 else row[8])
                for row in self._table(rows, fps).tolist()]

    def _detect(self, i: int, view: View, rng, rows: list, fps: list) -> None:
        """Detect view `i`: add a table row per true detection to `rows`, and
        its position, gaze, size and four uniforms per false positive to `fps`."""
        cfg, alpha, limit = self.cfg, self.alpha, self.limit
        theta_h, theta_v, width, height, visible = view
        if visible:
            c_x, c_y = width / 2.0, height / 2.0
            half_diag = 0.5 * math.hypot(width, height)
        for object_id, x_px, y_px, width_px, height_px, occlusion in visible:
            dist_norm = math.hypot(x_px - c_x, y_px - c_y) / half_diag
            d, var_h, var_v = _model(cfg, occlusion, width_px, height_px,
                                     dist_norm)
            if rng.random() >= d:
                continue
            std_x = cfg.loc_noise_px + math.sqrt(var_h) / alpha * cfg.loc_noise_scale
            std_y = cfg.loc_noise_px + math.sqrt(var_v) / alpha * cfg.loc_noise_scale
            # rng.normal(0.0, s) is 0.0 + s * z on the same standard normal
            # z, so one call draws the k <= 3 nonzero-std noises in order
            z = iter(rng.standard_normal(
                (std_x > 0) + (std_y > 0) + (cfg.conf_noise > 0)).tolist())
            t_x = x_px + (0.0 + std_x * next(z) if std_x > 0 else 0.0)
            t_y = y_px + (0.0 + std_y * next(z) if std_y > 0 else 0.0)
            conf = d + (0.0 + cfg.conf_noise * next(z) if cfg.conf_noise > 0 else 0.0)
            g_h, g_v, _ = image_to_galvo(theta_h, theta_v, t_x, t_y, alpha,
                                         width, height, limit)
            rows.append((i, g_h, g_v, width_px * alpha, height_px * alpha,
                         min(max(conf, 0.0), 1.0), var_h, var_v, object_id))
        # a view with nothing visible draws this count and, when it is 0
        # (always at fp_rate 0), nothing else: most views are empty
        k = rng.poisson(cfg.fp_rate) if cfg.fp_rate > 0.0 else 0
        if k:
            # rng.uniform(lo, hi) is lo + (hi - lo) * rng.random(), so one
            # draw gives the k false positives' uniforms
            head = (i, theta_h, theta_v, width, height)
            fps += [(*head, *u) for u in rng.random((k, 4)).tolist()]

    def detect_pass(self, views, rng) -> np.ndarray:
        """The detections of a pass's views as one table, with the draws,
        rows and generator end state of ``[detect(v, rng) for v in views]``.

        Below fp_rate 10 numpy's Poisson sampler multiplies uniform doubles
        until the product falls to e^-fp_rate, so a count of 0 is one double
        at most e^-fp_rate: a run of views with nothing visible draws its
        doubles in one call (none at fp_rate 0), and the other views go
        through the per-view core, `_detect`.  From 10 on the sampler is PTRS
        rejection, and every view goes through that core.  The false
        positives become rows in one array expression.
        """
        fp_rate, rows, fps, start = self.cfg.fp_rate, [], [], 0
        ptrs = fp_rate >= 10.0
        for i in [i for i, v in enumerate(views) if v.visible or ptrs] + [len(views)]:
            if fp_rate > 0.0 and i > start:
                self._empty_run(views, start, i, rng, fps)
            if i < len(views):
                self._detect(i, views[i], rng, rows, fps)
            start = i + 1
        return self._table(rows, fps)

    def _table(self, rows: list, fps: list) -> np.ndarray:
        """The table of `_detect`'s rows and false positives, each view's
        false positives after its true detections.  These are one array
        expression over their views and uniforms, with `_model`'s variances
        for a square box at occlusion 0; distances take `math.hypot` per row,
        since `np.hypot` differs from it in the last bit on some offsets."""
        table = np.empty(len(rows) + len(fps), DETECTION_ROW)
        table[:len(rows)] = rows
        if not fps:
            return table
        cfg, alpha = self.cfg, self.alpha
        i, theta_h, theta_v, width, height, u_x, u_y, u_size, u_conf = np.array(fps).T
        t_x, t_y = (width - 1.0) * u_x, (height - 1.0) * u_y
        size = 10.0 + 30.0 * u_size
        off_x, off_y = t_x - width / 2.0, t_y - height / 2.0
        dist_norm = np.array([
            math.hypot(x, y) / (0.5 * math.hypot(w, h)) for x, y, w, h in
            zip(off_x.tolist(), off_y.tolist(), width.tolist(), height.tolist())])
        # at occlusion 0 the occlusion factor is 1.0, and size is at least 10
        var = cfg.sigma_base_deg ** 2 * (1.0 + cfg.k_ctr * dist_norm) * (
            cfg.size_ref_px / size)
        for name, column in zip(DETECTION_ROW.names, (
                i, clamp_angle(theta_h + alpha * off_x, self.limit),
                clamp_angle(theta_v + alpha * off_y, self.limit), size * alpha,
                size * alpha, cfg.fp_conf_cap * u_conf, var, var, -1)):
            table[len(rows):][name] = column
        return table[np.argsort(table["view"], kind="stable")]

    def _empty_run(self, views, start: int, stop: int, rng, fps: list) -> None:
        """Add the false positives of views[start:stop], none with anything
        visible, to `fps`.  Every view draws at least one double, so a draw
        takes the doubles needed now plus one per later view, never one more."""
        e_neg = math.exp(-self.cfg.fp_rate)
        buf = rng.random(stop - start).tolist()
        if max(buf) <= e_neg:
            return
        pos = 0
        for i in range(start, stop):
            later = stop - 1 - i
            k, prod = 0, 1.0
            while True:  # numpy's multiplication loop, over the buffer
                if pos == len(buf):
                    buf, pos = rng.random(1 + later).tolist(), 0
                prod *= buf[pos]
                pos += 1
                if prod <= e_neg:
                    break
                k += 1
            if k:
                if pos + 4 * k > len(buf):
                    buf, pos = buf[pos:] + rng.random(
                        pos + 4 * k - len(buf) + later).tolist(), 0
                flat = iter(buf[pos:pos + 4 * k])
                pos += 4 * k
                head = (i, *views[i][:4])
                fps += [(*head, *u) for u in zip(flat, flat, flat, flat)]

    def likelihood(self, view: View, detections) -> float:
        """View likelihood: best detection confidence, floored so misses survive."""
        if not detections:
            return self.floor
        return max(max(d.confidence for d in detections), self.floor)
