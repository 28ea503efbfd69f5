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
from .galvo import View, image_to_galvo


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
    # min(1.0, s), max(0.0, c) and max(w, 1.0) as comparisons in the
    # builtins' argument order, so NaN and -0.0 come out as there
    size_ref = cfg.size_ref_px
    size_factor = s if (s := math.sqrt(width_px * height_px) / size_ref) < 1.0 else 1.0
    center_factor = c if (c := 1.0 - cfg.center_falloff * dist_norm) > 0.0 else 0.0
    base = cfg.sigma_base_deg ** 2
    common = (1.0 + cfg.k_occ * occlusion) * (1.0 + cfg.k_ctr * dist_norm)
    return (cfg.base_recall * (1.0 - occlusion) * size_factor * center_factor,
            base * common * (size_ref / (1.0 if 1.0 > width_px else width_px)),
            base * common * (size_ref / (1.0 if 1.0 > height_px else height_px)))


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
        rows = []
        self._detect(0, view, np.random.default_rng(seed), rows)
        return [Detection(*row[1:8], None if row[8] < 0 else row[8])
                for row in np.array(rows, DETECTION_ROW).tolist()]

    def _detect(self, i: int, view: View, rng, rows: list) -> None:
        """Detect view `i`: add a table row per true detection, then one per
        false positive, to `rows`."""
        cfg, alpha, limit = self.cfg, self.alpha, self.limit
        theta_h, theta_v, width, height, visible = view
        if visible:
            c_x, c_y = width / 2.0, height / 2.0
            hypot, sqrt, random, normal = math.hypot, math.sqrt, rng.random, rng.standard_normal
            loc_px, loc_scale, conf_noise = cfg.loc_noise_px, cfg.loc_noise_scale, cfg.conf_noise
            half_diag = 0.5 * hypot(width, height)
        for object_id, x_px, y_px, width_px, height_px, occlusion in visible:
            dist_norm = hypot(x_px - c_x, y_px - c_y) / half_diag
            d, var_h, var_v = _model(cfg, occlusion, width_px, height_px,
                                     dist_norm)
            if random() >= d:
                continue
            std_x = loc_px + sqrt(var_h) / alpha * loc_scale
            std_y = loc_px + sqrt(var_v) / alpha * loc_scale
            # rng.normal(0.0, s) is 0.0 + s * z on the same standard normal
            # z, so one call draws the k <= 3 nonzero-std noises in order
            z = iter(normal((std_x > 0) + (std_y > 0) + (conf_noise > 0)).tolist())
            t_x = x_px + (0.0 + std_x * next(z) if std_x > 0 else 0.0)
            t_y = y_px + (0.0 + std_y * next(z) if std_y > 0 else 0.0)
            conf = d + (0.0 + conf_noise * next(z) if conf_noise > 0 else 0.0)
            g_h, g_v, _ = image_to_galvo(theta_h, theta_v, t_x, t_y, alpha,
                                         width, height, limit)
            # min(max(conf, 0.0), 1.0), as image_to_galvo clamps
            conf = 1.0 if 1.0 < (conf := 0.0 if 0.0 > conf else conf) else conf
            rows.append((i, g_h, g_v, width_px * alpha, height_px * alpha,
                         conf, var_h, var_v, object_id))
        # a view with nothing visible draws this count and, when it is 0
        # (always at fp_rate 0), nothing else: most views are empty
        k = rng.poisson(cfg.fp_rate) if cfg.fp_rate > 0.0 else 0
        if k:
            # rng.uniform(lo, hi) is lo + (hi - lo) * rng.random(), so one
            # draw gives the k false positives' uniforms
            self._false_positives(i, view, rng.random((k, 4)).tolist(), rows)

    def _false_positives(self, i: int, view: View, uniforms, rows: list) -> None:
        """Add a table row to `rows` per false positive of view `i`, one per
        tuple of the four uniforms of its t_x, t_y, size and confidence: a
        square box at occlusion 0, through the true detections' `_model` and
        `image_to_galvo`."""
        cfg, alpha, limit = self.cfg, self.alpha, self.limit
        theta_h, theta_v, width, height, _ = view
        c_x, c_y = width / 2.0, height / 2.0
        half_diag = 0.5 * math.hypot(width, height)
        for u_x, u_y, u_size, u_conf in uniforms:
            t_x, t_y = (width - 1.0) * u_x, (height - 1.0) * u_y
            size = 10.0 + 30.0 * u_size
            _, var_h, var_v = _model(cfg, 0.0, size, size,
                                     math.hypot(t_x - c_x, t_y - c_y) / half_diag)
            g_h, g_v, _ = image_to_galvo(theta_h, theta_v, t_x, t_y, alpha,
                                         width, height, limit)
            rows.append((i, g_h, g_v, size * alpha, size * alpha,
                         cfg.fp_conf_cap * u_conf, var_h, var_v, -1))

    def detect_pass(self, views, rng) -> np.ndarray:
        """The detections of a pass's views as one table, with the draws,
        rows and generator end state of ``[detect(v, rng) for v in views]``.

        Below fp_rate 10 numpy's Poisson sampler multiplies uniform doubles
        until the product falls to e^-fp_rate, so a count of 0 is one double
        at most e^-fp_rate: a run of views with nothing visible draws its
        doubles in one call (none at fp_rate 0), and the other views go
        through the per-view core, `_detect`.  From 10 on the sampler is PTRS
        rejection, and every view goes through that core.  Both add their rows
        in view order, each view's false positives after its true detections.
        """
        fp_rate, rows, start = self.cfg.fp_rate, [], 0
        ptrs = fp_rate >= 10.0
        for i in [i for i, v in enumerate(views) if v.visible or ptrs] + [len(views)]:
            if fp_rate > 0.0 and i > start:
                self._empty_run(views, start, i, rng, rows)
            if i < len(views):
                self._detect(i, views[i], rng, rows)
            start = i + 1
        return np.array(rows, DETECTION_ROW)

    def _empty_run(self, views, start: int, stop: int, rng, rows: list) -> None:
        """Add the false-positive rows of views[start:stop], none with anything
        visible, to `rows`.  Every view draws at least one double, so a draw
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
                self._false_positives(i, views[i], zip(flat, flat, flat, flat), rows)

    def likelihood(self, view: View, detections) -> float:
        """View likelihood: best detection confidence, floored so misses survive."""
        if not detections:
            return self.floor
        return max(max(d.confidence for d in detections), self.floor)
