"""Search trials, baselines, and the comparative studies.

A trial spends a total view budget over one or more scan passes, each a
record that four stages fill: draw places particles from the configured prior
(probability map, region probabilities, uniform, or a fixed grid) or from the
last pass's weighted proposal mixture; scan captures a view per particle
and detects the pass's views in one call, as one detection table; merge
folds the table's rows into search windows, matched against ground truth
for recall, average precision, and gaze-deviation metrics; refine reweights
the particles into the next proposal.  The trace is filled in one place,
from each pass record.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .config import (METHODS, ConfigError, DetectorPreset, MethodSpec,
                     ObjectGroupSpec, RegionSpec, ScenarioConfig, SceneConfig,
                     pin_errors, region_parts)
from .detector import SyntheticDetector
from .galvo import capture_view, plan_scan, view_candidates
from .particles import (ParticleSet, build_proposal, initial_sample,
                        normalize_weights, prune_redundant, sample_next,
                        update_weights)
from .ppm import Ppm, allocate_ppm, segment_panorama
from .refinement import SearchWindows, bounds_iou, box_bounds, nms_merge
from .scene import SceneMap, build_scene, left_sum, step_motion


@dataclass
class FoundObject:
    stage: int          # 0 = panorama bootstrap, k >= 1 = scan pass k
    err_x_px: float     # gaze offset from the true center at fixation, view px
    err_y_px: float
    post_var: float     # per-axis-mean variance of the estimate, deg^2
    confidence: float = 0.0  # estimates only improve at >= this confidence


@dataclass
class TrialResult:
    method: str
    budget: int
    recall: float
    ap: float
    found: dict[int, FoundObject]
    n_objects: int
    pre_vars: dict[int, float]
    elapsed_sim_ms: float
    wall_ms: float
    views: int
    moves: int
    vacuous: bool = False


@dataclass
class TrialTrace:
    """Optional per-trial logs: scan order, particles, detections, windows.

    Each log row is a tuple in the column order of its `trial --dump` CSV.
    `ppm` is the probability map the first pass allocated, None for methods
    that allocate none.
    """

    scan: list = field(default_factory=list)
    particles: list = field(default_factory=list)
    detections: list = field(default_factory=list)
    windows: list = field(default_factory=list)
    ppm: Ppm | None = None


def _split_budget(budget: int, iters: int, init_frac: float) -> list[int]:
    """Total budget over passes: init_frac up front, the rest spread evenly
    over at most `iters - 1` later passes, each of at least one view."""
    if budget <= 0:
        return []
    n0 = int(round(budget * init_frac))
    n0 = min(max(n0, 1), budget)
    rest = budget - n0
    later = min(iters - 1, rest)
    if later <= 0:
        return [budget]
    return [n0] + [rest // later + (i < rest % later) for i in range(later)]


def _pano_extent_deg(scene: SceneMap, limit: float) -> tuple[float, float]:
    """Half-extents of the panorama in degrees, clamped to the mirror range."""
    return (min(scene.width * scene.deg_per_px / 2.0, limit),
            min(scene.height * scene.deg_per_px / 2.0, limit))


def _uniform_particles(scene: SceneMap, count: int, rng, sigma0: float,
                       limit: float) -> ParticleSet:
    half_h, half_v = _pano_extent_deg(scene, limit)
    th = rng.uniform(-half_h, half_h, size=count)
    tv = rng.uniform(-half_v, half_v, size=count)
    return ParticleSet.fresh(th, tv, 1.0 / count, sigma0)


def _grid_particles(scene: SceneMap, count: int, sigma0: float,
                    limit: float) -> ParticleSet:
    """The first `count` points, row by row, of an nx-by-ny >= count grid."""
    half_h, half_v = _pano_extent_deg(scene, limit)
    aspect = half_h / half_v
    nx = max(1, int(math.ceil(math.sqrt(count * aspect))))
    ny = max(1, int(math.ceil(count / nx)))
    xs = np.linspace(-half_h, half_h, nx + 2)[1:-1]
    ys = np.linspace(-half_v, half_v, ny + 2)[1:-1]
    gx, gy = np.meshgrid(xs, ys)
    return ParticleSet.fresh(gx.ravel()[:count], gy.ravel()[:count],
                             1.0 / count, sigma0)


def _object_boxes(scene: SceneMap) -> np.ndarray:
    """(M, 4) rows center_h, center_v, width_deg, height_deg of the objects."""
    return np.column_stack((*scene.pano_to_galvo(*scene.centers.T),
                            scene.sizes * scene.deg_per_px))


def _match_objects(boxes: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Per (W, 2) point, the index of the object whose box contains it, else -1.

    Among containing objects the smallest normalized offset wins, ties to
    the first object.
    """
    if not len(boxes):
        return np.full(len(centers), -1)
    off_h = centers[:, 0, None] - boxes[:, 0]
    off_v = centers[:, 1, None] - boxes[:, 1]
    inside = ((np.abs(off_h) <= boxes[:, 2] / 2.0)
              & (np.abs(off_v) <= boxes[:, 3] / 2.0))
    rows, cols = np.nonzero(inside)
    # float_power is libm pow, the same as float ** 2; x * x can differ by
    # an ulp and flip a near-tie
    score = np.full(inside.shape, np.inf)
    score[rows, cols] = (np.float_power(off_h[rows, cols] / boxes[cols, 2], 2.0)
                         + np.float_power(off_v[rows, cols] / boxes[cols, 3], 2.0))
    best = np.argmin(score, axis=1)
    return np.where(inside[np.arange(best.size), best], best, -1)


def _ap_matches(boxes: np.ndarray, centers: np.ndarray, sizes: np.ndarray,
                iou_thr: float = 0.5) -> np.ndarray:
    """Per (W, 2) center and extent, the index of the object with the highest
    IoU >= iou_thr, else -1.  Ties go to the last such object.
    """
    if not len(boxes):
        return np.full(len(centers), -1)
    v = bounds_iou(box_bounds(centers, sizes)[:, None],
                   box_bounds(boxes[:, :2], boxes[:, 2:]))
    v[~(v >= iou_thr)] = -1.0
    last = len(boxes) - 1 - np.argmax(v[:, ::-1], axis=1)
    return np.where(v[np.arange(last.size), last] >= iou_thr, last, -1)


def average_precision_11pt(records, n_gt: int) -> float:
    """11-point interpolated AP over (confidence, matched-object-or-None) records."""
    if n_gt <= 0:
        return 1.0
    claimed: set[int] = set()
    points = []  # (precision, recall) after each record, by falling confidence
    # a stable sort: ties keep record order
    for k, (_, obj) in enumerate(sorted(records, key=lambda rec: -rec[0]), start=1):
        if obj is not None and obj not in claimed:
            claimed.add(obj)
        points.append((len(claimed) / k, len(claimed) / n_gt))
    return left_sum([max((p for p, rc in points if rc >= level / 10.0), default=0.0)
                     for level in range(11)]) / 11.0


def _claim(boxes: np.ndarray, windows: SearchWindows, stage: int,
           found: dict[int, FoundObject], alpha: float,
           ap_records: list | None = None) -> np.ndarray:
    """One stage's windows, in confidence order, claim the objects whose boxes
    hold their centers: the first match per object wins the stage, and a find
    yields only to a window at least as confident, keeping its stage.  Adds
    one (confidence, IoU-matched object index or None) record per window to
    `ap_records` if given; returns each window's match index, -1 for none.
    """
    centers = np.column_stack((windows.center_h, windows.center_v))
    matches = _match_objects(boxes, centers)
    hit = np.flatnonzero(matches >= 0)
    err = (centers[hit] - boxes[matches[hit], :2]) / alpha
    post_var = (windows.radius_h[hit] + windows.radius_v[hit]) / 2.0
    claimed: set[int] = set()
    for j, conf, (err_x, err_y), var in zip(
            matches[hit].tolist(), windows.confidence[hit].tolist(),
            err.tolist(), post_var.tolist()):
        if j in claimed:
            continue
        claimed.add(j)
        old = found.get(j)
        if old is not None and conf < old.confidence:
            continue
        found[j] = FoundObject(stage if old is None else old.stage, err_x,
                               err_y, var, conf)
    if ap_records is not None:
        sizes = np.column_stack((windows.width_deg, windows.height_deg))
        ap_records.extend((conf, None if j < 0 else j) for conf, j in zip(
            windows.confidence.tolist(),
            _ap_matches(boxes, centers, sizes).tolist()))
    return matches


@dataclass
class _Pass:
    """One scan pass as draw, scan and merge fill it: `order` is the tour over
    the particles, `dets` the table `detect_pass` returned, whose `view`
    column is a position in `order`, and `windows` the merged windows, which
    also give each detection row's window."""

    stage: int
    particles: ParticleSet
    ppm: Ppm | None = None
    order: list[int] = field(default_factory=list)
    among: list[tuple] = field(default_factory=list)
    dets: np.ndarray | None = None  # of DETECTION_ROWs
    windows: SearchWindows | None = None


def _sim_ms(views: int, eng) -> float:
    """Simulated time of `views` views: a move and a dwell per view."""
    return views * eng.step_response_ms + views * eng.dwell_ms


def _log_pass(trace: TrialTrace, rec: _Pass, eng) -> None:
    """Add one scan pass's rows to the trace, each scan row timed after its view."""
    if trace.ppm is None:
        trace.ppm = rec.ppm
    p, stage = rec.particles, rec.stage
    theta_h, theta_v = p.theta_h.tolist(), p.theta_v.tolist()
    trace.particles.extend(zip([stage] * len(p), theta_h, theta_v,
                               p.weight.tolist(), p.sigma.tolist()))
    trace.scan.extend((seq, theta_h[idx], theta_v[idx], _sim_ms(seq + 1, eng),
                       len(rec.among[idx]))
                      for seq, idx in enumerate(rec.order, start=len(trace.scan)))
    d, w = rec.dets, rec.windows
    trace.detections.extend((stage, idx, *row) for idx, row in zip(
        np.asarray(rec.order)[d["view"]].tolist(),
        d[["theta_h", "theta_v", "confidence", "var_h", "var_v"]].tolist()))
    trace.windows.extend(zip(
        [stage] * len(w), range(len(w)), w.center_h.tolist(),
        w.center_v.tolist(), w.radius_h.tolist(), w.radius_v.tolist(),
        np.bincount(w.window_of, minlength=len(w)).tolist()))


def _draw(stage: int, n: int, spec: MethodSpec, scene: SceneMap, prior,
          proposal: ParticleSet | None, rng, cfg: ScenarioConfig) -> _Pass:
    """A pass of `n` particles from the last pass's proposal, else from the
    method's prior; ppm and region allocate a map from `prior`'s grid and finds."""
    eng = cfg.engine
    limit = eng.galvo_limit_deg
    if proposal is not None:
        return _Pass(stage, sample_next(proposal, n, rng, limit=limit))
    if spec.init in ("ppm", "region"):
        ppm = allocate_ppm(scene, *prior, cfg.experiment.target, n,
                           r_scale=eng.subregion_scale)
        return _Pass(stage, initial_sample(ppm, scene, rng, sigma0=eng.sigma0_deg,
                                           limit=limit), ppm)
    if spec.init == "grid":
        return _Pass(stage, _grid_particles(scene, n, eng.sigma0_deg, limit))
    return _Pass(stage, _uniform_particles(scene, n, rng, eng.sigma0_deg, limit))


def _scan(rec: _Pass, scene: SceneMap, pose: tuple[float, float], detector,
          rng, eng) -> tuple[float, float]:
    """One capture per particle along a tour from `pose` and one `detect_pass`
    over the views in tour order; returns the last gaze."""
    p = rec.particles
    rec.order = plan_scan(pose, np.column_stack((p.theta_h, p.theta_v)))
    theta_h, theta_v = p.theta_h.tolist(), p.theta_v.tolist()
    view_w, view_h, alpha = eng.view_w, eng.view_h, eng.alpha
    rec.among = among = view_candidates(scene, p.theta_h, p.theta_v, view_w,
                                        view_h, alpha)
    # capture_view stays a module-global lookup, so a wrapper bound here
    # sees every view
    views = [capture_view(scene, theta_h[idx], theta_v[idx], view_w, view_h,
                          alpha, among[idx]) for idx in rec.order]
    rec.dets = detector.detect_pass(views, rng)
    last = rec.order[-1]
    return theta_h[last], theta_v[last]


def _merge(rec: _Pass, boxes: np.ndarray, spec: MethodSpec, eng, found: dict,
           pre_vars: dict, ap_records: list | None) -> None:
    """Merge the pass's detections into search windows that claim objects by
    their `boxes`; an object's first row gives its pre-refinement variance."""
    d = rec.dets
    for j, var in zip(d["object_id"].tolist(),
                      ((d["var_h"] + d["var_v"]) / 2.0).tolist()):
        if j >= 0:
            pre_vars.setdefault(j, var)
    rec.windows = nms_merge(d, iou_keep=eng.iou_keep, sigma_t=eng.sigma_t,
                            vote=spec.voting, limit=eng.galvo_limit_deg)
    _claim(boxes, rec.windows, rec.stage, found, eng.alpha, ap_records)


def _refine(rec: _Pass, spec: MethodSpec, eng) -> ParticleSet | None:
    """The next pass's proposal, or None when no weight survives and the
    next pass reseeds from the prior."""
    d, windows, p = rec.dets, rec.windows, rec.particles
    theta_h, theta_v, sigmas = p.theta_h.copy(), p.theta_v.copy(), p.sigma.copy()
    # without detections a view keeps the likelihood floor
    likes = np.full(len(p), eng.likelihood_floor)
    # each detecting view's best row, the first of equals, and its weight
    starts = np.flatnonzero(np.diff(d["view"], prepend=-1))
    by_conf = np.argsort(-d["confidence"], kind="stable")
    best = by_conf[np.argsort(d["view"][by_conf], kind="stable")][starts]
    idx = np.asarray(rec.order)[d["view"][best]]
    likes[idx] = np.maximum(d["confidence"][best], eng.likelihood_floor)
    # coordinate refinement: a detecting particle re-centers on the
    # search window its best row merged into, so the next pass gazes at
    # the refined coordinates instead of the old offset
    win = windows.window_of[best]
    theta_h[idx], theta_v[idx] = windows.center_h[win], windows.center_v[win]
    if spec.adaptive_sigma:
        sigma = np.sqrt((d["var_h"][best] + d["var_v"][best]) / 2.0)
        sigmas[idx] = np.minimum(np.maximum(sigma, eng.sigma_min_deg),
                                 eng.sigma_max_deg)
    particles = update_weights(ParticleSet(theta_h, theta_v, p.weight, sigmas),
                               likes)
    try:
        particles = normalize_weights(particles)
    except ValueError:
        return None
    return build_proposal(prune_redundant(particles, eng.fov_deg,
                                          overlap_frac=eng.overlap_frac))


def run_trial(scene: SceneMap, method: str, budget: int, iters: int, seed,
              cfg: ScenarioConfig, *, spec: MethodSpec | None = None,
              trace: TrialTrace | None = None) -> TrialResult:
    """Run one search trial on a prebuilt world.

    `spec` gives the method's machinery; by default it is looked up from
    `method` in METHODS, otherwise `method` only names the trial.  A
    `trace` collects the trial's logs.
    """
    if spec is None:
        spec = METHODS.get(method)
        if spec is None:
            raise ConfigError(f"unknown method {method!r}; expected one of "
                              f"{sorted(METHODS)}")
    t_start = time.perf_counter()
    eng = cfg.engine
    rng = np.random.default_rng(seed)
    detector = SyntheticDetector(cfg.detector, alpha=eng.alpha,
                                 limit=eng.galvo_limit_deg, floor=eng.likelihood_floor)
    n_objects = len(scene.centers)
    found: dict[int, FoundObject] = {}
    pre_vars: dict[int, float] = {}
    ap_records: list[tuple[float, int | None]] = []
    rounds = _split_budget(budget, 1 if spec.resample == "none" else iters,
                           eng.init_frac)

    prior = None
    boxes = _object_boxes(scene)  # of each world snapshot, computed once
    if spec.init in ("ppm", "region"):
        grid, dets_pano = segment_panorama(scene, cfg.noise, rng)
        prior = (grid, [] if spec.init == "region" else dets_pano)
    if spec.init == "ppm":
        # the wide camera's detections are stage-0 windows: both radii are
        # the sub-region prior variance, the extent is the object's box
        var = [(eng.subregion_scale * det.sigma_o * scene.deg_per_px) ** 2
               for det in dets_pano]
        rows = [(*scene.pano_to_galvo(*det.center), v, v, det.confidence,
                 *boxes[det.object_id, 2:]) for det, v in zip(dets_pano, var)]
        windows = SearchWindows(*np.array(rows).reshape(-1, 7).T,
                                np.zeros(0, dtype=np.intp))
        matches = _claim(boxes, windows, 0, found, eng.alpha, ap_records)
        for j, v in zip(matches.tolist(), var):
            if j >= 0:
                pre_vars.setdefault(j, v)

    pose = (0.0, 0.0)  # the last gaze
    proposal = None
    for k, n_k in enumerate(rounds):
        if k > 0:
            scene = step_motion(scene, 1)
            boxes = _object_boxes(scene)
        last = k == len(rounds) - 1
        rec = _draw(k + 1, n_k, spec, scene, prior, proposal, rng, cfg)
        pose = _scan(rec, scene, pose, detector, rng, eng)
        _merge(rec, boxes, spec, eng, found, pre_vars, ap_records if last else None)
        if trace is not None:
            _log_pass(trace, rec, eng)
        if spec.resample == "proposal" and not last:
            proposal = _refine(rec, spec, eng)

    views = sum(rounds)
    vacuous = n_objects == 0
    recall = 1.0 if vacuous else len(found) / n_objects
    ap = average_precision_11pt(ap_records, n_objects)
    wall_ms = (time.perf_counter() - t_start) * 1e3
    return TrialResult(method=method, budget=budget,
                       recall=recall, ap=ap, found=found, n_objects=n_objects,
                       pre_vars=pre_vars, elapsed_sim_ms=_sim_ms(views, eng),
                       wall_ms=wall_ms, views=views, moves=views,
                       vacuous=vacuous)


# ---------------------------------------------------------------------------
# Default scene families
# ---------------------------------------------------------------------------

_VARIANTS = [(0.18, 380), (0.20, 420), (0.22, 460), (0.24, 400), (0.26, 440)]


def default_scene_variants(base: SceneConfig, count: int) -> list[SceneConfig]:
    """Deterministic family of scene configs varying the high-prior region,
    each rectangle kept inside the panorama; a variant that would overlap
    another region or leave a pinned group no region keeps the configured
    rectangle."""
    out = []
    for i in range(count):
        frac, y = _VARIANTS[i % len(_VARIANTS)]
        cfg = copy.deepcopy(base)
        rect_h = min(360, cfg.height)
        y = min(y, cfg.height - rect_h)
        rect_w = int(round(frac * cfg.width * cfg.height / rect_h))
        rect_w = max(1, min(rect_w, cfg.width))
        x = (cfg.width - rect_w) // 2 + 20 * (i // len(_VARIANTS))
        x = min(x, cfg.width - rect_w)
        clear = all(x >= px + pw or px >= x + rect_w or y >= py + ph or py >= y + rect_h
                    for px, py, pw, ph in (r.rect for r in cfg.regions[1:]))
        if cfg.regions and clear:
            configured = cfg.regions[0]
            cfg.regions[0] = replace(configured, rect=(x, y, rect_w, rect_h))
            if pin_errors(cfg, {label for label, _, _ in region_parts(cfg)}):
                cfg.regions[0] = configured
        out.append(cfg)
    return out


def proportion_scene(base: SceneConfig, proportion: float) -> SceneConfig:
    """Scene whose high-prior region covers the given panorama fraction."""
    cfg = copy.deepcopy(base)
    rect_w = max(1, min(cfg.width, int(round(proportion * cfg.width))))
    label = cfg.regions[0].label if cfg.regions else "road"
    cfg.regions = [RegionSpec(label=label, rect=(0, 0, rect_w, cfg.height))]
    # at full proportion the background vanishes, so the outlier moves inside
    outlier_home = cfg.background_label if rect_w < cfg.width else label
    # rect-pinned groups first: a fixed seed then yields the same relative
    # placements at every proportion, pairing the sweep's worlds
    cfg.groups = [
        ObjectGroupSpec(class_name="car", count=12, size=(48.0, 28.0),
                        speed=2.0, region_label=label),
        ObjectGroupSpec(class_name="car", count=2, size=(120.0, 60.0),
                        speed=2.0, region_label=label),
        ObjectGroupSpec(class_name="car", count=1, size=(120.0, 60.0),
                        speed=2.0, region_label=outlier_home),
    ]
    return cfg


def deviation_scene(base: SceneConfig, mover_speed: float = 6.0) -> SceneConfig:
    """Default scene split into static targets plus three fast movers,
    pinned to the first region (the background when there is none); the
    background's one car moves to that region when regions cover it all."""
    cfg = copy.deepcopy(base)
    home = cfg.regions[0].label if cfg.regions else cfg.background_label
    outlier_home = home if len(region_parts(cfg)) == len(cfg.regions) else cfg.background_label
    cfg.groups = [
        ObjectGroupSpec(class_name="car", count=2, size=(120.0, 60.0),
                        speed=0.0, region_label=home),
        ObjectGroupSpec(class_name="car", count=1, size=(120.0, 60.0),
                        speed=0.0, region_label=outlier_home),
        ObjectGroupSpec(class_name="car", count=3, size=(48.0, 28.0),
                        speed=0.0, region_label=home),
        ObjectGroupSpec(class_name="car", count=3, size=(48.0, 28.0),
                        speed=mover_speed, region_label=home),
    ]
    return cfg


# ---------------------------------------------------------------------------
# Studies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrialJob:
    scene_cfg: SceneConfig
    scene_seed: tuple[int, ...]
    method: str
    budget: int
    trial_seed: tuple[int, ...]
    cfg: ScenarioConfig  # also gives the pass count and the detector
    spec: MethodSpec | None = None


_WORLDS: dict = {}


def _run_job(job: TrialJob) -> TrialResult:
    # the repr names every field, so two different worlds never share a key
    key = (repr(job.scene_cfg), job.scene_seed)
    scene = _WORLDS.pop(key, None)
    if scene is None:
        scene = build_scene(job.scene_cfg, list(job.scene_seed))
        if len(_WORLDS) > 256:  # evict the least recently used world
            del _WORLDS[next(iter(_WORLDS))]
    _WORLDS[key] = scene  # re-inserted last: the dict runs oldest use first
    return run_trial(scene, job.method, job.budget, job.cfg.engine.iterations,
                     list(job.trial_seed), job.cfg, spec=job.spec)


def run_jobs(cells: list[tuple], n_jobs: int = 1) -> list[tuple]:
    """Run a study's cells, each a (row key, [TrialJob, ...]) pair; return
    (row key, results in job order) per cell, in cell order.  `pool.map`
    keeps job order, so the results do not depend on the worker count."""
    jobs = [job for _, cell_jobs in cells for job in cell_jobs]
    if not jobs:
        return []
    if n_jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            results = list(pool.map(_run_job, jobs, chunksize=8))
    else:
        results = [_run_job(j) for j in jobs]
    done = iter(results)
    return [(key, [next(done) for _ in cell_jobs]) for key, cell_jobs in cells]


def _stats(group: list[TrialResult]) -> dict:
    """Trial count, recall mean and spread, and mean AP of a cell's trials."""
    recalls = [r.recall for r in group]
    return {"n_trials": len(group), "mean_recall": float(np.mean(recalls)),
            "std_recall": float(np.std(recalls)),
            "mean_ap": float(np.mean([r.ap for r in group]))}


def recall_curve(scene_cfgs: list[SceneConfig], methods: list[str],
                 budgets: list[int], seeds: int, cfg: ScenarioConfig,
                 n_jobs: int = 1) -> list[dict]:
    """Mean recall per (method, budget) over seeds x scenes."""
    cells = [((method, budget),
              [TrialJob(scene_cfg=scene_cfg, scene_seed=(11, si, seed),
                        method=method, budget=budget, cfg=cfg,
                        trial_seed=(13, si, seed, mi, budget))
               for si, scene_cfg in enumerate(scene_cfgs) for seed in range(seeds)])
             for mi, method in enumerate(methods) for budget in budgets]
    return [{"method": method, "budget": budget, **_stats(group)}
            for (method, budget), group in run_jobs(cells, n_jobs)]


def proportion_sweep(base_scene: SceneConfig, proportions: list[float],
                     methods: list[str], seeds: int, budget: int,
                     cfg: ScenarioConfig, n_jobs: int = 1) -> list[dict]:
    """Mean recall per (proportion, method).  The methods share each seed's
    world, but each draws its own trial stream."""
    scenes = [proportion_scene(base_scene, p) for p in proportions]
    cells = [((proportion, method),
              [TrialJob(scene_cfg=scene, scene_seed=(17, seed), method=method,
                        budget=budget, trial_seed=(19, seed, mi), cfg=cfg)
               for seed in range(seeds)])
             for proportion, scene in zip(proportions, scenes)
             for mi, method in enumerate(methods)]
    return [{"proportion": proportion, "method": method, **_stats(group)}
            for (proportion, method), group in run_jobs(cells, n_jobs)]


def ablation(cfg: ScenarioConfig, n_jobs: int = 1) -> list[dict]:
    """Recall/AP with the probability map enabled vs disabled, per detector preset."""
    presets = cfg.presets or [DetectorPreset("default", cfg.detector.base_recall,
                                             cfg.detector.sigma_base_deg)]
    cfgs = [replace(cfg, detector=replace(cfg.detector, base_recall=p.base_recall,
                                          sigma_base_deg=p.sigma_base_deg))
            for p in presets]
    arms = (("with", METHODS["ppm_ps"]),
            # the "prior disabled" arm: same searching machinery, no map
            ("without", MethodSpec("uniform", True, True, "proposal")))
    cells = [((preset.name, arm),
              [TrialJob(scene_cfg=cfg.scene, scene_seed=(23, seed),
                        method=f"ppm_ps[{arm}]", budget=cfg.experiment.ablation_budget,
                        trial_seed=(29, di, ai, seed), cfg=preset_cfg, spec=spec)
               for seed in range(cfg.experiment.ablation_seeds)])
             for di, (preset, preset_cfg) in enumerate(zip(presets, cfgs))
             for ai, (arm, spec) in enumerate(arms)]
    return [{"preset": name, "ppm": arm, **_stats(group),
             "views_per_sim_s": sum(r.views for r in group) / max(
                 left_sum([r.elapsed_sim_ms for r in group]) / 1e3, 1e-9)}
            for (name, arm), group in run_jobs(cells, n_jobs)]


def deviation_study(scene_cfg: SceneConfig, seeds: int, budget: int,
                    cfg: ScenarioConfig, n_jobs: int = 1) -> list[dict]:
    """Per-target gaze deviation with variance voting on vs off.

    Both arms run the full iterative pipeline and differ only in the voting
    step, but they share just each seed's world: their trial streams differ,
    so a deviation delta holds trial noise besides the voting's effect.
    """
    cfg = copy.deepcopy(cfg)
    cfg.engine.init_frac = min(cfg.engine.init_frac, 0.5)  # leave room to iterate
    cfg.engine.iterations = 4  # passes per deviation trial, whatever the config says
    arms = (("on", METHODS["ppm_ps"]),
            # the no-voting arm: full pipeline, voting alone toggled off
            ("off", MethodSpec("ppm", False, True, "proposal")))
    cells = [(arm, [TrialJob(scene_cfg=scene_cfg, scene_seed=(31, seed),
                             method=f"ppm_ps[vote={arm}]", budget=budget,
                             trial_seed=(37, vi, seed), cfg=cfg, spec=spec)
                    for seed in range(seeds)])
             for vi, (arm, spec) in enumerate(arms)]
    # objects are placed group by group, and a nonzero speed always gives a
    # nonzero velocity component
    moving = [g.speed != 0.0 for g in scene_cfg.groups for _ in range(g.count)]
    rows = []
    for arm, group in run_jobs(cells, n_jobs):
        finds: list[list] = [[] for _ in moving]  # per target: (find, pre_var)
        for res in group:
            for target, rec in res.found.items():
                finds[target].append((rec, res.pre_vars.get(target)))
        for target, target_finds in enumerate(finds):
            dxs = [abs(rec.err_x_px) for rec, _ in target_finds]
            dys = [abs(rec.err_y_px) for rec, _ in target_finds]
            posts = [rec.post_var for rec, _ in target_finds]
            pres = [pre for _, pre in target_finds if pre is not None]
            rows.append({
                "target": target, "moving": int(moving[target]), "voting": arm,
                "n_seeds": len(group), "found_rate": len(dxs) / len(group),
                "mean_abs_dx_px": float(np.mean(dxs)) if dxs else float("nan"),
                "mean_abs_dy_px": float(np.mean(dys)) if dys else float("nan"),
                "mean_pre_var": float(np.mean(pres)) if pres else float("nan"),
                "mean_post_var": float(np.mean(posts)) if posts else float("nan"),
            })
    return rows
