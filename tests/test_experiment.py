import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panosearch import experiment
from panosearch.config import (METHODS, ConfigError, ObjectGroupSpec,
                               RegionSpec, SceneConfig, SegNoiseConfig,
                               default_scenario)
from panosearch.detector import Detection
from panosearch.experiment import (FoundObject, TrialTrace, _ap_matches, _claim,
                                   _match_objects, _object_boxes, _split_budget,
                                   average_precision_11pt,
                                   default_scene_variants, deviation_scene,
                                   deviation_study, proportion_sweep,
                                   recall_curve, run_trial)
from panosearch.galvo import capture_view
from panosearch.refinement import SearchWindow
from panosearch.scene import (SceneMap, build_scene, object_columns,
                              step_motion)


@pytest.fixture(scope="module")
def scenario():
    return default_scenario()


@pytest.fixture(scope="module")
def zero_noise_scenario():
    cfg = default_scenario()
    cfg.noise = SegNoiseConfig()
    return cfg


def test_budget_zero_ppm_recall_is_pano_share(zero_noise_scenario):
    scene = build_scene(zero_noise_scenario.scene, seed=5)
    result = run_trial(scene, "ppm_ps", 0, 1, seed=0, cfg=zero_noise_scenario)
    assert result.recall == 3 / 9
    assert all(rec.stage == 0 for rec in result.found.values())


def test_budget_zero_mpf_recall_is_zero(scenario):
    scene = build_scene(scenario.scene, seed=5)
    result = run_trial(scene, "mpf", 0, 1, seed=0, cfg=scenario)
    assert result.recall == 0.0
    assert result.views == 0


def test_empty_scene_vacuous_recall(scenario):
    cfg = SceneConfig(regions=[], class_priors={"car": {"field": 1.0}})
    scene = build_scene(cfg, seed=0)
    result = run_trial(scene, "mpf", 50, 1, seed=0, cfg=scenario)
    assert result.vacuous
    assert result.recall == 1.0


def test_unknown_method_rejected(scenario):
    scene = build_scene(scenario.scene, seed=0)
    with pytest.raises(ConfigError, match="unknown method"):
        run_trial(scene, "magic", 10, 1, seed=0, cfg=scenario)


def test_elapsed_time_model_exact(scenario):
    scene = build_scene(scenario.scene, seed=1)
    result = run_trial(scene, "ppm_ps", 137, 1, seed=4, cfg=scenario)
    eng = scenario.engine
    assert result.views == 137
    assert result.moves == 137
    assert result.elapsed_sim_ms == result.moves * eng.step_response_ms + \
        result.views * eng.dwell_ms


def test_scan_log_elapsed_time_is_the_trial_model(scenario):
    # 5 * (0.1 + 0.2) is 1.5000000000000002, 5 * 0.1 + 5 * 0.2 is 1.5: each
    # row, over both passes, takes the trial's expression for its view count
    cfg = dataclasses.replace(scenario, engine=dataclasses.replace(
        scenario.engine, step_response_ms=0.1, dwell_ms=0.2))
    trace = TrialTrace()
    result = run_trial(build_scene(cfg.scene, seed=1), "ppm_ps", 5, 2, seed=0,
                       cfg=cfg, trace=trace)
    assert [row[3] for row in trace.scan] == [k * 0.1 + k * 0.2
                                              for k in range(1, 6)]
    assert trace.scan[-1][3] == result.elapsed_sim_ms == 1.5
    assert len({row[0] for row in trace.particles}) == 2


def test_run_trial_deterministic(scenario):
    scene = build_scene(scenario.scene, seed=2)
    a = run_trial(scene, "ppm_ps", 150, 2, seed=9, cfg=scenario)
    b = run_trial(scene, "ppm_ps", 150, 2, seed=9, cfg=scenario)
    assert a.recall == b.recall
    assert a.ap == b.ap
    assert a.found == b.found
    assert a.elapsed_sim_ms == b.elapsed_sim_ms


@pytest.mark.parametrize("method", sorted(METHODS))
def test_tracing_leaves_the_trial_unchanged(scenario, method):
    # noisy labels and frequent false positives over three passes: the trace
    # logs every pass's record, and logging may neither draw nor decide
    cfg = dataclasses.replace(
        scenario, noise=dataclasses.replace(scenario.noise, label_flip=0.05),
        detector=dataclasses.replace(scenario.detector, fp_rate=0.5))
    for world_seed, seed in ((1, 3), (2, 8), (5, 0)):
        scene = build_scene(cfg.scene, seed=world_seed)
        trace = TrialTrace()
        traced = run_trial(scene, method, 150, 3, seed=seed, cfg=cfg, trace=trace)
        plain = run_trial(scene, method, 150, 3, seed=seed, cfg=cfg)
        assert len(trace.scan) == len(trace.particles) == 150
        assert trace.detections
        # wall_ms is the one field that is timing, not a result
        assert dataclasses.replace(traced, wall_ms=0.0) == \
            dataclasses.replace(plain, wall_ms=0.0)


@pytest.mark.parametrize("method", sorted(METHODS))
def test_dump_logs_agree(scenario, method):
    # every pass's logs come from its one record: its windows hold its
    # detections, which name its particles, and each scan row counts what
    # capture_view sees at that gaze on the pass's moved world
    cfg = dataclasses.replace(
        scenario, noise=dataclasses.replace(scenario.noise, label_flip=0.05),
        detector=dataclasses.replace(scenario.detector, fp_rate=0.5))
    eng = cfg.engine
    worlds = [build_scene(cfg.scene, seed=1)]
    trace = TrialTrace()
    run_trial(worlds[0], method, 150, 3, seed=3, cfg=cfg, trace=trace)
    stages = [row[0] for row in trace.particles]
    assert stages == sorted(stages) and len(trace.scan) == len(stages) == 150
    assert trace.detections and trace.windows
    for stage in set(stages):
        dets = [row for row in trace.detections if row[0] == stage]
        assert sum(row[6] for row in trace.windows if row[0] == stage) == len(dets)
        assert all(0 <= row[1] < stages.count(stage) for row in dets)
    while len(worlds) < stages[-1]:
        worlds.append(step_motion(worlds[-1], 1))
    n_visible = [row[4] for row in trace.scan]
    assert any(n_visible)
    assert n_visible == [len(capture_view(worlds[stage - 1], th, tv, eng.view_w,
                                          eng.view_h, eng.alpha).visible)
                         for stage, (_, th, tv, *_) in zip(stages, trace.scan)]


def per_view_pass(detector, views, rng):
    """The reference detect_pass: one detect call per view, in view order."""
    return [(i, dets) for i, view in enumerate(views)
            if (dets := detector.detect(view, rng))]


def test_confidence_ties_keep_the_first_detection(scenario, monkeypatch):
    # two boxes of equal confidence per visible object: the first one, with
    # the smaller variances, sets the particle's adaptive sigma
    first_sigma, second_sigma = 0.2, 0.5

    class TwinBoxes:
        def __init__(self, *args, **kwargs):
            pass

        def detect(self, view, seed):
            return [Detection(view.theta_h, view.theta_v, 0.1, 0.1, 0.8,
                              var, var, object_id=v.object_id)
                    for v in view.visible
                    for var in (first_sigma ** 2, second_sigma ** 2)]

        def detect_pass(self, views, seed):
            return per_view_pass(self, views, seed)

        def likelihood(self, view, detections):
            return 1.0 if detections else 1e-3

    monkeypatch.setattr(experiment, "SyntheticDetector", TwinBoxes)
    trace = TrialTrace()
    run_trial(build_scene(scenario.scene, seed=1), "ppm_ps", 200, 2, seed=3,
              cfg=scenario, trace=trace)
    stage_two = {sigma for stage, *_, sigma in trace.particles if stage == 2}
    assert first_sigma in stage_two
    assert stage_two <= {first_sigma, scenario.engine.sigma0_deg}


@pytest.mark.parametrize("fp_rate", [0.0, 0.01, 0.5, 9.99])
def test_detect_pass_runs_the_trials_of_per_view_detect(scenario, monkeypatch,
                                                        fp_rate):
    cfg = dataclasses.replace(scenario, detector=dataclasses.replace(
        scenario.detector, fp_rate=fp_rate))

    def trials():
        out = []
        for seed in (1, 2):
            scene = build_scene(cfg.scene, seed=seed)
            for method in METHODS:
                trace = TrialTrace()
                res = run_trial(scene, method, 150, 3, seed, cfg, trace=trace)
                ppm = trace.ppm
                out.append(repr((dataclasses.replace(res, wall_ms=0.0),
                                 dataclasses.replace(trace, ppm=None))))
                out.append(None if ppm is None else (
                    repr(dataclasses.replace(ppm, label_grid=None)),
                    ppm.label_grid.tobytes()))
        return out

    batched = trials()
    monkeypatch.setattr(experiment.SyntheticDetector, "detect_pass",
                        per_view_pass)
    assert trials() == batched


def test_budget_split_semantics():
    assert _split_budget(0, 3, 0.85) == []
    assert _split_budget(100, 1, 0.85) == [100]
    rounds = _split_budget(100, 3, 0.85)
    assert sum(rounds) == 100
    assert rounds[0] == 85
    assert _split_budget(1, 4, 0.85) == [1]


def test_split_budget_runs_only_passes_the_budget_can_fill():
    assert _split_budget(20, 40, 0.85) == _split_budget(20, 4, 0.85) \
        == [17, 1, 1, 1]
    rounds = _split_budget(400, 10**6, 0.85)
    assert sum(rounds) == 400
    assert 0 not in rounds and len(rounds) <= 400


def test_passes_beyond_the_budget_change_no_result(scenario):
    # both calls run passes [17, 1, 1, 1]; the last of them must reach AP
    for seed in range(40):
        scene = build_scene(scenario.scene, [11, 0, seed])
        for method in scenario.experiment.methods:
            many = run_trial(scene, method, 20, 40, seed, scenario)
            few = run_trial(scene, method, 20, 4, seed, scenario)
            assert (many.recall, many.ap) == (few.recall, few.ap), (method, seed)


def test_multi_round_budget_consumed_exactly(scenario):
    scene = build_scene(scenario.scene, seed=3)
    result = run_trial(scene, "ppm_ps", 120, 4, seed=2, cfg=scenario)
    assert result.views == 120


# --- average precision ---------------------------------------------------------

def brute_force_ap(records, n_gt):
    # independent implementation: rank, greedy claim, 11-point interpolation
    order = sorted(range(len(records)), key=lambda i: (-records[i][0], i))
    seen = set()
    points = []
    tp = 0
    for rank, i in enumerate(order, start=1):
        obj = records[i][1]
        if obj is not None and obj not in seen:
            seen.add(obj)
            tp += 1
        points.append((tp / n_gt, tp / rank))
    total = 0.0
    for level in [k / 10 for k in range(11)]:
        best = 0.0
        for recall, precision in points:
            if recall >= level and precision > best:
                best = precision
        total += best
    return total / 11


def test_ap_hand_case():
    # 3 of 9 found with perfect confidence ordering and no false positives
    records = [(0.9, 0), (0.8, 1), (0.7, 2)]
    assert average_precision_11pt(records, 9) == pytest.approx(4 / 11)


def test_ap_matches_brute_force_on_small_sets():
    rng = np.random.default_rng(8)
    for _ in range(300):
        n_gt = int(rng.integers(1, 6))
        n_det = int(rng.integers(0, 10))
        records = []
        for _ in range(n_det):
            obj = int(rng.integers(0, n_gt + 2))
            records.append((float(rng.uniform(0, 1)),
                            obj if obj < n_gt else None))
        got = average_precision_11pt(records, n_gt)
        assert got == pytest.approx(brute_force_ap(records, n_gt), abs=1e-12)


def test_ap_duplicates_count_as_false_positives():
    records = [(0.9, 0), (0.8, 0)]
    assert average_precision_11pt(records, 1) == pytest.approx(1.0)
    records = [(0.9, None), (0.8, 0)]
    assert average_precision_11pt(records, 1) == pytest.approx(0.5)


# --- batched ground-truth matching against the scalar loops --------------------------

def _object_angular_box(scene, obj):
    c_h, c_v = scene.pano_to_galvo(*obj.center)
    return c_h, c_v, obj.size[0] * scene.deg_per_px, obj.size[1] * scene.deg_per_px


def reference_match_object(scene, center_h, center_v):
    """The original point matcher: containing box, closest first."""
    best = None
    best_score = None
    for obj in scene.objects:
        o_h, o_v, w_deg, h_deg = _object_angular_box(scene, obj)
        dx, dy = center_h - o_h, center_v - o_v
        if abs(dx) <= w_deg / 2.0 and abs(dy) <= h_deg / 2.0:
            score = (dx / w_deg) ** 2 + (dy / h_deg) ** 2
            if best_score is None or score < best_score:
                best, best_score = obj, score
    return best


def _box_iou(ah, av, aw, ahh, bh, bv, bw, bhh):
    iw = min(ah + aw / 2, bh + bw / 2) - max(ah - aw / 2, bh - bw / 2)
    ih = min(av + ahh / 2, bv + bhh / 2) - max(av - ahh / 2, bv - bhh / 2)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / (aw * ahh + bw * bhh - inter)


def reference_ap_match(scene, center_h, center_v, width_deg, height_deg,
                       iou_thr=0.5):
    """The original AP matcher: sequential >=, so IoU ties go to the last object."""
    best, best_iou = None, iou_thr
    for obj in scene.objects:
        o_h, o_v, w_deg, h_deg = _object_angular_box(scene, obj)
        v = _box_iou(center_h, center_v, width_deg, height_deg,
                     o_h, o_v, w_deg, h_deg)
        if v >= best_iou:
            best, best_iou = obj.id, v
    return best


def make_scene(objects, deg_per_px=1.0 / 32.0):
    return SceneMap(width=1440, height=1200, labels=np.zeros((1, 1), np.int16),
                    regions=(), deg_per_px=deg_per_px, region_bboxes=(),
                    **object_columns((i, "car", c, sz, (0.0, 0.0), 0.0, False)
                                     for i, (c, sz) in enumerate(objects)))


def batched_matches(scene, boxes):
    """(point match, AP match) per (center_h, center_v, width, height) box."""
    cols = np.array(boxes, dtype=float).reshape(-1, 4)
    gt = _object_boxes(scene)
    ids = _match_objects(gt, cols[:, :2])
    ap = _ap_matches(gt, cols[:, :2], cols[:, 2:])
    return ([None if j < 0 else scene.objects[j].id for j in ids],
            [None if j < 0 else scene.objects[j].id for j in ap])


def reference_matches(scene, boxes):
    ids = []
    for b in boxes:
        obj = reference_match_object(scene, b[0], b[1])
        ids.append(None if obj is None else obj.id)
    return ids, [reference_ap_match(scene, *b) for b in boxes]


# coarse pixel grids: duplicated objects (score and IoU ties), points on box
# edges and IoUs of exactly 0.5 all occur often
grid_objects = st.lists(st.tuples(
    st.tuples(st.integers(0, 24).map(lambda k: 640.0 + 8 * k),
              st.integers(0, 16).map(lambda k: 540.0 + 8 * k)),
    st.sampled_from([(48.0, 28.0), (96.0, 28.0), (48.0, 56.0), (16.0, 16.0)])),
    max_size=14)
grid_boxes = st.lists(st.tuples(
    st.integers(0, 48).map(lambda k: (636.0 + 4 * k - 720.0) / 32.0),
    st.integers(0, 34).map(lambda k: (536.0 + 4 * k - 600.0) / 32.0),
    st.sampled_from([0.75, 1.5, 3.0, 3.75]),
    st.sampled_from([0.4375, 0.875, 1.75])), max_size=30)


@given(objects=grid_objects, boxes=grid_boxes,
       deg_per_px=st.sampled_from([1.0 / 32.0, 40.0 / 1440.0]))
@settings(max_examples=300, deadline=None)
def test_batched_matching_equals_scalar_loops(objects, boxes, deg_per_px):
    scene = make_scene(objects, deg_per_px)
    assert batched_matches(scene, boxes) == reference_matches(scene, boxes)


def reference_match_all_pairs(boxes, centers):
    """_match_objects as it scored every (point, object) pair, inside or not."""
    if not len(boxes):
        return np.full(len(centers), -1)
    offset = centers[:, None] - boxes[:, :2]
    inside = (np.abs(offset) <= boxes[:, 2:] / 2.0).all(axis=-1)
    square = np.float_power(offset / boxes[:, 2:], 2.0)
    score = square[..., 0] + square[..., 1]
    score[~inside] = np.inf
    best = np.argmin(score, axis=1)
    return np.where(inside[np.arange(best.size), best], best, -1)


@given(objects=grid_objects, boxes=grid_boxes,
       deg_per_px=st.sampled_from([1.0 / 32.0, 40.0 / 1440.0]))
@settings(max_examples=300, deadline=None)
def test_point_match_scores_only_containing_pairs(objects, boxes, deg_per_px):
    gt = _object_boxes(make_scene(objects, deg_per_px))
    centers = np.array(boxes, dtype=float).reshape(-1, 4)[:, :2]
    got = _match_objects(gt, centers)
    want = reference_match_all_pairs(gt, centers)
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()


def test_point_match_scores_only_containing_pairs_at_the_edges():
    # duplicated boxes tie; points sit exactly on box edges and corners
    gt = np.array([[0.0, 0.0, 2.0, 1.0], [0.0, 0.0, 2.0, 1.0],
                   [1.0, 0.5, 2.0, 1.0], [5.0, 5.0, 0.5, 0.5]])
    centers = np.array([[1.0, 0.5], [-1.0, -0.5], [0.0, 0.0], [2.0, 1.0],
                        [1.0 + 2.0 ** -40, 0.0], [5.25, 4.75], [9.0, 9.0]])
    for boxes in (gt, gt[:0], gt[3:]):
        for points in (centers, centers[:0], centers[6:]):
            got = _match_objects(boxes, points)
            assert got.tolist() == \
                reference_match_all_pairs(boxes, points).tolist()
    assert _match_objects(gt, centers).tolist() == [2, 0, 0, 2, 2, 3, -1]


def reference_match_two_axis(boxes, centers):
    """_match_objects as it took both axes at once, in (W, M, 2) arrays."""
    if not len(boxes):
        return np.full(len(centers), -1)
    offset = centers[:, None] - boxes[:, :2]
    inside = (np.abs(offset) <= boxes[:, 2:] / 2.0).all(axis=-1)
    rows, cols = np.nonzero(inside)
    square = np.float_power(offset[rows, cols] / boxes[cols, 2:], 2.0)
    score = np.full(inside.shape, np.inf)
    score[rows, cols] = square[:, 0] + square[:, 1]
    best = np.argmin(score, axis=1)
    return np.where(inside[np.arange(best.size), best], best, -1)


@pytest.mark.parametrize("seed", range(6))
def test_point_match_matches_the_two_axis_form(seed):
    # a coarse grid: zero-width boxes, points on edges and corners, score ties
    rng = np.random.default_rng([9, seed])
    n_boxes, n_points = int(rng.integers(0, 30)), int(rng.integers(0, 60))
    boxes = np.column_stack((rng.integers(-4, 5, (n_boxes, 2)) * 0.5,
                             rng.choice([0.0, 0.5, 1.0, 2.0], (n_boxes, 2))))
    points = rng.integers(-10, 11, (n_points, 2)) * 0.25
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 / 0 on zero widths
        got = _match_objects(boxes, points)
        want = reference_match_two_axis(boxes, points)
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()


def test_point_match_score_tie_goes_to_first_object():
    scene = make_scene([((720.0, 600.0), (48.0, 28.0)),
                        ((720.0, 600.0), (48.0, 28.0)),
                        ((736.0, 600.0), (48.0, 28.0))])
    boxes = [(0.25, 0.0, 1.5, 0.875), (0.0, 0.0, 1.5, 0.875)]
    ids, _ = batched_matches(scene, boxes)
    assert ids == [0, 0]
    assert (ids, _) == reference_matches(scene, boxes)


def test_point_match_score_is_float_pow():
    # with glibc's pow these two scores tie under `** 2` (the first object
    # wins) while under x * x the second one is an ulp smaller
    a, c, d = 0.22329778763258373, 0.24582993323455482, 0.3321057934389464
    scores = [d ** 2 + 0.0 ** 2, a ** 2 + c ** 2]
    boxes = np.array([[-d, 0.0, 1.0, 1.0], [-a, -c, 1.0, 1.0]])
    assert _match_objects(boxes, np.zeros((1, 2))).tolist() == \
        [scores.index(min(scores))]


def test_ap_match_iou_tie_goes_to_last_object():
    scene = make_scene([((720.0, 600.0), (48.0, 28.0)),
                        ((720.0, 600.0), (48.0, 28.0)),
                        ((900.0, 600.0), (48.0, 28.0))])
    boxes = [(0.0, 0.0, 1.5, 0.875)]
    assert batched_matches(scene, boxes) == ([0], [1])
    assert batched_matches(scene, boxes) == reference_matches(scene, boxes)


def test_ap_match_iou_exactly_half_matches():
    # the window is twice the object's width around the same center: IoU 0.5
    scene = make_scene([((720.0, 600.0), (48.0, 28.0))])
    boxes = [(0.0, 0.0, 3.0, 0.875), (0.0, 0.0, 3.0 + 2.0 ** -20, 0.875)]
    assert batched_matches(scene, boxes) == ([0, 0], [0, None])
    assert batched_matches(scene, boxes) == reference_matches(scene, boxes)


def test_touching_boxes_do_not_ap_match():
    scene = make_scene([((720.0, 600.0), (48.0, 28.0))])
    boxes = [(1.5, 0.0, 1.5, 0.875), (0.75, 0.0, 1.5, 0.875)]
    assert batched_matches(scene, boxes) == ([None, 0], [None, None])
    assert batched_matches(scene, boxes) == reference_matches(scene, boxes)


def test_matching_without_objects_or_windows():
    empty = make_scene([])
    assert batched_matches(empty, [(0.0, 0.0, 1.5, 0.875)]) == ([None], [None])
    crowd = make_scene([((720.0, 600.0), (48.0, 28.0))])
    assert batched_matches(crowd, []) == ([], [])
    assert batched_matches(empty, []) == ([], [])


# --- studies ----------------------------------------------------------------------

def test_recall_curve_shape_and_order(scenario):
    scenes = default_scene_variants(scenario.scene, 2)
    rows = recall_curve(scenes, ["mpf", "ppm_ps"], [80, 40], 2, scenario)
    assert [(r["method"], r["budget"]) for r in rows] == [
        ("mpf", 80), ("mpf", 40), ("ppm_ps", 80), ("ppm_ps", 40)]
    assert all(r["n_trials"] == 4 for r in rows)
    assert all(0.0 <= r["mean_recall"] <= 1.0 for r in rows)


def test_recall_curve_means_nondecreasing_for_guided_search(scenario):
    scenes = default_scene_variants(scenario.scene, 3)
    rows = recall_curve(scenes, ["ppm_ps"], [300, 400, 800], 8, scenario)
    means = [r["mean_recall"] for r in rows]
    assert means[0] <= means[1] <= means[2]


def test_method_chain_mean_dominance(scenario):
    # full pipeline >= map-only >= region-prior baseline, paired seeds, >= 20 seeds
    scenes = default_scene_variants(scenario.scene, 2)
    means = {}
    for method in ("ppm_ps", "ppm_only", "rpm"):
        recalls = []
        for si, scene_cfg in enumerate(scenes):
            for seed in range(10):
                world = build_scene(scene_cfg, seed=[11, si, seed])
                recalls.append(run_trial(world, method, 300, 1,
                                         seed=[13, si, seed], cfg=scenario).recall)
        means[method] = float(np.mean(recalls))
    assert means["ppm_ps"] >= means["ppm_only"] >= means["rpm"]


def test_proportion_sweep_empty_is_empty(scenario):
    assert proportion_sweep(scenario.scene, [], ["mpf"], 2, 40, scenario) == []


def test_world_cache_evicts_the_least_recently_used_world(scenario,
                                                          monkeypatch):
    # sweep order: per proportion, three method cells share 100 seed worlds,
    # 300 worlds in all; clearing the whole cache past 256 worlds builds some
    # of the third proportion's worlds again, evicting the oldest does not
    builds = []

    def counting_build(scene_cfg, seed):
        builds.append((scene_cfg.width, tuple(seed)))
        return scene_cfg.width

    monkeypatch.setattr(experiment, "_WORLDS", {})
    monkeypatch.setattr(experiment, "build_scene", counting_build)
    monkeypatch.setattr(experiment, "run_trial",
                        lambda scene, *args, **kwargs: scene)
    tiny = [dataclasses.replace(scenario.scene, width=w) for w in (10, 11, 12)]
    cells = [((w, method),
              [experiment.TrialJob(scene_cfg=scene_cfg, scene_seed=(17, seed),
                                   method=method, budget=1, trial_seed=(seed,),
                                   cfg=scenario) for seed in range(100)])
             for w, scene_cfg in enumerate(tiny) for method in ("a", "b", "c")]
    results = experiment.run_jobs(cells)
    assert [r for _, rs in results for r in rs] == [10] * 300 + [11] * 300 + [12] * 300
    assert len(builds) == len(set(builds)) == 300
    assert len(experiment._WORLDS) == 257


def test_run_jobs_returns_each_cells_results_in_job_order(scenario):
    def job(budget):
        return experiment.TrialJob(scene_cfg=scenario.scene, scene_seed=(1,),
                                   method="mpf", budget=budget, trial_seed=(2,),
                                   cfg=scenario)
    cells = [("a", [job(3), job(1), job(2)]), ("b", []), (("c", 0), [job(4)])]
    assert [(key, [r.budget for r in results])
            for key, results in experiment.run_jobs(cells)] == [
        ("a", [3, 1, 2]), ("b", []), (("c", 0), [4])]
    assert experiment.run_jobs([]) == []
    assert experiment.run_jobs([("a", []), ("b", [])]) == []
    # so a study with no trials has no rows
    assert recall_curve([], ["mpf"], [40], 2, scenario) == []
    assert deviation_study(deviation_scene(scenario.scene), seeds=0, budget=40,
                           cfg=scenario) == []


def test_full_proportion_makes_prior_uninformative(scenario):
    # the high-prior region covering everything levels the playing field
    rows = proportion_sweep(scenario.scene, [1.0], ["ppm_ps", "mpf"], 40, 300,
                            scenario)
    by = {r["method"]: r["mean_recall"] for r in rows}
    assert abs(by["ppm_ps"] - by["mpf"]) < 0.05


def test_proportion_sweep_rows(scenario):
    rows = proportion_sweep(scenario.scene, [0.3], ["mpf", "ppm_ps"], 2, 40,
                            scenario)
    assert [(r["proportion"], r["method"]) for r in rows] == [
        (0.3, "mpf"), (0.3, "ppm_ps")]


def test_deviation_static_zero_noise_is_exact(zero_noise_scenario):
    cfg = zero_noise_scenario
    det = dataclasses.replace(cfg.detector, conf_noise=0.0, loc_noise_px=0.0,
                              loc_noise_scale=0.0, fp_rate=0.0, base_recall=1.0)
    cfg = dataclasses.replace(cfg, detector=det)
    scene_cfg = deviation_scene(cfg.scene, mover_speed=0.0)
    rows = deviation_study(scene_cfg, seeds=3, budget=400, cfg=cfg)
    # without voting the estimate is the exact best detection, so zero noise
    # means zero deviation; voted centers keep a deterministic sub-0.02-degree
    # pull from down-weighted border-clipped sightings of partial objects
    for row in rows:
        if row["found_rate"] == 0:
            continue
        bound = 8.0 if row["voting"] == "on" else 1e-9
        assert row["mean_abs_dx_px"] <= bound
        assert row["mean_abs_dy_px"] <= bound


def _rows_equal(a, b):
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        for key in ra:
            va, vb = ra[key], rb[key]
            if isinstance(va, float) and isinstance(vb, float):
                if not (va == vb or (np.isnan(va) and np.isnan(vb))):
                    return False
            elif va != vb:
                return False
    return True


def test_deviation_scene_pins_to_the_first_region(scenario):
    base = dataclasses.replace(scenario.scene)
    base.regions = [RegionSpec("street", (240, 420, 960, 360))]
    base.class_priors = {"car": {"street": 0.7}}
    scene_cfg = deviation_scene(base)
    assert {g.region_label for g in scene_cfg.groups} == {"street", "field"}
    assert len(build_scene(scene_cfg, seed=0).objects) == 9
    rows = deviation_study(scene_cfg, seeds=1, budget=40, cfg=scenario)
    assert len(rows) == 18


def test_deviation_scene_without_regions_pins_to_the_background(scenario):
    base = dataclasses.replace(scenario.scene, regions=[])
    scene = build_scene(deviation_scene(base), seed=0)
    assert [r.label for r in scene.regions] == ["field"]
    assert len(scene.objects) == 9


def test_deviation_scene_moves_the_background_car_when_regions_cover_all(scenario):
    # one region over the whole panorama leaves no background to pin to
    base = dataclasses.replace(scenario.scene, class_priors={"car": {"road": 0.7}})
    base.regions = [RegionSpec("road", (0, 0, 1440, 1200))]
    scene_cfg = deviation_scene(base)
    assert {g.region_label for g in scene_cfg.groups} == {"road"}
    scene = build_scene(scene_cfg, seed=0)
    assert [r.label for r in scene.regions] == ["road"]
    assert len(scene.objects) == 9


def test_deviation_moving_flags_match_the_built_worlds(scenario):
    # a static group between two moving ones, and an empty group that
    # places nothing, so target ids and group order must line up
    scene_cfg = dataclasses.replace(scenario.scene, groups=[
        ObjectGroupSpec(count=2, speed=3.0, region_label="road"),
        ObjectGroupSpec(count=2, speed=0.0, region_label="road"),
        ObjectGroupSpec(count=0, speed=5.0),
        ObjectGroupSpec(count=1, speed=1.5)])
    rows = deviation_study(scene_cfg, seeds=2, budget=40, cfg=scenario)
    worlds = [build_scene(scene_cfg, [31, seed]) for seed in range(2)]
    moving = [int(any(any(v != 0.0 for v in w.objects[t].velocity) for w in worlds))
              for t in range(5)]
    assert moving == [1, 1, 0, 0, 1]
    assert [(r["voting"], r["target"], r["moving"]) for r in rows] == [
        (arm, t, m) for arm in ("on", "off") for t, m in enumerate(moving)]


def test_deviation_tables_are_reproducible(scenario):
    scene_cfg = deviation_scene(scenario.scene)
    a = deviation_study(scene_cfg, seeds=3, budget=120, cfg=scenario)
    b = deviation_study(scene_cfg, seeds=3, budget=120, cfg=scenario)
    assert _rows_equal(a, b)


# --- one claim step for the wide camera's finds and every scan pass ------------

# objects 0 and 1 are 2 x 2 degree boxes centered at (0, 0) and (8.75, 0)
CLAIM_SCENE = make_scene([((720.0, 600.0), (64.0, 64.0)),
                          ((1000.0, 600.0), (64.0, 64.0))])


def window(h, v, confidence, radius=0.01, size=(2.0, 2.0)):
    return SearchWindow(h, v, radius, 3 * radius, confidence, *size, ())


def claim(windows, stage, found, ap_records=None):
    return _claim(_object_boxes(CLAIM_SCENE), windows, stage, found, 0.5,
                  ap_records).tolist()


def test_claim_first_match_per_object_wins_the_stage():
    found = {}
    windows = [window(0.25, 0.0, 0.6), window(0.5, -0.5, 0.9),
               window(8.75, 0.5, 0.4, radius=0.02), window(30.0, 0.0, 0.99)]
    assert claim(windows, 2, found) == [0, 0, 1, -1]
    assert found == {0: FoundObject(2, 0.5, 0.0, 0.02, 0.6),
                     1: FoundObject(2, 0.0, 1.0, 0.04, 0.4)}


def test_claim_find_yields_only_to_an_equal_or_higher_confidence():
    bootstrap = FoundObject(0, 4.0, 4.0, 9.0, 0.8)
    found = {0: bootstrap}
    claim([window(0.25, 0.0, 0.79)], 1, found)
    assert found == {0: bootstrap}
    claim([window(0.25, 0.0, 0.8)], 2, found)
    assert found == {0: FoundObject(0, 0.5, 0.0, 0.02, 0.8)}
    claim([window(-0.5, 0.0, 0.95), window(0.0, 0.0, 0.99)], 3, found)
    assert found == {0: FoundObject(0, -1.0, 0.0, 0.02, 0.95)}


def test_claim_ap_records_one_per_window_by_object_index():
    records = []
    windows = [window(0.0, 0.0, 0.9), window(0.1, 0.0, 0.8),
               window(8.75, 0.0, 0.7, size=(0.5, 0.5)), window(30.0, 0.0, 0.6)]
    assert claim(windows, 1, {}, records) == [0, 0, 1, -1]
    # the small window sits inside object 1 but overlaps it with IoU 1/16
    assert records == [(0.9, 0), (0.8, 0), (0.7, None), (0.6, None)]
    assert all(type(j) is int for _, j in records[:2])
    assert claim([], 1, {}, records) == [] and len(records) == 4


def test_wide_camera_finds_are_stage_zero_windows(zero_noise_scenario):
    cfg = zero_noise_scenario
    scene = build_scene(cfg.scene, seed=0)
    trace = TrialTrace()
    res = run_trial(scene, "ppm_only", 0, 1, 0, cfg, trace=trace)
    dpp = scene.deg_per_px
    assert res.found and not trace.windows
    for oid, f in res.found.items():
        obj = scene.objects[oid]
        assert obj.pano_detectable and f.stage == 0
        assert (f.err_x_px, f.err_y_px) == (0.0, 0.0)
        # zero noise: sigma_o is the floor and the confidence is size-driven
        sigma_o = max(1.0 - f.confidence, cfg.noise.sigma_min)
        assert f.post_var == res.pre_vars[oid] == \
            (cfg.engine.subregion_scale * sigma_o * dpp) ** 2
    # each stage-0 window is one AP record, and all three hit
    assert res.recall == pytest.approx(3 / 9)
    assert res.ap == pytest.approx(4 / 11)


def test_import_leaves_the_process_pool_unloaded():
    # run_jobs imports the pool only when it starts workers
    src = os.path.dirname(os.path.dirname(experiment.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, panosearch; "
            "sys.exit('multiprocessing' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
