import itertools
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panosearch.config import (EngineConfig, ObjectGroupSpec, RegionSpec,
                               SceneConfig, default_scenario)
from panosearch import experiment
from panosearch.experiment import TrialTrace, _grid_particles, run_trial
from panosearch.galvo import (View, VisibleObject, capture_view, clamp_angle,
                              image_to_galvo, plan_scan, view_candidates)
from panosearch.scene import build_scene, object_columns, step_motion


def scene_with(center=(720.0, 600.0), size=(48.0, 28.0)):
    cfg = SceneConfig(regions=[], class_priors={"car": {"field": 1.0}},
                      groups=[ObjectGroupSpec(count=1, size=size)])
    scene = build_scene(cfg, seed=0)
    return replace(scene, centers=np.array([center], dtype=float))


# --- image_to_galvo ---------------------------------------------------------

def test_center_pixel_is_a_fixpoint():
    g_h, g_v, clamped = image_to_galvo(3.0, -4.0, 132.0, 112.0)
    assert (g_h, g_v) == (3.0, -4.0)
    assert not clamped


def test_hand_computed_offset():
    # right edge of a 264-wide view at 0.002 deg/px: 0.002 * 132 = 0.264
    g_h, _, clamped = image_to_galvo(0.0, 0.0, 264.0, 112.0)
    assert g_h == pytest.approx(0.264, rel=1e-12)
    assert not clamped


def test_clamp_at_range_limit_sets_flag():
    g_h, _, clamped = image_to_galvo(19.9, 0.0, 264.0, 112.0)
    assert g_h == 20.0
    assert clamped


@pytest.mark.parametrize("theta", [math.nan, -0.0, 0.0, -20.0, 20.0, -25.0,
                                   25.0, 3.5, math.inf, -math.inf])
def test_clamp_angle_matches_the_conditional_on_scalars_and_arrays(theta):
    want = -20.0 if theta < -20.0 else (20.0 if theta > 20.0 else theta)
    # the bytes keep -0.0 and NaN
    assert clamp_angle(np.array([theta]), 20.0).tobytes() == \
        np.array([want]).tobytes()


def edge_values(*bounds):
    """NaN, both zeros, both infinities, 3.5, and each bound with the doubles
    just past and just inside it."""
    out = [math.nan, -0.0, 0.0, math.inf, -math.inf, 3.5]
    for b in bounds:
        out += [b, math.nextafter(b, math.inf), math.nextafter(b, -math.inf)]
    return out


@pytest.mark.parametrize("limit", [20.0, 0.0])
def test_pose_clamp_is_the_builtin_clamp(limit):
    # image_to_galvo clamps by comparisons in the builtins' argument order;
    # a view 0 px wide and a target at -0.0 make the offset -0.0, so the
    # refined pose is the pose itself, -0.0 included, and at limit 0 the
    # bounds are -0.0 and 0.0
    values = edge_values(-limit, limit)
    for (theta_h, theta_v), (width, t) in itertools.product(
            itertools.product(values, values), [(0, -0.0), (264, 300.0)]):
        g_h = theta_h + 0.002 * (t - width / 2.0)
        g_v = theta_v + 0.002 * (t - width / 2.0)
        c_h = min(max(g_h, -limit), limit)
        c_v = min(max(g_v, -limit), limit)
        want = (c_h, c_v, c_h != g_h or c_v != g_v)
        got = image_to_galvo(theta_h, theta_v, t, t, 0.002, width, width, limit)
        assert repr(got) == repr(want), (theta_h, theta_v, width)


def test_transform_is_affine_in_the_target():
    t1, t2 = (40.0, 50.0), (200.0, 90.0)
    a1 = image_to_galvo(1.0, 2.0, *t1)
    a2 = image_to_galvo(1.0, 2.0, *t2)
    assert a1[0] - a2[0] == pytest.approx(0.002 * (t1[0] - t2[0]), abs=1e-15)
    assert a1[1] - a2[1] == pytest.approx(0.002 * (t1[1] - t2[1]), abs=1e-15)


# --- capture_view -----------------------------------------------------------

def test_empty_scene_sees_nothing():
    cfg = SceneConfig(regions=[], class_priors={"car": {"field": 1.0}})
    scene = build_scene(cfg, seed=0)
    view = capture_view(scene, 0.0, 0.0)
    assert view.visible == ()


def test_object_at_gaze_point_is_centered():
    scene = scene_with(center=(900.0, 700.0))
    th, tv = scene.pano_to_galvo(900.0, 700.0)
    view = capture_view(scene, th, tv)
    assert len(view.visible) == 1
    assert view.visible[0].x_px == pytest.approx(132.0)
    assert view.visible[0].y_px == pytest.approx(112.0)


def test_object_a_fov_away_is_not_visible():
    scene = scene_with(center=(720.0, 600.0), size=(4.0, 4.0))
    th, tv = scene.pano_to_galvo(720.0, 600.0)
    fov_w_deg = 264 * 0.002
    view = capture_view(scene, th + 2 * fov_w_deg, tv)
    assert view.visible == ()


def test_round_trip_recenters_object():
    # gaze off-center, refine toward the seen pixel, the object centers
    scene = scene_with(center=(900.0, 700.0), size=(4.0, 4.0))
    th, tv = scene.pano_to_galvo(900.0, 700.0)
    view = capture_view(scene, th + 0.1, tv - 0.08)
    assert len(view.visible) == 1
    vis = view.visible[0]
    g_h, g_v, _ = image_to_galvo(th + 0.1, tv - 0.08, vis.x_px, vis.y_px)
    again = capture_view(scene, g_h, g_v)
    assert again.visible[0].x_px == pytest.approx(132.0, abs=1.0)
    assert again.visible[0].y_px == pytest.approx(112.0, abs=1.0)


def test_capture_places_a_named_object_without_testing_it():
    # view_candidates alone decides visibility: an object named in `among`
    # but far outside the view lands on the clipped border, at its size
    scene = scene_with(center=(900.0, 700.0), size=(4.0, 4.0))
    th, tv = scene.pano_to_galvo(900.0, 700.0)
    mag = scene.deg_per_px / 0.002
    for gaze, x_px, y_px in [((th - 5.0, tv), 263.0, 112.0),
                             ((th + 5.0, tv + 5.0), 0.0, 0.0),
                             ((th, tv - 5.0), 132.0, 223.0)]:
        assert view_candidates(scene, *np.array([gaze]).T) == [()]
        assert capture_view(scene, *gaze).visible == ()
        (vis,) = capture_view(scene, *gaze, among=(0,)).visible
        assert vis == (0, x_px, y_px, 4.0 * mag, 4.0 * mag, 0.0)


def test_apparent_size_uses_optics_consistent_magnification():
    scene = scene_with(size=(48.0, 28.0))
    th, tv = scene.pano_to_galvo(*scene.objects[0].center)
    view = capture_view(scene, th, tv)
    mag = scene.deg_per_px / 0.002
    assert view.visible[0].width_px == pytest.approx(48.0 * mag)
    assert view.visible[0].height_px == pytest.approx(28.0 * mag)


def test_view_clamp_is_the_builtin_clamp():
    # at the dyadic scale a panorama px is 16 view px, so from a gaze at
    # (512, 256) an object 8.25 px left or 7 px above lands on 0, one 8.1875
    # px right or 6.9375 px below on 263 or 223, and 2^-30 px more or less is
    # just past or just inside; a position is never -0.0, since the view
    # center is added to it
    def offsets(low, high):
        return [math.nan, math.inf, -math.inf, 0.0] + [
            b + e for b in (low, high) for e in (0.0, 2.0 ** -30, -(2.0 ** -30))]
    centers = list(itertools.product((512.0 + d for d in offsets(-8.25, 8.1875)),
                                     (256.0 + d for d in offsets(-7.0, 6.9375))))
    scene = scene_of([(c, (4.0, 4.0)) for c in centers])
    dpp, alpha = scene.deg_per_px, DYADIC_ALPHA
    th, tv = scene.pano_to_galvo(512.0, 256.0)
    view = capture_view(scene, th, tv, alpha=alpha, among=range(len(centers)))
    want = [(min(max(264 / 2.0 + (c_x - 512.0) * dpp / alpha, 0.0), 263.0),
             min(max(224 / 2.0 + (c_y - 256.0) * dpp / alpha, 0.0), 223.0))
            for c_x, c_y in centers]
    assert repr([(v.x_px, v.y_px) for v in view.visible]) == repr(want)
    assert {v.x_px for v in view.visible} >= {0.0, 263.0}


# --- one broadcast per pass, then capture among its sets, against the full scan

def reference_capture_view(scene, theta_h, theta_v, width=264, height=224,
                           alpha=0.002):
    """The original capture: every scene object tested in scene order."""
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
            occlusion=obj.occlusion))
    return View(theta_h=theta_h, theta_v=theta_v, width=width, height=height,
                visible=tuple(visible))


# 1024 px over 32 degrees and alpha 2^-9 keep every reach and visibility edge
# exactly representable; the default 1440 px / 40 degrees scale does not
DYADIC = dict(width=1024, height=512, span_deg=32.0)
DYADIC_ALPHA = 2.0 ** -9


def scene_of(objects, **dims):
    cfg = SceneConfig(regions=[], class_priors={"car": {"field": 1.0}},
                      **(dims or DYADIC))
    return replace(build_scene(cfg, seed=0), **object_columns(
        (i, "car", c, s, (0.0, 0.0), 0.25, False)
        for i, (c, s) in enumerate(objects)))


def assert_same_pass(scene, gazes, **kw):
    """Every gaze of one pass, captured with its view_candidates set and with
    among=None, is the full scan's capture: each set is exactly the objects
    the reference keeps, in scene order."""
    theta_h, theta_v = np.array(gazes, dtype=float).reshape(-1, 2).T
    among = view_candidates(scene, theta_h, theta_v, **kw)
    assert len(among) == len(gazes)
    for (th, tv), ids in zip(gazes, among):
        want = reference_capture_view(scene, th, tv, **kw)
        got = capture_view(scene, th, tv, among=ids, **kw)
        # float repr round-trips; nan != nan
        assert repr(got) == repr(capture_view(scene, th, tv, **kw)) == repr(want)
        assert type(ids) is tuple and list(ids) == sorted(ids)
        assert [scene.objects[i].id for i in ids] == [v.object_id
                                                      for v in want.visible]
        # only the objects named are placed
        assert repr(capture_view(scene, th, tv, among=ids[1:], **kw).visible) \
            == repr(want.visible[1:])


def assert_same_capture(scene, theta_h, theta_v, **kw):
    assert_same_pass(scene, [(theta_h, theta_v)], **kw)


quarter_px = st.integers(-160, 160).map(lambda k: k * 0.25)
edge_objects = st.lists(
    st.tuples(st.tuples(quarter_px, quarter_px),
              st.tuples(st.sampled_from([0.5, 4.0, 16.5, 48.0, 120.0]),
                        st.sampled_from([0.5, 4.0, 28.0, 60.0]))),
    max_size=14)


@given(objects=edge_objects, gaze=st.tuples(quarter_px, quarter_px),
       alpha=st.sampled_from([DYADIC_ALPHA, 0.002]),
       view=st.sampled_from([(264, 224), (64, 48), (1, 1)]))
@settings(max_examples=300, deadline=None)
def test_capture_matches_full_scan_near_the_gaze(objects, gaze, alpha, view):
    # objects and gaze share a quarter-pixel grid around the panorama center,
    # so centers land exactly on reach and visibility edges and several
    # overlapping objects are seen in an order unlike their x order
    cx, cy = DYADIC["width"] / 2.0, DYADIC["height"] / 2.0
    scene = scene_of([((cx + x, cy + y), s) for (x, y), s in objects])
    th, tv = scene.pano_to_galvo(cx + gaze[0], cy + gaze[1])
    assert_same_capture(scene, th, tv, width=view[0], height=view[1],
                        alpha=alpha)


def edge_scene():
    # scene order differs from x order; the widest object (120 px) sits
    # exactly on the visibility edge, a narrow one exactly on the edge of the
    # view's half-width plus the widest half-width and 1 px
    dpp = DYADIC["span_deg"] / DYADIC["width"]
    reach = 264 * DYADIC_ALPHA / 2.0 / dpp       # 8.25 px
    gx, gy = 500.0, 200.0
    objects = [
        ((gx + 3.0, gy), (16.0, 8.0)),
        ((gx + reach + 60.0, gy), (120.0, 60.0)),      # visible edge, widest
        ((gx - reach - 60.0 - 1.0, gy), (4.0, 4.0)),   # that edge, not visible
        ((gx - reach - 2.0, gy + 1.0), (4.0, 4.0)),    # visible edge
        ((gx - 1.0, gy - 2.0), (48.0, 28.0)),
        ((gx - reach - 2.0 - 2.0 ** -20, gy), (4.0, 4.0)),  # just outside
    ]
    return scene_of(objects), gx, gy


@pytest.mark.parametrize("dx", [0.0, 2.0 ** -20, -(2.0 ** -20), 0.25, -0.25])
def test_capture_matches_full_scan_at_band_edges(dx):
    scene, gx, gy = edge_scene()
    th, tv = scene.pano_to_galvo(gx + dx, gy)
    view = capture_view(scene, th, tv, alpha=DYADIC_ALPHA)
    if dx == 0.0:
        assert [v.object_id for v in view.visible] == [0, 1, 3, 4]
    assert view == reference_capture_view(scene, th, tv, alpha=DYADIC_ALPHA)
    assert_same_capture(scene, th, tv, alpha=DYADIC_ALPHA)


EXTREME_POSES = [
    (20.0, 0.0), (-20.0, 0.0), (0.0, 20.0), (-20.0, -20.0), (20.0, 20.0),
    (math.nan, 0.0), (0.0, math.nan), (math.nan, math.nan),
    (math.inf, 0.0), (-math.inf, 0.0), (0.0, math.inf), (1e300, 0.0),
    (0.0, -1e308), (math.nan, 1e308), (-math.inf, math.nan)]


def test_capture_matches_full_scan_at_extreme_poses():
    # the default scene scale, with objects on the panorama borders, so the
    # galvo limit reaches them; a NaN pose sees every object, as it always did,
    # and a pose NaN on one axis still tests the other
    w, h = 1440, 1200
    spots = [(0.0, 0.0), (w - 1.0, h - 1.0), (w / 2.0, h / 2.0), (0.0, h - 1.0),
             (w - 1.0, 0.0), (w / 2.0 + 3.0, h / 2.0 - 1.0), (2.0, 600.0)]
    dims = dict(width=w, height=h, span_deg=40.0)
    scene = scene_of([(c, (48.0, 28.0)) for c in reversed(spots)], **dims)
    empty = scene_of([], **dims)
    assert view_candidates(empty, *np.array(EXTREME_POSES).T) == \
        [()] * len(EXTREME_POSES)
    assert_same_pass(scene, EXTREME_POSES)
    assert_same_pass(empty, EXTREME_POSES)
    for pose in EXTREME_POSES:
        assert capture_view(empty, *pose).visible == ()
    assert len(capture_view(scene, math.nan, math.nan).visible) == len(spots)


def test_capture_matches_full_scan_when_the_band_is_empty():
    # gazes with no object center within the view's half-width plus the
    # widest half-width and 1 px in x see nothing and get an empty set, on
    # which capture_view returns at once: far from every object, level in y
    # with one, or just past that reach
    w, h = 1440, 1200
    dims = dict(width=w, height=h, span_deg=40.0)
    scene = scene_of([((200.0, 600.0), (48.0, 28.0)),
                      ((1300.0, 100.0), (120.0, 60.0))], **dims)
    reach = (264 * 0.002 / 2.0 / scene.deg_per_px
             + max(o.size[0] for o in scene.objects) / 2.0 + 1.0)
    spots = [(700.0, 600.0), (720.0, 100.0), (200.0 + reach + 0.5, 600.0),
             (1300.0 - reach - 0.5, 100.0), (w - 1.0, h - 1.0)]
    gazes = [scene.pano_to_galvo(x, y) for x, y in spots]
    for x, _ in spots:
        assert all(abs(o.center[0] - x) > reach for o in scene.objects)
    assert view_candidates(scene, *np.array(gazes).T) == [()] * len(gazes)
    for th, tv in gazes:
        assert capture_view(scene, th, tv).visible == ()
        assert capture_view(scene, th, tv, among=()).visible == ()
    assert_same_pass(scene, gazes)
    assert_same_capture(scene, 0.0, 0.0, width=1, height=1, alpha=1e-6)


@given(seed=st.integers(0, 2**16), steps=st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_capture_matches_full_scan_after_motion(seed, steps):
    # many fast objects crowded into one small region, so they overtake each
    # other and several share a view; each snapshot's pass must see its own
    # moved objects
    scene = crowd_scene(seed)
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        scene = step_motion(scene, 1)
        spots = rng.uniform((580, 480), (860, 720), size=(25, 2))
        assert_same_pass(scene, [scene.pano_to_galvo(x, y)
                                 for x, y in spots.tolist()])


def crowd_scene(seed):
    # 33 objects, several sharing a view, in one small region
    cfg = SceneConfig(
        regions=[RegionSpec("road", (600, 500, 240, 200))],
        class_priors={"car": {"road": 1.0, "field": 0.0}},
        groups=[ObjectGroupSpec(count=30, size=(48.0, 28.0), speed=9.0),
                ObjectGroupSpec(count=3, size=(120.0, 60.0), speed=4.0)])
    return build_scene(cfg, seed=seed)


def test_capture_matches_full_scan_across_broadcast_blocks():
    # 2,100 gazes x 33 objects is past 2^16 pairs, so the pass broadcasts in
    # blocks of 1,985 gazes; gazes seeing objects fall on both sides
    scene = crowd_scene(3)
    rng = np.random.default_rng(3)
    spots = rng.uniform((580, 480), (860, 720), size=(2100, 2))
    gazes = [scene.pano_to_galvo(x, y) for x, y in spots.tolist()]
    block = 2 ** 16 // len(scene.objects)
    assert len(gazes) * len(scene.objects) > 2 ** 16 and block < len(gazes)
    among = view_candidates(scene, *np.array(gazes).T)
    assert any(among[:block]) and any(among[block:])
    assert_same_pass(scene, gazes)


OVERFLOW_GAZES = [math.nan, math.inf, -math.inf, 1e300, -1e300, 1e308,
                  -1e308, 0.0, 1.0]


@pytest.mark.parametrize("dims,one_nan", [
    # only the middle object is level with the gaze's other axis
    (dict(width=1440, height=1200, span_deg=40.0), (1,)),
    # every object fills the view
    (dict(width=2, height=2, span_deg=360.0), (0, 1, 2))],
    ids=["default-scale", "180-deg-per-px"])
def test_view_candidates_warn_on_no_extreme_gaze(dims, one_nan):
    # every pairing of NaN, infinite and huge axes: past 1e308 / deg_per_px
    # the pixel coordinate overflows to inf, and at 180 deg/px so does the
    # angle difference; neither may warn, and each set is the scalar code's:
    # every object for NaN on both axes, the other axis tested for NaN on
    # one, none for an infinite axis
    w, h = dims["width"], dims["height"]
    scene = scene_of([((0.0, 0.0), (4.0, 2.0)), ((w / 2.0, h / 2.0), (1.0, 1.0)),
                      ((w - 1.0, h - 1.0), (48.0, 28.0))], **dims)
    gazes = [(a, b) for a in OVERFLOW_GAZES for b in OVERFLOW_GAZES]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        among = view_candidates(scene, *np.array(gazes).T)
        assert_same_pass(scene, gazes)
    for (th, tv), ids in zip(gazes, among):
        if math.isinf(th) or math.isinf(tv):
            assert ids == ()
        elif math.isnan(th) and math.isnan(tv):
            assert ids == (0, 1, 2)
    assert among[gazes.index((math.nan, 0.0))] == \
        among[gazes.index((0.0, math.nan))] == one_nan


def test_view_candidates_peak_memory_is_one_block():
    # 2,048 gazes x 4,096 objects broadcast at once would need 64 MiB per
    # float temporary; in blocks of 2^16 pairs the pass stays under 4 MiB
    rng = np.random.default_rng(5)
    dims = dict(width=1440, height=1200, span_deg=40.0)
    centers = rng.uniform((0.0, 0.0), (1440.0, 1200.0), size=(4096, 2))
    scene = scene_of([(c, (48.0, 28.0)) for c in map(tuple, centers.tolist())],
                     **dims)
    limit = EngineConfig.galvo_limit_deg
    theta_h, theta_v = rng.uniform(-limit, limit, size=(2, 2048))
    tracemalloc.start()
    try:
        among = view_candidates(scene, theta_h, theta_v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(among) == 2048 and any(among)
    assert peak < 4 * 2 ** 20


# --- plan_scan --------------------------------------------------------------

def test_two_particles_cost_at_least_two_steps():
    order = plan_scan((0.0, 0.0), [(1.0, 0.0), (2.0, 0.0)])
    assert sorted(order) == [0, 1]


def test_single_particle_single_move():
    assert plan_scan((0.0, 0.0), [(5.0, 5.0)]) == [0]


def test_monotone_line_preserves_order():
    # colinear, strictly increasing positions: greedy keeps the given order
    positions = [(float(i), 0.0) for i in range(1, 8)]
    assert plan_scan((0.0, 0.0), positions) == list(range(7))


def test_timing_linear_in_particle_count():
    # every view costs one step response plus one dwell, wherever it points
    cfg = default_scenario()
    scene = build_scene(cfg.scene, seed=0)
    t1, t2 = (run_trial(scene, "uniform", n, 1, 0, cfg).elapsed_sim_ms
              for n in (10, 20))
    assert t1 == pytest.approx(10 * (0.25 + 2.0))
    assert t2 == pytest.approx(2 * t1)


def test_empty_plan_rejected():
    with pytest.raises(ValueError):
        plan_scan((0.0, 0.0), [])


def reference_plan_scan(pose, positions):
    """The original tour: rescan the remaining points, np.delete the pick."""
    n = len(positions)
    pts = np.asarray(positions, dtype=float).reshape(n, 2)
    order = np.empty(n, dtype=np.intp)
    remaining = np.arange(n, dtype=np.intp)
    cur = np.array(pose, dtype=float)
    for i in range(n):
        d = pts[remaining] - cur
        best = int(np.argmin(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]))
        pick = remaining[best]
        order[i] = pick
        cur = pts[pick]
        remaining = np.delete(remaining, best)
    return order.tolist()


def tour_positions(layout: str, n: int, seed: int) -> list[tuple[float, float]]:
    rng = np.random.default_rng(seed)
    if layout == "uniform":
        pts = rng.uniform(-20.0, 20.0, size=(n, 2))
    elif layout == "rounded":
        # a coarse grid: many equal distances, so ties decide the tour
        pts = np.round(rng.uniform(-3.0, 3.0, size=(n, 2)))
    elif layout == "duplicated":
        base = rng.uniform(-20.0, 20.0, size=(max(1, n // 4), 2))
        pts = base[rng.integers(0, len(base), size=n)]
    elif layout == "clustered":
        centers = rng.uniform(-18.0, 18.0, size=(3, 2))
        pts = (centers[rng.integers(0, 3, size=n)]
               + rng.normal(0.0, 0.01, size=(n, 2)))
    elif layout == "columns":
        # few shared x values, many points per column: long runs of equal keys
        pts = np.column_stack((rng.integers(-2, 3, size=n).astype(float),
                               np.round(rng.uniform(-6.0, 6.0, size=n), 1)))
    elif layout in ("vline", "hline"):
        # one coordinate constant: the sweep must run along the other axis
        line = np.column_stack((np.full(n, 1.5),
                                np.round(rng.uniform(-9.0, 9.0, size=n))))
        pts = line if layout == "vline" else line[:, ::-1]
    elif layout == "plus":
        # two crossing lines: one line's points all share the sweep key
        k = rng.integers(-8, 9, size=n).astype(float)
        on_v = rng.random(n) < 0.5
        pts = np.column_stack((np.where(on_v, 0.0, k), np.where(on_v, k, 0.0)))
    else:  # square: equal x and y extents
        pts = np.round(rng.uniform(-3.0, 3.0, size=(n, 2)))
        pts[0], pts[-1] = (-3.0, 3.0), (3.0, -3.0)
    return [(float(h), float(v)) for h, v in pts]


LAYOUTS = ["uniform", "rounded", "duplicated", "clustered", "columns", "vline",
           "hline", "plus", "square"]


@given(layout=st.sampled_from(LAYOUTS),
       n=st.integers(1, 400), seed=st.integers(0, 2**32 - 1),
       start=st.tuples(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0)),
       round_start=st.booleans())
@settings(max_examples=150, deadline=None)
def test_tour_matches_reference(layout, n, seed, start, round_start):
    pose = (round(start[0]), round(start[1])) if round_start else start
    positions = tour_positions(layout, n, seed)
    assert plan_scan(pose, positions) == reference_plan_scan(pose, positions)


@pytest.mark.parametrize("layout", ["uniform", "rounded"])
def test_large_tour_matches_reference(layout):
    positions = tour_positions(layout, 1600, seed=11)
    assert (plan_scan((0.5, -0.25), positions)
            == reference_plan_scan((0.5, -0.25), positions))


GRID_SCENE = build_scene(default_scenario().scene, seed=0)


def grid_positions(count):
    grid = _grid_particles(GRID_SCENE, count, 1.0, EngineConfig.galvo_limit_deg)
    return list(zip(grid.theta_h.tolist(), grid.theta_v.tolist()))


BELOW_1E150 = math.nextafter(1e150, 0.0)


def extremes(m):
    return [(m, 0.0), (-m, 0.0), (0.0, m), (0.0, -m), (m, m), (1.0, 1.0)]


@pytest.mark.parametrize("start,positions", [
    # the curve study's grid: equal x along columns, a ragged row of origins
    pytest.param((0.0, 0.0), grid_positions(1), id="grid-1"),
    pytest.param((0.0, 0.0), grid_positions(7), id="grid-7"),
    pytest.param((0.0, 0.0), grid_positions(401), id="grid-401"),
    pytest.param((3.0, -2.0), grid_positions(800), id="grid-800"),
    pytest.param((0.0, 0.5), [(float(x), float(y)) for y in range(-2, 3)
                              for x in (1, -1, 0)], id="cursor-on-column"),
    pytest.param((1.0, 1.0), [(2.0, 1.0), (1.0, 1.0), (0.0, 1.0), (1.0, 2.0),
                              (1.0, 0.0)], id="cursor-on-point"),
    # signed zeros compare equal and square to +0.0
    pytest.param((-0.0, 0.0), [(0.0, -0.0), (-0.0, 0.0), (1.0, -0.0),
                               (-0.0, -0.0), (-1.0, 0.0), (0.0, 0.0)],
                 id="signed-zeros"),
    # the largest magnitudes plan_scan accepts; from 1e150 on it raises
    pytest.param((0.0, 0.0), extremes(BELOW_1E150), id="below-1e150"),
    pytest.param((-BELOW_1E150, 0.0), extremes(BELOW_1E150),
                 id="below-1e150-far-cursor"),
    pytest.param((0.0, 0.0), [(3.0, 4.0)], id="n1"),
    # a tie across the cursor: the lower index lies on the side walked second
    pytest.param((0.0, 0.0), [(1.0, 0.0), (-1.0, 0.0)], id="n2-horizontal"),
    pytest.param((0.0, 0.0), [(0.0, 1.0), (0.0, -1.0)], id="n2-vertical"),
])
def test_structured_tour_matches_reference(start, positions):
    assert plan_scan(start, positions) == reference_plan_scan(start, positions)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_tour_takes_an_array_or_a_list(layout):
    positions = tour_positions(layout, 300, seed=5)
    want = plan_scan((0.5, -0.25), positions)
    assert plan_scan((0.5, -0.25), np.array(positions)) == want
    assert plan_scan((0.5, -0.25), [list(p) for p in positions]) == want


def test_malformed_positions_rejected():
    for positions in ([(1.0, 2.0, 3.0)], np.zeros((4, 3)), np.zeros(0)):
        with pytest.raises(ValueError):
            plan_scan((0.0, 0.0), positions)


INF, NAN = float("inf"), float("nan")
NON_FINITE = [
    # squared distances overflow to inf, so every candidate ties at inf
    ((0.0, 0.0), [(1e200, 0.0), (-1e200, 0.0), (3.0, 3.0)]),
    ((0.0, 0.0), [(NAN, 0.0), (1.0, 1.0), (2.0, 2.0)]),
    ((0.0, 0.0), [(1.0, 1.0), (INF, 0.0), (2.0, 2.0)]),
    ((NAN, 0.0), [(1.0, 1.0), (2.0, 2.0)]),
    ((INF, 0.0), [(1.0, 1.0), (INF, INF), (2.0, 2.0), (-INF, 3.0)]),
]


@pytest.mark.parametrize("start,positions", [
    *NON_FINITE, pytest.param((0.0, 0.0), extremes(1e150), id="at-1e150"),
])
def test_non_finite_tour_matches_reference(start, positions):
    """Input whose distances may not be finite is rejected, not ordered:
    no trial produces it (see test_trial_angles_stay_in_mirror_range)."""
    with pytest.raises(ValueError, match="finite"):
        plan_scan(start, positions)


@pytest.mark.parametrize("start,positions", NON_FINITE)
def test_non_finite_array_rejected(start, positions):
    with pytest.raises(ValueError, match="finite"):
        plan_scan(np.array(start), np.array(positions))


@pytest.mark.parametrize("method", ["ppm_ps", "ppm_only", "rpm", "mpf",
                                    "uniform"])
def test_trial_angles_stay_in_mirror_range(method, monkeypatch):
    # the invariant that keeps every trial clear of plan_scan's ValueError
    cfg = default_scenario()
    cfg.engine.iterations = 3
    cfg.noise.label_flip = 0.05
    cfg.detector.fp_rate = 0.5
    limit = cfg.engine.galvo_limit_deg
    tours = []

    def recording_plan_scan(pose, positions):
        tours.append([pose, *positions])
        return plan_scan(pose, positions)

    monkeypatch.setattr(experiment, "plan_scan", recording_plan_scan)
    scene = build_scene(cfg.scene, seed=[11, 0, 3])
    trace = TrialTrace()
    run_trial(scene, method, 200, cfg.engine.iterations, [13, 0, 3], cfg,
              trace=trace)
    assert len(trace.scan) == len(trace.particles) == 200
    assert sum(len(tour) - 1 for tour in tours) == 200
    for angles in ([row[1:3] for row in trace.scan + trace.particles],
                   [p for tour in tours for p in tour]):
        angles = np.array(angles, dtype=float)
        assert np.isfinite(angles).all()
        assert (np.abs(angles) <= limit).all()
