import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panosearch.config import ObjectGroupSpec, SceneConfig
from panosearch.galvo import (GalvoState, capture_view, image_to_galvo,
                              plan_scan)
from panosearch.scene import build_scene


def scene_with(center=(720.0, 600.0), size=(48.0, 28.0)):
    cfg = SceneConfig(regions=[], class_priors={"car": {"field": 1.0}},
                      groups=[ObjectGroupSpec(count=1, size=size)])
    scene = build_scene(cfg, seed=0)
    from dataclasses import replace
    obj = replace(scene.objects[0], center=center)
    return replace(scene, objects=(obj,))


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


def test_apparent_size_uses_optics_consistent_magnification():
    scene = scene_with(size=(48.0, 28.0))
    th, tv = scene.pano_to_galvo(*scene.objects[0].center)
    view = capture_view(scene, th, tv)
    mag = scene.deg_per_px / 0.002
    assert view.visible[0].width_px == pytest.approx(48.0 * mag)
    assert view.visible[0].height_px == pytest.approx(28.0 * mag)


# --- plan_scan --------------------------------------------------------------

def test_two_particles_cost_at_least_two_steps():
    state = GalvoState()
    order, total = plan_scan(state, [(1.0, 0.0), (2.0, 0.0)], dwell_ms=0.0)
    assert sorted(order) == [0, 1]
    assert total >= 2 * 0.25


def test_single_particle_single_move():
    order, total = plan_scan(GalvoState(), [(5.0, 5.0)], dwell_ms=2.0)
    assert order == [0]
    assert total == pytest.approx(0.25 + 2.0)


def test_monotone_line_preserves_order():
    # colinear, strictly increasing positions: greedy keeps the given order
    positions = [(float(i), 0.0) for i in range(1, 8)]
    order, _ = plan_scan(GalvoState(), positions, dwell_ms=0.0)
    assert order == list(range(7))


def test_timing_linear_in_particle_count():
    t1 = plan_scan(GalvoState(), [(1.0, 1.0)] * 10, dwell_ms=2.0)[1]
    t2 = plan_scan(GalvoState(), [(1.0, 1.0)] * 20, dwell_ms=2.0)[1]
    assert t2 == pytest.approx(2 * t1)


def test_empty_plan_rejected():
    with pytest.raises(ValueError):
        plan_scan(GalvoState(), [])


def reference_plan_scan(state, positions, dwell_ms=2.0):
    """The original tour: rescan the remaining points, np.delete the pick."""
    n = len(positions)
    pts = np.asarray(positions, dtype=float).reshape(n, 2)
    order = np.empty(n, dtype=np.intp)
    remaining = np.arange(n, dtype=np.intp)
    cur = np.array([state.theta_h, state.theta_v])
    for i in range(n):
        d = pts[remaining] - cur
        best = int(np.argmin(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]))
        pick = remaining[best]
        order[i] = pick
        cur = pts[pick]
        remaining = np.delete(remaining, best)
    total_ms = n * state.step_response_ms + n * dwell_ms
    return order.tolist(), total_ms


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
    else:  # clustered
        centers = rng.uniform(-18.0, 18.0, size=(3, 2))
        pts = (centers[rng.integers(0, 3, size=n)]
               + rng.normal(0.0, 0.01, size=(n, 2)))
    return [(float(h), float(v)) for h, v in pts]


@given(layout=st.sampled_from(["uniform", "rounded", "duplicated", "clustered"]),
       n=st.integers(1, 400), seed=st.integers(0, 2**32 - 1),
       start=st.tuples(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0)),
       round_start=st.booleans(), step_ms=st.floats(0.0, 5.0),
       dwell_ms=st.floats(0.0, 5.0))
@settings(max_examples=150, deadline=None)
def test_tour_matches_reference(layout, n, seed, start, round_start, step_ms,
                                dwell_ms):
    theta_h, theta_v = (round(start[0]), round(start[1])) if round_start else start
    state = GalvoState(theta_h, theta_v, step_response_ms=step_ms)
    positions = tour_positions(layout, n, seed)
    assert (plan_scan(state, positions, dwell_ms=dwell_ms)
            == reference_plan_scan(state, positions, dwell_ms=dwell_ms))


@pytest.mark.parametrize("layout", ["uniform", "rounded"])
def test_large_tour_matches_reference(layout):
    state = GalvoState(0.5, -0.25)
    positions = tour_positions(layout, 1600, seed=11)
    assert plan_scan(state, positions) == reference_plan_scan(state, positions)


INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize("start,positions", [
    # squared distances overflow to inf, so every candidate ties at inf
    ((0.0, 0.0), [(1e200, 0.0), (-1e200, 0.0), (3.0, 3.0)]),
    ((0.0, 0.0), [(NAN, 0.0), (1.0, 1.0), (2.0, 2.0)]),
    ((0.0, 0.0), [(1.0, 1.0), (INF, 0.0), (2.0, 2.0)]),
    ((NAN, 0.0), [(1.0, 1.0), (2.0, 2.0)]),
    ((INF, 0.0), [(1.0, 1.0), (INF, INF), (2.0, 2.0), (-INF, 3.0)]),
])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_tour_matches_reference(start, positions):
    state = GalvoState(*start)
    order, total_ms = plan_scan(state, positions)
    assert sorted(order) == list(range(len(positions)))
    assert (order, total_ms) == reference_plan_scan(state, positions)
