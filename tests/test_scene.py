import dataclasses
import gc
import math
import tracemalloc
import warnings
import weakref
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from panosearch.config import (ConfigError, ObjectGroupSpec, RegionSpec,
                               SceneConfig)
from panosearch.experiment import default_scene_variants, run_trial
from panosearch.galvo import capture_view, view_candidates
from panosearch.config import check_scenario, default_scenario
from panosearch import scene as scene_module
from panosearch.particles import _disc_draw
from panosearch.ppm import segment_panorama
from panosearch.scene import (GtObject, _label_grid, bbox_draw, build_scene,
                              object_columns, rejection_sample, sample_region,
                              step_motion)


def single_region_config(groups=None):
    return SceneConfig(regions=[], groups=groups or [],
                       class_priors={"car": {"field": 1.0}})


def test_single_full_frame_region_no_objects():
    scene = build_scene(single_region_config(), seed=0)
    assert len(scene.regions) == 1
    assert scene.regions[0].area_px == 1440 * 1200
    assert len(scene.objects) == 0


def test_full_cover_rect_drops_background():
    cfg = SceneConfig(regions=[RegionSpec("road", (0, 0, 1440, 1200))],
                      class_priors={"car": {"road": 1.0}})
    scene = build_scene(cfg, seed=0)
    assert len(scene.regions) == 1
    assert scene.regions[0].label == "road"


def test_partition_area_sums_to_panorama():
    scene = build_scene(default_scenario().scene, seed=3)
    assert sum(r.area_px for r in scene.regions) == scene.width * scene.height
    counts = np.bincount(scene.labels.ravel(), minlength=len(scene.regions))
    for region in scene.regions:
        assert counts[region.id] == region.area_px


def test_same_config_seed_is_bitwise_identical():
    cfg = default_scenario().scene
    a = build_scene(cfg, seed=42)
    b = build_scene(cfg, seed=42)
    assert np.array_equal(a.labels, b.labels)
    assert a.regions == b.regions
    assert a.objects == b.objects


def test_default_scene_has_exactly_three_pano_detectable():
    # construction rule: flagged iff max(size) >= pano_detect_threshold
    scene = build_scene(default_scenario().scene, seed=7)
    flagged = [o for o in scene.objects if o.pano_detectable]
    assert len(scene.objects) == 9
    assert len(flagged) == 3
    for obj in scene.objects:
        assert obj.pano_detectable == (max(obj.size) >= 60.0)


def test_overlapping_regions_rejected():
    cfg = SceneConfig(regions=[RegionSpec("a", (0, 0, 800, 1200)),
                               RegionSpec("b", (700, 0, 740, 1200))])
    with pytest.raises(ConfigError):
        build_scene(cfg, seed=0)


def test_zero_area_region_rejected():
    cfg = SceneConfig(regions=[RegionSpec("a", (0, 0, 0, 100))])
    with pytest.raises(ConfigError):
        build_scene(cfg, seed=0)


def test_step_motion_zero_dt_is_identity():
    scene = build_scene(default_scenario().scene, seed=1)
    assert step_motion(scene, 0) is scene


def with_objects(scene, objects):
    """The scene holding `objects` (GtObjects) as its object columns."""
    return dataclasses.replace(
        scene, **object_columns(map(dataclasses.astuple, objects)))


def _with_object(scene, center, velocity):
    obj = dataclasses.replace(scene.objects[0], center=center, velocity=velocity)
    return with_objects(scene, [obj])


def test_step_motion_hand_case():
    cfg = single_region_config(groups=[ObjectGroupSpec(count=1, size=(10, 10))])
    scene = _with_object(build_scene(cfg, seed=0), (10.0, 10.0), (5.0, 0.0))
    moved = step_motion(scene, 2)
    assert moved.objects[0].center == (20.0, 10.0)


def test_step_motion_reflects_at_border():
    cfg = single_region_config(groups=[ObjectGroupSpec(count=1, size=(10, 10))])
    scene = _with_object(build_scene(cfg, seed=0), (1439.0, 600.0), (5.0, 0.0))
    moved = step_motion(scene, 1)
    x, y = moved.objects[0].center
    assert 0 <= x < 1440
    assert x == pytest.approx(1434.0)
    assert moved.objects[0].velocity[0] == -5.0


def test_step_motion_conserves_objects_and_bounds():
    cfg = single_region_config(
        groups=[ObjectGroupSpec(count=12, size=(20, 12), speed=37.0)])
    scene = build_scene(cfg, seed=5)
    for _ in range(50):
        scene = step_motion(scene, 1)
    assert len(scene.objects) == 12
    for obj in scene.objects:
        assert 0 <= obj.center[0] < scene.width
        assert 0 <= obj.center[1] < scene.height


def _reflect(pos: float, lo: float, hi: float) -> tuple[float, float]:
    """Fold pos into [lo, hi] by mirror reflection; returns (pos, direction)."""
    span = hi - lo
    if span <= 0:
        return lo, 1.0
    t = (pos - lo) % (2.0 * span)
    if t <= span:
        return lo + t, 1.0
    return hi - (t - span), -1.0


def reference_step_motion(scene, dt):
    """The original step: every object rebuilt with dataclasses.replace."""
    from dataclasses import replace
    hi_x, hi_y = scene.width - 1.0, scene.height - 1.0
    moved = []
    for obj in scene.objects:
        x, dir_x = _reflect(obj.center[0] + obj.velocity[0] * dt, 0.0, hi_x)
        y, dir_y = _reflect(obj.center[1] + obj.velocity[1] * dt, 0.0, hi_y)
        moved.append(replace(obj, center=(x, y),
                             velocity=(obj.velocity[0] * dir_x,
                                       obj.velocity[1] * dir_y)))
    return with_objects(scene, moved)


def test_step_motion_matches_reference():
    # fast, mixed groups bounce off every border; every field must carry over
    cfg = single_region_config(groups=[
        ObjectGroupSpec(count=8, size=(20, 12), speed=97.0, occlusion=0.3),
        ObjectGroupSpec(count=3, size=(120, 60), speed=41.0,
                        class_name="truck")])
    scene = want = build_scene(cfg, seed=9)
    for dt in (1, 3, 0.5, 7):
        scene, want = step_motion(scene, dt), reference_step_motion(want, dt)
        assert scene.objects == want.objects
        # a pass over the snapshot sees what a full scan of the reference
        # sees, from a gaze at each object and at the panorama center
        gazes = [want.pano_to_galvo(*o.center) for o in want.objects] + [(0.0, 0.0)]
        among = view_candidates(scene, *np.array(gazes).T)
        for (th, tv), ids in zip(gazes, among):
            got = capture_view(scene, th, tv, among=ids)
            assert got == capture_view(want, th, tv)
            assert [scene.objects[i].id for i in ids] == \
                [v.object_id for v in got.visible]


# speeds from rest to the largest finite double, signed zeros included; at
# 1e308 a step overflows to inf, which folds to NaN as float % does
EDGE_SPEEDS = (0.0, 0.5, 1.0, 37.0, 1e6, 1e154, 1e300, 1e308)


@pytest.mark.parametrize("width, height", [(1, 48), (48, 1), (1, 1), (97, 31)])
def test_step_motion_matches_the_loop_at_its_edges(width, height):
    # 1-pixel axes have a zero span: the loop pins them at 0 where
    # np.remainder(x, 0.0) would warn and give NaN
    cfg = SceneConfig(width=width, height=height, regions=[],
                      class_priors={"car": {"field": 1.0}})
    corners = [(0.0, 0.0), (-0.0, -0.0), (width - 1.0, height - 1.0),
               ((width - 1.0) / 2.0, (height - 1.0) / 3.0)]
    velocities = [(sx * a, sy * b) for a, b in product(EDGE_SPEEDS, repeat=2)
                  for sx, sy in ((1.0, -1.0), (-1.0, 1.0))]
    scene = want = with_objects(build_scene(cfg, seed=0), [
        GtObject(i, "car", c, (4.0, 2.0), v, 0.25, False)
        for i, (c, v) in enumerate(product(corners, velocities))])
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        for dt in (1, 3, 0.5, 7):
            scene, want = step_motion(scene, dt), reference_step_motion(want, dt)
            # repr tells -0.0 from 0.0 and matches nan with nan
            assert repr(scene.objects) == repr(want.objects)
            assert scene.centers.dtype == scene.velocities.dtype == float


def test_ids_and_floats_stay_python_scalars():
    # repr(np.int64(3)) is "np.int64(3)" under numpy 2: a numpy key or field
    # would change every repr-based digest of the results
    cfg = default_scenario()
    scene = build_scene(cfg.scene, seed=4)
    for world in (scene, step_motion(scene, 1)):
        for obj in world.objects:
            assert type(obj.id) is int and type(obj.class_name) is str
            assert type(obj.occlusion) is float
            assert type(obj.pano_detectable) is bool
            for pair in (obj.center, obj.size, obj.velocity):
                assert type(pair) is tuple
                assert [type(v) for v in pair] == [float, float]
        for center in world.centers.tolist():
            gaze = world.pano_to_galvo(*center)
            for vis in capture_view(world, *gaze).visible:
                assert type(vis.object_id) is int
                assert [type(v) for v in vis[1:]] == [float] * 5
    _, dets = segment_panorama(scene, cfg.noise, 0)
    assert dets and {type(d.object_id) for d in dets} == {int}
    result = run_trial(scene, "ppm_ps", 120, 2, seed=1, cfg=cfg)
    assert result.found and result.pre_vars
    assert {type(k) for k in (*result.found, *result.pre_vars)} == {int}


@pytest.mark.parametrize("ids, row", [((0, 2, 1), 1), ((100, 101, 102), 0)])
def test_object_ids_must_be_their_rows(ids, row):
    # a ppm_ps trial indexes the object columns by id: the default world at
    # seed 7 with its ids shifted by 100 used to fail there with IndexError
    scene = build_scene(default_scenario().scene, seed=7)
    rows = [dataclasses.replace(obj, id=i) for obj, i
            in zip(scene.objects, ids + tuple(range(len(ids), len(scene.centers))))]
    with pytest.raises(ValueError, match=f"object row {row} has id {ids[row]}"):
        object_columns(map(dataclasses.astuple, rows))
    # the columns keep no id: a world's objects take their rows as ids
    columns = object_columns(map(dataclasses.astuple, scene.objects))
    assert "ids" not in columns
    assert dataclasses.replace(scene, **columns).objects == scene.objects
    assert [obj.id for obj in scene.objects] == list(range(len(scene.centers)))


def test_label_grid_lookup():
    cfg = SceneConfig(regions=[RegionSpec("left", (0, 0, 720, 1200)),
                               RegionSpec("right", (720, 0, 720, 1200))])
    scene = build_scene(cfg, seed=0)
    assert scene.labels[0, 0] == 0
    assert scene.labels[0, 1439] == 1


def test_single_region_everything_maps_to_it():
    scene = build_scene(single_region_config(), seed=0)
    for x, y in [(0, 0), (719.5, 600.2), (1439, 1199)]:
        assert scene.labels[int(y), int(x)] == 0


def test_pano_galvo_round_trip_and_span():
    scene = build_scene(single_region_config(), seed=0)
    # full width maps onto the 40 degree span
    th, tv = scene.pano_to_galvo(0.0, 600.0)
    assert th == pytest.approx(-20.0)
    th, _ = scene.pano_to_galvo(1440.0, 600.0)
    assert th == pytest.approx(20.0)
    x, y = scene.galvo_to_pano(*scene.pano_to_galvo(123.0, 456.0))
    assert (x, y) == (pytest.approx(123.0), pytest.approx(456.0))


def test_scene_variants_cover_requested_count():
    variants = default_scene_variants(default_scenario().scene, 5)
    assert len(variants) == 5
    rects = {v.regions[0].rect for v in variants}
    assert len(rects) == 5
    for v in variants:
        build_scene(v, seed=0)  # all variants remain valid partitions


@pytest.mark.parametrize("height", [600, 400, 300, 1])
def test_scene_variants_stay_inside_a_short_panorama(height):
    base = dataclasses.replace(default_scenario().scene, height=height)
    base.regions = [RegionSpec("road", (240, 0, 960, height))]
    for v in default_scene_variants(base, 10):
        x, y, w, h = v.regions[0].rect
        assert 0 <= y and y + h <= height and h == min(360, height)
        assert 0 <= x and x + w <= v.width
        build_scene(v, seed=0)


def test_scene_variants_keep_the_tall_panorama_rectangles():
    variants = default_scene_variants(default_scenario().scene, 5)
    assert [v.regions[0].rect[1::2] for v in variants] == [
        (380, 360), (420, 360), (460, 360), (400, 360), (440, 360)]


def test_scene_variant_that_would_overlap_another_region_keeps_the_configured_one():
    # the third variant would span y = 460-820 over the yard at y = 800-900
    base = dataclasses.replace(default_scenario().scene)
    road = RegionSpec("road", (240, 420, 960, 360))
    base.regions = [road, RegionSpec("yard", (240, 800, 100, 100))]
    variants = default_scene_variants(base, 5)
    assert [v.regions[0].rect[1] for v in variants] == [380, 420, 420, 400, 440]
    assert variants[2].regions == base.regions
    for v in variants:
        build_scene(v, seed=0)


# --- one rejection sampler against the three it replaced -------------------------

def ref_sample_in_region(rng, labels, bbox, region_id, max_rounds=64):
    x0, y0, x1, y1 = bbox
    for _ in range(max_rounds):
        xs = rng.uniform(x0, x1, size=16)
        ys = rng.uniform(y0, y1, size=16)
        hit = labels[ys.astype(np.intp), xs.astype(np.intp)] == region_id
        idx = np.flatnonzero(hit)
        if idx.size:
            i = int(idx[0])
            return (float(xs[i]), float(ys[i]))
    raise ConfigError(f"could not place a point in region {region_id}")


def ref_uniform_in_region(rng, grid, bbox, region_id, count, max_rounds=200):
    x0, y0, x1, y1 = bbox
    got = 0
    for _ in range(max_rounds):
        need = count - got
        if need <= 0:
            return
        batch = max(need * 2, 16)
        xs = rng.uniform(x0, x1, size=batch)
        ys = rng.uniform(y0, y1, size=batch)
        ok = grid[ys.astype(np.intp), xs.astype(np.intp)] == region_id
        for i in np.flatnonzero(ok)[:need]:
            yield (float(xs[i]), float(ys[i]))
            got += 1
    if got < count:
        raise RuntimeError("starved")


def ref_uniform_in_disc(rng, grid, center, radius, region_id, count,
                        max_rounds=200):
    h, w = grid.shape
    cx, cy = center
    got = 0
    for _ in range(max_rounds):
        need = count - got
        if need <= 0:
            return
        batch = max(need * 2, 16)
        r = radius * np.sqrt(rng.random(batch))
        phi = rng.uniform(0.0, 2.0 * math.pi, size=batch)
        xs = np.clip(cx + r * np.cos(phi), 0.0, w - 1.0)
        ys = np.clip(cy + r * np.sin(phi), 0.0, h - 1.0)
        ok = grid[ys.astype(np.intp), xs.astype(np.intp)] == region_id
        for i in np.flatnonzero(ok)[:need]:
            yield (float(xs[i]), float(ys[i]))
            got += 1
    for _ in range(count - got):
        yield (float(min(max(cx, 0.0), w - 1.0)), float(min(max(cy, 0.0), h - 1.0)))


@st.composite
def sampler_cases(draw):
    h, w = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    # region 0 is often rare or absent, so rounds run out
    cells = draw(st.lists(st.sampled_from([0, 1, 1, 2]), min_size=h * w,
                          max_size=h * w))
    labels = np.array(cells, dtype=np.int16).reshape(h, w)
    x0, y0 = draw(st.integers(0, w - 1)), draw(st.integers(0, h - 1))
    bbox = (x0, y0, draw(st.integers(x0 + 1, w)), draw(st.integers(y0 + 1, h)))
    return (labels, bbox, draw(st.integers(0, 2)), draw(st.integers(1, 40)),
            draw(st.integers(1, 4)), draw(st.integers(0, 2**32 - 1)))


def as_array(points):
    """Reference (x, y) points as the (n, 2) array of rejection_sample's columns."""
    return np.array(points, dtype=float).reshape(-1, 2)


def _drain(gen, out):
    try:
        out.extend(gen)
    except RuntimeError:
        return False
    return True


@given(case=sampler_cases(), center=st.tuples(st.floats(-3, 12), st.floats(-3, 12)),
       radius=st.floats(0.0, 6.0))
@settings(max_examples=300, deadline=None)
def test_rejection_sample_matches_the_three_old_samplers(case, center, radius):
    labels, bbox, rid, count, rounds, seed = case
    h, w = labels.shape

    old, new = np.random.default_rng(seed), np.random.default_rng(seed)
    try:
        expected = [ref_sample_in_region(old, labels, bbox, rid, rounds)]
    except ConfigError:
        expected = []
    got = np.column_stack(rejection_sample(new, labels, rid, bbox_draw(bbox), 1,
                                           rounds))
    assert np.array_equal(got, as_array(expected))
    assert old.bit_generator.state == new.bit_generator.state

    old, new = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = []
    filled = _drain(ref_uniform_in_region(old, labels, bbox, rid, count, rounds),
                    expected)
    got = np.column_stack(rejection_sample(new, labels, rid, bbox_draw(bbox),
                                           count, rounds))
    assert np.array_equal(got, as_array(expected))
    assert filled == (len(got) == count)
    assert old.bit_generator.state == new.bit_generator.state

    old, new = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = list(ref_uniform_in_disc(old, labels, center, radius, rid, count,
                                        rounds))
    got = np.column_stack(rejection_sample(new, labels, rid,
                                           _disc_draw(center, radius, w, h),
                                           count, rounds))
    assert np.array_equal(got, as_array(expected[:len(got)]))
    fallback = (float(min(max(center[0], 0.0), w - 1.0)),
                float(min(max(center[1], 0.0), h - 1.0)))
    assert expected[len(got):] == [fallback] * (count - len(got))
    assert old.bit_generator.state == new.bit_generator.state


# --- one label grid per layout, shared among live worlds -------------------------

def reference_grid(config):
    """The label grid and region areas as build_scene stamped them when each
    world held its own grid."""
    width, height = config.width, config.height
    if width <= 0 or height <= 0:
        raise ConfigError("panorama dimensions must be positive")
    labels = np.full((height, width), -1, dtype=np.int16)
    areas = []
    for idx, spec in enumerate(config.regions):
        x, y, w, h = spec.rect
        if w <= 0 or h <= 0:
            raise ConfigError(f"region {spec.label!r}: zero-area rectangle")
        if x < 0 or y < 0 or x + w > width or y + h > height:
            raise ConfigError(f"region {spec.label!r}: rectangle outside the panorama")
        window = labels[y:y + h, x:x + w]
        if (window != -1).any():
            raise ConfigError(f"region {spec.label!r}: overlaps an earlier region")
        window[:] = idx
        areas.append(float(w * h))
    uncovered = int((labels == -1).sum())
    if uncovered > 0:
        labels[labels == -1] = len(areas)
        areas.append(float(uncovered))
    return labels, areas


# --- region draws complete however little of its box a region fills ----------

@given(case=sampler_cases())
@settings(max_examples=300, deadline=None)
def test_sample_region_completes_the_rejection_rounds(case):
    labels, bbox, rid, count, rounds, seed = case
    x0, y0, x1, y1 = bbox
    assume((labels[y0:y1, x0:x1] == rid).any())
    old, new = np.random.default_rng(seed), np.random.default_rng(seed)
    hx, hy = rejection_sample(old, labels, rid, bbox_draw(bbox), count, rounds)
    xs, ys = sample_region(new, labels, rid, bbox, count, rounds)
    assert len(xs) == len(ys) == count
    assert np.array_equal(xs[:len(hx)], hx) and np.array_equal(ys[:len(hy)], hy)
    assert ((x0 <= xs) & (xs < x1) & (y0 <= ys) & (ys < y1)).all()
    assert (labels[ys.astype(np.intp), xs.astype(np.intp)] == rid).all()
    if len(hx) == count:  # no draw changes when the rounds suffice
        assert old.bit_generator.state == new.bit_generator.state


def test_sample_region_fills_uniformly_over_the_region_pixels():
    labels = np.zeros((50, 60), dtype=np.int8)
    labels[[3, 17, 40], [5, 33, 59]] = 1
    xs, ys = sample_region(np.random.default_rng(3), labels, 1, (0, 0, 60, 50),
                           30000, max_rounds=1)
    cells = ys.astype(int) * 60 + xs.astype(int)
    counts = [np.count_nonzero(cells == c) for c in (3 * 60 + 5, 17 * 60 + 33,
                                                     40 * 60 + 59)]
    # binomial sd about 82 per pixel; the offset mean has sd about 0.0012
    assert sum(counts) == 30000
    assert all(abs(c - 10000) < 400 for c in counts)
    assert abs(np.concatenate((xs % 1.0, ys % 1.0)).mean() - 0.5) < 0.006


def sliver_config():
    """A road over all but the bottom 3 rows, three cars pinned to the
    background those rows leave, and a prior that favours it."""
    return SceneConfig(regions=[RegionSpec("road", (0, 0, 1440, 1197))],
                       groups=[ObjectGroupSpec(count=3, region_label="field")],
                       class_priors={"car": {"road": 0.001, "field": 0.9}})


def test_cars_pinned_to_a_three_row_background_are_placed_at_every_seed():
    for seed in range(50):
        scene = build_scene(sliver_config(), seed)
        assert len(scene.objects) == 3
        for obj in scene.objects:
            x, y = obj.center
            assert scene.labels[int(y), int(x)] == 1


def test_equal_layouts_share_one_label_grid():
    base = default_scenario().scene
    first = build_scene(base, seed=1)
    others = [
        build_scene(base, seed=2),
        build_scene(dataclasses.replace(
            base, groups=[ObjectGroupSpec("car", 2, (30, 20))]), seed=1),
        build_scene(dataclasses.replace(
            base, class_priors={"car": {"road": 0.1}}), seed=1),
        build_scene(dataclasses.replace(base, regions=[
            dataclasses.replace(r, label=r.label + "_x") for r in base.regions],
            background_label="meadow", groups=[]), seed=1),
        step_motion(first, 3),
    ]
    for world in others:
        assert world.labels is first.labels
    assert not first.labels.flags.writeable


def test_a_different_layout_gets_its_own_grid():
    base = default_scenario().scene
    world = build_scene(base, seed=1)
    (x, y, w, h), rest = base.regions[0].rect, base.regions[1:]
    moved = dataclasses.replace(base, regions=[
        dataclasses.replace(base.regions[0], rect=(x + 1, y, w, h)), *rest])
    wider = dataclasses.replace(base, width=base.width + 8)
    taller = dataclasses.replace(base, height=base.height + 8)
    for cfg in (moved, wider, taller):
        other = build_scene(cfg, seed=1)
        assert other.labels is not world.labels
        assert np.array_equal(other.labels, reference_grid(cfg)[0])


def test_grid_is_freed_with_the_last_world_using_it():
    cfg = SceneConfig(width=97, height=61,
                      regions=[RegionSpec("a", (3, 5, 40, 20))])
    a, b = build_scene(cfg, seed=0), build_scene(cfg, seed=1)
    grid = weakref.ref(a.labels)
    del a
    gc.collect()
    assert grid() is b.labels
    del b
    gc.collect()
    assert grid() is None


# explicit ids keep each case's test id stable
@pytest.mark.parametrize("bad, message", [
    pytest.param(RegionSpec("b", (700, 0, 740, 1200)),
                 "scene.region[1] (b): overlaps an earlier region",
                 id="bad0-'b': overlaps an earlier region"),
    pytest.param(RegionSpec("b", (900, 0, 600, 1200)),
                 "scene.region[1] (b): rect outside the panorama",
                 id="bad1-'b': rectangle outside the panorama"),
    pytest.param(RegionSpec("b", (900, 0, 0, 1200)),
                 "scene.region[1] (b): zero-area rect",
                 id="bad2-'b': zero-area rectangle"),
])
def test_invalid_layouts_still_raise_once_a_valid_one_is_cached(bad, message):
    good = SceneConfig(regions=[RegionSpec("a", (0, 0, 800, 1200))])
    world = build_scene(good, seed=0)
    cfg = SceneConfig(regions=[good.regions[0], bad])
    with pytest.raises(ConfigError) as got:
        build_scene(cfg, seed=0)
    assert str(got.value) == message
    with pytest.raises(ConfigError):
        reference_grid(cfg)
    assert build_scene(good, seed=1).labels is world.labels


@st.composite
def layouts(draw):
    """Small panoramas with up to four rectangles, valid or not."""
    width, height = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    rects = draw(st.lists(st.tuples(st.integers(-2, 24), st.integers(-2, 24),
                                    st.integers(0, 24), st.integers(0, 24)),
                          max_size=4))
    return SceneConfig(width=width, height=height,
                       regions=[RegionSpec(f"r{i}", rect)
                                for i, rect in enumerate(rects)],
                       class_priors={"car": {"r0": 1.0}})


@given(cfg=layouts())
@settings(max_examples=300, deadline=None)
def test_shared_grid_matches_the_per_world_stamping(cfg):
    # a valid layout of the same size is cached first; it must not mask errors
    held = build_scene(SceneConfig(width=cfg.width, height=cfg.height), seed=0)
    try:
        labels, areas = reference_grid(cfg)
    except ConfigError:
        # build_scene raises every layout line that check_scenario reports
        full = default_scenario()
        full.scene = cfg
        with pytest.raises(ConfigError) as got:
            build_scene(cfg, seed=0)
        assert str(got.value).splitlines() == [
            e for e in check_scenario(full) if e.startswith("scene.region[")]
        return
    scene = build_scene(cfg, seed=0)
    assert np.array_equal(scene.labels, labels)
    assert scene.labels.dtype == (np.int8 if len(cfg.regions) <= 127
                                  else np.int16)
    assert [r.area_px for r in scene.regions] == areas
    assert list(scene.region_bboxes) == [
        (x, y, x + w, y + h) for x, y, w, h in (r.rect for r in cfg.regions)
    ] + [(0, 0, cfg.width, cfg.height)] * (len(areas) - len(cfg.regions))
    assert build_scene(cfg, seed=1).labels is scene.labels
    assert (held.labels is scene.labels) == (not cfg.regions)


def test_study_variants_match_the_per_world_stamping():
    for cfg in default_scene_variants(default_scenario().scene, 10):
        scene = build_scene(cfg, seed=4)
        labels, areas = reference_grid(cfg)
        assert np.array_equal(scene.labels, labels)
        assert [r.area_px for r in scene.regions] == areas


@pytest.mark.parametrize("n_regions, dtype", [(127, np.int8), (128, np.int16)])
def test_grid_is_int8_while_the_background_id_fits(n_regions, dtype):
    # one-pixel columns with a gap between them, so a background remains
    cfg = SceneConfig(width=2 * n_regions, height=3,
                      regions=[RegionSpec(f"r{k}", (2 * k, 1, 1, 2))
                               for k in range(n_regions)])
    scene = build_scene(cfg, seed=0)
    labels, areas = reference_grid(cfg)
    assert scene.labels.dtype == dtype
    assert np.array_equal(scene.labels, labels)
    assert [r.area_px for r in scene.regions] == areas


@pytest.mark.parametrize("width, height", [(0, 5), (5, -1)])
def test_a_panorama_without_pixels_is_a_config_error(width, height):
    cfg = SceneConfig(width=width, height=height, regions=[], groups=[])
    with pytest.raises(ConfigError, match="^scene: the panorama has no pixels$"):
        build_scene(cfg, seed=0)


def test_region_ids_past_int16_are_a_config_error():
    def pixels(n):  # n one-pixel regions
        return SceneConfig(width=256, height=256, groups=[],
                           regions=[RegionSpec(f"r{k}", (k % 256, k // 256, 1, 1))
                                    for k in range(n)])
    assert build_scene(pixels(32_767), seed=0).labels.dtype == np.int16
    with pytest.raises(ConfigError, match="at most 32767"):
        build_scene(pixels(32_768), seed=0)


def test_stamping_a_grid_allocates_only_the_grid(monkeypatch):
    # a fresh cache, so that the default layout is stamped here
    monkeypatch.setattr(scene_module, "_GRIDS", weakref.WeakValueDictionary())
    cfg = default_scenario().scene
    tracemalloc.start()
    try:
        grid = _label_grid(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(grid, reference_grid(cfg)[0])
    assert peak <= grid.nbytes + 2**18


# --- region weights once per group, the draws of the per-object loop ----------

def reference_objects(config, seed):
    """Centers and velocities as build_scene drew them when it rebuilt the
    area x class-prior weights for every object."""
    scene = build_scene(config, seed)  # regions, grid and boxes are not drawn
    rng = np.random.default_rng(seed)
    regions = scene.regions
    by_label = {}
    for region in regions:
        by_label.setdefault(region.label, region)
    out = []
    for group in config.groups:
        for _ in range(group.count):
            if group.region_label is not None:
                region = by_label[group.region_label]
            else:
                weights = np.array([r.area_px * r.prior(group.class_name)
                                    for r in regions])
                total = weights.sum()
                if total <= 0:
                    weights = np.array([r.area_px for r in regions])
                    total = weights.sum()
                region = regions[int(rng.choice(len(regions), p=weights / total))]
            xs, ys = rejection_sample(rng, scene.labels, region.id,
                                      bbox_draw(scene.region_bboxes[region.id]),
                                      1, max_rounds=64)
            angle = rng.uniform(0.0, 2.0 * math.pi)
            out.append(((float(xs[0]), float(ys[0])),
                        (group.speed * math.cos(angle), group.speed * math.sin(angle))))
    return out


@st.composite
def placed_groups(draw):
    groups = []
    for _ in range(draw(st.integers(1, 5))):
        groups.append(ObjectGroupSpec(
            class_name=draw(st.sampled_from(["car", "bus", "bike"])),
            count=draw(st.integers(0, 6)), speed=draw(st.sampled_from([0.0, 2.0])),
            region_label=draw(st.sampled_from([None, None, "road", "field", "yard"]))))
    return groups


@given(groups=placed_groups(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_group_weights_keep_the_per_object_draws(groups, seed):
    # "bike" has no prior anywhere, so its groups fall back to area
    cfg = SceneConfig(width=160, height=120,
                      regions=[RegionSpec("road", (20, 30, 80, 40)),
                               RegionSpec("yard", (110, 10, 30, 100))],
                      groups=groups,
                      class_priors={"car": {"road": 0.7, "field": 0.05},
                                    "bus": {"yard": 1.0}})
    scene = build_scene(cfg, seed)
    assert [(o.center, o.velocity) for o in scene.objects] == \
        reference_objects(cfg, seed)


def test_unknown_pinned_region_raises_only_when_the_group_places_objects():
    for count in (0, 1):
        cfg = single_region_config([ObjectGroupSpec(count=count, region_label="road"),
                                    ObjectGroupSpec(count=2)])
        if count:
            with pytest.raises(ConfigError, match="pinned to unknown region 'road'"):
                build_scene(cfg, seed=0)
        else:
            assert len(build_scene(cfg, seed=0).objects) == 2
