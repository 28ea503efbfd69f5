import numpy as np
import pytest

from panosearch.config import (ConfigError, ObjectGroupSpec, RegionSpec,
                               SceneConfig)
from panosearch.experiment import default_scene_variants
from panosearch.config import default_scenario
from panosearch.scene import _reflect, build_scene, region_at, step_motion


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


def _with_object(scene, center, velocity):
    from dataclasses import replace
    obj = replace(scene.objects[0], center=center, velocity=velocity)
    return replace(scene, objects=(obj,))


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
    return replace(scene, objects=tuple(moved))


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
        assert scene.band_order == want.band_order
        assert scene.band_x == want.band_x


def test_region_at_lookup_and_bounds():
    cfg = SceneConfig(regions=[RegionSpec("left", (0, 0, 720, 1200)),
                               RegionSpec("right", (720, 0, 720, 1200))])
    scene = build_scene(cfg, seed=0)
    assert region_at(scene, 0, 0) == 0
    assert region_at(scene, 1439, 0) == 1
    with pytest.raises(ValueError):
        region_at(scene, 1440, 0)


def test_single_region_everything_maps_to_it():
    scene = build_scene(single_region_config(), seed=0)
    for x, y in [(0, 0), (719.5, 600.2), (1439, 1199)]:
        assert region_at(scene, x, y) == 0


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
