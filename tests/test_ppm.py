import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panosearch.config import (ObjectGroupSpec, SceneConfig,
                               SegNoiseConfig, default_scenario)
from panosearch.ppm import (apportion, build_ppm, refine_allocation,
                            region_sampling_prob, segment_panorama,
                            subregion_share)
from panosearch.scene import Region, build_scene


def make_region(rid=0, area=1000.0, prior=0.5, label="r"):
    return Region(id=rid, label=label, area_px=area, class_prior={"car": prior})


# --- region sampling probability ------------------------------------------

def test_single_region_prob_is_one():
    probs = region_sampling_prob([make_region()], "car")
    assert probs[0] == pytest.approx(1.0)


def test_equal_regions_split_evenly():
    regions = [make_region(0, 500.0, 0.3), make_region(1, 500.0, 0.3)]
    probs = region_sampling_prob(regions, "car")
    assert probs[0] == pytest.approx(0.5)
    assert probs[1] == pytest.approx(0.5)


def test_hand_computed_two_region_case():
    # areas 60%/40%, priors 0.8/0.1 -> 0.48/0.52 and 0.04/0.52
    regions = [make_region(0, 600.0, 0.8), make_region(1, 400.0, 0.1)]
    probs = region_sampling_prob(regions, "car")
    assert probs[0] == pytest.approx(0.48 / 0.52, rel=1e-12)
    assert probs[1] == pytest.approx(0.04 / 0.52, rel=1e-12)


def test_no_admissible_region_raises():
    with pytest.raises(ValueError, match="no admissible region"):
        region_sampling_prob([make_region(prior=0.0)], "car")


def test_subnormal_prior_is_admissible():
    # (1 / 2) * 5e-324 underflows to zero, but the product area x prior does not
    probs = region_sampling_prob([make_region(0, 1.0, 0.0),
                                  make_region(1, 1.0, 5e-324)], "car")
    assert probs == {0: 0.0, 1: 1.0}


@given(st.lists(st.tuples(st.floats(1.0, 1e6), st.floats(0.0, 1.0)),
                min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_region_probs_normalize(data):
    regions = [make_region(i, a, p) for i, (a, p) in enumerate(data)]
    if sum(a * p for a, p in data) <= 0:
        with pytest.raises(ValueError):
            region_sampling_prob(regions, "car")
        return
    probs = region_sampling_prob(regions, "car")
    assert abs(sum(probs.values()) - 1.0) <= 1e-9
    assert all(v >= 0 for v in probs.values())


def test_prior_monotonicity():
    # raising one region's prior never lowers its probability
    base = region_sampling_prob(
        [make_region(0, 600.0, 0.4), make_region(1, 400.0, 0.5)], "car")
    bumped = region_sampling_prob(
        [make_region(0, 600.0, 0.6), make_region(1, 400.0, 0.5)], "car")
    assert bumped[0] >= base[0]


# --- allocation -------------------------------------------------------------

class FakeDet:
    def __init__(self, sigma_o):
        self.sigma_o = sigma_o


def test_refine_allocation_no_detections():
    counts, x_rm = refine_allocation(make_region(), 57, [], 0.3)
    assert counts == []
    assert x_rm == 57


def test_refine_allocation_hand_case():
    # one disc of area pi*(50*0.1)^2 in a 1000 px^2 region at prob 0.2
    region = make_region(area=1000.0)
    counts, x_rm = refine_allocation(region, 100, [FakeDet(0.1)], 0.2)
    s_ro = math.pi * 25.0
    expected = s_ro / (s_ro + 0.2 * (1000.0 - s_ro)) * 100
    assert expected == pytest.approx(29.88, abs=0.01)
    assert counts == [30]
    assert x_rm == 70


def test_refine_allocation_vanishing_disc():
    counts, x_rm = refine_allocation(make_region(area=1000.0), 100,
                                     [FakeDet(1e-9)], 0.2)
    assert counts == [0]
    assert x_rm == 100


def test_refine_allocation_degenerate_discs_split_proportionally():
    # discs nominally exceed the region: remainder collapses, split by area
    region = make_region(area=100.0)
    counts, x_rm = refine_allocation(region, 10, [FakeDet(1.0), FakeDet(1.0)], 0.5)
    assert x_rm == 0
    assert sum(counts) == 10


def test_refine_allocation_sigma_monotonicity():
    region = make_region(area=1.0e5)
    prev = -1
    for sigma in (0.05, 0.1, 0.2, 0.4, 0.8):
        counts, _ = refine_allocation(region, 500, [FakeDet(sigma)], 0.4)
        assert counts[0] >= prev
        prev = counts[0]


@given(st.integers(0, 500),
       st.lists(st.floats(0.02, 1.0), min_size=0, max_size=3),
       st.floats(0.01, 1.0),
       st.floats(2.0e4, 5.0e5))
@settings(max_examples=200, deadline=None)
def test_refine_allocation_conserves(x_r, sigmas, f_region, area):
    region = make_region(area=area)
    counts, x_rm = refine_allocation(region, x_r, [FakeDet(s) for s in sigmas],
                                     f_region)
    assert x_rm >= 0
    assert all(c >= 0 for c in counts)
    assert sum(counts) + x_rm == x_r


def test_allocation_matches_direct_formula_within_rounding():
    # small instances against a direct evaluation of the share expression
    rng = np.random.default_rng(0)
    for _ in range(300):
        n_regions = int(rng.integers(1, 5))
        n_dets = int(rng.integers(0, 4))
        area = float(rng.uniform(5e4, 5e5))
        f_region = float(rng.uniform(0.05, 1.0))
        x_r = int(rng.integers(0, 800))
        sigmas = rng.uniform(0.02, 0.6, size=n_dets)
        region = make_region(area=area)
        counts, x_rm = refine_allocation(region, x_r,
                                         [FakeDet(s) for s in sigmas], f_region)
        s_ros = [math.pi * (50.0 * s) ** 2 for s in sigmas]
        if sum(s_ros) >= area:
            continue
        s_rm = area - sum(s_ros)
        for count, s_ro in zip(counts, s_ros):
            direct = (1.0 * s_ro) / (1.0 * s_ro + f_region * s_rm) * x_r
            assert abs(count - direct) <= 0.5 + 1e-9


def test_apportion_exact_and_deterministic():
    assert sum(apportion(800, [0.838, 0.162])) == 800
    assert apportion(10, [1, 1, 1]) == [4, 3, 3]
    assert apportion(0, [1, 2]) == [0, 0]
    assert apportion(5, [0, 0]) == [3, 2]


# --- segmentation -----------------------------------------------------------

def test_zero_noise_segmentation_is_ground_truth():
    scene = build_scene(default_scenario().scene, seed=2)
    grid, dets = segment_panorama(scene, SegNoiseConfig(), seed=0)
    assert grid is scene.labels
    assert len(dets) == 3  # the pano-detectable objects of the default scene
    by_id = {o.id: o for o in scene.objects}
    for det in dets:
        assert det.center == by_id[det.object_id].center
        assert det.sigma_o > 0


def test_full_occlusion_floors_confidence():
    cfg = SceneConfig(
        regions=[], class_priors={"car": {"field": 1.0}},
        groups=[ObjectGroupSpec(count=1, size=(120, 60), occlusion=1.0)])
    scene = build_scene(cfg, seed=0)
    _, dets = segment_panorama(scene, SegNoiseConfig(), seed=0)
    assert dets[0].confidence <= 0.05
    assert dets[0].sigma_o >= 0.9


def test_label_flip_noise_changes_grid_but_not_partition_size():
    scene = build_scene(default_scenario().scene, seed=2)
    grid, _ = segment_panorama(scene, SegNoiseConfig(label_flip=0.05), seed=1)
    assert grid is not scene.labels
    changed = (grid != scene.labels).mean()
    assert 0.03 < changed < 0.07
    assert grid.shape == scene.labels.shape


# --- composition ------------------------------------------------------------

def test_build_ppm_requires_positive_count():
    scene = build_scene(default_scenario().scene, seed=2)
    with pytest.raises(ValueError):
        build_ppm(scene, SegNoiseConfig(), "car", 0, seed=0)


def test_build_ppm_single_region_no_detections():
    cfg = SceneConfig(regions=[], class_priors={"car": {"field": 1.0}})
    scene = build_scene(cfg, seed=0)
    ppm = build_ppm(scene, SegNoiseConfig(), "car", 800, seed=0)
    assert ppm.remainder_counts[0] == 800
    assert ppm.sub_regions == ()


def test_build_ppm_conserves_total():
    scene = build_scene(default_scenario().scene, seed=4)
    ppm = build_ppm(scene, SegNoiseConfig(center_std_px=3.0), "car", 800, seed=9)
    total = sum(ppm.remainder_counts.values()) + sum(s.count for s in ppm.sub_regions)
    assert total == 800
    assert abs(sum(ppm.region_probs.values()) - 1.0) <= 1e-9


def test_build_ppm_subregion_discs_inside_parent_bbox():
    scene = build_scene(default_scenario().scene, seed=4)
    ppm = build_ppm(scene, SegNoiseConfig(), "car", 800, seed=9)
    assert len(ppm.sub_regions) > 0
    for sub in ppm.sub_regions:
        x0, y0, x1, y1 = ppm.region_bboxes[sub.region_id]
        assert x0 <= sub.center[0] < x1
        assert y0 <= sub.center[1] < y1
