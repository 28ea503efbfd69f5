import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panosearch.config import (ObjectGroupSpec, RegionSpec, SceneConfig,
                               SegNoiseConfig, default_scenario)
from panosearch.ppm import (_flip_positions, _measure_regions, allocate_ppm,
                            apportion, build_ppm, refine_allocation,
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


def test_zero_products_fall_back_to_area():
    # no region can hold the target: regions are drawn by area alone
    probs = region_sampling_prob([make_region(0, 300.0, 0.0),
                                  make_region(1, 100.0, 0.0)], "car")
    assert probs == {0: 0.75, 1: 0.25}


def test_only_regions_without_area_raise():
    for regions in ([], [make_region(0, 0.0, 0.5), make_region(1, 0.0, 0.0)]):
        with pytest.raises(ValueError, match="no region holds any area"):
            region_sampling_prob(regions, "car")
    # a region without area takes nothing, whatever its prior, and the
    # products left are all zero
    probs = region_sampling_prob([make_region(0, 0.0, 0.9),
                                  make_region(1, 5.0, 0.0)], "car")
    assert probs == {0: 0.0, 1: 1.0}


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
    probs = region_sampling_prob(regions, "car")
    assert abs(sum(probs.values()) - 1.0) <= 1e-9
    assert all(v >= 0 for v in probs.values())
    if sum(a * p for a, p in data) <= 0:  # every product is zero: area alone
        total = sum(a for a, _ in data)
        assert all(probs[i] == pytest.approx(a / total)
                   for i, (a, _) in enumerate(data))


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


def reference_gap(rng, p):
    """One geometric(p) gap: numpy's own below p = 1/3, where numpy inverts an
    exponential; from 1/3, where numpy searches sequentially instead, the
    inversion ceil(E / -log1p(-p)) written plainly."""
    if p < 1 / 3:
        return rng.geometric(p)
    return math.ceil(rng.standard_exponential() / -math.log1p(-p))


def reference_flip_mask(n, label_flip, rng, batch):
    """The flip draw written plainly: one scalar gap at a time, in batches of
    `batch`, until a batch ends at or past the last pixel.  Python ints, so
    no gap needs clamping."""
    flip = np.zeros(n, dtype=bool)
    if label_flip >= 1.0:
        flip[:] = True
        return flip
    pos = -1
    while pos < n - 1:
        for _ in range(batch):
            pos += reference_gap(rng, label_flip)
            if pos < n:
                flip[pos] = True
    return flip


def reference_noisy_grid(scene, label_flip, seed):
    """The gap rule's flips through a boolean mask that indexes the grid
    twice, in batches of int(n p + 6 sqrt(n p)) + 16 gaps.  Its sums are
    exact, wherever int16 ids would wrap."""
    rng = np.random.default_rng(seed)
    n_regions = len(scene.regions)
    grid = scene.labels.copy()
    n = grid.size
    batch = int(n * label_flip + 6 * math.sqrt(n * label_flip)) + 16
    flip = reference_flip_mask(n, label_flip, rng, batch).reshape(grid.shape)
    offsets = rng.integers(1, n_regions, size=int(flip.sum()), dtype=np.int16)
    grid[flip] = (grid[flip].astype(np.int64) + offsets) % n_regions
    return grid, rng


def check_label_flip_against_reference(cfg, label_flip, seed):
    scene = build_scene(cfg, seed=2)
    noise = SegNoiseConfig(label_flip=label_flip, conf_std=0.1, center_std_px=2.0)
    gen = np.random.default_rng(seed)
    grid, dets = segment_panorama(scene, noise, gen)
    want, ref = reference_noisy_grid(scene, label_flip, seed)
    assert grid.dtype == want.dtype
    assert np.array_equal(grid, want)
    # same draws in the same order: one confidence and two center draws per
    # detection follow the flips, leaving both streams at the same state
    ref.normal(size=3 * len(dets))
    assert gen.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("label_flip,seed", [(0.05, 1), (0.3, 7), (1.0, 2)])
@pytest.mark.parametrize("extra_regions", [0, 2])
def test_label_flip_matches_boolean_mask_reference(label_flip, seed,
                                                   extra_regions):
    cfg = default_scenario().scene
    cfg.regions += [RegionSpec(label="lot", rect=(40 + 100 * k, 40, 80, 200))
                    for k in range(extra_regions)]
    check_label_flip_against_reference(cfg, label_flip, seed)


# panoramas of 60,000 pixels, of 2^17 and of 2^17 + 1 (the ids count chunks
# of 2^16 pixels), with the road region on their right quarter; at
# label_flip 1.0 every pixel flips, so the last two fill whole 16 Ki-flip
# apply chunks and then one flip more
@pytest.mark.parametrize("size", [(300, 200), (2 * 2**16 // 256, 256),
                                  (2 * 2**16 + 1, 1)],
                         ids=["under_one_chunk", "two_chunks",
                              "two_chunks_and_1px"])
@pytest.mark.parametrize("label_flip,seed", [(0.05, 1), (0.3, 7), (1.0, 2)])
def test_label_flip_matches_boolean_mask_reference_at_chunk_edges(
        size, label_flip, seed):
    width, height = size
    cfg = default_scenario().scene
    cfg.width, cfg.height = width, height
    cfg.regions = [RegionSpec(label="road", rect=(width * 3 // 4, 0,
                                                  width - width * 3 // 4,
                                                  height))]
    cfg.regions += [RegionSpec(label="lot", rect=(40 + 100 * k, 0, 80,
                                                  min(200, height)))
                    for k in range(2)]
    check_label_flip_against_reference(cfg, label_flip, seed)


def test_label_flip_of_ids_past_16383_does_not_wrap():
    # 20,000 one-pixel regions and the background: most id + offset sums of
    # flipped pixels pass 32,767
    cfg = SceneConfig(width=256, height=128, groups=[],
                      regions=[RegionSpec(f"r{k}", (k % 256, k // 256, 1, 1))
                               for k in range(20_000)])
    check_label_flip_against_reference(cfg, 0.3, 3)


@pytest.mark.parametrize("label_flip,seed", [(0.05, 1), (1.0, 2)])
@pytest.mark.parametrize("rects,dtype", [(127, np.int8), (128, np.int16)],
                         ids=["int8_ids_to_127", "int16_ids_from_128"])
def test_label_flip_at_the_edge_of_int8_ids(rects, dtype, label_flip, seed):
    # one-pixel regions and the background: 128 regions keep int8 ids up to
    # 127, whose sums with an offset reach 254 in int16; 129 take int16 ids
    # and int32 sums
    cfg = SceneConfig(width=64, height=32, groups=[],
                      regions=[RegionSpec(f"r{k}", (k % 64, k // 64, 1, 1))
                               for k in range(rects)])
    assert build_scene(cfg, seed=2).labels.dtype == dtype
    check_label_flip_against_reference(cfg, label_flip, seed)


@pytest.mark.parametrize("n,label_flip", [(1, 0.5), (50, 0.3), (1000, 0.05),
                                          (10**6, 0.001)])
def test_flip_gaps_come_in_one_batch_of_the_pinned_size(n, label_flip):
    # the batch size is part of the stream: one batch of
    # int(n p + 6 sqrt(n p)) + 16 gaps and nothing more
    gen, ref = np.random.default_rng(5), np.random.default_rng(5)
    _flip_positions(n, label_flip, gen)
    batch = int(n * label_flip + 6 * math.sqrt(n * label_flip)) + 16
    for _ in range(batch):
        reference_gap(ref, label_flip)
    assert gen.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("label_flip", [1e-9, 1e-3, 0.05, 0.3])
def test_flip_gaps_below_a_third_are_numpys_geometric(label_flip):
    # below p = 1/3 numpy's geometric inverts an exponential as the sampler
    # does, so no result drawn with it moves; n = 1.2e5 / p spreads about
    # 120,000 gaps over four batches of 2^15
    n, batch = int(1.2e5 / label_flip), 2**15
    gen, ref = np.random.default_rng(8), np.random.default_rng(8)
    at = _flip_positions(n, label_flip, gen, batch=batch)
    want, pos = [], -1
    while pos < n - 1:
        for gap in ref.geometric(label_flip, size=batch).tolist():
            pos += gap
            if pos < n:
                want.append(pos)
    assert len(want) >= 10**5
    assert at.tolist() == want
    assert gen.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("batch", [1, 2, 7, 40])
@pytest.mark.parametrize("n,label_flip,seed", [(1, 0.5, 0), (97, 0.05, 1),
                                               (500, 0.3, 2), (500, 0.9, 3)])
def test_flip_positions_past_a_short_batch(batch, n, label_flip, seed):
    # small batches force a second and later batch, each starting at the
    # last position of the one before
    gen, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    at = _flip_positions(n, label_flip, gen, batch=batch)
    assert at.dtype == np.int64
    assert np.array_equal(at, np.flatnonzero(
        reference_flip_mask(n, label_flip, ref, batch)))
    assert gen.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("label_flip", [0.001, 0.05, 0.3, 0.5, 0.9])
def test_flip_fraction_is_within_five_standard_errors(label_flip):
    # p >= 1/3 switches numpy to its other geometric algorithm
    n = 10**6
    at = _flip_positions(n, label_flip, np.random.default_rng(11))
    assert np.all(np.diff(at) > 0) and 0 <= at[0] and at[-1] < n
    se = math.sqrt(n * label_flip * (1 - label_flip))
    assert abs(at.size - n * label_flip) <= 5 * se


@pytest.mark.parametrize("label_flip", [0.05, 0.5])
def test_every_pixel_flips_with_probability_p(label_flip):
    # an off-by-one in the gaps shows at the first or last pixel of a 7x3
    # panorama, whose frequency would fall to 0 or rise past p
    cfg = SceneConfig(width=7, height=3, groups=[],
                      regions=[RegionSpec("road", (0, 0, 3, 3))])
    scene = build_scene(cfg, seed=0)
    noise = SegNoiseConfig(label_flip=label_flip)
    seeds = 4000
    flips = sum((segment_panorama(scene, noise, seed)[0] != scene.labels)
                .astype(int) for seed in range(seeds))
    se = math.sqrt(label_flip * (1 - label_flip) / seeds)
    assert np.all(np.abs(flips / seeds - label_flip) <= 5 * se)


def test_label_flip_of_one_flips_every_pixel_drawing_no_gap():
    # the offsets are the only draws: the default noise draws no normals
    scene = build_scene(default_scenario().scene, seed=2)
    gen, ref = np.random.default_rng(4), np.random.default_rng(4)
    grid, _ = segment_panorama(scene, SegNoiseConfig(label_flip=1.0), gen)
    assert np.all(grid != scene.labels)
    ref.integers(1, len(scene.regions), size=grid.size, dtype=np.int16)
    assert gen.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("label_flip", [1e-12, 1e-300, 5e-324])
def test_vanishing_label_flip_flips_nothing_without_overflow(label_flip):
    # below p ~ 1e-17 numpy's gaps come near or at INT64_MAX: summed
    # unclamped, they wrap to negative positions and the draw never ends
    scene = build_scene(default_scenario().scene, seed=2)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        grid, _ = segment_panorama(scene, SegNoiseConfig(label_flip=label_flip), 1)
        assert np.array_equal(grid, scene.labels)
        assert _flip_positions(3, label_flip, np.random.default_rng(0)).size == 0


def traced_peak(call):
    """call()'s result and the peak of numpy and Python memory it traced."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("label_flip", [0.05, 1.0])
def test_label_flip_peak_memory_is_the_grid_and_the_flips(label_flip):
    # the noisy grid, 8 + 2 bytes of position and offset per flipped pixel
    # and the temporaries of one 16 Ki apply chunk: at 0.05 that is under
    # the grid + 2 MiB, where a full-panorama array of uniforms alone would
    # be 13 MiB
    scene = build_scene(default_scenario().scene, seed=2)
    noise = SegNoiseConfig(label_flip=label_flip)
    (grid, _), peak = traced_peak(lambda: segment_panorama(scene, noise, 1))
    flipped = np.count_nonzero(grid != scene.labels)
    assert peak <= grid.nbytes + 10 * flipped + 2**20


def test_label_flip_of_one_peak_memory_is_the_grid_and_the_offsets():
    # every pixel flips, so the offsets apply over slices: no position
    # array, only the int16 offsets and one 16 Ki chunk's temporaries (its
    # sums, mask and cast, under 128 KiB) beside the noisy grid
    scene = build_scene(default_scenario().scene, seed=2)
    noise = SegNoiseConfig(label_flip=1.0)
    (grid, _), peak = traced_peak(lambda: segment_panorama(scene, noise, 1))
    assert peak <= grid.nbytes + 2 * grid.size + 2**18


def test_noisy_allocation_peak_memory_is_one_panorama_mask():
    scene = build_scene(default_scenario().scene, seed=2)
    grid, dets = segment_panorama(scene, SegNoiseConfig(label_flip=0.05), 1)
    _, peak = traced_peak(lambda: allocate_ppm(scene, grid, dets, "car", 400))
    assert peak <= grid.size + 2**18


def reference_measure(grid, n_regions):
    """np.bincount areas plus the original per-region bbox scan."""
    areas = np.bincount(grid.ravel(), minlength=n_regions)
    bboxes = []
    for rid in range(n_regions):
        mask = grid == rid
        rows = np.flatnonzero(mask.any(axis=1))
        cols = np.flatnonzero(mask.any(axis=0))
        if rows.size == 0:
            bboxes.append((0, 0, 0, 0))
        else:
            bboxes.append((int(cols[0]), int(rows[0]),
                           int(cols[-1]) + 1, int(rows[-1]) + 1))
    return [int(a) for a in areas], tuple(bboxes)


@given(seed=st.integers(0, 2**32 - 1), n_regions=st.integers(3, 6),
       shape=st.tuples(st.integers(1, 40), st.integers(1, 40)),
       absent=st.integers(0, 5), sparse=st.booleans())
@settings(max_examples=200, deadline=None)
def test_region_measure_matches_bincount(seed, n_regions, shape, absent, sparse):
    rng = np.random.default_rng(seed)
    present = [r for r in range(n_regions) if r != absent % n_regions]
    if sparse:  # mostly one region, a few scattered pixels of the others
        grid = np.full(shape, present[0], dtype=np.int16)
        hits = rng.random(shape) < 0.05
        grid[hits] = rng.choice(present, size=int(hits.sum()))
    else:
        grid = rng.choice(present, size=shape).astype(np.int16)
    areas, bboxes = _measure_regions(grid, n_regions)
    assert (areas, bboxes) == reference_measure(grid, n_regions)
    assert areas[absent % n_regions] == 0
    assert bboxes[absent % n_regions] == (0, 0, 0, 0)


def _measure_case(name):
    """Grids whose largest box is shared, is not the last id, sits next to
    an absent region, or is wider than a 64 KiB counting band."""
    grid = np.full((30, 40), 2, dtype=np.int8)
    if name == "tied_full_frame_boxes":
        grid[0, 0] = grid[-1, -1] = 0
        grid[0, -1] = grid[-1, 0] = 1
    elif name == "full_frame_region_not_last":
        grid[:] = 0
        grid[5:9, 10:20] = 1
        grid[20:22, 3:7] = 2
    elif name == "absent_region":  # region 1 holds no pixel
        grid[:, :25] = 0
        grid[12, 30] = 0
    else:  # "wider_than_a_band": one row per band
        grid = np.zeros((4, 2**16 + 3), dtype=np.int8)
        grid[1:3, 5:9] = 1
        grid[2:4, -2:] = 2
    return grid


@pytest.mark.parametrize("name", ["tied_full_frame_boxes",
                                  "full_frame_region_not_last",
                                  "absent_region", "wider_than_a_band"])
def test_region_measure_by_subtraction(name):
    grid = _measure_case(name)
    assert _measure_regions(grid, 3) == reference_measure(grid, 3)


def test_region_measure_counts_through_small_masks():
    # a full-box mask per region is 1.6 MiB here; freed and made again on
    # every trial, it page-faults anew each time
    scene = build_scene(default_scenario().scene, seed=2)
    grid, _ = segment_panorama(scene, SegNoiseConfig(label_flip=0.05), 1)
    _, peak = traced_peak(lambda: _measure_regions(grid, len(scene.regions)))
    assert peak <= 2**18


def test_noisy_allocation_measures_the_noisy_grid():
    scene = build_scene(default_scenario().scene, seed=3)
    grid, dets = segment_panorama(scene, SegNoiseConfig(label_flip=0.1), seed=5)
    ppm = allocate_ppm(scene, grid, dets, "car", 400)
    areas, bboxes = reference_measure(grid, len(scene.regions))
    assert [r.area_px for r in ppm.regions] == [float(a) for a in areas]
    assert ppm.region_bboxes == bboxes


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
