import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panosearch.config import (ObjectGroupSpec, RegionSpec, SceneConfig,
                               SegNoiseConfig, default_scenario)
from panosearch.particles import (MixtureComponent, Particle, ProposalMixture,
                                  build_proposal, initial_sample,
                                  normalize_weights, prune_redundant,
                                  sample_next, update_weights)
from panosearch.ppm import build_ppm
from panosearch.scene import build_scene, region_at


def particle(th=0.0, tv=0.0, w=1.0, sigma=1.0):
    return Particle(th, tv, w, sigma=sigma)


# --- initial_sample ---------------------------------------------------------

def test_single_region_sample_counts_and_weights():
    cfg = SceneConfig(regions=[], class_priors={"car": {"field": 1.0}})
    scene = build_scene(cfg, seed=0)
    ppm = build_ppm(scene, SegNoiseConfig(), "car", 100, seed=0)
    parts = initial_sample(ppm, scene, seed=1)
    assert len(parts) == 100
    assert all(p.weight == pytest.approx(0.01) for p in parts)
    assert all(abs(p.theta_h) <= 20.0 and abs(p.theta_v) <= 20.0 for p in parts)


def test_zero_probability_region_gets_no_particles():
    cfg = SceneConfig(regions=[RegionSpec("road", (0, 0, 720, 1200))],
                      class_priors={"car": {"road": 1.0, "field": 0.0}})
    scene = build_scene(cfg, seed=0)
    ppm = build_ppm(scene, SegNoiseConfig(), "car", 200, seed=0)
    parts = initial_sample(ppm, scene, seed=1)
    assert len(parts) == 200
    for p in parts:
        x, y = scene.galvo_to_pano(p.theta_h, p.theta_v)
        assert region_at(scene, min(x, 1439.0), min(y, 1199.0)) == 0


def test_subregion_particles_stay_inside_disc():
    # a detection disc of radius 50 * 0.1 = 5 px keeps its draws within 5 px
    cfg = SceneConfig(
        regions=[RegionSpec("road", (600, 500, 200, 200))],
        class_priors={"car": {"road": 1.0, "field": 0.0}},
        groups=[ObjectGroupSpec(count=1, size=(120, 60), region_label="road")])
    scene = build_scene(cfg, seed=3)
    noise = SegNoiseConfig(sigma_min=0.1, sigma_max=0.1)
    ppm = build_ppm(scene, noise, "car", 5000, seed=0)
    (sub,) = ppm.sub_regions
    assert sub.radius_px == pytest.approx(5.0)
    assert sub.count > 0
    parts = initial_sample(ppm, scene, seed=1)
    inside = 0
    for p in parts:
        x, y = scene.galvo_to_pano(p.theta_h, p.theta_v)
        if math.hypot(x - sub.center[0], y - sub.center[1]) <= 5.0 + 1e-9:
            inside += 1
    assert inside >= sub.count


# --- proposal mixture --------------------------------------------------------

def test_single_particle_proposal():
    q = build_proposal([particle(3.0, -2.0, 1.0, sigma=0.5)])
    assert len(q.components) == 1
    c = q.components[0]
    assert (c.mean_h, c.mean_v, c.std, c.weight) == (3.0, -2.0, 0.5, 1.0)


def test_mix_weights_pass_through():
    q = build_proposal([particle(0, 0, 0.25), particle(1, 1, 0.75)])
    assert [c.weight for c in q.components] == [0.25, 0.75]


def test_all_zero_weights_degenerate():
    with pytest.raises(ValueError, match="degenerate"):
        build_proposal([particle(w=0.0), particle(w=0.0)])


def test_component_frequencies_match_mix_weights():
    # Monte Carlo: 1e5 draws from two well-separated components
    q = build_proposal([particle(-10.0, 0.0, 0.3, sigma=0.01),
                        particle(10.0, 0.0, 0.7, sigma=0.01)])
    draws = sample_next(q, 100_000, seed=5)
    right = sum(1 for p in draws if p.theta_h > 0)
    assert right / len(draws) == pytest.approx(0.7, abs=0.01)


def test_sample_next_delta_limit():
    q = ProposalMixture((MixtureComponent(4.0, -3.0, 0.0, 1.0),))
    draws = sample_next(q, 50, seed=0)
    assert all(p.theta_h == 4.0 and p.theta_v == -3.0 for p in draws)


def test_sample_next_clamps_to_range():
    q = ProposalMixture((MixtureComponent(20.0, 0.0, 1.0, 1.0),))
    draws = sample_next(q, 200, seed=1)
    assert all(p.theta_h <= 20.0 for p in draws)
    assert any(p.theta_h == 20.0 for p in draws)


def test_sample_next_deterministic_for_seed():
    q = build_proposal([particle(0, 0, 0.5, sigma=0.4),
                        particle(2, 2, 0.5, sigma=0.2)])
    a = sample_next(q, 64, seed=123)
    b = sample_next(q, 64, seed=123)
    assert a == b


def test_sampled_region_mass_matches_mixture():
    # two tight components in different halves: region histogram ~ mix weights
    cfg = SceneConfig(regions=[RegionSpec("left", (0, 0, 720, 1200))],
                      class_priors={"car": {"left": 0.5, "field": 0.5}})
    scene = build_scene(cfg, seed=0)
    q = build_proposal([particle(-10.0, 0.0, 0.35, sigma=0.05),
                        particle(10.0, 0.0, 0.65, sigma=0.05)])
    draws = sample_next(q, 100_000, seed=7)
    left = 0
    for p in draws:
        x, y = scene.galvo_to_pano(p.theta_h, p.theta_v)
        if region_at(scene, x, y) == 0:
            left += 1
    assert left / len(draws) == pytest.approx(0.35, abs=0.02)


# --- weights -----------------------------------------------------------------

def test_update_weights_hand_case():
    parts = update_weights([particle(w=0.5)], [0.8])
    assert parts[0].weight == pytest.approx(0.4)


def test_update_weights_zero_is_absorbing_and_one_is_identity():
    parts = update_weights([particle(w=0.3), particle(w=0.6)], [0.0, 1.0])
    assert parts[0].weight == 0.0
    assert parts[1].weight == 0.6


def test_update_weights_multiplicative_composition():
    a = [particle(w=0.5), particle(w=0.25)]
    b = [particle(w=0.5), particle(w=0.25)]
    update_weights(update_weights(a, [0.4, 0.9]), [0.5, 0.2])
    update_weights(b, [0.4 * 0.5, 0.9 * 0.2])
    assert [p.weight for p in a] == pytest.approx([p.weight for p in b])


def test_update_weights_length_mismatch():
    with pytest.raises(ValueError):
        update_weights([particle()], [0.1, 0.2])


def test_normalize_hand_case():
    parts = normalize_weights([particle(w=2), particle(w=2), particle(w=4)])
    assert [p.weight for p in parts] == pytest.approx([0.25, 0.25, 0.5])


def test_normalize_sums_to_one_and_preserves_order():
    rng = np.random.default_rng(3)
    parts = [particle(w=float(w)) for w in rng.uniform(0.0, 5.0, size=50)]
    ranking = np.argsort([-p.weight for p in parts])
    normalize_weights(parts)
    assert sum(p.weight for p in parts) == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(np.argsort([-p.weight for p in parts]), ranking)


def test_normalize_zero_one():
    parts = normalize_weights([particle(w=0.0), particle(w=3.0)])
    assert [p.weight for p in parts] == [0.0, 1.0]


def test_normalize_all_zero_raises():
    with pytest.raises(ValueError, match="degeneracy"):
        normalize_weights([particle(w=0.0)])


# --- pruning -----------------------------------------------------------------

def test_duplicate_particles_keep_the_heavier():
    kept = prune_redundant([particle(1.0, 1.0, 0.4), particle(1.0, 1.0, 0.6)],
                           fov_deg=0.5)
    assert len(kept) == 1
    assert kept[0].weight == 0.6


def test_far_apart_particles_all_survive():
    parts = [particle(float(i), 0.0, 0.1) for i in range(5)]
    assert len(prune_redundant(parts, fov_deg=0.5)) == 5


def test_degenerate_cluster_collapses_to_one():
    parts = [particle(2.0, 2.0, 0.01 * (i + 1)) for i in range(100)]
    kept = prune_redundant(parts, fov_deg=0.5)
    assert len(kept) == 1
    assert kept[0].weight == pytest.approx(1.0)


def test_prune_is_idempotent():
    rng = np.random.default_rng(11)
    parts = [particle(float(x), float(y), float(w))
             for x, y, w in rng.uniform(-5, 5, size=(200, 3))]
    once = prune_redundant(parts, fov_deg=0.448)
    twice = prune_redundant(once, fov_deg=0.448)
    assert once == twice


# --- blocked pruning against the greedy loop ------------------------------------

def reference_prune_indices(particles, fov_deg, overlap_frac=0.5):
    """The original greedy loop; returns the kept input indices."""
    n = len(particles)
    if n <= 1:
        return list(range(n))
    thr = overlap_frac * fov_deg
    pos = np.array([[p.theta_h, p.theta_v] for p in particles])
    weights = np.array([p.weight for p in particles])
    order = np.lexsort((np.arange(n), -weights))
    alive = np.ones(n, dtype=bool)
    kept = np.zeros(n, dtype=bool)
    for i in order:
        if not alive[i]:
            continue
        kept[i] = True
        d = pos - pos[i]
        alive &= (d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) >= thr * thr
    return [int(i) for i in np.flatnonzero(kept)]


def assert_same_prune(parts, fov_deg, overlap_frac=0.5):
    kept = prune_redundant(parts, fov_deg, overlap_frac=overlap_frac)
    by_id = {id(p): i for i, p in enumerate(parts)}
    assert [by_id[id(p)] for p in kept] == \
        reference_prune_indices(parts, fov_deg, overlap_frac)


# a coarse grid with few weights: duplicate positions, weight ties, and
# distances exactly on the threshold all occur often
coarse_particles = st.lists(
    st.builds(particle,
              th=st.integers(-6, 6).map(lambda k: k * 0.125),
              tv=st.integers(-3, 3).map(lambda k: k * 0.125),
              w=st.sampled_from([0.0, 0.1, 0.25, 0.5])),
    max_size=80)


@given(parts=coarse_particles,
       fov_deg=st.sampled_from([0.0, 0.125, 0.25, 0.5, 0.448, 10.0]),
       overlap_frac=st.sampled_from([0.5, 1.0]))
@settings(max_examples=300, deadline=None)
def test_prune_matches_greedy_reference(parts, fov_deg, overlap_frac):
    assert_same_prune(parts, fov_deg, overlap_frac)


def test_prune_matches_greedy_reference_at_sizes():
    for n in (1, 2, 33, 300):
        rng = np.random.default_rng(n)
        centers = rng.uniform(-10.0, 10.0, size=(max(1, n // 12), 2))
        pts = centers[rng.integers(0, len(centers), n)] + rng.normal(0, 0.1, (n, 2))
        for dup in (False, True):
            pos = np.round(pts, 1) if dup else pts  # duplicated positions
            for weights in (rng.uniform(0.0, 1.0, n), rng.integers(0, 3, n) / 4.0):
                parts = [particle(float(x), float(y), float(w))
                         for (x, y), w in zip(pos, weights)]
                for fov in (0.0, 0.2, 0.448, 3.0):
                    assert_same_prune(parts, fov)


def test_prune_weight_tie_keeps_the_first():
    pair = [particle(0.0, 0.0, 0.5), particle(0.0, 0.0, 0.5)]
    assert prune_redundant(pair, fov_deg=1.0)[0] is pair[0]
    parts = [particle(0.0, 0.0, 0.5), particle(0.1, 0.0, 0.5),
             particle(0.05, 0.0, 0.2)]
    kept = prune_redundant(parts, fov_deg=1.0)
    assert len(kept) == 1 and kept[0] is parts[0]
    assert_same_prune(parts, 1.0)
    assert_same_prune(parts[::-1], 1.0)
