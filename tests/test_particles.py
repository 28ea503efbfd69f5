import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panosearch.config import (EngineConfig, ObjectGroupSpec, RegionSpec,
                               SceneConfig, SegNoiseConfig, default_scenario)
from panosearch.experiment import _grid_particles, _uniform_particles
from panosearch.particles import (Particle, ParticleSet, _disc_draw,
                                  build_proposal, initial_sample,
                                  normalize_weights, prune_redundant,
                                  sample_next, update_weights)
from panosearch.ppm import build_ppm
from panosearch.scene import bbox_draw, build_scene, rejection_sample


def pset(*rows):
    """A ParticleSet from (theta_h, theta_v, weight, sigma) rows."""
    cols = np.array(rows, dtype=float).reshape(-1, 4)
    return ParticleSet(*(cols[:, i].copy() for i in range(4)))


def uniform(n, w):
    """n particles at the origin, weight w, sigma equal to their index."""
    return pset(*((0.0, 0.0, w, float(i)) for i in range(n)))


# --- list-form references: the engine before ParticleSet ----------------------
# One Particle object per gaze point, a mixture of (mean_h, mean_v, std,
# weight) components, and the scalar clamp.  The array code must reproduce
# them bit for bit, including the draws taken from the generator.

def ref_clamp(theta, limit):
    return -limit if theta < -limit else (limit if theta > limit else theta)


def ref_points(xs_ys):
    """rejection_sample's (xs, ys) arrays as a list of (x, y) float pairs."""
    return list(zip(*(a.tolist() for a in xs_ys)))


def ref_initial_sample(ppm, scene, rng, sigma0, limit):
    w0 = 1.0 / ppm.total_particles
    grid = ppm.label_grid
    h, w = grid.shape
    points = []
    for rid in sorted(ppm.remainder_counts):
        count = ppm.remainder_counts[rid]
        x0, y0, x1, y1 = ppm.region_bboxes[rid]
        if count <= 0 or x1 <= x0 or y1 <= y0:
            continue
        points += ref_points(rejection_sample(
            rng, grid, rid, bbox_draw(ppm.region_bboxes[rid]), count,
            max_rounds=200))
    for sub in ppm.sub_regions:
        if sub.count <= 0:
            continue
        cx, cy = sub.center
        hits = ref_points(rejection_sample(
            rng, grid, sub.region_id, _disc_draw(sub.center, sub.radius_px, w, h),
            sub.count, max_rounds=200))
        center = (float(min(max(cx, 0.0), w - 1.0)),
                  float(min(max(cy, 0.0), h - 1.0)))
        points += hits + [center] * (sub.count - len(hits))
    out = []
    for x, y in points:
        th, tv = scene.pano_to_galvo(x, y)
        out.append(Particle(ref_clamp(th, limit), ref_clamp(tv, limit), w0,
                            sigma=sigma0))
    return out


def ref_build_proposal(particles):
    total = sum(p.weight for p in particles)
    if not particles or total <= 0.0:
        raise ValueError("degenerate particle set: no positive weights")
    return [(p.theta_h, p.theta_v, p.sigma, p.weight / total) for p in particles]


def ref_sample_next(components, count, rng, limit):
    weights = np.array([c[3] for c in components])
    weights = weights / weights.sum()
    picks = rng.choice(len(components), size=count, p=weights)
    noise = rng.standard_normal((count, 2))
    out = []
    for i in range(count):
        mean_h, mean_v, std, weight = components[int(picks[i])]
        out.append(Particle(ref_clamp(mean_h + noise[i, 0] * std, limit),
                            ref_clamp(mean_v + noise[i, 1] * std, limit),
                            weight, sigma=std))
    return out


def ref_update_weights(particles, likelihoods):
    for p, lk in zip(particles, likelihoods):
        p.weight *= lk
    return particles


def ref_normalize_weights(particles):
    total = sum(p.weight for p in particles)
    if total <= 0.0:
        raise ValueError("particle degeneracy: all weights zero")
    for p in particles:
        p.weight /= total
    return particles


def ref_prune_redundant(particles, fov_deg, overlap_frac=0.5):
    n = len(particles)
    if n <= 1:
        return list(particles)
    thr = overlap_frac * fov_deg
    weights = np.array([p.weight for p in particles])
    order = np.argsort(-weights, kind="stable")
    ranked = np.array([[p.theta_h, p.theta_v] for p in particles])[order]
    alive = np.ones(n, dtype=bool)
    kept = np.zeros(n, dtype=bool)
    for start in range(0, n, 32):
        stop = min(start + 32, n)
        if not alive[start:stop].any():
            continue
        d = ranked[start:] - ranked[start:stop, None]
        far = (d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]) >= thr * thr
        for r in range(start, stop):
            if alive[r]:
                kept[r] = True
                alive[start:] &= far[r - start]
    keep = np.zeros(n, dtype=bool)
    keep[order[kept]] = True
    return [p for p, k in zip(particles, keep) if k]


def ref_uniform_particles(scene, count, rng, sigma0, limit):
    half_h = min(scene.width * scene.deg_per_px / 2.0, limit)
    half_v = min(scene.height * scene.deg_per_px / 2.0, limit)
    w0 = 1.0 / count
    th = rng.uniform(-half_h, half_h, size=count)
    tv = rng.uniform(-half_v, half_v, size=count)
    return [Particle(float(th[i]), float(tv[i]), w0, sigma=sigma0)
            for i in range(count)]


def ref_grid_particles(scene, count, sigma0, limit):
    half_h = min(scene.width * scene.deg_per_px / 2.0, limit)
    half_v = min(scene.height * scene.deg_per_px / 2.0, limit)
    aspect = half_h / half_v
    nx = max(1, int(math.ceil(math.sqrt(count * aspect))))
    ny = max(1, int(math.ceil(count / nx)))
    xs = np.linspace(-half_h, half_h, nx + 2)[1:-1]
    ys = np.linspace(-half_v, half_v, ny + 2)[1:-1]
    w0 = 1.0 / count
    out = []
    for y in ys:
        for x in xs:
            if len(out) == count:
                return out
            out.append(Particle(float(x), float(y), w0, sigma=sigma0))
    while len(out) < count:
        out.append(Particle(0.0, 0.0, w0, sigma=sigma0))
    return out


def as_list(ps):
    return [Particle(*row) for row in zip(ps.theta_h.tolist(), ps.theta_v.tolist(),
                                          ps.weight.tolist(), ps.sigma.tolist())]


def assert_bits(ps, ref):
    """Every array of `ps` equals the reference particles' values bit for bit."""
    assert len(ps) == len(ref)
    for name in ("theta_h", "theta_v", "weight", "sigma"):
        got = getattr(ps, name)
        assert got.dtype == np.float64
        want = np.array([getattr(p, name) for p in ref], dtype=float)
        assert got.tobytes() == want.tobytes(), name


def assert_same_stream(a, b):
    assert a.bit_generator.state == b.bit_generator.state


# gaze values on a coarse grid reaching past the mirror limit, so ties,
# duplicate points and clamped draws all occur; weights with ties and zeros
coarse_angle = st.integers(-24, 24).map(lambda k: k * 1.0)
coarse_weight = st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0 / 3.0])
fine_weight = st.floats(0.0, 10.0, allow_subnormal=False)
rows = st.tuples(coarse_angle, coarse_angle, st.one_of(coarse_weight, fine_weight),
                 st.sampled_from([0.0, 0.05, 1.0, 3.0, 50.0]))


# --- initial_sample ---------------------------------------------------------

def test_single_region_sample_counts_and_weights():
    cfg = SceneConfig(regions=[], class_priors={"car": {"field": 1.0}})
    scene = build_scene(cfg, seed=0)
    ppm = build_ppm(scene, SegNoiseConfig(), "car", 100, seed=0)
    parts = initial_sample(ppm, scene, seed=1)
    assert len(parts) == 100
    assert parts.weight == pytest.approx(np.full(100, 0.01))
    assert (np.abs(parts.theta_h) <= 20.0).all()
    assert (np.abs(parts.theta_v) <= 20.0).all()


def test_zero_probability_region_gets_no_particles():
    cfg = SceneConfig(regions=[RegionSpec("road", (0, 0, 720, 1200))],
                      class_priors={"car": {"road": 1.0, "field": 0.0}})
    scene = build_scene(cfg, seed=0)
    ppm = build_ppm(scene, SegNoiseConfig(), "car", 200, seed=0)
    parts = initial_sample(ppm, scene, seed=1)
    assert len(parts) == 200
    x, y = scene.galvo_to_pano(parts.theta_h, parts.theta_v)
    for xi, yi in zip(x.tolist(), y.tolist()):
        assert scene.labels[int(min(yi, 1199.0)), int(min(xi, 1439.0))] == 0


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
    x, y = scene.galvo_to_pano(parts.theta_h, parts.theta_v)
    inside = np.hypot(x - sub.center[0], y - sub.center[1]) <= 5.0 + 1e-9
    assert inside.sum() >= sub.count


# a small world with a map-guided region, objects big enough for sub-region
# discs, and a span past the mirror limit so the limit clamps
SMALL_SCENE = build_scene(SceneConfig(
    width=240, height=200, span_deg=60.0,
    regions=[RegionSpec("road", (40, 60, 160, 80))],
    groups=[ObjectGroupSpec(count=3, size=(70.0, 40.0), region_label="road"),
            ObjectGroupSpec(count=1, size=(70.0, 40.0), region_label="field")],
    class_priors={"car": {"road": 0.7, "field": 0.03}}), seed=[11, 0, 0])


@given(n=st.integers(1, 300), ppm_seed=st.integers(0, 2**32 - 1),
       seed=st.integers(0, 2**32 - 1), radius_scale=st.sampled_from([5.0, 50.0]),
       sigma0=st.sampled_from([0.05, 1.0]), limit=st.sampled_from([20.0, 6.0]))
@settings(max_examples=60, deadline=None)
def test_initial_sample_matches_list_reference(n, ppm_seed, seed, radius_scale,
                                               sigma0, limit):
    noise = SegNoiseConfig(label_flip=0.05, center_std_px=2.0, conf_std=0.05)
    ppm = build_ppm(SMALL_SCENE, noise, "car", n, seed=ppm_seed, r_scale=radius_scale)
    old, new = np.random.default_rng(seed), np.random.default_rng(seed)
    assert_bits(initial_sample(ppm, SMALL_SCENE, new, sigma0=sigma0, limit=limit),
                ref_initial_sample(ppm, SMALL_SCENE, old, sigma0, limit))
    assert_same_stream(old, new)


# --- proposal mixture --------------------------------------------------------

def test_single_particle_proposal():
    q = build_proposal(pset((3.0, -2.0, 1.0, 0.5)))
    assert len(q) == 1
    assert (q.theta_h[0], q.theta_v[0], q.sigma[0], q.weight[0]) == \
        (3.0, -2.0, 0.5, 1.0)


def test_mix_weights_pass_through():
    q = build_proposal(pset((0, 0, 0.25, 1.0), (1, 1, 0.75, 1.0)))
    assert q.weight.tolist() == [0.25, 0.75]


def test_all_zero_weights_degenerate():
    with pytest.raises(ValueError, match="degenerate"):
        build_proposal(uniform(2, 0.0))


def test_component_frequencies_match_mix_weights():
    # Monte Carlo: 1e5 draws from two well-separated components
    q = build_proposal(pset((-10.0, 0.0, 0.3, 0.01), (10.0, 0.0, 0.7, 0.01)))
    draws = sample_next(q, 100_000, seed=5)
    assert (draws.theta_h > 0).mean() == pytest.approx(0.7, abs=0.01)


def test_sample_next_delta_limit():
    draws = sample_next(pset((4.0, -3.0, 1.0, 0.0)), 50, seed=0)
    assert (draws.theta_h == 4.0).all() and (draws.theta_v == -3.0).all()


def test_sample_next_clamps_to_range():
    draws = sample_next(pset((20.0, 0.0, 1.0, 1.0)), 200, seed=1)
    assert (draws.theta_h <= 20.0).all()
    assert (draws.theta_h == 20.0).any()


def test_sample_next_deterministic_for_seed():
    q = build_proposal(pset((0, 0, 0.5, 0.4), (2, 2, 0.5, 0.2)))
    a = sample_next(q, 64, seed=123)
    b = sample_next(q, 64, seed=123)
    assert_bits(a, as_list(b))


def test_sampled_region_mass_matches_mixture():
    # two tight components in different halves: region histogram ~ mix weights
    cfg = SceneConfig(regions=[RegionSpec("left", (0, 0, 720, 1200))],
                      class_priors={"car": {"left": 0.5, "field": 0.5}})
    scene = build_scene(cfg, seed=0)
    q = build_proposal(pset((-10.0, 0.0, 0.35, 0.05), (10.0, 0.0, 0.65, 0.05)))
    draws = sample_next(q, 100_000, seed=7)
    x, y = scene.galvo_to_pano(draws.theta_h, draws.theta_v)
    left = sum(scene.labels[int(yi), int(xi)] == 0
               for xi, yi in zip(x.tolist(), y.tolist()))
    assert left / len(draws) == pytest.approx(0.35, abs=0.02)


@given(parts=st.lists(rows, min_size=1, max_size=60), count=st.integers(1, 80),
       seed=st.integers(0, 2**32 - 1), limit=st.sampled_from([20.0, 3.0]))
@settings(max_examples=300, deadline=None)
def test_proposal_and_sample_next_match_list_reference(parts, count, seed, limit):
    ps = pset(*parts)
    try:
        components = ref_build_proposal([Particle(*p) for p in parts])
    except ValueError:
        with pytest.raises(ValueError, match="degenerate"):
            build_proposal(ps)
        return
    q = build_proposal(ps)
    assert_bits(q, [Particle(*c[:2], c[3], sigma=c[2]) for c in components])
    old, new = np.random.default_rng(seed), np.random.default_rng(seed)
    assert_bits(sample_next(q, count, new, limit=limit),
                ref_sample_next(components, count, old, limit))
    assert_same_stream(old, new)


def test_proposal_sums_left_to_right():
    # numpy's pairwise sum of these weights differs from the left-to-right one
    weights = np.random.default_rng(4).uniform(0.0, 1.0, 50)
    assert sum(weights.tolist()) != weights.sum()
    q = build_proposal(pset(*((0.0, 0.0, w, 1.0) for w in weights)))
    ref = ref_build_proposal([Particle(0.0, 0.0, w) for w in weights.tolist()])
    assert q.weight.tolist() == [c[3] for c in ref]


# --- weights -----------------------------------------------------------------

def test_update_weights_hand_case():
    parts = update_weights(pset((0.0, 0.0, 0.5, 1.0)), [0.8])
    assert parts.weight[0] == pytest.approx(0.4)


def test_update_weights_zero_is_absorbing_and_one_is_identity():
    parts = update_weights(pset((0, 0, 0.3, 1), (0, 0, 0.6, 1)), [0.0, 1.0])
    assert parts.weight.tolist() == [0.0, 0.6]


def test_update_weights_multiplicative_composition():
    a = uniform(2, 0.5)
    a.weight[1] = 0.25
    twice = update_weights(update_weights(a, [0.4, 0.9]), [0.5, 0.2])
    once = update_weights(a, [0.4 * 0.5, 0.9 * 0.2])
    assert twice.weight == pytest.approx(once.weight)


def test_update_weights_length_mismatch():
    with pytest.raises(ValueError):
        update_weights(uniform(1, 1.0), [0.1, 0.2])


def test_normalize_hand_case():
    parts = normalize_weights(pset((0, 0, 2, 1), (0, 0, 2, 1), (0, 0, 4, 1)))
    assert parts.weight == pytest.approx([0.25, 0.25, 0.5])


def test_normalize_sums_to_one_and_preserves_order():
    rng = np.random.default_rng(3)
    parts = pset(*((0.0, 0.0, w, 1.0) for w in rng.uniform(0.0, 5.0, size=50)))
    ranking = np.argsort(-parts.weight)
    normed = normalize_weights(parts)
    assert normed.weight.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(np.argsort(-normed.weight), ranking)


def test_normalize_zero_one():
    parts = normalize_weights(pset((0, 0, 0.0, 1), (0, 0, 3.0, 1)))
    assert parts.weight.tolist() == [0.0, 1.0]


def test_normalize_all_zero_raises():
    with pytest.raises(ValueError, match="degeneracy"):
        normalize_weights(uniform(1, 0.0))


@given(parts=st.lists(rows, min_size=1, max_size=60),
       likes=st.lists(st.one_of(st.sampled_from([0.0, 1e-3, 0.5, 1.0]),
                                st.floats(0.0, 1.0)), min_size=60, max_size=60))
@settings(max_examples=300, deadline=None)
def test_update_and_normalize_match_list_reference(parts, likes):
    likes = likes[:len(parts)]
    ps = update_weights(pset(*parts), likes)
    ref = ref_update_weights([Particle(*p) for p in parts], likes)
    assert_bits(ps, ref)
    try:
        ref_normalize_weights(ref)
    except ValueError:
        with pytest.raises(ValueError, match="degeneracy"):
            normalize_weights(ps)
        return
    assert_bits(normalize_weights(ps), ref)
    # the list form normalizes in place, as the reference does
    listed = [Particle(*p) for p in parts]
    assert normalize_weights(listed) is listed
    assert [p.weight for p in listed] == \
        [p.weight for p in ref_normalize_weights([Particle(*p) for p in parts])]


# --- pruning -----------------------------------------------------------------

def kept_indices(kept):
    """Input indices of the survivors of sets built by `indexed`."""
    return [int(s) for s in kept.sigma]


def indexed(points):
    """(theta_h, theta_v, weight) points as a set whose sigmas are the indices."""
    return pset(*((th, tv, w, float(i)) for i, (th, tv, w) in enumerate(points)))


def test_duplicate_particles_keep_the_heavier():
    kept = prune_redundant(pset((1.0, 1.0, 0.4, 1), (1.0, 1.0, 0.6, 1)), fov_deg=0.5)
    assert len(kept) == 1
    assert kept.weight[0] == 0.6


def test_far_apart_particles_all_survive():
    parts = indexed([(float(i), 0.0, 0.1) for i in range(5)])
    assert len(prune_redundant(parts, fov_deg=0.5)) == 5


def test_degenerate_cluster_collapses_to_one():
    kept = prune_redundant(indexed([(2.0, 2.0, 0.01 * (i + 1)) for i in range(100)]),
                           fov_deg=0.5)
    assert len(kept) == 1
    assert kept.weight[0] == pytest.approx(1.0)


def test_prune_is_idempotent():
    rng = np.random.default_rng(11)
    once = prune_redundant(indexed(rng.uniform(-5, 5, size=(200, 3)).tolist()),
                           fov_deg=0.448)
    twice = prune_redundant(once, fov_deg=0.448)
    assert_bits(twice, as_list(once))


# --- blocked pruning against the greedy loop ------------------------------------

def reference_prune_indices(points, fov_deg, overlap_frac=0.5):
    """The original greedy loop over (theta_h, theta_v, weight) points;
    returns the kept input indices."""
    n = len(points)
    if n <= 1:
        return list(range(n))
    thr = overlap_frac * fov_deg
    pos = np.array([p[:2] for p in points], dtype=float)
    weights = np.array([p[2] for p in points], dtype=float)
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


def assert_same_prune(points, fov_deg, overlap_frac=0.5):
    parts = indexed(points)
    kept = prune_redundant(parts, fov_deg, overlap_frac=overlap_frac)
    assert kept_indices(kept) == \
        reference_prune_indices(points, fov_deg, overlap_frac)
    assert_bits(kept, ref_prune_redundant(as_list(parts), fov_deg, overlap_frac))


# a coarse grid with few weights: duplicate positions, weight ties, and
# distances exactly on the threshold all occur often
coarse_points = st.lists(
    st.tuples(st.integers(-6, 6).map(lambda k: k * 0.125),
              st.integers(-3, 3).map(lambda k: k * 0.125),
              st.sampled_from([0.0, 0.1, 0.25, 0.5])),
    max_size=80)


@given(points=coarse_points,
       fov_deg=st.sampled_from([0.0, 0.125, 0.25, 0.5, 0.448, 10.0]),
       overlap_frac=st.sampled_from([0.5, 1.0]))
@settings(max_examples=300, deadline=None)
def test_prune_matches_greedy_reference(points, fov_deg, overlap_frac):
    assert_same_prune(points, fov_deg, overlap_frac)


def test_prune_matches_greedy_reference_at_sizes():
    for n in (1, 2, 33, 300):
        rng = np.random.default_rng(n)
        centers = rng.uniform(-10.0, 10.0, size=(max(1, n // 12), 2))
        pts = centers[rng.integers(0, len(centers), n)] + rng.normal(0, 0.1, (n, 2))
        for dup in (False, True):
            pos = np.round(pts, 1) if dup else pts  # duplicated positions
            for weights in (rng.uniform(0.0, 1.0, n), rng.integers(0, 3, n) / 4.0):
                points = [(x, y, w) for (x, y), w in zip(pos.tolist(),
                                                         weights.tolist())]
                for fov in (0.0, 0.2, 0.448, 3.0):
                    assert_same_prune(points, fov)


def test_prune_weight_tie_keeps_the_first():
    assert kept_indices(prune_redundant(indexed([(0.0, 0.0, 0.5)] * 2),
                                        fov_deg=1.0)) == [0]
    points = [(0.0, 0.0, 0.5), (0.1, 0.0, 0.5), (0.05, 0.0, 0.2)]
    assert kept_indices(prune_redundant(indexed(points), fov_deg=1.0)) == [0]
    assert_same_prune(points, 1.0)
    assert_same_prune(points[::-1], 1.0)


@pytest.mark.parametrize("n", [2, 33, 100, 300])
def test_prune_matches_the_two_column_distances(n):
    # ref_prune_redundant keeps the (n, 2) block differences the per-axis
    # arrays replaced; duplicate points, distances on the threshold, weight
    # ties and overlap_frac = 0 (every particle survives) all occur
    rng = np.random.default_rng([7, n])
    pos = rng.integers(-12, 13, (n, 2)) * 0.125
    for weights in (rng.integers(0, 4, n) / 4.0, rng.uniform(0.0, 1.0, n)):
        points = [(x, y, w) for (x, y), w in zip(pos.tolist(), weights.tolist())]
        for overlap_frac in (0.0, 0.5, 1.0):
            for fov in (0.25, 0.5, 3.0):
                assert_same_prune(points, fov, overlap_frac)
    assert len(prune_redundant(indexed(points), 3.0, overlap_frac=0.0)) == n


# --- first-pass sets without a map -------------------------------------------------

GRID_SCENE = build_scene(default_scenario().scene, seed=0)


@pytest.mark.parametrize("count", [1, 7, 401])
@pytest.mark.parametrize("limit", [EngineConfig.galvo_limit_deg, 5.0])
def test_grid_particles_match_list_reference(count, limit):
    assert_bits(_grid_particles(GRID_SCENE, count, 0.7, limit),
                ref_grid_particles(GRID_SCENE, count, 0.7, limit))


@given(count=st.integers(1, 500), seed=st.integers(0, 2**32 - 1),
       limit=st.sampled_from([EngineConfig.galvo_limit_deg, 5.0]))
@settings(max_examples=100, deadline=None)
def test_uniform_and_grid_particles_match_list_reference(count, seed, limit):
    old, new = np.random.default_rng(seed), np.random.default_rng(seed)
    assert_bits(_uniform_particles(GRID_SCENE, count, new, 0.7, limit),
                ref_uniform_particles(GRID_SCENE, count, old, 0.7, limit))
    assert_same_stream(old, new)
    assert_bits(_grid_particles(GRID_SCENE, count, 0.7, limit),
                ref_grid_particles(GRID_SCENE, count, 0.7, limit))
