import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panosearch.config import DetectorConfig
from panosearch.detector import (DETECTION_ROW, Detection, SyntheticDetector,
                                 _model)
from panosearch.galvo import View, VisibleObject, image_to_galvo


def make_view(visible=(), theta=(0.0, 0.0)):
    return View(theta_h=theta[0], theta_v=theta[1], width=264, height=224,
                visible=tuple(visible))


def centered_object(width_px=300.0, height_px=200.0, occlusion=0.0):
    return VisibleObject(object_id=0, x_px=132.0, y_px=112.0,
                         width_px=width_px, height_px=height_px,
                         occlusion=occlusion)


def noiseless_cfg(**kwargs):
    defaults = dict(base_recall=1.0, conf_noise=0.0, loc_noise_px=0.0,
                    loc_noise_scale=0.0, fp_rate=0.0)
    defaults.update(kwargs)
    return DetectorConfig(**defaults)


# --- detect ------------------------------------------------------------------

def test_empty_view_no_false_positives():
    assert SyntheticDetector(noiseless_cfg()).detect(make_view(), seed=0) == []


def test_large_centered_object_deterministic_hit():
    dets = SyntheticDetector(noiseless_cfg()).detect(
        make_view([centered_object()]), seed=0)
    assert len(dets) == 1
    det = dets[0]
    # at the view center the refined angles equal the gaze
    assert det.theta_h == pytest.approx(0.0, abs=1e-12)
    assert det.theta_v == pytest.approx(0.0, abs=1e-12)
    assert det.confidence == pytest.approx(1.0)  # size and center factors saturate
    assert det.object_id == 0


def test_occlusion_strictly_inflates_variance():
    detector = SyntheticDetector(noiseless_cfg())
    clear = detector.detect(make_view([centered_object(occlusion=0.0)]),
                            seed=0)[0]
    occluded = []
    for seed in range(50):  # detection prob is 0.2, scan seeds until it fires
        occluded = detector.detect(
            make_view([centered_object(occlusion=0.8)]), seed=seed)
        if occluded:
            break
    assert occluded
    assert occluded[0].var_h > clear.var_h
    assert occluded[0].var_v > clear.var_v


def test_detection_probability_calibration():
    # empirical hit rate over 1e4 independent views matches the analytic rate
    cfg = noiseless_cfg(base_recall=0.8)
    vis = VisibleObject(object_id=0, x_px=100.0, y_px=80.0, width_px=30.0,
                        height_px=20.0, occlusion=0.25)
    view = make_view([vis])
    dist_norm = math.hypot(100.0 - 132.0, 80.0 - 112.0) / (0.5 * math.hypot(264, 224))
    expected = _model(cfg, 0.25, 30.0, 20.0, dist_norm)[0]
    rng = np.random.default_rng(42)
    detector = SyntheticDetector(cfg)
    hits = sum(1 for _ in range(10_000) if detector.detect(view, rng))
    assert hits / 10_000 == pytest.approx(expected, abs=0.02)


def test_false_positive_rate_and_confidence_cap():
    cfg = noiseless_cfg(fp_rate=0.5, fp_conf_cap=0.3)
    rng = np.random.default_rng(7)
    detector = SyntheticDetector(cfg)
    total = 0
    for _ in range(2000):
        for det in detector.detect(make_view(), rng):
            total += 1
            assert det.confidence <= 0.3
            assert det.object_id is None
    assert total / 2000 == pytest.approx(0.5, abs=0.05)


@given(occ=st.floats(0.0, 1.0), size=st.floats(5.0, 500.0),
       dist=st.floats(0.0, 1.0), sigma_base=st.floats(0.01, 0.2),
       k_occ=st.floats(0.0, 8.0), k_ctr=st.floats(0.0, 4.0))
@settings(max_examples=300, deadline=None)
def test_variance_monotonicity_over_random_configs(occ, size, dist, sigma_base,
                                                   k_occ, k_ctr):
    cfg = DetectorConfig(sigma_base_deg=sigma_base, k_occ=k_occ, k_ctr=k_ctr)
    var = _model(cfg, occ, size, size, dist)[1]
    assert _model(cfg, min(occ + 0.1, 1.0), size, size, dist)[1] >= var
    assert _model(cfg, occ, size + 10.0, size + 10.0, dist)[1] <= var
    assert _model(cfg, occ, size, size, min(dist + 0.1, 1.0))[1] >= var


def test_detect_deterministic_given_seed():
    cfg = DetectorConfig(conf_noise=0.05, loc_noise_scale=1.0, fp_rate=0.2)
    view = make_view([centered_object()])
    detector = SyntheticDetector(cfg)
    assert detector.detect(view, seed=99) == detector.detect(view, seed=99)


# --- detect against the original per-object code ------------------------------

def detection_probability(cfg, occlusion, width_px, height_px, dist_norm):
    size_factor = min(1.0, math.sqrt(width_px * height_px) / cfg.size_ref_px)
    center_factor = max(0.0, 1.0 - cfg.center_falloff * dist_norm)
    return cfg.base_recall * (1.0 - occlusion) * size_factor * center_factor


def _variances(cfg, occlusion, width_px, height_px, dist_norm):
    base = cfg.sigma_base_deg ** 2
    common = (1.0 + cfg.k_occ * occlusion) * (1.0 + cfg.k_ctr * dist_norm)
    var_h = base * common * (cfg.size_ref_px / max(width_px, 1.0))
    var_v = base * common * (cfg.size_ref_px / max(height_px, 1.0))
    return var_h, var_v


def reference_detect(cfg, view, seed, alpha=0.002, limit=20.0):
    """The original detect: every per-view constant recomputed per object."""
    rng = np.random.default_rng(seed)
    half_diag = 0.5 * math.hypot(view.width, view.height)
    out = []
    for vis in view.visible:
        dist_norm = math.hypot(vis.x_px - view.width / 2.0,
                               vis.y_px - view.height / 2.0) / half_diag
        d = detection_probability(cfg, vis.occlusion, vis.width_px,
                                  vis.height_px, dist_norm)
        if rng.random() >= d:
            continue
        var_h, var_v = _variances(cfg, vis.occlusion, vis.width_px,
                                  vis.height_px, dist_norm)
        std_x = cfg.loc_noise_px + math.sqrt(var_h) / alpha * cfg.loc_noise_scale
        std_y = cfg.loc_noise_px + math.sqrt(var_v) / alpha * cfg.loc_noise_scale
        t_x = vis.x_px + (rng.normal(0.0, std_x) if std_x > 0 else 0.0)
        t_y = vis.y_px + (rng.normal(0.0, std_y) if std_y > 0 else 0.0)
        conf = d + (rng.normal(0.0, cfg.conf_noise) if cfg.conf_noise > 0 else 0.0)
        g_h, g_v, _ = image_to_galvo(view.theta_h, view.theta_v, t_x, t_y,
                                     alpha=alpha, width=view.width,
                                     height=view.height, limit=limit)
        out.append(Detection(
            theta_h=g_h, theta_v=g_v,
            width_deg=vis.width_px * alpha, height_deg=vis.height_px * alpha,
            confidence=min(max(conf, 0.0), 1.0),
            var_h=var_h, var_v=var_v, object_id=vis.object_id,
        ))
    if cfg.fp_rate > 0.0:
        for _ in range(int(rng.poisson(cfg.fp_rate))):
            t_x = rng.uniform(0.0, view.width - 1.0)
            t_y = rng.uniform(0.0, view.height - 1.0)
            size = rng.uniform(10.0, 40.0)
            dist_norm = math.hypot(t_x - view.width / 2.0,
                                   t_y - view.height / 2.0) / half_diag
            var_h, var_v = _variances(cfg, 0.0, size, size, dist_norm)
            g_h, g_v, _ = image_to_galvo(view.theta_h, view.theta_v, t_x, t_y,
                                         alpha=alpha, width=view.width,
                                         height=view.height, limit=limit)
            out.append(Detection(
                theta_h=g_h, theta_v=g_v,
                width_deg=size * alpha, height_deg=size * alpha,
                confidence=rng.uniform(0.0, cfg.fp_conf_cap),
                var_h=var_h, var_v=var_v, object_id=None,
            ))
    return out


def test_model_clamps_are_the_builtin_clamps():
    # _model clamps by comparisons in the builtins' argument order; the
    # reference is the builtin form above.  Sizes and distances run through
    # NaN, both zeros, both infinities, and each clamp's bound with the
    # doubles just past and just inside it: an apparent size of 1 px and of
    # size_ref_px (a size factor of 1), and a distance of 5 (a center factor
    # of 0 at a falloff of 0.2).  A negative area, as of -inf by 1, is a
    # math domain error either way, so those pairs are left out
    cfg = DetectorConfig()
    def edges(*bounds):
        out = [math.nan, -0.0, 0.0, math.inf, -math.inf]
        for b in bounds:
            out += [b, math.nextafter(b, math.inf), math.nextafter(b, -math.inf)]
        return out
    sizes, dists = edges(1.0, cfg.size_ref_px), edges(5.0) + [0.5]
    for w, h, dist in itertools.product(sizes, sizes, dists):
        if w * h < 0.0:
            continue
        want = (detection_probability(cfg, 0.25, w, h, dist),
                *_variances(cfg, 0.25, w, h, dist))
        assert repr(_model(cfg, 0.25, w, h, dist)) == repr(want), (w, h, dist)
    # a NaN occlusion fires (no uniform is at least NaN) with a NaN
    # confidence, which the confidence clamp passes through as the builtins do
    view = make_view([centered_object(occlusion=math.nan)])
    got = SyntheticDetector(cfg).detect(view, 4)
    assert math.isnan(got[0].confidence)
    assert repr(got) == repr(reference_detect(cfg, view, 4))


def random_view(rng, width, height):
    """A view of up to four objects; a third of the positions sit on the
    clipped view border and a third of the occlusions are 0 or 1."""
    def pick(low, high):
        return [low, high, float(rng.uniform(low, high))][rng.integers(3)]

    visible = tuple(
        VisibleObject(object_id=i, x_px=pick(0.0, width - 1.0),
                      y_px=pick(0.0, height - 1.0),
                      width_px=float(rng.uniform(1.0, 400.0)),
                      height_px=float(rng.uniform(1.0, 300.0)),
                      occlusion=pick(0.0, 1.0))
        for i in range(rng.integers(0, 5)))
    theta_h, theta_v = (float(t) for t in rng.uniform(-21.0, 21.0, size=2))
    return View(theta_h=theta_h, theta_v=theta_v, width=width, height=height,
                visible=visible)


ORACLE_CONFIGS = {
    "default": DetectorConfig(),
    "false_positives": DetectorConfig(fp_rate=3.0, conf_noise=0.2,
                                      loc_noise_px=2.0),
    "zero_std": noiseless_cfg(),  # the zero-std branches draw nothing
    "zero_std_with_fp": noiseless_cfg(base_recall=0.7, fp_rate=0.8),
    "fp_rate_top": DetectorConfig(fp_rate=10.0),  # the top of its domain
    # both variances underflow to 0 and loc_noise_px is 0, so a detection
    # draws the confidence noise alone
    "confidence_noise_only": DetectorConfig(sigma_base_deg=1e-200),
}


@pytest.mark.parametrize("name", sorted(ORACLE_CONFIGS))
@pytest.mark.parametrize("alpha, limit, size", [(0.002, 20.0, (264, 224)),
                                                (0.003, 0.5, (64, 48))])
def test_detect_matches_the_original_code(name, alpha, limit, size):
    cfg = ORACLE_CONFIGS[name]
    detector = SyntheticDetector(cfg, alpha=alpha, limit=limit)
    views = np.random.default_rng([5, len(name)])
    got_rng, want_rng = np.random.default_rng(11), np.random.default_rng(11)
    empty = View(theta_h=0.0, theta_v=0.0, width=size[0], height=size[1],
                 visible=())
    for k in range(400):
        view = empty if k % 7 == 0 else random_view(views, *size)
        got = detector.detect(view, got_rng)
        want = reference_detect(cfg, view, want_rng, alpha=alpha, limit=limit)
        assert repr(got) == repr(want)
    # the same draws were taken, empty views' early returns included
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    # an integer seed makes a fresh generator on both sides
    view = random_view(views, *size)
    assert repr(detector.detect(view, 3)) == \
        repr(reference_detect(cfg, view, 3, alpha=alpha, limit=limit))


@pytest.mark.parametrize("width, height, cap", [(264, 224, 0.3), (1, 48, 0.0)])
def test_uniform_is_the_affine_map_of_random_detect_uses(width, height, cap):
    # detect draws each false positive's t_x, t_y, size and confidence as
    # one row of rng.random((k, 4)); that rests on rng.uniform(lo, hi)
    # being lo + (hi - lo) * rng.random() on the same double
    scalar, batched = np.random.default_rng(21), np.random.default_rng(21)
    ranges = ((0.0, width - 1.0), (0.0, height - 1.0), (10.0, 40.0), (0.0, cap))
    want = [[scalar.uniform(lo, hi) for lo, hi in ranges] for _ in range(4000)]
    got = [[(width - 1.0) * u_x, (height - 1.0) * u_y, 10.0 + 30.0 * u_size,
            cap * u_conf]
           for u_x, u_y, u_size, u_conf in batched.random((4000, 4)).tolist()]
    assert got == want
    assert scalar.bit_generator.state == batched.bit_generator.state


@pytest.mark.parametrize("k", [1, 2, 3])
def test_normal_is_the_scaled_standard_normal_detect_uses(k):
    # detect draws a detection's k nonzero-std noises as one
    # rng.standard_normal(k) call; that rests on rng.normal(0.0, s) being
    # 0.0 + s * z on the same standard normal z
    scales = [10.0 ** e for e in range(-300, 301, 25)] + [0.37, 2.5e-7]
    scalar, batched = np.random.default_rng(23), np.random.default_rng(23)
    for i in range(0, 3 * len(scales), k):
        ss = [scales[(i + j) % len(scales)] for j in range(k)]
        want = [scalar.normal(0.0, s) for s in ss]
        got = [0.0 + s * z for s, z in
               zip(ss, batched.standard_normal(k).tolist())]
        assert repr(got) == repr(want)
    assert scalar.bit_generator.state == batched.bit_generator.state


# --- false-positive rows against the scalar formula ---------------------------

def reference_false_positives(cfg, view, uniforms, alpha=0.002, limit=20.0):
    """The former per-row false-positive code, one Detection per row of the
    four uniforms of t_x, t_y, size and confidence."""
    theta_h, theta_v, width, height, _ = view
    c_x, c_y = width / 2.0, height / 2.0
    half_diag = 0.5 * math.hypot(width, height)
    out = []
    for u_x, u_y, u_size, u_conf in uniforms:
        t_x, t_y = (width - 1.0) * u_x, (height - 1.0) * u_y
        size = 10.0 + 30.0 * u_size
        dist_norm = math.hypot(t_x - c_x, t_y - c_y) / half_diag
        _, var_h, var_v = _model(cfg, 0.0, size, size, dist_norm)
        g_h, g_v, _ = image_to_galvo(theta_h, theta_v, t_x, t_y, alpha,
                                     width, height, limit)
        out.append(Detection(g_h, g_v, size * alpha, size * alpha,
                             cfg.fp_conf_cap * u_conf, var_h, var_v))
    return out


# (u_x, u_y) whose view offsets np.hypot and math.hypot put an ulp apart, far
# enough to move the variance at the default config
HYPOT_SPLITS = [(0.16855004777996285, 0.8338771992471672),
                (0.9497155310066655, 0.8077348787893226),
                (0.9424668365695249, 0.010870747633565103),
                (0.03863868694195649, 0.14293242044948495),
                (0.25973670552222183, 0.9478640075483022)]


@pytest.mark.parametrize("alpha, limit, size", [(0.002, 20.0, (264, 224)),
                                                (0.003, 0.5, (64, 48))])
def test_false_positive_rows_match_the_scalar_formula(alpha, limit, size):
    cfg = DetectorConfig(k_ctr=3.0) if size[0] == 64 else DetectorConfig()
    detector = SyntheticDetector(cfg, alpha=alpha, limit=limit)
    rng = np.random.default_rng(17)
    views = [View(*(float(t) for t in rng.uniform(-21.0, 21.0, 2)), *size, ())
             for _ in range(5)]
    uniforms = [[(u_x, u_y, 0.5, 0.5) for u_x, u_y in HYPOT_SPLITS]]
    uniforms += [rng.random((k, 4)).tolist() for k in (1, 3, 0, 40)]
    uniforms[1] += [(0.0, 0.0, 0.0, 0.0), (1.0, 1.0, 1.0, 1.0)]
    want = [(i, *d) for i, (view, rows) in enumerate(zip(views, uniforms))
            for d in reference_false_positives(cfg, view, rows, alpha, limit)]
    got = []
    for i, (view, rows) in enumerate(zip(views, uniforms)):
        detector._false_positives(i, view, rows, got)
    got = np.array(got, DETECTION_ROW)
    assert got.dtype == DETECTION_ROW and (got["object_id"] == -1).all()
    assert repr([(*row[:8], None) for row in got.tolist()]) == repr(want)
    if size[0] == 264:  # these rows tell math.hypot from np.hypot
        off = [((264 - 1.0) * u_x - 132.0, (224 - 1.0) * u_y - 112.0)
               for u_x, u_y in HYPOT_SPLITS]
        assert all(math.hypot(*o) != np.hypot(*o) for o in off)


# --- detect_pass against per-view detect ---------------------------------------

def table_rows(table):
    """(view, Detection) per row of a detection table."""
    return [(row[0], Detection(*row[1:8], None if row[8] < 0 else row[8]))
            for row in table.tolist()]


def per_view_pass(detector, views, rng):
    """The reference detect_pass: one detect call per view, in view order, as
    one table."""
    return np.array([(i, *d[:7], -1 if d.object_id is None else d.object_id)
                     for i, view in enumerate(views)
                     for d in detector.detect(view, rng)], dtype=DETECTION_ROW)


@pytest.mark.parametrize("lam", [0.01, 0.5, 1.0, 3.0, 9.99])
def test_poisson_below_10_is_the_multiplication_loop_detect_pass_replays(lam):
    # detect_pass replays numpy's Poisson sampler below rate 10 over uniform
    # doubles: the count is the number of running products of doubles that
    # stay above e^-lam, so a count of 0 takes one double at most e^-lam
    for seed in range(200):
        scalar, doubles = np.random.default_rng(seed), np.random.default_rng(seed)
        want = [scalar.poisson(lam) for _ in range(5)]
        got = []
        for _ in range(5):
            k, prod = 0, doubles.random()
            while prod > math.exp(-lam):
                k, prod = k + 1, prod * doubles.random()
            got.append(k)
        assert got == want
        assert scalar.bit_generator.state == doubles.bit_generator.state


def visible_view(rng):
    while not (view := random_view(rng, 264, 224)).visible:
        pass
    return view


# each pattern lists its views: e for one with nothing visible, v for one
# with something visible
PASS_PATTERNS = {
    "no_views": "",
    "all_empty": "e" * 60,
    "all_visible": "v" * 20,
    "alternating": "ev" * 60,
    "empty_runs_at_both_ends": "e" * 25 + "vevve" + "e" * 25,
}


@pytest.mark.parametrize("pattern", sorted(PASS_PATTERNS))
@pytest.mark.parametrize("fp_rate", [0.0, 1e-300, 0.01, 0.5, 3.0, 9.99, 9.999,
                                     10.0, 40.0])
def test_detect_pass_takes_the_draws_of_per_view_detect(pattern, fp_rate):
    # a config past fp_rate's domain still runs: from 10 on numpy draws a
    # count by rejection, and every view goes through detect
    detector = SyntheticDetector(DetectorConfig(fp_rate=fp_rate, conf_noise=0.1))
    false_positives = 0
    for seed in range(12):
        views_rng = np.random.default_rng([7, seed])
        views = [visible_view(views_rng) if c == "v"
                 else View(*random_view(views_rng, 264, 224)[:4], visible=())
                 for c in PASS_PATTERNS[pattern]]
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        table = detector.detect_pass(views, got_rng)
        # a table even with no rows: no views, or fp_rate 0 on empty views
        assert table.dtype == DETECTION_ROW and table.ndim == 1
        got = table_rows(table)
        # the rows of one detect per view, each view's rows in its order
        want = [(i, d) for i, view in enumerate(views)
                for d in detector.detect(view, want_rng)]
        assert repr(got) == repr(want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        false_positives += sum(not views[i].visible for i, _ in got)
    if fp_rate < 0.01:  # e^-1e-300 is 1.0, so every count is 0
        assert false_positives == 0
    elif "e" in PASS_PATTERNS[pattern]:  # empty views' counts were replayed
        assert false_positives > 0


# --- likelihood ---------------------------------------------------------------

def test_likelihood_floor_on_empty():
    assert SyntheticDetector(DetectorConfig()).likelihood(make_view(), []) \
        == pytest.approx(1e-3)


def test_likelihood_is_max_confidence():
    dets = [Detection(0, 0, 0.1, 0.1, 0.4, 1e-4, 1e-4),
            Detection(0, 0, 0.1, 0.1, 0.9, 1e-4, 1e-4)]
    assert SyntheticDetector(DetectorConfig()).likelihood(make_view(), dets) \
        == pytest.approx(0.9)


def test_likelihood_perfect_confidence():
    dets = [Detection(0, 0, 0.1, 0.1, 1.0, 1e-4, 1e-4)]
    assert SyntheticDetector(DetectorConfig()).likelihood(make_view(), dets) == 1.0


# --- interface substitutability -----------------------------------------------

class AlwaysDetect:
    """Trivial stub honoring the detector interface."""

    def detect(self, view, seed):
        return [Detection(view.theta_h, view.theta_v, 0.1, 0.1, 1.0,
                          1e-4, 1e-4, object_id=v.object_id)
                for v in view.visible]

    def detect_pass(self, views, seed):
        return per_view_pass(self, views, seed)


def test_stub_detector_runs_in_the_engine():
    from panosearch.config import default_scenario
    from panosearch.experiment import TrialTrace, run_trial
    from panosearch.scene import build_scene
    import panosearch.experiment as exp

    cfg = default_scenario()
    scene = build_scene(cfg.scene, seed=1)
    real = exp.SyntheticDetector
    seen = []

    class CountingStub(AlwaysDetect):
        def __init__(self, *a, **kw):
            pass

        def detect_pass(self, views, seed):
            seen.extend(views)
            return AlwaysDetect.detect_pass(self, views, seed)

    exp.SyntheticDetector = CountingStub
    trace = TrialTrace()
    try:
        result = run_trial(scene, "ppm_ps", 60, 2, seed=3, cfg=cfg, trace=trace)
    finally:
        exp.SyntheticDetector = real
    # every budgeted view reaches the detector once, in scan order
    assert [(v.theta_h, v.theta_v) for v in seen] == \
        [(th, tv) for _, th, tv, *_ in trace.scan]
    assert len(seen) == result.views == 60
    # the panorama bootstrap alone accounts for 3 of 9 objects
    assert result.recall >= 3 / 9


@pytest.mark.parametrize("fp_rate", [0.0, 0.5])
def test_trial_asks_likelihood_only_of_views_with_detections(monkeypatch,
                                                             fp_rate):
    from dataclasses import replace

    from panosearch.config import default_scenario
    from panosearch.experiment import TrialTrace, run_trial
    from panosearch.scene import build_scene
    import panosearch.experiment as exp

    cfg = default_scenario()
    cfg = replace(cfg, detector=replace(cfg.detector, fp_rate=fp_rate))
    scene = build_scene(cfg.scene, seed=1)
    seen, detected, weighed = [], [], []

    class CountingDetector(SyntheticDetector):
        def detect_pass(self, views, rng):
            table = super().detect_pass(views, rng)
            seen.extend(views)
            detected.append((len(views), table))
            return table

    def update_weights(particles, likelihoods):
        weighed.append(likelihoods.tolist())
        return real_update(particles, likelihoods)

    want = run_trial(scene, "ppm_ps", 120, 3, seed=3, cfg=cfg)
    real_update = exp.update_weights
    monkeypatch.setattr(exp, "SyntheticDetector", CountingDetector)
    monkeypatch.setattr(exp, "update_weights", update_weights)
    trace = TrialTrace()
    got = run_trial(scene, "ppm_ps", 120, 3, seed=3, cfg=cfg, trace=trace)
    # every view reaches the detector once, in scan order
    assert [(v.theta_h, v.theta_v) for v in seen] == \
        [(th, tv) for _, th, tv, *_ in trace.scan]
    assert len(seen) == got.views == 120
    # one likelihood per view that detected something, the per-view
    # likelihood of its rows (matched by the particle the dump names), and
    # the floor for every other view
    detector = SyntheticDetector(cfg.detector, floor=cfg.engine.likelihood_floor)
    assert len(weighed) == 2  # every pass but the last refines
    for stage, ((n_views, table), likes) in enumerate(zip(detected, weighed),
                                                      start=1):
        rows = [row for row in trace.detections if row[0] == stage]
        assert len(rows) == len(table)
        by_particle = {}
        for (_, idx, *_), (_, det) in zip(rows, table_rows(table)):
            by_particle.setdefault(idx, []).append(det)
        assert 0 < len(by_particle) < n_views == len(likes)
        assert likes == [detector.likelihood(None, by_particle.get(idx, []))
                         for idx in range(n_views)]
    assert replace(got, wall_ms=0.0) == replace(want, wall_ms=0.0)
