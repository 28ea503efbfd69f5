"""Statistical oracles: each test draws through a public function at a fixed
seed and checks the law the simulator documents, not a replay of its stream.

Bounds sit at 5 SE, a two-sided false alarm of about 5.7e-7 per check, so no
fixed seed sits near an edge.
"""

import math

import numpy as np
import pytest

from panosearch.config import DetectorConfig, RegionSpec, SceneConfig, SegNoiseConfig
from panosearch.detector import SyntheticDetector, _model
from panosearch.galvo import View, VisibleObject
from panosearch.particles import ParticleSet, build_proposal, sample_next
from panosearch.ppm import segment_panorama
from panosearch.scene import build_scene

FIVE_SE_TAIL = math.erfc(5.0 / math.sqrt(2.0))  # P(|Z| > 5), about 5.7e-7


def chi2_tail_3df(x):
    """P(chi-square with 3 degrees of freedom > x)."""
    return (math.erfc(math.sqrt(x / 2.0))
            + math.sqrt(2.0 * x / math.pi) * math.exp(-x / 2.0))


# the chi-square value with 3 degrees of freedom whose upper tail is that of 5 SE
CHI2_3DF_AT_5_SE = 31.8


def test_chi2_bound_is_the_five_se_quantile():
    assert chi2_tail_3df(CHI2_3DF_AT_5_SE) == pytest.approx(FIVE_SE_TAIL,
                                                            rel=0.02)


@pytest.mark.parametrize("label_flip", [0.3, 1.0])
def test_a_flipped_label_moves_uniformly_to_another_region(label_flip):
    # four regions and the background on 400 x 250 px (N = 100,000 pixels).
    # A pixel flips with probability label_flip, to one of the 4 other
    # labels with probability 1/4 each: (new - old) mod 5 is 0 only where
    # no flip fell, never at label_flip 1.0, and uniform over 1-4 where one
    # did.  Bounds: the changed count within 5 SE of N p, and the chi-square
    # statistic over the 4 steps (about 30,000 or all 100,000 changed
    # pixels) at most CHI2_3DF_AT_5_SE
    cfg = SceneConfig(width=400, height=250, groups=[], regions=[
        RegionSpec("a", (0, 0, 100, 250)), RegionSpec("b", (100, 0, 60, 120)),
        RegionSpec("c", (200, 50, 150, 150)), RegionSpec("d", (360, 0, 40, 40))])
    scene = build_scene(cfg, seed=0)
    assert len(scene.regions) == 5
    grid, _ = segment_panorama(scene, SegNoiseConfig(label_flip=label_flip), 12)
    step = (grid.astype(np.int64) - scene.labels).ravel() % 5
    n, changed = step.size, step[step != 0]
    if label_flip == 1.0:
        assert changed.size == n
    else:
        se = math.sqrt(n * label_flip * (1.0 - label_flip))
        assert abs(changed.size - n * label_flip) <= 5.0 * se
    expected = changed.size / 4
    counts = np.bincount(changed, minlength=5)[1:]
    assert float(np.sum((counts - expected) ** 2) / expected) <= CHI2_3DF_AT_5_SE


def test_a_true_detection_is_normal_about_the_object_and_its_firing_rate():
    # one object 32 px left of and above the center of each view, at the
    # default 0.002 deg/px: it fires with probability d (about 0.47, from
    # _model), and then its box center is the object's plus normal noise of
    # sd loc_noise_px + sqrt(var) / alpha * loc_noise_scale on each axis
    # (about 12.6 px on x and 25.1 px on y, as the object is 4x wider than
    # tall), and its confidence is d plus normal noise of sd conf_noise.
    # d +- 5 sd of that noise stays inside (0, 1), so the confidence clamp
    # never acts and cannot bias the confidence noise
    cfg = DetectorConfig(base_recall=0.5, conf_noise=0.05, loc_noise_px=0.0,
                         loc_noise_scale=1.0, fp_rate=0.0)
    alpha, n_views = 0.002, 40_000
    obj = VisibleObject(object_id=0, x_px=100.0, y_px=80.0, width_px=200.0,
                        height_px=50.0, occlusion=0.0)
    view = View(theta_h=0.0, theta_v=0.0, width=264, height=224, visible=(obj,))
    dist_norm = math.hypot(100.0 - 132.0, 80.0 - 112.0) / (0.5 * math.hypot(264, 224))
    d, var_h, var_v = _model(cfg, 0.0, 200.0, 50.0, dist_norm)
    assert d - 5.0 * cfg.conf_noise > 0.0 and d + 5.0 * cfg.conf_noise < 1.0
    rows = SyntheticDetector(cfg, alpha=alpha).detect_pass(
        [view] * n_views, np.random.default_rng(32))
    # fired count over N = 40,000 views: within 5 sqrt(N d (1 - d)) of N d
    assert abs(len(rows) - n_views * d) <= 5.0 * math.sqrt(n_views * d * (1.0 - d))
    for noise, sd in [
            (rows["theta_h"] / alpha - (100.0 - 132.0),
             cfg.loc_noise_px + math.sqrt(var_h) / alpha * cfg.loc_noise_scale),
            (rows["theta_v"] / alpha - (80.0 - 112.0),
             cfg.loc_noise_px + math.sqrt(var_v) / alpha * cfg.loc_noise_scale),
            (rows["confidence"] - d, cfg.conf_noise)]:
        n = len(noise)  # the fired detections, about 19,000
        # mean: within 5 SE = 5 sd / sqrt(n) of 0
        assert abs(noise.mean()) <= 5.0 * sd / math.sqrt(n)
        # mean square: within 5 SE = 5 sd^2 sqrt(2 / n) of sd^2, since a
        # normal's fourth moment is 3 sd^4; an sd 1.1x off is 21% away
        assert abs(np.mean(noise ** 2) - sd ** 2) <= 5.0 * sd ** 2 * math.sqrt(2.0 / n)


def test_sample_next_draws_the_proposal_mixture():
    # four isotropic components with distinct mix weights (0.1-0.4) and
    # sigmas (0.5-2.0 deg); each mean is within 6 deg of the center, so a
    # child is clamped at the 20 deg mirror limit only past 7 sigma.  A
    # child inherits its component's weight, which names its pick
    proposal = build_proposal(ParticleSet(
        theta_h=np.array([-6.0, 6.0, -3.0, 2.0]),
        theta_v=np.array([4.0, -6.0, 0.0, 5.0]),
        weight=np.array([1.0, 2.0, 3.0, 4.0]),
        sigma=np.array([2.0, 0.5, 1.5, 1.0])))
    n = 40_000
    children = sample_next(proposal, n, seed=12)
    pick = np.searchsorted(proposal.weight, children.weight)
    assert np.array_equal(proposal.weight[pick], children.weight)
    # component counts over N = 40,000 children: the chi-square statistic
    # against N times the mix weights at most CHI2_3DF_AT_5_SE
    expected = n * proposal.weight
    counts = np.bincount(pick, minlength=4)
    assert float(np.sum((counts - expected) ** 2 / expected)) <= CHI2_3DF_AT_5_SE
    assert np.array_equal(children.sigma, proposal.sigma[pick])
    for child, mean in [(children.theta_h, proposal.theta_h),
                        (children.theta_v, proposal.theta_v)]:
        z = (child - mean[pick]) / proposal.sigma[pick]
        # per axis over N = 40,000 children: the mean within 5 SE = 5 /
        # sqrt(N) of 0, and the mean square within 5 SE = 5 sqrt(2 / N) of
        # 1; a sigma 1.1x off puts it 0.21 away, six times the bound
        assert abs(z.mean()) <= 5.0 / math.sqrt(n)
        assert abs(np.mean(z ** 2) - 1.0) <= 5.0 * math.sqrt(2.0 / n)
