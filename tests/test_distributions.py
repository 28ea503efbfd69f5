"""Statistical oracles: each test draws through a public function at a fixed
seed and checks the law the simulator documents, not a replay of its stream.

Bounds sit at 5 SE, a two-sided false alarm of about 5.7e-7 per check, so no
fixed seed sits near an edge.
"""

import math

import numpy as np
import pytest

from panosearch.config import RegionSpec, SceneConfig, SegNoiseConfig
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
