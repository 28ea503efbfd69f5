"""Float totals that reach a result are added left to right on every Python.

From Python 3.12 the builtin sum() compensates float rounding, so the same
numpy gave other weights and AP than on 3.11.  Each test shadows `sum` in
the modules with a 3.12-style sum and checks the outputs against a plain
left-to-right oracle, on inputs where the two ways of adding differ.
"""

import math

import numpy as np
import pytest

from panosearch import experiment, particles, ppm, refinement, scene
from panosearch.experiment import average_precision_11pt
from panosearch.particles import (Particle, ParticleSet, build_proposal,
                                  normalize_weights)
from panosearch.ppm import PanoDetection, apportion, refine_allocation
from panosearch.scene import Region, left_sum, region_sampling_prob

# added left to right the tiny terms vanish: 1.0; compensated: 1.000000000000001
WEIGHTS = [1.0] + [1e-16] * 10


def compensated_sum(values, start=0):
    """sum() as Python 3.12 and later run it: ints exactly, floats compensated."""
    values = list(values)
    if any(isinstance(v, float) for v in values):
        return math.fsum([start, *values])
    return sum(values, start)


def ltr(values):
    total = 0.0
    for v in values:
        total += v
    return total


@pytest.fixture(autouse=True)
def compensated(monkeypatch):
    for mod in (experiment, particles, ppm, refinement, scene):
        monkeypatch.setattr(mod, "sum", compensated_sum, raising=False)


def test_the_two_ways_of_adding_differ_on_the_inputs():
    assert ltr(WEIGHTS) == 1.0 != compensated_sum(WEIGHTS)


def test_left_sum_adds_left_to_right():
    rng = np.random.default_rng(6)
    values = (rng.normal(size=500) * 10.0 ** rng.integers(-12, 12, 500)).tolist()
    assert ltr(values) != math.fsum(values)
    assert left_sum(values) == ltr(values)
    assert left_sum([]) == 0.0 and left_sum([-0.0]) == 0.0
    groups = rng.integers(0, 7, 500)
    want = [ltr(v for v, g in zip(values, groups) if g == k) for k in range(8)]
    assert left_sum(values, groups, 8).tolist() == want


def test_particle_weights():
    want = [w / ltr(WEIGHTS) for w in WEIGHTS]
    n = len(WEIGHTS)
    ps = ParticleSet(np.zeros(n), np.zeros(n), np.array(WEIGHTS), np.ones(n))
    assert build_proposal(ps).weight.tolist() == want
    assert normalize_weights(ps).weight.tolist() == want
    listed = normalize_weights([Particle(0.0, 0.0, w) for w in WEIGHTS])
    assert [p.weight for p in listed] == want


def test_region_sampling_prob():
    regions = [Region(i, f"r{i}", w, {"t": 1.0}) for i, w in enumerate(WEIGHTS)]
    assert region_sampling_prob(regions, "t") == \
        {i: w / ltr(WEIGHTS) for i, w in enumerate(WEIGHTS)}


def test_apportion():
    weights = [0.875, 0.1125, 0.0375, 0.4]
    assert ltr(weights) != compensated_sum(weights)
    assert apportion(48, weights) == [29, 4, 1, 14]


def test_refine_allocation():
    sigmas = [0.8, 2.1, 2.5, 2.3, 2.9]
    areas = [math.pi * (50.0 * s) ** 2 for s in sigmas]
    assert ltr(areas) != compensated_sum(areas)
    dets = [PanoDetection(i, (0.0, 0.0), 0.5, s) for i, s in enumerate(sigmas)]
    assert refine_allocation(Region(0, "r", 60000.0, {}), 25, dets, 0.9) == \
        ([1, 4, 6, 5, 9], 0)


def test_average_precision():
    # precisions 0, 1/2, 2/3 at recalls 0, 1/4, 1/2: the interpolated
    # precision is 2/3 at the recall levels 0 to 0.5 and 0 above
    records = [(1.0, None), (0.9, 2), (0.8, 0)]
    levels = [2.0 / 3.0] * 6 + [0.0] * 5
    assert ltr(levels) != compensated_sum(levels)
    assert average_precision_11pt(records, 4) == ltr(levels) / 11.0
