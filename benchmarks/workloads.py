"""Benchmark workloads: seeded trial matrices over the public panosearch API.

A workload is a set of config overrides, a list of worlds (scene config plus
world seed) and a matrix of trials over those worlds.  Everything is derived
from the benchmark seed, so the same seed always yields the same worlds, the
same trials and therefore the same search results.  The program under test
only ever sees the generated configs and scenes.

Why these three (each stresses a different layer; see README.md):

- curve_single_pass: the `curve` study users run most.  One 100-800 view
  pass per trial, so the O(n^2) scan planner dominates and the
  proposal/prune path never runs.
- iter_track: 4-pass `ppm_ps` on the deviation scene with fast movers, the
  only workload that resamples, prunes, moves objects and votes over large
  same-object clusters.
- crowd_noisy: ~78 objects, noisy segmentation and many false positives, so
  ground-truth matching, NMS over many small clusters and the noisy PPM
  dominate while scan planning is minor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from panosearch import config, experiment
from panosearch import scene as scene_mod

CURVE_METHODS = ("ppm_ps", "rpm", "mpf")
CURVE_BUDGETS = (100, 200, 300, 400, 500, 600, 700, 800)


@dataclass(frozen=True)
class Trial:
    world: int                # index into Workload.worlds
    method: str
    budget: int
    seed: tuple[int, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: tuple[str, ...]       # `--set` style config overrides
    scenes: Callable[[config.ScenarioConfig], list[config.SceneConfig]]
    worlds: tuple[tuple[int, tuple[int, ...]], ...]  # (scene index, world seed)
    trials: tuple[Trial, ...]
    order: tuple[int, ...]           # seeded execution order of `trials`


def _curve_scenes(cfg):
    return experiment.default_scene_variants(cfg.scene, 5)


def _deviation_scenes(cfg):
    return [experiment.deviation_scene(cfg.scene)]


def _crowd_scenes(cfg):
    """Default scene repopulated with 75 small and 3 large unpinned cars."""
    scene = config.scenario_copy(cfg).scene
    scene.groups = [
        config.ObjectGroupSpec(class_name="car", count=75, size=(48.0, 28.0),
                               speed=2.0),
        config.ObjectGroupSpec(class_name="car", count=3, size=(120.0, 60.0),
                               speed=2.0),
    ]
    return [scene]


def _curve(seed: int):
    # 5 scene variants x 2 world seeds, every method at every budget
    worlds = [(si, (seed, 11, si, s)) for si in range(5) for s in range(2)]
    trials = [Trial(wi, method, budget, (seed, 13, wi, mi, budget))
              for mi, method in enumerate(CURVE_METHODS)
              for budget in CURVE_BUDGETS
              for wi in range(len(worlds))]
    overrides = ("engine.iterations=1",)
    return overrides, _curve_scenes, worlds, trials


def _iter_track(seed: int):
    # 40 worlds x (one trial at budget 300, two at 600): with two budgets in
    # equal numbers the median latency would fall in the gap between them
    worlds = [(0, (seed, 31, s)) for s in range(40)]
    trials = [Trial(wi, "ppm_ps", budget, (seed, 37, wi, budget, t))
              for budget, t in ((300, 0), (600, 0), (600, 1))
              for wi in range(len(worlds))]
    overrides = ("engine.iterations=4", "engine.init_frac=0.5")
    return overrides, _deviation_scenes, worlds, trials


def _crowd_noisy(seed: int):
    # 20 worlds x 3 methods x 2 trial seeds at budget 200
    worlds = [(0, (seed, 41, s)) for s in range(20)]
    trials = [Trial(wi, method, 200, (seed, 43, wi, mi, t))
              for mi, method in enumerate(CURVE_METHODS)
              for wi in range(len(worlds))
              for t in range(2)]
    overrides = ("engine.iterations=2", "detector.fp_rate=0.5",
                 "noise.label_flip=0.05")
    return overrides, _crowd_scenes, worlds, trials


BUILDERS = {
    "curve_single_pass": _curve,
    "iter_track": _iter_track,
    "crowd_noisy": _crowd_noisy,
}


def make_workload(name: str, seed: int) -> Workload:
    """Seeded workload; raises KeyError for an unknown name."""
    overrides, scenes, worlds, trials = BUILDERS[name](seed)
    order = np.random.default_rng([seed, 97]).permutation(len(trials))
    return Workload(name=name, overrides=overrides, scenes=scenes,
                    worlds=tuple(worlds), trials=tuple(trials),
                    order=tuple(int(i) for i in order))


def setup(workload: Workload, cfg_path: str):
    """Load the config and build every world through the public API.

    Modules are looked up at call time so a tracer can wrap them.  Worlds are
    built with `build_scene`, never through the study cache, so every call
    pays the full set-up cost.
    """
    cfg = config.load_scenario(cfg_path, list(workload.overrides))
    scene_cfgs = workload.scenes(cfg)
    worlds = [scene_mod.build_scene(scene_cfgs[si], list(world_seed))
              for si, world_seed in workload.worlds]
    return cfg, worlds
