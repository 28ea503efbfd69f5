"""Probability-map-guided wide-area multi-object search simulator."""

from .config import (ConfigError, DetectorConfig, EngineConfig,
                     ExperimentConfig, ObjectGroupSpec, RegionSpec,
                     ScenarioConfig, SceneConfig, SegNoiseConfig,
                     default_scenario, load_scenario)
from .detector import DETECTION_ROW, Detection, SyntheticDetector
from .experiment import (METHODS, TrialResult, ablation, deviation_study,
                         proportion_sweep, recall_curve, run_trial)
from .galvo import View, capture_view, image_to_galvo, plan_scan
from .particles import (Particle, ParticleSet, build_proposal,
                        initial_sample, normalize_weights, prune_redundant,
                        sample_next, update_weights)
from .ppm import (PanoDetection, Ppm, build_ppm, refine_allocation,
                  region_sampling_prob, segment_panorama)
from .refinement import SearchWindows, iou, nms_merge, overlap_prob, variance_vote
from .scene import GtObject, Region, SceneMap, build_scene, step_motion

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "DetectorConfig", "EngineConfig", "ExperimentConfig",
    "ObjectGroupSpec", "RegionSpec", "ScenarioConfig", "SceneConfig",
    "SegNoiseConfig", "default_scenario", "load_scenario",
    "DETECTION_ROW", "Detection", "SyntheticDetector",
    "METHODS", "TrialResult", "ablation", "deviation_study",
    "proportion_sweep", "recall_curve", "run_trial",
    "View", "capture_view", "image_to_galvo", "plan_scan",
    "Particle", "ParticleSet", "build_proposal", "initial_sample",
    "normalize_weights", "prune_redundant", "sample_next", "update_weights",
    "PanoDetection", "Ppm", "build_ppm", "refine_allocation",
    "region_sampling_prob", "segment_panorama",
    "SearchWindows", "iou", "nms_merge", "overlap_prob", "variance_vote",
    "GtObject", "Region", "SceneMap", "build_scene", "step_motion",
]
