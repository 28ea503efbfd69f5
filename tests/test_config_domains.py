"""Config key domains, driven by the key tables in panosearch.config.

Every key's domain edges are drawn: each bound, the next value just outside
it, NaN and +/-inf, and inside each open or infinite bound a value 1e-12
from it (1e12 for infinity).  A float key also draws the next values just
outside the nonzero magnitudes [1e-12, 1e12].  An out-of-domain value must make
`load_scenario` fail naming the key; any config it accepts must run every
method without an exception or a RuntimeWarning, with recall and AP in
[0, 1].
"""

import math
import os
import re
import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panosearch.config import (MAX_MAGNITUDE, METHODS, MIN_MAGNITUDE,
                               ConfigError, DetectorConfig, DetectorPreset,
                               EngineConfig, ExperimentConfig, ObjectGroupSpec,
                               RegionSpec, SceneConfig, SegNoiseConfig,
                               key_table, load_scenario)
from panosearch.experiment import run_trial
from panosearch.scene import build_scene

# config-file block -> its key table; the first region and objects blocks
# and the preset take the drawn values
BLOCKS = {
    "scene": SceneConfig, "scene.region": RegionSpec,
    "scene.objects": ObjectGroupSpec, "noise": SegNoiseConfig,
    "detector": DetectorConfig, "preset": DetectorPreset,
    "engine": EngineConfig, "experiment": ExperimentConfig,
}

# a small scene: 400x300 px over 12 degrees, so every trial is cheap
BASE = {
    "scene": {"width": "400", "height": "300", "span_deg": "12.0"},
    "scene.region": {"label": "road", "rect": "50 100 300 100"},
    "scene.objects": {"count": "3", "size": "48 28", "speed": "2",
                      "region": "road"},
    "noise": {"label_flip": "0.02", "center_std_px": "2.0", "conf_std": "0.02"},
    "detector": {"fp_rate": "0.5"},
    "engine": {"iterations": "3"},
    "experiment": {},
    "preset": {"name": "p"},
}

# caps on drawn in-domain values that would start unbounded work
CAPS = {("detector", "fp_rate"): 2.0}


def config_text(values: dict) -> str:
    """BASE with values[(block, key)] = text applied."""
    blocks = {name: dict(keys) for name, keys in BASE.items()}
    for (block, key), text in values.items():
        blocks[block][key] = text

    def body(name, indent):
        return "".join(f"{'    ' * indent}{k} = {v}\n"
                       for k, v in blocks[name].items())

    text = ("scene {\n" + body("scene", 1)
            + "    region {\n" + body("scene.region", 2) + "    }\n"
            + "    objects {\n" + body("scene.objects", 2) + "    }\n"
            + "    objects {\n        count = 1\n        size = 120 60\n    }\n"
            + "    priors {\n        car|road = 0.7\n        car|field = 0.03\n"
            + "    }\n}\n")
    for name in ("noise", "detector", "engine", "experiment", "preset"):
        text += f"{name} {{\n{body(name, 1)}}}\n"
    return text


def load_text(text: str):
    fd, path = tempfile.mkstemp(suffix=".cfg")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        return load_scenario(path)
    finally:
        os.unlink(path)


def _value_text(key, value) -> str:
    item = repr(value) if isinstance(value, float) else str(value)
    return f"{item} {item}" if key.kind == "tuple[float, float]" else item


def edges(key) -> tuple[list[str], list[str]]:
    """Value texts (inside, outside) at the edges of a key's domain."""
    if isinstance(key.domain, tuple):
        return list(key.domain), ["warp"]
    if not key.domain:
        return [], []  # a free string, or a rect checked as geometry
    is_int = "int" in key.kind
    lo, hi = (float(t) for t in key.domain[1:-1].split(","))
    inside = []
    outside = ["nan", "inf", "-inf"]
    if not is_int:
        outside += [math.nextafter(MIN_MAGNITUDE, 0.0),
                    math.nextafter(MAX_MAGNITUDE, math.inf)]
    for bound, closed, inward in ((lo, key.domain[0] == "[", 1),
                                  (hi, key.domain[-1] == "]", -1)):
        if math.isinf(bound):
            if not is_int:
                inside.append(1e12)
            continue
        if is_int:
            bound = int(bound)
            near_in, near_out = bound + inward, bound - inward
        else:
            near_in = bound + inward * 1e-12
            near_out = math.nextafter(bound, -inward * math.inf)
        (inside if closed else outside).append(bound)
        if is_int or not closed:
            inside.append(near_in)
        outside.append(near_out)
    return ([_value_text(key, v) for v in inside],
            [v if isinstance(v, str) else _value_text(key, v) for v in outside])


TABLE = [(block, key) for block, cls in BLOCKS.items() for key in key_table(cls)]


@pytest.mark.parametrize("block,key", TABLE,
                         ids=[f"{b}.{k.name}" for b, k in TABLE])
def test_out_of_domain_value_is_rejected_by_name(block, key):
    for text in edges(key)[1]:
        with pytest.raises(ConfigError) as exc:
            load_text(config_text({(block, key.name): text}))
        named = [line for line in str(exc.value).splitlines()
                 if re.search(rf"[ .]{re.escape(key.name)} ", line)]
        assert named, (text, str(exc.value))


@pytest.mark.parametrize("block,key", TABLE,
                         ids=[f"{b}.{k.name}" for b, k in TABLE])
def test_in_domain_edges_load_alone(block, key):
    # the base scene accepts every edge value of a key that does not
    # constrain another key
    for text in edges(key)[0]:
        try:
            load_text(config_text({(block, key.name): text}))
        except ConfigError as exc:
            assert not re.search(rf"[ .]{re.escape(key.name)} must ", str(exc)), text


def _capped(block, key, text):
    cap = CAPS.get((block, key.name))
    return text if cap is None or float(text) <= cap else repr(cap)


# keys that reach a trial: study-matrix and preset keys do not
TRIAL_CASES = [(block, key.name, _capped(block, key, text))
               for block, key in TABLE
               if block not in ("experiment", "preset")
               and key.name != "n_particles"
               for text in edges(key)[0]]


@settings(max_examples=500, deadline=None, derandomize=True)
@given(cases=st.lists(st.sampled_from(TRIAL_CASES), min_size=1, max_size=4),
       budget=st.integers(2, 60), seed=st.integers(0, 2 ** 16))
def test_accepted_configs_run_every_method(cases, budget, seed):
    try:
        cfg = load_text(config_text({(b, k): v for b, k, v in cases}))
        scene = build_scene(cfg.scene, seed=[seed])
    except ConfigError:
        return  # rejected before any trial, as `validate` would
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for method in METHODS:
            for b in (0, 1, budget):
                res = run_trial(scene, method, b, cfg.engine.iterations,
                                [seed, b], cfg)
                assert 0.0 <= res.recall <= 1.0
                assert 0.0 <= res.ap <= 1.0


def test_every_method_name_validates():
    for method in METHODS:
        assert load_text(config_text({("experiment", "methods"): method}))
    with pytest.raises(ConfigError, match="warp"):
        load_text(config_text({("experiment", "methods"): "ppm_ps warp"}))


def test_preset_keys_default_to_the_detector():
    # a preset that sets only its name keeps the detector defaults
    cfg = load_text(config_text({}))
    assert cfg.presets == [DetectorPreset("p", 0.9, 0.05)]
