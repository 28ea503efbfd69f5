"""Golden outputs: the SHA-256 of every file the CLI writes for a fixed set
of runs, recorded in golden.json beside this file.

The runs are the four studies on the small config below at --jobs 1, a
`trial --dump` of every method at two seeds with three passes and label
noise, the same dump of two methods where false positives dominate (fp_rate
9.99, about 10 per view), and the default config echoed as effective.cfg.  One more digest
covers what no file shows: every field of `run_trial`'s finds, its
pre-search variances, recall and AP over every method and ten seeds on the
default scene and on a crowded one.  Float sums and random streams may
differ between numpy versions, so the digests are compared only under the
numpy major.minor that recorded them.

After an intended output change, record the digests again with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from panosearch.cli import main
from panosearch.config import (ObjectGroupSpec, default_scenario, load_scenario,
                               serialize_scenario)
from panosearch.experiment import run_trial
from panosearch.scene import build_scene

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
DEFAULT_CFG = HERE.parent / "scenarios" / "default.cfg"
CONSTRAINTS = HERE.parent / ".github" / "numpy-golden.txt"

TINY_CFG = """\
experiment {
    methods = ppm_ps mpf
    budgets = 40 80
    seeds = 2
    scenes = 2
    proportions = 0.3 0.5
    sweep_budget = 40
    sweep_seeds = 2
    ablation_budget = 40
    ablation_seeds = 2
    deviation_budget = 60
    deviation_seeds = 2
}
"""
STUDIES = ("curve", "sweep", "ablation", "deviation")
METHODS = ("ppm_ps", "ppm_only", "rpm", "mpf", "uniform")
TRIAL_SEEDS = (0, 3)
TRIAL_SETS = ("engine.iterations=3", "noise.label_flip=0.05")
FP_METHODS = ("ppm_ps", "mpf")
FP_SETS = TRIAL_SETS + ("detector.fp_rate=9.99",)
RESULT_SEEDS = 10
RESULT_BUDGET = 200


def numpy_minor(version: str = np.__version__) -> str:
    return ".".join(version.split(".")[:2])


def write_outputs(root: Path) -> None:
    """Run every golden command with its outputs under `root`."""
    tiny = root / "tiny.cfg"
    tiny.write_text(TINY_CFG, encoding="utf-8")
    for study in STUDIES:
        assert main([study, "--config", str(tiny), "--jobs", "1",
                     "--out", str(root / study)]) == 0
    dumps = [(method, seed, f"trial_{method}_{seed}", TRIAL_SETS)
             for method in METHODS for seed in TRIAL_SEEDS]
    dumps += [(method, 0, f"trial_{method}_fp", FP_SETS) for method in FP_METHODS]
    for method, seed, out, overrides in dumps:
        argv = ["trial", "--config", str(DEFAULT_CFG), "--method", method,
                "--seed", str(seed), "--dump", "--out", str(root / out)]
        for override in overrides:
            argv += ["--set", override]
        assert main(argv) == 0
    (root / "default").mkdir()
    (root / "default" / "effective.cfg").write_text(
        serialize_scenario(load_scenario(None)), encoding="utf-8")
    tiny.unlink()


def digests(root: Path) -> dict[str, str]:
    """Relative path -> SHA-256 hex of every file under `root`."""
    return {p.relative_to(root).as_posix():
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def result_scenarios():
    """The default scene and a crowded one with many false positives, both
    with three passes and label noise."""
    base = default_scenario()
    base.engine.iterations = 3
    base.noise.label_flip = 0.05
    crowd = default_scenario()
    crowd.engine.iterations = 3
    crowd.noise.label_flip = 0.05
    crowd.detector.fp_rate = 0.5
    crowd.scene.groups = [
        ObjectGroupSpec(class_name="car", count=75, size=(48.0, 28.0), speed=2.0),
        ObjectGroupSpec(class_name="car", count=3, size=(120.0, 60.0), speed=2.0),
    ]
    return {"default": base, "crowd": crowd}


def results_digest() -> str:
    """SHA-256 over every trial's finds (all fields), pre-search variances,
    recall and AP, floats written by repr."""
    h = hashlib.sha256()
    for name, cfg in result_scenarios().items():
        for seed in range(RESULT_SEEDS):
            scene = build_scene(cfg.scene, [7, seed])
            for method in METHODS:
                r = run_trial(scene, method, RESULT_BUDGET, cfg.engine.iterations,
                              [9, seed], cfg)
                found = sorted((oid, dataclasses.astuple(f))
                               for oid, f in r.found.items())
                h.update(repr((name, seed, method, found, sorted(r.pre_vars.items()),
                               r.recall, r.ap)).encode())
    return h.hexdigest()


def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_outputs_match_golden_digests(tmp_path, capsys):
    want = golden()
    if numpy_minor() != want["numpy"]:
        pytest.skip(f"golden digests were recorded under numpy {want['numpy']}; "
                    f"this is numpy {np.__version__}")
    write_outputs(tmp_path)
    capsys.readouterr()  # the commands' console lines
    got, files = digests(tmp_path), want["files"]
    changed = sorted(p for p in files.keys() & got.keys() if got[p] != files[p])
    missing = sorted(files.keys() - got.keys())
    extra = sorted(got.keys() - files.keys())
    assert not (changed or missing or extra), (
        f"changed: {changed}; missing: {missing}; new: {extra}")


def test_trial_results_match_golden_digest():
    want = golden()
    if numpy_minor() != want["numpy"]:
        pytest.skip(f"golden digests were recorded under numpy {want['numpy']}; "
                    f"this is numpy {np.__version__}")
    assert results_digest() == want["results"]


def test_ci_pins_the_recorded_numpy():
    # CI's newest Python installs with this constraint, so it always compares
    assert CONSTRAINTS.read_text(encoding="utf-8").split() == [
        f"numpy=={golden()['numpy']}.*"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        write_outputs(Path(tmp))
        record = {"numpy": numpy_minor(), "files": digests(Path(tmp)),
                  "results": results_digest()}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"{GOLDEN}: {len(record['files'])} file digests and one results "
          f"digest under numpy "
          f"{record['numpy']}", file=sys.stderr)
