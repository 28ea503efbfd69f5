"""Tests of the benchmark harness itself (run: pytest benchmarks/).

They use the first few trials of each workload, so they stay quick.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402
from refclock import RefClock  # noqa: E402
from panosearch import experiment  # noqa: E402

N_TRIALS = 6


def small(name: str, seed: int = 3):
    w = workloads.make_workload(name, seed)
    keep = w.order[:N_TRIALS]
    return dataclasses.replace(w, trials=tuple(w.trials[k] for k in keep),
                               order=tuple(range(N_TRIALS)))


def surviving_wrappers() -> list[str]:
    """Names of any tracer wrapper still bound in a panosearch module."""
    found = []
    for mod in tr.panosearch_modules():
        for key, value in vars(mod).items():
            if getattr(value, tr.WRAPPED_MARK, False):
                found.append(f"{mod.__name__}.{key}")
            if isinstance(value, type):
                for meth, fn in vars(value).items():
                    if getattr(fn, tr.WRAPPED_MARK, False):
                        found.append(f"{mod.__name__}.{key}.{meth}")
    return found


def originals():
    out = {}
    for mod_name, attr, _, _ in tr.TARGETS:
        owner = sys.modules[f"panosearch.{mod_name}"]
        for part in attr.split("."):
            owner = getattr(owner, part)
        out[(mod_name, attr)] = owner
    return out


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_tracing_changes_no_result_and_leaves_no_wrapper(name):
    w = small(name)
    before = originals()
    cfg, worlds = workloads.setup(w, str(run.CONFIG))
    plain = run.TrialRunner(w, cfg, worlds, RefClock())
    plain.run_pass([[] for _ in range(N_TRIALS)])

    tracer = tr.Tracer()
    with tracer.patched():
        assert surviving_wrappers()
        traced = run.TrialRunner(w, cfg, worlds, RefClock())
        for k in w.order:
            tracer.trial = k
            traced.run(k)

    assert plain.failed == traced.failed == 0
    assert traced.digest() == plain.digest()
    assert surviving_wrappers() == []
    assert originals() == before
    # an untraced run after the traced one still records nothing
    n_spans = len(tracer.ids)
    plain.run_pass([[] for _ in range(N_TRIALS)])
    assert len(tracer.ids) == n_spans and plain.failed == 0


def test_layer_spans_account_for_trial_time():
    w = small("iter_track")
    cfg, worlds = workloads.setup(w, str(run.CONFIG))
    tracer = tr.Tracer()
    with tracer.patched():
        runner = run.TrialRunner(w, cfg, worlds, RefClock())
        for k in w.order:
            tracer.trial = k
            runner.run(k)
    per_name, self_s = tr.summarize(tracer)
    spans = tracer.spans()
    trial_idx = tr.SPAN_NAMES.index(tr.TRIAL_SPAN)
    trial_ids = set(spans["id"][spans["name"] == trial_idx].tolist())
    inner = spans["name"] != trial_idx
    # every layer call happens directly inside one trial span
    assert set(spans["parent"][inner].tolist()) <= trial_ids
    assert set(spans["trial"].tolist()) == set(w.order)
    layers = sum(per_name[n][0] for n in tr.SPAN_NAMES if n != tr.TRIAL_SPAN)
    assert 0.0 <= self_s
    assert layers + self_s == pytest.approx(per_name[tr.TRIAL_SPAN][0],
                                            rel=1e-9)
    budgets = sum(t.budget for t in w.trials)
    assert per_name["galvo.capture_view"][1] == budgets
    assert tracer.counts["galvo.plan_scan.positions"] == budgets
    assert per_name["particles.sample_next"][1] > 0


def test_check_trial_reports_each_violation():
    w = small("curve_single_pass")
    cfg, worlds = workloads.setup(w, str(run.CONFIG))
    trial = w.trials[0]
    res = experiment.run_trial(worlds[trial.world], trial.method, trial.budget,
                               cfg.engine.iterations, list(trial.seed), cfg)
    ids = {o.id for o in worlds[trial.world].objects}
    assert run.check_trial(trial, res, ids, cfg.engine) == []
    bad = dataclasses.replace(res, recall=1.5, ap=-0.1, views=res.views + 1,
                              found={**res.found, 999: None})
    problems = run.check_trial(trial, bad, ids, cfg.engine)
    assert len(problems) == 5


def test_metric_names_and_units_match_benchmark_json(tmp_path, monkeypatch):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    runner, metrics, units, _ = run.measure_layers(small("crowd_noisy"),
                                                   0.01, seed=3)
    assert runner.failed == 0
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == units
    assert list(tmp_path.glob("spans_*.npz"))


def test_exits_nonzero_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload",
         "curve_single_pass", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
