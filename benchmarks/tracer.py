"""Span tracer that wraps panosearch's public layer functions from outside.

`experiment` binds its collaborators with `from .galvo import plan_scan` and
the like, so wrapping `galvo.plan_scan` alone would miss every trial's calls.
`Tracer.patched()` therefore replaces each target function wherever a
panosearch module binds it (found by identity), plus the `SyntheticDetector`
methods, and restores every binding on exit.  Each call records a span
(name, start, end, parent span, trial id) in memory; observers add counts
(views, detections, windows, ...) at the same boundaries.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

WRAPPED_MARK = "__bench_wrapped__"


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _obs_plan_scan(counts, args, kwargs, out):
    counts["galvo.plan_scan.positions"] += len(_arg(args, kwargs, 1, "positions"))


def _obs_capture_view(counts, args, kwargs, out):
    counts["galvo.capture_view.visible"] += len(out.visible)


def _obs_detect(counts, args, kwargs, out):
    counts["detector.detections"] += len(out)
    counts["detector.true_detections"] += sum(d.object_id is not None for d in out)


def _obs_nms_merge(counts, args, kwargs, out):
    counts["refinement.nms_in"] += len(_arg(args, kwargs, 0, "dets"))
    counts["refinement.windows_out"] += len(out)


def _obs_prune(counts, args, kwargs, out):
    counts["particles.prune_in"] += len(_arg(args, kwargs, 0, "particles"))
    counts["particles.prune_kept"] += len(out)


# (module, attribute, span name, observer).  A dotted attribute names a method.
TARGETS = (
    ("config", "load_scenario", "config.load_scenario", None),
    ("scene", "build_scene", "scene.build_scene", None),
    ("scene", "step_motion", "scene.step_motion", None),
    ("ppm", "segment_panorama", "ppm.segment_panorama", None),
    ("ppm", "allocate_ppm", "ppm.allocate_ppm", None),
    ("particles", "initial_sample", "particles.initial_sample", None),
    ("particles", "sample_next", "particles.sample_next", None),
    ("particles", "update_weights", "particles.update_weights", None),
    ("particles", "normalize_weights", "particles.normalize_weights", None),
    ("particles", "build_proposal", "particles.build_proposal", None),
    ("particles", "prune_redundant", "particles.prune_redundant", _obs_prune),
    ("galvo", "plan_scan", "galvo.plan_scan", _obs_plan_scan),
    ("galvo", "capture_view", "galvo.capture_view", _obs_capture_view),
    ("detector", "SyntheticDetector.detect", "detector.detect", _obs_detect),
    ("detector", "SyntheticDetector.likelihood", "detector.likelihood", None),
    ("refinement", "nms_merge", "refinement.nms_merge", _obs_nms_merge),
    ("experiment", "run_trial", "experiment.trial", None),
    ("experiment", "average_precision_11pt",
     "experiment.average_precision_11pt", None),
)
SPAN_NAMES = tuple(t[2] for t in TARGETS)
TRIAL_SPAN = "experiment.trial"


def panosearch_modules() -> list:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "panosearch"
                                  or n.startswith("panosearch."))]


class Tracer:
    """In-memory span store; spans are columns of int64 arrays."""

    def __init__(self):
        self.ids = array("q")
        self.names = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.trials = array("q")
        self.raised = array("q")
        self.counts: Counter = Counter()
        self.trial = -1          # id stamped on spans; -1 outside trials
        self._stack: list[int] = []
        self._next_id = 0

    def _wrap(self, name_idx: int, fn, observe):
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(sid)
            raised = 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                raised = 0
            finally:
                t1 = clock()
                tracer._stack.pop()
                tracer._record(sid, name_idx, t0, t1, parent, raised)
            if observe is not None:
                observe(tracer.counts, args, kwargs, out)
            return out

        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper

    def _record(self, sid, name_idx, t0, t1, parent, raised):
        self.ids.append(sid)
        self.names.append(name_idx)
        self.starts.append(t0)
        self.ends.append(t1)
        self.parents.append(parent)
        self.trials.append(self.trial)
        self.raised.append(raised)

    @contextmanager
    def patched(self):
        """Wrap every target binding; restore all of them on exit."""
        saved: list[tuple[object, str, object]] = []
        modules = panosearch_modules()
        try:
            for idx, (mod_name, attr, _, observe) in enumerate(TARGETS):
                mod = sys.modules[f"panosearch.{mod_name}"]
                owner, _, key = attr.rpartition(".")
                owner = getattr(mod, owner) if owner else mod
                original = vars(owner).get(key)
                if original is None:
                    # a later refactor removed the layer: its metrics read 0
                    print(f"tracer: panosearch.{mod_name}.{attr} not found",
                          file=sys.stderr)
                    continue
                if owner is not mod:  # a method: one binding, on its class
                    saved.append((owner, key, original))
                    setattr(owner, key, self._wrap(idx, original, observe))
                    continue
                wrapper = self._wrap(idx, original, observe)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            saved.append((m, key, original))
                            setattr(m, key, wrapper)
            yield self
        finally:
            for owner, key, original in reversed(saved):
                setattr(owner, key, original)

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "id": np.array(self.ids, dtype=np.int64),
            "name": np.array(self.names, dtype=np.int64),
            "start_ns": np.array(self.starts, dtype=np.int64),
            "end_ns": np.array(self.ends, dtype=np.int64),
            "parent": np.array(self.parents, dtype=np.int64),
            "trial": np.array(self.trials, dtype=np.int64),
            "raised": np.array(self.raised, dtype=np.int64),
        }

    def save(self, path: str) -> None:
        """Write every span, plus the name table, as one .npz file."""
        np.savez(path, names=np.array(SPAN_NAMES), **self.spans())


def summarize(tracer: Tracer) -> tuple[dict[str, tuple[float, int, int]], float]:
    """Per span name (seconds, calls, calls that raised), and trial self time.

    Self time of the trial layer is each trial span's duration minus the
    durations of its direct children.
    """
    s = tracer.spans()
    dur = (s["end_ns"] - s["start_ns"]) / 1e9
    per_name = {}
    for i, name in enumerate(SPAN_NAMES):
        mask = s["name"] == i
        per_name[name] = (float(dur[mask].sum()), int(mask.sum()),
                          int(s["raised"][mask].sum()))
    trial_ids = s["id"][s["name"] == SPAN_NAMES.index(TRIAL_SPAN)]
    child = np.isin(s["parent"], trial_ids)
    self_s = per_name[TRIAL_SPAN][0] - float(dur[child].sum())
    return per_name, self_s
