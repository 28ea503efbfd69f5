"""panosearch benchmark: seeded search-trial workloads through the public API.

Run from the repository root:

    python3 benchmarks/run.py --workload curve_single_pass --seed 1 \\
        --seconds 30 --trace 0

One process, one trial at a time (a closed loop with one client, no worker
pool).  Set-up loads `scenarios/default.cfg` with the workload's overrides
and builds every world with `build_scene`; it is repeated SETUP_REPS times
and `setup_s` is the median.  Trials then run in a seeded shuffled order of
the workload's matrix: the whole matrix once, then on until `--seconds`
have passed; a trial's latency is the median of its runs.  Every time is
wall time scaled to a fixed reference speed (refclock.py), so that other
tenants of a shared machine do not move the figures.  Every trial's output
is checked, and a repeated trial must reproduce its first result exactly.

With `--trace 0` the last stdout line carries the end-to-end metrics.  With
`--trace 1` the run alternates untraced and traced passes over the whole
matrix and reports per-layer metrics per pass; spans are written to
`.bench_out/` when the run ends.  The lines before the JSON line are a
human-readable summary, including the SHA-256 digest of every trial's
(method, budget, seed, recall, ap, found ids).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from refclock import RefClock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIG = ROOT / "scenarios" / "default.cfg"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPS = 9

# name -> unit; the end-to-end metrics, measured with tracing off
E2E_UNITS = {
    "setup_s": "s",
    "trials_per_s": "1/s",
    "views_per_s": "1/s",
    "trial_ms_p50": "ms",
    "trial_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "mean_recall": "ratio",
    "mean_ap": "ratio",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_source():
    """Put this checkout's `src/` first on the path; False if it is missing."""
    if not (SRC / "panosearch" / "__init__.py").is_file() or not CONFIG.is_file():
        print(f"benchmark: no panosearch source or {CONFIG.name} under {ROOT}",
              file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    import panosearch
    if not Path(panosearch.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"benchmark: imported panosearch from {panosearch.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return False
    return True


def check_trial(trial, res, object_ids, engine) -> list[str]:
    """Problems with one trial's output; empty when it is correct."""
    problems = []
    if not 0.0 <= res.recall <= 1.0:
        problems.append(f"recall {res.recall} outside [0, 1]")
    if not 0.0 <= res.ap <= 1.0:
        problems.append(f"ap {res.ap} outside [0, 1]")
    if res.views != trial.budget:
        problems.append(f"{res.views} views for budget {trial.budget}")
    sim_ms = res.views * (engine.step_response_ms + engine.dwell_ms)
    if not math.isclose(res.elapsed_sim_ms, sim_ms, rel_tol=1e-9, abs_tol=1e-9):
        problems.append(f"elapsed_sim_ms {res.elapsed_sim_ms} != {sim_ms}")
    stray = set(res.found) - object_ids
    if stray:
        problems.append(f"found ids {sorted(stray)} not in the scene")
    return problems


class TrialRunner:
    """Runs trials of one workload by matrix index and checks each output."""

    def __init__(self, workload, cfg, worlds, clock: RefClock):
        from panosearch import experiment
        self.experiment = experiment
        self.clock = clock
        self.workload = workload
        self.cfg = cfg
        self.worlds = worlds
        self.object_ids = [{o.id for o in w.objects} for w in worlds]
        self.reference = [None] * len(workload.trials)  # first fingerprints
        self.scores = [None] * len(workload.trials)     # (recall, ap)
        self.views = [0] * len(workload.trials)
        self.attempted = 0
        self.failed = 0
        self.first_failure = None
        self.wall_s = 0.0

    def run(self, k: int) -> float:
        """Run matrix trial k and check it; returns its scaled seconds."""
        trial = self.workload.trials[k]
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            # looked up at call time so the tracer's wrapper is used
            res = self.experiment.run_trial(
                self.worlds[trial.world], trial.method, trial.budget,
                self.cfg.engine.iterations, list(trial.seed), self.cfg)
        except Exception:
            elapsed = time.perf_counter() - t0
            self._fail(k, traceback.format_exc())
            return self._scale(elapsed)
        elapsed = time.perf_counter() - t0
        self.views[k] = res.views
        problems = check_trial(trial, res, self.object_ids[trial.world],
                               self.cfg.engine)
        fp = (trial.method, trial.budget, trial.seed, repr(res.recall),
              repr(res.ap), tuple(sorted(res.found)))
        if self.reference[k] is None:
            self.reference[k] = fp
            self.scores[k] = (res.recall, res.ap)
        elif self.reference[k] != fp:
            problems.append("differs from the first run of the same trial")
        if problems:
            self._fail(k, "; ".join(problems))
        return self._scale(elapsed)

    def _scale(self, elapsed: float) -> float:
        self.wall_s += elapsed
        return self.clock.scale(elapsed)

    def _fail(self, k, why):
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = f"trial {k} {self.workload.trials[k]}: {why}"

    def run_pass(self, samples: list[list[float]]) -> None:
        """Run the whole matrix once, adding each trial's time to samples."""
        for k in self.workload.order:
            samples[k].append(self.run(k))

    def digest(self) -> str:
        h = hashlib.sha256()
        for fp in self.reference:
            h.update(repr(fp).encode())
            h.update(b"\n")
        return h.hexdigest()

    def mean_scores(self) -> tuple[float, float]:
        """Mean recall and mean AP over the matrix trials that ran."""
        done = [s for s in self.scores if s is not None]
        if not done:  # every trial raised: the result is already incorrect
            return 0.0, 0.0
        return (statistics.fmean(s[0] for s in done),
                statistics.fmean(s[1] for s in done))


def setups(workload, clock: RefClock):
    """SETUP_REPS fresh set-ups; returns (cfg, worlds, scaled seconds of each)."""
    import workloads
    times = []
    worlds = None
    for _ in range(SETUP_REPS):
        worlds = None  # release the previous worlds before building anew
        t0 = time.perf_counter()
        cfg, worlds = workloads.setup(workload, str(CONFIG))
        times.append(clock.scale(time.perf_counter() - t0))
    return cfg, worlds, times


def measure_e2e(workload, seconds: float):
    """End-to-end metrics, tracing off.

    Trials cycle through the shuffled matrix until `seconds` have passed
    (the whole matrix at least once).  Times are scaled to the reference
    speed (see refclock.py); a trial's latency is the median of its runs.
    """
    clock = RefClock()
    cfg, worlds, times = setups(workload, clock)
    runner = TrialRunner(workload, cfg, worlds, clock)
    order = workload.order
    n = len(order)
    samples = [[] for _ in range(n)]
    runs = 0
    t0 = time.perf_counter()
    deadline = t0 + seconds
    while runs < n or time.perf_counter() < deadline:
        k = order[runs % n]
        samples[k].append(runner.run(k))
        runs += 1
    wall = time.perf_counter() - t0

    latency = [statistics.median(v) for v in samples]
    total = sum(latency)
    p90 = statistics.quantiles(latency, n=10, method="inclusive")[8]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    mean_recall, mean_ap = runner.mean_scores()
    metrics = {
        "setup_s": statistics.median(times),
        "trials_per_s": n / total,
        "views_per_s": sum(runner.views) / total,
        "trial_ms_p50": statistics.median(latency) * 1e3,
        "trial_ms_p90": p90 * 1e3,
        "peak_rss_mb": rss_kb / 1024.0,
        "mean_recall": mean_recall,
        "mean_ap": mean_ap,
    }
    notes = ["set-ups (scaled s): " + " ".join(f"{t:.4f}" for t in times),
             f"{runs} trial runs in {wall:.2f} s; unscaled wall rate "
             f"{runs / runner.wall_s:.3f} trials/s; each trial ran "
             f"{runs // n} to {-(-runs // n)} times",
             f"latency samples {n} (median run per trial), "
             f"{sum(x > p90 for x in latency)} beyond p90"]
    return runner, metrics, E2E_UNITS, notes


def measure_layers(workload, seconds: float, seed: int):
    """Per-layer metrics per pass over the matrix, from a traced run.

    Untraced and traced passes alternate until `seconds` have passed (one
    pair at least).  Layer seconds are unscaled wall time; the tracing
    overhead compares the per-trial median scaled times of the two kinds of
    pass.
    """
    import tracer as tr
    clock = RefClock()
    tracer = tr.Tracer()
    with tracer.patched():
        cfg, worlds, _ = setups(workload, clock)
    runner = TrialRunner(workload, cfg, worlds, clock)

    n = len(workload.order)
    plain = [[] for _ in range(n)]
    traced = [[] for _ in range(n)]
    passes = 0
    start = time.perf_counter()
    while True:
        runner.run_pass(plain)
        with tracer.patched():
            for k in workload.order:
                tracer.trial = passes * n + k
                traced[k].append(runner.run(k))
            tracer.trial = -1
        passes += 1
        if (time.perf_counter() - start) * (passes + 1) / passes > seconds:
            break

    per_name, self_s = tr.summarize(tracer)
    c = tracer.counts
    metrics, units = {}, {}

    def put(name, value, unit):
        metrics[name] = value
        units[name] = unit

    def ratio(num, den):
        return num / den if den else 0.0

    for name, (secs, _, _) in per_name.items():
        reps = SETUP_REPS if name in ("config.load_scenario",
                                      "scene.build_scene") else passes
        put(f"{name}.s", secs / reps, "s")
    put("ppm.allocate_ppm.calls", per_name["ppm.allocate_ppm"][1] / passes,
        "count")
    put("particles.prune_kept_ratio",
        ratio(c["particles.prune_kept"], c["particles.prune_in"]), "ratio")
    put("particles.degenerate_fallbacks",
        per_name["particles.normalize_weights"][2] / passes, "count")
    put("galvo.plan_scan.positions", c["galvo.plan_scan.positions"] / passes,
        "count")
    put("galvo.capture_view.calls", per_name["galvo.capture_view"][1] / passes,
        "count")
    put("galvo.visible_per_view",
        ratio(c["galvo.capture_view.visible"],
              per_name["galvo.capture_view"][1]), "count/view")
    put("detector.detect.calls", per_name["detector.detect"][1] / passes,
        "count")
    put("detector.detections", c["detector.detections"] / passes, "count")
    put("detector.true_det_ratio",
        ratio(c["detector.true_detections"], c["detector.detections"]), "ratio")
    put("refinement.nms_in", c["refinement.nms_in"] / passes, "count")
    put("refinement.windows_out", c["refinement.windows_out"] / passes, "count")
    put("refinement.windows_per_det",
        ratio(c["refinement.windows_out"], c["refinement.nms_in"]), "ratio")
    put("experiment.self_s", self_s / passes, "s")
    put("trace.overhead_frac",
        sum(map(statistics.median, traced))
        / sum(map(statistics.median, plain)) - 1.0, "ratio")

    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"spans_{workload.name}_seed{seed}.npz"
    tracer.save(str(span_file))
    notes = [f"{passes} untraced + {passes} traced passes over {n} trials; "
             f"layer metrics are per pass",
             f"{len(tracer.ids)} spans written to "
             f"{span_file.parent.name}/{span_file.name}"]
    return runner, metrics, units, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not import_source():
        return 2
    import workloads
    if args.workload not in workloads.BUILDERS:
        print(f"benchmark: unknown workload {args.workload!r}; expected one "
              f"of {sorted(workloads.BUILDERS)}", file=sys.stderr)
        return 2
    workload = workloads.make_workload(args.workload, args.seed)
    if args.trace:
        runner, metrics, units, notes = measure_layers(workload, args.seconds,
                                                       args.seed)
    else:
        runner, metrics, units, notes = measure_e2e(workload, args.seconds)

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{len(workload.trials)} trials over {len(workload.worlds)} worlds, "
          f"one client, no worker pool")
    for note in notes:
        print(f"  {note}")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.6f} {units[name]}")
    print(f"  {'failed_frac':36s} {runner.failed / runner.attempted:14.6f} "
          f"({runner.failed}/{runner.attempted})")
    print(f"  result digest sha256:{runner.digest()}")
    if runner.first_failure:
        print(f"  first failure: {runner.first_failure}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
