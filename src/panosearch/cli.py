"""Command-line front end: validate configs, run trials and experiment matrices.

Outputs are CSV files written atomically (temp file + rename) into the output
directory, which comes from --out, then the PANOSEARCH_OUT environment
variable, then the config's `out` entry, then the current directory.  The
effective configuration is echoed next to the outputs so every result is
reproducible from its own directory.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from typing import Callable, NamedTuple

from . import experiment as exp
from .config import (ConfigError, ScenarioConfig, load_scenario,
                     serialize_scenario)
from .detector import write_detections_csv
from .galvo import write_scan_log
from .particles import write_particles_csv
from .ppm import write_ppm_csv
from .refinement import write_windows_csv
from .scene import build_scene, write_label_grid

OUT_ENV = "PANOSEARCH_OUT"


def _out_dir(args, cfg: ScenarioConfig) -> str:
    out = args.out or os.environ.get(OUT_ENV) or cfg.out_dir or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", suffix=".csv")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _rows_to_csv(rows: list[dict], columns: dict[str, str]) -> str:
    """CSV text of the given columns, in order, each printed with its %-format."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(fmt % row[col] for col, fmt in columns.items()))
    return "\n".join(lines) + "\n"


def _write_results(cfg: ScenarioConfig, out: str, name: str, rows: list[dict],
                   columns: dict[str, str]) -> None:
    """The rows as CSV file `name`, and the effective config echoed beside it."""
    _write_atomic(os.path.join(out, name), _rows_to_csv(rows, columns))
    _write_atomic(os.path.join(out, "effective.cfg"), serialize_scenario(cfg))


def cmd_validate(args) -> int:
    try:
        cfg = load_scenario(args.config, args.set)
        build_scene(cfg.scene, seed=0)  # object placement needs the label grid
    except ConfigError as exc:
        for err in str(exc).splitlines():
            print(f"error: {err}")
        return 1
    print("ok")
    return 0


TRIAL_COLUMNS = {"method": "%s", "seed": "%s", "budget": "%s", "recall": "%.6f",
                 "ap": "%.6f", "found": "%s", "objects": "%s", "views": "%s",
                 "elapsed_sim_ms": "%.4f", "vacuous": "%s"}


def cmd_trial(args) -> int:
    cfg = load_scenario(args.config, args.set)
    out = _out_dir(args, cfg)
    seed = args.seed
    scene = build_scene(cfg.scene, seed=[11, 0, seed])
    trace = exp.TrialTrace() if args.dump else None
    budget = cfg.engine.n_particles if args.budget is None else args.budget
    result = exp.run_trial_spec(scene, args.method, exp.METHODS[args.method],
                                budget, cfg.engine.iterations, [13, 0, seed], cfg,
                                seed_label=seed, trace=trace)
    row = {
        "method": result.method, "seed": seed, "budget": result.budget,
        "recall": result.recall, "ap": result.ap, "found": len(result.found),
        "objects": result.n_objects, "views": result.views,
        "elapsed_sim_ms": result.elapsed_sim_ms, "vacuous": int(result.vacuous),
    }
    _write_results(cfg, out, "trial.csv", [row], TRIAL_COLUMNS)
    if args.dump:
        write_label_grid(scene, os.path.join(out, "scene_grid.txt"))
        ppm_path = os.path.join(out, "ppm.csv")
        if trace.ppm is not None:
            write_ppm_csv(trace.ppm, ppm_path, cfg.experiment.target)
        elif os.path.exists(ppm_path):
            os.remove(ppm_path)  # left by an earlier trial: not this one's map
        write_scan_log(os.path.join(out, "scan_log.csv"), trace.scan)
        write_detections_csv(os.path.join(out, "detections.csv"), trace.detections)
        write_windows_csv(os.path.join(out, "windows.csv"), trace.windows)
        write_particles_csv(os.path.join(out, "particles.csv"), trace.particles)
    wall_views_per_s = (result.views / (result.wall_ms / 1e3)
                        if result.views else 0.0)
    print(f"trial method={result.method} seed={seed} budget={result.budget} "
          f"recall={result.recall:.3f} ap={result.ap:.3f} "
          f"found={len(result.found)}/{result.n_objects} "
          f"wall_views_per_s={wall_views_per_s:.0f}")
    return 0


class Study(NamedTuple):
    help: str
    run: Callable[[ScenarioConfig, int], list[dict]]  # (config, jobs) -> rows
    csv: str
    columns: dict[str, str]  # CSV column -> %-format, in column order
    line: str                # console line per row, a str.format template


STUDIES = {
    "curve": Study(
        "recall vs budget for each method",
        lambda cfg, jobs: exp.recall_curve(
            exp.default_scene_variants(cfg.scene, cfg.experiment.scenes),
            cfg.experiment.methods, cfg.experiment.budgets,
            cfg.experiment.seeds, cfg, n_jobs=jobs),
        "recall_curve.csv",
        {"method": "%s", "budget": "%s", "n_trials": "%s",
         "mean_recall": "%.6f", "std_recall": "%.6f", "mean_ap": "%.6f"},
        "curve method={method} budget={budget} recall={mean_recall:.3f}"),
    "sweep": Study(
        "recall vs high-prior region proportion",
        lambda cfg, jobs: exp.proportion_sweep(
            cfg.scene, cfg.experiment.proportions, cfg.experiment.methods,
            cfg.experiment.sweep_seeds, cfg.experiment.sweep_budget, cfg,
            n_jobs=jobs),
        "proportion_sweep.csv",
        {"proportion": "%.2f", "method": "%s", "n_trials": "%s",
         "mean_recall": "%.6f", "std_recall": "%.6f"},
        "sweep proportion={proportion:.2f} method={method} "
        "recall={mean_recall:.3f}"),
    "ablation": Study(
        "probability map on/off per detector preset",
        lambda cfg, jobs: exp.ablation(cfg, n_jobs=jobs),
        "ablation.csv",
        {"preset": "%s", "ppm": "%s", "n_trials": "%s", "mean_recall": "%.6f",
         "mean_ap": "%.6f", "views_per_sim_s": "%.2f"},
        "ablation preset={preset} ppm={ppm} recall={mean_recall:.3f} "
        "ap={mean_ap:.3f}"),
    "deviation": Study(
        "gaze deviation with voting on/off",
        lambda cfg, jobs: exp.deviation_study(
            exp.deviation_scene(cfg.scene), cfg.experiment.deviation_seeds,
            cfg.experiment.deviation_budget, cfg, n_jobs=jobs),
        "deviation.csv",
        {"target": "%s", "moving": "%s", "voting": "%s", "n_seeds": "%s",
         "found_rate": "%.4f", "mean_abs_dx_px": "%.3f",
         "mean_abs_dy_px": "%.3f", "mean_pre_var": "%.6e",
         "mean_post_var": "%.6e"},
        "deviation target={target} voting={voting} "
        "dx={mean_abs_dx_px:.1f} dy={mean_abs_dy_px:.1f}"),
}


def cmd_study(args) -> int:
    study = STUDIES[args.command]
    cfg = load_scenario(args.config, args.set)
    out = _out_dir(args, cfg)
    rows = study.run(cfg, args.jobs)
    _write_results(cfg, out, study.csv, rows, study.columns)
    for row in rows:
        print(study.line.format(**row))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="panosearch",
        description="Probability-map-guided wide-area search simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="scenario config file")
        p.add_argument("--out", help=f"output directory (or ${OUT_ENV})")
        p.add_argument("--set", action="append", default=[],
                       metavar="PATH=VALUE",
                       help="override a config value, e.g. engine.sigma_t=0.05")

    p = sub.add_parser("validate", help="check a config and exit")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("trial", help="run a single search trial")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--method", default="ppm_ps",
                   choices=sorted(exp.METHODS))
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--dump", action="store_true",
                   help="also write scene grid and probability-map dumps")
    p.set_defaults(func=cmd_trial)

    for name, study in STUDIES.items():
        p = sub.add_parser(name, help=study.help)
        common(p)
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes; results do not depend on it")
        p.set_defaults(func=cmd_study)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        for err in str(exc).splitlines():
            print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
