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
from .ppm import Ppm
from .scene import SceneMap, build_scene

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


def _rows_to_csv(rows, columns: dict[str, str]) -> str:
    """CSV text: the column names, then per row its values in column order,
    each printed with its column's %-format."""
    line = ",".join(columns.values()) + "\n"
    return ",".join(columns) + "\n" + "".join(line % tuple(row) for row in rows)


def _write_results(cfg: ScenarioConfig, out: str, name: str, rows: list[dict],
                   columns: dict[str, str]) -> None:
    """The rows as CSV file `name`, and the effective config echoed beside it."""
    _write_atomic(os.path.join(out, name),
                  _rows_to_csv(([row[c] for c in columns] for row in rows), columns))
    _write_atomic(os.path.join(out, "effective.cfg"), serialize_scenario(cfg))


def cmd_validate(args) -> int:
    load_scenario(args.config, args.set)
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
    result = exp.run_trial(scene, args.method, budget, cfg.engine.iterations,
                           [13, 0, seed], cfg, trace=trace)
    row = {
        "method": result.method, "seed": seed, "budget": result.budget,
        "recall": result.recall, "ap": result.ap, "found": len(result.found),
        "objects": result.n_objects, "views": result.views,
        "elapsed_sim_ms": result.elapsed_sim_ms, "vacuous": int(result.vacuous),
    }
    _write_results(cfg, out, "trial.csv", [row], TRIAL_COLUMNS)
    if args.dump:
        _write_dump(out, scene, trace, cfg.experiment.target)
    wall_views_per_s = (result.views / (result.wall_ms / 1e3)
                        if result.views else 0.0)
    print(f"trial method={result.method} seed={seed} budget={result.budget} "
          f"recall={result.recall:.3f} ap={result.ap:.3f} "
          f"found={len(result.found)}/{result.n_objects} "
          f"wall_views_per_s={wall_views_per_s:.0f}")
    return 0


# the per-pass logs of `trial --dump`; `stage` is the scan pass, from 1
SCAN_COLUMNS = {"seq": "%s", "theta_h": "%.6f", "theta_v": "%.6f",
                "elapsed_ms": "%.4f", "n_visible": "%s"}
PARTICLE_COLUMNS = {"stage": "%s", "theta_h": "%.6f", "theta_v": "%.6f",
                    "weight": "%.9e", "sigma": "%.6f"}
DETECTION_COLUMNS = {"stage": "%s", "particle": "%s", "theta_h": "%.6f",
                     "theta_v": "%.6f", "p": "%.6f", "var_h": "%.6e",
                     "var_v": "%.6e"}
WINDOW_COLUMNS = {"stage": "%s", "window": "%s", "center_h": "%.6f",
                  "center_v": "%.6f", "radius_h": "%.6e", "radius_v": "%.6e",
                  "n_members": "%s"}


def _label_grid_text(scene: SceneMap) -> str:
    """Header 'W H', then one space-separated row of region ids per line."""
    return f"{scene.width} {scene.height}\n" + "".join(
        " ".join(map(str, row)) + "\n" for row in scene.labels.tolist())


def _ppm_csv(ppm: Ppm, target: str) -> str:
    """One row per region, then one row per sub-region disc."""
    lines = ["kind,region_id,label,area_px,prior,F,x_r,x_rm,"
             "center_x,center_y,radius_px,x_ro\n"]
    by_id = {r.id: r for r in ppm.regions}
    for rid in sorted(ppm.region_probs):
        region = by_id[rid]
        allocated = ppm.remainder_counts.get(rid, 0) + sum(
            s.count for s in ppm.sub_regions if s.region_id == rid)
        lines.append(f"region,{rid},{region.label},{region.area_px:.0f},"
                     f"{region.prior(target):.4f},{ppm.region_probs[rid]:.9f},"
                     f"{allocated},{ppm.remainder_counts.get(rid, 0)},,,,\n")
    for s in ppm.sub_regions:
        lines.append(f"subregion,{s.region_id},,,,,,,{s.center[0]:.2f},"
                     f"{s.center[1]:.2f},{s.radius_px:.3f},{s.count}\n")
    return "".join(lines)


def _write_dump(out: str, scene: SceneMap, trace: exp.TrialTrace,
                target: str) -> None:
    """The scene grid, the first pass's map and the per-pass logs of a trial."""
    _write_atomic(os.path.join(out, "scene_grid.txt"), _label_grid_text(scene))
    ppm_path = os.path.join(out, "ppm.csv")
    if trace.ppm is not None:
        _write_atomic(ppm_path, _ppm_csv(trace.ppm, target))
    elif os.path.exists(ppm_path):
        os.remove(ppm_path)  # left by an earlier trial: not this one's map
    for name, rows, columns in (
            ("scan_log.csv", trace.scan, SCAN_COLUMNS),
            ("particles.csv", trace.particles, PARTICLE_COLUMNS),
            ("detections.csv", trace.detections, DETECTION_COLUMNS),
            ("windows.csv", trace.windows, WINDOW_COLUMNS)):
        _write_atomic(os.path.join(out, name), _rows_to_csv(rows, columns))


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


def _int_at_least(low: int) -> Callable[[str], int]:
    """An argparse type: an integer >= low, else a usage error."""
    def integer(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as an invalid value
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return integer


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
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--method", default="ppm_ps",
                   choices=sorted(exp.METHODS))
    p.add_argument("--budget", type=_int_at_least(0), default=None)
    p.add_argument("--dump", action="store_true",
                   help="also write scene grid and probability-map dumps")
    p.set_defaults(func=cmd_trial)

    for name, study in STUDIES.items():
        p = sub.add_parser(name, help=study.help)
        common(p)
        p.add_argument("--jobs", type=_int_at_least(1), default=1,
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
