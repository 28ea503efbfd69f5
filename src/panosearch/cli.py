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

from . import experiment as exp
from .config import (ConfigError, ScenarioConfig, apply_overrides, Block,
                     build_scenario, check_scenario, parse_file,
                     serialize_scenario)
from .detector import write_detections_csv
from .galvo import write_scan_log
from .ppm import build_ppm, region_sampling_prob, write_ppm_csv
from .refinement import write_windows_csv
from .scene import build_scene, write_label_grid

OUT_ENV = "PANOSEARCH_OUT"


def _write_particles(path: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("stage,theta_h,theta_v,weight,sigma\n")
        for stage, th, tv, weight, sigma in rows:
            fh.write(f"{stage},{th:.6f},{tv:.6f},{weight:.9e},{sigma:.6f}\n")


def _load(args) -> ScenarioConfig:
    if args.config is not None:
        root = parse_file(args.config)
    else:
        root = Block(name="", line=0)
    if args.set:
        apply_overrides(root, args.set)
    cfg, errors = build_scenario(root)
    errors.extend(check_scenario(cfg))
    if errors:
        raise ConfigError("\n".join(errors))
    return cfg


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


def _rows_to_csv(rows: list[dict], columns: list[str],
                 formats: dict[str, str]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        cells = []
        for col in columns:
            value = row[col]
            fmt = formats.get(col)
            cells.append(fmt % value if fmt else str(value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _echo_config(cfg: ScenarioConfig, out: str) -> None:
    _write_atomic(os.path.join(out, "effective.cfg"), serialize_scenario(cfg))


def cmd_validate(args) -> int:
    try:
        root = parse_file(args.config) if args.config else Block(name="", line=0)
        if args.set:
            apply_overrides(root, args.set)
    except ConfigError as exc:
        print(f"error: {exc}")
        return 1
    cfg, errors = build_scenario(root)
    errors.extend(check_scenario(cfg))
    if not errors:
        try:
            scene = build_scene(cfg.scene, seed=0)
        except ConfigError as exc:
            errors.append(str(exc))
        else:
            try:
                region_sampling_prob(scene.regions, cfg.experiment.target)
            except ValueError as exc:
                errors.append(f"experiment: {exc}")
    if errors:
        for err in errors:
            print(f"error: {err}")
        return 1
    print("ok")
    return 0


def cmd_trial(args) -> int:
    cfg = _load(args)
    out = _out_dir(args, cfg)
    seed = args.seed if args.seed is not None else 0
    scene = build_scene(cfg.scene, seed=[11, 0, seed])
    trace = exp.TrialTrace() if args.dump else None
    budget = cfg.engine.n_particles if args.budget is None else args.budget
    result = exp.run_trial_spec(scene, args.method, exp.METHODS[args.method],
                                budget, cfg.engine.iterations, [13, 0, seed], cfg,
                                seed_label=seed, trace=trace)
    rows = [{
        "method": result.method, "seed": seed, "budget": result.budget,
        "recall": result.recall, "ap": result.ap, "found": len(result.found),
        "objects": result.n_objects, "views": result.views,
        "elapsed_sim_ms": result.elapsed_sim_ms, "vacuous": int(result.vacuous),
    }]
    text = _rows_to_csv(rows, ["method", "seed", "budget", "recall", "ap",
                               "found", "objects", "views", "elapsed_sim_ms",
                               "vacuous"],
                        {"recall": "%.6f", "ap": "%.6f", "elapsed_sim_ms": "%.4f"})
    _write_atomic(os.path.join(out, "trial.csv"), text)
    _echo_config(cfg, out)
    if args.dump:
        write_label_grid(scene, os.path.join(out, "scene_grid.txt"))
        ppm = build_ppm(scene, cfg.noise, cfg.experiment.target,
                        max(result.budget, 1), [13, 0, seed],
                        r_scale=cfg.engine.subregion_scale)
        write_ppm_csv(ppm, os.path.join(out, "ppm.csv"), cfg.experiment.target)
        write_scan_log(os.path.join(out, "scan_log.csv"), trace.scan)
        write_detections_csv(os.path.join(out, "detections.csv"), trace.detections)
        write_windows_csv(os.path.join(out, "windows.csv"), trace.windows)
        _write_particles(os.path.join(out, "particles.csv"), trace.particles)
    wall_views_per_s = (result.views / (result.wall_ms / 1e3)
                        if result.views else 0.0)
    print(f"trial method={result.method} seed={seed} budget={result.budget} "
          f"recall={result.recall:.3f} ap={result.ap:.3f} "
          f"found={len(result.found)}/{result.n_objects} "
          f"wall_views_per_s={wall_views_per_s:.0f}")
    return 0


def cmd_curve(args) -> int:
    cfg = _load(args)
    out = _out_dir(args, cfg)
    scenes = exp.default_scene_variants(cfg.scene, cfg.experiment.scenes)
    rows = exp.recall_curve(scenes, cfg.experiment.methods,
                            cfg.experiment.budgets, cfg.experiment.seeds,
                            cfg, n_jobs=args.jobs)
    text = _rows_to_csv(rows, ["method", "budget", "n_trials", "mean_recall",
                               "std_recall", "mean_ap"],
                        {"mean_recall": "%.6f", "std_recall": "%.6f",
                         "mean_ap": "%.6f"})
    _write_atomic(os.path.join(out, "recall_curve.csv"), text)
    _echo_config(cfg, out)
    for row in rows:
        print(f"curve method={row['method']} budget={row['budget']} "
              f"recall={row['mean_recall']:.3f}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _load(args)
    out = _out_dir(args, cfg)
    rows = exp.proportion_sweep(cfg.scene, cfg.experiment.proportions,
                                cfg.experiment.methods,
                                cfg.experiment.sweep_seeds,
                                cfg.experiment.sweep_budget, cfg,
                                n_jobs=args.jobs)
    text = _rows_to_csv(rows, ["proportion", "method", "n_trials",
                               "mean_recall", "std_recall"],
                        {"proportion": "%.2f", "mean_recall": "%.6f",
                         "std_recall": "%.6f"})
    _write_atomic(os.path.join(out, "proportion_sweep.csv"), text)
    _echo_config(cfg, out)
    for row in rows:
        print(f"sweep proportion={row['proportion']:.2f} method={row['method']} "
              f"recall={row['mean_recall']:.3f}")
    return 0


def cmd_ablation(args) -> int:
    cfg = _load(args)
    out = _out_dir(args, cfg)
    rows = exp.ablation(cfg, n_jobs=args.jobs)
    text = _rows_to_csv(rows, ["preset", "ppm", "n_trials", "mean_recall",
                               "mean_ap", "views_per_sim_s"],
                        {"mean_recall": "%.6f", "mean_ap": "%.6f",
                         "views_per_sim_s": "%.2f"})
    _write_atomic(os.path.join(out, "ablation.csv"), text)
    _echo_config(cfg, out)
    for row in rows:
        print(f"ablation preset={row['preset']} ppm={row['ppm']} "
              f"recall={row['mean_recall']:.3f} ap={row['mean_ap']:.3f}")
    return 0


def cmd_deviation(args) -> int:
    cfg = _load(args)
    out = _out_dir(args, cfg)
    scene_cfg = exp.deviation_scene(cfg.scene)
    rows = exp.deviation_study(scene_cfg, cfg.experiment.deviation_seeds,
                               cfg.experiment.deviation_budget, cfg,
                               n_jobs=args.jobs)
    text = _rows_to_csv(rows, ["target", "moving", "voting", "n_seeds",
                               "found_rate", "mean_abs_dx_px", "mean_abs_dy_px",
                               "mean_pre_var", "mean_post_var"],
                        {"found_rate": "%.4f", "mean_abs_dx_px": "%.3f",
                         "mean_abs_dy_px": "%.3f", "mean_pre_var": "%.6e",
                         "mean_post_var": "%.6e"})
    _write_atomic(os.path.join(out, "deviation.csv"), text)
    _echo_config(cfg, out)
    for row in rows:
        print(f"deviation target={row['target']} voting={row['voting']} "
              f"dx={row['mean_abs_dx_px']:.1f} dy={row['mean_abs_dy_px']:.1f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="panosearch",
        description="Probability-map-guided wide-area search simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="scenario config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--out", help=f"output directory (or ${OUT_ENV})")
        p.add_argument("--set", action="append", default=[],
                       metavar="PATH=VALUE",
                       help="override a config value, e.g. engine.sigma_t=0.05")

    p = sub.add_parser("validate", help="check a config and exit")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("trial", help="run a single search trial")
    common(p)
    p.add_argument("--method", default="ppm_ps",
                   choices=sorted(exp.METHODS))
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--dump", action="store_true",
                   help="also write scene grid and probability-map dumps")
    p.set_defaults(func=cmd_trial)

    p = sub.add_parser("curve", help="recall vs budget for each method")
    common(p)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("sweep", help="recall vs high-prior region proportion")
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("ablation", help="probability map on/off per detector preset")
    common(p)
    p.set_defaults(func=cmd_ablation)

    p = sub.add_parser("deviation", help="gaze deviation with voting on/off")
    common(p)
    p.set_defaults(func=cmd_deviation)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
