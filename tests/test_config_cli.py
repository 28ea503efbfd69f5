import os

import pytest

from panosearch.cli import main
from panosearch.config import (ConfigError, apply_overrides, build_scenario,
                               check_scenario, default_scenario, parse_text,
                               serialize_scenario)
from panosearch.particles import write_particles_csv

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_CFG = os.path.join(REPO_ROOT, "scenarios", "default.cfg")


# --- parser ------------------------------------------------------------------

def test_parse_nested_blocks_and_entries():
    root = parse_text("""
    scene {
        width = 800
        region {
            label = road
            rect = 0 0 400 600
        }
        region {
            label = lot
            rect = 400 0 400 600
        }
    }
    """)
    scene = root.child("scene")
    assert scene.get("width") == "800"
    assert [b.get("label") for b in scene.children_named("region")] == ["road", "lot"]


def test_parse_reports_line_numbers():
    with pytest.raises(ConfigError, match=":3:"):
        parse_text("scene {\n width = 1\ngarbage line\n}")
    with pytest.raises(ConfigError, match="unclosed"):
        parse_text("scene {\n width = 1\n")
    with pytest.raises(ConfigError, match="unmatched"):
        parse_text("}\n")


def test_build_unknown_key_collected():
    cfg, errors = build_scenario(parse_text("engine {\n bogus = 3\n}"))
    assert any("bogus" in e for e in errors)


def test_defaults_carry_published_constants():
    cfg = default_scenario()
    assert cfg.engine.subregion_scale == 50.0
    assert cfg.engine.alpha == 0.002
    assert cfg.engine.sigma_t == 0.025
    assert cfg.engine.step_response_ms == 0.25
    assert cfg.engine.galvo_limit_deg == 20.0
    assert (cfg.scene.width, cfg.scene.height) == (1440, 1200)
    assert (cfg.engine.view_w, cfg.engine.view_h) == (264, 224)


def test_serialize_round_trips():
    cfg = default_scenario()
    cfg.out_dir = "results"
    text = serialize_scenario(cfg)
    rebuilt, errors = build_scenario(parse_text(text))
    assert errors == []
    assert rebuilt == cfg


def test_overrides_apply_and_win():
    root = parse_text("engine {\n sigma_t = 0.1\n}")
    apply_overrides(root, ["engine.sigma_t=0.5", "detector.base_recall=0.7"])
    cfg, errors = build_scenario(root)
    assert errors == []
    assert cfg.engine.sigma_t == 0.5
    assert cfg.detector.base_recall == 0.7


def test_malformed_override_rejected():
    with pytest.raises(ConfigError, match="path.key=value"):
        apply_overrides(parse_text(""), ["engine.sigma_t"])


# --- semantic validation -------------------------------------------------------

def test_sigma_t_zero_is_an_error():
    cfg = default_scenario()
    cfg.engine.sigma_t = 0.0
    errors = check_scenario(cfg)
    assert any("sigma_t must be > 0" in e for e in errors)


def test_bad_proportion_and_method_reported():
    cfg = default_scenario()
    cfg.experiment.methods = ["warp"]
    cfg.experiment.proportions = [1.5]
    errors = check_scenario(cfg)
    assert any("warp" in e for e in errors)
    assert any("1.5" in e for e in errors)


# --- CLI ------------------------------------------------------------------------

def test_validate_shipped_default_config(capsys):
    assert main(["validate", "--config", DEFAULT_CFG]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_validate_rejects_zero_sigma_t(capsys):
    code = main(["validate", "--config", DEFAULT_CFG, "--set", "engine.sigma_t=0"])
    assert code == 1
    assert "sigma_t" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["0", "-5", "nan", "inf"])
def test_validate_rejects_magnification_that_is_not_finite_positive(value,
                                                                    capsys):
    # a zero magnification gives every search-camera box zero area, so the
    # search camera never detects anything
    code = main(["validate", "--config", DEFAULT_CFG,
                 "--set", f"engine.magnification={value}"])
    assert code == 1
    assert "magnification" in capsys.readouterr().out


def test_validate_rejects_overlapping_regions(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("scene {\n region {\n label = a\n rect = 0 0 800 1200\n }\n"
                   " region {\n label = b\n rect = 700 0 700 1200\n }\n}\n")
    assert main(["validate", "--config", str(bad)]) == 1
    assert "overlap" in capsys.readouterr().out


def test_validate_rejects_target_without_admissible_region(capsys):
    code = main(["validate", "--config", DEFAULT_CFG,
                 "--set", "scene.priors.car|road=0",
                 "--set", "scene.priors.car|field=0"])
    assert code == 1
    assert "no admissible region for target 'car'" in capsys.readouterr().out


def test_trial_writes_csv_and_echoes_config(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["trial", "--seed", "7", "--budget", "60", "--out", str(out)])
    assert code == 0
    text = (out / "trial.csv").read_text()
    header, row = text.strip().splitlines()
    assert header == ("method,seed,budget,recall,ap,found,objects,views,"
                      "elapsed_sim_ms,vacuous")
    assert row.startswith("ppm_ps,7,60,")
    console = capsys.readouterr().out
    assert int(console.split("wall_views_per_s=")[1]) > 0
    # the echoed config is itself a loadable scenario
    rebuilt, errors = build_scenario(parse_text((out / "effective.cfg").read_text()))
    assert errors == []


@pytest.mark.parametrize("dump", [[], ["--dump"]])
def test_trial_budget_zero_runs_no_views(tmp_path, capsys, dump):
    out = tmp_path / "run"
    assert main(["trial", "--seed", "4", "--budget", "0", "--out", str(out)]
                + dump) == 0
    header, row = (out / "trial.csv").read_text().strip().splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert fields["budget"] == "0"
    assert fields["views"] == "0"
    assert capsys.readouterr().out.strip().endswith("wall_views_per_s=0")


def test_trial_rerun_is_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["trial", "--seed", "3", "--budget", "80", "--out", str(out_a)])
    main(["trial", "--seed", "3", "--budget", "80", "--out", str(out_b)])
    assert (out_a / "trial.csv").read_bytes() == (out_b / "trial.csv").read_bytes()


def test_trial_dump_writes_grid_map_and_logs(tmp_path):
    out = tmp_path / "run"
    main(["trial", "--seed", "1", "--budget", "40", "--dump", "--out", str(out)])
    grid = (out / "scene_grid.txt").read_text().splitlines()
    assert grid[0] == "1440 1200"
    assert len(grid) == 1201
    assert (out / "ppm.csv").read_text().startswith("kind,region_id,label")
    scan = (out / "scan_log.csv").read_text().strip().splitlines()
    assert scan[0] == "seq,theta_h,theta_v,elapsed_ms,n_visible"
    assert len(scan) == 1 + 40  # one row per budgeted view
    particles = (out / "particles.csv").read_text().strip().splitlines()
    assert particles[0] == "stage,theta_h,theta_v,weight,sigma"
    assert len(particles) == 1 + 40
    dets = (out / "detections.csv").read_text().strip().splitlines()
    assert dets[0] == "stage,particle,theta_h,theta_v,p,var_h,var_v"
    windows = (out / "windows.csv").read_text().strip().splitlines()
    assert windows[0] == "stage,window,center_h,center_v,radius_h,radius_v,n_members"


def _csv_rows(path):
    header, *rows = path.read_text().strip().splitlines()
    return [dict(zip(header.split(","), row.split(","))) for row in rows]


def test_trial_dump_ppm_is_the_first_pass_allocation(tmp_path):
    out = tmp_path / "run"
    assert main(["trial", "--seed", "5", "--budget", "400", "--dump",
                 "--set", "engine.iterations=3", "--out", str(out)]) == 0
    particles = _csv_rows(out / "particles.csv")
    first_pass = sum(row["stage"] == "1" for row in particles)
    assert first_pass == 340  # 85% of the budget up front, then two passes
    regions = [r for r in _csv_rows(out / "ppm.csv") if r["kind"] == "region"]
    assert sum(int(r["x_r"]) for r in regions) == first_pass
    subs = [r for r in _csv_rows(out / "ppm.csv") if r["kind"] == "subregion"]
    assert sum(int(r["x_rm"]) for r in regions) + sum(
        int(r["x_ro"]) for r in subs) == first_pass


def test_trial_dump_files_share_pass_numbers(tmp_path):
    out = tmp_path / "run"
    assert main(["trial", "--seed", "5", "--budget", "400", "--dump",
                 "--set", "engine.iterations=3", "--out", str(out)]) == 0
    stages = {name: {row["stage"] for row in _csv_rows(out / name)}
              for name in ("particles.csv", "detections.csv", "windows.csv")}
    assert stages == {name: {"1", "2", "3"} for name in stages}


def test_study_config_errors_print_one_per_line(capsys):
    assert main(["curve", "--config", DEFAULT_CFG, "--set", "engine.sigma_t=0",
                 "--set", "engine.alpha=0"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2
    assert all(line.startswith("error: engine: ") for line in lines)


@pytest.mark.parametrize("method", ["mpf", "uniform"])
def test_trial_dump_without_a_map_writes_no_ppm(tmp_path, method):
    out = tmp_path / "run"
    assert main(["trial", "--seed", "1", "--budget", "40", "--dump",
                 "--out", str(out)]) == 0
    assert (out / "ppm.csv").exists()
    # a later map-less trial in the same directory drops the stale map
    assert main(["trial", "--seed", "1", "--budget", "40", "--dump",
                 "--method", method, "--out", str(out)]) == 0
    assert not (out / "ppm.csv").exists()
    assert len(_csv_rows(out / "particles.csv")) == 40


def test_particle_writer_format(tmp_path):
    path = tmp_path / "particles.csv"
    write_particles_csv(str(path), [(0, 1.25, -0.5, 0.0025, 1.0),
                                    (2, -19.9999999, 3.0, 1.0 / 3.0, 0.05)])
    assert path.read_text() == (
        "stage,theta_h,theta_v,weight,sigma\n"
        "0,1.250000,-0.500000,2.500000000e-03,1.000000\n"
        "2,-20.000000,3.000000,3.333333333e-01,0.050000\n")


def test_out_dir_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("PANOSEARCH_OUT", str(tmp_path / "envout"))
    main(["trial", "--seed", "2", "--budget", "40"])
    assert (tmp_path / "envout" / "trial.csv").exists()


def _tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(
        "experiment {\n"
        "    methods = ppm_ps mpf\n"
        "    budgets = 40 80\n"
        "    seeds = 2\n"
        "    scenes = 2\n"
        "    proportions = 0.3 0.5\n"
        "    sweep_budget = 40\n"
        "    sweep_seeds = 2\n"
        "    ablation_budget = 40\n"
        "    ablation_seeds = 2\n"
        "    deviation_budget = 60\n"
        "    deviation_seeds = 2\n"
        "}\n")
    return str(path)


def test_curve_csv_shape(tmp_path):
    out = tmp_path / "out"
    code = main(["curve", "--config", _tiny_cfg(tmp_path), "--out", str(out)])
    assert code == 0
    lines = (out / "recall_curve.csv").read_text().strip().splitlines()
    assert lines[0] == "method,budget,n_trials,mean_recall,std_recall,mean_ap"
    assert len(lines) == 1 + 2 * 2  # methods x budgets


def test_sweep_ablation_deviation_outputs(tmp_path):
    cfg = _tiny_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    assert main(["ablation", "--config", cfg, "--out", str(out)]) == 0
    assert main(["deviation", "--config", cfg, "--out", str(out)]) == 0
    sweep = (out / "proportion_sweep.csv").read_text().strip().splitlines()
    assert sweep[0] == "proportion,method,n_trials,mean_recall,std_recall"
    assert len(sweep) == 1 + 2 * 2  # proportions x methods
    ablation = (out / "ablation.csv").read_text().strip().splitlines()
    assert ablation[0] == "preset,ppm,n_trials,mean_recall,mean_ap,views_per_sim_s"
    assert len(ablation) == 1 + 3 * 2  # presets x {with, without}
    deviation = (out / "deviation.csv").read_text().strip().splitlines()
    assert deviation[0] == ("target,moving,voting,n_seeds,found_rate,"
                            "mean_abs_dx_px,mean_abs_dy_px,mean_pre_var,"
                            "mean_post_var")
    assert len(deviation) == 1 + 9 * 2  # targets x {on, off}


def test_jobs_flag_gives_same_results(tmp_path):
    cfg = _tiny_cfg(tmp_path)
    out_a, out_b = tmp_path / "j1", tmp_path / "j2"
    main(["curve", "--config", cfg, "--out", str(out_a)])
    main(["curve", "--config", cfg, "--jobs", "2", "--out", str(out_b)])
    assert (out_a / "recall_curve.csv").read_bytes() == \
        (out_b / "recall_curve.csv").read_bytes()
