import os
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panosearch.cli import PARTICLE_COLUMNS, STUDIES, _rows_to_csv, main
from panosearch.config import (METHODS, ConfigError, RegionSpec, apply_overrides,
                               build_scenario, check_scenario, default_scenario,
                               load_scenario, parse_text, serialize_scenario)

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


def test_radius_mode_is_an_unknown_key():
    # window radii are always variances; the key that chose stddevs is gone
    _, errors = build_scenario(parse_text("engine {\n radius_mode = harmonic\n}"))
    assert errors == ["engine (line 2): unknown key 'radius_mode'"]


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


# --- one schema: blocks declared on the dataclasses ----------------------------

DATA = os.path.join(REPO_ROOT, "tests", "data")


@pytest.mark.parametrize("path", ["scene", "noise", "detector", "engine",
                                  "experiment", "scene.priors"])
def test_second_copy_of_a_single_block_is_reported_with_its_line(path):
    *outer, name = path.split(".")
    text = ("".join(f"{o} {{\n" for o in outer)
            + f"{name} {{\n}}\n{name} {{\n bogus = 1\n}}\n" + "}\n" * len(outer))
    _, errors = build_scenario(parse_text(text))
    line = 3 + len(outer)
    assert errors[0] == f"{path} (line {line}): may appear only once"
    # the second copy is still read, so its own problems show too
    assert len(errors) == 2 and f"(line {line + 1})" in errors[1]


def test_second_scene_block_with_a_bad_width_fails_validate(tmp_path, capsys):
    cfg = tmp_path / "two_scenes.cfg"
    cfg.write_text("scene {\n}\nscene {\n width = -4\n}\n")
    assert main(["validate", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[:2] == ["error: scene (line 3): may appear only once",
                       "error: scene: width must be >= 1, got -4"]


def test_echo_of_every_kind_of_block_is_unchanged():
    # recorded before the blocks were declared on the dataclasses
    cfg = load_scenario(os.path.join(DATA, "every_block.cfg"))
    with open(os.path.join(DATA, "every_block_echo.cfg"), encoding="utf-8") as fh:
        assert serialize_scenario(cfg) == fh.read()


# recorded, in this order, before the blocks were declared on the dataclasses;
# the domain lines now follow field order, so scene.objects comes before noise
MANY_ERRORS = """\
top level (line 2): unknown key 'bogus_top'
top level (line 3): unknown block 'weird'
scene.width (line 7): cannot parse 'abc' as int
scene (line 9): unknown key 'flurb'
scene (line 39): unknown block 'inner'
scene.region (line 14): needs 'label' and 'rect'
scene.objects.size (line 27): cannot parse '1' as tuple[float, float]
scene.objects (line 28): unknown block 'sub'
scene.priors (line 36): key must be 'class|label'
scene.priors.car|b (line 37): cannot parse 'x' as float
engine (line 52): unknown key 'radius_mode'
engine.view_w (line 53): cannot parse '1.5' as int
preset (line 60): needs 'name'
noise: label_flip must be finite, got nan
detector: fp_rate must be in [0, 10], got 11.0
experiment: methods must be one of ppm_ps, ppm_only, rpm, mpf, uniform, got 'warp'
experiment: proportions must be in (0, 1], got 1.5
scene.objects[0]: count must be >= 0, got -3
scene.objects[1]: occlusion must be in [0, 1], got 2.0
preset[0]: base_recall must be in [0, 1], got 2.0
scene.region[1] (c): overlaps an earlier region
scene.region[2] (d): zero-area rect
scene.priors car|a: 1.5 outside [0, 1]
experiment: no admissible region for target 'boat': every area x prior product is zero
noise: need sigma_min <= sigma_max
engine: need sigma_min_deg <= sigma_max_deg
""".splitlines()


def test_many_errors_print_the_recorded_lines(capsys):
    assert main(["validate", "--config", os.path.join(DATA, "many_errors.cfg")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert sorted(err) == sorted(f"error: {line}" for line in MANY_ERRORS)


# --- semantic validation -------------------------------------------------------

def test_sigma_t_zero_is_an_error():
    cfg = default_scenario()
    cfg.engine.sigma_t = 0.0
    errors = check_scenario(cfg)
    assert any("sigma_t must be >= 1e-6, got 0.0" in e for e in errors)


def test_bad_proportion_and_method_reported():
    cfg = default_scenario()
    cfg.experiment.methods = ["warp"]
    cfg.experiment.proportions = [1.5]
    errors = check_scenario(cfg)
    assert any("warp" in e for e in errors)
    assert any("1.5" in e for e in errors)


def reference_region_errors(scene):
    """The geometry lines of check_scenario as it tested every earlier
    rectangle pair for overlap."""
    errors, placed = [], []
    for i, r in enumerate(scene.regions):
        x, y, w, h = r.rect
        if w <= 0 or h <= 0:
            errors.append(f"scene.region[{i}] ({r.label}): zero-area rect")
            continue
        if x < 0 or y < 0 or x + w > scene.width or y + h > scene.height:
            errors.append(f"scene.region[{i}] ({r.label}): rect outside the panorama")
            continue
        if any(x < px + pw and px < x + w and y < py + ph and py < y + h
               for px, py, pw, ph in placed):
            errors.append(f"scene.region[{i}] ({r.label}): overlaps an earlier region")
        placed.append(r.rect)
    return errors


@given(rects=st.lists(st.tuples(st.integers(-2, 10), st.integers(-2, 10),
                                st.integers(-1, 6), st.integers(-1, 6)), max_size=10),
       width=st.integers(-4, 10), height=st.integers(-4, 10))
@settings(max_examples=300, deadline=None)
def test_region_errors_match_the_pairwise_overlap_test(rects, width, height):
    cfg = default_scenario()
    cfg.scene.width, cfg.scene.height = width, height
    cfg.scene.regions = [RegionSpec(f"r{i}", rect) for i, rect in enumerate(rects)]
    got = [e for e in check_scenario(cfg) if e.startswith("scene.region[")
           and e.endswith(("zero-area rect", "panorama", "earlier region"))]
    assert got == reference_region_errors(cfg.scene)


def test_overlap_check_is_linear_in_the_region_count():
    cfg = default_scenario()
    cfg.scene.groups = []  # the default groups pin to road, which is gone
    cfg.scene.regions = [RegionSpec(f"r{i}", (i % 1440, i // 1440, 1, 1))
                         for i in range(20000)]
    start = time.perf_counter()
    errors = check_scenario(cfg)
    assert time.perf_counter() - start < 3.0  # pairwise tests took 10 s and more
    assert errors == []


# --- CLI ------------------------------------------------------------------------

def test_validate_shipped_default_config(capsys):
    assert main(["validate", "--config", DEFAULT_CFG]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_validate_rejects_zero_sigma_t(capsys):
    code = main(["validate", "--config", DEFAULT_CFG, "--set", "engine.sigma_t=0"])
    assert code == 1
    assert "sigma_t" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-5", "nan", "inf"])
def test_validate_rejects_magnification_that_is_not_finite_positive(value,
                                                                    capsys):
    # search-camera sizes always follow the optics, so any value of the key
    # is an unknown key
    code = main(["validate", "--config", DEFAULT_CFG,
                 "--set", f"engine.magnification={value}"])
    assert code == 1
    assert "unknown key 'magnification'" in capsys.readouterr().err


def test_validate_rejects_overlapping_regions(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("scene {\n region {\n label = a\n rect = 0 0 800 1200\n }\n"
                   " region {\n label = b\n rect = 700 0 700 1200\n }\n}\n")
    assert main(["validate", "--config", str(bad)]) == 1
    assert "overlap" in capsys.readouterr().err


def test_validate_rejects_target_without_admissible_region(capsys):
    code = main(["validate", "--config", DEFAULT_CFG,
                 "--set", "scene.priors.car|road=0",
                 "--set", "scene.priors.car|field=0"])
    assert code == 1
    assert "no admissible region for target 'car'" in capsys.readouterr().err


def test_validate_errors_go_to_stderr_only(capsys):
    # as for every other subcommand: stdout carries results, never errors
    code = main(["validate", "--config", DEFAULT_CFG, "--set", "engine.sigma_t=0",
                 "--set", "engine.alpha=0"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 2 and all(line.startswith("error: ") for line in err)


def test_override_errors_name_the_override(tmp_path, capsys):
    # a --set entry has no line in any file: its errors cite the override,
    # while the file's entries keep their line numbers
    path = tmp_path / "engine.cfg"
    path.write_text("engine {\n nope = 1\n}\n")
    code = main(["validate", "--config", str(path), "--set", "bogus.x=1",
                 "--set", "engine.nope2=2", "--set", "engine.sigma_t=abc"])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: top level (--set bogus.x=1): unknown block 'bogus'",
        "error: engine (line 2): unknown key 'nope'",
        "error: engine (--set engine.nope2=2): unknown key 'nope2'",
        "error: engine.sigma_t (--set engine.sigma_t=abc): "
        "cannot parse 'abc' as float",
    ]


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


def test_trial_dump_scan_clock_counts_views(tmp_path):
    # every view costs one step response plus one dwell, across all passes
    out = tmp_path / "run"
    assert main(["trial", "--seed", "2", "--budget", "60", "--dump",
                 "--set", "engine.step_response_ms=0.1",
                 "--set", "engine.dwell_ms=0.3",
                 "--set", "engine.iterations=4", "--out", str(out)]) == 0
    scan = _csv_rows(out / "scan_log.csv")
    assert [(row["seq"], row["elapsed_ms"]) for row in scan] == [
        (str(seq), f"{(seq + 1) * 0.4:.4f}") for seq in range(60)]
    (trial,) = _csv_rows(out / "trial.csv")
    assert scan[-1]["elapsed_ms"] == trial["elapsed_sim_ms"]


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


def test_trial_dump_writes_every_file_atomically(tmp_path, monkeypatch):
    replaced = []
    real_replace = os.replace

    def recording_replace(src, dst, *args, **kwargs):
        replaced.append(os.path.basename(dst))
        return real_replace(src, dst, *args, **kwargs)

    monkeypatch.setattr(os, "replace", recording_replace)
    out = tmp_path / "run"
    assert main(["trial", "--seed", "5", "--budget", "60", "--dump",
                 "--set", "engine.iterations=3", "--out", str(out)]) == 0
    assert sorted(replaced) == sorted([
        "trial.csv", "effective.cfg", "scene_grid.txt", "ppm.csv",
        "scan_log.csv", "particles.csv", "detections.csv", "windows.csv"])
    assert sorted(os.listdir(out)) == sorted(replaced)  # no temp file left


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


def test_particle_writer_format():
    rows = [(0, 1.25, -0.5, 0.0025, 1.0), (2, -19.9999999, 3.0, 1.0 / 3.0, 0.05)]
    assert _rows_to_csv(rows, PARTICLE_COLUMNS) == (
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


@pytest.mark.parametrize("command", list(STUDIES))
def test_jobs_flag_gives_same_results(tmp_path, command):
    cfg = _tiny_cfg(tmp_path)
    out_a, out_b = tmp_path / "j1", tmp_path / "j2"
    assert main([command, "--config", cfg, "--out", str(out_a)]) == 0
    assert main([command, "--config", cfg, "--jobs", "2", "--out", str(out_b)]) == 0
    csv = STUDIES[command].csv
    assert (out_a / csv).read_bytes() == (out_b / csv).read_bytes()


def test_repeated_config_entries_give_one_row_each(tmp_path):
    path = tmp_path / "repeat.cfg"
    path.write_text(
        "experiment {\n"
        "    methods = ppm_ps mpf\n"
        "    budgets = 40 40\n"
        "    seeds = 2\n"
        "    scenes = 1\n"
        "    proportions = 0.3 0.3\n"
        "    sweep_budget = 40\n"
        "    sweep_seeds = 2\n"
        "    ablation_budget = 40\n"
        "    ablation_seeds = 2\n"
        "}\n"
        "preset {\n    name = p\n    base_recall = 0.9\n}\n"
        "preset {\n    name = p\n    base_recall = 0.2\n}\n")
    out = tmp_path / "out"
    for command in ("curve", "sweep", "ablation"):
        assert main([command, "--config", str(path), "--out", str(out)]) == 0
    curve = _csv_rows(out / "recall_curve.csv")
    assert [(r["method"], r["budget"], r["n_trials"]) for r in curve] == [
        ("ppm_ps", "40", "2"), ("ppm_ps", "40", "2"),
        ("mpf", "40", "2"), ("mpf", "40", "2")]
    assert curve[0] == curve[1] and curve[2] == curve[3]
    sweep = _csv_rows(out / "proportion_sweep.csv")
    assert [(r["proportion"], r["method"], r["n_trials"]) for r in sweep] == [
        ("0.30", "ppm_ps", "2"), ("0.30", "mpf", "2"),
        ("0.30", "ppm_ps", "2"), ("0.30", "mpf", "2")]
    assert sweep[:2] == sweep[2:]
    ablation = _csv_rows(out / "ablation.csv")
    assert [(r["preset"], r["ppm"], r["n_trials"]) for r in ablation] == [
        ("p", "with", "2"), ("p", "without", "2"),
        ("p", "with", "2"), ("p", "without", "2")]
    assert ablation[:2] != ablation[2:]  # each preset runs its own detector


# --- values the loader rejects, at every entry point --------------------------

REJECTED_OVERRIDES = [
    ["noise.size_ref_px=0"], ["detector.size_ref_px=0"],
    ["engine.subregion_scale=inf"], ["detector.fp_rate=inf"],
    ["detector.fp_rate=1e9"], ["engine.alpha=inf"], ["engine.sigma_t=nan"],
    ["engine.overlap_frac=-2"], ["engine.sigma0_deg=nan"],
    ["engine.sigma0_deg=-1"], ["engine.galvo_limit_deg=inf"],
    ["engine.likelihood_floor=inf"], ["engine.dwell_ms=inf"],
    ["engine.sigma_max_deg=inf"], ["detector.loc_noise_px=-3"],
    ["detector.conf_noise=-1"], ["detector.fp_conf_cap=5"],
    ["scene.span_deg=inf"],
    # nonzero floats outside magnitudes [1e-12, 1e12]: a zero division or
    # an overflow in the trial arithmetic
    ["scene.span_deg=5e-324"], ["scene.span_deg=1e-300"], ["engine.alpha=5e-324"],
    # a removed key: search-camera sizes always follow the optics
    ["engine.magnification=1e200"],
    # magnitudes the arithmetic cannot carry: an overflowing prior variance
    # and vote weights that all underflow to zero
    ["engine.subregion_scale=1e200"], ["engine.sigma_t=1e-100"],
    ["scene.priors.car|road=0", "scene.priors.car|field=0"],
]


def _set_args(overrides):
    return [arg for item in overrides for arg in ("--set", item)]


@pytest.mark.parametrize("overrides", REJECTED_OVERRIDES,
                         ids=[" ".join(o) for o in REJECTED_OVERRIDES])
def test_out_of_domain_values_fail_validate_and_trial(overrides, tmp_path,
                                                      capsys):
    assert main(["validate", "--config", DEFAULT_CFG]
                + _set_args(overrides)) == 1
    err = capsys.readouterr().err.splitlines()
    assert err and all(line.startswith("error: ") for line in err)
    assert main(["trial", "--config", DEFAULT_CFG, "--budget", "20",
                 "--out", str(tmp_path)] + _set_args(overrides)) == 1
    err = capsys.readouterr().err.splitlines()
    assert err and all(line.startswith("error: ") for line in err)


@pytest.mark.parametrize("block,error", [
    ("preset {\n name = p\n base_recall = 5\n}\n",
     "error: preset[0]: base_recall must be in [0, 1], got 5.0"),
    ("scene {\n objects {\n speed = inf\n }\n}\n",
     "error: scene.objects[0]: speed must be finite, got inf")])
def test_out_of_domain_repeated_block_values_fail(block, error, tmp_path,
                                                  capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(block)
    assert main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [error]


def test_unknown_keys_reported_in_repeated_blocks(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("scene {\n region {\n label = a\n rect = 0 0 10 10\n"
                    " colour = red\n }\n}\npreset {\n name = p\n speed = 3\n}\n")
    assert main(["validate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "unknown key 'colour'" in err
    assert "unknown key 'speed'" in err


@pytest.mark.parametrize("command", ["trial", "curve", "sweep", "ablation",
                                     "deviation"])
def test_no_admissible_region_is_a_config_error(command, tmp_path, capsys):
    code = main([command, "--out", str(tmp_path),
                 "--set", "scene.priors.car|road=0"])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: experiment: no admissible region for target 'car': "
        "every area x prior product is zero"]


# the field alone can hold a car; at proportion 1.0 the sweep's region covers
# the whole panorama with a prior of 0, so objects and map fall back to area
FIELD_ONLY_PRIOR = """\
scene {
    priors {
        car|field = 0.5
    }
}
experiment {
    methods = ppm_ps mpf
    proportions = 0.5 1.0
    sweep_budget = 40
    sweep_seeds = 2
}
"""

# every pixel flips, so the noisy segmentation can leave region a, the only
# one with a prior, without a pixel
THREE_PIXELS_NOISY = """\
scene {
    width = 3
    height = 1
    background = c
    region {
        label = a
        rect = 0 0 1 1
    }
    region {
        label = b
        rect = 1 0 1 1
    }
    objects {
        class = car
        count = 1
        size = 1 1
        region = a
    }
    priors {
        car|a = 0.7
    }
}
noise {
    label_flip = 1.0
}
"""


def test_sweep_runs_where_the_target_region_covers_the_panorama(tmp_path):
    path = tmp_path / "field.cfg"
    path.write_text(FIELD_ONLY_PRIOR)
    out = tmp_path / "out"
    assert main(["validate", "--config", str(path)]) == 0
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
    rows = (out / "proportion_sweep.csv").read_text().strip().splitlines()
    assert [row.split(",")[:2] for row in rows[1:]] == [
        ["0.50", "ppm_ps"], ["0.50", "mpf"], ["1.00", "ppm_ps"], ["1.00", "mpf"]]


@pytest.mark.parametrize("method", ["ppm_ps", "ppm_only", "rpm"])
def test_trial_runs_when_noise_empties_the_target_region(method, tmp_path):
    path = tmp_path / "three.cfg"
    path.write_text(THREE_PIXELS_NOISY)
    for seed in range(10):
        assert main(["trial", "--config", str(path), "--method", method,
                     "--seed", str(seed), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("size", [
    ["scene.width=100000000000000"],
    ["scene.width=100000000000000000000000"],
    ["scene.width=200000", "scene.height=200000"]])
def test_huge_panorama_is_one_error_line(size, capsys):
    # checked before check_scenario stamps its one-byte overlap mask
    assert main(["validate"] + _set_args(size)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: scene: width x height must be <= 268435456")


@pytest.mark.parametrize("height", ["0", "-4"])
def test_huge_width_without_height_is_error_lines(height, capsys):
    # no pixels, so no size error, but numpy cannot make even an empty mask
    # with a side of 10^23
    assert main(["validate", "--set", "scene.width=100000000000000000000000",
                 "--set", f"scene.height={height}"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0] == f"error: scene: height must be >= 1, got {height}"
    assert all(line.startswith("error: ") for line in err)
    assert not any("width x height" in line for line in err)


def test_validate_lists_domain_layout_and_pin_errors_at_once(tmp_path, capsys):
    path = tmp_path / "three.cfg"
    path.write_text("scene {\n    region {\n        label = road\n"
                    "        rect = 0 0 0 10\n    }\n    objects {\n"
                    "        count = 1\n        region = street\n    }\n}\n")
    assert main(["validate", "--config", str(path),
                 "--set", "engine.alpha=0"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: engine: alpha must be in (0, 360], got 0.0",
        "error: scene.region[0] (road): zero-area rect",
        "error: scene.objects[0]: pinned to unknown region 'street'"]


def test_region_count_past_int16_is_a_check_error():
    cfg = default_scenario()
    cfg.scene.width = cfg.scene.height = 256
    cfg.scene.groups = []
    cfg.scene.regions = [RegionSpec(f"r{k}", (k % 256, k // 256, 1, 1))
                         for k in range(32_768)]
    assert check_scenario(cfg) == [
        "scene: 32768 regions, the label grid holds at most 32767"]


@pytest.mark.parametrize("width", [1, 2])
def test_every_study_runs_on_a_one_pixel_road(width, tmp_path):
    # the curve study's variant rectangle rounds to less than a pixel here
    path = tmp_path / "pixel.cfg"
    with open(_tiny_cfg(tmp_path), encoding="utf-8") as fh:
        path.write_text(f"scene {{\n    width = {width}\n    height = 1\n"
                        "    region {\n        label = road\n        rect = 0 0 1 1\n"
                        "    }\n    objects {\n        class = car\n        count = 1\n"
                        "        size = 1 1\n        region = road\n    }\n"
                        "    priors {\n        car|road = 0.7\n    }\n}\n" + fh.read())
    assert main(["validate", "--config", str(path)]) == 0
    for command in STUDIES:
        assert main([command, "--config", str(path),
                     "--out", str(tmp_path / command)]) == 0


def test_every_study_runs_when_a_variant_would_cover_a_pinned_background(tmp_path):
    # a curve variant stretched over this 1x5 panorama would leave the
    # default group pinned to the background no pixel
    path = os.path.join(DATA, "pin_cover.cfg")
    assert main(["validate", "--config", path]) == 0
    for command in STUDIES:
        assert main([command, "--config", path,
                     "--out", str(tmp_path / command)]) == 0


def test_readme_config_example_loads(tmp_path):
    with open(os.path.join(REPO_ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    section = readme[readme.index("## Config format"):]
    start = section.index("```\n") + len("```\n")
    path = tmp_path / "example.cfg"
    path.write_text(section[start:section.index("```", start)])
    cfg = load_scenario(str(path))
    assert cfg.noise.center_std_px == 2.0
    assert cfg.engine.n_particles == 400
    assert [r.label for r in cfg.scene.regions] == ["road"]


def test_scene_override_keeps_the_default_scene(tmp_path, capsys):
    default = load_scenario(None)
    assert load_scenario(None, ["scene.width=1440"]) == default
    assert load_scenario(_tiny_cfg(tmp_path), ["scene.height=1200"]).scene \
        == default.scene
    assert main(["validate", "--set", "scene.width=1440"]) == 0
    assert main(["validate", "--config", _tiny_cfg(tmp_path),
                 "--set", "scene.span_deg=40"]) == 0
    assert capsys.readouterr().out.splitlines() == ["ok", "ok"]


@pytest.mark.parametrize("argv", [["curve", "--seed", "5"],
                                  ["trial", "--jobs", "4"]])
def test_flags_a_subcommand_does_not_use_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("override", [
    "scene.objects.count=3", "scene.objects.region=field",
    "scene.region.label=x", "preset.name=x", "preset.base_recall=0.5"])
def test_overrides_through_repeated_blocks_rejected(override, capsys):
    with pytest.raises(ConfigError, match="repeated block"):
        load_scenario(DEFAULT_CFG, [override])
    with pytest.raises(ConfigError, match="repeated block"):
        load_scenario(None, [override])
    assert main(["validate", "--set", override]) == 1
    assert "repeated block" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["trial", "--seed", "-1"], ["trial", "--budget", "-5"],
    ["trial", "--seed", "1.5"], ["curve", "--jobs", "0"],
    ["ablation", "--jobs", "-3"]])
def test_out_of_domain_numeric_flags_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {argv[1]}" in capsys.readouterr().err


SLIVER_CFG = """scene {
    region {
        label = road
        rect = 0 0 1440 1197
    }
    objects {
        class = car
        count = 3
        size = 48 28
        region = field
    }
    priors {
        car|road = 0.001
        car|field = 0.9
    }
}
"""


@pytest.mark.parametrize("method", sorted(METHODS))
def test_every_method_runs_on_a_three_row_background(tmp_path, method, capsys):
    # the background's box is the whole panorama, so rejection rounds alone
    # used to miss its 3 rows: cars could not be placed at some world seeds,
    # and the map's 277 background particles starved
    path = tmp_path / "sliver.cfg"
    path.write_text(SLIVER_CFG)
    assert main(["validate", "--config", str(path)]) == 0
    for seed in range(10):
        assert main(["trial", "--config", str(path), "--method", method,
                     "--seed", str(seed), "--out", str(tmp_path / "out")]) == 0
