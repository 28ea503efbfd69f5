"""Typed scenario configuration, plain-text config files, and validation.

Config files are line-oriented plain text with nested brace blocks:

    scene {
        width = 1440
        region {
            label = road
            rect = 240 420 960 360
        }
    }

One entry per line.  ``key = value`` assigns; ``name {`` opens a nested
block and ``}`` closes it; ``#`` starts a comment.  Repeated blocks
(``region``, ``objects``, ``preset``) accumulate in declaration order.
Values are whitespace-separated tokens parsed by the typed builders below.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field


class ConfigError(ValueError):
    """Invalid scenario configuration: bad value, bad geometry, or parse error."""


# ---------------------------------------------------------------------------
# Typed configuration blocks.  Defaults are the published hardware constants:
# 1440x1200 panorama over a 40 degree span, 264x224 search view, mirror range
# +/-20 degrees with 0.25 ms step response, transform coefficient 0.002,
# sub-region scale 50, overlap temperature 0.025.
# ---------------------------------------------------------------------------

@dataclass
class RegionSpec:
    label: str
    rect: tuple[int, int, int, int]  # x, y, w, h in panoramic px


@dataclass
class ObjectGroupSpec:
    class_name: str = "car"
    count: int = 0
    size: tuple[float, float] = (48.0, 28.0)  # (w, h) panoramic px
    speed: float = 0.0                        # px per motion step
    occlusion: float = 0.0
    region_label: str | None = None           # pin placement to this region


@dataclass
class SceneConfig:
    width: int = 1440
    height: int = 1200
    span_deg: float = 40.0          # full panorama width maps onto this span
    background_label: str = "field"
    regions: list[RegionSpec] = field(default_factory=list)
    groups: list[ObjectGroupSpec] = field(default_factory=list)
    # class priors: target class -> region label -> probability of the class
    # given the region
    class_priors: dict[str, dict[str, float]] = field(default_factory=dict)
    pano_detect_threshold: float = 60.0  # px; larger objects are visible at panorama scale

    @property
    def deg_per_px(self) -> float:
        return self.span_deg / self.width

    def prior(self, target: str, label: str) -> float:
        return float(self.class_priors.get(target, {}).get(label, 0.0))


@dataclass
class SegNoiseConfig:
    """Noise model of the simulated panoramic segmenter/detector."""

    label_flip: float = 0.0      # per-pixel probability of flipping the region id
    center_std_px: float = 0.0   # Gaussian noise on detected centers
    conf_std: float = 0.0        # Gaussian noise on confidences
    conf_floor: float = 0.05
    sigma_min: float = 0.02      # bounds for the derived uncertainty scalar
    sigma_max: float = 1.0
    size_ref_px: float = 120.0   # object size at which confidence saturates


@dataclass
class DetectorConfig:
    """Parametric model of the search-camera detector."""

    base_recall: float = 0.9
    conf_noise: float = 0.02
    loc_noise_px: float = 0.0      # additive center noise, view px
    loc_noise_scale: float = 1.0   # center noise proportional to reported std
    fp_rate: float = 0.01          # expected false positives per view
    fp_conf_cap: float = 0.3
    sigma_base_deg: float = 0.05   # localization std for an easy target
    k_occ: float = 4.0             # variance growth per unit occlusion
    k_ctr: float = 1.0             # variance growth toward the view border
    size_ref_px: float = 40.0      # apparent size at which detection saturates
    center_falloff: float = 0.2    # detection probability drop toward the border


@dataclass
class EngineConfig:
    n_particles: int = 400
    iterations: int = 1
    init_frac: float = 0.85        # share of the budget spent on the first pass
    likelihood_floor: float = 1e-3
    sigma0_deg: float = 1.0
    sigma_min_deg: float = 0.05
    sigma_max_deg: float = 3.0
    iou_keep: float = 0.5
    sigma_t: float = 0.025         # overlap-probability temperature
    subregion_scale: float = 50.0  # px of sub-region radius per unit uncertainty
    alpha: float = 0.002           # degrees per view pixel
    view_w: int = 264
    view_h: int = 224
    galvo_limit_deg: float = 20.0
    step_response_ms: float = 0.25
    dwell_ms: float = 2.0
    overlap_frac: float = 0.5      # particle pruning distance in view-FOV units
    radius_mode: str = "harmonic"  # harmonic | stddev
    magnification: float | None = None  # None: derived from panorama scale / alpha

    @property
    def fov_deg(self) -> float:
        return min(self.view_w, self.view_h) * self.alpha


@dataclass
class DetectorPreset:
    name: str
    base_recall: float
    sigma_base_deg: float


@dataclass
class ExperimentConfig:
    methods: list[str] = field(default_factory=lambda: ["ppm_ps", "rpm", "mpf"])
    budgets: list[int] = field(default_factory=lambda: [100, 200, 300, 400, 500, 600, 700, 800])
    seeds: int = 20
    scenes: int = 5
    proportions: list[float] = field(default_factory=lambda: [0.27, 0.35, 0.41, 0.49, 0.63])
    target: str = "car"
    sweep_budget: int = 300
    sweep_seeds: int = 100
    ablation_budget: int = 400
    ablation_seeds: int = 20
    deviation_budget: int = 600
    deviation_seeds: int = 20


@dataclass
class ScenarioConfig:
    scene: SceneConfig = field(default_factory=SceneConfig)
    noise: SegNoiseConfig = field(default_factory=SegNoiseConfig)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    engine: EngineConfig = field(default_factory=EngineConfig)
    experiment: ExperimentConfig = field(default_factory=ExperimentConfig)
    presets: list[DetectorPreset] = field(default_factory=list)
    out_dir: str | None = None


def default_scenario() -> ScenarioConfig:
    """Shipped defaults: the 9-object desk scene with one high-prior region."""
    scene = SceneConfig(
        regions=[RegionSpec(label="road", rect=(240, 420, 960, 360))],
        groups=[
            ObjectGroupSpec(class_name="car", count=2, size=(120.0, 60.0),
                            speed=2.0, region_label="road"),
            ObjectGroupSpec(class_name="car", count=1, size=(70.0, 40.0),
                            speed=2.0, region_label="field"),
            ObjectGroupSpec(class_name="car", count=6, size=(48.0, 28.0),
                            speed=2.0, region_label="road"),
        ],
        class_priors={"car": {"road": 0.7, "field": 0.03}},
    )
    noise = SegNoiseConfig(center_std_px=2.0, conf_std=0.02)
    presets = [
        DetectorPreset("det_fast", base_recall=0.75, sigma_base_deg=0.08),
        DetectorPreset("det_mid", base_recall=0.85, sigma_base_deg=0.065),
        DetectorPreset("det_strong", base_recall=0.92, sigma_base_deg=0.05),
    ]
    return ScenarioConfig(scene=scene, noise=noise, presets=presets)


# ---------------------------------------------------------------------------
# Plain-text parser
# ---------------------------------------------------------------------------

@dataclass
class Block:
    name: str
    line: int
    entries: list[tuple[str, str, int]] = field(default_factory=list)
    children: list["Block"] = field(default_factory=list)

    def get(self, key: str) -> str | None:
        for k, v, _ in self.entries:
            if k == key:
                return v
        return None

    def child(self, name: str) -> "Block | None":
        for c in self.children:
            if c.name == name:
                return c
        return None

    def children_named(self, name: str) -> list["Block"]:
        return [c for c in self.children if c.name == name]


def parse_text(text: str, source: str = "<config>") -> Block:
    """Parse config text into a block tree.  Raises ConfigError with line numbers."""
    root = Block(name="", line=0)
    stack = [root]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "}":
            if len(stack) == 1:
                raise ConfigError(f"{source}:{lineno}: unmatched '}}'")
            stack.pop()
        elif line.endswith("{"):
            name = line[:-1].strip()
            if not name or "=" in name:
                raise ConfigError(f"{source}:{lineno}: malformed block header {raw.strip()!r}")
            block = Block(name=name, line=lineno)
            stack[-1].children.append(block)
            stack.append(block)
        elif "=" in line:
            key, value = line.split("=", 1)
            key = key.strip()
            if not key:
                raise ConfigError(f"{source}:{lineno}: missing key before '='")
            stack[-1].entries.append((key, value.strip(), lineno))
        else:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', block, or '}}'")
    if len(stack) != 1:
        raise ConfigError(f"{source}: unclosed block {stack[-1].name!r} opened at line {stack[-1].line}")
    return root


def parse_file(path: str) -> Block:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_text(text, source=path)


def apply_overrides(root: Block, overrides: list[str]) -> None:
    """Apply ``--set section.key=value`` overrides onto a parsed tree.

    Paths address scalar keys through uniquely-named blocks; repeated blocks
    (region, objects, preset) cannot be addressed this way.
    """
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form path.key=value")
        path, value = item.split("=", 1)
        parts = [p for p in path.strip().split(".") if p]
        if not parts:
            raise ConfigError(f"override {item!r} has an empty path")
        node = root
        for name in parts[:-1]:
            nxt = node.child(name)
            if nxt is None:
                nxt = Block(name=name, line=0)
                node.children.append(nxt)
            node = nxt
        key = parts[-1]
        node.entries = [(k, v, ln) for k, v, ln in node.entries if k != key]
        node.entries.append((key, value.strip(), 0))


# ---------------------------------------------------------------------------
# Typed builders.  Each collects human-readable errors instead of stopping at
# the first problem so `validate` can list everything at once.
# ---------------------------------------------------------------------------

def _coerce(value: str, kind: str, where: str, errors: list[str]):
    try:
        if kind == "int":
            return int(value)
        if kind == "float":
            return float(value)
        if kind == "floats":
            return [float(t) for t in value.split()]
        if kind == "ints":
            return [int(t) for t in value.split()]
        if kind == "str":
            return value
        if kind == "strs":
            return value.split()
    except ValueError:
        pass
    errors.append(f"{where}: cannot parse {value!r} as {kind}")
    return None


_SCENE_KEYS = {
    "width": "int", "height": "int", "span_deg": "float",
    "background": "str", "pano_detect_threshold": "float",
}
_NOISE_KEYS = {
    "label_flip": "float", "center_std_px": "float", "conf_std": "float",
    "conf_floor": "float", "sigma_min": "float", "sigma_max": "float",
    "size_ref_px": "float",
}
_DETECTOR_KEYS = {
    "base_recall": "float", "conf_noise": "float", "loc_noise_px": "float",
    "loc_noise_scale": "float", "fp_rate": "float", "fp_conf_cap": "float",
    "sigma_base_deg": "float", "k_occ": "float", "k_ctr": "float",
    "size_ref_px": "float", "center_falloff": "float",
}
_ENGINE_KEYS = {
    "n_particles": "int", "iterations": "int", "init_frac": "float",
    "likelihood_floor": "float", "sigma0_deg": "float", "sigma_min_deg": "float",
    "sigma_max_deg": "float", "iou_keep": "float", "sigma_t": "float",
    "subregion_scale": "float", "alpha": "float", "view_w": "int",
    "view_h": "int", "galvo_limit_deg": "float", "step_response_ms": "float",
    "dwell_ms": "float", "overlap_frac": "float", "radius_mode": "str",
    "magnification": "float",
}
_EXPERIMENT_KEYS = {
    "methods": "strs", "budgets": "ints", "seeds": "int", "scenes": "int",
    "proportions": "floats", "target": "str", "sweep_budget": "int",
    "sweep_seeds": "int", "ablation_budget": "int", "ablation_seeds": "int",
    "deviation_budget": "int", "deviation_seeds": "int",
}


def _fill_simple(block: Block | None, obj, keys: dict[str, str],
                 rename: dict[str, str], section: str, errors: list[str]) -> None:
    if block is None:
        return
    for key, value, line in block.entries:
        if key not in keys:
            errors.append(f"{section} (line {line}): unknown key {key!r}")
            continue
        parsed = _coerce(value, keys[key], f"{section}.{key} (line {line})", errors)
        if parsed is not None:
            setattr(obj, rename.get(key, key), parsed)


def _build_scene(block: Block | None, errors: list[str]) -> SceneConfig:
    scene = SceneConfig()
    if block is None:
        return scene
    _fill_simple(block, scene, _SCENE_KEYS, {"background": "background_label"},
                 "scene", errors)
    scene.regions = []
    for rb in block.children_named("region"):
        label = rb.get("label")
        rect_raw = rb.get("rect")
        if label is None or rect_raw is None:
            errors.append(f"scene.region (line {rb.line}): needs 'label' and 'rect'")
            continue
        rect = _coerce(rect_raw, "ints", f"scene.region.rect (line {rb.line})", errors)
        if rect is None:
            continue
        if len(rect) != 4:
            errors.append(f"scene.region.rect (line {rb.line}): expected 4 ints, got {len(rect)}")
            continue
        scene.regions.append(RegionSpec(label=label, rect=tuple(rect)))
    scene.groups = []
    for gb in block.children_named("objects"):
        group = ObjectGroupSpec()
        for key, value, line in gb.entries:
            where = f"scene.objects.{key} (line {line})"
            if key == "class":
                group.class_name = value
            elif key == "count":
                v = _coerce(value, "int", where, errors)
                if v is not None:
                    group.count = v
            elif key == "size":
                v = _coerce(value, "floats", where, errors)
                if v is not None and len(v) == 2:
                    group.size = (v[0], v[1])
                elif v is not None:
                    errors.append(f"{where}: expected 2 floats")
            elif key == "speed":
                v = _coerce(value, "float", where, errors)
                if v is not None:
                    group.speed = v
            elif key == "occlusion":
                v = _coerce(value, "float", where, errors)
                if v is not None:
                    group.occlusion = v
            elif key == "region":
                group.region_label = value
            else:
                errors.append(f"{where}: unknown key")
        scene.groups.append(group)
    pb = block.child("priors")
    if pb is not None:
        scene.class_priors = {}
        for key, value, line in pb.entries:
            if "|" not in key:
                errors.append(f"scene.priors (line {line}): key must be 'class|label'")
                continue
            cls, label = key.split("|", 1)
            v = _coerce(value, "float", f"scene.priors.{key} (line {line})", errors)
            if v is not None:
                scene.class_priors.setdefault(cls.strip(), {})[label.strip()] = v
    return scene


def build_scenario(root: Block) -> tuple[ScenarioConfig, list[str]]:
    """Build a ScenarioConfig from a parsed tree, starting from the defaults."""
    errors: list[str] = []
    cfg = default_scenario()
    if root.child("scene") is not None:
        cfg.scene = _build_scene(root.child("scene"), errors)
    _fill_simple(root.child("noise"), cfg.noise, _NOISE_KEYS, {}, "noise", errors)
    _fill_simple(root.child("detector"), cfg.detector, _DETECTOR_KEYS, {}, "detector", errors)
    _fill_simple(root.child("engine"), cfg.engine, _ENGINE_KEYS, {}, "engine", errors)
    _fill_simple(root.child("experiment"), cfg.experiment, _EXPERIMENT_KEYS, {}, "experiment", errors)
    presets = root.children_named("preset")
    if presets:
        cfg.presets = []
        for pb in presets:
            name = pb.get("name")
            if name is None:
                errors.append(f"preset (line {pb.line}): needs 'name'")
                continue
            br = _coerce(pb.get("base_recall") or "0.9", "float",
                         f"preset.base_recall (line {pb.line})", errors)
            sb = _coerce(pb.get("sigma_base_deg") or "0.05", "float",
                         f"preset.sigma_base_deg (line {pb.line})", errors)
            if br is not None and sb is not None:
                cfg.presets.append(DetectorPreset(name, br, sb))
    out = root.get("out")
    if out is not None:
        cfg.out_dir = out
    for key, _, line in root.entries:
        if key != "out":
            errors.append(f"top level (line {line}): unknown key {key!r}")
    for child in root.children:
        if child.name not in ("scene", "noise", "detector", "engine", "experiment", "preset"):
            errors.append(f"top level (line {child.line}): unknown block {child.name!r}")
    return cfg, errors


# ---------------------------------------------------------------------------
# Semantic validation
# ---------------------------------------------------------------------------

def check_scenario(cfg: ScenarioConfig) -> list[str]:
    """Range and consistency checks over a built configuration."""
    errors: list[str] = []
    s = cfg.scene
    if s.width <= 0 or s.height <= 0:
        errors.append("scene: width and height must be positive")
    if s.span_deg <= 0:
        errors.append("scene: span_deg must be positive")
    if s.pano_detect_threshold <= 0:
        errors.append("scene: pano_detect_threshold must be positive")
    seen_px = set()
    for i, r in enumerate(s.regions):
        x, y, w, h = r.rect
        if w <= 0 or h <= 0:
            errors.append(f"scene.region[{i}] ({r.label}): zero-area rect")
            continue
        if x < 0 or y < 0 or x + w > s.width or y + h > s.height:
            errors.append(f"scene.region[{i}] ({r.label}): rect outside the panorama")
            continue
        cells = {(cx, cy) for cx in (x, x + w - 1) for cy in (y, y + h - 1)}
        # cheap corner probe first, full overlap check happens in build_scene
        if cells & seen_px:
            errors.append(f"scene.region[{i}] ({r.label}): overlaps an earlier region")
        seen_px |= cells
    for cls, table in s.class_priors.items():
        for label, p in table.items():
            if not 0.0 <= p <= 1.0:
                errors.append(f"scene.priors {cls}|{label}: {p} outside [0, 1]")
    for i, g in enumerate(s.groups):
        if g.count < 0:
            errors.append(f"scene.objects[{i}]: count must be >= 0")
        if g.size[0] <= 0 or g.size[1] <= 0:
            errors.append(f"scene.objects[{i}]: size must be positive")
        if not 0.0 <= g.occlusion <= 1.0:
            errors.append(f"scene.objects[{i}]: occlusion outside [0, 1]")
    n = cfg.noise
    if not 0.0 <= n.label_flip <= 1.0:
        errors.append("noise: label_flip outside [0, 1]")
    if n.sigma_min <= 0 or n.sigma_max < n.sigma_min:
        errors.append("noise: need 0 < sigma_min <= sigma_max")
    d = cfg.detector
    if not 0.0 <= d.base_recall <= 1.0:
        errors.append("detector: base_recall outside [0, 1]")
    if d.sigma_base_deg <= 0:
        errors.append("detector: sigma_base_deg must be > 0")
    if d.fp_rate < 0:
        errors.append("detector: fp_rate must be >= 0")
    e = cfg.engine
    if e.sigma_t <= 0:
        errors.append("engine: sigma_t must be > 0 (it divides the overlap score)")
    if e.alpha <= 0:
        errors.append("engine: alpha must be > 0")
    if e.n_particles < 0:
        errors.append("engine: n_particles must be >= 0")
    if e.iterations < 1:
        errors.append("engine: iterations must be >= 1")
    if not 0.0 < e.init_frac <= 1.0:
        errors.append("engine: init_frac must be in (0, 1]")
    if e.likelihood_floor <= 0:
        errors.append("engine: likelihood_floor must be > 0")
    if e.sigma_min_deg <= 0 or e.sigma_max_deg < e.sigma_min_deg:
        errors.append("engine: need 0 < sigma_min_deg <= sigma_max_deg")
    if not 0.0 <= e.iou_keep < 1.0:
        errors.append("engine: iou_keep must be in [0, 1)")
    if e.subregion_scale <= 0:
        errors.append("engine: subregion_scale must be > 0")
    if e.view_w <= 0 or e.view_h <= 0:
        errors.append("engine: view size must be positive")
    if e.galvo_limit_deg <= 0:
        errors.append("engine: galvo_limit_deg must be > 0")
    if e.step_response_ms < 0 or e.dwell_ms < 0:
        errors.append("engine: timings must be >= 0")
    if e.magnification is not None and not (math.isfinite(e.magnification)
                                            and e.magnification > 0):
        errors.append("engine: magnification must be finite and > 0 "
                      "(search-camera boxes scale by it)")
    if e.radius_mode not in ("harmonic", "stddev"):
        errors.append("engine: radius_mode must be 'harmonic' or 'stddev'")
    x = cfg.experiment
    known = {"ppm_ps", "ppm_only", "rpm", "mpf", "uniform"}
    for m in x.methods:
        if m not in known:
            errors.append(f"experiment: unknown method {m!r}")
    if any(b < 0 for b in x.budgets):
        errors.append("experiment: budgets must be >= 0")
    if x.seeds < 1 or x.scenes < 1:
        errors.append("experiment: seeds and scenes must be >= 1")
    for p in x.proportions:
        if not 0.0 < p <= 1.0:
            errors.append(f"experiment: proportion {p} outside (0, 1]")
    return errors


def load_scenario(path: str | None, overrides: list[str] | None = None) -> ScenarioConfig:
    """Load, override, build, and validate; raises ConfigError on any problem.

    The error message lists every problem found, one per line.
    """
    if path is None:
        root = Block(name="", line=0)
    else:
        root = parse_file(path)
    if overrides:
        apply_overrides(root, overrides)
    cfg, errors = build_scenario(root)
    errors.extend(check_scenario(cfg))
    if errors:
        raise ConfigError("\n".join(errors))
    return cfg


# ---------------------------------------------------------------------------
# Serialization (effective-config echo)
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return " ".join(_fmt(v) for v in value)
    return str(value)


def serialize_scenario(cfg: ScenarioConfig) -> str:
    lines: list[str] = []

    def emit(indent: int, text: str) -> None:
        lines.append("    " * indent + text)

    s = cfg.scene
    emit(0, "scene {")
    emit(1, f"width = {s.width}")
    emit(1, f"height = {s.height}")
    emit(1, f"span_deg = {_fmt(s.span_deg)}")
    emit(1, f"background = {s.background_label}")
    emit(1, f"pano_detect_threshold = {_fmt(s.pano_detect_threshold)}")
    for r in s.regions:
        emit(1, "region {")
        emit(2, f"label = {r.label}")
        emit(2, f"rect = {_fmt(r.rect)}")
        emit(1, "}")
    for g in s.groups:
        emit(1, "objects {")
        emit(2, f"class = {g.class_name}")
        emit(2, f"count = {g.count}")
        emit(2, f"size = {_fmt(g.size)}")
        emit(2, f"speed = {_fmt(g.speed)}")
        emit(2, f"occlusion = {_fmt(g.occlusion)}")
        if g.region_label is not None:
            emit(2, f"region = {g.region_label}")
        emit(1, "}")
    emit(1, "priors {")
    for cls in sorted(s.class_priors):
        for label in sorted(s.class_priors[cls]):
            emit(2, f"{cls}|{label} = {_fmt(s.class_priors[cls][label])}")
    emit(1, "}")
    emit(0, "}")
    for section, obj, keys in (
        ("noise", cfg.noise, _NOISE_KEYS),
        ("detector", cfg.detector, _DETECTOR_KEYS),
        ("engine", cfg.engine, _ENGINE_KEYS),
        ("experiment", cfg.experiment, _EXPERIMENT_KEYS),
    ):
        emit(0, section + " {")
        rename = {"background": "background_label"}
        for key in keys:
            value = getattr(obj, rename.get(key, key))
            if value is None:
                continue
            emit(1, f"{key} = {_fmt(value)}")
        emit(0, "}")
    for p in cfg.presets:
        emit(0, "preset {")
        emit(1, f"name = {p.name}")
        emit(1, f"base_recall = {_fmt(p.base_recall)}")
        emit(1, f"sigma_base_deg = {_fmt(p.sigma_base_deg)}")
        emit(0, "}")
    if cfg.out_dir is not None:
        emit(0, f"out = {cfg.out_dir}")
    return "\n".join(lines) + "\n"


def scenario_copy(cfg: ScenarioConfig) -> ScenarioConfig:
    return copy.deepcopy(cfg)
