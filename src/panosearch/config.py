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
(``region``, ``objects``, ``preset``) accumulate in order; no other block may repeat.
Values are whitespace-separated tokens parsed by the typed builders below.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np


class ConfigError(ValueError):
    """Invalid scenario configuration: bad value, bad geometry, or parse error."""


# ---------------------------------------------------------------------------
# Typed configuration blocks.  Defaults are the published hardware constants:
# 1440x1200 panorama over a 40 degree span, 264x224 search view, mirror range
# +/-20 degrees with 0.25 ms step response, transform coefficient 0.002,
# sub-region scale 50, overlap temperature 0.025.
#
# Each block's dataclass is its schema: a field made by _key() is a config key
# whose kind is the field's annotation and whose domain the loader checks, and
# a field made by _block() is a nested block.
# Every float must also be finite, and 0 or of a magnitude in [1e-12, 1e12]:
# far outside that range sizes, spans and scales overflow or underflow in
# the trial arithmetic.  An upper bound appears only where a larger value
# crashes, hangs or means nothing; angles stop at a full turn.
# ---------------------------------------------------------------------------

def _key(default, domain: str | tuple[str, ...] = "", name: str = ""):
    """A config-key field: its value, or every item of a list, must lie in
    `domain`, an interval such as "(0, 1]" or a tuple of allowed strings;
    `name` is the key in the config file when it differs from the field."""
    meta = {"domain": domain, "name": name}
    if isinstance(default, list):
        return field(default_factory=lambda: list(default), metadata=meta)
    return field(default=default, metadata=meta)


def _block(cls, name: str = "", needs: tuple[str, ...] | None = None):
    """A nested-block field: one `cls` block or, when `needs` names the keys
    each copy must set, a list of repeated ones; `dict` is the class|label
    prior table.  `name` is the block's name in the config file when it
    differs from the field."""
    meta = {"block": cls, "name": name, "needs": needs}
    return field(default_factory=cls if needs is None else list, metadata=meta)


@dataclass(frozen=True)
class MethodSpec:
    init: str                 # ppm (wide-camera finds at stage 0) | region | uniform | grid
    voting: bool              # variance voting inside NMS
    adaptive_sigma: bool      # per-particle sigma from detector uncertainty
    resample: str             # proposal | uniform | none


METHODS: dict[str, MethodSpec] = {
    "ppm_ps": MethodSpec("ppm", True, True, "proposal"),
    "ppm_only": MethodSpec("ppm", False, False, "none"),
    "rpm": MethodSpec("region", False, False, "proposal"),
    "mpf": MethodSpec("uniform", False, False, "uniform"),
    "uniform": MethodSpec("grid", False, False, "none"),
}


@dataclass
class RegionSpec:
    label: str = _key("")
    rect: tuple[int, int, int, int] = _key((0, 0, 0, 0))  # x, y, w, h in panoramic px


@dataclass
class ObjectGroupSpec:
    class_name: str = _key("car", name="class")
    count: int = _key(0, "[0, inf)")
    size: tuple[float, float] = _key((48.0, 28.0), "(0, inf)")  # (w, h) panoramic px
    speed: float = _key(0.0, "[0, inf)")                        # px per motion step
    occlusion: float = _key(0.0, "[0, 1]")
    region_label: str | None = _key(None, name="region")       # pin placement to this region


@dataclass
class SceneConfig:
    width: int = _key(1440, "[1, inf)")
    height: int = _key(1200, "[1, inf)")
    span_deg: float = _key(40.0, "(0, 360]")  # full panorama width maps onto this span
    background_label: str = _key("field", name="background")
    # px; larger objects are visible at panorama scale
    pano_detect_threshold: float = _key(60.0, "(0, inf)")
    regions: list[RegionSpec] = _block(RegionSpec, "region", ("label", "rect"))
    groups: list[ObjectGroupSpec] = _block(ObjectGroupSpec, "objects", ())
    # class priors: target class -> region label -> probability of the class
    # given the region
    class_priors: dict[str, dict[str, float]] = _block(dict, "priors")

    @property
    def deg_per_px(self) -> float:
        return self.span_deg / self.width

    def prior(self, target: str, label: str) -> float:
        return float(self.class_priors.get(target, {}).get(label, 0.0))


@dataclass
class SegNoiseConfig:
    """Noise model of the simulated panoramic segmenter/detector."""

    label_flip: float = _key(0.0, "[0, 1]")     # per-pixel probability of flipping the region id
    center_std_px: float = _key(0.0, "[0, inf)")  # Gaussian noise on detected centers
    conf_std: float = _key(0.0, "[0, inf)")     # Gaussian noise on confidences
    conf_floor: float = _key(0.05, "[0, 1]")
    # bounds for the derived uncertainty scalar 1 - confidence, itself in [0, 1]
    sigma_min: float = _key(0.02, "(0, 1]")
    sigma_max: float = _key(1.0, "(0, 1]")
    size_ref_px: float = _key(120.0, "(0, inf)")  # object size at which confidence saturates


@dataclass
class DetectorConfig:
    """Parametric model of the search-camera detector."""

    base_recall: float = _key(0.9, "[0, 1]")
    conf_noise: float = _key(0.02, "[0, inf)")
    loc_noise_px: float = _key(0.0, "[0, inf)")     # additive center noise, view px
    loc_noise_scale: float = _key(1.0, "[0, inf)")  # center noise proportional to reported std
    # expected false positives per view; each one is Python work in detect
    # and NMS, so work grows with the rate, and past 10 a view is mostly noise
    fp_rate: float = _key(0.01, "[0, 10]")
    fp_conf_cap: float = _key(0.3, "[0, 1]")
    sigma_base_deg: float = _key(0.05, "(0, 360]")  # localization std for an easy target
    k_occ: float = _key(4.0, "[0, inf)")            # variance growth per unit occlusion
    k_ctr: float = _key(1.0, "[0, inf)")            # variance growth toward the view border
    size_ref_px: float = _key(40.0, "(0, inf)")     # apparent size at which detection saturates
    center_falloff: float = _key(0.2, "[0, inf)")   # detection probability drop toward the border


@dataclass
class EngineConfig:
    n_particles: int = _key(400, "[0, inf)")
    iterations: int = _key(1, "[1, inf)")
    init_frac: float = _key(0.85, "(0, 1]")         # share of the budget spent on the first pass
    likelihood_floor: float = _key(1e-3, "(0, 1]")  # likelihoods are confidences, at most 1
    sigma0_deg: float = _key(1.0, "(0, 360]")
    sigma_min_deg: float = _key(0.05, "(0, 360]")
    sigma_max_deg: float = _key(3.0, "(0, 360]")
    iou_keep: float = _key(0.5, "[0, 1)")
    # overlap-probability temperature; below 1e-6 every vote weight underflows
    sigma_t: float = _key(0.025, "[1e-6, inf)")
    # px of sub-region radius per unit uncertainty; squared in the prior variance
    subregion_scale: float = _key(50.0, "(0, 1e6]")
    alpha: float = _key(0.002, "(0, 360]")          # degrees per view pixel
    view_w: int = _key(264, "[1, inf)")
    view_h: int = _key(224, "[1, inf)")
    galvo_limit_deg: float = _key(20.0, "(0, 180]")
    step_response_ms: float = _key(0.25, "[0, inf)")
    dwell_ms: float = _key(2.0, "[0, inf)")
    overlap_frac: float = _key(0.5, "[0, inf)")     # particle pruning distance in view-FOV units

    @property
    def fov_deg(self) -> float:
        return min(self.view_w, self.view_h) * self.alpha


@dataclass
class DetectorPreset:
    name: str = _key("")
    base_recall: float = _key(DetectorConfig.base_recall, "[0, 1]")
    sigma_base_deg: float = _key(DetectorConfig.sigma_base_deg, "(0, 360]")


@dataclass
class ExperimentConfig:
    methods: list[str] = _key(["ppm_ps", "rpm", "mpf"], tuple(METHODS))
    budgets: list[int] = _key([100, 200, 300, 400, 500, 600, 700, 800], "[0, inf)")
    seeds: int = _key(20, "[1, inf)")
    scenes: int = _key(5, "[1, inf)")
    proportions: list[float] = _key([0.27, 0.35, 0.41, 0.49, 0.63], "(0, 1]")
    target: str = _key("car")
    sweep_budget: int = _key(300, "[0, inf)")
    sweep_seeds: int = _key(100, "[1, inf)")
    ablation_budget: int = _key(400, "[0, inf)")
    ablation_seeds: int = _key(20, "[1, inf)")
    deviation_budget: int = _key(600, "[0, inf)")
    deviation_seeds: int = _key(20, "[1, inf)")


@dataclass
class ScenarioConfig:
    scene: SceneConfig = _block(SceneConfig)
    noise: SegNoiseConfig = _block(SegNoiseConfig)
    detector: DetectorConfig = _block(DetectorConfig)
    engine: EngineConfig = _block(EngineConfig)
    experiment: ExperimentConfig = _block(ExperimentConfig)
    presets: list[DetectorPreset] = _block(DetectorPreset, "preset", ("name",))
    out_dir: str | None = _key(None, name="out")


@dataclass(frozen=True)
class Key:
    name: str                        # key in the config file
    attr: str                        # dataclass field
    kind: str                        # the field's annotation, e.g. "list[int]"
    domain: str | tuple[str, ...]


def _name(f) -> str:
    """A key or nested block field's name in the config file."""
    return f.metadata["name"] or f.name


def key_table(cls) -> list[Key]:
    """The config keys of a block dataclass, in declaration order."""
    return [Key(_name(f), f.name, f.type, f.metadata["domain"])
            for f in fields(cls) if "domain" in f.metadata]


def _nested(cls) -> list:
    """The nested-block fields of a block dataclass (or instance), in order."""
    return [f for f in fields(cls) if "block" in f.metadata] if is_dataclass(cls) else []


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
    # where the block or entry was set, for errors: "line 12" or "--set a.b=1"
    origin: str = ""
    entries: list[tuple[str, str, str]] = field(default_factory=list)  # key, value, origin
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
    root = Block(name="")
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
            block = Block(name=name, origin=f"line {lineno}")
            stack[-1].children.append(block)
            stack.append(block)
        elif "=" in line:
            key, value = line.split("=", 1)
            key = key.strip()
            if not key:
                raise ConfigError(f"{source}:{lineno}: missing key before '='")
            stack[-1].entries.append((key, value.strip(), f"line {lineno}"))
        else:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', block, or '}}'")
    if len(stack) != 1:
        raise ConfigError(f"{source}: unclosed block {stack[-1].name!r} opened at {stack[-1].origin}")
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

    Paths address scalar keys through uniquely-named blocks; a path through
    a repeated block (region, objects, preset) is a ConfigError.
    """
    repeated, todo = set(), [ScenarioConfig]
    while todo:
        for f in _nested(todo.pop()):
            if f.metadata["needs"] is not None:
                repeated.add(_name(f))
            todo.append(f.metadata["block"])
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form path.key=value")
        path, value = item.split("=", 1)
        parts = [p for p in path.strip().split(".") if p]
        if not parts:
            raise ConfigError(f"override {item!r} has an empty path")
        if repeated & set(parts[:-1]):
            raise ConfigError(f"override {item!r} passes through a repeated "
                              "block, which --set cannot address")
        origin, node = f"--set {item}", root
        for name in parts[:-1]:
            nxt = node.child(name)
            if nxt is None:
                nxt = Block(name=name, origin=origin)
                node.children.append(nxt)
            node = nxt
        key = parts[-1]
        node.entries = [(k, v, ln) for k, v, ln in node.entries if k != key]
        node.entries.append((key, value.strip(), origin))


# ---------------------------------------------------------------------------
# Typed builders.  Each collects human-readable errors instead of stopping at
# the first problem so `validate` can list everything at once.
# ---------------------------------------------------------------------------

# field annotation (a string: this module imports `annotations` from
# __future__) -> (item type, item count): None for a scalar, 0 for a list
_KINDS = {
    "int": (int, None), "float": (float, None), "str": (str, None),
    "str | None": (str, None),
    "list[int]": (int, 0), "list[float]": (float, 0), "list[str]": (str, 0),
    "tuple[float, float]": (float, 2), "tuple[int, int, int, int]": (int, 4),
}


def _coerce(value: str, kind: str, where: str, errors: list[str]):
    """Parse a config value as the field annotation `kind`, or record why not."""
    item, count = _KINDS[kind]
    try:
        if count is None:
            return item(value)
        items = [item(t) for t in value.split()]
        if count == 0:
            return items
        if len(items) == count:
            return tuple(items)
    except ValueError:
        pass
    errors.append(f"{where}: cannot parse {value!r} as {kind}")
    return None


def _fill(block: Block, obj, path: str, errors: list[str]) -> None:
    """Set obj's keys and nested blocks from a parsed block: a single block
    updates its value, repeated blocks and a priors block replace theirs.
    Reports unknown keys and blocks, missing required keys and a second copy
    of a single block."""
    where = path or "top level"
    table = {k.name: k for k in key_table(type(obj))} if is_dataclass(obj) else {}
    for key, value, origin in block.entries:
        k = table.get(key)
        if isinstance(obj, dict) and "|" in key:  # the class|label prior table
            p = _coerce(value, "float", f"{where}.{key} ({origin})", errors)
            if p is not None:
                cls, label = key.split("|", 1)
                obj.setdefault(cls.strip(), {})[label.strip()] = p
        elif isinstance(obj, dict):
            errors.append(f"{where} ({origin}): key must be 'class|label'")
        elif k is None:
            errors.append(f"{where} ({origin}): unknown key {key!r}")
        else:
            parsed = _coerce(value, k.kind, f"{where}.{key} ({origin})", errors)
            if parsed is not None:
                setattr(obj, k.attr, parsed)
    nested = {_name(f): f for f in _nested(obj)}
    for child in block.children:
        if child.name not in nested:
            errors.append(f"{where} ({child.origin}): unknown block {child.name!r}")
    for name, f in nested.items():
        cls, needs = f.metadata["block"], f.metadata["needs"]
        sub, copies = f"{path}.{name}" if path else name, block.children_named(name)
        if copies and (needs is not None or cls is dict):  # replaced, not updated
            setattr(obj, f.name, f.default_factory())
        for i, c in enumerate(copies):
            if needs is None:
                if i:
                    errors.append(f"{sub} ({c.origin}): may appear only once")
                _fill(c, getattr(obj, f.name), sub, errors)
            elif any(c.get(req) is None for req in needs):
                errors.append(f"{sub} ({c.origin}): needs "
                              + " and ".join(repr(k) for k in needs))
            else:
                getattr(obj, f.name).append(cls())
                _fill(c, getattr(obj, f.name)[-1], sub, errors)


def build_scenario(root: Block) -> tuple[ScenarioConfig, list[str]]:
    """Build a ScenarioConfig from a parsed tree, starting from the defaults."""
    errors: list[str] = []
    cfg = default_scenario()
    _fill(root, cfg, "", errors)
    return cfg, errors


# ---------------------------------------------------------------------------
# Semantic validation
# ---------------------------------------------------------------------------

MIN_MAGNITUDE, MAX_MAGNITUDE = 1e-12, 1e12  # of a nonzero config float


def _domain_error(value, domain: str | tuple[str, ...]) -> str | None:
    """Why `value` lies outside `domain`, or None when it lies inside."""
    if isinstance(domain, tuple):
        if value in domain:
            return None
        return f"must be one of {', '.join(domain)}, got {value!r}"
    if isinstance(value, float):
        if not math.isfinite(value):
            return f"must be finite, got {value!r}"
        if value and not MIN_MAGNITUDE <= abs(value) <= MAX_MAGNITUDE:
            return (f"must have a magnitude in [{MIN_MAGNITUDE:g}, "
                    f"{MAX_MAGNITUDE:g}], got {value!r}")
    if not domain:
        return None
    lo, hi = (t.strip() for t in domain[1:-1].split(","))
    above = value > float(lo) if domain[0] == "(" else value >= float(lo)
    below = value < float(hi) if domain[-1] == ")" else value <= float(hi)
    if above and below:
        return None
    if hi == "inf":
        return f"must be {'>' if domain[0] == '(' else '>='} {lo}, got {value!r}"
    return f"must be in {domain}, got {value!r}"


def _blocks(obj, path: str = ""):
    """(where, block) for obj and every keyed block nested in it, in field
    order; a repeated block's where carries its index, as in scene.region[0]."""
    if is_dataclass(obj):
        yield path, obj
    for f in _nested(obj):
        sub, value = f"{path}.{_name(f)}" if path else _name(f), getattr(obj, f.name)
        if f.metadata["needs"] is None:
            yield from _blocks(value, sub)
        else:
            for i, item in enumerate(value):
                yield from _blocks(item, f"{sub}[{i}]")


def stamp_regions(scene: SceneConfig) -> tuple[np.ndarray, list[str]]:
    """The (H, W) region-id grid of scene's layout and every layout error:
    each placed rectangle is stamped in order over the background id n, the
    region count, and one that overlaps is reported and stamped.  A panorama
    without pixels or past a bound stamps nothing and checks no overlap."""
    n, pixels = len(scene.regions), max(scene.width, 0) * max(scene.height, 0)
    errors = []
    if pixels == 0:
        errors.append("scene: the panorama has no pixels")
    elif pixels > 2**28:  # a 256 MiB grid at one byte per pixel
        errors.append(f"scene: width x height must be <= {2**28}, "
                      f"got {scene.width * scene.height}")
    if n > 32767:  # ids, and the flip offsets segment_panorama draws, are int16
        errors.append(f"scene: {n} regions, the label grid holds at most 32767")
    shape = (0, 0) if errors else (scene.height, scene.width)
    labels = np.full(shape, n, dtype=np.int8 if n <= 127 else
                     np.int16 if n <= 32767 else np.int32)  # int32 only when empty
    for i, r in enumerate(scene.regions):
        x, y, w, h = r.rect
        if w <= 0 or h <= 0:
            errors.append(f"scene.region[{i}] ({r.label}): zero-area rect")
        elif x < 0 or y < 0 or x + w > scene.width or y + h > scene.height:
            errors.append(f"scene.region[{i}] ({r.label}): rect outside the panorama")
        elif labels.size:
            window = labels[y:y + h, x:x + w]
            if window.min() != n:  # stamped ids are all below the background's
                errors.append(f"scene.region[{i}] ({r.label}): overlaps an earlier region")
            window[:] = i
    return labels, errors


def region_parts(scene: SceneConfig) -> list[tuple[str, int, tuple[int, int, int, int]]]:
    """(label, area, (x0, y0, x1, y1) box) of each rectangle, then of the
    background when the rectangles, which must not overlap, leave pixels."""
    parts = [(r.label, w * h, (x, y, x + w, y + h))
             for r in scene.regions for x, y, w, h in [r.rect]]
    uncovered = scene.width * scene.height - sum(area for _, area, _ in parts)
    if uncovered > 0:
        parts.append((scene.background_label, uncovered,
                      (0, 0, scene.width, scene.height)))
    return parts


def pin_errors(scene: SceneConfig, labels) -> list[str]:
    """A line per object group placing objects in a region not in `labels`."""
    return [f"scene.objects[{i}]: pinned to unknown region {g.region_label!r}"
            for i, g in enumerate(scene.groups)
            if g.count > 0 and g.region_label is not None and g.region_label not in labels]


def check_scenario(cfg: ScenarioConfig) -> list[str]:
    """Domain checks of every key, then the rules that span several keys."""
    errors: list[str] = []
    for where, obj in _blocks(cfg):
        for k in key_table(type(obj)):
            value = getattr(obj, k.attr)
            for item in value if isinstance(value, (list, tuple)) else [value]:
                problem = None if item is None else _domain_error(item, k.domain)
                if problem:
                    errors.append(f"{where}: {k.name} {problem}")
                    break
    s = cfg.scene
    target = cfg.experiment.target
    errors.extend(stamp_regions(s)[1])
    parts = region_parts(s)
    errors.extend(pin_errors(s, {label for label, _, _ in parts}))
    for cls, table in s.class_priors.items():
        for label, p in table.items():
            if not 0.0 <= p <= 1.0:
                errors.append(f"scene.priors {cls}|{label}: {p} outside [0, 1]")
    if not any(area * s.prior(target, label) > 0.0 for label, area, _ in parts):
        errors.append(f"experiment: no admissible region for target {target!r}: "
                      "every area x prior product is zero")
    if cfg.noise.sigma_min > cfg.noise.sigma_max:
        errors.append("noise: need sigma_min <= sigma_max")
    if cfg.engine.sigma_min_deg > cfg.engine.sigma_max_deg:
        errors.append("engine: need sigma_min_deg <= sigma_max_deg")
    return errors


def load_scenario(path: str | None, overrides: list[str] | None = None) -> ScenarioConfig:
    """Load, override, build, and validate; raises ConfigError on any problem.

    The error message lists every problem found, one per line.
    """
    if path is None:
        root = Block(name="")
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
    """The config text of cfg: every key and block, in field order."""
    lines: list[str] = []

    def emit(obj, indent: int) -> None:
        pad = "    " * indent
        if isinstance(obj, dict):  # the prior table, sorted
            lines.extend(f"{pad}{cls}|{label} = {_fmt(obj[cls][label])}"
                         for cls in sorted(obj) for label in sorted(obj[cls]))
            return
        for f in fields(obj):
            value = getattr(obj, f.name)
            if "block" not in f.metadata:
                if value is not None:
                    lines.append(f"{pad}{_name(f)} = {_fmt(value)}")
                continue
            for item in value if f.metadata["needs"] is not None else [value]:
                lines.append(f"{pad}{_name(f)} {{")
                emit(item, indent + 1)
                lines.append(pad + "}")

    emit(cfg, 0)
    return "\n".join(lines) + "\n"


def scenario_copy(cfg: ScenarioConfig) -> ScenarioConfig:
    return copy.deepcopy(cfg)
