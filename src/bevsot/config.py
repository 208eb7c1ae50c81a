"""Run configuration: a flat key=value schema shared by the config file
format and the CLI flags. Unknown keys are hard errors so ablation typos
cannot pass silently; a run's resolved config is echoed into its output
directory and reproduces the run bit-identically together with the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .exceptions import ConfigError
from .model import ModelConfig
from .pillars import CropSpec, ratio_crop_spec
from .rules import NON_NEGATIVE, POSITIVE, SHARE, Rule, check, one_of, require, ruled
from .scene import SceneConfig
from .train import TrainSettings

CROP_MODE = one_of("fixed", "ratio")
# scene i of base seed s has seed s * SEED_STRIDE + i: more sequences than the
# stride would give two base seeds' data sets common scenes
SEED_STRIDE = 1000
SEQUENCES = Rule(f"in [1, {SEED_STRIDE}]", lambda v: 1 <= v <= SEED_STRIDE, (0, SEED_STRIDE + 1))


@dataclass
class RunConfig:
    # a key named like a field of ModelConfig, TrainSettings or SceneConfig takes that
    # field's default and rule and is passed to it by name; others write their own

    # model
    grid: int = ModelConfig.grid
    channels: int = ModelConfig.channels
    heads: int = ModelConfig.heads
    stages: int = ModelConfig.stages
    head_trunk: int = ModelConfig.head_trunk
    ffn_expand: int = ModelConfig.ffn_expand
    lambda1: float = ModelConfig.lambda1
    lambda2: float = ModelConfig.lambda2
    lambda3: float = ModelConfig.lambda3
    huber_delta: float = ModelConfig.huber_delta
    imm: bool = ModelConfig.imm
    dwc: bool = ModelConfig.dwc
    linear: bool = ModelConfig.linear
    shared: bool = ModelConfig.shared
    # crop window: fixed symmetric ranges (default) or a window proportional
    # to the target box size (crop_mode=ratio)
    crop_mode: str = ruled("fixed", CROP_MODE, "crop")
    crop_xy: float = ruled(CropSpec.x_range[1], POSITIVE, "crop")
    crop_z: float = ruled(CropSpec.z_range[1], POSITIVE, "crop")
    crop_ratio: float = ruled(2.0, POSITIVE, "crop")
    # training
    lr: float = TrainSettings.lr
    weight_decay: float = TrainSettings.weight_decay
    batch: int = TrainSettings.batch
    epochs: int = TrainSettings.epochs
    decay_factor: float = TrainSettings.decay_factor
    decay_interval: int = TrainSettings.decay_interval
    max_steps: int = TrainSettings.max_steps
    augment: bool = TrainSettings.augment
    flip_axis: str = TrainSettings.flip_axis
    max_rot_deg: float = TrainSettings.max_rot_deg
    # scene generation
    sequences: int = ruled(48, SEQUENCES, "scene")
    scene_length: int = SceneConfig.scene_length
    speed_min: float = SceneConfig.speed_min
    speed_max: float = SceneConfig.speed_max
    yaw_rate_max: float = SceneConfig.yaw_rate_max
    points_per_m2: float = SceneConfig.points_per_m2
    clutter_density: float = SceneConfig.clutter_density
    clutter_extent: float = SceneConfig.clutter_extent
    occlusion_dropout: float = SceneConfig.occlusion_dropout
    surface_noise: float = SceneConfig.surface_noise
    size_w: float = SceneConfig.size_w
    size_h: float = SceneConfig.size_h
    size_l: float = SceneConfig.size_l
    size_jitter: float = SceneConfig.size_jitter
    static_fraction: float = ruled(0.25, SHARE, "scene")
    # general
    seed: int = ruled(TrainSettings.seed, NON_NEGATIVE, "train")  # default_rng needs >= 0

    def validate(self):
        """Check every key once, here or in the view that reads it; a ConfigError names it."""
        check(self)
        self.model_config().validate()
        self.train_settings()
        self.scene_config(seed=0)
        if self.crop_mode == "fixed":  # a ratio window is built per sequence
            self.crop_spec()

    # -- derived views ------------------------------------------------------

    def _view(self, cls, **given):
        """`cls` built from the fields it shares by name with this config;
        `given` values win over same-named fields."""
        shared = {f.name: getattr(self, f.name) for f in fields(cls)
                  if f.name in _FIELDS and f.name not in given}
        return cls(**shared, **given)

    def model_config(self) -> ModelConfig:
        return self._view(ModelConfig)

    def train_settings(self) -> TrainSettings:
        return self._view(TrainSettings)

    def scene_config(self, seed: int, static: bool = False) -> SceneConfig:
        return self._view(SceneConfig, seed=seed, static=static)

    def scene_configs(self, base_seed: int) -> list[SceneConfig]:
        """The generated data set: scene i has seed base_seed * SEED_STRIDE + i,
        and the first round(static_fraction * sequences) scenes are static."""
        n_static = round(self.static_fraction * self.sequences)
        return [self.scene_config(seed=base_seed * SEED_STRIDE + i, static=i < n_static)
                for i in range(self.sequences)]

    def crop_spec(self, target_box=None) -> CropSpec:
        """The crop window. Fixed mode ignores `target_box`; ratio mode sizes
        the window from it and needs it. A CropSpec error names what set the
        window: crop_xy, or crop_ratio and the target box's length and width."""
        require("crop_mode", self.crop_mode, CROP_MODE)
        ratio = self.crop_mode == "ratio"
        if ratio and target_box is None:
            raise ConfigError("crop_mode=ratio needs the sequence's target box")
        grid, z_range = (self.grid, self.grid), (-self.crop_z, self.crop_z)
        try:
            if ratio:
                return ratio_crop_spec(target_box, self.crop_ratio, grid, z_range)
            xy = (-self.crop_xy, self.crop_xy)
            return CropSpec(x_range=xy, y_range=xy, z_range=z_range, grid=grid)
        except ConfigError as e:
            by = f"crop_ratio={self.crop_ratio}" if ratio else f"crop_xy={self.crop_xy}"
            box = f" and a box {target_box.l} long, {target_box.w} wide" if ratio else ""
            raise ConfigError(f"{e} (window from {by}{box})") from None


_FIELDS = {f.name: f.type for f in fields(RunConfig)}
_PARSERS = {"int": int, "float": float, "str": str}


def _parse_value(key: str, raw: str):
    ftype = _FIELDS[key]
    if ftype == "bool":
        low = raw.strip().lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"key '{key}': expected a boolean, got '{raw}'")
    try:
        return _PARSERS[ftype](raw.strip())
    except ValueError as exc:
        raise ConfigError(f"key '{key}': {exc}") from exc


def from_items(items: dict[str, str], base: RunConfig | None = None) -> RunConfig:
    cfg = base or RunConfig()
    for key, raw in items.items():
        if key not in _FIELDS:
            raise ConfigError(f"unknown config key '{key}'")
        setattr(cfg, key, _parse_value(key, raw))
    return cfg


def load_config(path: str, base: RunConfig | None = None) -> RunConfig:
    try:
        with open(path, encoding="utf-8-sig") as fh:  # a byte-order mark is skipped
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except OSError as exc:  # missing, a directory, unreadable
        raise ConfigError(f"{path}: cannot read config file ({exc.strerror})") from None
    items: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}: line {lineno}: expected key=value")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key in first_line:
            raise ConfigError(f"{path}: line {lineno}: key '{key}' already set "
                              f"on line {first_line[key]}")
        first_line[key] = lineno
        items[key] = raw
    return from_items(items, base)


def config_text(cfg: RunConfig) -> str:
    lines = []
    for f in fields(RunConfig):
        v = getattr(cfg, f.name)
        if isinstance(v, bool):
            v = "true" if v else "false"
        lines.append(f"{f.name}={v}")
    return "\n".join(lines) + "\n"


FULL_SCALE_OVERRIDES = {
    # the expensive full-scale preset: 128x128 pillars with 16 channels,
    # batch 128, lr 1e-4 with factor-5 decay every 20 epochs
    "grid": "128", "channels": "16", "batch": "128", "lr": "1e-4",
    "head_trunk": "512",
}
