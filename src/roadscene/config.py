"""Runtime configuration for the CLI tools.

The on-disk format is deliberately flat: one ``key = value`` pair per line,
``#`` starts a comment, blank lines are ignored.  Every tunable lives here so
a run is fully described by one config file plus one seed.  Each key sets
a field of `Config` or of one of the stage parameter types it holds, and
the type that holds the field refuses out-of-range values, for a config
built in code as for one read from a file.  No stage is imported here, so
reading a config loads none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Mapping

from .errors import ConfigError, InputError, InvalidProbability

CLASS_NAMES = (
    "articulated_truck",
    "bicycle",
    "bus",
    "car",
    "motorcycle",
    "motorized_vehicle",
    "non_motorized_vehicle",
    "pedestrian",
    "pickup_truck",
    "single_unit_truck",
    "work_van",
)
PEDESTRIAN = "pedestrian"

HEIGHT_COEFFICIENT = 0.6  # fraction of detected pixel height kept for roofs

# The largest image or grid side: an array over two such sides, at up to
# 2**15 bytes a cell, stays below the 2**63 bytes numpy can address, so one
# too large for memory fails as MemoryError.  SIZE: the (w, h) pair's rule.
MAX_SIDE = 2 ** 24
SIZE = (lambda pair: all(1 <= side <= MAX_SIDE for side in pair),
        f"two sides in [1, {MAX_SIDE}]")


def check_fields(obj, *rules, error=ValueError) -> None:
    """Raise `error` naming the first field of `obj` that breaks its rule.

    Each rule is (field names, the test each value passes, how the test
    reads); NaN fails every test.
    """
    for names, ok, rule in rules:
        for name in names:
            value = getattr(obj, name)
            if not ok(value):
                raise error(f"{name} must be {rule}, got {value}")


@dataclass(frozen=True)
class DimensionPrior:
    """Real-world footprint of a class, length along travel, in meters."""

    length_m: float
    width_m: float

    def __post_init__(self):
        check_fields(self, (("length_m", "width_m"), lambda v: v > 0,
                            "positive"))


# Only the bus size is a measured reference value (UK double-decker);
# the rest are operator-tunable defaults.
DEFAULT_PRIORS: Mapping[str, DimensionPrior] = {
    "articulated_truck": DimensionPrior(10.0, 2.5),
    "bicycle": DimensionPrior(2.0, 0.8),
    "bus": DimensionPrior(5.8, 2.9),
    "car": DimensionPrior(4.5, 1.8),
    "motorcycle": DimensionPrior(2.0, 0.8),
    "motorized_vehicle": DimensionPrior(4.0, 1.8),
    "non_motorized_vehicle": DimensionPrior(4.0, 1.8),
    "pedestrian": DimensionPrior(0.6, 0.6),
    "pickup_truck": DimensionPrior(5.3, 2.0),
    "single_unit_truck": DimensionPrior(7.0, 2.4),
    "work_van": DimensionPrior(5.0, 2.0),
}


@dataclass(frozen=True)
class RansacParams:
    tau_z: float = 3.0
    rho: float = 0.99
    max_iter: int = 10000

    def __post_init__(self):
        check_fields(self, (("tau_z",), lambda v: v > 0, "> 0"),
                     (("max_iter",), lambda v: v >= 1, ">= 1"))
        check_fields(self, (("rho",), lambda v: 0 < v < 1, "in (0, 1)"),
                     error=InvalidProbability)


@dataclass(frozen=True)
class SrgParams:
    tau_alpha: float = 12.0

    def __post_init__(self):
        check_fields(self, (("tau_alpha",), lambda v: 0 < v < 256,
                            "in (0, 256)"))


@dataclass(frozen=True)
class AnalyticsConfig:
    speed_limit_mph: float = 30.0
    parking_speed_mph: float = 0.5
    parking_border_m: float = 1.0
    parking_duration_s: float = 60.0
    proximity_risk_m: float = 1.0
    congestion_distance_m: float = 2.0
    congestion_speed_mph: float = 5.0

    def __post_init__(self):
        check_fields(
            self, (("speed_limit_mph", "parking_border_m",
                    "parking_duration_s", "proximity_risk_m",
                    "congestion_distance_m", "congestion_speed_mph"),
                   lambda v: v > 0, "positive"),
            (("parking_speed_mph",), lambda v: v >= 0, "non-negative"))


@dataclass(frozen=True)
class Config:
    fps: float = 25.0
    iota_m_per_px: float = 0.05
    seed: int = 0
    # tracker
    iou_min: float = 0.3
    max_age: int = 10
    min_hits: int = 3
    objectness_min: float = 0.25
    # stage parameters
    ransac: RansacParams = RansacParams()
    srg: SrgParams = SrgParams()
    analytics: AnalyticsConfig = AnalyticsConfig()
    # cuboids
    beta: float = HEIGHT_COEFFICIENT
    # background extraction
    alpha: float = 0.01
    background_frames: int = 70
    # rendering
    render_floor: int = 5
    render_alpha: float = 0.6
    priors: dict[str, DimensionPrior] = field(
        default_factory=lambda: dict(DEFAULT_PRIORS))

    def __post_init__(self):
        check_fields(
            self, (("fps", "iota_m_per_px", "beta"), lambda v: v > 0,
                   "positive"),
            (("iou_min", "objectness_min", "render_alpha"),
             lambda v: 0 <= v <= 1, "in [0, 1]"),
            (("max_age", "min_hits", "background_frames"), lambda v: v >= 1,
             ">= 1"),
            (("seed", "render_floor"), lambda v: v >= 0, ">= 0"),
            (("alpha",), lambda v: 0 < v < 1, "in (0, 1)"))


# key in the file -> the Config attribute or "section.field" it sets
_KEYS = {
    "fps": "fps",
    "iota_m_per_px": "iota_m_per_px",
    "speed_limit_mph": "analytics.speed_limit_mph",
    "seed": "seed",
    "tracker.iou_min": "iou_min",
    "tracker.max_age": "max_age",
    "tracker.min_hits": "min_hits",
    "tracker.objectness_min": "objectness_min",
    "ransac.tau": "ransac.tau_z",
    "ransac.rho": "ransac.rho",
    "ransac.max_iter": "ransac.max_iter",
    "srg.tau_alpha": "srg.tau_alpha",
    "analytics.parking_speed_mph": "analytics.parking_speed_mph",
    "analytics.parking_border_m": "analytics.parking_border_m",
    "analytics.parking_duration_s": "analytics.parking_duration_s",
    "analytics.proximity_risk_m": "analytics.proximity_risk_m",
    "analytics.congestion_distance_m": "analytics.congestion_distance_m",
    "analytics.congestion_speed_mph": "analytics.congestion_speed_mph",
    "box.beta": "beta",
    "background.alpha": "alpha",
    "background.frames": "background_frames",
    "render.floor": "render_floor",
    "render.alpha": "render_alpha",
}


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _parse_prior(raw: str) -> DimensionPrior:
    parts = raw.split()
    if len(parts) != 2:
        raise ValueError("expected two values: length_m width_m")
    return DimensionPrior(*map(_finite, parts))


def _set(cfg: Config, target: str, raw: str) -> Config:
    """`cfg` with `target` set to `raw`, read as a base-10 int for an int
    field and as a finite float otherwise; the type that holds the field
    checks its range."""
    section, _, attr = target.rpartition(".")
    holder = getattr(cfg, section) if section else cfg
    kind = next(f.type for f in fields(holder) if f.name == attr)
    holder = replace(holder, **{attr: int(raw, 10) if kind == "int"
                                else _finite(raw)})
    return replace(cfg, **{section: holder}) if section else holder


def parse_config(text: str) -> Config:
    """Parse config text over the defaults.

    Raises ConfigError naming the 1-based line and the key of the first
    problem.
    """
    cfg = Config()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', "
                              f"got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key.startswith("prior."):
            class_name = key[len("prior."):]
            if class_name not in CLASS_NAMES:
                raise ConfigError(
                    f"line {lineno}: unknown class {class_name!r}")
            try:
                prior = _parse_prior(raw)
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: {key}: {exc}") from None
            cfg = replace(cfg, priors={**cfg.priors, class_name: prior})
            continue
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            cfg = _set(cfg, _KEYS[key], raw)
        except (ValueError, InputError) as exc:
            detail = str(exc) or f"bad value {raw!r}"
            raise ConfigError(f"line {lineno}: {key}: {detail}") from None
    return cfg


def load_config(path) -> Config:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text)
