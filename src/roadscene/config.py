"""Runtime configuration for the CLI tools.

The on-disk format is deliberately flat: one ``key = value`` pair per line,
``#`` starts a comment, blank lines are ignored.  Every tunable lives here so
a run is fully described by one config file plus one seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .analytics import AnalyticsConfig
from .box3d import DEFAULT_PRIORS, DimensionPrior
from .calibration import RansacParams
from .errors import ConfigError
from .geometry import GroundScale
from .roadmodel import SrgParams
from .tracking import CLASS_NAMES

_SPEED_AXES = ("planar", "x_only")


@dataclass(frozen=True)
class Config:
    fps: float = 25.0
    iota_m_per_px: float = 0.05
    speed_limit_mph: float = 30.0
    speed_axis: str = "planar"
    seed: int = 0
    # tracker
    iou_min: float = 0.3
    max_age: int = 10
    min_hits: int = 3
    objectness_min: float = 0.25
    # homography consensus
    ransac_tau: float = 3.0
    ransac_rho: float = 0.99
    ransac_max_iter: int = 10000
    # road segmentation
    srg_tau_alpha: float = 12.0
    # analytics thresholds
    parking_speed_mph: float = 0.5
    parking_border_m: float = 1.0
    parking_duration_s: float = 60.0
    proximity_risk_m: float = 1.0
    congestion_distance_m: float = 2.0
    congestion_speed_mph: float = 5.0
    # cuboids
    beta: float = 0.6
    # background extraction
    alpha: float = 0.01
    background_frames: int = 70
    # rendering
    render_floor: int = 5
    render_alpha: float = 0.6
    priors: dict[str, DimensionPrior] = field(
        default_factory=lambda: dict(DEFAULT_PRIORS))

    def ransac_params(self) -> RansacParams:
        return RansacParams(tau_z=self.ransac_tau, rho=self.ransac_rho,
                            max_iter=self.ransac_max_iter)

    def srg_params(self) -> SrgParams:
        return SrgParams(tau_alpha=self.srg_tau_alpha)

    def analytics_config(self) -> AnalyticsConfig:
        return AnalyticsConfig(
            speed_limit_mph=self.speed_limit_mph,
            parking_speed_mph=self.parking_speed_mph,
            parking_border_m=self.parking_border_m,
            parking_duration_s=self.parking_duration_s,
            proximity_risk_m=self.proximity_risk_m,
            congestion_distance_m=self.congestion_distance_m,
            congestion_speed_mph=self.congestion_speed_mph)

    def scale(self) -> GroundScale:
        return GroundScale(self.iota_m_per_px)

    def tracker_kwargs(self) -> dict:
        return {"iou_min": self.iou_min, "max_age": self.max_age,
                "min_hits": self.min_hits,
                "objectness_min": self.objectness_min}


def _parse_float(raw: str) -> float:
    value = float(raw)
    if value != value or value in (float("inf"), float("-inf")):
        raise ValueError("must be finite")
    return value


def _positive_float(raw: str) -> float:
    value = _parse_float(raw)
    if value <= 0:
        raise ValueError("must be positive")
    return value


def _nonneg_float(raw: str) -> float:
    value = _parse_float(raw)
    if value < 0:
        raise ValueError("must be non-negative")
    return value


def _unit_open(raw: str) -> float:
    value = _parse_float(raw)
    if not 0.0 < value < 1.0:
        raise ValueError("must be in (0, 1)")
    return value


def _unit_closed(raw: str) -> float:
    value = _parse_float(raw)
    if not 0.0 <= value <= 1.0:
        raise ValueError("must be in [0, 1]")
    return value


def _intensity_step(raw: str) -> float:
    value = _parse_float(raw)
    if not 0.0 < value < 256.0:
        raise ValueError("must be in (0, 256)")
    return value


def _parse_int(raw: str) -> int:
    return int(raw, 10)


def _positive_int(raw: str) -> int:
    value = _parse_int(raw)
    if value < 1:
        raise ValueError("must be >= 1")
    return value


def _nonneg_int(raw: str) -> int:
    value = _parse_int(raw)
    if value < 0:
        raise ValueError("must be >= 0")
    return value


def _speed_axis(raw: str) -> str:
    if raw not in _SPEED_AXES:
        raise ValueError(f"must be one of {_SPEED_AXES}")
    return raw


# key in the file -> (Config attribute, parser)
_KEYS = {
    "fps": ("fps", _positive_float),
    "iota_m_per_px": ("iota_m_per_px", _positive_float),
    "speed_limit_mph": ("speed_limit_mph", _positive_float),
    "speed_axis": ("speed_axis", _speed_axis),
    "seed": ("seed", _nonneg_int),
    "tracker.iou_min": ("iou_min", _unit_closed),
    "tracker.max_age": ("max_age", _positive_int),
    "tracker.min_hits": ("min_hits", _positive_int),
    "tracker.objectness_min": ("objectness_min", _unit_closed),
    "ransac.tau": ("ransac_tau", _positive_float),
    "ransac.rho": ("ransac_rho", _unit_open),
    "ransac.max_iter": ("ransac_max_iter", _positive_int),
    "srg.tau_alpha": ("srg_tau_alpha", _intensity_step),
    "analytics.parking_speed_mph": ("parking_speed_mph", _nonneg_float),
    "analytics.parking_border_m": ("parking_border_m", _positive_float),
    "analytics.parking_duration_s": ("parking_duration_s", _positive_float),
    "analytics.proximity_risk_m": ("proximity_risk_m", _positive_float),
    "analytics.congestion_distance_m": ("congestion_distance_m",
                                        _positive_float),
    "analytics.congestion_speed_mph": ("congestion_speed_mph",
                                       _positive_float),
    "box.beta": ("beta", _positive_float),
    "background.alpha": ("alpha", _unit_open),
    "background.frames": ("background_frames", _positive_int),
    "render.floor": ("render_floor", _nonneg_int),
    "render.alpha": ("render_alpha", _unit_closed),
}


def _parse_prior(raw: str) -> DimensionPrior:
    parts = raw.split()
    if len(parts) != 2:
        raise ValueError("expected two values: length_m width_m")
    return DimensionPrior(_positive_float(parts[0]), _positive_float(parts[1]))


def parse_config(text: str, base: Config | None = None) -> Config:
    """Parse config text over `base` (defaults when omitted).

    Raises ConfigError naming the 1-based line of the first problem.
    """
    cfg = base if base is not None else Config()
    updates: dict = {}
    priors = dict(cfg.priors)
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
                priors[class_name] = _parse_prior(raw)
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: {key}: {exc}") from None
            continue
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        attr, parser = _KEYS[key]
        try:
            updates[attr] = parser(raw)
        except ValueError as exc:
            detail = str(exc) or f"bad value {raw!r}"
            raise ConfigError(f"line {lineno}: {key}: {detail}") from None
    return replace(cfg, priors=priors, **updates)


def load_config(path) -> Config:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text)
