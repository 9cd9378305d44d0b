"""BEV motion smoothing: speed, heading, and angle-bounce rectification.

Positions mapped into the bird's-eye frame are smoothed by a constant-
acceleration Kalman filter observed on position only.  Speed comes from the
smoothed velocity, converted through the ground scale.  Headings from
frame-to-frame displacement can flip wildly when a vehicle is nearly
stationary; the rectification weight passes small corrections and full
reversals but suppresses near-perpendicular bounces.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .errors import DegenerateDisplacement
from .kalman import Cov, kf_predict_step, kf_update_step

if TYPE_CHECKING:  # annotations only
    from .geometry import GroundScale

MPH_PER_MPS = 2.236936

PROCESS_SPECTRAL_DENSITY = 10.0  # px^2 / s^5
MEASUREMENT_VARIANCE = 4.0       # px^2 per axis

_P0 = ((MEASUREMENT_VARIANCE, 0.0, 0.0), (0.0, 1e6, 0.0), (0.0, 0.0, 1e4))


@dataclass(frozen=True, slots=True)
class BevKalmanState:
    """Smoothed BEV kinematic state with its covariance.

    Both axes follow the same model and are observed with the same noise,
    so they share one 3x3 (position, velocity, acceleration) covariance.
    """

    x: Sequence[float]   # [x, y, vx, vy, ax, ay]
    p: Cov               # (3, 3), shared by x and y

    def __post_init__(self):
        if len(self.x) != 6 or not all(map(math.isfinite, self.x)):
            raise ValueError("state vector must be 6 finite numbers")

    @staticmethod
    def initial(x: float, y: float) -> "BevKalmanState":
        return BevKalmanState((float(x), float(y), 0.0, 0.0, 0.0, 0.0), _P0)


@functools.lru_cache(maxsize=64)  # a run's gaps are few
def _process_noise(t_w: float) -> Cov:
    q = PROCESS_SPECTRAL_DENSITY
    t2 = t_w * t_w
    t3 = t2 * t_w
    t4 = t3 * t_w
    t5 = t4 * t_w
    return ((q * (t5 / 20.0), q * (t4 / 8.0), q * (t3 / 6.0)),
            (q * (t4 / 8.0), q * (t3 / 3.0), q * (t2 / 2.0)),
            (q * (t3 / 6.0), q * (t2 / 2.0), q * t_w))


def kf_predict(state: BevKalmanState, t_w: float) -> BevKalmanState:
    """Propagate the constant-acceleration model by t_w seconds."""
    if t_w <= 0:
        raise ValueError(f"t_w must be > 0, got {t_w}")
    return BevKalmanState(*kf_predict_step(state.x, state.p, t_w,
                                           _process_noise(t_w)))


def kf_update(state: BevKalmanState,
              observation: tuple[float, float]) -> BevKalmanState:
    """Fold in one BEV position observation."""
    try:
        z = tuple(map(float, observation))
        ok = len(z) == 2 and all(map(math.isfinite, z))
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise ValueError("observation must be a finite (x, y) pair")
    return BevKalmanState(*kf_update_step(state.x, state.p, z,
                                          MEASUREMENT_VARIANCE))


def kf_step(x: Sequence[float], p: Cov, t_w: float,
            z: Sequence[float]) -> tuple[list[float], Cov]:
    """`kf_update(kf_predict(state, t_w), z)` on a plain (x, p) pair, bit for
    bit, for a caller that checks t_w > 0, z finite and the result."""
    x, p = kf_predict_step(x, p, t_w, _process_noise(t_w))
    return kf_update_step(x, p, z, MEASUREMENT_VARIANCE)


def speed_mph(x: Sequence[float], scale: GroundScale) -> float:
    """Smoothed speed in miles per hour, from the velocity norm of the
    state vector `x` ([x, y, vx, vy, ax, ay], as `BevKalmanState.x`)."""
    return math.hypot(x[2], x[3]) * scale.iota * MPH_PER_MPS


def heading_of(dx: float, dy: float) -> float:
    """Direction of the displacement (dx, dy) in degrees, (-180, 180]."""
    if dx == 0.0 and dy == 0.0:
        raise DegenerateDisplacement("coincident points define no direction")
    return math.degrees(math.atan2(dy, dx))


def wrap_angle(theta: float) -> float:
    """Wrap degrees into (-180, 180]."""
    r = (theta + 180.0) % 360.0 - 180.0
    return 180.0 if r == -180.0 else r


def bounce_weight(delta: float) -> float:
    """Rectification weight for a heading change wrapped to [-180, 180].

    1 at 0 and +/-180 (keep the full change), 0 at +/-90 (suppress the
    bounce entirely), cosine-shaped in between.
    """
    normalized = (delta + 180.0) / 360.0
    return (math.cos(4.0 * math.pi * normalized) + 1.0) / 2.0


def abf(theta_prev: float, theta_now: float) -> float:
    """Angle-bounce filtering: damp implausible heading jumps.

    The raw change is wrapped to [-180, 180], scaled by the bounce weight
    and added back onto the previous heading.
    """
    delta = (theta_now - theta_prev + 180.0) % 360.0 - 180.0
    w = bounce_weight(delta)
    return wrap_angle(theta_prev + w * delta)

