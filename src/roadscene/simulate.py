"""Synthetic scene generation: the oracle the rest of the pipeline is
checked against.

A scenario scripts actors along piecewise-linear world paths (meters,
timestamped).  The generator projects them through the same camera model
the calibration stage is supposed to recover, so every downstream estimate
has an exact reference: true homography, per-frame positions, speeds and
headings land in truth.json, while detections.jsonl gets the noisy
projections a detector would have produced.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from .config import CLASS_NAMES, DEFAULT_PRIORS, SIZE, check_fields
from .errors import InvalidSpec
from .geometry import (BEV, PERSPECTIVE, CameraModel, Homography,
                       apply_many, compose_from_camera, invert,
                       projection_matrix)
from .imaging import ImageBuffer, write_pnm
from .motion import MPH_PER_MPS, wrap_angle
from .records import dump_json, is_number, parse_json, write_detections
from .seeding import subsystem_rng
from .tracking import DetectionGroup

# Real-world box heights used to synthesize detection boxes (meters).
NOMINAL_HEIGHT_M = {
    "articulated_truck": 3.6,
    "bicycle": 1.6,
    "bus": 3.0,
    "car": 1.5,
    "motorcycle": 1.4,
    "motorized_vehicle": 1.6,
    "non_motorized_vehicle": 1.5,
    "pedestrian": 1.7,
    "pickup_truck": 1.8,
    "single_unit_truck": 3.2,
    "work_van": 2.2,
}

_TRUE_PROB = 0.9
_DEPTH_EPS = 1e-9


@dataclass(frozen=True)
class ActorScript:
    """One scripted actor: class plus a timestamped world path."""

    class_name: str
    waypoints: tuple[tuple[float, tuple[float, float]], ...]
    hidden: tuple[tuple[int, int], ...] = ()
    flicker: float = 0.0

    def __post_init__(self):
        if self.class_name not in CLASS_NAMES:
            raise InvalidSpec(f"unknown class {self.class_name!r}")
        if not self.waypoints:
            raise InvalidSpec("path must be a non-empty list")
        times = [t for t, _ in self.waypoints]
        if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
            raise InvalidSpec("path timestamps must be increasing")
        for a, b in self.hidden:
            if a < 0 or b < a:
                raise InvalidSpec(f"bad hidden range [{a}, {b}]")
        check_fields(self, (("flicker",), lambda v: 0 <= v < 1, "in [0, 1)"),
                     error=InvalidSpec)

    def position(self, t: float) -> tuple[float, float]:
        """Piecewise-linear interpolation, clamped at both ends."""
        wps = self.waypoints
        if t <= wps[0][0]:
            return wps[0][1]
        if t >= wps[-1][0]:
            return wps[-1][1]
        for (t0, p0), (t1, p1) in zip(wps, wps[1:]):
            if t < t1:
                break
        u = (t - t0) / (t1 - t0)
        return (p0[0] + u * (p1[0] - p0[0]), p0[1] + u * (p1[1] - p0[1]))

    def velocity(self, t: float) -> tuple[float, float]:
        """Path derivative in m/s; zero before the first and after the
        last waypoint.  At an interior node the outgoing segment wins."""
        wps = self.waypoints
        if t < wps[0][0] or t >= wps[-1][0]:
            return (0.0, 0.0)
        for (t0, p0), (t1, p1) in zip(wps, wps[1:]):
            if t < t1:
                break
        dt = t1 - t0
        return ((p1[0] - p0[0]) / dt, (p1[1] - p0[1]) / dt)

    def hidden_at(self, frame: int) -> bool:
        return any(a <= frame <= b for a, b in self.hidden)


@dataclass(frozen=True)
class ScenarioSpec:
    """A scene to simulate; refuses out-of-range values and paths that
    leave the BEV window's world rectangle, as InvalidSpec."""

    camera: CameraModel
    image_size: tuple[int, int]       # (width, height) px
    bev_size: tuple[int, int]         # (width, height) px
    iota_m_per_px: float
    world_origin: tuple[float, float]  # world meters at BEV pixel (0, 0)
    fps: float
    duration: int
    actors: tuple[ActorScript, ...]
    noise_sigma_px: float = 0.0
    dropout: float = 0.0
    n_matches: int = 0
    match_sigma_px: float = 0.0
    outlier_fraction: float = 0.0
    road_polygon: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        check_fields(
            self, (("image_size", "bev_size"), *SIZE),
            (("iota_m_per_px", "fps"), lambda v: v > 0, "positive"),
            # frames are numbered as in the row files, below 2**63
            (("duration",), lambda v: 1 <= v < 2 ** 63, "in [1, 2**63)"),
            (("noise_sigma_px", "n_matches", "match_sigma_px"),
             lambda v: v >= 0, "non-negative"),
            (("dropout", "outlier_fraction"), lambda v: 0 <= v < 1,
             "in [0, 1)"), error=InvalidSpec)
        if 0 < len(self.road_polygon) < 3:
            raise InvalidSpec("road_polygon needs at least 3 vertices")
        (xmin, ymin), (bw, bh) = self.world_origin, self.bev_size
        xmax = xmin + bw * self.iota_m_per_px
        ymax = ymin + bh * self.iota_m_per_px
        for i, actor in enumerate(self.actors):
            for j, (_, (x, y)) in enumerate(actor.waypoints):
                if not (xmin <= x <= xmax and ymin <= y <= ymax):
                    raise InvalidSpec(
                        f"actors[{i}]: path[{j}] at ({x}, {y}) leaves the "
                        f"world rectangle [{xmin}, {xmax}] x [{ymin}, {ymax}]")


# number field -> the JSON number it takes; and the fields with no default
_NUMBERS = {"iota_m_per_px": float, "fps": float, "duration": int,
            "noise_sigma_px": float, "dropout": float, "n_matches": int,
            "match_sigma_px": float, "outlier_fraction": float}
_REQUIRED = {f.name for f in fields(ScenarioSpec) if f.default is MISSING}


def _finite(value, label: str, cast=float):
    """A finite JSON number, not a bool, as `cast`; int takes only ints."""
    if is_number(value) and (cast is not int or type(value) is int):
        return cast(value)
    raise InvalidSpec(f"{label}: bad value {value!r}")


def _pair(value, label: str, cast=float):
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise InvalidSpec(f"{label} must be a pair")
    return (_finite(value[0], label, cast), _finite(value[1], label, cast))


def _spec_list(data: dict, key: str) -> list:
    value = data.get(key, [])
    if not isinstance(value, (list, tuple)):
        raise InvalidSpec(f"field {key!r} must be a list")
    return value


def _parse_actor(actor, label: str) -> ActorScript:
    if not isinstance(actor, dict):
        raise InvalidSpec(f"{label} must be an object")
    path = actor.get("path")
    if not isinstance(path, list):
        raise InvalidSpec(f"{label}: path must be a non-empty list")
    waypoints = []
    for j, node in enumerate(path):
        if not isinstance(node, list) or len(node) != 2:
            raise InvalidSpec(f"{label}: path[{j}] must be [t, [x, y]]")
        waypoints.append((_finite(node[0], f"{label}: path[{j}] time"),
                          _pair(node[1], f"{label}: path[{j}] position")))
    hidden = tuple(_pair(pair, f"{label}: hidden range", int)
                   for pair in _spec_list(actor, "hidden"))
    flicker = ({"flicker": _finite(actor["flicker"], "field 'flicker'")}
               if "flicker" in actor else {})
    try:
        return ActorScript(actor.get("class"), tuple(waypoints), hidden,
                           **flicker)
    except InvalidSpec as exc:
        raise InvalidSpec(f"{label}: {exc}") from None


def parse_scenario(data: dict) -> ScenarioSpec:
    """The scene a JSON document describes.  Only types are judged here:
    the spec checks the values, and fills in omitted optional fields."""
    if not isinstance(data, dict):
        raise InvalidSpec("scenario must be a JSON object")
    cam_data = data.get("camera")
    if not isinstance(cam_data, dict):
        raise InvalidSpec("field 'camera' must be an object")
    cam_keys = ("f", "kx", "ky", "shear", "cx", "cy", "theta_c", "h_c")
    missing = [k for k in cam_keys if k not in cam_data]
    if missing:
        raise InvalidSpec(f"camera is missing {missing}")
    camera = CameraModel(**{k: _finite(cam_data[k], f"camera.{k}")
                            for k in cam_keys})
    values = {key: _pair(data.get(key), f"field {key!r}", cast)
              for key, cast in (("image_size", int), ("bev_size", int),
                                ("world_origin", float))}
    for key, cast in _NUMBERS.items():
        if key in data:
            values[key] = _finite(data[key], f"field {key!r}", cast)
        elif key in _REQUIRED:
            raise InvalidSpec(f"missing field {key!r}")
    road_polygon = tuple(_pair(v, f"road_polygon[{i}]") for i, v
                         in enumerate(_spec_list(data, "road_polygon")))
    actors = tuple(_parse_actor(actor, f"actors[{i}]")
                   for i, actor in enumerate(_spec_list(data, "actors")))
    return ScenarioSpec(camera=camera, actors=actors,
                        road_polygon=road_polygon, **values)


def load_scenario(path) -> ScenarioSpec:
    try:
        data = parse_json(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise InvalidSpec(f"cannot read scenario {path}: {exc}") from None
    return parse_scenario(data)


# --- ground truth geometry --------------------------------------------------

def world_to_bev_matrix(spec: ScenarioSpec) -> np.ndarray:
    """Affine world meters -> BEV pixels: scale 1/iota, shift by origin."""
    ox, oy = spec.world_origin
    s = 1.0 / spec.iota_m_per_px
    return np.array([[s, 0.0, -ox * s],
                     [0.0, s, -oy * s],
                     [0.0, 0.0, 1.0]])


def truth_homography(spec: ScenarioSpec) -> Homography:
    """The perspective->BEV map the calibration stage should recover."""
    h_wp = compose_from_camera(spec.camera)
    g = world_to_bev_matrix(spec) @ np.linalg.inv(h_wp.matrix)
    return Homography(g, source=PERSPECTIVE, target=BEV)


def _project(p: np.ndarray, x: float, y: float, z: float) -> tuple[float, float]:
    ph = p @ np.array([x, y, z, 1.0])
    if ph[2] <= _DEPTH_EPS:
        raise InvalidSpec(
            f"world point ({x:.2f}, {y:.2f}, {z:.2f}) projects behind "
            f"the camera")
    return (ph[0] / ph[2], ph[1] / ph[2])


def actor_bbox(p: np.ndarray, class_name: str,
               pos: tuple[float, float]) -> tuple[float, float, float, float]:
    """Synthesize a detector-style box for an actor at a world position.

    The bottom edge sits on the ground, the height comes from a nominal
    real height, and the width from the dimension prior's lateral extent.
    """
    x, y = pos
    h_real = NOMINAL_HEIGHT_M[class_name]
    half_w = DEFAULT_PRIORS[class_name].width_m / 2.0
    u0, v0 = _project(p, x, y, 0.0)
    _, v1 = _project(p, x, y, h_real)
    ul, _ = _project(p, x - half_w, y, 0.0)
    ur, _ = _project(p, x + half_w, y, 0.0)
    h_px = v0 - v1
    w_px = abs(ur - ul)
    if h_px <= 0 or w_px <= 0:
        raise InvalidSpec(
            f"degenerate projected box for {class_name} at ({x}, {y})")
    return (u0, v0 - h_px / 2.0, w_px, h_px)


def _probs_for(class_name: str) -> list[float]:
    other = (1.0 - _TRUE_PROB) / (len(CLASS_NAMES) - 1)
    probs = [other] * len(CLASS_NAMES)
    probs[CLASS_NAMES.index(class_name)] = _TRUE_PROB
    return probs


def generate_detections(spec: ScenarioSpec, seed: int):
    """Per-frame detections plus the realized visibility table.

    Returns (frames, visible) where frames is [(frame, DetectionGroup)],
    one pair per frame, and visible[actor][frame] says whether that actor
    emitted a detection.
    """
    p = projection_matrix(spec.camera)
    noise_rng = subsystem_rng(seed, "noise")
    drop_rng = subsystem_rng(seed, "dropout")
    flick_rng = subsystem_rng(seed, "flicker")
    visible = [[False] * spec.duration for _ in spec.actors]
    frames = []
    for frame in range(spec.duration):
        t = frame / spec.fps
        boxes, probs = [], []
        for i, actor in enumerate(spec.actors):
            if actor.hidden_at(frame):
                continue
            if spec.dropout > 0 and drop_rng.random() < spec.dropout:
                continue
            cx, cy, w, h = actor_bbox(p, actor.class_name, actor.position(t))
            if spec.noise_sigma_px > 0:
                cx += noise_rng.normal(0.0, spec.noise_sigma_px)
                cy += noise_rng.normal(0.0, spec.noise_sigma_px)
            reported = actor.class_name
            if actor.flicker > 0 and flick_rng.random() < actor.flicker:
                others = [c for c in CLASS_NAMES if c != actor.class_name]
                reported = others[int(flick_rng.integers(len(others)))]
            boxes.append((cx, cy, w, h))
            probs.append(_probs_for(reported))
            visible[i][frame] = True
        frames.append((frame, DetectionGroup(
            np.reshape(boxes, (-1, 4)), np.full(len(boxes), _TRUE_PROB),
            np.reshape(probs, (-1, len(CLASS_NAMES))))))
    return frames, visible


def generate_matches(spec: ScenarioSpec, seed: int):
    """Putative correspondences standing in for a feature matcher.

    Samples BEV points, maps them to camera pixels through the inverse of
    the truth homography, jitters the camera side, then replaces a
    configured fraction with gross outliers (30-200 px displacements).
    Returns (pairs, outlier_mask): pairs as ((cam_x, cam_y), (sat_x, sat_y)).
    """
    g = truth_homography(spec)
    g_inv = invert(g)
    rng = subsystem_rng(seed, "matches")
    bw, bh = spec.bev_size
    iw, ih = spec.image_size
    pairs = []
    attempts = 0
    limit = 1000 * max(spec.n_matches, 1)
    while len(pairs) < spec.n_matches:
        attempts += 1
        if attempts > limit:
            raise InvalidSpec(
                "cannot place correspondences: the BEV window barely "
                "overlaps the camera view")
        sat = np.array([rng.uniform(0, bw), rng.uniform(0, bh)])
        cam = apply_many(g_inv, sat[None, :])[0]
        if not (0 <= cam[0] < iw and 0 <= cam[1] < ih):
            continue
        if spec.match_sigma_px > 0:
            cam = cam + rng.normal(0.0, spec.match_sigma_px, size=2)
        pairs.append((tuple(cam), tuple(sat)))
    n_out = int(round(spec.outlier_fraction * spec.n_matches))
    mask = [False] * spec.n_matches
    if n_out:
        for idx in rng.choice(spec.n_matches, size=n_out, replace=False):
            angle = rng.uniform(0.0, 2.0 * math.pi)
            radius = rng.uniform(30.0, 200.0)
            (cx, cy), sat = pairs[idx]
            pairs[idx] = ((cx + radius * math.cos(angle),
                           cy + radius * math.sin(angle)), sat)
            mask[idx] = True
    return pairs, mask


def build_truth(spec: ScenarioSpec, visible) -> dict:
    g = truth_homography(spec)
    a = world_to_bev_matrix(spec)
    actors = []
    for i, actor in enumerate(spec.actors):
        pos_world, pos_bev, mps, mph, headings = [], [], [], [], []
        for frame in range(spec.duration):
            t = frame / spec.fps
            x, y = actor.position(t)
            vx, vy = actor.velocity(t)
            speed = math.hypot(vx, vy)
            pos_world.append([x, y])
            bev = a @ np.array([x, y, 1.0])
            pos_bev.append([bev[0], bev[1]])
            mps.append(speed)
            mph.append(speed * MPH_PER_MPS)
            if speed > 0:
                headings.append(wrap_angle(math.degrees(math.atan2(vy, vx))))
            else:
                headings.append(None)
        actors.append({
            "class": actor.class_name,
            "positions_world": pos_world,
            "positions_bev": pos_bev,
            "speeds_mps": mps,
            "speeds_mph": mph,
            "headings_deg": headings,
            "visible": visible[i],
        })
    return {
        "g": [[float(v) for v in row] for row in g.matrix],
        "iota_m_per_px": spec.iota_m_per_px,
        "fps": spec.fps,
        "duration": spec.duration,
        "image_size": list(spec.image_size),
        "bev_size": list(spec.bev_size),
        "world_origin": list(spec.world_origin),
        "actors": actors,
    }


# --- rendered artifacts -----------------------------------------------------

def _fill_polygon(shape: tuple[int, int], pts: np.ndarray) -> np.ndarray:
    """Even-odd polygon rasterization on a pixel grid."""
    h, w = shape
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    inside = np.zeros((h, w), dtype=bool)
    n = len(pts)
    for i in range(n):
        x0, y0 = pts[i]
        x1, y1 = pts[(i + 1) % n]
        if y0 == y1:
            continue
        crosses = (y0 <= yy) != (y1 <= yy)
        xin = x0 + (yy - y0) * (x1 - x0) / (y1 - y0)
        inside ^= crosses & (xx < xin)
    return inside


def render_satellite(spec: ScenarioSpec, seed: int) -> ImageBuffer:
    """A flat aerial reference: dark ground, brighter road, mild speckle.

    Speckle amplitude stays below half the default region-growing
    threshold so the road remains one region but the road/ground step
    does not leak.
    """
    bw, bh = spec.bev_size
    img = np.full((bh, bw), 40, dtype=np.int16)
    if spec.road_polygon:
        a = world_to_bev_matrix(spec)
        poly = np.array([(a @ np.array([x, y, 1.0]))[:2]
                         for x, y in spec.road_polygon])
        img[_fill_polygon((bh, bw), poly)] = 110
    rng = subsystem_rng(seed, "satellite")
    img += rng.integers(-5, 6, size=img.shape, dtype=np.int16)
    return ImageBuffer(np.clip(img, 0, 255).astype(np.uint8))


def render_frame(spec: ScenarioSpec, frame: int) -> ImageBuffer:
    """Camera-view frame: static gradient background, bright actor boxes."""
    iw, ih = spec.image_size
    p = projection_matrix(spec.camera)
    xs = np.linspace(0.0, 40.0, iw)[None, :]
    ys = np.linspace(0.0, 30.0, ih)[:, None]
    img = (60.0 + xs + ys)
    img = np.floor(img + 0.5).astype(np.uint8)
    t = frame / spec.fps
    for actor in spec.actors:
        if actor.hidden_at(frame):
            continue
        cx, cy, w, h = actor_bbox(p, actor.class_name, actor.position(t))
        x0 = max(int(math.floor(cx - w / 2)), 0)
        x1 = min(int(math.ceil(cx + w / 2)), iw)
        y0 = max(int(math.floor(cy - h / 2)), 0)
        y1 = min(int(math.ceil(cy + h / 2)), ih)
        if x0 < x1 and y0 < y1:
            img[y0:y1, x0:x1] = 220
    return ImageBuffer(img)


def run_simulate(spec: ScenarioSpec, out_dir, seed: int,
                 with_frames: bool = False) -> None:
    """Write all oracle artifacts for one scenario into `out_dir`; a scene
    that cannot be drawn is refused before anything is written."""
    frames, visible = generate_detections(spec, seed)
    if spec.n_matches > 0:
        pairs, mask = generate_matches(spec, seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_detections(out / "detections.jsonl", frames, fps=spec.fps)
    dump_json(build_truth(spec, visible), out / "truth.json")
    if spec.n_matches > 0:
        dump_json({
            "pairs": [{"cam": [c[0], c[1]], "sat": [s[0], s[1]]}
                      for c, s in pairs],
            "outlier_mask": mask,
            "sigma_px": spec.match_sigma_px,
        }, out / "matches.json")
    if spec.road_polygon:
        write_pnm(render_satellite(spec, seed), out / "satellite.pgm")
    if with_frames:
        frame_dir = out / "frames"
        frame_dir.mkdir(exist_ok=True)
        for frame in range(spec.duration):
            write_pnm(render_frame(spec, frame),
                      frame_dir / f"frame_{frame:04d}.pgm")
