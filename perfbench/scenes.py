"""Workload scenarios: scene specs, config files and command chains.

Each workload is built from a seed alone, so the same seed always gives the
same inputs.  The seed goes to `simulate --seed` and `calibrate --seed`; on
rush and survey it also jitters actor positions and timing slightly, which
changes the inputs without changing how much work they make.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

CAMERA = {"f": 800.0, "kx": 1.0, "ky": 1.0, "shear": 0.0,
          "cx": 320.0, "cy": 240.0, "theta_c": 45.0, "h_c": 10.0}
FPS = 25.0
HEAT_KINDS = ("pedestrian", "vehicle", "speeding", "congestion", "proximity")
WORKLOADS = ("desk", "rush", "survey")


def _scene(duration, actors, *, bev=(400, 300), iota=0.05, noise=0.5,
           dropout=0.0, n_matches=120, outliers=0.3, road=None) -> dict:
    """A 640x480 camera 10 m up, looking 45 degrees down onto a 20 x 15 m
    window at world x in [-10, 10], y in [10, 25]."""
    return {
        "camera": CAMERA,
        "image_size": [640, 480],
        "bev_size": list(bev),
        "iota_m_per_px": iota,
        "world_origin": [-10.0, 10.0],
        "fps": FPS,
        "duration": duration,
        "noise_sigma_px": noise,
        "dropout": dropout,
        "n_matches": n_matches,
        "match_sigma_px": 0.5,
        "outlier_fraction": outliers,
        "road_polygon": road or [[-9.0, 12.0], [9.0, 12.0],
                                 [9.0, 20.0], [-9.0, 20.0]],
        "actors": actors,
    }


def desk_scene(seed: int) -> tuple[dict, str]:
    """The 1000-frame, 10-actor timing scene of acceptance criterion 13."""
    actors = []
    for i in range(8):
        y = 11.5 + i * 1.6
        cls = ["car", "bus", "pickup_truck", "work_van"][i % 4]
        xs = (-9.0, 9.0) if i % 2 == 0 else (9.0, -9.0)
        actors.append({"class": cls,
                       "path": [[0.0, [xs[0], y]], [40.0, [xs[1], y]]]})
    for i in range(2):
        actors.append({"class": "pedestrian",
                       "path": [[0.0, [-5.0 + 10 * i, 24.0]],
                                [40.0, [5.0 - 10 * i, 24.0]]]})
    return _scene(1000, actors), ""


RUSH_FRAMES = 300


def _stop_and_go(x0: float, direction: float, speed: float,
                 starts: list[float], step_m: float) -> list:
    """Waypoints that advance `step_m` at `speed` from each start time and
    stand still in between."""
    path = [[0.0, [x0, None]]]
    x = x0
    for t in starts:
        path.append([t, [x, None]])
        x += direction * step_m
        path.append([t + step_m / speed, [x, None]])
    return path


def rush_scene(seed: int) -> tuple[dict, str]:
    """A dense stop-and-go queue: 8 vehicles in each of 5 lanes, 2.1 m
    apart, advancing 1.2 m at a time, the kerb lane halting by the border,
    and 10 pedestrians crossing between the lanes.  Dropout, hidden ranges
    and class flicker exercise births, deaths and predict-only frames."""
    rng = random.Random(seed)
    classes = ["car", "car", "pickup_truck", "work_van", "bus"]
    actors = []
    for lane in range(5):
        y = 12.5 + lane * 1.75
        speed = 1.2 + 0.3 * lane
        direction = 1.0 if lane % 2 == 0 else -1.0
        phase = rng.uniform(0.0, 1.0)
        starts = [phase + 3.5 * k for k in range(2 if lane == 0 else 3)]
        for k in range(8):
            x0 = direction * (-9.3 + 2.1 * k) + rng.uniform(-0.1, 0.1)
            path = _stop_and_go(x0, direction, speed, starts, 1.2)
            for node in path:
                node[1][1] = y
            actor = {"class": classes[(lane + k) % len(classes)],
                     "path": path}
            if k % 4 == 1:
                start = 40 + 37 * lane + rng.randrange(20)
                actor["hidden"] = [[start, start + 6]]
            if k % 3 == 2:
                actor["flicker"] = 0.1
            actors.append(actor)
    for i in range(10):
        x = -8.5 + 1.8 * i + rng.uniform(-0.2, 0.2)
        y0, y1 = (12.0, 20.0) if i % 2 == 0 else (20.0, 12.0)
        t0 = rng.uniform(0.0, 3.0)
        actors.append({"class": "pedestrian",
                       "path": [[t0, [x, y0]], [t0 + 7.0, [x, y1]]]})
    config = ("analytics.parking_duration_s = 2.0\n"
              "analytics.parking_speed_mph = 1.0\n"
              "speed_limit_mph = 4.0\n")
    road = [[-9.8, 12.0], [9.8, 12.0], [9.8, 20.0], [-9.8, 20.0]]
    return _scene(RUSH_FRAMES, actors, dropout=0.05, road=road), config


SURVEY_ROAD = [[-9.9, 12.0], [9.9, 12.0], [9.9, 16.0], [2.0, 16.0],
               [2.0, 24.5], [-2.0, 24.5], [-2.0, 16.0], [-9.9, 16.0]]


def survey_scene(seed: int) -> tuple[dict, str]:
    """Site set-up: a fine 800x600 aerial window over a T junction, 2000
    matches with 75% outliers, and a short 200-frame clip of 5 actors."""
    rng = random.Random(seed)
    j = [rng.uniform(-0.3, 0.3) for _ in range(5)]
    actors = [
        {"class": "car", "path": [[0.0, [-8.5, 13.0 + j[0]]],
                                  [6.0, [8.5, 13.0 + j[0]]]]},
        {"class": "bus", "path": [[0.0, [8.5, 15.0 + j[1]]],
                                  [8.0, [-8.5, 15.0 + j[1]]]]},
        {"class": "work_van", "path": [[0.0, [j[2], 23.5]],
                                       [5.0, [j[2], 14.5]],
                                       [8.0, [8.0, 14.5]]]},
        {"class": "car", "path": [[1.0, [-8.5, 14.0 + j[3]]],
                                  [8.0, [8.5, 14.0 + j[3]]]]},
        {"class": "pedestrian", "path": [[0.0, [-1.0 + j[4], 16.5]],
                                         [8.0, [1.0 + j[4], 23.5]]]},
    ]
    return _scene(200, actors, bev=(800, 600), iota=0.025, n_matches=2000,
                  outliers=0.75, road=SURVEY_ROAD), "iota_m_per_px = 0.025\n"


SCENES = {"desk": desk_scene, "rush": rush_scene, "survey": survey_scene}


@dataclass
class Step:
    """One command of the chain; `stage` names the metric it counts to."""

    stage: str
    argv: list[str]


@dataclass
class Workload:
    name: str
    seed: int
    root: Path
    frames: int
    sim_argv: list[str] = field(default_factory=list)
    steps: list[Step] = field(default_factory=list)

    @property
    def sim_dir(self) -> Path:
        return self.root / "sim"

    def simulate_argv(self, out: Path) -> list[str]:
        return self.sim_argv + ["--out", str(out)]


def build(name: str, seed: int, root: Path) -> Workload:
    """Write the scene and config under `root` and lay out the command
    chain calibrate -> track -> segment -> analyze (-> merge) -> render.

    Chain outputs go to `root / "out"`, which callers clear before each
    pass.
    """
    spec, config = SCENES[name](seed)
    root.mkdir(parents=True, exist_ok=True)
    (root / "scene.json").write_text(json.dumps(spec, indent=1))
    cfg_args = []
    if config:
        (root / "bench.cfg").write_text(config)
        cfg_args = ["--config", str(root / "bench.cfg")]
    survey = name == "survey"
    wl = Workload(name=name, seed=seed, root=root, frames=spec["duration"])
    sim, out = wl.sim_dir, root / "out"
    wl.sim_argv = ["simulate", "--spec", str(root / "scene.json"),
                   "--seed", str(seed)] + cfg_args
    if survey:
        wl.sim_argv.append("--frames")
    cal = out / "cal" / "calibration.json"
    calibrate = ["calibrate", "--matches", str(sim / "matches.json"),
                 "--satellite", str(sim / "satellite.pgm"),
                 "--out", str(out / "cal"), "--seed", str(seed)] + cfg_args
    if survey:
        calibrate += ["--frames-dir", str(sim / "frames"),
                      "--trajectories", str(root / "trajectories.jsonl"),
                      "--image-size", "640", "480"]
    tracks = str(out / "tracks.jsonl")
    steps = [
        Step("calibrate", calibrate),
        Step("track", ["track", "--detections", str(sim / "detections.jsonl"),
                       "--calibration", str(cal), "--out", tracks]
             + cfg_args),
        Step("segment", ["segment", "--tracks", tracks,
                         "--satellite", str(sim / "satellite.pgm"),
                         "--out", str(out / "road")] + cfg_args),
    ]
    analyze = ["analyze", "--tracks", tracks, "--calibration", str(cal),
               "--boundary", str(out / "road" / "boundary.json")] + cfg_args
    heat = out / "heat"
    if survey:
        half = wl.frames // 2
        shards = [(0, half - 1), (half, wl.frames - 1)]
        for i, (lo, hi) in enumerate(shards):
            steps.append(Step("analyze", analyze + [
                "--from-frame", str(lo), "--to-frame", str(hi),
                "--out", str(out / f"shard{i}")]))
        for kind in HEAT_KINDS:
            base = f"heat_{kind}.json"
            steps.append(Step("analyze", [
                "merge", str(out / "shard0" / base), str(out / "shard1" / base),
                "--out", str(heat / base)]))
    else:
        steps.append(Step("analyze", analyze + ["--out", str(heat)]))
    steps.append(Step("render", [
        "render", "--heat-dir", str(heat), "--calibration", str(cal),
        "--satellite", str(sim / "satellite.pgm"),
        "--out", str(out / "maps")] + cfg_args))
    wl.steps = steps
    return wl


def write_trajectories(sim_dir: Path, dest: Path) -> None:
    """Per-actor perspective trajectories for the lens fit, from the
    simulated detections.

    The simulator emits each frame's detections in actor order, skipping
    actors that are not visible, so truth's visibility table assigns every
    detection to its actor.  Points are box bottom-centers.
    """
    truth = json.loads((sim_dir / "truth.json").read_text())
    visible = [a["visible"] for a in truth["actors"]]
    by_frame: dict[int, list] = {}
    for line in (sim_dir / "detections.jsonl").read_text().splitlines():
        row = json.loads(line)
        by_frame.setdefault(row["frame"], []).append(row["bbox"])
    points: list[list] = [[] for _ in visible]
    for frame, boxes in sorted(by_frame.items()):
        owners = [i for i, vis in enumerate(visible) if vis[frame]]
        if len(owners) != len(boxes):
            raise ValueError(f"frame {frame}: {len(boxes)} detections for "
                             f"{len(owners)} visible actors")
        for i, (x, y, _, h) in zip(owners, boxes):
            points[i].append([x, y + h / 2.0])
    dest.write_text("".join(json.dumps({"points": p}) + "\n"
                            for p in points if len(p) >= 5))
