"""Command-line entry points.

Subcommands cover the whole pipeline: simulate (oracle scene), calibrate
(camera-to-aerial homography), track (detections to smoothed tracks),
segment (road mask from trajectories), analyze (states, stats, heat maps),
render (heat map images) and merge (combine sharded outputs).

Exit codes: 0 success, 1 runtime/numerical failure or a MemoryError, 2 bad
input, which includes paths that cannot be read, decoded as UTF-8 or
written, and grid sides above MAX_SIDE.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from dataclasses import replace
from pathlib import Path

# numpy's OpenBLAS starts worker threads as numpy loads, which costs more
# than a command's tiny products gain; the caller's own setting wins.  Set
# here, before any command imports numpy: `merge` and `--help` never do.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# Every command loads these and imports numpy and its other stages itself;
# motion is here as perfbench/tracer.py wraps it from sys.modules after
# this import.
from . import records
from .config import PEDESTRIAN, SIZE, Config, load_config
from .errors import (ConfigError, DegeneratePoint, EmptyHeatMap, InputError,
                     NonFiniteOutput, ProcessingError, SchemaError)
from .motion import BevKalmanState, abf, heading_of, kf_step, speed_mph
from .records import (dump_json, dump_track_rows, load_boundary,
                      load_calibration, load_detections, load_heatmap,
                      load_json, load_stats, load_tracks, merge_heatmaps,
                      merge_stats, save_boundary, save_heatmap, write_states,
                      write_stats, write_tracks)


def _config_from(args) -> Config:
    cfg = load_config(args.config) if args.config else Config()
    if getattr(args, "seed", None) is not None:
        try:
            cfg = replace(cfg, seed=args.seed)
        except ValueError as exc:
            raise ConfigError(f"--seed: {exc}") from None
    return cfg


def _check_size(flag: str, size) -> None:
    """Refuse a W H size flag unless it passes the rule for grid sides."""
    ok, rule = SIZE
    if size is not None and not ok(size):
        raise ConfigError(f"{flag} must be {rule}, got {size[0]} {size[1]}")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _out_file(args) -> Path:
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    return out


# --- simulate ---------------------------------------------------------------

def _cmd_simulate(args) -> int:
    from .simulate import load_scenario, run_simulate
    cfg = _config_from(args)
    spec = load_scenario(args.spec)
    run_simulate(spec, args.out, cfg.seed, with_frames=args.frames)
    print(f"simulate: wrote {args.out}")
    return 0


# --- calibrate --------------------------------------------------------------

def _xy(value) -> tuple[float, float]:
    """`value` as (x, y) if it is a list of two finite JSON numbers."""
    if not records.is_number_list(value, 2):
        raise ValueError("expected [x, y]")
    return float(value[0]), float(value[1])


# below it, the difference of any two match coordinates squares to a
# finite float
_MATCH_BOUND = 2.0 ** 510


def _load_matches(path):
    from .calibration import Correspondence
    from .geometry import PixelPoint
    data = load_json(path)
    if not isinstance(data, dict) or not isinstance(data.get("pairs"), list):
        raise SchemaError(f"{path}: matches need a 'pairs' list")
    out = []
    for i, pair in enumerate(data["pairs"]):
        try:
            cam, sat = _xy(pair["cam"]), _xy(pair["sat"])
        except (TypeError, KeyError, ValueError):
            raise SchemaError(
                f"{path}: pairs[{i}] must be "
                f"{{'cam': [x, y], 'sat': [x, y]}}") from None
        if max(map(abs, cam + sat)) >= _MATCH_BOUND:
            raise SchemaError(f"{path}: pairs[{i}] coordinates must be "
                              f"below 2**510 in magnitude")
        out.append(Correspondence(cam=PixelPoint.perspective(*cam),
                                  sat=PixelPoint.bev(*sat)))
    return out


def _load_trajectories(path):
    from .geometry import PixelPoint
    trajectories = []
    text = Path(path).read_text(encoding="utf-8")
    for lineno, row in records.json_rows(text):
        if "points" not in row:
            raise SchemaError(f"line {lineno}: expected {{'points': [...]}}")
        try:
            trajectories.append([PixelPoint.perspective(*_xy(p))
                                 for p in row["points"]])
        except (TypeError, ValueError):
            raise SchemaError(
                f"line {lineno}: points must be [x, y] pairs") from None
    return trajectories


def _cmd_calibrate(args) -> int:
    import numpy as np

    from .calibration import fit_distortion_es, ransac_homography
    from .geometry import apply_many
    from .imaging import (BackgroundAccumulator, accumulate_background,
                          histogram_match, read_pnm, to_gray, write_pnm)
    from .seeding import subsystem_seed
    if args.trajectories and not args.image_size:
        raise ConfigError("--trajectories needs --image-size W H")
    if args.image_size and not args.trajectories:
        raise ConfigError("--image-size needs --trajectories")
    _check_size("--image-size", args.image_size)
    _check_size("--bev-size", args.bev_size)
    if args.bev_size and args.satellite:
        raise ConfigError("--bev-size cannot go with --satellite, whose size "
                          "is the aerial window")
    cfg = _config_from(args)
    out = _out_dir(args)

    bev_size = None
    if args.satellite:
        sat = read_pnm(args.satellite)
        bev_size = [sat.width, sat.height]
    elif args.bev_size:
        bev_size = list(args.bev_size)

    distortion = None
    if args.trajectories:
        trajs = _load_trajectories(args.trajectories)
        dist = fit_distortion_es(trajs, tuple(args.image_size),
                                 seed=subsystem_seed(cfg.seed, "distortion"))
        distortion = {"k": list(dist.k), "center": list(dist.center),
                      "image_size": list(dist.image_size)}

    if args.frames_dir:
        files = sorted(Path(args.frames_dir).glob("*.pgm"))
        if not files:
            raise SchemaError(f"no .pgm frames in {args.frames_dir}")
        acc = BackgroundAccumulator(alpha=cfg.alpha)
        for path in files[:cfg.background_frames]:
            accumulate_background(acc, to_gray(read_pnm(path)))
        background = acc.background()
        del acc  # its two float64 frames are not needed past the fold
        write_pnm(background, out / "background.pgm")
        if args.satellite:
            matched, _ = histogram_match(background, to_gray(sat))
            write_pnm(matched, out / "background_matched.pgm")

    matches = _load_matches(args.matches)
    result = ransac_homography(matches, cfg.ransac,
                               rng_seed=subsystem_seed(cfg.seed, "ransac"))
    # at least 4: ransac_homography refuses a smaller consensus
    inliers = [m for m, keep in zip(matches, result.inlier_mask) if keep]
    d = (apply_many(result.h, [[m.cam.x, m.cam.y] for m in inliers])
         - [[m.sat.x, m.sat.y] for m in inliers])
    # numpy's pairwise summation over the inliers in match order
    rmse = float(np.mean(d[:, 0] ** 2 + d[:, 1] ** 2)) ** 0.5

    dump_json({
        "g": records.homography_to_json(result.h),
        "bev_size": bev_size,
        "iota_m_per_px": cfg.iota_m_per_px,
        "matches_total": len(matches),
        "inliers": int(result.votes),
        "inlier_ratio": result.votes / len(matches),
        "rmse_px": rmse,
        "iterations": result.iterations_run,
        "distortion": distortion,
    }, out / "calibration.json")
    print(f"calibrate: {result.votes}/{len(matches)} inliers, "
          f"rmse {rmse:.4f} px")
    return 0


# --- track ------------------------------------------------------------------

# about how many rows `track` maps, filters, lifts and spells at a time.  A
# block holds whole frames; the map and the lift are elementwise and the
# filters run row by row in file order, so a row comes out the same in a
# block of any size.
_BLOCK_ROWS = 4096


def _cmd_track(args) -> int:
    from .geometry import GroundScale
    from .tracking import MomctTracker
    cfg = _config_from(args)
    calib = load_calibration(args.calibration)
    scale = GroundScale(calib.get("iota_m_per_px") or cfg.iota_m_per_px)
    detections = load_detections(args.detections)

    out_path = _out_file(args)
    tracker = MomctTracker(iou_min=cfg.iou_min, max_age=cfg.max_age,
                           min_hits=cfg.min_hits,
                           objectness_min=cfg.objectness_min)
    motion = {}  # live track id -> (filter state, covariance, frame, heading)
    identities = n_rows = 0
    # only the rows' text outlives their block
    chunks = []
    for block in _frame_blocks(tracker, detections):
        known = len(motion)
        chunks.append(_track_rows(block, motion, calib["g"], scale, cfg))
        identities += len(motion) - known
        n_rows += len(block)
        # ids are never reused, so a track the tracker has dropped has no
        # rows to come
        for track_id in motion.keys() - {t.id for t in tracker.tracks}:
            del motion[track_id]
    write_tracks(out_path, chunks)
    print(f"track: {n_rows} track rows, {identities} identities")
    return 0


def _frame_blocks(tracker, detections):
    """Step `tracker` through the (frame, detections) groups and yield its
    confirmed snapshots as (frame, snapshot) rows, in blocks of whole
    frames of at least `_BLOCK_ROWS` rows but the last; at each yield the
    tracker stands at the block's last frame."""
    block = []
    for frame, dets in detections:
        block += [(frame, snap) for snap in tracker.step(dets, frame)]
        if len(block) >= _BLOCK_ROWS:
            yield block
            block = []
    if block:
        yield block


def _track_rows(block, motion, g, scale, cfg) -> str:
    """The text of a block's track rows.  Each row's reference point is
    mapped to BEV and folded into its track's filter in `motion`, and
    cuboids are lifted for the rows with a heading."""
    import numpy as np

    from .box3d import lift_cuboids
    from .geometry import apply_many, invert
    refs = np.array([snap.ref for _, snap in block])
    bevs = apply_many(g, refs)
    if np.isinf(bevs).any():  # the Kalman filters take finite points
        x, y = refs[np.isinf(bevs[:, 0])][0]
        raise DegeneratePoint(f"point ({x}, {y}) maps to infinity")
    t_w = 1.0 / cfg.fps
    states = []  # each row's filter state, checked once for the block
    rows = []  # `dump_track_rows` rows
    lifted = []  # (row, heading) of the rows that get a cuboid
    for (frame, snap), bev in zip(block, bevs.tolist()):
        if snap.track_id not in motion:
            kf = BevKalmanState.initial(*bev)
            x, p, theta = kf.x, kf.p, None
        else:
            last, p, seen, theta = motion[snap.track_id]
            x, p = kf_step(last, p, (frame - seen) * t_w, bev)
            raw = heading_of(x[0] - last[0], x[1] - last[1])
            if raw is not None:
                theta = raw if theta is None else abf(theta, raw)
        motion[snap.track_id] = (x, p, frame, theta)
        states.append(x)
        row = [frame, snap.track_id, snap.class_name, snap.bbox, snap.ref,
               x[:2], speed_mph(x, scale), theta, None]
        rows.append(row)
        if theta is None and snap.class_name == PEDESTRIAN:
            theta = 0.0
        if theta is not None:
            lifted.append((row, theta))
    # a state out of the float range stays out: the first such row overflowed
    finite = np.isfinite(states).all(axis=1)
    if not finite.all():
        frame, snap = block[int(finite.argmin())]
        raise NonFiniteOutput(f"frame {frame}: the BEV filter of track "
                              f"{snap.track_id} overflows")
    if lifted:
        owners, headings = zip(*lifted)
        cuboids = lift_cuboids(
            [row[5] for row in owners], [row[2] for row in owners], headings,
            [row[3] for row in owners], invert(g), cfg.priors, scale,
            beta=cfg.beta)
        for row, cuboid in zip(owners, cuboids.reshape(-1, 16).tolist()):
            row[8] = cuboid
    return dump_track_rows(rows)


# --- segment ----------------------------------------------------------------

def _cmd_segment(args) -> int:
    import numpy as np

    from .geometry import PixelPoint
    from .imaging import read_pnm, to_gray, write_pnm
    from .roadmodel import extract_boundary, refine_mask, srg_segment
    cfg = _config_from(args)
    table = load_tracks(args.tracks)
    satellite = to_gray(read_pnm(args.satellite))
    # each vehicle row's cell, rounded as `srg_segment` rounds a seed, once;
    # region growing does not depend on seed order
    cells = np.floor(table.xy[~table.pedestrian] + 0.5)
    h = satellite.height
    inside = ((cells >= 0) & (cells < (satellite.width, h))).all(axis=1)
    x, y = cells[inside].astype(np.int64).T
    keys = np.sort(x * h + y)  # in the order of the (x, y) pairs
    seeds = [PixelPoint.bev(*divmod(key, h))
             for key in keys[np.diff(keys, prepend=-1) != 0].tolist()]
    mask = srg_segment(satellite, seeds, cfg.srg)
    refined = refine_mask(mask)
    boundary = extract_boundary(refined)
    out = _out_dir(args)
    write_pnm(refined.to_image(), out / "road_mask.pgm")
    save_boundary(out / "boundary.json", boundary)
    print(f"segment: {int(refined.pixels.sum())} road px, "
          f"{len(boundary.chains)} boundary chains")
    return 0


# --- analyze ----------------------------------------------------------------

def _cmd_analyze(args) -> int:
    import numpy as np

    from .analytics import (HEAT_KINDS, FrameTracks, StateClassifier,
                            StateSets, frame_stats, make_heatmaps,
                            update_heatmaps)
    from .geometry import GroundScale
    for flag, frame in (("--from-frame", args.from_frame),
                        ("--to-frame", args.to_frame)):
        if frame is not None and frame < 0:
            # no detections or tracks file holds a negative frame
            raise ConfigError(f"{flag} must be >= 0, got {frame}")
    if None not in (args.from_frame, args.to_frame) \
            and args.to_frame < args.from_frame:
        raise ConfigError(f"--to-frame must be >= --from-frame "
                          f"({args.from_frame}), got {args.to_frame}")
    cfg = _config_from(args)
    calib = load_calibration(args.calibration)
    scale = GroundScale(calib.get("iota_m_per_px") or cfg.iota_m_per_px)
    if calib.get("bev_size") is None:
        raise ConfigError(f"{args.calibration}: no bev_size, which calibrate "
                          f"records from --satellite or --bev-size")
    w, h = calib["bev_size"]
    table = load_tracks(args.tracks)
    boundary = load_boundary(args.boundary) if args.boundary else None

    start = args.from_frame if args.from_frame is not None else 0
    if args.to_frame is not None:
        stop = args.to_frame
    else:
        stop = int(table.frame[-1]) if len(table) else start - 1

    # frames never decrease, so the range's rows are one slice, and so are
    # those of each frame that has any; a negative speed is clamped to 0
    rows = slice(np.searchsorted(table.frame, start),
                 np.searchsorted(table.frame, stop, side="right"))
    row_frames, speed = table.frame[rows], table.speed_mph[rows]
    tracks = FrameTracks(table.ids[rows], table.pedestrian[rows],
                         table.xy[rows], np.where(speed < 0.0, 0.0, speed))
    classifier = StateClassifier(boundary, scale, cfg.analytics, cfg.fps)
    maps = make_heatmaps((h, w))
    stats = []
    frame_states = []
    firsts = np.flatnonzero(np.diff(row_frames, prepend=-1)).tolist()
    for first, end in zip(firsts, firsts[1:] + [len(row_frames)]):
        part = FrameTracks(*(column[first:end] for column in tracks))
        states = classifier.step(int(row_frames[first]), part)
        stats.append(frame_stats(states.frame, part, states))
        frame_states.append(states)
    if frame_states:
        # deposits are integer adds, which commute, so one call over all
        # the range's rows, with their states joined, fills the maps as one
        # call per frame would
        masks = ("ids", "parking", "speeding", "collision_risk", "congestion")
        update_heatmaps(maps, tracks, StateSets(stop, *(
            np.concatenate([getattr(s, mask) for s in frame_states])
            for mask in masks)))

    out = _out_dir(args)
    write_stats(out / "stats.csv", stats)
    write_states(out / "states.jsonl", frame_states)
    for kind in HEAT_KINDS:
        save_heatmap(out / f"heat_{kind}.json", maps[kind])
    print(f"analyze: frames {start}..{stop}, "
          + ", ".join(f"{kind}={maps[kind].events}" for kind in HEAT_KINDS))
    return 0


# --- render -----------------------------------------------------------------

def _cmd_render(args) -> int:
    from .analytics import HEAT_KINDS, perspective_sample, render
    from .geometry import invert
    from .imaging import read_pnm, to_gray, write_pnm
    if args.perspective_base and not args.calibration:
        raise ConfigError("--perspective-base needs --calibration")
    cfg = _config_from(args)
    heat_dir = Path(args.heat_dir)
    if not heat_dir.is_dir():
        raise ConfigError(f"--heat-dir {heat_dir} is not a directory")
    base = to_gray(read_pnm(args.satellite)) if args.satellite else None
    persp_base = read_pnm(args.perspective_base) \
        if args.perspective_base else None
    h_inv = None
    if args.calibration:
        calib = load_calibration(args.calibration)
        h_inv = invert(calib["g"])

    out = _out_dir(args)
    written = 0
    samples = {}  # map shape -> where the camera view samples such a map
    for kind in HEAT_KINDS:
        # the last map and its images are freed before the next map is read
        heat = img = img_p = None
        path = heat_dir / f"heat_{kind}.json"
        if not path.exists():
            print(f"render: note: {kind}: no heat map file, skipped")
            continue
        heat = load_heatmap(path)
        try:
            img = render(heat, base=base, floor=cfg.render_floor,
                         alpha=cfg.render_alpha)
        except EmptyHeatMap:
            print(f"render: note: {kind}: EmptyHeatMap, skipped")
            continue
        write_pnm(img, out / f"heat_{kind}_bev.ppm")
        written += 1
        if h_inv is not None:
            if heat.shape not in samples:
                view = (persp_base.pixels.shape[:2] if persp_base is not None
                        else heat.shape)
                samples[heat.shape] = perspective_sample(h_inv, view,
                                                         heat.shape)
            img_p = render(heat, base=persp_base, sample=samples[heat.shape],
                           floor=cfg.render_floor, alpha=cfg.render_alpha)
            write_pnm(img_p, out / f"heat_{kind}_perspective.ppm")
    print(f"render: wrote {written} map(s)")
    return 0


# --- merge ------------------------------------------------------------------

def _cmd_merge(args) -> int:
    _config_from(args)  # no tunables: this only refuses a bad --config
    paths = [Path(p) for p in args.inputs]
    suffixes = {p.suffix for p in paths}
    if suffixes == {".json"}:
        merged = merge_heatmaps(paths)
        save_heatmap(_out_file(args), merged)
        print(f"merge: {len(paths)} heat shards -> {args.out} "
              f"({merged.events} events)")
    elif suffixes == {".csv"}:
        merged_stats = merge_stats([load_stats(p) for p in paths])
        write_stats(_out_file(args), merged_stats)
        print(f"merge: {len(paths)} stats shards -> {args.out} "
              f"({len(merged_stats)} frames)")
    else:
        raise ConfigError("merge inputs must be all .json heat maps or "
                          "all .csv stats")
    return 0


# --- parser -----------------------------------------------------------------

def _add_common(sub, seed=False):
    sub.add_argument("--config", help="flat key=value config file")
    if seed:
        sub.add_argument("--seed", type=int, default=None,
                         help="run seed (overrides config)")
    sub.add_argument("--out", required=True, help="output path")


class _Parser(argparse.ArgumentParser):
    """Raises an argument error as a ConfigError instead of printing the
    usage and exiting, and an unwritable --help as the OSError it is."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")

    def _print_message(self, message, file=None):
        (file or sys.stderr).write(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="roadscene",
        description="Traffic-scene geometry and analytics over a "
                    "calibrated aerial view.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("simulate", help="generate a synthetic scene")
    p.add_argument("--spec", required=True, help="scenario JSON")
    p.add_argument("--frames", action="store_true",
                   help="also write per-frame PGM images")
    _add_common(p, seed=True)
    p.set_defaults(func=_cmd_simulate)

    p = subs.add_parser("calibrate", help="estimate the aerial homography")
    p.add_argument("--matches", required=True,
                   help="matches JSON (cam/sat pixel pairs)")
    p.add_argument("--trajectories",
                   help="JSON Lines of perspective trajectories for "
                        "distortion fitting")
    p.add_argument("--image-size", type=int, nargs=2, metavar=("W", "H"),
                   help="camera image size (needed with --trajectories)")
    p.add_argument("--frames-dir", help="PGM frames for background "
                                        "extraction")
    p.add_argument("--satellite", help="aerial reference image (PGM/PPM)")
    p.add_argument("--bev-size", type=int, nargs=2, metavar=("W", "H"),
                   help="aerial window size (without --satellite)")
    _add_common(p, seed=True)
    p.set_defaults(func=_cmd_calibrate)

    p = subs.add_parser("track", help="run the tracker over detections")
    p.add_argument("--detections", required=True, help="detections JSONL")
    p.add_argument("--calibration", required=True, help="calibration JSON")
    _add_common(p)
    p.set_defaults(func=_cmd_track)

    p = subs.add_parser("segment", help="grow the road mask from tracks")
    p.add_argument("--tracks", required=True, help="tracks JSONL")
    p.add_argument("--satellite", required=True, help="aerial image")
    _add_common(p)
    p.set_defaults(func=_cmd_segment)

    p = subs.add_parser("analyze", help="per-frame states, stats, heat maps")
    p.add_argument("--tracks", required=True, help="tracks JSONL")
    p.add_argument("--calibration", required=True, help="calibration JSON")
    p.add_argument("--boundary", help="road boundary JSON (enables parking)")
    p.add_argument("--from-frame", type=int, default=None)
    p.add_argument("--to-frame", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_analyze)

    p = subs.add_parser("render", help="render heat maps to PPM images")
    p.add_argument("--heat-dir", required=True,
                   help="directory with heat_*.json")
    p.add_argument("--calibration",
                   help="calibration JSON (enables perspective renders)")
    p.add_argument("--satellite", help="aerial base image to blend over")
    p.add_argument("--perspective-base",
                   help="camera-view base image to blend over")
    _add_common(p)
    p.set_defaults(func=_cmd_render)

    p = subs.add_parser("merge", help="merge sharded heat maps or stats")
    p.add_argument("inputs", nargs="+", help="shard files (.json or .csv)")
    _add_common(p)
    p.set_defaults(func=_cmd_merge)

    return parser


def _fail(exc: Exception, code: int) -> int:
    print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (InputError, OSError, UnicodeDecodeError) as exc:
        return _fail(exc, 2)
    except ProcessingError as exc:
        return _fail(exc, 1)
    except MemoryError as exc:  # numpy's is a subclass with a private name
        return _fail(MemoryError(str(exc)), 1)


def run() -> None:
    """Process entry: `main`, its output flushed, no interpreter teardown."""
    gc.disable()  # a command makes few cycles, and its exit frees all
    try:
        code = main()
    except SystemExit as exc:  # argparse's --help, printed but not flushed
        code = exc.code
    try:
        sys.stdout.flush()
    except OSError as exc:  # closed by its reader: as an unwritable --out
        code = code or _fail(exc, 2)
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
