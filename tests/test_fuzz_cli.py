"""Hostile input through every command: the exit-code contract holds.

Each case runs `cli.main` in-process over a small valid chain with one input
file replaced, either by arbitrary bytes or by a mutation of the valid file
(a JSON node swapped for an odd value or dropped, a row or line replaced, a
PNM header field changed).  The property: the exit code is 0, 1 or 2, no
exception escapes, no numpy warning is issued, and a nonzero exit prints
exactly one `error:` line.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scene_helpers import scene_dict

import roadscene
from roadscene.cli import main

_CONFIG = ("seed = 3\nfps = 25\nransac.tau = 3.0\nsrg.tau_alpha = 12\n"
           "speed_limit_mph = 4\nanalytics.parking_duration_s = 0.2\n"
           "prior.car = 4.5 1.8\n")


def _run(argv: list[str]) -> None:
    assert main(argv) == 0, argv


@pytest.fixture(scope="module")
def chain(tmp_path_factory) -> dict[str, Path]:
    """Valid inputs for every command, from one short simulated scene."""
    root = tmp_path_factory.mktemp("fuzz")
    scene = root / "scene.json"
    scene.write_text(json.dumps(scene_dict(
        duration=24, n_matches=40, match_sigma=0.3, outliers=0.2,
        iota=0.25, bev=(80, 60), actors=[
            {"class": "car",
             "path": [[0.0, [-8.0, 14.0]], [1.0, [8.0, 14.0]]]},
            {"class": "pedestrian",
             "path": [[0.0, [0.0, 12.5]], [1.0, [1.0, 12.5]]]},
        ])))
    sim, cal, road, an = (root / d for d in ("sim", "cal", "road", "an"))
    config = root / "run.cfg"
    config.write_text(_CONFIG)
    _run(["simulate", "--spec", str(scene), "--frames", "--out", str(sim),
          "--config", str(config)])
    frame = root / "frames" / "0000.pgm"
    frame.parent.mkdir()
    shutil.copy(sim / "frames" / "frame_0000.pgm", frame)
    trajectories = root / "trajectories.jsonl"
    trajectories.write_text(json.dumps(
        {"points": [[100 + 9 * i, 300 - 2 * i] for i in range(8)]}) + "\n")
    _run(["calibrate", "--matches", str(sim / "matches.json"),
          "--satellite", str(sim / "satellite.pgm"), "--out", str(cal)])
    tracks = root / "tracks.jsonl"
    _run(["track", "--detections", str(sim / "detections.jsonl"),
          "--calibration", str(cal / "calibration.json"),
          "--out", str(tracks)])
    _run(["segment", "--tracks", str(tracks),
          "--satellite", str(sim / "satellite.pgm"), "--out", str(road)])
    _run(["analyze", "--tracks", str(tracks),
          "--calibration", str(cal / "calibration.json"),
          "--boundary", str(road / "boundary.json"), "--out", str(an),
          "--config", str(config)])
    return {"scene": scene, "config": config, "matches": sim / "matches.json",
            "satellite": sim / "satellite.pgm", "frame": frame,
            "trajectories": trajectories,
            "detections": sim / "detections.jsonl",
            "calibration": cal / "calibration.json", "tracks": tracks,
            "boundary": road / "boundary.json",
            "heat": an / "heat_vehicle.json", "stats": an / "stats.csv",
            "perspective": frame}


def _argv(command: str, p: dict[str, Path], out: Path) -> list[str]:
    """The command line of `command` over the input files in `p`."""
    out = str(out)
    return {
        "simulate": ["simulate", "--spec", p["scene"], "--config",
                     p["config"], "--out", out],
        "calibrate": ["calibrate", "--matches", p["matches"], "--satellite",
                      p["satellite"], "--frames-dir", p["frame"].parent,
                      "--trajectories", p["trajectories"], "--image-size",
                      "640", "480", "--out", out],
        "track": ["track", "--detections", p["detections"], "--calibration",
                  p["calibration"], "--config", p["config"],
                  "--out", out + "/tracks.jsonl"],
        "segment": ["segment", "--tracks", p["tracks"], "--satellite",
                    p["satellite"], "--out", out],
        "analyze": ["analyze", "--tracks", p["tracks"], "--calibration",
                    p["calibration"], "--boundary", p["boundary"],
                    "--config", p["config"], "--out", out],
        "render": ["render", "--heat-dir", p["heat"].parent, "--calibration",
                   p["calibration"], "--satellite", p["satellite"],
                   "--perspective-base", p["perspective"], "--out", out],
        "merge-heat": ["merge", p["heat"], p["heat"], "--out",
                       out + "/heat_vehicle.json"],
        "merge-stats": ["merge", p["stats"], p["stats"], "--out",
                        out + "/stats.csv"],
    }[command]


# (command, the input slot that gets hostile bytes)
CASES = [
    ("simulate", "scene"), ("simulate", "config"),
    ("calibrate", "matches"), ("calibrate", "satellite"),
    ("calibrate", "frame"), ("calibrate", "trajectories"),
    ("track", "detections"), ("track", "calibration"), ("track", "config"),
    ("segment", "tracks"), ("segment", "satellite"),
    ("analyze", "tracks"), ("analyze", "calibration"),
    ("analyze", "boundary"), ("analyze", "config"),
    ("render", "heat"), ("render", "calibration"), ("render", "satellite"),
    ("render", "perspective"),
    ("merge-heat", "heat"), ("merge-stats", "stats"),
]
_IDS = [f"{c}-{s}" for c, s in CASES]


def check_contract(chain, command: str, slot: str, data: bytes) -> int:
    """Run `command` with `slot` replaced by `data`; assert the contract and
    return the exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        hostile = tmp / "in" / chain[slot].name
        hostile.parent.mkdir()
        hostile.write_bytes(data)
        paths = dict(chain, **{slot: hostile})
        argv = [str(a) for a in _argv(command, paths, tmp / "out")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()), \
                warnings.catch_warnings():
            # outside pytest a numpy warning would reach stderr, besides
            # the one error: line; here it escapes as an exception
            warnings.simplefilter("error", RuntimeWarning)
            code = main(argv)
    assert code in (0, 1, 2)
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return code


# --- mutations --------------------------------------------------------------

# raw JSON tokens that json.dumps never writes for a Python value
_RAW_TOKENS = ["1e400", "-1e400", "NaN", "Infinity", "-0", "1E-400"]
_MARK = "\u0000raw"

_ODD_VALUES = st.one_of(
    st.none(), st.booleans(),
    st.sampled_from([0, -1, 1, 2, 3, 10 ** 30, -(10 ** 400), 0.5, -0.5]),
    st.integers(-10 ** 6, 10 ** 6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4), st.just([]), st.just({}),
    st.lists(st.integers(-5, 500), min_size=1, max_size=4),
    st.sampled_from([_MARK + str(i) for i in range(len(_RAW_TOKENS))]),
)


def _nodes(doc, path=()):
    """Every (path, node) of a JSON document, root first."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _mutate_json(draw, doc):
    for _ in range(draw(st.integers(1, 3))):
        nodes = list(_nodes(doc))
        path, _ = nodes[draw(st.integers(0, len(nodes) - 1))]
        if not path:
            doc = draw(_ODD_VALUES)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(_ODD_VALUES)
    text = json.dumps(doc)
    for i, token in enumerate(_RAW_TOKENS):
        text = text.replace(json.dumps(_MARK + str(i)), token)
    return text


def _mutate_lines(draw, text, row):
    lines = text.splitlines() or [""]
    i = draw(st.integers(0, len(lines) - 1))
    action = draw(st.sampled_from(["row", "drop", "repeat", "text"]))
    if action == "row":
        lines[i] = row(lines[i])
    elif action == "drop":
        del lines[i]
    elif action == "repeat":
        lines.insert(0, lines[i])
    else:
        lines[i] = draw(st.text(max_size=20))
    return "\n".join(lines) + "\n"


def _mutate_pnm(draw, data: bytes) -> bytes:
    header = data.split(b"\n", 3)  # magic, "w h", maxval, raster
    part = draw(st.integers(0, 3))
    if part == 3:
        header[3] = header[3][:draw(st.integers(0, len(header[3])))]
    else:
        header[part] = draw(st.sampled_from(
            [b"P5", b"P6", b"P3", b"", b"0 0", b"1 1", b"-3 4", b"4 999999",
             b"65536", b"255", b"x", b"2 2 255"]))
    return b"\n".join(header)


_JSON_SLOTS = {"scene", "matches", "calibration", "boundary", "heat"}
_JSONL_SLOTS = {"detections", "tracks", "trajectories"}
_PNM_SLOTS = {"satellite", "frame", "perspective"}
_ODD_TOKENS = st.sampled_from(["nan", "inf", "-1", "0", "1e400", "abc", "",
                               "1" * 400, "0.5", "300", "x y"])


@st.composite
def mutated(draw, chain, slot):
    data = chain[slot].read_bytes()
    if slot in _PNM_SLOTS:
        return _mutate_pnm(draw, data)
    text = data.decode("utf-8")
    if slot in _JSON_SLOTS:
        return _mutate_json(draw, json.loads(text)).encode()

    def row(line: str) -> str:
        if slot in _JSONL_SLOTS:
            return _mutate_json(draw, json.loads(line))
        # config and stats lines: an odd value after the key or the frame
        odd = draw(_ODD_TOKENS)
        if "=" in line:
            return line.partition("=")[0] + "= " + odd
        fields = line.split(",")
        return ",".join([fields[0], odd] + fields[2:])

    return _mutate_lines(draw, text, row).encode()


_FUZZ = settings(max_examples=12, deadline=None, derandomize=True,
                 database=None,
                 suppress_health_check=[HealthCheck.too_slow])


@pytest.mark.parametrize("command, slot", CASES, ids=_IDS)
@_FUZZ
@given(data=st.binary(max_size=64))
def test_arbitrary_bytes_keep_the_exit_contract(chain, command, slot, data):
    check_contract(chain, command, slot, data)


@pytest.mark.parametrize("command, slot", CASES, ids=_IDS)
@_FUZZ
@given(st.data())
def test_mutated_input_keeps_the_exit_contract(chain, command, slot, data):
    check_contract(chain, command, slot, data.draw(mutated(chain, slot)))


def _swap_number(draw, doc) -> str:
    """`doc` with one coordinate, drawn from its `pairs` or `points`,
    replaced by its decimal string or by a bool, as JSON."""
    nodes = [path for path, node in _nodes(doc)
             if path[:1] in (("pairs",), ("points",))
             and type(node) in (int, float)]
    path = nodes[draw(st.integers(0, len(nodes) - 1))]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = draw(st.sampled_from(
        [str(parent[path[-1]]), True, False]))
    return json.dumps(doc)


@pytest.mark.parametrize("slot", ["matches", "trajectories"])
@_FUZZ
@given(st.data())
def test_coordinate_as_string_or_bool_exits_2(chain, slot, data):
    doc = json.loads(chain[slot].read_text())
    text = _swap_number(data.draw, doc) + "\n"
    assert check_contract(chain, "calibrate", slot, text.encode()) == 2


def test_satellite_maxval_without_whitespace_exits_2(chain, tmp_path):
    # a comment may not start right after the maxval: one whitespace byte
    # must, and the raster follows it
    satellite = tmp_path / "satellite.pgm"
    satellite.write_bytes(b"P5\n80 60\n255#" + bytes(80 * 60))
    argv = _argv("segment", dict(chain, satellite=satellite), tmp_path / "out")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main([str(a) for a in argv])
    assert (code, err.getvalue()) == (
        2, f"error: SchemaError: {satellite}: missing whitespace after "
           f"maxval\n")
    assert not (tmp_path / "out").exists()


def test_truncated_frame_is_named(chain, tmp_path):
    # one frame cut to 100 bytes among whole ones: the error line names it
    frames = tmp_path / "frames"
    frames.mkdir()
    whole = chain["frame"].read_bytes()
    for i in range(5):
        (frames / f"{i:04d}.pgm").write_bytes(whole)
    cut = frames / "0002.pgm"
    cut.write_bytes(whole[:100])
    raster = 100 - whole.index(b"255\n") - 4
    argv = _argv("calibrate", dict(chain, frame=cut), tmp_path / "out")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main([str(a) for a in argv])
    assert (code, err.getvalue()) == (
        2, f"error: SchemaError: {cut}: raster holds {raster} bytes, header "
           f"promises {640 * 480}\n")


# the heat map in spellings other than `save_heatmap`'s
_RESPELLED = {
    "spaces": json.dumps,
    "indent": lambda doc: json.dumps(doc, sort_keys=True, indent=1),
    "key-order": lambda doc: json.dumps(dict(reversed(doc.items())),
                                        separators=(",", ":")),
}


@pytest.mark.parametrize("spelling", _RESPELLED)
@pytest.mark.parametrize("command", ["merge-heat", "render"])
def test_respelled_heat_map_exits_2_with_one_line(chain, tmp_path, command,
                                                  spelling):
    heat = tmp_path / "in" / "heat_vehicle.json"
    heat.parent.mkdir()
    heat.write_text(_RESPELLED[spelling](json.loads(chain["heat"].read_text()))
                    + "\n")
    argv = _argv(command, dict(chain, heat=heat), tmp_path / "out")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main([str(a) for a in argv])
    assert code == 2
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith(
        f"error: SchemaError: {heat}: not a heat map as save_heatmap "
        f"writes it: "), lines


# --- flags refused before anything is read or written ----------------------

def _without(argv: list, flag: str, values: int) -> list:
    """`argv` with `flag` and the `values` arguments after it dropped."""
    at = argv.index(flag)
    return argv[:at] + argv[at + 1 + values:]


# (command, how its valid command line is changed): each change sets a flag
# out of range, one without the flag it needs or with one it cannot go with,
# or one the command does not take, or leaves out a required flag
FLAG_CASES = [
    *(pytest.param(command, lambda argv: argv + ["--seed", "-1"],
                   id=f"{command}-seed--1")
      for command in ("simulate", "calibrate")),
    # these draw no random numbers, so they take no --seed
    *(pytest.param(command, lambda argv: argv + ["--seed", "-1"],
                   id=f"{command}-unknown-flag-seed")
      for command in ("track", "segment", "analyze", "render")),
    pytest.param("track", lambda argv: argv + ["--bogus", "1"],
                 id="track-unknown-flag-bogus"),
    pytest.param("segment", lambda argv: _without(argv, "--satellite", 1),
                 id="segment-without-required-satellite"),
    pytest.param("analyze", lambda argv: argv + ["--from-frame", "x"],
                 id="analyze-from-frame-not-an-integer"),
    pytest.param("calibrate", lambda argv: argv + ["--bev-size", "7", "9"],
                 id="calibrate-bev-size-with-satellite"),
    # calibrate refuses the sides; analyze takes no --bev-size at all, as
    # its grid is the one calibration.json records
    *(pytest.param(command, lambda argv, size=size: argv + ["--bev-size",
                                                            *size],
                   id=f"{command}-bev-size-{'_'.join(size)}")
      for command in ("calibrate", "analyze")
      for size in (("0", "5"), ("-4", "0"), ("16777217", "1"))),
    *(pytest.param("calibrate", lambda argv, size=size: argv + [
        "--image-size", *size], id=f"calibrate-image-size-{'_'.join(size)}")
      for size in (("0", "1"), ("640", "16777217"))),
    pytest.param("render", lambda argv: _without(argv, "--calibration", 1),
                 id="render-perspective-base-without-calibration"),
    pytest.param("calibrate", lambda argv: _without(argv, "--trajectories", 1),
                 id="calibrate-image-size-without-trajectories"),
    pytest.param("calibrate", lambda argv: _without(argv, "--image-size", 2),
                 id="calibrate-trajectories-without-image-size"),
]


@pytest.mark.parametrize("command, change", FLAG_CASES)
def test_refused_flag_exits_2_with_one_config_error(chain, tmp_path,
                                                    command, change):
    out = tmp_path / "out"
    argv = change([str(a) for a in _argv(command, chain, out)])
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code == 2
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ConfigError: "), \
        lines
    assert not out.exists()


# --- grids too large for numpy or for memory ---------------------------------

# (command, flags added or scene fields changed, exit code, error line start):
# a side above MAX_SIDE is refused before anything is built; a grid of
# allowed sides that memory cannot hold fails as MemoryError.  The analyze
# flags go to a calibrate run before it, which records the grid analyze
# builds.
OVERSIZED = [
    pytest.param("analyze", ["--bev-size", "4000000000", "4000000000"], 2,
                 "ConfigError: --bev-size must be two sides in [1, 16777216], "
                 "got 4000000000 4000000000", id="analyze-bev-size-4e9"),
    pytest.param("analyze", ["--bev-size", "100000000000000", "2"], 2,
                 "ConfigError: --bev-size must be two sides in [1, 16777216], "
                 "got 100000000000000 2", id="analyze-bev-size-1e14"),
    # numpy's MemoryError is a subclass with a private name
    pytest.param("analyze", ["--bev-size", "16777216", "16777216"], 1,
                 "MemoryError: Unable to allocate ",
                 id="analyze-bev-size-at-the-bound"),
    pytest.param("simulate", {"bev_size": [10 ** 12, 300]}, 2,
                 "InvalidSpec: bev_size must be two sides in [1, 16777216], "
                 "got (1000000000000, 300)", id="simulate-bev-size-1e12"),
    pytest.param("simulate", {"image_size": [10 ** 12, 480]}, 2,
                 "InvalidSpec: image_size must be two sides in [1, 16777216], "
                 "got (1000000000000, 480)", id="simulate-frames-image-size"),
    pytest.param("simulate", {"duration": 10 ** 15}, 1, "MemoryError: ",
                 id="simulate-duration-1e15"),
    # frames are numbered below 2**63, as in the row files
    pytest.param("simulate", {"duration": 10 ** 30}, 2,
                 "InvalidSpec: duration must be in [1, 2**63), got "
                 f"{10 ** 30}", id="simulate-duration-1e30"),
]


@pytest.mark.parametrize("command, change, code, error", OVERSIZED)
def test_oversized_grid_ends_with_one_error_line(chain, tmp_path, command,
                                                 change, code, error):
    paths, flags, argvs = dict(chain), change, []
    if command == "simulate":
        scene = dict(json.loads(chain["scene"].read_text()), **change)
        paths["scene"] = tmp_path / "scene.json"
        paths["scene"].write_text(json.dumps(scene))
        flags = ["--frames"]
    else:
        argvs.append(["calibrate", "--matches", chain["matches"],
                      "--out", tmp_path / "cal", *flags])
        paths["calibration"] = tmp_path / "cal" / "calibration.json"
        flags = []
    argvs.append(_argv(command, paths, tmp_path / "out") + flags)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        for argv in argvs:
            got = main([str(a) for a in argv])
            if got:
                break
    assert got == code
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: " + error), lines


# --- inputs that once printed numpy warnings --------------------------------

def _run_uncaptured(argv: list) -> tuple[int, str]:
    """Exit code and stderr of the command in a fresh interpreter, where
    warnings go to stderr as they would for a user."""
    src = str(Path(roadscene.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "roadscene.cli"] + [str(a) for a in argv],
        env=env, capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("g, code", [
    ([[1e300, 0, 0], [0, 1e300, 0], [0, 0, 1]], 2),  # the norm overflows
    ([[1, 0, 0], [0, 1, 0], [0.01, 0, -0.3]], 0),  # grid sent to infinity
])
def test_render_extreme_calibration_prints_no_warning(chain, tmp_path, g,
                                                      code):
    calib = json.loads(chain["calibration"].read_text())
    calib["g"] = g
    (tmp_path / "calibration.json").write_text(json.dumps(calib))
    paths = dict(chain, calibration=tmp_path / "calibration.json")
    got, stderr = _run_uncaptured(_argv("render", paths, tmp_path / "out"))
    assert got == code
    lines = stderr.splitlines()
    assert len(lines) == (1 if code else 0)
    assert all(line.startswith("error: ") for line in lines)


def test_calibrate_far_trajectories_exit_2_without_warning(chain, tmp_path):
    trajectories = tmp_path / "trajectories.jsonl"
    trajectories.write_text(json.dumps({"points": [
        [1e200 + 9e190 * i, 3e200 - 2e190 * i] for i in range(8)]}) + "\n")
    paths = dict(chain, trajectories=trajectories)
    code, stderr = _run_uncaptured(_argv("calibrate", paths, tmp_path / "out"))
    assert (code, stderr) == (
        2, "error: InputError: trajectory points lie too far out to score, "
           "even without distortion\n")


# the tracker's area times aspect, its area, or its aspect overflowed
@pytest.mark.parametrize("box", [[50, 50, 1e155, 2], [50, 50, 3e154, 3e154],
                                 [50, 50, 1e9, 1e-300]],
                         ids=["area-times-aspect", "area", "aspect"])
def test_track_extreme_box_exits_2_without_warning(chain, tmp_path, box):
    row = json.loads(chain["detections"].read_text().splitlines()[0])
    detections = tmp_path / "detections.jsonl"
    detections.write_text("".join(
        json.dumps(dict(row, frame=frame, bbox=box)) + "\n"
        for frame in range(6)))
    paths = dict(chain, detections=detections)
    code, stderr = _run_uncaptured(_argv("track", paths, tmp_path / "out"))
    assert code == 2
    assert len(stderr.splitlines()) == 1
    assert stderr.startswith("error: SchemaError: line 1: bbox ")
    assert not (tmp_path / "out" / "tracks.jsonl").exists()


@pytest.mark.parametrize("command, slot", [("track", "detections"),
                                           ("analyze", "tracks")])
def test_frame_beyond_int64_exits_2(chain, tmp_path, command, slot):
    lines = chain[slot].read_text().splitlines()
    far = dict(json.loads(lines[-1]), frame=2 ** 63)
    rows = tmp_path / f"{slot}.jsonl"
    rows.write_text("".join(line + "\n" for line in lines)
                    + json.dumps(far) + "\n")
    paths = dict(chain, **{slot: rows})
    code, stderr = _run_uncaptured(_argv(command, paths, tmp_path / "out"))
    assert code == 2
    assert len(stderr.splitlines()) == 1
    assert stderr.startswith(f"error: SchemaError: line {len(lines) + 1}: "
                             f"frame must be a non-negative integer below "
                             f"2**63, got {2 ** 63}")


def test_analyze_far_apart_tracks_print_no_warning(chain, tmp_path):
    # their distance overflows to inf
    row = json.loads(chain["tracks"].read_text().splitlines()[0])
    car = dict(row, id=1, bev=[1e308, 0.0], speed_mph=1.0)
    walker = dict(row, id=2, bev=[-1e308, 0.0], speed_mph=0.0)
    car["class"], walker["class"] = "car", "pedestrian"
    tracks = tmp_path / "tracks.jsonl"
    tracks.write_text(json.dumps(car) + "\n" + json.dumps(walker) + "\n")
    paths = dict(chain, tracks=tracks)
    code, stderr = _run_uncaptured(_argv("analyze", paths, tmp_path / "out"))
    assert (code, stderr) == (0, "")


# --- outputs that no reader would take ---------------------------------------

def test_track_refuses_an_infinite_speed(chain, tmp_path):
    # finite, so load_calibration takes it; any motion is then too fast
    calib = json.loads(chain["calibration"].read_text())
    calib["iota_m_per_px"] = 1.7e308
    (tmp_path / "calibration.json").write_text(json.dumps(calib))
    paths = dict(chain, calibration=tmp_path / "calibration.json")
    code, stderr = _run_uncaptured(_argv("track", paths, tmp_path / "out"))
    assert code == 1
    assert len(stderr.splitlines()) == 1
    assert stderr.startswith("error: NonFiniteOutput: ")
    assert not (tmp_path / "out" / "tracks.jsonl").exists()


def test_analyze_refuses_an_infinite_average_speed(chain, tmp_path):
    # each speed is finite, their sum is not
    row = json.loads(chain["tracks"].read_text().splitlines()[0])
    cars = [dict(row, id=i, bev=[10.0 * i, 10.0], speed_mph=1.5e308)
            for i in (1, 2)]
    for car in cars:
        car["class"] = "car"
    tracks = tmp_path / "tracks.jsonl"
    tracks.write_text("".join(json.dumps(car) + "\n" for car in cars))
    paths = dict(chain, tracks=tracks)
    out = tmp_path / "out"
    code, stderr = _run_uncaptured(_argv("analyze", paths, out))
    assert code == 1
    assert len(stderr.splitlines()) == 1
    assert stderr.startswith(f"error: NonFiniteOutput: frame {row['frame']}: ")
    assert not any(p.is_file() for p in out.rglob("*"))
