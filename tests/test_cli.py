import itertools
import json
import os
import shutil
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scene_helpers import scene_dict

import roadscene
from roadscene import cli, records
from roadscene.analytics import HeatMap
from roadscene.cli import main
from roadscene.config import CLASS_NAMES
from roadscene.records import (HEAT_KINDS, load_heatmap, load_stats,
                               load_tracks, save_heatmap)


def write_scene(path, **kw):
    path.write_text(json.dumps(scene_dict(**kw)))
    return path


def run(*argv):
    return main(list(argv))


def _source_env(*unset: str) -> dict:
    """The environment for a fresh interpreter that imports this roadscene,
    without the variables named in `unset`."""
    src = str(Path(roadscene.__file__).parents[1])
    env = {k: v for k, v in os.environ.items() if k not in unset}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full simulate -> render chain shared by the read-only tests."""
    root = tmp_path_factory.mktemp("chain")
    scene = write_scene(
        root / "scene.json", duration=80, noise=0.3,
        n_matches=120, match_sigma=0.5, outliers=0.3,
        actors=[
            {"class": "car",
             "path": [[0.0, [-8.0, 14.0]], [3.2, [8.0, 14.0]]]},
            {"class": "pedestrian",
             "path": [[0.0, [0.0, 12.5]], [3.2, [2.0, 12.5]]]},
        ])
    sim = root / "sim"
    assert run("simulate", "--spec", str(scene), "--out", str(sim),
               "--seed", "11") == 0
    cal = root / "cal"
    assert run("calibrate", "--matches", str(sim / "matches.json"),
               "--satellite", str(sim / "satellite.pgm"),
               "--out", str(cal), "--seed", "11") == 0
    tracks = root / "tracks.jsonl"
    assert run("track", "--detections", str(sim / "detections.jsonl"),
               "--calibration", str(cal / "calibration.json"),
               "--out", str(tracks)) == 0
    road = root / "road"
    assert run("segment", "--tracks", str(tracks),
               "--satellite", str(sim / "satellite.pgm"),
               "--out", str(road)) == 0
    an = root / "an"
    assert run("analyze", "--tracks", str(tracks),
               "--calibration", str(cal / "calibration.json"),
               "--boundary", str(road / "boundary.json"),
               "--out", str(an)) == 0
    rend = root / "render"
    assert run("render", "--heat-dir", str(an),
               "--calibration", str(cal / "calibration.json"),
               "--satellite", str(sim / "satellite.pgm"),
               "--out", str(rend)) == 0
    return {"root": root, "scene": scene, "sim": sim, "cal": cal,
            "tracks": tracks, "road": road, "an": an, "render": rend}


def test_chain_artifacts_exist(pipeline):
    assert (pipeline["sim"] / "truth.json").exists()
    assert (pipeline["cal"] / "calibration.json").exists()
    assert (pipeline["road"] / "road_mask.pgm").exists()
    assert (pipeline["an"] / "stats.csv").exists()
    assert (pipeline["an"] / "states.jsonl").exists()
    for kind in ("pedestrian", "vehicle", "speeding", "congestion",
                 "proximity"):
        assert (pipeline["an"] / f"heat_{kind}.json").exists()


def test_chain_recovers_truth_homography(pipeline):
    truth = json.loads((pipeline["sim"] / "truth.json").read_text())
    cal = json.loads((pipeline["cal"] / "calibration.json").read_text())
    import numpy as np
    diff = np.abs(np.array(truth["g"]) - np.array(cal["g"])).max()
    assert diff < 1e-3
    assert cal["bev_size"] == [400, 300]


def test_chain_two_identities(pipeline):
    table = load_tracks(pipeline["tracks"])
    assert len(set(table.ids.tolist())) == 2
    classes = {CLASS_NAMES[c] for c in table.class_index.tolist()}
    assert classes == {"car", "pedestrian"}


def test_chain_speeds_near_truth(pipeline):
    # the car is scripted at 5 m/s = 11.18 mph
    table = load_tracks(pipeline["tracks"])
    speeds = table.speed_mph[(table.class_index == CLASS_NAMES.index("car"))
                             & (table.frame >= 30)].tolist()
    assert speeds
    for speed in speeds:
        assert speed == pytest.approx(11.18, rel=0.15)


def test_chain_heat_maps_accumulate(pipeline):
    ped = load_heatmap(pipeline["an"] / "heat_pedestrian.json")
    veh = load_heatmap(pipeline["an"] / "heat_vehicle.json")
    assert ped.events > 0
    assert veh.events > 0
    assert abs(float((ped.units / 144).sum()) - ped.events) < 1e-9


def test_chain_stats_cover_the_frames_with_rows(pipeline):
    stats = load_stats(pipeline["an"] / "stats.csv")
    frames = load_tracks(pipeline["tracks"]).frame.tolist()
    assert [s.frame for s in stats] == sorted(set(frames))
    assert stats[-1].frame == 79
    busy = [s for s in stats if s.vehicle_count == 1]
    assert len(busy) > 70


def test_chain_renders_bev_and_perspective(pipeline):
    assert (pipeline["render"] / "heat_vehicle_bev.ppm").exists()
    assert (pipeline["render"] / "heat_vehicle_perspective.ppm").exists()


@pytest.mark.parametrize("block_rows", [None, 1, 3])
def test_track_writes_blocks_of_whole_frames_as_dump_row_join(
        tmp_path, pipeline, monkeypatch, block_rows):
    if block_rows is not None:
        monkeypatch.setattr(cli, "_BLOCK_ROWS", block_rows)
    chunks = []
    real = cli.write_tracks

    def spy(path, parts):
        chunks.extend(parts)
        real(path, parts)

    monkeypatch.setattr(cli, "write_tracks", spy)
    tracks = tmp_path / "tracks.jsonl"
    assert run("track", "--detections",
               str(pipeline["sim"] / "detections.jsonl"), "--calibration",
               str(pipeline["cal"] / "calibration.json"),
               "--out", str(tracks)) == 0
    text = tracks.read_text(encoding="utf-8")
    # any block size writes the default run's bytes
    assert text == pipeline["tracks"].read_text(encoding="utf-8")
    rows = [json.loads(line) for line in text.splitlines()]
    assert text == "".join(records._dump_row(row) + "\n" for row in rows)
    # chunks come in frame order, and each ends on a frame boundary
    frames = [[json.loads(line)["frame"] for line in chunk.splitlines()]
              for chunk in chunks]
    assert all(f == sorted(f) for f in frames)
    assert all(a[-1] < b[0] for a, b in zip(frames, frames[1:]))
    if block_rows is not None:
        # a block closes with the frame that brings it to block_rows rows
        for f in frames[:-1]:
            assert len(f) - f.count(f[-1]) < block_rows <= len(f)


def test_segment_and_analyze_read_any_json_spelling(tmp_path, pipeline):
    # json.dumps puts spaces after separators, so no line takes the fast path
    spelled = tmp_path / "tracks.jsonl"
    spelled.write_text("".join(
        json.dumps(json.loads(line)) + "\n"
        for line in pipeline["tracks"].read_text().splitlines()))
    road, an = tmp_path / "road", tmp_path / "an"
    assert run("segment", "--tracks", str(spelled),
               "--satellite", str(pipeline["sim"] / "satellite.pgm"),
               "--out", str(road)) == 0
    assert run("analyze", "--tracks", str(spelled),
               "--calibration", str(pipeline["cal"] / "calibration.json"),
               "--boundary", str(road / "boundary.json"),
               "--out", str(an)) == 0
    for ours, theirs in ((road, pipeline["road"]), (an, pipeline["an"])):
        names = sorted(p.name for p in theirs.iterdir())
        assert names == sorted(p.name for p in ours.iterdir())
        for name in names:
            assert (ours / name).read_bytes() == (theirs / name).read_bytes()


@pytest.mark.parametrize("bev, seeded", [
    ((-0.3, 5.0), True), ((5.0, -0.5), True), ((19.49, 19.49), True),
    ((-0.6, 5.0), False), ((5.0, 19.5), False)])
def test_segment_rounds_a_row_to_its_cell_as_region_growing_does(
        tmp_path, bev, seeded):
    # a value in [-0.5, 0) lies in cell 0, as `srg_segment` rounds a seed
    from roadscene.imaging import ImageBuffer, read_pnm, write_pnm
    write_pnm(ImageBuffer(np.full((20, 20), 128, dtype=np.uint8)),
              tmp_path / "sat.pgm")
    tracks = tmp_path / "tracks.jsonl"
    tracks.write_text(records.dump_rows([{
        "frame": 0, "id": 1, "class": "car", "bbox": [1.0, 1.0, 2.0, 2.0],
        "ref": [1.0, 2.0], "bev": list(bev), "speed_mph": 0.0,
        "heading_deg": None, "cuboid": None}]))
    code = run("segment", "--tracks", str(tracks), "--satellite",
               str(tmp_path / "sat.pgm"), "--out", str(tmp_path / "road"))
    assert code == (0 if seeded else 2)
    if seeded:  # a uniform satellite grows from any seed to the whole
        # image; the closing leaves off the border
        mask = read_pnm(tmp_path / "road" / "road_mask.pgm").pixels
        assert mask[1:-1, 1:-1].all()


def test_segment_seeds_each_vehicle_cell_once(tmp_path, monkeypatch):
    # each in-image vehicle cell once, in (x, y) order, as
    # `np.unique(cells, axis=0)` gives them
    from roadscene import roadmodel
    from roadscene.imaging import ImageBuffer, write_pnm
    write_pnm(ImageBuffer(np.full((20, 30), 128, dtype=np.uint8)),
              tmp_path / "sat.pgm")
    bevs = [(3.2, 7.0), (29.4, 19.4), (2.6, 7.4), (3.0, 1.0), (29.6, 1.0),
            (-0.4, 0.0), (3.0, 1.2), (12.0, 5.0)]
    tracks = tmp_path / "tracks.jsonl"
    tracks.write_text(records.dump_rows([{
        "frame": frame, "id": 1, "class": "car" if frame != 7 else
        "pedestrian", "bbox": [1.0, 1.0, 2.0, 2.0], "ref": [1.0, 2.0],
        "bev": list(bev), "speed_mph": 0.0, "heading_deg": None,
        "cuboid": None} for frame, bev in enumerate(bevs)]))
    seen = []

    def srg_segment(image, seeds, params):
        seen.append([[p.x, p.y] for p in seeds])
        return grow(image, seeds, params)

    grow = roadmodel.srg_segment
    monkeypatch.setattr(roadmodel, "srg_segment", srg_segment)
    assert run("segment", "--tracks", str(tracks), "--satellite",
               str(tmp_path / "sat.pgm"), "--out", str(tmp_path / "road")) == 0
    assert seen == [[[0.0, 0.0], [3.0, 1.0], [3.0, 7.0], [29.0, 19.0]]]


def test_rerun_is_byte_identical(pipeline, tmp_path):
    sim2 = tmp_path / "sim2"
    assert run("simulate", "--spec", str(pipeline["scene"]),
               "--out", str(sim2), "--seed", "11") == 0
    for name in ("detections.jsonl", "truth.json", "matches.json",
                 "satellite.pgm"):
        assert (sim2 / name).read_bytes() == \
            (pipeline["sim"] / name).read_bytes()

    cal2 = tmp_path / "cal2"
    assert run("calibrate", "--matches", str(sim2 / "matches.json"),
               "--satellite", str(sim2 / "satellite.pgm"),
               "--out", str(cal2), "--seed", "11") == 0
    assert (cal2 / "calibration.json").read_bytes() == \
        (pipeline["cal"] / "calibration.json").read_bytes()

    tracks2 = tmp_path / "tracks2.jsonl"
    assert run("track", "--detections", str(sim2 / "detections.jsonl"),
               "--calibration", str(cal2 / "calibration.json"),
               "--out", str(tracks2)) == 0
    assert tracks2.read_bytes() == pipeline["tracks"].read_bytes()

    an2 = tmp_path / "an2"
    assert run("analyze", "--tracks", str(tracks2),
               "--calibration", str(cal2 / "calibration.json"),
               "--boundary", str(pipeline["road"] / "boundary.json"),
               "--out", str(an2)) == 0
    assert (an2 / "stats.csv").read_bytes() == \
        (pipeline["an"] / "stats.csv").read_bytes()
    assert (an2 / "heat_vehicle.json").read_bytes() == \
        (pipeline["an"] / "heat_vehicle.json").read_bytes()

    rend2 = tmp_path / "render2"
    assert run("render", "--heat-dir", str(an2),
               "--calibration", str(cal2 / "calibration.json"),
               "--satellite", str(sim2 / "satellite.pgm"),
               "--out", str(rend2)) == 0
    assert (rend2 / "heat_vehicle_bev.ppm").read_bytes() == \
        (pipeline["render"] / "heat_vehicle_bev.ppm").read_bytes()


def test_sharded_analyze_merges_to_single_pass(pipeline, tmp_path):
    common = ["--tracks", str(pipeline["tracks"]),
              "--calibration", str(pipeline["cal"] / "calibration.json"),
              "--boundary", str(pipeline["road"] / "boundary.json")]
    s1, s2 = tmp_path / "s1", tmp_path / "s2"
    assert run("analyze", *common, "--out", str(s1),
               "--from-frame", "0", "--to-frame", "39") == 0
    assert run("analyze", *common, "--out", str(s2),
               "--from-frame", "40", "--to-frame", "79") == 0
    merged = tmp_path / "merged_heat.json"
    assert run("merge", str(s1 / "heat_vehicle.json"),
               str(s2 / "heat_vehicle.json"), "--out", str(merged)) == 0
    assert merged.read_bytes() == \
        (pipeline["an"] / "heat_vehicle.json").read_bytes()

    merged_csv = tmp_path / "merged_stats.csv"
    assert run("merge", str(s1 / "stats.csv"), str(s2 / "stats.csv"),
               "--out", str(merged_csv)) == 0
    assert merged_csv.read_bytes() == \
        (pipeline["an"] / "stats.csv").read_bytes()


@pytest.mark.parametrize("bounds", [
    ("-3", "2", "--from-frame must be >= 0"),
    ("0", "-1", "--to-frame must be >= 0"),
    ("-5", "-2", "--from-frame must be >= 0"),
    ("50", "10", "--to-frame must be >= --from-frame (50)"),  # inverted
])
def test_analyze_refuses_negative_frame_bounds(pipeline, tmp_path, capsys,
                                               bounds):
    out = tmp_path / "an"
    assert run("analyze", "--tracks", str(pipeline["tracks"]),
               "--calibration", str(pipeline["cal"] / "calibration.json"),
               "--out", str(out), "--from-frame", bounds[0],
               "--to-frame", bounds[1]) == 2
    assert "ConfigError: " + bounds[2] in _one_error_line(capsys)
    assert not out.exists()


# --- error paths ------------------------------------------------------------

def test_too_few_matches_exits_2(tmp_path, capsys):
    matches = tmp_path / "m.json"
    matches.write_text(json.dumps({"pairs": [
        {"cam": [0, 0], "sat": [0, 0]},
        {"cam": [1, 0], "sat": [2, 0]},
        {"cam": [0, 1], "sat": [0, 2]},
    ]}))
    code = run("calibrate", "--matches", str(matches),
               "--out", str(tmp_path / "cal"))
    assert code == 2
    assert capsys.readouterr().err == (
        "error: InputError: need at least 4 matches, got 3\n")


@pytest.mark.parametrize("pair", [
    {"cam": "12", "sat": [1.0, 2.0]},
    {"cam": [1.0, 2.0], "sat": [True, 3]},
    {"cam": [1.0, "2"], "sat": [1.0, 2.0]},
    {"cam": [1.0, 2.0, 3.0], "sat": [1.0, 2.0]},
])
def test_match_coordinates_must_be_json_numbers(tmp_path, pipeline, capsys,
                                                pair):
    data = json.loads((pipeline["sim"] / "matches.json").read_text())
    data["pairs"][3] = pair
    matches = tmp_path / "matches.json"
    matches.write_text(json.dumps(data))
    code = run("calibrate", "--matches", str(matches),
               "--out", str(tmp_path / "cal"))
    assert code == 2
    assert "SchemaError" in (err := _one_error_line(capsys))
    assert "pairs[3]" in err


def test_match_coordinate_near_float_range_exits_2(tmp_path):
    # unchecked, the DLT's point normalization overflows on these and
    # numpy's warning came before the error line
    xs = [1.7e308, -1.7e308, 1.0, 2.0, 3.0]
    matches = tmp_path / "matches.json"
    matches.write_text(json.dumps({"pairs": [
        {"cam": [x, 3.0 * i * i], "sat": [1.0 * i, 2.0 * i]}
        for i, x in enumerate(xs)]}))
    done = subprocess.run(
        [sys.executable, "-m", "roadscene.cli", "calibrate", "--matches",
         str(matches), "--out", str(tmp_path / "cal")],
        env=_source_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stderr.startswith("error: SchemaError: ")
    assert done.stderr.count("\n") == 1 and "pairs[0]" in done.stderr


@pytest.mark.parametrize("side, axis, sign", itertools.product(
    ["cam", "sat"], [0, 1], [1.0, -1.0]))
def test_match_coordinates_just_inside_the_bound_calibrate_quietly(
        tmp_path, pipeline, capsys, side, axis, sign):
    data = json.loads((pipeline["sim"] / "matches.json").read_text())
    for k, shrink in ((5, 1.0), (40, 0.5)):
        data["pairs"][k][side][axis] = sign * shrink * 0.99 * 2.0 ** 510
    matches = tmp_path / "matches.json"
    matches.write_text(json.dumps(data))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run("calibrate", "--matches", str(matches),
                   "--out", str(tmp_path / "cal")) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("points", [
    ["12", "34", "56"],
    [[1.0, 2.0], [True, 3.0], [5.0, 6.0]],
    [[1.0, 2.0], ["3", 4.0], [5.0, 6.0]],
])
def test_trajectory_points_must_be_json_numbers(tmp_path, pipeline, capsys,
                                                points):
    good = [[100.0 + 9 * i, 300.0 - 2 * i] for i in range(8)]
    trajectories = tmp_path / "trajectories.jsonl"
    trajectories.write_text(json.dumps({"points": good}) + "\n"
                            + json.dumps({"points": points}) + "\n")
    code = run("calibrate", "--matches",
               str(pipeline["sim"] / "matches.json"), "--trajectories",
               str(trajectories), "--image-size", "640", "480",
               "--out", str(tmp_path / "cal"))
    assert code == 2
    assert "SchemaError: line 2" in _one_error_line(capsys)


def test_trajectory_row_without_points_exits_2(tmp_path, pipeline, capsys):
    trajectories = tmp_path / "trajectories.jsonl"
    trajectories.write_text('{"path": [[1, 2], [3, 4]]}\n')
    code = run("calibrate", "--matches",
               str(pipeline["sim"] / "matches.json"), "--trajectories",
               str(trajectories), "--image-size", "640", "480",
               "--out", str(tmp_path / "cal"))
    assert code == 2
    assert _one_error_line(capsys) == (
        "error: SchemaError: line 1: expected {'points': [...]}\n")


def test_frames_dir_without_pgm_frames_exits_2(tmp_path, pipeline, capsys):
    frames = tmp_path / "frames"
    frames.mkdir()
    (frames / "frame_0000.ppm").write_bytes(b"P6\n1 1\n255\n\0\0\0")
    code = run("calibrate", "--matches",
               str(pipeline["sim"] / "matches.json"), "--frames-dir",
               str(frames), "--out", str(tmp_path / "cal"))
    assert code == 2
    assert _one_error_line(capsys) == (
        f"error: SchemaError: no .pgm frames in {frames}\n")


def test_calibrate_records_bev_size_without_satellite(tmp_path, pipeline):
    assert run("calibrate", "--matches",
               str(pipeline["sim"] / "matches.json"), "--bev-size", "80",
               "60", "--out", str(tmp_path / "cal")) == 0
    cal = json.loads((tmp_path / "cal" / "calibration.json").read_text())
    assert cal["bev_size"] == [80, 60]


def test_empty_detections_empty_tracks(tmp_path, pipeline):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    out = tmp_path / "tracks.jsonl"
    assert run("track", "--detections", str(empty),
               "--calibration", str(pipeline["cal"] / "calibration.json"),
               "--out", str(out)) == 0
    assert out.read_text() == ""


def test_far_frame_number_adds_nothing_and_finishes(tmp_path, pipeline):
    lines = (pipeline["sim"] / "detections.jsonl").read_text().splitlines()
    near = [line for line in lines if json.loads(line)["frame"] <= 4]
    far = dict(json.loads(near[-1]), frame=10 ** 12)
    outputs = []
    for name, rows in (("near", near), ("far", near + [json.dumps(far)])):
        detections = tmp_path / f"{name}.jsonl"
        detections.write_text("".join(row + "\n" for row in rows))
        out = tmp_path / f"{name}_tracks.jsonl"
        # in a subprocess, so that stepping every frame number up to the
        # far one fails by the timeout instead of hanging the suite
        subprocess.run(
            [sys.executable, "-m", "roadscene.cli", "track", "--detections",
             str(detections), "--calibration",
             str(pipeline["cal"] / "calibration.json"), "--out", str(out)],
            env=_source_env(), check=True, capture_output=True, timeout=60)
        outputs.append(out.read_bytes())
    assert outputs[0] and outputs[0] == outputs[1]


def test_far_track_row_finishes_analyze(tmp_path, pipeline):
    rows = pipeline["tracks"].read_text().splitlines()
    far = dict(json.loads(rows[-1]), frame=10 ** 9)
    # a limit the car exceeds, so that states.jsonl has rows to compare
    config = tmp_path / "limit.cfg"
    config.write_text("speed_limit_mph=5\n")
    outputs = []
    for name, lines in (("near", rows), ("far", rows + [json.dumps(far)])):
        tracks = tmp_path / f"{name}.jsonl"
        tracks.write_text("".join(line + "\n" for line in lines))
        # in a subprocess, so that stepping every frame number up to the
        # far one fails by the timeout instead of hanging the suite
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "roadscene.cli", "analyze", "--tracks",
             str(tracks), "--calibration",
             str(pipeline["cal"] / "calibration.json"), "--boundary",
             str(pipeline["road"] / "boundary.json"), "--config",
             str(config), "--out", str(tmp_path / name)],
            env=_source_env(), check=True, capture_output=True, timeout=60)
        assert time.perf_counter() - start < 5.0, name
        outputs.append([(tmp_path / name / f).read_text()
                        for f in ("states.jsonl", "stats.csv")])
    (near_states, near_stats), (far_states, far_stats) = outputs
    assert near_states and far_states == near_states
    far_lines = far_stats.splitlines()
    assert far_lines[:-1] == near_stats.splitlines()
    assert far_lines[-1].startswith(f"{10 ** 9},")


def test_malformed_detections_names_line(tmp_path, pipeline, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"frame": 0, "bbox": [1, 1, 2, 2], "score": 0.5, '
                   '"probs": ' + str([0.0] * 11) + '}\n{broken\n')
    code = run("track", "--detections", str(bad),
               "--calibration", str(pipeline["cal"] / "calibration.json"),
               "--out", str(tmp_path / "t.jsonl"))
    assert code == 2
    err = capsys.readouterr().err
    assert "SchemaError" in err and "line 2" in err


def test_reference_point_mapping_to_infinity_exits_1(tmp_path, capsys):
    # the last row of g is (1, 0, 1), so a reference point at x = -1 has a
    # homogeneous denominator of exactly 0
    cal = tmp_path / "calibration.json"
    cal.write_text(json.dumps({"g": [[1, 0, 0], [0, 1, 0], [1, 0, 1]]}))
    det = {"bbox": [-1, 10, 4, 4], "score": 0.9, "probs": [1.0] + [0.0] * 10}
    detections = tmp_path / "detections.jsonl"
    detections.write_text("".join(json.dumps(dict(det, frame=f)) + "\n"
                                  for f in range(5)))
    out = tmp_path / "tracks.jsonl"
    assert run("track", "--detections", str(detections),
               "--calibration", str(cal), "--out", str(out)) == 1
    assert _one_error_line(capsys) == (
        "error: DegeneratePoint: point (-1.0, 12.0) maps to infinity\n")
    assert not out.exists()


def overflow_scene(tmp_path) -> list[str]:
    """`track` arguments whose BEV filter overflows at frame 3.

    g maps (x, y) to (1/x, y/x), so a box whose reference point sways
    between x = +-2e-307 jumps by 1e307 BEV px a frame, and the filter's
    velocity overflows."""
    cal = tmp_path / "calibration.json"
    cal.write_text(json.dumps({"g": [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
                               "iota_m_per_px": 0.05,
                               "bev_size": [100, 100]}))
    det = {"score": 0.9, "probs": [0.9] + [0.0] * 10}
    detections = tmp_path / "detections.jsonl"
    detections.write_text("".join(
        json.dumps(dict(det, frame=f,
                        bbox=[2e-307 * (-1) ** f, 10.0, 1.0, 1.0])) + "\n"
        for f in range(24)))
    return ["track", "--detections", str(detections), "--calibration",
            str(cal), "--out", str(tmp_path / "tracks.jsonl")]


# the first row whose filter leaves the float range, in file order
OVERFLOW_ERROR = ("error: NonFiniteOutput: frame 3: the BEV filter of track "
                  "1 overflows\n")


def test_bev_filter_overflow_exits_1(tmp_path, capsys):
    assert run(*overflow_scene(tmp_path)) == 1
    assert _one_error_line(capsys) == OVERFLOW_ERROR
    assert not (tmp_path / "tracks.jsonl").exists()


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_nan_class_probability_exits_2(tmp_path, pipeline, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"frame": 0, "bbox": [1, 1, 2, 2], "score": 0.5, '
                   '"probs": [NaN' + ", 0.0" * 10 + ']}\n')
    code = run("track", "--detections", str(bad),
               "--calibration", str(pipeline["cal"] / "calibration.json"),
               "--out", str(tmp_path / "t.jsonl"))
    assert code == 2
    assert "line 1" in _one_error_line(capsys)


def test_nan_track_speed_exits_2(tmp_path, pipeline, capsys):
    rows = pipeline["tracks"].read_text().splitlines()
    row = json.loads(rows[0])
    row["speed_mph"] = float("nan")
    rows[0] = json.dumps(row)
    bad = tmp_path / "tracks.jsonl"
    bad.write_text("\n".join(rows) + "\n")
    code = run("analyze", "--tracks", str(bad),
               "--calibration", str(pipeline["cal"] / "calibration.json"),
               "--out", str(tmp_path / "an"))
    assert code == 2
    assert "SchemaError" in _one_error_line(capsys)


@pytest.mark.parametrize("key, message", [
    ("bev", "bev must be a list of 2 numbers"),
    ("speed_mph", "speed_mph must be a finite number, got None")])
@pytest.mark.parametrize("spelling", [records._dump_row, json.dumps])
@pytest.mark.parametrize("command", ["segment", "analyze"])
def test_null_bev_or_speed_exits_2(tmp_path, pipeline, capsys, key, message,
                                   spelling, command):
    # the writer's spelling tries the fast path first; json.dumps' spaces
    # send the line straight to the general decoder
    rows = pipeline["tracks"].read_text().splitlines()
    row = json.loads(rows[1])
    row[key] = None
    rows[1] = spelling(row)
    bad = tmp_path / "tracks.jsonl"
    bad.write_text("\n".join(rows) + "\n")
    inputs = {"segment": ("--satellite", pipeline["sim"] / "satellite.pgm"),
              "analyze": ("--calibration",
                          pipeline["cal"] / "calibration.json")}
    code = run(command, "--tracks", str(bad), *map(str, inputs[command]),
               "--out", str(tmp_path / "out"))
    assert code == 2
    assert f"SchemaError: line 2: {message}" in _one_error_line(capsys)


def test_corrupt_heat_shard_exits_2(tmp_path, capsys):
    shard = tmp_path / "heat_vehicle.json"
    shard.write_text('{"events": 0, "kind": "vehicle", "shape": [1, 2], '
                     '"units": [[-5, 1.7]]}\n')
    out = tmp_path / "merged.json"
    code = run("merge", str(shard), str(shard), "--out", str(out))
    assert code == 2
    assert "heat_vehicle.json: not a heat map as save_heatmap writes it" \
        in _one_error_line(capsys)
    assert not out.exists()


_FROMSTRING = np.fromstring


def _numpy1_fromstring(text, dtype, sep):
    """`np.fromstring` as numpy 1.x behaves on text it cannot read to the
    end: a DeprecationWarning and what it read (here, nothing) rather than
    numpy 2.x's ValueError."""
    try:
        return _FROMSTRING(text, dtype=dtype, sep=sep)
    except ValueError:
        warnings.warn("string or file could not be read to its end",
                      DeprecationWarning)
        return np.zeros(0, dtype)


@pytest.mark.parametrize("numpy1", [False, True])
@pytest.mark.parametrize("units", [
    "[[144,-5,5]]",  # sums to 144 and spells back: only its sign refuses it
    "[[139,+5,0]]", "[[139,05,0]]", "[[139, 5,0]]",
    "[[139,%d,0]]" % 10 ** 19, "[[139,%d,0]]" % 2 ** 63,
    "[[144,0]]", "[[144,0,0,0]]", "[[144,0,0,]]", "[[144,0,0",
    "[[144,,0]]", "[[143,1.0,0]]",  # which numpy cannot read to the end
])
def test_merge_refuses_heat_rows_the_writer_never_spells(
        tmp_path, capsys, monkeypatch, units, numpy1):
    if numpy1:
        monkeypatch.setattr(np, "fromstring", _numpy1_fromstring)
    shard = tmp_path / "heat_vehicle.json"
    shard.write_text('{"events":1,"kind":"vehicle","shape":[1,3],'
                     '"units":%s}\n' % units)
    out = tmp_path / "merged.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # no warning reaches the user
        assert run("merge", str(shard), str(shard), "--out", str(out)) == 2
    assert not caught, caught
    assert "SchemaError: " + str(shard) + ": not a heat map as save_heatmap " \
        "writes it" in _one_error_line(capsys)
    assert not out.exists()


def test_merge_refuses_units_past_int64(tmp_path, capsys):
    # each shard is valid: 144 units per event, every cell fits int64
    shard = tmp_path / "heat_vehicle.json"
    heat = HeatMap.from_units(np.array([[144 * 2 ** 55, 0]]), 2 ** 55,
                              "vehicle")
    records.save_heatmap(shard, heat)
    assert load_heatmap(shard).events == 2 ** 55
    out = tmp_path / "merged.json"
    assert run("merge", str(shard), str(shard), "--out", str(out)) == 2
    assert "overflow" in _one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("a, b", [(2 ** 63 - 1, 1),
                                  (144 * 2 ** 55, 144 * 2 ** 55)])
def test_merge_refuses_a_summed_cell_past_int64(tmp_path, capsys, a, b):
    # each shard's first cell is a or b, and a second cell fills its mass
    paths = []
    for name, cell in (("a", a), ("b", b)):
        path = tmp_path / name / "heat_vehicle.json"
        path.parent.mkdir()
        save_heatmap(path, HeatMap.from_units(
            np.array([[cell, -cell % 144]]), -(-cell // 144), "vehicle"))
        paths.append(str(path))
    out = tmp_path / "merged.json"
    assert run("merge", *paths, "--out", str(out)) == 2
    assert _one_error_line(capsys) == ("error: SchemaError: merged 'vehicle' "
                                       "units overflow int64\n")
    assert not out.exists()


def _heat_file(path, units, kind="vehicle", events=None):
    """`units` as a heat map file; `events` defaults to their mass / 144."""
    path.write_text(records._dump_row({
        "events": sum(map(sum, units)) // 144 if events is None else events,
        "kind": kind, "shape": [len(units), len(units[0])],
        "units": units}) + "\n")
    return str(path)


@pytest.mark.parametrize("kind, units, message", [
    ("speeding", [[144, 0, 0], [0, 0, 0]],
     "cannot merge 'speeding' into 'vehicle'"),
    ("vehicle", [[144, 0], [0, 0], [0, 0]],
     "shape mismatch: (3, 2) vs (2, 3)"),
    # the units do not sum to 144 x 1 event either: the header's fault is
    # named first
    ("speeding", [[144, 0, 0], [0, 0, 7]],
     "cannot merge 'speeding' into 'vehicle'"),
], ids=["kind", "shape", "kind-and-mass"])
def test_merge_refuses_a_shard_of_another_kind_or_shape(tmp_path, capsys,
                                                        kind, units, message):
    first = _heat_file(tmp_path / "a.json", [[0, 96, 0], [0, 48, 0]])
    other = _heat_file(tmp_path / "b.json", units, kind, events=1)
    out = tmp_path / "merged.json"
    assert run("merge", first, other, "--out", str(out)) == 2
    assert _one_error_line(capsys) == f"error: SchemaError: {other}: " \
        f"{message}\n"
    assert not out.exists()


def test_merge_names_an_overflow_before_a_later_fault(tmp_path, capsys):
    # the second shard's first row overflows the sum; its second row is
    # not spelled as the writer would
    first = _heat_file(tmp_path / "a.json", [[2 ** 63 // 144 * 144, 0],
                                             [0, 0]])
    other = tmp_path / "b.json"
    other.write_text('{"events":1,"kind":"vehicle","shape":[2,2],'
                     '"units":[[144,0],[0,-0]]}\n')
    out = tmp_path / "merged.json"
    assert run("merge", first, str(other), "--out", str(out)) == 2
    assert _one_error_line(capsys) == ("error: SchemaError: merged 'vehicle' "
                                       "units overflow int64\n")
    assert not out.exists()


@st.composite
def _shards(draw):
    """1 to 6 maps of one kind and shape, each of 144 units per event:
    sparse to dense, 1 x N, N x 1 and N x N, cells up to the int64 edge."""
    n = draw(st.integers(1, 6))
    side = st.integers(2, 30)
    h, w = draw(st.one_of(st.just((1, 1)), st.tuples(st.just(1), side),
                          st.tuples(side, st.just(1)), st.tuples(side, side)))
    kind = draw(st.sampled_from(HEAT_KINDS))
    # below the edge, a cell is raised by at most 143 to fill the mass
    top = draw(st.sampled_from([144, 2 ** 31, (2 ** 63 - 1) // n - 143,
                                2 ** 63 - 144]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shards = []
    for _ in range(n):
        units = rng.integers(0, top, size=(h, w), endpoint=True)
        units[rng.random((h, w)) >= draw(
            st.sampled_from([0.0, 0.05, 0.5, 1.0]))] = 0
        units[0, 0] += -sum(units.ravel().tolist()) % 144
        shards.append(HeatMap.from_units(
            units, sum(units.ravel().tolist()) // 144, kind))
    return shards


@settings(max_examples=80, deadline=None)
@given(_shards())
def test_merge_command_writes_what_heatmap_merge_sums(tmp_path_factory,
                                                      shards):
    """The command's row-by-row fold writes the cellwise sum of the shards,
    taken in Python integers, or refuses a sum past int64."""
    root = tmp_path_factory.mktemp("merge")
    paths = []
    for k, heat in enumerate(shards):
        paths.append(root / f"{k}.json")
        save_heatmap(paths[-1], heat)
    total = sum(heat.units.astype(object) for heat in shards)
    out = root / "merged.json"
    code = run("merge", *map(str, paths), "--out", str(out))
    if max(total.ravel()) >= 2 ** 63:
        assert code == 2 and not out.exists()
    else:
        assert code == 0
        save_heatmap(root / "expected.json", HeatMap.from_units(
            total.astype(np.int64), sum(heat.events for heat in shards),
            shards[0].kind))
        assert out.read_bytes() == (root / "expected.json").read_bytes()


def _scipy_modules_after(code: str) -> str:
    """Run `code` in a fresh interpreter and return the sorted list of
    scipy modules it left loaded, as printed."""
    probe = (f"import sys; {code}; print(sorted(m for m in sys.modules "
             f"if m.split('.')[0] == 'scipy'))")
    return subprocess.run([sys.executable, "-c", probe], env=_source_env(),
                          check=True, capture_output=True, text=True,
                          timeout=60).stdout.splitlines()[-1]


def test_cli_import_leaves_scipy_unloaded():
    assert _scipy_modules_after("import roadscene.cli") == "[]"


def test_track_runs_without_scipy(pipeline, tmp_path):
    argv = ["track", "--detections", str(pipeline["sim"] / "detections.jsonl"),
            "--calibration", str(pipeline["cal"] / "calibration.json"),
            "--out", str(tmp_path / "tracks.jsonl")]
    code = ("from roadscene.cli import main; "
            f"assert main({argv!r}) == 0")
    assert _scipy_modules_after(code) == "[]"
    assert ((tmp_path / "tracks.jsonl").read_bytes()
            == pipeline["tracks"].read_bytes())


@pytest.mark.parametrize("line, command", [
    ("ransac.gamma = 5", "calibrate"),
    ("boundary.radius = 5", "analyze"),
    ("srg.tau_alpha = 300", "segment"),
])
def test_rejected_config_line_exits_2(tmp_path, pipeline, capsys, line,
                                      command):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    inputs = {
        "calibrate": ["--matches", str(pipeline["sim"] / "matches.json")],
        "analyze": ["--tracks", str(pipeline["tracks"]), "--calibration",
                    str(pipeline["cal"] / "calibration.json")],
        "segment": ["--tracks", str(pipeline["tracks"]),
                    "--satellite", str(pipeline["sim"] / "satellite.pgm")],
    }[command]
    code = run(command, *inputs, "--config", str(cfg),
               "--out", str(tmp_path / "out"))
    assert code == 2
    assert "ConfigError: line 1" in _one_error_line(capsys)


@pytest.mark.parametrize("config, error", [
    ("missing.cfg", "ConfigError: cannot read config"),
    ("bad.cfg", "ConfigError: line 1"),
])
def test_merge_reads_its_config(tmp_path, pipeline, capsys, config, error):
    (tmp_path / "bad.cfg").write_text("fps = fast\n")
    out = tmp_path / "stats.csv"
    code = run("merge", str(pipeline["an"] / "stats.csv"), "--out", str(out),
               "--config", str(tmp_path / config))
    assert code == 2
    assert error in _one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("name", ["heat_vehicle.json", "stats.csv"])
def test_merge_creates_missing_out_directory(tmp_path, pipeline, name):
    shard = pipeline["an"] / name
    out = tmp_path / "missing" / "dir" / name
    assert run("merge", str(shard), "--out", str(out)) == 0
    assert out.read_bytes() == shard.read_bytes()


def test_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("fps = fast\n")
    scene = write_scene(tmp_path / "scene.json", duration=2)
    code = run("simulate", "--spec", str(scene), "--config", str(cfg),
               "--out", str(tmp_path / "out"))
    assert code == 2
    assert "ConfigError" in capsys.readouterr().err


def test_invalid_scenario_exits_2(tmp_path, capsys):
    scene = tmp_path / "scene.json"
    data = scene_dict()
    data["duration"] = 0
    scene.write_text(json.dumps(data))
    code = run("simulate", "--spec", str(scene),
               "--out", str(tmp_path / "out"))
    assert code == 2
    assert "InvalidSpec" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("noise_sigma_px", [1]),
    ("noise_sigma_px", "nan"),
    ("n_matches", "many"),
    ("dropout", "inf"),
    ("road_polygon", [[1, "a"], [2, 3], [4, 5]]),
    ("road_polygon", [[1, 2, 3], [2, 3], [4, 5]]),
    ("road_polygon", 7),
    # numbers are JSON numbers, not bools or strings; counts are ints
    ("duration", 10.9),
    ("duration", True),
    ("n_matches", 2.5),
    ("image_size", [640.7, 480]),
    ("actors.0.hidden", [[1.9, 3.2]]),
    ("fps", "25"),
    ("noise_sigma_px", True),
])
def test_bad_scenario_field_exits_2(tmp_path, capsys, key, value):
    scene = tmp_path / "scene.json"
    data = scene_dict()
    *path, last = key.split(".")
    node = data
    for step in path:
        node = node[int(step) if isinstance(node, list) else step]
    node[last] = value
    scene.write_text(json.dumps(data))
    code = run("simulate", "--spec", str(scene),
               "--out", str(tmp_path / "out"))
    assert code == 2
    assert "InvalidSpec" in _one_error_line(capsys)


def test_analyze_track_id_beyond_int64_exits_2(tmp_path, pipeline, capsys):
    tracks = tmp_path / "tracks.jsonl"
    # every field of the row, which load_tracks does not all return
    row = json.loads(pipeline["tracks"].read_text().splitlines()[0])
    row["id"] = 2 ** 70
    tracks.write_text(json.dumps(row) + "\n")
    code = run("analyze", "--tracks", str(tracks),
               "--calibration", str(pipeline["cal"] / "calibration.json"),
               "--out", str(tmp_path / "an"))
    assert code == 2
    assert "SchemaError" in _one_error_line(capsys)


def test_malformed_boundary_exits_2(tmp_path, pipeline, capsys):
    boundary = tmp_path / "boundary.json"
    boundary.write_text('{"chains": [[1, 2]]}')
    code = run("analyze", "--tracks", str(pipeline["tracks"]),
               "--calibration", str(pipeline["cal"] / "calibration.json"),
               "--boundary", str(boundary), "--out", str(tmp_path / "an"))
    assert code == 2
    assert "SchemaError" in _one_error_line(capsys)


def test_zero_pedestrian_scene_renders_with_note(tmp_path, pipeline, capsys):
    scene = write_scene(
        tmp_path / "scene.json", duration=40,
        actors=[{"class": "car",
                 "path": [[0.0, [-8.0, 14.0]], [3.2, [8.0, 14.0]]]}])
    sim = tmp_path / "sim"
    assert run("simulate", "--spec", str(scene), "--out", str(sim),
               "--seed", "3") == 0
    tracks = tmp_path / "tracks.jsonl"
    assert run("track", "--detections", str(sim / "detections.jsonl"),
               "--calibration", str(pipeline["cal"] / "calibration.json"),
               "--out", str(tracks)) == 0
    an = tmp_path / "an"
    assert run("analyze", "--tracks", str(tracks),
               "--calibration", str(pipeline["cal"] / "calibration.json"),
               "--out", str(an)) == 0
    ped = load_heatmap(an / "heat_pedestrian.json")
    assert ped.events == 0
    capsys.readouterr()
    rend = tmp_path / "rend"
    assert run("render", "--heat-dir", str(an),
               "--satellite", str(sim / "satellite.pgm"),
               "--out", str(rend)) == 0
    out = capsys.readouterr().out
    assert "pedestrian: EmptyHeatMap" in out
    assert (rend / "heat_vehicle_bev.ppm").exists()
    assert not (rend / "heat_pedestrian_bev.ppm").exists()


def test_occlusion_preserves_identity(tmp_path, pipeline):
    scene = write_scene(
        tmp_path / "scene.json", duration=60,
        actors=[{"class": "car",
                 "path": [[0.0, [-8.0, 14.0]], [2.4, [8.0, 14.0]]],
                 "hidden": [[20, 29]]}])
    sim = tmp_path / "sim"
    assert run("simulate", "--spec", str(scene), "--out", str(sim)) == 0
    tracks = tmp_path / "tracks.jsonl"
    assert run("track", "--detections", str(sim / "detections.jsonl"),
               "--calibration", str(pipeline["cal"] / "calibration.json"),
               "--out", str(tracks)) == 0
    table = load_tracks(tracks)
    before = set(table.ids[table.frame < 20].tolist())
    after = set(table.ids[table.frame >= 30].tolist())
    assert before == after
    assert len(before) == 1
    # nothing is reported while the actor is hidden
    assert not ((20 <= table.frame) & (table.frame < 30)).any()


def test_crossing_cars_no_switch(tmp_path, pipeline):
    scene = write_scene(
        tmp_path / "scene.json", duration=100,
        actors=[
            {"class": "car",
             "path": [[0.0, [-8.0, 15.0]], [2.0, [8.0, 15.0]]]},
            {"class": "car",
             "path": [[0.0, [0.0, 22.0]], [3.5, [0.0, 11.0]]]},
        ])
    sim = tmp_path / "sim"
    assert run("simulate", "--spec", str(scene), "--out", str(sim)) == 0
    tracks = tmp_path / "tracks.jsonl"
    assert run("track", "--detections", str(sim / "detections.jsonl"),
               "--calibration", str(pipeline["cal"] / "calibration.json"),
               "--out", str(tracks)) == 0
    table = load_tracks(tracks)
    truth = json.loads((sim / "truth.json").read_text())

    # match each row to the nearest truth actor; an id must never flip
    assignments = {}
    for frame, track_id, (bx, by) in zip(table.frame.tolist(),
                                         table.ids.tolist(),
                                         table.xy.tolist()):
        best = min(range(2), key=lambda i: (
            (truth["actors"][i]["positions_bev"][frame][0] - bx) ** 2
            + (truth["actors"][i]["positions_bev"][frame][1] - by) ** 2))
        assignments.setdefault(track_id, set()).add(best)
    assert len(assignments) == 2
    for actors_hit in assignments.values():
        assert len(actors_hit) == 1


def test_speeding_map_mass_matches_truth(tmp_path, pipeline):
    # constant 15.65 m/s = 35 mph, above the 30 mph default limit
    scene = write_scene(
        tmp_path / "scene.json", duration=30,
        actors=[{"class": "car",
                 "path": [[0.0, [-9.0, 14.0]], [1.2, [9.78, 14.0]]]}])
    sim = tmp_path / "sim"
    assert run("simulate", "--spec", str(scene), "--out", str(sim)) == 0
    tracks = tmp_path / "tracks.jsonl"
    assert run("track", "--detections", str(sim / "detections.jsonl"),
               "--calibration", str(pipeline["cal"] / "calibration.json"),
               "--out", str(tracks)) == 0
    an = tmp_path / "an"
    assert run("analyze", "--tracks", str(tracks),
               "--calibration", str(pipeline["cal"] / "calibration.json"),
               "--out", str(an)) == 0
    table = load_tracks(tracks)
    heat = load_heatmap(an / "heat_speeding.json")
    # every reported frame is truly above the limit; allow the filter
    # a couple of frames to lock on after track birth
    assert abs(heat.events - len(table)) <= 2


def test_merge_rejects_mixed_inputs(tmp_path, pipeline, capsys):
    code = run("merge", str(pipeline["an"] / "heat_vehicle.json"),
               str(pipeline["an"] / "stats.csv"),
               "--out", str(tmp_path / "x.json"))
    assert code == 2


def test_analyze_without_bev_size_fails(tmp_path, pipeline, capsys):
    cal = tmp_path / "cal.json"
    data = json.loads((pipeline["cal"] / "calibration.json").read_text())
    del data["bev_size"]
    for recorded in ({"bev_size": None}, {}):
        cal.write_text(json.dumps(dict(data, **recorded)))
        code = run("analyze", "--tracks", str(pipeline["tracks"]),
                   "--calibration", str(cal), "--out", str(tmp_path / "an"))
        assert code == 2
        assert _one_error_line(capsys) == (
            f"error: ConfigError: {cal}: no bev_size, which calibrate "
            f"records from --satellite or --bev-size\n")
        assert not (tmp_path / "an").exists()
    # the calibration alone sizes the grid: analyze takes no --bev-size
    assert run("analyze", "--tracks", str(pipeline["tracks"]),
               "--calibration", str(cal), "--bev-size", "400", "300",
               "--out", str(tmp_path / "an")) == 2
    assert _one_error_line(capsys).startswith("error: ConfigError: ")


def test_unreadable_paths_exit_2(tmp_path, pipeline, capsys):
    cal = str(pipeline["cal"] / "calibration.json")
    dets = str(pipeline["sim"] / "detections.jsonl")
    missing = ["track", "--detections", dets,
               "--calibration", str(tmp_path / "nope.json")]
    assert run(*missing, "--out", str(tmp_path / "t.jsonl")) == 2
    assert "FileNotFoundError" in _one_error_line(capsys)

    utf16 = tmp_path / "dets.jsonl"
    utf16.write_bytes(b"\xff\xfe" + '{"frame": 0}'.encode("utf-16-le"))
    assert run("track", "--detections", str(utf16), "--calibration", cal,
               "--out", str(tmp_path / "t.jsonl")) == 2
    assert "UnicodeDecodeError" in _one_error_line(capsys)

    afile = tmp_path / "afile"
    afile.write_text("")
    assert run("merge", str(pipeline["an"] / "stats.csv"),
               "--out", str(afile / "stats.csv")) == 2
    assert "FileExistsError" in _one_error_line(capsys)


def test_render_heat_dir_must_be_a_directory(tmp_path, pipeline, capsys):
    afile = tmp_path / "afile"
    afile.write_text("")
    maps = tmp_path / "maps"
    for heat_dir in (tmp_path / "nope", afile):
        assert run("render", "--heat-dir", str(heat_dir),
                   "--out", str(maps)) == 2
        assert "--heat-dir" in _one_error_line(capsys)
        assert not maps.exists()
    # in a directory, a missing map is a note and the others render
    (tmp_path / "some").mkdir()
    shutil.copy(pipeline["an"] / "heat_vehicle.json", tmp_path / "some")
    assert run("render", "--heat-dir", str(tmp_path / "some"),
               "--out", str(maps)) == 0
    assert "pedestrian: no heat map file, skipped" in capsys.readouterr().out
    assert [p.name for p in maps.iterdir()] == ["heat_vehicle_bev.ppm"]


@pytest.mark.parametrize("key, value", [
    ("iota_m_per_px", "abc"),
    ("iota_m_per_px", 0),
    ("bev_size", ["a", 10]),
    ("bev_size", [10, -10]),
    ("bev_size", [10]),
    ("g", [[1, 0, 0], [0, 1, 0], [0, 0, "x"]]),
    ("g", [[1, 0, 0], [0, 1, 0]]),
    ("bev_size", [2 ** 24 + 1, 10]),
])
def test_bad_calibration_field_exits_2(tmp_path, pipeline, capsys, key,
                                       value):
    cal = tmp_path / "cal.json"
    data = json.loads((pipeline["cal"] / "calibration.json").read_text())
    data[key] = value
    cal.write_text(json.dumps(data))
    code = run("analyze", "--tracks", str(pipeline["tracks"]),
               "--calibration", str(cal), "--out", str(tmp_path / "an"))
    assert code == 2
    assert f"SchemaError: {cal}: {key}" in _one_error_line(capsys)


@pytest.mark.parametrize("g", [
    [[1, 2, 3], [2, 4, 6], [0, 0, 1]],     # singular
    [[1, 0, 0], [0, 1e-13, 0], [0, 0, 1]],  # condition number 1e13
    [[1e300, 1e300, 1e300]] * 3,            # the norm overflows
], ids=["singular", "ill-conditioned", "norm-overflow"])
@pytest.mark.parametrize("command", ["track", "render"])
def test_non_invertible_calibration_exits_2(tmp_path, pipeline, capsys, g,
                                            command):
    cal = tmp_path / "cal.json"
    data = json.loads((pipeline["cal"] / "calibration.json").read_text())
    data["g"] = g
    cal.write_text(json.dumps(data))
    inputs = {
        "track": ["--detections", str(pipeline["sim"] / "detections.jsonl")],
        "render": ["--heat-dir", str(pipeline["an"])],
    }[command]
    code = run(command, *inputs, "--calibration", str(cal),
               "--out", str(tmp_path / "out"))
    assert code == 2
    assert (f"SchemaError: {cal}: g must be an invertible homography"
            in _one_error_line(capsys))
