import contextlib
import io
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from scene_helpers import scene_dict

from roadscene.cli import main
from roadscene.config import MAX_SIDE
from roadscene.errors import InvalidSpec
from roadscene.geometry import PixelPoint, apply
from roadscene.motion import MPH_PER_MPS
from roadscene.simulate import (ActorScript, _fill_polygon,
                                build_truth, generate_detections,
                                generate_matches, parse_scenario,
                                render_frame, render_satellite,
                                run_simulate, truth_homography,
                                world_to_bev_matrix)


def parse(**kw):
    return parse_scenario(scene_dict(**kw))


# --- scenario validation ----------------------------------------------------

def test_parse_smoke():
    spec = parse()
    assert spec.duration == 100
    assert spec.actors[0].class_name == "car"


def test_missing_camera_field():
    data = scene_dict()
    del data["camera"]["theta_c"]
    with pytest.raises(InvalidSpec, match="theta_c"):
        parse_scenario(data)


def test_duration_must_be_positive():
    with pytest.raises(InvalidSpec, match="duration"):
        parse(duration=0)


def test_unknown_actor_class():
    with pytest.raises(InvalidSpec, match="hoverboard"):
        parse(actors=[{"class": "hoverboard", "path": [[0, [0, 15]]]}])


def test_path_outside_world_rejected():
    with pytest.raises(InvalidSpec, match="world rectangle"):
        parse(actors=[{"class": "car", "path": [[0, [50.0, 15.0]]]}])


def test_path_timestamps_must_increase():
    with pytest.raises(InvalidSpec, match="increasing"):
        parse(actors=[{"class": "car",
                       "path": [[1.0, [0, 15]], [1.0, [1, 15]]]}])


def test_dropout_range_checked():
    with pytest.raises(InvalidSpec, match="dropout"):
        parse(dropout=1.0)


def test_bad_hidden_range():
    with pytest.raises(InvalidSpec, match="hidden"):
        parse(actors=[{"class": "car", "path": [[0, [0, 15]]],
                       "hidden": [[5, 2]]}])


def test_road_polygon_needs_three_vertices():
    data = scene_dict()
    data["road_polygon"] = [[0, 12], [1, 12]]
    with pytest.raises(InvalidSpec, match="road_polygon"):
        parse_scenario(data)


def test_behind_camera_rejected_at_generation():
    data = scene_dict(actors=[{"class": "car", "path": [[0, [0.0, -20.0]]]}])
    data["world_origin"] = [-10.0, -30.0]
    spec = parse_scenario(data)
    with pytest.raises(InvalidSpec, match="behind"):
        generate_detections(spec, seed=0)


# each refusal of a scene: (a change to scene_dict(), the same fault in a
# spec built in code or None, the message)
def _actor(**change):
    return lambda data: data["actors"][0].update(change)


def _camera(**change):
    return lambda data: data["camera"].update(change)


def _spec(**change):
    return lambda spec: replace(spec, **change)


def _script(*args):
    return lambda spec: ActorScript(*args)


SCENE_REFUSALS = {
    # what only JSON can spell: a spec built in code has typed fields
    "missing-field": (lambda data: data.pop("fps"), None,
                      "missing field 'fps'"),
    "camera-not-object": (lambda data: data.update(camera=[1]), None,
                          "field 'camera' must be an object"),
    "actor-not-object": (lambda data: data.update(actors=[5]), None,
                         "actors[0] must be an object"),
    "path-node": (_actor(path=[[0.0, 1.0, 2.0]]), None,
                  "actors[0]: path[0] must be [t, [x, y]]"),
    "path-not-list": (_actor(path={"t": 0}), None,
                      "actors[0]: path must be a non-empty list"),
    # values; a camera in code refuses its own fields, as InputError
    "camera-pitch": (_camera(theta_c=95), None,
                     "camera: theta_c must be in (0, 90] degrees, got 95.0"),
    "camera-focal-length": (_camera(f=0), None,
                            "camera: f must be finite and positive, got 0.0"),
    "camera-height": (_camera(h_c=-2.5), None,
                      "camera: h_c must be finite and positive, got -2.5"),
    "bev-size": (lambda data: data.update(bev_size=[0, 300]),
                 _spec(bev_size=(0, 300)),
                 f"bev_size must be two sides in [1, {MAX_SIDE}], "
                 f"got (0, 300)"),
    "image-size": (lambda data: data.update(image_size=[640, MAX_SIDE + 1]),
                   _spec(image_size=(640, MAX_SIDE + 1)),
                   f"image_size must be two sides in [1, {MAX_SIDE}], "
                   f"got (640, {MAX_SIDE + 1})"),
    "iota": (lambda data: data.update(iota_m_per_px=-0.5),
             _spec(iota_m_per_px=-0.5),
             "iota_m_per_px must be positive, got -0.5"),
    "fps": (lambda data: data.update(fps=0), _spec(fps=0.0),
            "fps must be positive, got 0.0"),
    "duration": (lambda data: data.update(duration=0), _spec(duration=0),
                 "duration must be in [1, 2**63), got 0"),
    "duration-past-int64": (lambda data: data.update(duration=2 ** 63),
                            _spec(duration=2 ** 63),
                            f"duration must be in [1, 2**63), got {2 ** 63}"),
    "noise": (lambda data: data.update(noise_sigma_px=-1),
              _spec(noise_sigma_px=-1.0),
              "noise_sigma_px must be non-negative, got -1.0"),
    "n-matches": (lambda data: data.update(n_matches=-3),
                  _spec(n_matches=-3),
                  "n_matches must be non-negative, got -3"),
    "match-sigma": (lambda data: data.update(match_sigma_px=-0.5),
                    _spec(match_sigma_px=-0.5),
                    "match_sigma_px must be non-negative, got -0.5"),
    "dropout": (lambda data: data.update(dropout=1.0), _spec(dropout=1.0),
                "dropout must be in [0, 1), got 1.0"),
    "outlier-fraction": (lambda data: data.update(outlier_fraction=1.5),
                         _spec(outlier_fraction=1.5),
                         "outlier_fraction must be in [0, 1), got 1.5"),
    "road-polygon": (lambda data: data.update(road_polygon=[[0, 12], [1, 12]]),
                     _spec(road_polygon=((0.0, 12.0), (1.0, 12.0))),
                     "road_polygon needs at least 3 vertices"),
    "world-rectangle": (
        _actor(path=[[0.0, [50.0, 15.0]]]),
        _spec(actors=(ActorScript("car", ((0.0, (50.0, 15.0)),)),)),
        "actors[0]: path[0] at (50.0, 15.0) leaves the world rectangle "
        "[-10.0, 10.0] x [10.0, 25.0]"),
    "actor-class": (_actor(**{"class": "hoverboard"}),
                    _script("hoverboard", ((0.0, (0.0, 15.0)),)),
                    "actors[0]: unknown class 'hoverboard'"),
    "empty-path": (_actor(path=[]), _script("car", ()),
                   "actors[0]: path must be a non-empty list"),
    "path-times": (_actor(path=[[1.0, [0, 15]], [1.0, [1, 15]]]),
                   _script("car", ((1.0, (0.0, 15.0)), (1.0, (1.0, 15.0)))),
                   "actors[0]: path timestamps must be increasing"),
    "hidden-range": (_actor(hidden=[[5, 2]]),
                     _script("car", ((0.0, (0.0, 15.0)),), ((5, 2),)),
                     "actors[0]: bad hidden range [5, 2]"),
    "flicker": (_actor(flicker=1.0),
                _script("car", ((0.0, (0.0, 15.0)),), (), 1.0),
                "actors[0]: flicker must be in [0, 1), got 1.0"),
    # a scene that holds but cannot be drawn, refused as it is generated
    "degenerate-box": (lambda data: data.update(
        world_origin=[-10.0, -5.0],
        actors=[{"class": "car", "path": [[0.0, [0.0, -1.0]]]}]), None,
        "degenerate projected box for car at (0.0, -1.0)"),
    "matches-off-view": (lambda data: data.update(
        world_origin=[1000.0, 10.0], actors=[], n_matches=1), None,
        "cannot place correspondences: the BEV window barely overlaps the "
        "camera view"),
}


@pytest.mark.parametrize("name", SCENE_REFUSALS)
def test_scene_refusal_from_a_file_and_in_code(tmp_path, name):
    """`simulate` refuses the faulty file with exit 2 and one InvalidSpec
    line; a spec built in code with the same fault raises the same
    message."""
    change, build, message = SCENE_REFUSALS[name]
    data = scene_dict()
    change(data)
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(data))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["simulate", "--spec", str(scene),
                     "--out", str(tmp_path / "out")])
    assert (code, err.getvalue()) == (2, f"error: InvalidSpec: {message}\n")
    assert not (tmp_path / "out").exists()
    if build is not None:
        with pytest.raises(InvalidSpec) as caught:
            build(parse())
        # an ActorScript does not know its place in the scene
        assert message in (str(caught.value), f"actors[0]: {caught.value}")


# --- actor scripts ----------------------------------------------------------

def test_script_interpolation_and_clamping():
    actor = ActorScript("car", ((0.0, (0.0, 0.0)), (2.0, (4.0, 0.0))))
    assert actor.position(1.0) == (2.0, 0.0)
    assert actor.position(-1.0) == (0.0, 0.0)
    assert actor.position(99.0) == (4.0, 0.0)


def test_script_velocity_segments():
    actor = ActorScript("car", ((0.0, (0.0, 0.0)), (2.0, (4.0, 0.0)),
                                (4.0, (4.0, 2.0))))
    assert actor.velocity(1.0) == (2.0, 0.0)
    assert actor.velocity(2.0) == (0.0, 1.0)  # node takes outgoing segment
    assert actor.velocity(5.0) == (0.0, 0.0)
    assert actor.velocity(-0.5) == (0.0, 0.0)


def test_static_actor_has_zero_speed():
    actor = ActorScript("car", ((0.0, (1.0, 2.0)),))
    assert actor.position(3.0) == (1.0, 2.0)
    assert actor.velocity(3.0) == (0.0, 0.0)


# --- detections -------------------------------------------------------------

def test_static_car_zero_noise_identical_bbox():
    spec = parse(duration=50,
                 actors=[{"class": "car", "path": [[0.0, [0.0, 15.0]]]}])
    frames, visible = generate_detections(spec, seed=1)
    boxes = {tuple(dets.bbox[0].tolist()) for _, dets in frames}
    assert len(boxes) == 1
    assert all(visible[0])


def test_noise_perturbs_center_not_size():
    spec = parse(duration=20, noise=1.0,
                 actors=[{"class": "car", "path": [[0.0, [0.0, 15.0]]]}])
    frames, _ = generate_detections(spec, seed=1)
    sizes = {tuple(dets.bbox[0, 2:].tolist()) for _, dets in frames}
    centers = {tuple(dets.bbox[0, :2].tolist()) for _, dets in frames}
    assert len(sizes) == 1
    assert len(centers) > 1


def test_hidden_ranges_suppress_detections():
    spec = parse(duration=30,
                 actors=[{"class": "car", "path": [[0.0, [0.0, 15.0]]],
                          "hidden": [[10, 14]]}])
    frames, visible = generate_detections(spec, seed=0)
    for frame, dets in frames:
        expected = 0 if 10 <= frame <= 14 else 1
        assert len(dets) == expected
    assert visible[0][9] and not visible[0][10] and visible[0][15]


def test_dropout_fraction_is_binomial():
    spec = parse(duration=1000, dropout=0.1,
                 actors=[{"class": "car", "path": [[0.0, [0.0, 15.0]]]}])
    _, visible = generate_detections(spec, seed=3)
    missing = 1.0 - sum(visible[0]) / 1000.0
    assert 0.08 <= missing <= 0.12


def test_flicker_changes_reported_class():
    spec = parse(duration=400,
                 actors=[{"class": "car", "path": [[0.0, [0.0, 15.0]]],
                          "flicker": 0.25}])
    frames, _ = generate_detections(spec, seed=5)
    car_idx = 3  # alphabetical position of "car"
    flipped = sum(1 for _, dets in frames
                  if dets.class_probs[0, car_idx] < 0.5)
    assert 0 < flipped < 200


def test_pedestrian_box_is_smaller_than_bus():
    spec = parse(actors=[
        {"class": "pedestrian", "path": [[0.0, [0.0, 15.0]]]},
        {"class": "bus", "path": [[0.0, [3.0, 15.0]]]}])
    frames, _ = generate_detections(spec, seed=0)
    ped, bus = frames[0][1].bbox
    assert ped[2] < bus[2]
    assert ped[3] < bus[3]


# --- truth ------------------------------------------------------------------

def test_truth_speed_30_mph():
    # 13.41 m/s straight line is 30.0 mph within rounding of the source
    spec = parse(duration=10, actors=[
        {"class": "car", "path": [[0.0, [-9.0, 15.0]], [1.3, [8.433, 15.0]]]}])
    truth = build_truth(spec, [[True] * 10])
    mph = truth["actors"][0]["speeds_mph"][5]
    assert mph == pytest.approx(13.41 * MPH_PER_MPS, abs=1e-9)
    assert mph == pytest.approx(30.0, abs=0.01)


def test_truth_positions_match_world_to_bev():
    spec = parse(duration=3,
                 actors=[{"class": "car", "path": [[0.0, [2.0, 15.0]]]}])
    truth = build_truth(spec, [[True] * 3])
    a = world_to_bev_matrix(spec)
    expected = a @ np.array([2.0, 15.0, 1.0])
    assert truth["actors"][0]["positions_bev"][0] == \
        pytest.approx([expected[0], expected[1]])
    # y=15 with origin y=10 at 0.05 m/px -> bev y 100
    assert truth["actors"][0]["positions_bev"][0][1] == pytest.approx(100.0)


def test_truth_heading_follows_velocity():
    spec = parse(duration=5, actors=[
        {"class": "car", "path": [[0.0, [0.0, 12.0]], [2.0, [0.0, 18.0]]]}])
    truth = build_truth(spec, [[True] * 5])
    assert truth["actors"][0]["headings_deg"][2] == pytest.approx(90.0)


def test_truth_static_heading_is_null():
    spec = parse(duration=3,
                 actors=[{"class": "car", "path": [[0.0, [0.0, 15.0]]]}])
    truth = build_truth(spec, [[True] * 3])
    assert truth["actors"][0]["headings_deg"][0] is None


def test_truth_homography_consistent_with_projection():
    spec = parse()
    g = truth_homography(spec)
    from roadscene.geometry import compose_from_camera
    h_wp = compose_from_camera(spec.camera)
    a = world_to_bev_matrix(spec)
    for wx, wy in [(-5.0, 12.0), (0.0, 15.0), (7.0, 22.0)]:
        persp = apply(h_wp, PixelPoint(wx, wy, "world"))
        bev = apply(g, PixelPoint.perspective(persp.x, persp.y))
        expected = a @ np.array([wx, wy, 1.0])
        assert bev.x == pytest.approx(expected[0], abs=1e-6)
        assert bev.y == pytest.approx(expected[1], abs=1e-6)


# --- matches ----------------------------------------------------------------

def test_matches_counts_and_outlier_mask():
    spec = parse(n_matches=200, match_sigma=0.5, outliers=0.4)
    pairs, mask = generate_matches(spec, seed=2)
    assert len(pairs) == 200
    assert sum(mask) == 80


def test_matches_inliers_map_close_outliers_far():
    spec = parse(n_matches=100, match_sigma=0.5, outliers=0.3)
    g = truth_homography(spec)
    pairs, mask = generate_matches(spec, seed=2)
    for (cam, sat), is_outlier in zip(pairs, mask):
        mapped = apply(g, PixelPoint.perspective(*cam))
        err = math.hypot(mapped.x - sat[0], mapped.y - sat[1])
        if is_outlier:
            assert err > 3.0
        else:
            assert err < 3.0


def test_matches_clean_when_sigma_zero():
    spec = parse(n_matches=50)
    g = truth_homography(spec)
    pairs, mask = generate_matches(spec, seed=0)
    assert not any(mask)
    for cam, sat in pairs:
        mapped = apply(g, PixelPoint.perspective(*cam))
        assert math.hypot(mapped.x - sat[0], mapped.y - sat[1]) < 1e-6


# --- rendered artifacts -----------------------------------------------------

def test_fill_polygon_rectangle_area():
    pts = np.array([[2.0, 3.0], [10.0, 3.0], [10.0, 8.0], [2.0, 8.0]])
    inside = _fill_polygon((12, 14), pts)
    assert inside.sum() == 8 * 5
    assert inside[4, 4] and not inside[4, 11]


def test_satellite_road_is_brighter_and_speckled():
    spec = parse()
    img = render_satellite(spec, seed=1)
    road = img.pixels[150, 200]
    ground = img.pixels[10, 10]
    assert 100 <= road <= 120
    assert 30 <= ground <= 50
    # speckle varies but stays under the region-growing threshold
    patch = img.pixels[140:160, 190:210].astype(int)
    assert patch.max() - patch.min() > 0
    assert np.abs(np.diff(patch, axis=1)).max() < 12


def test_frame_draws_actor_block():
    spec = parse(duration=1,
                 actors=[{"class": "bus", "path": [[0.0, [0.0, 15.0]]]}])
    img = render_frame(spec, 0)
    assert (img.pixels == 220).sum() > 100


def test_run_simulate_writes_and_reruns_identically(tmp_path):
    spec = parse(duration=10, noise=0.3, n_matches=20, match_sigma=0.5,
                 outliers=0.25)
    a, b = tmp_path / "a", tmp_path / "b"
    run_simulate(spec, a, seed=9)
    run_simulate(spec, b, seed=9)
    for name in ("detections.jsonl", "truth.json", "matches.json",
                 "satellite.pgm"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_run_simulate_frames_flag(tmp_path):
    spec = parse(duration=3)
    run_simulate(spec, tmp_path, seed=0, with_frames=True)
    assert (tmp_path / "frames" / "frame_0000.pgm").exists()
    assert (tmp_path / "frames" / "frame_0002.pgm").exists()
