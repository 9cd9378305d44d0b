"""Whole-system checks, one test per release criterion.

Each test prints a PASS/FAIL line with the measured figure next to the
required bound, so `pytest -s tests/test_acceptance.py` reads as a report.
"""

import collections
import json
import math
import time

import numpy as np
from scene_helpers import scene_dict

from roadscene.box3d import lift_to_3d, make_footprint
from roadscene.calibration import (Correspondence, es_minimize,
                                   fit_distortion_es, ransac_homography,
                                   ransac_iterations, straightness_objective)
from roadscene.cli import main
from roadscene.config import CLASS_NAMES, DEFAULT_PRIORS
from roadscene.geometry import (BEV, PERSPECTIVE, CameraModel, GroundScale,
                                Homography, PixelPoint, apply, apply_many,
                                compose_from_camera, estimate_dlt_xy,
                                intrinsic_matrix, invert, projection_matrix,
                                rotation_matrix, translation_matrix)
from roadscene.imaging import (BackgroundAccumulator, DistortionParams,
                               ImageBuffer, accumulate_background,
                               distort_point)
from roadscene.motion import bounce_weight
from roadscene.records import (load_heatmap, load_tracks, merge_heatmaps,
                               save_heatmap)
from roadscene.roadmodel import SrgParams, srg_segment
from roadscene.simulate import (generate_matches, parse_scenario,
                                run_simulate, truth_homography)


def report(num: int, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def truth_calibration(spec, path, bev_size=(400, 300)):
    g = truth_homography(spec)
    path.write_text(json.dumps({
        "g": [[float(v) for v in row] for row in g.matrix],
        "iota_m_per_px": spec.iota_m_per_px,
        "bev_size": list(bev_size)}))
    return path


# 1. Calibration accuracy: 200 correspondences, 0.5 px noise, 40% outliers,
#    fixed seed; recovered homography reprojects true inliers < 0.5 px RMSE
#    in under a second.
def test_criterion_01_calibration_accuracy():
    spec = parse_scenario(scene_dict(
        duration=1, iota=0.1, bev=(200, 150), road=False,
        n_matches=200, match_sigma=0.5, outliers=0.4))
    pairs, outlier_mask = generate_matches(spec, seed=20)
    matches = [Correspondence(cam=PixelPoint.perspective(*cam),
                              sat=PixelPoint.bev(*sat))
               for cam, sat in pairs]
    t0 = time.perf_counter()
    result = ransac_homography(matches, rng_seed=99)
    elapsed = time.perf_counter() - t0
    errs = []
    for m, is_outlier in zip(matches, outlier_mask):
        if not is_outlier:
            p = apply(result.h, m.cam)
            errs.append((p.x - m.sat.x) ** 2 + (p.y - m.sat.y) ** 2)
    rmse = math.sqrt(sum(errs) / len(errs))
    report(1, rmse < 0.5 and elapsed < 1.0,
           f"true-inlier RMSE {rmse:.3f} px (< 0.5), "
           f"runtime {elapsed:.3f} s (< 1)")


# 2. Adaptive iteration formula, exact ceiling values.
def test_criterion_02_ransac_iteration_formula():
    a = ransac_iterations(0.99, 0.5)
    b = ransac_iterations(0.99, 0.9)
    report(2, a == 72 and b == 5,
           f"iterations(0.99, 0.5, 4) = {a} (= 72), "
           f"iterations(0.99, 0.9, 4) = {b} (= 5)")


# 3. Distortion recovery on 10 straight trajectories with planted k1 = -0.2:
#    k1 within 10%, straightness residual cut by 90%, monotone search.
def test_criterion_03_distortion_recovery():
    rng = np.random.default_rng(300)
    image_size = (640, 480)
    planted = DistortionParams.centered((-0.2, 0.0), image_size)
    trajectories = []
    for _ in range(10):
        x0, x1 = sorted(rng.uniform(20, 620, size=2))
        y0, y1 = rng.uniform(20, 460, size=2)
        ts = np.linspace(0.0, 1.0, 30)
        trajectories.append([
            distort_point(PixelPoint.perspective(
                x0 + t * (x1 - x0), y0 + t * (y1 - y0)), planted)
            for t in ts])
    fitted = fit_distortion_es(trajectories, image_size, seed=7)
    k1_ok = abs(fitted.k[0] - (-0.2)) <= 0.1 * 0.2

    arrays = [np.array([[p.x, p.y] for p in t]) for t in trajectories]
    objective = straightness_objective(arrays, image_size)
    before = objective(np.zeros(2))
    after = objective(np.array(fitted.k))
    reduced = after <= 0.1 * before

    result = es_minimize(objective, (0.0, 0.0), np.random.default_rng(301))
    monotone = all(b <= a + 1e-15
                   for a, b in zip(result.history, result.history[1:]))
    report(3, k1_ok and reduced and monotone,
           f"k1 {fitted.k[0]:.4f} (-0.2 +-10%), residual {after:.3g} vs "
           f"{before:.3g} (>= 90% cut), monotone={monotone}")


# 4. Speed accuracy: 30.0 mph script, 25 fps, 1 px noise; estimate within
#    5% on at least 90% of frames once 25 frames have passed.
def test_criterion_04_speed_accuracy(tmp_path):
    mps = 30.0 / 2.236936
    data = scene_dict(
        duration=71, fps=25.0, iota=0.1, noise=1.0,
        actors=[{"class": "car",
                 "path": [[0.0, [-9.0, 20.0]],
                          [38.0 / mps, [29.0, 20.0]]]}],
        road=False)
    spec = parse_scenario(data)
    run_simulate(spec, tmp_path / "sim", seed=40)
    cal = truth_calibration(spec, tmp_path / "cal.json")
    assert main(["track", "--detections", str(tmp_path / "sim/detections.jsonl"),
                 "--calibration", str(cal),
                 "--out", str(tmp_path / "tracks.jsonl")]) == 0
    table = load_tracks(tmp_path / "tracks.jsonl")
    speeds = table.speed_mph[table.frame >= 25].tolist()
    inside = sum(1 for speed in speeds if 28.5 <= speed <= 31.5)
    frac = inside / len(speeds)
    report(4, frac >= 0.9,
           f"{inside}/{len(speeds)} frames within 28.5-31.5 mph "
           f"({frac:.0%}, need >= 90%)")


# 5. Heading-bounce weight at the exact anchor angles.
def test_criterion_05_abf_exactness():
    checks = {0.0: 1.0, 90.0: 0.0, -90.0: 0.0, 180.0: 1.0, -180.0: 1.0,
              45.0: 0.5}
    worst = max(abs(bounce_weight(d) - w) for d, w in checks.items())
    report(5, worst < 1e-12, f"max |w(angle) - expected| = {worst:.2e} "
                             f"(< 1e-12) over {sorted(checks)}")


# 6. Tracking: crossing cars keep ids, a 10-frame occlusion keeps the id,
#    and 20% class flicker still reports a stable class on 95% of frames.
def test_criterion_06_tracking_stability(tmp_path):
    def run_scene(name, actors, duration):
        out = tmp_path / name
        spec = parse_scenario(scene_dict(duration=duration, actors=actors,
                                         road=False))
        run_simulate(spec, out, seed=60)
        cal = truth_calibration(spec, tmp_path / f"{name}_cal.json")
        tracks = tmp_path / f"{name}_tracks.jsonl"
        assert main(["track", "--detections", str(out / "detections.jsonl"),
                     "--calibration", str(cal), "--out", str(tracks)]) == 0
        return spec, load_tracks(tracks), out

    # crossing paths, offset in time so the boxes never overlap
    spec, rows, sim = run_scene("cross", [
        {"class": "car", "path": [[0.0, [-8.0, 15.0]], [2.0, [8.0, 15.0]]]},
        {"class": "car", "path": [[0.0, [0.0, 22.0]], [3.5, [0.0, 11.0]]]},
    ], 100)
    truth = json.loads((sim / "truth.json").read_text())
    owner = {}
    clean = True
    for frame, track_id, (bx, by) in zip(rows.frame.tolist(),
                                         rows.ids.tolist(),
                                         rows.xy.tolist()):
        best = min(range(2), key=lambda i: (
            (truth["actors"][i]["positions_bev"][frame][0] - bx) ** 2
            + (truth["actors"][i]["positions_bev"][frame][1] - by) ** 2))
        if track_id in owner and owner[track_id] != best:
            clean = False
        owner[track_id] = best
    crossing_ok = clean and len(owner) == 2

    _, rows, _ = run_scene("occl", [
        {"class": "car", "path": [[0.0, [-8.0, 14.0]], [2.4, [8.0, 14.0]]],
         "hidden": [[20, 29]]}], 60)
    ids_before = set(rows.ids[rows.frame < 20].tolist())
    ids_after = set(rows.ids[rows.frame >= 30].tolist())
    occlusion_ok = ids_before == ids_after and len(ids_before) == 1

    _, rows, _ = run_scene("flick", [
        {"class": "car", "path": [[0.0, [-8.0, 14.0]], [4.0, [8.0, 14.0]]],
         "flicker": 0.2}], 100)
    stable = sum(1 for c in rows.class_index.tolist()
                 if CLASS_NAMES[c] == "car") / len(rows)
    flicker_ok = stable >= 0.95

    report(6, crossing_ok and occlusion_ok and flicker_ok,
           f"crossing ids stable={crossing_ok}, occlusion id "
           f"kept={occlusion_ok}, class stable {stable:.0%} (>= 95%)")


# 7. Region growing equals an independent BFS flood fill, exactly, on 20
#    random piecewise-constant images.
def test_criterion_07_srg_oracle_equivalence():
    def oracle(pixels, seeds, tau):
        h, w = pixels.shape
        grown = np.zeros((h, w), dtype=bool)
        queue = collections.deque()
        for x, y in seeds:
            if not grown[y, x]:
                grown[y, x] = True
                queue.append((x, y))
        while queue:
            x, y = queue.popleft()
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    nx, ny = x + dx, y + dy
                    if (dx or dy) and 0 <= nx < w and 0 <= ny < h \
                            and not grown[ny, nx] \
                            and abs(int(pixels[ny, nx])
                                    - int(pixels[y, x])) < tau:
                        grown[ny, nx] = True
                        queue.append((nx, ny))
        return grown

    rng = np.random.default_rng(700)
    agree = 0
    for _ in range(20):
        img = np.full((64, 64), 128, dtype=np.uint8)
        for _ in range(rng.integers(2, 7)):
            x0, y0 = rng.integers(0, 56, size=2)
            ww, hh = rng.integers(4, 24, size=2)
            img[y0:y0 + hh, x0:x0 + ww] = rng.integers(0, 256)
        seeds = [(int(x), int(y))
                 for x, y in rng.integers(0, 64, size=(3, 2))]
        mask = srg_segment(ImageBuffer(img),
                           [PixelPoint.bev(x, y) for x, y in seeds],
                           SrgParams(tau_alpha=12.0))
        if np.array_equal(mask.pixels, oracle(img, seeds, 12.0)):
            agree += 1
    report(7, agree == 20, f"{agree}/20 images match the BFS oracle exactly")


# 8. Heat-map mass conservation over 1e5 bumps with border clipping, and
#    exact shard merging through the files that `merge` folds.
def test_criterion_08_heatmap_conservation(tmp_path):
    from roadscene.analytics import HeatMap, bump
    rng = np.random.default_rng(800)
    single = HeatMap((40, 50), "vehicle")
    s1 = HeatMap((40, 50), "vehicle")
    s2 = HeatMap((40, 50), "vehicle")
    n = 100_000
    xs = rng.uniform(-1.0, 51.0, size=n)
    ys = rng.uniform(-1.0, 41.0, size=n)
    for i in range(n):
        p = PixelPoint.bev(xs[i], ys[i])
        bump(single, p)
        bump(s1 if i < n // 2 else s2, p)
    err = abs(float((single.units / 144).sum()) - n)
    shards = [tmp_path / "s1.json", tmp_path / "s2.json"]
    for path, heat in zip(shards, (s1, s2)):
        save_heatmap(path, heat)
    save_heatmap(tmp_path / "merged.json", merge_heatmaps(shards))
    merged = load_heatmap(tmp_path / "merged.json")
    exact = (np.array_equal(merged.units, single.units)
             and merged.events == single.events)
    report(8, err < 1e-9 and exact,
           f"|sum - {n}| = {err:.2e} (< 1e-9), shard merge exact={exact}")


# 9. Background accumulator deviation decays exactly as (1 - alpha)^n.
def test_criterion_09_background_decay():
    alpha = 0.01
    acc = BackgroundAccumulator(alpha=alpha)
    first = ImageBuffer(np.full((6, 8), 200, dtype=np.uint8))
    steady = ImageBuffer(np.full((6, 8), 80, dtype=np.uint8))
    accumulate_background(acc, first)
    worst = 0.0
    for n in range(1, 201):
        accumulate_background(acc, steady)
        expected = 80.0 + (1.0 - alpha) ** n * 120.0
        worst = max(worst, abs(acc.b[0, 0] - expected) / expected)
    report(9, worst < 1e-9,
           f"max relative deviation from (1-a)^n law = {worst:.2e} (< 1e-9)")


# 10. Core geometry: round trips, camera composition, noiseless DLT.
def test_criterion_10_geometry():
    rng = np.random.default_rng(1000)
    g = Homography(np.array([[1.1, 0.02, 5.0],
                             [-0.03, 0.97, -2.0],
                             [1e-4, -2e-4, 1.0]]))
    pts = rng.uniform(-200.0, 200.0, size=(1000, 2))
    back = apply_many(invert(g), apply_many(g, pts))
    round_trip = float(np.abs(back - pts).max())

    cam = CameraModel(f=800.0, kx=1.0, ky=1.1, shear=0.2, cx=320.0,
                      cy=240.0, theta_c=50.0, h_c=9.0)
    h = compose_from_camera(cam)
    p34 = (intrinsic_matrix(cam) @ rotation_matrix(cam)
           @ translation_matrix(cam))
    world = rng.uniform((-20.0, 5.0), (20.0, 60.0), size=(200, 2))
    cam_err = 0.0
    for wx, wy in world:
        ph = p34 @ np.array([wx, wy, 0.0, 1.0])
        via_h = apply(h, PixelPoint(wx, wy, "world"))
        cam_err = max(cam_err, abs(via_h.x - ph[0] / ph[2]),
                      abs(via_h.y - ph[1] / ph[2]))

    src = rng.uniform(0.0, 100.0, size=(12, 2))
    dst = apply_many(g, src)
    g_hat = Homography(estimate_dlt_xy(src, dst))
    dlt_rmse = float(np.sqrt(np.mean(
        (apply_many(g_hat, src) - dst) ** 2)))
    ok = round_trip < 1e-9 and cam_err < 1e-9 and dlt_rmse < 1e-8
    report(10, ok,
           f"round trip {round_trip:.2e} (< 1e-9), K[R|T] vs composed "
           f"{cam_err:.2e} (< 1e-9), DLT RMSE {dlt_rmse:.2e} (< 1e-8)")


# 11. Cuboids: rotation-invariant footprint area, equal vertical edges,
#     floor corners that survive the BEV round trip, bus prior 5.80 x 2.9.
def test_criterion_11_boxes():
    scale = GroundScale(0.05)
    areas = []
    for theta in (0.0, 17.3, 45.0, 90.0, 133.7):
        corners = make_footprint(PixelPoint.bev(150.0, 100.0), "bus",
                                 theta, DEFAULT_PRIORS, scale)
        xs = [c.x for c in corners]
        ys = [c.y for c in corners]
        areas.append(0.5 * abs(sum(
            xs[i] * ys[(i + 1) % 4] - xs[(i + 1) % 4] * ys[i]
            for i in range(4))))
    area_spread = (max(areas) - min(areas)) / areas[0]

    h_inv = Homography(np.array([[2.0, 0.1, 30.0],
                                 [-0.05, 1.8, 10.0],
                                 [1e-4, 5e-5, 1.0]]),
                       source=BEV, target=PERSPECTIVE)
    footprint = make_footprint(PixelPoint.bev(150.0, 100.0), "bus", 30.0,
                               DEFAULT_PRIORS, scale)
    cube = lift_to_3d(footprint, h_inv, (200.0, 150.0, 80.0, 50.0), "bus")
    edges = {round(floor_c.y - roof_c.y, 12)
             for floor_c, roof_c in zip(cube.corners[:4], cube.corners[4:])}
    vertical_ok = len(edges) == 1 and edges.pop() > 0

    g = invert(h_inv)
    floor_err = max(
        math.hypot(apply(g, pc).x - fc.x, apply(g, pc).y - fc.y)
        for pc, fc in zip(cube.corners[:4], footprint))

    bus = DEFAULT_PRIORS["bus"]
    prior_ok = (bus.length_m, bus.width_m) == (5.8, 2.9)
    ok = (area_spread < 1e-9 and vertical_ok and floor_err < 1e-6
          and prior_ok)
    report(11, ok,
           f"area spread {area_spread:.2e} (< 1e-9 rel), vertical edges "
           f"equal={vertical_ok}, floor round trip {floor_err:.2e} px "
           f"(< 1e-6), bus prior {bus.length_m}x{bus.width_m} (= 5.8x2.9)")


# 12. Every CLI command is byte-identical when rerun with the same
#     config and seed.
def test_criterion_12_determinism(tmp_path):
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(scene_dict(
        duration=50, noise=0.4, n_matches=80, match_sigma=0.5, outliers=0.3,
        actors=[
            {"class": "car",
             "path": [[0.0, [-8.0, 14.0]], [2.0, [8.0, 14.0]]]},
            {"class": "pedestrian",
             "path": [[0.0, [0.0, 12.5]], [2.0, [1.5, 12.5]]]},
        ])))

    def chain(tag):
        root = tmp_path / tag
        sim, cal, road, an, rend = (root / "sim", root / "cal",
                                    root / "road", root / "an",
                                    root / "rend")
        tracks = root / "tracks.jsonl"
        merged = root / "merged.json"
        assert main(["simulate", "--spec", str(scene), "--out", str(sim),
                     "--seed", "12"]) == 0
        assert main(["calibrate", "--matches", str(sim / "matches.json"),
                     "--satellite", str(sim / "satellite.pgm"),
                     "--out", str(cal), "--seed", "12"]) == 0
        assert main(["track", "--detections", str(sim / "detections.jsonl"),
                     "--calibration", str(cal / "calibration.json"),
                     "--out", str(tracks)]) == 0
        assert main(["segment", "--tracks", str(tracks),
                     "--satellite", str(sim / "satellite.pgm"),
                     "--out", str(road)]) == 0
        assert main(["analyze", "--tracks", str(tracks),
                     "--calibration", str(cal / "calibration.json"),
                     "--boundary", str(road / "boundary.json"),
                     "--out", str(an)]) == 0
        assert main(["render", "--heat-dir", str(an),
                     "--calibration", str(cal / "calibration.json"),
                     "--satellite", str(sim / "satellite.pgm"),
                     "--out", str(rend)]) == 0
        assert main(["merge", str(an / "heat_vehicle.json"),
                     str(an / "heat_vehicle.json"),
                     "--out", str(merged)]) == 0
        out = {}
        for base in (sim, cal, road, an, rend):
            for f in sorted(base.rglob("*")):
                if f.is_file():
                    out[str(f.relative_to(root))] = f.read_bytes()
        out["tracks.jsonl"] = tracks.read_bytes()
        out["merged.json"] = merged.read_bytes()
        return out

    first = chain("a")
    second = chain("b")
    same = (first.keys() == second.keys()
            and all(first[k] == second[k] for k in first))
    report(12, same,
           f"{len(first)} artifacts from 7 commands byte-identical "
           f"across reruns")


# 13. 1000 frames, 10 actors: track + analyze + render in under 10 s.
def test_criterion_13_desk_scale_performance(tmp_path):
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
    spec = parse_scenario(scene_dict(duration=1000, noise=0.5,
                                     actors=actors))
    run_simulate(spec, tmp_path / "sim", seed=13)
    cal = truth_calibration(spec, tmp_path / "cal.json")

    t0 = time.perf_counter()
    assert main(["track", "--detections",
                 str(tmp_path / "sim/detections.jsonl"),
                 "--calibration", str(cal),
                 "--out", str(tmp_path / "tracks.jsonl")]) == 0
    assert main(["analyze", "--tracks", str(tmp_path / "tracks.jsonl"),
                 "--calibration", str(cal),
                 "--out", str(tmp_path / "an")]) == 0
    assert main(["render", "--heat-dir", str(tmp_path / "an"),
                 "--calibration", str(cal),
                 "--satellite", str(tmp_path / "sim/satellite.pgm"),
                 "--out", str(tmp_path / "rend")]) == 0
    elapsed = time.perf_counter() - t0

    rows = load_tracks(tmp_path / "tracks.jsonl")
    veh = load_heatmap(tmp_path / "an" / "heat_vehicle.json")
    ids = len(set(rows.ids.tolist()))
    ok = elapsed < 10.0 and ids >= 10 and veh.events > 0
    report(13, ok, f"track+analyze+render {elapsed:.2f} s (< 10), "
                   f"{ids} identities tracked")
