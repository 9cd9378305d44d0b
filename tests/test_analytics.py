import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from roadscene import analytics
from roadscene.analytics import (
    GRADIENT_ANCHORS,
    AnalyticsConfig,
    FrameStats,
    FrameTracks,
    HeatMap,
    StateClassifier,
    StateSets,
    bump,
    frame_stats,
    make_heatmaps,
    perspective_sample,
    render,
    update_heatmaps,
)
from roadscene.cli import main
from roadscene.errors import (EmptyHeatMap, MissingCalibration, SchemaError,
                              ShapeMismatch)
from roadscene.geometry import (BEV, PERSPECTIVE, GroundScale, Homography,
                                PixelPoint, apply_many, invert)
from roadscene.imaging import ImageBuffer
from roadscene.records import load_heatmap, merge_heatmaps, save_heatmap
from roadscene.roadmodel import BoundarySet

SCALE = GroundScale(iota=0.1)  # 10 px per meter


def obs(track_id, x, y, speed, pedestrian=False):
    """One track row: (id, pedestrian, x, y, speed in mph)."""
    return (track_id, pedestrian, float(x), float(y), float(speed))


def ft(rows) -> FrameTracks:
    """The rows of `obs` as one frame's columns."""
    return FrameTracks(
        ids=np.array([r[0] for r in rows], dtype=np.int64),
        pedestrian=np.array([r[1] for r in rows], dtype=bool),
        xy=np.array([r[2:4] for r in rows], dtype=float).reshape(-1, 2),
        speed_mph=np.array([r[4] for r in rows], dtype=float))


LABELS = ("parking", "speeding", "collision_risk", "congestion")


def states_of(rows, frame=0, **chosen) -> StateSets:
    """States over the rows of `obs`: each label's mask marks the ids in
    `chosen[label]`, none when the label is not given."""
    ids = ft(rows).ids
    return StateSets(frame, ids, **{
        label: np.isin(ids, list(chosen.get(label, ()))) for label in LABELS})


def members(states, label) -> set:
    """The ids whose rows the `label` mask of `states` marks."""
    return set(states.ids[getattr(states, label)].tolist())


def left_border(height=60):
    return BoundarySet(chains=(tuple((0, y) for y in range(height)),))


class TestBump:
    def test_interior_bump_unit_mass(self):
        heat = HeatMap((20, 20), "vehicle")
        bump(heat, PixelPoint.bev(10, 10))
        assert heat.events == 1
        assert heat.units.sum() == 144
        # 4/16, 2/16 and 1/16 of the event's mass
        assert heat.units[10, 10] == 36
        assert heat.units[9, 10] == 18
        assert heat.units[9, 9] == 9

    def test_corner_bump_renormalized(self):
        heat = HeatMap((20, 20), "vehicle")
        bump(heat, PixelPoint.bev(0, 0))
        assert heat.units.sum() == 144
        assert heat.units[2:, :].sum() == 0

    def test_edge_bump_renormalized(self):
        heat = HeatMap((20, 20), "vehicle")
        bump(heat, PixelPoint.bev(5, 0))
        assert heat.units.sum() == 144

    def test_one_pixel_map(self):
        heat = HeatMap((1, 1), "vehicle")
        bump(heat, PixelPoint.bev(0, 0))
        assert heat.units[0, 0] == 144

    def test_one_row_map(self):
        heat = HeatMap((1, 7), "vehicle")
        bump(heat, PixelPoint.bev(3, 0))
        assert heat.units.sum() == 144

    def test_out_of_bounds_center_clamped(self):
        heat = HeatMap((10, 10), "vehicle")
        bump(heat, PixelPoint.bev(-4.0, 25.0))
        assert heat.events == 1
        assert heat.units.sum() == 144
        assert heat.units[9, 0] > 0

    def test_fractional_position_rounds(self):
        heat = HeatMap((10, 10), "vehicle")
        bump(heat, PixelPoint.bev(4.5, 4.49))
        assert heat.units[4, 5] == 36

    def test_mass_conservation_random(self):
        rng = np.random.default_rng(7)
        heat = HeatMap((48, 64), "pedestrian")
        n = 10_000
        for x, y in rng.uniform(-2, 66, size=(n, 2)):
            bump(heat, PixelPoint.bev(x, y))
        assert heat.events == n
        assert heat.units.sum() == 144 * n

    def test_perspective_point_rejected(self):
        heat = HeatMap((10, 10), "vehicle")
        with pytest.raises(ValueError):
            bump(heat, PixelPoint.perspective(5, 5))

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            HeatMap((10, 10), "velocity")


def _filled(cell: int) -> HeatMap:
    """A 1 x 2 map whose first cell is `cell`; the second fills its mass."""
    return HeatMap.from_units(np.array([[cell, -cell % 144]]),
                              -(-cell // 144), "vehicle")


class TestMerge:
    """`records.merge_heatmaps`, the fold that the `merge` command runs,
    over maps saved by `save_heatmap`."""

    @staticmethod
    def fold(root, *maps) -> HeatMap:
        paths = [root / f"{k}.json" for k in range(len(maps))]
        for path, heat in zip(paths, maps):
            save_heatmap(path, heat)
        save_heatmap(root / "merged.json", merge_heatmaps(paths))
        return load_heatmap(root / "merged.json")

    def test_sharded_equals_single_pass(self, tmp_path):
        rng = np.random.default_rng(11)
        points = rng.uniform(0, 32, size=(500, 2))
        whole = HeatMap((32, 32), "vehicle")
        for x, y in points:
            bump(whole, PixelPoint.bev(x, y))
        first = HeatMap((32, 32), "vehicle")
        second = HeatMap((32, 32), "vehicle")
        for x, y in points[:250]:
            bump(first, PixelPoint.bev(x, y))
        for x, y in points[250:]:
            bump(second, PixelPoint.bev(x, y))
        merged = self.fold(tmp_path, first, second)
        assert merged.events == whole.events
        assert np.array_equal(merged.units, whole.units)

    def test_kind_mismatch(self, tmp_path):
        with pytest.raises(SchemaError, match="cannot merge 'speeding'"):
            self.fold(tmp_path, HeatMap((8, 8), "vehicle"),
                      HeatMap((8, 8), "speeding"))

    def test_shape_mismatch(self, tmp_path):
        with pytest.raises(SchemaError, match="shape mismatch"):
            self.fold(tmp_path, HeatMap((8, 8), "vehicle"),
                      HeatMap((9, 8), "vehicle"))

    @pytest.mark.parametrize("a, b", [(2 ** 63 - 1, 1),
                                      (144 * 2 ** 55, 144 * 2 ** 55)])
    def test_overflow_refused_and_map_kept(self, tmp_path, a, b):
        with pytest.raises(SchemaError, match="overflow"):
            self.fold(tmp_path, _filled(a), _filled(b))
        assert not (tmp_path / "merged.json").exists()
        assert load_heatmap(tmp_path / "0.json").units.tolist() == [
            [a, -a % 144]]

    def test_sums_at_the_int64_edges_merge(self, tmp_path):
        merged = self.fold(tmp_path, _filled(2 ** 63 - 2), _filled(1))
        assert merged.units.tolist() == [[2 ** 63 - 1,
                                          -(2 ** 63 - 2) % 144 + 143]]


class TestParking:
    def make(self, fps=1.0, **kwargs):
        return StateClassifier(left_border(), SCALE,
                               AnalyticsConfig(**kwargs), fps)

    def test_parks_after_one_minute_near_border(self):
        clf = self.make()
        states = None
        for frame in range(61):
            states = clf.step(frame, ft([obs(1, 5.0, 30.0, 0.0)]))
        assert 1 in members(states, "parking")

    def test_not_parked_before_one_minute(self):
        clf = self.make()
        for frame in range(59):
            states = clf.step(frame, ft([obs(1, 5.0, 30.0, 0.0)]))
        assert 1 not in members(states, "parking")

    def test_far_from_border_never_parks(self):
        clf = self.make()
        for frame in range(120):
            states = clf.step(frame, ft([obs(1, 30.0, 30.0, 0.0)]))
        assert members(states, "parking") == set()

    def test_moving_near_border_never_parks(self):
        clf = self.make()
        for frame in range(120):
            states = clf.step(frame, ft([obs(1, 5.0, 30.0, 2.0)]))
        assert members(states, "parking") == set()

    def test_membership_drops_on_first_fast_frame(self):
        clf = self.make()
        for frame in range(80):
            states = clf.step(frame, ft([obs(1, 5.0, 30.0, 0.0)]))
        assert 1 in members(states, "parking")
        states = clf.step(80, ft([obs(1, 5.0, 30.0, 1.0)]))
        assert 1 not in members(states, "parking")
        # the consecutive run restarts from scratch
        states = clf.step(81, ft([obs(1, 5.0, 30.0, 0.0)]))
        assert 1 not in members(states, "parking")

    def test_gap_in_observations_resets_run(self):
        clf = self.make()
        for frame in range(50):
            clf.step(frame, ft([obs(1, 5.0, 30.0, 0.0)]))
        clf.step(50, ft([]))  # track missed for one frame
        for frame in range(51, 101):
            states = clf.step(frame, ft([obs(1, 5.0, 30.0, 0.0)]))
        assert 1 not in members(states, "parking")

    def test_skipped_frame_ends_run(self):
        # two still frames park, if the second is the one after the first
        row = ft([obs(1, 5.0, 30.0, 0.0)])
        for frames, parked in (((5, 6), {1}), ((5, 9), set()),
                               ((5, 5), set())):
            clf = self.make(parking_duration_s=2.0)
            for frame in frames:
                states = clf.step(frame, row)
            assert members(states, "parking") == parked, frames

    def test_missing_scale(self):
        with pytest.raises(MissingCalibration):
            StateClassifier(left_border(), None, AnalyticsConfig(), 25.0)


# (iota, parking_border_m): radii of 10, 20, 8.33.. and 0.5 px, and one
# of 1e300 px, where the classifier keeps the border as one cell
_PARKING_SCALES = [(0.1, 1.0), (0.05, 1.0), (0.3, 2.5), (1.0, 0.5),
                   (1e-300, 1.0)]


@st.composite
def _border_and_positions(draw):
    iota, border_m = draw(st.sampled_from(_PARKING_SCALES))
    radius = border_m / iota
    size = radius + 1.0  # a cell's side
    coord = st.integers(-40, 40)
    points = draw(st.lists(st.tuples(coord, coord), max_size=30))
    if draw(st.booleans()):  # border points at the int64 edges
        edge = st.sampled_from([-2 ** 63, 2 ** 63 - 1])
        points += [(-2 ** 63, draw(coord)), (2 ** 63 - 1, draw(coord)),
                   (draw(coord), draw(edge))]
    nudge = st.sampled_from([-math.inf, None, math.inf])

    def moved(v):  # v, or the next float towards an infinity
        return v[0] if v[1] is None else float(np.nextafter(v[0], v[1]))

    # an offset from a border point: at, within or just past the radius
    offset = st.tuples(st.one_of(
        st.sampled_from([0.0, radius, -radius]),
        st.floats(-1.2 * radius, 1.2 * radius)), nudge).map(moved)
    # far away, and on or next to the cells' edges
    anywhere = st.one_of(
        st.floats(-80.0, 80.0),
        st.tuples(st.integers(-8, 8).map(lambda k: k * size), nudge).map(
            moved),
        st.sampled_from([1e300, -1e300, 1.7976931348623157e308]))
    near = st.tuples(st.sampled_from(points or [(0, 0)]), offset, offset).map(
        lambda v: (v[0][0] + v[1], v[0][1] + v[2]))
    positions = draw(st.lists(st.one_of(near, st.tuples(anywhere, anywhere)),
                              max_size=12))
    boundary = draw(st.sampled_from([
        BoundarySet(chains=(tuple(points),)), BoundarySet(chains=()), None]))
    return GroundScale(iota), border_m, boundary, positions


class TestParkingCells:
    """The parking test takes each position's border points from its 3x3
    cells; it must equal the test against every border point."""

    @settings(max_examples=300, deadline=None)
    @given(case=_border_and_positions())
    @example(case=(SCALE, 1.0, left_border(), [
        (1e300, -1e300), (-1.7976931348623157e308, 0.0), (0.0, 0.0)]))
    @example(case=(SCALE, 1.0, BoundarySet(chains=()), [(0.0, 0.0)]))
    def test_equals_all_pairs(self, case):
        scale, border_m, boundary, positions = case
        # parking from the first still frame on
        cfg = AnalyticsConfig(parking_border_m=border_m,
                              parking_duration_s=1e-9)
        n = len(positions)
        tracks = FrameTracks(np.arange(n), np.zeros(n, dtype=bool),
                             np.array(positions, dtype=float).reshape(-1, 2),
                             np.zeros(n))
        # a warning fails: the cells of a border at the int64 edges must
        # not overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            clf = StateClassifier(boundary, scale, cfg, 1.0)
            parking = clf.step(0, tracks).parking
        border = (boundary.points().astype(float) if boundary is not None
                  else np.empty((0, 2)))
        with np.errstate(over="ignore"):
            true_min = np.hypot(
                border[:, 0] - tracks.xy[:, :1],
                border[:, 1] - tracks.xy[:, 1:]).min(axis=1, initial=np.inf)
            nearest = clf._nearest_border(tracks.xy)
        near = scale.to_meters(true_min) < border_m
        assert parking.tolist() == near.tolist()
        # the candidates are border points, and hold the nearest one
        # wherever it lies within the radius
        assert (nearest >= true_min).all()
        assert nearest[near].tolist() == true_min[near].tolist()


class TestStates:
    def step_once(self, rows, **kwargs):
        clf = StateClassifier(left_border(), SCALE,
                              AnalyticsConfig(**kwargs), 25.0)
        return clf.step(0, ft(rows))

    def test_speeding_above_limit(self):
        states = self.step_once([obs(1, 30, 30, 35.0), obs(2, 40, 30, 25.0)])
        assert members(states, "speeding") == {1}

    def test_speeding_is_strict(self):
        states = self.step_once([obs(1, 30, 30, 30.0)])
        assert members(states, "speeding") == set()

    def test_pedestrian_never_speeding(self):
        states = self.step_once([obs(1, 30, 30, 40.0, pedestrian=True)])
        assert members(states, "speeding") == set()

    def test_pedestrian_near_moving_vehicle_at_risk(self):
        states = self.step_once([
            obs(1, 30.0, 30.0, 10.0),
            obs(2, 34.0, 30.0, 3.0, pedestrian=True),  # 0.4 m away
        ])
        assert members(states, "collision_risk") == {2}

    def test_pedestrian_far_from_vehicles_safe(self):
        states = self.step_once([
            obs(1, 30.0, 30.0, 10.0),
            obs(2, 55.0, 30.0, 3.0, pedestrian=True),  # 2.5 m away
        ])
        assert members(states, "collision_risk") == set()

    def test_pedestrian_near_parked_vehicle_not_at_risk(self):
        clf = StateClassifier(left_border(), SCALE, AnalyticsConfig(), 1.0)
        for frame in range(90):
            clf.step(frame, ft([obs(1, 5.0, 30.0, 0.0)]))
        states = clf.step(90, ft([
            obs(1, 5.0, 30.0, 0.0),
            obs(2, 9.0, 30.0, 3.0, pedestrian=True),  # 0.4 m from parked car
        ]))
        assert 1 in members(states, "parking")
        assert members(states, "collision_risk") == set()

    def test_congestion_slow_and_close(self):
        states = self.step_once([
            obs(1, 30.0, 30.0, 3.0),
            obs(2, 45.0, 30.0, 4.0),  # 1.5 m apart
        ])
        assert members(states, "congestion") == {1, 2}

    def test_congestion_needs_low_speed(self):
        states = self.step_once([
            obs(1, 30.0, 30.0, 6.0),
            obs(2, 45.0, 30.0, 4.0),
        ])
        assert members(states, "congestion") == {2}

    def test_lone_vehicle_not_congested(self):
        states = self.step_once([obs(1, 30.0, 30.0, 1.0)])
        assert members(states, "congestion") == set()

    def test_parked_vehicle_excluded_from_congestion(self):
        clf = StateClassifier(left_border(), SCALE, AnalyticsConfig(), 1.0)
        for frame in range(90):
            clf.step(frame, ft([obs(1, 5.0, 30.0, 0.0)]))
        states = clf.step(90, ft([
            obs(1, 5.0, 30.0, 0.0),
            obs(2, 12.0, 30.0, 2.0),  # slow, 0.7 m from the parked car
        ]))
        assert 1 in members(states, "parking")
        assert members(states, "congestion") == set()

    def test_disjointness_enforced(self):
        with pytest.raises(ValueError):
            states_of([obs(1, 0, 0, 0.0)], parking={1}, congestion={1})

    def test_classify_states_sequence(self):
        frames = [(f, ft([obs(1, 30, 30, 35.0)])) for f in range(3)]
        clf = StateClassifier(left_border(), SCALE, AnalyticsConfig(), 25.0)
        out = [clf.step(frame, tracks) for frame, tracks in frames]
        assert [s.frame for s in out] == [0, 1, 2]
        assert all(members(s, "speeding") == {1} for s in out)


def reference_bumps(maps, rows, states):
    """One `bump` per event, in row order, as deposits were once made."""
    position = {r[0]: PixelPoint.bev(r[2], r[3]) for r in rows}
    parked = members(states, "parking")
    for r in rows:
        if r[1]:
            bump(maps["pedestrian"], position[r[0]])
        elif r[0] not in parked:
            bump(maps["vehicle"], position[r[0]])
    for kind, label in (("speeding", "speeding"),
                        ("congestion", "congestion"),
                        ("proximity", "collision_risk")):
        for track_id in sorted(members(states, label)):
            bump(maps[kind], position[track_id])


def reference_average_speed(rows, states):
    """Mean speed of the non-parked vehicles, as an ordered Python sum."""
    parked = members(states, "parking")
    speeds = [r[4] for r in rows if not r[1] and r[0] not in parked]
    return sum(speeds) / len(speeds) if speeds else None


class ReferenceClassifier:
    """`StateClassifier.step` as per-track and per-pair Python loops."""

    def __init__(self, boundary, scale, cfg, fps):
        self.scale, self.cfg, self.fps = scale, cfg, fps
        self.border = (np.unique(boundary.points(), axis=0).astype(float)
                       if boundary is not None else None)
        self.still_frames = {}

    def near_border(self, x, y):
        if self.border is None or len(self.border) == 0:
            return False
        d = np.hypot(self.border[:, 0] - x, self.border[:, 1] - y)
        return self.scale.to_meters(float(d.min())) < self.cfg.parking_border_m

    def step(self, frame, rows):
        cfg = self.cfg
        vehicles = [r for r in rows if not r[1]]
        pedestrians = [r for r in rows if r[1]]
        parked, seen = set(), set()
        needed = int(math.ceil(cfg.parking_duration_s * self.fps))
        for track_id, _, x, y, speed in vehicles:
            seen.add(track_id)
            if speed < cfg.parking_speed_mph and self.near_border(x, y):
                run = self.still_frames.get(track_id, 0) + 1
                self.still_frames[track_id] = run
                if run >= needed:
                    parked.add(track_id)
            else:
                self.still_frames.pop(track_id, None)
        for track_id in list(self.still_frames):
            if track_id not in seen:
                del self.still_frames[track_id]
        speeding = {v[0] for v in vehicles if v[4] > cfg.speed_limit_mph}
        moving = [v for v in vehicles if v[0] not in parked]
        at_risk = set()
        for p in pedestrians:
            for v in moving:
                d = math.hypot(v[2] - p[2], v[3] - p[3])
                if self.scale.to_meters(d) < cfg.proximity_risk_m:
                    at_risk.add(p[0])
                    break
        congested = set()
        limit_px = self.scale.to_pixels(cfg.congestion_distance_m)
        for i, v in enumerate(moving):
            if v[4] >= cfg.congestion_speed_mph:
                continue
            for j, other in enumerate(moving):
                if i != j and math.hypot(other[2] - v[2],
                                         other[3] - v[3]) < limit_px:
                    congested.add(v[0])
                    break
        return {"parking": parked, "speeding": speeding,
                "collision_risk": at_risk, "congestion": congested}


class TestAgainstScalarReference:
    # thresholds the grid hits exactly: 10 px to the border and for
    # proximity, 20 px for congestion, and each speed bound itself; other
    # speeds are uniform, so that a reordered sum changes the mean's bits
    SPEEDS = (0.0, 0.5, 5.0, 30.0)

    @settings(max_examples=150, deadline=None)
    @given(n_tracks=st.integers(0, 30), n_frames=st.integers(1, 12),
           keep=st.sampled_from([0.5, 0.8, 0.95]),
           border=st.sampled_from(["left", "none", "empty"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_array_step_equals_pair_loops(self, n_tracks, n_frames, keep,
                                          border, seed):
        rng = np.random.default_rng(seed)
        boundary = {"left": left_border(41), "none": None,
                    "empty": BoundarySet(chains=())}[border]
        cfg = AnalyticsConfig(parking_duration_s=3.0)
        clf = StateClassifier(boundary, SCALE, cfg, 1.0)
        ref = ReferenceClassifier(boundary, SCALE, cfg, 1.0)
        maps, ref_maps = make_heatmaps((41, 41)), make_heatmaps((41, 41))

        # each track keeps its place, speed and presence with probability
        # `keep`, so parked runs start, break and resume
        def speeds(n):
            return np.where(rng.random(n) < 0.5, rng.choice(self.SPEEDS, n),
                            rng.uniform(0.0, 40.0, n))

        pedestrian = rng.random(n_tracks) < 0.3
        x = 2.0 * rng.integers(0, 11, n_tracks)
        y = 2.0 * rng.integers(0, 21, n_tracks)
        speed = speeds(n_tracks)
        present = rng.random(n_tracks) < 0.9
        for frame in range(n_frames):
            change = rng.random(n_tracks) >= keep
            x[change] = 2.0 * rng.integers(0, 11, change.sum())
            change = rng.random(n_tracks) >= keep
            y[change] = 2.0 * rng.integers(0, 21, change.sum())
            change = rng.random(n_tracks) >= keep
            speed[change] = speeds(change.sum())
            change = rng.random(n_tracks) >= keep
            present[change] = ~present[change]
            order = rng.permutation(np.flatnonzero(present)).tolist()
            rows = [obs(i, x[i], y[i], speed[i], pedestrian=pedestrian[i])
                    for i in order]

            states = clf.step(frame, ft(rows))
            expected = ref.step(frame, rows)
            assert states.frame == frame
            assert np.array_equal(states.ids, ft(rows).ids)
            assert {label: members(states, label)
                    for label in LABELS} == expected
            stats = frame_stats(frame, ft(rows), states)
            avg = reference_average_speed(rows, states)
            assert repr(stats.avg_speed_mph) == repr(avg)
            assert stats.vehicle_count + stats.pedestrian_count == len(rows)
            update_heatmaps(maps, ft(rows), states)
            reference_bumps(ref_maps, rows, states)
        for kind, heat in ref_maps.items():
            assert maps[kind].events == heat.events
            assert np.array_equal(maps[kind].units, heat.units), kind


class TestUpdateHeatmaps:
    def test_pedestrian_and_vehicle_routing(self):
        maps = make_heatmaps((40, 40))
        rows = [
            obs(1, 10, 10, 20.0),
            obs(2, 20, 20, 1.0, pedestrian=True),
            obs(3, 30, 30, 1.0, pedestrian=True),
        ]
        update_heatmaps(maps, ft(rows), states_of(rows))
        assert maps["pedestrian"].events == 2
        assert maps["vehicle"].events == 1
        assert maps["speeding"].events == 0

    def test_parked_vehicles_leave_no_mark(self):
        maps = make_heatmaps((40, 40))
        rows = [obs(1, 10, 10, 0.0)]
        update_heatmaps(maps, ft(rows), states_of(rows, parking={1}))
        assert maps["vehicle"].events == 0

    def test_state_sets_routed_to_their_maps(self):
        maps = make_heatmaps((40, 40))
        rows = [obs(1, 10, 10, 35.0), obs(2, 11, 10, 2.0),
                obs(3, 12, 10, 2.0), obs(4, 13, 10, 1.0, pedestrian=True)]
        states = states_of(rows, speeding={1}, collision_risk={4},
                           congestion={2, 3})
        update_heatmaps(maps, ft(rows), states)
        assert maps["speeding"].events == 1
        assert maps["congestion"].events == 2
        assert maps["proximity"].events == 1

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_batched_deposits_equal_sequential_bumps(self, data):
        h, w = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))

        def coord(size):
            # interior, border and clamped out-of-range centres
            return st.one_of(
                st.floats(-3.0, size + 2.0),
                st.sampled_from([-1e9, -0.5, 0.0, 0.49, size - 1.0,
                                 size - 0.5, size + 0.5, 1e9]))

        n = data.draw(st.integers(1, 12))
        rows = [obs(i, data.draw(coord(w)), data.draw(coord(h)), 1.0,
                    pedestrian=data.draw(st.booleans()))
                for i in range(n)]
        ids = st.frozensets(st.integers(0, n - 1))
        parking = data.draw(ids)
        states = states_of(rows, parking=parking, speeding=data.draw(ids),
                           collision_risk=data.draw(ids),
                           congestion=data.draw(ids) - parking)
        maps = update_heatmaps(make_heatmaps((h, w)), ft(rows), states)

        expected = make_heatmaps((h, w))
        reference_bumps(expected, rows, states)
        for kind, heat in expected.items():
            assert maps[kind].events == heat.events
            assert np.array_equal(maps[kind].units, heat.units), kind


class TestFrameStats:
    def test_average_of_moving_vehicles(self):
        rows = [obs(1, 0, 0, 10.0), obs(2, 30, 0, 20.0), obs(3, 60, 0, 30.0)]
        assert frame_stats(0, ft(rows), states_of(rows)).avg_speed_mph == 20.0

    def test_parked_excluded_from_average(self):
        rows = [obs(1, 0, 0, 0.0), obs(2, 30, 0, 24.0)]
        states = states_of(rows, parking={1})
        assert frame_stats(0, ft(rows), states).avg_speed_mph == 24.0

    def test_all_parked_gives_none(self):
        rows = [obs(1, 0, 0, 0.0)]
        stats = frame_stats(0, ft(rows), states_of(rows, parking={1}))
        assert stats.avg_speed_mph is None

    def test_pedestrians_not_in_average(self):
        rows = [obs(1, 0, 0, 3.0, pedestrian=True)]
        assert frame_stats(0, ft(rows), states_of(rows)).avg_speed_mph is None

    def test_counts(self):
        rows = [obs(1, 0, 0, 10.0), obs(2, 9, 0, 2.0, pedestrian=True)]
        stats = frame_stats(4, ft(rows), states_of(rows))
        assert stats == FrameStats(frame=4, vehicle_count=1,
                                   pedestrian_count=1, avg_speed_mph=10.0)

    def test_empty_frame(self):
        assert frame_stats(2, ft([]), states_of([])) == FrameStats(
            frame=2, vehicle_count=0, pedestrian_count=0, avg_speed_mph=None)


class TestRender:
    def single_bump_map(self):
        heat = HeatMap((21, 21), "vehicle")
        bump(heat, PixelPoint.bev(10, 10))
        return heat

    def test_peak_is_red_rest_transparent(self):
        img = render(self.single_bump_map())
        assert tuple(img.pixels[10, 10]) == (255, 0, 0)
        assert tuple(img.pixels[0, 0]) == (0, 0, 0)

    def test_empty_map_raises(self):
        with pytest.raises(EmptyHeatMap):
            render(HeatMap((10, 10), "vehicle"))

    def test_uniform_map_renders_red(self):
        heat = HeatMap((1, 1), "vehicle")
        bump(heat, PixelPoint.bev(0, 0))
        img = render(heat)
        assert tuple(img.pixels[0, 0]) == (255, 0, 0)

    def test_hotter_cells_closer_to_red(self):
        heat = HeatMap((31, 31), "vehicle")
        for _ in range(4):
            bump(heat, PixelPoint.bev(5, 5))
        bump(heat, PixelPoint.bev(25, 25))
        img = render(heat, floor=0)
        hot = img.pixels[5, 5]
        mild = img.pixels[25, 25]
        assert int(hot[0]) >= int(mild[0])
        assert int(hot[2]) <= int(mild[2])

    def test_blend_over_base(self):
        heat = self.single_bump_map()
        base = ImageBuffer(np.full((21, 21), 100, dtype=np.uint8))
        img = render(heat, base=base)
        assert tuple(img.pixels[0, 0]) == (100, 100, 100)  # transparent
        # 0.6 * (255,0,0) + 0.4 * gray
        assert tuple(img.pixels[10, 10]) == (193, 40, 40)

    def test_identity_reprojection_matches_plain_render(self):
        heat = self.single_bump_map()
        identity = Homography(np.eye(3), source=BEV, target=PERSPECTIVE)
        sample = perspective_sample(identity, heat.shape, heat.shape)
        assert render(heat, sample=sample) == render(heat)

    def test_translation_reprojection_shifts_peak(self):
        heat = self.single_bump_map()
        shift = Homography(np.array([[1.0, 0, 6.0], [0, 1.0, 0], [0, 0, 1]]),
                           source=BEV, target=PERSPECTIVE)
        img = render(heat, sample=perspective_sample(shift, heat.shape,
                                                     heat.shape))
        assert tuple(img.pixels[10, 16]) == (255, 0, 0)
        assert tuple(img.pixels[10, 10]) == (0, 0, 0)

    def test_reprojection_output_matches_base_size(self):
        heat = self.single_bump_map()
        base = ImageBuffer(np.zeros((30, 40), dtype=np.uint8))
        identity = Homography(np.eye(3), source=BEV, target=PERSPECTIVE)
        img = render(heat, base=base,
                     sample=perspective_sample(identity, (30, 40), heat.shape))
        assert img.pixels.shape == (30, 40, 3)

    def test_gradient_midpoint_is_green(self):
        heat = HeatMap((9, 9), "vehicle")
        for _ in range(2):
            bump(heat, PixelPoint.bev(2, 2))
        bump(heat, PixelPoint.bev(6, 6))
        img = render(heat, floor=0)
        # peak cell h=0.5, mild cell h=0.25 -> normalized 127.5 -> green-ish
        mild = img.pixels[6, 6]
        assert mild[1] == 255


# --- whole-grid references for the banded render ----------------------------
# `render`, `_colorize` and `perspective_sample` as they were before they
# worked in row bands: every step over the whole grid or view at once.

def reference_colorize(norm: np.ndarray) -> np.ndarray:
    v = norm.astype(float) / 255.0
    positions = np.array([p for p, _ in GRADIENT_ANCHORS])
    out = np.empty(norm.shape + (3,), dtype=np.uint8)
    for ch in range(3):
        levels = np.array([c[ch] for _, c in GRADIENT_ANCHORS], dtype=float)
        out[..., ch] = np.floor(
            np.interp(v, positions, levels) + 0.5).astype(np.uint8)
    return out


def reference_perspective_sample(h_inv, view, shape) -> np.ndarray:
    g = invert(h_inv)
    h, w = shape
    grid = np.indices(view, dtype=float)[::-1].reshape(2, -1).T
    sx, sy = np.floor(apply_many(g, grid) + 0.5).T
    inside = (sx >= 0) & (sx < w) & (sy >= 0) & (sy < h)
    index = np.full(len(grid), h * w, dtype=np.int64)
    index[inside] = (sy[inside].astype(np.int64) * w
                     + sx[inside].astype(np.int64))
    return index.reshape(view)


def reference_render(heat, base=None, sample=None, floor=5, alpha=0.6):
    values = heat.units / 144
    vmax = float(values.max())
    vmin = float(values.min())
    if heat.events == 0 or vmax <= 0:
        raise EmptyHeatMap("no mass")
    if vmax == vmin:
        norm = np.full(values.shape, 255.0)
    else:
        norm = (values - vmin) / (vmax - vmin) * 255.0
    if sample is not None:
        norm = np.append(norm.ravel(), 0.0)[sample]
    visible = norm >= floor
    color = reference_colorize(norm)
    if base is not None:
        base_px = base.pixels
        base_rgb = (np.repeat(base_px[:, :, None], 3, axis=2)
                    if base_px.ndim == 2 else base_px)
        out = base_rgb.copy()
        out[visible] = np.floor(alpha * color[visible]
                                + (1 - alpha) * base_rgb[visible] + 0.5)
    else:
        out = np.where(visible[:, :, None], color, 0)
    return ImageBuffer(out)


@st.composite
def render_cases(draw):
    """A map, an optional camera view through a homography with pixels on
    and off the map, an optional gray or RGB base, a floor and an alpha."""
    h, w = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    fill = draw(st.sampled_from(["sparse", "dense", "uniform", "huge"]))
    if fill == "uniform":  # vmax == vmin
        units = np.full((h, w), 144 * draw(st.integers(1, 1000)))
    else:
        top = 2 ** 62 if fill == "huge" else 144 * 50
        units = rng.integers(0, top, (h, w))
        if fill == "sparse":
            units[rng.random((h, w)) < 0.7] = 0
        units.flat[rng.integers(h * w)] = top  # some mass in every map
    heat = HeatMap.from_units(units, draw(st.integers(1, 10 ** 6)), "vehicle")
    camera = None
    view = (h, w)
    if draw(st.booleans()):
        view = (draw(st.integers(1, 12)), draw(st.integers(1, 12)))
        scale = draw(st.floats(0.3, 3.0))
        matrix = np.array([[scale, draw(st.floats(-0.5, 0.5)),
                            draw(st.floats(-6, 6))],
                           [draw(st.floats(-0.5, 0.5)), scale,
                            draw(st.floats(-6, 6))],
                           [draw(st.floats(-0.02, 0.02)),
                            draw(st.floats(-0.02, 0.02)), 1.0]])
        assume(abs(np.linalg.det(matrix)) > 1e-3)
        h_inv = Homography(matrix, source=BEV, target=PERSPECTIVE)
        camera = (h_inv, view)
    base = draw(st.sampled_from([None, "gray", "rgb"]))
    if base is not None:
        shape = view if base == "gray" else view + (3,)
        base = ImageBuffer(rng.integers(0, 256, shape, dtype=np.uint8))
    floor = draw(st.sampled_from([0, 1, 5, 128, 255, 256]))
    alpha = draw(st.sampled_from([0.6, 0.0, 1.0, 0.35]))
    band_cells = draw(st.sampled_from([1, 2, 5, 7, 13, 32768]))
    return heat, camera, base, floor, alpha, band_cells


class TestBandedRenderEqualsWholeGrid:
    """The banded `render` and `perspective_sample` against the whole-grid
    references, bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(render_cases())
    def test_small_maps_any_band(self, case):
        heat, camera, base, floor, alpha, band_cells = case
        sample = None
        # small bands put band edges inside these small views
        with mock.patch.object(analytics, "_BAND_CELLS", band_cells):
            if camera is not None:
                h_inv, view = camera
                sample = perspective_sample(h_inv, view, heat.shape)
                want = reference_perspective_sample(h_inv, view, heat.shape)
                assert sample.dtype == np.int64
                assert np.array_equal(sample, want)
            got = render(heat, base=base, sample=sample, floor=floor,
                         alpha=alpha)
        want = reference_render(heat, base=base, sample=sample, floor=floor,
                                alpha=alpha)
        assert got.pixels.dtype == want.pixels.dtype == np.uint8
        assert got.pixels.shape == want.pixels.shape
        assert got.pixels.tobytes() == want.pixels.tobytes()

    @pytest.mark.parametrize("base", [None, "gray", "rgb"])
    def test_views_larger_than_a_band(self, base):
        # 203 rows of 170 pixels: bands of 192 rows, then 11
        rng = np.random.default_rng(3)
        units = rng.integers(0, 144 * 40, (150, 190))
        units[rng.random(units.shape) < 0.8] = 0
        heat = HeatMap.from_units(units, 1, "vehicle")
        view = (203, 170)
        h_inv = Homography(np.array([[1.1, 0.1, -8.0], [0.05, 1.3, -20.0],
                                     [0.0004, 0.001, 1.0]]),
                           source=BEV, target=PERSPECTIVE)
        assert view[0] % (analytics._BAND_CELLS // view[1]) != 0
        sample = perspective_sample(h_inv, view, heat.shape)
        want = reference_perspective_sample(h_inv, view, heat.shape)
        assert np.array_equal(sample, want)
        assert (sample == heat.shape[0] * heat.shape[1]).any()  # off the map
        for s, size in ((None, heat.shape), (sample, view)):
            b = None if base is None else ImageBuffer(rng.integers(
                0, 256, size + ((3,) if base == "rgb" else ()),
                dtype=np.uint8))
            for floor in (0, 5):
                got = render(heat, base=b, sample=s, floor=floor)
                want = reference_render(heat, base=b, sample=s, floor=floor)
                assert got.pixels.tobytes() == want.pixels.tobytes()

    def test_empty_map_raises_as_before(self):
        heat = HeatMap.from_units(np.zeros((3, 4), dtype=np.int64), 2,
                                  "vehicle")
        with pytest.raises(EmptyHeatMap):
            render(heat)
        with pytest.raises(EmptyHeatMap):
            reference_render(heat)

    def test_base_of_another_shape_raises(self):
        heat = HeatMap((4, 5), "vehicle")
        bump(heat, PixelPoint.bev(2, 2))
        with pytest.raises(ShapeMismatch, match=r"\(4, 6\).*\(4, 5\)"):
            render(heat, base=ImageBuffer(np.zeros((4, 6), dtype=np.uint8)))


# --- memory ----------------------------------------------------------------

def _transient_peak(call) -> float:
    """What `call()` allocates at its peak, result included, in bytes, as
    tracemalloc counts Python objects and numpy buffers."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del result
    return peak - before


class TestHeatMapMemory:
    """Each heat-map stage holds its input, its result and small bands, not
    whole-grid temporaries.  Bounds are on the peak of one call on a
    1200x1600 map with mass in 10% of its cells, in int64 grids (15.4 MB),
    the result included: a render's image is 3/8 of a grid, a sample or a
    loaded map one grid, and a loaded map's file 0.31 grids.  Whole-grid
    versions of these stages took 5.5 (render), 8.1 (sample), 1.9 (save),
    4.9 (load) and 3.0 (merge) grids.  The `merge` command on six shard
    files holds one shard's file and a sum of at most one grid, 1.3 grids
    here and under 3 on a map with mass in every cell; adding loaded
    grids took 2.3 at any density, and loading every shard before adding
    any took 6.4."""

    SHAPE = (1200, 1600)
    GRID = SHAPE[0] * SHAPE[1] * 8

    @pytest.fixture(scope="class")
    def heat(self):
        rng = np.random.default_rng(11)
        units = 144 * rng.integers(1, 5000, self.SHAPE)
        units[rng.random(self.SHAPE) < 0.9] = 0  # 10% of cells hold mass
        return HeatMap.from_units(units, int(units.sum()) // 144, "vehicle")

    @pytest.fixture(scope="class")
    def sample(self):
        h_inv = Homography(np.array([[1.1, 0.1, -8.0], [0.05, 1.3, -20.0],
                                     [0.0001, 0.0002, 1.0]]),
                           source=BEV, target=PERSPECTIVE)
        return perspective_sample(h_inv, self.SHAPE, self.SHAPE)

    def grids(self, call) -> float:
        return _transient_peak(call) / self.GRID

    def test_render_bev_over_a_base(self, heat):
        base = ImageBuffer(np.full(self.SHAPE, 90, dtype=np.uint8))
        assert self.grids(lambda: render(heat, base=base)) < 0.5

    def test_render_camera_view(self, heat, sample):
        assert self.grids(lambda: render(heat, sample=sample)) < 0.5

    def test_perspective_sample(self):
        h_inv = Homography(np.eye(3), source=BEV, target=PERSPECTIVE)
        assert self.grids(lambda: perspective_sample(
            h_inv, self.SHAPE, self.SHAPE)) < 1.25

    def test_load_and_save(self, heat, tmp_path):
        path = tmp_path / "heat_vehicle.json"
        assert self.grids(lambda: save_heatmap(path, heat)) < 0.25
        assert self.grids(lambda: load_heatmap(path)) < 1.5

    def test_merge_command_folds_shards(self, heat, tmp_path):
        shard, out = tmp_path / "heat_vehicle.json", tmp_path / "merged.json"
        save_heatmap(shard, heat)
        argv = ["merge", *[str(shard)] * 6, "--out", str(out)]
        assert self.grids(lambda: main(argv)) < 3
        assert load_heatmap(out).events == 6 * heat.events

    def test_merge_command_folds_dense_shards(self, tmp_path):
        """Mass in every cell, on 100 rows to keep the test short: the sum
        is still one grid (2.2 with the shard's file), not Python objects
        per cell (10.6)."""
        units = 144 * np.random.default_rng(12).integers(1, 5000, (100, 1600))
        heat = HeatMap.from_units(units, int(units.sum()) // 144, "vehicle")
        shard, out = tmp_path / "heat_vehicle.json", tmp_path / "merged.json"
        save_heatmap(shard, heat)
        argv = ["merge", *[str(shard)] * 6, "--out", str(out)]
        assert _transient_peak(lambda: main(argv)) / (8 * units.size) < 3
        assert load_heatmap(out).events == 6 * heat.events
