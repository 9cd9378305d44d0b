import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadscene.analytics import (
    AnalyticsConfig,
    FrameStats,
    HeatMap,
    StateClassifier,
    StateSets,
    TrackObservation,
    average_speed,
    bump,
    frame_stats,
    make_heatmaps,
    render,
    update_heatmaps,
)
from roadscene.errors import EmptyHeatMap, MissingCalibration
from roadscene.geometry import BEV, PERSPECTIVE, GroundScale, Homography, PixelPoint
from roadscene.imaging import ImageBuffer
from roadscene.roadmodel import BoundarySet

CAR = 3
SCALE = GroundScale(iota=0.1)  # 10 px per meter


def obs(track_id, x, y, speed, class_index=CAR):
    return TrackObservation(track_id=track_id, class_index=class_index,
                            position=PixelPoint.bev(x, y), speed_mph=speed)


def left_border(height=60):
    return BoundarySet(chains=(tuple((0, y) for y in range(height)),))


class TestBump:
    def test_interior_bump_unit_mass(self):
        heat = HeatMap((20, 20), "vehicle")
        bump(heat, PixelPoint.bev(10, 10))
        assert heat.events == 1
        assert heat.units().sum() == 144
        assert heat.h.sum() == pytest.approx(1.0, abs=1e-12)
        assert heat.h[10, 10] == pytest.approx(4 / 16)
        assert heat.h[9, 10] == pytest.approx(2 / 16)
        assert heat.h[9, 9] == pytest.approx(1 / 16)

    def test_corner_bump_renormalized(self):
        heat = HeatMap((20, 20), "vehicle")
        bump(heat, PixelPoint.bev(0, 0))
        assert heat.units().sum() == 144
        assert heat.h[2:, :].sum() == 0.0

    def test_edge_bump_renormalized(self):
        heat = HeatMap((20, 20), "vehicle")
        bump(heat, PixelPoint.bev(5, 0))
        assert heat.units().sum() == 144

    def test_one_pixel_map(self):
        heat = HeatMap((1, 1), "vehicle")
        bump(heat, PixelPoint.bev(0, 0))
        assert heat.h[0, 0] == 1.0

    def test_one_row_map(self):
        heat = HeatMap((1, 7), "vehicle")
        bump(heat, PixelPoint.bev(3, 0))
        assert heat.units().sum() == 144

    def test_out_of_bounds_center_clamped(self):
        heat = HeatMap((10, 10), "vehicle")
        bump(heat, PixelPoint.bev(-4.0, 25.0))
        assert heat.events == 1
        assert heat.units().sum() == 144
        assert heat.h[9, 0] > 0

    def test_fractional_position_rounds(self):
        heat = HeatMap((10, 10), "vehicle")
        bump(heat, PixelPoint.bev(4.5, 4.49))
        assert heat.h[4, 5] == pytest.approx(4 / 16)

    def test_mass_conservation_random(self):
        rng = np.random.default_rng(7)
        heat = HeatMap((48, 64), "pedestrian")
        n = 10_000
        for x, y in rng.uniform(-2, 66, size=(n, 2)):
            bump(heat, PixelPoint.bev(x, y))
        assert heat.events == n
        assert heat.units().sum() == 144 * n
        assert heat.h.sum() == pytest.approx(n, abs=1e-9)

    def test_perspective_point_rejected(self):
        heat = HeatMap((10, 10), "vehicle")
        with pytest.raises(ValueError):
            bump(heat, PixelPoint.perspective(5, 5))

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            HeatMap((10, 10), "velocity")


class TestMerge:
    def test_sharded_equals_single_pass(self):
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
        first.merge(second)
        assert first.events == whole.events
        assert np.array_equal(first.units(), whole.units())

    def test_kind_mismatch(self):
        with pytest.raises(ValueError):
            HeatMap((8, 8), "vehicle").merge(HeatMap((8, 8), "speeding"))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            HeatMap((8, 8), "vehicle").merge(HeatMap((9, 8), "vehicle"))


class TestParking:
    def make(self, fps=1.0, **kwargs):
        return StateClassifier(left_border(), SCALE,
                               AnalyticsConfig(**kwargs), fps)

    def test_parks_after_one_minute_near_border(self):
        clf = self.make()
        states = None
        for frame in range(61):
            states = clf.step(frame, [obs(1, 5.0, 30.0, 0.0)])
        assert 1 in states.parking

    def test_not_parked_before_one_minute(self):
        clf = self.make()
        for frame in range(59):
            states = clf.step(frame, [obs(1, 5.0, 30.0, 0.0)])
        assert 1 not in states.parking

    def test_far_from_border_never_parks(self):
        clf = self.make()
        for frame in range(120):
            states = clf.step(frame, [obs(1, 30.0, 30.0, 0.0)])
        assert states.parking == frozenset()

    def test_moving_near_border_never_parks(self):
        clf = self.make()
        for frame in range(120):
            states = clf.step(frame, [obs(1, 5.0, 30.0, 2.0)])
        assert states.parking == frozenset()

    def test_membership_drops_on_first_fast_frame(self):
        clf = self.make()
        for frame in range(80):
            states = clf.step(frame, [obs(1, 5.0, 30.0, 0.0)])
        assert 1 in states.parking
        states = clf.step(80, [obs(1, 5.0, 30.0, 1.0)])
        assert 1 not in states.parking
        # the consecutive run restarts from scratch
        states = clf.step(81, [obs(1, 5.0, 30.0, 0.0)])
        assert 1 not in states.parking

    def test_gap_in_observations_resets_run(self):
        clf = self.make()
        for frame in range(50):
            clf.step(frame, [obs(1, 5.0, 30.0, 0.0)])
        clf.step(50, [])  # track missed for one frame
        for frame in range(51, 101):
            states = clf.step(frame, [obs(1, 5.0, 30.0, 0.0)])
        assert 1 not in states.parking

    def test_missing_scale(self):
        with pytest.raises(MissingCalibration):
            StateClassifier(left_border(), None, AnalyticsConfig(), 25.0)


class TestStates:
    def step_once(self, observations, **kwargs):
        clf = StateClassifier(left_border(), SCALE,
                              AnalyticsConfig(**kwargs), 25.0)
        return clf.step(0, observations)

    def test_speeding_above_limit(self):
        states = self.step_once([obs(1, 30, 30, 35.0), obs(2, 40, 30, 25.0)])
        assert states.speeding == frozenset({1})

    def test_speeding_is_strict(self):
        states = self.step_once([obs(1, 30, 30, 30.0)])
        assert states.speeding == frozenset()

    def test_pedestrian_never_speeding(self):
        states = self.step_once([obs(1, 30, 30, 40.0, class_index=7)])
        assert states.speeding == frozenset()

    def test_pedestrian_near_moving_vehicle_at_risk(self):
        states = self.step_once([
            obs(1, 30.0, 30.0, 10.0),
            obs(2, 34.0, 30.0, 3.0, class_index=7),  # 0.4 m away
        ])
        assert states.collision_risk == frozenset({2})

    def test_pedestrian_far_from_vehicles_safe(self):
        states = self.step_once([
            obs(1, 30.0, 30.0, 10.0),
            obs(2, 55.0, 30.0, 3.0, class_index=7),  # 2.5 m away
        ])
        assert states.collision_risk == frozenset()

    def test_pedestrian_near_parked_vehicle_not_at_risk(self):
        clf = StateClassifier(left_border(), SCALE, AnalyticsConfig(), 1.0)
        for frame in range(90):
            clf.step(frame, [obs(1, 5.0, 30.0, 0.0)])
        states = clf.step(90, [
            obs(1, 5.0, 30.0, 0.0),
            obs(2, 9.0, 30.0, 3.0, class_index=7),  # 0.4 m from parked car
        ])
        assert 1 in states.parking
        assert states.collision_risk == frozenset()

    def test_congestion_slow_and_close(self):
        states = self.step_once([
            obs(1, 30.0, 30.0, 3.0),
            obs(2, 45.0, 30.0, 4.0),  # 1.5 m apart
        ])
        assert states.congestion == frozenset({1, 2})

    def test_congestion_needs_low_speed(self):
        states = self.step_once([
            obs(1, 30.0, 30.0, 6.0),
            obs(2, 45.0, 30.0, 4.0),
        ])
        assert states.congestion == frozenset({2})

    def test_lone_vehicle_not_congested(self):
        states = self.step_once([obs(1, 30.0, 30.0, 1.0)])
        assert states.congestion == frozenset()

    def test_parked_vehicle_excluded_from_congestion(self):
        clf = StateClassifier(left_border(), SCALE, AnalyticsConfig(), 1.0)
        for frame in range(90):
            clf.step(frame, [obs(1, 5.0, 30.0, 0.0)])
        states = clf.step(90, [
            obs(1, 5.0, 30.0, 0.0),
            obs(2, 12.0, 30.0, 2.0),  # slow, 0.7 m from the parked car
        ])
        assert 1 in states.parking
        assert states.congestion == frozenset()

    def test_disjointness_enforced(self):
        with pytest.raises(ValueError):
            StateSets(frame=0, parking=frozenset({1}),
                      speeding=frozenset(),
                      collision_risk=frozenset(),
                      congestion=frozenset({1}))

    def test_classify_states_sequence(self):
        frames = [(f, [obs(1, 30, 30, 35.0)]) for f in range(3)]
        clf = StateClassifier(left_border(), SCALE, AnalyticsConfig(), 25.0)
        out = [clf.step(frame, observations) for frame, observations in frames]
        assert [s.frame for s in out] == [0, 1, 2]
        assert all(s.speeding == frozenset({1}) for s in out)


class TestObservationValidation:
    def test_negative_speed(self):
        with pytest.raises(ValueError):
            obs(1, 0, 0, -1.0)

    def test_perspective_position(self):
        with pytest.raises(ValueError):
            TrackObservation(track_id=1, class_index=CAR,
                             position=PixelPoint.perspective(0, 0),
                             speed_mph=0.0)


class TestUpdateHeatmaps:
    def test_pedestrian_and_vehicle_routing(self):
        maps = make_heatmaps((40, 40))
        observations = [
            obs(1, 10, 10, 20.0),
            obs(2, 20, 20, 1.0, class_index=7),
            obs(3, 30, 30, 1.0, class_index=7),
        ]
        states = StateSets(frame=0, parking=frozenset(),
                           speeding=frozenset(), collision_risk=frozenset(),
                           congestion=frozenset())
        update_heatmaps(maps, observations, states)
        assert maps["pedestrian"].events == 2
        assert maps["vehicle"].events == 1
        assert maps["speeding"].events == 0

    def test_parked_vehicles_leave_no_mark(self):
        maps = make_heatmaps((40, 40))
        states = StateSets(frame=0, parking=frozenset({1}),
                           speeding=frozenset(), collision_risk=frozenset(),
                           congestion=frozenset())
        update_heatmaps(maps, [obs(1, 10, 10, 0.0)], states)
        assert maps["vehicle"].events == 0

    def test_state_sets_routed_to_their_maps(self):
        maps = make_heatmaps((40, 40))
        observations = [obs(1, 10, 10, 35.0), obs(2, 11, 10, 2.0),
                        obs(3, 12, 10, 2.0),
                        obs(4, 13, 10, 1.0, class_index=7)]
        states = StateSets(frame=0, parking=frozenset(),
                           speeding=frozenset({1}),
                           collision_risk=frozenset({4}),
                           congestion=frozenset({2, 3}))
        update_heatmaps(maps, observations, states)
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
        observations = [
            obs(i, data.draw(coord(w)), data.draw(coord(h)), 1.0,
                class_index=data.draw(st.sampled_from([CAR, 7])))
            for i in range(n)]
        ids = st.frozensets(st.integers(0, n - 1))
        parking = data.draw(ids)
        states = StateSets(frame=0, parking=parking,
                           speeding=data.draw(ids),
                           collision_risk=data.draw(ids),
                           congestion=data.draw(ids) - parking)
        maps = update_heatmaps(make_heatmaps((h, w)), observations, states)

        expected = make_heatmaps((h, w))
        for o in observations:
            if o.is_pedestrian:
                bump(expected["pedestrian"], o.position)
            elif o.track_id not in states.parking:
                bump(expected["vehicle"], o.position)
        for kind, members in (("speeding", states.speeding),
                              ("congestion", states.congestion),
                              ("proximity", states.collision_risk)):
            for track_id in sorted(members):
                bump(expected[kind], observations[track_id].position)
        for kind, heat in expected.items():
            assert maps[kind].events == heat.events
            assert np.array_equal(maps[kind].units(), heat.units()), kind


class TestFrameStats:
    def no_states(self):
        return StateSets(frame=0, parking=frozenset(), speeding=frozenset(),
                         collision_risk=frozenset(), congestion=frozenset())

    def test_average_of_moving_vehicles(self):
        observations = [obs(1, 0, 0, 10.0), obs(2, 30, 0, 20.0),
                        obs(3, 60, 0, 30.0)]
        assert average_speed(observations, self.no_states()) == 20.0

    def test_parked_excluded_from_average(self):
        observations = [obs(1, 0, 0, 0.0), obs(2, 30, 0, 24.0)]
        states = StateSets(frame=0, parking=frozenset({1}),
                           speeding=frozenset(), collision_risk=frozenset(),
                           congestion=frozenset())
        assert average_speed(observations, states) == 24.0

    def test_all_parked_gives_none(self):
        states = StateSets(frame=0, parking=frozenset({1}),
                           speeding=frozenset(), collision_risk=frozenset(),
                           congestion=frozenset())
        assert average_speed([obs(1, 0, 0, 0.0)], states) is None

    def test_pedestrians_not_in_average(self):
        observations = [obs(1, 0, 0, 3.0, class_index=7)]
        assert average_speed(observations, self.no_states()) is None

    def test_counts(self):
        observations = [obs(1, 0, 0, 10.0), obs(2, 9, 0, 2.0, class_index=7)]
        stats = frame_stats(4, observations, self.no_states())
        assert stats == FrameStats(frame=4, vehicle_count=1,
                                   pedestrian_count=1, avg_speed_mph=10.0)


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
        assert render(heat, h_inv=identity) == render(heat)

    def test_translation_reprojection_shifts_peak(self):
        heat = self.single_bump_map()
        shift = Homography(np.array([[1.0, 0, 6.0], [0, 1.0, 0], [0, 0, 1]]),
                           source=BEV, target=PERSPECTIVE)
        img = render(heat, h_inv=shift)
        assert tuple(img.pixels[10, 16]) == (255, 0, 0)
        assert tuple(img.pixels[10, 10]) == (0, 0, 0)

    def test_reprojection_output_matches_base_size(self):
        heat = self.single_bump_map()
        base = ImageBuffer(np.zeros((30, 40), dtype=np.uint8))
        identity = Homography(np.eye(3), source=BEV, target=PERSPECTIVE)
        img = render(heat, base=base, h_inv=identity)
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
