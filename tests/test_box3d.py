import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadscene.box3d import Cuboid, lift_cuboids, lift_to_3d, make_footprint
from roadscene.config import DEFAULT_PRIORS, DimensionPrior
from roadscene.errors import InputError
from roadscene.geometry import (
    BEV,
    PERSPECTIVE,
    GroundScale,
    Homography,
    PixelPoint,
    apply,
    invert,
)

SCALE = GroundScale(iota=0.1)


def identity_back_projection():
    return Homography(np.eye(3), source=BEV, target=PERSPECTIVE)


def signed_area(corners):
    total = 0.0
    n = len(corners)
    for i in range(n):
        a, b = corners[i], corners[(i + 1) % n]
        total += a.x * b.y - b.x * a.y
    return total / 2.0


class TestMakeFootprint:
    def test_axis_aligned_rectangle(self):
        corners = make_footprint(PixelPoint.bev(100, 100), "car", 0.0,
                                 {"car": DimensionPrior(4.0, 2.0)}, SCALE)
        got = {(c.x, c.y) for c in corners}
        assert got == {(120, 110), (80, 110), (80, 90), (120, 90)}
        assert (corners[0].x, corners[0].y) == (120, 110)  # front-left

    def test_quarter_turn_swaps_axes(self):
        priors = {"car": DimensionPrior(4.0, 2.0)}
        corners = make_footprint(PixelPoint.bev(0, 0), "car", 90.0,
                                 priors, SCALE)
        xs = sorted(round(c.x, 9) for c in corners)
        ys = sorted(round(c.y, 9) for c in corners)
        assert xs == [-10, -10, 10, 10]
        assert ys == [-20, -20, 20, 20]

    @pytest.mark.parametrize("heading", [0.0, 17.0, 45.0, 90.0, 133.5,
                                         180.0, 271.25])
    def test_centroid_is_center(self, heading):
        corners = make_footprint(PixelPoint.bev(31.5, -7.25), "bus",
                                 heading, DEFAULT_PRIORS, SCALE)
        cx = sum(c.x for c in corners) / 4
        cy = sum(c.y for c in corners) / 4
        assert cx == pytest.approx(31.5, abs=1e-9)
        assert cy == pytest.approx(-7.25, abs=1e-9)

    @pytest.mark.parametrize("heading", [0.0, 10.0, 33.3, 81.0, 145.0,
                                         222.2, 359.0])
    def test_area_invariant_and_counter_clockwise(self, heading):
        prior = DEFAULT_PRIORS["pickup_truck"]
        corners = make_footprint(PixelPoint.bev(5, 9), "pickup_truck",
                                 heading, DEFAULT_PRIORS, SCALE)
        area = signed_area(corners)
        expected = prior.length_m * prior.width_m / SCALE.iota ** 2
        assert area > 0  # counter-clockwise winding
        assert area == pytest.approx(expected, rel=1e-9)

    def test_bus_prior_dimensions(self):
        assert DEFAULT_PRIORS["bus"] == DimensionPrior(5.8, 2.9)

    def test_all_classes_have_priors(self):
        corners_per_class = {
            name: make_footprint(PixelPoint.bev(0, 0), name, 30.0,
                                 DEFAULT_PRIORS, SCALE)
            for name in DEFAULT_PRIORS
        }
        assert len(corners_per_class) == 11

    def test_missing_prior(self):
        with pytest.raises(InputError, match="no dimension prior for class "
                                             "'hovercraft'"):
            make_footprint(PixelPoint.bev(0, 0), "hovercraft", 0.0,
                           DEFAULT_PRIORS, SCALE)

    def test_perspective_center_rejected(self):
        with pytest.raises(ValueError):
            make_footprint(PixelPoint.perspective(0, 0), "car", 0.0,
                           DEFAULT_PRIORS, SCALE)

    def test_invalid_prior(self):
        with pytest.raises(ValueError):
            DimensionPrior(0.0, 2.0)
        with pytest.raises(ValueError):
            DimensionPrior(4.0, -1.0)


class TestLiftTo3d:
    def test_vehicle_roof_offset(self):
        corners = make_footprint(PixelPoint.bev(0, 0), "car", 0.0,
                                 {"car": DimensionPrior(4.0, 2.0)}, SCALE)
        cuboid = lift_to_3d(corners, identity_back_projection(),
                            (0, 0, 30, 50), "car")
        for floor_c, roof_c in zip(cuboid.corners[:4], cuboid.corners[4:]):
            assert floor_c.y - roof_c.y == pytest.approx(30.0)  # 0.6 * 50
            assert roof_c.x == floor_c.x

    def test_pedestrian_uses_full_box_height(self):
        corners = make_footprint(PixelPoint.bev(10, 10), "pedestrian", 0.0,
                                 DEFAULT_PRIORS, SCALE)
        cuboid = lift_to_3d(corners, identity_back_projection(),
                            (0, 0, 20, 80), "pedestrian")
        lengths = {floor_c.y - roof_c.y
                   for floor_c, roof_c in zip(cuboid.corners[:4],
                                              cuboid.corners[4:])}
        assert lengths == {80.0}

    def test_vertical_edges_all_equal(self):
        h_inv = Homography(
            np.array([[1.1, 0.04, 12.0],
                      [-0.03, 0.97, -5.0],
                      [1e-4, -2e-4, 1.0]]),
            source=BEV, target=PERSPECTIVE)
        corners = make_footprint(PixelPoint.bev(40, 60), "bus", 28.0,
                                 DEFAULT_PRIORS, SCALE)
        cuboid = lift_to_3d(corners, h_inv, (0, 0, 44, 71), "bus")
        lengths = [floor_c.y - roof_c.y
                   for floor_c, roof_c in zip(cuboid.corners[:4],
                                              cuboid.corners[4:])]
        assert all(length == pytest.approx(0.6 * 71) for length in lengths)

    def test_floor_round_trips_to_footprint(self):
        h_inv = Homography(
            np.array([[0.9, -0.1, 30.0],
                      [0.05, 1.2, -8.0],
                      [3e-4, 1e-4, 1.0]]),
            source=BEV, target=PERSPECTIVE)
        corners = make_footprint(PixelPoint.bev(25, 35), "work_van", 75.0,
                                 DEFAULT_PRIORS, SCALE)
        cuboid = lift_to_3d(corners, h_inv, (0, 0, 30, 40), "work_van")
        g = invert(h_inv)
        for floor_c, original in zip(cuboid.corners[:4], corners):
            back = apply(g, floor_c)
            assert back.x == pytest.approx(original.x, abs=1e-6)
            assert back.y == pytest.approx(original.y, abs=1e-6)

    def test_floor_centroid_round_trips_to_center(self):
        # centroids are preserved exactly by affine maps; a projective
        # component would shift them, so the tight bound is checked here
        h_inv = Homography(
            np.array([[1.3, 0.2, -4.0],
                      [-0.1, 0.8, 16.0],
                      [0.0, 0.0, 1.0]]),
            source=BEV, target=PERSPECTIVE)
        center = PixelPoint.bev(18.0, 52.0)
        corners = make_footprint(center, "car", 200.0, DEFAULT_PRIORS, SCALE)
        cuboid = lift_to_3d(corners, h_inv, (0, 0, 20, 30), "car")
        fx = sum(c.x for c in cuboid.corners[:4]) / 4
        fy = sum(c.y for c in cuboid.corners[:4]) / 4
        g = invert(h_inv)
        back = apply(g, PixelPoint.perspective(fx, fy))
        assert back.x == pytest.approx(center.x, abs=1e-6)
        assert back.y == pytest.approx(center.y, abs=1e-6)

    def test_corners_are_perspective_points(self):
        corners = make_footprint(PixelPoint.bev(0, 0), "car", 0.0,
                                 DEFAULT_PRIORS, SCALE)
        cuboid = lift_to_3d(corners, identity_back_projection(),
                            (0, 0, 10, 10), "car")
        assert all(c.frame == PERSPECTIVE for c in cuboid.corners)

    def test_wrong_corner_count(self):
        with pytest.raises(ValueError):
            lift_to_3d([PixelPoint.bev(0, 0)] * 3,
                       identity_back_projection(), (0, 0, 10, 10), "car")


class TestCuboid:
    def test_needs_eight_corners(self):
        with pytest.raises(ValueError):
            Cuboid(corners=tuple(PixelPoint.perspective(i, 0)
                                 for i in range(7)))

    def test_roof_below_floor_rejected(self):
        floor = tuple(PixelPoint.perspective(i, 10.0) for i in range(4))
        roof = tuple(PixelPoint.perspective(i, 20.0) for i in range(4))
        with pytest.raises(ValueError):
            Cuboid(corners=floor + roof)


def reference_cuboid(cx, cy, class_name, heading_deg, bbox, h_inv, scale,
                     beta):
    """Footprint, back-projection and roof shift of one object, written
    out with Python floats in the order the scalar functions compute."""
    prior = DEFAULT_PRIORS[class_name]
    half_l = scale.to_pixels(prior.length_m) / 2.0
    half_w = scale.to_pixels(prior.width_m) / 2.0
    theta = math.radians(heading_deg)
    ux, uy = math.cos(theta), math.sin(theta)
    nx, ny = -math.sin(theta), math.cos(theta)
    g = h_inv.matrix.tolist()
    floor = []
    for a, b in ((half_l, half_w), (-half_l, half_w),
                 (-half_l, -half_w), (half_l, -half_w)):
        x = cx + a * ux + b * nx
        y = cy + a * uy + b * ny
        den = g[2][0] * x + g[2][1] * y + g[2][2]
        floor.append([(g[0][0] * x + g[0][1] * y + g[0][2]) / den,
                      (g[1][0] * x + g[1][1] * y + g[1][2]) / den])
    h_3d = bbox[3] if class_name == "pedestrian" else beta * bbox[3]
    return floor + [[u, v - h_3d] for u, v in floor]


_objects = st.lists(st.tuples(
    st.floats(-50.0, 450.0), st.floats(-50.0, 350.0),
    st.sampled_from(sorted(DEFAULT_PRIORS)),
    st.one_of(st.sampled_from([0.0, 90.0, -180.0, 180.0]),
              st.floats(-180.0, 180.0)),
    st.floats(1.0, 200.0)), min_size=1, max_size=12)


class TestLiftCuboids:
    @settings(max_examples=200, deadline=None)
    @given(_objects, st.floats(0.01, 0.2), st.floats(0.1, 1.0))
    def test_bitwise_equal_to_scalar_arithmetic(self, objects, iota, beta):
        scale = GroundScale(iota)
        h_inv = Homography(
            np.array([[0.9, -0.1, 30.0],
                      [0.05, 1.2, -8.0],
                      [3e-4, 1e-4, 1.0]]),
            source=BEV, target=PERSPECTIVE)
        bboxes = [(0.0, 0.0, 10.0, h) for *_, h in objects]
        got = lift_cuboids([(x, y) for x, y, *_ in objects],
                           [o[2] for o in objects], [o[3] for o in objects],
                           bboxes, h_inv, DEFAULT_PRIORS, scale, beta=beta)
        want = [reference_cuboid(x, y, name, theta, bbox, h_inv, scale, beta)
                for (x, y, name, theta, _), bbox in zip(objects, bboxes)]
        assert got.tobytes() == np.array(want).tobytes()
        scalar = [[[c.x, c.y] for c in lift_to_3d(
                      make_footprint(PixelPoint.bev(x, y), name, theta,
                                     DEFAULT_PRIORS, scale),
                      h_inv, bbox, name, beta=beta).corners]
                  for (x, y, name, theta, _), bbox in zip(objects, bboxes)]
        assert got.tobytes() == np.array(scalar).tobytes()

    def test_empty_batch(self):
        got = lift_cuboids([], [], [], [], identity_back_projection(),
                           DEFAULT_PRIORS, SCALE)
        assert got.shape == (0, 8, 2)

    def test_missing_prior(self):
        with pytest.raises(InputError, match="'hovercraft'"):
            lift_cuboids([(0, 0), (1, 1)], ["car", "hovercraft"], [0, 0],
                         [(0, 0, 5, 5)] * 2, identity_back_projection(),
                         DEFAULT_PRIORS, SCALE)
