import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadscene.errors import DegenerateDisplacement
from roadscene.geometry import GroundScale
from roadscene.motion import (
    BevKalmanState,
    abf,
    bounce_weight,
    heading_of,
    kf_predict,
    kf_step,
    kf_update,
    speed_mph,
    wrap_angle,
)


def state_with(x=0.0, y=0.0, vx=0.0, vy=0.0, ax=0.0, ay=0.0):
    return BevKalmanState((x, y, vx, vy, ax, ay),
                          BevKalmanState.initial(x, y).p)


class TestKfPredict:
    def test_at_rest(self):
        s = kf_predict(state_with(x=5.0, y=7.0), 0.04)
        assert s.x[0] == pytest.approx(5.0, abs=1e-12)
        assert s.x[1] == pytest.approx(7.0, abs=1e-12)

    def test_velocity_advance(self):
        s = kf_predict(state_with(vx=10.0), 0.1)
        assert s.x[0] == pytest.approx(1.0, abs=1e-12)

    def test_acceleration_advance(self):
        s = kf_predict(state_with(ax=2.0), 0.1)
        assert s.x[0] == pytest.approx(0.01, abs=1e-12)
        assert s.x[2] == pytest.approx(0.2, abs=1e-12)

    def test_requires_positive_dt(self):
        with pytest.raises(ValueError):
            kf_predict(state_with(), 0.0)


class TestKfUpdate:
    def test_zero_innovation_fixed_point(self):
        s = kf_predict(state_with(x=3.0, vx=25.0), 0.04)
        updated = kf_update(s, (float(s.x[0]), float(s.x[1])))
        assert abs(updated.x[0] - s.x[0]) < 1e-12
        assert abs(updated.x[1] - s.x[1]) < 1e-12

    def test_stationary_velocity_settles(self):
        # with q = 10 px^2/s^5 the stationary velocity posterior floors at
        # about 1.9 px/s std, so the bound here is that floor, not zero
        rng = np.random.default_rng(121)
        s = BevKalmanState.initial(100.0, 100.0)
        for _ in range(100):
            s = kf_predict(s, 0.04)
            obs = (100.0 + rng.normal(0, 2), 100.0 + rng.normal(0, 2))
            s = kf_update(s, obs)
        # p is the (position, velocity, acceleration) covariance of each axis
        sigma_v = np.sqrt(s.p[1][1])
        assert abs(s.x[2]) < 3 * sigma_v
        assert abs(s.x[3]) < 3 * sigma_v
        assert sigma_v < 2.5

    def test_stationary_speed_below_parking_threshold(self):
        # what analytics actually needs: a parked vehicle's mph readout
        # stays under 0.5 mph despite 1 px observation noise
        from roadscene.motion import speed_mph
        from roadscene.geometry import GroundScale
        rng = np.random.default_rng(123)
        s = BevKalmanState.initial(100.0, 100.0)
        worst = 0.0
        for k in range(200):
            s = kf_predict(s, 0.04)
            s = kf_update(s, (100.0 + rng.normal(0, 1),
                              100.0 + rng.normal(0, 1)))
            if k >= 25:
                worst = max(worst, speed_mph(s.x, GroundScale(0.05)))
        assert worst < 0.5

    @pytest.mark.parametrize("observation", [
        (1.0,), (1.0, 2.0, 3.0), ("a", 2.0), (float("nan"), 1.0),
        (1.0, float("inf")), None,
    ])
    def test_rejects_bad_observation(self, observation):
        with pytest.raises(ValueError):
            kf_update(state_with(), observation)

    def test_rejects_non_finite_state(self):
        with pytest.raises(ValueError):
            BevKalmanState((0.0, float("nan"), 0.0, 0.0, 0.0, 0.0),
                           state_with().p)

    def test_constant_velocity_recovered(self):
        s = BevKalmanState.initial(0.0, 0.0)
        for frame in range(1, 101):
            s = kf_predict(s, 0.04)
            s = kf_update(s, (50.0 * 0.04 * frame, 0.0))
        assert s.x[2] == pytest.approx(50.0, rel=0.05)


class TestSpeedMph:
    def test_zero(self):
        assert speed_mph(state_with().x, GroundScale(0.05)) == 0.0

    def test_hand_example(self):
        v = speed_mph(state_with(vx=10.0).x, GroundScale(0.05))
        assert v == pytest.approx(1.118, abs=1e-3)

    def test_rotation_invariance(self):
        scale = GroundScale(0.05)
        assert speed_mph(state_with(vx=6.0, vy=8.0).x,
                         scale) == pytest.approx(
            speed_mph(state_with(vx=10.0).x, scale), abs=1e-12)


class TestHeading:
    def test_east(self):
        assert heading_of(1.0, 0.0) == 0.0

    def test_down(self):
        assert heading_of(0.0, 1.0) == 90.0

    def test_diagonal(self):
        assert heading_of(-1.0, -1.0) == pytest.approx(-135.0)

    def test_degenerate(self):
        with pytest.raises(DegenerateDisplacement):
            heading_of(0.0, 0.0)


class TestAbf:
    def test_no_change(self):
        assert abf(30.0, 30.0) == pytest.approx(30.0, abs=1e-12)

    def test_right_angle_suppressed(self):
        assert abf(30.0, 120.0) == pytest.approx(30.0, abs=1e-9)
        assert abf(30.0, -60.0) == pytest.approx(30.0, abs=1e-9)

    def test_half_weight_at_45(self):
        assert abf(0.0, 45.0) == pytest.approx(22.5, abs=1e-9)

    def test_full_reversal_passes(self):
        out = abf(10.0, -170.0)
        # delta is a full reversal (w = 1); -170 wraps to itself
        assert out == pytest.approx(-170.0, abs=1e-9)

    def test_weight_anchors(self):
        assert bounce_weight(0.0) == pytest.approx(1.0, abs=1e-12)
        assert bounce_weight(180.0) == pytest.approx(1.0, abs=1e-12)
        assert bounce_weight(-180.0) == pytest.approx(1.0, abs=1e-12)
        assert bounce_weight(90.0) == pytest.approx(0.0, abs=1e-12)
        assert bounce_weight(-90.0) == pytest.approx(0.0, abs=1e-12)
        assert bounce_weight(45.0) == pytest.approx(0.5, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-180.0, 180.0))
    def test_weight_in_unit_interval(self, delta):
        w = bounce_weight(delta)
        assert 0.0 <= w <= 1.0

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-179.999, 180.0), st.floats(-179.999, 180.0))
    def test_never_overshoots(self, prev, now):
        out = abf(prev, now)
        assert -180.0 < out <= 180.0
        delta = (now - prev + 180.0) % 360.0 - 180.0
        moved = abs((out - prev + 180.0) % 360.0 - 180.0)
        assert moved <= abs(delta) + 1e-9


class TestWrapAngle:
    def test_half_open_range(self):
        assert wrap_angle(180.0) == 180.0
        assert wrap_angle(-180.0) == 180.0
        assert wrap_angle(540.0) == 180.0
        assert wrap_angle(0.0) == 0.0
        assert wrap_angle(-190.0) == pytest.approx(170.0)


class TestKfStep:
    """`kf_step` on float pairs is `kf_update(kf_predict(...))` bit for
    bit, which `track` relies on to write the rows the README loop gets."""

    @settings(max_examples=300, deadline=None)
    @given(x=st.lists(st.floats(-1e6, 1e6), min_size=6, max_size=6),
           steps=st.integers(0, 5), gap=st.integers(1, 10 ** 6),
           z=st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)))
    def test_equals_predict_then_update(self, x, steps, gap, z):
        # a covariance the filter reaches: a few unit steps from the prior
        state = BevKalmanState(tuple(x), BevKalmanState.initial(0, 0).p)
        for _ in range(steps):
            state = kf_update(kf_predict(state, 0.04), state.x[:2])
        t_w = gap * (1.0 / 25)
        want = kf_update(kf_predict(state, t_w), z)
        got_x, got_p = kf_step(state.x, state.p, t_w, z)
        assert repr(list(got_x)) == repr(list(want.x))
        assert repr(got_p) == repr(want.p)


class TestPredictGap:
    def test_straight_line_spacing(self):
        s = state_with(x=10.0, vx=50.0)
        xs = []
        for _ in range(5):
            s = kf_predict(s, 0.04)
            xs.append(s.x[0])
        assert xs == pytest.approx([12.0, 14.0, 16.0, 18.0, 20.0], abs=1e-9)
        assert s.x[1] == pytest.approx(0.0, abs=1e-12)

    def test_reconverges_after_gap(self):
        rng = np.random.default_rng(122)
        s = BevKalmanState.initial(0.0, 0.0)
        t = 0.04
        truth = lambda k: 40.0 * t * k
        for k in range(1, 51):
            s = kf_predict(s, t)
            s = kf_update(s, (truth(k) + rng.normal(0, 1), 0.0))
        for k in range(51, 61):
            s = kf_predict(s, t)  # occluded: no update
        errors = []
        for k in range(61, 71):
            s = kf_predict(s, t)
            s = kf_update(s, (truth(k) + rng.normal(0, 1), 0.0))
            errors.append(abs(s.x[0] - truth(k)))
        assert min(errors) < 2.0
        assert errors[-1] < 2.0

