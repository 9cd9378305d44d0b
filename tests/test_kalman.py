"""The closed-form block filters against the filters they replace.

The reference models below are the dense 18-state tracker filter and 6-state
BEV filter, written with full matrices and a matrix inverse.  The block
forms must follow them within 1e-9 relative over random predict, update
and gap sequences.  `Track`'s written-out blocks must also equal, bit for
bit, the generic block steps they were written from, which are kept here.
"""

import numpy as np
import pytest

from roadscene.kalman import kf_predict_step, kf_update_step
from roadscene.motion import (MEASUREMENT_VARIANCE, PROCESS_SPECTRAL_DENSITY,
                              BevKalmanState, kf_predict, kf_update)
from roadscene.tracking import N_CLASSES, Track, reference_point

RTOL = 1e-9


def dense_predict(x, p, f, q):
    return f @ x, f @ p @ f.T + q


def dense_update(x, p, z, h, r):
    innovation = z - h @ x
    s = h @ p @ h.T + r
    k = p @ h.T @ np.linalg.inv(s)
    x = x + k @ innovation
    p = (np.eye(len(x)) - k @ h) @ p
    return x, 0.5 * (p + p.T)


def assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=0)


# --- tracker: [x, y, s, r, vx, vy, vs, c0..c10] observed on [x, y, s, r, c] --

DIM_X = 7 + N_CLASSES
DIM_Z = 4 + N_CLASSES
TRACK_F = np.eye(DIM_X)
TRACK_F[0, 4] = TRACK_F[1, 5] = TRACK_F[2, 6] = 1.0
TRACK_H = np.zeros((DIM_Z, DIM_X))
TRACK_H[:4, :4] = np.eye(4)
TRACK_H[4:, 7:] = np.eye(N_CLASSES)
TRACK_Q = np.diag([1.0, 1.0, 1.0, 1.0, 0.01, 0.01, 1e-4] + [1e-4] * N_CLASSES)
TRACK_R = np.diag([1.0, 1.0, 10.0, 0.01] + [0.01] * N_CLASSES)
TRACK_P0 = np.diag([10.0, 10.0, 10.0, 10.0, 1e4, 1e4, 1e4]
                   + [10.0] * N_CLASSES)


class DenseTrack:
    def __init__(self, bbox, class_index):
        z = measurement(bbox, class_index)
        self.x = np.zeros(DIM_X)
        self.x[:4] = z[:4]
        self.x[7:] = z[4:]
        self.p = TRACK_P0.copy()

    def predict(self):
        if self.x[2] + self.x[6] <= 0:
            self.x[6] = 0.0
        self.x, self.p = dense_predict(self.x, self.p, TRACK_F, TRACK_Q)

    def update(self, bbox, class_index):
        self.x, self.p = dense_update(self.x, self.p,
                                      measurement(bbox, class_index),
                                      TRACK_H, TRACK_R)


def measurement(bbox, class_index):
    _, _, w, h = bbox
    c = np.zeros(N_CLASSES)
    c[class_index] = 1.0
    return np.concatenate([[*reference_point(bbox), w * h, w / h], c])


def block_track_dense(track):
    """The 18-vector and 18x18 covariance spelled out from the blocks."""
    t = track
    x = np.array([t.x, t.y, t.s, t.r, t.vx, t.vy, t.vs, *t.category])
    p = np.zeros((DIM_X, DIM_X))
    p_xy = [[t.pxx, t.pxv], [t.pxv, t.pvv]]
    p_s = [[t.pss, t.psv], [t.psv, t.pvs]]
    for rows, block in (((0, 4), p_xy), ((1, 5), p_xy), ((2, 6), p_s),
                        ((3,), [[t.prr]])):
        p[np.ix_(rows, rows)] = block
    p[7:, 7:] = np.eye(N_CLASSES) * t.pcc
    return x, p


def random_detection(rng, center, size):
    """A box and the most probable of random class probabilities."""
    probs = rng.dirichlet(np.ones(N_CLASSES)) * 0.99
    return ((center[0], center[1], size[0], size[1]),
            int(np.argmax(probs)))


@pytest.mark.parametrize("seed", range(6))
def test_track_filter_matches_dense(seed):
    rng = np.random.default_rng(seed)
    center = rng.uniform(50, 500, 2)
    velocity = rng.normal(0, 3, 2)
    size = rng.uniform(10, 60, 2)
    det = random_detection(rng, center, size)
    track, dense = Track(1, *det), DenseTrack(*det)
    for frame in range(1, 150):
        track.predict()
        dense.predict()
        center = center + velocity
        # shrinking boxes drive s + vs below zero, exercising the vs clamp
        size = np.maximum(size * rng.uniform(0.7, 1.2, 2), 0.5)
        if rng.uniform() < 0.75:  # otherwise a gap: predict only
            det = random_detection(rng, center + rng.normal(0, 1, 2), size)
            track.update(*det)
            dense.update(*det)
        x, p = block_track_dense(track)
        assert_close(x, dense.x)
        assert_close(p, dense.p)
    assert track.class_index() == int(np.argmax(dense.x[7:]))


# --- tracker: the generic block steps that `Track` writes out ---------------

def block_predict(state, p, t, q):
    """Advance a block of n <= 2 derivatives over m axes by t.  Its state
    is derivative-major, [value on each axis, then rate on each]."""
    n = len(p)
    if n == 1:
        return state, ((p[0][0] + q[0][0],),)
    m = len(state) // n
    out = list(state)
    (a, b), (_, d) = p
    for i in range(m):
        out[i] += t * state[m + i]
    bd = b + t * d
    p01 = bd + q[0][1]
    return out, ((a + t * (b + bd) + q[0][0], p01), (p01, d + q[1][1]))


def block_update(state, p, z, r):
    """Fold in z[i], an observation of axis i's value with variance r."""
    n, m = len(p), len(z)
    s = p[0][0] + r
    out = list(state)
    if n == 1:
        (a,), = p
        ka = a / s
        for i, zi in enumerate(z):
            out[i] += ka * (zi - state[i])
        return out, ((a - ka * a,),)
    (a, b), (_, d) = p
    ka, kb = a / s, b / s
    for i, zi in enumerate(z):
        inn = zi - state[i]
        out[i] += ka * inn
        out[m + i] += kb * inn
    p01 = b - ka * b
    return out, ((a - ka * a, p01), (p01, d - kb * b))


# (initial covariance, process noise, observation variance) of each block,
# in state order: [x, y, vx, vy]; [s, vs]; [r]; [c0..c10]
BLOCKS = (
    (((10.0, 0.0), (0.0, 1e4)), ((1.0, 0.0), (0.0, 0.01)), 1.0),
    (((10.0, 0.0), (0.0, 1e4)), ((1.0, 0.0), (0.0, 1e-4)), 10.0),
    (((10.0,),), ((1.0,),), 0.01),
    (((10.0,),), ((1e-4,),), 0.01),
)


class BlockTrack:
    """The tracker's filter as four generic blocks of (state, covariance)."""

    def __init__(self, bbox, class_index):
        self.blocks = [([*z] + [0.0] * (len(z) * (len(p0) - 1)), p0)
                       for z, (p0, _, _) in zip(observation(bbox, class_index),
                                                BLOCKS)]

    def predict(self):
        (s, vs), _ = self.blocks[1]
        if s + vs <= 0:
            self.blocks[1][0][1] = 0.0
        self.blocks = [block_predict(state, p, 1.0, q)
                       for (state, p), (_, q, _) in zip(self.blocks, BLOCKS)]

    def update(self, bbox, class_index):
        self.blocks = [block_update(state, p, z, r)
                       for (state, p), z, (_, _, r) in zip(
                           self.blocks, observation(bbox, class_index),
                           BLOCKS)]

    def written_out(self):
        """The blocks in `Track`'s fields, as `track_fields` gives them."""
        (xy, p_xy), (area, p_s), (aspect, p_r), (category, p_c) = self.blocks
        return (*xy, *p_xy[0], p_xy[1][1], *area, *p_s[0], p_s[1][1],
                *aspect, p_r[0][0], category, p_c[0][0])


def observation(bbox, class_index):
    """Per-block observation: reference point, area, aspect, class one-hot."""
    _, _, w, h = bbox
    one_hot = [0.0] * N_CLASSES
    one_hot[class_index] = 1.0
    return reference_point(bbox), (w * h,), (w / h,), one_hot


def track_fields(track):
    return (track.x, track.y, track.vx, track.vy, track.pxx, track.pxv,
            track.pvv, track.s, track.vs, track.pss, track.psv, track.pvs,
            track.r, track.prr, track.category, track.pcc)


@pytest.mark.parametrize("seed", range(8))
def test_track_equals_generic_blocks_bit_for_bit(seed):
    """Over random predict, update and gap sequences, with boxes shrinking
    fast enough to trip the s + vs <= 0 clamp, every float of `Track` is
    the generic blocks' float; `repr` tells -0.0 from 0.0."""
    rng = np.random.default_rng(200 + seed)
    center = rng.uniform(50, 500, 2)
    size = rng.uniform(5, 60, 2)
    det = random_detection(rng, center, size)
    track, blocks = Track(1, *det), BlockTrack(*det)
    clamped = 0
    for _ in range(200):
        clamped += track.s + track.vs <= 0
        track.predict()
        blocks.predict()
        center = center + rng.normal(0, 3, 2)
        size = np.maximum(size * rng.uniform(0.6, 1.25, 2), 1e-3)
        for _ in range(int(rng.choice([0, 1, 1, 1, 2]))):  # 0: a gap
            det = random_detection(rng, center + rng.normal(0, 1, 2), size)
            det = (tuple(map(float, det[0])), det[1])
            track.update(*det)
            blocks.update(*det)
        assert repr(track_fields(track)) == repr(blocks.written_out())
    assert clamped


def test_track_predict_adds_the_zero_cross_noise():
    """A cross term b + d of -0.0 and -0.0 is -0.0, which the generic
    step's `+ q[0][1]` turns into 0.0; `Track` must too."""
    det = ((10.0, 20.0, 4.0, 6.0), 3)
    track, blocks = Track(1, *det), BlockTrack(*det)
    track.pxv = track.pvv = track.psv = track.pvs = -0.0
    for k in (0, 1):
        blocks.blocks[k] = (blocks.blocks[k][0], ((10.0, -0.0), (-0.0, -0.0)))
    track.predict()
    blocks.predict()
    assert repr(track_fields(track)) == repr(blocks.written_out())
    assert repr((track.pxv, track.psv)) == "(0.0, 0.0)"


# --- BEV: [x, y, vx, vy, ax, ay] observed on [x, y] ---------------------------

AXES = ((0, 2, 4), (1, 3, 5))
BEV_H = np.zeros((2, 6))
BEV_H[0, 0] = BEV_H[1, 1] = 1.0
BEV_R = np.eye(2) * MEASUREMENT_VARIANCE
BEV_P0 = np.diag([MEASUREMENT_VARIANCE] * 2 + [1e6] * 2 + [1e4] * 2)


def bev_transition(t):
    f = np.eye(6)
    for pi, vi, ai in AXES:
        f[pi, vi] = f[vi, ai] = t
        f[pi, ai] = 0.5 * t * t
    return f


def bev_noise(t, q=PROCESS_SPECTRAL_DENSITY):
    block = q * np.array([[t ** 5 / 20, t ** 4 / 8, t ** 3 / 6],
                          [t ** 4 / 8, t ** 3 / 3, t ** 2 / 2],
                          [t ** 3 / 6, t ** 2 / 2, t]])
    out = np.zeros((6, 6))
    for idx in AXES:
        out[np.ix_(idx, idx)] = block
    return out


def bev_dense_p(state):
    p = np.zeros((6, 6))
    for idx in AXES:
        p[np.ix_(idx, idx)] = state.p
    return p


@pytest.mark.parametrize("seed", range(6))
def test_bev_filter_matches_dense(seed):
    rng = np.random.default_rng(100 + seed)
    t_w = 1.0 / 25.0
    pos = rng.uniform(0, 800, 2)
    vel = rng.normal(0, 40, 2)
    state = BevKalmanState.initial(*pos)
    x, p = np.array([*pos, 0, 0, 0, 0]), BEV_P0.copy()
    for _ in range(300):
        gap = int(rng.choice([1, 1, 1, 2, 3, 7]))
        pos = pos + vel * gap * t_w
        vel = vel + rng.normal(0, 5, 2)
        state = kf_predict(state, gap * t_w)
        x, p = dense_predict(x, p, bev_transition(gap * t_w),
                             bev_noise(gap * t_w))
        if rng.uniform() < 0.8:
            z = pos + rng.normal(0, 2, 2)
            state = kf_update(state, tuple(z))
            x, p = dense_update(x, p, z, BEV_H, BEV_R)
        assert_close(state.x, x)
        assert_close(bev_dense_p(state), p)


def test_block_steps_keep_symmetry_exactly():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(3, 3))
    p = tuple(map(tuple, m @ m.T + np.eye(3)))
    state = list(rng.normal(size=6))
    q = tuple(map(tuple, np.eye(3) * 0.1))
    for _ in range(50):
        state, p = kf_predict_step(state, p, float(rng.uniform(0.01, 0.5)), q)
        state, p = kf_update_step(state, p, rng.normal(size=2), 0.5)
        assert np.array_equal(np.array(p), np.array(p).T)
