import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from roadscene import geometry as geo
from roadscene.errors import (
    DegenerateConfiguration,
    DegeneratePoint,
    FrameMismatch,
    InsufficientPairs,
    InvalidCamera,
    SingularMatrix,
)
from roadscene.geometry import (
    BEV,
    PERSPECTIVE,
    WORLD,
    CameraModel,
    GroundScale,
    Homography,
    PixelPoint,
    apply,
    apply_many,
    canonicalize_matrix,
    compose_from_camera,
    estimate_dlt_xy,
    invert,
)


def random_homography(rng):
    """A well-conditioned random projective map for round-trip tests."""
    g = np.eye(3) + 0.05 * rng.standard_normal((3, 3))
    g[0, 2] += rng.uniform(-20, 20)
    g[1, 2] += rng.uniform(-20, 20)
    g[2, :2] = rng.uniform(-1e-4, 1e-4, size=2)
    return Homography(g)


class TestApply:
    def test_identity(self):
        h = Homography(np.eye(3))
        q = apply(h, PixelPoint.perspective(7, 3))
        assert q.x == pytest.approx(7.0, abs=1e-12)
        assert q.y == pytest.approx(3.0, abs=1e-12)
        assert q.frame == BEV

    def test_translation(self):
        g = np.eye(3)
        g[0, 2] = 5.0
        g[1, 2] = -3.0
        q = apply(Homography(g), PixelPoint.perspective(10, 10))
        assert q.x == pytest.approx(15.0, abs=1e-12)
        assert q.y == pytest.approx(7.0, abs=1e-12)

    def test_projective_scale(self):
        g = np.eye(3)
        g[2, 2] = 2.0
        q = apply(Homography(g), PixelPoint.perspective(10, 10))
        assert q.x == pytest.approx(5.0, abs=1e-12)
        assert q.y == pytest.approx(5.0, abs=1e-12)

    def test_frame_mismatch(self):
        h = Homography(np.eye(3))
        with pytest.raises(FrameMismatch):
            apply(h, PixelPoint.bev(1, 1))

    def test_degenerate_denominator(self):
        g = np.array([[1.0, 0, 0], [0, 1, 0], [1, 0, 1]])
        h = Homography(g)
        with pytest.raises(DegeneratePoint):
            apply(h, PixelPoint.perspective(-1.0, 0.0))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 64),
           horizon=st.booleans())
    def test_apply_many_matches_scalar(self, seed, n, horizon):
        # each row is `apply` of its point bit for bit, whatever the number
        # of rows; with `horizon`, the last row is (c, 0, c), so the
        # denominator g20 x + g21 y + g22 is exactly 0 wherever x = -1
        rng = np.random.default_rng(seed)
        g = np.eye(3) + 0.5 * rng.standard_normal((3, 3))
        pts = rng.uniform(-100, 100, size=(n, 2))
        if horizon:
            g[2] = np.array([1.0, 0.0, 1.0]) * rng.uniform(0.5, 2.0)
            pts[rng.random(n) < 0.5, 0] = -1.0
        h = Homography(g)
        batch = apply_many(h, pts)
        for (x, y), row in zip(pts, batch):
            p = PixelPoint.perspective(x, y)
            if horizon and x == -1.0:
                assert row.tolist() == [math.inf, math.inf]
                with pytest.raises(DegeneratePoint):
                    apply(h, p)
            else:
                q = apply(h, p)
                assert row.tobytes() == np.array([q.x, q.y]).tobytes()
        # each matrix of a stack maps as it does alone
        stack = np.concatenate([h.matrix[None],
                                rng.standard_normal((3, 3, 3))])
        u, v = geo._project(pts, stack)
        for k, g_k in enumerate(stack):
            u_k, v_k = geo._project(pts, g_k)
            assert u[k].tobytes() == u_k.tobytes()
            assert v[k].tobytes() == v_k.tobytes()


class TestCanonicalization:
    def test_unit_norm_and_sign(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            g = rng.standard_normal((3, 3))
            c = canonicalize_matrix(g)
            assert np.linalg.norm(c) == pytest.approx(1.0, abs=1e-12)
            if abs(c[2, 2]) > 1e-12:
                assert c[2, 2] > 0

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            g = rng.standard_normal((3, 3))
            for scale in (3.7, -0.2, 1e6, -1e-6):
                a = canonicalize_matrix(g)
                b = canonicalize_matrix(scale * g)
                assert np.max(np.abs(a - b)) < 1e-12

    def test_zero_g33_sign_rule(self):
        g = np.array([[-2.0, 0, 0], [0, 1, 0], [1, 0, 0]])
        c = canonicalize_matrix(g)
        assert c[0, 0] > 0  # first non-zero element made positive
        assert abs(np.linalg.norm(c) - 1) < 1e-12


class TestInvert:
    def test_identity(self):
        h = Homography(np.eye(3))
        hi = invert(h)
        assert np.allclose(hi.matrix, h.matrix, atol=1e-15)
        assert hi.source == BEV and hi.target == PERSPECTIVE

    def test_translation(self):
        g = np.eye(3)
        g[0, 2] = 5.0
        g[1, 2] = -3.0
        hi = invert(Homography(g))
        q = apply(hi, PixelPoint.bev(0, 0))
        assert q.x == pytest.approx(-5.0, abs=1e-12)
        assert q.y == pytest.approx(3.0, abs=1e-12)

    def test_round_trip_random_points(self):
        rng = np.random.default_rng(3)
        h = random_homography(rng)
        hi = invert(h)
        worst = 0.0
        for _ in range(100):
            p = PixelPoint.perspective(*rng.uniform(0, 1000, size=2))
            back = apply(hi, apply(h, p))
            worst = max(worst, abs(back.x - p.x), abs(back.y - p.y))
        assert worst < 1e-9


class TestSingularity:
    """A matrix is singular when its smallest singular value is at most
    1e-12 times its largest, whatever its scale."""

    @pytest.mark.parametrize("shift", [1e4, 1e5])
    def test_far_translation_is_a_homography(self, shift):
        g = np.eye(3)
        g[0, 2] = shift
        h = Homography(g)
        q = apply(h, PixelPoint.perspective(3.0, 4.0))
        assert (q.x, q.y) == pytest.approx((3.0 + shift, 4.0), abs=1e-9)
        back = apply(invert(h), q)
        assert (back.x, back.y) == pytest.approx((3.0, 4.0), abs=1e-9)

    @pytest.mark.parametrize("shift", [1e4, 2e4, 1e5])
    def test_dlt_fits_a_square_shifted_far(self, shift):
        square = np.array([(0.0, 0.0), (100.0, 0.0), (100.0, 100.0),
                           (0.0, 100.0)])
        h = Homography(estimate_dlt_xy(square, square + shift))
        q = apply(h, PixelPoint.perspective(50.0, 50.0))
        assert (q.x, q.y) == pytest.approx((50.0 + shift, 50.0 + shift),
                                           abs=1e-6)

    def test_anisotropic_scale_is_a_homography(self):
        Homography(np.diag([1.0, 1e-7, 1.0]))  # condition number 1e7

    @pytest.mark.parametrize("g", [
        [[1, 2, 3], [2, 4, 6], [0, 0, 1]],         # rank 2
        [[1e6, 2e6, 3e6], [2e6, 4e6, 6e6], [0, 0, 1e6]],  # rank 2, scaled
        [[1, 0, 0], [0, 1e-13, 0], [0, 0, 1]],     # condition number 1e13
    ])
    def test_numerically_singular_is_refused(self, g):
        with pytest.raises(SingularMatrix, match="singular"):
            Homography(np.array(g, dtype=float))


class TestEstimateDlt:
    def test_identity_square(self):
        square = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        g = estimate_dlt_xy(square, square)
        assert np.max(np.abs(g - canonicalize_matrix(np.eye(3)))) < 1e-9

    def test_translation_held_out(self):
        square = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        h = Homography(estimate_dlt_xy(square, square + (5.0, -3.0)))
        q = apply(h, PixelPoint.perspective(0.5, 0.5))
        assert q.x == pytest.approx(5.5, abs=1e-9)
        assert q.y == pytest.approx(-2.5, abs=1e-9)

    def test_planted_homography_exact(self):
        rng = np.random.default_rng(4)
        planted = random_homography(rng)
        src = rng.uniform(0, 640, size=(20, 2))
        dst = apply_many(planted, src)
        h = Homography(estimate_dlt_xy(src, dst))
        reproj = apply_many(h, src)
        rmse = math.sqrt(float(np.mean(np.sum((reproj - dst) ** 2, axis=1))))
        assert rmse < 1e-8
        assert np.max(np.abs(h.matrix - planted.matrix)) < 1e-9

    def test_too_few_pairs(self):
        points = np.array([(i, i) for i in range(3)], dtype=float)
        with pytest.raises(InsufficientPairs):
            estimate_dlt_xy(points, points)

    def test_collinear_degenerate(self):
        src = np.array([(i, 2 * i) for i in range(6)], dtype=float)
        dst = np.array([(i, i) for i in range(6)], dtype=float)
        with pytest.raises(DegenerateConfiguration):
            estimate_dlt_xy(src, dst)

    def test_unpaired_points_rejected(self):
        # bare arrays carry no frame tags; the pairing is what can be wrong
        src = np.array([(0, 0), (1, 0), (1, 1), (0, 1), (2, 2)], dtype=float)
        with pytest.raises(InsufficientPairs):
            estimate_dlt_xy(src, src[:4])

    @settings(max_examples=50, deadline=None)
    @given(dst=st.lists(st.tuples(st.floats(-1e300, 1e300),
                                  st.floats(-1e300, 1e300)),
                        min_size=4, max_size=4))
    @example(dst=[(0, 0), (1, 0), (0, 1), (1, 1)])
    def test_overflowing_points_are_degenerate_without_warning(self, dst):
        # the far point's squared distance from the centroid overflows
        src = [[0, 0], [1, 0], [0, 1], [1e300, 1e300]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateConfiguration):
                estimate_dlt_xy(src, dst)


# --- the scalar DLT that estimate_dlt_xy replaced, kept as its oracle ------

def oracle_canonicalize(g):
    g = np.asarray(g, dtype=np.float64)
    if g.shape != (3, 3):
        raise SingularMatrix(f"expected a 3x3 matrix, got shape {g.shape}")
    if not np.all(np.isfinite(g)):
        raise SingularMatrix("matrix has non-finite entries")
    with np.errstate(over="ignore"):  # an inf norm is refused below
        norm = float(np.linalg.norm(g))
    if norm < 1e-12:
        raise SingularMatrix("matrix is numerically zero")
    if not math.isfinite(norm):
        raise SingularMatrix("matrix norm overflows")
    g = g / norm
    if abs(g[2, 2]) > 1e-12:
        pivot = g[2, 2]
    else:
        flat = g.ravel()
        nz = np.flatnonzero(np.abs(flat) > 1e-12)
        pivot = flat[nz[0]]
    if pivot < 0:
        g = -g
    return g


def oracle_similarity(xy):
    centroid = xy.mean(axis=0)
    mean_dist = float(np.mean(np.linalg.norm(xy - centroid, axis=1)))
    if mean_dist < 1e-12:
        raise DegenerateConfiguration("all points coincide")
    s = math.sqrt(2.0) / mean_dist
    return np.array([
        [s, 0.0, -s * centroid[0]],
        [0.0, s, -s * centroid[1]],
        [0.0, 0.0, 1.0],
    ])


def oracle_dlt(src_xy, dst_xy):
    src_xy = np.asarray(src_xy, dtype=np.float64)
    dst_xy = np.asarray(dst_xy, dtype=np.float64)
    n = src_xy.shape[0]
    if n < 4 or dst_xy.shape[0] != n:
        raise InsufficientPairs(f"need at least 4 pairs, got {n}")

    t_src = oracle_similarity(src_xy)
    t_dst = oracle_similarity(dst_xy)
    sn = (np.hstack([src_xy, np.ones((n, 1))]) @ t_src.T)
    dn = (np.hstack([dst_xy, np.ones((n, 1))]) @ t_dst.T)

    a = np.zeros((2 * n, 9))
    x, y = sn[:, 0], sn[:, 1]
    u, v = dn[:, 0], dn[:, 1]
    a[0::2, 0] = x
    a[0::2, 1] = y
    a[0::2, 2] = 1.0
    a[0::2, 6] = -u * x
    a[0::2, 7] = -u * y
    a[0::2, 8] = -u
    a[1::2, 3] = x
    a[1::2, 4] = y
    a[1::2, 5] = 1.0
    a[1::2, 6] = -v * x
    a[1::2, 7] = -v * y
    a[1::2, 8] = -v

    _, s, vt = np.linalg.svd(a)
    if s[7] <= 1e-12 * max(1.0, s[0]):
        raise DegenerateConfiguration(
            "design matrix rank below 8; sample points are degenerate")
    g_norm = vt[-1].reshape(3, 3)
    g = np.linalg.inv(t_dst) @ g_norm @ t_src
    g = oracle_canonicalize(g)
    s = np.linalg.svd(g, compute_uv=False)
    if s[2] <= 1e-12 * s[0]:
        raise DegenerateConfiguration("estimated matrix is singular")
    return g


def point_set(rng, n, kind):
    """n image-like points: uniform, half on one line, all on one line,
    a few repeated sites, or one site n times."""
    xy = rng.uniform(0, (640, 480), size=(n, 2))
    if kind == "half-collinear":
        t = rng.uniform(0, 1, size=n // 2)
        xy[: n // 2] = np.outer(t, (600, 400)) + (20, 40)
    elif kind == "collinear":
        xy[:, 1] = 0.5 * xy[:, 0] + 7
    elif kind == "repeated":
        xy = np.round(xy[rng.integers(0, 3, size=n)])
    elif kind == "coincident":
        xy[:] = xy[0]
    return xy


def dlt_outcome(fit, src, dst):
    """The matrix as bytes, or the type of the refusal."""
    try:
        return fit(src, dst).tobytes()
    except (DegenerateConfiguration, SingularMatrix) as exc:
        return type(exc)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       # 2n < 9 only at n = 4, where the SVD must return the full VT
       n=st.one_of(st.integers(4, 6), st.integers(4, 700)),
       kind=st.sampled_from(["random", "half-collinear", "collinear",
                             "repeated", "coincident"]),
       degenerate_side=st.sampled_from(["src", "dst"]),
       scale=st.sampled_from([1.0, 1e-3, 1e3]))
@example(seed=0, n=4, kind="random", degenerate_side="src", scale=1.0)
@example(seed=0, n=5, kind="random", degenerate_side="src", scale=1.0)
def test_dlt_equals_scalar_oracle(seed, n, kind, degenerate_side, scale):
    rng = np.random.default_rng(seed)
    planted = random_homography(rng)
    points = point_set(rng, n, kind)
    mapped = apply_many(planted, points)
    mapped += rng.normal(0, 0.5, size=mapped.shape)
    src, dst = ((points, mapped) if degenerate_side == "src"
                else (mapped, points))
    src, dst = scale * src, scale * dst
    assert dlt_outcome(estimate_dlt_xy, src, dst) == \
        dlt_outcome(oracle_dlt, src, dst)


@pytest.mark.parametrize("g", [
    np.eye(3),
    -np.eye(3),
    [[-2.0, 0, 0], [0, 1, 0], [1, 0, 0]],
    [[0, 0, 0], [0, -3.0, 1], [0, 2, 1e-13]],
    np.zeros((3, 3)),
    [[1e300, 1e300, 1e300]] * 3,
    [[np.nan, 0, 0], [0, 1, 0], [0, 0, 1]],
    np.eye(2),
])
def test_canonicalize_equals_scalar_oracle(g):
    def outcome(canonicalize):
        try:
            return canonicalize(g).tobytes()
        except SingularMatrix as exc:
            return str(exc)
    assert outcome(canonicalize_matrix) == outcome(oracle_canonicalize)


def reference_projection(cam):
    """Independent transcription of the K/R/T chain used as the oracle."""
    th = math.radians(cam.theta_c)
    k = np.array([
        [cam.f * cam.kx, cam.shear, cam.cx, 0.0],
        [0.0, cam.f * cam.ky, cam.cy, 0.0],
        [0.0, 0.0, 1.0, 0.0],
    ])
    r = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, -math.sin(th), -math.cos(th), 0.0],
        [0.0, math.cos(th), -math.sin(th), 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])
    t = np.eye(4)
    t[2, 3] = -cam.h_c / math.sin(th)
    return k @ r @ t


def project_ground(p_mat, xw, yw):
    vec = p_mat @ np.array([xw, yw, 0.0, 1.0])
    return vec[0] / vec[2], vec[1] / vec[2]


class TestCameraComposition:
    def test_overhead_unit_camera(self):
        cam = CameraModel(f=1, kx=1, ky=1, shear=0, cx=0, cy=0,
                          theta_c=90, h_c=1)
        h = compose_from_camera(cam)
        assert h.source == WORLD and h.target == PERSPECTIVE
        for xw, yw in [(0.0, 0.0), (3.0, 0.0), (0.0, 2.0)]:
            q = apply(h, PixelPoint(xw, yw, WORLD))
            assert q.x == pytest.approx(xw, abs=1e-12)
            assert abs(q.y) == pytest.approx(abs(yw), abs=1e-12)
        # unit scale: one meter of ground moves the pixel by one unit
        a = apply(h, PixelPoint(0.0, 0.0, WORLD))
        b = apply(h, PixelPoint(1.0, 0.0, WORLD))
        assert math.hypot(b.x - a.x, b.y - a.y) == pytest.approx(1.0,
                                                                 abs=1e-12)

    def test_z_column_removed(self):
        cam = CameraModel(f=900, kx=1.1, ky=0.9, shear=0.2, cx=320, cy=240,
                          theta_c=35, h_c=8)
        p_mat = reference_projection(cam)
        reduced = canonicalize_matrix(p_mat[:, [0, 1, 3]])
        h = compose_from_camera(cam)
        assert np.max(np.abs(h.matrix - reduced)) < 1e-12

    def test_agrees_with_full_chain(self):
        rng = np.random.default_rng(5)
        for _ in range(4):
            cam = CameraModel(
                f=rng.uniform(400, 1200), kx=rng.uniform(0.8, 1.2),
                ky=rng.uniform(0.8, 1.2), shear=rng.uniform(-0.5, 0.5),
                cx=rng.uniform(200, 400), cy=rng.uniform(150, 300),
                theta_c=rng.uniform(15, 90), h_c=rng.uniform(3, 15))
            p_mat = reference_projection(cam)
            h = compose_from_camera(cam)
            worst = 0.0
            for _ in range(50):
                xw, yw = rng.uniform(-30, 30), rng.uniform(1, 60)
                u, v = project_ground(p_mat, xw, yw)
                q = apply(h, PixelPoint(xw, yw, WORLD))
                worst = max(worst, abs(q.x - u), abs(q.y - v))
            assert worst < 1e-9

    def test_invalid_cameras(self):
        good = dict(f=900, kx=1, ky=1, shear=0, cx=320, cy=240,
                    theta_c=45, h_c=8)
        for bad in (dict(f=0), dict(kx=-1), dict(theta_c=0),
                    dict(theta_c=91), dict(h_c=0), dict(f=float("nan"))):
            with pytest.raises(InvalidCamera):
                CameraModel(**{**good, **bad})

    def test_pitch_90_allowed(self):
        CameraModel(f=900, kx=1, ky=1, shear=0, cx=320, cy=240,
                    theta_c=90, h_c=8)


class TestGroundScale:
    def test_conversions(self):
        s = GroundScale(0.05)
        assert s.to_meters(10) == pytest.approx(0.5)
        assert s.to_pixels(0.5) == pytest.approx(10.0)

    def test_positive_required(self):
        with pytest.raises(InvalidCamera):
            GroundScale(0.0)
        with pytest.raises(InvalidCamera):
            GroundScale(-1.0)
