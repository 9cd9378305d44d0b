import math

import numpy as np
import pytest

from roadscene.calibration import (
    Correspondence,
    EsResult,
    RansacParams,
    es_minimize,
    fit_distortion_es,
    ransac_homography,
    ransac_iterations,
    straightness_objective,
)
from roadscene.errors import InputError, ProcessingError
from roadscene.geometry import (
    Homography,
    PixelPoint,
    apply_many,
)
from roadscene.imaging import DistortionParams, distort_point, undistort_xy


def planted_homography(rng):
    g = np.eye(3) + 0.05 * rng.standard_normal((3, 3))
    g[0, 2] += rng.uniform(-30, 30)
    g[1, 2] += rng.uniform(-30, 30)
    g[2, :2] = rng.uniform(-1e-4, 1e-4, size=2)
    return Homography(g)


def make_matches(rng, h, n, n_outliers, noise=0.0):
    cam = rng.uniform(0, (640, 480), size=(n, 2))
    sat = apply_many(h, cam)
    if noise:
        sat = sat + rng.normal(0, noise, size=sat.shape)
    is_outlier = np.zeros(n, dtype=bool)
    idx = rng.choice(n, size=n_outliers, replace=False)
    is_outlier[idx] = True
    # gross outliers: displaced well past any reasonable threshold
    sat[idx] += rng.uniform(30, 200, size=(n_outliers, 2)) * rng.choice(
        [-1, 1], size=(n_outliers, 2))
    matches = [Correspondence(PixelPoint.perspective(*c),
                              PixelPoint.bev(*s))
               for c, s in zip(cam, sat)]
    return matches, cam, sat, is_outlier


class TestRansacIterations:
    def test_all_inliers(self):
        assert ransac_iterations(0.99, 1.0) == 1

    def test_half_inliers(self):
        assert ransac_iterations(0.99, 0.5) == 72

    def test_mostly_inliers(self):
        assert ransac_iterations(0.99, 0.9) == 5

    def test_invalid_arguments(self):
        with pytest.raises(InputError, match=r"rho must be in \(0, 1\)"):
            ransac_iterations(1.0, 0.5)
        with pytest.raises(InputError, match=r"rho must be in \(0, 1\)"):
            ransac_iterations(0.0, 0.5)
        with pytest.raises(InputError, match=r"epsilon must be in \(0, 1\]"):
            ransac_iterations(0.99, 0.0)
        with pytest.raises(InputError, match=r"epsilon must be in \(0, 1\]"):
            ransac_iterations(0.99, 1.1)


class TestRansacHomography:
    def test_exact_minimal_case(self):
        rng = np.random.default_rng(61)
        h = planted_homography(rng)
        matches, cam, sat, _ = make_matches(rng, h, 4, 0)
        result = ransac_homography(matches, rng_seed=1)
        assert result.votes == 4
        assert np.all(result.inlier_mask)
        assert result.iterations_run == 1
        reproj = apply_many(result.h, cam)
        assert np.max(np.abs(reproj - sat)) < 1e-8

    def test_eight_of_ten(self):
        rng = np.random.default_rng(62)
        h = planted_homography(rng)
        matches, _, _, is_outlier = make_matches(rng, h, 10, 2, noise=0.5)
        assert is_outlier.sum() == 2
        result = ransac_homography(matches, RansacParams(tau_z=3.0),
                                   rng_seed=2)
        assert result.votes == 8
        assert np.array_equal(result.inlier_mask, ~is_outlier)

    def test_forty_percent_outliers(self):
        rng = np.random.default_rng(63)
        h = planted_homography(rng)
        matches, cam, sat, is_outlier = make_matches(rng, h, 200, 80,
                                                     noise=0.3)
        result = ransac_homography(matches, rng_seed=3)
        true_in = ~is_outlier
        reproj = apply_many(result.h, cam[true_in])
        rmse = math.sqrt(float(np.mean(
            np.sum((reproj - sat[true_in]) ** 2, axis=1))))
        assert rmse < 0.5

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(64)
        h = planted_homography(rng)
        matches, _, _, _ = make_matches(rng, h, 50, 15, noise=0.4)
        a = ransac_homography(matches, rng_seed=7)
        b = ransac_homography(matches, rng_seed=7)
        assert np.array_equal(a.h.matrix, b.h.matrix)
        assert np.array_equal(a.inlier_mask, b.inlier_mask)
        assert a.iterations_run == b.iterations_run

    def test_votes_maximal_in_history(self):
        rng = np.random.default_rng(65)
        h = planted_homography(rng)
        matches, _, _, _ = make_matches(rng, h, 60, 20, noise=0.4)
        result = ransac_homography(matches, rng_seed=8)
        assert result.votes == sum(result.inlier_mask)
        assert result.votes >= max(result.vote_history)
        assert result.iterations_run == len(result.vote_history)

    def test_too_few_matches(self):
        rng = np.random.default_rng(66)
        h = planted_homography(rng)
        matches, _, _, _ = make_matches(rng, h, 3, 0)
        with pytest.raises(InputError,
                           match="need at least 4 matches, got 3"):
            ransac_homography(matches)

    def test_no_consensus_on_collinear_matches(self):
        # every 4-sample of collinear points is degenerate, so no model
        # ever collects a vote
        matches = [Correspondence(PixelPoint.perspective(i, 2.0 * i),
                                  PixelPoint.bev(i, 3.0 * i))
                   for i in range(6)]
        with pytest.raises(ProcessingError,
                           match="best consensus has [0-3] votes"):
            ransac_homography(matches, RansacParams(max_iter=50), rng_seed=9)


def line_residual(points, theta):
    """Squared residual sum of `points` about the line through their
    centroid with unit normal (cos theta, sin theta); theta may be an
    array of angles."""
    xy = np.asarray(points, dtype=np.float64)
    d = xy - xy.mean(axis=0)
    theta = np.asarray(theta, dtype=np.float64)[..., None]
    return np.sum((np.cos(theta) * d[:, 0] + np.sin(theta) * d[:, 1]) ** 2,
                  axis=-1)


def brute_force_min_residual(points):
    """Smallest line residual over a normal-angle grid, refined once."""
    coarse = np.linspace(0.0, math.pi, 100_001)
    best = coarse[np.argmin(line_residual(points, coarse))]
    fine = np.linspace(best - 1e-4, best + 1e-4, 20_001)
    return float(np.min(line_residual(points, fine)))


def single_trajectory_score(points):
    """`straightness_objective` of one trajectory at k = 0 (no lens)."""
    objective = straightness_objective([np.asarray(points, dtype=np.float64)],
                                       (320, 240))
    return objective(np.zeros(2))


class TestStraightnessObjective:
    """At k = 0 each trajectory scores its total-least-squares line
    residual: the minimum over all lines of the squared distance sum."""

    def test_horizontal_trajectory_scores_zero(self):
        assert single_trajectory_score(
            [(x, 0.0) for x in (0, 1, 2, 5)]) < 1e-24

    def test_sloped_trajectory_scores_zero(self):
        assert single_trajectory_score(
            [(x, 2.0 * x + 1.0) for x in range(-3, 4)]) < 1e-12

    def test_square_matches_angle_grid(self):
        square = [(0, 0), (1, 0), (1, 1), (0, 1)]
        assert single_trajectory_score(square) == pytest.approx(
            brute_force_min_residual(square), rel=1e-9, abs=1e-12)

    def test_random_points_match_angle_grid(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            pts = rng.uniform(0, 100, size=(8, 2))
            assert single_trajectory_score(pts) == pytest.approx(
                brute_force_min_residual(pts), rel=1e-9)

    def test_sums_over_trajectories(self):
        rng = np.random.default_rng(72)
        trajectories = [rng.uniform(0, 200, size=(n, 2)) for n in (5, 9, 6)]
        k = np.array([-0.1, 0.02])
        total = straightness_objective(trajectories, (320, 240))(k)
        parts = sum(straightness_objective([t], (320, 240))(k)
                    for t in trajectories)
        assert total == pytest.approx(parts, rel=1e-12)


# The one-candidate objective as it was scored before each ES generation
# became one stack: undistort one (k1, k2), then one scatter and one
# eigenvalue per trajectory, summed in trajectory order.

def one_candidate_undistort(xy, params, rounds=5):
    xs, ys = params.center
    scale = params.half_diagonal
    k1, k2 = params.k
    norm = (np.asarray(xy, dtype=np.float64) - (xs, ys)) / scale
    rd = np.hypot(norm[:, 0], norm[:, 1])
    ru = rd.copy()
    for _ in range(rounds):
        r2 = ru * ru
        ru = rd / (1.0 + k1 * r2 + k2 * r2 * r2)
    ratio = np.ones_like(rd)
    nz = rd > 0
    ratio[nz] = ru[nz] / rd[nz]
    return (xs, ys) + norm * ratio[:, None] * scale


def one_candidate_scatter(xy):
    d = xy - xy.mean(axis=0)
    sxx = float(np.dot(d[:, 0], d[:, 0]))
    syy = float(np.dot(d[:, 1], d[:, 1]))
    sxy = float(np.dot(d[:, 0], d[:, 1]))
    return sxx, sxy, syy


def one_candidate_min_eig(sxx, sxy, syy):
    tr = sxx + syy
    disc = math.sqrt((sxx - syy) ** 2 + 4.0 * sxy * sxy)
    return 0.5 * (tr - disc)


def one_candidate_objective(trajectories, image_size):
    stacked = np.vstack(trajectories)
    bounds = np.cumsum([0] + [len(t) for t in trajectories])

    def objective(k):
        params = DistortionParams.centered((float(k[0]), float(k[1])),
                                           image_size)
        und = one_candidate_undistort(stacked, params)
        total = 0.0
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            total += one_candidate_min_eig(*one_candidate_scatter(und[lo:hi]))
        return total

    return objective


class TestStackedObjectiveEqualsOneCandidate:
    """`straightness_objective` scores a stack of candidates at once; each
    score must be the one-candidate objective's float, bit for bit."""

    @staticmethod
    def stacks(rng):
        """k = 0, |k| <= 0.5, and the ~1e17 a lens fit of already
        straight tracks reaches (survey writes k = (4.08e17, 2.24e17))."""
        yield np.zeros((8, 2))
        for _ in range(10):
            yield rng.uniform(-0.5, 0.5, size=(8, 2))
            yield rng.uniform(0.5, 5.0, size=(8, 2)) * 1e17
        yield np.array([[0.0, 0.0], [-0.5, 0.5], [0.5, -0.5], [1e-9, 0.0],
                        [4.08e17, 2.24e17], [2.24e17, 4.08e17], [0.1, 0.0],
                        [0.0, 0.1]])

    @pytest.mark.parametrize("image_size", [(320, 240), (800, 600)])
    def test_scores_equal_bit_for_bit(self, image_size):
        rng = np.random.default_rng(86)
        w, h = image_size
        trajectories = [rng.uniform(0, (w, h), size=(n, 2))
                        for n in (5, 31, 8, 200, 13, 6)]
        stacked = straightness_objective(trajectories, image_size)
        oracle = one_candidate_objective(trajectories, image_size)
        for ks in self.stacks(rng):
            scores = stacked(ks)
            want = [oracle(k) for k in ks]
            assert np.all(np.isfinite(want))
            assert scores.tolist() == want
            for k, score in zip(ks, want):
                one = stacked(k)
                assert type(one) is float and one == score

    def test_undistort_rows_equal_one_at_a_time(self):
        rng = np.random.default_rng(87)
        xy = rng.uniform(0, (640, 480), size=(50, 2))
        xy[0] = (320.0, 240.0)  # the center, where r_d = 0
        ks = rng.uniform(-0.5, 0.5, size=(8, 2))
        params = DistortionParams.centered((0.0, 0.0), (640, 480))
        rows = undistort_xy(xy, params, ks=ks)
        for k, row in zip(ks, rows):
            one = DistortionParams.centered(tuple(k.tolist()), (640, 480))
            assert np.array_equal(row, one_candidate_undistort(xy, one))
            assert np.array_equal(undistort_xy(xy, one),
                                  one_candidate_undistort(xy, one))

    def test_a_non_finite_candidate_is_refused(self):
        objective = straightness_objective(
            [np.arange(10.0).reshape(5, 2)], (320, 240))
        with pytest.raises(ValueError, match="finite"):
            objective(np.array([[0.0, 0.0], [np.inf, 0.0]]))

    def test_lens_fit_keeps_its_bits(self):
        """Noisy straight tracks of unequal length on an 800 x 600 view:
        the fitted k is the one-candidate ES's, bit for bit."""
        rng = np.random.default_rng(85)
        trajectories = []
        for n in (12, 30, 7, 21, 16):
            x0, x1 = sorted(rng.uniform(20, 780, size=2))
            y0, y1 = rng.uniform(20, 580, size=2)
            ts = np.linspace(0.0, 1.0, n)
            pts = np.column_stack([x0 + ts * (x1 - x0), y0 + ts * (y1 - y0)])
            pts += rng.normal(0, 0.5, (n, 2))
            trajectories.append([PixelPoint.perspective(x, y)
                                 for x, y in pts])
        params = fit_distortion_es(trajectories, (800, 600), seed=3)
        assert [k.hex() for k in params.k] == ["0x1.5fb011b5ba6b5p-10",
                                               "-0x1.9f7c00b179386p-6"]


def synthetic_trajectories(rng, k, image_size=(320, 240), n_traj=12,
                           n_pts=30):
    """Straight lines distorted by the given coefficients."""
    w, h = image_size
    params = DistortionParams.centered(k, image_size)
    trajectories = []
    for _ in range(n_traj):
        x0, x1 = sorted(rng.uniform(10, w - 10, size=2))
        y0, y1 = rng.uniform(10, h - 10, size=2)
        ts = np.linspace(0, 1, n_pts)
        pts = []
        for t in ts:
            p = PixelPoint.perspective(x0 + t * (x1 - x0), y0 + t * (y1 - y0))
            pts.append(distort_point(p, params))
        trajectories.append(pts)
    return trajectories


class TestFitDistortionEs:
    def test_zero_distortion_stays_zero(self):
        rng = np.random.default_rng(81)
        trajectories = synthetic_trajectories(rng, (0.0, 0.0))
        params = fit_distortion_es(trajectories, (320, 240), seed=5)
        assert abs(params.k[0]) < 1e-3
        assert abs(params.k[1]) < 1e-3

    def test_recovers_k1(self):
        rng = np.random.default_rng(82)
        trajectories = synthetic_trajectories(rng, (-0.2, 0.0))
        params = fit_distortion_es(trajectories, (320, 240), seed=6)
        assert params.k[0] == pytest.approx(-0.2, rel=0.1)
        arrays = [np.array([[p.x, p.y] for p in t]) for t in trajectories]
        objective = straightness_objective(arrays, (320, 240))
        assert objective(np.array(params.k)) <= 0.1 * objective(
            np.zeros(2))

    def test_monotone_objective(self):
        rng = np.random.default_rng(83)
        trajectories = synthetic_trajectories(rng, (-0.15, 0.02))
        arrays = [np.array([[p.x, p.y] for p in t]) for t in trajectories]
        objective = straightness_objective(arrays, (320, 240))
        result = es_minimize(objective, (0.0, 0.0),
                             np.random.default_rng(977))
        assert all(b <= a + 1e-15 for a, b in zip(result.history,
                                                  result.history[1:]))

    def test_needs_a_long_trajectory(self):
        short = [[PixelPoint.perspective(i, i) for i in range(4)]]
        with pytest.raises(InputError, match="at least one trajectory "
                                             "with >= 5 points"):
            fit_distortion_es(short, (320, 240), seed=1)


class TestEsMinimize:
    def test_minimizes_quadratic(self):
        rng = np.random.default_rng(91)
        target = np.array([0.3, -0.1])

        def objective(x):  # a point or a stack of points
            return np.sum((x - target) ** 2, axis=-1)

        result = es_minimize(objective, (0.0, 0.0), rng)
        assert isinstance(result, EsResult)
        assert np.max(np.abs(result.x - target)) < 1e-3
        assert result.generations <= 200

    def test_zero_objective_terminates_early(self):
        rng = np.random.default_rng(92)
        result = es_minimize(lambda x: np.zeros(np.shape(x)[:-1]),
                             (0.0, 0.0), rng)
        assert result.generations < 200
        assert result.fx == 0.0

    def test_one_call_per_generation(self):
        shapes = []

        def objective(x):
            shapes.append(np.shape(x))
            return np.sum(x ** 2, axis=-1)

        result = es_minimize(objective, (0.3, 0.2),
                             np.random.default_rng(93))
        assert shapes == [(2,)] + [(8, 2)] * result.generations

    def test_objective_must_score_each_offspring(self):
        with pytest.raises(ValueError):  # one score for 8 offspring
            es_minimize(lambda x: 0.0, (0.0, 0.0), np.random.default_rng(94))
