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
from roadscene.errors import (
    InsufficientMatches,
    InsufficientTrajectories,
    InvalidProbability,
    NoConsensus,
)
from roadscene.geometry import (
    Homography,
    PixelPoint,
    apply_many,
)
from roadscene.imaging import DistortionParams, distort_point


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
        with pytest.raises(InvalidProbability):
            ransac_iterations(1.0, 0.5)
        with pytest.raises(InvalidProbability):
            ransac_iterations(0.0, 0.5)
        with pytest.raises(InvalidProbability):
            ransac_iterations(0.99, 0.0)
        with pytest.raises(InvalidProbability):
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
        with pytest.raises(InsufficientMatches):
            ransac_homography(matches)

    def test_no_consensus_on_collinear_matches(self):
        # every 4-sample of collinear points is degenerate, so no model
        # ever collects a vote
        matches = [Correspondence(PixelPoint.perspective(i, 2.0 * i),
                                  PixelPoint.bev(i, 3.0 * i))
                   for i in range(6)]
        with pytest.raises(NoConsensus):
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
        with pytest.raises(InsufficientTrajectories):
            fit_distortion_es(short, (320, 240), seed=1)


class TestEsMinimize:
    def test_minimizes_quadratic(self):
        rng = np.random.default_rng(91)
        target = np.array([0.3, -0.1])

        def objective(x):
            return float(np.sum((x - target) ** 2))

        result = es_minimize(objective, (0.0, 0.0), rng)
        assert isinstance(result, EsResult)
        assert np.max(np.abs(result.x - target)) < 1e-3
        assert result.generations <= 200

    def test_zero_objective_terminates_early(self):
        rng = np.random.default_rng(92)
        result = es_minimize(lambda x: 0.0, (0.0, 0.0), rng)
        assert result.generations < 200
        assert result.fx == 0.0
