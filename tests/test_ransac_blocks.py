"""Blocked RANSAC against the one-hypothesis-at-a-time loop it replaced.

`ransac_homography` draws, fits and scores its hypotheses in blocks; the
loop below is the reference it must equal exactly: the same homography bit
for bit, the same inlier mask, votes, iteration count and vote history,
and the same exception where the input provokes one.  A sample or refit
whose fit does not stand, the fit refused by `estimate_dlt_xy` or its
matrix by `Homography`, yields no model and scores 0 votes.  Neither warns.
"""

import itertools
import warnings

import numpy as np
import pytest

from roadscene.calibration import (
    _BLOCK,
    _SAMPLE_SIZE,
    Correspondence,
    RansacResult,
    ransac_homography,
    ransac_iterations,
)
from roadscene.config import RansacParams
from roadscene.errors import (DegenerateConfiguration, ProcessingError,
                              SingularMatrix)
from roadscene.geometry import (
    BEV,
    PERSPECTIVE,
    Homography,
    PixelPoint,
    apply_many,
    estimate_dlt_xy,
)


def one_at_a_time(matches, params=RansacParams(), rng_seed=0):
    """The reference: one sample drawn, fitted and voted per iteration."""
    n = len(matches)
    cam_xy = np.array([[m.cam.x, m.cam.y] for m in matches])
    sat_xy = np.array([[m.sat.x, m.sat.y] for m in matches])
    rng = np.random.default_rng(rng_seed)
    tau2 = params.tau_z ** 2

    def fit_and_vote(idx):
        """The sample's homography and inlier mask, (None, all False) if
        its fit does not stand."""
        try:
            g = estimate_dlt_xy(cam_xy[idx], sat_xy[idx])
            h = Homography(g, source=PERSPECTIVE, target=BEV)
        except (DegenerateConfiguration, SingularMatrix):
            return None, np.zeros(n, dtype=bool)
        proj = apply_many(h, cam_xy)
        with np.errstate(over="ignore"):  # an overflowing error is an outlier
            err2 = np.sum((proj - sat_xy) ** 2, axis=1)
        return h, err2 < tau2

    best_h = best_mask = None
    best_votes = 0
    budget = params.max_iter
    history = []
    i = 0
    while i < budget:
        idx = rng.choice(n, size=_SAMPLE_SIZE, replace=False)
        h, mask = fit_and_vote(idx)
        votes = int(mask.sum())
        history.append(votes)
        if votes > best_votes:
            best_h, best_mask, best_votes = h, mask, votes
            budget = min(params.max_iter,
                         ransac_iterations(params.rho, best_votes / n))
        i += 1

    if best_votes < _SAMPLE_SIZE:
        raise ProcessingError(f"best consensus has {best_votes} votes, "
                              f"need at least {_SAMPLE_SIZE}")
    refit, refit_mask = fit_and_vote(best_mask)
    refit_votes = int(refit_mask.sum())
    if refit_votes >= best_votes:
        best_h, best_mask, best_votes = refit, refit_mask, refit_votes
    return RansacResult(h=best_h, inlier_mask=best_mask, votes=best_votes,
                        iterations_run=i, vote_history=history)


def outcome(fit, matches, params, seed):
    """Everything a caller can see of one call: the result's fields, with
    the homography as bytes, or the exception's type and message."""
    try:
        r = fit(matches, params, seed)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)
    return (r.h.matrix.tobytes(), r.h.source, r.h.target,
            r.inlier_mask.tobytes(), r.inlier_mask.dtype, r.votes,
            r.iterations_run, r.vote_history)


def match_set(rng, n, outliers, kind):
    """n matches of a planted homography, a share of them gross outliers.

    kind "collinear" puts half the camera points on one line, "repeated"
    makes every point one of a few sites, "line" puts them all on a line.
    """
    g = np.eye(3) + 0.05 * rng.standard_normal((3, 3))
    g[:2, 2] += rng.uniform(-30, 30, size=2)
    g[2, :2] = rng.uniform(-1e-4, 1e-4, size=2)
    cam = rng.uniform(0, (640, 480), size=(n, 2))
    if kind == "collinear":
        t = rng.uniform(0, 1, size=n // 2)
        cam[: n // 2] = np.outer(t, (600, 400)) + (20, 40)
    elif kind == "repeated":
        cam = np.round(cam[rng.integers(0, max(n // 6, 1), size=n)])
    elif kind == "line":
        cam[:, 1] = 0.5 * cam[:, 0] + 7
    sat = apply_many(Homography(g), cam)
    sat += rng.normal(0, 0.3, size=sat.shape)
    bad = rng.random(n) < outliers
    sat[bad] += rng.uniform(30, 200, size=(bad.sum(), 2)) * rng.choice(
        [-1, 1], size=(bad.sum(), 2))
    return [Correspondence(PixelPoint.perspective(*c), PixelPoint.bev(*s))
            for c, s in zip(cam, sat)]


BUDGETS = [1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5, 1000]
CASES = list(itertools.product(
    [0.0, 0.3, 0.6, 0.9], BUDGETS, ["plain", "collinear", "repeated"]))


@pytest.mark.parametrize("outliers, max_iter, kind", CASES)
def test_blocked_equals_one_at_a_time(outliers, max_iter, kind):
    seed = CASES.index((outliers, max_iter, kind))
    rng = np.random.default_rng(seed)
    matches = match_set(rng, int(rng.integers(4, 90)), outliers, kind)
    params = RansacParams(tau_z=float(rng.uniform(1, 4)), max_iter=max_iter)
    for rng_seed in (seed, seed + 1000):
        assert outcome(ransac_homography, matches, params, rng_seed) == \
            outcome(one_at_a_time, matches, params, rng_seed)


@pytest.mark.parametrize("seed", range(12))
def test_degenerate_sets_equal_one_at_a_time(seed):
    # all on a line or a few repeated sites: most or all samples degenerate
    rng = np.random.default_rng(500 + seed)
    kind = ["line", "repeated"][seed % 2]
    matches = match_set(rng, int(rng.integers(4, 40)), 0.2, kind)
    params = RansacParams(max_iter=[50, _BLOCK, 150][seed % 3])
    assert outcome(ransac_homography, matches, params, seed) == \
        outcome(one_at_a_time, matches, params, seed)


def test_minimal_sets_equal_one_at_a_time():
    rng = np.random.default_rng(9)
    for n in (4, 5, 6):
        matches = match_set(rng, n, 0.0, "plain")
        for max_iter in (1, _BLOCK + 3):
            params = RansacParams(max_iter=max_iter)
            assert outcome(ransac_homography, matches, params, n) == \
                outcome(one_at_a_time, matches, params, n)


def huge_match_set(seed):
    """Matches with coordinates near the float range: numpy overflows while
    fitting or voting some hypotheses and not others."""
    rng = np.random.default_rng(seed)
    matches = match_set(rng, 40, 0.3, "plain")
    for k in rng.choice(40, size=6, replace=False):
        scale = 10.0 ** rng.uniform(150, 307)
        m = matches[k]
        matches[k] = Correspondence(
            PixelPoint.perspective(m.cam.x * scale, m.cam.y),
            PixelPoint.bev(m.sat.x, -m.sat.y * scale))
    return matches


@pytest.mark.parametrize("seed", range(6))
def test_floating_point_errors_come_in_the_same_order(seed):
    # none come: a fit that overflows is degenerate and a point whose error
    # overflows an outlier, so numpy's warnings raised as exceptions end
    # neither call
    matches = huge_match_set(seed)
    params = RansacParams(max_iter=150)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        blocked = outcome(ransac_homography, matches, params, seed)
        assert blocked == outcome(one_at_a_time, matches, params, seed)
    assert isinstance(blocked[0], bytes), blocked


def far_match_set(seed):
    """Half the satellite points sit together far out: a sample of four of
    them fits a matrix that overflows its norm, a sample mixing them with
    the others overflows its normalization."""
    rng = np.random.default_rng(seed)
    matches = match_set(rng, 40, 0.2, "plain")
    for k in rng.choice(40, size=20, replace=False):
        m = matches[k]
        matches[k] = Correspondence(m.cam, PixelPoint.bev(
            1e160 + m.sat.x * 1e150, 1e160 + m.sat.y * 1e150))
    return matches


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("max_iter", [10, 150])
def test_unscaled_fit_raises_at_its_turn(seed, max_iter):
    # an unscaled fit's turn comes, and it raises nothing: its sample wins
    # no votes and the walk goes on, so a larger budget cannot turn a
    # result into an error
    matches = far_match_set(seed)
    params = RansacParams(max_iter=max_iter)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        blocked = outcome(ransac_homography, matches, params, seed)
        assert blocked == outcome(one_at_a_time, matches, params, seed)
    assert blocked[0] is not SingularMatrix, blocked
    if seed == 4:
        assert isinstance(blocked[0], bytes), blocked
