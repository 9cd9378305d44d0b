"""Homography auto-calibration against a satellite reference.

Two estimators live here.  The first recovers the perspective-to-BEV
homography from noisy point correspondences by consensus voting with an
adaptive iteration budget and a final least-squares refit on the winning
inlier set.  The second estimates polynomial radial-distortion
coefficients by straightening observed vehicle trajectories: candidate
coefficients are scored by how well the undistorted points fit straight
lines, and a (1+lambda) evolution strategy searches the coefficient plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .config import RansacParams
from .errors import InputError, ProcessingError
from .geometry import (
    BEV,
    PERSPECTIVE,
    Homography,
    PixelPoint,
    _canonical_stack,
    _dlt_stack,
    _project,
    _singular_stack,
)
from .imaging import DistortionParams, undistort_xy

# correspondences drawn per RANSAC hypothesis: the minimum for a homography
_SAMPLE_SIZE = 4
# RANSAC hypotheses fitted and scored together, see `ransac_homography`
_BLOCK = 64

# (1+lambda) evolution strategy, see `es_minimize`
_ES_LAMBDA = 8
_ES_SIGMA0 = 0.05
_ES_MAX_GENERATIONS = 200
_ES_REL_TOL = 1e-9
_ES_PATIENCE = 20


@dataclass(frozen=True)
class Correspondence:
    """A putative camera-pixel / satellite-pixel match."""

    cam: PixelPoint
    sat: PixelPoint

    def __post_init__(self):
        if self.cam.frame != PERSPECTIVE or self.sat.frame != BEV:
            raise ValueError("correspondence must pair a perspective point "
                             "with a bev point")


@dataclass
class RansacResult:
    h: Homography
    inlier_mask: np.ndarray
    votes: int
    iterations_run: int
    # votes recorded per executed iteration, for auditing optimality
    vote_history: list[int] = field(default_factory=list)


def ransac_iterations(rho: float, epsilon: float) -> int:
    """Iterations needed to sample one all-inlier draw with probability rho.

    ceil(log(1 - rho) / log(1 - epsilon**4)), 4 being the sample size;
    1 when epsilon = 1.
    """
    if not 0.0 < rho < 1.0:
        raise InputError(f"rho must be in (0, 1), got {rho}")
    if not 0.0 < epsilon <= 1.0:
        raise InputError(f"epsilon must be in (0, 1], got {epsilon}")
    if epsilon == 1.0:
        return 1
    denom = math.log1p(-epsilon ** _SAMPLE_SIZE)
    return int(math.ceil(math.log1p(-rho) / denom))


def ransac_homography(matches: Sequence[Correspondence],
                      params: RansacParams = RansacParams(),
                      rng_seed: int = 0) -> RansacResult:
    """Consensus-vote a homography out of outlier-ridden correspondences.

    Each iteration samples 4 distinct pairs, fits an exact homography and
    counts matches whose satellite-side reprojection error is below tau_z.
    The budget shrinks adaptively: whenever a better model appears, the
    required iteration count is recomputed from its inlier ratio.  The
    winner is refit on its full inlier set unless the refit would lose
    inliers, in which case the voted model is kept.  A sample or refit
    whose fit does not stand yields no model and wins no votes.

    Samples are drawn, fitted and scored in blocks of up to _BLOCK (see
    `_block_hypotheses`), then walked in draw order with the budget checked
    before each one, so the result is that of one iteration at a time.
    The refit is a block of one sample: the whole inlier set.
    """
    n = len(matches)
    if n < _SAMPLE_SIZE:
        raise InputError(f"need at least {_SAMPLE_SIZE} matches, got {n}")
    cam_xy = np.array([[m.cam.x, m.cam.y] for m in matches])
    sat_xy = np.array([[m.sat.x, m.sat.y] for m in matches])

    rng = np.random.default_rng(rng_seed)
    tau2 = params.tau_z ** 2

    best_h = None
    best_mask = None
    best_votes = 0
    budget = params.max_iter
    history: list[int] = []
    i = 0
    while i < budget:
        draws = np.array([rng.choice(n, size=_SAMPLE_SIZE, replace=False)
                          for _ in range(min(_BLOCK, budget - i))])
        g, masks, votes = _block_hypotheses(cam_xy, sat_xy, draws, tau2)
        for k in range(len(draws)):
            if i >= budget:
                break
            i += 1
            history.append(votes[k])
            if votes[k] > best_votes:
                best_h = Homography(g[k], source=PERSPECTIVE, target=BEV)
                best_mask, best_votes = masks[k], votes[k]
                budget = min(params.max_iter,
                             ransac_iterations(params.rho, best_votes / n))

    if best_votes < _SAMPLE_SIZE:
        raise ProcessingError(f"best consensus has {best_votes} votes, "
                              f"need at least {_SAMPLE_SIZE}")

    # a refit that does not stand has 0 votes, fewer than the winner's
    (g,), (mask,), (votes,) = _block_hypotheses(
        cam_xy, sat_xy, np.flatnonzero(best_mask)[None], tau2)
    if votes >= best_votes:
        best_h = Homography(g, source=PERSPECTIVE, target=BEV)
        best_mask, best_votes = mask, votes

    return RansacResult(h=best_h, inlier_mask=best_mask, votes=best_votes,
                        iterations_run=i, vote_history=history)


def _block_hypotheses(cam_xy: np.ndarray, sat_xy: np.ndarray,
                      draws: np.ndarray, tau2: float):
    """Fit and score a (b, m) block of sampled match indices at once:
    returns per sample the matrix `estimate_dlt_xy` gives, and the inlier
    mask and vote count of its `Homography`.  Those are all False and 0
    for a fit that does not stand: degenerate, not scaling to norm 1, or
    singular once canonicalized, which `estimate_dlt_xy` or `Homography`
    would refuse (Fischler & Bolles, CACM 1981: no model, no consensus).

    Every step is the one-at-a-time step on a stack (one SVD, one
    projection), bit for bit, and none warns or raises.  A point whose
    squared error overflows is an outlier.
    """
    g, fitted, _ = _dlt_stack(cam_xy[draws], sat_xy[draws])
    # `Homography` canonicalizes each fitted matrix a second time and
    # refuses it if singular; the others project through the identity
    h, _ = _canonical_stack(np.where(fitted[:, None, None], g, np.eye(3)))
    fitted &= ~_singular_stack(h)
    u, v = _project(cam_xy, h)
    with np.errstate(over="ignore"):
        masks = (u - sat_xy[:, 0]) ** 2 + (v - sat_xy[:, 1]) ** 2 < tau2
    masks &= fitted[:, None]
    return g, masks, masks.sum(axis=1).tolist()


# --- trajectory straightness ------------------------------------------------

def _scatter(xy: np.ndarray) -> list[tuple[float, float, float]]:
    """Centered second moments (sxx, sxy, syy) of each (n, 2) array of an
    (m, n, 2) stack; a (1, n) @ (n, 1) product is `np.dot`'s, bit for bit."""
    d = xy - xy.mean(axis=1, keepdims=True)
    x, y = d[..., :1], d[..., 1:]
    return list(zip(*[(a.swapaxes(1, 2) @ b)[:, 0, 0].tolist()
                      for a, b in ((x, x), (x, y), (y, y))]))


def _min_scatter_eig(sxx: float, sxy: float, syy: float) -> float:
    tr = sxx + syy
    disc = math.sqrt((sxx - syy) ** 2 + 4.0 * sxy * sxy)
    return 0.5 * (tr - disc)


# --- evolution-strategy minimizer -------------------------------------------

@dataclass
class EsResult:
    x: np.ndarray
    fx: float
    # best objective value after each generation, index 0 = initial parent
    history: list[float]
    generations: int


def es_minimize(objective: Callable[[np.ndarray], float | np.ndarray],
                x0: Sequence[float],
                rng: np.random.Generator) -> EsResult:
    """Elitist (1+lambda) evolution strategy with multiplicative step control.

    Each generation draws _ES_LAMBDA isotropic Gaussian offspring around
    the parent and scores them in one call (`objective` maps a point to a
    score and a (_ES_LAMBDA, d) stack to _ES_LAMBDA scores); the parent is
    replaced only by a strictly better offspring, so the best objective
    value never increases.  The step size starts at _ES_SIGMA0, grows by
    1.5 on success and shrinks by 0.82 on failure.  Terminates after
    _ES_MAX_GENERATIONS, or earlier once the relative improvement has
    stayed below _ES_REL_TOL for _ES_PATIENCE consecutive generations.
    """
    parent = np.asarray(x0, dtype=np.float64)
    f_parent = float(objective(parent))
    sigma = _ES_SIGMA0
    history = [f_parent]
    stalled = 0
    gen = 0
    for gen in range(1, _ES_MAX_GENERATIONS + 1):
        offspring = parent + sigma * rng.standard_normal(
            (_ES_LAMBDA, parent.size))
        scores = np.reshape(objective(offspring), _ES_LAMBDA)
        j = int(np.argmin(scores))
        if scores[j] < f_parent:
            improvement = (f_parent - scores[j]) / max(abs(f_parent), 1e-300)
            parent = offspring[j].copy()
            f_parent = float(scores[j])
            sigma *= 1.5
            stalled = stalled + 1 if improvement < _ES_REL_TOL else 0
        else:
            sigma *= 0.82
            stalled += 1
        history.append(f_parent)
        if stalled >= _ES_PATIENCE:
            break
    return EsResult(x=parent, fx=f_parent, history=history, generations=gen)


def straightness_objective(trajectories: Sequence[np.ndarray],
                           image_size: tuple[int, int]
                           ) -> Callable[[np.ndarray], float]:
    """Score (k1, k2) by how straight the undistorted trajectories are.

    For each trajectory the score contribution is the minimum over lines of
    the squared point-line residual sum, i.e. the smallest eigenvalue of
    the undistorted coordinate scatter; contributions are summed.  A (2,)
    k gets one float, an (m, 2) stack the m floats its rows get.
    """
    stacked = np.vstack(trajectories)
    bounds = np.cumsum([0] + [len(t) for t in trajectories])

    def objective(k: np.ndarray) -> float | np.ndarray:
        ks = np.reshape(k, (-1, 2))
        for k1, k2 in ks.tolist():  # each row must be a lens model
            params = DistortionParams.centered((k1, k2), image_size)
        und = undistort_xy(stacked, params, ks=ks)
        total = np.zeros(len(ks))
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            total += [_min_scatter_eig(*m) for m in _scatter(und[:, lo:hi])]
        return total if np.ndim(k) > 1 else float(total[0])

    return objective


def fit_distortion_es(trajectories: Sequence[Sequence[PixelPoint]],
                      image_size: tuple[int, int],
                      seed: int = 0) -> DistortionParams:
    """Estimate radial-distortion coefficients from vehicle trajectories.

    Vehicles travel in straight lines in the undistorted image, so the
    coefficient pair that lets all trajectories be straightened at once is
    the lens model.  Starts from (0, 0); the returned center is the image
    center.
    """
    arrays = [np.array([[p.x, p.y] for p in t], dtype=np.float64)
              for t in trajectories if len(t) >= 5]
    if not arrays:
        raise InputError("need at least one trajectory with >= 5 points")
    objective = straightness_objective(arrays, image_size)
    rng = np.random.default_rng(seed)
    # points far outside the image overflow r**2; their nan or inf score
    # never wins a generation, and a non-finite start is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        result = es_minimize(objective, (0.0, 0.0), rng)
    if not math.isfinite(result.fx):
        raise InputError(
            "trajectory points lie too far out to score, even without "
            "distortion")
    return DistortionParams.centered((float(result.x[0]), float(result.x[1])),
                                     image_size)
