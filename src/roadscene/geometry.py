"""Planar projective geometry between camera pixels and bird's-eye pixels.

Coordinate conventions used throughout the package:

  * "perspective" frame: pixel coordinates in the roadside camera image,
    x right, y down, origin at the top-left corner.
  * "bev" frame: pixel coordinates in the bird's-eye (satellite-aligned)
    image, same axis conventions.
  * "world" frame: metric ground-plane coordinates (X, Y) in meters with
    Z up; only the Z = 0 plane is ever mapped.

A `Homography` carries its source and target frame tags and refuses to be
applied to a point from the wrong frame, which catches most unit mix-ups
at the call site instead of three modules later.

Every point map runs `_project`'s elementwise arithmetic, so `apply_many`
gives each row exactly what `apply` gives that point.  A point whose image
is not finite (a zero denominator, or an overflow) is +inf in
`apply_many` and raises DegeneratePoint in `apply`.

Homography matrices are canonical: Frobenius norm 1 and the last element
non-negative (if that element vanishes, the first non-zero entry in
row-major order is made positive).  Canonical form makes equality checks
and regression tests meaningful despite the projective scale ambiguity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import check_fields
from .errors import (DegenerateConfiguration, DegeneratePoint, InputError,
                     SingularMatrix)

PERSPECTIVE = "perspective"
BEV = "bev"
WORLD = "world"

# Below this size an element is treated as exactly zero when canonicalizing;
# relative to the largest singular value, a smallest one at or below it
# makes a matrix singular.
_EPS = 1e-12

@dataclass(frozen=True)
class PixelPoint:
    """A 2-D point tagged with the frame it lives in."""

    x: float
    y: float
    frame: str = PERSPECTIVE

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("point coordinates must be finite")

    @staticmethod
    def perspective(x: float, y: float) -> "PixelPoint":
        return PixelPoint(float(x), float(y), PERSPECTIVE)

    @staticmethod
    def bev(x: float, y: float) -> "PixelPoint":
        return PixelPoint(float(x), float(y), BEV)


def canonicalize_matrix(g: np.ndarray) -> np.ndarray:
    """Scale a 3x3 matrix to Frobenius norm 1 with a deterministic sign.

    The sign rule: make g[2, 2] positive; when |g[2, 2]| is below 1e-12,
    make the first non-zero element in row-major order positive instead.
    """
    g = np.asarray(g, dtype=np.float64)
    if g.shape != (3, 3):
        raise SingularMatrix(f"expected a 3x3 matrix, got shape {g.shape}")
    if not np.all(np.isfinite(g)):
        raise SingularMatrix("matrix has non-finite entries")
    (g,), (norm,) = _canonical_stack(g[None])
    if norm < _EPS:
        raise SingularMatrix("matrix is numerically zero")
    if not math.isfinite(norm):
        raise SingularMatrix("matrix norm overflows")
    return g


@dataclass(frozen=True, eq=False)
class Homography:
    """An invertible 3x3 planar projective map between two tagged frames.

    The stored matrix is always canonical (see `canonicalize_matrix`) and
    read-only.  Construct directly from any non-singular 3x3 array; the
    constructor normalizes it.
    """

    matrix: np.ndarray
    source: str = PERSPECTIVE
    target: str = BEV

    def __post_init__(self):
        g = canonicalize_matrix(self.matrix)
        if _singular_stack(g[None])[0]:
            raise SingularMatrix("homography matrix is singular")
        g.setflags(write=False)
        object.__setattr__(self, "matrix", g)

    def __repr__(self):
        return (f"Homography({self.source}->{self.target}, "
                f"matrix={np.array2string(self.matrix, precision=6)})")


def apply(h: Homography, p: PixelPoint) -> PixelPoint:
    """Map one point through a homography, checking frame tags.

    Raises DegeneratePoint when the point's image is not finite: its
    homogeneous denominator is 0 or the image overflows.
    """
    if p.frame != h.source:
        raise InputError(
            f"point is in frame '{p.frame}' but homography maps from "
            f"'{h.source}'")
    (u,), (v,) = _project(np.array([[p.x, p.y]]), h.matrix)
    if u == np.inf:
        raise DegeneratePoint(f"point ({p.x}, {p.y}) maps to infinity")
    return PixelPoint(float(u), float(v), h.target)


def apply_many(h: Homography, xy: np.ndarray) -> np.ndarray:
    """`apply` for an (n, 2) coordinate array, without frame tags.

    Each row equals `apply` of that point bit for bit, however many rows
    share the call.  A row whose image is not finite comes back as +inf
    rather than raising, so bulk consumers (consensus voting, inverse
    warping) can mask it out with a bounds or distance check.
    """
    u, v = _project(np.asarray(xy, dtype=np.float64), h.matrix)
    return np.stack([u, v], axis=1)


def _project(xy: np.ndarray, g: np.ndarray):
    """(n, 2) points through a 3x3 matrix or a (b, 3, 3) stack: returns u
    and v, each (n,) or (b, n).

    The arithmetic is elementwise, `(g00 x + g01 y + g02) / den` with
    `den = g20 x + g21 y + g22`, so a point's image does not depend on the
    other points or matrices in the call; a matrix product would round
    differently with the number of rows.  A point whose image is not
    finite maps to (+inf, +inf), and no floating-point error is reported.
    """
    x, y = xy[:, 0], xy[:, 1]
    # each entry, of each matrix of a stack, with a trailing axis that
    # broadcasts it over the points
    (g00, g01, g02), (g10, g11, g12), (g20, g21, g22) = np.moveaxis(
        g[..., None], (-3, -2), (0, 1))
    with np.errstate(all="ignore"):
        den = g20 * x + g21 * y + g22
        u = (g00 * x + g01 * y + g02) / den
        v = (g10 * x + g11 * y + g12) / den
    bad = ~(np.isfinite(u) & np.isfinite(v))
    u[bad] = v[bad] = np.inf
    return u, v


def invert(h: Homography) -> Homography:
    """Inverse map with the frame tags swapped."""
    try:
        inv = np.linalg.inv(h.matrix)
    except np.linalg.LinAlgError:
        raise SingularMatrix("homography matrix is singular") from None
    return Homography(inv, source=h.target, target=h.source)


# --- direct linear transform ------------------------------------------------

def estimate_dlt_xy(src_xy: np.ndarray, dst_xy: np.ndarray) -> np.ndarray:
    """Direct linear transform on coordinate arrays; returns a canonical 3x3.

    Both inputs are (n, 2) with n >= 4.  Points are normalized (centroid to
    origin, mean distance sqrt(2)) before building the 2n x 9 design matrix,
    then the solution is the right singular vector of the smallest singular
    value, denormalized and canonicalized.  This is `_dlt_stack` on a
    stack of one.

    Raises DegenerateConfiguration when the points of either side coincide
    or lie too far apart to normalize, when the design matrix overflows or
    has rank < 8, which is what collinear or repeated samples produce, or
    when the estimated matrix is singular; SingularMatrix when it does not
    scale to norm 1.  Neither warns.
    """
    src_xy = np.asarray(src_xy, dtype=np.float64)
    dst_xy = np.asarray(dst_xy, dtype=np.float64)
    n = src_xy.shape[0]
    if n < 4 or dst_xy.shape[0] != n:
        raise InputError(f"need at least 4 pairs, got {n}")
    (g,), (fitted,), (degenerate,) = _dlt_stack(src_xy[None], dst_xy[None])
    if degenerate:
        raise DegenerateConfiguration(
            "sample points coincide, are collinear or give a singular matrix")
    if not fitted:
        raise SingularMatrix("estimated matrix does not scale to norm 1")
    return g


@np.errstate(all="ignore")
def _dlt_stack(src_xy: np.ndarray, dst_xy: np.ndarray):
    """The direct linear transform over (b, n, 2) stacks: one stacked SVD
    solves all b fits.  Returns the canonical matrices, which fits stand,
    and which are degenerate; a fit that is neither does not scale to
    norm 1.  On finite input nothing warns or raises: a fit whose
    normalization or design matrix overflows is degenerate."""
    b, n = src_xy.shape[:2]
    t_src, src_scaled = _similarity_stack(src_xy)
    t_dst, dst_scaled = _similarity_stack(dst_xy)
    ones = np.ones((b, n, 1))
    sn = np.concatenate([src_xy, ones], axis=2) @ t_src.transpose(0, 2, 1)
    dn = np.concatenate([dst_xy, ones], axis=2) @ t_dst.transpose(0, 2, 1)

    # per pair the rows (p, 0, -u p) and (0, p, -v p), where p = (x, y, 1)
    # and (u, v, 1) are its normalized source and target points
    a = np.zeros((b, n, 2, 9))
    a[:, :, 0, 0:3] = a[:, :, 1, 3:6] = sn
    a[:, :, 0, 6:9] = -dn[..., 0:1] * sn
    a[:, :, 1, 6:9] = -dn[..., 1:2] * sn
    a = a.reshape(b, 2 * n, 9)
    # a fit whose points coincide or whose numbers overflow is solved on
    # zeros, which the rank test refuses: the SVD and the inverse below
    # then never raise
    solvable = src_scaled & dst_scaled & np.isfinite(a).all(axis=(1, 2))
    a[~solvable] = 0.0
    t_src[~solvable] = t_dst[~solvable] = np.eye(3)

    # only a 8 x 9 design matrix needs the full VT to reach the null vector
    _, s, vt = np.linalg.svd(a, full_matrices=2 * n < 9)
    ranked = solvable & ~(s[:, 7] <= _EPS * np.maximum(1.0, s[:, 0]))
    g_norm = vt[:, -1].reshape(b, 3, 3)
    g = np.linalg.inv(t_dst) @ g_norm @ t_src
    g, norm = _canonical_stack(g)
    canonical = np.isfinite(norm) & (norm >= _EPS)
    singular = _singular_stack(g)
    # a rank below 8 is refused first, a matrix that does not canonicalize
    # next, and a singular one last
    degenerate = ~ranked | (canonical & singular)
    return g, ranked & canonical & ~singular, degenerate


def _similarity_stack(xy: np.ndarray):
    """Per stack of a (b, n, 2) array, the similarity moving the centroid
    to the origin and the mean radius to sqrt(2); returns them and which
    stacks scale: points apart, at a finite mean radius (the others get
    scale 1)."""
    centroid = xy.mean(axis=1)
    d = xy - centroid[:, None, :]
    mean_dist = np.mean(np.sqrt(np.add.reduce(d * d, axis=2)), axis=1)
    scaled = (mean_dist >= _EPS) & np.isfinite(mean_dist)
    s = np.divide(math.sqrt(2.0), mean_dist,
                  out=np.ones_like(mean_dist), where=scaled)
    t = np.zeros((len(xy), 3, 3))
    t[:, 0, 0] = t[:, 1, 1] = s
    t[:, 0, 2] = -s * centroid[:, 0]
    t[:, 1, 2] = -s * centroid[:, 1]
    t[:, 2, 2] = 1.0
    return t, scaled


def _canonical_stack(g: np.ndarray):
    """`canonicalize_matrix` over a (b, 3, 3) stack; returns the stack and
    the Frobenius norms.  A matrix whose norm is not finite or below _EPS
    comes back as it was."""
    flat = g.reshape(-1, 1, 9)
    # the Frobenius norm as a 1x9 @ 9x1 dot product; an inf norm is refused
    with np.errstate(over="ignore"):
        norm = np.sqrt(np.matmul(flat, flat.transpose(0, 2, 1))[:, 0, 0])
    canonical = np.isfinite(norm) & (norm >= _EPS)
    g = g / np.where(canonical, norm, 1.0)[:, None, None]
    pivot = g[:, 2, 2].copy()
    for k in np.flatnonzero(canonical & ~(np.abs(pivot) > _EPS)):
        row = g[k].ravel()
        pivot[k] = row[np.flatnonzero(np.abs(row) > _EPS)[0]]
    return np.where((pivot < 0)[:, None, None], -g, g), norm


def _singular_stack(g: np.ndarray) -> np.ndarray:
    """Which matrices of a (b, 3, 3) stack are singular at working
    precision: their smallest singular value is at most _EPS times their
    largest, or they hold a non-finite entry.  The rule is scale-free, so a
    matrix and every nonzero multiple of it agree."""
    finite = np.isfinite(g).all(axis=(1, 2))
    s = np.linalg.svd(np.where(finite[:, None, None], g, 0.0),
                      compute_uv=False)
    return s[:, 2] <= _EPS * s[:, 0]


# --- camera model -----------------------------------------------------------

@dataclass(frozen=True)
class CameraModel:
    """Pinhole camera over a flat road.

    f is the focal length in distance units, kx/ky the pixel densities
    (px per unit) so that f*kx and f*ky are the focal lengths in pixels.
    shear is the axis skew term, (cx, cy) the principal point in pixels.
    theta_c is the downward pitch in degrees from horizontal: 90 looks
    straight down.  h_c is the mounting height in meters.
    """

    f: float
    kx: float
    ky: float
    shear: float
    cx: float
    cy: float
    theta_c: float
    h_c: float

    def __post_init__(self):
        check_fields(
            self, (("f", "kx", "ky", "h_c"), lambda v: 0 < v < math.inf,
                   "finite and positive"),
            (("shear", "cx", "cy"), math.isfinite, "finite"),
            (("theta_c",), lambda v: 0 < v <= 90, "in (0, 90] degrees"),
            error=InputError)


def intrinsic_matrix(cam: CameraModel) -> np.ndarray:
    """3x4 intrinsic projection [K | 0]."""
    return np.array([
        [cam.f * cam.kx, cam.shear, cam.cx, 0.0],
        [0.0, cam.f * cam.ky, cam.cy, 0.0],
        [0.0, 0.0, 1.0, 0.0],
    ])


def rotation_matrix(cam: CameraModel) -> np.ndarray:
    """4x4 pitch rotation taking world axes to camera axes.

    World is X right, Y away from the camera along the road, Z up; camera
    is x right, y down the image, z out along the optical axis.  A pitch
    of 90 degrees maps Y to -y (image up) with the ground at constant
    depth, i.e. a straight-down view.
    """
    th = math.radians(cam.theta_c)
    s, c = math.sin(th), math.cos(th)
    return np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, -s, -c, 0.0],
        [0.0, c, -s, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])


def translation_matrix(cam: CameraModel) -> np.ndarray:
    """4x4 translation placing the camera h_c / sin(theta_c) along Z."""
    th = math.radians(cam.theta_c)
    t = np.eye(4)
    t[2, 3] = -cam.h_c / math.sin(th)
    return t


def projection_matrix(cam: CameraModel) -> np.ndarray:
    """Full 3x4 world-to-pixel projection K R T."""
    return intrinsic_matrix(cam) @ rotation_matrix(cam) @ translation_matrix(cam)


def compose_from_camera(cam: CameraModel) -> Homography:
    """Ground-plane (Z = 0) reduction of the camera projection.

    Dropping the Z column of the 3x4 projection leaves a 3x3 map from
    homogeneous ground coordinates (X, Y, 1) in meters to image pixels.
    """
    p = projection_matrix(cam)
    g = p[:, [0, 1, 3]]
    try:
        return Homography(g, source=WORLD, target=PERSPECTIVE)
    except SingularMatrix:
        raise DegenerateConfiguration(
            "camera projection collapses the ground plane") from None


@dataclass(frozen=True)
class GroundScale:
    """Meters per bird's-eye pixel."""

    iota: float

    def __post_init__(self):
        check_fields(self, (("iota",), lambda v: 0 < v < math.inf,
                            "finite and positive"), error=InputError)

    def to_meters(self, pixels: float) -> float:
        return pixels * self.iota

    def to_pixels(self, meters: float) -> float:
        return meters / self.iota
