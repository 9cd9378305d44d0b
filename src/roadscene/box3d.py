"""2D detections to 3D cuboids via ground-plane footprints.

A tracked box only fixes where an object touches the ground, so the
occupied space is reconstructed the other way around: a real-world size
prior for the class gives a rectangle on the ground plane, the rectangle
is rotated to the heading, its corners are carried back to the camera
image, and the box is extruded upward by a fraction of the detected
pixel height.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .config import HEIGHT_COEFFICIENT, PEDESTRIAN, DimensionPrior
from .errors import MissingPrior
from .geometry import (BEV, GroundScale, Homography, PixelPoint, apply,
                       apply_many)


@dataclass(frozen=True)
class Cuboid:
    """8 perspective-image corners, floor 4 then roof 4, i+4 above i."""

    corners: tuple[PixelPoint, ...]

    def __post_init__(self):
        if len(self.corners) != 8:
            raise ValueError(f"cuboid needs 8 corners, got "
                             f"{len(self.corners)}")
        for floor_c, roof_c in zip(self.corners[:4], self.corners[4:]):
            if roof_c.y > floor_c.y:
                raise ValueError("roof corners must not lie below the floor")


# signs of (half length, half width) per corner: front-left, then
# counter-clockwise
_CORNER_SIGNS = np.array([(1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)])


def _footprints_xy(centers: np.ndarray, class_names: Sequence[str],
                   headings_deg: Sequence[float],
                   priors: Mapping[str, DimensionPrior],
                   scale: GroundScale) -> np.ndarray:
    """(n, 4, 2) BEV footprint corners, one object per row of (n, 2)
    centers."""
    half = []
    for name in class_names:
        prior = priors.get(name)
        if prior is None:
            raise MissingPrior(f"no dimension prior for class '{name}'")
        half.append((scale.to_pixels(prior.length_m) / 2.0,
                     scale.to_pixels(prior.width_m) / 2.0))
    half = np.array(half).reshape(-1, 2)
    theta = [math.radians(h) for h in headings_deg]
    ux = np.array([math.cos(t) for t in theta])[:, None]
    uy = np.array([math.sin(t) for t in theta])[:, None]
    a = half[:, :1] * _CORNER_SIGNS[:, 0]
    b = half[:, 1:] * _CORNER_SIGNS[:, 1]
    # the normal to the heading is (-uy, ux)
    x = centers[:, :1] + a * ux + b * -uy
    y = centers[:, 1:] + a * uy + b * ux
    return np.stack([x, y], axis=-1)


def _roof_height(bbox_2d: Sequence[float], class_name: str,
                 beta: float) -> float:
    h_b = float(bbox_2d[3])
    return h_b if class_name == PEDESTRIAN else beta * h_b


def make_footprint(center_bev: PixelPoint, class_name: str,
                   heading_deg: float,
                   priors: Mapping[str, DimensionPrior],
                   scale: GroundScale) -> tuple[PixelPoint, ...]:
    """Ground rectangle for a class at a position, aligned to the heading.

    Returns 4 BEV corners counter-clockwise starting front-left, where
    "front" points along the heading and "left" is its positive normal.
    """
    if center_bev.frame != BEV:
        raise ValueError(f"footprint center must be a bev point, got "
                         f"'{center_bev.frame}'")
    corners = _footprints_xy(np.array([[center_bev.x, center_bev.y]]),
                             [class_name], [heading_deg], priors, scale)[0]
    return tuple(PixelPoint.bev(x, y) for x, y in corners.tolist())


def lift_to_3d(footprint_bev: Sequence[PixelPoint], h_inv: Homography,
               bbox_2d: Sequence[float], class_name: str,
               beta: float = HEIGHT_COEFFICIENT) -> Cuboid:
    """Extrude a ground footprint into a perspective-image cuboid.

    The floor corners are the footprint mapped back to the camera image;
    the roof sits a pure vertical shift above them: the full detected box
    height for pedestrians, beta times it for everything else (image y
    grows downward, so "above" is negative y).
    """
    if len(footprint_bev) != 4:
        raise ValueError(f"footprint needs 4 corners, got "
                         f"{len(footprint_bev)}")
    floor = tuple(apply(h_inv, c) for c in footprint_bev)
    h_3d = _roof_height(bbox_2d, class_name, beta)
    roof = tuple(PixelPoint(c.x, c.y - h_3d, c.frame) for c in floor)
    return Cuboid(corners=floor + roof)


def lift_cuboids(centers_bev: Sequence[Sequence[float]],
                 class_names: Sequence[str], headings_deg: Sequence[float],
                 bboxes: Sequence[Sequence[float]], h_inv: Homography,
                 priors: Mapping[str, DimensionPrior], scale: GroundScale,
                 beta: float = HEIGHT_COEFFICIENT) -> np.ndarray:
    """`make_footprint` then `lift_to_3d` for n objects as one array pass.

    Takes one BEV (x, y) center, class, heading and 2D box per object and
    returns (n, 8, 2) perspective corners in `Cuboid` order.  The
    arithmetic is the scalar functions', step for step, so every corner
    equals theirs bit for bit; a corner whose image is not finite is +inf
    here, where `lift_to_3d` raises DegeneratePoint.
    """
    centers = np.asarray(centers_bev, dtype=np.float64).reshape(-1, 2)
    ground = _footprints_xy(centers, class_names, headings_deg, priors, scale)
    floor = apply_many(h_inv, ground.reshape(-1, 2)).reshape(ground.shape)
    h_3d = np.array([_roof_height(b, name, beta)
                     for b, name in zip(bboxes, class_names)])
    roof = floor.copy()
    roof[..., 1] -= h_3d[:, None]
    return np.concatenate([floor, roof], axis=1)
