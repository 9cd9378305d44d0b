"""Road-region segmentation and boundary geometry in the bird's-eye frame.

The road surface is grown from seed pixels left behind by vehicle
trajectories: an adjacent pixel joins when its intensity differs from the
pixel that reached it by less than tau_alpha, so the result is the closure
of the seeds in the graph whose edges connect 8-neighbors with similar
intensity.  The grown mask is cleaned by morphological closing, its border
is traced into ordered chains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import SrgParams
from .errors import InputError
from .geometry import BEV, PixelPoint
from .imaging import ImageBuffer

# clockwise ring of 8-neighbor offsets (dx, dy), y pointing down
_RING = ((0, -1), (1, -1), (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1))
_RING_INDEX = {off: i for i, off in enumerate(_RING)}


@dataclass(frozen=True, eq=False)
class RoadMask:
    """Binary road-surface grid aligned with the BEV image."""

    pixels: np.ndarray  # bool (h, w)

    def __post_init__(self):
        arr = np.asarray(self.pixels).astype(bool)
        arr.setflags(write=False)
        object.__setattr__(self, "pixels", arr)

    def to_image(self) -> ImageBuffer:
        return ImageBuffer(np.where(self.pixels, 255, 0).astype(np.uint8))

    def __eq__(self, other):
        return (isinstance(other, RoadMask)
                and np.array_equal(self.pixels, other.pixels))


@dataclass(frozen=True)
class BoundarySet:
    """Ordered 8-connected contour chains of (x, y) boundary pixels."""

    chains: tuple[tuple[tuple[int, int], ...], ...]

    def points(self) -> np.ndarray:
        """All chain pixels as an (n, 2) int array, chain order preserved."""
        flat = [p for chain in self.chains for p in chain]
        return np.array(flat, dtype=np.int64).reshape(-1, 2)


def _seed_cells(image: ImageBuffer,
                seeds: Sequence[PixelPoint]) -> list[tuple[int, int]]:
    if not seeds:
        raise InputError("need at least one seed")
    h, w = image.pixels.shape
    cells = []
    for p in seeds:
        if p.frame != BEV:
            raise ValueError(f"seeds must be bev points, got '{p.frame}'")
        x = int(np.floor(p.x + 0.5))
        y = int(np.floor(p.y + 0.5))
        if not (0 <= x < w and 0 <= y < h):
            raise ValueError(f"seed ({p.x}, {p.y}) outside {w}x{h} image")
        cells.append((x, y))
    return cells


def srg_segment(image: ImageBuffer, seeds: Sequence[PixelPoint],
                params: SrgParams = SrgParams()) -> RoadMask:
    """Grow road regions from seed pixels by intensity similarity.

    A frontier walk (Adams & Bischof's seeded region growing): the frontier
    holds the flat indices of the pixels that joined last, and each wave
    tests only their 8 neighbors.  A neighbor joins when |intensity
    difference| < tau_alpha against the pixel that reached it, and is
    marked visited as it joins, so it enters the frontier once.  Bounds are
    checked per axis, so no step wraps across a row end.  The work follows
    the size of the grown region, not waves x image.  Equivalent to flood
    fill over the similarity graph, so the result does not depend on seed
    order.
    """
    if image.channels != 1:
        raise ValueError("segmentation expects a 1-channel image")
    h, w = image.pixels.shape
    intensity = image.pixels.astype(np.int16).ravel()
    visited = np.zeros(h * w, dtype=bool)
    for x, y in _seed_cells(image, seeds):
        visited[y * w + x] = True
    frontier = np.flatnonzero(visited)
    while frontier.size:
        fy, fx = np.divmod(frontier, w)
        # which frontier pixels may step by -1, 0 or +1 along each axis
        along_x = {-1: fx > 0, 0: True, 1: fx < w - 1}
        along_y = {-1: fy > 0, 0: True, 1: fy < h - 1}
        grown = []
        for dx, dy in _RING:
            src = frontier[along_x[dx] & along_y[dy]]
            dst = src + (dy * w + dx)
            joins = ~visited[dst] & (
                np.abs(intensity[dst] - intensity[src]) < params.tau_alpha)
            dst = dst[joins]
            visited[dst] = True
            grown.append(dst)
        frontier = np.concatenate(grown)
    return RoadMask(visited.reshape(h, w))


def _over3x3(road: np.ndarray, op) -> np.ndarray:
    """`op` (`|` or `&`) of each pixel's 3x3 neighborhood, off-image pixels
    False: a pass of shifted slices along rows, then one along columns."""
    h, w = road.shape
    padded = np.zeros((h + 2, w + 2), dtype=bool)
    padded[1:-1, 1:-1] = road
    rows = op(op(padded[:, :-2], padded[:, 1:-1]), padded[:, 2:])
    return op(op(rows[:-2], rows[1:-1]), rows[2:])


def refine_mask(mask: RoadMask) -> RoadMask:
    """Morphological closing: fill sub-kernel holes and gaps.  Dilation is
    any pixel of the 3x3 window, erosion all of them."""
    return RoadMask(_over3x3(_over3x3(mask.pixels, np.bitwise_or),
                             np.bitwise_and))


def _boundary_pixels(road: np.ndarray) -> np.ndarray:
    return road & ~_over3x3(road, np.bitwise_and)


def _next_contour_step(road: np.ndarray, cur: tuple[int, int],
                       back: tuple[int, int]):
    """Clockwise Moore scan from the backtrack; returns (next, new_back)."""
    h, w = road.shape
    cx, cy = cur
    start = _RING_INDEX[(back[0] - cx, back[1] - cy)]
    last_bg = back
    for i in range(1, 9):
        dx, dy = _RING[(start + i) % 8]
        nx, ny = cx + dx, cy + dy
        if 0 <= nx < w and 0 <= ny < h and road[ny, nx]:
            return (nx, ny), last_bg
        last_bg = (nx, ny)
    return None, None


def _trace_from(road: np.ndarray, start: tuple[int, int],
                back: tuple[int, int]) -> list[tuple[int, int]]:
    """Walk the contour until the (pixel, backtrack) state repeats.

    The walk is deterministic, so a repeated state means the contour has
    closed; this subsumes the usual stop-on-first-move-repeated criterion
    and also terminates when the start pixel lies on a spur feeding into
    the cycle rather than on the cycle itself.
    """
    chain = [start]
    seen = {(start, back)}
    cur, cur_back = start, back
    while True:
        nxt, new_back = _next_contour_step(road, cur, cur_back)
        if nxt is None:
            break  # isolated pixel
        if (nxt, new_back) in seen:
            break
        seen.add((nxt, new_back))
        chain.append(nxt)
        cur, cur_back = nxt, new_back
    if len(chain) > 1 and chain[-1] == chain[0]:
        # re-entering the start with a different backtrack appends it a
        # second time before the repeat is seen; keep each position once
        chain.pop()
    return chain


def extract_boundary(mask: RoadMask) -> BoundarySet:
    """Trace every region border (outer and hole) into closed chains.

    Standard Moore-neighbor tracing: from each untraced boundary pixel,
    walk clockwise around the road/background interface until the walk
    state repeats.  Every chain pixel is a road pixel with at least one
    non-road 8-neighbor (image border counts as non-road), and every such
    pixel is on a chain or 8-adjacent to one; concave corners that the
    clockwise walk cuts across are the only pixels covered by adjacency.
    """
    road = mask.pixels
    if not road.any():
        raise InputError("mask has no road pixels")
    boundary = _boundary_pixels(road)
    traced = np.zeros_like(boundary)
    chains = []
    ys, xs = np.nonzero(boundary)
    for y, x in zip(ys, xs):
        if traced[y, x]:
            continue
        # deterministic backtrack: first background neighbor clockwise
        back = None
        for dx, dy in _RING:
            nx, ny = x + dx, y + dy
            if not (0 <= nx < road.shape[1] and 0 <= ny < road.shape[0]) \
                    or not road[ny, nx]:
                back = (nx, ny)
                break
        chain = _trace_from(road, (x, y), back)
        fresh = sum(1 for cx, cy in chain if not traced[cy, cx])
        for cx, cy in chain:
            traced[cy, cx] = True
        # a concave corner cut by an earlier trace re-walks that contour;
        # it is already within one step of the emitted chain, so skip it
        if len(chain) == 1 or fresh > 1:
            chains.append(tuple(chain))
    return BoundarySet(chains=tuple(chains))

