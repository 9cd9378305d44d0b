"""Long-horizon traffic analytics over tracked BEV positions.

Each frame's tracks arrive as columns (`FrameTracks`).  They are classified
into behavioural sets (parked, speeding, collision-risk pedestrians,
congested vehicles), each a threshold on a speed or on a BEV distance, and
deposited into per-kind heat maps.  A heat map cell accumulates unit-mass
3x3 kernel deposits, so its total mass always equals the number of recorded
events; that identity is kept exact by backing the map with integers in
units of 1/144 (the smallest cell weight after renormalizing clipped border
kernels), which also makes sharded accumulation merge associatively
without float drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, NamedTuple

import numpy as np

from .config import AnalyticsConfig
from .errors import EmptyHeatMap, MissingCalibration, ShapeMismatch
# the file format's names, which a merge reads without numpy
from .records import _BUMP_UNITS, HEAT_KINDS, FrameStats

if TYPE_CHECKING:  # annotations only: functions import what they run
    from .geometry import GroundScale, Homography, PixelPoint
    from .imaging import ImageBuffer
    from .roadmodel import BoundarySet

# whole-map work runs over row bands of about this many cells, so that its
# temporaries stay small however large the map or the camera view is
_BAND_CELLS = 32768
# binomial 3x3 kernel, mass 16 before renormalization
_KERNEL = np.array([[1, 2, 1], [2, 4, 2], [1, 2, 1]], dtype=np.int64)

GRADIENT_ANCHORS = (
    (0.00, (0, 0, 255)),
    (0.25, (0, 255, 255)),
    (0.50, (0, 255, 0)),
    (0.75, (255, 255, 0)),
    (1.00, (255, 0, 0)),
)


class FrameTracks(NamedTuple):
    """One frame's tracks as columns: unique ids (int64), pedestrian flags,
    (n, 2) BEV positions and speeds in mph, which are >= 0."""

    ids: np.ndarray
    pedestrian: np.ndarray
    xy: np.ndarray
    speed_mph: np.ndarray


@dataclass(frozen=True, eq=False)
class StateSets:
    """One frame's states as bool masks over the rows of its `FrameTracks`,
    whose ids are `ids`; parked vehicles never count as congested (they
    are excluded from all moving-vehicle analytics)."""

    frame: int
    ids: np.ndarray
    parking: np.ndarray
    speeding: np.ndarray
    collision_risk: np.ndarray
    congestion: np.ndarray

    def __post_init__(self):
        if (self.parking & self.congestion).any():
            raise ValueError("parking and congestion masks must be disjoint")


def _bands(height: int, width: int) -> list[slice]:
    """Row slices of about `_BAND_CELLS` cells, at least one row each,
    that cover a (height, width) grid in order."""
    step = max(1, _BAND_CELLS // max(width, 1))
    return [slice(r, min(r + step, height)) for r in range(0, height, step)]


def _checked_kind(kind: str, shape: tuple[int, int]) -> str:
    """`kind`, once it and the grid `shape` are known to be valid."""
    if kind not in HEAT_KINDS:
        raise ValueError(f"unknown heat map kind '{kind}'")
    h, w = shape
    if h <= 0 or w <= 0:
        raise ValueError(f"heat map shape must be positive, got {shape}")
    return kind


class HeatMap:
    """Accumulated unit-mass deposits on a BEV-sized grid: `units` is the
    int64 grid, 144 units per event.  Saved maps are summed by
    `records.merge_heatmaps`, which the `merge` command runs."""

    def __init__(self, shape: tuple[int, int], kind: str):
        self.kind = _checked_kind(kind, shape)
        self.events = 0
        self.units = np.zeros(shape, dtype=np.int64)

    @classmethod
    def from_units(cls, units: np.ndarray, events: int,
                   kind: str) -> "HeatMap":
        """Rebuild a map from serialized integer units.  An int64 array is
        taken over, not copied: the caller hands in a fresh one."""
        arr = np.asarray(units, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError(f"units must be 2-d, got shape {arr.shape}")
        if events < 0:
            raise ValueError(f"events must be >= 0, got {events}")
        heat = cls.__new__(cls)  # no zero grid of its own to replace
        heat.kind = _checked_kind(kind, arr.shape)
        heat.events = int(events)
        heat.units = arr
        return heat

    @property
    def shape(self) -> tuple[int, int]:
        return self.units.shape

    @property
    def rows(self):
        """The grid row by row as `records.HeatRows` holds it: None for an
        all-zero row, else its nonzero (columns, values)."""
        units = self.units
        for row, nonzero in zip(units, units.any(axis=1).tolist()):
            if not nonzero:
                yield None
                continue
            cols = np.flatnonzero(row)
            yield cols.tolist(), row[cols].tolist()


def bump(heat: HeatMap, p: PixelPoint) -> HeatMap:
    """Deposit one unit of mass around a BEV position.

    The 3x3 kernel is clipped at the borders and renormalized so each
    event adds exactly 1.0 regardless of position; out-of-bounds centers
    are clamped to the nearest cell.
    """
    from .geometry import BEV
    if p.frame != BEV:
        raise ValueError(f"heat positions must be bev points, got "
                         f"'{p.frame}'")
    h, w = heat.shape
    cx = min(max(int(math.floor(p.x + 0.5)), 0), w - 1)
    cy = min(max(int(math.floor(p.y + 0.5)), 0), h - 1)
    y0, y1 = max(cy - 1, 0), min(cy + 2, h)
    x0, x1 = max(cx - 1, 0), min(cx + 2, w)
    patch = _KERNEL[y0 - cy + 1:y1 - cy + 1, x0 - cx + 1:x1 - cx + 1]
    # clipped kernel sums always divide 144, so the deposit stays integral
    heat.units[y0:y1, x0:x1] += patch * (_BUMP_UNITS // int(patch.sum()))
    heat.events += 1
    return heat


# row and column offset of each kernel cell, in `_KERNEL.ravel()` order
_KERNEL_DY = np.array([-1, -1, -1, 0, 0, 0, 1, 1, 1])
_KERNEL_DX = np.array([-1, 0, 1, -1, 0, 1, -1, 0, 1])


def _kernel_cells(xy: np.ndarray, shape: tuple[int, int]):
    """The cells and units of `bump` at each BEV position of the (n, 2)
    array `xy`: (n, 9) row indices, column indices and units.  A kernel
    cell off the map gets 0 units and an index clipped onto the map."""
    h, w = shape
    center = np.minimum(np.maximum(np.floor(xy + 0.5), 0), (w - 1, h - 1))
    center = center.astype(np.int64)
    xs = center[:, :1] + _KERNEL_DX
    ys = center[:, 1:] + _KERNEL_DY
    inside = (ys >= 0) & (ys < h) & (xs >= 0) & (xs < w)
    units = _KERNEL.ravel() * inside
    # clipped kernel sums always divide 144, as in `bump`
    units *= (_BUMP_UNITS // units.sum(axis=1))[:, None]
    return np.clip(ys, 0, h - 1), np.clip(xs, 0, w - 1), units


def _cell_keys(xy: np.ndarray) -> np.ndarray:
    """Key (i + 2**26) * 2**28 + j + 2**26 of each (n, 2) point's unit cell
    (i, j), clipped to +-2**26 (NaN up), so that j - 1 .. j + 1 is a run."""
    i, j = (np.fmax(np.fmin(np.floor(xy), 2 ** 26), -2 ** 26)
            + 2 ** 26).astype(np.int64).T
    return i * 2 ** 28 + j


class StateClassifier:
    """Per-frame behavioural classification with parking memory.

    Parking needs more than `parking_duration_s` of consecutive frames
    near the road border at near-zero speed; membership drops on the
    first frame either condition breaks.  A frame that is not the one
    after the last stepped ends every run, as stepping the frames between
    without rows would.
    """

    def __init__(self, boundary: BoundarySet | None, scale: GroundScale,
                 cfg: AnalyticsConfig, fps: float):
        if scale is None:
            raise MissingCalibration("analytics needs a ground scale")
        if fps <= 0:
            raise ValueError(f"fps must be positive, got {fps}")
        self.scale = scale
        self.cfg = cfg
        self.fps = fps
        # the border sorted by square cell, a pixel wider than the parking
        # radius, so that a point within the radius lies in the 3x3 cells
        # around; beyond 2**50 px rounding eats the pixel, so one cell
        border = (boundary.points().astype(float)
                  if boundary is not None else np.empty((0, 2)))
        self._size = scale.to_pixels(cfg.parking_border_m) + 1.0
        if not self._size < 2 ** 50:
            self._size = np.inf
        keys = _cell_keys(border / self._size)
        order = np.argsort(keys)
        self._keys, self._border = keys[order], border[order]
        self._still_frames: dict[int, int] = {}
        self._next_frame = None

    def _nearest_border(self, p: np.ndarray) -> np.ndarray:
        """Each (n, 2) position's distance to the nearest border point in
        its 3x3 cells (inf with none), exact where one is in the radius."""
        runs = (_cell_keys(p / self._size)[:, None]
                + 2 ** 28 * np.array([-1, 0, 1]))
        starts = np.searchsorted(self._keys, runs - 1).ravel()
        counts = np.searchsorted(self._keys, runs + 2).ravel() - starts
        owner = np.arange(len(p)).repeat(3).repeat(counts)
        # each candidate's row in the sorted border
        first = np.repeat(starts - np.cumsum(counts) + counts, counts)
        q = self._border[first + np.arange(len(first))]
        nearest = np.full(len(p), np.inf)
        np.minimum.at(nearest, owner, np.hypot(q[:, 0] - p[owner, 0],
                                               q[:, 1] - p[owner, 1]))
        return nearest

    # far-apart finite positions may have infinite distances
    @np.errstate(over="ignore")
    def step(self, frame: int, tracks: FrameTracks) -> StateSets:
        cfg = self.cfg
        ids, speed = tracks.ids, tracks.speed_mph
        vehicle = ~tracks.pedestrian

        # still vehicles within parking_border_m of the nearest border point
        still = vehicle & (speed < cfg.parking_speed_mph)
        if still.any():
            nearest = self._nearest_border(tracks.xy[still])
            still[still] = self.scale.to_meters(nearest) < cfg.parking_border_m
        needed = int(math.ceil(cfg.parking_duration_s * self.fps))
        runs = self._still_frames if frame == self._next_frame else {}
        self._still_frames = {i: runs.get(i, 0) + 1
                              for i in ids[still].tolist()}
        self._next_frame = frame + 1
        parked = still.copy()  # runs are in the order of ids[still]
        parked[still] = np.array(list(self._still_frames.values())) >= needed

        moving = vehicle & ~parked
        # distances from every track to every moving vehicle, itself excluded
        cols = np.flatnonzero(moving)
        d = np.hypot(tracks.xy[:, :1] - tracks.xy[cols, 0],
                     tracks.xy[:, 1:] - tracks.xy[cols, 1])
        d[cols, np.arange(len(cols))] = np.inf
        at_risk = tracks.pedestrian & (
            self.scale.to_meters(d) < cfg.proximity_risk_m).any(axis=1)
        limit_px = self.scale.to_pixels(cfg.congestion_distance_m)
        congested = (moving & (speed < cfg.congestion_speed_mph)
                     & (d < limit_px).any(axis=1))

        return StateSets(
            frame=frame, ids=ids, parking=parked,
            speeding=vehicle & (speed > cfg.speed_limit_mph),
            collision_risk=at_risk, congestion=congested)


def update_heatmaps(maps: Mapping[str, HeatMap], tracks: FrameTracks,
                    states: StateSets) -> Mapping[str, HeatMap]:
    """Deposit classified positions into the five maps: all pedestrians,
    non-parked vehicles, and the speeding, congestion and collision-risk
    sets.  `tracks` may hold the rows of one frame or of many, with
    `states`' masks over those same rows.

    Each position's kernel is worked out once per map shape, and each map
    takes its positions in one `np.add.at`; integer adds commute, so the
    grids equal one `bump` per position, however the frames are grouped
    into calls.
    """
    masks = {"pedestrian": tracks.pedestrian,
             "vehicle": ~tracks.pedestrian & ~states.parking,
             "speeding": states.speeding,
             "congestion": states.congestion,
             "proximity": states.collision_risk}
    kernels = {}  # map shape -> _kernel_cells of every position
    for kind, mask in masks.items():
        if mask.any():
            heat = maps[kind]
            if heat.shape not in kernels:
                kernels[heat.shape] = _kernel_cells(tracks.xy, heat.shape)
            ys, xs, units = kernels[heat.shape]
            np.add.at(heat.units, (ys[mask], xs[mask]), units[mask])
            heat.events += int(mask.sum())
    return maps


def make_heatmaps(shape: tuple[int, int]) -> dict[str, HeatMap]:
    return {kind: HeatMap(shape, kind) for kind in HEAT_KINDS}


def frame_stats(frame: int, tracks: FrameTracks,
                states: StateSets) -> FrameStats:
    """Counts per class, and the mean speed of the non-parked vehicles
    (None when there are none)."""
    vehicle = ~tracks.pedestrian & ~states.parking
    # an ordered Python sum, whose bits stats.csv records
    speeds = tracks.speed_mph[vehicle].tolist()
    pedestrians = int(tracks.pedestrian.sum())
    return FrameStats(frame=frame,
                      vehicle_count=len(tracks.ids) - pedestrians,
                      pedestrian_count=pedestrians,
                      avg_speed_mph=sum(speeds) / len(speeds) if speeds
                      else None)


def _colorize(norm: np.ndarray) -> np.ndarray:
    """Map normalized [0,255] values through the blue-to-red gradient."""
    v = norm.astype(float) / 255.0
    positions = np.array([p for p, _ in GRADIENT_ANCHORS])
    out = np.empty(norm.shape + (3,), dtype=np.uint8)
    for ch in range(3):
        levels = np.array([c[ch] for _, c in GRADIENT_ANCHORS], dtype=float)
        out[..., ch] = np.floor(
            np.interp(v, positions, levels) + 0.5).astype(np.uint8)
    return out


def perspective_sample(h_inv: Homography, view: tuple[int, int],
                       shape: tuple[int, int]) -> np.ndarray:
    """Where each pixel of a camera view samples a BEV map, for `render`.

    `h_inv` is the BEV-to-perspective mapping.  Each pixel of the (height,
    width) `view` is carried back to BEV by the forward mapping and samples
    the nearest cell of a map of `shape`.  The result is a `view`-shaped
    int64 array of flat cell indices; pixels that fall off the map hold
    the cell count, one past the last cell.  The view is mapped in row
    bands, so nothing but the result grows with it.
    """
    from .geometry import PERSPECTIVE, apply_many, invert
    g = invert(h_inv)  # perspective -> bev
    if g.source != PERSPECTIVE:
        raise ValueError("h_inv must map bev to perspective")
    h, w = shape
    index = np.empty(view, dtype=np.int64)
    xs = np.arange(view[1], dtype=float)
    for rows in _bands(*view):
        ys = np.arange(rows.start, rows.stop, dtype=float)
        # (x, y) of each pixel of the band, row by row
        grid = np.stack([np.tile(xs, len(ys)), np.repeat(ys, len(xs))], 1)
        # bounds are tested before the cast, which inf would not survive
        sx, sy = np.floor(apply_many(g, grid) + 0.5).T
        inside = (sx >= 0) & (sx < w) & (sy >= 0) & (sy < h)
        band = index[rows].reshape(-1)  # a view: the rows are contiguous
        band[:] = h * w
        band[inside] = (sy[inside].astype(np.int64) * w
                        + sx[inside].astype(np.int64))
    return index


def render(heat: HeatMap, base: ImageBuffer | None = None,
           sample: np.ndarray | None = None,
           floor: int = 5, alpha: float = 0.6) -> ImageBuffer:
    """Color-coded heat image: min-max normalize, drop faint cells, map
    through the blue-to-red gradient, optionally blend over a base image
    and re-project to the camera view.

    With `sample`, from `perspective_sample` for this map's shape, the
    output is the camera view, and pixels off the map read 0.  The output
    is filled in row bands, so beside the map and the image only
    band-sized temporaries are held.
    """
    from .imaging import ImageBuffer
    units = heat.units
    # int-to-float and the division are monotone: the extremes' images
    # are the extremes of units / 144
    vmax = float(units.max() / _BUMP_UNITS)
    vmin = float(units.min() / _BUMP_UNITS)
    if heat.events == 0 or vmax <= 0:
        raise EmptyHeatMap(f"'{heat.kind}' heat map has no mass to render")
    view = units.shape if sample is None else sample.shape
    out = np.zeros(view + (3,), dtype=np.uint8)
    if base is not None:
        base_px = base.pixels
        if base_px.shape[:2] != view:
            raise ShapeMismatch(f"base shape {base_px.shape[:2]} does not "
                                f"match output {view}")
        # a gray base repeats over the three channels
        out[:] = base_px if base_px.ndim == 3 else base_px[:, :, None]

    flat = units.reshape(-1)
    for rows in _bands(*view):
        if sample is None:
            values = units[rows] / _BUMP_UNITS
        else:
            cell = sample[rows]
            values = flat.take(cell, mode="clip") / _BUMP_UNITS
        if vmax == vmin:
            norm = np.full(values.shape, 255.0)
        else:
            norm = (values - vmin) / (vmax - vmin) * 255.0
        if sample is not None:
            norm[cell >= flat.size] = 0.0  # off the map
        visible = norm >= floor
        color = _colorize(norm[visible])
        band = out[rows]
        if base is None:
            band[visible] = color
        else:
            band[visible] = np.floor(alpha * color
                                     + (1 - alpha) * band[visible] + 0.5)
    return ImageBuffer(out)
