"""Multi-object multi-category tracking in the perspective image.

An IoU tracker in the SORT family whose per-track Kalman state is extended
with an 11-component category vector, updated with the one-hot of each
matched detection's best class.  The smoothing makes the reported class
robust to single-frame detector flicker while association itself stays
class-agnostic.

State vector (18): [x, y, s, r, vx, vy, vs, c0..c10] where (x, y) is the
bottom-center reference point of the box, s the box area, r the aspect
ratio (constant in the process model).  Observation (15): [x, y, s, r,
c0..c10].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .kalman import kf_predict_step, kf_update_step

CLASS_NAMES = (
    "articulated_truck",
    "bicycle",
    "bus",
    "car",
    "motorcycle",
    "motorized_vehicle",
    "non_motorized_vehicle",
    "pedestrian",
    "pickup_truck",
    "single_unit_truck",
    "work_van",
)
N_CLASSES = len(CLASS_NAMES)
PEDESTRIAN = "pedestrian"

_DIM_X = 7 + N_CLASSES
_DIM_Z = 4 + N_CLASSES


@dataclass(frozen=True)
class Detection:
    """One detector output box: center/size bbox, objectness, class scores."""

    frame: int
    bbox: tuple[float, float, float, float]
    objectness: float
    class_probs: tuple[float, ...]

    def __post_init__(self):
        x, y, w, h = self.bbox
        if not all(math.isfinite(v) for v in self.bbox):
            raise ValueError("bbox must be finite")
        if w <= 0 or h <= 0:
            raise ValueError(f"bbox size must be positive, got {w}x{h}")
        if not 0.0 <= self.objectness <= 1.0:
            raise ValueError(f"objectness must be in [0, 1], "
                             f"got {self.objectness}")
        if len(self.class_probs) != N_CLASSES:
            raise ValueError(f"expected {N_CLASSES} class probabilities, "
                             f"got {len(self.class_probs)}")
        if any(not 0 <= p <= 1 for p in self.class_probs):
            raise ValueError("class probabilities must be in [0, 1]")
        if sum(self.class_probs) > 1.0 + 1e-6:
            raise ValueError("class probabilities sum above 1")


@dataclass(frozen=True)
class AnchorSpec:
    """Grid cell top-left corner and anchor box size, in pixels."""

    cell: tuple[float, float]
    anchor: tuple[float, float]

    def __post_init__(self):
        if self.anchor[0] <= 0 or self.anchor[1] <= 0:
            raise ValueError("anchor size must be positive")


def _sigmoid(v: float) -> float:
    if v >= 0:
        return 1.0 / (1.0 + math.exp(-v))
    e = math.exp(v)
    return e / (1.0 + e)


def decode_offsets(offsets: tuple[float, float, float, float],
                   spec: AnchorSpec) -> tuple[float, float, float, float]:
    """Raw network offsets to a center/size bbox for one anchor."""
    x_o, y_o, w_o, h_o = offsets
    x_c, y_c = spec.cell
    w_a, h_a = spec.anchor
    return (_sigmoid(x_o) + x_c,
            _sigmoid(y_o) + y_c,
            w_a * math.exp(w_o),
            h_a * math.exp(h_o))


def reference_point(bbox: Sequence[float]) -> tuple[float, float]:
    """Bottom-center of a center/size bbox: the ground contact point."""
    x_b, y_b, w_b, h_b = bbox
    return (x_b, y_b + h_b / 2.0)


def iou(a: Sequence[float], b: Sequence[float]) -> float:
    """Intersection over union of two axis-aligned center/size boxes."""
    ax0, ax1 = a[0] - a[2] / 2.0, a[0] + a[2] / 2.0
    ay0, ay1 = a[1] - a[3] / 2.0, a[1] + a[3] / 2.0
    bx0, bx1 = b[0] - b[2] / 2.0, b[0] + b[2] / 2.0
    by0, by1 = b[1] - b[3] / 2.0, b[1] + b[3] / 2.0
    iw = min(ax1, bx1) - max(ax0, bx0)
    ih = min(ay1, by1) - max(ay0, by0)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = a[2] * a[3] + b[2] * b[3] - inter
    return inter / union


def associate(tracks: Sequence[Sequence[float]],
              detections: Sequence[Sequence[float]],
              iou_min: float = 0.3
              ) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Assign detections to predicted track boxes, maximizing total IoU.

    Returns (matches, unmatched_track_indices, unmatched_detection_indices);
    assigned pairs below iou_min are rejected back to unmatched.
    """
    if not tracks or not detections:
        return [], list(range(len(tracks))), list(range(len(detections)))
    # imported here so that only `track` pays scipy's ~0.6 s import
    from scipy.optimize import linear_sum_assignment
    scores = np.zeros((len(tracks), len(detections)))
    for i, t in enumerate(tracks):
        for j, d in enumerate(detections):
            scores[i, j] = iou(t, d)
    rows, cols = linear_sum_assignment(-scores)
    matches = []
    matched_t, matched_d = set(), set()
    for i, j in zip(rows, cols):
        if scores[i, j] >= iou_min:
            matches.append((int(i), int(j)))
            matched_t.add(int(i))
            matched_d.add(int(j))
    unmatched_t = [i for i in range(len(tracks)) if i not in matched_t]
    unmatched_d = [j for j in range(len(detections)) if j not in matched_d]
    return matches, unmatched_t, unmatched_d


# --- per-track Kalman model -------------------------------------------------

def _transition() -> np.ndarray:
    f = np.eye(_DIM_X)
    f[0, 4] = f[1, 5] = f[2, 6] = 1.0
    return f


def _observation_model() -> np.ndarray:
    h = np.zeros((_DIM_Z, _DIM_X))
    h[0, 0] = h[1, 1] = h[2, 2] = h[3, 3] = 1.0
    for i in range(N_CLASSES):
        h[4 + i, 7 + i] = 1.0
    return h


_F = _transition()
_H = _observation_model()
_Q = np.diag([1.0, 1.0, 1.0, 1.0, 0.01, 0.01, 1e-4] + [1e-4] * N_CLASSES)
_R = np.diag([1.0, 1.0, 10.0, 0.01] + [0.01] * N_CLASSES)
_P0 = np.diag([10.0, 10.0, 10.0, 10.0, 1e4, 1e4, 1e4] + [10.0] * N_CLASSES)


def _one_hot(class_probs: Sequence[float]) -> np.ndarray:
    c = np.zeros(N_CLASSES)
    c[int(np.argmax(class_probs))] = 1.0
    return c


def _measurement(det: Detection) -> np.ndarray:
    x_b, y_b, w_b, h_b = det.bbox
    rx, ry = reference_point(det.bbox)
    return np.concatenate([[rx, ry, w_b * h_b, w_b / h_b],
                           _one_hot(det.class_probs)])


def _state_bbox(x: np.ndarray) -> tuple[float, float, float, float]:
    s = max(float(x[2]), 1e-6)
    r = max(float(x[3]), 1e-6)
    w = math.sqrt(s * r)
    h = s / w
    return (float(x[0]), float(x[1]) - h / 2.0, w, h)


@dataclass(frozen=True)
class TrackState:
    """Snapshot of the smoothed per-track state."""

    x: float
    y: float
    s: float
    r: float
    vx: float
    vy: float
    vs: float
    category: tuple[float, ...]


@dataclass(frozen=True)
class TrackSnapshot:
    """One reported track at one frame."""

    frame: int
    track_id: int
    bbox: tuple[float, float, float, float]
    class_index: int
    class_name: str
    ref: tuple[float, float]
    state: TrackState
    hits: int
    age: int
    time_since_update: int


class Track:
    """Mutable tracker-internal record; snapshots are handed out instead."""

    def __init__(self, track_id: int, det: Detection, frame: int):
        self.id = track_id
        z = _measurement(det)
        self.x = np.zeros(_DIM_X)
        self.x[:4] = z[:4]
        self.x[7:] = z[4:]
        self.p = _P0.copy()
        self.hits = 1
        self.age = 0
        self.time_since_update = 0
        self.trajectory: list[tuple[int, float, float]] = [
            (frame, float(self.x[0]), float(self.x[1]))]

    def predict(self):
        if self.x[2] + self.x[6] <= 0:
            self.x[6] = 0.0
        self.x, self.p = kf_predict_step(self.x, self.p, _F, _Q)
        self.age += 1
        self.time_since_update += 1

    def update(self, det: Detection, frame: int):
        self.x, self.p = kf_update_step(self.x, self.p, _measurement(det),
                                        _H, _R)
        self.hits += 1
        self.time_since_update = 0
        self.trajectory.append((frame, float(self.x[0]), float(self.x[1])))

    def predicted_bbox(self) -> tuple[float, float, float, float]:
        return _state_bbox(self.x)

    def class_index(self) -> int:
        return int(np.argmax(self.x[7:]))

    def snapshot(self, frame: int) -> TrackSnapshot:
        idx = self.class_index()
        state = TrackState(
            x=float(self.x[0]), y=float(self.x[1]), s=float(self.x[2]),
            r=float(self.x[3]), vx=float(self.x[4]), vy=float(self.x[5]),
            vs=float(self.x[6]), category=tuple(float(v) for v in self.x[7:]))
        return TrackSnapshot(
            frame=frame, track_id=self.id, bbox=self.predicted_bbox(),
            class_index=idx, class_name=CLASS_NAMES[idx],
            ref=(state.x, state.y), state=state, hits=self.hits,
            age=self.age, time_since_update=self.time_since_update)


class MomctTracker:
    """Frame-by-frame multi-category tracker; single writer per stream."""

    def __init__(self, iou_min: float = 0.3, max_age: int = 10,
                 min_hits: int = 3, objectness_min: float = 0.25):
        self.iou_min = iou_min
        self.max_age = max_age
        self.min_hits = min_hits
        self.objectness_min = objectness_min
        self.tracks: list[Track] = []
        self.next_id = 1
        self.frame = -1

    def step(self, detections: Sequence[Detection],
             frame: int | None = None) -> list[TrackSnapshot]:
        """Advance one frame; returns snapshots of confirmed tracks."""
        self.frame = self.frame + 1 if frame is None else int(frame)
        dets = [d for d in detections if d.objectness >= self.objectness_min]

        for t in self.tracks:
            t.predict()

        matches, _, unmatched_d = associate(
            [t.predicted_bbox() for t in self.tracks],
            [d.bbox for d in dets], self.iou_min)
        for ti, di in matches:
            self.tracks[ti].update(dets[di], self.frame)
        for di in unmatched_d:
            self.tracks.append(Track(self.next_id, dets[di], self.frame))
            self.next_id += 1

        self.tracks = [t for t in self.tracks
                       if t.time_since_update <= self.max_age]
        return [t.snapshot(self.frame) for t in self.tracks
                if t.time_since_update == 0 and t.hits >= self.min_hits]


def momct_step(tracker: MomctTracker, detections: Sequence[Detection],
               frame: int | None = None
               ) -> tuple[MomctTracker, list[TrackSnapshot]]:
    """Functional wrapper over `MomctTracker.step`."""
    return tracker, tracker.step(detections, frame)
