"""Multi-object multi-category tracking in the perspective image.

An IoU tracker in the SORT family whose per-track Kalman state is extended
with an 11-component category vector, updated with the one-hot of each
matched detection's best class.  The smoothing makes the reported class
robust to single-frame detector flicker while association itself stays
class-agnostic.

State vector (18): [x, y, s, r, vx, vy, vs, c0..c10] where (x, y) is the
bottom-center reference point of the box, s the box area, r the aspect
ratio (constant in the process model).  Observation (15): [x, y, s, r,
c0..c10].  The model is fixed and the covariance block-diagonal, so a
`Track` steps four blocks in closed form: {x, vx} and {y, vy} sharing one
2x2 covariance, {s, vs}, {r}, and the category components sharing one
variance."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import CLASS_NAMES

N_CLASSES = len(CLASS_NAMES)
_BBOX_MAX = 1e100
_PROBS_SUM_MAX = 1.0 + 1e-6


# The detection rule: each check a row must pass, in order, and what a row
# that fails it is told.  The bounds keep the tracker's area w * h, aspect
# w / h and their product finite.
_CHECKS = (
    f"bbox numbers must be finite and below {_BBOX_MAX:g} in magnitude",
    f"bbox sides must be at least {1 / _BBOX_MAX:g}, got {{w}}x{{h}}",
    "objectness must be in [0, 1], got {score}",
    "class probabilities must be in [0, 1]",
    "class probabilities sum above 1",
)


def _faults(bbox: np.ndarray, objectness: np.ndarray,
            class_probs: np.ndarray) -> np.ndarray:
    """(len(_CHECKS), n) bool: which checks each row fails.

    The probabilities are added left to right, so a row is judged alike on
    every Python version; they are clipped first, which changes no sum of
    probabilities in range and keeps inf - inf out of the others.
    """
    w, h = bbox[:, 2], bbox[:, 3]
    return np.stack([
        ~(np.abs(bbox) < _BBOX_MAX).all(axis=1),
        ~(np.minimum(w, h) >= 1 / _BBOX_MAX),
        ~((0.0 <= objectness) & (objectness <= 1.0)),
        ~((0.0 <= class_probs) & (class_probs <= 1.0)).all(axis=1),
        class_probs.clip(0.0, 1.0).cumsum(axis=1)[:, -1] > _PROBS_SUM_MAX])


@dataclass(frozen=True, eq=False)
class DetectionGroup:
    """One frame's detections as float64 columns: (n, 4) center/size boxes,
    n objectness scores and (n, N_CLASSES) class probabilities; `len` is n.

    A group checks its rows as it is built and raises ValueError naming the
    first check that the first refused row fails.
    """

    bbox: np.ndarray
    objectness: np.ndarray
    class_probs: np.ndarray

    def __post_init__(self):
        columns = [np.asarray(c, dtype=np.float64) for c in
                   (self.bbox, self.objectness, self.class_probs)]
        bbox, objectness, class_probs = columns
        n = len(objectness) if objectness.ndim == 1 else -1
        if (bbox.shape != (n, 4) or class_probs.ndim != 2
                or len(class_probs) != n):
            raise ValueError(f"expected (n, 4) boxes, n scores and (n, "
                             f"{N_CLASSES}) class probabilities, got shapes "
                             f"{bbox.shape}, {objectness.shape} and "
                             f"{class_probs.shape}")
        if class_probs.shape[1] != N_CLASSES:
            raise ValueError(f"expected {N_CLASSES} class probabilities, "
                             f"got {class_probs.shape[1]}")
        faults = _faults(bbox, objectness, class_probs)
        refused = faults.any(axis=0)
        if refused.any():
            i = int(refused.argmax())
            w, h = bbox[i, 2:].tolist()
            raise ValueError(_CHECKS[int(faults[:, i].argmax())].format(
                w=w, h=h, score=objectness[i].item()))
        for name, column in zip(("bbox", "objectness", "class_probs"),
                                columns):
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.objectness)

    def __getitem__(self, rows: slice) -> DetectionGroup:
        """The group of the rows in `rows`, a slice; they were judged when
        this group was built, so they are not judged again."""
        if not isinstance(rows, slice):
            raise TypeError(f"a group is sliced by rows, got {rows!r}")
        part = object.__new__(DetectionGroup)
        for name in ("bbox", "objectness", "class_probs"):
            object.__setattr__(part, name, getattr(self, name)[rows])
        return part

    @property
    def class_index(self) -> np.ndarray:
        """Each row's most probable class; the first of equal ones."""
        return self.class_probs.argmax(axis=1)


def reference_point(bbox: Sequence[float]) -> tuple[float, float]:
    """Bottom-center of a center/size bbox: the ground contact point."""
    x_b, y_b, w_b, h_b = bbox
    return (x_b, y_b + h_b / 2.0)


def iou_matrix(tracks: Sequence[Sequence[float]],
               detections: Sequence[Sequence[float]]) -> np.ndarray:
    """Intersection over union of every track box with every detection
    box, all axis-aligned center/size boxes, as one array.

    Each entry equals the scalar reference in tests/test_tracking.py bit
    for bit.
    """
    # a[k] is a (tracks, 1) column, b[k] a (1, detections) row
    a = np.asarray(tracks, dtype=np.float64).reshape(-1, 4).T[:, :, None]
    b = np.asarray(detections, dtype=np.float64).reshape(-1, 4).T[:, None, :]
    iw = (np.minimum(a[0] + a[2] / 2.0, b[0] + b[2] / 2.0)
          - np.maximum(a[0] - a[2] / 2.0, b[0] - b[2] / 2.0))
    ih = (np.minimum(a[1] + a[3] / 2.0, b[1] + b[3] / 2.0)
          - np.maximum(a[1] - a[3] / 2.0, b[1] - b[3] / 2.0))
    inter = iw * ih
    union = a[2] * a[3] + b[2] * b[3] - inter
    return np.divide(inter, union, out=np.zeros_like(inter),
                     where=(iw > 0) & (ih > 0))


def associate(tracks: Sequence[Sequence[float]],
              detections: Sequence[Sequence[float]],
              iou_min: float = 0.3
              ) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Assign detections to predicted track boxes, maximizing total IoU.

    Returns (matches, unmatched_track_indices, unmatched_detection_indices);
    assigned pairs below iou_min are rejected back to unmatched.
    """
    if len(tracks) == 0 or len(detections) == 0:
        return [], list(range(len(tracks))), list(range(len(detections)))
    scores = iou_matrix(tracks, detections)
    rows, cols = (_unique_best_assignment(scores)
                  or _min_cost_assignment((-scores).tolist()))
    matches = [(i, j) for i, j in zip(rows, cols) if scores[i, j] >= iou_min]
    matched_t = {i for i, _ in matches}
    matched_d = {j for _, j in matches}
    unmatched_t = [i for i in range(len(tracks)) if i not in matched_t]
    unmatched_d = [j for j in range(len(detections)) if j not in matched_d]
    return matches, unmatched_t, unmatched_d


def _unique_best_assignment(scores: np.ndarray
                            ) -> tuple[list[int], list[int]] | None:
    """`_min_cost_assignment(-scores)` when no two rows share a best
    column, the first of a row's equal best scores, taking rows along the
    shorter side; else None.

    Row by row, the loop's first Dijkstra step then ends at the row's best
    column: among equal lowest costs it takes the first free column, and
    the best column is still free.  The step leaves v at 0 and every other
    row's u untouched, so the next row sees its raw costs too.
    """
    transpose = scores.shape[1] < scores.shape[0]
    if transpose:
        scores = scores.T
    best = scores.argmax(axis=1)
    if np.bincount(best).max() > 1:
        return None
    if transpose:
        order = np.argsort(best)
        return best[order].tolist(), order.tolist()
    return list(range(len(best))), best.tolist()


def _min_cost_assignment(cost: list[list[float]]
                         ) -> tuple[list[int], list[int]]:
    """Rows and columns of a minimum-cost assignment of a finite matrix.

    Every row of a wide matrix, or every column of a tall one, is assigned;
    rows come out ascending.  This is the shortest augmenting path method
    of Crouse, "On implementing 2D rectangular assignment algorithms"
    (IEEE TAES, 2016), written step for step as scipy's
    `linear_sum_assignment` implements it, so that both break ties alike.
    """
    n_rows, n_cols = len(cost), len(cost[0])
    transpose = n_cols < n_rows
    if transpose:
        cost = [list(col) for col in zip(*cost)]
        n_rows, n_cols = n_cols, n_rows
    u = [0.0] * n_rows
    v = [0.0] * n_cols
    path = [-1] * n_cols
    col4row = [-1] * n_rows
    row4col = [-1] * n_cols
    for cur_row in range(n_rows):
        # Dijkstra from cur_row over reduced costs until a free column.
        # Scanning columns in reverse makes a constant matrix come out as
        # the identity.
        remaining = list(range(n_cols - 1, -1, -1))
        shortest = [math.inf] * n_cols
        visited_rows = []
        visited_cols = []
        min_val = 0.0
        i = cur_row
        sink = -1
        while sink == -1:
            visited_rows.append(i)
            row, u_i = cost[i], u[i]
            index = -1
            lowest = math.inf
            for it, j in enumerate(remaining):
                r = min_val + row[j] - u_i - v[j]
                s = shortest[j]
                if r < s:
                    path[j] = i
                    shortest[j] = s = r
                # among equal minima prefer a free column: it ends the path
                if s <= lowest and (s < lowest or row4col[j] == -1):
                    lowest = s
                    index = it
            min_val = lowest
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            visited_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()

        u[cur_row] += min_val
        for i in visited_rows:
            if i != cur_row:
                u[i] += min_val - shortest[col4row[i]]
        for j in visited_cols:
            v[j] -= min_val - shortest[j]

        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break

    if transpose:
        order = sorted(range(n_rows), key=col4row.__getitem__)
        return [col4row[k] for k in order], order
    return list(range(n_rows)), col4row


# --- per-track Kalman model -------------------------------------------------

# variances: initial; process (t = 1, zero off the diagonal), observation
_P0, _P0_RATE = 10.0, 1e4
_Q_XY, _Q_VXY, _R_XY = 1.0, 0.01, 1.0  # {x, vx} and {y, vy}
_Q_S, _Q_VS, _R_S = 1.0, 1e-4, 10.0  # {s, vs}
_Q_R, _R_R = 1.0, 0.01  # {r}
_Q_C, _R_C = 1e-4, 0.01  # each of c0..c10


@dataclass(frozen=True)
class TrackSnapshot:
    """One reported track at one frame."""

    frame: int
    track_id: int
    bbox: tuple[float, float, float, float]
    class_name: str
    ref: tuple[float, float]


class Track:
    """Mutable tracker-internal record; snapshots are handed out instead.

    The blocks are plain floats, covariances as (p00, p01, p11): `pxx`,
    `pxv`, `pvv` for {x, vx} and {y, vy}, `pss`, `psv`, `pvs`, `prr` and
    `pcc` for the `category`.  Each float is computed as the generic block
    steps in tests/test_kalman.py compute it.  A detection is one row of a
    `DetectionGroup`: its box and its most probable class."""

    __slots__ = ("id", "x", "y", "vx", "vy", "pxx", "pxv", "pvv", "s", "vs",
                 "pss", "psv", "pvs", "r", "prr", "category", "pcc", "hits",
                 "time_since_update")

    def __init__(self, track_id: int, bbox: Sequence[float],
                 class_index: int):
        self.id = track_id
        # observed values, zero rates
        self.x, self.y = reference_point(bbox)
        self.s, self.r = bbox[2] * bbox[3], bbox[2] / bbox[3]
        self.category = [0.0] * N_CLASSES
        self.category[class_index] = 1.0
        self.vx = self.vy = self.vs = self.pxv = self.psv = 0.0
        self.pxx = self.pss = self.prr = self.pcc = _P0
        self.pvv = self.pvs = _P0_RATE
        self.hits, self.time_since_update = 1, 0

    def predict(self):
        if self.s + self.vs <= 0:
            self.vs = 0.0
        self.x, self.y = self.x + self.vx, self.y + self.vy
        self.s += self.vs
        # F P F^T + Q with F = [[1, 1], [0, 1]]; adding the zero cross
        # noise turns a -0.0 into 0.0
        b, e = self.pxv + self.pvv, self.psv + self.pvs
        self.pxx, self.pxv, self.pvv = (self.pxx + (self.pxv + b) + _Q_XY,
                                        b + 0.0, self.pvv + _Q_VXY)
        self.pss, self.psv, self.pvs = (self.pss + (self.psv + e) + _Q_S,
                                        e + 0.0, self.pvs + _Q_VS)
        self.prr, self.pcc = self.prr + _Q_R, self.pcc + _Q_C
        self.time_since_update += 1

    def update(self, bbox: Sequence[float], class_index: int):
        _, _, w_b, h_b = bbox
        zx, zy = reference_point(bbox)
        # a block's gains: its covariance column over p[0][0] + r
        a, b = self.pxx, self.pxv
        ka, kb = a / (a + _R_XY), b / (a + _R_XY)
        ix, iy = zx - self.x, zy - self.y
        self.x, self.y = self.x + ka * ix, self.y + ka * iy
        self.vx, self.vy = self.vx + kb * ix, self.vy + kb * iy
        self.pxx, self.pxv, self.pvv = a - ka * a, b - ka * b, \
            self.pvv - kb * b
        a, b = self.pss, self.psv
        ka, kb = a / (a + _R_S), b / (a + _R_S)
        inn = w_b * h_b - self.s
        self.s, self.vs = self.s + ka * inn, self.vs + kb * inn
        self.pss, self.psv, self.pvs = a - ka * a, b - ka * b, \
            self.pvs - kb * b
        a = self.prr
        ka = a / (a + _R_R)
        self.r, self.prr = self.r + ka * (w_b / h_b - self.r), a - ka * a
        a = self.pcc
        ka = a / (a + _R_C)
        # the observed one-hot: 1.0 for the class, 0.0 for the others
        c = self.category[class_index]
        self.category = [v + ka * (0.0 - v) for v in self.category]
        self.category[class_index] = c + ka * (1.0 - c)
        self.pcc = a - ka * a
        self.hits += 1
        self.time_since_update = 0

    def predicted_bbox(self) -> tuple[float, float, float, float]:
        s = max(self.s, 1e-6)
        r = max(self.r, 1e-6)
        w = math.sqrt(s * r)
        if w == math.inf:  # s and r come from boxes of very different shape
            w = math.sqrt(s) * math.sqrt(r)
        h = s / w
        return (self.x, self.y - h / 2.0, w, h)

    def class_index(self) -> int:
        return self.category.index(max(self.category))

    def snapshot(self, frame: int) -> TrackSnapshot:
        return TrackSnapshot(
            frame=frame, track_id=self.id, bbox=self.predicted_bbox(),
            class_name=CLASS_NAMES[self.class_index()], ref=(self.x, self.y))


_NO_DETECTIONS = DetectionGroup(np.zeros((0, 4)), np.zeros(0),
                                np.zeros((0, N_CLASSES)))


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

    def step(self, detections: DetectionGroup,
             frame: int | None = None) -> list[TrackSnapshot]:
        """Advance to `frame` (default: the next one), first stepping each
        skipped frame as one without detections; returns snapshots of
        confirmed tracks.  A frame at or before the last one raises
        ValueError and changes nothing."""
        frame = self.frame + 1 if frame is None else int(frame)
        if frame <= self.frame:
            raise ValueError(f"frame {frame} is not after frame "
                             f"{self.frame}, the tracker's last")
        # once no track is left, an empty step changes nothing
        while self.tracks and self.frame + 1 < frame:
            self._advance(_NO_DETECTIONS, self.frame + 1)
        return self._advance(detections, frame)

    def _advance(self, detections: DetectionGroup,
                 frame: int) -> list[TrackSnapshot]:
        self.frame = frame
        kept = detections.objectness >= self.objectness_min
        boxes = detections.bbox[kept]

        for t in self.tracks:
            t.predict()

        matches, _, unmatched_d = associate(
            [t.predicted_bbox() for t in self.tracks], boxes, self.iou_min)
        boxes = boxes.tolist()
        classes = detections.class_index[kept].tolist()
        for ti, di in matches:
            self.tracks[ti].update(boxes[di], classes[di])
        for di in unmatched_d:
            self.tracks.append(Track(self.next_id, boxes[di], classes[di]))
            self.next_id += 1

        self.tracks = [t for t in self.tracks
                       if t.time_since_update <= self.max_age]
        return [t.snapshot(self.frame) for t in self.tracks
                if t.time_since_update == 0 and t.hits >= self.min_hits]

