import copy
import functools
import itertools
import math
import operator
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from roadscene import tracking
from roadscene.tracking import (
    CLASS_NAMES,
    N_CLASSES,
    DetectionGroup,
    MomctTracker,
    Track,
    _min_cost_assignment,
    _unique_best_assignment,
    associate,
    iou_matrix,
    reference_point,
)

CAR = CLASS_NAMES.index("car")
VAN = CLASS_NAMES.index("work_van")
PED = CLASS_NAMES.index("pedestrian")


def probs_for(index, p=0.9):
    probs = [(1.0 - p) / (N_CLASSES - 1)] * N_CLASSES
    probs[index] = p
    return tuple(probs)


def det(x, y, w=30.0, h=20.0, cls=CAR, objectness=0.9):
    """One detection: (bbox, objectness, class probabilities)."""
    return (x, y, w, h), objectness, probs_for(cls)


def track_state(track):
    """Every field of a `Track`, its filter's floats included, copied."""
    return {name: copy.copy(getattr(track, name)) for name in Track.__slots__}


def group(dets):
    """The `DetectionGroup` of one frame's detections."""
    return DetectionGroup(np.reshape([d[0] for d in dets], (-1, 4)),
                          [d[1] for d in dets],
                          np.reshape([d[2] for d in dets], (-1, N_CLASSES)))


class TestReferencePoint:
    def test_example(self):
        assert reference_point((100, 50, 30, 20)) == (100, 60)

    def test_zero_height(self):
        assert reference_point((5, 7, 3, 0)) == (5, 7)

    def test_translation_equivariance(self):
        base = reference_point((10, 20, 6, 8))
        shifted = reference_point((13, 18, 6, 8))
        assert shifted == (base[0] + 3, base[1] - 2)


def iou(a, b):
    """Intersection over union of two axis-aligned center/size boxes: the
    scalar reference `iou_matrix` must equal bit for bit."""
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


class TestIou:
    def test_identical(self):
        assert iou((5, 5, 10, 10), (5, 5, 10, 10)) == 1.0

    def test_disjoint(self):
        assert iou((0, 0, 4, 4), (100, 100, 4, 4)) == 0.0

    def test_half_offset(self):
        assert iou((5, 5, 10, 10), (10, 5, 10, 10)) == pytest.approx(1 / 3)


def brute_force_best(tracks, dets):
    """Max total IoU over all injective assignments (small n only)."""
    nt, nd = len(tracks), len(dets)
    best = -1.0
    k = min(nt, nd)
    for track_subset in itertools.permutations(range(nt), k):
        for det_subset in itertools.permutations(range(nd), k):
            total = sum(iou(tracks[i], dets[j])
                        for i, j in zip(track_subset, det_subset))
            best = max(best, total)
    return best


class TestAssociate:
    def test_identity_matching(self):
        boxes = [(10, 10, 5, 5), (40, 40, 5, 5), (80, 20, 5, 5)]
        matches, ut, ud = associate(boxes, list(boxes), iou_min=0.3)
        assert sorted(matches) == [(0, 0), (1, 1), (2, 2)]
        assert ut == [] and ud == []

    def test_optimal_against_brute_force(self):
        rng = np.random.default_rng(101)
        for _ in range(30):
            nt, nd = rng.integers(1, 6, size=2)
            tracks = [(x, y, w, h) for x, y, w, h in
                      zip(rng.uniform(0, 60, nt), rng.uniform(0, 60, nt),
                          rng.uniform(5, 25, nt), rng.uniform(5, 25, nt))]
            dets = [(x, y, w, h) for x, y, w, h in
                    zip(rng.uniform(0, 60, nd), rng.uniform(0, 60, nd),
                        rng.uniform(5, 25, nd), rng.uniform(5, 25, nd))]
            matches, _, _ = associate(tracks, dets, iou_min=0.0)
            total = sum(iou(tracks[i], dets[j]) for i, j in matches)
            assert total == pytest.approx(brute_force_best(tracks, dets),
                                          abs=1e-12)

    def test_matching_is_injective(self):
        rng = np.random.default_rng(102)
        tracks = [(x, 10, 10, 10) for x in rng.uniform(0, 100, 5)]
        dets = [(x, 10, 10, 10) for x in rng.uniform(0, 100, 7)]
        matches, ut, ud = associate(tracks, dets, iou_min=0.1)
        ti = [m[0] for m in matches]
        di = [m[1] for m in matches]
        assert len(set(ti)) == len(ti)
        assert len(set(di)) == len(di)
        assert sorted(ti + ut) == list(range(5))
        assert sorted(di + ud) == list(range(7))

    def test_gate_rejects_everything(self):
        matches, ut, ud = associate([(0, 0, 4, 4)], [(50, 50, 4, 4)],
                                    iou_min=0.3)
        assert matches == []
        assert ut == [0] and ud == [0]

    def test_empty_inputs(self):
        assert associate([], [(0, 0, 4, 4)]) == ([], [], [0])
        assert associate([(0, 0, 4, 4)], []) == ([], [0], [])


# boxes on a coarse grid as well as anywhere, so that boxes that touch
# (zero-width overlap) and identical boxes come up
_coord = st.one_of(st.integers(-20, 120).map(float),
                   st.floats(-20.0, 120.0, allow_nan=False))
_size = st.one_of(st.integers(1, 40).map(float),
                  st.floats(1e-3, 60.0, allow_nan=False))
_boxes = st.lists(st.tuples(_coord, _coord, _size, _size), max_size=8)


class TestIouMatrix:
    @settings(max_examples=300, deadline=None)
    @given(_boxes, _boxes, st.floats(0.0, 1.0))
    def test_equals_scalar_iou_and_matches(self, tracks, dets, iou_min):
        want = np.array([[iou(t, d) for d in dets] for t in tracks],
                        dtype=np.float64).reshape(len(tracks), len(dets))
        got = iou_matrix(tracks, dets)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

        matches, ut, ud = associate(tracks, dets, iou_min)
        if tracks and dets:
            rows, cols = linear_sum_assignment(-want)
            want_matches = [(int(i), int(j)) for i, j in zip(rows, cols)
                            if want[i, j] >= iou_min]
        else:
            want_matches = []
        assert matches == want_matches
        assert ut == [i for i in range(len(tracks))
                      if i not in {m[0] for m in matches}]
        assert ud == [j for j in range(len(dets))
                      if j not in {m[1] for m in matches}]


# cost matrices with 1-8 rows and columns: uniform floats, small integers
# (many ties), all zeros, and IoU-like costs that are mostly -0.0
_COST_ELEMENTS = (
    st.floats(-1e6, 1e6),
    st.integers(-2, 2).map(float),
    st.just(0.0),
    st.one_of(st.just(-0.0), st.floats(-1.0, 0.0)),
)


@st.composite
def _cost_matrices(draw):
    n_rows, n_cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    element = draw(st.sampled_from(_COST_ELEMENTS))
    flat = draw(st.lists(element, min_size=n_rows * n_cols,
                         max_size=n_rows * n_cols))
    return [flat[r * n_cols:(r + 1) * n_cols] for r in range(n_rows)]


@st.composite
def _unique_best_scores(draw):
    """Score matrices, wide or tall, in which no two rows of the shorter
    side share a best column: one injective assignment scores 2 and all
    else lies in [0, 1]."""
    short, long = sorted((draw(st.integers(1, 8)), draw(st.integers(1, 8))))
    flat = draw(st.lists(st.floats(0.0, 1.0), min_size=short * long,
                         max_size=short * long))
    scores = np.array(flat).reshape(short, long)
    cols = draw(st.permutations(range(long)))[:short]
    scores[np.arange(short), cols] = 2.0
    return scores.T if draw(st.booleans()) else scores


class TestMinCostAssignment:
    @settings(max_examples=1000, deadline=None)
    @given(_cost_matrices())
    def test_equals_scipy(self, cost):
        rows, cols = linear_sum_assignment(np.array(cost, dtype=np.float64))
        assert _min_cost_assignment(cost) == (rows.tolist(), cols.tolist())

    @settings(max_examples=1000, deadline=None)
    @given(_cost_matrices())
    def test_unique_best_exit_equals_the_loop(self, cost):
        # random, tied, all-zero, tall and wide: where the exit applies, it
        # gives the loop's assignment
        scores = -np.array(cost, dtype=np.float64)
        exit_ = _unique_best_assignment(scores)
        if exit_ is not None:
            assert exit_ == _min_cost_assignment((-scores).tolist())

    @settings(max_examples=300, deadline=None)
    @given(_unique_best_scores())
    def test_unique_best_exit_applies(self, scores):
        exit_ = _unique_best_assignment(scores)
        assert exit_ is not None
        assert exit_ == _min_cost_assignment((-scores).tolist())

    def test_unique_best_exit_declines_shared_columns(self):
        assert _unique_best_assignment(np.zeros((2, 3))) is None
        assert _unique_best_assignment(
            np.array([[0.9, 0.1], [0.8, 0.2]])) is None
        # a tie goes to the first best column, as in the loop
        assert _unique_best_assignment(
            np.array([[0.0, 1.0], [0.5, 0.5]])) == ([0, 1], [1, 0])


class TestMomctTracker:
    def test_genesis(self):
        tracker = MomctTracker()
        reported = tracker.step(group([det(50, 50)]))
        assert len(tracker.tracks) == 1
        assert tracker.tracks[0].id == 1
        # not confirmed yet with min_hits = 3
        assert reported == []

    def test_static_objects_exact_reference_points(self):
        tracker = MomctTracker()
        centers = [(50.0, 50.0), (150.0, 50.0), (100.0, 150.0)]
        reported = []
        for frame in range(6):
            dets = [det(x, y) for x, y in centers]
            reported = tracker.step(group(dets), frame)
        assert len(tracker.tracks) == 3
        assert len(reported) == 3
        got = sorted(snap.ref for snap in reported)
        want = sorted(reference_point((x, y, 30, 20)) for x, y in centers)
        for (gx, gy), (wx, wy) in zip(got, want):
            assert gx == pytest.approx(wx, abs=1e-9)
            assert gy == pytest.approx(wy, abs=1e-9)

    def test_flicker_smoothed(self):
        rng = np.random.default_rng(111)
        flicker_frames = set(rng.choice(np.arange(5, 100), size=10,
                                        replace=False))
        tracker = MomctTracker()
        car_reports = 0
        total_reports = 0
        for frame in range(100):
            cls = VAN if frame in flicker_frames else CAR
            reported = tracker.step(group([det(60, 40, cls=cls)]), frame)
            if frame >= 5:
                for snap in reported:
                    total_reports += 1
                    car_reports += snap.class_name == "car"
        assert total_reports >= 90
        assert car_reports / total_reports >= 0.95

    def test_single_flicker_never_flips_settled_class(self):
        tracker = MomctTracker()
        for frame in range(6):
            tracker.step(group([det(60, 40, cls=CAR)]), frame)
        reported = tracker.step(group([det(60, 40, cls=VAN)]), 6)
        assert reported[0].class_name == "car"

    def test_crossing_objects_keep_ids(self):
        tracker = MomctTracker()
        ids_for_a = set()
        ids_for_b = set()
        for frame in range(50):
            # a crosses (200, 200) around frame 20, b around frame 40,
            # so their boxes never overlap
            a_pos = (40.0 + frame * 8.0, 200.0)
            b_pos = (200.0, -120.0 + frame * 8.0)
            dets = [det(*a_pos), det(*b_pos)]
            for snap in tracker.step(group(dets), frame):
                da = np.hypot(snap.bbox[0] - a_pos[0], snap.bbox[1] - a_pos[1])
                db = np.hypot(snap.bbox[0] - b_pos[0], snap.bbox[1] - b_pos[1])
                (ids_for_a if da < db else ids_for_b).add(snap.track_id)
        assert len(ids_for_a) == 1
        assert len(ids_for_b) == 1
        assert ids_for_a != ids_for_b
        assert tracker.next_id == 3

    def test_occlusion_preserves_id(self):
        tracker = MomctTracker()
        seen_ids = set()
        for frame in range(30):
            if 10 <= frame < 18:
                dets = []
            else:
                dets = [det(100.0 + 2.0 * frame, 80.0)]
            for snap in tracker.step(group(dets), frame):
                seen_ids.add(snap.track_id)
        assert seen_ids == {1}
        assert len(tracker.tracks) == 1

    def test_track_dies_past_max_age(self):
        tracker = MomctTracker(max_age=3)
        tracker.step(group([det(50, 50)]), 0)
        for frame in range(1, 6):
            tracker.step(group([]), frame)
        assert tracker.tracks == []

    def test_ids_never_reused(self):
        tracker = MomctTracker(max_age=1, min_hits=1)
        tracker.step(group([det(50, 50)]), 0)
        tracker.step(group([]), 1)
        tracker.step(group([]), 2)
        assert tracker.tracks == []
        reported = tracker.step(group([det(50, 50)]), 3)
        assert reported[0].track_id == 2

    def test_trajectory_frames_increase(self):
        tracker = MomctTracker()
        frames = []
        for frame in range(12):
            dets = [] if frame in (4, 7) else [det(50.0 + frame, 50.0)]
            frames += [s.frame for s in tracker.step(group(dets), frame)
                       if s.track_id == 1]
        # confirmed from the third hit on, never reported on a missed frame
        assert frames == [2, 3, 5, 6, 8, 9, 10, 11]

    def test_objectness_gate(self):
        tracker = MomctTracker(objectness_min=0.25)
        tracker.step(group([det(50, 50, objectness=0.1)]), 0)
        assert tracker.tracks == []

    def test_category_components_bounded(self):
        tracker = MomctTracker()
        rng = np.random.default_rng(112)
        for frame in range(60):
            cls = int(rng.integers(0, N_CLASSES))
            tracker.step(group([det(60, 40, cls=cls)]), frame)
        (track,) = tracker.tracks
        state = track_state(track)
        cat = np.array(state.pop("category"))
        assert np.all(cat >= -0.5)
        assert np.all(cat <= 1.5)
        # and every other float of the filter stays finite
        assert all(map(math.isfinite, state.values()))

    def test_frame_at_or_before_the_last_raises(self):
        tracker = MomctTracker()
        for frame in range(5):
            tracker.step(group([det(100.0 + 2.0 * frame, 80.0)]), frame)

        def state():
            return (tracker.frame, tracker.next_id,
                    [track_state(t) for t in tracker.tracks])

        before = state()
        for frame in (4, 2):
            with pytest.raises(ValueError,
                               match=f"frame {frame} is not after frame 4"):
                tracker.step(group([]), frame)
            assert state() == before


class TestDetectionValidation:
    @pytest.mark.parametrize("row, message", [
        (det(10, 10, w=0.0), "bbox sides must be at least 1e-100, got "
                             "0.0x20.0"),
        (det(10, 10, objectness=1.5), "objectness must be in [0, 1], got "
                                      "1.5")], ids=["zero-width", "score-1.5"])
    def test_rejects_bad_boxes(self, row, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            group([row])

    @pytest.mark.parametrize("bbox", [
        (1e100, 0.0, 2.0, 2.0), (0.0, -1e100, 2.0, 2.0),
        (0.0, 0.0, 1e100, 2.0), (0.0, 0.0, 2.0, 9e-101),
        (0.0, 0.0, float("nan"), 2.0), (float("inf"), 0.0, 2.0, 2.0)])
    def test_rejects_boxes_out_of_bounds(self, bbox):
        with pytest.raises(ValueError, match="bbox "):
            group([det(*bbox)])

    def test_accepts_boxes_just_inside_bounds(self):
        for bbox in [(9.9e99, -9.9e99, 9.9e99, 1e-100),
                     (-9.9e99, 9.9e99, 1e-100, 9.9e99)]:
            assert group([det(*bbox)]).bbox.tolist() == [list(bbox)]

    @pytest.mark.parametrize("probs, message", [
        ((0.5,) * 4, "expected 11 class probabilities, got 4"),
        ((0.2,) * N_CLASSES, "class probabilities sum above 1"),
        ((float("nan"),) * N_CLASSES,
         "class probabilities must be in [0, 1]")],
        ids=["four-classes", "sum-2.2", "nan"])
    def test_rejects_bad_probs(self, probs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            DetectionGroup([(1, 1, 2, 2)], [0.5], [probs])

    def test_rejects_columns_of_other_shapes(self):
        for bbox, score, probs in [
                ([(1, 1, 2)], [0.5], [probs_for(CAR)]),
                ([(1, 1, 2, 2)], [0.5, 0.5], [probs_for(CAR)]),
                ([(1, 1, 2, 2)], 0.5, [probs_for(CAR)]),
                ([(1, 1, 2, 2)], [0.5], probs_for(CAR))]:
            with pytest.raises(ValueError, match="expected .n, 4. boxes"):
                DetectionGroup(bbox, score, probs)


def refusal(bbox, score, probs):
    """The detection rule for one row, check by check: the message of the
    first check the row fails, or None.  The probabilities are added left
    to right, as `sum` adds them up to Python 3.11."""
    if not all(abs(v) < 1e100 for v in bbox):
        return "bbox numbers must be finite and below 1e+100 in magnitude"
    if min(bbox[2], bbox[3]) < 1e-100:
        return f"bbox sides must be at least 1e-100, got {bbox[2]}x{bbox[3]}"
    if not 0.0 <= score <= 1.0:
        return f"objectness must be in [0, 1], got {score}"
    if any(not 0.0 <= p <= 1.0 for p in probs):
        return "class probabilities must be in [0, 1]"
    if functools.reduce(operator.add, probs) > 1.0 + 1e-6:
        return "class probabilities sum above 1"
    return None


# class probabilities whose sum lands on either side of the 1 + 1e-6 bound,
# and now and then within rounding of it
_probs = st.one_of(
    st.lists(st.floats(-0.01, 0.2), min_size=N_CLASSES, max_size=N_CLASSES),
    st.tuples(st.floats(0.0, 1.0), st.floats(-2e-6, 2e-6)).map(
        lambda t: [t[0], 1.0 - t[0] + t[1]] + [0.0] * (N_CLASSES - 2)))
_edge = st.sampled_from([0.0, -0.0, 1e-100, 9e-101, 9.9e99, 1e100, -1e100])
_rows = st.tuples(
    st.lists(st.one_of(_edge, st.floats(-50.0, 50.0)), min_size=4,
             max_size=4),
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(-0.1, 1.1)), _probs)


class TestDetectionRows:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(_rows, min_size=1, max_size=3))
    def test_group_refuses_the_first_row_the_rule_refuses(self, rows):
        refusals = [refusal(*row) for row in rows]
        want = next((r for r in refusals if r is not None), None)
        try:
            group(rows)
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == want

    def test_group_of_detections_holds_their_columns(self):
        dets = [det(10.0, 20.0, cls=VAN), det(30.0, 40.0, w=5.0,
                                              objectness=0.5)]
        got = group(dets)
        assert len(got) == 2 and len(group([])) == 0
        assert got.bbox.tolist() == [list(d[0]) for d in dets]
        assert got.objectness.tolist() == [0.9, 0.5]
        assert got.class_index.tolist() == [VAN, CAR]
        assert {c.dtype for c in (got.bbox, got.objectness,
                                  got.class_probs)} == {np.dtype(np.float64)}
        # the first of equal maxima
        tied = DetectionGroup([(1, 1, 2, 2)], [1.0],
                              [[0.0, 0.5, 0.5] + [0.0] * (N_CLASSES - 3)])
        assert tied.class_index.tolist() == [1]

    def test_slice_holds_its_rows_unjudged(self, monkeypatch):
        dets = [det(10.0, 20.0, cls=VAN), det(30.0, 40.0, w=5.0),
                det(50.0, 60.0, objectness=0.5)]
        whole = group(dets)
        monkeypatch.setattr(tracking, "_faults", None)  # never called
        part = whole[1:3]
        assert isinstance(part, DetectionGroup) and len(part) == 2
        assert part.bbox.tolist() == whole.bbox[1:].tolist()
        assert part.objectness.tolist() == [0.9, 0.5]
        assert part.class_index.tolist() == [CAR, CAR]
        with pytest.raises(TypeError, match="sliced by rows"):
            whole[0]


@st.composite
def _detection_groups(draw):
    """(frame, detections) groups at increasing frames, with gaps of up to
    twice `max_age`, from boxes on a coarse grid that often overlap."""
    max_age = draw(st.integers(1, 4))
    groups = []
    frame = draw(st.integers(0, 3))
    for _ in range(draw(st.integers(1, 12))):
        boxes = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 2),
                                        st.sampled_from([CAR, VAN, PED])),
                              min_size=1, max_size=4))
        groups.append((frame, [det(50.0 + 8.0 * i, 50.0 + 8.0 * j,
                                   cls=cls) for i, j, cls in boxes]))
        frame += draw(st.integers(1, 2 * max_age + 2))
    return max_age, draw(st.integers(1, 3)), groups


class TestFrameGaps:
    @settings(max_examples=150, deadline=None)
    @given(_detection_groups())
    def test_groups_alone_equal_every_frame_stepped(self, case):
        max_age, min_hits, groups = case
        sparse = MomctTracker(max_age=max_age, min_hits=min_hits)
        dense = MomctTracker(max_age=max_age, min_hits=min_hits)
        by_frame = dict(groups)
        for frame in range(groups[-1][0] + 1):
            snaps = dense.step(group(by_frame.get(frame, [])), frame)
            if frame in by_frame:
                assert sparse.step(group(by_frame[frame]), frame) == snaps
                assert sparse.next_id == dense.next_id
                assert ([t.id for t in sparse.tracks]
                        == [t.id for t in dense.tracks])

    def test_far_frame_steps_only_until_no_track_is_left(self):
        tracker = MomctTracker(max_age=3)
        tracker.step(group([det(50, 50)]), 0)
        assert tracker.step(group([det(50, 50)]), 10 ** 12) == []
        assert [t.id for t in tracker.tracks] == [2]
        assert tracker.frame == 10 ** 12


def test_boxes_of_opposite_shapes_keep_finite_predictions():
    # iou_min 0 matches a box 1e100 wide and tall with one 2e-100 tall, so
    # a track's area comes from one and its aspect from the other
    tracker = MomctTracker(iou_min=0.0, min_hits=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for frame in range(8):
            h = 9e99 if frame % 2 == 0 else 2e-100
            (snap,) = tracker.step(group([det(0.0, 0.0, w=9e99, h=h)]),
                                   frame)
            assert all(map(math.isfinite, snap.bbox)), snap.bbox
