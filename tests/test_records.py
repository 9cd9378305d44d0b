import copy
import functools
import itertools
import json
import math
import operator
import random
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from roadscene import records
from roadscene.analytics import (HEAT_KINDS, FrameStats, HeatMap, StateSets,
                                 bump)
from roadscene.config import CLASS_NAMES
from roadscene.errors import NonFiniteOutput, SchemaError
from roadscene.geometry import BEV, PERSPECTIVE, PixelPoint
from roadscene.records import (dump_rows, dump_track_rows, load_boundary,
                               load_calibration, load_detections,
                               load_heatmap, load_json, load_stats,
                               load_tracks, merge_stats, parse_detections,
                               parse_tracks, save_boundary, save_heatmap,
                               write_detections, write_states, write_stats,
                               write_tracks)
from roadscene.roadmodel import BoundarySet
from roadscene.tracking import DetectionGroup

N = 11  # class count


def dets(*cxs, cy=10.0):
    """A `DetectionGroup` of 4x6 car boxes centered at (cx, cy)."""
    probs = [0.0] * N
    probs[3] = 0.9
    return DetectionGroup([(cx, cy, 4.0, 6.0) for cx in cxs],
                          [0.8] * len(cxs), [probs] * len(cxs))


# --- detections -------------------------------------------------------------

def test_detections_round_trip(tmp_path):
    path = tmp_path / "d.jsonl"
    frames = [(0, dets(10.0, 30.0)), (1, dets(10.0))]
    write_detections(path, frames, fps=25.0)
    back = load_detections(path)
    assert [f for f, _ in back] == [0, 1]
    assert len(back[0][1]) == 2
    assert back[0][1].bbox.tolist() == [[10.0, 10.0, 4.0, 6.0],
                                        [30.0, 10.0, 4.0, 6.0]]
    assert back[1][1].objectness.tolist() == [0.8]
    assert back[1][1].class_index.tolist() == [3]


def test_detections_empty_file(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text("")
    assert load_detections(path) == []


# Left to right, the first row's probabilities add to exactly the bound,
# 1.000001, and the second's to the next float above it; their exact sums
# (`math.fsum`) lie on the other side of it.
_AT_BOUND = [0.22455136109258644, 0.11705794518247559, 0.3049360109465729,
             0.3534556827783651] + [0.0] * (N - 4)
_ABOVE_BOUND = [0.07671058565783391, 0.028812699540706848,
                0.06486019523796338, 0.17637024577131696,
                0.06024613432574723, 0.07694863265403924,
                0.09262285767445946, 0.09325947569671675,
                0.0909824669747734, 0.20453006655174952, 0.03465763991469331]
_BOUND = 1.0 + 1e-6


def _left_to_right(probs) -> float:
    return functools.reduce(operator.add, probs)


@pytest.mark.parametrize("probs, accepted", [(_AT_BOUND, True),
                                             (_ABOVE_BOUND, False)])
def test_detection_rule_adds_probabilities_left_to_right(probs, accepted):
    assert (_left_to_right(probs) <= _BOUND) == accepted
    assert (math.fsum(probs) <= _BOUND) != accepted
    row = {"frame": 0, "bbox": [1.0, 1.0, 2.0, 2.0], "score": 0.5,
           "probs": probs, "camera": 0}
    # the bulk path matches the row as written; the row spelled with
    # spaces goes through the general decoder; both are judged in a group
    assert re.fullmatch(records._DETECTION_LINE, records._dump_row(row))
    answers = []
    for judge, refusal in [
            (lambda: parse_detections(records._dump_row(row) + "\n"),
             SchemaError),
            (lambda: parse_detections(json.dumps(row) + "\n"), SchemaError),
            (lambda: DetectionGroup([row["bbox"]], [0.5], [probs]),
             ValueError)]:
        try:
            judge()
            answers.append(True)
        except refusal as exc:
            assert str(exc).endswith("class probabilities sum above 1")
            answers.append(False)
    assert answers == [accepted] * 3


def test_detections_bad_json_names_line():
    with pytest.raises(SchemaError, match="line 2"):
        parse_detections('{"frame": 0, "bbox": [1, 1, 2, 2], "score": 0.5, '
                         '"probs": ' + str([0.0] * N) + '}\n'
                         'not json\n')


def test_detections_missing_key_names_line():
    with pytest.raises(SchemaError, match="line 1.*bbox"):
        parse_detections('{"frame": 0, "score": 0.5}\n')


def test_detections_decreasing_frames_rejected():
    good = ('{"frame": %d, "bbox": [1, 1, 2, 2], "score": 0.5, '
            '"probs": ' + str([0.0] * N) + '}')
    with pytest.raises(SchemaError, match="line 2.*non-decreasing"):
        parse_detections((good % 5) + "\n" + (good % 4) + "\n")


def test_detections_bad_bbox_rejected():
    with pytest.raises(SchemaError, match="line 1"):
        parse_detections('{"frame": 0, "bbox": [1, 1, -2, 2], "score": 0.5, '
                         '"probs": ' + str([0.0] * N) + '}\n')


@pytest.mark.parametrize("value", [
    "NaN", "Infinity", "-Infinity", "1e400",
    # a JSON integer, which Python reads exactly and a float cannot hold
    pytest.param("1" + "0" * 400, id="integer-past-float-range")])
def test_detections_non_finite_rejected(value):
    row = ('{"frame": 0, "bbox": [1, 1, 2, 2], "score": 0.5, '
           '"probs": [%s' + ", 0.0" * (N - 1) + ']}')
    with pytest.raises(SchemaError, match="line 2"):
        parse_detections(row % 0.5 + "\n" + row % value + "\n")


def test_detections_extra_keys_ignored():
    row = ('{"frame": 0, "bbox": [1, 1, 2, 2], "score": 0.5, '
           '"probs": ' + str([0.0] * N) + ', "camera": 0, "t": 0.0}')
    frames = parse_detections(row + "\n")
    assert len(frames) == 1


# --- tracks -----------------------------------------------------------------

def track_row(frame: int, track_id: int, class_name: str, bbox, ref,
              bev, speed_mph, heading_deg=None, cuboid=None) -> dict:
    """A track row as a dict: the oracle whose `_dump_row` spelling
    `dump_track_rows` must give."""
    return {
        "frame": frame,
        "id": track_id,
        "class": class_name,
        "bbox": [float(v) for v in bbox],
        "ref": [float(v) for v in ref],
        "bev": [float(v) for v in bev],
        "speed_mph": float(speed_mph),
        "heading_deg": None if heading_deg is None else float(heading_deg),
        "cuboid": cuboid,
    }


def test_tracks_round_trip(tmp_path):
    path = tmp_path / "t.jsonl"
    rows = [
        track_row(0, 1, "car", (10, 20, 4, 6), (10, 23), bev=(5.0, 6.0),
                  speed_mph=12.5, heading_deg=90.0, cuboid=None),
        track_row(1, 1, "car", (11, 20, 4, 6), (11, 23), bev=(5.5, 6.0),
                  speed_mph=0.0),
    ]
    write_tracks(path, [dump_rows(rows[:1]), dump_rows(rows[1:])])
    # load_tracks returns only the fields segment and analyze read
    assert [json.loads(line) for line in path.read_text().splitlines()] \
        == rows
    table = load_tracks(path)
    assert len(table) == 2
    assert [(name, getattr(table, name).dtype) for name in
            ("frame", "ids", "class_index", "xy", "speed_mph")] \
        == [("frame", np.int64), ("ids", np.int64), ("class_index", np.int64),
            ("xy", np.float64), ("speed_mph", np.float64)]
    assert table.frame.tolist() == [0, 1]
    assert table.ids.tolist() == [1, 1]
    assert [CLASS_NAMES[c] for c in table.class_index] == ["car", "car"]
    assert table.pedestrian.tolist() == [False, False]
    assert table.xy.tolist() == [[5.0, 6.0], [5.5, 6.0]]
    assert table.speed_mph.tolist() == [12.5, 0.0]


def test_tracks_empty_file():
    table = parse_tracks("")
    assert len(table) == 0
    assert table.xy.shape == (0, 2)
    assert table.class_index.dtype == np.int64


def test_tracks_unknown_class_names_line():
    row = track_row(0, 1, "car", (1, 1, 2, 2), (1, 2), (1, 2), 0.0)
    row["class"] = "hovercraft"
    import json
    with pytest.raises(SchemaError, match="line 1.*hovercraft"):
        parse_tracks(json.dumps(row) + "\n")


def test_tracks_decreasing_frames_rejected():
    import json
    a = json.dumps(track_row(3, 1, "car", (1, 1, 2, 2), (1, 2),
                             (1, 2), 0.0))
    b = json.dumps(track_row(2, 1, "car", (1, 1, 2, 2), (1, 2),
                             (1, 2), 0.0))
    with pytest.raises(SchemaError, match="line 2"):
        parse_tracks(a + "\n" + b + "\n")


@pytest.mark.parametrize("track_id", [2 ** 63, -2 ** 63 - 1, 2 ** 70])
def test_tracks_id_must_fit_int64(track_id):
    import json
    row = json.dumps(track_row(0, track_id, "car", (1, 1, 2, 2), (1, 2),
                               (1, 2), 0.0))
    with pytest.raises(SchemaError, match="line 1: id must be a 64-bit"):
        parse_tracks(row + "\n")
    edge = 2 ** 63 - 1 if track_id > 0 else -2 ** 63
    row = json.dumps(track_row(0, edge, "car", (1, 1, 2, 2), (1, 2),
                               (1, 2), 0.0))
    assert parse_tracks(row + "\n").ids.tolist() == [edge]


_DETECTION = {"frame": 0, "bbox": [1.0, 1.0, 2.0, 2.0], "score": 0.5,
              "probs": [0.0] * N, "camera": 0}
_TRACK = track_row(0, 1, "car", (1, 1, 2, 2), (1, 2), (1, 2), 0.0)


@pytest.mark.parametrize("parse, row", [(parse_detections, _DETECTION),
                                        (parse_tracks, _TRACK)])
@pytest.mark.parametrize("frame", [2 ** 63, 2 ** 70, -1, True, 1.0])
def test_frames_must_fit_int64(parse, row, frame):
    text = "".join(records._dump_row(dict(row, frame=f)) + "\n"
                   for f in (0, frame))
    with pytest.raises(SchemaError, match=r"^line 2: frame must be a "
                       r"non-negative integer below 2\*\*63, got "):
        parse(text)


@pytest.mark.parametrize("parse, row", [(parse_detections, _DETECTION),
                                        (parse_tracks, _TRACK)])
def test_frames_of_19_digits_below_2_63_load(parse, row):
    edge = 2 ** 63 - 1
    result = parse(records._dump_row(dict(row, frame=edge)) + "\n")
    frames = result.frame.tolist() if parse is parse_tracks \
        else [f for f, _ in result]
    assert frames == [edge]


def test_tracks_id_once_per_frame():
    import json
    a = json.dumps(track_row(4, 7, "car", (1, 1, 2, 2), (1, 2),
                             (1, 2), 0.0))
    b = json.dumps(track_row(4, 7, "bus", (5, 1, 2, 2), (5, 2),
                             (5, 2), 0.0))
    with pytest.raises(SchemaError, match="line 2: id 7 appears twice"):
        parse_tracks(a + "\n" + b + "\n")
    c = json.dumps(track_row(5, 7, "car", (1, 1, 2, 2), (1, 2),
                             (1, 2), 0.0))
    assert len(parse_tracks(a + "\n" + c + "\n")) == 2


@pytest.mark.parametrize("value", ["NaN", "-Infinity", "1e999"])
def test_tracks_non_finite_speed_rejected(value):
    import json
    row = json.dumps(track_row(0, 1, "car", (1, 1, 2, 2), (1, 2),
                               bev=(1.0, 2.0), speed_mph=7.0))
    with pytest.raises(SchemaError, match="line 1"):
        parse_tracks(row.replace("7.0", value) + "\n")


def test_json_file_non_finite_rejected(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"g": [[1, 0, 0], [0, 1, 0], [0, 0, NaN]]}\n')
    with pytest.raises(SchemaError, match="NaN"):
        load_json(path)


@pytest.mark.parametrize("g", [
    [[1, 2, 3], [2, 4, 6], [0, 0, 1]],
    [[1, 0, 0], [0, 1e-13, 0], [0, 0, 1]],
    [[1e300, 1e300, 1e300]] * 3,
])
def test_calibration_g_must_be_invertible(tmp_path, g):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"g": g}))
    with pytest.raises(SchemaError, match="invertible homography"):
        load_calibration(path)


def test_tracks_writer_is_deterministic(tmp_path):
    rows = [track_row(0, 1, "bus", (1.5, 2.5, 3.0, 4.0), (1.5, 4.5),
                      bev=(1.5, 4.5), speed_mph=3.25)]
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_tracks(p1, [dump_rows(rows)])
    write_tracks(p2, [dump_rows(rows)])
    assert p1.read_bytes() == p2.read_bytes()


def _edge_track_rows() -> list[list]:
    """`dump_track_rows` rows, one per class, of extreme ints and floats,
    with null headings and null cuboids among them."""
    floats = itertools.cycle([-0.0, 5e-324, 1e16, 1.7976931348623157e308,
                              -5e-324, -1e16, -1.7976931348623157e308, 0.1])

    def take(n):
        return [next(floats) for _ in range(n)]

    return [[10 ** 18 if k % 2 else 0, (-1) ** k * (2 ** 63 - 1), name,
             take(4), take(2), take(2), next(floats),
             None if k % 2 else next(floats),
             None if k % 3 == 0 else take(16)]
            for k, name in enumerate(CLASS_NAMES)]


def _edge_track_row(row) -> dict:
    """`track_row` of a `dump_track_rows` row, whose cuboid is 16 floats."""
    *fields, cuboid = row
    return track_row(*fields, cuboid=None if cuboid is None else [
        cuboid[i:i + 2] for i in range(0, 16, 2)])


def test_track_template_spells_rows_as_dump_row():
    rows = _edge_track_rows()
    assert {row[7] is None for row in rows} == {True, False}
    assert {row[8] is None for row in rows} == {True, False}
    assert dump_track_rows(rows) == dump_rows(list(map(_edge_track_row,
                                                       rows)))


# a float of a slot whose text the template may share with its twin's:
# each other one, equal ones, the signed zeros whose reprs differ, and NaN
_TWINS = [0.0, -0.0, 2.5, -2.5, 1e-300, math.nan]


@pytest.mark.parametrize("twin", _TWINS)
@pytest.mark.parametrize("value", _TWINS)
def test_track_template_spells_paired_floats_as_dump_row(value, twin):
    """`ref`'s x pairs with the bbox's, and each roof corner's x with its
    floor corner's: the row is spelled alike, or refused alike, whatever
    the pair holds."""
    row = next(r for r in _edge_track_rows() if None not in r[7:])
    row[3][0], row[4][0] = twin, value
    for corner in range(4):
        row[8][2 * corner], row[8][2 * corner + 8] = twin, value
    try:
        want = dump_rows([_edge_track_row(row)])
    except NonFiniteOutput:
        with pytest.raises(NonFiniteOutput):
            dump_track_rows([row])
    else:
        assert dump_track_rows([row]) == want


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_track_template_refuses_non_finite_floats(tmp_path, bad):
    row = next(r for r in _edge_track_rows() if None not in r[7:])
    # every float: bbox, ref, bev, speed, heading, then the cuboid's
    paths = ([(field, i) for field, n in ((3, 4), (4, 2), (5, 2))
              for i in range(n)] + [(6,), (7,)]
             + [(8, i) for i in range(16)])
    out = tmp_path / "tracks.jsonl"
    for path in paths:
        broken = copy.deepcopy(row)
        _set(broken, path, bad)
        with pytest.raises(NonFiniteOutput):
            write_tracks(out, [dump_track_rows([broken])])
        assert not out.exists()


# --- the row readers' two paths --------------------------------------------

def _two_digit_exponent(lo, hi):
    """Floats in [lo, hi] whose repr has at most a two-digit exponent, the
    spelling the fast path takes; smaller magnitudes become a signed 0."""
    return st.floats(lo, hi).map(lambda v: v * 0 if abs(v) < 1e-99 else v)


_FLOAT = _two_digit_exponent(-9.9e99, 9.9e99)
_POSITIVE = _two_digit_exponent(1e-99, 9.9e99)


def _pairs(n):
    return st.lists(st.tuples(_FLOAT, _FLOAT).map(list), min_size=n,
                    max_size=n)


@st.composite
def _track_rows(draw):
    """Track rows as `track` writes them: frames non-decreasing from 1, ids
    of at most 18 digits and unique within a frame."""
    rows = []
    frame = draw(st.integers(1, 3))
    for _ in range(draw(st.integers(1, 3))):
        ids = draw(st.lists(st.integers(-10 ** 18 + 1, 10 ** 18 - 1),
                            min_size=1, max_size=2, unique=True))
        for track_id in ids:
            rows.append(track_row(
                frame, track_id, draw(st.sampled_from(CLASS_NAMES)),
                draw(st.tuples(*[_FLOAT] * 4)),
                draw(st.tuples(_FLOAT, _FLOAT)),
                bev=draw(st.tuples(_FLOAT, _FLOAT)),
                speed_mph=draw(_FLOAT),
                heading_deg=draw(st.none() | _FLOAT),
                cuboid=draw(st.none() | _pairs(8))))
        frame += draw(st.integers(1, 2))
    return rows


# class probabilities whose sum, added left to right, lies near the bound
_NEAR_BOUND = st.one_of(
    st.sampled_from([_AT_BOUND, _ABOVE_BOUND]),
    st.tuples(st.floats(0.001, 0.999), st.floats(-2e-6, 2e-6)).map(
        lambda t: [t[0], 1.0 - t[0] + t[1]] + [0.0] * (N - 2)))


@st.composite
def _detection_rows(draw):
    """Detection rows as `write_detections` writes them, frames from 1,
    each accepted; some sum their probabilities to near the bound."""
    rows = []
    frame = draw(st.integers(1, 3))
    fps = draw(st.sampled_from([None, 25.0, 30.0]))
    for _ in range(draw(st.integers(1, 3))):
        for _ in range(draw(st.integers(1, 2))):
            rows.append({
                "frame": frame,
                "bbox": [draw(_FLOAT), draw(_FLOAT), draw(_POSITIVE),
                         draw(_POSITIVE)],
                "score": draw(_two_digit_exponent(0, 1)),
                "probs": draw(st.one_of(
                    st.lists(_two_digit_exponent(0, 0.09), min_size=N,
                             max_size=N),
                    _NEAR_BOUND.filter(
                        lambda p: _left_to_right(p) <= _BOUND))),
                "camera": 0, **({} if fps is None else {"t": frame / fps})})
        frame += draw(st.integers(0, 2))
    return rows


def _float_paths(node, path=()):
    """Paths to the float leaves of a decoded row."""
    if isinstance(node, float):
        return [path]
    items = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    return [p for key, value in items for p in _float_paths(value,
                                                           path + (key,))]


def _set(row, path, value):
    for key in path[:-1]:
        row = row[key]
    row[path[-1]] = value


_ROW_MUTATIONS = ["none", "space", "key order", "int", "3-digit exponent",
                  "1e999", "19 digits", "decreasing frame", "blank line",
                  "crlf"]
_TRACK_MUTATIONS = _ROW_MUTATIONS + ["unknown class", "repeated id",
                                      "null bev", "null speed"]
_RULE_MUTATIONS = ["negative width", "score above 1", "probs sum 1.1",
                   "probs just above the bound"]
_DETECTION_MUTATIONS = _ROW_MUTATIONS + ["camera 1"] + _RULE_MUTATIONS


def _mutate(rows, mutation, data):
    """(text, line number of the one mutated line or None) of the rows
    spelled as their writer spells them, with `mutation` applied."""
    lines = dump_rows(rows).splitlines()
    k = data.draw(st.integers(0, len(lines) - 1))
    row = json.loads(lines[k])
    raw = None
    if mutation == "space":
        at = data.draw(st.integers(0, len(lines[k])))
        lines[k] = lines[k][:at] + " " + lines[k][at:]
    elif mutation == "key order":
        lines[k] = json.dumps(dict(reversed(row.items())),
                              separators=(",", ":"))
    elif mutation in ("int", "3-digit exponent", "1e999"):
        path = data.draw(st.sampled_from(_float_paths(row)))
        value = {"int": data.draw(st.integers(-1000, 1000)),
                 "3-digit exponent": data.draw(st.sampled_from(
                     [1.5e-150, -2e-300, 3e+200, 1e+100])),
                 "1e999": "RAW"}[mutation]
        _set(row, path, value)
        raw = "1e999" if mutation == "1e999" else None
    elif mutation == "19 digits" and "id" in row:
        sign = data.draw(st.sampled_from([1, -1]))
        row["id"] = sign * data.draw(st.integers(10 ** 18, 2 ** 64))
    elif mutation == "19 digits":  # on the last line, as frames only grow
        k = len(lines) - 1
        row = json.loads(lines[k])
        row["frame"] = data.draw(st.integers(10 ** 18, 2 ** 64))
    elif mutation == "unknown class":
        row["class"] = "hovercraft"
    elif mutation in ("null bev", "null speed"):
        row[{"null bev": "bev", "null speed": "speed_mph"}[mutation]] = None
    elif mutation == "camera 1":
        row["camera"] = 1
    elif mutation == "negative width":
        row["bbox"][2] = -row["bbox"][2] or -1.0
    elif mutation == "score above 1":
        row["score"] = 1.5
    elif mutation == "probs sum 1.1":
        row["probs"] = [0.1] * len(row["probs"])
    elif mutation == "probs just above the bound":
        row["probs"] = data.draw(_NEAR_BOUND.filter(
            lambda p: _left_to_right(p) > _BOUND))
    elif mutation == "repeated id":
        lines.insert(k + 1, lines[k])
        return "\n".join(lines) + "\n", k + 2
    elif mutation == "decreasing frame":
        row["frame"] -= 1  # frames start at 1
        lines.insert(k + 1, records._dump_row(row))
        return "\n".join(lines) + "\n", k + 2
    elif mutation == "blank line":
        lines.insert(k, data.draw(st.sampled_from(["", "  ", "\t"])))
        return "\n".join(lines) + "\n", None
    if mutation == "crlf":
        return "\r\n".join(lines) + "\r\n", None
    if mutation == "none":
        return "\n".join(lines) + "\n", None
    if mutation not in ("space", "key order"):
        lines[k] = records._dump_row(row)
        if raw is not None:
            lines[k] = lines[k].replace('"RAW"', raw)
    return "\n".join(lines) + "\n", k + 1


def _plain(result) -> str:
    """A parse result as text: a `TrackTable`'s columns, or each (frame,
    `DetectionGroup`) pair's, as dtypes and lists."""
    if isinstance(result, records.TrackTable):
        return repr([(column.dtype.str, column.tolist()) for column in (
            result.frame, result.ids, result.class_index, result.xy,
            result.speed_mph)])

    def plain(item):
        if isinstance(item, tuple):
            frame, group = item
            return (frame, group.bbox.tolist(), group.objectness.tolist(),
                    group.class_index.tolist())
        return item
    return repr([plain(item) for item in result])


def _read(parse, general: str, text: str):
    """(result or error text, line numbers the general path decoded)."""
    decoded = []
    real = getattr(records, general)

    def spy(line, lineno, *state):
        decoded.append(lineno)
        return real(line, lineno, *state)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(records, general, spy)
        try:
            return _plain(parse(text)), decoded
        except SchemaError as exc:
            return ("error", str(exc)), decoded


def _fast_equals_general(parse, pattern, general, text, fast):
    """The outcome of `parse` on `text`, which takes the fast path, decoding
    no line, when `fast`, and else decodes with `general` every line up to
    the first it refuses; either way the outcome is the one it gives when
    `pattern`, the fast path's, matches no line."""
    outcome, seen = _read(parse, general, text)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(records, pattern, r"(?!)")
        forced, every = _read(parse, general, text)
    assert forced == outcome
    numbered = [k for k, line in enumerate(text.splitlines(), start=1)
                if line.strip()]
    assert every == numbered[:len(every)]
    if outcome[0] != "error":
        assert every == numbered
    assert seen == ([] if fast else every)
    return outcome


@settings(max_examples=400, deadline=None)
@given(_track_rows(), st.sampled_from(_TRACK_MUTATIONS), st.data())
def test_tracks_fast_reader_equals_general_decoder(rows, mutation, data):
    text, mutated = _mutate(rows, mutation, data)
    # any mutation but none leaves the fast path
    outcome = _fast_equals_general(parse_tracks, "_TRACK_LINE", "_json_track",
                                   text, mutation == "none")
    if mutation in ("decreasing frame", "repeated id"):
        # the general decoder names the row's own line
        lines = text.splitlines()
        row, before = (json.loads(lines[mutated - i]) for i in (1, 2))
        assert outcome == ("error", f"line {mutated}: " + (
            f"frame {row['frame']} after frame {before['frame']}; frames "
            f"must be non-decreasing" if mutation == "decreasing frame"
            else f"id {row['id']} appears twice in frame {row['frame']}"))


@settings(max_examples=400, deadline=None)
@given(_detection_rows(), st.sampled_from(_DETECTION_MUTATIONS), st.data())
def test_detections_fast_reader_equals_general_decoder(rows, mutation, data):
    text, mutated = _mutate(rows, mutation, data)
    # the fast path takes a row that breaks only the rule, which judges
    # every row; any other mutation leaves it
    _fast_equals_general(parse_detections, "_DETECTION_LINE",
                         "_json_detection", text,
                         mutation in ["none"] + _RULE_MUTATIONS)


# Each file below lacks its final newline, and the line at fault is in the
# middle: a reader that counted only newlines would see one line fewer, take
# its one-pass path over the other lines and drop that one unread.

def _written(parse, frames):
    """Lines of one row per frame in `frames`, as the writer spells them:
    tracks when `parse` is `parse_tracks`, else detections."""
    if parse is parse_tracks:
        rows = [dict(_TRACK, frame=f, id=k + 1, bev=[0.5 * k, 2.0],
                     speed_mph=0.25 * k) for k, f in enumerate(frames)]
    else:
        rows = [dict(_DETECTION, frame=f, score=0.125 * k)
                for k, f in enumerate(frames)]
    return dump_rows(rows).splitlines()


@pytest.mark.parametrize("parse", [parse_tracks, parse_detections])
@pytest.mark.parametrize("garbage, message", [
    ('{"x":1}', "missing key 'frame'"), ("garbage", "invalid JSON")])
def test_garbage_middle_line_is_named_without_a_final_newline(
        parse, garbage, message):
    lines = _written(parse, [0, 1, 2, 3])
    lines[2] = garbage
    with pytest.raises(SchemaError,
                       match="^" + re.escape(f"line 3: {message}")):
        parse("\n".join(lines))


@pytest.mark.parametrize("parse", [parse_tracks, parse_detections])
def test_frame_going_back_is_named_in_any_spelling(parse):
    for spell in (records._dump_row, json.dumps):
        lines = _written(parse, [0, 2, 2, 3])
        lines[2] = spell(dict(json.loads(lines[2]), frame=1))
        with pytest.raises(SchemaError, match="^" + re.escape(
                "line 3: frame 1 after frame 2; frames must be "
                "non-decreasing")):
            parse("\n".join(lines))


def test_id_repeated_in_its_frame_is_named_in_any_spelling():
    for spell in (records._dump_row, json.dumps):
        lines = _written(parse_tracks, [0, 1, 1, 2])
        lines[2] = spell(dict(json.loads(lines[2]), id=2))
        with pytest.raises(SchemaError, match="^" + re.escape(
                "line 3: id 2 appears twice in frame 1")):
            parse_tracks("\n".join(lines))


def test_one_line_in_another_spelling_reads_as_the_written_one():
    lines = _written(parse_tracks, [0, 1, 1, 2, 5])
    respelled = lines.copy()
    respelled[2] = json.dumps(json.loads(lines[2]))
    assert respelled[2] != lines[2]
    table = _plain(parse_tracks("\n".join(lines) + "\n"))
    assert len(parse_tracks("\n".join(respelled))) == len(lines)
    assert _plain(parse_tracks("\n".join(respelled))) == table


def test_detections_judged_once(tmp_path, monkeypatch):
    from roadscene import tracking
    frames = [(0, dets(10.0, 30.0)), (2, dets(10.0)), (3, dets(5.0, 9.0))]
    path = tmp_path / "d.jsonl"
    write_detections(path, frames)
    judged = []  # the row count of each call of the detection rule
    real = tracking._faults
    monkeypatch.setattr(tracking, "_faults", lambda *columns: judged.append(
        len(columns[0])) or real(*columns))
    back = load_detections(path)
    assert judged == [5]
    assert [(f, g.bbox.tolist()) for f, g in back] \
        == [(f, g.bbox.tolist()) for f, g in frames]


@pytest.mark.parametrize("first", ["rule", "spaced rule", "json"])
def test_detections_first_fault_named_whichever_path_finds_it(first):
    good = records._dump_row(_DETECTION)
    faults = {"rule": records._dump_row(dict(_DETECTION, score=1.5)),
              "spaced rule": json.dumps(dict(_DETECTION, score=1.5)),
              "json": good[:-1]}
    later = faults["json" if "rule" in first else "rule"]
    text = "\n".join([good, faults[first], good, later, good]) + "\n"
    message = "line 2: " + ("invalid JSON: " if first == "json" else
                            "objectness must be in [0, 1], got 1.5")
    with pytest.raises(SchemaError, match="^" + re.escape(message)):
        parse_detections(text)


def test_states_template_spells_rows_as_dump_row(tmp_path):
    ids = np.array([2 ** 63 - 1, 0, -2 ** 63])
    every, none = np.ones(3, dtype=bool), np.zeros(3, dtype=bool)
    frames = [StateSets(0, ids, every, every, every, none),
              StateSets(10 ** 12, ids, none, every, every, every)]
    path = tmp_path / "states.jsonl"
    write_states(path, frames)
    rows = [{"frame": s.frame, "state": label, "id": i} for s in frames
            for label in ("parking", "speeding", "collision_risk",
                          "congestion")
            for i in sorted(s.ids[getattr(s, label)].tolist())]
    assert len(rows) == 18
    assert path.read_text() == dump_rows(rows)


# --- stats ------------------------------------------------------------------

def test_stats_round_trip(tmp_path):
    path = tmp_path / "s.csv"
    stats = [FrameStats(0, 2, 1, 12.5), FrameStats(1, 0, 0, None)]
    write_stats(path, stats)
    back = load_stats(path)
    assert back == stats


def test_stats_header_checked(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("a,b\n")
    with pytest.raises(SchemaError, match=r"s\.csv: line 1: expected header "):
        load_stats(path)


@pytest.mark.parametrize("avg", ["nan", "inf", "-Infinity"])
def test_stats_non_finite_rejected(tmp_path, avg):
    path = tmp_path / "s.csv"
    path.write_text("frame,vehicles,pedestrians,avg_speed_mph\n"
                    f"0,1,0,{avg}\n")
    with pytest.raises(SchemaError, match="line 2.*finite"):
        load_stats(path)


@pytest.mark.parametrize("stats", [
    [FrameStats(-3, 0, 0, 1e-05), FrameStats(7, 2, 1, 1.5e+16)],
    [FrameStats(0, 12, 0, 0.0), FrameStats(10 ** 20, 0, 3, None)],
])
def test_stats_round_trip_written_spellings(tmp_path, stats):
    path = tmp_path / "s.csv"
    write_stats(path, stats)
    assert load_stats(path) == stats


@pytest.mark.parametrize("row", [
    "1_0,2,3,1.5", "+0,1,0,", " 0,1,0,", "0, 2,3,1.5", "0,+3,1,",
    "0,-1,0,", "0,1,2_0,", "0,1,0,1_5.0", "0,1,0, 1.5", "0,1,0,+1.5",
    "0,1,0,1.5 ", "0,1,0,0x10", "0,1,0,1e999", "\u0663,1,0,", "0,1,0",
    "0,1,0,1.5,", "0.0,1,0,", "0,1," + "1" * 5000 + ",",
    "007,1,0,2.50", "-0,1,0,", "3,1,0,1E5", "4,1,0,1.", "5,01,0,.5",
])
def test_stats_accept_only_the_written_spelling(tmp_path, row):
    path = tmp_path / "s.csv"
    path.write_text("frame,vehicles,pedestrians,avg_speed_mph\n"
                    f"0,1,0,2.5\n{row}\n")
    with pytest.raises(SchemaError, match="line 3"):
        load_stats(path)


def test_stats_merge_sorts_disjoint_shards():
    a = [FrameStats(0, 1, 0, 5.0), FrameStats(1, 1, 0, 5.0)]
    b = [FrameStats(2, 1, 0, 5.0)]
    merged = merge_stats([b, a])
    assert [s.frame for s in merged] == [0, 1, 2]


def test_stats_merge_rejects_overlap():
    a = [FrameStats(0, 1, 0, 5.0)]
    with pytest.raises(SchemaError, match="duplicate"):
        merge_stats([a, a])


# --- heat maps --------------------------------------------------------------

def test_merge_heatmaps_refuses_an_empty_input():
    with pytest.raises(ValueError, match="at least one heat map path"):
        records.merge_heatmaps([])


def test_heatmap_round_trip(tmp_path):
    heat = HeatMap((8, 9), "vehicle")
    bump(heat, PixelPoint.bev(3.0, 4.0))
    bump(heat, PixelPoint.bev(0.0, 0.0))
    path = tmp_path / "h.json"
    save_heatmap(path, heat)
    text = path.read_text()
    assert text.endswith("}\n") and text.count("\n") == 1
    back = load_heatmap(path)
    assert back.kind == "vehicle"
    assert back.shape == (8, 9)
    assert back.events == 2
    assert np.array_equal(back.units, heat.units)


# `load_heatmap`'s refusal of any bytes that `save_heatmap` would not write
_NOT_WRITTEN = r"h\.json: not a heat map as save_heatmap writes it: "


def test_heatmap_shape_mismatch_rejected(tmp_path):
    path = tmp_path / "h.json"
    path.write_text('{"events":0,"kind":"vehicle","shape":[2,2],'
                    '"units":[[0,0,0],[0,0,0]]}\n')
    with pytest.raises(SchemaError, match=_NOT_WRITTEN):
        load_heatmap(path)


# `fault` names what is wrong; only a mass that does not match the events
# gets past the writer's spelling to its own message
@pytest.mark.parametrize("events, units, fault", [
    (0, "[[-5, 1.7]]", "integers"),
    (1, "[[144.0, 0]]", "integers"),
    (1, "[[true, 143]]", "integers"),
    (0, "[[-1, 1]]", "non-negative"),
    (1, "[[100, 43]]", "sum"),
    (1, "[[144, 144]]", "sum"),
    (0, "[[0], [0, 0]]", "units"),
    (0, "[[0, 0]], \"shape\": 2", "shape"),
])
def test_heatmap_invariants_checked(tmp_path, events, units, fault):
    path = tmp_path / "h.json"
    path.write_text('{"events":%d,"kind":"vehicle","shape":[1,2],'
                    '"units":%s}\n' % (events, units.replace(" ", "")))
    match = r"h\.json: units sum to " if fault == "sum" else _NOT_WRITTEN
    with pytest.raises(SchemaError, match=match):
        load_heatmap(path)


def test_heatmap_unknown_kind_rejected(tmp_path):
    path = tmp_path / "h.json"
    path.write_text('{"events":0,"kind":"rain","shape":[1,1],"units":[[0]]}\n')
    with pytest.raises(SchemaError, match=_NOT_WRITTEN):
        load_heatmap(path)


@pytest.mark.parametrize("separator", [",", ", "])
def test_heatmap_sum_does_not_wrap_int64(tmp_path, separator):
    # four cells of 2**62 sum to 2**64, which int64 would wrap to 0; with
    # spaces the file is refused before anything is summed
    path = tmp_path / "h.json"
    path.write_text('{"events":0,"kind":"vehicle","shape":[1,4],'
                    '"units":[[%s]]}\n' % separator.join([str(2 ** 62)] * 4))
    match = (r"h\.json: units sum to 18446744073709551616, not 144 x 0 "
             r"events" if separator == "," else _NOT_WRITTEN)
    with pytest.raises(SchemaError, match=match):
        load_heatmap(path)


@pytest.mark.parametrize("tail", [b"x", b"\n", b" "])
def test_heatmap_bytes_after_the_map_rejected(tmp_path, tail):
    path = tmp_path / "h.json"
    save_heatmap(path, HeatMap((2, 3), "vehicle"))
    path.write_bytes(path.read_bytes() + tail)
    with pytest.raises(SchemaError, match=_NOT_WRITTEN):
        load_heatmap(path)


@pytest.mark.parametrize("shape", ["[true, 2.0]", "[1, 2.0]", "[true, 2]",
                                   "[1.0, 2]"])
def test_heatmap_shape_must_be_two_positive_ints(tmp_path, shape):
    path = tmp_path / "h.json"
    path.write_text('{"events":0,"kind":"vehicle","shape":%s,'
                    '"units":[[0,0]]}\n' % shape.replace(" ", ""))
    with pytest.raises(SchemaError, match=_NOT_WRITTEN):
        load_heatmap(path)


def _json_spelling(heat: HeatMap, **changes) -> str:
    """The heat map as `json.dumps` spells it, compact and sorted."""
    doc = {"kind": heat.kind, "shape": list(heat.shape),
           "events": heat.events, "units": heat.units.tolist()}
    doc.update(changes)
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


@st.composite
def _heat_maps(draw, shapes):
    """Sparse to dense maps with cells up to 2**62; events is arbitrary."""
    h, w = draw(shapes)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    top = draw(st.sampled_from([1, 143, 2 ** 31, 2 ** 62]))
    density = draw(st.sampled_from([0.0, 0.002, 0.2, 1.0]))
    units = rng.integers(0, top, size=(h, w), endpoint=True)
    units[rng.random((h, w)) >= density] = 0
    return HeatMap.from_units(units, draw(st.integers(0, 2 ** 40)),
                              draw(st.sampled_from(HEAT_KINDS)))


_N = st.integers(2, 40)
_WRITER_SHAPES = st.one_of(
    st.just((1, 1)), st.tuples(st.just(1), _N), st.tuples(_N, st.just(1)),
    st.just((600, 800)), st.tuples(_N, _N))


@settings(max_examples=60, deadline=None)
@given(_heat_maps(_WRITER_SHAPES))
def test_heatmap_writer_bytes_equal_json_dumps(tmp_path_factory, heat):
    path = tmp_path_factory.mktemp("heat") / "h.json"
    save_heatmap(path, heat)
    assert path.read_text(encoding="utf-8") == _json_spelling(heat)


def _with_mass(heat: HeatMap) -> HeatMap:
    """`heat` with one cell raised so that the units sum to 144 x events."""
    units = heat.units
    units[0, 0] += -sum(units.ravel().tolist()) % 144
    return HeatMap.from_units(units, sum(units.ravel().tolist()) // 144,
                              heat.kind)


@pytest.mark.parametrize("density", [1.0, 0.3])
def test_heatmap_dense_maps_load_back(tmp_path, density):
    rng = np.random.default_rng(5)
    units = rng.integers(1, 10 ** 6, (600, 800))
    units[rng.random((600, 800)) >= density] = 0
    heat = _with_mass(HeatMap.from_units(units, 0, "vehicle"))
    path = tmp_path / "h.json"
    save_heatmap(path, heat)
    back = load_heatmap(path)
    assert (back.kind, back.events) == (heat.kind, heat.events)
    assert np.array_equal(back.units, heat.units)


def _full_map() -> HeatMap:
    """A 600 x 800 map of cells near 2**63: over 10**22 events."""
    return _with_mass(HeatMap.from_units(
        np.full((600, 800), 2 ** 63 - 144), 0, "vehicle"))


def _respell(text: str, mutation: str, pick: int) -> str:
    """`text`, a map that `save_heatmap` wrote, in another spelling; `pick`
    chooses where."""
    if mutation == "space":
        at = pick % len(text)
        return text[:at] + " " + text[at:]
    doc = json.loads(text)
    if mutation == "key order":
        return json.dumps(dict(reversed(doc.items())),
                          separators=(",", ":")) + "\n"
    if mutation == "indent":
        return json.dumps(doc, sort_keys=True, indent=pick % 3) + "\n"
    rows = doc["units"]
    i, j = pick % len(rows), pick // len(rows) % len(rows[0])
    if mutation == "extra key":
        doc["extra"] = 1
    elif mutation == "short row":
        del rows[i][-1]
    elif mutation == "above 2**63":
        rows[i][j] = 2 ** 63 + pick
    else:  # a token the writer never spells in a cell
        rows[i][j] = "RAW"
    spelled = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    return spelled.replace('"RAW"', mutation)


_RESPELLINGS = ["space", "key order", "indent", "extra key", "short row",
                "above 2**63", "true", "1.0", "-1"]


@settings(max_examples=60, deadline=None)
@example(heat=_full_map(), mutation="space", pick=2 ** 40 + 7)
@given(heat=_heat_maps(_WRITER_SHAPES).map(_with_mass),
       mutation=st.sampled_from(_RESPELLINGS),
       pick=st.integers(0, 2 ** 64))
def test_heatmap_reader_takes_exactly_the_writer_bytes(
        tmp_path_factory, heat, mutation, pick):
    """Every map `save_heatmap` writes loads back, 1 x 1 to 600 x 800 and
    past 10**20 events; every other spelling is refused, warning-free."""
    path = tmp_path_factory.mktemp("heat") / "h.json"
    save_heatmap(path, heat)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = load_heatmap(path)
        assert (back.kind, back.events) == (heat.kind, heat.events)
        assert np.array_equal(back.units, heat.units)
        # one event more breaks only the mass
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace(f'"events":{heat.events},',
                                     f'"events":{heat.events + 1},', 1))
        with pytest.raises(SchemaError, match=r"h\.json: units sum to "):
            load_heatmap(path)
        path.write_text(_respell(text, mutation, pick), encoding="utf-8")
        with pytest.raises(SchemaError, match=_NOT_WRITTEN):
            load_heatmap(path)


# cells the writer spells, and cells it never does
_CELLS = st.one_of(
    st.just("0"), st.integers(1, 2 ** 63 - 1).map(str),
    st.sampled_from(["", "00", "05", "+5", "-5", " 5", "5 ", "5.0", "1e5",
                     "1_0", str(2 ** 63), "1" * 20, "0x5", "NaN"]))


def _writer_cells(cells: list[str]):
    """The nonzero (columns, values) of a row whose cells the writer
    spells, reckoned cell by cell, or None."""
    if not all(re.fullmatch(r"0|[1-9][0-9]{0,18}", c) for c in cells):
        return None
    values = [int(c) for c in cells]
    if max(values) >= 2 ** 63 or not any(values):
        return None
    return ([j for j, v in enumerate(values) if v],
            [v for v in values if v])


@settings(max_examples=400, deadline=None)
# a leading zero and an empty cell in one mostly zero row: the width holds
@example(cells=["05", ""], zeros=20, width=0, rnd=random.Random(0))
# past the digits that int() takes
@example(cells=["9" * 5000], zeros=20, width=0, rnd=random.Random(0))
@given(cells=st.lists(_CELLS, min_size=1, max_size=12),
       zeros=st.integers(0, 40), width=st.integers(-1, 1),
       rnd=st.randoms(use_true_random=False))
def test_heat_row_reader_takes_exactly_the_writer_cells(cells, zeros, width,
                                                         rnd):
    """A row's text yields its nonzero cells only when every cell is
    spelled as the writer spells it, mostly zero or not; `width` off by
    one refuses any row."""
    cells = cells + ["0"] * zeros
    rnd.shuffle(cells)
    text = ",".join(cells).encode()
    want = _writer_cells(cells) if width == 0 else None
    assert records._row_cells(text, len(cells) + width) == want


# --- boundary ---------------------------------------------------------------

def test_boundary_round_trip(tmp_path):
    boundary = BoundarySet(chains=(((1, 2), (2, 2), (2, 3)), ((5, 5),)))
    path = tmp_path / "b.json"
    save_boundary(path, boundary)
    back = load_boundary(path)
    assert back.chains == boundary.chains


@pytest.mark.parametrize("chains", [
    [[1, 2]], 5, [5], [[[1, 2], [3]]], [[[1.5, 2]]], [[[True, 2]]],
    [[["1", 2]]],
])
def test_boundary_chains_checked(tmp_path, chains):
    path = tmp_path / "boundary.json"
    path.write_text(json.dumps({"chains": chains}))
    with pytest.raises(SchemaError,
                       match=r"boundary\.json: chains must be lists of "):
        load_boundary(path)
