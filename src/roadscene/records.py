"""File formats shared by the CLI stages.

Detections and tracks travel as JSON Lines, calibration and heat maps as
JSON, per-frame stats as CSV.  All writers are deterministic: keys are
sorted, separators fixed, floats serialized by repr.  Readers fail fast,
name the offending line and refuse non-finite numbers, as writers do.
Stats and heat-map files are read, merged and written in plain Python;
the functions that convert rows to arrays import numpy themselves.
"""

from __future__ import annotations

import json
import math
import re
from array import array
from dataclasses import dataclass
from itertools import accumulate, chain, compress, repeat
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .config import CLASS_NAMES, PEDESTRIAN, SIZE
from .errors import NonFiniteOutput, SchemaError, SingularMatrix

if TYPE_CHECKING:  # annotations only: functions import what they run
    import numpy as np

    from .analytics import HeatMap
    from .geometry import Homography
    from .tracking import DetectionGroup

_SEPARATORS = (",", ":")


def _dump_row(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=_SEPARATORS,
                      allow_nan=False)


def dump_json(obj, path) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2)
    Path(path).write_text(text + "\n", encoding="utf-8")


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} is not allowed")


# Python's decoder accepts NaN and +-Infinity, which are not JSON
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def parse_json(text: str):
    """Decode one JSON document; raises ValueError, also on NaN/Infinity."""
    return _DECODER.decode(text)


def load_json(path):
    try:
        return parse_json(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise SchemaError(f"{path}: invalid JSON: {exc}") from None


def _require(row: dict, key: str, lineno: int):
    if key not in row:
        raise SchemaError(f"line {lineno}: missing key {key!r}")
    return row[key]


def is_number(value) -> bool:
    """True for a JSON number, not a bool, that is finite as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond float range
        return False


def _number(value, key: str, lineno: int) -> float:
    if not is_number(value):
        raise SchemaError(f"line {lineno}: {key} must be a finite number, "
                          f"got {value!r}")
    return float(value)


def is_number_list(value, n: int) -> bool:
    """True for a list of `n` JSON numbers that `is_number` accepts."""
    return (isinstance(value, list) and len(value) == n
            and all(map(is_number, value)))


def _number_list(value, key: str, n: int, lineno: int) -> tuple:
    if not isinstance(value, list) or len(value) != n:
        raise SchemaError(f"line {lineno}: {key} must be a list of "
                          f"{n} numbers")
    return tuple(_number(v, key, lineno) for v in value)


def _lines(text: str):
    """Yield (line number, line) for each non-blank line."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.strip():
            yield lineno, line


def _json_object(line: str, lineno: int) -> dict:
    try:
        row = parse_json(line)
    except ValueError as exc:
        raise SchemaError(f"line {lineno}: invalid JSON: {exc}") from None
    if not isinstance(row, dict):
        raise SchemaError(f"line {lineno}: expected an object")
    return row


def json_rows(text: str):
    """Yield (line number, object) for each non-blank JSON Lines row."""
    for lineno, line in _lines(text):
        yield lineno, _json_object(line, lineno)


def dump_rows(rows) -> str:
    """Rows as JSON Lines, each spelled by `_dump_row`."""
    try:
        return "".join(_dump_row(row) + "\n" for row in rows)
    except ValueError:  # allow_nan=False: no reader takes NaN or infinity
        raise NonFiniteOutput("a row to write holds NaN or an infinity") \
            from None


def _frame(row: dict, last: int, lineno: int) -> int:
    """The row's frame: a non-negative int64, not below `last`."""
    frame = _require(row, "frame", lineno)
    if not _int64(frame) or frame < 0:
        raise SchemaError(f"line {lineno}: frame must be a non-negative "
                          f"integer below 2**63, got {frame!r}")
    if frame < last:
        raise SchemaError(f"line {lineno}: frame {frame} after "
                          f"frame {last}; frames must be non-decreasing")
    return frame


def _int64(value) -> bool:
    """True for a JSON integer, not a bool, that fits a signed 64 bits."""
    return type(value) is int and -2 ** 63 <= value < 2 ** 63


# The row files as their writers spell them.  `repr` writes a finite float
# as digits with a point, or as one digit, an optional fraction and an
# exponent.  The grammar takes two-digit exponents only, so every match is
# finite, and integers of at most 18 digits, which fit int64.  A line in any
# other spelling goes to the general decoder, which applies the same checks.
# The patterns are strings, which `re` compiles and caches on first use.
_FLOAT = (r"-?(?:(?:0|[1-9][0-9]{0,15})\.[0-9]+"
          r"|[1-9](?:\.[0-9]+)?e[-+][0-9]{2})")
_UINT = r"(?:0|[1-9][0-9]{0,17})"


def _float_list(n: int) -> str:
    """Pattern of `n` comma-separated floats."""
    return ",".join([_FLOAT] * n)


def _own_lines(text: str, pattern: str) -> list | None:
    """The groups of every line of `text`, by one scan of the whole text,
    when each line is a full match of `pattern`; else None."""
    found = re.findall("^" + pattern + "$", text, re.MULTILINE)
    # matches are whole lines; a last line without its newline is a line too
    lines = text.count("\n") + (not text.endswith("\n"))
    return found if len(found) == lines else None


def _numbers(texts, dtype=float) -> np.ndarray:
    """The numbers in `texts` as one flat array; numpy reads each float with
    Python's own correctly rounded parser, so it gets `float`'s bits."""
    import numpy as np
    return np.fromstring(",".join(texts), dtype=dtype, sep=",")


# --- detections -------------------------------------------------------------

# groups: bbox, frame, probs, score
_DETECTION_LINE = (
    r'\{"bbox":\[(' + _float_list(4) + r')\],'
    r'"camera":0,'
    r'"frame":(' + _UINT + r'),'
    r'"probs":\[(' + _float_list(len(CLASS_NAMES)) + r')\],'
    r'"score":(' + _FLOAT + r')'
    r'(?:,"t":' + _FLOAT + r')?\}')


def parse_detections(text: str) -> list[tuple[int, DetectionGroup]]:
    """Parse detection JSON Lines into one (frame, `DetectionGroup`) pair
    per frame that has detections, in frame order.

    Rows must carry non-decreasing frame numbers; extra keys are ignored.
    If every line is spelled as `write_detections` spells it and frames
    never decrease, one scan reads the text and each column is converted at
    once; else the general decoder reads every line.  The rows are judged
    once, as one group, and the first faulty line is named.
    """
    import numpy as np

    from .tracking import DetectionGroup, _faults
    found, fault = _own_lines(text, _DETECTION_LINE), None
    if found:
        bbox, frames, probs, score = zip(*found)
        frames = _numbers(frames, np.int64)
    if found and (np.diff(frames) >= 0).all():
        linenos = range(1, len(found) + 1)
        columns = (_numbers(bbox).reshape(-1, 4), _numbers(score),
                   _numbers(probs).reshape(-1, len(CLASS_NAMES)))
    else:  # every line up to the first that the general decoder refuses
        linenos, frames, values = [], [-1], []
        for lineno, line in _lines(text):
            try:
                frame, row = _json_detection(line, lineno, frames[-1])
            except SchemaError as exc:
                fault = exc
                break
            linenos.append(lineno)
            frames.append(frame)
            values.append(row)
        frames = frames[1:]
        values = np.array(values).reshape(-1, 5 + len(CLASS_NAMES))
        columns = values[:, :4], values[:, 4], values[:, 5:]
    try:
        rows = DetectionGroup(*columns)
    except ValueError as exc:  # which names the first row it refuses
        first = int(_faults(*columns).any(axis=0).argmax())
        raise SchemaError(f"line {linenos[first]}: {exc}") from None
    if fault is not None:
        raise fault
    starts = np.flatnonzero(np.diff(frames, prepend=-1)).tolist()
    frames = np.asarray(frames).tolist()
    return [(frames[a], rows[a:b])
            for a, b in zip(starts, starts[1:] + [len(frames)])]


def _json_detection(line: str, lineno: int, last: int) -> tuple[int, list]:
    """The frame and the bbox, score and probs of a row in any JSON
    spelling, decoded and type-checked; `parse_detections` judges them."""
    row = _json_object(line, lineno)
    frame = _frame(row, last, lineno)
    bbox = _number_list(_require(row, "bbox", lineno), "bbox", 4, lineno)
    score = _number(_require(row, "score", lineno), "score", lineno)
    probs = _number_list(_require(row, "probs", lineno), "probs",
                         len(CLASS_NAMES), lineno)
    return frame, [*bbox, score, *probs]


def load_detections(path) -> list[tuple[int, DetectionGroup]]:
    return parse_detections(Path(path).read_text(encoding="utf-8"))


def write_detections(path, frames, fps: float | None = None) -> None:
    """Write (frame, `DetectionGroup`) pairs as JSON Lines.

    Each row also carries the source camera id, always 0, and, when fps is
    known, the frame timestamp in seconds.
    """
    rows = []
    for frame, group in frames:
        for bbox, score, probs in zip(group.bbox.tolist(),
                                      group.objectness.tolist(),
                                      group.class_probs.tolist()):
            row = {"frame": frame, "bbox": bbox, "score": score,
                   "probs": probs, "camera": 0}
            if fps is not None:
                row["t"] = frame / fps
            rows.append(row)
    Path(path).write_text(dump_rows(rows), encoding="utf-8")


# --- tracks -----------------------------------------------------------------

# a track row and a cuboid, floor then roof; %s takes text spelled already
_TRACK_ROW = ('{"bbox":[%s,%r,%r,%r],"bev":[%r,%r],"class":"%s",'
              '"cuboid":%s,"frame":%s,"heading_deg":%s,"id":%s,'
              '"ref":[%s,%r],"speed_mph":%r}\n')
_CUBOID = "[" + ",".join(["[%s,%r]"] * 8) + "]"


def dump_track_rows(rows) -> str:
    """Track rows as JSON Lines, spelled as `_dump_row` spells them: sorted
    keys, no spaces and `repr` floats, by one template per row.

    Each row is (frame, id, class, bbox, ref, bev, speed_mph, heading_deg,
    cuboid): two ints, a class name, 4, 2 and 2 floats, a float, a float or
    None, and 16 floats (8 [x, y] corners) or None, all Python floats.
    Raises NonFiniteOutput when one of them is NaN or an infinity.
    `ref`'s x and each roof corner's x reuse the text of the bbox's x and
    of the floor corner's x where the two are equal and non-zero (+-0.0
    are the only equal floats whose `repr` differs).
    """
    lines = []
    for frame, track_id, name, bbox, ref, bev, speed, heading, cuboid \
            in rows:
        corners = "null"
        if cuboid is not None:
            ax, ay, bx, by, cx, cy, dx, dy, ex, ey, fx, fy, gx, gy, hx, hy \
                = cuboid
            a, b, c, d = repr(ax), repr(bx), repr(cx), repr(dx)
            corners = _CUBOID % (
                a, ay, b, by, c, cy, d, dy,
                a if ex == ax and ex else repr(ex), ey,
                b if fx == bx and fx else repr(fx), fy,
                c if gx == cx and gx else repr(gx), gy,
                d if hx == dx and hx else repr(hx), hy)
        left = repr(bbox[0])
        lines.append(_TRACK_ROW % (
            left, bbox[1], bbox[2], bbox[3], bev[0], bev[1], name, corners,
            frame, "null" if heading is None else repr(heading), track_id,
            left if ref[0] == bbox[0] and ref[0] else repr(ref[0]), ref[1],
            speed))
    text = "".join(lines)
    # `repr` spells a finite float with digits, ".", "e", "+" and "-", and
    # no key or class name holds "inf" or "nan"
    if "inf" in text or "nan" in text:  # no reader takes them
        raise NonFiniteOutput("a track row to write holds NaN or an "
                              "infinity")
    return text


def write_tracks(path, chunks) -> None:
    """Write track JSON Lines from text chunks that `dump_track_rows`
    encoded; `track` hands in one chunk per block of whole frames."""
    Path(path).write_text("".join(chunks), encoding="utf-8")


# groups: bev, class, frame, id, speed_mph; the cuboid is checked, not read
_POINT = r"\[" + _float_list(2) + r"\]"
_CLASS_INDEX = {name: i for i, name in enumerate(CLASS_NAMES)}
_TRACK_LINE = (
    r'\{"bbox":\[' + _float_list(4) + r'\],'
    r'"bev":\[(' + _float_list(2) + r')\],'
    r'"class":"(' + "|".join(map(re.escape, CLASS_NAMES)) + r')",'
    r'"cuboid":(?:null|\[' + _POINT + "(?:," + _POINT + r"){7}\]),"
    r'"frame":(' + _UINT + r'),'
    r'"heading_deg":(?:null|' + _FLOAT + r'),'
    r'"id":(0|-?[1-9][0-9]{0,17}),'
    r'"ref":' + _POINT + r','
    r'"speed_mph":(' + _FLOAT + r')\}')


class TrackTable:
    """A tracks file's n rows as columns: `frame` (never decreasing) and
    `ids` (int64), `class_index` (into `CLASS_NAMES`), `xy` ((n, 2) BEV
    pixels) and `speed_mph` as written, which may be negative."""

    __slots__ = ("frame", "ids", "class_index", "xy", "speed_mph")

    def __init__(self, frame, ids, class_index, xy, speed_mph):
        self.frame, self.ids, self.class_index = frame, ids, class_index
        self.xy, self.speed_mph = xy, speed_mph

    def __len__(self) -> int:
        return len(self.frame)

    @property
    def pedestrian(self) -> np.ndarray:
        """Whether each row is a pedestrian's."""
        return self.class_index == CLASS_NAMES.index(PEDESTRIAN)


def parse_tracks(text: str) -> TrackTable:
    """Parse track JSON Lines into a `TrackTable` of the fields that
    `segment` and `analyze` read.

    Every field is checked, and a frame lists each track id at most once.
    If every line is spelled as `track` spells it, frames never decrease
    and no (frame, id) pair repeats, one scan reads the text, checking the
    cuboid's syntax without decoding it, and each column is converted at
    once; else the general decoder reads every line.
    """
    import numpy as np
    found = _own_lines(text, _TRACK_LINE)
    if found:
        bev, names, frame, ids, speed = zip(*found)
        frame, ids = _numbers(frame, np.int64), _numbers(ids, np.int64)
        # frames never decrease, so sorting the (frame, id) pairs puts a
        # repeat, which is one within its frame, next to its twin
        order = np.lexsort((ids, frame))
        if (np.diff(frame) >= 0).all() and (
                np.diff(frame[order]) | np.diff(ids[order])).all():
            return TrackTable(frame, ids, np.array(
                list(map(_CLASS_INDEX.__getitem__, names)), dtype=np.int64),
                _numbers(bev).reshape(-1, 2), _numbers(speed))
    rows, values = [], []  # frame, id and class index; bev and speed
    last, seen = -1, set()  # the current frame and its ids
    for lineno, line in _lines(text):
        frame, track_id, name, row = _json_track(line, lineno, last, seen)
        if frame != last:
            last, seen = frame, set()
        seen.add(track_id)
        rows.append((frame, track_id, _CLASS_INDEX[name]))
        values.append(row)
    # a copy, so that each column is contiguous
    columns = np.array(rows, dtype=np.int64).reshape(-1, 3).T.copy()
    values = np.array(values).reshape(-1, 3)
    return TrackTable(*columns, values[:, :2], values[:, 2])


def _json_track(line: str, lineno: int, last: int, seen: set) -> tuple:
    """The frame, id, class, and bev and speed_mph of a row in any JSON
    spelling, after every check."""
    row = _json_object(line, lineno)
    frame = _frame(row, last, lineno)
    track_id = _require(row, "id", lineno)
    if not _int64(track_id):
        raise SchemaError(f"line {lineno}: id must be a 64-bit integer")
    if frame == last and track_id in seen:
        raise SchemaError(f"line {lineno}: id {track_id} appears twice "
                          f"in frame {frame}")
    class_name = _require(row, "class", lineno)
    if class_name not in CLASS_NAMES:
        raise SchemaError(f"line {lineno}: unknown class {class_name!r}")
    _number_list(_require(row, "bbox", lineno), "bbox", 4, lineno)
    _number_list(_require(row, "ref", lineno), "ref", 2, lineno)
    bev = _number_list(_require(row, "bev", lineno), "bev", 2, lineno)
    speed = _number(_require(row, "speed_mph", lineno), "speed_mph", lineno)
    heading = _require(row, "heading_deg", lineno)
    if heading is not None:
        _number(heading, "heading_deg", lineno)
    return frame, track_id, class_name, (*bev, speed)


def load_tracks(path) -> TrackTable:
    return parse_tracks(Path(path).read_text(encoding="utf-8"))


# --- calibration ------------------------------------------------------------

def homography_to_json(h: Homography) -> list[list[float]]:
    return [[float(v) for v in row] for row in h.matrix]


def load_calibration(path) -> dict:
    """Load calibration JSON; returns the dict with 'g' as a Homography.

    `g` must be three rows of three finite numbers that make an invertible
    homography (its inverse too, which `track` and `render` use),
    `iota_m_per_px` null or a finite number > 0, and `bev_size` null or two
    integer sides in [1, MAX_SIDE].
    """
    data = load_json(path)
    if not isinstance(data, dict) or "g" not in data:
        raise SchemaError(f"{path}: calibration must be an object "
                          f"with a 'g' matrix")
    g = data["g"]
    if not (isinstance(g, list) and len(g) == 3
            and all(is_number_list(row, 3) for row in g)):
        raise SchemaError(f"{path}: g must be three rows of three finite "
                          f"numbers")
    iota = data.get("iota_m_per_px")
    if iota is not None and not (is_number(iota) and iota > 0):
        raise SchemaError(f"{path}: iota_m_per_px must be null or a finite "
                          f"number > 0, got {iota!r}")
    size = data.get("bev_size")
    ok, rule = SIZE
    if size is not None and not (
            isinstance(size, list) and len(size) == 2
            and all(type(v) is int for v in size) and ok(size)):
        raise SchemaError(f"{path}: bev_size must be null or {rule}, "
                          f"got {size!r}")
    import numpy as np

    from .geometry import Homography, invert
    try:
        h = Homography(np.array(g, dtype=np.float64))
        invert(h)
    except SingularMatrix as exc:
        raise SchemaError(f"{path}: g must be an invertible homography: "
                          f"{exc}") from None
    data = dict(data)
    data["g"] = h
    return data


# --- state events -----------------------------------------------------------

def write_states(path, frames) -> None:
    """Write each frame's `StateSets` as one JSON Lines row per (state,
    track), in id order.  The keys and names are fixed and the values ints,
    so a template spells each row as `_dump_row` would."""
    lines = []
    for sets in frames:
        for label in ("parking", "speeding", "collision_risk", "congestion"):
            lines += [f'{{"frame":{sets.frame},"id":{i},"state":"{label}"}}\n'
                      for i in sorted(sets.ids[getattr(sets, label)].tolist())]
    Path(path).write_text("".join(lines), encoding="utf-8")


# --- frame stats ------------------------------------------------------------

@dataclass(frozen=True)
class FrameStats:
    frame: int
    vehicle_count: int
    pedestrian_count: int
    avg_speed_mph: float | None

    def __post_init__(self):
        if self.vehicle_count < 0 or self.pedestrian_count < 0:
            raise ValueError("counts must be non-negative")


_STATS_HEADER = "frame,vehicles,pedestrians,avg_speed_mph"


def _stats_row(frame, vehicles, pedestrians, avg) -> str:
    """A row as `write_stats` spells it; `load_stats` takes no other."""
    avg = "" if avg is None else repr(float(avg))
    return f"{frame},{vehicles},{pedestrians},{avg}"


def write_stats(path, stats: list[FrameStats]) -> None:
    lines = [_STATS_HEADER]
    for s in stats:
        if not math.isfinite(s.avg_speed_mph or 0.0):  # load_stats refuses
            raise NonFiniteOutput(f"frame {s.frame}: average speed not finite")
        lines.append(_stats_row(s.frame, s.vehicle_count, s.pedestrian_count,
                                s.avg_speed_mph))
    Path(path).write_text("".join(line + "\n" for line in lines),
                          encoding="utf-8")


def load_stats(path) -> list[FrameStats]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != _STATS_HEADER:
        raise SchemaError(f"{path}: line 1: expected header "
                          f"{_STATS_HEADER!r}")
    out = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            frame, vehicles, pedestrians, avg = line.split(",")
            row = (int(frame), int(vehicles), int(pedestrians),
                   float(avg) if avg else None)
            if _stats_row(*row) != line or not math.isfinite(row[3] or 0.0):
                raise ValueError
            out.append(FrameStats(*row))  # which refuses negative counts
        except ValueError:  # also an integer past int()'s digit limit
            raise SchemaError(f"{path}: line {lineno}: expected integer "
                              f"frame and counts and an empty or finite "
                              f"average, got {line!r}") from None
    return out


def merge_stats(shards: list[list[FrameStats]]) -> list[FrameStats]:
    """Concatenate disjoint shard stats into frame order."""
    merged = [s for shard in shards for s in shard]
    merged.sort(key=lambda s: s.frame)
    for a, b in zip(merged, merged[1:]):
        if a.frame == b.frame:
            raise SchemaError(f"duplicate stats for frame {a.frame}")
    return merged


# --- heat maps --------------------------------------------------------------

HEAT_KINDS = ("pedestrian", "vehicle", "speeding", "congestion", "proximity")
# one event deposits this many integer units (mass 1.0)
_BUMP_UNITS = 144


class HeatRows(NamedTuple):
    """A heat map row by row, as its file spells it.  Each of the `shape[0]`
    `rows` is None when it is all zero, else its nonzero cells as
    (columns, values): two sequences of ints, in column order."""

    kind: str
    events: int
    shape: tuple[int, int]
    rows: Iterable


def _zero_row(w: int) -> bytes:
    """An all-zero row of `w` cells, as spelled; cell j is at 2j + 1."""
    return b"[" + b"0," * (w - 1) + b"0]"


def _heatmap_chunks(heat: HeatMap | HeatRows):
    """The map as `_dump_row` spells it, plus a newline, as ASCII pieces:
    the header, the rows and the commas between them, and the closing bytes.

    That is sorted keys, compact separators, one line.  Each all-zero row is
    one shared string and only nonzero cells are formatted, so the cost
    follows the deposits rather than the 480k cells of a large map, and no
    piece is longer than a row.
    """
    h, w = heat.shape
    zero = _zero_row(w)
    yield (b'{"events":%d,"kind":%s,"shape":[%d,%d],"units":['
           % (heat.events, json.dumps(heat.kind).encode(), h, w))
    for i, row in enumerate(heat.rows):
        if i:
            yield b","
        if row is None:
            yield zero
            continue
        parts = []
        prev = 0
        for j, value in zip(*row):
            parts += (zero[prev:2 * j + 1], b"%d" % value)
            prev = 2 * j + 2
        parts.append(zero[prev:])
        yield b"".join(parts)
    yield b"]}\n"


def save_heatmap(path, heat: HeatMap | HeatRows) -> None:
    """Write the map as one compact, sorted-key JSON line.  `heat` is a
    HeatMap or a HeatRows: both give their kind, events, shape and rows."""
    with open(path, "wb") as f:
        f.writelines(_heatmap_chunks(heat))


# Sides of at most 20 digits: int64 needs 19.  A merged map's events can
# pass int64, but not h * w * 2**63 / 144 < 10**57.  The patterns are
# strings, which `re` compiles and caches on first use rather than at import.
_HEAT_HEAD = (rb'\{"events":(\d{1,57}),"kind":"([a-z]+)",'
              rb'"shape":\[(\d{1,20}),(\d{1,20})\],"units":\[')
# a nonzero cell's digits, which a row is split around
_NONZERO_CELL = rb"([1-9][0-9]*)"


def _not_written(path) -> SchemaError:
    return SchemaError(f"{path}: not a heat map as save_heatmap writes it: "
                       f"one line, sorted keys, no spaces, a known kind, "
                       f"and units that fill the shape with int64 integers "
                       f">= 0")


def _read_heat_rows(path) -> HeatRows:
    """The map that `save_heatmap` wrote to `path`, with rows that are
    judged as they are taken; any other spelling is refused.

    The header is checked at once.  Taking the rows checks each one: an
    all-zero row is one string compare, and any other must spell exactly
    `w` cells as the writer does, none past 2**63 - 1.  The rows raise
    SchemaError at the first that the writer would not spell, and after
    the last unless the units sum to 144 x events, so a caller takes them
    all.
    """
    data = Path(path).read_bytes()
    head = re.match(_HEAT_HEAD, data)
    if head is None:
        raise _not_written(path)
    events, kind, h, w = (int(head[1]), head[2].decode(), int(head[3]),
                          int(head[4]))
    # every cell takes at least two bytes, which bounds what a row holds
    if (kind not in HEAT_KINDS or h < 1 or w < 1
            or len(data) - head.end() < h * (2 * w + 2)):
        raise _not_written(path)
    return HeatRows(kind, events, (h, w),
                    _heat_rows(data, head.end(), (h, w), events, path))


def _heat_rows(data: bytes, at: int, shape, events: int, path):
    """`_read_heat_rows`' rows of `data`; the first row's "[" is at `at`."""
    h, w = shape
    zero = _zero_row(w)
    total = 0  # a Python int, which cannot wrap
    for i in range(h):
        if data.startswith(zero, at):
            end, row = at + len(zero), None
        else:
            end = data.find(b"]", at) + 1  # 0 when there is none
            row = (end and data.startswith(b"[", at)
                   and _row_cells(data[at + 1:end - 1], w))
            if not row:
                raise _not_written(path)
            total += sum(row[1])
        if not data.startswith(b"," if i < h - 1 else b"]}\n", end):
            raise _not_written(path)
        at = end + 1
        yield row
    if at + 2 != len(data):  # anything after the closing "]}\n"
        raise _not_written(path)
    if total != _BUMP_UNITS * events:
        raise SchemaError(f"{path}: units sum to {total}, not "
                          f"{_BUMP_UNITS} x {events} events")


def _row_cells(text: bytes, w: int) -> tuple[list, list] | None:
    """The nonzero (columns, values) of a row that is not all zero, from
    the text between its brackets, if that spells `w` cells as the writer
    does: each 0, or an integer up to 2**63 - 1 with no leading zero;
    else None.

    Only the nonzero cells are read: the text is split around them, so a
    row of the mostly zero maps that tracks deposit costs what its
    deposits do.  With each nonzero cell as 1, the row must be `w` cells
    of 0 or 1 between commas, which refuses a leading zero and an empty
    cell.
    """
    # digits and commas only: no sign, space, point or exponent
    if text.count(b",") != w - 1 or text.translate(None, b"0123456789,"):
        return None
    parts = re.split(_NONZERO_CELL, text)
    digits = parts[1::2]
    marks = b"1".join(parts[::2])
    if (not digits or len(marks) != 2 * w - 1
            or marks[1::2] != b"," * (w - 1)
            or max(map(len, digits)) > 19):
        return None
    values = list(map(int, digits))
    if max(values) >= 2 ** 63:
        return None
    # the commas before a nonzero cell count the cells before it
    return (list(accumulate(map(bytes.count, parts[:-1:2], repeat(b",")))),
            values)


def load_heatmap(path) -> HeatMap:
    """Read a heat map that `save_heatmap` wrote, checking that its units
    sum to 144 x events.  Any other spelling is refused."""
    import numpy as np

    from .analytics import HeatMap
    heat = _read_heat_rows(path)
    units = np.zeros(heat.shape, dtype=np.int64)
    for i, row in enumerate(heat.rows):
        if row is not None:
            units[i, row[0]] = row[1]
    return HeatMap.from_units(units, heat.events, heat.kind)


def merge_heatmaps(paths) -> HeatRows:
    """The cellwise sum of the heat maps that `save_heatmap` wrote to
    `paths`, read one at a time and added row by row.

    Each map is refused at its first fault, as SchemaError: a kind or
    shape other than the first map's, named with its path, at its header;
    then a row `load_heatmap` would refuse, or a summed cell past int64,
    at that row.  The sum keeps a row that is nonzero in any map as `w`
    int64 cells and a row that is zero in every map as None, so it holds at
    most one grid.
    """
    heats = map(_read_heat_rows, paths)  # each read once the last is added
    first = next(heats, None)
    if first is None:
        raise ValueError("merge_heatmaps needs at least one heat map path")
    kind, shape, events = first.kind, first.shape, 0
    sums = [None] * shape[0]
    for path, heat in zip(paths, chain([first], heats)):
        if heat.kind != kind:
            raise SchemaError(f"{path}: cannot merge '{heat.kind}' into "
                              f"'{kind}'")
        if heat.shape != shape:
            raise SchemaError(f"{path}: shape mismatch: {heat.shape} vs "
                              f"{shape}")
        for i, row in enumerate(heat.rows):
            if row is None:
                continue
            if sums[i] is None:
                sums[i] = array("q", [0]) * shape[1]
            cells = sums[i]
            try:  # an int64 cell refuses a value past int64
                for j, value in zip(*row):
                    cells[j] += value
            except OverflowError:
                raise SchemaError(f"merged '{kind}' units overflow "
                                  f"int64") from None
        events += heat.events
    columns = range(shape[1])
    return HeatRows(kind, events, shape, (
        None if cells is None
        else (list(compress(columns, cells)), list(filter(None, cells)))
        for cells in sums))


# --- road boundary ----------------------------------------------------------

def save_boundary(path, boundary) -> None:
    dump_json({"chains": [[[int(x), int(y)] for x, y in chain]
                          for chain in boundary.chains]}, path)


def load_boundary(path):
    from .roadmodel import BoundarySet
    data = load_json(path)
    if not isinstance(data, dict) or "chains" not in data:
        raise SchemaError(f"{path}: boundary needs key 'chains'")
    chains = data["chains"]
    if not isinstance(chains, list) or not all(
            isinstance(chain, list) and all(map(_is_int_pair, chain))
            for chain in chains):
        raise SchemaError(f"{path}: chains must be lists of [x, y] pairs "
                          f"of 64-bit integers")
    return BoundarySet(chains=tuple(tuple(map(tuple, chain))
                                    for chain in chains))


def _is_int_pair(point) -> bool:
    return (isinstance(point, list) and len(point) == 2
            and all(map(_int64, point)))
