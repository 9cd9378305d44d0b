"""Tests for the benchmark's own arithmetic.

    python3 -m pytest perfbench
"""

import json
import math
from pathlib import Path

import pytest

import checks
import run
import spans


def test_self_time_nested_and_sibling_spans():
    # parent [0, 10] holds siblings [1, 3] and [4, 6]; [1.5, 2.5] nests
    # inside the first sibling
    recorded = [
        (0, None, "parent", 0.0, 10.0),
        (1, 0, "a", 1.0, 3.0),
        (2, 1, "a.child", 1.5, 2.5),
        (3, 0, "b", 4.0, 6.0),
    ]
    own = spans.self_times(recorded)
    assert own[0] == pytest.approx(6.0)
    assert own[1] == pytest.approx(1.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(2.0)


def test_recorder_links_nested_calls_to_their_parent():
    rec = spans.Recorder("t")
    inner = rec.wrap(lambda: 1, "inner")
    outer = rec.wrap(lambda: inner() + inner(), "outer")
    assert outer() == 2
    by_name = {}
    for span_id, parent, name, t0, t1 in rec.spans:
        by_name.setdefault(name, []).append((span_id, parent))
        assert t1 >= t0
    (outer_id, outer_parent), = by_name["outer"]
    assert outer_parent is None
    assert [p for _, p in by_name["inner"]] == [outer_id, outer_id]


@pytest.mark.parametrize("n, pct", [
    (1000, 99.0),   # p99 leaves exactly 10 beyond, p99.9 only 1
    (999, 95.0),    # p99 is rank 990 of 999: 9 beyond
    (200, 95.0),
    (109, 90.0),
    (20, 50.0),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, pct):
    values = list(range(n, 0, -1))   # order must not matter
    p, value, count = spans.tail(values)
    assert (p, count) == (pct, n)
    rank = math.ceil(pct / 100.0 * n)
    assert value == rank
    assert n - rank >= 10


def test_tail_needs_ten_samples_beyond_the_median():
    assert spans.tail(list(range(19))) is None


def test_quartiles_match_statistics_quantiles():
    assert spans.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.25, 2.5, 3.75)
    assert spans.quartiles([7.0]) == (7.0, 7.0, 7.0)


def _toy_truth():
    """Actor 0 drives along y = 0 at 10 mph; actor 1 stands at y = 100."""
    frames = 40
    return {"actors": [
        {"class": "car", "visible": [True] * frames,
         "positions_bev": [[float(f), 0.0] for f in range(frames)],
         "speeds_mph": [10.0] * frames},
        {"class": "car", "visible": [True] * frames,
         "positions_bev": [[5.0, 100.0]] * frames,
         "speeds_mph": [0.0] * frames},
    ]}


def _row(frame, track_id, bev, speed, cls="car"):
    return {"frame": frame, "id": track_id, "class": cls, "bev": bev,
            "speed_mph": speed}


def test_matchers_on_two_actor_toy_scene():
    truth = _toy_truth()
    rows = []
    for f in range(30):
        # id 1 follows actor 0, but frames 20-22 sit on actor 1
        bev = [5.0, 99.0] if 20 <= f <= 22 else [f + 0.5, 1.0]
        rows.append(_row(f, 1, bev, 11.0))
        rows.append(_row(f, 2, [5.0, 101.0], 0.5))
    rows.append(_row(30, 3, None, None))
    owners = checks.nearest_actors(rows, truth)
    assert owners[-1] is None
    assert owners[0] == 0 and owners[1] == 1
    # 0 -> 1 at frame 20 and 1 -> 0 at frame 23
    assert checks.id_switches(rows, owners) == 2
    # rows of age >= 25: frames 25..29 of ids 1 and 2; id 1 is off by
    # 1 mph from actor 0, id 2 by 0.5 mph from actor 1
    assert checks.speed_mae_mph(rows, owners, truth) == pytest.approx(0.75)
    # with no age gate, frames 20-22 of id 1 compare 11 mph with actor 1
    expected = (27 * 1.0 + 3 * 11.0 + 30 * 0.5) / 60
    assert checks.speed_mae_mph(rows, owners, truth, min_age=0) \
        == pytest.approx(expected)
    assert checks.unidentified_vehicles(truth, owners) == []
    assert checks.unidentified_vehicles(truth, owners[30:31]) == [1]


def test_pedestrian_rows_do_not_count_toward_speed_error():
    truth = _toy_truth()
    rows = [_row(f, 1, [float(f), 0.0], 99.0, cls="pedestrian")
            for f in range(30)]
    owners = checks.nearest_actors(rows, truth)
    assert math.isnan(checks.speed_mae_mph(rows, owners, truth))


def test_calibration_error_over_true_inliers_only():
    g = [[2.0, 0.0, 1.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.0]]
    matches = {"pairs": [{"cam": [0.0, 0.0], "sat": [1.0, 3.0]},
                         {"cam": [1.0, 1.0], "sat": [3.0, 2.0]},
                         {"cam": [5.0, 5.0], "sat": [0.0, 0.0]}],
               "outlier_mask": [False, False, True]}
    # residuals 3 and 0: RMS sqrt(9 / 2)
    assert checks.calib_err_px({"g": g}, matches) \
        == pytest.approx(math.sqrt(4.5))


def test_heat_checks(tmp_path):
    def heat(name, events, units):
        path = tmp_path / name
        path.write_text(json.dumps({"events": events, "units": units}))
        return path
    a = heat("a.json", 1, [[0, 144], [0, 0]])
    b = heat("b.json", 2, [[144, 0], [0, 144]])
    merged = heat("m.json", 3, [[144, 144], [0, 144]])
    assert checks.heat_mass_ok(a) and checks.heat_mass_ok(b)
    assert not checks.heat_mass_ok(heat("bad.json", 2, [[144, 0], [0, 0]]))
    assert checks.merge_ok([a, b], merged)
    assert not checks.merge_ok([a, a], merged)


def test_non_finite_track_numbers_are_rejected(tmp_path):
    path = tmp_path / "tracks.jsonl"
    path.write_text('{"frame": 0, "speed_mph": NaN}\n')
    with pytest.raises(ValueError):
        checks.read_tracks(path)
    assert not checks.all_finite({"bev": [1.0, float("inf")]})
    assert checks.all_finite({"bev": [1.0, 2.0], "cuboid": None})


def test_importtime_attribution():
    # children print before their parent, one level deeper per nesting;
    # numpy.linalg inside scipy is scipy's cost, not numpy's
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        300 |     numpy.core",
        "import time:       200 |        500 |   numpy",
        "import time:        50 |         50 |       numpy.linalg",
        "import time:       150 |        800 |     scipy.optimize",
        "import time:        70 |        870 |   roadscene.tracking",
        "import time:        30 |       1400 | roadscene.cli",
    ])
    out = run.parse_importtime(text)
    assert out["numpy"] == pytest.approx(500e-6)
    assert out["scipy"] == pytest.approx(800e-6)
    assert out["roadscene"] == pytest.approx(100e-6)


def test_benchmark_json_lists_what_the_run_reports():
    spec = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json")
        .read_text())
    end_to_end = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    assert end_to_end == [(n, u) for n, u, _ in run.END_TO_END
                          if n not in run.TABLE_ONLY]
    better = {n: ("lower" if low else "higher") for n, _, low in run.END_TO_END}
    assert all(m["better"] == better[m["name"]] for m in spec["end_to_end"])
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == run.per_layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(run.scenes.WORKLOADS)
