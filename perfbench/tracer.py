"""Traced roadscene command: timing wrappers around the layers, then the CLI.

    python perfbench/tracer.py SPANS_OUT TRACE_ID COMMAND [ARGS...]

installs wrappers from `LAYERS` around the public functions that
`roadscene.cli` and the modules call, runs `roadscene.cli.main` on the
remaining arguments, writes the recorded spans and counters to SPANS_OUT as
JSON, and exits with the command's exit code.  The program's own files are
not changed; a function imported by name into several modules is replaced
in each of them.

`per_layer` turns the dumps of one traced chain into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from collections import defaultdict

from spans import Recorder, percentile, self_times, tail


def _rows(rec, args, kwargs, result):
    rec.counts["records.load_detections.rows"] += sum(len(d) for _, d in result)


def _size(metric):
    def count(rec, args, kwargs, result):
        rec.counts[metric] += os.path.getsize(args[0])
    return count


def _track_rows(rec, args, kwargs, result):
    rec.counts["records.load_tracks.rows"] += len(result)


def _associate(rec, args, kwargs, result):
    tracks, dets = args[0], args[1]
    rec.counts["tracking.associate.pairs"] += len(tracks) * len(dets)
    rec.counts["tracking.associate.detections"] += len(dets)
    rec.counts["tracking.associate.matched"] += len(result[0])


def _ransac(rec, args, kwargs, result):
    rec.counts["calibration.ransac.iterations"] += result.iterations_run
    rec.counts["calibration.ransac.votes"] += result.votes
    rec.counts["calibration.ransac.matches"] += len(args[0])


def _es(rec, args, kwargs, result):
    rec.counts["calibration.es.generations"] += result.generations


def _pnm_bytes(rec, args, kwargs, result):
    rec.counts["imaging.write_pnm.bytes"] += len(result)


def _srg(rec, args, kwargs, result):
    rec.counts["roadmodel.srg.seeds"] += len(args[1])
    rec.counts["roadmodel.srg.road_px"] += int(result.pixels.sum())


def _boundary(rec, args, kwargs, result):
    rec.counts["roadmodel.boundary.px"] += sum(len(c) for c in result.chains)


def _render_px(rec, args, kwargs, result):
    rec.counts["analytics.render.px"] += result.width * result.height


COMMANDS = ("simulate", "calibrate", "track", "segment", "analyze", "render",
            "merge")

# (module, attribute, span name, counter).  An attribute "Class.method"
# wraps the method on its class.  A trailing "@module" on the span name
# limits the replacement to that importing module, which splits the shared
# Kalman steps by call site.
LAYERS = [
    ("roadscene.records", "load_detections", "records.load_detections", _rows),
    ("roadscene.records", "write_tracks", "records.write_tracks",
     _size("records.write_tracks.bytes")),
    ("roadscene.records", "load_tracks", "records.load_tracks", _track_rows),
    ("roadscene.records", "save_heatmap", "records.save_heatmap",
     _size("records.save_heatmap.bytes")),
    ("roadscene.records", "load_heatmap", "records.load_heatmap", None),
    ("roadscene.records", "write_states", "records.write_states", None),
    ("roadscene.tracking", "MomctTracker.step", "tracking.step", None),
    ("roadscene.tracking", "associate", "tracking.associate", _associate),
    ("roadscene.tracking", "Track.predict", "tracking.predict", None),
    ("roadscene.tracking", "Track.update", "tracking.update", None),
    ("roadscene.kalman", "kf_predict_step",
     "kalman.predict.tracking@roadscene.tracking", None),
    ("roadscene.kalman", "kf_update_step",
     "kalman.update.tracking@roadscene.tracking", None),
    ("roadscene.kalman", "kf_predict_step",
     "kalman.predict.motion@roadscene.motion", None),
    ("roadscene.kalman", "kf_update_step",
     "kalman.update.motion@roadscene.motion", None),
    ("roadscene.motion", "kf_predict", "motion.kf_predict", None),
    ("roadscene.motion", "kf_update", "motion.kf_update", None),
    ("roadscene.box3d", "make_footprint", "box3d.footprint", None),
    ("roadscene.box3d", "lift_to_3d", "box3d.lift", None),
    ("roadscene.geometry", "apply", "geometry.apply", None),
    ("roadscene.calibration", "ransac_homography", "calibration.ransac",
     _ransac),
    ("roadscene.calibration", "es_minimize", "calibration.es", _es),
    ("roadscene.imaging", "accumulate_background", "imaging.background",
     None),
    ("roadscene.imaging", "histogram_match", "imaging.histogram_match", None),
    ("roadscene.imaging", "read_pnm", "imaging.read_pnm", None),
    ("roadscene.imaging", "write_pnm", "imaging.write_pnm", _pnm_bytes),
    ("roadscene.roadmodel", "srg_segment", "roadmodel.srg", _srg),
    ("roadscene.roadmodel", "refine_mask", "roadmodel.refine", None),
    ("roadscene.roadmodel", "extract_boundary", "roadmodel.boundary",
     _boundary),
    ("roadscene.analytics", "StateClassifier.step", "analytics.classify",
     None),
    ("roadscene.analytics", "update_heatmaps", "analytics.heat", None),
    ("roadscene.analytics", "frame_stats", "analytics.stats", None),
    ("roadscene.analytics", "render", "analytics.render", _render_px),
    ("roadscene.simulate", "generate_detections", "simulate.detections",
     None),
    ("roadscene.simulate", "build_truth", "simulate.truth", None),
    ("roadscene.simulate", "render_satellite", "simulate.satellite", None),
    ("roadscene.simulate", "render_frame", "simulate.frames", None),
] + [("roadscene.cli", f"_cmd_{c}", f"cli.{c}", None) for c in COMMANDS]

# counted calls, no span: heat deposits and track births
TALLIES = [("roadscene.analytics", "bump", "analytics.heat.events"),
           ("roadscene.tracking", "Track.__init__", "tracking.tracks_born")]


def _replace(module_name: str, attr: str, make, only: str | None) -> None:
    """Swap `module.attr` for `make(original)` wherever roadscene holds it."""
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(importlib.import_module(module_name), cls_name)
        setattr(cls, meth, make(getattr(cls, meth)))
        return
    original = getattr(importlib.import_module(module_name), attr)
    wrapped = make(original)
    holders = [only] if only else [
        name for name in sys.modules
        if name == "roadscene" or name.startswith("roadscene.")]
    for name in holders:
        mod = sys.modules[name]
        if getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapped)


def install(rec: Recorder) -> None:
    importlib.import_module("roadscene.cli")
    for module_name, attr, name, count in LAYERS:
        name, _, only = name.partition("@")
        _replace(module_name, attr,
                 lambda fn, n=name, c=count: rec.wrap(fn, n, c), only or None)
    for module_name, attr, name in TALLIES:
        _replace(module_name, attr, lambda fn, n=name: rec.tally(fn, n), None)


# --- aggregation -------------------------------------------------------------

# metric prefix -> span names it sums; all other layers are one span each
MERGED = {"box3d.lift": ("box3d.footprint", "box3d.lift")}


def per_layer(dumps: list[dict]) -> dict[str, float]:
    """Per-layer totals over the span dumps of one traced chain.

    For every span name: `.s` (summed duration), `.calls` and `.self_s`
    (duration minus the time its child spans cover); the counters as
    recorded; and the derived ratios and step percentiles.
    """
    total = defaultdict(float)
    calls = defaultdict(int)
    own = defaultdict(float)
    steps_ms = []
    counts = defaultdict(float)
    for dump in dumps:
        spans = [tuple(s) for s in dump["spans"]]
        selfs = self_times(spans)
        for span_id, _, name, t0, t1 in spans:
            total[name] += t1 - t0
            calls[name] += 1
            own[name] += selfs[span_id]
            if name == "tracking.step":
                steps_ms.append((t1 - t0) * 1e3)
        for key, value in dump["counts"].items():
            counts[key] += value
    for metric, names in MERGED.items():
        total[metric] = sum(total.pop(n, 0.0) for n in names)
        own[metric] = sum(own.pop(n, 0.0) for n in names)
    out: dict[str, float] = dict(counts)
    for name in total:
        out[f"{name}.s"] = total[name]
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = own[name]
    offered = counts["tracking.associate.detections"]
    out["tracking.associate.match_ratio"] = (
        counts["tracking.associate.matched"] / offered if offered else 0.0)
    matches = counts["calibration.ransac.matches"]
    out["calibration.ransac.inlier_ratio"] = (
        counts["calibration.ransac.votes"] / matches if matches else 0.0)
    if steps_ms:
        ordered = sorted(steps_ms)
        out["tracking.step.p50_ms"] = percentile(ordered, 50.0)
        found = tail(ordered)
        if found:
            out["tracking.step.tail_pct"], out["tracking.step.tail_ms"], _ = found
    return out


def main(argv: list[str]) -> int:
    spans_out, trace_id, cli_args = argv[0], argv[1], argv[2:]
    rec = Recorder(trace_id)
    install(rec)
    from roadscene import cli
    try:
        code = cli.main(cli_args)
    finally:
        with open(spans_out, "w") as fh:
            json.dump(rec.dump(), fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
