"""roadscene benchmark: one workload, end to end through the CLI.

    python3 perfbench/run.py --workload {desk,rush,survey} --seed N
                             --seconds S --trace {0,1}

Run from the root of a checkout.  The run builds the workload's scene from
the seed and then:

1. set-up: imports `roadscene.cli` in SETUP_RUNS fresh interpreters
   (`setup_s`) and runs `simulate` twice (`simulate_s`, and the rerun must
   be byte-identical);
2. measurement: runs the chain calibrate -> track -> segment -> analyze
   (-> merge) -> render, each command in its own fresh process, as many
   times as fit in S seconds but at least twice, checks the outputs of the
   first pass, and checks that every later pass rewrites them byte for
   byte;
3. with `--trace 1`: runs simulate and the chain once more through
   `tracer.py`, which times the layers from inside each process.

It prints a table of every metric with its median, quartiles and run
count, and as its last line one JSON object: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  It exits 2 without a
result when the checkout holds no roadscene sources.
"""

from __future__ import annotations

import argparse
import gzip
import importlib.metadata
import itertools
import json
import math
import os
import platform
import shutil
import signal
import sys
import time
from collections import defaultdict
from pathlib import Path

import chain
import checks
import scenes
import spans
import tracer

SETUP_RUNS = 7
IMPORTTIME_RUNS = 3

# name, unit, lower is better; the order of the printed table
END_TO_END = [
    ("pipeline_s", "s", True),
    ("frames_per_s", "1/s", False),
    ("setup_s", "s", True),
    ("simulate_s", "s", True),
    ("calibrate_s", "s", True),
    ("track_s", "s", True),
    ("segment_s", "s", True),
    ("analyze_s", "s", True),
    ("render_s", "s", True),
    ("peak_rss_mb", "MB", True),
    ("failed_ops", "ratio", True),
    ("speed_mae_mph", "mph", True),
    ("calib_err_px", "px", True),
    ("id_switches", "count", True),
]
# Printed in the table but not in the JSON result: failed_ops is 0 on a
# healthy run (failures reach the JSON through `failed`); id_switches, a
# small count (2-4 on desk, 10-28 on rush), has a seed-to-seed
# spread of 0.36-0.5, above the largest bound of 0.25; and a single
# command's wall time, mostly interpreter start-up, varies by more than
# 25% from run to run on a shared 2-core host.
TABLE_ONLY = {"failed_ops", "id_switches", "simulate_s", "calibrate_s",
              "track_s", "segment_s", "analyze_s", "render_s"}
STAGES = ("calibrate", "track", "segment", "analyze", "render")
CLI = ("-m", "roadscene.cli")


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = [
        ("records.load_detections.s", "s"),
        ("records.load_detections.rows", "count"),
        ("records.write_tracks.s", "s"),
        ("records.write_tracks.bytes", "bytes"),
        ("records.load_tracks.s", "s"),
        ("records.load_tracks.calls", "count"),
        ("records.load_tracks.rows", "count"),
        ("records.save_heatmap.s", "s"),
        ("records.save_heatmap.bytes", "bytes"),
        ("records.load_heatmap.s", "s"),
        ("records.write_states.s", "s"),
        ("tracking.step.s", "s"),
        ("tracking.step.self_s", "s"),
        ("tracking.step.calls", "count"),
        ("tracking.step.p50_ms", "ms"),
        ("tracking.step.tail_ms", "ms"),
        ("tracking.step.tail_pct", "%"),
        ("tracking.associate.s", "s"),
        ("tracking.associate.pairs", "count"),
        ("tracking.associate.matched", "count"),
        ("tracking.associate.match_ratio", "ratio"),
        ("tracking.predict.s", "s"),
        ("tracking.predict.self_s", "s"),
        ("tracking.predict.calls", "count"),
        ("tracking.update.s", "s"),
        ("tracking.update.self_s", "s"),
        ("tracking.update.calls", "count"),
        ("tracking.tracks_born", "count"),
    ]
    for op in ("predict", "update"):
        for site in ("tracking", "motion"):
            out += [(f"kalman.{op}.{site}.s", "s"),
                    (f"kalman.{op}.{site}.calls", "count")]
    out += [
        ("motion.kf_predict.s", "s"),
        ("motion.kf_predict.self_s", "s"),
        ("motion.kf_update.s", "s"),
        ("motion.kf_update.self_s", "s"),
        ("box3d.lift.s", "s"),
        ("box3d.lift.self_s", "s"),
        ("box3d.lift.calls", "count"),
        ("geometry.apply.s", "s"),
        ("geometry.apply.calls", "count"),
        ("calibration.ransac.s", "s"),
        ("calibration.ransac.iterations", "count"),
        ("calibration.ransac.inlier_ratio", "ratio"),
        ("calibration.es.s", "s"),
        ("calibration.es.generations", "count"),
        ("imaging.background.s", "s"),
        ("imaging.background.calls", "count"),
        ("imaging.histogram_match.s", "s"),
        ("imaging.read_pnm.s", "s"),
        ("imaging.write_pnm.s", "s"),
        ("imaging.write_pnm.bytes", "bytes"),
        ("roadmodel.srg.s", "s"),
        ("roadmodel.srg.seeds", "count"),
        ("roadmodel.srg.road_px", "px"),
        ("roadmodel.refine.s", "s"),
        ("roadmodel.boundary.s", "s"),
        ("roadmodel.boundary.px", "px"),
        ("analytics.classify.s", "s"),
        ("analytics.classify.calls", "count"),
        ("analytics.heat.s", "s"),
        ("analytics.heat.events", "count"),
        ("analytics.stats.s", "s"),
        ("analytics.render.s", "s"),
        ("analytics.render.px", "px"),
        ("simulate.detections.s", "s"),
        ("simulate.truth.s", "s"),
        ("simulate.satellite.s", "s"),
        ("simulate.frames.s", "s"),
    ]
    out += [(f"cli.{c}.self_s", "s") for c in tracer.COMMANDS]
    out += [(f"setup.import_s.{m}", "s")
            for m in ("numpy", "scipy", "roadscene")]
    out += [("trace.pipeline_s", "s"), ("trace.overhead_s", "s")]
    return out


class Run:
    """Everything one benchmark run measures and checks."""

    def __init__(self, wl: scenes.Workload, env: dict):
        self.wl = wl
        self.env = env
        self.log = wl.root / "stderr.log"
        self.attempted = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.values: dict[str, float] = {}
        self.chain_procs: list[chain.Proc] = []
        self.first_digest: dict[str, str] | None = None

    def command(self, argv: list[str], prefix=CLI):
        proc = chain.run(list(prefix), argv, self.env, self.log)
        self.attempted += 1
        if proc.code != 0:
            self.failures.append(f"{argv[0]} exited {proc.code}: "
                                 f"{proc.stderr[-300:]}")
        return proc

    def check(self, name: str, fn) -> None:
        """Count one output check; a raised exception fails it."""
        self.attempted += 1
        try:
            ok = fn()
        except Exception as exc:  # a malformed artifact fails the check
            ok = False
            name = f"{name} ({type(exc).__name__}: {exc})"
        if not ok:
            self.failures.append(f"check failed: {name}")

    # --- phases ----------------------------------------------------------

    def setup(self) -> None:
        wl = self.wl
        for _ in range(SETUP_RUNS):
            proc = self.command(["import roadscene.cli"], prefix=("-c",))
            self.samples["setup_s"].append(proc.wall_s)
        rerun = wl.root / "sim_rerun"
        for out in (wl.sim_dir, rerun):
            proc = self.command(wl.simulate_argv(out))
            self.samples["simulate_s"].append(proc.wall_s)
        self.check("simulate rerun byte-identical",
                   lambda: checks.digest_tree(wl.sim_dir)
                   == checks.digest_tree(rerun))
        shutil.rmtree(rerun, ignore_errors=True)
        if wl.name == "survey":
            scenes.write_trajectories(wl.sim_dir,
                                      wl.root / "trajectories.jsonl")

    def run_chain(self, prefix=lambda: CLI):
        """One pass over the chain into a fresh `out`; returns the wall
        time per stage, the pipeline wall time and the processes.
        `prefix()` gives the interpreter arguments for each command."""
        out = self.wl.root / "out"
        shutil.rmtree(out, ignore_errors=True)
        (out / "heat").mkdir(parents=True)
        stage_s = defaultdict(float)
        procs = []
        t0 = time.perf_counter()
        for step in self.wl.steps:
            proc = self.command(step.argv, prefix=prefix())
            stage_s[step.stage] += proc.wall_s
            procs.append(proc)
        return stage_s, time.perf_counter() - t0, procs

    def measure(self, seconds: float) -> None:
        start = time.perf_counter()
        last = 0.0
        while True:
            # start another chain only if it should end within `seconds`;
            # two always run, so that every run makes the rerun check
            elapsed = time.perf_counter() - start
            runs = len(self.samples["pipeline_s"])
            if runs >= 2 and elapsed + last > seconds:
                break
            stage_s, pipeline, procs = self.run_chain()
            last = pipeline
            self.chain_procs += procs
            self.samples["pipeline_s"].append(pipeline)
            for stage in STAGES:
                self.samples[f"{stage}_s"].append(stage_s[stage])
            busy = stage_s["track"] + stage_s["analyze"]
            self.samples["frames_per_s"].append(self.wl.frames / busy)
            digest = checks.digest_tree(self.wl.root / "out")
            if self.first_digest is None:
                self.first_digest = digest
                self.check_outputs()
            else:
                self.check(f"chain rerun {runs + 1} byte-identical",
                           lambda d=digest: d == self.first_digest)

    def check_outputs(self) -> None:
        """Checks on the first pass's artifacts; also takes the accuracy
        metrics, which a failed check leaves unset."""
        wl = self.wl
        out = wl.root / "out"
        loaded = {}

        def finite():
            loaded["truth"] = json.loads((wl.sim_dir / "truth.json")
                                         .read_text())
            loaded["rows"] = checks.read_tracks(out / "tracks.jsonl")
            return all(checks.all_finite(r) for r in loaded["rows"])

        def identified():
            truth, rows = loaded["truth"], loaded["rows"]
            owners = checks.nearest_actors(rows, truth)
            self.values["speed_mae_mph"] = checks.speed_mae_mph(rows, owners,
                                                                truth)
            self.values["id_switches"] = checks.id_switches(rows, owners)
            return not checks.unidentified_vehicles(truth, owners)

        def calibrated():
            self.values["calib_err_px"] = checks.calib_err_px(
                json.loads((out / "cal" / "calibration.json").read_text()),
                json.loads((wl.sim_dir / "matches.json").read_text()))
            return True

        self.check("tracks finite", finite)
        self.check("every scripted vehicle identified", identified)
        self.check("calibration readable", calibrated)
        heat_files = sorted(out.rglob("heat_*.json"))
        self.check("heat maps written", lambda: len(heat_files) >= 5)
        for path in heat_files:
            self.check(f"{path.relative_to(out)} units = 144 x events",
                       lambda p=path: checks.heat_mass_ok(p))
        if wl.name == "survey":
            for kind in scenes.HEAT_KINDS:
                base = f"heat_{kind}.json"
                self.check(f"merged {base} = sum of shards",
                           lambda b=base: checks.merge_ok(
                               [out / "shard0" / b, out / "shard1" / b],
                               out / "heat" / b))

    def trace(self, trace_dir: Path) -> dict[str, float]:
        """One traced simulate + chain; returns the per-layer metrics."""
        wl = self.wl
        trace_id = f"{wl.name}-s{wl.seed}-{os.getpid()}"
        span_dir = wl.root / "spans"
        span_dir.mkdir()
        tracer_py = str(Path(__file__).with_name("tracer.py"))
        counter = itertools.count()

        def prefix():
            return (tracer_py, str(span_dir / f"{next(counter):03d}.json"),
                    trace_id)

        traced_sim = wl.root / "sim_traced"
        self.command(wl.simulate_argv(traced_sim), prefix=prefix())
        self.check("traced simulate output unchanged",
                   lambda: checks.digest_tree(traced_sim)
                   == checks.digest_tree(wl.sim_dir))
        _, pipeline, _ = self.run_chain(prefix=prefix)
        self.check("traced chain output unchanged",
                   lambda: checks.digest_tree(wl.root / "out")
                   == self.first_digest)
        dumps = [json.loads(p.read_text())
                 for p in sorted(span_dir.glob("*.json"))]
        layers = tracer.per_layer(dumps)
        layers["trace.pipeline_s"] = pipeline
        layers["trace.overhead_s"] = pipeline - spans.quartiles(
            self.samples["pipeline_s"])[1]
        layers.update(self.import_times())
        trace_dir.mkdir(parents=True, exist_ok=True)
        with gzip.open(trace_dir / f"{wl.name}-s{wl.seed}.json.gz", "wt") as fh:
            json.dump({"trace_id": trace_id, "processes": dumps}, fh)
        return layers

    def import_times(self) -> dict[str, float]:
        """Median `-X importtime` cumulative seconds of numpy, scipy and
        roadscene's own modules, from fresh interpreters."""
        samples = defaultdict(list)
        for _ in range(IMPORTTIME_RUNS):
            proc = self.command(["-X", "importtime", "-c",
                                 "import roadscene.cli"], prefix=())
            for key, value in parse_importtime(proc.stderr).items():
                samples[key].append(value)
        return {f"setup.import_s.{k}": spans.quartiles(v)[1]
                for k, v in samples.items()}


def parse_importtime(text: str) -> dict[str, float]:
    """Seconds spent importing numpy, scipy and the rest of roadscene.cli.

    Each package's figure is the cumulative time of its outermost entries:
    an entry nested under a numpy or scipy entry is already counted there.
    `roadscene` is roadscene.cli's cumulative time less those two.
    """
    out = {"numpy": 0.0, "scipy": 0.0, "roadscene": 0.0}
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = len(name) - len(name.lstrip(" "))
        entries.append((depth, int(cumulative) * 1e-6, name.strip()))
    # importtime prints children before their parent, deeper indented
    for i, (depth, cumulative, name) in enumerate(entries):
        package = name.split(".")[0]
        if package in ("numpy", "scipy"):
            enclosing = _enclosing(entries, i)
            if not any(n.split(".")[0] in ("numpy", "scipy")
                       for n in enclosing):
                out[package] += cumulative
        elif name == "roadscene.cli":
            out["roadscene"] = cumulative
    out["roadscene"] -= out["numpy"] + out["scipy"]
    return out


def _enclosing(entries, i: int) -> list[str]:
    """Names of the entries that enclose entry i (printed after it, less
    indented)."""
    depth = entries[i][0]
    names = []
    for d, _, name in entries[i + 1:]:
        if d < depth:
            names.append(name)
            depth = d
    return names


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy")}


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(run: Run, layers: dict | None, seed: int) -> dict:
    """Print the tables and return the JSON result."""
    n_chains = len(run.samples["pipeline_s"])
    env = environment()
    print(f"# workload={run.wl.name} seed={seed} chains={n_chains} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    value = dict(run.values)
    value["peak_rss_mb"] = max(p.max_rss_mb for p in run.chain_procs)
    for name, _, _ in END_TO_END:
        if name in run.samples:
            value[name] = spans.quartiles(run.samples[name])[1]
        elif not math.isfinite(value.get(name, math.nan)) \
                and name not in TABLE_ONLY:
            run.failures.append(f"{name} not measured")
            value[name] = 0.0
    value["failed_ops"] = len(run.failures) / max(run.attempted, 1)
    print(f"{'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}{'n':>4}  unit")
    for name, unit, _ in END_TO_END:
        if name in run.samples:
            q1, med, q3 = spans.quartiles(run.samples[name])
            n = len(run.samples[name])
            print(f"{name:<16}{_fmt(med):>12}{_fmt(q1):>12}{_fmt(q3):>12}"
                  f"{n:>4}  {unit}")
        else:
            print(f"{name:<16}{_fmt(value.get(name, math.nan)):>12}"
                  f"{'':>12}{'':>12}{1:>4}  {unit}")
    for failure in run.failures:
        print(f"FAIL {failure}")
    if layers is None:
        metrics = {name: {"value": value[name], "unit": unit}
                   for name, unit, _ in END_TO_END if name not in TABLE_ONLY}
    else:
        print(f"{'layer metric':<36}{'value':>14}  unit")
        metrics = {}
        for name, unit in per_layer_metrics():
            v = float(layers.get(name, 0.0))
            metrics[name] = {"value": v, "unit": unit}
            print(f"{name:<36}{_fmt(v):>14}  {unit}")
    return {"correct": not run.failures, "attempted": run.attempted,
            "failed": len(run.failures), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=scenes.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run unwinds, so the running command is killed and the
    # work directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "roadscene" / "cli.py").is_file():
        print(f"error: no roadscene sources under {root / 'src'}; run from "
              f"the root of a roadscene checkout", file=sys.stderr)
        return 2
    runs_dir = root / ".perfbench_runs"
    work = runs_dir / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        wl = scenes.build(args.workload, args.seed, work)
        run = Run(wl, chain.python_env(root))
        run.setup()
        run.measure(args.seconds)
        layers = run.trace(runs_dir / "traces") if args.trace else None
        result = report(run, layers, args.seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
