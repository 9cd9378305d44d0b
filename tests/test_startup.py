"""What a command pays before its first line of work, and how it ends.

Each command of the README runs in a fresh interpreter, as a shell starts
it, and must load only the stages it runs, not `numpy.ma`, and keep
numpy's BLAS on one thread.  `import roadscene.cli`, `--help` and `merge`
load no numpy at all, and `merge` runs where numpy cannot be imported.
Importing the package loads nothing until a name is used.  `python -m
roadscene.cli` flushes what a command printed and ends without interpreter
teardown, with `main`'s exit code and error line.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_cli import OVERFLOW_ERROR, _source_env, overflow_scene
from test_readme import _blocks, _commands

import roadscene
from roadscene.cli import main

# after the command: its exit code, the roadscene modules loaded, whether
# numpy.ma and whether any numpy module was loaded, the process's thread
# count and the BLAS thread setting
PROBE = """\
import json, os, sys
from roadscene.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.startswith("roadscene.")),
                  "numpy.ma" in sys.modules,
                  any(m.startswith("numpy") for m in sys.modules),
                  len(os.listdir("/proc/self/task")),
                  os.environ.get("OPENBLAS_NUM_THREADS")]))
"""
# the numpy modules loaded after `code`
NUMPY_AFTER = """\
import json, sys
{code}
print(json.dumps(sorted(m for m in sys.modules if m.startswith("numpy"))))
"""


# what `import roadscene.cli` loads.  Only `track` runs motion: it is loaded
# because perfbench/tracer.py wraps motion's Kalman steps from sys.modules
# right after that import, so a leaner import would break the traced bench.
CLI_MODULES = {"cli", "config", "errors", "kalman", "motion", "records"}
# what each command loads on top; `analyze --boundary` also reads the
# boundary through roadmodel, which loads imaging
STAGES = {"simulate": {"geometry", "imaging", "seeding", "simulate",
                       "tracking"},
          "calibrate": {"calibration", "geometry", "imaging", "seeding"},
          "track": {"box3d", "geometry", "tracking"},
          "segment": {"geometry", "imaging", "roadmodel"},
          "analyze": {"analytics", "geometry"},
          "render": {"analytics", "geometry", "imaging"},
          "merge": set()}


def _fresh(code: str, *argv: str, cwd=None):
    """Run `code` in a fresh interpreter that imports this roadscene and
    has no BLAS thread setting; returns the JSON its last line prints."""
    out = subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd,
                         env=_source_env("OPENBLAS_NUM_THREADS"), check=True,
                         capture_output=True, text=True, timeout=120).stdout
    return json.loads(out.splitlines()[-1])


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                    reason="thread count is read from Linux /proc")
def test_each_command_loads_only_its_stages(tmp_path):
    (scene,) = [b for b in _blocks("json") if '"camera"' in b]
    (tmp_path / "scene.json").write_text(scene)
    argvs = _commands()
    assert {a[0] for a in argvs} == {"simulate", "calibrate", "track",
                                     "segment", "analyze", "render", "merge"}
    for argv in argvs:
        code, loaded, masked, numpy, threads, blas = _fresh(
            PROBE, *argv, cwd=tmp_path)
        assert code == 0, argv
        # numpy.ma costs ~10 ms to import, and no command needs it; numpy
        # itself ~60 ms, and only merge, heat maps or stats, goes without
        assert not masked, argv
        assert numpy == (argv[0] != "merge"), argv
        want = CLI_MODULES | STAGES[argv[0]]
        if "--boundary" in argv:
            want |= {"imaging", "roadmodel"}
        assert loaded == sorted(f"roadscene.{m}" for m in want), argv
        assert (threads, blas) == (1, "1"), argv
    assert _fresh("import json, sys, roadscene.cli; print(json.dumps(sorted("
                  "m for m in sys.modules if m.startswith('roadscene.'))))"
                  ) == sorted(f"roadscene.{m}" for m in CLI_MODULES)


def test_cli_import_and_help_load_no_numpy():
    assert _fresh(NUMPY_AFTER.format(code="import roadscene.cli")) == []
    assert _fresh(NUMPY_AFTER.format(code="""\
from roadscene.cli import main
try:
    main(["--help"])
except SystemExit:
    pass""")) == []


# the README's merges, with every numpy import failing
BLOCKED_MERGES = """\
import json, sys
sys.modules["numpy"] = None
from roadscene.cli import main
print(json.dumps([main(json.loads(argv)) for argv in sys.argv[1:]]))
"""


def test_readme_merges_run_without_numpy(tmp_path, monkeypatch):
    (scene,) = [b for b in _blocks("json") if '"camera"' in b]
    (tmp_path / "scene.json").write_text(scene)
    monkeypatch.chdir(tmp_path)
    argvs = _commands()
    for argv in argvs:
        assert main(argv) == 0, argv
    merges = [argv for argv in argvs if argv[0] == "merge"]
    outs = [argv[argv.index("--out") + 1] for argv in merges]
    assert sorted(Path(out).suffix for out in outs) == [".csv", ".json"]
    bare = [[f"bare/{word}" if word == out else word for word in argv]
            for argv, out in zip(merges, outs)]
    assert _fresh(BLOCKED_MERGES, *map(json.dumps, bare),
                  cwd=tmp_path) == [0, 0]
    for out in outs:
        assert Path("bare", out).read_bytes() == Path(out).read_bytes(), out


def test_package_import_loads_no_submodule():
    assert _fresh("import json, sys, roadscene; print(json.dumps(sorted("
                  "m for m in sys.modules if m.startswith('roadscene.'))))"
                  ) == []


def test_every_exported_name_resolves():
    for name in roadscene.__all__:
        assert getattr(roadscene, name) is not None, name
    with pytest.raises(AttributeError):
        roadscene.estimate_dlt


def test_library_import_leaves_blas_threads_alone():
    assert _fresh("import json, os; from roadscene import MomctTracker; "
                  "print(json.dumps(os.environ.get('OPENBLAS_NUM_THREADS')))"
                  ) is None


def _entry(*argv: str, cwd, stdout=subprocess.PIPE, unbuffered=False):
    """Run `python -m roadscene.cli` as a shell does, with stdout block
    buffered (no PYTHONUNBUFFERED) unless `unbuffered`, so that only the
    entry's own flush writes a summary line."""
    env = _source_env("PYTHONUNBUFFERED")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "roadscene.cli", *argv],
                          cwd=cwd, env=env, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=120)


def _closed_pipe_entry(*argv: str, cwd, unbuffered=False):
    """`_entry` with stdout a pipe whose reader is gone before it starts."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return _entry(*argv, cwd=cwd, stdout=write_end, unbuffered=unbuffered)
    finally:
        os.close(write_end)


def _stats_shards(tmp_path) -> list[str]:
    header = "frame,vehicles,pedestrians,avg_speed_mph\n"
    (tmp_path / "a.csv").write_text(header + "0,1,0,2.5\n")
    (tmp_path / "b.csv").write_text(header + "1,0,2,\n")
    return ["merge", "a.csv", "b.csv", "--out", "m.csv"]


MERGED_STATS = "frame,vehicles,pedestrians,avg_speed_mph\n0,1,0,2.5\n1,0,2,\n"


def test_entry_flushes_the_summary_into_a_pipe(tmp_path):
    proc = _entry(*_stats_shards(tmp_path), cwd=tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "merge: 2 stats shards -> m.csv (2 frames)\n", "")
    assert (tmp_path / "m.csv").read_text() == MERGED_STATS


def test_entry_keeps_main_exit_codes_and_error_lines(tmp_path):
    proc = _entry("merge", "missing.json", "--out", "x.json", cwd=tmp_path)
    assert proc.returncode == 2 and proc.stdout == "", proc
    assert proc.stderr.startswith("error: FileNotFoundError: "), proc.stderr
    assert proc.stderr.count("\n") == 1, proc.stderr
    proc = _entry(*overflow_scene(tmp_path), cwd=tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "",
                                                           OVERFLOW_ERROR)
    assert not (tmp_path / "tracks.jsonl").exists()


def test_entry_stdout_closed_by_its_reader_exits_2(tmp_path):
    # the reader is gone before the command prints: an output that cannot
    # be written, reported as `main` reports an unwritable --out, and no
    # teardown "Exception ignored ... BrokenPipeError" block
    proc = _closed_pipe_entry(*_stats_shards(tmp_path), cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (
        2, "error: BrokenPipeError: [Errno 32] Broken pipe\n")
    assert (tmp_path / "m.csv").read_text() == MERGED_STATS


@pytest.mark.parametrize("unbuffered", [False, True])
def test_help_into_a_closed_pipe_exits_2(tmp_path, unbuffered):
    # argparse prints --help and exits; buffered, the write fails at the
    # entry's flush, unbuffered at argparse's own write, and either is the
    # same one line
    proc = _entry("--help", cwd=tmp_path, unbuffered=unbuffered)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage: roadscene"), proc.stdout
    proc = _closed_pipe_entry("--help", cwd=tmp_path, unbuffered=unbuffered)
    assert (proc.returncode, proc.stderr) == (
        2, "error: BrokenPipeError: [Errno 32] Broken pipe\n")
