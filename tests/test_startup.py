"""What a command pays before its first line of work.

Each command of the README runs in a fresh interpreter, as a shell starts
it, and must load only the stages it runs, not `numpy.ma`, and keep
numpy's BLAS on one thread.  Importing the package loads nothing until a
name is used.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_readme import _blocks, _commands

import roadscene

# after the command: its exit code, the roadscene modules loaded, whether
# numpy.ma was loaded, the process's thread count and the BLAS thread
# setting
PROBE = """\
import json, os, sys
from roadscene.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.startswith("roadscene.")),
                  "numpy.ma" in sys.modules,
                  len(os.listdir("/proc/self/task")),
                  os.environ.get("OPENBLAS_NUM_THREADS")]))
"""


def _fresh(code: str, *argv: str, cwd=None):
    """Run `code` in a fresh interpreter that imports this roadscene and
    has no BLAS thread setting; returns the JSON its last line prints."""
    env = {k: v for k, v in os.environ.items()
           if k != "OPENBLAS_NUM_THREADS"}
    src = str(Path(roadscene.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd,
                         env=env, check=True, capture_output=True, text=True,
                         timeout=120).stdout
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
        code, loaded, masked, threads, blas = _fresh(PROBE, *argv,
                                                     cwd=tmp_path)
        name = argv[0]
        assert code == 0, argv
        # numpy.ma costs ~10 ms to import, and no command needs it
        assert not masked, argv
        assert ("roadscene.simulate" in loaded) == (name == "simulate")
        assert ("roadscene.calibration" in loaded) == (name == "calibrate")
        if name == "merge":
            assert not {f"roadscene.{m}" for m in (
                "tracking", "box3d", "imaging", "roadmodel", "calibration",
                "seeding")} & set(loaded), loaded
        assert (threads, blas) == (1, "1"), argv


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
