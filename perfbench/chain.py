"""Run roadscene commands in fresh interpreters and time each one.

Every command gets its own `python -m roadscene.cli` process, as a shell or
scheduler would start it, so each timing includes interpreter start-up and
the package import.  The benchmark waits for one process to end before it
starts the next: a closed loop with one client.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Proc:
    """One finished command: wall time, peak RSS and exit code."""

    argv: list[str]
    wall_s: float
    max_rss_mb: float
    code: int
    stderr: str


def python_env(root: Path) -> dict:
    """Environment that imports roadscene from the checkout's `src`."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def run(prefix: list[str], argv: list[str], env: dict, log: Path) -> Proc:
    """Start `python <prefix> <argv>` and wait for it with `os.wait4`."""
    cmd = [sys.executable] + prefix + argv
    with open(log, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL,
                                stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # interrupted: leave no command running behind the benchmark
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux
    return Proc(argv=argv, wall_s=wall, max_rss_mb=usage.ru_maxrss / 1024.0,
                code=proc.returncode,
                stderr=log.read_text(errors="replace").strip())
