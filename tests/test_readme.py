"""The README's walkthrough runs as written.

The scenario in its `json` block, the `roadscene` commands in its `sh`
blocks and the keys in its `ini` block go through `cli.main` in a fresh
directory, every command with that config.  A key or flag the README names
that the program no longer accepts fails here.
"""

import re
import shlex
from pathlib import Path

from roadscene.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(lang: str) -> list[str]:
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{lang}\n(.*?)^```", text, re.M | re.S)


def _commands() -> list[list[str]]:
    argvs = []
    for block in _blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line)
            if words and words[0] == "roadscene":
                argvs.append(words[1:])
    return argvs


def test_readme_walkthrough_runs(tmp_path, monkeypatch):
    (scene,) = [b for b in _blocks("json") if '"camera"' in b]
    (config,) = _blocks("ini")
    (tmp_path / "scene.json").write_text(scene)
    (tmp_path / "run.cfg").write_text(config)
    monkeypatch.chdir(tmp_path)
    argvs = _commands()
    assert [a[0] for a in argvs[:6]] == ["simulate", "calibrate", "track",
                                         "segment", "analyze", "render"]
    for argv in argvs:
        assert main(argv + ["--config", "run.cfg"]) == 0, argv
