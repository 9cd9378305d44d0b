"""The README's walkthrough runs as written.

The scenario in its `json` block, the `roadscene` commands in its `sh`
blocks and the keys in its `ini` block go through `cli.main` in a fresh
directory, every command with that config.  A key or flag the README names
that the program no longer accepts fails here.  Its `python` block runs
too, and must give the speeds `track` writes.
"""

import json
import re
import shlex
from pathlib import Path

from roadscene.cli import main
from roadscene.records import homography_to_json, load_detections

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


def test_readme_library_loop_gives_track_speeds(tmp_path, monkeypatch):
    (scene,) = [b for b in _blocks("json") if '"camera"' in b]
    (snippet,) = _blocks("python")
    spec = json.loads(scene)
    # frames 40-44 carry no detection at all: the loop has no group for
    # them, and each track's filter predicts across the gap
    for actor in spec["actors"]:
        actor["hidden"] = [[40, 44]]
    (tmp_path / "scene.json").write_text(json.dumps(spec))
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--spec", "scene.json", "--out", "sim",
                 "--seed", "7"]) == 0
    pairs = json.loads(Path("sim/matches.json").read_text())["pairs"]
    names = {"pixel_pairs": [(p["cam"], p["sat"]) for p in pairs],
             "detections_by_frame": load_detections("sim/detections.jsonl")}
    exec(snippet, names)

    Path("calibration.json").write_text(json.dumps(
        {"g": homography_to_json(names["g"]), "iota_m_per_px": 0.05}))
    assert main(["track", "--detections", "sim/detections.jsonl",
                 "--calibration", "calibration.json",
                 "--out", "tracks.jsonl"]) == 0
    rows = [json.loads(line)
            for line in Path("tracks.jsonl").read_text().splitlines()]
    assert names["speeds"] == {(row["frame"], row["id"]): row["speed_mph"]
                               for row in rows}
    assert not any(40 <= frame <= 44 for frame, _ in names["speeds"])
    assert {id_ for frame, id_ in names["speeds"] if frame < 40} == {
        id_ for frame, id_ in names["speeds"] if frame > 44}
