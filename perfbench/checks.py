"""Output checks and accuracy metrics, computed from the files the chain
wrote and the simulator's truth.

These readers parse the artifacts independently of roadscene's own
loaders, so a defect in a loader cannot hide a defect in a writer.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

BUMP_UNITS = 144
TRACK_AGE_FRAMES = 25


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON number {token}")


def read_tracks(path: Path) -> list[dict]:
    """Track rows; NaN or Infinity anywhere raises ValueError."""
    rows = []
    for line in path.read_text().splitlines():
        if line.strip():
            rows.append(json.loads(line, parse_constant=_reject_constant))
    return rows


def all_finite(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(all_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(all_finite(v) for v in value)
    return True


def nearest_actors(rows: list[dict], truth: dict) -> list[int | None]:
    """Index of the truth actor nearest in BEV to each row at its frame;
    None for rows without a BEV position."""
    positions = np.array([a["positions_bev"] for a in truth["actors"]])
    out = []
    for row in rows:
        if row["bev"] is None:
            out.append(None)
            continue
        d = positions[:, row["frame"], :] - np.asarray(row["bev"])
        out.append(int(np.argmin(np.einsum("ij,ij->i", d, d))))
    return out


def id_switches(rows: list[dict], owners: list[int | None]) -> int:
    """Rows whose nearest actor differs from that of the same track id's
    previous row (the identity test of acceptance criterion 6)."""
    last: dict[int, int] = {}
    switches = 0
    for row, owner in zip(rows, owners):
        if owner is None:
            continue
        prev = last.get(row["id"])
        if prev is not None and prev != owner:
            switches += 1
        last[row["id"]] = owner
    return switches


def speed_mae_mph(rows: list[dict], owners: list[int | None], truth: dict,
                  min_age: int = TRACK_AGE_FRAMES) -> float:
    """Mean |reported - true speed| over vehicle rows of tracks at least
    `min_age` frames old, against each row's nearest actor."""
    first: dict[int, int] = {}
    errors = []
    for row, owner in zip(rows, owners):
        first.setdefault(row["id"], row["frame"])
        if (owner is None or row["class"] == "pedestrian"
                or row["speed_mph"] is None
                or row["frame"] - first[row["id"]] < min_age):
            continue
        true = truth["actors"][owner]["speeds_mph"][row["frame"]]
        errors.append(abs(row["speed_mph"] - true))
    return sum(errors) / len(errors) if errors else math.nan


def unidentified_vehicles(truth: dict, owners: list[int | None]) -> list[int]:
    """Visible scripted vehicles that no track row was matched to."""
    matched = set(owners)
    return [i for i, a in enumerate(truth["actors"])
            if a["class"] != "pedestrian" and any(a["visible"])
            and i not in matched]


def calib_err_px(calibration: dict, matches: dict) -> float:
    """RMS BEV distance between the fitted homography's image of each
    true-inlier camera point and its aerial point."""
    g = np.array(calibration["g"], dtype=float)
    keep = ~np.array(matches["outlier_mask"], dtype=bool)
    cam = np.array([p["cam"] for p in matches["pairs"]], dtype=float)[keep]
    sat = np.array([p["sat"] for p in matches["pairs"]], dtype=float)[keep]
    proj = np.column_stack([cam, np.ones(len(cam))]) @ g.T
    proj = proj[:, :2] / proj[:, 2:3]
    return float(np.sqrt(np.mean(np.sum((proj - sat) ** 2, axis=1))))


def read_heat(path: Path) -> tuple[int, np.ndarray]:
    data = json.loads(path.read_text())
    return int(data["events"]), np.asarray(data["units"], dtype=np.int64)


def heat_mass_ok(path: Path) -> bool:
    """A heat map's integer units sum to BUMP_UNITS per event."""
    events, units = read_heat(path)
    return bool(units.min() >= 0 and units.sum() == BUMP_UNITS * events)


def merge_ok(shards: list[Path], merged: Path) -> bool:
    """Merged events and units equal the sums over the shards."""
    parts = [read_heat(p) for p in shards]
    events, units = read_heat(merged)
    return (events == sum(e for e, _ in parts)
            and bool(np.array_equal(units, sum(u for _, u in parts))))


def digest_tree(root: Path) -> dict[str, str]:
    """sha256 of every file under `root`, keyed by relative path."""
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}
