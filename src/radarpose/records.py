"""JSON Lines dataset records.

One record per (frame, radar): radar-frame points, world-frame ground-truth
joints, and motion labels. Preprocessed (fused) files reuse the same schema
with ``"fused": true``, world-frame points, and normalized SNR.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

SWING_STATES = ("none", "left", "right")

#: radar_id used for records holding the merged output of both radars
FUSED_RADAR_ID = -1


def make_record(
    frame_id: int,
    t_ms: int,
    radar_id: int,
    points,
    gt,
    action: str,
    subject: int,
    swing_state: str,
    fused: bool = False,
) -> dict:
    """Assemble one dataset record with a fixed key order.

    ``points`` and ``gt`` are rows of numbers: nested lists or a 2-D array.
    """
    if swing_state not in SWING_STATES:
        raise ValueError(f"swing_state must be one of {SWING_STATES}, got {swing_state!r}")
    rec = {
        "frame_id": int(frame_id),
        "t_ms": int(t_ms),
        "radar_id": int(radar_id),
        "points": _float_rows(points),
        "gt": _float_rows(gt),
        "action": str(action),
        "subject": int(subject),
        "swing_state": swing_state,
    }
    if fused:
        rec["fused"] = True
    return rec


def _float_rows(rows) -> list:
    """Rows of numbers (nested lists or a 2-D array) as lists of Python floats."""
    return np.asarray(rows, dtype=float).tolist()


def validate_record(rec: dict) -> dict:
    for k in ("frame_id", "t_ms", "radar_id", "points", "gt", "action", "subject", "swing_state"):
        if k not in rec:
            raise ValueError(f"record missing key {k!r}")
    if len(rec["gt"]) != 32:
        raise ValueError(f"gt must hold 32 joints, got {len(rec['gt'])}")
    for p in rec["points"]:
        if len(p) != 5:
            raise ValueError("each point must be [x, y, z, v, snr]")
    return rec


def write_jsonl(path, records) -> None:
    """Write records as UTF-8 JSON Lines with LF endings."""
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def read_jsonl(path) -> list[dict]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(validate_record(json.loads(line)))
    return out
