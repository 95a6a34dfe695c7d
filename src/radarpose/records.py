"""JSON Lines dataset records.

One record per (frame, radar): radar-frame points, world-frame ground-truth
joints, and motion labels. Preprocessed (fused) files reuse the same schema
with ``"fused": true``, world-frame points, and normalized SNR.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

ACTIONS = ("walk_toward", "walk_away", "swing_right", "swing_left")
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


def _rows_of(rows, width: int) -> bool:
    """Whether ``rows`` is a list of rows of ``width`` values."""
    try:
        return list(map(len, rows)).count(width) == len(rows)
    except TypeError:  # not a list of rows
        return False


def validate_record(rec) -> dict:
    """Check a record's layout, naming its frame and the field: every key; integer
    (not bool) ids, time and subject; an ``action`` in ``ACTIONS``, a ``swing_state``
    in ``SWING_STATES``, ``fused`` absent or true; 32 ``[x, y, z]`` rows in ``gt``
    and ``[x, y, z, v, snr]`` points. These are type and membership checks only:
    point and joint values are checked where they become arrays."""
    if not isinstance(rec, dict):
        raise ValueError(f"record is a {type(rec).__name__}, not an object")
    for k in ("frame_id", "t_ms", "radar_id", "points", "gt", "action", "subject", "swing_state"):
        if k not in rec:
            raise ValueError(f"record missing key {k!r}")
    fid, gt = rec["frame_id"], rec["gt"]
    for k in ("frame_id", "t_ms", "radar_id", "subject"):
        if type(rec[k]) is not int:  # a bool is no int here
            raise ValueError(f"frame {fid}: {k} must be an integer, got {rec[k]!r}")
    for k, allowed in (("action", ACTIONS), ("swing_state", SWING_STATES)):
        if rec[k] not in allowed:
            raise ValueError(f"frame {fid}: {k} must be one of {allowed}, got {rec[k]!r}")
    if rec.get("fused", True) is not True:
        raise ValueError(f"frame {fid}: fused must be true when present, got {rec['fused']!r}")
    if not (_rows_of(gt, 3) and len(gt) == 32):
        got = f"{len(gt)} rows" if _rows_of(gt, 3) else "rows that are not 3 values each"
        raise ValueError(f"frame {fid}: gt is not 32 finite [x, y, z] rows (got {got})")
    if not _rows_of(rec["points"], 5):
        raise ValueError(f"frame {fid}: points are not [x, y, z, v, snr] rows")
    return rec


def write_jsonl(path, records) -> None:
    """Write records as UTF-8 JSON Lines with LF endings. A NaN or inf raises,
    naming the frame, before the file is opened, so no partial file is left."""
    path = Path(path)
    encoder = json.JSONEncoder(allow_nan=False)  # json.dumps' settings otherwise
    lines = []
    for rec in records:
        try:
            lines.append(encoder.encode(rec) + "\n")
        except ValueError as exc:
            raise ValueError(f"{path}: frame {rec.get('frame_id')}: {exc}") from None
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)


def read_jsonl(path) -> list[dict]:
    """Read JSON Lines records checked by :func:`validate_record`; errors name the
    file line and the frame. ``NaN`` and ``[-]Infinity``, which JSON lacks, raise."""
    constants = []  # NaN and [-]Infinity tokens met: json takes them, and only they call parse_constant
    decode = json.JSONDecoder(parse_constant=lambda name: constants.append(name) or float(name)).decode
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                out.append(validate_record(decode(line)))
                if constants:
                    raise ValueError(f"frame {out[-1]['frame_id']}: {constants[0]} is not a finite number")
            except ValueError as exc:  # json.JSONDecodeError is a ValueError
                raise ValueError(f"{path} line {lineno}: {exc}") from None
    return out
