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

#: every record field in file order, with what it holds: an integer (a bool is
#: none) of at least the given value, one of the given labels, or rows of the
#: given columns (``gt`` holds one row per joint, 32)
RECORD_FIELDS = {
    "frame_id": ("int", 0),
    "t_ms": ("int", 0),
    "radar_id": ("int", FUSED_RADAR_ID),
    "points": ("rows", ("x", "y", "z", "v", "snr")),
    "gt": ("rows", ("x", "y", "z")),
    "action": ("label", ACTIONS),
    "subject": ("int", 0),
    "swing_state": ("label", SWING_STATES),
}


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
    """One dataset record, its arguments in file order, checked by :func:`validate_record`.

    ``points`` and ``gt`` are rows of numbers (nested lists or a 2-D array),
    stored as Python floats; a numpy integer is stored as an int, and every
    other value as given, so what :func:`read_jsonl` would refuse raises here.
    """
    values = (frame_id, t_ms, radar_id, points, gt, action, subject, swing_state)
    rec = {
        k: np.asarray(v, dtype=float).tolist() if kind == "rows" else int(v) if isinstance(v, np.integer) else v
        for (k, (kind, _)), v in zip(RECORD_FIELDS.items(), values)
    }
    if fused:
        rec["fused"] = True
    return validate_record(rec)


def _rows_of(rows, width: int) -> bool:
    """Whether ``rows`` is a list of rows of ``width`` values."""
    try:
        return list(map(len, rows)).count(width) == len(rows)
    except TypeError:  # not a list of rows
        return False


def validate_record(rec) -> dict:
    """Check a record against ``RECORD_FIELDS``, naming its frame and the field:
    every key; integer (not bool) ids, time and subject at or above their least
    values; an ``action`` in ``ACTIONS``, a ``swing_state`` in ``SWING_STATES``,
    ``fused`` absent or true; 32 ``[x, y, z]`` rows in ``gt`` and ``[x, y, z, v,
    snr]`` points. These are type, range and membership checks only: point and
    joint values are checked where they become arrays."""
    if not isinstance(rec, dict):
        raise ValueError(f"record is a {type(rec).__name__}, not an object")
    for k in RECORD_FIELDS:
        if k not in rec:
            raise ValueError(f"record missing key {k!r}")
    fid = rec["frame_id"]
    for k, (kind, rule) in RECORD_FIELDS.items():
        v = rec[k]
        if kind == "int":
            if type(v) is not int:
                raise ValueError(f"frame {fid}: {k} must be an integer, got {v!r}")
            if v < rule:
                raise ValueError(f"frame {fid}: {k} must be >= {rule}, got {v}")
        elif kind == "label":
            if v not in rule:
                raise ValueError(f"frame {fid}: {k} must be one of {rule}, got {v!r}")
        elif not (_rows_of(v, len(rule)) and (k != "gt" or len(v) == 32)):
            cols = f"[{', '.join(rule)}]"
            if k != "gt":
                raise ValueError(f"frame {fid}: {k} are not {cols} rows")
            got = f"{len(v)} rows" if _rows_of(v, len(rule)) else f"rows that are not {len(rule)} values each"
            raise ValueError(f"frame {fid}: gt is not 32 finite {cols} rows (got {got})")
    if rec.get("fused", True) is not True:
        raise ValueError(f"frame {fid}: fused must be true when present, got {rec['fused']!r}")
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
