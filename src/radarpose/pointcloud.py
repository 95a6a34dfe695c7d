"""Point-cloud preprocessing: mount transforms, stream alignment, fusion,
DBSCAN denoising, SNR normalization, and dual-view input packing.

World frame: x lateral, y forward from the radar wall (depth), z up.
Radar frame: x lateral, y along boresight, z up; a mounted radar is pitched
down by its tilt and raised to its mount height.
"""

from __future__ import annotations

import bisect
import math
import numbers
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .physics import require_count
from .records import FUSED_RADAR_ID, make_record

if TYPE_CHECKING:
    from .scene import SkeletonFrame


@dataclass(frozen=True)
class RadarPose:
    """Where a radar is mounted: height above the floor and downward pitch."""

    height_m: float
    tilt_down_rad: float

    def __post_init__(self):
        if self.height_m < 0:
            raise ValueError("height_m must be >= 0")
        if not abs(self.tilt_down_rad) < math.pi / 2:
            raise ValueError("|tilt_down_rad| must be < pi/2")


#: The mount of each radar, indexed by radar id: one low and gently tilted,
#: one high and steeper.
RADAR_A_POSE = RadarPose(height_m=1.0, tilt_down_rad=math.radians(15.0))
RADAR_B_POSE = RadarPose(height_m=2.0, tilt_down_rad=math.radians(20.0))
DEFAULT_POSES = (RADAR_A_POSE, RADAR_B_POSE)


@dataclass
class FusedFrame:
    """Denoised, world-frame, timestamp-aligned merge of the radar streams.

    The timestamp and the motion labels are those of ``gt``.
    """

    points: np.ndarray  # (N, 5): x, y, z, velocity, snr
    gt: SkeletonFrame
    frame_id: int


def _pitch_rotation(tilt_down_rad: float) -> np.ndarray:
    """Rotation about the lateral (x) axis taking radar frame to world frame.

    The boresight (0, 1, 0) maps to forward-and-down (0, cos t, -sin t).
    """
    ct, st = math.cos(tilt_down_rad), math.sin(tilt_down_rad)
    return np.array([[1.0, 0.0, 0.0], [0.0, ct, st], [0.0, -st, ct]])


def transform_to_world(xyz: np.ndarray, pose: RadarPose) -> np.ndarray:
    """Vectorized radar-to-world map for an (N, 3) array."""
    rot = _pitch_rotation(pose.tilt_down_rad)
    out = np.asarray(xyz, dtype=float) @ rot.T
    out[:, 2] += pose.height_m
    return out


def transform_to_radar(xyz: np.ndarray, pose: RadarPose) -> np.ndarray:
    """Exact inverse of :func:`transform_to_world` for an (N, 3) array."""
    rot = _pitch_rotation(pose.tilt_down_rad)
    out = np.asarray(xyz, dtype=float).copy()
    out[:, 2] -= pose.height_m
    return out @ rot


def rotate_to_radar(vec: np.ndarray, pose: RadarPose) -> np.ndarray:
    """Rotate world-frame direction vectors (N, 3) into the radar frame."""
    rot = _pitch_rotation(pose.tilt_down_rad)
    return np.asarray(vec, dtype=float) @ rot


def check_window_ms(window_ms: float) -> None:
    """Reject a stream-alignment window that is negative or not finite."""
    if not (math.isfinite(window_ms) and window_ms >= 0):
        raise ValueError(f"window_ms must be finite and >= 0, got {window_ms}")


def check_dbscan_args(eps: float, min_pts: int) -> None:
    """Reject a DBSCAN radius that is not > 0 (NaN included) or a ``min_pts`` below 1
    or not an integer (a float or a bool)."""
    if not eps > 0:
        raise ValueError("eps must be > 0")
    if min_pts < 1:
        raise ValueError("min_pts must be >= 1")
    require_count("min_pts", min_pts, 1)


def check_radar_ids(radar_ids) -> None:
    """Reject a radar id with no mount in ``DEFAULT_POSES``, one that is not an
    integer (a float or a bool), or one given twice, naming it."""
    for i, rid in enumerate(radar_ids):
        if not 0 <= rid < len(DEFAULT_POSES):
            raise ValueError(f"radar id {rid} has no pose; the poses cover radar ids 0 to {len(DEFAULT_POSES) - 1}")
        require_count(f"radar_ids[{i}]", rid, 0)
        if rid in radar_ids[:i]:
            raise ValueError(f"radar id {rid} is repeated in radar_ids {tuple(radar_ids)}")


def align_streams(ta, tb, window_ms: float) -> list[tuple[int, int]]:
    """Pair two sorted timestamp sequences by greedy nearest timestamp.

    Candidate pairs with |dt| <= window_ms / 2 are accepted closest-first,
    ties going to the lower a index, then the lower b index; each frame is
    used at most once. Returns the (i, j) index pairs into ``ta`` and ``tb``,
    sorted by the a-side timestamp. An unsorted sequence or a negative or
    non-finite ``window_ms`` raises.
    """
    check_window_ms(window_ms)
    for name, ts in (("stream_a", ta), ("stream_b", tb)):
        if any(t2 < t1 for t1, t2 in zip(ts, ts[1:])):
            raise ValueError(f"{name} is not sorted by timestamp")

    half = window_ms / 2.0
    candidates = []
    for i, t in enumerate(ta):
        lo = bisect.bisect_left(tb, t - half)
        hi = bisect.bisect_right(tb, t + half)
        for j in range(lo, hi):
            candidates.append((abs(tb[j] - t), i, j))
    candidates.sort()

    used_a, used_b = set(), set()
    pairs = []
    for _, i, j in candidates:
        if i in used_a or j in used_b:
            continue
        used_a.add(i)
        used_b.add(j)
        pairs.append((i, j))
    pairs.sort()
    return pairs


def dbscan(xyz, eps: float, min_pts: int) -> np.ndarray:
    """Density-based clustering on Euclidean distance; noise labelled -1.

    Deterministic: seeds are scanned in ascending index order and each
    cluster expands breadth-first through ascending-index neighborhoods.
    """
    check_dbscan_args(eps, min_pts)
    pts = np.asarray(xyz, dtype=float)
    n = len(pts)
    if n == 0:
        return np.empty(0, dtype=int)
    pts = pts.reshape(n, -1)

    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    # the whole adjacency at once; each neighborhood a list, in ascending index order
    adjacent = d2 <= eps * eps
    counts = adjacent.sum(axis=1)
    cols = np.nonzero(adjacent)[1].tolist()
    ends = np.cumsum(counts).tolist()
    neighbors = [cols[end - count:end] for end, count in zip(ends, counts.tolist())]
    core = (counts >= min_pts).tolist()

    labels = [-1] * n
    scheduled = [False] * n
    cluster = 0
    for seed in range(n):
        if scheduled[seed] or not core[seed]:
            continue
        scheduled[seed] = True
        labels[seed] = cluster
        queue = deque([seed])
        while queue:
            for k in neighbors[queue.popleft()]:
                if labels[k] == -1:
                    labels[k] = cluster
                if core[k] and not scheduled[k]:
                    scheduled[k] = True
                    queue.append(k)
        cluster += 1
    return np.array(labels, dtype=int)


def snr_bounds(records) -> tuple[float, float]:
    """Min/max SNR over every point of a record list (the training split)."""
    values = [p[4] for rec in records for p in rec["points"]]
    if not values:
        raise ValueError("cannot derive SNR bounds from a dataset with no points")
    return float(min(values)), float(max(values))


def check_snr_bounds(lo, hi) -> None:
    """Raise unless ``lo`` and ``hi`` are finite real numbers (a bool is not one) with ``lo <= hi``."""
    real = all(isinstance(b, numbers.Real) and not isinstance(b, bool) and math.isfinite(b) for b in (lo, hi))
    if not (real and lo <= hi):
        raise ValueError(f"SNR bounds must be finite with snr_min <= snr_max, got snr_min={lo!r}, snr_max={hi!r}")


def normalize_snr(records, bounds: tuple[float, float] | None = None):
    """Min-max scale point SNR to [0, 1].

    Without explicit ``bounds`` the constants are computed from ``records``
    (use the training split for that, then pass the returned constants when
    scaling test data; scaled test values may fall outside [0, 1]). A
    degenerate span maps everything to 0.5. Bounds that
    :func:`check_snr_bounds` refuses raise.
    """
    if bounds is None:
        bounds = snr_bounds(records)
    lo, hi = bounds
    check_snr_bounds(lo, hi)
    span = hi - lo
    out = []
    for rec in records:
        rec = dict(rec)
        if span == 0:
            rec["points"] = [[x, y, z, v, 0.5] for x, y, z, v, _ in rec["points"]]
        else:
            rec["points"] = [[x, y, z, v, (s - lo) / span] for x, y, z, v, s in rec["points"]]
        out.append(rec)
    return out, (lo, hi)


def canonical_order(arr: np.ndarray) -> np.ndarray:
    """Sort order by (range from world origin, azimuth, z), fully tie-broken:
    then by velocity and SNR, and rows equal in value by the signs of their zeros."""
    rng = np.linalg.norm(arr[:, :3], axis=1)
    az = np.arctan2(arr[:, 0], arr[:, 1])
    return np.lexsort((*np.signbit(arr).T, arr[:, 4], arr[:, 3], arr[:, 2], az, rng))


def build_views(points: np.ndarray, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Pack a fused frame's (N, 5) points into the two view matrices.

    Returns ``(view_xy, view_yz)``, each ``(n_max, 4)``: features
    ``(x, y, v, snr)`` and ``(y, z, v, snr)``. Points are canonically sorted,
    truncated to the ``n_max`` nearest, and zero-padded; the result is
    exactly invariant to input point order.

    The yz view carries depth and radar identity, not elevation: the radars
    measure no height, so each fused point lies on its radar's plane
    z = h - tan(tilt) y, and a row's z follows from its y and its radar.
    """
    arr = points[canonical_order(points)][:n_max]
    kept = len(arr)
    view_xy = np.zeros((n_max, 4))
    view_yz = np.zeros((n_max, 4))
    view_xy[:kept] = arr[:, [0, 1, 3, 4]]
    view_yz[:kept] = arr[:, [1, 2, 3, 4]]
    return view_xy, view_yz


def build_cloud(view_xy: np.ndarray, view_yz: np.ndarray) -> np.ndarray:
    """The world xyz cloud of packed views, shaped ``(..., n_max, 3)``.

    x and y come from ``view_xy``, z from ``view_yz[..., 1]``: a pure copy, so
    it is bitwise the canonically sorted, truncated, zero-padded xyz that
    :func:`build_views` packed.
    """
    return np.concatenate([view_xy[..., :2], view_yz[..., 1:2]], axis=-1)


def _transform_record_points(rec: dict, pose: RadarPose) -> np.ndarray:
    pts = np.asarray(rec["points"], dtype=float).reshape(-1, 5)
    bad = np.argwhere(~np.isfinite(pts))
    if len(bad):  # e.g. an overflowing literal such as 1e999, which json reads as inf
        row, col = bad[0]
        raise ValueError(f"frame {rec['frame_id']}, radar {rec['radar_id']}: point {row} holds {pts[row, col]}")
    pts[:, :3] = transform_to_world(pts[:, :3], pose)
    return pts


DEFAULT_WINDOW_MS = 50.0
DEFAULT_EPS_M = 0.4
DEFAULT_MIN_PTS = 3


def fuse_records(
    records: list[dict],
    radar_ids=(0, 1),
    window_ms: float = DEFAULT_WINDOW_MS,
    eps: float = DEFAULT_EPS_M,
    min_pts: int = DEFAULT_MIN_PTS,
) -> list[dict]:
    """Turn raw per-radar records into denoised world-frame fused records.

    Each fused record comes from a group of raw records: one radar frame
    when one id is given, a timestamp-aligned pair of frames when two are.
    Each record's points are moved to the world frame by its radar's mount,
    ``DEFAULT_POSES[radar_id]``; the group's points are merged and denoised.
    The record takes the group's integer mean ``t_ms``, the first record's
    frame id and labels, and the lone radar id or ``FUSED_RADAR_ID``.
    A negative or non-finite ``window_ms``, a bad ``eps`` or ``min_pts``, and
    a radar id that :func:`check_radar_ids` refuses raise in both modes,
    before any record is read; a point value that is not finite raises,
    naming the frame and the radar.
    """
    check_window_ms(window_ms)
    check_dbscan_args(eps, min_pts)
    if len(radar_ids) not in (1, 2):
        raise ValueError("radar_ids must name one or two radars")
    check_radar_ids(radar_ids)
    streams = {
        rid: sorted((r for r in records if r["radar_id"] == rid), key=lambda r: (r["t_ms"], r["frame_id"]))
        for rid in radar_ids
    }
    if len(radar_ids) == 2:
        stream_a, stream_b = streams.values()
        aligned = align_streams([r["t_ms"] for r in stream_a], [r["t_ms"] for r in stream_b], window_ms)
        groups = [(stream_a[i], stream_b[j]) for i, j in aligned]
        radar_id = FUSED_RADAR_ID
    else:
        (radar_id,) = radar_ids
        groups = [(rec,) for rec in streams[radar_id]]
    fused = []
    for group in groups:
        pts = np.vstack([_transform_record_points(rec, DEFAULT_POSES[rec["radar_id"]]) for rec in group])
        if len(pts):
            pts = pts[dbscan(pts[:, :3], eps, min_pts) != -1]
        src = group[0]
        fused.append(make_record(
            frame_id=src["frame_id"],
            t_ms=sum(rec["t_ms"] for rec in group) // len(group),
            radar_id=radar_id,
            points=pts,
            gt=src["gt"],
            action=src["action"],
            subject=src["subject"],
            swing_state=src["swing_state"],
            fused=True,
        ))
    return fused
