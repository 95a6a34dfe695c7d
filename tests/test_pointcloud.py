import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from radarpose import pointcloud
from radarpose.pointcloud import (
    DEFAULT_POSES,
    RadarPose,
    align_streams,
    build_cloud,
    build_views,
    canonical_order,
    dbscan,
    fuse_records,
    normalize_snr,
    transform_to_radar,
    transform_to_world,
)
from radarpose.records import ACTIONS, make_record
from radarpose.scene import MotionConfig, generate_dataset


# ---------------------------------------------------------------------------
# brute-force DBSCAN reference: core graph components + border assignment
# ---------------------------------------------------------------------------

def reference_dbscan(pts, eps, min_pts):
    n = len(pts)
    neighbors = []
    for i in range(n):
        nb = []
        for j in range(n):
            d2 = sum((pts[i][k] - pts[j][k]) ** 2 for k in range(len(pts[i])))
            if d2 <= eps * eps:
                nb.append(j)
        neighbors.append(nb)
    core = [len(nb) >= min_pts for nb in neighbors]

    # connected components over core points (union-find)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(n):
        if not core[i]:
            continue
        for j in neighbors[i]:
            if core[j]:
                parent[find(i)] = find(j)

    # components labelled in ascending order of their smallest core index
    comp_label = {}
    labels = [-1] * n
    for i in range(n):
        if core[i]:
            root = find(i)
            if root not in comp_label:
                comp_label[root] = len(comp_label)
            labels[i] = comp_label[root]
    # border points take the earliest-created cluster among core neighbors
    for i in range(n):
        if core[i]:
            continue
        cand = [labels[j] for j in neighbors[i] if core[j]]
        if cand:
            labels[i] = min(cand)
    return np.array(labels)


def canonical_labels(labels):
    """Rename clusters by first appearance so labelings compare up to renaming."""
    mapping = {}
    out = []
    for lab in labels:
        if lab == -1:
            out.append(-1)
            continue
        if lab not in mapping:
            mapping[lab] = len(mapping)
        out.append(mapping[lab])
    return np.array(out)


def random_instance(rng, n_max=200):
    n_blobs = int(rng.integers(1, 4))
    centers = rng.uniform(-4.0, 4.0, size=(n_blobs, 3))
    # keep blob centers far apart so no point can border two clusters
    while len(centers) > 1 and np.min(
        [np.linalg.norm(a - b) for i, a in enumerate(centers) for b in centers[i + 1 :]]
    ) < 2.0:
        centers = rng.uniform(-4.0, 4.0, size=(n_blobs, 3))
    parts = [c + rng.normal(0, 0.08, size=(int(rng.integers(8, 40)), 3)) for c in centers]
    n_noise = int(rng.integers(0, 30))
    if n_noise:
        parts.append(rng.uniform(-5.0, 5.0, size=(n_noise, 3)))
    pts = np.vstack(parts)[:n_max]
    return pts


# ---------------------------------------------------------------------------
# rigid transform
# ---------------------------------------------------------------------------

def _fused_rows(rows, pose, eps=0.3, min_pts=4):
    """(N, 5) points the single-radar fusion keeps of one record from a radar mounted at ``pose``."""
    rec = make_record(0, 0, 0, rows, [[0.0, 0.0, 0.0]] * 32, "walk_toward", 0, "none")
    with mock.patch.object(pointcloud, "DEFAULT_POSES", (pose,)):
        (fused,) = fuse_records([rec], radar_ids=(0,), eps=eps, min_pts=min_pts)
    return np.array(fused["points"]).reshape(-1, 5)


IDENTITY_POSE = RadarPose(height_m=0.0, tilt_down_rad=0.0)


def test_radar_to_world_identity_pose():
    p = np.array([0.3, 2.0, -0.1, 0.5, 10.0])
    (q,) = _fused_rows([p], IDENTITY_POSE, min_pts=1)
    np.testing.assert_allclose(q[:3], p[:3], atol=1e-15)
    assert q[3] == p[3] and q[4] == p[4]


def test_radar_to_world_worked_example():
    # boresight point 2 m ahead of a radar mounted at 2 m, tilted 20 deg down
    pose = RadarPose(height_m=2.0, tilt_down_rad=math.radians(20.0))
    (q,) = transform_to_world(np.array([[0.0, 2.0, 0.0]]), pose)
    # oracle: (0, 2 cos 20, 2 - 2 sin 20)
    np.testing.assert_allclose(q, [0.0, 2 * math.cos(math.radians(20)), 2 - 2 * math.sin(math.radians(20))], atol=1e-12)
    np.testing.assert_allclose(q, [0.0, 1.8794, 1.3160], atol=1e-4)


def test_transform_is_rigid_and_invertible():
    rng = np.random.default_rng(7)
    pose = RadarPose(height_m=1.7, tilt_down_rad=math.radians(12.0))
    a = rng.uniform(-3, 3, size=(500, 3))
    b = rng.uniform(-3, 3, size=(500, 3))
    wa, wb = transform_to_world(a, pose), transform_to_world(b, pose)
    np.testing.assert_allclose(
        np.linalg.norm(wa - wb, axis=1), np.linalg.norm(a - b, axis=1), atol=1e-9
    )
    np.testing.assert_allclose(transform_to_radar(wa, pose), a, atol=1e-9)


def test_world_to_radar_roundtrip_single_point():
    pose = RadarPose(height_m=1.0, tilt_down_rad=math.radians(15.0))
    p = np.array([[0.2, 2.5, 0.3]])
    back = transform_to_radar(transform_to_world(p, pose), pose)
    np.testing.assert_allclose(back, p, atol=1e-12)


# ---------------------------------------------------------------------------
# stream alignment
# ---------------------------------------------------------------------------

def test_align_identical_timestamps():
    a = [0, 50, 100, 150]
    pairs = align_streams(a, list(a), window_ms=40)
    assert pairs == [(i, i) for i in range(len(a))]


def test_align_offset_beyond_window_pairs_nothing():
    a = [0, 100, 200]
    b = [t + 100 for t in a[:2]]  # 100 > window/2 for every candidate except shared points
    pairs = align_streams(a, b, window_ms=100)
    # |dt| must be <= 50; (100,100) and (200,200) qualify at dt=0
    assert pairs == [(1, 0), (2, 1)]
    assert align_streams([0, 100], [250, 350], window_ms=100) == []


def test_align_greedy_nearest_example():
    pairs = align_streams([0, 100, 200], [10, 190], window_ms=50)
    assert pairs == [(0, 0), (2, 1)]


def test_align_each_frame_used_once():
    pairs = align_streams([0, 4], [2], window_ms=20)
    assert pairs == [(0, 0)]  # both are 2 ms away; the tie goes to the lower a index


def test_align_rejects_unsorted():
    with pytest.raises(ValueError):
        align_streams([5, 1], [0], window_ms=10)


@pytest.mark.parametrize("window_ms", [-10.0, -1e-9, math.inf, math.nan])
def test_align_rejects_a_negative_or_nonfinite_window(window_ms):
    with pytest.raises(ValueError, match="window_ms"):
        align_streams([0, 50], [0, 50], window_ms=window_ms)


def test_align_zero_window_pairs_equal_timestamps_only():
    assert align_streams([0, 50], [0, 51], window_ms=0) == [(0, 0)]


def reference_align(ta, tb, window_ms):
    """Brute force: repeatedly take the closest pair of still-unused frames
    (ties by a index, then b index) within window/2, then sort by a-side time."""
    free_a, free_b = set(range(len(ta))), set(range(len(tb)))
    pairs = []
    while True:
        candidates = [
            (abs(tb[j] - ta[i]), i, j) for i in free_a for j in free_b if abs(tb[j] - ta[i]) <= window_ms / 2
        ]
        if not candidates:
            break
        _, i, j = min(candidates)
        pairs.append((i, j))
        free_a.remove(i)
        free_b.remove(j)
    return sorted(pairs, key=lambda p: (ta[p[0]], p[0]))


_timestamps = st.lists(st.integers(-300, 300), max_size=12).map(sorted)


@settings(max_examples=300, deadline=None)
@example(ta=[0, 4], tb=[2], window_ms=20)  # equal distance: the lower a index wins
@example(ta=[0, 0, 10], tb=[0, 0], window_ms=0)  # repeated timestamps pair in index order
@given(ta=_timestamps, tb=_timestamps, window_ms=st.integers(0, 200))
def test_align_matches_the_brute_force_oracle(ta, tb, window_ms):
    pairs = align_streams(ta, tb, window_ms)
    assert pairs == reference_align(ta, tb, window_ms)
    assert len({i for i, _ in pairs}) == len({j for _, j in pairs}) == len(pairs)
    assert all(abs(tb[j] - ta[i]) <= window_ms / 2 for i, j in pairs)


# ---------------------------------------------------------------------------
# dbscan / denoising
# ---------------------------------------------------------------------------

def test_dbscan_empty():
    assert dbscan(np.zeros((0, 3)), eps=0.3, min_pts=4).size == 0


def test_dbscan_two_blobs_no_noise():
    rng = np.random.default_rng(3)
    blob1 = rng.normal(0, 0.05, size=(20, 3))
    blob2 = rng.normal(0, 0.05, size=(20, 3)) + [2.0, 0, 0]
    pts = np.vstack([blob1, blob2])
    labels = dbscan(pts, eps=0.3, min_pts=4)
    assert set(labels) == {0, 1}
    np.testing.assert_array_equal(labels, reference_dbscan(pts.tolist(), 0.3, 4))


def test_dbscan_isolated_point_is_noise():
    labels = dbscan(np.array([[0.0, 0.0, 0.0]]), eps=0.3, min_pts=2)
    assert labels.tolist() == [-1]


def test_dbscan_matches_bruteforce_on_random_instances():
    rng = np.random.default_rng(11)
    for _ in range(25):
        pts = random_instance(rng)
        eps = float(rng.uniform(0.2, 0.4))
        min_pts = int(rng.integers(3, 7))
        got = dbscan(pts, eps, min_pts)
        want = reference_dbscan(pts.tolist(), eps, min_pts)
        np.testing.assert_array_equal(canonical_labels(got), canonical_labels(want))


def test_dbscan_permutation_invariant_up_to_renaming():
    rng = np.random.default_rng(13)
    pts = random_instance(rng)
    base = canonical_labels(dbscan(pts, 0.3, 5))
    for _ in range(5):
        perm = rng.permutation(len(pts))
        shuffled = dbscan(pts[perm], 0.3, 5)
        unshuffled = np.empty_like(shuffled)
        unshuffled[perm] = shuffled
        np.testing.assert_array_equal(canonical_labels(unshuffled), base)


def test_dbscan_validates_parameters():
    with pytest.raises(ValueError):
        dbscan(np.zeros((3, 3)), eps=0.0, min_pts=2)
    with pytest.raises(ValueError):
        dbscan(np.zeros((3, 3)), eps=0.3, min_pts=0)


def _points_from(arr):
    arr = np.atleast_2d(arr)
    return np.column_stack([arr, np.zeros(len(arr)), np.full(len(arr), 5.0)])


def test_denoise_keeps_dense_cluster():
    rng = np.random.default_rng(5)
    pts = _points_from(rng.normal(0, 0.05, size=(15, 3)))
    kept = _fused_rows(pts, IDENTITY_POSE)
    assert np.array_equal(kept, pts)


def test_denoise_removes_scattered_points():
    rng = np.random.default_rng(6)
    cluster = rng.normal(0, 0.05, size=(15, 3))
    far = np.array([[5, 5, 5], [-5, 4, 0], [6, -6, 1], [0, 9, 9], [-7, -7, -7]], dtype=float)
    pts = _points_from(np.vstack([cluster, far]))
    kept = _fused_rows(pts, IDENTITY_POSE)
    assert np.array_equal(kept, pts[:15])
    assert _fused_rows([], IDENTITY_POSE).shape == (0, 5)


# ---------------------------------------------------------------------------
# snr normalization
# ---------------------------------------------------------------------------

def _snr_record(snrs):
    points = [[0.0, 1.0, 0.0, 0.0, s] for s in snrs]
    return make_record(0, 0, 0, points, [[0.0, 0.0, 0.0]] * 32, "walk_toward", 0, "none")


def test_normalize_snr_affine_endpoints():
    recs, (lo, hi) = normalize_snr([_snr_record([10.0, 20.0, 30.0])])
    assert (lo, hi) == (10.0, 30.0)
    assert [p[4] for p in recs[0]["points"]] == [0.0, 0.5, 1.0]


def test_normalize_snr_degenerate_maps_to_half():
    recs, _ = normalize_snr([_snr_record([7.0, 7.0])])
    assert [p[4] for p in recs[0]["points"]] == [0.5, 0.5]


@pytest.mark.parametrize("bounds", [(40.0, 10.0), (math.nan, 10.0), (0.0, math.inf), (-math.inf, 5.0)])
def test_normalize_snr_rejects_reversed_or_nonfinite_bounds(bounds):
    with pytest.raises(ValueError, match="snr_min.*snr_max"):
        normalize_snr([_snr_record([20.0])], bounds=bounds)


def test_normalize_snr_equal_stored_bounds_map_to_half():
    recs, _ = normalize_snr([_snr_record([3.0, 9.0])], bounds=(7.0, 7.0))
    assert [p[4] for p in recs[0]["points"]] == [0.5, 0.5]


def test_normalize_snr_applies_stored_constants_unclamped():
    recs, _ = normalize_snr([_snr_record([40.0])], bounds=(10.0, 30.0))
    assert recs[0]["points"][0][4] == pytest.approx((40.0 - 10.0) / 20.0)
    assert recs[0]["points"][0][4] > 1.0


# ---------------------------------------------------------------------------
# view building
# ---------------------------------------------------------------------------

def test_build_views_empty_frame():
    view_xy, view_yz = build_views(np.zeros((0, 5)), n_max=8)
    assert not view_xy.any() and not view_yz.any()
    assert view_xy.shape == (8, 4) and view_yz.shape == (8, 4)


def test_build_views_truncates_to_nearest():
    pts = np.array([[0.0, float(r), 0.0, 0.1, 0.5] for r in (6, 2, 4, 1, 5, 3)])
    view_xy, _ = build_views(pts, n_max=4)
    np.testing.assert_allclose(view_xy[:, 1], [1, 2, 3, 4])


def test_build_views_feature_layout():
    pts = np.array([[0.5, 2.0, 1.5, -0.3, 0.7]])
    view_xy, view_yz = build_views(pts, n_max=2)
    np.testing.assert_allclose(view_xy, [[0.5, 2.0, -0.3, 0.7], [0, 0, 0, 0]])
    np.testing.assert_allclose(view_yz, [[2.0, 1.5, -0.3, 0.7], [0, 0, 0, 0]])


@st.composite
def _frame_and_permutation(draw):
    """(points, permutation, n_max): empty, partial and oversized frames,
    with the repeated values and signed zeros small float ranges give."""
    n_max = draw(st.integers(2, 10))
    n = draw(st.integers(0, n_max + 6))
    points = draw(hnp.arrays(np.float64, (n, 5), elements=st.floats(-4.0, 4.0, width=16)))
    return points, np.array(draw(st.permutations(range(n))), dtype=int), n_max


def _ranges(xyz):
    return np.linalg.norm(xyz, axis=1)


@settings(max_examples=300, deadline=None)
@example((np.zeros((0, 5)), np.zeros(0, dtype=int), 4))
@example((np.array([[0.0, 1.0, 0.0, 0.0, 0.5], [-0.0, 1.0, 0.0, 0.0, 0.5]]), np.array([1, 0]), 2))
@given(_frame_and_permutation())
def test_build_views_exactly_permutation_invariant(case):
    points, perm, n_max = case
    view_xy, view_yz = build_views(points, n_max)
    perm_xy, perm_yz = build_views(points[perm], n_max)
    assert perm_xy.tobytes() == view_xy.tobytes() and perm_yz.tobytes() == view_yz.tobytes()

    kept = min(len(points), n_max)
    xyz = np.column_stack([view_xy[:, 0], view_xy[:, 1], view_yz[:, 1]])
    # the kept rows are input points, and the nearest n_max of them
    rows = np.column_stack([xyz, view_xy[:, 2:]])[:kept]
    assert all((points == row).all(axis=1).any() for row in rows)
    assert _ranges(xyz[:kept]).tobytes() == np.sort(_ranges(points[:, :3]))[:kept].tobytes()
    assert view_xy[kept:].tobytes() == view_yz[kept:].tobytes() == bytes(32 * (n_max - kept))
    assert build_cloud(view_xy, view_yz).tobytes() == xyz.tobytes()


def test_build_cloud_matches_view_order():
    pts = np.array([[0.0, float(r), 0.2, 0.0, 0.1] for r in (3, 1, 2)])
    cloud = build_cloud(*build_views(pts, n_max=4))
    np.testing.assert_allclose(cloud[:3, 1], [1, 2, 3])
    assert not cloud[3].any()


@pytest.mark.parametrize("n_points", [0, 3, 6], ids=["empty", "partial", "truncated"])
def test_build_cloud_is_the_sorted_truncated_padded_xyz(n_points):
    n_max = 4
    pts = np.array([[0.3 * (r % 2), float(r), -0.0 if r % 3 else 0.2 * r, 0.1, 0.5] for r in (5, 2, 6, 1, 4, 3)])
    pts = pts[:n_points]
    view_xy, view_yz = build_views(pts, n_max)
    want = np.zeros((n_max, 3))
    kept = pts[canonical_order(pts)][:n_max, :3]
    want[: len(kept)] = kept
    cloud = build_cloud(view_xy, view_yz)
    assert cloud.shape == (n_max, 3) and cloud.tobytes() == want.tobytes()  # -0.0 keeps its sign
    assert np.signbit(cloud[:, 2]).any() == (n_points > 0)
    # a batch of packed views gives each frame's cloud
    batch = build_cloud(np.stack([view_xy, np.zeros_like(view_xy)]), np.stack([view_yz, np.zeros_like(view_yz)]))
    assert batch.shape == (2, n_max, 3) and batch[0].tobytes() == want.tobytes() and not batch[1].any()


def test_canonical_order_breaks_ties_on_all_features():
    arr = np.array(
        [
            [0.0, 2.0, 0.0, 0.5, 0.1],
            [0.0, 2.0, 0.0, -0.5, 0.1],
        ]
    )
    order = canonical_order(arr)
    assert order.tolist() == [1, 0]  # lower velocity first


# ---------------------------------------------------------------------------
# record-level fusion
# ---------------------------------------------------------------------------

def _blob_points(center, n, rng, v=0.0, snr=12.0):
    pts = rng.normal(0, 0.04, size=(n, 3)) + center
    return [[*p, v, snr] for p in pts]


def test_fuse_records_merges_and_timestamps():
    rng = np.random.default_rng(21)
    gt = [[0.0, 2.0, 1.0]] * 32
    rec_a = make_record(0, 100, 0, _blob_points([0, 2.2, 0], 10, rng), gt, "walk_toward", 0, "none")
    rec_b = make_record(0, 104, 1, _blob_points([0, 2.9, 0], 10, rng), gt, "walk_toward", 0, "none")
    fused = fuse_records([rec_a, rec_b], window_ms=50, eps=0.3, min_pts=4)
    assert len(fused) == 1
    assert fused[0]["t_ms"] == 102
    assert fused[0]["fused"] is True
    assert fused[0]["radar_id"] == -1
    assert len(fused[0]["points"]) == 20


def test_fuse_records_single_radar_mode():
    rng = np.random.default_rng(22)
    gt = [[0.0, 2.0, 1.0]] * 32
    rec_a = make_record(0, 100, 0, _blob_points([0, 2.2, 0], 10, rng), gt, "walk_toward", 0, "none")
    rec_b = make_record(0, 100, 1, _blob_points([0, 2.2, 0], 10, rng), gt, "walk_toward", 0, "none")
    fused = fuse_records([rec_a, rec_b], radar_ids=(0,), eps=0.3, min_pts=4)
    assert len(fused) == 1
    assert fused[0]["radar_id"] == 0
    assert len(fused[0]["points"]) == 10


def test_fuse_records_increases_vertical_extent():
    # dense boresight returns at several ranges: each radar's points live in
    # its own pitched plane, so the union spans more height than either alone
    rng = np.random.default_rng(23)
    gt = [[0.0, 2.0, 1.0]] * 32
    pts = []
    for r in (2.0, 2.1, 2.6, 2.7, 3.2, 3.3):
        pts.extend(_blob_points([0, r, 0], 5, rng))
    rec_a = make_record(0, 0, 0, pts, gt, "walk_toward", 0, "none")
    rec_b = make_record(0, 0, 1, pts, gt, "walk_toward", 0, "none")

    def z_extent(recs):
        zs = [p[2] for rec in recs for p in rec["points"]]
        return max(zs) - min(zs)

    both = z_extent(fuse_records([rec_a, rec_b], eps=0.3, min_pts=4))
    only_a = z_extent(fuse_records([rec_a, rec_b], radar_ids=(0,), eps=0.3, min_pts=4))
    only_b = z_extent(fuse_records([rec_a, rec_b], radar_ids=(1,), eps=0.3, min_pts=4))
    assert both >= only_a and both >= only_b
    assert both > min(only_a, only_b)


@pytest.mark.parametrize(
    "radar_ids, message",
    [
        ((0, 0), r"^radar id 0 is repeated in radar_ids \(0, 0\)$"),
        ((1, 1), r"^radar id 1 is repeated"),
        ((2,), r"^radar id 2 has no pose; the poses cover radar ids 0 to 1$"),
        ((0, -1), r"^radar id -1 has no pose"),
    ],
    ids=["0,0", "1,1", "2", "0,-1"],
)
def test_fuse_records_rejects_a_repeated_or_poseless_radar_id(radar_ids, message):
    # (0, 0) used to fuse radar 0 with itself, and -1 to take the last pose
    rng = np.random.default_rng(24)
    gt = [[0.0, 2.0, 1.0]] * 32
    recs = [make_record(0, 0, rid, _blob_points([0, 2.2, 0], 10, rng), gt, "walk_toward", 0, "none")
            for rid in (0, 1)]
    with pytest.raises(ValueError, match=message):
        fuse_records(recs, radar_ids=radar_ids, eps=0.3, min_pts=4)


@pytest.mark.parametrize("rid", [1.0, True], ids=["float", "bool"])
def test_fuse_records_rejects_a_radar_id_that_is_no_integer(rid):
    # both used to fuse radar 1's stream, as if the id were 1
    rng = np.random.default_rng(24)
    gt = [[0.0, 2.0, 1.0]] * 32
    recs = [make_record(0, 0, r, _blob_points([0, 2.2, 0], 10, rng), gt, "walk_toward", 0, "none") for r in (0, 1)]
    with pytest.raises(ValueError, match=rf"^radar_ids\[0\] must be an integer >= 0, got {rid!r}$"):
        fuse_records(recs, radar_ids=(rid,), eps=0.3, min_pts=4)


@pytest.mark.parametrize(
    "eps, min_pts, message",
    [(0.0, 3, "^eps must be > 0$"), (math.nan, 3, "^eps must be > 0$"), (0.4, 0, "^min_pts must be >= 1$")],
    ids=["eps-0", "eps-nan", "min_pts-0"],
)
def test_fuse_records_checks_dbscan_settings_with_no_points(eps, min_pts, message):
    # an empty frame never reaches dbscan, so the settings are checked up front
    rec = make_record(0, 0, 0, [], [[0.0, 2.0, 1.0]] * 32, "walk_toward", 0, "none")
    with pytest.raises(ValueError, match=message):
        fuse_records([rec], radar_ids=(0,), eps=eps, min_pts=min_pts)
    with pytest.raises(ValueError, match=message):
        dbscan(np.zeros((3, 3)), eps=eps, min_pts=min_pts)


@pytest.mark.parametrize("radar_ids", [(1,), (0, 1)], ids=["one-radar", "two-radar"])
@pytest.mark.parametrize("value, col", [(math.inf, 0), (-math.inf, 2), (math.nan, 4)], ids=["inf-x", "-inf-z", "nan-snr"])
def test_fuse_records_refuses_a_raw_point_that_is_not_finite(radar_ids, value, col):
    # json reads an overflowing literal such as 1e999 as inf; DBSCAN used to drop such a point as noise
    rng = np.random.default_rng(25)
    gt = [[0.0, 2.0, 1.0]] * 32
    recs = [make_record(7, 100, rid, _blob_points([0, 2.2, 0], 10, rng), gt, "walk_toward", 0, "none")
            for rid in (0, 1)]
    recs[1]["points"][3][col] = value
    with pytest.raises(ValueError, match=rf"^frame 7, radar 1: point 3 holds {value}$"):
        fuse_records(recs, radar_ids=radar_ids, eps=0.3, min_pts=4)


@pytest.mark.parametrize("min_pts", [2.5, True], ids=["float", "bool"])
def test_a_min_pts_that_is_no_integer_is_refused_by_name(min_pts):
    message = re.escape(f"min_pts must be an integer >= 1, got {min_pts!r}")
    with pytest.raises(ValueError, match=message):
        dbscan(np.zeros((3, 3)), eps=0.3, min_pts=min_pts)
    with pytest.raises(ValueError, match=message):
        fuse_records([], radar_ids=(0,), eps=0.3, min_pts=min_pts)


@pytest.mark.parametrize("radar_id", range(len(DEFAULT_POSES)))
def test_the_yz_view_holds_each_radars_plane_not_elevation(radar_id):
    # two RX antennas resolve azimuth only, so every raw point has radar-frame z = 0
    # and every fused point of one radar lies on its plane z = h - tan(tilt) y
    pose = DEFAULT_POSES[radar_id]
    raw = generate_dataset(ACTIONS, MotionConfig(seed=3), radar_ids=(radar_id,), n_frames=40)
    views = [build_views(np.asarray(rec["points"]).reshape(-1, 5), 64)[1]
             for rec in fuse_records(raw, radar_ids=(radar_id,))]
    y, z = np.vstack([view[(view != 0).any(axis=1)] for view in views])[:, :2].T
    assert len(y) > 100
    np.testing.assert_allclose(z, pose.height_m - math.tan(pose.tilt_down_rad) * y, rtol=0, atol=1e-12)
