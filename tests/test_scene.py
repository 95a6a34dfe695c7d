import hashlib
import math

import numpy as np
import pytest

from radarpose.physics import ChirpConfig
from radarpose.pointcloud import (
    RADAR_A_POSE,
    RADAR_B_POSE,
    RadarPose,
    fuse_records,
    rotate_to_radar,
    transform_to_radar,
)
from radarpose.records import read_jsonl
from radarpose.scene import (
    ACTIONS,
    ANKLE_CLEARANCE,
    BONES,
    DEFAULT_BONE_LENGTHS,
    DEPTH_MAX,
    DEPTH_MIN,
    JOINT_INDEX,
    JOINT_NAMES,
    JOINT_TABLE,
    REST_DEPTH,
    MotionConfig,
    generate_dataset,
    joint_velocities,
    pose_at,
    reflectors_from_skeleton,
    skeleton_template,
    swing_state_of,
)

BORESIGHT_RADAR = RadarPose(height_m=0.0, tilt_down_rad=0.0)
STILL = np.zeros((len(JOINT_NAMES), 3))  # joint velocities of a body at rest


def test_joint_table_is_a_32_joint_tree():
    assert len(JOINT_NAMES) == 32
    assert len(BONES) == 31
    assert JOINT_NAMES[0] == "pelvis"
    assert JOINT_TABLE["pelvis"] == (None, None, None, None)
    for child, (parent, key, direction, gain) in list(JOINT_TABLE.items())[1:]:
        # the rest pose is built in table order, so each parent must already be placed
        assert JOINT_INDEX[parent] < JOINT_INDEX[child]
        assert key in DEFAULT_BONE_LENGTHS
        assert len(direction) == 3 and np.linalg.norm(direction) > 0
        assert gain in (1.0, 0.8, 0.5, 0.3)


def test_template_mirrors_across_sagittal_plane():
    frame = skeleton_template()
    for name in JOINT_NAMES:
        if not name.endswith("_left"):
            continue
        left = frame.joint(name)
        right = frame.joint(name.replace("_left", "_right"))
        np.testing.assert_allclose(left * [-1, 1, 1], right, atol=1e-9)


def test_template_upright_ordering():
    frame = skeleton_template()
    assert frame.joint("head")[2] > frame.joint("pelvis")[2] > frame.joint("ankle_left")[2]


def test_template_height_is_sum_of_segments():
    lengths = dict(DEFAULT_BONE_LENGTHS)
    frame = skeleton_template(0)
    expected = sum(
        lengths[k] for k in ("thigh", "shin", "pelvis_spine", "spine", "chest_neck", "neck_head")
    )
    height = frame.joint("head")[2] - frame.joint("ankle_left")[2]
    assert height == pytest.approx(expected, abs=1e-12)


def _template_per_call(lengths, depth):
    """The rest pose with every bone direction normalized on each call."""
    joints = np.zeros((len(JOINT_NAMES), 3))
    joints[JOINT_INDEX["pelvis"]] = [0.0, depth, lengths["thigh"] + lengths["shin"] + ANKLE_CLEARANCE]
    for child in JOINT_NAMES[1:]:
        parent, key, direction, _ = JOINT_TABLE[child]
        d = np.asarray(direction, dtype=float)
        d /= np.linalg.norm(d)
        joints[JOINT_INDEX[child]] = joints[JOINT_INDEX[parent]] + lengths[key] * d
    return joints


@pytest.mark.parametrize("subject", [0, 1, 2, 3])
def test_template_is_bitwise_the_per_call_normalization(subject):
    # subject s has the default lengths times 1 + 0.08 * (s % 4), as subject s + 4 does
    scale = 1.0 + 0.08 * (subject % 4)
    lengths = {k: v * scale for k, v in DEFAULT_BONE_LENGTHS.items()}
    for depth in (DEPTH_MIN, 2.0345678901234, REST_DEPTH, DEPTH_MAX):
        for s in (subject, subject + 4):
            for _ in range(2):  # the first call may fill the per-body cache, the second reads it
                got = skeleton_template(s, pelvis_depth=depth).joints
                assert got.tobytes() == _template_per_call(lengths, depth).tobytes()


@pytest.mark.parametrize("seed", [1.5, True, -1, "3"])
def test_motion_config_rejects_a_seed_that_is_not_a_count(seed):
    with pytest.raises(ValueError, match="^seed must be an integer >= 0"):
        MotionConfig(seed=seed)


def test_template_depth_placement():
    frame = skeleton_template(pelvis_depth=2.7)
    assert frame.joint("pelvis")[1] == pytest.approx(2.7)


@pytest.mark.parametrize(
    "field, value",
    [
        ("fps", math.nan),
        ("fps", 0.0),
        ("fps", math.inf),
        ("duration_s", -1.0),
        ("duration_s", 0.0),
        ("duration_s", math.nan),
        ("walk_speed", math.nan),
        ("walk_speed", math.inf),
        ("walk_speed", -0.1),
    ],
)
def test_motion_config_rejects_a_bad_field_by_name(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        MotionConfig(**{field: value})


def test_walk_toward_decreases_depth_at_walk_speed():
    cfg = MotionConfig(walk_speed=0.5)
    d0 = pose_at("walk_toward", 0.0, cfg).joint("pelvis")[1]
    d1 = pose_at("walk_toward", 1.0, cfg).joint("pelvis")[1]
    assert d0 - d1 == pytest.approx(0.5, abs=1e-12)


def test_walk_away_increases_depth():
    cfg = MotionConfig(walk_speed=0.4)
    d0 = pose_at("walk_away", 0.0, cfg).joint("pelvis")[1]
    d1 = pose_at("walk_away", 2.0, cfg).joint("pelvis")[1]
    assert d1 - d0 == pytest.approx(0.8, abs=1e-12)


def test_depth_stays_clamped():
    cfg = MotionConfig(walk_speed=2.0, duration_s=10.0)
    for action in ("walk_toward", "walk_away"):
        for t in np.linspace(0, 10, 41):
            depth = pose_at(action, float(t), cfg).joint("pelvis")[1]
            assert 1.9 - 1e-12 <= depth <= 3.5 + 1e-12


def test_swing_right_peak_raises_right_elbow():
    cfg = MotionConfig()
    frame = pose_at("swing_right", 0.75, cfg)  # half period = raise peak
    assert frame.joint("elbow_right")[2] > frame.joint("elbow_left")[2]
    assert frame.joint("elbow_right")[2] > frame.joint("shoulder_right")[2]
    assert frame.swing_state == "right"


def test_swing_left_mirrors():
    cfg = MotionConfig()
    frame = pose_at("swing_left", 0.75, cfg)
    assert frame.joint("elbow_left")[2] > frame.joint("elbow_right")[2]
    assert frame.swing_state == "left"


def test_swing_state_matches_geometric_predicate_everywhere():
    cfg = MotionConfig(seed=3)
    for action in ACTIONS:
        for t in np.linspace(0, cfg.duration_s, 25):
            frame = pose_at(action, float(t), cfg)
            assert frame.swing_state == swing_state_of(frame.joints)


def _bone_lengths(joints):
    """Segment length of each bone, in BONES order."""
    return np.array([np.linalg.norm(joints[JOINT_INDEX[c]] - joints[JOINT_INDEX[p]]) for p, c in BONES])


def test_bone_lengths_conserved_during_motion():
    cfg = MotionConfig(seed=5)
    refs = [_bone_lengths(skeleton_template(subject).joints) for subject in range(4)]
    assert all(np.all(a < b) for a, b in zip(refs, refs[1:]))  # each body has its own lengths
    for subject, ref in enumerate(refs):
        for action in ACTIONS:
            got = _bone_lengths(pose_at(action, 0.37, cfg, subject=subject).joints)
            np.testing.assert_allclose(got, ref, atol=1e-9)


def test_pose_at_rejects_unknown_action():
    with pytest.raises(ValueError):
        pose_at("moonwalk", 0.0, MotionConfig())


def test_static_pose_yields_zero_radial_velocity():
    frame = skeleton_template()
    refl = reflectors_from_skeleton(frame, density=2, radar_pose=RADAR_A_POSE, velocities=STILL)
    assert all(rv == 0.0 for rv in refl[:, 3])


def test_density_one_gives_one_reflector_per_bone():
    refl = reflectors_from_skeleton(skeleton_template(), density=1, radar_pose=RADAR_A_POSE, velocities=STILL)
    assert len(refl) == 31
    refl3 = reflectors_from_skeleton(skeleton_template(), density=3, radar_pose=RADAR_A_POSE, velocities=STILL)
    assert len(refl3) == 93


def test_torso_reflects_stronger_than_limbs():
    frame = skeleton_template()
    refl = reflectors_from_skeleton(frame, density=1, radar_pose=RADAR_A_POSE, velocities=STILL)
    by_child = {child: r for (_, child), r in zip(BONES, refl)}
    assert by_child["spine_chest"][4] > by_child["knee_left"][4]
    assert by_child["knee_left"][4] > by_child["hand_left"][4]


def _reflectors_per_bone(skel, density, radar_pose, velocities):
    """Bone sampling written as a loop over bones and fractions."""
    fracs = (np.arange(density) + 0.5) / density
    positions, vels, gains = [], [], []
    for parent, child in BONES:
        p0, p1 = skel.joints[JOINT_INDEX[parent]], skel.joints[JOINT_INDEX[child]]
        v0, v1 = velocities[JOINT_INDEX[parent]], velocities[JOINT_INDEX[child]]
        for f in fracs:
            positions.append(p0 + f * (p1 - p0))
            vels.append(v0 + f * (v1 - v0))
            gains.append(JOINT_TABLE[child][3])
    positions = transform_to_radar(np.asarray(positions), radar_pose)
    vels = rotate_to_radar(np.asarray(vels), radar_pose)
    radial = np.sum(positions * vels, axis=1) / np.linalg.norm(positions, axis=1)
    return [[*p, float(rv), g] for p, rv, g in zip(positions.tolist(), radial, gains)]


@pytest.mark.parametrize("density", [1, 4, 7])
def test_reflectors_are_bitwise_the_per_bone_loop(density):
    for action, t, radar_pose in (("walk_toward", 0.7, RADAR_A_POSE), ("swing_left", 1.1, RADAR_B_POSE)):
        cfg = MotionConfig(seed=3)
        pose, vels = pose_at(action, t, cfg), joint_velocities(action, t, cfg)
        refl = reflectors_from_skeleton(pose, density, radar_pose, vels)
        assert refl.shape == (31 * density, 5)
        oracle = np.array(_reflectors_per_bone(pose, density, radar_pose, vels))
        assert refl.tobytes() == oracle.tobytes()


def test_walking_toward_radar_has_negative_mean_range_rate():
    cfg = MotionConfig(walk_speed=0.5, seed=2)
    t = 1.0
    pose = pose_at("walk_toward", t, cfg)
    vels = joint_velocities("walk_toward", t, cfg)
    # oracle: trunk velocity from frame-to-frame finite difference
    dt = 1.0 / cfg.fps
    pelvis_rate = (
        pose_at("walk_toward", t + dt, cfg).joint("pelvis")[1]
        - pose_at("walk_toward", t - dt, cfg).joint("pelvis")[1]
    ) / (2 * dt)
    assert pelvis_rate < 0
    refl = reflectors_from_skeleton(pose, density=2, radar_pose=BORESIGHT_RADAR, velocities=vels)
    assert np.mean(refl[:, 3]) < 0


def test_generate_dataset_counts(tmp_path):
    cfg = MotionConfig(fps=10.0, duration_s=1.0, seed=1)
    records = generate_dataset(["walk_toward"], cfg, radar_ids=(0,), out_path=tmp_path / "d.jsonl")
    assert len(records) == 10
    assert [r["frame_id"] for r in records] == list(range(10))
    assert read_jsonl(tmp_path / "d.jsonl") == records


def test_generate_dataset_renders_radars_by_id():
    # radar 1 alone used to be stamped radar 0, drawn with radar 0's noise and fused with radar 0's mount
    cfg = MotionConfig(fps=5.0, duration_s=1.0, seed=2)
    both = generate_dataset(["walk_away", "swing_left"], cfg, n_frames=6, subjects=(0, 3))
    only_b = generate_dataset(["walk_away", "swing_left"], cfg, radar_ids=(1,), n_frames=6, subjects=(0, 3))
    assert only_b == [r for r in both if r["radar_id"] == 1]
    assert sum(len(r["points"]) for r in only_b) > 0
    assert fuse_records(only_b, radar_ids=(1,)) == fuse_records(both, radar_ids=(1,))
    for radar_ids, message in (((0, 0), r"^radar id 0 is repeated in radar_ids \(0, 0\)$"),
                               ((2,), r"^radar id 2 has no pose; the poses cover radar ids 0 to 1$")):
        with pytest.raises(ValueError, match=message):
            generate_dataset(["walk_away"], cfg, radar_ids=radar_ids, n_frames=1)


def test_generate_dataset_rejects_a_radar_id_that_is_no_integer():
    # 1.0 used to fail with a bare TypeError from indexing the mounts
    cfg = MotionConfig(fps=5.0, duration_s=1.0, seed=2)
    with pytest.raises(ValueError, match=r"^radar_ids\[0\] must be an integer >= 0, got 1\.0$"):
        generate_dataset(["walk_away"], cfg, radar_ids=(1.0,), n_frames=1)


def test_a_negative_subject_is_refused_by_name():
    # subject -1 used to get subject 3's body, labelled -1
    for make in (lambda: skeleton_template(-1), lambda: pose_at("walk_toward", 0.0, MotionConfig(), subject=-1)):
        with pytest.raises(ValueError, match=r"^subject must be an integer >= 0, got -1$"):
            make()


def test_generate_dataset_one_record_per_radar():
    cfg = MotionConfig(fps=5.0, duration_s=1.0, seed=1)
    records = generate_dataset(["swing_right"], cfg)
    per_frame = {}
    for rec in records:
        per_frame.setdefault(rec["frame_id"], []).append(rec["radar_id"])
    assert all(sorted(v) == [0, 1] for v in per_frame.values())


def test_generate_dataset_deterministic_bytes(tmp_path):
    cfg = MotionConfig(fps=5.0, duration_s=1.0, seed=9)
    digests = []
    for name in ("a.jsonl", "b.jsonl"):
        generate_dataset(["walk_toward", "swing_left"], cfg, out_path=tmp_path / name, n_frames=6)
        digests.append(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest())
    assert digests[0] == digests[1]


def test_generate_dataset_n_frames_cap_and_subjects():
    cfg = MotionConfig(fps=10.0, duration_s=0.5, seed=4)
    records = generate_dataset(["walk_toward"], cfg, n_frames=7, subjects=(0, 1))
    frames = {r["frame_id"] for r in records}
    assert frames == set(range(7))
    assert {r["subject"] for r in records} == {0, 1}


def test_generated_depths_inside_window():
    cfg = MotionConfig(fps=5.0, duration_s=2.0, walk_speed=1.5, seed=6)
    records = generate_dataset(list(ACTIONS), cfg, radar_ids=(0,))
    pelvis_idx = JOINT_INDEX["pelvis"]
    for rec in records:
        assert 1.9 - 1e-9 <= rec["gt"][pelvis_idx][1] <= 3.5 + 1e-9


def test_generated_points_look_like_a_person(tmp_path):
    cfg = MotionConfig(fps=5.0, duration_s=1.0, seed=8)
    chirp = ChirpConfig(noise_std=0.3)
    records = generate_dataset(["walk_toward"], cfg, chirp_cfg=chirp)
    n_points = [len(r["points"]) for r in records]
    assert sum(n_points) > 0
    # detections should sit at plausible ranges for a subject 1.9-3.5 m out
    for rec in records:
        for x, y, z, v, snr in rec["points"]:
            rng = math.sqrt(x * x + y * y + z * z)
            assert 0.5 < rng < 6.0
            assert math.isfinite(snr)


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_frames", -3), ("n_frames", 0), ("n_frames", 2.5), ("n_frames", True),
        ("density", True), ("density", 2.5), ("density", 0),
    ],
)
def test_generate_dataset_rejects_a_bad_count_by_name(field, value):
    cfg = MotionConfig(fps=5.0, duration_s=1.0, seed=1)
    with pytest.raises(ValueError, match=f"^{field} must be an integer >= 1, got {value!r}$"):
        generate_dataset(["walk_toward"], cfg, **{field: value})
