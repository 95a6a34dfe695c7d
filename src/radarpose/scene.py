"""Synthetic articulated-skeleton scenes.

Generates ground-truth 32-joint skeleton motion for four actions (walking
toward/away from the radar wall, swinging the right/left arm), converts the
posed body into (R, 5) radar-frame reflector rows, and renders whole datasets
through the FMCW simulator into JSON Lines files.

Kinematics are deliberately simple sinusoids around fixed pivots: the goal
is a controllable, bone-rigid test signal, not gait realism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .fmcw import detect_points, detections_to_points, synthesize_frame
from .physics import ChirpConfig
from .pointcloud import DEFAULT_POSES, RadarPose, rotate_to_radar, transform_to_radar
from .records import make_record, write_jsonl

ACTIONS = ("walk_toward", "walk_away", "swing_right", "swing_left")

#: Azure-Kinect-style 32-joint convention: name -> parent (pelvis is the root).
JOINT_PARENT = {
    "pelvis": None,
    "spine_navel": "pelvis",
    "spine_chest": "spine_navel",
    "neck": "spine_chest",
    "clavicle_left": "spine_chest",
    "shoulder_left": "clavicle_left",
    "elbow_left": "shoulder_left",
    "wrist_left": "elbow_left",
    "hand_left": "wrist_left",
    "handtip_left": "hand_left",
    "thumb_left": "wrist_left",
    "clavicle_right": "spine_chest",
    "shoulder_right": "clavicle_right",
    "elbow_right": "shoulder_right",
    "wrist_right": "elbow_right",
    "hand_right": "wrist_right",
    "handtip_right": "hand_right",
    "thumb_right": "wrist_right",
    "hip_left": "pelvis",
    "knee_left": "hip_left",
    "ankle_left": "knee_left",
    "foot_left": "ankle_left",
    "hip_right": "pelvis",
    "knee_right": "hip_right",
    "ankle_right": "knee_right",
    "foot_right": "ankle_right",
    "head": "neck",
    "nose": "head",
    "eye_left": "head",
    "ear_left": "head",
    "eye_right": "head",
    "ear_right": "head",
}

JOINT_NAMES = tuple(JOINT_PARENT)
JOINT_INDEX = {name: i for i, name in enumerate(JOINT_NAMES)}
N_JOINTS = len(JOINT_NAMES)
BONES = tuple((JOINT_PARENT[c], c) for c in JOINT_NAMES if JOINT_PARENT[c] is not None)

#: One length per symmetric bone class [m]; left/right share a value so the
#: rest pose mirrors exactly.
DEFAULT_BONE_LENGTHS = {
    "pelvis_spine": 0.15,
    "spine": 0.20,
    "chest_neck": 0.15,
    "neck_head": 0.12,
    "head_nose": 0.10,
    "head_eye": 0.08,
    "head_ear": 0.07,
    "chest_clavicle": 0.08,
    "clavicle_shoulder": 0.12,
    "upper_arm": 0.28,
    "forearm": 0.25,
    "wrist_hand": 0.08,
    "hand_tip": 0.08,
    "wrist_thumb": 0.06,
    "pelvis_hip": 0.10,
    "thigh": 0.40,
    "shin": 0.40,
    "ankle_foot": 0.15,
}

#: Height of the rest-pose ankle above the floor [m].
ANKLE_CLEARANCE = 0.10

# (bone-length key, rest-pose unit direction) per child joint. The subject
# faces -y (toward the radar wall); left-side joints sit at +x.
_S3 = 1.0 / math.sqrt(3.0)
_BONE_SPEC = {
    "spine_navel": ("pelvis_spine", (0, 0, 1)),
    "spine_chest": ("spine", (0, 0, 1)),
    "neck": ("chest_neck", (0, 0, 1)),
    "head": ("neck_head", (0, 0, 1)),
    "nose": ("head_nose", (0, -1, 0)),
    "eye_left": ("head_eye", (0.35, -0.9, 0.25)),
    "eye_right": ("head_eye", (-0.35, -0.9, 0.25)),
    "ear_left": ("head_ear", (1, 0, 0)),
    "ear_right": ("head_ear", (-1, 0, 0)),
    "clavicle_left": ("chest_clavicle", (1, 0, 0)),
    "clavicle_right": ("chest_clavicle", (-1, 0, 0)),
    "shoulder_left": ("clavicle_shoulder", (1, 0, 0)),
    "shoulder_right": ("clavicle_shoulder", (-1, 0, 0)),
    "elbow_left": ("upper_arm", (0, 0, -1)),
    "elbow_right": ("upper_arm", (0, 0, -1)),
    "wrist_left": ("forearm", (0, 0, -1)),
    "wrist_right": ("forearm", (0, 0, -1)),
    "hand_left": ("wrist_hand", (0, 0, -1)),
    "hand_right": ("wrist_hand", (0, 0, -1)),
    "handtip_left": ("hand_tip", (0, 0, -1)),
    "handtip_right": ("hand_tip", (0, 0, -1)),
    "thumb_left": ("wrist_thumb", (_S3, -_S3, -_S3)),
    "thumb_right": ("wrist_thumb", (-_S3, -_S3, -_S3)),
    "hip_left": ("pelvis_hip", (1, 0, 0)),
    "hip_right": ("pelvis_hip", (-1, 0, 0)),
    "knee_left": ("thigh", (0, 0, -1)),
    "knee_right": ("thigh", (0, 0, -1)),
    "ankle_left": ("shin", (0, 0, -1)),
    "ankle_right": ("shin", (0, 0, -1)),
    "foot_left": ("ankle_foot", (0, -1, 0)),
    "foot_right": ("ankle_foot", (0, -1, 0)),
}

# (bone-length key, unit direction) per child joint, normalized once
_BONE_UNIT = {
    child: (key, np.asarray(direction, dtype=float) / np.linalg.norm(direction))
    for child, (key, direction) in _BONE_SPEC.items()
}

#: Joint subsets used downstream (metrics, training target selection).
LOWER_BODY_JOINTS = (
    "hip_left", "hip_right", "knee_left", "knee_right",
    "ankle_left", "ankle_right", "foot_left", "foot_right",
)
ARM_JOINTS = ("shoulder_left", "shoulder_right", "elbow_left", "elbow_right")
DEFAULT_EXCLUDED_JOINTS = (
    "wrist_left", "hand_left", "handtip_left", "thumb_left",
    "wrist_right", "hand_right", "handtip_right", "thumb_right",
    "eye_left", "eye_right",
)

#: Pelvis depth window the subjects move in [m].
DEPTH_MIN = 1.9
DEPTH_MAX = 3.5
REST_DEPTH = 2.7

# sinusoid amplitudes [rad]: hanging arms never clear the shoulder while
# walking, and the swung arm peaks well above it
WALK_LEG_AMPLITUDE = math.radians(25.0)
WALK_ARM_AMPLITUDE = math.radians(20.0)
SWING_RAISE_MAX = math.radians(150.0)

#: Reflection gain per body segment, keyed by child joint (torso > limbs).
_TORSO = {"spine_navel", "spine_chest", "neck", "clavicle_left", "clavicle_right", "hip_left", "hip_right"}
_HEAD = {"head", "nose", "eye_left", "eye_right", "ear_left", "ear_right"}
_EXTREMITY = {
    "wrist_left", "hand_left", "handtip_left", "thumb_left",
    "wrist_right", "hand_right", "handtip_right", "thumb_right",
    "foot_left", "foot_right",
}


def _bone_gain(child: str) -> float:
    if child in _TORSO:
        return 1.0
    if child in _HEAD:
        return 0.8
    if child in _EXTREMITY:
        return 0.3
    return 0.5


# parent joint, child joint and reflection gain of each bone, in BONES order
_BONE_PARENT = np.array([JOINT_INDEX[p] for p, _ in BONES])
_BONE_CHILD = np.array([JOINT_INDEX[c] for _, c in BONES])
_BONE_GAIN = np.array([_bone_gain(c) for _, c in BONES])


@dataclass
class SkeletonFrame:
    """Ground-truth pose: 32 world-frame joint positions plus labels."""

    joints: np.ndarray  # (32, 3) [m]
    timestamp_ms: int = 0
    action: str = "walk_toward"
    subject_id: int = 0
    swing_state: str = "none"

    def __post_init__(self):
        self.joints = np.asarray(self.joints, dtype=float)
        if self.joints.shape != (N_JOINTS, 3):
            raise ValueError(f"joints must be ({N_JOINTS}, 3), got {self.joints.shape}")
        if not np.all(np.isfinite(self.joints)):
            raise ValueError("joints must be finite")

    def joint(self, name: str) -> np.ndarray:
        return self.joints[JOINT_INDEX[name]]


@dataclass
class MotionConfig:
    fps: float = 20.0
    duration_s: float = 3.0
    walk_speed: float = 0.5  # [m/s]
    swing_period_s: float = 1.5
    bone_lengths: dict = field(default_factory=lambda: dict(DEFAULT_BONE_LENGTHS))
    seed: int = 0

    def __post_init__(self):
        for name in ("fps", "duration_s", "swing_period_s"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        if not (math.isfinite(self.walk_speed) and self.walk_speed >= 0):
            raise ValueError(f"walk_speed must be finite and >= 0, got {self.walk_speed!r}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def bone_lengths_of(joints: np.ndarray) -> np.ndarray:
    """Segment length of each of the 31 bones, in BONES order."""
    joints = np.asarray(joints, dtype=float)
    return np.array(
        [np.linalg.norm(joints[JOINT_INDEX[c]] - joints[JOINT_INDEX[p]]) for p, c in BONES]
    )


def swing_state_of(joints: np.ndarray) -> str:
    """Which elbow, if any, is above its shoulder line."""
    joints = np.asarray(joints, dtype=float)
    left_up = joints[JOINT_INDEX["elbow_left"], 2] > joints[JOINT_INDEX["shoulder_left"], 2]
    right_up = joints[JOINT_INDEX["elbow_right"], 2] > joints[JOINT_INDEX["shoulder_right"], 2]
    if left_up and right_up:
        # pick the higher one; never happens for the built-in actions
        dl = joints[JOINT_INDEX["elbow_left"], 2] - joints[JOINT_INDEX["shoulder_left"], 2]
        dr = joints[JOINT_INDEX["elbow_right"], 2] - joints[JOINT_INDEX["shoulder_right"], 2]
        return "left" if dl >= dr else "right"
    if left_up:
        return "left"
    if right_up:
        return "right"
    return "none"


def skeleton_template(bone_lengths: dict | None = None, pelvis_depth: float = REST_DEPTH) -> SkeletonFrame:
    """Upright neutral rest pose (arms hanging) at the given pelvis depth."""
    lengths = dict(DEFAULT_BONE_LENGTHS)
    if bone_lengths:
        lengths.update(bone_lengths)
    for key, val in lengths.items():
        if val <= 0:
            raise ValueError(f"bone length {key!r} must be > 0, got {val}")

    pelvis_z = lengths["thigh"] + lengths["shin"] + ANKLE_CLEARANCE
    joints = np.zeros((N_JOINTS, 3))
    joints[JOINT_INDEX["pelvis"]] = [0.0, pelvis_depth, pelvis_z]
    for child in JOINT_NAMES[1:]:
        key, d = _BONE_UNIT[child]
        parent = JOINT_PARENT[child]
        joints[JOINT_INDEX[child]] = joints[JOINT_INDEX[parent]] + lengths[key] * d
    return SkeletonFrame(joints=joints, action="walk_toward", swing_state="none")


def _rot_x(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1, 0, 0], [0, c, -s], [0, s, c]], dtype=float)


_LEFT_LEG = ("knee_left", "ankle_left", "foot_left")
_RIGHT_LEG = ("knee_right", "ankle_right", "foot_right")
_LEFT_ARM = ("elbow_left", "wrist_left", "hand_left", "handtip_left", "thumb_left")
_RIGHT_ARM = ("elbow_right", "wrist_right", "hand_right", "handtip_right", "thumb_right")


def _rotate_chain(joints: np.ndarray, pivot_name: str, chain: tuple, angle: float) -> None:
    """Rotate a limb sub-chain about the lateral axis through its pivot joint."""
    if angle == 0.0:
        return
    pivot = joints[JOINT_INDEX[pivot_name]]
    rot = _rot_x(angle)
    for name in chain:
        i = JOINT_INDEX[name]
        joints[i] = pivot + rot @ (joints[i] - pivot)


def _sequence_params(cfg: MotionConfig) -> tuple[float, float]:
    """Per-sequence determinism: gait phase and lateral offset from the seed."""
    rng = np.random.default_rng(cfg.seed)
    return float(rng.uniform(0.0, 2.0 * math.pi)), float(rng.uniform(-0.2, 0.2))


def pose_at(action: str, t: float, cfg: MotionConfig) -> SkeletonFrame:
    """Skeleton pose of one action at time ``t`` [s]. Pure in (action, t, cfg)."""
    if action not in ACTIONS:
        raise ValueError(f"unknown action {action!r}; expected one of {ACTIONS}")
    gait_phase, lateral_x = _sequence_params(cfg)

    if action == "walk_toward":
        depth = min(max(DEPTH_MAX - cfg.walk_speed * t, DEPTH_MIN), DEPTH_MAX)
    elif action == "walk_away":
        depth = min(max(DEPTH_MIN + cfg.walk_speed * t, DEPTH_MIN), DEPTH_MAX)
    else:
        depth = REST_DEPTH

    frame = skeleton_template(cfg.bone_lengths, pelvis_depth=depth)
    joints = frame.joints
    joints[:, 0] += lateral_x

    if action in ("walk_toward", "walk_away"):
        gait = math.sin(2.0 * math.pi * t / cfg.swing_period_s + gait_phase)
        _rotate_chain(joints, "hip_left", _LEFT_LEG, WALK_LEG_AMPLITUDE * gait)
        _rotate_chain(joints, "hip_right", _RIGHT_LEG, -WALK_LEG_AMPLITUDE * gait)
        _rotate_chain(joints, "shoulder_left", _LEFT_ARM, -WALK_ARM_AMPLITUDE * gait)
        _rotate_chain(joints, "shoulder_right", _RIGHT_ARM, WALK_ARM_AMPLITUDE * gait)
    else:
        raise_angle = SWING_RAISE_MAX * 0.5 * (1.0 - math.cos(2.0 * math.pi * t / cfg.swing_period_s))
        if action == "swing_right":
            _rotate_chain(joints, "shoulder_right", _RIGHT_ARM, -raise_angle)
        else:
            _rotate_chain(joints, "shoulder_left", _LEFT_ARM, -raise_angle)

    return SkeletonFrame(
        joints=joints,
        timestamp_ms=int(round(t * 1000.0)),
        action=action,
        swing_state=swing_state_of(joints),
    )


def joint_velocities(action: str, t: float, cfg: MotionConfig, h: float = 1e-3) -> np.ndarray:
    """(32, 3) world-frame joint velocities by central finite difference."""
    t0 = max(t, h)  # stay inside the motion's defined time range
    before = pose_at(action, t0 - h, cfg).joints
    after = pose_at(action, t0 + h, cfg).joints
    return (after - before) / (2.0 * h)


def reflectors_from_skeleton(
    skel: SkeletonFrame,
    density: int,
    radar_pose: RadarPose,
    velocities: np.ndarray | None = None,
) -> np.ndarray:
    """Sample radar-frame point reflectors along every bone.

    ``density`` points per bone, evenly spaced; reflection gain depends on
    the body part. Radial velocity is the line-of-sight projection of the
    (linearly interpolated) joint velocity; pass ``velocities`` as a
    (32, 3) world-frame array, else the body is treated as static.

    Returns (31 * density, 5) rows ``[x, y, z, radial velocity, gain]``,
    bone by bone in BONES order, the points of each bone from parent to
    child.
    """
    if density < 1:
        raise ValueError("density must be >= 1")
    if velocities is None:
        velocities = np.zeros((N_JOINTS, 3))
    velocities = np.asarray(velocities, dtype=float)

    fracs = ((np.arange(density) + 0.5) / density)[None, :, None]

    def along_bones(a: np.ndarray) -> np.ndarray:
        a0, a1 = a[_BONE_PARENT][:, None, :], a[_BONE_CHILD][:, None, :]
        return (a0 + fracs * (a1 - a0)).reshape(-1, 3)

    positions = transform_to_radar(along_bones(skel.joints), radar_pose)
    vels = rotate_to_radar(along_bones(velocities), radar_pose)
    ranges = np.linalg.norm(positions, axis=1)
    radial = np.sum(positions * vels, axis=1) / ranges
    return np.column_stack([positions, radial, np.repeat(_BONE_GAIN, density)])


def _subject_lengths(base: dict, subject: int) -> dict:
    scale = 1.0 + 0.08 * (subject % 4)
    return {k: v * scale for k, v in base.items()}


def _noise_seed(seed: int, frame_id: int, radar_id: int) -> int:
    return (seed * 1_000_003 + frame_id) * 2 + radar_id


def generate_dataset(
    actions,
    cfg: MotionConfig,
    radar_poses=DEFAULT_POSES,
    chirp_cfg: ChirpConfig | None = None,
    out_path=None,
    n_frames: int | None = None,
    subjects=(0,),
    density: int = 4,
    threshold_db: float = 8.0,
) -> list[dict]:
    """Render a full dataset: poses -> reflectors -> IF frames -> points.

    Emits one record per (frame, radar) in frame order. ``n_frames`` caps the
    total frame count by cycling (action, subject) sequences of
    ``duration_s * fps`` frames each; without it, one sequence per combination
    is produced. Deterministic for a fixed configuration and seed; when
    ``out_path`` is given the records are also written there as JSON Lines.
    """
    actions = list(actions)
    if not actions:
        raise ValueError("need at least one action")
    subjects = list(subjects)
    if not subjects:
        raise ValueError("subjects is empty; need at least one subject")
    if len(radar_poses) < 1:
        raise ValueError("need at least one radar pose")
    if chirp_cfg is None:
        chirp_cfg = ChirpConfig(noise_std=0.3)

    frames_per_seq = max(1, int(round(cfg.duration_s * cfg.fps)))
    combos = [(a, s) for a in actions for s in subjects]
    total = n_frames if n_frames is not None else frames_per_seq * len(combos)

    frame_ms = 1000.0 / cfg.fps
    records = []
    frame_id = 0
    seq_idx = 0
    while frame_id < total:
        action, subject = combos[seq_idx % len(combos)]
        seq_cfg = replace(
            cfg,
            bone_lengths=_subject_lengths(cfg.bone_lengths, subject),
            seed=cfg.seed * 100_003 + seq_idx,
        )
        for f in range(frames_per_seq):
            if frame_id >= total:
                break
            t = f / cfg.fps
            pose = pose_at(action, t, seq_cfg)
            vels = joint_velocities(action, t, seq_cfg)
            t_ms = int(round(frame_id * frame_ms))
            for radar_id, radar_pose in enumerate(radar_poses):
                reflectors = reflectors_from_skeleton(pose, density, radar_pose, vels)
                raw = synthesize_frame(
                    reflectors, chirp_cfg, seed=_noise_seed(cfg.seed, frame_id, radar_id), timestamp_ms=t_ms
                )
                records.append(
                    make_record(
                        frame_id=frame_id,
                        t_ms=t_ms,
                        radar_id=radar_id,
                        points=detections_to_points(detect_points(raw, threshold_db)),
                        gt=pose.joints.tolist(),
                        action=action,
                        subject=subject,
                        swing_state=pose.swing_state,
                    )
                )
            frame_id += 1
        seq_idx += 1

    if out_path is not None:
        write_jsonl(out_path, records)
    return records
