"""Dual mmWave radar simulation and dual-view skeleton regression workbench.

Pipeline: chirp-level FMCW simulation of an articulated moving skeleton,
point-cloud recovery per radar, dual-radar fusion with DBSCAN denoising,
and three point-cloud regression networks trained with a from-scratch,
finite-difference-verified gradient engine.
"""

from .physics import ChirpConfig, SPEED_OF_LIGHT
from .fmcw import Detection, RawFrame, detect_points, detections_to_points, range_spectrum, synthesize_frame
from .pointcloud import (
    FusedFrame,
    RadarPose,
    align_streams,
    build_cloud,
    build_views,
    dbscan,
    fuse_records,
    normalize_snr,
    transform_to_radar,
    transform_to_world,
)
from .scene import MotionConfig, SkeletonFrame, generate_dataset, pose_at, reflectors_from_skeleton, skeleton_template
from .model import (
    ExampleSet,
    Hyper,
    ModelConfig,
    ModelParams,
    backward,
    forward,
    init_params,
    load_checkpoint,
    mse_loss,
    predict_batch,
    save_checkpoint,
    tnet_forward,
    train,
)
from .harness import AblationConfig, JointSets, MetricsReport, arm_swing_score, evaluate, run_ablation

__version__ = "0.1.0"
