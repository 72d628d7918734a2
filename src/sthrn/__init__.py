"""Hierarchical spatio-temporal recurrent networks for skeletal motion
prediction on Lie-algebra pose features."""

from .autodiff import Tensor, backward, grad_check, no_grad
from .encoder import ChainLayout, encode
from .decoder import decode_step, init_decoder
from .evaluation import HORIZON_MS, horizon_frames, mae, zero_velocity
from .geometry import (
    AxisAngle,
    axis_angle_between,
    exp_map,
    log_map,
    rodrigues,
    wrap_so3,
)
from .model import ModelConfig, ModelParams, forward, param_table, predict
from .skeleton import (
    MotionSequence,
    RootConfig,
    SkeletonTopology,
    builtin_topology,
    lie_to_pose,
    load_motion,
    load_topology,
    pose_to_lie,
    sample_windows,
    save_motion,
    synth_motion,
)
from .training import (
    AdamState,
    TrainConfig,
    adam_step,
    bone_weights,
    l2_loss,
    load_checkpoint,
    save_checkpoint,
    train,
    weighted_loss,
)

__version__ = "0.1.0"
