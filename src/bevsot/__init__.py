"""Desk-scale BEV LiDAR single-object tracker with motion-gated linear attention."""

from .blocks import BlockParams, FrameEncoder
from .geometry import Box3D, Motion4, PointCloud, compose_pose, relative_motion
from .metrics import OpeResult, iou3d, ope
from .model import ModelConfig, TrackerModel, motion_loss
from .params import ParamStore, adamw_step, load_checkpoint, save_checkpoint
from .pillars import CropSpec, canonicalize, crop, pillarize
from .scene import LabeledSequence, SceneConfig, generate
from .tensor import Tape, Tensor
from .track import Tracklet, track_sequence, tracker_motion_model

__all__ = [
    "BlockParams", "Box3D", "CropSpec", "FrameEncoder", "LabeledSequence",
    "ModelConfig", "Motion4", "OpeResult", "ParamStore", "PointCloud",
    "SceneConfig", "Tape", "Tensor", "TrackerModel", "Tracklet", "adamw_step",
    "canonicalize", "compose_pose", "crop", "generate", "iou3d",
    "load_checkpoint", "motion_loss", "ope", "pillarize", "relative_motion",
    "save_checkpoint", "track_sequence", "tracker_motion_model",
]
