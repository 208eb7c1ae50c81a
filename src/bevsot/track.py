"""Frame-by-frame inference: given the first-frame box, regress relative
motion over consecutive crops and chain poses through the sequence."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .exceptions import ConfigError
from .geometry import Box3D, Motion4, PointCloud, compose_pose
from .model import TrackerModel
from .pillars import CropSpec, canonicalize, crop

# a motion model maps (prev cloud, curr cloud, prev box) -> canonical-frame
# motion, or None when there is nothing usable to predict from (coast)
MotionModel = Callable[[PointCloud, PointCloud, Box3D], Optional[Motion4]]


@dataclass
class Tracklet:
    sequence_id: str
    boxes: list[Box3D]
    coasted: list[bool]  # frame 1 is given, never coasted


def tracker_motion_model(model: TrackerModel, spec: CropSpec) -> MotionModel:
    """Wrap a trained model: canonicalize + crop both frames around the
    previous box and regress the motion. Runs without a tape (inference)."""

    def predict(prev_cloud: PointCloud, curr_cloud: PointCloud,
                prev_box: Box3D) -> Optional[Motion4]:
        prev_c = crop(canonicalize(prev_cloud, prev_box), spec)
        curr_c = crop(canonicalize(curr_cloud, prev_box), spec)
        if len(prev_c) == 0 and len(curr_c) == 0:
            return None
        out = model.forward_clouds(prev_c, curr_c, spec).data
        return Motion4(float(out[0]), float(out[1]), float(out[2]), float(out[3]))

    return predict


def track_sequence(frames: list[PointCloud], init_box: Box3D, model: MotionModel,
                   sequence_id: str = "seq") -> Tracklet:
    """Apply the model over frames 2..T, composing each predicted motion
    onto the previous box. Box size is carried from the initial box; a
    frame pair with no usable points coasts with zero motion and is
    flagged."""
    if len(frames) < 2:
        raise ConfigError(f"tracking needs at least 2 frames, got {len(frames)}")
    boxes = [init_box]
    coasted = [False]
    for t in range(1, len(frames)):
        motion = model(frames[t - 1], frames[t], boxes[-1])
        if motion is None:
            motion = Motion4(0.0, 0.0, 0.0, 0.0)
            coasted.append(True)
        else:
            coasted.append(False)
        boxes.append(compose_pose(boxes[-1], motion))
    return Tracklet(sequence_id=sequence_id, boxes=boxes, coasted=coasted)
