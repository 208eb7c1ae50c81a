"""Oriented boxes, 4-DOF relative motions, and frame transforms.

Conventions: yaw is the rotation about the up (z) axis, wrapped to
(-pi, pi] by Box3D and Motion4 themselves, so callers pass raw angles;
box size (w, h, l) is lateral extent, vertical extent, and extent along
the heading. The canonical frame of a box has the box center at the
origin and zero yaw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ShapeError
from .tensor import wrap_angle_value


@dataclass
class Box3D:
    x: float
    y: float
    z: float
    w: float
    h: float
    l: float
    theta: float

    def __post_init__(self):
        if min(self.w, self.h, self.l) <= 0:
            raise ShapeError(f"box sizes must be positive, got {(self.w, self.h, self.l)}")
        self.theta = wrap_angle_value(self.theta)

    @property
    def center(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def with_pose(self, x, y, z, theta) -> "Box3D":
        return Box3D(float(x), float(y), float(z), self.w, self.h, self.l, theta)

    def corners_bev(self) -> np.ndarray:
        """Footprint corners (4, 2) in world xy, counter-clockwise."""
        hl, hw = self.l / 2.0, self.w / 2.0
        local = np.array([[hl, hw], [-hl, hw], [-hl, -hw], [hl, -hw]])
        return local @ rot2d(self.theta).T + np.array([self.x, self.y])

    def contains(self, pts: np.ndarray) -> np.ndarray:
        """Boolean mask of points (N, 3) inside the box (closed faces)."""
        local = (pts[:, :2] - np.array([self.x, self.y])) @ rot2d(self.theta)
        in_xy = (np.abs(local[:, 0]) <= self.l / 2.0) & (np.abs(local[:, 1]) <= self.w / 2.0)
        return in_xy & (np.abs(pts[:, 2] - self.z) <= self.h / 2.0)


@dataclass
class Motion4:
    """Relative 4-DOF motion expressed in the previous box's canonical frame."""

    dx: float
    dy: float
    dz: float
    dtheta: float

    def __post_init__(self):
        self.dtheta = wrap_angle_value(self.dtheta)

    def as_array(self) -> np.ndarray:
        return np.array([self.dx, self.dy, self.dz, self.dtheta])


@dataclass
class PointCloud:
    """Unordered (N, 3) points in meters."""

    xyz: np.ndarray

    def __post_init__(self):
        self.xyz = np.asarray(self.xyz, dtype=np.float64).reshape(-1, 3)
        if not np.isfinite(self.xyz).all():
            raise ShapeError("point cloud contains non-finite coordinates")

    def __len__(self) -> int:
        return self.xyz.shape[0]


def rot2d(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def transform_to_frame(pts: np.ndarray, ref: Box3D) -> np.ndarray:
    """World points -> ref box's canonical frame (translate then unrotate)."""
    out = np.array(pts, dtype=np.float64).reshape(-1, 3)
    out -= ref.center
    out[:, :2] = out[:, :2] @ rot2d(ref.theta)  # right-multiply == rotate by -theta
    return out


def transform_from_frame(pts: np.ndarray, ref: Box3D) -> np.ndarray:
    """Inverse of transform_to_frame."""
    out = np.array(pts, dtype=np.float64).reshape(-1, 3)
    out[:, :2] = out[:, :2] @ rot2d(-ref.theta)
    out += ref.center
    return out


def box_in_frame(box: Box3D, ref: Box3D) -> Box3D:
    center = transform_to_frame(box.center[None, :], ref)[0]
    return box.with_pose(*center, box.theta - ref.theta)


def compose_pose(prev: Box3D, motion: Motion4) -> Box3D:
    """Advance a box by a canonical-frame motion.

    The in-plane translation is rotated back by prev.theta into world
    coordinates; with prev.theta == 0 this reduces to plain addition of
    the motion to the pose.
    """
    dxy = rot2d(prev.theta) @ np.array([motion.dx, motion.dy])
    return prev.with_pose(prev.x + dxy[0], prev.y + dxy[1], prev.z + motion.dz,
                          prev.theta + motion.dtheta)


def relative_motion(prev: Box3D, curr: Box3D) -> Motion4:
    """Canonical-frame motion taking prev to curr (inverse of compose_pose)."""
    dxy = rot2d(prev.theta).T @ np.array([curr.x - prev.x, curr.y - prev.y])
    return Motion4(float(dxy[0]), float(dxy[1]), curr.z - prev.z, curr.theta - prev.theta)
