"""Procedural LiDAR-like sequences for desk-scale training and evaluation,
plus the training-time flip/rotate augmentation.

A rigid box target moves with piecewise-constant random velocity and yaw
rate through static clutter; surface points are sampled on the faces
visible from the sensor with range-dependent density and bounded uniform
noise, and per-frame dropout stands in for occlusion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import ConfigError
from .geometry import Box3D, Motion4, PointCloud, relative_motion, rot2d
from .pillars import CropSpec, canonicalize, crop
from .rules import (FINITE, FRACTION, NON_NEGATIVE, POSITIVE, TWO_OR_MORE, check, one_of,
                    require, ruled)
from .tensor import wrap_angle_value

SENSOR = np.array([0.0, 0.0, 1.8])
# the most points a frame may expect: 96 MiB of float64 coordinates, far
# below numpy's Poisson limit (about 9.2e18), so every draw stays drawable
MAX_FRAME_POINTS = 2**22
FLIP_AXIS = one_of("x", "y")  # TrainSettings.flip_axis's rule
REF_RANGE = 10.0  # m from the sensor at which a face has points_per_m2
SEGMENT_FRAMES = 4  # frames per constant-velocity segment


@dataclass
class SceneConfig:
    size_w: float = ruled(1.8, POSITIVE)  # mean box size
    size_h: float = ruled(1.6, POSITIVE)
    size_l: float = ruled(4.2, POSITIVE)
    size_jitter: float = ruled(0.1, FRACTION)  # relative, uniform
    speed_min: float = ruled(0.10, FINITE)  # m/frame along heading
    speed_max: float = ruled(0.35, FINITE)
    yaw_rate_max: float = ruled(0.04, NON_NEGATIVE)  # rad/frame, uniform in [-max, max]
    lateral_drift: float = ruled(0.02, NON_NEGATIVE)  # m/frame sideways, uniform in [-d, d]
    vertical_drift: float = ruled(0.01, NON_NEGATIVE)
    points_per_m2: float = ruled(40.0, NON_NEGATIVE)  # face density at REF_RANGE
    surface_noise: float = ruled(0.01, NON_NEGATIVE)  # uniform bound, all axes
    clutter_density: float = ruled(0.6, NON_NEGATIVE)  # points per m^2 of ground footprint
    clutter_extent: float = ruled(10.0, NON_NEGATIVE)  # half-size of the clutter slab
    occlusion_dropout: float = ruled(0.1, FRACTION)
    static: bool = False  # near-static target (drifts only)
    scene_length: int = ruled(16, TWO_OR_MORE)
    seed: int = 0

    def __post_init__(self):
        check(self)
        if not self.speed_min <= self.speed_max:
            raise ConfigError(f"speed_min must be <= speed_max, "
                              f"got {self.speed_min} > {self.speed_max}")
        # a frame's expected points, before dropout: the three target faces a
        # sensor can see at the near-range density cap (4x), and the clutter slab
        w, h, l = (s * (1.0 + self.size_jitter) for s in (self.size_w, self.size_h, self.size_l))
        faces = w * h + w * l + h * l
        side = 2 * self.clutter_extent
        points = 4.0 * self.points_per_m2 * faces + self.clutter_density * (side * side)
        if not points <= MAX_FRAME_POINTS:  # also NaN (0 * inf)
            raise ConfigError(f"points_per_m2 on {faces:.3g} m^2 of target faces and "
                              f"clutter_density over clutter_extent expect {points:.3g} "
                              f"points in a frame, past the limit {MAX_FRAME_POINTS}")


@dataclass
class LabeledSequence:
    frames: list[PointCloud]
    gt: list[Box3D]

    def __post_init__(self):
        if len(self.frames) != len(self.gt):
            raise ConfigError(f"{len(self.frames)} frames vs {len(self.gt)} labels")


def _sample_faces(box: Box3D, cfg: SceneConfig, rng) -> np.ndarray:
    """Points on the faces visible from the sensor, in world coordinates."""
    hw, hh, hl = box.w / 2.0, box.h / 2.0, box.l / 2.0
    # faces in the box frame: (normal axis, sign, spans of the two free axes)
    faces = [
        (0, +1, (1, hw), (2, hh)), (0, -1, (1, hw), (2, hh)),   # front/back
        (1, +1, (0, hl), (2, hh)), (1, -1, (0, hl), (2, hh)),   # left/right
        (2, +1, (0, hl), (1, hw)),                              # top
    ]
    half = {0: hl, 1: hw, 2: hh}
    rot = rot2d(box.theta)
    center = box.center
    to_sensor = SENSOR - center
    rng_dist = max(1.0, float(np.linalg.norm(to_sensor)))
    density = cfg.points_per_m2 * min(4.0, (REF_RANGE / rng_dist) ** 2)
    pts = []
    for axis, sign, (ua, ulim), (va, vlim) in faces:
        normal = np.zeros(3)
        normal[axis] = sign
        normal[:2] = rot @ normal[:2]
        if float(normal @ to_sensor) <= 0.0:
            continue
        n = rng.poisson(density * (2 * ulim) * (2 * vlim))
        if n == 0:
            continue
        local = np.zeros((n, 3))
        local[:, axis] = sign * half[axis]
        local[:, ua] = rng.uniform(-ulim, ulim, n)
        local[:, va] = rng.uniform(-vlim, vlim, n)
        pts.append(local)
    if not pts:
        return np.zeros((0, 3))
    local = np.concatenate(pts, axis=0)
    # noise in the box frame keeps every point inside the box inflated by
    # exactly the noise bound
    local += rng.uniform(-cfg.surface_noise, cfg.surface_noise, local.shape)
    world = local.copy()
    world[:, :2] = local[:, :2] @ rot.T
    return world + center


def generate(cfg: SceneConfig) -> LabeledSequence:
    """Deterministic under cfg.seed, bit-identical across runs."""
    rng = np.random.default_rng(cfg.seed)
    w, h, l = (s * (1.0 + rng.uniform(-cfg.size_jitter, cfg.size_jitter))
               for s in (cfg.size_w, cfg.size_h, cfg.size_l))
    x0, y0 = rng.uniform(3.0, 9.0) * rot2d(rng.uniform(-math.pi, math.pi))[:, 0]
    box = Box3D(x0, y0, h / 2.0, w, h, l, rng.uniform(-math.pi, math.pi))

    boxes = [box]
    speed = yaw_rate = lat = vz = 0.0
    for t in range(1, cfg.scene_length):
        if (t - 1) % SEGMENT_FRAMES == 0:
            speed = 0.0 if cfg.static else rng.uniform(cfg.speed_min, cfg.speed_max)
            yaw_rate = rng.uniform(-cfg.yaw_rate_max, cfg.yaw_rate_max)
            lat = rng.uniform(-cfg.lateral_drift, cfg.lateral_drift)
            vz = rng.uniform(-cfg.vertical_drift, cfg.vertical_drift)
        prev = boxes[-1]
        theta = wrap_angle_value(prev.theta + yaw_rate)
        heading = np.array([math.cos(theta), math.sin(theta)])
        side = np.array([-heading[1], heading[0]])
        dxy = speed * heading + lat * side
        boxes.append(prev.with_pose(prev.x + dxy[0], prev.y + dxy[1],
                                    prev.z + vz, theta))

    mid = np.mean([b.center for b in boxes], axis=0)
    ext = cfg.clutter_extent
    n_clutter = rng.poisson(cfg.clutter_density * (2 * ext) ** 2)
    clutter = np.column_stack([
        rng.uniform(mid[0] - ext, mid[0] + ext, n_clutter),
        rng.uniform(mid[1] - ext, mid[1] + ext, n_clutter),
        rng.uniform(0.0, 2.2, n_clutter),
    ])

    frames = []
    for b in boxes:
        target = _sample_faces(b, cfg, rng)
        pts = np.concatenate([target, clutter], axis=0)
        keep = rng.random(pts.shape[0]) >= cfg.occlusion_dropout
        frames.append(PointCloud(pts[keep]))
    return LabeledSequence(frames=frames, gt=boxes)


# ---------------------------------------------------------------------------
# training samples and augmentation


@dataclass
class CroppedPair:
    """A consecutive frame pair in the previous gt box's canonical frame,
    cropped to `spec`, the window it was built with (windows differ per
    sequence in ratio-crop mode); its target is read from its two boxes.
    It lives for one training step: `TrainingSample.cropped` makes it, and
    `augment` maps it to a new one that it crops again."""

    prev_pts: PointCloud
    curr_pts: PointCloud
    box_prev: Box3D
    box_curr: Box3D
    spec: CropSpec

    @property
    def target(self) -> Motion4:
        """The regression target: the relative motion of the pair's boxes."""
        return relative_motion(self.box_prev, self.box_curr)


@dataclass
class TrainingSample:
    """A consecutive frame pair that references its two frames, so a
    training set holds each frame once; `cropped` makes the pair a step
    reads, and its target is read from the boxes. `box_curr` is the current
    gt box in `ref`'s (the previous gt box's) canonical frame. The frames are
    shared with the sequence and the neighbouring pair: do not mutate them."""

    prev_frame: PointCloud
    curr_frame: PointCloud
    ref: Box3D
    box_curr: Box3D
    spec: CropSpec

    def cropped(self) -> CroppedPair:
        """Both frames in `ref`'s canonical frame, cropped with `spec`;
        computed anew on every call and never stored."""
        return CroppedPair(crop(canonicalize(self.prev_frame, self.ref), self.spec),
                           crop(canonicalize(self.curr_frame, self.ref), self.spec),
                           self.ref.with_pose(0.0, 0.0, 0.0, 0.0), self.box_curr, self.spec)


# membership margin when selecting "target points": surface sampling noise
# puts points just outside the exact box faces
TARGET_MARGIN = 0.05


def _membership_box(b: Box3D) -> Box3D:
    return Box3D(b.x, b.y, b.z, b.w + 2 * TARGET_MARGIN, b.h + 2 * TARGET_MARGIN,
                 b.l + 2 * TARGET_MARGIN, b.theta)


def _flip_box(b: Box3D, axis: str) -> Box3D:
    if axis == "x":  # mirror across the x axis: y -> -y
        return b.with_pose(b.x, -b.y, b.z, -b.theta)
    return b.with_pose(-b.x, b.y, b.z, math.pi - b.theta)


def flip_sample(s: CroppedPair, axis: str = "x") -> CroppedPair:
    """Mirror the target points and boxes of both frames; an involution.
    The result may hold points outside the window until `augment` crops it."""
    require("flip_axis", axis, FLIP_AXIS)
    out_pts = []
    for pts, box in ((s.prev_pts, s.box_prev), (s.curr_pts, s.box_curr)):
        p = pts.xyz.copy()
        inside = _membership_box(box).contains(p)
        p[inside, 1 if axis == "x" else 0] *= -1.0
        out_pts.append(PointCloud(p))
    return CroppedPair(*out_pts, _flip_box(s.box_prev, axis), _flip_box(s.box_curr, axis),
                       s.spec)


def rotate_sample(s: CroppedPair, delta: float) -> CroppedPair:
    """Rotate the target (points and boxes, both frames) by delta about the
    up-axis through the crop origin, i.e. the previous box center. The
    result may hold points outside the window until `augment` crops it."""
    rot = rot2d(delta)
    out_pts = []
    for pts, box in ((s.prev_pts, s.box_prev), (s.curr_pts, s.box_curr)):
        p = pts.xyz.copy()
        inside = _membership_box(box).contains(p)
        p[inside, :2] = p[inside, :2] @ rot.T
        out_pts.append(PointCloud(p))
    boxes = [b.with_pose(*(rot @ np.array([b.x, b.y])), b.z, b.theta + delta)
             for b in (s.box_prev, s.box_curr)]
    return CroppedPair(*out_pts, *boxes, s.spec)


def augment(s: CroppedPair, rng, flip_axis: str = "x", max_rot_deg: float = 5.0) -> CroppedPair:
    """Random horizontal flip (prob 0.5) and uniform yaw perturbation, then
    a crop of both clouds to `s.spec`: the moves can carry points out of it.

    The target is read from the augmented boxes (`CroppedPair.target`), so
    it stays exactly consistent with the geometry the network sees."""
    if rng.random() < 0.5:
        s = flip_sample(s, flip_axis)
    s = rotate_sample(s, math.radians(rng.uniform(-max_rot_deg, max_rot_deg)))
    return replace(s, prev_pts=crop(s.prev_pts, s.spec), curr_pts=crop(s.curr_pts, s.spec))
