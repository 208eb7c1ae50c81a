"""One-pass evaluation: rotated-box IoU by convex polygon clipping, center
distance, and Success/Precision areas under the threshold-sweep curves.

The success curve f(tau) = fraction of frames with IoU above tau is a step
function; its exact area over tau in [0, 1] equals the mean clipped IoU,
which is what ``success_auc`` computes. Likewise ``precision_auc`` is the
exact area under the center-distance curve over [0, 2 m], normalized: the
mean of clip(1 - dist / 2 m, 0, 1). The curves themselves are not sampled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ShapeError
from .geometry import Box3D
from .track import Tracklet

CLIP_EPS = 1e-9  # collinearity tolerance in the polygon clipper
PRECISION_RANGE = 2.0  # meters


def _polygon_area(poly: np.ndarray) -> float:
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def _clip_polygon(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman: clip a polygon by a convex CCW polygon."""
    output = list(subject)
    for i in range(len(clip)):
        if not output:
            break
        a = clip[i]
        b = clip[(i + 1) % len(clip)]
        edge = b - a
        points, output = output, []
        prev = points[-1]
        prev_side = edge[0] * (prev[1] - a[1]) - edge[1] * (prev[0] - a[0])
        for curr in points:
            curr_side = edge[0] * (curr[1] - a[1]) - edge[1] * (curr[0] - a[0])
            if curr_side >= -CLIP_EPS:
                if prev_side < -CLIP_EPS:
                    output.append(_intersect(prev, curr, a, b))
                output.append(curr)
            elif prev_side >= -CLIP_EPS:
                output.append(_intersect(prev, curr, a, b))
            prev, prev_side = curr, curr_side
    return np.array(output) if output else np.zeros((0, 2))


def _intersect(p, q, a, b) -> np.ndarray:
    d1 = q - p
    d2 = b - a
    denom = d1[0] * d2[1] - d1[1] * d2[0]
    if abs(denom) < CLIP_EPS * CLIP_EPS:
        return np.array(q, dtype=float)
    t = ((a[0] - p[0]) * d2[1] - (a[1] - p[1]) * d2[0]) / denom
    return p + t * d1


def iou3d(a: Box3D, b: Box3D) -> float:
    """Volume IoU of two yaw-oriented boxes: BEV rotated-rectangle
    intersection times vertical overlap, over the union. Symmetric."""
    for box in (a, b):
        if box.w * box.h * box.l <= 0.0:
            raise ShapeError(f"degenerate box with volume {box.w * box.h * box.l}")
    inter_bev = _polygon_area(_clip_polygon(a.corners_bev(), b.corners_bev()))
    z_lo = max(a.z - a.h / 2.0, b.z - b.h / 2.0)
    z_hi = min(a.z + a.h / 2.0, b.z + b.h / 2.0)
    inter = inter_bev * max(0.0, z_hi - z_lo)
    vol_a = a.w * a.h * a.l
    vol_b = b.w * b.h * b.l
    union = vol_a + vol_b - inter
    return inter / union


@dataclass
class OpeResult:
    ious: list[float]  # frames 2..T (frame 1 is given)
    dists: list[float]
    success_auc: float
    precision_auc: float


def ope(pred: Tracklet, gt: list[Box3D]) -> OpeResult:
    """Score frames 2..T of a tracklet against ground truth boxes."""
    if len(pred.boxes) != len(gt):
        raise ShapeError(f"tracklet length {len(pred.boxes)} vs gt length {len(gt)}")
    ious, dists = [], []
    for p, g in zip(pred.boxes[1:], gt[1:]):
        ious.append(iou3d(p, g))
        dists.append(float(np.linalg.norm(p.center - g.center)))
    iarr = np.clip(np.asarray(ious), 0.0, 1.0)
    darr = np.asarray(dists)
    success = float(iarr.mean()) if len(iarr) else 0.0
    precision = float(np.clip(1.0 - darr / PRECISION_RANGE, 0.0, 1.0).mean()) if len(darr) else 0.0
    return OpeResult(ious=ious, dists=dists, success_auc=success, precision_auc=precision)


def ope_csv(result: OpeResult) -> str:
    lines = ["frame,iou,center_dist"]
    for t, (i, d) in enumerate(zip(result.ious, result.dists), start=2):
        lines.append(f"{t},{i:.6f},{d:.6f}")
    lines.append(f"summary,{result.success_auc:.6f},{result.precision_auc:.6f}")
    return "\n".join(lines) + "\n"
