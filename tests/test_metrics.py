"""Rotated IoU and OPE on hand cases and invariances; the Monte Carlo IoU
and threshold-sweep oracles that acceptance criteria 6 and 10 run; the
softmax attention reference."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bevsot.bench import softmax_attention
from bevsot.exceptions import ShapeError
from bevsot.geometry import Box3D
from bevsot.metrics import PRECISION_RANGE, iou3d, ope, ope_csv
from bevsot.track import Tracklet


def mc_iou(a: Box3D, b: Box3D, n=200_000, seed=0) -> float:
    """Monte Carlo IoU oracle: uniform samples over the joint bounding box."""
    rng = np.random.default_rng(seed)
    corners = np.concatenate([a.corners_bev(), b.corners_bev()])
    lo = np.array([corners[:, 0].min(), corners[:, 1].min(),
                   min(a.z - a.h / 2, b.z - b.h / 2)])
    hi = np.array([corners[:, 0].max(), corners[:, 1].max(),
                   max(a.z + a.h / 2, b.z + b.h / 2)])
    pts = rng.uniform(lo, hi, size=(n, 3))
    inter_vol = (a.contains(pts) & b.contains(pts)).mean() * np.prod(hi - lo)
    union_vol = a.w * a.h * a.l + b.w * b.h * b.l - inter_vol
    return inter_vol / union_vol


def test_identical_boxes_iou_one():
    b = Box3D(1, 2, 0.5, 1.8, 1.6, 4.2, 0.7)
    assert iou3d(b, b) == pytest.approx(1.0, abs=1e-12)


def test_disjoint_boxes_iou_zero():
    a = Box3D(0, 0, 0, 1, 1, 1, 0.0)
    b = Box3D(10, 0, 0, 1, 1, 1, 0.3)
    assert iou3d(a, b) == 0.0
    c = Box3D(0, 0, 10, 1, 1, 1, 0.0)  # vertically disjoint
    assert iou3d(a, c) == 0.0


def test_half_overlap_axis_aligned():
    a = Box3D(0, 0, 0, 2, 2, 2, 0.0)
    b = Box3D(1, 0, 0, 2, 2, 2, 0.0)  # half the length overlaps
    # intersection 1x2x2 = 4, union 8+8-4 = 12
    assert iou3d(a, b) == pytest.approx(4.0 / 12.0, abs=1e-12)


def test_contained_box():
    outer = Box3D(0, 0, 0, 4, 4, 4, 0.3)
    inner = Box3D(0, 0, 0, 2, 2, 2, -0.5)
    assert iou3d(outer, inner) == pytest.approx(8.0 / 64.0, abs=1e-9)


@given(st.floats(-math.pi, math.pi), st.floats(-5, 5), st.floats(-5, 5),
       st.floats(-math.pi, math.pi))
def test_iou_symmetric_and_joint_rotation_invariant(phi, dx, dy, rel_yaw):
    a = Box3D(0, 0, 0, 1.8, 1.6, 4.2, 0.0)
    b = Box3D(dx * 0.3, dy * 0.3, 0.1, 2.0, 1.5, 3.5, rel_yaw)
    base = iou3d(a, b)
    assert iou3d(b, a) == pytest.approx(base, abs=1e-9)

    def rotate(box):
        c, s = math.cos(phi), math.sin(phi)
        return box.with_pose(c * box.x - s * box.y, s * box.x + c * box.y,
                             box.z, box.theta + phi)

    assert iou3d(rotate(a), rotate(b)) == pytest.approx(base, abs=1e-9)


def test_iou_translation_invariant():
    a = Box3D(0, 0, 0, 2, 1, 3, 0.4)
    b = Box3D(0.5, -0.3, 0.1, 1.5, 1.2, 2.5, -0.2)
    base = iou3d(a, b)
    shift = np.array([5.0, -7.0, 2.0])
    a2 = a.with_pose(a.x + shift[0], a.y + shift[1], a.z + shift[2], a.theta)
    b2 = b.with_pose(b.x + shift[0], b.y + shift[1], b.z + shift[2], b.theta)
    assert iou3d(a2, b2) == pytest.approx(base, abs=1e-12)


def test_degenerate_box_rejected():
    with pytest.raises(ShapeError):
        Box3D(0, 0, 0, 0.0, 1, 1, 0.0)


# ---------------------------------------------------------------------------
# OPE


def sweep_oracle_success(ious):
    """Integrate the success curve segment-by-segment over sorted breakpoints."""
    vals = np.clip(np.sort(np.asarray(ious)), 0.0, 1.0)
    area = 0.0
    prev = 0.0
    n = len(vals)
    for k, v in enumerate(vals):
        frac_above = (n - k) / n  # fraction with IoU >= v (curve value on [prev, v))
        area += (v - prev) * frac_above
        prev = v
    return area


def test_precision_matches_sweep_oracle(rng):
    gt = [Box3D(float(i), 0, 0, 2, 2, 3, 0.0) for i in range(12)]
    pred = [gt[0]]
    for b in gt[1:]:
        pred.append(b.with_pose(b.x + rng.uniform(0, 3), b.y + rng.uniform(-1, 1),
                                b.z, b.theta))
    res = ope(Tracklet("s", pred, [False] * 12), gt)
    dists = np.asarray(res.dists)
    # independent oracle: per-frame exact area of the distance step curve
    want = np.mean([(PRECISION_RANGE - min(d, PRECISION_RANGE)) / PRECISION_RANGE
                    for d in dists])
    assert res.precision_auc == pytest.approx(want, abs=1e-12)


def test_success_monotone_under_iou_decrease(rng):
    gt = [Box3D(float(i), 0, 0, 2, 2, 3, 0.0) for i in range(6)]
    pred = [gt[0]] + [b.with_pose(b.x + 0.5, b.y, b.z, b.theta) for b in gt[1:]]
    base = ope(Tracklet("s", pred, [False] * 6), gt)
    worse = list(pred)
    worse[3] = gt[3].with_pose(gt[3].x + 1.5, 0, 0, 0.0)  # lower IoU on one frame
    res = ope(Tracklet("s", worse, [False] * 6), gt)
    assert res.success_auc < base.success_auc
    assert res.precision_auc < base.precision_auc


def test_length_mismatch_rejected():
    gt = [Box3D(0, 0, 0, 1, 1, 1, 0.0)] * 3
    with pytest.raises(ShapeError):
        ope(Tracklet("s", list(gt[:2]), [False, False]), list(gt))


def test_curves_and_csv():
    gt = [Box3D(float(i), 0, 0, 2, 2, 3, 0.0) for i in range(4)]
    pred = [gt[0]] + [b.with_pose(b.x + 1.0, b.y, b.z, b.theta) for b in gt[1:]]
    res = ope(Tracklet("s", pred, [False] * 4), gt)
    # each scored box is shifted 1 m along its 3 m length: IoU 2/4, distance
    # 1 m, so the areas under both curves are exactly 1/2
    assert res.ious == [0.5] * 3 and res.dists == [1.0] * 3
    assert res.success_auc == res.precision_auc == 0.5
    csv = ope_csv(res)
    assert csv.startswith("frame,iou,center_dist") and "summary," in csv


# ---------------------------------------------------------------------------
# softmax attention reference


def test_softmax_single_row_returns_value_row(rng):
    q = rng.standard_normal((1, 4))
    k = rng.standard_normal((1, 4))
    v = rng.standard_normal((1, 4))
    np.testing.assert_allclose(softmax_attention(q, k, v), v, rtol=1e-12)


def test_softmax_uniform_keys_average_values(rng):
    q = rng.standard_normal((6, 4))
    k = np.tile(rng.standard_normal((1, 4)), (6, 1))
    v = rng.standard_normal((6, 4))
    out = softmax_attention(q, k, v)
    np.testing.assert_allclose(out, np.tile(v.mean(axis=0), (6, 1)), rtol=1e-10)


def test_softmax_matches_hand_oracle(rng):
    q = rng.standard_normal((8, 5))
    k = rng.standard_normal((8, 5))
    v = rng.standard_normal((8, 5))
    scores = q @ k.T / math.sqrt(5)
    e = np.exp(scores)
    want = (e / e.sum(axis=1, keepdims=True)) @ v
    np.testing.assert_allclose(softmax_attention(q, k, v), want, atol=1e-12)
