"""Pose composition and sequence tracking."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bevsot.exceptions import ConfigError
from bevsot.geometry import (Box3D, Motion4, PointCloud, compose_pose,
                             relative_motion, rot2d)
from bevsot.model import ModelConfig, TrackerModel
from bevsot.pillars import CropSpec
from bevsot.scene import SceneConfig, generate
from bevsot.track import track_sequence, tracker_motion_model

angles = st.floats(-math.pi + 1e-6, math.pi)
coords = st.floats(-20, 20)
small = st.floats(-2, 2)


def box(x=0, y=0, z=0, theta=0.0):
    return Box3D(x, y, z, 1.8, 1.6, 4.2, theta)


# ---------------------------------------------------------------------------
# compose_pose


def test_zero_motion_identity():
    b = box(1, 2, 3, 0.5)
    out = compose_pose(b, Motion4(0, 0, 0, 0))
    assert (out.x, out.y, out.z, out.theta) == (b.x, b.y, b.z, b.theta)


def test_zero_yaw_reduces_to_plain_addition():
    out = compose_pose(box(0, 0, 0, 0.0), Motion4(1, 2, 3, 0.1))
    np.testing.assert_allclose([out.x, out.y, out.z, out.theta], [1, 2, 3, 0.1])


def test_size_preserved():
    out = compose_pose(box(0, 0, 0, 1.0), Motion4(1, 1, 0, 0.3))
    assert (out.w, out.h, out.l) == (1.8, 1.6, 4.2)


@given(angles, small, small, small, angles, small, small, small, angles)
def test_composition_matches_combined_motion(t0, dx1, dy1, dz1, dt1, dx2, dy2, dz2, dt2):
    b0 = box(1.0, -2.0, 0.5, t0)
    m1, m2 = Motion4(dx1, dy1, dz1, dt1), Motion4(dx2, dy2, dz2, dt2)
    stepped = compose_pose(compose_pose(b0, m1), m2)
    t12 = rot2d(m1.dtheta) @ np.array([m2.dx, m2.dy]) + [m1.dx, m1.dy]
    combined = compose_pose(b0, Motion4(t12[0], t12[1], m1.dz + m2.dz,
                                        m1.dtheta + m2.dtheta))
    np.testing.assert_allclose(
        [stepped.x, stepped.y, stepped.z, stepped.theta],
        [combined.x, combined.y, combined.z, combined.theta], atol=1e-12)


@given(angles, small, small, small, st.floats(-3, 3))
def test_relative_motion_inverts_compose(t0, dx, dy, dz, dt):
    b0 = box(2.0, 1.0, 0.3, t0)
    m = Motion4(dx, dy, dz, dt)
    b1 = compose_pose(b0, m)
    back = relative_motion(b0, b1)
    np.testing.assert_allclose([back.dx, back.dy, back.dz, back.dtheta],
                               [m.dx, m.dy, m.dz, m.dtheta], atol=1e-12)


# ---------------------------------------------------------------------------
# track_sequence


def clouds(n_frames, rng, n=50):
    return [PointCloud(rng.uniform(-3, 3, size=(n, 3))) for _ in range(n_frames)]


def test_zero_motion_model_keeps_init_box(rng):
    frames = clouds(5, rng)
    init = box(1, 2, 0.5, 0.3)
    tr = track_sequence(frames, init, lambda p, c, b: Motion4(0, 0, 0, 0))
    assert len(tr.boxes) == 5
    for b in tr.boxes:
        assert (b.x, b.y, b.z, b.theta) == (init.x, init.y, init.z, init.theta)


def test_output_length_and_sizes(rng):
    frames = clouds(7, rng)
    tr = track_sequence(frames, box(0, 0, 0), lambda p, c, b: Motion4(0.1, 0, 0, 0.01))
    assert len(tr.boxes) == 7  # given first box plus T-1 predictions
    assert all((b.w, b.h, b.l) == (1.8, 1.6, 4.2) for b in tr.boxes)


def test_too_few_frames_rejected(rng):
    with pytest.raises(ConfigError):
        track_sequence(clouds(1, rng), box(0, 0, 0), lambda p, c, b: None)


def test_empty_crops_coast_and_flag():
    m = TrackerModel(ModelConfig(grid=16, channels=4, head_trunk=32), seed=0)
    spec = CropSpec(grid=(16, 16))
    motion_model = tracker_motion_model(m, spec)
    # target box far away from every point: crops around it are empty
    frames = [PointCloud(np.full((20, 3), 100.0)) for _ in range(4)]
    tr = track_sequence(frames, box(0, 0, 0), motion_model)
    assert tr.coasted == [False, True, True, True]
    for b in tr.boxes:
        assert (b.x, b.y, b.z, b.theta) == (0.0, 0.0, 0.0, 0.0)


def test_library_defaults_track_a_generated_sequence():
    # the default crop window and the default model agree on the grid
    seq = generate(SceneConfig(scene_length=3, seed=6))
    tr = track_sequence(seq.frames, seq.gt[0],
                        tracker_motion_model(TrackerModel(ModelConfig()), CropSpec()))
    assert len(tr.boxes) == 3 and not any(tr.coasted)


def test_tracking_deterministic():
    cfg = SceneConfig(scene_length=5, seed=42)
    seq = generate(cfg)
    m = TrackerModel(ModelConfig(grid=16, channels=4, head_trunk=32), seed=1)
    m.randomize_all(np.random.default_rng(2))
    mm = tracker_motion_model(m, CropSpec(grid=(16, 16)))
    t1 = track_sequence(seq.frames, seq.gt[0], mm)
    t2 = track_sequence(seq.frames, seq.gt[0], mm)
    for a, b in zip(t1.boxes, t2.boxes):
        assert (a.x, a.y, a.z, a.theta) == (b.x, b.y, b.z, b.theta)
