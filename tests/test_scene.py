"""Scene generation, augmentation label consistency, and file round trips."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bevsot.exceptions import ConfigError
from bevsot.geometry import Box3D, compose_pose, relative_motion
from bevsot.pillars import CropSpec
from bevsot.scene import (MAX_FRAME_POINTS, SceneConfig, augment, flip_sample, generate,
                          rotate_sample)
from bevsot.seqio import (read_points_bin, read_sequence, read_tracklet, write_sequence,
                          write_tracklet)
from bevsot.train import TrainSettings, make_training_samples


def test_zero_velocity_static_boxes():
    cfg = SceneConfig(static=True, yaw_rate_max=0.0, lateral_drift=0.0,
                      vertical_drift=0.0, scene_length=6, seed=1)
    seq = generate(cfg)
    b0 = seq.gt[0]
    for b in seq.gt:
        assert (b.x, b.y, b.z, b.theta) == (b0.x, b0.y, b0.z, b0.theta)


def test_derived_motion_round_trips_through_compose():
    seq = generate(SceneConfig(scene_length=10, seed=3))
    for prev, curr in zip(seq.gt, seq.gt[1:]):
        stepped = compose_pose(prev, relative_motion(prev, curr))
        np.testing.assert_allclose(
            [stepped.x, stepped.y, stepped.z, stepped.theta],
            [curr.x, curr.y, curr.z, curr.theta], atol=1e-12)


def test_fixed_seed_bit_identical():
    a = generate(SceneConfig(scene_length=8, seed=11))
    b = generate(SceneConfig(scene_length=8, seed=11))
    assert len(a.frames) == len(b.frames)
    for fa, fb in zip(a.frames, b.frames):
        np.testing.assert_array_equal(fa.xyz, fb.xyz)
    for ba, bb in zip(a.gt, b.gt):
        assert (ba.x, ba.y, ba.z, ba.theta) == (bb.x, bb.y, bb.z, bb.theta)


def test_target_points_inside_inflated_box():
    cfg = SceneConfig(scene_length=6, seed=5, clutter_density=0.0)
    seq = generate(cfg)
    for cloud, b in zip(seq.frames, seq.gt):
        inflated = Box3D(b.x, b.y, b.z, b.w + 2 * cfg.surface_noise,
                         b.h + 2 * cfg.surface_noise, b.l + 2 * cfg.surface_noise,
                         b.theta)
        assert inflated.contains(cloud.xyz).all()


def test_sequence_length_validated():
    with pytest.raises(ConfigError):
        SceneConfig(scene_length=1)


def test_negative_density_rejected():
    with pytest.raises(ConfigError):
        SceneConfig(points_per_m2=-1.0)


@pytest.mark.parametrize("values,named", [
    ({"points_per_m2": 1e30}, "points_per_m2"),  # rng.poisson: lam value too large
    ({"clutter_density": 1e30}, "clutter_density"),
    ({"clutter_extent": 1e200}, "clutter_extent"),  # (2 * extent) ** 2: OverflowError
    ({"clutter_extent": 1e200, "clutter_density": 0.0}, "clutter_extent"),
    ({"size_w": 1e200}, "target face")])
def test_undrawable_scene_values_rejected(values, named):
    with pytest.raises(ConfigError, match=named):
        SceneConfig(**values)


def test_frame_point_bound_is_exact():
    # a 1 m clutter slab and no target points: a frame expects clutter_density points
    SceneConfig(clutter_extent=0.5, points_per_m2=0.0, clutter_density=MAX_FRAME_POINTS)
    too_many = math.nextafter(MAX_FRAME_POINTS, math.inf)
    with pytest.raises(ConfigError, match="expect 4.19e[+]06 points in a frame"):
        SceneConfig(clutter_extent=0.5, points_per_m2=0.0, clutter_density=too_many)


# ---------------------------------------------------------------------------
# augmentation


def make_sample(seed=0):
    seq = generate(SceneConfig(scene_length=3, seed=seed))
    return make_training_samples([seq], CropSpec(grid=(32, 32)))[0].cropped()


def test_training_sample_target_matches_boxes():
    """A cropped pair's target, read from its canonical-frame boxes, is the
    world-frame motion of the two gt boxes it came from."""
    seq = generate(SceneConfig(scene_length=3, seed=0))
    for t, sample in enumerate(make_training_samples([seq], CropSpec(grid=(32, 32))), 1):
        np.testing.assert_array_equal(sample.cropped().target.as_array(),
                                      relative_motion(seq.gt[t - 1], seq.gt[t]).as_array())


def test_pair_target_follows_its_boxes():
    """The target is read from the boxes, so a pair with a moved current box
    has the moved target; no stored copy can disagree with its geometry."""
    s = make_sample()
    b = s.box_curr
    moved = replace(s, box_curr=b.with_pose(b.x + 0.5, b.y, b.z, b.theta + 0.1))
    assert moved.target.dx == pytest.approx(s.target.dx + 0.5, abs=1e-12)
    assert moved.target.dtheta == pytest.approx(s.target.dtheta + 0.1, abs=1e-12)
    assert moved.target == relative_motion(moved.box_prev, moved.box_curr)


def test_flip_twice_restores_sample():
    s = make_sample()
    twice = flip_sample(flip_sample(s, "x"), "x")
    np.testing.assert_array_equal(twice.prev_pts.xyz, s.prev_pts.xyz)
    np.testing.assert_array_equal(twice.curr_pts.xyz, s.curr_pts.xyz)
    np.testing.assert_allclose(
        [twice.box_curr.x, twice.box_curr.y, twice.box_curr.theta],
        [s.box_curr.x, s.box_curr.y, s.box_curr.theta], atol=0)


def test_zero_rotation_no_flip_is_identity():
    s = make_sample()
    out = rotate_sample(s, 0.0)
    np.testing.assert_array_equal(out.prev_pts.xyz, s.prev_pts.xyz)
    np.testing.assert_allclose(
        [out.target.dx, out.target.dy, out.target.dz, out.target.dtheta],
        [s.target.dx, s.target.dy, s.target.dz, s.target.dtheta], atol=1e-15)


@given(st.integers(0, 10 ** 6), st.sampled_from("xy"))
def test_augmented_label_matches_box_recompute(seed, axis):
    """A flip on either axis maps the target (dx, dy, dz, dtheta) to (dx, -dy,
    dz, -dtheta); the rotation about the previous box's centre keeps it."""
    s = make_sample(seed % 7)
    out = augment(s, np.random.default_rng(seed), axis, 5.0)
    flipped = np.random.default_rng(seed).random() < 0.5  # augment's first draw
    sign = np.array([1.0, -1.0, 1.0, -1.0]) if flipped else np.ones(4)
    np.testing.assert_allclose(out.target.as_array(), sign * s.target.as_array(), atol=1e-12)
    # augmented current box still reachable from prev via compose
    stepped = compose_pose(out.box_prev, out.target)
    np.testing.assert_allclose([stepped.x, stepped.y, stepped.theta],
                               [out.box_curr.x, out.box_curr.y, out.box_curr.theta],
                               atol=1e-12)


def test_flip_changes_lateral_motion_sign():
    s = make_sample()
    flipped = flip_sample(s, "x")
    assert flipped.target.dy == pytest.approx(-s.target.dy, abs=1e-12)
    assert flipped.target.dx == pytest.approx(s.target.dx, abs=1e-12)
    assert flipped.target.dtheta == pytest.approx(-s.target.dtheta, abs=1e-12)


def test_flip_axis_rule_is_the_train_settings_rule():
    with pytest.raises(ConfigError) as flip:
        flip_sample(make_sample(), "z")
    with pytest.raises(ConfigError) as settings:
        TrainSettings(flip_axis="z")
    assert str(flip.value) == str(settings.value) == "flip_axis must be one of 'x', 'y', got 'z'"


def test_rotation_bounded_by_five_degrees():
    s = make_sample()
    rng = np.random.default_rng(0)
    for _ in range(50):
        out = augment(s, rng, "x", 5.0)
        d = abs(out.box_prev.theta)
        assert d <= math.radians(5.0) + 1e-12


# ---------------------------------------------------------------------------
# sequence files


def test_write_read_round_trip(tmp_path):
    seq = generate(SceneConfig(scene_length=5, seed=9))
    write_sequence(seq, str(tmp_path / "seq"), meta={"seed": 9})
    back = read_sequence(str(tmp_path / "seq"))
    assert len(back.frames) == 5
    for a, b in zip(seq.frames, back.frames):
        # float32 storage is exact on read-back comparison with a f32 cast
        np.testing.assert_array_equal(a.xyz.astype(np.float32), b.xyz.astype(np.float32))
    for ba, bb in zip(seq.gt, back.gt):
        np.testing.assert_allclose([ba.x, ba.y, ba.z, ba.w, ba.h, ba.l, ba.theta],
                                   [bb.x, bb.y, bb.z, bb.w, bb.h, bb.l, bb.theta],
                                   rtol=0, atol=0)


def test_point_file_round_trip_bit_exact(tmp_path):
    pts = np.random.default_rng(1).standard_normal((37, 3)).astype(np.float32)
    path = tmp_path / "f.bin"
    path.write_bytes(pts.astype("<f4").tobytes())
    back = read_points_bin(str(path))
    np.testing.assert_array_equal(back.xyz.astype(np.float32), pts)


def test_empty_frame_parses_to_empty_cloud(tmp_path):
    path = tmp_path / "empty.bin"
    path.write_bytes(b"")
    assert len(read_points_bin(str(path))) == 0


def test_tracklet_round_trip(tmp_path):
    boxes = [Box3D(0.1, -0.2, 0.3, 1, 1, 4, 0.5),
             Box3D(1.123456789012345, 2, 3, 1, 1, 4, -3.1)]
    txt = tmp_path / "t.txt"
    write_tracklet(boxes, [False, False], str(txt), str(tmp_path / "t.jsonl"))
    back = read_tracklet(str(txt))
    for a, b in zip(boxes, back):
        assert (a.x, a.y, a.z, a.w, a.h, a.l, a.theta) == \
               (b.x, b.y, b.z, b.w, b.h, b.l, b.theta)
    rec = json.loads((tmp_path / "t.jsonl").read_text().splitlines()[0])
    assert rec["frame"] == 1 and rec["coasted"] is False
