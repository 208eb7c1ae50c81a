"""Scene generation, augmentation label consistency, and file round trips."""

import json
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bevsot.exceptions import ConfigError, DataFormatError
from bevsot.geometry import Box3D, compose_pose, relative_motion
from bevsot.pillars import CropSpec
from bevsot.scene import (SceneConfig, augment, flip_sample, generate,
                          rotate_sample)
from bevsot.seqio import (read_points_bin, read_sequence, read_tracklet,
                          write_sequence, write_tracklet)
from bevsot.train import make_training_samples


def test_zero_velocity_static_boxes():
    cfg = SceneConfig(static=True, yaw_rate_max=0.0, lateral_drift=0.0,
                      vertical_drift=0.0, length=6, seed=1)
    seq = generate(cfg)
    b0 = seq.gt[0]
    for b in seq.gt:
        assert (b.x, b.y, b.z, b.theta) == (b0.x, b0.y, b0.z, b0.theta)


def test_derived_motion_round_trips_through_compose():
    seq = generate(SceneConfig(length=10, seed=3))
    for prev, motion, curr in zip(seq.gt, seq.motions, seq.gt[1:]):
        stepped = compose_pose(prev, motion)
        np.testing.assert_allclose(
            [stepped.x, stepped.y, stepped.z, stepped.theta],
            [curr.x, curr.y, curr.z, curr.theta], atol=1e-12)


def test_fixed_seed_bit_identical():
    a = generate(SceneConfig(length=8, seed=11))
    b = generate(SceneConfig(length=8, seed=11))
    assert len(a.frames) == len(b.frames)
    for fa, fb in zip(a.frames, b.frames):
        np.testing.assert_array_equal(fa.xyz, fb.xyz)
    for ba, bb in zip(a.gt, b.gt):
        assert (ba.x, ba.y, ba.z, ba.theta) == (bb.x, bb.y, bb.z, bb.theta)


def test_target_points_inside_inflated_box():
    cfg = SceneConfig(length=6, seed=5, clutter_density=0.0)
    seq = generate(cfg)
    for cloud, b in zip(seq.frames, seq.gt):
        inflated = Box3D(b.x, b.y, b.z, b.w + 2 * cfg.surface_noise,
                         b.h + 2 * cfg.surface_noise, b.l + 2 * cfg.surface_noise,
                         b.theta)
        assert inflated.contains(cloud.xyz).all()


def test_sequence_length_validated():
    with pytest.raises(ConfigError):
        SceneConfig(length=1)


def test_negative_density_rejected():
    with pytest.raises(ConfigError):
        SceneConfig(points_per_m2=-1.0)


# ---------------------------------------------------------------------------
# augmentation


def make_sample(seed=0):
    seq = generate(SceneConfig(length=3, seed=seed))
    return make_training_samples([seq], CropSpec(grid=(32, 32)))[0]


def test_training_sample_target_matches_boxes():
    s = make_sample()
    back = relative_motion(s.box_prev, s.box_curr)
    np.testing.assert_allclose(
        [s.target.dx, s.target.dy, s.target.dz, s.target.dtheta],
        [back.dx, back.dy, back.dz, back.dtheta], atol=1e-12)


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


@given(st.integers(0, 10 ** 6))
def test_augmented_label_matches_box_recompute(seed):
    s = make_sample(seed % 7)
    rng = np.random.default_rng(seed)
    out = augment(s, rng)
    oracle = relative_motion(out.box_prev, out.box_curr)
    np.testing.assert_allclose(
        [out.target.dx, out.target.dy, out.target.dz, out.target.dtheta],
        [oracle.dx, oracle.dy, oracle.dz, oracle.dtheta], atol=1e-12)
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


def test_bad_flip_axis():
    with pytest.raises(ConfigError):
        flip_sample(make_sample(), "z")


def test_rotation_bounded_by_five_degrees():
    s = make_sample()
    rng = np.random.default_rng(0)
    for _ in range(50):
        out = augment(s, rng, max_rot_deg=5.0)
        d = abs(out.box_prev.theta)
        assert d <= math.radians(5.0) + 1e-12


# ---------------------------------------------------------------------------
# sequence files


def test_write_read_round_trip(tmp_path):
    seq = generate(SceneConfig(length=5, seed=9))
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


def test_truncated_point_file_reports_offset(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"\x00" * 25)  # not a multiple of 12
    with pytest.raises(DataFormatError, match=r"byte 24"):
        read_points_bin(str(path))


def test_non_finite_point_reports_offset(tmp_path):
    pts = np.zeros((5, 3), dtype="<f4")
    pts[3, 1] = np.inf
    pts[4, 0] = np.nan
    path = tmp_path / "nan.bin"
    path.write_bytes(pts.tobytes())
    with pytest.raises(DataFormatError, match=r"nan\.bin: byte 36: non-finite .*point 3 \(2 such"):
        read_points_bin(str(path))


def test_empty_frame_parses_to_empty_cloud(tmp_path):
    path = tmp_path / "empty.bin"
    path.write_bytes(b"")
    assert len(read_points_bin(str(path))) == 0


def test_label_frame_count_mismatch(tmp_path):
    seq = generate(SceneConfig(length=4, seed=2))
    write_sequence(seq, str(tmp_path / "seq"))
    labels = (tmp_path / "seq" / "labels.jsonl").read_text().splitlines()
    (tmp_path / "seq" / "labels.jsonl").write_text("\n".join(labels[:-1]) + "\n")
    with pytest.raises(DataFormatError, match="4 frame files but 3 labels"):
        read_sequence(str(tmp_path / "seq"))


def test_malformed_label_names_line(tmp_path):
    seq = generate(SceneConfig(length=3, seed=2))
    write_sequence(seq, str(tmp_path / "seq"))
    path = tmp_path / "seq" / "labels.jsonl"
    lines = path.read_text().splitlines()
    lines[1] = json.dumps({"frame": 2, "center": [0, 0, 0]})  # missing keys
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match="line 2"):
        read_sequence(str(tmp_path / "seq"))


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


def _write_tracklet_pair(tmp_path, boxes):
    write_tracklet(boxes, [False] * len(boxes), str(tmp_path / "t.txt"),
                   str(tmp_path / "t.jsonl"))


def test_tracklet_write_that_fails_keeps_previous_files(tmp_path):
    good = [Box3D(0.1, -0.2, 0.3, 1, 1, 4, 0.5), Box3D(1, 2, 3, 1, 1, 4, -3.1)]
    _write_tracklet_pair(tmp_path, good)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    # the second box's x cannot be formatted, so the text file fails midway
    moved = [Box3D(5, 5, 5, 1, 1, 4, 0.0), Box3D("x", 2, 3, 1, 1, 4, 0.0)]
    with pytest.raises(ValueError):
        _write_tracklet_pair(tmp_path, moved)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_tracklet_jsonl_write_that_fails_keeps_previous_jsonl(tmp_path):
    good = [Box3D(0.1, -0.2, 0.3, 1, 1, 4, 0.5), Box3D(1, 2, 3, 1, 1, 4, -3.1)]
    _write_tracklet_pair(tmp_path, good)
    before = (tmp_path / "t.jsonl").read_bytes()
    # a Decimal formats as text but is not JSON: the jsonl fails midway
    moved = [Box3D(5, 5, 5, 1, 1, 4, 0.0), Box3D(Decimal("2.5"), 2, 3, 1, 1, 4, 0.0)]
    with pytest.raises(TypeError):
        _write_tracklet_pair(tmp_path, moved)
    assert (tmp_path / "t.jsonl").read_bytes() == before
    assert read_tracklet(str(tmp_path / "t.txt"))[0].x == 5.0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.jsonl", "t.txt"]


def test_tracklet_write_that_fails_leaves_no_file(tmp_path):
    with pytest.raises(ValueError):
        _write_tracklet_pair(tmp_path, [Box3D("x", 2, 3, 1, 1, 4, 0.0)])
    assert list(tmp_path.iterdir()) == []


def test_tracklet_bad_field_count(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 0 0 0 1 1 1\n")  # 7 fields
    with pytest.raises(DataFormatError, match="line 1"):
        read_tracklet(str(path))
