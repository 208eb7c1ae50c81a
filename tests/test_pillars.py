"""Crop canonicalization and pillar encoding."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bevsot import tensor as T
from bevsot.exceptions import ConfigError
from bevsot.geometry import Box3D, PointCloud, transform_from_frame
from bevsot.gradcheck import gradcheck
from bevsot.pillars import (CropSpec, assign_cells, canonicalize, crop, decorate,
                            pillarize)
from bevsot.tensor import Tensor

SPEC16 = CropSpec(grid=(16, 16))


def cloud(rng, n=60, extent=4.5):
    return PointCloud(rng.uniform(-extent, extent, size=(n, 3)) * [1, 1, 0.3])


# ---------------------------------------------------------------------------
# canonicalize / crop


def test_canonicalize_identity_box(rng):
    c = cloud(rng)
    ref = Box3D(0, 0, 0, 1, 1, 1, 0.0)
    np.testing.assert_allclose(canonicalize(c, ref).xyz, c.xyz, atol=0)


def test_point_at_box_center_maps_to_origin():
    ref = Box3D(3.0, -2.0, 1.0, 1, 1, 1, 0.7)
    out = canonicalize(PointCloud([[3.0, -2.0, 1.0]]), ref)
    np.testing.assert_allclose(out.xyz, [[0, 0, 0]], atol=1e-15)


@given(st.integers(0, 10 ** 6))
def test_canonicalize_round_trip(seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-10, 10, size=(20, 3))
    ref = Box3D(*rng.uniform(-5, 5, 3), 2, 1, 4, rng.uniform(-math.pi, math.pi))
    back = transform_from_frame(canonicalize(PointCloud(pts), ref).xyz, ref)
    np.testing.assert_allclose(back, pts, atol=1e-12)


def test_crop_boundary_convention():
    spec = CropSpec(x_range=(-1, 1), y_range=(-1, 1), z_range=(-1, 1), grid=(8, 8))
    pts = PointCloud([[1.0, 0.0, 0.0],    # on x_max -> out
                      [-1.0, 0.0, 0.0],   # on x_min -> in
                      [0.0, 0.999, 0.0],
                      [0.0, -1.0, -1.0]])  # on mins -> in
    kept = crop(pts, spec)
    assert len(kept) == 3


def test_crop_matches_naive_filter(rng):
    spec = CropSpec(x_range=(-2, 3), y_range=(-1, 1), z_range=(-0.5, 0.5), grid=(8, 8))
    pts = rng.uniform(-4, 4, size=(300, 3))
    kept = crop(PointCloud(pts), spec).xyz
    want = np.array([p for p in pts
                     if -2 <= p[0] < 3 and -1 <= p[1] < 1 and -0.5 <= p[2] < 0.5])
    np.testing.assert_array_equal(kept, want.reshape(-1, 3))


def test_all_inside_keeps_count(rng):
    spec = CropSpec(grid=(16, 16))
    pts = rng.uniform(-4.7, 4.7, size=(50, 3)) * [1, 1, 0.2]
    assert len(crop(PointCloud(pts), spec)) == 50


def test_crop_spec_validation():
    with pytest.raises(ConfigError):
        CropSpec(x_range=(1, 1))
    with pytest.raises(ConfigError):
        CropSpec(grid=(12, 16))
    with pytest.raises(ConfigError):
        CropSpec(grid=(4, 4))


def test_car_crop_cell_size():
    spec = CropSpec()  # (-4.8, 4.8) at 32
    sx, sy = spec.cell_size
    assert sx == pytest.approx(0.3) and sy == pytest.approx(0.3)


# ---------------------------------------------------------------------------
# decoration and pillarize


def test_decoration_features_single_point():
    spec = CropSpec(x_range=(0, 4), y_range=(0, 4), z_range=(-1, 1), grid=(8, 8))
    # cell size 0.5; point in column 3 (x in [1.5, 2)), row 1 (y in [0.5, 1))
    pts = PointCloud([[1.7, 0.6, 0.25]])
    feats, cells = decorate(pts, spec)
    assert cells.tolist() == [1 * 8 + 3]
    np.testing.assert_allclose(feats[0, 0:3], [1.7, 0.6, 0.25])
    np.testing.assert_allclose(feats[0, 3], 1.7 - 1.75)  # offset to x center
    np.testing.assert_allclose(feats[0, 4], 0.6 - 0.75)
    np.testing.assert_allclose(feats[0, 5:8], [0, 0, 0], atol=1e-15)  # own mean


def test_decoration_mean_offsets(rng):
    spec = CropSpec(x_range=(-4, 4), y_range=(-4, 4), z_range=(-2, 2), grid=(8, 8))
    pts = rng.uniform(-3.9, 3.9, size=(200, 3)) * [1, 1, 0.4]
    feats, cells = decorate(PointCloud(pts), spec)
    for cell in np.unique(cells):
        rows = cells == cell
        mean = pts[rows].mean(axis=0)
        np.testing.assert_allclose(feats[rows, 5:8], pts[rows] - mean, atol=1e-12)


def test_pillarize_empty_cloud_zero_grid(rng):
    w = Tensor(rng.standard_normal((8, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal(4), requires_grad=True)
    out = pillarize(PointCloud(np.zeros((0, 3))), SPEC16, w, b)
    np.testing.assert_array_equal(out.data, np.zeros((16, 16, 4)))


def test_empty_pillars_exactly_zero(rng):
    w = Tensor(rng.standard_normal((8, 4)))
    b = Tensor(rng.standard_normal(4))
    pts = PointCloud([[0.1, 0.1, 0.0]])
    grid = pillarize(pts, SPEC16, w, b).data
    occupied = int(assign_cells(pts, SPEC16)[0])
    flat = grid.reshape(-1, 4)
    mask = np.ones(256, dtype=bool)
    mask[occupied] = False
    assert np.all(flat[mask] == 0.0)
    assert np.any(flat[occupied] != 0.0)


def test_pillarize_two_points_one_pillar_loop_oracle(rng):
    w = rng.standard_normal((8, 3))
    b = rng.standard_normal(3)
    pts = np.array([[0.11, 0.21, 0.3], [0.13, 0.22, -0.2]])  # same cell
    pc = PointCloud(pts)
    feats, cells = decorate(pc, SPEC16)
    assert cells[0] == cells[1]
    pre = feats @ w + b
    enc = pre * (1.0 / (1.0 + np.exp(-pre)))
    want = enc.max(axis=0)
    grid = pillarize(pc, SPEC16, Tensor(w), Tensor(b)).data
    row, col = divmod(int(cells[0]), 16)
    np.testing.assert_allclose(grid[row, col], want, rtol=1e-15)


@given(st.integers(0, 2 ** 30))
def test_pillarize_permutation_invariant(perm_seed):
    rng = np.random.default_rng(3)
    pts = rng.uniform(-4, 4, size=(50, 3)) * [1, 1, 0.3]
    w = Tensor(rng.standard_normal((8, 4)))
    b = Tensor(rng.standard_normal(4))
    base = pillarize(PointCloud(pts), SPEC16, w, b).data
    perm = np.random.default_rng(perm_seed).permutation(50)
    out = pillarize(PointCloud(pts[perm]), SPEC16, w, b).data
    np.testing.assert_array_equal(base, out)


def test_translation_by_cell_multiple_shifts_cells(rng):
    spec = CropSpec(x_range=(-4, 4), y_range=(-4, 4), z_range=(-2, 2), grid=(16, 16))
    sx, sy = spec.cell_size  # 0.5
    pts = rng.uniform(-3, 3, size=(80, 3))
    shift = np.array([2 * sx, 3 * sy, 0.0])
    spec2 = CropSpec(x_range=(-4 + shift[0], 4 + shift[0]),
                     y_range=(-4 + shift[1], 4 + shift[1]),
                     z_range=(-2, 2), grid=(16, 16))
    f1, c1 = decorate(PointCloud(pts), spec)
    f2, c2 = decorate(PointCloud(pts + shift), spec2)
    np.testing.assert_array_equal(c1, c2)  # same cells in the shifted window
    np.testing.assert_allclose(f2[:, 3:8], f1[:, 3:8], atol=1e-12)  # offsets unchanged
    np.testing.assert_allclose(f2[:, 0:3], f1[:, 0:3] + shift, atol=1e-12)


def test_pillarize_gradients_flow_to_encoder(rng):
    pts = cloud(rng, n=40)
    w = Tensor(rng.standard_normal((8, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal(3), requires_grad=True)
    weights = Tensor(rng.standard_normal((16, 16, 3)))
    fw = lambda t: T.sum_all(T.mul(pillarize(pts, SPEC16, t, b), weights))
    fb = lambda t: T.sum_all(T.mul(pillarize(pts, SPEC16, w, t), weights))
    assert gradcheck(fw, w) < 1e-6
    assert gradcheck(fb, b) < 1e-6


def test_pillarize_output_finite(rng):
    pts = cloud(rng, n=500)
    w = Tensor(rng.standard_normal((8, 8)))
    b = Tensor(rng.standard_normal(8))
    out = pillarize(pts, SPEC16, w, b)
    assert np.isfinite(out.data).all()


def test_ratio_crop_spec_follows_box():
    from bevsot.pillars import ratio_crop_spec
    box = Box3D(5.0, -2.0, 0.5, 1.8, 1.6, 4.2, 0.7)
    spec = ratio_crop_spec(box, ratio=2.0, grid=(32, 32))
    assert spec.x_range == (-4.2, 4.2)  # twice the footprint, centered
    assert spec.y_range == (-1.8, 1.8)
    assert spec.grid == (32, 32)

