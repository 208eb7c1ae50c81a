"""Crop canonicalization and pillar feature encoding.

A cropped, canonicalized cloud becomes a dense H x W x C grid: points are
binned into vertical pillars on the xy plane, decorated with 8 geometric
features, pushed through a per-point linear layer + SiLU, and max-pooled
per pillar. Pillars with no points stay exactly zero.

There is no per-pillar point cap: every point is encoded, so memory
scales with the raw point count rather than the grid. At desk scale
(hundreds to thousands of points per crop) this is the simpler and more
faithful choice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .exceptions import ConfigError
from .geometry import Box3D, PointCloud, transform_to_frame
from .rules import POWER_OF_TWO, require
from .tensor import Tensor


@dataclass(frozen=True)
class CropSpec:
    """Fixed metric crop window and BEV grid resolution.

    Rows of the grid (H) bin y, columns (W) bin x; both bins follow the
    [min, max) convention so cell assignment is deterministic.
    """

    x_range: tuple[float, float] = (-4.8, 4.8)
    y_range: tuple[float, float] = (-4.8, 4.8)
    z_range: tuple[float, float] = (-1.5, 1.5)
    grid: tuple[int, int] = (32, 32)  # (H, W); also the model's default grid

    def __post_init__(self):
        for lo, hi in (self.x_range, self.y_range, self.z_range):
            if not hi > lo:
                raise ConfigError(f"degenerate crop range ({lo}, {hi})")
        for lo, hi in (self.x_range, self.y_range):  # the width sets the cells; z only filters
            if not np.isfinite(hi - lo):
                raise ConfigError(f"crop range ({lo}, {hi}) too wide")
        for n in self.grid:
            require("grid", n, POWER_OF_TWO)

    @property
    def cell_size(self) -> tuple[float, float]:
        """(sx, sy) in meters per cell."""
        H, W = self.grid
        return ((self.x_range[1] - self.x_range[0]) / W,
                (self.y_range[1] - self.y_range[0]) / H)


def ratio_crop_spec(box: Box3D, ratio: float, grid: tuple[int, int] = CropSpec.grid,
                    z_range: tuple[float, float] = CropSpec.z_range) -> CropSpec:
    """Alternative crop: a window with the target's footprint aspect ratio,
    `ratio` times its size. Cell size then varies per target instead of
    staying constant across sequences."""
    hx = ratio * box.l / 2.0
    hy = ratio * box.w / 2.0
    return CropSpec(x_range=(-hx, hx), y_range=(-hy, hy), z_range=z_range, grid=grid)


def canonicalize(cloud: PointCloud, ref_box: Box3D) -> PointCloud:
    """Express points in ref_box's canonical frame (center at origin, yaw 0)."""
    return PointCloud(transform_to_frame(cloud.xyz, ref_box))


def crop(cloud: PointCloud, spec: CropSpec) -> PointCloud:
    """Keep points with all coordinates inside the window, [min, max) per axis."""
    p = cloud.xyz
    keep = ((p[:, 0] >= spec.x_range[0]) & (p[:, 0] < spec.x_range[1])
            & (p[:, 1] >= spec.y_range[0]) & (p[:, 1] < spec.y_range[1])
            & (p[:, 2] >= spec.z_range[0]) & (p[:, 2] < spec.z_range[1]))
    return PointCloud(p[keep])


def assign_cells(cloud: PointCloud, spec: CropSpec) -> np.ndarray:
    """Flat row-major cell index (row * W + col) per point; cloud must be cropped."""
    H, W = spec.grid
    sx, sy = spec.cell_size
    col = np.floor((cloud.xyz[:, 0] - spec.x_range[0]) / sx).astype(np.int64)
    row = np.floor((cloud.xyz[:, 1] - spec.y_range[0]) / sy).astype(np.int64)
    # cropped points are strictly inside; clamp only guards float rounding
    col = np.clip(col, 0, W - 1)
    row = np.clip(row, 0, H - 1)
    return row * W + col


def decorate(cloud: PointCloud, spec: CropSpec) -> tuple[np.ndarray, np.ndarray]:
    """Per-point 8-feature decoration and flat cell index.

    Features: x, y, z, signed offset to the pillar x-center, signed offset
    to the pillar y-center, and signed offset to the pillar point mean
    (x, y, z). The means are summed over the runs of ``T.cell_runs``, the
    same grouping ``T.scatter_max`` pools over.
    """
    n = len(cloud)
    cells = assign_cells(cloud, spec)
    feats = np.zeros((n, 8))
    if n == 0:
        return feats, cells
    H, W = spec.grid
    sx, sy = spec.cell_size
    p = cloud.xyz
    feats[:, 0:3] = p
    cx = spec.x_range[0] + ((cells % W) + 0.5) * sx
    cy = spec.y_range[0] + ((cells // W) + 0.5) * sy
    feats[:, 3] = p[:, 0] - cx
    feats[:, 4] = p[:, 1] - cy
    order, starts, run_of = T.cell_runs(cells)
    sums = np.add.reduceat(p[order], starts, axis=0)
    counts = np.diff(np.append(starts, n))
    mean_per_point = np.empty((n, 3))
    mean_per_point[order] = (sums / counts[:, None])[run_of]
    feats[:, 5:8] = p - mean_per_point
    return feats, cells


def pillarize(cloud: PointCloud, spec: CropSpec, weight: Tensor, bias: Tensor) -> Tensor:
    """Encode a cropped cloud into an H x W x C feature grid.

    weight: Tensor[8 x C], bias: Tensor[C]. Gradients flow to both; the
    point geometry itself is a constant input.
    """
    H, W = spec.grid
    feats, cells = decorate(cloud, spec)
    x = T.silu(T.linear(Tensor(feats), weight, bias))
    grid = T.scatter_max(x, cells, H * W)
    return T.reshape(grid, (H, W, weight.shape[1]))
