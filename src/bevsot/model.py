"""Model assembly: stacked tracker blocks with stride-2 downsampling,
the motion-regression head, and the training loss.

Stage s runs at (grid / 2^s) resolution with channels * 2^s features;
after the final stage only the current-frame feature reaches the head.
The head applies three 3x3 stride-2 convolutions (valid padding, falling
back to same padding once the grid is smaller than the kernel), which
must land exactly on 1x1, then a shared MLP trunk and three independent
subtask heads for (dx, dy), dz, and dtheta.

A head conv whose input is already 1x1 meets data only with the centre
tap of its kernel (every other tap falls on padding), so it stores just
that tap, w[1, 1] of shape (cin, cout), and runs as a linear layer on the
(1, cin) row; its outputs and gradients equal the padded 3x3 conv's. At
the desk preset this holds for head.conv2 and head.conv3, so the model has
450,975 parameters (a 3.6 MB checkpoint) instead of 1,761,695; the full
preset's head (16 -> 7 -> 3 -> 1, valid padding) has no such conv. Such a
kernel is drawn one (cin, cout) tap at a time, in the C order of the whole
kernel, and only the centre tap is kept: the values and the RNG stream
are those of the whole draw, which is never held.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .blocks import BlockParams, FrameEncoder, block_forward
from .exceptions import ConfigError, NumericError, ShapeError
from .geometry import Motion4, PointCloud
from .params import ParamStore
from .pillars import CropSpec, pillarize
from .rules import BOOL, COUNT, NON_NEGATIVE, POSITIVE, POWER_OF_TWO, check, ruled
from .tensor import Tensor

HEAD_CONVS = 3
HEAD_MAX_CHANNELS = 512


def _head_pad(h: int) -> int:
    """Valid padding, or same padding once the h x h grid is smaller than the kernel."""
    return 0 if h >= 3 else 1


def _head_step(h: int) -> int:
    return (h + 2 * _head_pad(h) - 3) // 2 + 1


@dataclass
class ModelConfig:
    grid: int = ruled(CropSpec.grid[0], POWER_OF_TWO)
    channels: int = ruled(8, COUNT)
    heads: int = ruled(1, COUNT)
    stages: int = ruled(3, COUNT)
    head_trunk: int = ruled(256, COUNT)
    ffn_expand: int = ruled(2, COUNT)
    lambda1: float = ruled(1.0, NON_NEGATIVE)
    lambda2: float = ruled(1.0, NON_NEGATIVE)
    lambda3: float = ruled(1.0, NON_NEGATIVE)
    huber_delta: float = ruled(1.0, POSITIVE)  # at 0 every loss is 0; below 0 it rewards error
    imm: bool = ruled(True, BOOL)
    dwc: bool = ruled(True, BOOL)
    linear: bool = ruled(True, BOOL)
    shared: bool = ruled(True, BOOL)

    def validate(self):
        check(self)
        # the rules between keys; each key's own rule sits on its field
        if not (self.shared or self.imm):  # the previous frame is only encoded for the gate
            raise ConfigError("shared=false needs the motion module (imm=true)")
        if self.channels % self.heads:
            raise ConfigError(f"channels {self.channels} not divisible by heads {self.heads}")
        if not self.final_grid or self.shape_chain()[-1][0] != 1:  # after the head convs
            raise ConfigError(f"final grid {self.final_grid}x{self.final_grid} is not reducible "
                              f"to 1x1 by the {HEAD_CONVS} head convolutions")

    # -- bookkeeping -------------------------------------------------------

    @property
    def final_grid(self) -> int:
        return self.grid >> self.stages

    @property
    def final_channels(self) -> int:
        return self.channels << self.stages

    def stage_dims(self) -> list[tuple[int, int]]:
        """(resolution, channels) at the input of each stage."""
        return [(self.grid >> s, self.channels << s) for s in range(self.stages)]

    def head_channel_widths(self) -> tuple[int, ...]:
        c = self.final_channels
        return tuple(min(HEAD_MAX_CHANNELS, c << (i + 1)) for i in range(HEAD_CONVS))

    def shape_chain(self) -> list[tuple[int, int, int]]:
        """(H, W, C) through pillars, stages, and head convs; ends at the
        flattened head input (1, 1, C)."""
        chain = [(self.grid, self.grid, self.channels)]
        for s in range(1, self.stages + 1):
            chain.append((self.grid >> s, self.grid >> s, self.channels << s))
        h = self.final_grid
        for c in self.head_channel_widths():
            h = _head_step(h)
            chain.append((h, h, c))
        return chain


@dataclass
class HeadParams:
    conv_w: list[Tensor]
    conv_b: list[Tensor]
    conv_ln: list[tuple[Tensor, Tensor]]
    trunk_w: Tensor
    trunk_b: Tensor
    subtasks: list[tuple[Tensor, Tensor]]  # (w, b) for (dx, dy), dz, dtheta


def _row(x: Tensor) -> Tensor:
    """A 1x1xC grid as its (1, C) row; a row as it is."""
    return x if x.ndim == 2 else T.reshape(x, (1, x.shape[-1]))


def _kaiming(rng, shape, fan_in):
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def _centre_tap(draw, shape):
    """w[1, 1] of the (3, 3) + shape kernel that `draw` would fill whole,
    drawn as nine `shape` taps in C order; the other eight are dropped."""
    for k in range(9):
        tap = draw(shape)
        if k == 4:
            centre = tap
    return centre


class TrackerModel:
    """Owns the ParamStore and wires pillar encoder, blocks, and head."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        config.validate()
        self.config = config
        self.store = ParamStore()
        self._build(np.random.default_rng(seed))

    def _build(self, rng):
        cfg = self.config
        new = self.store.create
        self.pillar_w = new("pillar.w", _kaiming(rng, (8, cfg.channels), 8))
        self.pillar_b = new("pillar.b", np.zeros(cfg.channels))

        self.blocks: list[BlockParams] = []
        self.downs: list[tuple[Tensor, Tensor]] = []
        for s, (H, C) in enumerate(cfg.stage_dims(), start=1):
            p = f"stage{s}."
            N, d, F = H * H, C // cfg.heads, cfg.ffn_expand * C
            cnn = lambda tag: FrameEncoder(
                new(f"{p}cnn{tag}.w", _kaiming(rng, (3, 3, C, C), 9 * C)),
                new(f"{p}cnn{tag}.b", np.zeros(C)))

            def layers(enc, tag=""):  # preprocessing's dwc and linear, unless ablated
                if cfg.dwc:
                    enc.dwc_w = new(f"{p}dwc{tag}.w", _kaiming(rng, (3, 3, C), 9))
                if cfg.linear:
                    enc.lin_w = new(f"{p}lin{tag}.w", _kaiming(rng, (C, C), C))
                    enc.lin_b = new(f"{p}lin{tag}.b", np.zeros(C))
                return enc

            enc = cnn("")
            bp = BlockParams(
                H=H, W=H, C=C, heads=cfg.heads, enc=enc, enc_prev=enc,
                pos=new(p + "pos", rng.uniform(-0.02, 0.02, size=(N, C))),
                ln1_g=new(p + "ln1.g", np.ones(C)),
                ln1_b=new(p + "ln1.b", np.zeros(C)),
                wq=new(p + "wq", _kaiming(rng, (C, C), C)),
                wk=new(p + "wk", _kaiming(rng, (C, C), C)),
                wv=new(p + "wv", _kaiming(rng, (C, C), C)),
                lo_w=new(p + "lo.w", _kaiming(rng, (C, C), C)),
                lo_b=new(p + "lo.b", np.zeros(C)),
                ln2_g=new(p + "ln2.g", np.ones(C)),
                ln2_b=new(p + "ln2.b", np.zeros(C)),
                ffn1_w=new(p + "ffn1.w", _kaiming(rng, (C, F), C)),
                ffn1_b=new(p + "ffn1.b", np.zeros(F)),
                ffn2_w=new(p + "ffn2.w", _kaiming(rng, (F, C), F)),
                ffn2_b=new(p + "ffn2.b", np.zeros(C)),
            )
            layers(enc)
            if cfg.imm:
                bp.alpha = new(p + "alpha", np.asarray(0.5))
                bp.gate_w = new(p + "gate.w", _kaiming(rng, (cfg.heads, N, d), N))
                bp.gate_b = new(p + "gate.b", np.zeros((cfg.heads, d)))
            if not cfg.shared:
                bp.enc_prev = layers(cnn("_prev"), "_prev")
            self.blocks.append(bp)
            self.downs.append((
                new(f"down{s}.w", _kaiming(rng, (3, 3, C, 2 * C), 9 * C)),
                new(f"down{s}.b", np.zeros(2 * C)),
            ))

        cin = cfg.final_channels
        conv_w, conv_b, conv_ln = [], [], []
        head_grids = [h for h, _, _ in cfg.shape_chain()[cfg.stages:-1]]
        for i, (h, cout) in enumerate(zip(head_grids, cfg.head_channel_widths()), start=1):
            if h == 1:
                self.store.centre_taps.add(f"head.conv{i}.w")
                w = _centre_tap(lambda shape: _kaiming(rng, shape, 9 * cin), (cin, cout))
            else:
                w = _kaiming(rng, (3, 3, cin, cout), 9 * cin)
            conv_w.append(new(f"head.conv{i}.w", w))
            conv_b.append(new(f"head.conv{i}.b", np.zeros(cout)))
            conv_ln.append((new(f"head.conv{i}.ln.g", np.ones(cout)),
                            new(f"head.conv{i}.ln.b", np.zeros(cout))))
            cin = cout
        trunk = cfg.head_trunk
        self.head = HeadParams(
            conv_w=conv_w, conv_b=conv_b, conv_ln=conv_ln,
            trunk_w=new("head.trunk.w", _kaiming(rng, (cin, trunk), cin)),
            trunk_b=new("head.trunk.b", np.zeros(trunk)),
            # subtask outputs start at zero so the untrained model predicts
            # exactly zero motion
            subtasks=[(new(f"head.{t}.w", np.zeros((trunk, k))), new(f"head.{t}.b", np.zeros(k)))
                      for t, k in (("xy", 2), ("z", 1), ("th", 1))])

    def randomize_all(self, rng):
        """Re-draw every parameter with nonzero values (gradient checking
        needs the zero-initialized subtask heads off their saddle)."""
        for name, t in self.store.items():
            parts = name.split(".")
            if parts[-1] == "g" and parts[-2].startswith("ln"):
                t.data = rng.uniform(0.9, 1.1, size=t.data.shape)
            elif name.endswith("alpha"):
                t.data = np.asarray(rng.uniform(0.3, 0.7))
            else:
                # a centre tap takes its values and the RNG stream from its whole
                # 3x3 kernel's draw (fan 3), so neither depends on the fold
                draw = lambda shape: rng.uniform(-0.3, 0.3, size=shape)
                if name in self.store.centre_taps:
                    t.data = _centre_tap(draw, t.data.shape) / math.sqrt(3)
                else:
                    shape = t.data.shape
                    t.data = draw(shape) / math.sqrt(shape[0] if shape else 1)

    def alphas(self) -> list[float]:
        return [bp.alpha.item() for bp in self.blocks if bp.alpha is not None]

    # -- forward -----------------------------------------------------------

    def encode(self, cloud: PointCloud, spec: CropSpec) -> Tensor:
        """The pillar feature grid of a cloud already cropped to `spec`."""
        if spec.grid != (self.config.grid, self.config.grid):
            raise ConfigError(f"crop grid {spec.grid} does not match model grid "
                              f"{self.config.grid}")
        return pillarize(cloud, spec, self.pillar_w, self.pillar_b)

    def backbone_forward(self, prev: Tensor, curr: Tensor) -> Tensor:
        cfg = self.config
        for s, (bp, (dw, db)) in enumerate(zip(self.blocks, self.downs), start=1):
            tokens = block_forward(prev, curr, bp)
            curr = T.conv2d(T.reshape(tokens, (bp.H, bp.W, bp.C)), dw, db, stride=2)
            # the previous-frame stream advances through the same stride-2
            # conv so the next stage sees a pair at matching resolution;
            # after the last stage, or with the motion module off, it is never read
            prev = T.conv2d(prev, dw, db, stride=2) if cfg.imm and s < cfg.stages else curr
        return curr

    def head_forward(self, feat: Tensor) -> Tensor:
        cfg = self.config
        expected = (cfg.final_grid, cfg.final_grid, cfg.final_channels)
        if feat.shape != expected:
            raise ShapeError(f"head input {feat.shape} does not match {expected}")
        x = feat
        for w, b, (g, beta) in zip(self.head.conv_w, self.head.conv_b, self.head.conv_ln):
            if w.ndim == 2:  # centre tap of a conv over a 1x1 grid
                x = T.linear(_row(x), w, b)
            else:
                x = T.conv2d(x, w, b, stride=2, padding=_head_pad(x.shape[0]))
            x = T.silu(T.layernorm(x, g, beta))
        x = _row(x)
        trunk = T.silu(T.linear(x, self.head.trunk_w, self.head.trunk_b))
        xy, z, th = (T.linear(trunk, w, b) for w, b in self.head.subtasks)
        return T.reshape(T.concat([xy, z, T.wrap_angle(th)], axis=-1), (4,))

    def forward_clouds(self, prev_cloud: PointCloud, curr_cloud: PointCloud,
                       spec: CropSpec) -> Tensor:
        """The predicted motion, (4,), for two clouds already cropped to `spec`."""
        curr_grid = self.encode(curr_cloud, spec)
        prev_grid = self.encode(prev_cloud, spec) if self.config.imm else curr_grid
        return self.head_forward(self.backbone_forward(prev_grid, curr_grid))


def motion_loss(pred4: Tensor, target: Motion4, config: ModelConfig) -> Tensor:
    """Weighted Huber loss over the residual (dx, dy, dz, wrapped dtheta), in
    one pass: weights (lambda1, lambda1, lambda2, lambda3). Zero iff the
    prediction equals the target after angle wrap."""
    t = target.as_array()
    if not np.isfinite(t).all():
        raise NumericError(f"non-finite motion target {t}")
    diff = T.sub(pred4, Tensor(t))
    residual = T.concat([T.slice_cols(diff, 0, 3), T.wrap_angle(T.slice_cols(diff, 3, 4))])
    weights = Tensor([config.lambda1, config.lambda1, config.lambda2, config.lambda3])
    return T.sum_all(T.mul(T.huber(residual, config.huber_delta), weights))
