"""The tracker block: shared CNN tokenizer, pre-LN token preprocessing,
inter-frame motion-difference weights, gated linear attention, and the
residual FFN tail.

The motion weights Wm = SiLU(sim(curr) - alpha * sim(prev)) compare
query-key similarity maps of the two frames; a sigmoid of a learned
projection of each token's difference row gates the linear-attention
core, boosting tokens whose similarity pattern changed (moving targets)
and damping static background. The model path computes the gate with the
fused tape op ``T.motion_gate``, which walks the map in row tiles and
recomputes them in backward: compute stays Theta(N^2 d), quadratic in token
count by construction, but live memory is O(r N + N d) for tiles of r rows
instead of a stack of N x N maps. ``imm_weights`` materializes the maps and
is kept as the oracle the fused op is tested against. The attention core
itself stays linear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from . import tensor as T
from .exceptions import ShapeError
from .tensor import Tensor


@dataclass
class FramePair:
    """Previous/current BEV feature grids, same shape, same crop frame."""

    prev: Tensor
    curr: Tensor

    def __post_init__(self):
        if self.prev.shape != self.curr.shape:
            raise ShapeError(f"frame pair shapes differ: {self.prev.shape} vs {self.curr.shape}")


@dataclass
class BlockParams:
    """Parameter bundle for one stage. Tensors live in a ParamStore; fields
    that are None are disabled by an ablation toggle."""

    H: int
    W: int
    C: int
    heads: int
    cnn_w: Tensor
    cnn_b: Tensor
    pos: Tensor
    ln1_g: Tensor
    ln1_b: Tensor
    wq: Tensor
    wk: Tensor
    wv: Tensor
    lo_w: Tensor
    lo_b: Tensor
    ln2_g: Tensor
    ln2_b: Tensor
    ffn1_w: Tensor
    ffn1_b: Tensor
    ffn2_w: Tensor
    ffn2_b: Tensor
    dwc_w: Optional[Tensor] = None
    lin_w: Optional[Tensor] = None
    lin_b: Optional[Tensor] = None
    alpha: Optional[Tensor] = None
    gate_w: Optional[Tensor] = None
    gate_b: Optional[Tensor] = None
    # separate previous-frame copies, present only in the unshared ablation
    cnn_prev_w: Optional[Tensor] = None
    cnn_prev_b: Optional[Tensor] = None
    dwc_prev_w: Optional[Tensor] = None
    lin_prev_w: Optional[Tensor] = None
    lin_prev_b: Optional[Tensor] = None

    @property
    def N(self) -> int:
        return self.H * self.W

    @property
    def d(self) -> int:
        return self.C // self.heads

    @property
    def imm(self) -> bool:
        return self.alpha is not None


def _tokenize_one(grid: Tensor, bp: BlockParams, prev_frame: bool) -> Tensor:
    if grid.shape != (bp.H, bp.W, bp.C):
        raise ShapeError(f"grid {grid.shape} does not match block {(bp.H, bp.W, bp.C)}")
    w, b = bp.cnn_w, bp.cnn_b
    if prev_frame and bp.cnn_prev_w is not None:
        w, b = bp.cnn_prev_w, bp.cnn_prev_b
    x = T.conv2d(grid, w, b, stride=1)
    return T.add(T.reshape(x, (bp.N, bp.C)), bp.pos)


def tokenize(pair: FramePair, bp: BlockParams) -> tuple[Tensor, Tensor]:
    """Shared 3x3 CNN, row-major flatten, positional embedding on both frames."""
    return _tokenize_one(pair.prev, bp, True), _tokenize_one(pair.curr, bp, False)


def _preprocess_one(x: Tensor, bp: BlockParams, prev_frame: bool) -> Tensor:
    out = T.layernorm(x, bp.ln1_g, bp.ln1_b)
    dwc = bp.dwc_prev_w if (prev_frame and bp.dwc_prev_w is not None) else bp.dwc_w
    if dwc is not None:
        out = T.reshape(out, (bp.H, bp.W, bp.C))
        out = T.conv2d(out, dwc, stride=1, depthwise=True)
        out = T.reshape(out, (bp.N, bp.C))
    lw, lb = bp.lin_w, bp.lin_b
    if prev_frame and bp.lin_prev_w is not None:
        lw, lb = bp.lin_prev_w, bp.lin_prev_b
    if lw is not None:
        out = T.linear(out, lw, lb)
    return out


def preprocess(x_prev: Tensor, x_curr: Tensor, bp: BlockParams) -> tuple[Tensor, Tensor]:
    """Pre-LN, shared depthwise conv over the re-gridded tokens, shared linear."""
    return _preprocess_one(x_prev, bp, True), _preprocess_one(x_curr, bp, False)


def _head_slices(t: Tensor, bp: BlockParams) -> list[Tensor]:
    d = bp.d
    return [T.slice_cols(t, i * d, (i + 1) * d) for i in range(bp.heads)]


def imm_weights(xb_prev: Tensor, xb_curr: Tensor, bp: BlockParams) -> Tensor:
    """Motion-difference weights, one N x N map per head: the materialized
    oracle of ``T.motion_gate`` (the model path never builds these maps).

    Both query-key products are scaled by 1/sqrt(d) before the difference
    to keep the SiLU input magnitude stable.
    """
    if not bp.imm:
        raise ShapeError("imm_weights called on a block with the motion module disabled")
    inv = 1.0 / math.sqrt(bp.d)
    q_prev = _head_slices(T.matmul(xb_prev, bp.wq), bp)
    k_prev = _head_slices(T.matmul(xb_prev, bp.wk), bp)
    q_curr = _head_slices(T.matmul(xb_curr, bp.wq), bp)
    k_curr = _head_slices(T.matmul(xb_curr, bp.wk), bp)
    maps = []
    for i in range(bp.heads):
        sim_curr = T.scale(T.matmul(q_curr[i], T.transpose(k_curr[i])), inv)
        sim_prev = T.scale(T.matmul(q_prev[i], T.transpose(k_prev[i])), inv)
        maps.append(T.silu(T.sub(sim_curr, T.mul(bp.alpha, sim_prev))))
    return T.stack(maps)


def focus_attention(xb_curr: Tensor, xb_prev: Optional[Tensor], bp: BlockParams) -> Tensor:
    """Linear attention over current-frame tokens, gated by frame motion.

    Per head: core = SiLU(Q) @ (SiLU(K)^T @ V) in right-associated order
    (cost N*d*d, never materializing an N x N attention map); the gate is
    ``T.motion_gate``, the sigmoid of a learned map of each token's
    motion-difference row onto d channels, computed in row tiles from the
    current Q/K (shared with the core) and the previous frame's Q/K. With
    ``xb_prev`` None (motion module disabled) the gate is identically 1 and
    the output is the plain kernelized attention.
    """
    if xb_prev is not None and not bp.imm:
        raise ShapeError("focus_attention given a previous frame on a block with "
                         "the motion module disabled")
    qs = _head_slices(T.matmul(xb_curr, bp.wq), bp)
    ks = _head_slices(T.matmul(xb_curr, bp.wk), bp)
    vs = _head_slices(T.matmul(xb_curr, bp.wv), bp)
    if xb_prev is not None:
        q_prev = _head_slices(T.matmul(xb_prev, bp.wq), bp)
        k_prev = _head_slices(T.matmul(xb_prev, bp.wk), bp)
    outs = []
    for i in range(bp.heads):
        core = T.matmul(T.silu(qs[i]), T.matmul(T.transpose(T.silu(ks[i])), vs[i]))
        if xb_prev is not None:
            gate = T.motion_gate(qs[i], ks[i], q_prev[i], k_prev[i], bp.alpha,
                                 T.take(bp.gate_w, i), T.take(bp.gate_b, i))
            core = T.mul(core, gate)
        outs.append(core)
    merged = outs[0] if bp.heads == 1 else T.concat(outs, axis=-1)
    return T.linear(merged, bp.lo_w, bp.lo_b)


def block_forward(pair: FramePair, bp: BlockParams) -> Tensor:
    """Full block: tokenize, preprocess, motion-gated attention, residual on
    the current-frame tokens, then pre-LN FFN with residual."""
    if bp.imm:
        x_prev, x_curr = tokenize(pair, bp)
        xb_prev, xb_curr = preprocess(x_prev, x_curr, bp)
    else:
        x_curr = _tokenize_one(pair.curr, bp, False)
        xb_curr = _preprocess_one(x_curr, bp, False)
        xb_prev = None
    fhat = T.add(focus_attention(xb_curr, xb_prev, bp), x_curr)
    hidden = T.silu(T.linear(T.layernorm(fhat, bp.ln2_g, bp.ln2_b), bp.ffn1_w, bp.ffn1_b))
    return T.add(T.linear(hidden, bp.ffn2_w, bp.ffn2_b), fhat)
