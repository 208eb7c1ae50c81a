"""The tracker block: a siamese ``FrameEncoder`` (CNN tokenizer, then
pre-LN token preprocessing) over both frames, inter-frame motion-difference
weights, gated linear attention, and the residual FFN tail.

The motion weights Wm = SiLU(sim(curr) - alpha * sim(prev)) compare
query-key similarity maps of the two frames; a sigmoid of a learned
projection of each token's difference row gates the linear-attention
core, boosting tokens whose similarity pattern changed (moving targets)
and damping static background. Heads are an axis inside the ops, not a
loop here: the attention core masks its C x C middle product to the
per-head blocks, and the fused tape op ``T.motion_gate`` gates all heads
at once, walking the maps in row tiles that backward recomputes. Compute
stays Theta(N^2 d) per head, quadratic in token count by construction,
but live memory is O(r N + N C) for tiles of r rows instead of a stack
of N x N maps. ``imm_weights`` materializes the maps head by head and is
kept as the oracle the fused op is tested against. The attention core
itself stays linear in N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tensor as T
from .exceptions import ShapeError
from .tensor import Tensor


@dataclass
class FrameEncoder:
    """One frame's token weights: 3x3 CNN tokenizer, depthwise conv, linear."""

    cnn_w: Tensor
    cnn_b: Tensor
    dwc_w: Optional[Tensor] = None
    lin_w: Optional[Tensor] = None
    lin_b: Optional[Tensor] = None


@dataclass
class BlockParams:
    """Parameter bundle for one stage. Tensors live in a ParamStore; fields
    that are None are disabled by an ablation toggle. The previous frame's
    ``enc_prev`` is ``enc`` itself except in the unshared ablation."""

    H: int
    W: int
    C: int
    heads: int
    enc: FrameEncoder
    enc_prev: FrameEncoder
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
    alpha: Optional[Tensor] = None
    gate_w: Optional[Tensor] = None
    gate_b: Optional[Tensor] = None

    @property
    def N(self) -> int:
        return self.H * self.W

    @property
    def d(self) -> int:
        return self.C // self.heads

    @property
    def imm(self) -> bool:
        return self.alpha is not None


def _tokenize_one(grid: Tensor, bp: BlockParams, enc: FrameEncoder) -> Tensor:
    if grid.shape != (bp.H, bp.W, bp.C):
        raise ShapeError(f"grid {grid.shape} does not match block {(bp.H, bp.W, bp.C)}")
    x = T.conv2d(grid, enc.cnn_w, enc.cnn_b, stride=1)
    return T.add(T.reshape(x, (bp.N, bp.C)), bp.pos)


def tokenize(prev: Tensor, curr: Tensor, bp: BlockParams) -> tuple[Tensor, Tensor]:
    """3x3 CNN, row-major flatten, positional embedding on both frames."""
    return _tokenize_one(prev, bp, bp.enc_prev), _tokenize_one(curr, bp, bp.enc)


def _preprocess_one(x: Tensor, bp: BlockParams, enc: FrameEncoder) -> Tensor:
    out = T.layernorm(x, bp.ln1_g, bp.ln1_b)
    if enc.dwc_w is not None:
        out = T.reshape(out, (bp.H, bp.W, bp.C))
        out = T.conv2d(out, enc.dwc_w, stride=1, depthwise=True)
        out = T.reshape(out, (bp.N, bp.C))
    if enc.lin_w is not None:
        out = T.linear(out, enc.lin_w, enc.lin_b)
    return out


def preprocess(x_prev: Tensor, x_curr: Tensor, bp: BlockParams) -> tuple[Tensor, Tensor]:
    """Pre-LN, depthwise conv over the re-gridded tokens, linear layer."""
    return _preprocess_one(x_prev, bp, bp.enc_prev), _preprocess_one(x_curr, bp, bp.enc)


def imm_weights(xb_prev: Tensor, xb_curr: Tensor, bp: BlockParams) -> Tensor:
    """Motion-difference weights, one N x N map per head: the materialized
    oracle of ``T.motion_gate`` (the model path never builds these maps).

    Both query-key products are scaled by 1/sqrt(d) before the difference
    to keep the SiLU input magnitude stable.
    """
    if not bp.imm:
        raise ShapeError("imm_weights called on a block with the motion module disabled")
    inv = 1.0 / math.sqrt(bp.d)
    split = lambda t: [T.slice_cols(t, i * bp.d, (i + 1) * bp.d) for i in range(bp.heads)]
    q_prev, k_prev, q_curr, k_curr = (split(T.matmul(x, w)) for x in (xb_prev, xb_curr)
                                      for w in (bp.wq, bp.wk))
    maps = []
    for i in range(bp.heads):
        sim_curr = T.scale(T.matmul(q_curr[i], T.transpose(k_curr[i])), inv)
        sim_prev = T.scale(T.matmul(q_prev[i], T.transpose(k_prev[i])), inv)
        maps.append(T.silu(T.sub(sim_curr, T.mul(bp.alpha, sim_prev))))
    return T.stack(maps)


def focus_attention(xb_curr: Tensor, xb_prev: Optional[Tensor], bp: BlockParams) -> Tensor:
    """Linear attention over current-frame tokens, gated by frame motion.

    core = SiLU(Q) @ (SiLU(K)^T @ V), right-associated (cost N*C*C, no N x N
    map). With several heads the C x C middle product is masked to its
    block diagonal, which is exactly each head's own d x d product. The
    gate is ``T.motion_gate`` over all heads, from the current Q/K (shared
    with the core) and the previous frame's Q/K. With ``xb_prev`` None
    (motion module off) the gate is identically 1 and the output is the
    plain kernelized attention.
    """
    if xb_prev is not None and not bp.imm:
        raise ShapeError("focus_attention given a previous frame on a block with "
                         "the motion module disabled")
    q, k, v = (T.matmul(xb_curr, w) for w in (bp.wq, bp.wk, bp.wv))
    kv = T.matmul(T.transpose(T.silu(k)), v)
    if bp.heads > 1:
        kv = T.mul(kv, Tensor(np.kron(np.eye(bp.heads), np.ones((bp.d, bp.d)))))
    core = T.matmul(T.silu(q), kv)
    if xb_prev is not None:
        gate = T.motion_gate(q, k, T.matmul(xb_prev, bp.wq), T.matmul(xb_prev, bp.wk),
                             bp.alpha, bp.gate_w, bp.gate_b)
        core = T.mul(core, gate)
    return T.linear(core, bp.lo_w, bp.lo_b)


def block_forward(prev: Tensor, curr: Tensor, bp: BlockParams) -> Tensor:
    """Full block over the previous and current (H, W, C) grids: tokenize,
    preprocess, motion-gated attention, residual on the current-frame tokens,
    then pre-LN FFN with residual. With the motion module off ``prev`` is
    never read."""
    # the previous frame is recorded first, so shared weights sum their
    # gradient terms current-frame first, as the tape replays in reverse
    xb_prev = (_preprocess_one(_tokenize_one(prev, bp, bp.enc_prev), bp, bp.enc_prev)
               if bp.imm else None)
    x_curr = _tokenize_one(curr, bp, bp.enc)
    xb_curr = _preprocess_one(x_curr, bp, bp.enc)
    fhat = T.add(focus_attention(xb_curr, xb_prev, bp), x_curr)
    hidden = T.silu(T.linear(T.layernorm(fhat, bp.ln2_g, bp.ln2_b), bp.ffn1_w, bp.ffn1_b))
    return T.add(T.linear(hidden, bp.ffn2_w, bp.ffn2_b), fhat)
