"""Dense float64 tensors with reverse-mode autodiff on an explicit tape.

Ops record backward closures on the innermost active ``Tape``; outside a
tape everything is a plain numpy forward pass (inference mode). All op
outputs are finite-checked: NaN/Inf raises ``NumericError`` at the op that
produced it rather than propagating silently.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .exceptions import NumericError, ShapeError


class Tensor:
    """A dense value node. Leaf tensors may require grad; op outputs are
    immutable once produced (the optimizer is the only sanctioned writer,
    and only on leaves)."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class _Node:
    __slots__ = ("out", "inputs", "backward_fn")

    def __init__(self, out, inputs, backward_fn):
        self.out = out
        self.inputs = inputs
        self.backward_fn = backward_fn


class Tape:
    """Ordered record of executed ops. Replaying the record in reverse
    populates ``.grad`` on every tensor that requires grad. One tape per
    forward+backward pass; passes are single-threaded by contract."""

    _stack: list["Tape"] = []

    def __init__(self):
        self._nodes: list[_Node] = []

    def __enter__(self) -> "Tape":
        Tape._stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = Tape._stack.pop()
        assert popped is self
        return False

    def __len__(self):
        return len(self._nodes)

    def backward(self, loss: Tensor):
        """Seed d(loss)/d(loss) = 1 and replay recorded ops in reverse."""
        if loss.data.size != 1:
            raise ShapeError(f"backward() needs a scalar loss, got shape {loss.shape}")
        if not loss.requires_grad:
            raise ValueError("loss was not recorded on this tape (no grad path)")
        loss.grad = np.ones_like(loss.data)
        for node in reversed(self._nodes):
            out_grad = node.out.grad
            if out_grad is None:
                continue
            grads = node.backward_fn(out_grad)
            for inp, g in zip(node.inputs, grads):
                if g is None or not inp.requires_grad:
                    continue
                # never accumulate in place: g may alias another grad buffer
                inp.grad = g if inp.grad is None else inp.grad + g


def _active_tape() -> Optional[Tape]:
    return Tape._stack[-1] if Tape._stack else None


def _ensure_finite(arr: np.ndarray, op: str):
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite values produced by op '{op}'")


def _out(data: np.ndarray, op: str, inputs: Sequence[Tensor],
         backward_fn: Callable[[np.ndarray], tuple]) -> Tensor:
    _ensure_finite(data, op)
    tape = _active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        t = Tensor(data, requires_grad=True)
        tape._nodes.append(_Node(t, tuple(inputs), backward_fn))
        return t
    return Tensor(data)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum g down to `shape` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise / shape ops


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data
    return _out(data, "add", (a, b), lambda g: (_unbroadcast(g, a.data.shape),
                                                _unbroadcast(g, b.data.shape)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    data = a.data - b.data
    return _out(data, "sub", (a, b), lambda g: (_unbroadcast(g, a.data.shape),
                                                _unbroadcast(-g, b.data.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data
    return _out(data, "mul", (a, b),
                lambda g: (_unbroadcast(g * b.data, a.data.shape),
                           _unbroadcast(g * a.data, b.data.shape)))


def neg(a: Tensor) -> Tensor:
    return _out(-a.data, "neg", (a,), lambda g: (-g,))


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    return _out(a.data * s, "scale", (a,), lambda g: (g * s,))


def reshape(a: Tensor, shape) -> Tensor:
    in_shape = a.data.shape
    return _out(a.data.reshape(shape), "reshape", (a,),
                lambda g: (g.reshape(in_shape),))


def transpose(a: Tensor) -> Tensor:
    if a.ndim != 2:
        raise ShapeError(f"transpose expects a matrix, got shape {a.shape}")
    return _out(a.data.T.copy(), "transpose", (a,), lambda g: (g.T,))


def sum_all(a: Tensor) -> Tensor:
    shape = a.data.shape
    return _out(np.asarray(a.data.sum()), "sum_all", (a,),
                lambda g: (np.broadcast_to(g, shape).copy(),))


def concat(ts: Sequence[Tensor], axis: int = -1) -> Tensor:
    datas = [t.data for t in ts]
    sizes = [d.shape[axis] for d in datas]
    splits = np.cumsum(sizes)[:-1]
    data = np.concatenate(datas, axis=axis)
    return _out(data, "concat", tuple(ts),
                lambda g: tuple(np.split(g, splits, axis=axis)))


def stack(ts: Sequence[Tensor]) -> Tensor:
    data = np.stack([t.data for t in ts], axis=0)
    return _out(data, "stack", tuple(ts),
                lambda g: tuple(g[i] for i in range(len(ts))))


def take(a: Tensor, i: int) -> Tensor:
    """Index along axis 0 (used to pull one head out of a stacked tensor)."""
    shape = a.data.shape

    def bw(g):
        out = np.zeros(shape)
        out[i] = g
        return (out,)

    return _out(a.data[i].copy(), "take", (a,), bw)


def slice_cols(a: Tensor, lo: int, hi: int) -> Tensor:
    cols = a.data.shape[-1]

    def bw(g):
        out = np.zeros(a.data.shape)
        out[..., lo:hi] = g
        return (out,)

    if not (0 <= lo <= hi <= cols):
        raise ShapeError(f"column slice [{lo}:{hi}) out of range for {a.shape}")
    return _out(a.data[..., lo:hi].copy(), "slice_cols", (a,), bw)


# ---------------------------------------------------------------------------
# nonlinearities


def _sigmoid_value(x: np.ndarray) -> np.ndarray:
    # exp may overflow to inf for very negative x; 1/(1+inf) is exactly 0,
    # so the result is correct for every finite input
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def sigmoid(a: Tensor) -> Tensor:
    s = _sigmoid_value(a.data)
    return _out(s, "sigmoid", (a,), lambda g: (g * s * (1.0 - s),))


def silu(a: Tensor) -> Tensor:
    x = a.data

    def bw(g):
        s = _sigmoid_value(x)
        return (g * s * (1.0 + x * (1.0 - s)),)

    return _out(x * _sigmoid_value(x), "silu", (a,), bw)


def huber(a: Tensor, delta: float = 1.0) -> Tensor:
    """Elementwise Huber penalty: quadratic inside |x| <= delta, linear outside."""
    x = a.data
    ax = np.abs(x)
    data = np.where(ax <= delta, 0.5 * x * x, delta * (ax - 0.5 * delta))
    return _out(data, "huber", (a,), lambda g: (g * np.clip(x, -delta, delta),))


def wrap_angle(a: Tensor) -> Tensor:
    """Wrap radians into (-pi, pi]; derivative is identity a.e."""
    return _out(wrap_angle_value(a.data), "wrap_angle", (a,), lambda g: (g,))


def wrap_angle_value(x):
    """numpy/scalar version of the (-pi, pi] wrap."""
    w = np.mod(np.asarray(x, dtype=np.float64) + np.pi, 2.0 * np.pi) - np.pi
    w = np.where(w == -np.pi, np.pi, w)
    if np.ndim(x) == 0:
        return float(w)
    return w


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects matrices, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dims disagree: {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data
    return _out(ad @ bd, "matmul", (a, b),
                lambda g: (g @ bd.T, ad.T @ g))


def linear(x: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    out = matmul(x, w)
    return add(out, b) if b is not None else out


# element budget of one motion_gate tile: rows per tile = max(1, budget // N),
# so 64 rows at N = 1024 and the whole map once N <= 256
MOTION_GATE_TILE_ELEMS = 1 << 16


def motion_gate(qc: Tensor, kc: Tensor, qp: Tensor, kp: Tensor, alpha: Tensor,
                G: Tensor, b: Tensor) -> Tensor:
    """sigmoid(SiLU(S) @ G + b) with S = (qc/sqrt(d)) kc^T - alpha (qp/sqrt(d)) kp^T.

    The N x N map S is never held whole: query rows are processed in tiles,
    each tile's S is one BLAS product [qc/sqrt(d), -alpha qp/sqrt(d)] @
    [kc, kp]^T of inner dimension 2d, and only the N x dg gate is kept.
    Backward recomputes every tile's S instead of storing it, so live memory
    is O(rows * N + N * d) rather than O(N^2); the gradients of kc, kp, G, b
    and the scalar alpha are summed across tiles.
    """
    N, d = qc.shape
    if not (kc.shape == qp.shape == kp.shape == (N, d)):
        raise ShapeError(f"motion_gate: q/k shapes {qc.shape} {kc.shape} {qp.shape} {kp.shape}")
    if G.ndim != 2 or G.shape[0] != N or b.shape != (G.shape[1],):
        raise ShapeError(f"motion_gate: gate {G.shape} + {b.shape} for {N} tokens")
    inv = 1.0 / np.sqrt(d)
    a = alpha.item()
    lhs = np.concatenate([qc.data * inv, qp.data * (-a * inv)], axis=1)  # N x 2d
    rhs_t = np.concatenate([kc.data, kp.data], axis=1).T  # 2d x N
    Gd, bd = G.data, b.data
    rows = min(N, max(1, MOTION_GATE_TILE_ELEMS // N))
    tiles = [slice(lo, min(lo + rows, N)) for lo in range(0, N, rows)]

    def silu_tile(t):
        """S, sigmoid(S) and SiLU(S) of one row tile."""
        s = lhs[t] @ rhs_t
        sig = _sigmoid_value(s)
        return s, sig, s * sig

    gate = np.empty((N, Gd.shape[1]))
    for t in tiles:
        z = silu_tile(t)[2] @ Gd + bd
        _ensure_finite(z, "motion_gate")
        gate[t] = _sigmoid_value(z)

    def bw(g):
        dz = g * gate * (1.0 - gate)
        dlhs = np.empty_like(lhs)
        drhs_t = np.zeros((2 * d, N))
        dG = np.zeros_like(Gd)
        for t in tiles:
            s, sig, m = silu_tile(t)
            dG += m.T @ dz[t]
            ds = (dz[t] @ Gd.T) * (sig + m * (1.0 - sig))  # SiLU'(S) = sig + SiLU(S) (1 - sig)
            dlhs[t] = ds @ rhs_t.T
            drhs_t += lhs[t].T @ ds
        dqp = dlhs[:, d:] * (-a * inv)
        dalpha = -inv * float(np.sum(dlhs[:, d:] * qp.data))
        return (dlhs[:, :d] * inv, drhs_t[:d].T, dqp, drhs_t[d:].T,
                np.full(alpha.shape, dalpha), dG, dz.sum(axis=0))

    return _out(gate, "motion_gate", (qc, kc, qp, kp, alpha, G, b), bw)


def layernorm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last (channel) axis, then affine."""
    if x.shape[-1] == 0:
        raise ShapeError("layernorm over an empty channel axis")
    xd = x.data
    mu = xd.mean(axis=-1, keepdims=True)
    xc = xd - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    data = xhat * gamma.data + beta.data

    def bw(g):
        dxhat = g * gamma.data
        dgamma = (g * xhat).reshape(-1, xd.shape[-1]).sum(axis=0)
        dbeta = g.reshape(-1, xd.shape[-1]).sum(axis=0)
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        dx = inv * (dxhat - m1 - xhat * m2)
        return (dx, dgamma.reshape(gamma.data.shape), dbeta.reshape(beta.data.shape))

    return _out(data, "layernorm", (x, gamma, beta), bw)


# ---------------------------------------------------------------------------
# convolution (3x3 kernels only; that is all the architecture uses)

_KSIZE = 3


def _conv_geometry(H: int, W: int, stride: int, padding: int):
    Ho = (H + 2 * padding - _KSIZE) // stride + 1
    Wo = (W + 2 * padding - _KSIZE) // stride + 1
    if Ho < 1 or Wo < 1:
        raise ShapeError(f"conv2d: {H}x{W} input too small for pad {padding}")
    return Ho, Wo


def _scatter_indices(Ho, Wo, Wp, stride):
    """Flat padded-grid index for every (output position, kernel offset)."""
    oi, oj = np.meshgrid(np.arange(Ho), np.arange(Wo), indexing="ij")
    base = (oi * stride)[..., None, None] * Wp + (oj * stride)[..., None, None]
    di, dj = np.meshgrid(np.arange(_KSIZE), np.arange(_KSIZE), indexing="ij")
    return (base + di * Wp + dj).reshape(-1)


def conv2d(x: Tensor, w: Tensor, b: Optional[Tensor] = None, stride: int = 1,
           depthwise: bool = False, padding: int = 1) -> Tensor:
    """3x3 convolution over an HxWxC grid.

    Default padding 1 gives output ceil(H/stride) x ceil(W/stride).
    Depthwise mode applies one 3x3 filter per channel (w: 3x3xC and
    output channels == input channels); dense mode takes w: 3x3xCinxCout.
    """
    if stride < 1:
        raise ShapeError(f"conv2d: non-positive stride {stride}")
    if x.ndim != 3:
        raise ShapeError(f"conv2d expects HxWxC input, got {x.shape}")
    H, W, Cin = x.shape
    if depthwise:
        if w.shape != (_KSIZE, _KSIZE, Cin):
            raise ShapeError(f"depthwise kernel {w.shape} does not match C={Cin}")
        Cout = Cin
    else:
        if w.ndim != 4 or w.shape[:3] != (_KSIZE, _KSIZE, Cin):
            raise ShapeError(f"kernel {w.shape} does not match input channels {Cin}")
        Cout = w.shape[3]
    Ho, Wo = _conv_geometry(H, W, stride, padding)

    xp = np.pad(x.data, ((padding, padding), (padding, padding), (0, 0)))
    Hp, Wp = xp.shape[0], xp.shape[1]
    # windows: (Ho, Wo, C, 3, 3)
    win = sliding_window_view(xp, (_KSIZE, _KSIZE), axis=(0, 1))[::stride, ::stride]

    if depthwise:
        wd = w.data
        data = np.einsum("xycij,ijc->xyc", win, wd)
        if b is not None:
            data = data + b.data

        def bw(g):
            dw = np.einsum("xycij,xyc->ijc", win, g)
            dwin = g[..., None, None] * wd.transpose(2, 0, 1)  # (Ho,Wo,C,3,3)
            cols = dwin.transpose(0, 1, 3, 4, 2).reshape(-1, Cin)
            dxp = np.zeros((Hp * Wp, Cin))
            np.add.at(dxp, _scatter_indices(Ho, Wo, Wp, stride), cols)
            dxp = dxp.reshape(Hp, Wp, Cin)
            dx = dxp[padding:Hp - padding, padding:Wp - padding, :] if padding else dxp
            grads = [dx, dw]
            if b is not None:
                grads.append(g.sum(axis=(0, 1)))
            return tuple(grads)

    else:
        patches = win.transpose(0, 1, 3, 4, 2).reshape(Ho * Wo, _KSIZE * _KSIZE * Cin)
        w2d = w.data.reshape(_KSIZE * _KSIZE * Cin, Cout)
        data = (patches @ w2d).reshape(Ho, Wo, Cout)
        if b is not None:
            data = data + b.data

        def bw(g):
            g2d = g.reshape(Ho * Wo, Cout)
            dw = (patches.T @ g2d).reshape(w.data.shape)
            dpatch = (g2d @ w2d.T).reshape(-1, Cin)
            dxp = np.zeros((Hp * Wp, Cin))
            np.add.at(dxp, _scatter_indices(Ho, Wo, Wp, stride), dpatch)
            dxp = dxp.reshape(Hp, Wp, Cin)
            dx = dxp[padding:Hp - padding, padding:Wp - padding, :] if padding else dxp
            grads = [dx, dw]
            if b is not None:
                grads.append(g.sum(axis=(0, 1)))
            return tuple(grads)

    inputs = (x, w) if b is None else (x, w, b)
    return _out(data, "conv2d", inputs, bw)


# ---------------------------------------------------------------------------
# scatter-max pooling (pillar aggregation)


def scatter_max(feats: Tensor, cell_index: np.ndarray, n_cells: int) -> Tensor:
    """Elementwise max of point features within each cell.

    Empty cells are exactly zero. Backward routes gradient only to the
    argmax contributor per (cell, channel); ties go to the lowest point
    index, so point order never changes values and stays deterministic.
    """
    idx = np.asarray(cell_index, dtype=np.int64)
    if feats.ndim != 2 or idx.shape != (feats.shape[0],):
        raise ShapeError(f"scatter_max: feats {feats.shape} vs index {idx.shape}")
    P, C = feats.shape
    if P and (idx.min() < 0 or idx.max() >= n_cells):
        raise ShapeError(f"scatter_max: cell index outside [0, {n_cells})")

    data = np.zeros((n_cells, C))
    arg = np.full((n_cells, C), -1, dtype=np.int64)
    if P:
        order_tiebreak = np.arange(P)
        for c in range(C):
            vals = feats.data[:, c]
            order = np.lexsort((order_tiebreak, -vals, idx))
            sorted_cells = idx[order]
            first = np.ones(P, dtype=bool)
            first[1:] = sorted_cells[1:] != sorted_cells[:-1]
            winners = order[first]
            data[idx[winners], c] = vals[winners]
            arg[idx[winners], c] = winners

    def bw(g):
        df = np.zeros((P, C))
        occ = arg >= 0
        if occ.any():
            rows, cols = np.nonzero(occ)
            df[arg[rows, cols], cols] = g[rows, cols]
        return (df,)

    return _out(data, "scatter_max", (feats,), bw)
