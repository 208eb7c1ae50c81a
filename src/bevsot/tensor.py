"""Dense float64 tensors with reverse-mode autodiff on an explicit tape.

Ops record backward closures on the innermost active ``Tape``; outside a
tape everything is a plain numpy forward pass (inference mode). All op
outputs are finite-checked: NaN/Inf raises ``NumericError`` at the op that
produced it rather than propagating silently.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

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
    forward+backward pass; passes are single-threaded by contract. A tape
    replays once: a second ``backward`` would add every gradient onto the
    first pass's, so it raises ``RuntimeError`` instead. ``backward``
    consumes the tape: each node is dropped once replayed, so the tape is
    empty afterwards and only leaves keep their ``.grad``. A gradient is
    never written in place: a later contribution makes a new sum array, so
    a closure may hand one array to several inputs, or return its own
    out_grad, and a ``.grad`` held from an earlier pass stays as it was."""

    _stack: list["Tape"] = []

    def __init__(self):
        self._nodes: list[_Node] = []
        self._replayed = False

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
        """Seed d(loss)/d(loss) = 1 and replay recorded ops in reverse, once."""
        if self._replayed:
            raise RuntimeError("backward() already ran on this tape; record the "
                               "pass again on a new Tape")
        if loss.data.size != 1:
            raise ShapeError(f"backward() needs a scalar loss, got shape {loss.shape}")
        if not loss.requires_grad:
            raise ValueError("loss was not recorded on this tape (no grad path)")
        self._replayed = True
        loss.grad = np.ones_like(loss.data)
        nodes = self._nodes
        while nodes:
            # drop each node, its closure and its output's gradient once
            # replayed, so backward's peak is not the whole graph plus grads
            node = nodes.pop()
            out_grad, node.out.grad = node.out.grad, None
            if out_grad is None:
                continue
            grads = node.backward_fn(out_grad)
            for inp, g in zip(node.inputs, grads):
                if g is not None and inp.requires_grad:
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


def _sigmoid_value(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """1 / (1 + exp(-x)), computed into `out` (a fresh array when None).
    exp may overflow to inf for very negative x; 1/(1+inf) is exactly 0, so
    the result is correct for every finite input."""
    if out is None:
        out = np.empty(np.shape(x))
    with np.errstate(over="ignore"):
        np.negative(x, out=out)
        np.exp(out, out=out)
        np.add(out, 1.0, out=out)
        return np.divide(1.0, out, out=out)


def sigmoid(a: Tensor) -> Tensor:
    s = _sigmoid_value(a.data)
    return _out(s, "sigmoid", (a,), lambda g: (g * s * (1.0 - s),))


def silu(a: Tensor) -> Tensor:
    x = a.data

    def bw(g):
        s = _sigmoid_value(x)
        return (g * s * (1.0 + x * (1.0 - s)),)

    s = _sigmoid_value(x)
    return _out(np.multiply(x, s, out=s), "silu", (a,), bw)


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


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one tape node; the same values and gradients as
    ``add(matmul(x, w), b)``."""
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"linear: {x.shape} @ {w.shape}")
    xd, wd = x.data, w.data
    return _out(xd @ wd + b.data, "linear", (x, w, b),
                lambda g: (g @ wd.T, xd.T @ g, _unbroadcast(g, b.data.shape)))


# query rows per motion_gate tile. In the sweep of BENCH_motion_gate_tiles.json
# 64 rows is at or near the fastest forward + backward for every N from 1024
# to 16384 (e.g. N = 16384, d = 16: 9385 ms at 16 rows, 7468 ms at 64); each
# tile streams the whole (N, 2d) key operand, so thinner tiles re-read it
# more often. N <= 64 is a single tile.
MOTION_GATE_ROWS = 64


def motion_gate_rows(N: int) -> int:
    """Query rows per motion_gate tile for N tokens."""
    return min(N, MOTION_GATE_ROWS)


def motion_gate_tiles(N: int, heads: int, d: int) -> list[tuple[int, slice, slice]]:
    """motion_gate's (head, columns, rows) tiles: heads one after another, so
    a tile's working set does not grow with heads."""
    rows = motion_gate_rows(N)
    return [(h, slice(h * d, (h + 1) * d), slice(lo, min(lo + rows, N)))
            for h in range(heads) for lo in range(0, N, rows)]


def motion_gate_macs(N: int, heads: int, d: int) -> int:
    """motion_gate's forward multiply-adds under bench.py's counting rules,
    summed over its tile plan: per head the two N x d operand scalings, per
    r-row tile the (r x 2d) @ (2d x N) product, one SiLU op per element (the
    tile's divide) and the (r x N) @ (N x d) gate matmul. 3 N^2 d + N^2 +
    2 N d per head."""
    return 2 * heads * N * d + sum((t.stop - t.start) * N * (3 * d + 1)
                                   for _, _, t in motion_gate_tiles(N, heads, d))


def motion_gate(qc: Tensor, kc: Tensor, qp: Tensor, kp: Tensor, alpha: Tensor,
                G: Tensor, b: Tensor) -> Tensor:
    """The (N, C) gate of all heads: head h owns column block h of width
    d = C / heads, sigmoid(SiLU(S_h) @ G[h] + b[h]) with S_h = (qc_h/sqrt(d))
    kc_h^T - alpha (qp_h/sqrt(d)) kp_h^T; G is (heads, N, d), b (heads, d).

    No N x N map is held whole: each head's query rows are processed in
    tiles of r rows, one BLAS product [-qc_h/sqrt(d), alpha qp_h/sqrt(d)] @
    [kc_h, kp_h]^T of inner dimension 2d per tile. The left operand is
    negated, so the product is -S exactly (up to the sign of zero), and the
    tile's -SiLU(S) = -S / (1 + exp(-S)) takes three elementwise passes:
    one exp, one +1 and one divide. That differs from S * (1 / (1 + exp(-S)))
    by about an ulp per element. Each tile's -SiLU(S) @ G[h] goes into one
    (N, C) array, and the bias, the finite check and the sigmoid run on it
    once. Backward recomputes the same tiles bit for bit instead of storing
    them. Every tile step writes with ``out=`` into (r, N) buffers allocated
    once per call: two in forward and three in backward, each freed when its
    pass ends, so live memory is a fixed set of (r, N) buffers plus O(N * C).
    The gradients of kc, kp, G, b and the scalar alpha are summed across tiles.
    """
    N, C = qc.shape
    if not (kc.shape == qp.shape == kp.shape == (N, C)):
        raise ShapeError(f"motion_gate: q/k shapes {qc.shape} {kc.shape} {qp.shape} {kp.shape}")
    heads = G.shape[0] if G.ndim == 3 else 0
    d = C // heads if heads and C % heads == 0 else 0
    if not d or G.shape != (heads, N, d) or b.shape != (heads, d):
        raise ShapeError(f"motion_gate: gate {G.shape} + {b.shape} for {N} x {C} projections")
    inv = 1.0 / np.sqrt(d)
    a = alpha.item()
    cols = [slice(h * d, (h + 1) * d) for h in range(heads)]
    lhs = [np.concatenate([qc.data[:, c] * -inv, qp.data[:, c] * (a * inv)], axis=1)
           for c in cols]  # N x 2d per head, so lhs @ rhs_t is -S
    rhs_t = [np.concatenate([kc.data[:, c], kp.data[:, c]], axis=1).T for c in cols]
    rows = motion_gate_rows(N)
    tiles = motion_gate_tiles(N, heads, d)

    def neg_silu_tile(h, t, m, q):
        """-SiLU(S) into m and 1 + exp(-S) into q for head h's row tile t;
        returns their first len(t) rows."""
        n = t.stop - t.start
        m, q = m[:n], q[:n]
        np.matmul(lhs[h][t], rhs_t[h], out=m)
        with np.errstate(over="ignore"):
            np.exp(m, out=q)
        np.add(q, 1.0, out=q)
        return np.divide(m, q, out=m), q

    z = np.empty((N, C))  # -SiLU(S) @ G, then z, then the gate
    bufs = np.empty((2, rows, N))  # bw allocates its own: a tape must not hold these
    for h, c, t in tiles:
        np.matmul(neg_silu_tile(h, t, *bufs)[0], G.data[h], out=z[t, c])
    np.subtract(b.data.reshape(C), z, out=z)
    _ensure_finite(z, "motion_gate")
    gate = _sigmoid_value(z, out=z)

    def bw(g):
        dz = g * gate * (1.0 - gate)
        dlhs = [np.empty((N, 2 * d)) for _ in cols]
        drhs_t = [np.zeros((2 * d, N)) for _ in cols]
        dG = np.zeros_like(G.data)
        m_buf, q_buf, tmp_buf = np.empty((3, rows, N))
        for h, c, t in tiles:
            m, q = neg_silu_tile(h, t, m_buf, q_buf)
            dG[h] -= m.T @ dz[t, c]
            sig = np.divide(1.0, q, out=q)
            # -SiLU'(S) = -SiLU(S) (1 - sig) - sig, built in tmp's buffer;
            # times dz G^T it is the gradient of -S, i.e. of lhs @ rhs_t
            tmp = tmp_buf[:len(sig)]
            np.subtract(1.0, sig, out=tmp)
            np.multiply(m, tmp, out=tmp)
            np.subtract(tmp, sig, out=tmp)
            dns = np.multiply(np.matmul(dz[t, c], G.data[h].T, out=sig), tmp, out=tmp)
            np.matmul(dns, rhs_t[h].T, out=dlhs[h][t])
            drhs_t[h] += lhs[h][t].T @ dns
        dqp = np.hstack([x[:, d:] for x in dlhs])
        return (np.hstack([x[:, :d] for x in dlhs]) * -inv, np.hstack([x[:d].T for x in drhs_t]),
                dqp * (a * inv), np.hstack([x[d:].T for x in drhs_t]),
                np.full(alpha.shape, inv * float(np.sum(dqp * qp.data))), dG,
                dz.reshape(N, heads, d).sum(axis=0))

    return _out(gate, "motion_gate", (qc, kc, qp, kp, alpha, G, b), bw)


def layernorm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last (channel) axis, then affine."""
    if x.shape[-1] == 0:
        raise ShapeError("layernorm over an empty channel axis")
    xd = x.data
    C = xd.shape[-1]
    # np.mean's own sum and divide, without its per-call Python overhead
    mean = lambda a: np.add.reduce(a, axis=-1, keepdims=True) / C
    xc = xd - mean(xd)
    inv = 1.0 / np.sqrt(mean(xc * xc) + eps)
    xhat = xc * inv
    data = xhat * gamma.data + beta.data

    def bw(g):
        dxhat = g * gamma.data
        dgamma = (g * xhat).reshape(-1, C).sum(axis=0)
        dbeta = g.reshape(-1, C).sum(axis=0)
        m1 = mean(dxhat)
        m2 = mean(dxhat * xhat)
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


def conv2d(x: Tensor, w: Tensor, b: Optional[Tensor] = None, stride: int = 1,
           depthwise: bool = False, padding: int = 1) -> Tensor:
    """3x3 convolution over an HxWxC grid.

    Default padding 1 gives output ceil(H/stride) x ceil(W/stride).
    Depthwise mode applies one 3x3 filter per channel (w: 3x3xC and
    output channels == input channels); dense mode takes w: 3x3xCinxCout.

    The kernel runs as nine taps. Tap (i, j) pairs w[i, j] with the strided
    slice of the padded input that starts at (i, j), which holds the cell
    under that tap for every output cell. Forward adds slice @ w[i, j]
    (dense) or slice * w[i, j] (depthwise) into a zeroed output, tap by
    tap. Backward walks the taps in reverse: it slice-adds g @ w[i, j].T
    (or g * w[i, j]) into the padded input gradient, so each cell sums its
    windows' terms in ascending window order, and forms dw[i, j] from the
    same slice.
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

    xp = np.zeros((H + 2 * padding, W + 2 * padding, Cin))
    xp[padding:padding + H, padding:padding + W] = x.data
    wd = w.data
    taps = [((i, j), (slice(i, i + stride * (Ho - 1) + 1, stride),
                      slice(j, j + stride * (Wo - 1) + 1, stride)))
            for i in range(_KSIZE) for j in range(_KSIZE)]

    if depthwise:
        # each tap's C weights repeated along an output row: the product then
        # has no stride-0 axis, and numpy runs it over (Ho, Wo * C) rows
        wd = np.tile(wd, (1, 1, Wo)).reshape(_KSIZE, _KSIZE, Wo, Cin)
    data = np.zeros((Ho, Wo, Cout))
    term = np.empty_like(data)  # one tap's contribution, rewritten per tap
    for ij, s in taps:
        (np.multiply if depthwise else np.matmul)(xp[s], wd[ij], out=term)
        data += term
    if b is not None:
        data += b.data

    def bw(g):
        dxp = np.zeros_like(xp)
        dw = np.empty_like(w.data)
        g2d = g.reshape(Ho * Wo, Cout)
        for ij, s in reversed(taps):
            if depthwise:
                dxp[s] += g * wd[ij]
                dw[ij] = (xp[s] * g).sum(axis=(0, 1))
            else:
                dxp[s] += (g2d @ wd[ij].T).reshape(Ho, Wo, Cin)
                dw[ij] = xp[s].reshape(Ho * Wo, Cin).T @ g2d
        dx = dxp[padding:padding + H, padding:padding + W]
        return (dx, dw) if b is None else (dx, dw, g.sum(axis=(0, 1)))

    inputs = (x, w) if b is None else (x, w, b)
    return _out(data, "conv2d", inputs, bw)


# ---------------------------------------------------------------------------
# scatter-max pooling (pillar aggregation)


def cell_runs(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group points by non-negative cell index: the stable sort order by
    cell, the start of each cell's run in that order, and the run index of
    each sorted position. Within a run, points keep their original relative
    order. The sort keys take the smallest unsigned dtype that holds the
    largest index, so a grid of up to 256 x 256 cells sorts by numpy's
    radix path; a stable order is unique, so it is the same for any dtype."""
    order = np.argsort(cells.astype(np.min_scalar_type(cells.max(initial=0))),
                       kind="stable")
    sorted_cells = cells[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = sorted_cells[1:] != sorted_cells[:-1]
    return order, np.flatnonzero(first), np.cumsum(first) - 1


def scatter_max(feats: Tensor, cell_index: np.ndarray, n_cells: int) -> Tensor:
    """Elementwise max of point features within each cell.

    Points are grouped once by ``cell_runs`` and all channels are pooled
    together over the runs. Empty cells are exactly zero. Backward routes
    gradient only to the argmax contributor per (cell, channel); ties go to
    the lowest point index, so point order never changes values and stays
    deterministic. A NaN feature raises ``NumericError``.
    """
    idx = np.asarray(cell_index, dtype=np.int64)
    if feats.ndim != 2 or idx.shape != (feats.shape[0],):
        raise ShapeError(f"scatter_max: feats {feats.shape} vs index {idx.shape}")
    P, C = feats.shape
    if P and (idx.min() < 0 or idx.max() >= n_cells):
        raise ShapeError(f"scatter_max: cell index outside [0, {n_cells})")

    data = np.zeros((n_cells, C))
    if P:
        order, starts, run_of = cell_runs(idx)
        vals = feats.data[order]
        best = np.maximum.reduceat(vals, starts, axis=0)
        # NaN propagates into the max and then matches no point below
        _ensure_finite(best, "scatter_max")
        hits = np.where(vals == best[run_of], order[:, None], P)
        winners = np.minimum.reduceat(hits, starts, axis=0)
        cells = idx[order[starts]]
        data[cells] = feats.data[winners, np.arange(C)]  # a tied 0.0/-0.0 keeps the winner's sign

    def bw(g):
        df = np.zeros((P, C))
        if P:  # each point lies in one cell, so no two winners share a (point, channel) slot
            df[winners, np.arange(C)] = g[cells]
        return (df,)

    return _out(data, "scatter_max", (feats,), bw)
