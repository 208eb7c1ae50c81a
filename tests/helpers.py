"""Helpers the test modules share: leaves, the gradient probe, and the
oracles' own tape op and loop. pytest does not collect this module."""

import numpy as np

from bevsot import tensor as T
from bevsot.tensor import Tape, Tensor


def leaf(arr):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True)


def probe(f, leaves, up=None):
    """f()'s value and the gradients of `leaves` from one fresh tape. The
    output itself is backpropagated when `up` is None (it must be a scalar),
    else sum(f() * up). Returns the output array and copies of the leaves'
    gradients (None where none reached a leaf), keyed like `leaves`, a dict
    or a sequence."""
    named = dict(leaves) if isinstance(leaves, dict) else dict(enumerate(leaves))
    for t in named.values():
        t.grad = None
    with Tape() as tape:
        out = f()
        tape.backward(out if up is None else T.sum_all(T.mul(out, Tensor(up))))
    grads = {k: None if t.grad is None else t.grad.copy() for k, t in named.items()}
    return out.data, grads if isinstance(leaves, dict) else list(grads.values())


def sigmoid(a):
    """Tape op of the logistic function: the gate oracle's, kept out of src."""
    s = T._sigmoid_value(a.data)
    return T._out(s, "sigmoid", (a,), lambda g: (g * s * (1.0 - s),))


def conv2d_loop(x, w, b=None, stride=1, padding=1):
    """Independent nested-loop oracle for the dense 3x3 convolution."""
    H, W, Cin = x.shape
    Cout = w.shape[3]
    xp = np.pad(x, ((padding, padding), (padding, padding), (0, 0)))
    Ho = (H + 2 * padding - 3) // stride + 1
    Wo = (W + 2 * padding - 3) // stride + 1
    out = np.zeros((Ho, Wo, Cout))
    for i in range(Ho):
        for j in range(Wo):
            for di in range(3):
                for dj in range(3):
                    for ci in range(Cin):
                        v = xp[i * stride + di, j * stride + dj, ci]
                        for co in range(Cout):
                            out[i, j, co] += v * w[di, dj, ci, co]
    if b is not None:
        out += b
    return out


def block_leaves(bp):
    """Every trainable tensor of a block by name, its encoders' included; an
    encoder that both frames share is collected once."""
    named = list(vars(bp).items()) + [(f"enc.{n}", t) for n, t in vars(bp.enc).items()]
    if bp.enc_prev is not bp.enc:
        named += [(f"enc_prev.{n}", t) for n, t in vars(bp.enc_prev).items()]
    return {name: t for name, t in named if isinstance(t, Tensor) and t.requires_grad}
