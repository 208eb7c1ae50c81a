"""Named parameter store, AdamW with decoupled weight decay, the step-decay
learning-rate schedule, and the binary checkpoint format.

Checkpoint layout (little-endian): magic ``BSOT``, u32 version, u32 count,
then per parameter: u16 name length + utf-8 name, u8 ndim, u32 dims,
row-major float64 data. A checkpoint is written to a temporary file in
its directory and moved into place, so an interrupted write leaves the
previous file as it was.
"""

from __future__ import annotations

import math
import struct
from typing import Iterator

import numpy as np

from .atomic import atomic_write
from .exceptions import ConfigError, DataFormatError
from .tensor import Tensor

_MAGIC = b"BSOT"
_VERSION = 1


class ParamStore:
    """Insertion-ordered map name -> trainable Tensor.

    Names are unique and shapes are immutable after creation; iteration
    order is creation order, which keeps optimizer updates deterministic.
    AdamW state is one step count for the whole store, ``_step``, and per
    name the ``(m, v)`` moments in ``_moments``, made on the parameter's
    first update, so a model that only runs inference holds none. Every
    update steps every parameter, so parameters are created before the
    first update, and ``create`` refuses one after it.

    ``centre_taps`` names the (cin, cout) parameters that stand for the
    centre tap w[1, 1] of a 3x3 kernel: the only tap a padded 3x3 conv over
    a 1x1 grid multiplies with data. A checkpoint holding the full
    (3, 3, cin, cout) kernel for such a name loads as its centre tap.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._step = 0
        self._moments: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self.centre_taps: set[str] = set()

    def create(self, name: str, data: np.ndarray) -> Tensor:
        if name in self._params:
            raise ConfigError(f"duplicate parameter name '{name}'")
        if self._step:
            raise ConfigError(f"parameter '{name}' created after AdamW step {self._step}")
        t = Tensor(np.array(data, dtype=np.float64), requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._params.items())

    def num_values(self) -> int:
        """Total scalar parameter count."""
        return sum(t.data.size for t in self._params.values())

    def zero_grad(self):
        for t in self._params.values():
            t.grad = None


# elements per adamw_step chunk: 16K float64 values, so a chunk of p, g, m, v
# and the two scratch buffers (768 KB) stays in cache across its ufunc passes
ADAMW_CHUNK = 1 << 14


def adamw_step(store: ParamStore, lr: float, weight_decay: float = 0.01,
               betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
    """One decoupled-weight-decay Adam update over every parameter.

    Requires grads populated for all parameters, checked before any update,
    so a missing one raises with the store, its step count included,
    unchanged. Then the store's one step count is incremented, and a
    parameter's zero moments are created on its first update. Grads are
    left in place (call ``store.zero_grad()``).

    Each parameter and its moments are updated in place, ``ADAMW_CHUNK``
    elements at a time through two scratch buffers, with the operations of
        m = b1 m + (1 - b1) g,   v = b2 v + (1 - b2) g^2,
        p = p - lr (mhat / (sqrt(vhat) + eps) + wd p)
    in this order, so the result is bit-identical to the whole-array form.
    """
    for name, p in store.items():
        if p.grad is None:
            raise ValueError(f"adamw_step: parameter '{name}' has no gradient")
    b1, b2 = betas
    store._step += 1
    c1, c2 = 1.0 - b1 ** store._step, 1.0 - b2 ** store._step
    t1, t2 = np.empty(ADAMW_CHUNK), np.empty(ADAMW_CHUNK)
    for name, p in store.items():
        if name not in store._moments:
            store._moments[name] = np.zeros(p.data.shape), np.zeros(p.data.shape)
        m, v = store._moments[name]
        # the update is written through reshape(-1) views: a strided p.data
        # would reshape to a copy and lose it, a read-only one would refuse it
        p.data = np.require(p.data, np.float64, "CW")
        pf, mf, vf = p.data.reshape(-1), m.reshape(-1), v.reshape(-1)
        gf = np.broadcast_to(p.grad, p.data.shape).reshape(-1)
        for lo in range(0, pf.size, ADAMW_CHUNK):
            hi = min(lo + ADAMW_CHUNK, pf.size)
            pc, mc, vc, gc = pf[lo:hi], mf[lo:hi], vf[lo:hi], gf[lo:hi]
            a, b = t1[:hi - lo], t2[:hi - lo]
            np.multiply(b1, mc, out=mc)
            np.multiply(1.0 - b1, gc, out=a)
            np.add(mc, a, out=mc)
            np.multiply(gc, gc, out=a)
            np.multiply(1.0 - b2, a, out=a)
            np.multiply(b2, vc, out=vc)
            np.add(vc, a, out=vc)
            np.divide(vc, c2, out=b)
            np.sqrt(b, out=b)
            np.add(b, eps, out=b)
            np.divide(mc, c1, out=a)
            np.divide(a, b, out=a)
            np.multiply(weight_decay, pc, out=b)
            np.add(a, b, out=a)
            np.multiply(lr, a, out=a)
            np.subtract(pc, a, out=pc)


def lr_at_epoch(base_lr: float, epoch: int, decay_factor: float, decay_interval: int) -> float:
    """Step schedule: divide the rate by `decay_factor` every `decay_interval` epochs."""
    return base_lr / decay_factor ** (epoch // decay_interval)


def save_checkpoint(store: ParamStore, path: str):
    """Write every parameter to `path`, replacing it only once the write is whole."""
    with atomic_write(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, len(store)))
        for name, t in store.items():
            raw = name.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<B", t.data.ndim))
            fh.write(struct.pack(f"<{t.data.ndim}I", *t.data.shape))
            fh.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())


def load_checkpoint(store: ParamStore, path: str):
    """Load values into an existing store; every name and shape must match,
    except that a full 3x3 kernel loads into a centre-tap parameter as w[1, 1]."""
    entries = read_checkpoint(path)
    missing = set(store.names()) - set(entries)
    extra = set(entries) - set(store.names())
    if missing or extra:
        raise ConfigError(
            f"checkpoint/model mismatch: missing {sorted(missing)}, unexpected {sorted(extra)}")
    for name, arr in entries.items():
        t = store[name]
        if name in store.centre_taps and arr.shape == (3, 3) + t.data.shape:
            arr = arr[1, 1].copy()
        if arr.shape != t.data.shape:
            raise ConfigError(
                f"checkpoint shape mismatch for '{name}': {arr.shape} vs {t.data.shape}")
        t.data = arr


def read_checkpoint(path: str) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        blob = fh.read()

    def fail(offset, why):
        raise DataFormatError(f"{path}: byte {offset}: {why}")

    if blob[:4] != _MAGIC:
        fail(0, "bad magic (not a checkpoint)")
    if len(blob) < 12:
        fail(len(blob), "truncated header")
    version, count = struct.unpack_from("<II", blob, 4)
    if version != _VERSION:
        fail(4, f"unsupported checkpoint version {version}")
    off = 12
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        if off + 2 > len(blob):
            fail(off, "truncated name length")
        (nlen,) = struct.unpack_from("<H", blob, off)
        off += 2
        if off + nlen + 1 > len(blob):
            fail(off, "truncated name")
        try:
            name = blob[off:off + nlen].decode("utf-8")
        except UnicodeDecodeError as exc:
            fail(off + exc.start, f"parameter name is not valid utf-8 ({exc.reason})")
        if name in out:
            fail(off, f"repeated parameter name '{name}'")
        off += nlen
        ndim = blob[off]
        off += 1
        if off + 4 * ndim > len(blob):
            fail(off, "truncated shape")
        shape = struct.unpack_from(f"<{ndim}I", blob, off)
        off += 4 * ndim
        nbytes = 8 * math.prod(shape)  # a Python int: no int64 wrap
        if off + nbytes > len(blob):
            fail(off, f"truncated data for '{name}'")
        arr = np.frombuffer(blob, dtype="<f8", count=nbytes // 8, offset=off)
        if not (finite := np.isfinite(arr)).all():
            fail(off + 8 * int(np.argmin(finite)), f"non-finite value in '{name}'")
        out[name] = arr.reshape(shape).astype(np.float64)
        off += nbytes
    if off != len(blob):
        fail(off, "trailing bytes after last parameter")
    return out
