"""Central finite-difference gradient checking against the tape."""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .exceptions import ShapeError
from .tensor import Tape, Tensor


def _rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom)) if analytic.size else 0.0


def gradcheck(f: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-5) -> float:
    """Max relative error between the tape gradient of scalar f and central
    finite differences over every coordinate of x. Non-finite forwards
    raise (never reported as agreement)."""
    if not x.requires_grad:
        raise ValueError("gradcheck input must require grad")
    return gradcheck_params(lambda: f(x), [("x", x)], eps)["x"]


def gradcheck_params(f: Callable[[], Tensor], params: Sequence[tuple[str, Tensor]],
                     eps: float = 1e-5, samples_per_param: Optional[int] = None,
                     rng: Optional[np.random.Generator] = None) -> dict[str, float]:
    """Check d f() / d p for each named parameter; f closes over the params.

    With `samples_per_param`, only that many random coordinates per tensor
    are finite-differenced (needed to keep whole-model checks fast); the
    analytic gradient still comes from one full backward pass. Fewer than
    one sample would check nothing, so it raises ``ValueError``.
    """
    if samples_per_param is not None and samples_per_param < 1:
        raise ValueError(f"samples_per_param must be >= 1, got {samples_per_param}")
    for _, p in params:
        p.data = np.require(p.data, requirements="C")  # keeps 0-d arrays 0-d
    with Tape() as tape:
        out = f()
        if out.data.size != 1:
            raise ShapeError(f"gradcheck: f must be scalar-valued, got {out.shape}")
        for _, p in params:
            p.grad = None
        tape.backward(out)
    analytic = {name: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
                for name, p in params}

    errs: dict[str, float] = {}
    for name, p in params:
        flat = p.data.reshape(-1)
        if samples_per_param is None or flat.size <= samples_per_param:
            coords = np.arange(flat.size)
        else:
            coords = (rng or np.random.default_rng(0)).choice(
                flat.size, size=samples_per_param, replace=False)
        a = np.empty(len(coords))
        n = np.empty(len(coords))
        aflat = analytic[name].reshape(-1)
        for k, i in enumerate(coords):
            keep = flat[i]
            flat[i] = keep + eps
            hi = f().item()
            flat[i] = keep - eps
            lo = f().item()
            flat[i] = keep
            n[k] = (hi - lo) / (2.0 * eps)
            a[k] = aflat[i]
        errs[name] = _rel_err(a, n)
    return errs
