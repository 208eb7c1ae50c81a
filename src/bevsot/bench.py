"""Attention complexity benchmark: exact multiply-add counts and wall time
for the softmax baseline, the right-associated linear attention core, the
motion-difference weight construction and its gate projection, and the
model's fused row-tiled motion gate (``tensor.motion_gate`` itself, counted
by the closed form ``tensor.motion_gate_macs``), across a token-count sweep.

Counting rules (documented so the closed forms are checkable): a matmul
of (m x k) @ (k x n) counts m*n*k multiply-adds; an elementwise scale,
multiply, or divide of an array counts its size; SiLU counts one multiply
per element; additions, subtractions, exponentials, and bias adds count
zero. Counts are exact equalities; timings are informational.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .exceptions import ConfigError
from .rules import COUNT, require
from .tensor import _sigmoid_value


class MacCounter:
    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self.count += a.shape[0] * a.shape[1] * b.shape[1]
        return a @ b

    def ew(self, arr: np.ndarray) -> np.ndarray:
        """Account one multiply per element of an elementwise result."""
        self.count += arr.size
        return arr

    def silu(self, x: np.ndarray) -> np.ndarray:
        return self.ew(x * _sigmoid_value(x))


def softmax_attention(Q: np.ndarray, K: np.ndarray, V: np.ndarray,
                      counter: MacCounter | None = None) -> np.ndarray:
    """Standard softmax(Q K^T / sqrt(d)) V; the quadratic reference point.

    With one row (N == 1) the softmax over a single key is 1 and the
    output equals V.
    """
    c = counter or MacCounter()
    d = Q.shape[1]
    scores = c.ew(c.matmul(Q, K.T) / math.sqrt(d))
    scores = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(scores)
    attn = c.ew(e / e.sum(axis=1, keepdims=True))
    return c.matmul(attn, V)


def linear_attention_core(Q: np.ndarray, K: np.ndarray, V: np.ndarray,
                          counter: MacCounter | None = None) -> np.ndarray:
    """SiLU-kernel attention in right-associated order: SiLU(Q) @
    (SiLU(K)^T @ V). Cost is linear in rows (N * d^2), no N x N product."""
    c = counter or MacCounter()
    q = c.silu(Q)
    k = c.silu(K)
    return c.matmul(q, c.matmul(k.T, V))


def linear_attention_quadratic(Q: np.ndarray, K: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Left-associated order of the same product, used as the equivalence
    oracle: (SiLU(Q) @ SiLU(K)^T) @ V."""
    q = Q * _sigmoid_value(Q)
    k = K * _sigmoid_value(K)
    return (q @ k.T) @ V


def motion_weight_map(Qc: np.ndarray, Kc: np.ndarray, Qp: np.ndarray, Kp: np.ndarray,
                      alpha: float, counter: MacCounter | None = None) -> np.ndarray:
    """The motion-difference weight construction; quadratic in rows by
    definition since it materializes an N x N map."""
    c = counter or MacCounter()
    inv = 1.0 / math.sqrt(Qc.shape[1])
    sim_c = c.ew(c.matmul(Qc, Kc.T) * inv)
    sim_p = c.ew(c.matmul(Qp, Kp.T) * inv)
    return c.silu(sim_c - c.ew(alpha * sim_p))


def gate_projection(Wm: np.ndarray, G: np.ndarray, b: np.ndarray,
                    counter: MacCounter | None = None) -> np.ndarray:
    """Sigmoid gate from the motion map; also quadratic (N x N times N x d).
    Reported alongside the motion map, not separately asserted."""
    c = counter or MacCounter()
    return _sigmoid_value(c.matmul(Wm, G) + b)


def motion_gate_tiled(Qc: np.ndarray, Kc: np.ndarray, Qp: np.ndarray, Kp: np.ndarray,
                      alpha: float, G: np.ndarray, b: np.ndarray,
                      counter: MacCounter | None = None) -> np.ndarray:
    """``tensor.motion_gate`` on one head: motion map and gate projection fused
    over tiles of query rows. Its count is ``tensor.motion_gate_macs``, the
    closed form 3 N^2 d + N^2 + 2 N d, the same for any tile height, against
    3 N^2 d + 4 N^2 for motion_weight_map plus gate_projection.
    """
    N, d = Qc.shape
    if counter is not None:
        counter.count += T.motion_gate_macs(N, 1, d)
    return T.motion_gate(*map(T.Tensor, (Qc, Kc, Qp, Kp, alpha, G[None], b[None]))).data


@dataclass
class BenchRecord:
    N: int
    d: int
    counts: dict[str, int] = field(default_factory=dict)
    seconds: dict[str, float] = field(default_factory=dict)


_VARIANTS = ("softmax", "linear_core", "motion_map", "gate_projection",
             "motion_gate_tiled")


def bench_attention(Ns: list[int], d: int = 16, repeats: int = 3,
                    seed: int = 0) -> tuple[list[BenchRecord], dict[str, float], str]:
    """Count and time each kernel over a strictly increasing token sweep.

    Returns the per-N records, the fitted log-log count slopes, and a text
    report that lists each of ``slope_checks`` as PASS or FAIL.
    """
    if len(Ns) < 4 or Ns[0] < 1 or any(b <= a for a, b in zip(Ns, Ns[1:])):
        raise ConfigError(f"need >= 4 strictly increasing N values >= 1, got {Ns}")
    require("d", d, COUNT)
    require("repeats", repeats, COUNT)
    rng = np.random.default_rng(seed)
    records = []
    for N in Ns:
        rec = BenchRecord(N=N, d=d)
        Q, K, V, Qp, Kp = (rng.standard_normal((N, d)) / d ** 0.25 for _ in range(5))
        G = rng.standard_normal((N, d)) / math.sqrt(N)
        b = np.zeros(d)
        wm = motion_weight_map(Q, K, Qp, Kp, 0.5)
        # kernels are looked up as module globals at call time, in _VARIANTS order
        kernels = {
            "softmax": lambda c: softmax_attention(Q, K, V, counter=c),
            "linear_core": lambda c: linear_attention_core(Q, K, V, counter=c),
            "motion_map": lambda c: motion_weight_map(Q, K, Qp, Kp, 0.5, counter=c),
            "gate_projection": lambda c: gate_projection(wm, G, b, counter=c),
            "motion_gate_tiled": lambda c: motion_gate_tiled(Q, K, Qp, Kp, 0.5, G, b,
                                                             counter=c)}
        for name, kernel in kernels.items():
            cnt = MacCounter()
            kernel(cnt)
            rec.counts[name] = cnt.count
            best = math.inf
            for _ in range(repeats):
                t0 = time.perf_counter()
                kernel(cnt)  # the count is already taken
                best = min(best, time.perf_counter() - t0)
            rec.seconds[name] = best
        records.append(rec)

    logn = np.log([r.N for r in records])

    def fit(values):  # log-log slope over the sweep
        return float(np.polyfit(logn, np.log(values), 1)[0])

    slopes = {name: fit([r.counts[name] for r in records]) for name in _VARIANTS}
    time_slopes = {name: fit([max(r.seconds[name], 1e-9) for r in records])
                   for name in _VARIANTS}

    lines = [f"attention scaling over N = {Ns}, d = {d}",
             f"{'variant':<18}{'count slope':>12}{'time slope':>12}  counts"]
    for name in _VARIANTS:
        counts = " ".join(str(r.counts[name]) for r in records)
        lines.append(f"{name:<18}{slopes[name]:>12.4f}{time_slopes[name]:>12.2f}  {counts}")
    for name, want, ok in slope_checks(slopes):
        lines.append(f"slope check {name}: {slopes[name]:.4f} vs {want} +/- 0.15 -> "
                     f"{'PASS' if ok else 'FAIL'}")
    lines.append("gate_projection is quadratic like the motion map (reported, not asserted)")
    lines.append("motion_gate_tiled is motion_map + gate_projection fused over row tiles: "
                 "same order, no N x N map held")
    return records, slopes, "\n".join(lines) + "\n"


def slope_checks(slopes: dict[str, float]) -> list[tuple[str, float, bool]]:
    """(variant, expected order, within 0.15 of it) for each asserted count
    slope: 1 for the linear core, 2 for softmax, the motion map and the
    tiled motion gate."""
    expected = {"linear_core": 1.0, "softmax": 2.0, "motion_map": 2.0,
                "motion_gate_tiled": 2.0}
    return [(name, want, abs(slopes[name] - want) <= 0.15) for name, want in expected.items()]


def bench_csv(records: list[BenchRecord]) -> str:
    # the fused kernel's two columns come last, so the older columns keep their positions
    base = [v for v in _VARIANTS if v != "motion_gate_tiled"]
    cols = ([("count", v) for v in base] + [("seconds", v) for v in base]
            + [("count", "motion_gate_tiled"), ("seconds", "motion_gate_tiled")])
    lines = ["N,d," + ",".join(f"{kind}_{v}" for kind, v in cols)]
    for r in records:
        lines.append(f"{r.N},{r.d}," + ",".join(
            str(r.counts[v]) if kind == "count" else f"{r.seconds[v]:.6e}" for kind, v in cols))
    return "\n".join(lines) + "\n"
