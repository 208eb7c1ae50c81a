"""Attention complexity benchmark: exact multiply-add counts and wall time
for the softmax baseline, the right-associated linear attention core, the
motion-difference weight construction and its gate projection, and the
fused row-tiled motion gate, across a token-count sweep.

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
    """Forward of ``tensor.motion_gate``: motion map and gate projection fused
    over tiles of query rows, with the op's own tile height.

    1/sqrt(d) and alpha are folded into the N x d operands once, so each
    tile is one (rows x 2d) @ (2d x N) product followed by SiLU and the
    gate matmul: 3 N^2 d + N^2 + 2 N d in all, for any tile height, against
    3 N^2 d + 4 N^2 for motion_weight_map plus gate_projection.
    """
    c = counter or MacCounter()
    N, d = Qc.shape
    inv = 1.0 / math.sqrt(d)
    lhs = np.concatenate([c.ew(Qc * inv), c.ew(Qp * (-alpha * inv))], axis=1)
    rhs = np.concatenate([Kc, Kp], axis=1)
    rows = min(N, max(1, T.MOTION_GATE_TILE_ELEMS // N))
    out = np.empty((N, G.shape[1]))
    for lo in range(0, N, rows):
        s = c.matmul(lhs[lo:lo + rows], rhs.T)
        out[lo:lo + rows] = _sigmoid_value(c.matmul(c.silu(s), G) + b)
    return out


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
    report. Slopes for the linear core, softmax baseline, motion map and
    tiled motion gate are asserted at 1, 2, 2, 2 (tolerance 0.15) in the
    report.
    """
    if len(Ns) < 4 or any(b <= a for a, b in zip(Ns, Ns[1:])):
        raise ConfigError(f"need >= 4 strictly increasing N values, got {Ns}")
    rng = np.random.default_rng(seed)
    records = []
    for N in Ns:
        rec = BenchRecord(N=N, d=d)
        Q, K, V, Qp, Kp = (rng.standard_normal((N, d)) / d ** 0.25 for _ in range(5))
        G = rng.standard_normal((N, d)) / math.sqrt(N)
        b = np.zeros(d)
        wm = None

        def run_softmax():
            return softmax_attention(Q, K, V, counter=cnt)

        def run_linear():
            return linear_attention_core(Q, K, V, counter=cnt)

        def run_motion():
            return motion_weight_map(Q, K, Qp, Kp, 0.5, counter=cnt)

        def run_gate_tiled():
            return motion_gate_tiled(Q, K, Qp, Kp, 0.5, G, b, counter=cnt)

        timed = {"softmax": run_softmax, "linear_core": run_linear,
                 "motion_map": run_motion, "motion_gate_tiled": run_gate_tiled}
        for name, fn in timed.items():
            cnt = MacCounter()
            fn()
            rec.counts[name] = cnt.count
            best = math.inf
            for _ in range(repeats):
                cnt = MacCounter()
                t0 = time.perf_counter()
                out = fn()
                best = min(best, time.perf_counter() - t0)
                if name == "motion_map":
                    wm = out
            rec.seconds[name] = best

        cnt = MacCounter()
        gate_projection(wm, G, b, counter=cnt)
        rec.counts["gate_projection"] = cnt.count
        t0 = time.perf_counter()
        gate_projection(wm, G, b)
        rec.seconds["gate_projection"] = time.perf_counter() - t0
        records.append(rec)

    slopes = {}
    logn = np.log([r.N for r in records])
    for name in _VARIANTS:
        slopes[name] = float(np.polyfit(logn, np.log([r.counts[name] for r in records]), 1)[0])
    time_slopes = {}
    for name in _VARIANTS:
        secs = np.array([max(r.seconds[name], 1e-9) for r in records])
        time_slopes[name] = float(np.polyfit(logn, np.log(secs), 1)[0])

    expected = {"linear_core": 1.0, "softmax": 2.0, "motion_map": 2.0,
                "motion_gate_tiled": 2.0}
    lines = [f"attention scaling over N = {Ns}, d = {d}",
             f"{'variant':<18}{'count slope':>12}{'time slope':>12}  counts"]
    for name in _VARIANTS:
        counts = " ".join(str(r.counts[name]) for r in records)
        lines.append(f"{name:<18}{slopes[name]:>12.4f}{time_slopes[name]:>12.2f}  {counts}")
    for name, want in expected.items():
        ok = abs(slopes[name] - want) <= 0.15
        lines.append(f"slope check {name}: {slopes[name]:.4f} vs {want} +/- 0.15 -> "
                     f"{'PASS' if ok else 'FAIL'}")
    lines.append("gate_projection is quadratic like the motion map (reported, not asserted)")
    lines.append("motion_gate_tiled is motion_map + gate_projection fused over row tiles: "
                 "same order, no N x N map held")
    return records, slopes, "\n".join(lines) + "\n"


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
