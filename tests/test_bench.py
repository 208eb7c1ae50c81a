"""Operation counting: executed counts against independently derived closed
forms, exact doubling ratios, and the log-log scaling slopes."""

import numpy as np
import pytest

from bevsot import tensor as T
from bevsot.bench import (MacCounter, bench_attention, bench_csv,
                          gate_projection, linear_attention_core,
                          linear_attention_quadratic, motion_gate_tiled,
                          motion_weight_map, softmax_attention)
from bevsot.exceptions import ConfigError


# closed forms derived from the kernel definitions and the documented
# counting rules (matmul m*n*k; elementwise scale/mul/divide size; SiLU one
# multiply per element; adds/exp free)
def softmax_macs(N, d):
    return N * N * d + N * N + N * N + N * N * d  # QK^T, scale, normalize, AV


def linear_core_macs(N, d):
    return 2 * N * d + 2 * N * d * d  # two SiLUs, K^T V, Q (K^T V)


def motion_map_macs(N, d):
    return 2 * N * N * d + 4 * N * N  # two sims, two scales, alpha mul, SiLU


def gate_macs(N, d):
    return N * N * d


def motion_gate_tiled_macs(N, d):
    # two operand scales, per-row (2d-inner) sim, SiLU, gate matmul
    return 2 * N * d + 2 * N * N * d + N * N + N * N * d


@pytest.mark.parametrize("N,d", [(8, 4), (32, 8), (64, 16), (128, 8)])
def test_counts_match_closed_forms_exactly(rng, N, d):
    Q, K, V, Qp, Kp = (rng.standard_normal((N, d)) for _ in range(5))
    c = MacCounter()
    softmax_attention(Q, K, V, counter=c)
    assert c.count == softmax_macs(N, d)
    c = MacCounter()
    linear_attention_core(Q, K, V, counter=c)
    assert c.count == linear_core_macs(N, d)
    c = MacCounter()
    wm = motion_weight_map(Q, K, Qp, Kp, 0.5, counter=c)
    assert c.count == motion_map_macs(N, d)
    c = MacCounter()
    gate_projection(wm, rng.standard_normal((N, d)), np.zeros(d), counter=c)
    assert c.count == gate_macs(N, d)


@pytest.mark.parametrize("N,d", [(8, 4), (32, 8), (64, 16)])
@pytest.mark.parametrize("rows", [1, 3, 64, None])
def test_motion_gate_tiled_count_and_values(rng, monkeypatch, N, d, rows):
    if rows is not None:  # None keeps the default tile budget
        monkeypatch.setattr(T, "MOTION_GATE_TILE_ELEMS", rows * N)
        monkeypatch.setattr(T, "MOTION_GATE_MIN_ROWS", 1)
    Qc, Kc, Qp, Kp, G = (rng.standard_normal((N, d)) for _ in range(5))
    b = rng.standard_normal(d)
    c = MacCounter()
    got = motion_gate_tiled(Qc, Kc, Qp, Kp, 0.7, G, b, counter=c)
    assert c.count == motion_gate_tiled_macs(N, d)
    want = gate_projection(motion_weight_map(Qc, Kc, Qp, Kp, 0.7), G, b)
    assert np.max(np.abs(got - want)) < 1e-12


def test_doubling_ratios_exact():
    d = 8
    for N in (16, 64, 256):
        assert linear_core_macs(2 * N, d) == 2 * linear_core_macs(N, d)
        assert softmax_macs(2 * N, d) == 4 * softmax_macs(N, d)
        assert motion_map_macs(2 * N, d) == 4 * motion_map_macs(N, d)


def test_linear_and_quadratic_orders_agree(rng):
    for _ in range(20):
        N = int(rng.integers(4, 128))
        d = int(rng.integers(2, 16))
        Q, K, V = (rng.standard_normal((N, d)) for _ in range(3))
        a = linear_attention_core(Q, K, V)
        b = linear_attention_quadratic(Q, K, V)
        assert np.max(np.abs(a - b)) < 1e-9


def test_bench_slopes_and_report():
    records, slopes, report = bench_attention([64, 128, 256, 512], d=8, repeats=1)
    assert abs(slopes["linear_core"] - 1.0) <= 0.15
    assert abs(slopes["softmax"] - 2.0) <= 0.15
    assert abs(slopes["motion_map"] - 2.0) <= 0.15
    assert abs(slopes["motion_gate_tiled"] - 2.0) <= 0.15
    assert "slope check motion_gate_tiled" in report
    assert "PASS" in report and "FAIL" not in report
    csv = bench_csv(records)
    assert csv.splitlines()[0] == (
        "N,d,count_softmax,count_linear_core,count_motion_map,count_gate_projection,"
        "seconds_softmax,seconds_linear_core,seconds_motion_map,seconds_gate_projection,"
        "count_motion_gate_tiled,seconds_motion_gate_tiled")
    assert all(len(line.split(",")) == 12 for line in csv.splitlines())
    assert len(csv.splitlines()) == 5


def test_bench_validates_sweep():
    with pytest.raises(ConfigError):
        bench_attention([64, 128, 256], d=8)  # too few
    with pytest.raises(ConfigError):
        bench_attention([64, 128, 128, 256], d=8)  # not strictly increasing


def test_counter_helpers(rng):
    c = MacCounter()
    a, b = rng.standard_normal((3, 4)), rng.standard_normal((4, 5))
    c.matmul(a, b)
    assert c.count == 3 * 5 * 4
    c.ew(np.zeros((2, 2)))
    assert c.count == 3 * 5 * 4 + 4
