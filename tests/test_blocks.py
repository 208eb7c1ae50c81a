"""Tracker block: tokenizer, preprocessing, motion-difference weights, and
the gated linear attention, against hand oracles and forced cases."""

import os
import sys
import warnings

import numpy as np
import pytest

from bevsot import blocks
from bevsot import tensor as T
from bevsot.blocks import (BlockParams, FrameEncoder, block_forward,
                           focus_attention, imm_weights, preprocess, tokenize)
from bevsot.exceptions import NumericError, ShapeError
from bevsot.gradcheck import gradcheck_params
from bevsot.tensor import Tape, Tensor


def leaf(arr):
    return Tensor(np.asarray(arr, dtype=float), requires_grad=True)


def make_block(H=4, C=4, heads=1, rng=None, imm=True, dwc=True, linear=True,
               unshared=False):
    rng = rng or np.random.default_rng(0)
    N = H * H
    d = C // heads
    u = lambda *s: leaf(rng.uniform(-0.5, 0.5, size=s))
    enc = FrameEncoder(u(3, 3, C, C), u(C))
    bp = BlockParams(
        H=H, W=H, C=C, heads=heads, enc=enc, enc_prev=enc, pos=u(N, C),
        ln1_g=leaf(np.ones(C)), ln1_b=leaf(np.zeros(C)),
        wq=u(C, C), wk=u(C, C), wv=u(C, C),
        lo_w=u(C, C), lo_b=u(C),
        ln2_g=leaf(np.ones(C)), ln2_b=leaf(np.zeros(C)),
        ffn1_w=u(C, 2 * C), ffn1_b=u(2 * C), ffn2_w=u(2 * C, C), ffn2_b=u(C),
    )

    def layers(enc):
        if dwc:
            enc.dwc_w = u(3, 3, C)
        if linear:
            enc.lin_w, enc.lin_b = u(C, C), u(C)
        return enc

    layers(enc)
    if imm:
        bp.alpha = leaf(0.5)
        bp.gate_w, bp.gate_b = u(heads, N, d), u(heads, d)
    if unshared:
        bp.enc_prev = layers(FrameEncoder(u(3, 3, C, C), u(C)))
    return bp


def block_leaves(bp):
    """Every trainable tensor of a block by name, its encoders' included; an
    encoder that both frames share is collected once."""
    named = list(vars(bp).items()) + [(f"enc.{n}", t) for n, t in vars(bp.enc).items()]
    if bp.enc_prev is not bp.enc:
        named += [(f"enc_prev.{n}", t) for n, t in vars(bp.enc_prev).items()]
    return {name: t for name, t in named if isinstance(t, Tensor) and t.requires_grad}


def grids(rng, H=4, C=4, identical=False):
    prev = Tensor(rng.standard_normal((H, H, C)))
    curr = prev if identical else Tensor(rng.standard_normal((H, H, C)))
    return prev, curr


# ---------------------------------------------------------------------------
# tokenize


def test_tokenize_identical_frames_identical_tokens(rng):
    bp = make_block(rng=rng)
    xp, xc = tokenize(*grids(rng, identical=True), bp)
    np.testing.assert_array_equal(xp.data, xc.data)


def test_tokenize_zero_everything_zero_tokens(rng):
    bp = make_block(rng=rng)
    bp.enc.cnn_b = Tensor(np.zeros(4))
    bp.pos = Tensor(np.zeros((16, 4)))
    xp, xc = tokenize(Tensor(np.zeros((4, 4, 4))), Tensor(np.zeros((4, 4, 4))), bp)
    np.testing.assert_array_equal(xp.data, np.zeros((16, 4)))
    np.testing.assert_array_equal(xc.data, np.zeros((16, 4)))


def test_tokenize_matches_conv_flatten_oracle(rng):
    from tests.test_tensor import conv2d_loop
    bp = make_block(rng=rng)
    prev, curr = grids(rng)
    want = (conv2d_loop(curr.data, bp.enc.cnn_w.data, bp.enc.cnn_b.data)
            .reshape(16, 4) + bp.pos.data)
    _, xc = tokenize(prev, curr, bp)
    np.testing.assert_allclose(xc.data, want, atol=1e-12)


def test_tokenize_resolution_mismatch(rng):
    bp = make_block(rng=rng)
    with pytest.raises(ShapeError):
        tokenize(Tensor(np.zeros((8, 8, 4))), Tensor(np.zeros((8, 8, 4))), bp)


# ---------------------------------------------------------------------------
# preprocess


def test_preprocess_shared_path_equal_outputs(rng):
    bp = make_block(rng=rng)
    x = Tensor(rng.standard_normal((16, 4)))
    a, b = preprocess(x, x, bp)
    np.testing.assert_array_equal(a.data, b.data)


def test_preprocess_constant_channel_forced_by_affine(rng):
    bp = make_block(rng=rng)
    # per-token constant channels normalize to zero, so two different
    # constant inputs give the same downstream output
    x1 = Tensor(np.full((16, 4), 3.0))
    x2 = Tensor(np.full((16, 4), -1.5))
    _, o1 = preprocess(x1, x1, bp)
    _, o2 = preprocess(x2, x2, bp)
    np.testing.assert_allclose(o1.data, o2.data, atol=1e-12)


def test_preprocess_gradcheck(rng):
    bp = make_block(rng=rng)
    x = Tensor(rng.standard_normal((16, 4)))
    probe = Tensor(rng.standard_normal((16, 4)))

    def f():
        _, out = preprocess(x, x, bp)
        return T.sum_all(T.mul(out, probe))

    params = [("ln1_g", bp.ln1_g), ("dwc", bp.enc.dwc_w), ("lin", bp.enc.lin_w)]
    errs = gradcheck_params(f, params, samples_per_param=8, rng=rng)
    assert max(errs.values()) < 1e-4


# ---------------------------------------------------------------------------
# motion-difference weights


def test_imm_identical_frames_alpha_one_is_exactly_zero(rng):
    bp = make_block(rng=rng)
    bp.alpha = leaf(1.0)
    x = Tensor(rng.standard_normal((16, 4)))
    wm = imm_weights(x, x, bp)
    assert np.all(wm.data == 0.0)


def test_imm_alpha_zero_ignores_previous_frame(rng):
    bp = make_block(rng=rng)
    bp.alpha = leaf(0.0)
    xc = Tensor(rng.standard_normal((16, 4)))
    base = imm_weights(Tensor(rng.standard_normal((16, 4))), xc, bp)
    perturbed = imm_weights(Tensor(rng.standard_normal((16, 4)) * 100.0), xc, bp)
    np.testing.assert_array_equal(base.data, perturbed.data)


def test_imm_small_case_matches_matrix_oracle(rng):
    bp = make_block(H=2, C=2, rng=rng)  # N = 4, d = 2
    xp = rng.standard_normal((4, 2))
    xc = rng.standard_normal((4, 2))
    got = imm_weights(Tensor(xp), Tensor(xc), bp).data[0]
    qc, kc = xc @ bp.wq.data, xc @ bp.wk.data
    qp, kp = xp @ bp.wq.data, xp @ bp.wk.data
    pre = (qc @ kc.T) / np.sqrt(2) - 0.5 * (qp @ kp.T) / np.sqrt(2)
    want = pre / (1.0 + np.exp(-pre))
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_imm_swap_negates_pre_silu_difference(rng):
    bp = make_block(rng=rng)
    bp.alpha = leaf(1.0)
    xa = Tensor(rng.standard_normal((16, 4)))
    xb = Tensor(rng.standard_normal((16, 4)))

    def pre_silu(prev, curr):
        q = lambda x: x.data @ bp.wq.data
        k = lambda x: x.data @ bp.wk.data
        inv = 1.0 / np.sqrt(bp.d)
        return (q(curr) @ k(curr).T) * inv - (q(prev) @ k(prev).T) * inv

    np.testing.assert_array_equal(pre_silu(xa, xb), -pre_silu(xb, xa))


def test_imm_multi_head_shape(rng):
    bp = make_block(H=4, C=4, heads=2, rng=rng)
    wm = imm_weights(Tensor(rng.standard_normal((16, 4))),
                     Tensor(rng.standard_normal((16, 4))), bp)
    assert wm.shape == (2, 16, 16)


def test_imm_disabled_raises(rng):
    bp = make_block(rng=rng, imm=False)
    x = Tensor(rng.standard_normal((16, 4)))
    with pytest.raises(ShapeError):
        imm_weights(x, x, bp)


# ---------------------------------------------------------------------------
# gated linear attention


def test_attention_zero_values_gives_output_bias(rng):
    bp = make_block(rng=rng)
    bp.wv = Tensor(np.zeros((4, 4)))
    x = Tensor(rng.standard_normal((16, 4)))
    out = focus_attention(x, T.scale(x, 0.5), bp)
    np.testing.assert_allclose(out.data, np.broadcast_to(bp.lo_b.data, (16, 4)),
                               atol=1e-15)


def test_attention_linear_order_matches_quadratic(rng):
    from bevsot.bench import linear_attention_quadratic
    bp = make_block(H=8, C=8, rng=np.random.default_rng(2))  # N=64, d=8
    x = rng.standard_normal((64, 8))
    q, k, v = x @ bp.wq.data, x @ bp.wk.data, x @ bp.wv.data
    silu = lambda z: z / (1.0 + np.exp(-z))
    linear_order = silu(q) @ (silu(k).T @ v)
    quad_order = linear_attention_quadratic(q, k, v)
    assert np.max(np.abs(linear_order - quad_order)) < 1e-9


def test_attention_gate_saturation_matches_ungated(rng):
    bp = make_block(rng=rng)
    x = Tensor(rng.standard_normal((16, 4)))
    xp = Tensor(rng.standard_normal((16, 4)))
    bp.gate_w = Tensor(np.zeros((1, 16, 4)))
    bp.gate_b = Tensor(np.full((1, 4), 60.0))  # sigmoid(60) ~ 1
    gated = focus_attention(x, xp, bp)
    ungated = focus_attention(x, None, bp)
    np.testing.assert_allclose(gated.data, ungated.data, atol=1e-6)


def test_attention_gate_strictly_inside_unit_interval(rng):
    bp = make_block(rng=rng)
    x = Tensor(rng.standard_normal((16, 4)))
    wm = imm_weights(Tensor(rng.standard_normal((16, 4))), x, bp)
    gate = T.sigmoid(T.add(T.matmul(T.take(wm, 0), T.take(bp.gate_w, 0)),
                           T.take(bp.gate_b, 0)))
    assert np.all(gate.data > 0.0) and np.all(gate.data < 1.0)


def test_attention_multi_head_concat(rng):
    bp = make_block(H=4, C=4, heads=2, rng=rng)
    x = Tensor(rng.standard_normal((16, 4)))
    out = focus_attention(x, None, bp)
    assert out.shape == (16, 4)


def _per_head_attention(xb_curr, xb_prev, bp):
    """Per-head oracle of focus_attention: slice Q/K/V into heads, gate each
    head with its own slice of the materialized motion maps and gate weights,
    and concatenate the heads before the output projection."""
    d = bp.d
    split = lambda t: [T.slice_cols(t, i * d, (i + 1) * d) for i in range(bp.heads)]
    qs, ks, vs = (split(T.matmul(xb_curr, w)) for w in (bp.wq, bp.wk, bp.wv))
    wm = None if xb_prev is None else imm_weights(xb_prev, xb_curr, bp)
    outs = []
    for i in range(bp.heads):
        core = T.matmul(T.silu(qs[i]), T.matmul(T.transpose(T.silu(ks[i])), vs[i]))
        if wm is not None:
            gate = T.sigmoid(T.add(T.matmul(T.take(wm, i), T.take(bp.gate_w, i)),
                                   T.take(bp.gate_b, i)))
            core = T.mul(core, gate)
        outs.append(core)
    return T.linear(T.concat(outs, axis=-1), bp.lo_w, bp.lo_b)


def _value_and_grads(f, leaves, probe):
    for t in leaves.values():
        t.grad = None
    with Tape() as tape:
        out = f()
        tape.backward(T.sum_all(T.mul(out, Tensor(probe))))
    return out.data, {name: t.grad.copy() for name, t in leaves.items() if t.grad is not None}


@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("what", ["ungated", "gated", "block"])
def test_multi_head_matches_per_head_oracle(monkeypatch, heads, what):
    # H=4, C=8: 16 tokens; d = 8, 4, 2
    rng = np.random.default_rng(11)
    bp = make_block(C=8, heads=heads, rng=rng, imm=what != "ungated")
    leaves = block_leaves(bp)
    if what == "block":
        prev, curr = (leaf(rng.standard_normal((4, 4, 8))) for _ in range(2))
        leaves.update(prev=prev, curr=curr)
        f = lambda: blocks.block_forward(prev, curr, bp)
    else:
        xc = leaves["xc"] = leaf(rng.standard_normal((16, 8)))
        xp = leaf(rng.standard_normal((16, 8))) if what == "gated" else None
        if xp is not None:
            leaves["xp"] = xp
        f = lambda: blocks.focus_attention(xc, xp, bp)
    probe = rng.standard_normal((16, 8))
    got, got_grads = _value_and_grads(f, leaves, probe)
    monkeypatch.setattr(blocks, "focus_attention", _per_head_attention)
    want, want_grads = _value_and_grads(f, leaves, probe)
    assert np.max(np.abs(got - want)) < 1e-12
    assert got_grads.keys() == want_grads.keys()
    for name, g in want_grads.items():
        assert got_grads[name].shape == g.shape, name
        assert np.max(np.abs(got_grads[name] - g)) < 1e-12, name


def test_attention_prev_frame_needs_motion_module(rng):
    bp = make_block(rng=rng, imm=False)
    x = Tensor(rng.standard_normal((16, 4)))
    with pytest.raises(ShapeError):
        focus_attention(x, x, bp)


# ---------------------------------------------------------------------------
# fused row-tiled motion gate


def _gate_leaves(rng, N=16, C=4, heads=1, alpha=0.5):
    """Leaves X = [Q | K] per frame, alpha, and per-head gate parameters."""
    d = C // heads
    return dict(xc=leaf(rng.standard_normal((N, 2 * C))),
                xp=leaf(rng.standard_normal((N, 2 * C))),
                alpha=leaf(alpha), gate_w=leaf(rng.uniform(-0.5, 0.5, (heads, N, d))),
                gate_b=leaf(rng.uniform(-0.5, 0.5, (heads, d))))


def _oracle_gates(lv, heads):
    """sigmoid(take(imm_weights) take(gate_w) + gate_b) per head. Selector
    projections make imm_weights' Q and K the leaf halves themselves, so the
    leaf gradients are exactly the fused op's q/k input gradients."""
    C = lv["xc"].shape[1] // 2
    eye, zero = np.eye(C), np.zeros((C, C))
    bp = BlockParams(H=1, W=C, C=C, heads=heads, enc=None, enc_prev=None, pos=None,
                     ln1_g=None, ln1_b=None, wq=Tensor(np.vstack([eye, zero])),
                     wk=Tensor(np.vstack([zero, eye])), wv=None, lo_w=None, lo_b=None,
                     ln2_g=None, ln2_b=None, ffn1_w=None, ffn1_b=None, ffn2_w=None,
                     ffn2_b=None, alpha=lv["alpha"])
    wm = imm_weights(lv["xp"], lv["xc"], bp)
    return [T.sigmoid(T.add(T.matmul(T.take(wm, i), T.take(lv["gate_w"], i)),
                            T.take(lv["gate_b"], i))) for i in range(heads)]


def _fused_gates(lv, heads):
    C = lv["xc"].shape[1] // 2

    def qk(x):
        return T.slice_cols(x, 0, C), T.slice_cols(x, C, 2 * C)

    return [T.motion_gate(*qk(lv["xc"]), *qk(lv["xp"]), lv["alpha"], lv["gate_w"], lv["gate_b"])]


def _run_gates(build, lv, heads, probe):
    for t in lv.values():
        t.grad = None
    with Tape() as tape:
        gates = build(lv, heads)
        loss = T.sum_all(T.mul(T.concat(gates, axis=-1), Tensor(probe)))
        tape.backward(loss)
    return (np.concatenate([g.data for g in gates], axis=-1),
            {name: t.grad.copy() for name, t in lv.items()})


@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, [0.5]])
@pytest.mark.parametrize("rows", [1, 5, 16, 40])
def test_motion_gate_matches_materialized_oracle(monkeypatch, heads, alpha, rows):
    # 16 tokens in tiles of 1 row, 5 rows (not a divisor), the whole map, more
    monkeypatch.setattr(T, "MOTION_GATE_ROWS", rows)
    rng = np.random.default_rng(7)
    lv = _gate_leaves(rng, heads=heads, alpha=alpha)
    probe = rng.standard_normal((16, 4))
    want, want_grads = _run_gates(_oracle_gates, lv, heads, probe)
    got, got_grads = _run_gates(_fused_gates, lv, heads, probe)
    assert np.max(np.abs(got - want)) < 1e-9
    for name, g in want_grads.items():
        assert got_grads[name].shape == g.shape, name
        assert np.max(np.abs(got_grads[name] - g)) < 1e-9, name


def test_motion_gate_gradcheck(monkeypatch):
    monkeypatch.setattr(T, "MOTION_GATE_ROWS", 5)  # 5-row tiles of 12
    rng = np.random.default_rng(3)
    qc, kc, qp, kp = (leaf(rng.standard_normal((12, 3))) for _ in range(4))
    alpha = leaf(0.7)
    G, b = leaf(rng.uniform(-0.5, 0.5, (1, 12, 3))), leaf(rng.uniform(-0.5, 0.5, (1, 3)))
    probe = Tensor(rng.standard_normal((12, 3)))

    def f():
        return T.sum_all(T.mul(T.motion_gate(qc, kc, qp, kp, alpha, G, b), probe))

    params = [("qc", qc), ("kc", kc), ("qp", qp), ("kp", kp), ("alpha", alpha),
              ("G", G), ("b", b)]
    errs = gradcheck_params(f, params)
    assert max(errs.values()) < 1e-7, errs


def _sigmoid(x):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def unbuffered_motion_gate(qc, kc, qp, kp, alpha, G, b):
    """T.motion_gate without its preallocated buffers: fresh -S, 1 + exp(-S),
    -SiLU(S) and sigmoid(S) arrays per tile, in forward and again in
    backward's recompute, and a fresh -SiLU(S) @ G per tile. Same tiles,
    same expression order, so the buffered op must match it bit for bit."""
    N, C = qc.shape
    heads = G.shape[0]
    d = C // heads
    inv = 1.0 / np.sqrt(d)
    a = alpha.item()
    cols = [slice(h * d, (h + 1) * d) for h in range(heads)]
    lhs = [np.concatenate([qc.data[:, c] * -inv, qp.data[:, c] * (a * inv)], axis=1)
           for c in cols]
    rhs_t = [np.concatenate([kc.data[:, c], kp.data[:, c]], axis=1).T for c in cols]
    rows = T.motion_gate_rows(N)
    tiles = [(h, c, slice(lo, min(lo + rows, N)))
             for h, c in enumerate(cols) for lo in range(0, N, rows)]

    def neg_silu_tile(h, t):
        ns = lhs[h][t] @ rhs_t[h]
        with np.errstate(over="ignore"):
            q = np.exp(ns) + 1.0
        return ns / q, q

    z = np.empty((N, C))
    for h, c, t in tiles:
        z[t, c] = neg_silu_tile(h, t)[0] @ G.data[h]
    z = b.data.reshape(C) - z
    T._ensure_finite(z, "motion_gate")
    gate = _sigmoid(z)

    def bw(g):
        dz = g * gate * (1.0 - gate)
        dlhs = [np.empty((N, 2 * d)) for _ in cols]
        drhs_t = [np.zeros((2 * d, N)) for _ in cols]
        dG = np.zeros_like(G.data)
        for h, c, t in tiles:
            m, q = neg_silu_tile(h, t)
            sig = 1.0 / q
            dG[h] -= m.T @ dz[t, c]
            dns = (dz[t, c] @ G.data[h].T) * (m * (1.0 - sig) - sig)
            dlhs[h][t] = dns @ rhs_t[h].T
            drhs_t[h] += lhs[h][t].T @ dns
        dqp = np.hstack([x[:, d:] for x in dlhs])
        return (np.hstack([x[:, :d] for x in dlhs]) * -inv, np.hstack([x[:d].T for x in drhs_t]),
                dqp * (a * inv), np.hstack([x[d:].T for x in drhs_t]),
                np.full(alpha.shape, inv * float(np.sum(dqp * qp.data))), dG,
                dz.reshape(N, heads, d).sum(axis=0))

    return T._out(gate, "motion_gate", (qc, kc, qp, kp, alpha, G, b), bw)


@pytest.mark.parametrize("N,d,heads,rows", [(1024, 8, 1, None), (256, 16, 1, None),
                                            (1024, 4, 2, None), (12, 3, 2, 5)])
def test_motion_gate_is_bit_identical_to_unbuffered_oracle(monkeypatch, N, d, heads, rows):
    # desk stages 1 and 2 in the default 64-row tiles, two heads, and two heads
    # in 5-row tiles that do not divide N (the last tile uses part of each buffer)
    if rows is not None:
        monkeypatch.setattr(T, "MOTION_GATE_ROWS", rows)
    rng = np.random.default_rng(N + d + heads)
    C = heads * d
    qc, kc, qp, kp = (leaf(rng.standard_normal((N, C))) for _ in range(4))
    leaves = [qc, kc, qp, kp, leaf(0.7), leaf(rng.uniform(-0.5, 0.5, (heads, N, d))),
              leaf(rng.uniform(-0.5, 0.5, (heads, d)))]
    probe = Tensor(rng.standard_normal((N, C)))

    def run(op):
        for t in leaves:
            t.grad = None
        with Tape() as tape:
            out = op(*leaves)
            tape.backward(T.sum_all(T.mul(out, probe)))
        return out.data, [t.grad for t in leaves]

    want, want_grads = run(unbuffered_motion_gate)
    got, got_grads = run(T.motion_gate)
    np.testing.assert_array_equal(got, want)
    assert len(got_grads) == 7
    for g, w in zip(got_grads, want_grads):
        np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("N,rows", [(12, 12), (64, 64), (256, 64), (1024, 64),
                                    (4096, 64), (16384, 64)])
def test_motion_gate_rows_are_64_or_all_of_n(N, rows):
    # the desk's stage 3 (N = 64) and anything smaller is one tile
    assert T.motion_gate_rows(N) == rows


def test_motion_gate_row_tiles_change_only_cross_tile_sums(monkeypatch):
    # desk stage 2 (N = 256, d = 16) in 64-row tiles against one 256-row tile:
    # every output row is computed alone, so the forward is bit-identical;
    # the gradients summed across tiles (kc, kp, G, alpha) are reordered sums
    rng = np.random.default_rng(256)
    N, d = 256, 16
    leaves = [leaf(rng.standard_normal((N, d))) for _ in range(4)]
    leaves += [leaf(0.7), leaf(rng.uniform(-0.5, 0.5, (1, N, d))),
               leaf(rng.uniform(-0.5, 0.5, (1, d)))]
    probe = Tensor(rng.standard_normal((N, d)))

    def run(rows):
        monkeypatch.setattr(T, "MOTION_GATE_ROWS", rows)
        for t in leaves:
            t.grad = None
        with Tape() as tape:
            out = T.motion_gate(*leaves)
            tape.backward(T.sum_all(T.mul(out, probe)))
        return out.data, [t.grad for t in leaves]

    want, want_grads = run(256)
    got, got_grads = run(64)
    np.testing.assert_array_equal(got, want)
    for g, w in zip(got_grads, want_grads):
        assert np.max(np.abs(g - w)) <= 1e-14 * np.max(np.abs(w))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_motion_gate_overflow_raises_naming_op(rng):
    # S overflows to +inf and so does Z, whose sigmoid would be a finite 1
    q = Tensor(np.full((8, 2), 1e200))
    G, b = Tensor(rng.uniform(0.1, 1.0, (1, 8, 2))), Tensor(np.zeros((1, 2)))
    with pytest.raises(NumericError, match="motion_gate"):
        T.motion_gate(q, q, q, q, Tensor(0.0), G, b)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_motion_gate_minus_inf_tile_raises_naming_op(rng):
    # S = -inf: the tile's -S / (1 + exp(-S)) is inf / inf, a NaN in Z
    q, k = Tensor(np.full((8, 2), -1e200)), Tensor(np.full((8, 2), 1e200))
    G, b = Tensor(rng.uniform(0.1, 1.0, (1, 8, 2))), Tensor(np.zeros((1, 2)))
    with pytest.raises(NumericError, match="motion_gate"):
        T.motion_gate(q, k, q, k, Tensor(0.0), G, b)


def test_motion_gate_exp_overflow_tile_matches_materialized_oracle():
    # rows 0-7 have S = -800, where exp(-S) overflows to inf and SiLU(S) is
    # -0: the quotient tile must stay finite and agree with the oracle
    rng = np.random.default_rng(800)
    lv = _gate_leaves(rng)
    xc = lv["xc"].data
    xc[:8, :4] = -10.0
    xc[:, 4:] = 40.0 + 1e-3 * rng.standard_normal((16, 4))  # S = (-10 * 40 * 4) / 2
    lv["xp"].data[:8] *= 1e-3
    probe = rng.standard_normal((16, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got, got_grads = _run_gates(_fused_gates, lv, 1, probe)
    want, want_grads = _run_gates(_oracle_gates, lv, 1, probe)
    assert np.isfinite(got).all()
    assert np.max(np.abs(got - want)) < 1e-9
    for name, g in want_grads.items():
        assert np.max(np.abs(got_grads[name] - g)) < 1e-9, name


# ---------------------------------------------------------------------------
# whole block


def test_block_residual_identity_when_branches_zeroed(rng):
    bp = make_block(rng=rng)
    bp.lo_w = Tensor(np.zeros((4, 4)))
    bp.lo_b = Tensor(np.zeros(4))
    bp.ffn2_w = Tensor(np.zeros((8, 4)))
    bp.ffn2_b = Tensor(np.zeros(4))
    pair = grids(rng)
    out = block_forward(*pair, bp)
    _, x_curr = tokenize(*pair, bp)
    np.testing.assert_array_equal(out.data, x_curr.data)


def test_block_no_imm_matches_ungated_bit_for_bit(rng):
    seed_rng = np.random.default_rng(5)
    gated = make_block(rng=seed_rng, imm=True)
    pair = grids(rng)
    # same weights, motion module absent
    ungated = BlockParams(**{
        f: getattr(gated, f) for f in (
            "H", "W", "C", "heads", "enc", "enc_prev", "pos", "ln1_g", "ln1_b",
            "wq", "wk", "wv", "lo_w", "lo_b", "ln2_g", "ln2_b",
            "ffn1_w", "ffn1_b", "ffn2_w", "ffn2_b")})
    out_off = block_forward(*pair, ungated)
    # reference: attention with gate forced to exactly 1 via direct compute
    x_curr = tokenize(*pair, gated)[1]
    xb_curr = preprocess(x_curr, x_curr, gated)[1]
    ref = T.add(focus_attention(xb_curr, None, gated), x_curr)
    ref = T.add(T.linear(T.silu(T.linear(T.layernorm(ref, gated.ln2_g, gated.ln2_b),
                                         gated.ffn1_w, gated.ffn1_b)),
                         gated.ffn2_w, gated.ffn2_b), ref)
    np.testing.assert_array_equal(out_off.data, ref.data)


def test_block_no_imm_independent_of_prev_frame(rng):
    bp = make_block(rng=rng, imm=False)
    curr = Tensor(rng.standard_normal((4, 4, 4)))
    out1 = block_forward(Tensor(rng.standard_normal((4, 4, 4))), curr, bp)
    out2 = block_forward(Tensor(np.zeros((4, 4, 4))), curr, bp)
    np.testing.assert_array_equal(out1.data, out2.data)


@pytest.mark.parametrize("kwargs", [dict(), dict(dwc=False), dict(linear=False),
                                    dict(dwc=False, linear=False, imm=False),
                                    dict(unshared=True), dict(heads=2)])
def test_block_gradcheck_all_params(rng, kwargs):
    bp = make_block(rng=np.random.default_rng(9), **kwargs)
    pair = grids(rng)
    probe = Tensor(rng.standard_normal((16, 4)))

    def f():
        return T.sum_all(T.mul(block_forward(*pair, bp), probe))

    params = list(block_leaves(bp).items())
    errs = gradcheck_params(f, params, samples_per_param=4,
                            rng=np.random.default_rng(1))
    assert max(errs.values()) < 1e-4, errs


def test_block_unshared_uses_prev_copies(rng):
    bp = make_block(rng=np.random.default_rng(9), unshared=True)
    pair = grids(rng, identical=True)
    xp, xc = tokenize(*pair, bp)
    # identical inputs now tokenize differently because weights differ
    assert np.any(xp.data != xc.data)


def test_desk_training_step_tape_has_no_per_head_split(monkeypatch):
    """One desk-preset training step (batch 4, one head) records no column
    slice or head take from blocks.py: the heads stay an axis inside the ops."""
    from collections import Counter
    from dataclasses import replace

    from bevsot import scene, train
    from bevsot.config import RunConfig
    from bevsot.model import TrackerModel

    cfg = RunConfig()
    assert (cfg.heads, cfg.batch) == (1, 4)
    samples = train.make_training_samples([scene.generate(cfg.scene_config(seed=3))],
                                          cfg.crop_spec())[:cfg.batch]
    nodes = Counter()
    original = T._out

    def recording_out(data, op, inputs, backward_fn):
        t = original(data, op, inputs, backward_fn)
        if t.requires_grad:  # recorded on the tape; frame 2 called the op
            nodes[op, os.path.basename(sys._getframe(2).f_code.co_filename)] += 1
        return t

    monkeypatch.setattr(T, "_out", recording_out)
    train.train(TrackerModel(cfg.model_config(), seed=3), samples,
                replace(cfg.train_settings(), epochs=1))
    assert nodes["slice_cols", "blocks.py"] == nodes["take", "blocks.py"] == 0
    # per sample, head.conv2 and head.conv3 run on a 1x1 grid as a linear
    # layer over their centre tap, one linear node each; the last stage's
    # down conv runs on the current frame only
    assert sum(nodes.values()) == 624
