"""Tensor op forward oracles and finite-difference backward checks."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from bevsot import config as cfgmod
from bevsot import tensor as T
from bevsot.exceptions import NumericError, ShapeError
from bevsot.gradcheck import gradcheck
from bevsot.model import ModelConfig, TrackerModel, _head_pad
from bevsot.tensor import Tape, Tensor

from tests.test_blocks import sigmoid  # the gate oracle's tape op, kept out of src


def leaf(arr):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True)


def grad_of(f, *tensors):
    with Tape() as tape:
        out = f(*tensors)
        for t in tensors:
            t.grad = None
        tape.backward(out)
    return [t.grad for t in tensors]


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    a = Tensor(np.arange(6, dtype=float).reshape(2, 3))
    out = T.matmul(Tensor(np.eye(2)), a)
    np.testing.assert_array_equal(out.data, a.data)


def test_matmul_hand_case():
    out = T.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
    np.testing.assert_array_equal(out.data, [[3.0], [7.0]])


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_matmul_grad_vs_finite_differences(rng):
    a = leaf(rng.standard_normal((5, 7)))
    b = leaf(rng.standard_normal((7, 3)))
    assert gradcheck(lambda x: T.sum_all(T.matmul(x, b)), a) < 1e-6
    assert gradcheck(lambda x: T.sum_all(T.matmul(a, x)), b) < 1e-6


def test_matmul_associativity(rng):
    a, b, c = (rng.standard_normal((16, 16)) for _ in range(3))
    left = (a @ b) @ c
    right = a @ (b @ c)
    assert np.max(np.abs(left - right)) < 1e-9


# ---------------------------------------------------------------------------
# conv2d


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


def test_conv2d_zero_input_zero_bias():
    x = Tensor(np.zeros((4, 4, 3)))
    w = Tensor(np.random.default_rng(1).standard_normal((3, 3, 3, 5)))
    out = T.conv2d(x, w, Tensor(np.zeros(5)))
    np.testing.assert_array_equal(out.data, np.zeros((4, 4, 5)))


def test_conv2d_identity_center_kernel_passthrough(rng):
    x = Tensor(rng.standard_normal((1, 1, 4)))
    w = np.zeros((3, 3, 4, 4))
    w[1, 1] = np.eye(4)
    out = T.conv2d(x, Tensor(w), stride=1)
    np.testing.assert_allclose(out.data, x.data, rtol=0, atol=0)


@pytest.mark.parametrize("stride,padding", [(1, 1), (2, 1), (2, 0)])
def test_conv2d_matches_loop_oracle(rng, stride, padding):
    x = rng.standard_normal((8, 8, 4))
    w = rng.standard_normal((3, 3, 4, 6))
    b = rng.standard_normal(6)
    got = T.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding)
    want = conv2d_loop(x, w, b, stride=stride, padding=padding)
    np.testing.assert_allclose(got.data, want, atol=1e-12)


def test_conv2d_output_shape_is_ceil():
    x = Tensor(np.zeros((5, 5, 2)))
    w = Tensor(np.zeros((3, 3, 2, 2)))
    assert T.conv2d(x, w, stride=2).shape == (3, 3, 2)  # ceil(5/2)


def test_conv2d_depthwise_matches_loop(rng):
    x = rng.standard_normal((6, 6, 4))
    w = rng.standard_normal((3, 3, 4))
    dense = np.zeros((3, 3, 4, 4))
    for c in range(4):
        dense[:, :, c, c] = w[:, :, c]
    got = T.conv2d(Tensor(x), Tensor(w), stride=1, depthwise=True)
    want = conv2d_loop(x, dense, None, stride=1, padding=1)
    np.testing.assert_allclose(got.data, want, atol=1e-12)


def test_conv2d_depthwise_channel_mismatch():
    with pytest.raises(ShapeError):
        T.conv2d(Tensor(np.zeros((4, 4, 3))), Tensor(np.zeros((3, 3, 5))),
                 depthwise=True)


def test_conv2d_nonpositive_stride():
    with pytest.raises(ShapeError):
        T.conv2d(Tensor(np.zeros((4, 4, 1))), Tensor(np.zeros((3, 3, 1, 1))), stride=0)


@pytest.mark.parametrize("stride,padding,depthwise", [(1, 1, False), (2, 1, False),
                                                      (2, 0, False), (1, 1, True)])
def test_conv2d_grad(rng, stride, padding, depthwise):
    shape = (3, 3, 3) if depthwise else (3, 3, 3, 2)
    x = leaf(rng.standard_normal((5, 5, 3)))
    w = leaf(rng.standard_normal(shape))
    fx = lambda t: T.sum_all(T.conv2d(t, w, stride=stride, padding=padding,
                                      depthwise=depthwise))
    fw = lambda t: T.sum_all(T.conv2d(x, t, stride=stride, padding=padding,
                                      depthwise=depthwise))
    assert gradcheck(fx, x) < 1e-6
    assert gradcheck(fw, w) < 1e-6


def scatter_col2im(dwin, Hp, Wp, stride):
    """The np.add.at scatter that the slice-add backward replaced: one flat
    padded-grid index per (window, tap), all window gradients added in one pass."""
    Ho, Wo, _, _, C = dwin.shape
    oi, oj = np.meshgrid(np.arange(Ho), np.arange(Wo), indexing="ij")
    base = (oi * stride)[..., None, None] * Wp + (oj * stride)[..., None, None]
    di, dj = np.meshgrid(np.arange(3), np.arange(3), indexing="ij")
    out = np.zeros((Hp * Wp, C))
    np.add.at(out, (base + di * Wp + dj).reshape(-1), dwin.reshape(-1, C))
    return out.reshape(Hp, Wp, C)


def conv2d_im2col(x, w, b, up, stride, padding, depthwise):
    """The window-view conv that the nine-tap loop replaced, as a fast oracle:
    sliding_window_view windows, einsums (depthwise) or an im2col patch
    matmul (dense), and the add.at scatter of the window gradients.
    Returns the output and the gradients (dx, dw, db) for upstream `up`."""
    xp = np.pad(x, ((padding, padding), (padding, padding), (0, 0)))
    Hp, Wp, C = xp.shape
    win = sliding_window_view(xp, (3, 3), axis=(0, 1))[::stride, ::stride]  # Ho, Wo, C, 3, 3
    Ho, Wo = win.shape[:2]
    if depthwise:
        out = np.einsum("xycij,ijc->xyc", win, w)
        dwin = up[:, :, None, None, :] * w
        dw = np.einsum("xycij,xyc->ijc", win, up)
    else:
        patches = win.transpose(0, 1, 3, 4, 2).reshape(Ho * Wo, 9 * C)
        w2d, up2d = w.reshape(9 * C, -1), up.reshape(Ho * Wo, -1)
        out = (patches @ w2d).reshape(Ho, Wo, -1)
        dwin = (up2d @ w2d.T).reshape(Ho, Wo, 3, 3, C)
        dw = (patches.T @ up2d).reshape(w.shape)
    dxp = scatter_col2im(dwin, Hp, Wp, stride)
    return out + b, dxp[padding:Hp - padding, padding:Wp - padding], dw, up.sum(axis=(0, 1))


def conv2d_padded_taps(x, w, b, up, stride, padding, depthwise):
    """The nine-tap conv as it ran on an np.pad copy of the input, before
    conv2d zeroed a buffer and assigned the input into it. Same taps in the
    same order, so conv2d must match it bit for bit. Returns the output and
    the gradients (dx, dw, db) for upstream `up`."""
    H, W, Cin = x.shape
    xp = np.pad(x, ((padding, padding), (padding, padding), (0, 0)))
    Ho, Wo = up.shape[:2]
    taps = [((i, j), (slice(i, i + stride * (Ho - 1) + 1, stride),
                      slice(j, j + stride * (Wo - 1) + 1, stride)))
            for i in range(3) for j in range(3)]
    out = np.zeros(up.shape)
    for ij, s in taps:
        out += xp[s] * w[ij] if depthwise else xp[s] @ w[ij]
    out += b
    dxp, dw = np.zeros_like(xp), np.empty_like(w)
    up2d = up.reshape(Ho * Wo, -1)
    for ij, s in reversed(taps):
        if depthwise:
            dxp[s] += up * w[ij]
            dw[ij] = (xp[s] * up).sum(axis=(0, 1))
        else:
            dxp[s] += (up2d @ w[ij].T).reshape(Ho, Wo, Cin)
            dw[ij] = xp[s].reshape(Ho * Wo, Cin).T @ up2d
    return out, dxp[padding:padding + H, padding:padding + W], dw, up.sum(axis=(0, 1))


def conv_grads(rng, x, w, b, stride, padding, depthwise):
    """conv2d's output and (dx, dw, db) for a random upstream gradient."""
    xs, ws, bs = leaf(x), leaf(w), leaf(b)
    out = T.conv2d(xs, ws, bs, stride=stride, padding=padding, depthwise=depthwise)
    up = rng.standard_normal(out.shape)
    grads = grad_of(lambda *t: T.sum_all(T.mul(
        T.conv2d(*t, stride=stride, padding=padding, depthwise=depthwise), Tensor(up))),
        xs, ws, bs)
    return out.data, up, grads


def assert_rel_close(got, want, tol=1e-12):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= tol * np.abs(want).max()


COL2IM_CASES = [(H, W, stride, padding) for H, W in [(5, 7), (4, 4), (1, 1), (3, 3)]
                for stride in (1, 2) for padding in (0, 1) if H + 2 * padding >= 3]


@pytest.mark.parametrize("depthwise", [False, True])
@pytest.mark.parametrize("H,W,stride,padding", COL2IM_CASES)
def test_conv2d_input_grad_matches_add_at_scatter(rng, H, W, stride, padding, depthwise):
    C = 3
    x = rng.standard_normal((H, W, C))
    w = rng.standard_normal((3, 3, C) if depthwise else (3, 3, C, 2))
    b = rng.standard_normal(C if depthwise else 2)
    _, up, (dx, _, _) = conv_grads(rng, x, w, b, stride, padding, depthwise)
    assert_rel_close(dx, conv2d_im2col(x, w, b, up, stride, padding, depthwise)[1])


def preset_conv_calls(cfg):
    """(H, Cin, Cout, stride, padding, depthwise) of each conv2d call of one
    frame through the model: per stage the tokenizing conv, the depthwise
    conv and the stride-2 downsampling conv, then every head conv whose
    input grid is larger than 1x1 (the others are stored as centre taps)."""
    calls = []
    for res, C in cfg.stage_dims():
        calls += [(res, C, C, 1, 1, False), (res, C, C, 1, 1, True),
                  (res, C, 2 * C, 2, 1, False)]
    chain = cfg.shape_chain()[cfg.stages:]
    for (h, _, cin), (_, _, cout) in zip(chain, chain[1:]):
        if h > 1:
            calls.append((h, cin, cout, 2, _head_pad(h), False))
    return calls


PRESET_MODELS = {"desk": ModelConfig(),
                 "full": cfgmod.from_items(cfgmod.FULL_SCALE_OVERRIDES).model_config()}
PRESET_CONVS = [pytest.param(*call, id=f"{name}-{call[0]}x{call[1]}-{call[2]}"
                             f"-s{call[3]}p{call[4]}{'-dw' if call[5] else ''}")
                for name, cfg in PRESET_MODELS.items() for call in preset_conv_calls(cfg)]


def test_preset_conv_calls_match_a_desk_forward(rng, monkeypatch):
    cfg = replace(PRESET_MODELS["desk"], imm=False)
    model = TrackerModel(cfg, seed=0)
    seen, conv2d = [], T.conv2d

    def spy(x, w, b=None, stride=1, depthwise=False, padding=1):
        out = conv2d(x, w, b, stride=stride, depthwise=depthwise, padding=padding)
        seen.append((x.shape[0], x.shape[2], out.shape[2], stride, padding, depthwise))
        return out

    monkeypatch.setattr(T, "conv2d", spy)
    grid = Tensor(rng.standard_normal((cfg.grid, cfg.grid, cfg.channels)))
    model.head_forward(model.backbone_forward(grid, grid))
    assert seen == preset_conv_calls(cfg)
    assert [len(preset_conv_calls(c)) for c in PRESET_MODELS.values()] == [10, 12]


@pytest.mark.parametrize("H,Cin,Cout,stride,padding,depthwise", PRESET_CONVS)
def test_conv2d_matches_im2col_oracle_on_preset_shapes(rng, H, Cin, Cout, stride, padding,
                                                       depthwise):
    x = rng.standard_normal((H, H, Cin))
    w = rng.standard_normal((3, 3, Cin) if depthwise else (3, 3, Cin, Cout))
    b = rng.standard_normal(Cout)
    out, up, grads = conv_grads(rng, x, w, b, stride, padding, depthwise)
    want = conv2d_im2col(x, w, b, up, stride, padding, depthwise)
    if depthwise:
        np.testing.assert_array_equal(out, want[0])
    else:  # the taps are summed one after another, im2col sums them in one matmul
        assert_rel_close(out, want[0])
    for got, ref in zip(grads, want[1:]):
        assert_rel_close(got, ref)


@pytest.mark.parametrize("H,Cin,Cout,stride,padding,depthwise", PRESET_CONVS)
def test_conv2d_is_bit_identical_to_padded_taps_on_preset_shapes(rng, H, Cin, Cout, stride,
                                                                  padding, depthwise):
    x = rng.standard_normal((H, H, Cin))
    w = rng.standard_normal((3, 3, Cin) if depthwise else (3, 3, Cin, Cout))
    b = rng.standard_normal(Cout)
    out, up, grads = conv_grads(rng, x, w, b, stride, padding, depthwise)
    want = conv2d_padded_taps(x, w, b, up, stride, padding, depthwise)
    for got, ref in zip((out, *grads), want):
        np.testing.assert_array_equal(got, ref)


# The model's head stores a conv over a 1x1 grid as the centre tap of its
# kernel and applies it as a linear layer; the padded 3x3 conv is the oracle.
@pytest.mark.parametrize("cin,cout", [(3, 5), (16, 32), (128, 256), (256, 512)])
def test_centre_tap_linear_matches_padded_conv_on_1x1(rng, cin, cout):
    x = leaf(rng.standard_normal((1, 1, cin)))
    w = leaf(rng.standard_normal((3, 3, cin, cout)))
    b = leaf(rng.standard_normal(cout))
    row, tap, b2 = leaf(x.data.reshape(1, cin)), leaf(w.data[1, 1].copy()), leaf(b.data)
    up = rng.standard_normal(cout)
    conv_out = T.conv2d(x, w, b, stride=2, padding=1)
    lin_out = T.linear(row, tap, b2)
    np.testing.assert_array_equal(lin_out.data, conv_out.data.reshape(1, cout))
    dx, dw, db = grad_of(lambda *t: T.sum_all(T.mul(
        T.conv2d(*t, stride=2, padding=1), Tensor(up.reshape(1, 1, cout)))), x, w, b)
    drow, dtap, db2 = grad_of(lambda *t: T.sum_all(T.mul(
        T.linear(*t), Tensor(up.reshape(1, cout)))), row, tap, b2)
    np.testing.assert_array_equal(drow, dx.reshape(1, cin))
    np.testing.assert_array_equal(dtap, dw[1, 1])
    np.testing.assert_array_equal(db2, db)
    off_centre = np.ones((3, 3), dtype=bool)
    off_centre[1, 1] = False
    assert np.all(dw[off_centre] == 0.0)  # those taps never meet data


# ---------------------------------------------------------------------------
# layernorm


def test_layernorm_constant_vector_is_beta(rng):
    x = Tensor(np.full((3, 4), 2.5))
    beta = Tensor(rng.standard_normal(4))
    out = T.layernorm(x, Tensor(np.ones(4)), beta)
    np.testing.assert_allclose(out.data, np.broadcast_to(beta.data, (3, 4)), atol=1e-12)


def test_layernorm_two_point_example():
    out = T.layernorm(Tensor([[1.0, 3.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
    expected = 1.0 / np.sqrt(1.0 + 1e-5)  # unit variance up to epsilon
    np.testing.assert_allclose(out.data, [[-expected, expected]], atol=1e-12)


def test_layernorm_empty_channel_axis():
    with pytest.raises(ShapeError):
        T.layernorm(Tensor(np.zeros((2, 0))), Tensor(np.zeros(0)), Tensor(np.zeros(0)))


def test_layernorm_grad(rng):
    x = leaf(rng.standard_normal((4, 6)))
    g = leaf(rng.standard_normal(6))
    b = leaf(rng.standard_normal(6))
    weights = rng.standard_normal((4, 6))  # break the symmetry of sum_all
    f = lambda xx, gg, bb: T.sum_all(T.mul(T.layernorm(xx, gg, bb), Tensor(weights)))
    assert gradcheck(lambda t: f(t, g, b), x) < 1e-5
    assert gradcheck(lambda t: f(x, t, b), g) < 1e-5
    assert gradcheck(lambda t: f(x, g, t), b) < 1e-5


# ---------------------------------------------------------------------------
# linear, layernorm and SiLU against their multi-pass forms, kept as oracles;
# each rewrite is exact, so values and gradients must match bit for bit at
# the desk preset's shapes (the depthwise conv's oracle is conv2d_padded_taps)


def parent_layernorm(x, gamma, beta, eps=1e-5):
    """T.layernorm with np.mean for each of its four means."""
    xd = x.data
    mu = xd.mean(axis=-1, keepdims=True)
    xc = xd - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv

    def bw(g):
        dxhat = g * gamma.data
        dgamma = (g * xhat).reshape(-1, xd.shape[-1]).sum(axis=0)
        dbeta = g.reshape(-1, xd.shape[-1]).sum(axis=0)
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        dx = inv * (dxhat - m1 - xhat * m2)
        return (dx, dgamma.reshape(gamma.data.shape), dbeta.reshape(beta.data.shape))

    return T._out(xhat * gamma.data + beta.data, "layernorm", (x, gamma, beta), bw)


def parent_silu(a):
    """T.silu with x * sigmoid(x) in a fresh array."""
    x = a.data

    def bw(g):
        s = T._sigmoid_value(x)
        return (g * s * (1.0 + x * (1.0 - s)),)

    return T._out(x * T._sigmoid_value(x), "silu", (a,), bw)


def assert_same_op(rng, op, oracle, *leaves):
    """op and oracle give array_equal values and input gradients."""
    up = None
    results = []
    for f in (oracle, op):
        with Tape() as tape:
            out = f(*leaves)
            up = rng.standard_normal(out.shape) if up is None else up
            for t in leaves:
                t.grad = None
            tape.backward(T.sum_all(T.mul(out, Tensor(up))))
        results.append((out.data, [t.grad for t in leaves]))
    (want, want_grads), (got, got_grads) = results
    np.testing.assert_array_equal(got, want)
    for g, w in zip(got_grads, want_grads):
        np.testing.assert_array_equal(g, w)


_DESK = ModelConfig()
# desk stage tokens (N, C) and FFN widths; the pillar layer on 2569 points;
# the head's 1x1 layers
DESK_LINEARS = ([(res * res, C, C) for res, C in _DESK.stage_dims()]
                + [(res * res, C, _DESK.ffn_expand * C) for res, C in _DESK.stage_dims()]
                + [(res * res, _DESK.ffn_expand * C, C) for res, C in _DESK.stage_dims()]
                + [(2569, 8, _DESK.channels), (1, 128, 256), (1, 512, 3)])
DESK_ROWS = ([(res * res, C) for res, C in _DESK.stage_dims()]
             + [(res * res, _DESK.ffn_expand * C) for res, C in _DESK.stage_dims()]
             + [(2569, _DESK.channels), (1, 1, 128), (1, 256)])


@pytest.mark.parametrize("rows,cin,cout", DESK_LINEARS)
def test_linear_is_bit_identical_to_matmul_then_add(rng, rows, cin, cout):
    x, w, b = (leaf(rng.standard_normal(s)) for s in ((rows, cin), (cin, cout), cout))
    assert_same_op(rng, T.linear, lambda *t: T.add(T.matmul(*t[:2]), t[2]), x, w, b)


@pytest.mark.parametrize("shape", DESK_ROWS, ids=str)
def test_layernorm_is_bit_identical_to_np_mean_form(rng, shape):
    x, g, b = (leaf(rng.standard_normal(s)) for s in (shape, shape[-1], shape[-1]))
    assert_same_op(rng, T.layernorm, parent_layernorm, x, g, b)


@pytest.mark.parametrize("shape", DESK_ROWS, ids=str)
def test_silu_is_bit_identical_to_fresh_product(rng, shape):
    x = 4.0 * rng.standard_normal(shape)
    x.reshape(-1)[:4] = [-800.0, 800.0, 0.0, -0.0]
    assert_same_op(rng, T.silu, parent_silu, leaf(x))


def test_linear_shape_error():
    with pytest.raises(ShapeError):
        T.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)))


# ---------------------------------------------------------------------------
# activations


def test_silu_and_sigmoid_values():
    assert T.silu(Tensor(0.0)).item() == 0.0
    assert T._sigmoid_value(0.0) == 0.5
    x = np.array([-3.0, 0.5, 10.0])
    s = 1.0 / (1.0 + np.exp(-x))
    np.testing.assert_allclose(T.silu(Tensor(x)).data, x * s, rtol=1e-15)
    np.testing.assert_allclose(T._sigmoid_value(x), s, rtol=1e-15)


def test_sigmoid_value_into_buffer_is_bit_identical(rng):
    x = np.concatenate([[-800.0, 800.0, -40.0, 40.0, 0.0, -0.0],
                        30.0 * rng.standard_normal(1000)])
    with np.errstate(over="ignore"):
        want = 1.0 / (1.0 + np.exp(-x))
    buf = np.full_like(x, np.nan)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = T._sigmoid_value(x, out=buf)
        fresh = T._sigmoid_value(x)
    assert got is buf
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(fresh, want)
    assert want[0] == 0.0 and want[1] == 1.0


def test_silu_extreme_inputs_stay_finite():
    x = Tensor(np.array([-1e5, -750.0, 750.0, 1e5]))
    out = T.silu(x).data
    assert np.isfinite(out).all()
    np.testing.assert_allclose(out[2:], x.data[2:])  # silu(x) -> x for large x


def test_silu_grad_tight(rng):
    x = leaf(rng.standard_normal(50))
    assert gradcheck(lambda t: T.sum_all(T.silu(t)), x) < 1e-7


def test_sigmoid_grad(rng):
    x = leaf(rng.standard_normal(50))
    assert gradcheck(lambda t: T.sum_all(sigmoid(t)), x) < 1e-7


def test_huber_values():
    x = np.array([-2.0, -0.5, 0.0, 0.5, 3.0])
    out = T.huber(Tensor(x), delta=1.0).data
    np.testing.assert_allclose(out, [1.5, 0.125, 0.0, 0.125, 2.5])


def test_wrap_angle_values(rng):
    x = np.array([0.0, np.pi, -np.pi, 3 * np.pi, -3 * np.pi, 2 * np.pi - 0.1])
    out = T.wrap_angle(Tensor(x)).data
    np.testing.assert_allclose(out, [0.0, np.pi, np.pi, np.pi, np.pi, -0.1], atol=1e-12)
    assert np.all(out > -np.pi) and np.all(out <= np.pi)
    # an angle already in (-pi, pi] comes back unchanged, bit for bit
    inside = np.concatenate([[1e-20, 0.001, -0.0, np.pi], rng.uniform(-3.0, 3.0, 10_000)])
    assert T.wrap_angle_value(inside).tobytes() == inside.tobytes()
    assert T.wrap_angle_value(1e-20) == 1e-20 and T.wrap_angle_value(0.001) == 0.001


def ulps_from(centre: float, k: int) -> float:
    """The float `k` ulps from `centre` (0 steps through the subnormals)."""
    if centre == 0.0:
        return k * math.ulp(0.0)
    bits = np.float64(abs(centre)).view(np.int64) + (k if centre > 0 else -k)
    return math.copysign(float(np.int64(bits).view(np.float64)), centre)


ANGLE_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(ulps_from, st.sampled_from([0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi,
                                          2 * math.pi, -2 * math.pi]),
              st.integers(-10_000, 10_000)))


@given(ANGLE_FLOATS)
@example(-0.0)
@example(1e-20)
def test_wrap_angle_value_is_idempotent(x):
    """A wrapped angle wraps to itself bit for bit, sign of zero included, so
    a box or motion built from an already wrapped angle keeps its bits."""
    once = T.wrap_angle_value(x)
    assert np.float64(T.wrap_angle_value(once)).tobytes() == np.float64(once).tobytes()


# ---------------------------------------------------------------------------
# scatter_max


def scatter_max_loop(feats, idx, n_cells):
    """Per-cell loop oracle."""
    out = np.zeros((n_cells, feats.shape[1]))
    for cell in range(n_cells):
        rows = feats[idx == cell]
        if len(rows):
            out[cell] = rows.max(axis=0)
    return out


def scatter_max_lexsort(feats, idx, n_cells):
    """Per-channel lexsort oracle: the pooling ``T.scatter_max`` replaced.
    Returns the pooled values and the winning point per (cell, channel)."""
    P, C = feats.shape
    data = np.zeros((n_cells, C))
    arg = np.full((n_cells, C), -1, dtype=np.int64)
    for c in range(C):
        vals = feats[:, c]
        order = np.lexsort((np.arange(P), -vals, idx))
        first = np.ones(P, dtype=bool)
        first[1:] = idx[order][1:] != idx[order][:-1]
        winners = order[first]
        data[idx[winners], c] = vals[winners]
        arg[idx[winners], c] = winners
    return data, arg


@pytest.mark.parametrize("P,C,cells,n_cells", [
    (0, 3, [], 4),
    (9, 1, [2] * 9, 4),  # a single cell
    (30, 8, [7, 0, 63, 7, 2, 63, 0, 40, 7, 2] * 3, 64),  # unsorted, sparse
    (200, 1, None, 50),
    (200, 8, None, 50),
])
def test_scatter_max_matches_lexsort_oracle_with_ties(rng, P, C, cells, n_cells):
    feats = rng.integers(-2, 3, size=(P, C)).astype(float)  # tie-heavy
    idx = np.array(cells, dtype=np.int64) if cells is not None else rng.integers(0, n_cells, P)
    want, arg = scatter_max_lexsort(feats, idx, n_cells)
    g = rng.integers(1, 9, size=(n_cells, C)).astype(float)
    x = leaf(feats)
    with Tape() as tape:
        out = T.scatter_max(x, idx, n_cells)
        tape.backward(T.sum_all(T.mul(out, Tensor(g))))
    want_grad = np.zeros((P, C))
    rows, cols = np.nonzero(arg >= 0)
    want_grad[arg[rows, cols], cols] = g[rows, cols]
    np.testing.assert_array_equal(out.data, want)
    np.testing.assert_array_equal(x.grad, want_grad)


def test_scatter_max_tied_zeros_keep_the_lowest_index_sign():
    feats = np.array([[-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]])
    out = T.scatter_max(Tensor(feats), np.array([0, 0, 0]), 1).data
    np.testing.assert_array_equal(np.signbit(out), [[True, False]])


def test_scatter_max_nan_raises_naming_op():
    feats = np.array([[1.0, 2.0], [np.nan, 0.0], [3.0, 1.0]])
    with pytest.raises(NumericError, match="scatter_max"):
        T.scatter_max(Tensor(feats), np.array([0, 0, 1]), 2)


@pytest.mark.parametrize("n_cells", [1, 200, 32 * 32, 128 * 128, 70000])
def test_cell_runs_order_is_the_int64_stable_sort(rng, n_cells):
    # the keys' dtype goes uint8, uint8, uint16, uint16, uint32
    cells = rng.integers(0, n_cells, 2569)
    cells[0] = n_cells - 1
    order, starts, run_of = T.cell_runs(cells)
    want = np.argsort(cells, kind="stable")
    np.testing.assert_array_equal(order, want)
    first = np.flatnonzero(np.diff(cells[want], prepend=-1))
    np.testing.assert_array_equal(starts, first)
    np.testing.assert_array_equal(run_of, np.searchsorted(first, np.arange(len(cells)), "right") - 1)


def test_cell_runs_groups_stably():
    order, starts, run_of = T.cell_runs(np.array([5, 2, 5, 0, 2, 5]))
    np.testing.assert_array_equal(order, [3, 1, 4, 0, 2, 5])
    np.testing.assert_array_equal(starts, [0, 1, 3])
    np.testing.assert_array_equal(run_of, [0, 1, 1, 2, 2, 2])


def test_scatter_max_no_points():
    out = T.scatter_max(Tensor(np.zeros((0, 3))), np.zeros(0, dtype=int), 4)
    np.testing.assert_array_equal(out.data, np.zeros((4, 3)))


def test_scatter_max_one_point_per_cell(rng):
    feats = rng.standard_normal((4, 2))
    out = T.scatter_max(Tensor(feats), np.array([2, 0, 3, 1]), 4)
    np.testing.assert_array_equal(out.data[[2, 0, 3, 1]], feats)


def test_scatter_max_matches_loop(rng):
    feats = rng.standard_normal((40, 5))
    idx = rng.integers(0, 9, size=40)
    out = T.scatter_max(Tensor(feats), idx, 9)
    np.testing.assert_array_equal(out.data, scatter_max_loop(feats, idx, 9))


def test_scatter_max_out_of_range():
    with pytest.raises(ShapeError):
        T.scatter_max(Tensor(np.zeros((2, 1))), np.array([0, 5]), 4)
    with pytest.raises(ShapeError):
        T.scatter_max(Tensor(np.zeros((1, 1))), np.array([-1]), 4)


@given(st.integers(0, 2 ** 30))
def test_scatter_max_permutation_invariant(perm_seed):
    rng = np.random.default_rng(7)
    feats = rng.standard_normal((30, 3))
    idx = rng.integers(0, 5, size=30)
    base = T.scatter_max(Tensor(feats), idx, 5).data
    perm = np.random.default_rng(perm_seed).permutation(30)
    out = T.scatter_max(Tensor(feats[perm]), idx[perm], 5).data
    np.testing.assert_array_equal(base, out)


def test_scatter_max_grad_ties_to_lowest_index():
    feats = leaf(np.array([[1.0, 2.0], [1.0, 5.0], [1.0, 5.0]]))
    with Tape() as tape:
        out = T.scatter_max(feats, np.array([0, 0, 0]), 1)
        loss = T.sum_all(out)
        tape.backward(loss)
    # channel 0: three-way tie -> point 0; channel 1: tie between 1 and 2 -> 1
    np.testing.assert_array_equal(feats.grad, [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])


def test_scatter_max_grad_fd(rng):
    feats = leaf(rng.standard_normal((25, 4)))
    idx = rng.integers(0, 6, size=25)
    weights = Tensor(rng.standard_normal((6, 4)))
    f = lambda t: T.sum_all(T.mul(T.scatter_max(t, idx, 6), weights))
    assert gradcheck(f, feats) < 1e-6


# ---------------------------------------------------------------------------
# elementwise / broadcast / structural ops


@pytest.mark.parametrize("shape_a,shape_b", [((4, 3), (4, 3)), ((4, 3), (3,)),
                                             ((2, 1, 3), (4, 3)), ((), (5,))])
def test_add_mul_broadcast_grads(rng, shape_a, shape_b):
    a = leaf(rng.standard_normal(shape_a))
    b = leaf(rng.standard_normal(shape_b))
    for op in (T.add, T.sub, T.mul):
        assert gradcheck(lambda t: T.sum_all(op(t, b)), a) < 1e-6
        assert gradcheck(lambda t: T.sum_all(op(a, t)), b) < 1e-6


def test_structural_ops_grads(rng):
    x = leaf(rng.standard_normal((4, 6)))
    w = Tensor(rng.standard_normal((4, 6)))
    cases = [
        lambda t: T.sum_all(T.mul(T.reshape(t, (6, 4)), Tensor(w.data.reshape(6, 4)))),
        lambda t: T.sum_all(T.mul(T.transpose(t), Tensor(w.data.T.copy()))),
        lambda t: T.sum_all(T.mul(T.slice_cols(t, 1, 4), Tensor(w.data[:, 1:4].copy()))),
        lambda t: T.sum_all(T.scale(t, -2.5)),
        lambda t: T.sum_all(T.mul(T.concat([t, t], axis=-1),
                                  Tensor(np.concatenate([w.data, 2 * w.data], axis=1)))),
        lambda t: T.sum_all(T.mul(T.stack([t, t]), Tensor(np.stack([w.data, 2 * w.data])))),
    ]
    for f in cases:
        assert gradcheck(f, x) < 1e-6


def test_mul_same_tensor_accumulates(rng):
    x = leaf(np.array([3.0]))
    (g,) = grad_of(lambda t: T.sum_all(T.mul(t, t)), x)
    np.testing.assert_allclose(g, [6.0])


# ---------------------------------------------------------------------------
# tape semantics and error states


def test_no_tape_no_grad(rng):
    a = leaf(rng.standard_normal((2, 2)))
    out = T.matmul(a, a)
    assert not out.requires_grad and out.grad is None


def test_backward_needs_scalar():
    a = leaf(np.ones((2, 2)))
    with Tape() as tape:
        out = T.add(a, a)
    with pytest.raises(ShapeError):
        tape.backward(out)


def test_backward_without_graph():
    with Tape() as tape:
        pass
    with pytest.raises(ValueError):
        tape.backward(Tensor(1.0))


def test_second_backward_on_one_tape_raises():
    # replaying again would add the pass onto its own gradients: 4x here
    w = leaf(np.array([1.5, -0.5]))
    with Tape() as tape:
        loss = T.sum_all(T.mul(T.mul(w, w), T.mul(w, w)))
    tape.backward(loss)
    once = w.grad.copy()
    np.testing.assert_allclose(once, 4.0 * w.data ** 3)
    with pytest.raises(RuntimeError, match="already ran on this tape"):
        tape.backward(loss)
    np.testing.assert_array_equal(w.grad, once)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_op_output_raises():
    big = Tensor(np.array([1e308]))
    with pytest.raises(NumericError):
        T.add(big, big)  # overflows to inf
    with pytest.raises(NumericError):
        T.sub(Tensor(np.inf), Tensor(np.inf))  # nan


def test_grad_accumulates_across_uses(rng):
    x = leaf(rng.standard_normal((3, 3)))
    with Tape() as tape:
        out = T.sum_all(T.add(T.matmul(x, x), x))
        tape.backward(out)
    g_before = x.grad.copy()
    assert g_before is not None
    # fresh tape accumulates on top of existing grads only if not cleared
    x.grad = None
    with Tape() as tape:
        tape.backward(T.sum_all(x))
    np.testing.assert_array_equal(x.grad, np.ones((3, 3)))


def test_accumulation_never_writes_an_aliased_grad():
    # add's backward hands one array to both inputs. add(a, b) is recorded
    # after the sums of a, so backward reaches it first and a's first
    # contribution is b's gradient array; adding into it would change b.grad
    a, b = leaf(np.ones(3)), leaf(np.ones(3))
    with Tape() as tape:
        sa1, sa2 = T.sum_all(a), T.sum_all(a)
        loss = T.add(T.add(T.sum_all(T.add(a, b)), sa1), sa2)
    tape.backward(loss)
    np.testing.assert_array_equal(b.grad, np.ones(3))
    np.testing.assert_array_equal(a.grad, np.full(3, 3.0))


def test_accumulation_leaves_earlier_pass_grads_alone():
    # a.grad from the first pass is that pass's buffer; a second pass without
    # zero_grad adds onto a new array and leaves the held one as it was
    a = leaf(np.ones(3))

    def three_uses():
        with Tape() as tape:
            loss = T.add(T.add(T.sum_all(a), T.sum_all(a)), T.sum_all(a))
        tape.backward(loss)

    three_uses()
    held = a.grad
    three_uses()
    np.testing.assert_array_equal(held, np.full(3, 3.0))
    np.testing.assert_array_equal(a.grad, np.full(3, 6.0))


# ---------------------------------------------------------------------------
# the spec-level backward sweep: every op against central differences


OPS_FOR_SWEEP = [
    ("add", lambda t, w: T.sum_all(T.mul(T.add(t, t), w)), (3, 4)),
    ("mul", lambda t, w: T.sum_all(T.mul(T.mul(t, t), w)), (3, 4)),
    ("silu", lambda t, w: T.sum_all(T.mul(T.silu(t), w)), (3, 4)),
    ("sigmoid", lambda t, w: T.sum_all(T.mul(sigmoid(t), w)), (3, 4)),
    ("huber", lambda t, w: T.sum_all(T.mul(T.huber(t, 0.7), w)), (3, 4)),
    ("matmul", lambda t, w: T.sum_all(T.mul(T.matmul(t, t), w)), (4, 4)),
    ("linear", lambda t, w: T.sum_all(T.mul(T.linear(t, Tensor(_LIN_W), Tensor(_LIN_B)), w)),
     (3, 4)),
    ("layernorm", lambda t, w: T.sum_all(T.mul(
        T.layernorm(t, Tensor(np.ones(4)), Tensor(np.zeros(4))), w)), (3, 4)),
    ("conv2d", lambda t, w: T.sum_all(T.mul(
        T.conv2d(T.reshape(t, (3, 4, 1)), Tensor(_CONV_W)), T.reshape(w, (3, 4, 1)))),
     (3, 4)),
]
_CONV_W = np.random.default_rng(11).standard_normal((3, 3, 1, 1))
_LIN_W = np.random.default_rng(12).standard_normal((4, 4))
_LIN_B = np.random.default_rng(13).standard_normal(4)


@pytest.mark.parametrize("name,f,shape", OPS_FOR_SWEEP, ids=[o[0] for o in OPS_FOR_SWEEP])
def test_backward_sweep_50_trials(name, f, shape):
    rng = np.random.default_rng(17)
    for _ in range(50):
        x = leaf(rng.standard_normal(shape))
        w = Tensor(rng.standard_normal(shape if name != "matmul" else (4, 4)))
        if name == "huber":  # keep clear of the kink for finite differences
            x.data = np.where(np.abs(np.abs(x.data) - 0.7) < 1e-3,
                              x.data + 0.01, x.data)
        assert gradcheck(lambda t: f(t, w), x) < 1e-4, name
