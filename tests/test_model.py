"""Backbone/head bookkeeping, the loss, and whole-model gradients."""

import hashlib
import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bevsot import config as cfgmod
from bevsot import tensor as T
from bevsot.exceptions import ConfigError, NumericError
from bevsot.geometry import Motion4, PointCloud
from bevsot.gradcheck import gradcheck_params
from bevsot.model import ModelConfig, TrackerModel, _centre_tap, _kaiming, motion_loss
from bevsot.params import ParamStore, adamw_step, load_checkpoint, save_checkpoint
from bevsot.pillars import CropSpec, crop
from bevsot.scene import SceneConfig, augment, flip_sample, generate, rotate_sample
from bevsot.tensor import Tape, Tensor
from bevsot.track import track_sequence, tracker_motion_model
from bevsot.train import make_training_samples

TINY = ModelConfig(grid=16, channels=4, head_trunk=32)


def tiny_model(seed=0, **kw):
    cfg = ModelConfig(grid=16, channels=4, head_trunk=32, **kw)
    return TrackerModel(cfg, seed=seed)


def random_pair(rng, cfg):
    shape = (cfg.grid, cfg.grid, cfg.channels)
    return Tensor(rng.standard_normal(shape)), Tensor(rng.standard_normal(shape))


# ---------------------------------------------------------------------------
# architecture bookkeeping


@pytest.mark.parametrize("stages,final", [(1, 64), (2, 32), (3, 16), (4, 8)])
def test_downsample_presets_final_grids(stages, final):
    cfg = ModelConfig(grid=128, channels=16, stages=stages)
    assert cfg.final_grid == final
    assert cfg.final_channels == 16 * 2 ** stages


def test_full_scale_chain_matches_stated_dimensions():
    cfg = ModelConfig(grid=128, channels=16, stages=3, head_trunk=512)
    chain = cfg.shape_chain()
    assert chain[0] == (128, 128, 16)
    assert chain[3] == (16, 16, 128)
    assert chain[-1] == (1, 1, 512)
    assert [c[0] for c in chain[3:]] == [16, 7, 3, 1]  # head conv spatial path


def test_desk_and_tiny_chains_reach_one_by_one():
    for cfg in (ModelConfig(), TINY):
        assert cfg.shape_chain()[-1][0] == 1


def test_unreducible_final_grid_rejected():
    with pytest.raises(ConfigError, match="not reducible"):
        ModelConfig(grid=128, channels=16, stages=1).validate()  # final 64x64


def test_backbone_forward_shapes(rng):
    m = tiny_model()
    out = m.backbone_forward(*random_pair(rng, m.config))
    assert out.shape == (2, 2, 32)


def test_stage_dims():
    assert TINY.stage_dims() == [(16, 4), (8, 8), (4, 16)]


def test_channels_heads_divisibility():
    with pytest.raises(ConfigError):
        ModelConfig(channels=6, heads=4).validate()


# ---------------------------------------------------------------------------
# head


def test_head_zero_weights_zero_motion(rng):
    m = tiny_model()
    feat = Tensor(rng.standard_normal((2, 2, 32)))
    out = m.head_forward(feat)
    np.testing.assert_array_equal(out.data, np.zeros(4))  # zero-init subtask heads


def test_head_subtasks_independent(rng):
    m = tiny_model()
    m.randomize_all(np.random.default_rng(3))
    feat = Tensor(rng.standard_normal((2, 2, 32)))
    base = m.head_forward(feat).data.copy()
    m.store["head.z.w"].data = m.store["head.z.w"].data + 1.0
    m.store["head.z.b"].data = m.store["head.z.b"].data - 0.3
    bumped = m.head_forward(feat).data
    assert bumped[2] != base[2]
    np.testing.assert_array_equal(bumped[[0, 1, 3]], base[[0, 1, 3]])


def test_head_wraps_angle(rng):
    m = tiny_model()
    m.randomize_all(np.random.default_rng(3))
    m.store["head.th.b"].data = np.array([10.0])  # force out-of-range raw angle
    out = m.head_forward(Tensor(rng.standard_normal((2, 2, 32)))).data
    assert -np.pi < out[3] <= np.pi


def test_head_input_shape_checked(rng):
    m = tiny_model()
    with pytest.raises(Exception):
        m.head_forward(Tensor(rng.standard_normal((4, 4, 32))))


# ---------------------------------------------------------------------------
# head convs over a 1x1 grid, stored as their centre tap


def full_kernels(m, rng):
    """Each centre-tap parameter of m as a full 3x3 kernel: the tap at
    [1, 1], random values at the taps that fall on padding."""
    out = {}
    for name in m.store.centre_taps:
        tap = m.store[name].data
        k = rng.standard_normal((3, 3) + tap.shape)
        k[1, 1] = tap
        out[name] = k
    return out


def test_desk_head_stores_centre_taps():
    m = TrackerModel(ModelConfig(), seed=0)
    assert m.store.centre_taps == {"head.conv2.w", "head.conv3.w"}
    assert m.store["head.conv1.w"].shape == (3, 3, 64, 128)
    assert m.store["head.conv2.w"].shape == (128, 256)
    assert m.store["head.conv3.w"].shape == (256, 512)
    assert m.store.num_values() == 450_975  # 1,761,695 with the full kernels
    # copies, not views that would keep the whole 3x3 draw alive
    assert all(m.store[n].data.base is None for n in m.store.centre_taps)


def test_desk_init_takes_centre_of_full_kernel_draw():
    """Initial values equal w[1, 1] of the full-kernel model's draw (seed 0),
    and the parameters drawn after the head convs are unchanged too."""
    m = TrackerModel(ModelConfig(), seed=0)
    pins = {  # name: (w[0, 0], w.sum()) of the full-kernel model
        "head.conv2.w": (0.032892802057941664, -2.004196243252241),
        "head.conv3.w": (-0.050293358752470575, 12.249164558419215),
        "head.trunk.w": (-0.04244051707210804, -3.187968105077962),
    }
    for name, (first, total) in pins.items():
        w = m.store[name].data
        assert w[0, 0] == first and w.sum() == pytest.approx(total, rel=1e-12), name


def test_full_preset_parameters_unchanged():
    """The full preset's head (16 -> 7 -> 3 -> 1, valid padding) has no 1x1
    input, so its names and shapes are those of the full-kernel model."""
    m = TrackerModel(cfgmod.from_items(cfgmod.FULL_SCALE_OVERRIDES).model_config())
    assert m.store.centre_taps == set()
    assert [m.store[f"head.conv{i}.w"].shape for i in (1, 2, 3)] == [
        (3, 3, 128, 256), (3, 3, 256, 512), (3, 3, 512, 512)]
    assert (len(m.store), m.store.num_values()) == (94, 5_216_055)
    # sha256 of the "name shape" lines of the model with every kernel full
    text = "".join(f"{n} {t.shape}\n" for n, t in m.store.items())
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "4ccc428f7a0470d852f6b1ad9562617e8deaa6c3b806620802d2e5f55fb1aeb4")


def test_centre_tap_head_matches_full_conv_head(rng):
    """The head with its full 3x3 kernels runs every layer as a padded conv:
    same outputs and gradients, and zero gradient on the padding taps."""
    m = TrackerModel(ModelConfig(), seed=0)
    m.randomize_all(np.random.default_rng(5))
    feat = Tensor(rng.standard_normal((4, 4, 64)), requires_grad=True)
    up = Tensor(rng.standard_normal(4))
    kernels = {n: Tensor(k, requires_grad=True) for n, k in full_kernels(m, rng).items()}
    conv_head = replace(m.head, conv_w=[kernels.get(f"head.conv{i}.w", w)
                                        for i, w in enumerate(m.head.conv_w, start=1)])
    runs = []
    for head in (m.head, conv_head):
        m.head = head
        m.store.zero_grad()
        feat.grad = None
        with Tape() as tape:
            out = m.head_forward(feat)
            tape.backward(T.sum_all(T.mul(out, up)))
        runs.append((out.data, feat.grad, {n: t.grad for n, t in m.store.items()}))
    (out_f, dfeat_f, grads_f), (out_c, dfeat_c, grads_c) = runs
    np.testing.assert_array_equal(out_f, out_c)
    np.testing.assert_array_equal(dfeat_f, dfeat_c)
    for name, g in grads_f.items():
        if name in kernels:
            dk = kernels[name].grad
            np.testing.assert_array_equal(g, dk[1, 1])
            dk[1, 1] = 0.0
            assert not dk.any()
        elif name.startswith("head."):
            np.testing.assert_array_equal(g, grads_c[name])


@pytest.mark.parametrize("cin,cout", [(1, 1), (128, 256), (256, 512), (5, 3)])
def test_centre_tap_draw_equals_full_kernel_draw(cin, cout):
    """Nine (cin, cout) draws keep the values of the whole kernel's w[1, 1]
    and leave the generator where the whole draw leaves it."""
    taps, whole = np.random.default_rng(17), np.random.default_rng(17)
    got = _centre_tap(lambda shape: _kaiming(taps, shape, 9 * cin), (cin, cout))
    want = _kaiming(whole, (3, 3, cin, cout), 9 * cin)[1, 1]  # the full-draw oracle
    np.testing.assert_array_equal(got, want)
    assert got.shape == (cin, cout) and got.base is None
    assert taps.bit_generator.state == whole.bit_generator.state


def test_desk_build_peak_memory_follows_parameters():
    """Building the desk model holds no whole 3x3 draw of a centre tap and
    no optimizer state: traced memory peaks below 2.5x the parameter bytes
    (6.1x with both)."""
    tracemalloc.start()
    try:
        m = TrackerModel(ModelConfig(), seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 8 * m.store.num_values()


@pytest.mark.parametrize("seed", [pytest.param(1, id="rotate"),
                                  pytest.param(3, id="flip-rotate")])
def test_augment_crops_points_it_moves_out(seed):
    # in a 2 m window a few degrees of yaw move target points past the edge:
    # augment crops them away, so the model reads the pair as its re-cropped self
    spec = CropSpec(x_range=(-1.0, 1.0), y_range=(-1.0, 1.0), grid=(16, 16))
    m = tiny_model()
    m.randomize_all(np.random.default_rng(4))
    seq = generate(SceneConfig(scene_length=2, seed=2))
    pair = make_training_samples([seq], spec)[0].cropped()
    out = augment(pair, np.random.default_rng(seed))
    draws = np.random.default_rng(seed)  # the same flip and rotation draws, by hand
    flipped = flip_sample(pair, "x") if draws.random() < 0.5 else pair
    moved = rotate_sample(flipped, math.radians(draws.uniform(-5.0, 5.0)))
    want = [crop(p, spec) for p in (moved.prev_pts, moved.curr_pts)]
    assert all(len(w) < len(p) for w, p in zip(want, (moved.prev_pts, moved.curr_pts)))
    for got, w in zip((out.prev_pts, out.curr_pts), want):
        np.testing.assert_array_equal(got.xyz, crop(got, spec).xyz)
        np.testing.assert_array_equal(got.xyz, w.xyz)
    assert (out.box_prev, out.box_curr, out.target, out.spec) == \
        (moved.box_prev, moved.box_curr, moved.target, moved.spec)
    np.testing.assert_array_equal(m.forward_clouds(out.prev_pts, out.curr_pts, spec).data,
                                  m.forward_clouds(*want, spec).data)


def test_inference_makes_no_optimizer_state(rng):
    """Forwards outside a tape and tracking leave the store without AdamW
    state; the first update makes it for every parameter, at step 1."""
    m = TrackerModel(ModelConfig(), seed=0)
    spec = CropSpec()
    prev = PointCloud(rng.uniform(-4, 4, size=(300, 3)) * [1, 1, 0.3])
    curr = PointCloud(rng.uniform(-4, 4, size=(300, 3)) * [1, 1, 0.3])
    m.forward_clouds(prev, curr, spec)
    seq = generate(SceneConfig(scene_length=3, seed=6))
    track_sequence(seq.frames, seq.gt[0], tracker_motion_model(m, spec))
    assert m.store._moments == {} and m.store._step == 0
    with Tape() as tape:
        tape.backward(motion_loss(m.forward_clouds(prev, curr, spec),
                                  Motion4(0.2, -0.1, 0.0, 0.05), m.config))
    adamw_step(m.store, lr=1e-3)
    assert list(m.store._moments) == m.store.names() and m.store._step == 1
    for name, t in m.store.items():
        mom, var = m.store._moments[name]
        assert mom.shape == var.shape == t.shape, name


def test_desk_forward_conv_count(monkeypatch, rng):
    """A desk pair runs 18 conv2d calls: per stage the cnn, dwc and down
    convs of both frames, less the previous frame's down conv after the
    last stage, which nothing reads, plus head.conv1."""
    calls = []
    conv2d = T.conv2d

    def counted(*args, **kwargs):
        calls.append(args[1].shape)
        return conv2d(*args, **kwargs)

    monkeypatch.setattr(T, "conv2d", counted)
    m = TrackerModel(ModelConfig(), seed=0)
    prev = PointCloud(rng.uniform(-4, 4, size=(300, 3)) * [1, 1, 0.3])
    curr = PointCloud(rng.uniform(-4, 4, size=(300, 3)) * [1, 1, 0.3])
    m.forward_clouds(prev, curr, CropSpec())
    assert len(calls) == 18
    assert calls.count(m.store["down3.w"].shape) == 1


def test_randomize_all_draws_centre_taps_from_full_kernels():
    """randomize_all draws a centre tap as its whole 3x3 kernel (fan = 3),
    so every value equals the full-kernel model's draw or its centre tap."""
    m = TrackerModel(ModelConfig(), seed=0)
    oracle = TrackerModel(ModelConfig(), seed=0)
    oracle.store = ParamStore()
    for name, t in m.store.items():
        shape = (3, 3) + t.shape if name in m.store.centre_taps else t.shape
        oracle.store.create(name, np.zeros(shape))
    m.randomize_all(np.random.default_rng(9))
    oracle.randomize_all(np.random.default_rng(9))
    for name, t in m.store.items():
        want = oracle.store[name].data
        np.testing.assert_array_equal(t.data, want[1, 1] if t.ndim < want.ndim else want)
    assert all(m.store[n].data.base is None for n in m.store.centre_taps)


def test_checkpoint_with_full_kernels_loads_as_centre_taps(rng, tmp_path):
    """A checkpoint written by the full-kernel model (format v1, 3x3 kernels
    for head.conv2/conv3) loads and predicts what its model predicted."""
    m = TrackerModel(ModelConfig(), seed=0)
    m.randomize_all(np.random.default_rng(4))
    kernels = full_kernels(m, rng)
    v1 = ParamStore()
    for name, t in m.store.items():
        v1.create(name, kernels.get(name, t.data))
    path = str(tmp_path / "v1.bin")
    save_checkpoint(v1, path)
    fresh = TrackerModel(ModelConfig(), seed=1)
    load_checkpoint(fresh.store, path)
    for name, t in m.store.items():
        np.testing.assert_array_equal(fresh.store[name].data, t.data)
    spec = CropSpec()
    prev = PointCloud(rng.uniform(-4, 4, size=(300, 3)) * [1, 1, 0.3])
    curr = PointCloud(rng.uniform(-4, 4, size=(300, 3)) * [1, 1, 0.3])
    np.testing.assert_array_equal(fresh.forward_clouds(prev, curr, spec).data,
                                  m.forward_clouds(prev, curr, spec).data)


@pytest.mark.parametrize("shape", [(3, 3, 128, 255), (2, 2, 128, 256), (1, 128, 256)])
def test_checkpoint_kernel_of_wrong_shape_names_parameter(tmp_path, shape):
    m = TrackerModel(ModelConfig(), seed=0)
    bad = ParamStore()
    for name, t in m.store.items():
        bad.create(name, np.zeros(shape) if name == "head.conv2.w" else t.data)
    path = str(tmp_path / "bad.bin")
    save_checkpoint(bad, path)
    with pytest.raises(ConfigError, match="shape mismatch for 'head.conv2.w'"):
        load_checkpoint(m.store, path)


# ---------------------------------------------------------------------------
# loss


def test_loss_zero_iff_equal():
    pred = Tensor(np.array([0.1, -0.2, 0.3, 0.5]))
    assert motion_loss(pred, Motion4(0.1, -0.2, 0.3, 0.5), TINY).item() == 0.0
    assert motion_loss(pred, Motion4(0.1, -0.2, 0.3, 0.4), TINY).item() > 0.0


def test_loss_angular_wrap_short_way():
    pred = Tensor(np.array([0.0, 0.0, 0.0, np.pi - 0.05]))
    target = Motion4(0.0, 0.0, 0.0, -np.pi + 0.05)
    # residual is 0.1, not 2*pi - 0.1
    expected = 0.5 * 0.1 ** 2
    assert motion_loss(pred, target, TINY).item() == pytest.approx(expected, rel=1e-9)


def test_loss_hand_evaluated_sum():
    cfg = ModelConfig(lambda1=2.0, lambda2=0.5, lambda3=3.0, huber_delta=1.0)
    pred = Tensor(np.array([0.3, -1.8, 0.2, 0.9]))
    target = Motion4(0.1, 0.2, -0.1, 0.4)
    hub = lambda r: 0.5 * r * r if abs(r) <= 1 else abs(r) - 0.5
    want = 2.0 * (hub(0.2) + hub(-2.0)) + 0.5 * hub(0.3) + 3.0 * hub(0.5)
    assert motion_loss(pred, target, cfg).item() == pytest.approx(want, rel=1e-12)


def test_loss_invariant_to_two_pi_shift():
    pred = Tensor(np.array([0.0, 0.0, 0.0, 0.3]))
    a = motion_loss(pred, Motion4(0, 0, 0, 0.1), TINY).item()
    b = motion_loss(pred, Motion4(0, 0, 0, 0.1 + 2 * np.pi), TINY).item()
    assert a == pytest.approx(b, abs=1e-12)


def test_loss_nonfinite_target_rejected():
    pred = Tensor(np.zeros(4))
    bad = Motion4(0, 0, 0, 0)
    bad.dz = float("nan")
    with pytest.raises(NumericError):
        motion_loss(pred, bad, TINY)


def motion_loss_three_terms(pred4, target, config):
    """Oracle: the loss as three Huber terms over (dx, dy), dz and the
    wrapped dtheta, each summed and scaled, then added."""
    diff = T.sub(pred4, Tensor(target.as_array()))
    delta = config.huber_delta
    l_xy = T.sum_all(T.huber(T.slice_cols(diff, 0, 2), delta))
    l_z = T.sum_all(T.huber(T.slice_cols(diff, 2, 3), delta))
    l_th = T.sum_all(T.huber(T.wrap_angle(T.slice_cols(diff, 3, 4)), delta))
    return T.add(T.add(T.scale(l_xy, config.lambda1), T.scale(l_z, config.lambda2)),
                 T.scale(l_th, config.lambda3))


def loss_and_grad(loss_fn, pred, target, config):
    leaf = Tensor(pred, requires_grad=True)
    with Tape() as tape:
        loss = loss_fn(leaf, target, config)
    tape.backward(loss)
    return loss.item(), leaf.grad


@pytest.mark.parametrize("config,rel", [
    pytest.param(ModelConfig(), 0.0, id="default"),
    pytest.param(ModelConfig(lambda1=0.7, lambda2=1.3, lambda3=2.0, huber_delta=0.3), 4.5e-16,
                 id="weighted")])
def test_loss_equals_three_term_oracle(config, rel):
    """One pass over the residual gives the three-term loss: equal gradients,
    and equal values at unit weights, where the weighted sum adds the same
    four Huber terms left to right."""
    rng = np.random.default_rng(11)
    for _ in range(2000):
        pred = rng.uniform(-2.0, 2.0, 4) * rng.choice([1e-3, 1.0, 4.0])
        target = Motion4(*rng.uniform(-2.0, 2.0, 3), rng.uniform(-np.pi, np.pi))
        got, got_grad = loss_and_grad(motion_loss, pred, target, config)
        want, want_grad = loss_and_grad(motion_loss_three_terms, pred, target, config)
        np.testing.assert_array_equal(got_grad, want_grad)
        if rel == 0.0:
            assert got == want
        else:
            assert abs(got - want) <= rel * abs(want)


def test_loss_records_eight_nodes():
    leaf = Tensor(np.zeros(4), requires_grad=True)
    with Tape() as tape:
        motion_loss(leaf, Motion4(0.1, 0.2, 0.3, 0.4), ModelConfig())
        assert len(tape) == 8


@given(st.tuples(*[st.floats(-3, 3) for _ in range(4)]),
       st.tuples(*[st.floats(-3, 3) for _ in range(4)]))
def test_loss_nonnegative(p, t):
    pred = Tensor(np.array(p))
    loss = motion_loss(pred, Motion4(*t), TINY).item()
    assert loss >= 0.0


# ---------------------------------------------------------------------------
# end-to-end gradient and training step


def test_end_to_end_gradcheck_small(rng):
    m = tiny_model()
    m.randomize_all(np.random.default_rng(11))
    spec = CropSpec(grid=(16, 16))
    prev = PointCloud(rng.uniform(-4, 4, size=(80, 3)) * [1, 1, 0.3])
    curr = PointCloud(rng.uniform(-4, 4, size=(80, 3)) * [1, 1, 0.3])
    target = Motion4(0.2, -0.1, 0.02, 0.05)

    def f():
        return motion_loss(m.forward_clouds(prev, curr, spec), target, m.config)

    picks = ["pillar.w", "stage1.cnn.w", "stage1.alpha", "stage1.gate.w",
             "stage2.wq", "stage2.dwc.w", "stage3.lin.w", "down2.w",
             "head.conv1.w", "head.trunk.w", "head.xy.w", "head.th.w"]
    errs = gradcheck_params(f, [(n, m.store[n]) for n in picks],
                            samples_per_param=3, rng=np.random.default_rng(2))
    assert max(errs.values()) < 1e-4, errs


def test_gradcheck_keeps_alpha_shape_for_checkpoint(rng, tmp_path):
    m = tiny_model()
    spec = CropSpec(grid=(16, 16))
    prev = PointCloud(rng.uniform(-4, 4, size=(40, 3)) * [1, 1, 0.3])
    curr = PointCloud(rng.uniform(-4, 4, size=(40, 3)) * [1, 1, 0.3])
    alphas = [(n, p) for n, p in m.store.items() if n.endswith("alpha")]
    assert len(alphas) == m.config.stages

    def f():
        return motion_loss(m.forward_clouds(prev, curr, spec), Motion4(0.1, 0, 0, 0), m.config)

    gradcheck_params(f, alphas)
    assert [p.shape for _, p in alphas] == [()] * m.config.stages
    path = str(tmp_path / "ck.bin")
    save_checkpoint(m.store, path)
    fresh = tiny_model(seed=1)
    load_checkpoint(fresh.store, path)
    assert fresh.alphas() == m.alphas()


def test_every_param_receives_grad(rng):
    m = tiny_model()
    spec = CropSpec(grid=(16, 16))
    prev = PointCloud(rng.uniform(-4, 4, size=(60, 3)) * [1, 1, 0.3])
    curr = PointCloud(rng.uniform(-4, 4, size=(60, 3)) * [1, 1, 0.3])
    with Tape() as tape:
        loss = motion_loss(m.forward_clouds(prev, curr, spec),
                           Motion4(0.1, 0, 0, 0), m.config)
        tape.backward(loss)
    missing = [n for n, p in m.store.items() if p.grad is None]
    assert missing == []


def test_unshared_doubles_cnn_linear_dwc_params():
    shared = tiny_model()
    unshared = tiny_model(shared=False)
    path_params = sum(
        t.data.size for n, t in shared.store.items()
        if ".cnn." in n or ".lin." in n or ".dwc." in n)
    assert path_params > 0
    diff = unshared.store.num_values() - shared.store.num_values()
    assert diff == path_params


ABLATIONS = [dict(zip(("imm", "dwc", "linear", "shared"), flags))
             for flags in itertools.product((True, False), repeat=4)]


@pytest.fixture(scope="module")
def one_sample():
    from bevsot.scene import SceneConfig, generate
    from bevsot.train import make_training_samples
    return make_training_samples([generate(SceneConfig(scene_length=2, seed=1))],
                                 CropSpec(grid=(16, 16)))


@pytest.mark.parametrize("flags", ABLATIONS, ids=lambda f: "-".join(
    k if on else f"no_{k}" for k, on in f.items()))
def test_ablation_matrix_trains_one_step_or_is_rejected(one_sample, flags):
    from bevsot.train import TrainSettings, train
    from tests.test_blocks import block_leaves
    cfg = replace(TINY, **flags)
    if not (flags["imm"] or flags["shared"]):
        # the previous frame is only encoded for the motion gate, so its own
        # weights would never get a gradient
        with pytest.raises(ConfigError, match="shared=false needs the motion module"):
            TrackerModel(cfg)
        return
    m = TrackerModel(cfg, seed=0)
    for s, bp in enumerate(m.blocks, start=1):  # the leaves the block tests collect
        stage = {id(t) for n, t in m.store.items() if n.startswith(f"stage{s}.")}
        assert {id(t) for t in block_leaves(bp).values()} == stage
    assert (m.blocks[0].enc_prev is m.blocks[0].enc) == flags["shared"]
    history = train(m, one_sample, TrainSettings(batch=1, epochs=1, augment=False))
    assert history[-1].steps == 1 and np.isfinite(history[-1].mean_loss)


def test_no_imm_removes_motion_params():
    m = tiny_model(imm=False)
    assert not any("alpha" in n or "gate" in n for n in m.store.names())


def test_forward_deterministic(rng):
    m = tiny_model()
    spec = CropSpec(grid=(16, 16))
    pts = PointCloud(rng.uniform(-4, 4, size=(60, 3)) * [1, 1, 0.3])
    a = m.forward_clouds(pts, pts, spec).data
    b = m.forward_clouds(pts, pts, spec).data
    np.testing.assert_array_equal(a, b)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_loss_aborts_with_step_diagnostic(rng):
    from bevsot.scene import SceneConfig, generate
    from bevsot.train import TrainSettings, make_training_samples, train
    m = tiny_model()
    spec = CropSpec(grid=(16, 16))
    seqs = [generate(SceneConfig(scene_length=3, seed=1))]
    samples = make_training_samples(seqs, spec)
    settings = TrainSettings(lr=1e32, weight_decay=0.0, batch=1, epochs=50,
                             augment=False)
    with pytest.raises(NumericError, match=r"epoch \d+ step \d+"):
        train(m, samples, settings)


def test_desk_training_step_records_no_quadratic_tensor():
    """The motion gate is row-tiled: no tensor on the tape of a desk-preset
    training step holds an N x N map of the stage-1 token count."""
    from bevsot.config import RunConfig
    from bevsot.scene import generate
    from bevsot.train import make_training_samples
    cfg = RunConfig()
    m = TrackerModel(cfg.model_config(), seed=0)
    samples = [s.cropped() for s in make_training_samples(
        [generate(cfg.scene_config(seed=0))], cfg.crop_spec())[:cfg.batch]]
    with Tape() as tape:
        terms = [motion_loss(m.forward_clouds(s.prev_pts, s.curr_pts, s.spec),
                             s.target, m.config) for s in samples]
        loss = T.scale(T.sum_all(T.stack(terms)), 1.0 / len(terms))
        largest = max(node.out.data.size for node in tape._nodes)  # backward empties the tape
        tape.backward(loss)
    n1 = cfg.grid * cfg.grid
    assert 0 < largest < n1 * n1
    assert m.store["stage1.alpha"].grad is not None
