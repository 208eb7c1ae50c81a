"""Backbone/head bookkeeping, the loss, and whole-model gradients."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bevsot import tensor as T
from bevsot.blocks import FramePair
from bevsot.exceptions import ConfigError, NumericError
from bevsot.geometry import Motion4, PointCloud
from bevsot.gradcheck import gradcheck_params
from bevsot.model import ModelConfig, TrackerModel, motion_loss
from bevsot.pillars import CropSpec
from bevsot.tensor import Tape, Tensor

TINY = ModelConfig(grid=16, channels=4, head_trunk=32)


def tiny_model(seed=0, **kw):
    cfg = ModelConfig(grid=16, channels=4, head_trunk=32, **kw)
    return TrackerModel(cfg, seed=seed)


def random_pair(rng, cfg):
    shape = (cfg.grid, cfg.grid, cfg.channels)
    return FramePair(Tensor(rng.standard_normal(shape)),
                     Tensor(rng.standard_normal(shape)))


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
    out = m.backbone_forward(random_pair(rng, m.config))
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
    seqs = [generate(SceneConfig(length=3, seed=1))]
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
    samples = make_training_samples([generate(cfg.scene_config(seed=0))],
                                    cfg.crop_spec())[:cfg.batch]
    with Tape() as tape:
        terms = [motion_loss(m.forward_clouds(s.prev_pts, s.curr_pts, s.spec),
                             s.target, m.config) for s in samples]
        loss = T.scale(T.sum_all(T.stack(terms)), 1.0 / len(terms))
        tape.backward(loss)
    n1 = cfg.grid * cfg.grid
    largest = max(node.out.data.size for node in tape._nodes)
    assert 0 < largest < n1 * n1
    assert m.store["stage1.alpha"].grad is not None
