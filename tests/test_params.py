"""ParamStore, AdamW, the step-decay schedule, and checkpoint round trips."""

import numpy as np
import pytest

from bevsot.exceptions import ConfigError
from bevsot.params import (ADAMW_CHUNK, ParamStore, adamw_step, load_checkpoint,
                           lr_at_epoch, save_checkpoint)


def store_with(name="p", value=1.0):
    s = ParamStore()
    s.create(name, np.asarray(value))
    return s


def test_duplicate_name_rejected():
    s = store_with()
    with pytest.raises(ConfigError):
        s.create("p", np.zeros(2))


def test_create_after_first_update_rejected():
    # every update steps every parameter, so one step count serves the store;
    # a parameter made after an update would need a count of its own
    s = store_with()
    s["p"].grad = np.asarray(0.5)
    adamw_step(s, lr=0.1)
    with pytest.raises(ConfigError, match="'q' created after AdamW step 1"):
        s.create("q", np.zeros(2))
    assert s.names() == ["p"]


def test_zero_grad_zero_decay_is_identity():
    s = ParamStore()
    p = s.create("w", np.array([1.5, -2.0, 0.25]))
    p.grad = np.zeros(3)
    adamw_step(s, lr=0.1, weight_decay=0.0)
    np.testing.assert_array_equal(p.data, [1.5, -2.0, 0.25])


def test_missing_grad_raises():
    s = store_with()
    with pytest.raises(ValueError, match="'p' has no gradient"):
        adamw_step(s, lr=0.1)


def test_missing_later_grad_leaves_earlier_params_untouched():
    s = ParamStore()
    a, b = s.create("a", np.array([1.0])), s.create("b", np.array([2.0]))
    a.grad = np.array([0.5])
    with pytest.raises(ValueError, match="'b' has no gradient"):
        adamw_step(s, lr=0.1)
    np.testing.assert_array_equal(a.data, [1.0])
    np.testing.assert_array_equal(b.data, [2.0])
    assert s._moments == {} and s._step == 0  # no moments made, not even for a's


def test_missing_grad_leaves_step_count_and_moments_unchanged():
    s = ParamStore()
    a, b = s.create("a", np.array([1.0])), s.create("b", np.array([2.0]))
    a.grad, b.grad = np.array([0.5]), np.array([-0.5])
    adamw_step(s, lr=0.1)
    moments = {name: (m.copy(), v.copy()) for name, (m, v) in s._moments.items()}
    values = a.data.copy(), b.data.copy()
    b.grad = None
    with pytest.raises(ValueError, match="'b' has no gradient"):
        adamw_step(s, lr=0.1)
    assert s._step == 1
    for name, (m, v) in s._moments.items():
        np.testing.assert_array_equal(m, moments[name][0])
        np.testing.assert_array_equal(v, moments[name][1])
    np.testing.assert_array_equal(a.data, values[0])
    np.testing.assert_array_equal(b.data, values[1])


def test_adamw_single_step_hand_computed():
    # one step from zero moments: m = (1-b1) g, v = (1-b2) g^2, and the
    # bias corrections cancel those same factors exactly
    s = ParamStore()
    p = s.create("w", np.array([1.0]))
    p.grad = np.array([0.5])
    lr, wd, b1, b2, eps = 0.01, 0.1, 0.9, 0.999, 1e-8
    mhat = 0.5  # (1-b1)*g / (1-b1)
    vhat = 0.25
    expected = 1.0 - lr * (mhat / (np.sqrt(vhat) + eps) + wd * 1.0)
    adamw_step(s, lr=lr, weight_decay=wd, betas=(b1, b2), eps=eps)
    np.testing.assert_allclose(p.data, [expected], rtol=1e-12)


def test_adamw_two_steps_hand_computed():
    s = ParamStore()
    p = s.create("w", np.array([2.0]))
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    m = v = 0.0
    x = 2.0
    for step, g in enumerate([0.3, -0.2], start=1):
        p.grad = np.array([g])
        adamw_step(s, lr=lr, weight_decay=0.0, betas=(b1, b2), eps=eps)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        x = x - lr * (m / (1 - b1 ** step)) / (np.sqrt(v / (1 - b2 ** step)) + eps)
    np.testing.assert_allclose(p.data, [x], rtol=1e-12)


def adamw_whole_array(store, lr, weight_decay, betas, eps):
    """AdamW as whole-array expressions, the form the chunked update replaced."""
    b1, b2 = betas
    store._step += 1
    for name, p in store.items():
        m, v = store._moments.get(name, (np.zeros(p.data.shape), np.zeros(p.data.shape)))
        m = b1 * m + (1.0 - b1) * p.grad
        v = b2 * v + (1.0 - b2) * (p.grad * p.grad)
        store._moments[name] = m, v
        mhat = m / (1.0 - b1 ** store._step)
        vhat = v / (1.0 - b2 ** store._step)
        p.data = p.data - lr * (mhat / (np.sqrt(vhat) + eps) + weight_decay * p.data)


def test_adamw_chunked_bit_identical_to_whole_array(rng):
    base = rng.standard_normal((6, 4))
    base_before = base.copy()
    values = {"alpha": np.asarray(0.5),  # 0-d, like the stage alphas
              "big": rng.standard_normal(2 * ADAMW_CHUNK + 77),
              "small": rng.standard_normal((3, 5))}
    stores = [ParamStore(), ParamStore()]
    for s in stores:
        for name, v in values.items():
            s.create(name, v)
        s.create("viewed", np.zeros((4, 6)))
        s["viewed"].data = base.T  # a strided view of another array
    hyper = dict(lr=0.01, weight_decay=0.1, betas=(0.9, 0.999), eps=1e-8)
    for _ in range(5):
        grads = {name: rng.standard_normal(p.shape) for name, p in stores[0].items()}
        for s in stores:
            for name, p in s.items():
                p.grad = grads[name].copy()
        adamw_step(stores[0], **hyper)
        adamw_whole_array(stores[1], **hyper)
        for name, p in stores[0].items():
            q, st, sr = stores[1][name], stores[0]._moments[name], stores[1]._moments[name]
            np.testing.assert_array_equal(p.grad, grads[name])  # grads only read
            assert np.array_equal(p.data, q.data), name
            assert np.array_equal(st[0], sr[0]) and np.array_equal(st[1], sr[1]), name
        assert stores[0]._step == stores[1]._step
    np.testing.assert_array_equal(base, base_before)  # the view's base is not written
    assert not np.array_equal(stores[0]["viewed"].data, base.T)


def test_lr_schedule_paper_values():
    assert lr_at_epoch(1e-4, 0) == pytest.approx(1e-4)
    assert lr_at_epoch(1e-4, 19) == pytest.approx(1e-4)
    assert lr_at_epoch(1e-4, 20) == pytest.approx(2e-5)
    assert lr_at_epoch(1e-4, 40) == pytest.approx(4e-6)


def test_optimizer_state_shapes_mirror_params(rng):
    s = ParamStore()
    p = s.create("w", rng.standard_normal((3, 4)))
    p.grad = rng.standard_normal((3, 4))
    adamw_step(s, lr=0.1)
    m, v = s._moments["w"]
    assert m.shape == p.data.shape and v.shape == p.data.shape


def test_optimizer_state_made_on_first_update(rng):
    """create() makes no moments; the first step starts them from zero, so
    m = (1 - b1) g and v = (1 - b2) g^2 exactly, and sets step 1."""
    s = ParamStore()
    p = s.create("w", rng.standard_normal((3, 4)))
    q = s.create("alpha", np.asarray(0.5))
    assert s._moments == {} and s._step == 0
    g, h = rng.standard_normal((3, 4)), np.asarray(0.25)
    p.grad, q.grad = g, h
    b1, b2 = 0.8, 0.99
    adamw_step(s, lr=0.1, betas=(b1, b2))
    assert list(s._moments) == ["w", "alpha"] and s._step == 1
    for name, grad in (("w", g), ("alpha", h)):
        m, v = s._moments[name]
        assert m.shape == v.shape == grad.shape
        np.testing.assert_array_equal(m, (1.0 - b1) * grad)
        np.testing.assert_array_equal(v, (1.0 - b2) * (grad * grad))
    adamw_step(s, lr=0.1, betas=(b1, b2))
    assert s._step == 2


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip(tmp_path, rng):
    s = ParamStore()
    s.create("a.w", rng.standard_normal((3, 2)))
    s.create("a.b", rng.standard_normal(2))
    s.create("alpha", np.asarray(0.5))
    path = tmp_path / "ck.bin"
    save_checkpoint(s, str(path))
    s2 = ParamStore()
    s2.create("a.w", np.zeros((3, 2)))
    s2.create("a.b", np.zeros(2))
    s2.create("alpha", np.asarray(0.0))
    load_checkpoint(s2, str(path))
    for name, t in s.items():
        np.testing.assert_array_equal(t.data, s2[name].data)


def test_checkpoint_bytes_deterministic(tmp_path, rng):
    s = ParamStore()
    s.create("w", rng.standard_normal((4, 4)))
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(s, str(p1))
    save_checkpoint(s, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_write_that_fails_keeps_previous_file(tmp_path, rng):
    s = ParamStore()
    s.create("a.w", rng.standard_normal((3, 2)))
    s.create("b.w", rng.standard_normal(4))
    path = tmp_path / "ck.bin"
    save_checkpoint(s, str(path))
    before = path.read_bytes()
    s["a.w"].data = s["a.w"].data + 1.0
    s["b.w"].data = np.array(["not a number"] * 4)  # raises after a.w is written
    with pytest.raises(ValueError):
        save_checkpoint(s, str(path))
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.bin"]


def test_checkpoint_write_that_fails_leaves_no_file(tmp_path):
    s = store_with("w")
    s["w"].data = np.array(["x"])
    with pytest.raises(ValueError):
        save_checkpoint(s, str(tmp_path / "ck.bin"))
    assert list(tmp_path.iterdir()) == []


def test_checkpoint_shape_mismatch(tmp_path):
    s = store_with("w", np.zeros(3))
    path = tmp_path / "ck.bin"
    save_checkpoint(s, str(path))
    other = store_with("w", np.zeros(4))
    with pytest.raises(ConfigError, match="shape mismatch"):
        load_checkpoint(other, str(path))


def test_checkpoint_name_mismatch(tmp_path):
    s = store_with("w")
    path = tmp_path / "ck.bin"
    save_checkpoint(s, str(path))
    other = store_with("v")
    with pytest.raises(ConfigError, match="mismatch"):
        load_checkpoint(other, str(path))
