"""The training step: per-sample tapes against the batch-wide-tape oracle."""

from dataclasses import replace

import numpy as np
import pytest

from bevsot import tensor as T
from bevsot.config import RunConfig
from bevsot.exceptions import NumericError
from bevsot.geometry import Motion4
from bevsot.model import TrackerModel, motion_loss
from bevsot.params import adamw_step, lr_at_epoch
from bevsot.scene import augment, generate
from bevsot.tensor import Tape
from bevsot.train import (EpochStats, TrainSettings, make_training_samples,
                          save_train_log, train)

DESK = RunConfig()


def desk_model(imm=True):
    return TrackerModel(replace(DESK.model_config(), imm=imm), seed=0)


def desk_samples(n):
    samples = make_training_samples([generate(DESK.scene_config(seed=0))],
                                    DESK.crop_spec())
    return samples[:n]


def train_batch_tape(model, samples, settings):
    """Oracle: the whole batch on one tape, backward once after the last
    forward. Same RNG use, schedule and logging fields as `train`."""
    rng = np.random.default_rng(settings.seed)
    history = []
    steps_done = 0
    for epoch in range(settings.epochs):
        lr = lr_at_epoch(settings.lr, epoch, settings.decay_factor,
                         settings.decay_interval)
        order = rng.permutation(len(samples))
        losses = []
        for start in range(0, len(order), settings.batch):
            batch = [samples[i] for i in order[start:start + settings.batch]]
            with Tape() as tape:
                acc = None
                for s in batch:
                    if settings.augment:
                        s = augment(s, rng, settings.flip_axis, settings.max_rot_deg)
                    pred = model.forward_clouds(s.prev_pts, s.curr_pts, s.spec)
                    term = motion_loss(pred, s.target, model.config)
                    acc = term if acc is None else T.add(acc, term)
                loss = T.scale(acc, 1.0 / len(batch))
            tape.backward(loss)
            adamw_step(model.store, lr, settings.weight_decay, settings.betas)
            model.store.zero_grad()
            losses.append(loss.item())
            steps_done += 1
        history.append(EpochStats(epoch=epoch, lr=lr,
                                  mean_loss=float(np.mean(losses)),
                                  alphas=model.alphas(), steps=steps_done))
    return history


@pytest.mark.parametrize("imm,batch,n", [
    (True, 4, 8),   # motion module on, whole batches
    (False, 4, 8),  # motion module off
    (True, 3, 6),   # odd batch
    (True, 4, 6),   # final partial batch of 2
])
def test_per_sample_tapes_bit_identical_to_batch_tape(imm, batch, n):
    samples = desk_samples(n)
    settings = TrainSettings(batch=batch, epochs=2, augment=True, seed=3)
    got_model, want_model = desk_model(imm), desk_model(imm)
    got = train(got_model, samples, settings)
    want = train_batch_tape(want_model, samples, settings)
    assert got == want  # epoch, lr, mean loss, alphas and step count, exactly
    assert got[-1].steps == 2 * -(-n // batch)
    for name, t in want_model.store.items():
        np.testing.assert_array_equal(got_model.store[name].data, t.data, err_msg=name)
        got_state, want_state = got_model.store._state[name], want_model.store._state[name]
        np.testing.assert_array_equal(got_state.m, want_state.m, err_msg=name)
        np.testing.assert_array_equal(got_state.v, want_state.v, err_msg=name)


def test_step_holds_one_sample_tape_at_a_time(monkeypatch):
    lengths = []
    backward = Tape.backward

    def spy(tape, loss):
        lengths.append(len(tape))
        return backward(tape, loss)

    monkeypatch.setattr(Tape, "backward", spy)
    samples = desk_samples(4)
    settings = TrainSettings(batch=4, epochs=1)
    train(desk_model(), samples[:1], replace(settings, batch=1))
    (one_sample,) = lengths
    lengths.clear()
    train(desk_model(), samples, settings)
    assert len(lengths) == 4
    assert max(lengths) <= one_sample


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_step_that_raises_leaves_no_gradient():
    # batch order is the epoch's permutation; poison the sample it puts first,
    # so the later samples have already backpropagated when it raises
    samples = desk_samples(3)
    settings = TrainSettings(batch=3, epochs=1, augment=False)
    first = np.random.default_rng(settings.seed).permutation(len(samples))[0]
    samples[first] = replace(samples[first], target=Motion4(np.nan, 0.0, 0.0, 0.0))
    model = desk_model()
    with pytest.raises(NumericError, match=r"^epoch 0 step 0: non-finite motion target"):
        train(model, samples, settings)
    assert [n for n, t in model.store.items() if t.grad is not None] == []


def test_train_log_write_that_fails_keeps_previous_file(tmp_path):
    path = tmp_path / "train_log.csv"
    stats = [EpochStats(epoch=0, lr=5e-4, mean_loss=0.25, alphas=[1.0, 1.0], steps=2)]
    save_train_log(stats, 2, str(path))
    before = path.read_bytes()
    assert before.decode().splitlines() == ["epoch,lr,loss,alpha1,alpha2",
                                            "0,0.0005,0.25,1.000000,1.000000"]
    # the second row's alpha cannot be formatted, so the write fails midway
    stats.append(EpochStats(epoch=1, lr=5e-4, mean_loss=0.5, alphas=["x", 1.0], steps=4))
    with pytest.raises(ValueError):
        save_train_log(stats, 2, str(path))
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["train_log.csv"]


def test_train_log_write_that_fails_leaves_no_file(tmp_path):
    stats = [EpochStats(epoch=0, lr=5e-4, mean_loss=0.25, alphas=["x"], steps=2)]
    with pytest.raises(ValueError):
        save_train_log(stats, 1, str(tmp_path / "train_log.csv"))
    assert list(tmp_path.iterdir()) == []
