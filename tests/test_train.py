"""The training step: per-sample tapes against the batch-wide-tape oracle,
and frame-pair samples against the eager crops they replaced."""

import gc
import sys
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from bevsot import scene
from bevsot import tensor as T
from bevsot.config import RunConfig
from bevsot.exceptions import NumericError
from bevsot.geometry import box_in_frame, relative_motion
from bevsot.model import TrackerModel, motion_loss
from bevsot.params import adamw_step, lr_at_epoch
from bevsot.pillars import canonicalize, crop
from bevsot.scene import CroppedPair, augment, generate
from bevsot.tensor import Tape
from bevsot.track import tracker_motion_model
from bevsot.train import (EpochStats, TrainSettings, evaluate_mean_loss, make_training_samples,
                          pair_loss, train)

DESK = RunConfig()


def desk_model(imm=True):
    return TrackerModel(replace(DESK.model_config(), imm=imm), seed=0)


def desk_samples(n):
    samples = make_training_samples([generate(DESK.scene_config(seed=0))],
                                    DESK.crop_spec())
    return samples[:n]


def eager_training_samples(sequences, spec):
    """Oracle: samples built as they were before they referenced their
    frames, both crops computed up front and kept. The world-frame target
    they stored is the one each pair now reads from its boxes, bit for bit."""
    samples = []
    for seq in sequences:
        for t in range(1, len(seq.frames)):
            ref = seq.gt[t - 1]
            pair = CroppedPair(
                prev_pts=crop(canonicalize(seq.frames[t - 1], ref), spec),
                curr_pts=crop(canonicalize(seq.frames[t], ref), spec),
                box_prev=ref.with_pose(0.0, 0.0, 0.0, 0.0),
                box_curr=box_in_frame(seq.gt[t], ref),
                spec=spec)
            np.testing.assert_array_equal(
                pair.target.as_array(), relative_motion(seq.gt[t - 1], seq.gt[t]).as_array())
            samples.append(pair)
    return samples


class Kept:
    """An eager pair behind the `cropped()` that `train` calls."""

    def __init__(self, pair):
        self.pair = pair

    def cropped(self):
        return self.pair


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
                    s = s.cropped()
                    if settings.augment:
                        s = augment(s, rng, settings.flip_axis, settings.max_rot_deg)
                    pred = model.forward_clouds(s.prev_pts, s.curr_pts, s.spec)
                    term = motion_loss(pred, s.target, model.config)
                    acc = term if acc is None else T.add(acc, term)
                loss = T.scale(acc, 1.0 / len(batch))
            tape.backward(loss)
            adamw_step(model.store, lr, settings.weight_decay)
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
        got_state, want_state = got_model.store._moments[name], want_model.store._moments[name]
        np.testing.assert_array_equal(got_state[0], want_state[0], err_msg=name)
        np.testing.assert_array_equal(got_state[1], want_state[1], err_msg=name)
    assert got_model.store._step == want_model.store._step


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
    # max_steps stops mid-epoch: steps of 4 and 2 pairs in epoch 0, one of 4 in epoch 1
    lengths.clear()
    history = train(desk_model(), desk_samples(6), replace(settings, epochs=5, max_steps=3))
    assert [(s.epoch, s.steps) for s in history] == [(0, 2), (1, 3)]
    assert len(lengths) == 10


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_step_that_raises_leaves_no_gradient():
    # batch order is the epoch's permutation; poison the sample it puts first,
    # so the later samples have already backpropagated when it raises
    samples = desk_samples(3)
    settings = TrainSettings(batch=3, epochs=1, augment=False)
    first = np.random.default_rng(settings.seed).permutation(len(samples))[0]
    poisoned = samples[first].box_curr.with_pose(np.nan, 0.0, 0.0, 0.0)
    samples[first] = replace(samples[first], box_curr=poisoned)
    model = desk_model()
    with pytest.raises(NumericError, match=r"^epoch 0 step 0: non-finite motion target"):
        train(model, samples, settings)
    assert [n for n, t in model.store.items() if t.grad is not None] == []


# ---------------------------------------------------------------------------
# frame-pair samples: cropped when `cropped()` is called, bit-identical to
# the eager oracle


@pytest.mark.parametrize("crop_mode", ["fixed", "ratio"])
def test_frame_pair_crops_equal_eager_crops(crop_mode):
    cfg = replace(DESK, crop_mode=crop_mode)
    for seed in (0, 1):  # ratio mode sizes each sequence's window from its target
        seq = generate(cfg.scene_config(seed=seed))
        spec = cfg.crop_spec(seq.gt[0])
        got = make_training_samples([seq], spec)
        want = eager_training_samples([seq], spec)
        assert len(got) == len(want) == len(seq.frames) - 1
        for g, w in zip((s.cropped() for s in got), want):
            np.testing.assert_array_equal(g.prev_pts.xyz, w.prev_pts.xyz)
            np.testing.assert_array_equal(g.curr_pts.xyz, w.curr_pts.xyz)
            assert (g.box_prev, g.box_curr, g.target, g.spec) == \
                (w.box_prev, w.box_curr, w.target, w.spec)


def test_training_on_frame_pairs_equals_training_on_eager_crops():
    seq = generate(DESK.scene_config(seed=0))
    got_samples = make_training_samples([seq], DESK.crop_spec())[:8]
    want_samples = [Kept(p) for p in eager_training_samples([seq], DESK.crop_spec())[:8]]
    settings = TrainSettings(batch=4, epochs=2, augment=True, seed=7)
    got_model, want_model = desk_model(), desk_model()
    assert train(got_model, got_samples, settings) == train(want_model, want_samples, settings)
    for name, t in want_model.store.items():
        np.testing.assert_array_equal(got_model.store[name].data, t.data, err_msg=name)
        for got_m, want_m in zip(got_model.store._moments[name], want_model.store._moments[name]):
            np.testing.assert_array_equal(got_m, want_m, err_msg=name)


def kept_bytes(fn):
    """Bytes that stay allocated (tracemalloc) after `fn` runs, beyond what
    was allocated before; `fn`'s result is returned, so it stays alive."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        gc.collect()
        return result, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def held_sequences():
    seqs = [generate(DESK.scene_config(seed=seed)) for seed in range(3)]
    return seqs, sum(f.xyz.nbytes for seq in seqs for f in seq.frames)


def test_samples_keep_a_small_share_of_their_frames_bytes():
    # every frame is in two pairs: the eager crops kept ~170% of the frames' bytes
    seqs, frame_bytes = held_sequences()
    samples, kept = kept_bytes(lambda: make_training_samples(seqs, DESK.crop_spec()))
    assert len(samples) == 3 * (DESK.scene_length - 1)
    assert kept < 0.05 * frame_bytes, (kept, frame_bytes)
    _, eager = kept_bytes(lambda: eager_training_samples(seqs, DESK.crop_spec()))
    assert eager > frame_bytes  # the oracle shows what the measure catches


def test_reading_crops_keeps_no_bytes():
    """A crop cached on the sample would keep about half a frame per call."""
    seqs, frame_bytes = held_sequences()
    samples = make_training_samples(seqs, DESK.crop_spec())

    def read_all():
        for s in samples:
            pair = s.cropped()
            assert len(pair.prev_pts) and len(pair.curr_pts)

    _, first = kept_bytes(read_all)
    _, again = kept_bytes(read_all)
    assert max(first, again) < 0.01 * frame_bytes, (first, again, frame_bytes)


def test_crops_run_only_in_cropped(monkeypatch):
    """Building samples and reading their fields crops nothing, each
    `cropped()` crops its two frames, and `pair_loss` is the written-out
    loss bit for bit."""
    calls = []

    def counted(cloud, spec):
        calls.append(spec)
        return crop(cloud, spec)

    monkeypatch.setattr(scene, "crop", counted)
    seqs, _ = held_sequences()
    samples = make_training_samples(seqs, DESK.crop_spec())
    for s in samples:
        for f in fields(s):
            getattr(s, f.name)
    assert calls == []
    pairs = []
    for k, s in enumerate(samples[:5], 1):
        pairs.append(s.cropped())
        assert len(calls) == 2 * k
    model = desk_model()
    for pair in pairs:
        want = motion_loss(model.forward_clouds(pair.prev_pts, pair.curr_pts, pair.spec),
                           pair.target, model.config)
        np.testing.assert_array_equal(pair_loss(model, pair).data, want.data)


def test_each_pair_is_cropped_once_per_move(monkeypatch):
    """A window is applied where a pair's points are made (`cropped()`, the
    tracker) or moved (`augment`), never again by the model: a tracked pair
    crops twice, a loss evaluation twice per sample, and a batch-4 step 8
    times, 16 with augmentation. Training's first pair is the tracker's first,
    cropped to the same points."""
    calls, clouds = [], []

    def counted(cloud, spec):
        calls.append(spec)
        return crop(cloud, spec)

    for name, mod in list(sys.modules.items()):  # every bevsot module that binds it
        if name.startswith("bevsot") and getattr(mod, "crop", None) is crop:
            monkeypatch.setattr(mod, "crop", counted)
    model, seq = desk_model(), generate(DESK.scene_config(seed=0))
    forward = model.forward_clouds
    monkeypatch.setattr(model, "forward_clouds", lambda *a: clouds.append(a[:2]) or forward(*a))
    samples = make_training_samples([seq], DESK.crop_spec())[:4]
    assert tracker_motion_model(model, DESK.crop_spec())(seq.frames[0], seq.frames[1],
                                                         seq.gt[0]) is not None
    assert len(calls) == 2
    pair = samples[0].cropped()
    for got, want in zip(clouds[0], (pair.prev_pts, pair.curr_pts)):
        np.testing.assert_array_equal(got.xyz, want.xyz)
    calls.clear()
    evaluate_mean_loss(model, samples[:3])
    assert len(calls) == 2 * 3
    for augmented, want in ((True, 16), (False, 8)):
        calls.clear()
        train(model, samples, TrainSettings(batch=4, epochs=1, augment=augmented))
        assert len(calls) == want, augmented
