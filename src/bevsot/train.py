"""Mini-batch training over canonical frame-pair samples."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .atomic import atomic_write
from .exceptions import NumericError
from .geometry import box_in_frame
from .model import TrackerModel, motion_loss
from .params import adamw_step, lr_at_epoch
from .pillars import CropSpec
from .rules import BOOL, COUNT, NON_NEGATIVE, POSITIVE, check, ruled
from .scene import FLIP_AXIS, CroppedPair, LabeledSequence, TrainingSample, augment
from .tensor import Tape


@dataclass
class TrainSettings:
    lr: float = ruled(5e-4, NON_NEGATIVE)
    weight_decay: float = ruled(0.01, NON_NEGATIVE)
    batch: int = ruled(4, COUNT)
    epochs: int = ruled(5, COUNT)
    decay_factor: float = ruled(5.0, POSITIVE)
    decay_interval: int = ruled(20, COUNT)
    max_steps: int = ruled(0, NON_NEGATIVE)  # 0 = no cap
    augment: bool = ruled(True, BOOL)
    flip_axis: str = ruled("x", FLIP_AXIS)
    max_rot_deg: float = ruled(5.0, NON_NEGATIVE)
    seed: int = 0  # no rule here: a negative seed fails in train(), at its first draw

    __post_init__ = check


def make_training_samples(sequences: list[LabeledSequence],
                          spec: CropSpec) -> list[TrainingSample]:
    """Every consecutive frame pair of every sequence, to be cropped with
    `spec` around the previous gt box (mimicking inference, where the crop
    center carries the previous prediction's error). A window derived from
    each sequence's target size (ratio-crop mode) takes one call per sequence.

    The samples reference the sequences' frames and are cropped when a step
    calls `TrainingSample.cropped`, so the list costs a few hundred bytes a
    pair beyond the frames; the frames must not be mutated while the samples
    are in use. No target is stored: a pair's is read from its two boxes
    (`CroppedPair.target`)."""
    samples = []
    for seq in sequences:
        for t in range(1, len(seq.frames)):
            ref = seq.gt[t - 1]
            samples.append(TrainingSample(
                prev_frame=seq.frames[t - 1],
                curr_frame=seq.frames[t],
                ref=ref,
                box_curr=box_in_frame(seq.gt[t], ref),
                spec=spec))
    return samples


@dataclass
class EpochStats:
    epoch: int
    lr: float
    mean_loss: float
    alphas: list[float]
    steps: int


def save_train_log(history: list[EpochStats], path: str):
    """Write the per-epoch CSV (epoch, lr, loss, alpha1..alphaS), replacing
    `path` only once the write is whole. `history` holds at least one epoch."""
    with atomic_write(path) as fh:
        cols = ["epoch", "lr", "loss"] + [f"alpha{s + 1}" for s in range(len(history[0].alphas))]
        fh.write(",".join(cols) + "\n")
        for st in history:
            row = [str(st.epoch), repr(st.lr), repr(st.mean_loss)]
            row += [f"{a:.6f}" for a in st.alphas]
            fh.write(",".join(row) + "\n")


def pair_loss(model: TrackerModel, pair: CroppedPair) -> T.Tensor:
    """The motion loss of the model's prediction for one cropped pair."""
    return motion_loss(model.forward_clouds(pair.prev_pts, pair.curr_pts, pair.spec),
                       pair.target, model.config)


def evaluate_mean_loss(model: TrackerModel,
                       samples: list[TrainingSample]) -> float:
    """Mean (unaugmented) loss over a sample list, no gradients."""
    total = 0.0
    for s in samples:
        total += pair_loss(model, s.cropped()).item()
    return total / max(1, len(samples))


def _backward_sample(model: TrackerModel, pair: CroppedPair, weight: float) -> float:
    """Forward one pair on its own tape, add the gradient of `weight` times
    its loss into the parameters' .grad, and return the unweighted loss. The
    tape dies with this frame, so a step holds one sample's graph at a time."""
    with Tape() as tape:
        term = pair_loss(model, pair)
        seed = T.scale(term, weight)
    tape.backward(seed)
    return term.item()


def train(model: TrackerModel, samples: list[TrainingSample],
          settings: TrainSettings, log=None) -> list[EpochStats]:
    """Shuffled mini-batch AdamW training; logs per-epoch mean loss and the
    per-stage motion-difference scale parameters.

    A step minimises the batch mean of the per-sample losses. Its samples
    are cropped and their augmentations drawn first, in batch order; then
    each pair, last first, runs forward and backward on its own tape with
    seed 1/B, and that tape is dropped before the next pair starts. Step
    memory is therefore one pair's graph whatever the batch size. Last-first
    makes every parameter add its gradient terms in the order a single
    batch-wide tape replays them, so gradients and updates are bit-identical
    to it. A step that raises `NumericError` clears every .grad before
    re-raising."""
    rng = np.random.default_rng(settings.seed)
    history = []
    steps_done = 0
    for epoch in range(settings.epochs):
        lr = lr_at_epoch(settings.lr, epoch, settings.decay_factor,
                         settings.decay_interval)
        order = rng.permutation(len(samples))
        losses = []
        for start in range(0, len(order), settings.batch):
            if settings.max_steps and steps_done >= settings.max_steps:
                break
            batch = [samples[i].cropped() for i in order[start:start + settings.batch]]
            weight = 1.0 / len(batch)
            try:
                if settings.augment:
                    batch = [augment(s, rng, settings.flip_axis, settings.max_rot_deg)
                             for s in batch]
                terms = [_backward_sample(model, s, weight) for s in reversed(batch)][::-1]
            except NumericError as exc:
                model.store.zero_grad()
                raise NumericError(
                    f"epoch {epoch} step {steps_done}: {exc}") from exc
            # plain adds in batch order: sum() compensates from Python 3.12,
            # which would round the step loss differently
            loss = terms[0]
            for t in terms[1:]:
                loss += t
            adamw_step(model.store, lr, settings.weight_decay)
            model.store.zero_grad()
            losses.append(loss * weight)
            steps_done += 1
        stats = EpochStats(epoch=epoch, lr=lr,
                           mean_loss=float(np.mean(losses)) if losses else float("nan"),
                           alphas=model.alphas(), steps=steps_done)
        history.append(stats)
        if log:
            alphas = " ".join(f"{a:.4f}" for a in stats.alphas)
            log(f"epoch {epoch:3d} lr {lr:.2e} loss {stats.mean_loss:.6f} alphas [{alphas}]")
        if settings.max_steps and steps_done >= settings.max_steps:
            break
    return history
