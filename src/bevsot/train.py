"""Mini-batch training over canonical frame-pair samples."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .atomic import atomic_write
from .exceptions import ConfigError, NumericError
from .geometry import box_in_frame, relative_motion
from .model import TrackerModel, motion_loss
from .params import adamw_step, lr_at_epoch
from .pillars import CropSpec, canonicalize, crop
from .scene import LabeledSequence, TrainingSample, augment
from .tensor import Tape


@dataclass
class TrainSettings:
    lr: float = 5e-4
    weight_decay: float = 0.01
    betas: tuple[float, float] = (0.9, 0.999)
    batch: int = 4
    epochs: int = 5
    decay_factor: float = 5.0
    decay_interval: int = 20
    max_steps: int = 0  # 0 = no cap
    augment: bool = True
    flip_axis: str = "x"
    max_rot_deg: float = 5.0
    seed: int = 0

    def __post_init__(self):
        for name in ("batch", "decay_interval"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.decay_factor > 0:
            raise ConfigError(f"decay_factor must be > 0, got {self.decay_factor}")


def make_training_samples(sequences: list[LabeledSequence],
                          spec: CropSpec) -> list[TrainingSample]:
    """Every consecutive frame pair of every sequence, cropped with `spec`
    around the previous gt box (mimicking inference, where the crop center
    carries the previous prediction's error). A window derived from each
    sequence's target size (ratio-crop mode) takes one call per sequence."""
    samples = []
    for seq in sequences:
        for t in range(1, len(seq.frames)):
            ref = seq.gt[t - 1]
            samples.append(TrainingSample(
                prev_pts=crop(canonicalize(seq.frames[t - 1], ref), spec),
                curr_pts=crop(canonicalize(seq.frames[t], ref), spec),
                box_prev=ref.with_pose(0.0, 0.0, 0.0, 0.0),
                box_curr=box_in_frame(seq.gt[t], ref),
                target=relative_motion(seq.gt[t - 1], seq.gt[t]),
                spec=spec))
    return samples


@dataclass
class EpochStats:
    epoch: int
    lr: float
    mean_loss: float
    alphas: list[float]
    steps: int


def save_train_log(history: list[EpochStats], n_alpha: int, path: str):
    """Write the per-epoch CSV (epoch, lr, loss, alpha1..alphaS), replacing
    `path` only once the write is whole."""
    with atomic_write(path) as fh:
        cols = ["epoch", "lr", "loss"] + [f"alpha{s + 1}" for s in range(n_alpha)]
        fh.write(",".join(cols) + "\n")
        for st in history:
            row = [str(st.epoch), repr(st.lr), repr(st.mean_loss)]
            row += [f"{a:.6f}" for a in st.alphas]
            fh.write(",".join(row) + "\n")


def evaluate_mean_loss(model: TrackerModel,
                       samples: list[TrainingSample]) -> float:
    """Mean (unaugmented) loss over a sample list, no gradients."""
    total = 0.0
    for s in samples:
        pred = model.forward_clouds(s.prev_pts, s.curr_pts, s.spec)
        total += motion_loss(pred, s.target, model.config).item()
    return total / max(1, len(samples))


def _backward_sample(model: TrackerModel, s: TrainingSample, weight: float) -> float:
    """Forward one sample on its own tape, add the gradient of `weight` times
    its loss into the parameters' .grad, and return the unweighted loss. The
    tape dies with this frame, so a step holds one sample's graph at a time."""
    with Tape() as tape:
        term = motion_loss(model.forward_clouds(s.prev_pts, s.curr_pts, s.spec),
                           s.target, model.config)
        seed = T.scale(term, weight)
    tape.backward(seed)
    return term.item()


def train(model: TrackerModel, samples: list[TrainingSample],
          settings: TrainSettings, log=None) -> list[EpochStats]:
    """Shuffled mini-batch AdamW training; logs per-epoch mean loss and the
    per-stage motion-difference scale parameters.

    A step minimises the batch mean of the per-sample losses. Its
    augmentations are drawn first, in batch order; then each sample, last
    first, runs forward and backward on its own tape with seed 1/B, and that
    tape is dropped before the next sample starts. Step memory is therefore
    one sample's graph whatever the batch size. Last-first makes every
    parameter add its gradient terms in the order a single batch-wide tape
    replays them, so gradients and updates are bit-identical to it. A step
    that raises `NumericError` clears every .grad before re-raising."""
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
            batch = [samples[i] for i in order[start:start + settings.batch]]
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
            adamw_step(model.store, lr, settings.weight_decay, settings.betas)
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
