#!/usr/bin/env python3
"""Reproduce the pilot run that froze the desk-scale learning thresholds
(see docs/pilot_run.md): 200 AdamW steps at the desk preset, then Success
against the zero-motion coasting baseline on 20 held-out sequences.

The acceptance suite asserts loss_final <= 0.5 * loss_initial and
success_gap >= 0.10 on `run_pilot()`, the one definition of this
configuration and its seeds.
"""

import time
from dataclasses import replace

import numpy as np

from bevsot.config import RunConfig
from bevsot.geometry import Motion4
from bevsot.metrics import ope
from bevsot.model import TrackerModel
from bevsot.scene import generate
from bevsot.track import track_sequence, tracker_motion_model
from bevsot.train import evaluate_mean_loss, make_training_samples, train


def run_pilot(log=None) -> dict:
    """Train the pilot configuration of record and score it. Returns the
    model, config, crop spec, held-out sequences, the initial and final
    eval losses, the step count and both Success values. `log`, if given,
    receives each progress line."""
    log = log or (lambda line: None)
    cfg = RunConfig()  # desk preset
    cfg.max_steps = 200
    cfg.epochs = 100  # the step cap governs
    spec = cfg.crop_spec()

    train_seqs = [generate(s) for s in cfg.scene_configs(1)]  # `bevsot gen --seed 1`
    val_seqs = [generate(s) for s in
                replace(cfg, sequences=20, static_fraction=0.2).scene_configs(9)]
    samples = make_training_samples(train_seqs, spec)
    model = TrackerModel(cfg.model_config(), seed=cfg.seed)
    eval_sub = samples[::4]

    loss0 = evaluate_mean_loss(model, eval_sub)
    log(f"{len(samples)} pairs; initial eval loss {loss0:.5f}")
    history = train(model, samples, cfg.train_settings(), log=log)
    loss1 = evaluate_mean_loss(model, eval_sub)
    log(f"final eval loss {loss1:.5f}  ratio {loss1 / loss0:.3f}")

    motion_model = tracker_motion_model(model, spec)
    coast = lambda p, c, b: Motion4(0, 0, 0, 0)
    s_model = np.mean([ope(track_sequence(s.frames, s.gt[0], motion_model), s.gt)
                       .success_auc for s in val_seqs])
    s_coast = np.mean([ope(track_sequence(s.frames, s.gt[0], coast), s.gt)
                       .success_auc for s in val_seqs])
    log(f"success: trained {s_model:.4f}  coast {s_coast:.4f}  "
        f"gap {s_model - s_coast:+.4f}")
    return dict(model=model, cfg=cfg, spec=spec, val_seqs=val_seqs, loss0=loss0,
                loss1=loss1, steps=history[-1].steps, s_model=s_model, s_coast=s_coast)


def main():
    t0 = time.time()
    run_pilot(log=print)
    print(f"total {time.time() - t0:.0f}s")


if __name__ == "__main__":
    main()
