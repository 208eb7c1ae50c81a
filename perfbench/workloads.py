"""The benchmark's workloads, its output checks against stored reference
values, and the exact multiply-add counts of the motion path.

Every workload drives bevsot through its public API on the desk preset
(``RunConfig()`` defaults: grid 32, 8 channels, 3 stages, batch 4, motion
module on, augmentation on). Inputs come from the workload seed and are
generated in set-up, before timing starts. Library calls that the tracer
wraps are looked up on their modules at call time (``seqio.read_sequence``,
``track.track_sequence``) so the wrappers see them.
"""

from __future__ import annotations

import json
import math
import os
import sys
import traceback
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

from bevsot import bench, metrics, scene, seqio, track
from bevsot import train as train_mod
from bevsot.config import RunConfig
from bevsot.model import TrackerModel

DESK = RunConfig()
TRAIN_SEQUENCES = 12  # 180 frame pairs, cycled through by the timed steps
TRACK_SEQUENCES = 8  # held-out sequences, 15 frame pairs each
STATIC_FRACTION = DESK.static_fraction  # as `bevsot gen` makes them

# Fixed inputs of the output check; independent of the workload seed so
# their results can be stored with the benchmark.
REF_SEED = 7
REF_TRACK_FRAMES = 8
REF_TRAIN_STEPS = 2
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Tolerance of the output check: relative to the reference loss, and for
# boxes relative to max(1, |reference|) in metres and radians. The
# computation is float64 throughout. Rescaling every matmul and conv2d output
# by a random relative error of up to 1e-9 (the equivalence bound set for
# fused kernels, far above what reordering float64 sums gives) moved the
# probe losses by at most 1.3e-10 relative and the boxes by at most 1.6e-9 m.
# Changes to what is computed move them by more: scaling the motion map by
# 1.001 moves the losses by 4e-6 relative and the boxes by 1.4e-4 m, and a
# weight decay of 0.011 instead of 0.01 moves them by 2.6e-7 and 1e-6 m.
TOLERANCE = 1e-7


@dataclass
class UnitResult:
    """One timed unit of a closed loop: a training step or a tracked sequence."""

    pairs: int  # frame pairs completed
    latencies: list[float]  # seconds, one per latency unit
    attempted: int
    failed: int
    coasted: int = 0


@dataclass
class Checks:
    """Output checks made outside the timed units."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)


def _generate(cfg: RunConfig, seed: int, count: int, gen_times: list[float]):
    n_static = round(STATIC_FRACTION * count)
    seqs = []
    for i in range(count):
        t0 = perf_counter()
        seqs.append(scene.generate(cfg.scene_config(seed=seed * 1000 + i, static=i < n_static)))
        gen_times.append(perf_counter() - t0)
    return seqs


def _close(got, want, floor: float) -> bool:
    """Within TOLERANCE of the reference, relative to max(floor, |want|)."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape or not np.isfinite(got).all():
        return False
    return bool(np.all(np.abs(got - want) <= TOLERANCE * np.maximum(floor, np.abs(want))))


def _box_rows(boxes) -> list[list[float]]:
    return [[b.x, b.y, b.z, b.w, b.h, b.l, b.theta] for b in boxes]


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# fixed-input probe: the output check against stored values


def probe(imm: bool) -> dict:
    """Per-step losses of REF_TRAIN_STEPS public `train` calls from the
    normal initialisation on a fixed scene, then the boxes and coasted flags
    of a fixed held-out sequence tracked by the model so trained. The
    normal initialisation keeps the motion gate active: with every weight
    drawn by `randomize_all` the gate barely moves the outputs, and a check
    on them would miss a broken motion path."""
    cfg = replace(DESK, imm=imm)
    spec = cfg.crop_spec()
    samples = train_mod.make_training_samples([scene.generate(cfg.scene_config(seed=REF_SEED))],
                                              spec)
    model = TrackerModel(cfg.model_config(), seed=REF_SEED)
    settings = replace(cfg.train_settings(), epochs=1, seed=REF_SEED)
    batch = settings.batch
    losses = [train_mod.train(model, samples[s * batch:(s + 1) * batch], settings)[0].mean_loss
              for s in range(REF_TRAIN_STEPS)]
    held_out = scene.generate(replace(cfg, scene_length=REF_TRACK_FRAMES)
                              .scene_config(seed=REF_SEED + 1))
    tr = track.track_sequence(held_out.frames, held_out.gt[0],
                              track.tracker_motion_model(model, spec))
    return {"losses": losses,
            "boxes": _box_rows(tr.boxes),
            "coasted": list(tr.coasted)}


def check_probe(imm: bool, checks: Checks):
    try:
        got = probe(imm)
    except Exception:  # counted as failed checks, like a wrong result
        traceback.print_exc(file=sys.stderr)
        checks.check(False, "probe raised")
        return
    want = load_reference()["probe"]["imm" if imm else "noimm"]
    checks.check(_close(got["losses"], want["losses"], 0.0),
                 f"probe losses {got['losses']} differ from reference.json")
    checks.check(_close(got["boxes"], want["boxes"], 1.0) and got["coasted"] == want["coasted"],
                 "probe tracklet differs from reference.json")


# ---------------------------------------------------------------------------
# exact multiply-add counts of the quadratic motion path


def closed_form_macs(N: int, d: int) -> dict[str, int]:
    """The closed forms of bench.py's counting rules, per head."""
    return {"motion_map_macs": 2 * N * N * d + 4 * N * N,
            "gate_macs": N * N * d,
            "linear_core_macs": 2 * N * d + 2 * N * d * d}


def stage_macs(cfg: RunConfig, rng) -> dict[str, int]:
    """Per-stage counts from bench.MacCounter on random operands of each
    stage's shape, summed over heads, plus the bytes of the motion maps."""
    out = {}
    for s, (H, C) in enumerate(cfg.model_config().stage_dims(), start=1):
        N, d = H * H, C // cfg.heads
        Qc, Kc, Qp, Kp, V = (rng.standard_normal((N, d)) for _ in range(5))
        counts = {k: 0 for k in ("motion_map_macs", "gate_macs", "linear_core_macs")}
        nbytes = 0
        for _ in range(cfg.heads):
            c = bench.MacCounter()
            wm = bench.motion_weight_map(Qc, Kc, Qp, Kp, 0.5, counter=c)
            counts["motion_map_macs"] += c.count
            c = bench.MacCounter()
            bench.gate_projection(wm, rng.standard_normal((N, d)), np.zeros(d), counter=c)
            counts["gate_macs"] += c.count
            c = bench.MacCounter()
            bench.linear_attention_core(Qc, Kc, V, counter=c)
            counts["linear_core_macs"] += c.count
            nbytes += wm.nbytes
        for k, v in counts.items():
            out[f"blocks.s{s}.{k}"] = v
        out[f"blocks.s{s}.motion_map_bytes"] = nbytes
    return out


def check_macs(cfg: RunConfig, seed: int, checks: Checks) -> dict[str, int]:
    """Counts must repeat exactly on new operands, equal the closed forms,
    and equal the counts stored with the benchmark."""
    first = stage_macs(cfg, np.random.default_rng(seed))
    checks.check(stage_macs(cfg, np.random.default_rng(seed + 1)) == first,
                 "multiply-add counts differ between two draws of operands")
    closed = {}
    for s, (H, C) in enumerate(cfg.model_config().stage_dims(), start=1):
        for k, v in closed_form_macs(H * H, C // cfg.heads).items():
            closed[f"blocks.s{s}.{k}"] = v * cfg.heads
    checks.check(all(first[k] == v for k, v in closed.items()),
                 "multiply-add counts differ from the closed forms")
    checks.check(first == load_reference()["macs"],
                 "multiply-add counts differ from reference.json")
    return first


# ---------------------------------------------------------------------------
# workloads


class TrainWorkload:
    """One unit is one public `train.train` call on a 4-sample list with
    epochs=1, exactly as a training step runs for a user."""

    root = "train.step"
    min_units = 2

    def __init__(self, imm: bool):
        self.cfg = replace(DESK, imm=imm)

    @staticmethod
    def traced(i: int) -> bool:
        """Traced and untraced steps alternate; their shapes are all equal."""
        return i % 2 == 1

    def setup(self, seed: int, workdir: str) -> dict:
        cfg = replace(self.cfg, seed=seed)
        gen_times: list[float] = []
        seqs = _generate(cfg, seed, TRAIN_SEQUENCES, gen_times)
        samples = train_mod.make_training_samples(seqs, cfg.crop_spec())
        model = TrackerModel(cfg.model_config(), seed=seed)
        return {"seed": seed, "samples": samples, "model": model, "gen_times": gen_times,
                "settings": replace(cfg.train_settings(), epochs=1),
                "order": np.random.default_rng(seed).permutation(len(samples))}

    def unit(self, st: dict, i: int) -> UnitResult:
        batch_n = st["settings"].batch
        order = st["order"]
        batch = [st["samples"][order[(i * batch_n + k) % len(order)]] for k in range(batch_n)]
        settings = replace(st["settings"], seed=st["seed"] * 100_003 + i)
        t0 = perf_counter()
        try:
            loss = train_mod.train(st["model"], batch, settings)[0].mean_loss
        except Exception:  # a failed step is counted, and the loop goes on
            traceback.print_exc(file=sys.stderr)
            return UnitResult(pairs=0, latencies=[], attempted=1, failed=1)
        elapsed = perf_counter() - t0
        if not math.isfinite(loss):
            return UnitResult(pairs=0, latencies=[], attempted=1, failed=1)
        return UnitResult(pairs=len(batch), latencies=[elapsed], attempted=1, failed=0)


class TrackWorkload:
    """One unit is one held-out sequence: read it back from disk, track it
    through the public model-driven motion model, write the tracklet and
    score it. The latency unit is a frame pair the model regressed; coasted
    pairs (no points in either crop, no model call) are counted apart."""

    root = "track.sequence"
    min_units = TRACK_SEQUENCES  # one full pass, so the coasted count is complete
    cfg = DESK

    @staticmethod
    def traced(i: int) -> bool:
        """Traced and untraced units alternate, shifted by one every pass
        over the sequences, so each sequence is measured both ways."""
        return (i + i // TRACK_SEQUENCES) % 2 == 1

    def setup(self, seed: int, workdir: str) -> dict:
        cfg = replace(self.cfg, seed=seed)
        gen_times: list[float] = []
        seqs = _generate(cfg, seed, TRACK_SEQUENCES, gen_times)
        paths = []
        for i, seq in enumerate(seqs):
            paths.append(os.path.join(workdir, f"seq_{i:03d}"))
            seqio.write_sequence(seq, paths[-1], meta={"seed": seed * 1000 + i})
        model = TrackerModel(cfg.model_config(), seed=seed)
        model.randomize_all(np.random.default_rng(seed))
        return {"paths": paths, "model": model, "spec": cfg.crop_spec(), "workdir": workdir,
                "gen_times": gen_times, "first_pass": {}}

    def unit(self, st: dict, i: int) -> UnitResult:
        k = i % len(st["paths"])
        latencies: list[float] = []
        try:
            seq = seqio.read_sequence(st["paths"][k])
            predict = track.tracker_motion_model(st["model"], st["spec"])

            def timed(prev_cloud, curr_cloud, prev_box):
                t0 = perf_counter()
                motion = predict(prev_cloud, curr_cloud, prev_box)
                if motion is not None:
                    latencies.append(perf_counter() - t0)
                return motion

            tr = track.track_sequence(seq.frames, seq.gt[0], timed, sequence_id=f"seq_{k:03d}")
            txt = os.path.join(st["workdir"], f"tracklet_{k:03d}.txt")
            seqio.write_tracklet(tr.boxes, tr.coasted, txt, txt[:-4] + ".jsonl")
            score = metrics.ope(tr, seq.gt)
        except Exception:  # a failed sequence is counted, and the loop goes on
            traceback.print_exc(file=sys.stderr)
            return UnitResult(pairs=0, latencies=[], attempted=1, failed=1)
        n_pairs = len(tr.boxes) - 1
        boxes = np.array(_box_rows(tr.boxes))
        bad_pairs = int((~np.isfinite(boxes[1:]).all(axis=1)).sum())
        read_back = np.array(_box_rows(seqio.read_tracklet(txt)))
        scores = np.array([score.success_auc, score.precision_auc])
        # inference is deterministic: a sequence tracked again must give
        # bit-identical boxes
        first = st["first_pass"].setdefault(k, boxes)
        failed_checks = (int(not np.array_equal(read_back, boxes))
                         + int(not (np.isfinite(scores).all() and (0 <= scores).all()
                                    and (scores <= 1).all()))
                         + int(not np.array_equal(first, boxes)))
        return UnitResult(pairs=len(latencies), latencies=latencies,
                          attempted=n_pairs + 3, failed=bad_pairs + failed_checks,
                          coasted=sum(tr.coasted))


WORKLOADS = {
    "train-desk": TrainWorkload(imm=True),
    "track-desk": TrackWorkload(),
    "train-noimm": TrainWorkload(imm=False),
}
