"""Command-line operator surface: gen, train, track, eval, bench, gradcheck.

Exit codes: 0 success, 1 usage/config error, 2 data error or unusable path, 3
numeric failure. Every command is deterministic under a fixed seed; gen, train
and track echo their resolved configuration next to their outputs. A config or
input error is found before the run directory is made, and leaves none; a scene
whose frames expect more than scene.MAX_FRAME_POINTS points is a config error.
train and track build their model before the run directory is made, so a model
too large to hold (say channels=2**40) ends in numpy's MemoryError traceback and
leaves none. tests/test_cli.py checks each exit code's cases in one place:
test_invalid_config_creates_no_run_dir (1), CORRUPTIONS and
test_unusable_path_exit_code_2 (2), test_numeric_failure_exit_code_3 (3); CI
runs the console script on one case of 1 and one of 2 only.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
import time

import numpy as np

from . import config as cfgmod
from .atomic import atomic_write
from .bench import bench_attention, bench_csv, slope_checks
from .exceptions import ConfigError, DataFormatError, NumericError
from .gradcheck import gradcheck_params
from .metrics import ope, ope_csv
from .model import TrackerModel
from .params import load_checkpoint, save_checkpoint
from .rules import COUNT, NON_NEGATIVE, POSITIVE, require
from .scene import generate
from .seqio import (list_sequence_dirs, read_sequence, read_tracklet, write_sequence,
                    write_tracklet)
from .track import Tracklet, track_sequence, tracker_motion_model
from .train import make_training_samples, pair_loss, save_train_log, train


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


def _add_config_args(p: argparse.ArgumentParser):
    # --seed and the ablation flags append to --set's list, so every override
    # resolves left to right and the later one wins; --set comes first so its
    # [] default is the one taken
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override one config key (repeatable)")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--preset", choices=["desk", "full"], default="desk",
                   help="desk (default) or the expensive full-scale preset")
    p.add_argument("--seed", dest="set", action="append", type="seed={}".format,
                   metavar="SEED", help="override the config seed")
    p.add_argument("--no-imm", dest="set", action="append_const", const="imm=false",
                   help="disable inter-frame motion gating (gate == 1)")
    p.add_argument("--no-dwc", dest="set", action="append_const", const="dwc=false",
                   help="drop the shared depthwise conv from preprocessing")
    p.add_argument("--no-linear", dest="set", action="append_const", const="linear=false",
                   help="drop the shared linear layer from preprocessing")
    p.add_argument("--unshared", dest="set", action="append_const", const="shared=false",
                   help="separate previous-frame copies of CNN/linear/DWC weights "
                        "(needs the motion module)")


def _build_config(args, base: cfgmod.RunConfig | None = None) -> cfgmod.RunConfig:
    cfg = base or cfgmod.RunConfig()
    if args.preset == "full":
        cfg = cfgmod.from_items(cfgmod.FULL_SCALE_OVERRIDES, cfg)
    if args.config:
        cfg = cfgmod.load_config(args.config, cfg)
    overrides = {}
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got '{item}'")
        key, val = item.split("=", 1)
        overrides[key.strip()] = val
    cfg = cfgmod.from_items(overrides, cfg)
    cfg.validate()
    return cfg


def _run_dir(args, tag: str, files: dict[str, str]) -> str:
    """Make the run directory (`--out`, else a timestamped one under runs/),
    once config and inputs are checked, and write `files` (name: text) whole.
    A timestamped directory is made exclusively: when another run took that
    name in the same second, this one takes the next free `-2`, `-3`, ..."""
    if args.out:
        out = args.out
        os.makedirs(out, exist_ok=True)
    else:
        out = base = os.path.join("runs", f"{tag}-{time.strftime('%Y%m%d-%H%M%S')}")
        os.makedirs("runs", exist_ok=True)
        for n in itertools.count(2):
            try:
                os.mkdir(out)
                break
            except FileExistsError:
                out = f"{base}-{n}"
    for name, text in files.items():
        with atomic_write(os.path.join(out, name)) as fh:
            fh.write(text)
    return out


def cmd_gen(args) -> int:
    cfg = _build_config(args)
    scenes = cfg.scene_configs(cfg.seed)
    seqs = [generate(scene) for scene in scenes]
    out = _run_dir(args, "gen", {"config.echo.cfg": cfgmod.config_text(cfg)})
    for i, (scene, seq) in enumerate(zip(scenes, seqs)):
        write_sequence(seq, os.path.join(out, f"seq_{i:03d}"), meta={"seed": scene.seed})
    print(f"wrote {len(seqs)} sequences to {out}")
    return 0


def cmd_train(args) -> int:
    cfg = _build_config(args)
    if args.data:
        seqs = [read_sequence(d) for d in list_sequence_dirs(args.data)]
    else:
        seqs = [generate(scene) for scene in cfg.scene_configs(cfg.seed)]
    samples = [s for seq in seqs
               for s in make_training_samples([seq], cfg.crop_spec(seq.gt[0]))]
    model = TrackerModel(cfg.model_config(), seed=cfg.seed)
    out = _run_dir(args, "train", {"config.echo.cfg": cfgmod.config_text(cfg)})
    print(f"training on {len(samples)} frame pairs from {len(seqs)} sequences")

    history = train(model, samples, cfg.train_settings(), log=print)
    save_train_log(history, os.path.join(out, "train_log.csv"))
    ckpt = os.path.join(out, "checkpoint.bin")
    save_checkpoint(model.store, ckpt)
    print(f"checkpoint: {ckpt}")
    return 0


def cmd_track(args) -> int:
    cfg = _build_config(args)
    model = TrackerModel(cfg.model_config(), seed=cfg.seed)
    load_checkpoint(model.store, args.checkpoint)
    seq_dirs = list_sequence_dirs(args.data)
    seqs = [read_sequence(d) for d in seq_dirs]
    out = _run_dir(args, "track", {"config.echo.cfg": cfgmod.config_text(cfg)})
    for seq_dir, seq in zip(seq_dirs, seqs):
        name = os.path.basename(os.path.normpath(seq_dir))
        motion_model = tracker_motion_model(model, cfg.crop_spec(seq.gt[0]))
        tr = track_sequence(seq.frames, seq.gt[0], motion_model, sequence_id=name)
        tdir = os.path.join(out, name)
        os.makedirs(tdir, exist_ok=True)
        write_tracklet(tr.boxes, tr.coasted, os.path.join(tdir, "tracklet.txt"),
                       os.path.join(tdir, "tracklet.jsonl"))
        flagged = sum(tr.coasted)
        print(f"{name}: {len(tr.boxes)} boxes"
              + (f" ({flagged} coasted)" if flagged else ""))
    return 0


def cmd_eval(args) -> int:
    pairs = []
    if os.path.isfile(args.pred):
        pairs.append((args.pred, args.gt))
    else:
        for seq_dir in list_sequence_dirs(args.gt):
            name = os.path.basename(os.path.normpath(seq_dir))
            tfile = os.path.join(args.pred, name, "tracklet.txt")
            if not os.path.isfile(tfile):
                raise DataFormatError(f"{tfile}: no tracklet for sequence '{name}'")
            pairs.append((tfile, seq_dir))
    results = {}
    for tfile, seq_dir in pairs:
        boxes = read_tracklet(tfile)
        seq = read_sequence(seq_dir)
        if len(boxes) != len(seq.gt):
            raise DataFormatError(f"{tfile}: {len(boxes)} boxes but the sequence "
                                  f"{seq_dir} has {len(seq.gt)} frames")
        name = os.path.basename(os.path.normpath(seq_dir))
        results[name] = ope(Tracklet(name, boxes, [False] * len(boxes)), seq.gt)
    _run_dir(args, "eval", {f"ope_{name}.csv": ope_csv(r) for name, r in results.items()})
    for name, r in results.items():
        print(f"{name}: success {r.success_auc:.4f} precision {r.precision_auc:.4f}")
    print(f"mean: success {np.mean([r.success_auc for r in results.values()]):.4f} "
          f"precision {np.mean([r.precision_auc for r in results.values()]):.4f}")
    return 0


def cmd_bench(args) -> int:
    require("seed", args.seed, NON_NEGATIVE)
    try:
        ns = [int(v) for v in args.ns.split(",")]
    except ValueError:
        raise ConfigError(f"--ns expects comma-separated integers, got '{args.ns}'") from None
    records, slopes, report = bench_attention(ns, d=args.d, repeats=args.repeats,
                                              seed=args.seed)
    _run_dir(args, "bench", {"bench.csv": bench_csv(records), "scaling_report.txt": report})
    print(report, end="")
    return 0 if all(ok for _, _, ok in slope_checks(slopes)) else 3


def cmd_gradcheck(args) -> int:
    require("--samples", args.samples, COUNT)
    require("--tol", args.tol, POSITIVE)
    # default to the small verification config; flags/files still override
    tiny = cfgmod.from_items({"grid": "16", "channels": "4", "head_trunk": "64"})
    cfg = _build_config(args, base=tiny)
    model = TrackerModel(cfg.model_config(), seed=cfg.seed)
    rng = np.random.default_rng(cfg.seed + 1)
    model.randomize_all(rng)
    seq = generate(cfg.scene_config(seed=cfg.seed + 2))
    spec = cfg.crop_spec(seq.gt[0])
    pair = make_training_samples([seq], spec)[0].cropped()
    t0 = time.perf_counter()
    errs = gradcheck_params(lambda: pair_loss(model, pair), list(model.store.items()),
                            samples_per_param=args.samples, rng=rng)
    elapsed = time.perf_counter() - t0
    worst = max(errs.values())
    width = max(len(n) for n in errs)
    for name, err in errs.items():
        flag = "" if err < args.tol else "  <-- FAIL"
        print(f"{name:<{width}}  {err:.3e}{flag}")
    print(f"max relative error {worst:.3e} over {len(errs)} parameter groups "
          f"({elapsed:.1f}s)")
    return 0 if worst < args.tol else 3


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="bevsot",
                description="Desk-scale bird's-eye-view LiDAR single-object tracker.")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate labeled synthetic sequences")
    _add_config_args(g)
    g.add_argument("--out", help="output directory")
    g.set_defaults(fn=cmd_gen)

    t = sub.add_parser("train", help="train a tracker")
    _add_config_args(t)
    t.add_argument("--out", help="run directory")
    t.add_argument("--data", help="sequence directory (default: generate)")
    t.set_defaults(fn=cmd_train)

    k = sub.add_parser("track", help="run inference over sequences")
    _add_config_args(k)
    k.add_argument("--checkpoint", required=True)
    k.add_argument("--data", required=True, help="sequence dir or root of sequence dirs")
    k.add_argument("--out", help="output directory")
    k.set_defaults(fn=cmd_track)

    e = sub.add_parser("eval", help="one-pass evaluation of tracklets")
    e.add_argument("--pred", required=True, help="tracklet file or track output dir")
    e.add_argument("--gt", required=True, help="sequence dir or root")
    e.add_argument("--out", help="output directory for CSVs")
    e.set_defaults(fn=cmd_eval)

    b = sub.add_parser("bench", help="attention complexity scaling benchmark")
    b.add_argument("--ns", default="256,512,1024,2048", help="comma-separated token counts")
    b.add_argument("--d", type=int, default=16, help="head dimension")
    b.add_argument("--repeats", type=int, default=3)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out", help="output directory")
    b.set_defaults(fn=cmd_bench)

    c = sub.add_parser("gradcheck", help="finite-difference check of the full model")
    _add_config_args(c)
    c.add_argument("--samples", type=int, default=6,
                   help="coordinates checked per parameter tensor")
    c.add_argument("--tol", type=float, default=1e-4)
    c.set_defaults(fn=cmd_gradcheck)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (DataFormatError, OSError) as exc:  # OSError names its unusable path
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
