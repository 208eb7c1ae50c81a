"""Command-line surface: exit codes, config echo, and the command suite on
small workloads."""

import ast
import contextlib
import io
import itertools
import json
import math
import os
import re
import shutil
import struct
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from bevsot import cli
from bevsot.atomic import atomic_write
from bevsot.cli import main
from bevsot.config import RunConfig, config_text, from_items, load_config
from bevsot.exceptions import ConfigError
from bevsot.geometry import Box3D, relative_motion
from bevsot.metrics import ope
from bevsot.model import ModelConfig, TrackerModel
from bevsot.params import ParamStore, read_checkpoint, save_checkpoint
from bevsot.rules import NON_NEGATIVE, Rule
from bevsot.scene import SceneConfig, generate
from bevsot.seqio import read_sequence, write_sequence, write_tracklet
from bevsot.track import track_sequence
from bevsot.train import EpochStats, TrainSettings, save_train_log

FAST = ["--set", "sequences=3", "--set", "scene_length=4", "--set", "grid=16",
        "--set", "channels=4", "--set", "head_trunk=32", "--set", "epochs=1",
        "--set", "batch=4", "--set", "crop_xy=4.8"]
FUZZ = [a.replace("head_trunk=32", "head_trunk=16") for a in FAST]


def run(args):
    return main([str(a) for a in args])


# ---------------------------------------------------------------------------
# config parsing


def test_bad_bool_rejected():
    with pytest.raises(ConfigError, match="boolean"):
        from_items({"imm": "maybe"})


def test_config_text_round_trips(tmp_path):
    cfg = RunConfig(grid=64, imm=False, lr=2.5e-4, flip_axis="y")
    path = tmp_path / "c.cfg"
    path.write_text(config_text(cfg))
    back = load_config(str(path))
    assert back == cfg


def test_config_file_comments_and_errors(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# comment\ngrid=16\n\nchannels=4 # trailing\n")
    cfg = load_config(str(path))
    assert cfg.grid == 16 and cfg.channels == 4
    path.write_text("grid 16\n")
    with pytest.raises(ConfigError, match="line 1"):
        load_config(str(path))


# config_text(RunConfig()) at the commit that introduced the introspected views
DESK_TEXT = """\
grid=32
channels=8
heads=1
stages=3
head_trunk=256
ffn_expand=2
lambda1=1.0
lambda2=1.0
lambda3=1.0
huber_delta=1.0
imm=true
dwc=true
linear=true
shared=true
crop_mode=fixed
crop_xy=4.8
crop_z=1.5
crop_ratio=2.0
lr=0.0005
weight_decay=0.01
batch=4
epochs=5
decay_factor=5.0
decay_interval=20
max_steps=0
augment=true
flip_axis=x
max_rot_deg=5.0
sequences=48
scene_length=16
speed_min=0.1
speed_max=0.35
yaw_rate_max=0.04
points_per_m2=40.0
clutter_density=0.6
clutter_extent=10.0
occlusion_dropout=0.1
surface_noise=0.01
size_w=1.8
size_h=1.6
size_l=4.2
size_jitter=0.1
static_fraction=0.25
seed=0
"""
FULL_TEXT = (DESK_TEXT.replace("grid=32", "grid=128").replace("channels=8", "channels=16")
             .replace("head_trunk=256", "head_trunk=512").replace("lr=0.0005", "lr=0.0001")
             .replace("batch=4", "batch=128"))


def test_config_text_matches_golden(tmp_path):
    assert config_text(RunConfig()) == DESK_TEXT
    out = tmp_path / "g"
    assert run(["gen", "--preset", "full", "--set", "sequences=1", "--out", out]) == 0
    echo = (out / "config.echo.cfg").read_text()
    assert echo == FULL_TEXT.replace("sequences=48", "sequences=1")


def test_views_of_default_config_are_library_defaults():
    cfg = RunConfig()
    assert cfg.model_config() == ModelConfig()
    assert cfg.train_settings() == TrainSettings()
    assert cfg.scene_config(seed=SceneConfig.seed) == SceneConfig()


# RunConfig keys no view receives: the run-level keys
NOT_SHARED = {"crop_mode", "crop_xy", "crop_z", "crop_ratio", "sequences",
              "static_fraction"}


def test_every_field_reaches_its_view():
    values = {}
    scene = {f.name for f in fields(SceneConfig)}
    for i, f in enumerate(fields(RunConfig)):
        default = getattr(RunConfig, f.name)
        if isinstance(default, bool):
            values[f.name] = not default
        elif f.name == "flip_axis":
            values[f.name] = "y"  # the one other valid axis
        elif f.name in scene and isinstance(default, float):
            # fractions take [0, 1), and a frame's points stay under MAX_FRAME_POINTS
            values[f.name] = 0.5 + i / 1000
        elif isinstance(default, int):
            values[f.name] = 100 + i
        elif isinstance(default, float):
            values[f.name] = 1000.5 + i
        else:
            values[f.name] = f"{default}-{i}"
    cfg = RunConfig(**values)
    views = {"model": cfg.model_config(), "train": cfg.train_settings(),
             "scene": cfg.scene_config(seed=7, static=True)}
    defaults = {"model": ModelConfig(), "train": TrainSettings(), "scene": SceneConfig()}
    scene_given = {"seed": 7, "static": True}
    reached = set()
    for kind, view in views.items():
        for f in fields(view):
            got = getattr(view, f.name)
            if kind == "scene" and f.name in scene_given:
                assert got == scene_given[f.name], f.name
            elif f.name in values:
                assert got == values[f.name], f"{kind}.{f.name}"
                reached.add(f.name)
            else:
                assert got == getattr(defaults[kind], f.name), f"{kind}.{f.name}"
    assert reached == set(values) - NOT_SHARED


def key_rules() -> dict:
    """Every RunConfig key's (rule, view): a run-level key's own, else the
    rule of the library field it is passed to by name, and that class's view."""
    library = {f.name: (f.metadata.get("rule"), view) for view, cls in
               (("model", ModelConfig), ("train", TrainSettings), ("scene", SceneConfig))
               for f in fields(cls)}
    return {f.name: (f.metadata["rule"], f.metadata["view"]) if "rule" in f.metadata
            else library.get(f.name, (None, None)) for f in fields(RunConfig)}


def test_every_key_has_one_rule_and_a_view():
    own = {f.name for f in fields(RunConfig) if "rule" in f.metadata}
    assert own == NOT_SHARED | {"seed"}  # run-level keys write their own
    library_rules = {f.name for cls in (ModelConfig, TrainSettings, SceneConfig)
                     for f in fields(cls) if "rule" in f.metadata}
    for key, (rule, view) in key_rules().items():
        assert isinstance(rule, Rule), f"key '{key}' has no rule"
        assert key not in own or key not in library_rules, f"key '{key}' has two rules"
        assert view in COMMAND_OF_VIEW, f"key '{key}' has no view"
        assert rule.outside and not any(rule.ok(v) for v in rule.outside), key


def test_seed_rule_is_the_run_configs_and_lr_zero_is_valid():
    """perfbench's warm-up unit builds TrainSettings(seed=-1) through
    dataclasses.replace, outside the try that counts a failed unit; a run's
    seed is checked by RunConfig. lr=0 trains (the checkpoint equals the
    initial weights), so lr's rule is >= 0."""
    assert TrainSettings(seed=-1).seed == -1
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        RunConfig(seed=-1).validate()
    assert key_rules()["lr"][0] is NON_NEGATIVE
    RunConfig(lr=0.0, weight_decay=0.0).validate()
    TrainSettings(lr=0.0, weight_decay=0.0)


def test_scene_config_seed_is_the_argument():
    cfg = RunConfig(seed=3)
    scene = cfg.scene_config(seed=11)
    assert scene.seed == 11 and not scene.static
    assert cfg.scene_config(seed=11, static=True).static


@pytest.mark.parametrize("n,share,n_static", [(48, 0.25, 12), (20, 0.2, 4)])
def test_scene_configs_are_the_data_set_recipe(n, share, n_static):
    scenes = RunConfig(sequences=n, static_fraction=share).scene_configs(9)
    assert [s.seed for s in scenes] == [9000 + i for i in range(n)]
    assert [s.static for s in scenes] == [True] * n_static + [False] * (n - n_static)
    # two base seeds share no scene at any count the config accepts
    for top in (1000, 1001):
        if key_rules()["sequences"][0].ok(top):
            seeds = [{s.seed for s in RunConfig(sequences=top).scene_configs(b)} for b in (9, 10)]
            assert not seeds[0] & seeds[1], top


# ---------------------------------------------------------------------------
# exit codes


def test_usage_error_exit_code_1(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["track"])  # missing required args
    assert exc.value.code == 1


def test_help_leaves_out_developer_notes(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0 and "\n\nDesk-scale bird's-eye-view LiDAR" in out
    assert "MemoryError" not in out and "test_cli" not in out


def _config_error(capsys, code, *names):
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error:") and err.count("\n") == 1, err
    assert all(n in err for n in names), err
    return err


def test_config_file_repeated_key_exit_code_1(tmp_path, capsys):
    path = tmp_path / "c.cfg"
    path.write_text("grid=16\n# again\ngrid=32\n")
    code = run(["gen", "--out", tmp_path / "g", "--config", path])
    _config_error(capsys, code, str(path), "line 3", "'grid'", "line 1")


def test_config_file_not_utf8_exit_code_1(tmp_path, capsys):
    path = tmp_path / "c.cfg"
    path.write_bytes(b"grid=16\nseed=\xff\n")
    code = run(["gen", "--out", tmp_path / "g", "--config", path])
    _config_error(capsys, code, str(path), "UTF-8")


def test_config_file_may_start_with_byte_order_mark(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_bytes(b"\xef\xbb\xbfgrid=16\n")
    assert load_config(str(path)).grid == 16


@pytest.mark.parametrize("command", [["gen"], ["train"], ["track", "--checkpoint", "c.bin",
                                                          "--data", "seqs"]])
def test_config_file_missing_exit_code_1(tmp_path, capsys, command):
    path = tmp_path / "missing.cfg"
    code = run(command + ["--out", tmp_path / "o", "--config", path])
    _config_error(capsys, code, str(path))


def test_config_file_directory_exit_code_1(tmp_path, capsys):
    code = run(["gen", "--out", tmp_path / "g", "--config", tmp_path])
    _config_error(capsys, code, str(tmp_path), "directory")


@pytest.mark.parametrize("command", [
    pytest.param(["gen", "--seed", "-1"], id="gen-seed"),
    pytest.param(["gen", "--set", "seed=-1"], id="gen-set-seed"),
    pytest.param(["train", "--seed", "-1"], id="train-seed"),
    pytest.param(["track", "--checkpoint", "c.bin", "--data", "seqs", "--seed", "-1"],
                 id="track-seed"),
    pytest.param(["gradcheck", "--seed", "-1"], id="gradcheck-seed"),
    pytest.param(["bench", "--seed", "-1"], id="bench-seed")])
def test_negative_seed_exit_code_1(tmp_path, capsys, command):
    out = tmp_path / "o"
    extra = [] if command[0] == "gradcheck" else ["--out", out]
    _config_error(capsys, run(command + extra), "seed must be >= 0", "-1")
    assert not out.exists()


TRACK = ["track", "--checkpoint", "c.bin", "--data", "seqs"]  # neither exists: config first
COMMAND_OF_VIEW = {"model": TRACK, "crop": TRACK, "train": ["train"], "scene": ["gen"]}


def outside_each_bound():
    """For every key, a value just outside each bound of its rule, set on a
    command that reads the key (an int key takes the value rounded down)."""
    rules = key_rules()
    for f in fields(RunConfig):
        rule, view = rules[f.name]
        for v in rule.outside if rule else ():
            v = math.floor(v) if f.type == "int" else v
            yield pytest.param(COMMAND_OF_VIEW[view] + ["--set", f"{f.name}={v}"], [f.name],
                               id=f"rule-{f.name}={v}")


BAD_CROP = [
    (["--set", "crop_mode=bogus"], ["crop_mode", "'bogus'"], "crop-mode"),
    (["--set", "crop_xy=0"], ["crop_xy", "> 0"], "crop-xy"),
    (["--set", "crop_mode=ratio", "--set", "crop_ratio=0"], ["crop_ratio", "> 0"], "crop-ratio"),
    # a window wider than a float holds has inf cells, and the run would fail numerically
    (["--set", "crop_xy=1e308"], ["crop range (-1e+308, 1e+308) too wide", "crop_xy"],
     "crop-xy-too-wide")]
BAD_SCENE = [  # each used to end in a traceback, or in 0-byte frames for dropout >= 1
    ("speed_min=0.5", ["speed_min", "speed_max", "0.5 > 0.35"]),
    ("size_w=-1", ["size_w", "> 0", "got -1.0"]),
    ("size_jitter=1.5", ["size_jitter", "[0, 1)", "got 1.5"]),
    ("yaw_rate_max=-0.1", ["yaw_rate_max", ">= 0", "got -0.1"]),
    ("clutter_extent=-1", ["clutter_extent", ">= 0", "got -1.0"]),
    ("occlusion_dropout=1", ["occlusion_dropout", "[0, 1)", "got 1.0"]),
    ("occlusion_dropout=2", ["occlusion_dropout", "[0, 1)", "got 2.0"]),
    # frames past MAX_FRAME_POINTS, the first three past numpy's Poisson draw too
    ("points_per_m2=1e30", ["points_per_m2", "8.31e+31 points in a frame", "limit 4194304"]),
    ("clutter_density=1e30", ["clutter_density", "4e+32 points", "limit 4194304"]),
    ("clutter_extent=1e200", ["clutter_extent", "inf points", "limit 4194304"]),
    ("points_per_m2=1e16", ["points_per_m2", "8.31e+17 points in a frame", "limit 4194304"])]


@pytest.mark.parametrize("command,names", [
    pytest.param(["gen", "--set", "nope=1"], ["unknown config key 'nope'"], id="gen-unknown-key"),
    pytest.param(["gen", "--set", "grid"], ["--set expects KEY=VALUE, got 'grid'"],
                 id="gen-set-no-value"),
    pytest.param(["gen", "--set", "grid=abc"],
                 ["key 'grid': invalid literal for int() with base 10: 'abc'"], id="gen-grid-abc"),
    pytest.param(["gen", "--seed", "abc"],
                 ["key 'seed': invalid literal for int() with base 10: 'abc'"], id="gen-seed-abc"),
    pytest.param(["train", "--set", "grid=12"], ["grid", "12"], id="train-grid"),
    pytest.param(["train", "--no-imm", "--unshared"], ["shared=false", "imm=true"],
                 id="train-unshared"),
    pytest.param(["train", "--set", "batch=0"], ["batch"], id="train-batch"),
    pytest.param(TRACK + ["--set", "grid=12"], ["grid", "12"], id="track-grid"),
    *[pytest.param(cmd + bad, names, id=f"{cmd[0]}-{tag}")
      for cmd in (["train"] + FUZZ, TRACK) for bad, names, tag in BAD_CROP],
    # a ratio window is sized from each sequence's box: track reads fuzz_inputs' valid files
    *[pytest.param(cmd + FUZZ + ["--set", "crop_mode=ratio", "--set", "crop_ratio=1e308"],
                   ["crop range (-inf, inf) too wide", "crop_ratio"],
                   id=f"{cmd[0]}-crop-ratio-too-wide")
      for cmd in (["train"], ["track", "--checkpoint", "ck.bin", "--data", "d"])],
    pytest.param(["train", "--set", "heads=3"], ["channels 8 not divisible by heads 3"],
                 id="train-heads"),
    pytest.param(TRACK + ["--preset", "full", "--set", "stages=1"],
                 ["final grid 64x64 is not reducible to 1x1 by the 3 head convolutions"],
                 id="track-final-grid"),
    *[pytest.param([cmd, "--set", "scene_length=1"], ["scene_length", "got 1"],
                   id=f"{cmd}-scene-length") for cmd in ("gen", "train")],
    pytest.param(["train", "--set", "flip_axis=z"], ["flip_axis", "'z'"], id="train-flip-axis"),
    pytest.param(["train", "--set", "max_steps=-1"], ["max_steps", "-1"], id="train-max-steps"),
    *[pytest.param([cmd, "--set", f"sequences={n}"], ["sequences", f"got {n}"],
                   id=f"{cmd}-sequences-{n}") for cmd in ("gen", "train") for n in (0, -2)],
    *[pytest.param([cmd, "--set", f"static_fraction={f}"], ["static_fraction", f"got {f}"],
                   id=f"{cmd}-static-fraction-{f}") for cmd in ("gen", "train")
      for f in ("7.0", "-0.5", "nan")],
    *[pytest.param([cmd, "--set", bad], names, id=f"{cmd}-{bad}")
      for cmd in ("gen", "train") for bad, names in BAD_SCENE],
    *[pytest.param(["train", "--set", f"{f.name}={v}"], [f"'{f.name}'", f"finite, got {v}"],
                   id=f"train-{f.name}-{v}")
      for f in fields(RunConfig) if f.type == "float" for v in ("nan", "inf", "-inf")],
    pytest.param(["gen", "--set", "speed_min=nan"], ["'speed_min'", "finite"],
                 id="gen-speed-min-nan"),
    *[pytest.param(["train", "--set", f"huber_delta={v}"], ["huber_delta", "> 0"],
                   id=f"train-huber-delta-{v}") for v in ("0", "-1")],
    *outside_each_bound()])
def test_invalid_config_creates_no_run_dir(fuzz_inputs, monkeypatch, tmp_path, capsys, command,
                                           names):
    monkeypatch.chdir(fuzz_inputs)  # where the ratio rows' ck.bin and d are
    out = tmp_path / "o"
    err = _config_error(capsys, run(command + ["--out", out]), *names)
    if "crop_mode=ratio" in command:  # ratio mode ignores crop_xy, so no message names it
        assert "crop_xy" not in err
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["train", "track"])
def test_model_too_large_to_hold_creates_no_run_dir(tmp_path, monkeypatch, cmd):
    # channels=2**40 fails in numpy's allocation; the traceback stays, and the
    # model is built before the run directory
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 64.0 TiB")

    monkeypatch.setattr(cli, "TrackerModel", too_large)
    out = tmp_path / "o"
    paths = ["--checkpoint", tmp_path / "ck.bin", "--data", tmp_path] if cmd == "track" else []
    with pytest.raises(MemoryError):
        run([cmd, "--out", out] + paths + FAST)
    assert not out.exists()


def write_checkpoint(path, args=FAST):
    """An initial-weights checkpoint of the model that `args` configure."""
    model = TrackerModel(from_items(dict(a.split("=", 1) for a in args[1::2])).model_config())
    save_checkpoint(model.store, str(path))


@pytest.mark.parametrize("args,named", [
    pytest.param(["gen", "--out", "{file}"] + FAST, "{file}", id="gen-out-file"),
    pytest.param(["train", "--data", "{file}", "--out", "{out}"] + FAST, "{file}",
                 id="train-data-file"),
    pytest.param(["eval", "--pred", "{file}", "--gt", "{file}", "--out", "{out}"], "{file}",
                 id="eval-gt-file"),
    pytest.param(["track", "--checkpoint", "{dir}", "--data", "{dir}", "--out", "{out}"] + FAST,
                 "{dir}", id="track-checkpoint-dir"),
    pytest.param(["track", "--checkpoint", "{ck}", "--data", "{missing}", "--out", "{out}"] + FAST,
                 "{missing}", id="track-data-missing")])
def test_unusable_path_exit_code_2(tmp_path, capsys, args, named):
    """An OSError on a path a command was given (FileExistsError,
    NotADirectoryError, IsADirectoryError, FileNotFoundError) is a data error
    that names the path; no run directory is made and the file is left as it
    was."""
    paths = {n: tmp_path / n for n in ("file", "dir", "out", "ck", "missing")}
    file, out = paths["file"], paths["out"]
    write_tracklet([Box3D(0, 0, 0, 1, 1, 1, 0)], [False], str(file))  # a valid --pred
    write_checkpoint(paths["ck"])  # a valid --checkpoint
    before = file.read_bytes()
    paths["dir"].mkdir()
    code = run([a.format(**paths) for a in args])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("data error: ") and err.count("\n") == 1, err
    assert named.format(**paths) in err
    assert not out.exists() and file.read_bytes() == before


# One always-invalid edit to one file of a small data set: each corruption
# takes (draw, inputs root), edits a file under it, and returns the path the
# error names and the message after it. CORRUPTIONS, the one registry of
# malformed inputs to `train --data`, `track` and `eval`, says which commands
# read each file: a new input check adds its corruption there, and
# test_every_data_error_is_pinned fails until it does.

SEQ_DIRS = ("seq_000", "seq_001", "seq_002")
ALL, EVAL_ONLY, TRACK_ONLY = ("train", "track", "eval"), ("eval",), ("track",)
NOT_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
NOT_POSITIVE = st.floats(max_value=0.0, allow_nan=False, allow_infinity=False)
LABEL_KEYS = ("frame", "center", "size", "yaw")  # in the order read_labels reads them


def _draw_frame(draw, root):
    seq = draw(st.sampled_from(SEQ_DIRS))
    return root / "d" / seq / "frames" / f"{draw(st.integers(1, 4)):06d}.bin"


def truncated_frame(draw, root):
    frame = _draw_frame(draw, root)
    blob = frame.read_bytes()  # cut to 12 k + r bytes, 0 < r < 12
    k, r = draw(st.integers(0, len(blob) // 12 - 1)), draw(st.integers(1, 11))
    frame.write_bytes(blob[:12 * k + r])
    return frame, (f"byte {12 * k}: truncated point record "
                   f"(file size {12 * k + r} is not a multiple of 12)")


def non_finite_point(draw, root):  # 1 to 3 points, each with a coordinate made NaN or inf
    frame = _draw_frame(draw, root)
    xyz = np.fromfile(frame, dtype="<f4").reshape(-1, 3)
    points = set()
    for _ in range(draw(st.integers(1, 3))):
        points.add(p := draw(st.integers(0, len(xyz) - 1)))
        j = draw(st.integers(0, 2))
        xyz[p, j] = draw(NOT_FINITE)
    xyz.tofile(frame)
    p = min(points)
    return frame, f"byte {12 * p}: non-finite coordinate in point {p} ({len(points)} such points)"


def missing_frame(draw, root):
    frame = _draw_frame(draw, root)
    frame.unlink()
    return frame, "missing frame file (4 labels)"


def extra_frame(draw, root):  # a file-count error names the sequence directory
    frame = _draw_frame(draw, root)
    (frame.parent / f"{draw(st.integers(5, 9)):06d}.bin").write_bytes(frame.read_bytes())
    return frame.parent.parent, "5 frame files but 4 labels"


def _not_utf8(draw, path):
    blob = bytearray(path.read_bytes())
    blob[offset := draw(st.integers(0, len(blob) - 1))] = 0xFF
    path.write_bytes(bytes(blob))
    return f"byte {offset}: not UTF-8 text (invalid start byte)"


def _labels(draw, root):
    return root / "d" / draw(st.sampled_from(SEQ_DIRS)) / "labels.jsonl"


def _tracklet(draw, root):
    return root / "trk" / draw(st.sampled_from(SEQ_DIRS)) / "tracklet.txt"


def labels_not_utf8(draw, root):
    labels = _labels(draw, root)
    return labels, _not_utf8(draw, labels)


def tracklet_not_utf8(draw, root):
    tracklet = _tracklet(draw, root)
    return tracklet, _not_utf8(draw, tracklet)


def _bad_box(draw, vals):
    """The box values (x, y, z, w, h, l, theta) with one made non-finite or a
    size made <= 0, and the error that names them."""
    j = draw(st.integers(0, 6))
    vals[j] = draw(st.one_of(NOT_FINITE, NOT_POSITIVE) if 3 <= j < 6 else NOT_FINITE)
    vals = tuple(vals)
    if all(map(math.isfinite, vals)):
        return vals, f"box size {vals[3:6]} is not positive"
    return vals, f"non-finite box value in {vals}"


def _edit_label(draw, root, edit):
    """Edit the record on a drawn line t of a drawn labels.jsonl: `edit(rec,
    t, n)`, given the file's n labels, returns the error message."""
    labels = _labels(draw, root)
    lines = labels.read_text().splitlines(keepends=True)
    i = draw(st.integers(0, len(lines) - 1))
    rec = json.loads(lines[i])
    message = edit(rec, i + 1, len(lines))
    lines[i] = json.dumps(rec) + "\n"
    labels.write_text("".join(lines))
    return labels, message


def label_not_a_number(draw, root):
    """A frame made a string, a bool or a float, or a center, size or yaw
    made a string, a bool or an integer that no float holds."""
    key = draw(st.sampled_from(["frame", "center", "size", "yaw"]))
    if key == "frame":
        bad = draw(st.one_of(st.integers(1, 4).map(str), st.booleans(),
                             st.integers(1, 4).map(float)))
        why = f"frame {json.dumps(bad)} is not a JSON integer"
    else:
        bad = draw(st.one_of(st.floats().map(str), st.booleans(),
                             st.sampled_from([10 ** 400, -10 ** 400])))
        why = ("int too large to convert to float" if type(bad) is int
               else f"{json.dumps(bad)} is not a JSON number")

    def edit(rec, t, n):
        if key in ("center", "size"):
            rec[key][draw(st.integers(0, 2))] = bad
        else:
            rec[key] = bad
        return f"line {t}: bad label ({why})"
    return _edit_label(draw, root, edit)


def label_missing_key(draw, root):  # the error names the first one read
    def edit(rec, t, n):
        gone = {draw(st.sampled_from(LABEL_KEYS)) for _ in range(draw(st.integers(1, 4)))}
        for key in gone:
            del rec[key]
        return f"line {t}: bad label ({min(gone, key=LABEL_KEYS.index)!r})"
    return _edit_label(draw, root, edit)


def label_bad_value(draw, root):  # JSON NaN or Infinity, or a size <= 0
    def edit(rec, t, n):
        vals, why = _bad_box(draw, [*rec["center"], *rec["size"], rec["yaw"]])
        rec.update(center=vals[:3], size=vals[3:6], yaw=vals[6])
        return f"line {t}: {why}"
    return _edit_label(draw, root, edit)


def label_frame_gap(draw, root):
    def edit(rec, t, n):
        rec["frame"] = n + draw(st.integers(1, 3))
        return f"frame indices are not 1..{n}"
    return _edit_label(draw, root, edit)


def too_few_labels(draw, root):
    labels = _labels(draw, root)
    lines = labels.read_text().splitlines(keepends=True)
    labels.write_text("".join(lines[:(n := draw(st.integers(0, 1)))]))
    return labels, f"a sequence needs at least 2 frames, got {n}"


def _edit_tracklet_line(draw, root, edit):
    """Edit the fields of a drawn line t of a drawn tracklet.txt: `edit(parts,
    t)` returns the error message after the line number."""
    tracklet = _tracklet(draw, root)
    lines = tracklet.read_text().splitlines(keepends=True)
    i = draw(st.integers(0, len(lines) - 1))
    parts = lines[i].split()
    why = edit(parts, i + 1)
    lines[i] = " ".join(parts) + "\n"
    tracklet.write_text("".join(lines))
    return tracklet, f"line {i + 1}: {why}"


def tracklet_seven_fields(draw, root):
    def edit(parts, t):
        parts.pop(draw(st.integers(0, 7)))
        return "expected 8 fields, got 7"
    return _edit_tracklet_line(draw, root, edit)


def tracklet_index_out_of_order(draw, root):
    def edit(parts, t):
        parts[0] = str(index := draw(st.integers(-2, 9).filter(lambda v: v != t)))
        return f"frame index {index} out of order"
    return _edit_tracklet_line(draw, root, edit)


def tracklet_not_a_number(draw, root):  # a field that int() or float() cannot read
    def edit(parts, t):
        j = draw(st.integers(0, 7))
        parts[j] = word = draw(st.text("xyz_", min_size=1, max_size=3))
        return (f"invalid literal for int() with base 10: {word!r}" if j == 0
                else f"could not convert string to float: {word!r}")
    return _edit_tracklet_line(draw, root, edit)


def tracklet_bad_value(draw, root):  # NaN or inf, or a size <= 0
    def edit(parts, t):
        vals, why = _bad_box(draw, [float(v) for v in parts[1:]])
        parts[1:] = map(repr, vals)
        return why
    return _edit_tracklet_line(draw, root, edit)


def tracklet_short(draw, root):  # fewer boxes than its sequence has frames
    tracklet = _tracklet(draw, root)
    lines = tracklet.read_text().splitlines(keepends=True)
    tracklet.write_text("".join(lines[:(n := draw(st.integers(0, len(lines) - 1)))]))
    return tracklet, (f"{n} boxes but the sequence {root / 'd' / tracklet.parent.name} has "
                      f"{len(lines)} frames")


def _params(blob):
    """Each parameter of a checkpoint: its name and the offsets of its name
    length, its shape, its data and its end."""
    off = 12
    for _ in range(struct.unpack_from("<I", blob, 8)[0]):
        (nlen,) = struct.unpack_from("<H", blob, off)
        shape_at = off + 3 + nlen
        ndim = blob[shape_at - 1]
        data = shape_at + 4 * ndim
        end = data + 8 * math.prod(struct.unpack_from(f"<{ndim}I", blob, shape_at))
        yield blob[off + 2:shape_at - 1].decode(), off, shape_at, data, end
        off = end


def checkpoint_cut(draw, root):
    ck = root / "ck.bin"
    blob = ck.read_bytes()
    ck.write_bytes(blob[:(cut := draw(st.integers(0, len(blob) - 1)))])
    ends = [(4, "byte 0: bad magic (not a checkpoint)"), (12, f"byte {cut}: truncated header")]
    for name, off, shape_at, data, end in _params(blob):  # the field the cut falls in
        ends += [(off + 2, f"byte {off}: truncated name length"),
                 (shape_at, f"byte {off + 2}: truncated name"),
                 (data, f"byte {shape_at}: truncated shape"),
                 (end, f"byte {data}: truncated data for '{name}'")]
    return ck, next(why for at, why in ends if cut < at)


def _draw_param(draw, blob):
    params = list(_params(blob))
    return params[draw(st.integers(0, len(params) - 1))]


def checkpoint_nan(draw, root):  # NaN or inf
    ck = root / "ck.bin"
    blob = bytearray(ck.read_bytes())
    name, _, _, data, end = _draw_param(draw, blob)
    at = data + 8 * draw(st.integers(0, (end - data) // 8 - 1))
    struct.pack_into("<d", blob, at, draw(NOT_FINITE))
    ck.write_bytes(bytes(blob))
    return ck, f"byte {at}: non-finite value in '{name}'"


def checkpoint_name_not_utf8(draw, root):
    ck = root / "ck.bin"
    blob = bytearray(ck.read_bytes())
    name, off, *_ = _draw_param(draw, blob)
    blob[at := off + 2 + draw(st.integers(0, len(name) - 1))] = 0xFF
    ck.write_bytes(bytes(blob))
    return ck, f"byte {at}: parameter name is not valid utf-8 (invalid start byte)"


def checkpoint_repeated_name(draw, root):  # a name made equal to an earlier one of its length
    blob = bytearray((ck := root / "ck.bin").read_bytes())
    name_at = {name: off + 2 for name, off, *_ in _params(blob)}
    first, second = draw(st.sampled_from(
        [(a, b) for a, b in itertools.combinations(name_at, 2) if len(a) == len(b)]))
    blob[name_at[second]:name_at[second] + len(first)] = first.encode()
    ck.write_bytes(bytes(blob))
    return ck, f"byte {name_at[second]}: repeated parameter name '{first}'"


def checkpoint_shape_past_int64(draw, root):  # its data would be past 2**63 bytes
    # one parameter 'w' with 16 bytes of data; an int64 count of the shape
    # would wrap to -2**33 + 1 or to 0
    shape = draw(st.sampled_from([(2**32 - 1,) * 2, (2**16,) * 4]))
    (ck := root / "ck.bin").write_bytes(b"BSOT" + struct.pack(
        f"<IIHsB{len(shape)}I", 1, 1, 1, b"w", len(shape), *shape) + bytes(16))
    return ck, f"byte {16 + 4 * len(shape)}: truncated data for 'w'"


def checkpoint_version(draw, root):  # any but 1
    blob = (ck := root / "ck.bin").read_bytes()
    version = draw(st.integers(2, 2**32 - 1) | st.just(0))
    ck.write_bytes(blob[:4] + struct.pack("<I", version) + blob[8:])
    return ck, f"byte 4: unsupported checkpoint version {version}"


def checkpoint_trailing(draw, root):
    blob = (ck := root / "ck.bin").read_bytes()
    ck.write_bytes(blob + draw(st.binary(min_size=1, max_size=16)))
    return ck, f"byte {len(blob)}: trailing bytes after last parameter"


def no_sequences(draw, root):  # each sequence directory removed, or its frames/
    for seq in SEQ_DIRS:
        shutil.rmtree(root / "d" / seq / "frames" if draw(st.booleans()) else root / "d" / seq)
    return root / "d", "no sequence directories found"


def tracklet_missing(draw, root):
    (tracklet := _tracklet(draw, root)).unlink()
    return tracklet, f"no tracklet for sequence '{tracklet.parent.name}'"


CORRUPTIONS = {  # corruption: (the commands that read its file, its pinned draws)
    truncated_frame: (ALL, [("seq_001", 2, 8, 4)]),  # to 100 bytes
    non_finite_point: (ALL, [("seq_002", 3, 2, 4, 0, math.nan, 3, 1, math.inf)]),  # point 3
    missing_frame: (ALL, [("seq_000", 4)]),
    extra_frame: (ALL, [("seq_001", 1, 5)]),
    labels_not_utf8: (ALL, [("seq_001", 40)]),
    label_not_a_number: (ALL, [("frame", 1.0, "seq_001", 0), ("frame", True, "seq_001", 0),
                               ("frame", "1", "seq_001", 0),
                               ("center", "1.5", "seq_001", 1, 0)]),
    label_missing_key: (ALL, [("seq_001", 1, 2, "yaw", "size")]),  # names 'size'
    label_bad_value: (ALL, [("seq_000", 2, 6, math.inf)]),  # yaw on line 3
    label_frame_gap: (ALL, [("seq_002", 3, 1)]),
    too_few_labels: (ALL, [("seq_000", 0), ("seq_002", 1)]),
    no_sequences: (ALL, [(True, False, True)]),
    tracklet_not_utf8: (EVAL_ONLY, [("seq_002", 0)]),
    tracklet_seven_fields: (EVAL_ONLY, [("seq_000", 0, 7)]),
    tracklet_not_a_number: (EVAL_ONLY, [("seq_002", 2, 0, "x"), ("seq_002", 3, 5, "_")]),
    tracklet_index_out_of_order: (EVAL_ONLY, [("seq_001", 1, 1)]),
    tracklet_bad_value: (EVAL_ONLY, [("seq_000", 1, 3, 0.0)]),  # w = 0 on line 2
    tracklet_short: (EVAL_ONLY, [("seq_000", 3)]),
    tracklet_missing: (EVAL_ONLY, [("seq_001",)]),
    # cut in the magic, the header, the first name length, name, shape and data
    checkpoint_cut: (TRACK_ONLY, [(2,), (8,), (13,), (20,), (25,), (100,)]),
    checkpoint_nan: (TRACK_ONLY, [(0, 1, math.inf), (1, 0, math.nan), (2, 3, -math.inf)]),
    checkpoint_name_not_utf8: (TRACK_ONLY, [(0, 0)]),  # byte 14
    checkpoint_repeated_name: (TRACK_ONLY, [(("stage1.wq", "stage1.wk"),)]),
    checkpoint_shape_past_int64: (TRACK_ONLY, [((2**32 - 1,) * 2,), ((2**16,) * 4,)]),
    checkpoint_version: (TRACK_ONLY, [(2,)]),
    checkpoint_trailing: (TRACK_ONLY, [(b"\0",)])}


class Pin:
    """A fixed case for @example: `draw` returns `values` in order, whatever
    it is asked for: the corruption first, then the command, then its draws."""

    def __init__(self, *values):
        self.values, self._left = values, iter(values)

    def draw(self, strategy):
        return next(self._left)

    def __repr__(self):
        return f"Pin({', '.join(getattr(v, '__name__', repr(v)) for v in self.values)})"


def every_pin_under_every_command(test):
    """Each (corruption, command) pair runs on every run: each pin of a
    corruption is an @example under each command that reads its file."""
    for corruption, (commands, pins) in CORRUPTIONS.items():
        for draws in pins:
            for command in commands:
                test = example(data=Pin(corruption, command, *draws))(test)
    return test


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """3 generated sequences of 4 frames, an initial-weights checkpoint, and
    the tracklets `track` writes from them."""
    root = tmp_path_factory.mktemp("fuzz")
    data, ck = root / "d", root / "ck.bin"
    assert run(["gen", "--out", data, "--seed", 3] + FUZZ) == 0
    write_checkpoint(ck, FUZZ)
    assert run(["track", "--checkpoint", ck, "--data", data, "--out", root / "trk"] + FUZZ) == 0
    return root


@settings(max_examples=260)  # drawn examples, besides the pinned ones
@given(st.data())
@every_pin_under_every_command
def test_corrupt_input_exit_code_2(fuzz_inputs, data):
    """One always-invalid edit to one input of `train --data`, `track` or
    `eval` exits 2 with one line, the data error that names the file (the
    sequence directory for a file-count error), and makes no run directory."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "in"
        shutil.copytree(fuzz_inputs, root)
        corruption = data.draw(st.sampled_from(list(CORRUPTIONS)))
        command = data.draw(st.sampled_from(CORRUPTIONS[corruption][0]))
        named, message = corruption(data.draw, root)
        event(f"{corruption.__name__}/{command}")
        seqs, out = root / "d", Path(tmp) / "o"
        args = {"train": ["train", "--data", seqs] + FUZZ,
                "track": ["track", "--checkpoint", root / "ck.bin", "--data", seqs] + FUZZ,
                "eval": ["eval", "--pred", root / "trk", "--gt", seqs]}
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(args[command] + ["--out", out])
        assert (code, err.getvalue()) == (2, f"data error: {named}: {message}\n")
        assert not out.exists()


UNREACHED = {  # data error templates no command reaches, and why
    "DataFormatError(f'{path}: missing frames/ directory')":
        "list_sequence_dirs returns only directories that have frames/"}
FAIL = "f'{path}: byte {offset}: {why}'"  # read_checkpoint's fail(offset, why)


def data_error_templates() -> dict[str, tuple[str, int]]:
    """Each DataFormatError message template in src/bevsot, by its source
    text: a regex over the whole message, each formatted value as .+, and its
    count of literal characters. Each fail(offset, why) call is a template,
    its why after fail's own "{path}: byte {offset}: "."""
    out = {}
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for call in ast.walk(ast.parse(path.read_text())):
            name = getattr(getattr(call, "func", None), "id", None)
            if name == "DataFormatError" and ast.unparse(call.args[0]) != FAIL:
                pieces, text = [], call.args[0]
            elif name == "fail":
                pieces, text = [None, ": byte ", None, ": "], call.args[1]
            else:
                continue
            pieces += [v.value if isinstance(v, ast.Constant) else None
                       for v in (text.values if isinstance(text, ast.JoinedStr) else [text])]
            out[ast.unparse(call)] = ("".join(".+" if p is None else re.escape(p) for p in pieces),
                                      sum(len(p) for p in pieces if p))
    return out


def test_every_data_error_is_pinned(fuzz_inputs, tmp_path):
    """Each data error template is the closest match, the one with the most
    literal text, of some pinned corruption's message, or is UNREACHED: a new
    input check fails here until its corruption is in CORRUPTIONS."""
    templates, pinned = data_error_templates(), set()
    for corruption, (_, pins) in CORRUPTIONS.items():
        for i, draws in enumerate(pins):
            root = shutil.copytree(fuzz_inputs, tmp_path / f"{corruption.__name__}{i}")
            named, message = corruption(Pin(*draws).draw, root)
            line = f"{named}: {message}"
            matches = [t for t, (regex, _) in templates.items() if re.fullmatch(regex, line)]
            assert matches, line
            pinned.add(max(matches, key=lambda t: templates[t][1]))
    assert sorted(set(templates) - pinned) == sorted(UNREACHED)


# ---------------------------------------------------------------------------
# command suite


def test_gen_writes_sequences(tmp_path):
    # scene i is seeded seed * 1000 + i and the first round(static_fraction *
    # sequences) are static: their targets only drift, slower than speed_min
    out = tmp_path / "data"
    assert run(["gen", "--out", out, "--seed", 3] + FAST
               + ["--set", "sequences=4", "--set", "static_fraction=0.5"]) == 0
    assert (out / "config.echo.cfg").exists()
    assert (out / "seq_000" / "labels.jsonl").exists()
    assert len(list((out / "seq_000" / "frames").iterdir())) == 4
    dirs = sorted(out.glob("seq_*"))
    assert [json.loads((d / "meta.json").read_text())["seed"] for d in dirs] == [
        3000, 3001, 3002, 3003]
    steps = [[math.dist(a.center[:2], b.center[:2]) for a, b in zip(gt, gt[1:])]
             for gt in (read_sequence(str(d)).gt for d in dirs)]
    assert [max(s) < SceneConfig.speed_min for s in steps] == [True, True, False, False]


def test_default_run_dirs_in_one_second_are_not_shared(tmp_path, monkeypatch):
    # two gens without --out in the same second used to write into one
    # directory: the second's echo over the first's three sequences
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli.time, "strftime", lambda fmt: "20260101-000000")
    small = ["--set", "scene_length=2"]
    assert run(["gen", "--set", "sequences=3"] + small) == 0
    assert run(["gen", "--set", "sequences=2", "--seed", 7] + small) == 0
    first, second = (tmp_path / "runs" / f"gen-20260101-000000{n}" for n in ("", "-2"))
    assert sorted(os.listdir(tmp_path / "runs")) == [first.name, second.name]
    assert load_config(str(first / "config.echo.cfg")).sequences == 3
    assert load_config(str(second / "config.echo.cfg")).seed == 7
    assert sorted(p.name for p in first.glob("seq_*")) == ["seq_000", "seq_001", "seq_002"]
    assert sorted(p.name for p in second.glob("seq_*")) == ["seq_000", "seq_001"]


def test_train_lr_zero_checkpoint_equals_init(tmp_path):
    out = tmp_path / "run"
    code = run(["train", "--out", out, "--seed", 1, "--set", "lr=0",
                "--set", "weight_decay=0", "--set", "augment=false"] + FAST)
    assert code == 0
    entries = read_checkpoint(str(out / "checkpoint.bin"))
    from bevsot.model import ModelConfig, TrackerModel
    cfg = load_config(str(out / "config.echo.cfg"))
    init = TrackerModel(cfg.model_config(), seed=1)
    for name, t in init.store.items():
        np.testing.assert_array_equal(entries[name], t.data)


def test_train_echo_reproduces_checkpoint_bitwise(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["train", "--out", a, "--seed", 7] + FAST) == 0
    assert run(["train", "--out", b, "--config", a / "config.echo.cfg",
                "--seed", 7]) == 0
    assert (a / "checkpoint.bin").read_bytes() == (b / "checkpoint.bin").read_bytes()


def test_train_logs_alphas(tmp_path):
    out = tmp_path / "run"
    assert run(["train", "--out", out, "--seed", 1] + FAST) == 0
    header, row = (out / "train_log.csv").read_text().splitlines()[:2]
    assert header == "epoch,lr,loss,alpha1,alpha2,alpha3"
    assert len(row.split(",")) == 6


@pytest.fixture(scope="module")
def tracked(tmp_path_factory):
    """One seed-5 gen -> train -> track, shared by the tests that read its output."""
    root = tmp_path_factory.mktemp("pipeline")
    data, run_dir, trk = root / "d", root / "r", root / "t"
    assert run(["gen", "--out", data, "--seed", 5] + FAST) == 0
    assert run(["train", "--out", run_dir, "--data", data, "--seed", 5] + FAST) == 0
    assert run(["track", "--checkpoint", run_dir / "checkpoint.bin", "--data", data,
                "--out", trk, "--seed", 5] + FAST) == 0
    return data, trk


def test_track_then_eval_pipeline(tracked, tmp_path):
    data, trk = tracked
    ev = tmp_path / "e"
    tracklet = (trk / "seq_000" / "tracklet.txt").read_text().splitlines()
    assert len(tracklet) == 4
    # --data may be one sequence directory: it tracks as it does under the root
    one = tmp_path / "one"
    assert run(["track", "--checkpoint", data.parent / "r" / "checkpoint.bin",
                "--data", data / "seq_001", "--out", one, "--seed", 5] + FAST) == 0
    assert (one / "seq_001" / "tracklet.txt").read_bytes() == \
        (trk / "seq_001" / "tracklet.txt").read_bytes()
    assert run(["eval", "--pred", trk, "--gt", data, "--out", ev]) == 0
    csv = (ev / "ope_seq_000.csv").read_text()
    assert csv.splitlines()[-1].startswith("summary,")


def test_tracklet_jsonl_has_coast_flags(tracked):
    _, trk = tracked
    rec = json.loads((trk / "seq_000" / "tracklet.jsonl").read_text().splitlines()[0])
    assert "coasted" in rec and rec["frame"] == 1


def test_track_checkpoint_shape_mismatch_exit_1(tmp_path, capsys):
    write_checkpoint(tmp_path / "ck.bin")  # channels=4; the checkpoint is read before --data
    code = run(["track", "--checkpoint", tmp_path / "ck.bin", "--data", tmp_path,
                "--out", tmp_path / "t"] + FAST + ["--set", "channels=8"])
    _config_error(capsys, code, "checkpoint shape mismatch for ")
    assert not (tmp_path / "t").exists()


def test_eval_perfect_oracle_stub_scores_one(tmp_path):
    """Tracklets produced by a ground-truth motion stub evaluate to 1.0."""
    seq = generate(SceneConfig(scene_length=5, seed=13))
    write_sequence(seq, str(tmp_path / "gt" / "seq_000"))
    gt_iter = iter(range(1, len(seq.gt)))

    def oracle(prev_cloud, curr_cloud, prev_box):
        t = next(gt_iter)
        return relative_motion(seq.gt[t - 1], seq.gt[t])

    tr = track_sequence(seq.frames, seq.gt[0], oracle)
    res = ope(tr, seq.gt)
    assert res.success_auc == pytest.approx(1.0, abs=1e-9)
    tdir = tmp_path / "pred" / "seq_000"
    os.makedirs(tdir)
    write_tracklet(tr.boxes, tr.coasted, str(tdir / "tracklet.txt"))
    assert run(["eval", "--pred", tmp_path / "pred", "--gt", tmp_path / "gt",
                "--out", tmp_path / "ev"]) == 0
    summary = (tmp_path / "ev" / "ope_seq_000.csv").read_text().splitlines()[-1]
    _, succ, prec = summary.split(",")
    assert float(succ) == pytest.approx(1.0, abs=1e-9)
    assert float(prec) == pytest.approx(1.0, abs=1e-9)


def test_atomic_write_that_raises_leaves_the_path_as_it_was(tmp_path):
    """A block that writes part of a file and raises: the error comes back
    out, the path keeps what it held or stays absent, and no temporary file
    is left."""
    (tmp_path / "kept.txt").write_text("before\n")
    for name in ("kept.txt", "absent.txt"):
        with pytest.raises(RuntimeError, match="midway"):
            with atomic_write(str(tmp_path / name)) as fh:
                fh.write("part")
                raise RuntimeError("midway")
    assert {p.name: p.read_text() for p in tmp_path.iterdir()} == {"kept.txt": "before\n"}


def test_every_output_file_is_written_whole(tmp_path, monkeypatch):
    """Every writer makes each of its files through atomic_write, whose
    guarantee is the test above: the files on disk are exactly the paths it
    was called with, in the order each writer writes them. A new writer
    adds one call here."""
    written = []

    def spy(path, mode="w"):
        written.append(Path(path).relative_to(tmp_path).as_posix())
        return atomic_write(path, mode)

    for name, mod in list(sys.modules.items()):  # every bevsot module that binds it
        if name.startswith("bevsot") and getattr(mod, "atomic_write", None) is atomic_write:
            monkeypatch.setattr(mod, "atomic_write", spy)
    store = ParamStore()
    store.create("w", np.zeros(2))
    seq = generate(SceneConfig(scene_length=2, seed=3))
    save_checkpoint(store, str(tmp_path / "ck.bin"))
    save_train_log([EpochStats(epoch=0, lr=5e-4, mean_loss=0.25, alphas=[1.0], steps=2)],
                   str(tmp_path / "train_log.csv"))
    write_sequence(seq, str(tmp_path / "gt"))
    write_tracklet(seq.gt, [False, False], str(tmp_path / "t.txt"), str(tmp_path / "t.jsonl"))
    assert run(["gen", "--out", tmp_path / "g", "--set", "sequences=1",
                "--set", "scene_length=2"]) == 0
    assert run(["eval", "--pred", tmp_path / "t.txt", "--gt", tmp_path / "gt",
                "--out", tmp_path / "ev"]) == 0
    seq_files = lambda d: [f"{d}/frames/000001.bin", f"{d}/frames/000002.bin",
                           f"{d}/labels.jsonl", f"{d}/meta.json"]
    assert written == ["ck.bin", "train_log.csv", *seq_files("gt"), "t.txt", "t.jsonl",
                       "g/config.echo.cfg", *seq_files("g/seq_000"), "ev/ope_gt.csv"]
    on_disk = [p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file()]
    assert sorted(on_disk) == sorted(written)


def test_bench_command(tmp_path):
    out = tmp_path / "b"
    assert run(["bench", "--ns", "32,64,128,256", "--d", "4", "--repeats", "1",
                "--out", out]) == 0
    assert (out / "bench.csv").exists()
    assert "PASS" in (out / "scaling_report.txt").read_text()


BENCH_KERNELS = [  # (bench function, its report and CSV name, its output shape)
    ("softmax_attention", "softmax", lambda Q, K, V: Q.shape),
    ("linear_attention_core", "linear_core", lambda Q, K, V: Q.shape),
    ("motion_weight_map", "motion_map", lambda Qc, Kc, Qp, Kp, alpha: (len(Qc), len(Kc))),
    ("gate_projection", "gate_projection", lambda Wm, G, b: (len(Wm), G.shape[1])),
    ("motion_gate_tiled", "motion_gate_tiled", lambda Qc, Kc, Qp, Kp, alpha, G, b: G.shape)]


@pytest.mark.parametrize("fn,name,shape", [pytest.param(*k, id=k[1]) for k in BENCH_KERNELS])
def test_bench_command_gate_slope_fail_exit_3(tmp_path, monkeypatch, fn, name, shape):
    """A cubic stub of one kernel moves that kernel's counts and slope only."""
    from bevsot import bench

    def cubic(*args, counter=None):
        if counter is not None:
            counter.count += len(args[0]) ** 3
        return np.zeros(shape(*args))

    ns = [32, 64, 128, 256]
    base = bench.bench_attention(ns, d=4, repeats=1)[0]
    monkeypatch.setattr(bench, fn, cubic)
    out = tmp_path / "b"
    asserted = name != "gate_projection"
    assert run(["bench", "--ns", ",".join(map(str, ns)), "--d", "4", "--repeats", "1",
                "--out", out]) == (3 if asserted else 0)
    rows = [line.split(",") for line in (out / "bench.csv").read_text().splitlines()]
    for col, head in enumerate(rows[0]):
        if head.startswith("count_"):
            kernel = head[len("count_"):]
            want = [n ** 3 if kernel == name else r.counts[kernel] for n, r in zip(ns, base)]
            assert [int(row[col]) for row in rows[1:]] == want, kernel
    report = (out / "scaling_report.txt").read_text()
    assert any(line.split()[:2] == [name, "3.0000"] for line in report.splitlines())
    assert report.count("FAIL") == asserted
    if asserted:
        want = "1.0" if name == "linear_core" else "2.0"
        assert f"slope check {name}: 3.0000 vs {want} +/- 0.15 -> FAIL" in report


@pytest.mark.parametrize("args,name", [
    pytest.param(["--ns", "1,a"], "--ns", id="ns-not-int"),
    pytest.param(["--ns", ""], "--ns", id="ns-empty"),
    pytest.param(["--ns", "0,1,2,3"], "values >= 1", id="ns-zero"),
    pytest.param(["--d", "0"], "d must be", id="d-zero"),
    pytest.param(["--repeats", "0"], "repeats must be", id="repeats-zero")])
def test_bench_bad_input_exit_code_1(tmp_path, capsys, args, name):
    out = tmp_path / "b"
    _config_error(capsys, run(["bench", "--out", out] + args), name)
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [  # --samples below 1, or a --tol that is not > 0
    *[pytest.param("--samples", v, id=str(v)) for v in (0, -1)],
    *[pytest.param("--tol", v, id=f"tol{v}") for v in ("0", "-1", "nan")]])
def test_gradcheck_samples_below_one_exit_code_1(capsys, flag, value):
    _config_error(capsys, run(["gradcheck", flag, value]), flag, f"got {value}")


def test_gradcheck_command_small():
    assert run(["gradcheck", "--samples", "2", "--set", "head_trunk=16",
                "--set", "scene_length=3", "--seed", 0]) == 0


def test_ratio_crop_mode_pipeline(tmp_path, capsys):
    data, run_dir, trk = tmp_path / "d", tmp_path / "r", tmp_path / "t"
    ratio = ["--set", "crop_mode=ratio", "--set", "crop_ratio=2.0"]
    assert run(["gen", "--out", data, "--seed", 4] + FAST) == 0
    assert run(["train", "--out", run_dir, "--data", data, "--seed", 4]
               + FAST + ratio) == 0
    assert run(["track", "--checkpoint", run_dir / "checkpoint.bin", "--data", data,
                "--out", trk, "--seed", 4] + FAST + ratio) == 0
    assert (trk / "seq_000" / "tracklet.txt").exists()
    # a first label box too long for a float window: the config error names its
    # sequence and the box
    labels = data / "seq_001" / "labels.jsonl"
    first, *rest = labels.read_text().splitlines(keepends=True)
    box = json.loads(first)
    box["size"][2] = 1.7e308  # [w, h, l]
    labels.write_text(json.dumps(box) + "\n" + "".join(rest))
    capsys.readouterr()
    out = tmp_path / "o"
    for cmd in (["train"], ["track", "--checkpoint", run_dir / "checkpoint.bin"]):
        _config_error(capsys, run(cmd + ["--data", data, "--out", out] + FAST + ratio),
                      "seq_001", "crop range (-inf, inf) too wide",
                      "crop_ratio=2.0 and a box 1.7e+308 long")
        assert not out.exists()


def test_crop_mode_rule_is_the_run_config_rule():
    cfg = RunConfig(crop_mode="sideways")
    with pytest.raises(ConfigError) as view:
        cfg.crop_spec()
    with pytest.raises(ConfigError) as table:
        cfg.validate()
    assert str(view.value) == str(table.value) == \
        "crop_mode must be one of 'fixed', 'ratio', got 'sideways'"


def test_ratio_crop_requires_box():
    cfg = RunConfig(crop_mode="ratio")
    with pytest.raises(ConfigError):
        cfg.crop_spec()
    box = generate(SceneConfig(scene_length=2, seed=1)).gt[0]
    assert RunConfig().crop_spec(box) == RunConfig().crop_spec()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numeric_failure_exit_code_3(tmp_path, capsys):
    code = run(["train", "--out", tmp_path / "r", "--seed", 1,
                "--set", "lr=1e32"] + FAST)
    assert (code, capsys.readouterr().err) == (3, "numeric failure: epoch 0 step 1: non-finite "
                                                  "values produced by op 'matmul'\n")


def test_gradcheck_impossible_tol_exit_3():
    assert run(["gradcheck", "--samples", "1", "--tol", "1e-30",
                "--set", "head_trunk=16", "--set", "scene_length=3"]) == 3


def test_gradcheck_ratio_crop_mode():
    assert run(["gradcheck", "--samples", "1", "--set", "crop_mode=ratio",
                "--set", "head_trunk=16", "--set", "scene_length=3"]) == 0


def test_ablation_toggles_shape_the_checkpoint(tmp_path):
    # a flag is a spelling of --set, so of the two the later one wins
    for order, imm in [(["--set", "imm=true", "--no-imm"], False),
                       (["--no-imm", "--set", "imm=true"], True)]:
        out = tmp_path / f"imm_{imm}"
        assert run(["train", "--out", out, "--seed", 2] + order + FAST) == 0
        names = set(read_checkpoint(str(out / "checkpoint.bin")))
        assert [any(k in n for n in names) for k in ("alpha", "gate")] == [imm, imm]
        assert f"imm={str(imm).lower()}\n" in (out / "config.echo.cfg").read_text()

    out2 = tmp_path / "unshared"
    assert run(["train", "--out", out2, "--seed", 2, "--unshared",
                "--no-dwc", "--no-linear"] + FAST) == 0
    names2 = set(read_checkpoint(str(out2 / "checkpoint.bin")))
    assert any("cnn_prev" in n for n in names2)
    assert not any(".dwc." in n or ".lin." in n for n in names2)
