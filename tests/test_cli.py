"""Command-line surface: exit codes, config echo, and the command suite on
small workloads."""

import json
import math
import os
from dataclasses import fields

import numpy as np
import pytest

from bevsot import cli
from bevsot.atomic import atomic_write
from bevsot.cli import main
from bevsot.config import RunConfig, config_text, from_items, load_config
from bevsot.exceptions import ConfigError
from bevsot.geometry import relative_motion
from bevsot.metrics import ope
from bevsot.model import ModelConfig, TrackerModel
from bevsot.params import read_checkpoint, save_checkpoint
from bevsot.rules import NON_NEGATIVE, Rule
from bevsot.scene import LabeledSequence, SceneConfig, generate
from bevsot.seqio import write_sequence, write_tracklet
from bevsot.track import Tracklet, track_sequence
from bevsot.train import TrainSettings

FAST = ["--set", "sequences=3", "--set", "scene_length=4", "--set", "grid=16",
        "--set", "channels=4", "--set", "head_trunk=32", "--set", "epochs=1",
        "--set", "batch=4", "--set", "crop_xy=4.8"]


def run(args):
    return main([str(a) for a in args])


# ---------------------------------------------------------------------------
# config parsing


def test_unknown_key_rejected_with_name():
    with pytest.raises(ConfigError, match="unknown config key 'gridd'"):
        from_items({"gridd": "32"})


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


# RunConfig keys no view receives under their own name
NOT_SHARED = {"crop_mode", "crop_xy", "crop_z", "crop_ratio", "sequences",
              "static_fraction", "scene_length", "speed_min", "speed_max",
              "size_w", "size_h", "size_l"}


def test_every_field_reaches_its_view():
    values = {}
    for i, f in enumerate(fields(RunConfig)):
        default = getattr(RunConfig, f.name)
        if isinstance(default, bool):
            values[f.name] = not default
        elif f.name == "flip_axis":
            values[f.name] = "y"  # the one other valid axis
        elif f.name in ("size_jitter", "occlusion_dropout"):
            values[f.name] = 0.5 + i / 1000  # fractions: the scene takes [0, 1)
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
    scene_given = {"size_mean": (cfg.size_w, cfg.size_h, cfg.size_l),
                   "speed_range": (cfg.speed_min, cfg.speed_max),
                   "length": cfg.scene_length, "seed": 7, "static": True}
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
    assert own == NOT_SHARED | {"seed"}  # run-level and renamed keys write their own
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


# ---------------------------------------------------------------------------
# exit codes


def test_usage_error_exit_code_1(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["track"])  # missing required args
    assert exc.value.code == 1


def test_unknown_config_key_exit_code_1(tmp_path):
    assert run(["gen", "--out", tmp_path / "g", "--set", "nope=1"]) == 1


def _config_error(capsys, code, *names):
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error:")
    assert all(n in err for n in names), err
    assert "Traceback" not in err


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


@pytest.mark.parametrize("command", [["gen"], ["train"], ["track", "--checkpoint", "c.bin",
                                                          "--data", "seqs"]])
def test_config_file_missing_exit_code_1(tmp_path, capsys, command):
    path = tmp_path / "missing.cfg"
    code = run(command + ["--out", tmp_path / "o", "--config", path])
    _config_error(capsys, code, str(path))


def test_config_file_directory_exit_code_1(tmp_path, capsys):
    code = run(["gen", "--out", tmp_path / "g", "--config", tmp_path])
    _config_error(capsys, code, str(tmp_path), "directory")


@pytest.mark.parametrize("key", ["batch", "heads", "ffn_expand", "decay_interval",
                                 "decay_factor", "channels", "head_trunk"])
def test_zero_divisor_exit_code_1(tmp_path, capsys, key):
    code = run(["train", "--out", tmp_path / "r"] + FAST + ["--set", f"{key}=0"])
    _config_error(capsys, code, key)


@pytest.mark.parametrize("command", [
    pytest.param(["gen", "--seed", "-1"], id="gen-seed"),
    pytest.param(["gen", "--set", "seed=-1"], id="gen-set-seed"),
    pytest.param(["train", "--set", "seed=-1"], id="train-set-seed"),
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


def test_unshared_without_motion_module_exit_code_1(tmp_path, capsys):
    code = run(["train", "--out", tmp_path / "r", "--no-imm", "--unshared"] + FAST)
    _config_error(capsys, code, "shared=false", "imm=true")


TRACK = ["track", "--checkpoint", "c.bin", "--data", "seqs"]
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
    (["--set", "crop_mode=ratio", "--set", "crop_ratio=0"], ["crop_ratio", "> 0"], "crop-ratio")]
BAD_SCENE = [  # each used to end in a traceback, or in 0-byte frames for dropout >= 1
    ("speed_min=0.5", ["speed_min", "speed_max", "0.5 > 0.35"]),
    ("size_w=-1", ["size_w", "> 0", "got -1.0"]),
    ("size_jitter=1.5", ["size_jitter", "[0, 1)", "got 1.5"]),
    ("yaw_rate_max=-0.1", ["yaw_rate_max", ">= 0", "got -0.1"]),
    ("clutter_extent=-1", ["clutter_extent", ">= 0", "got -1.0"]),
    ("occlusion_dropout=1", ["occlusion_dropout", "[0, 1)", "got 1.0"]),
    ("occlusion_dropout=2", ["occlusion_dropout", "[0, 1)", "got 2.0"]),
    # past what numpy can draw: lam value too large, or an OverflowError
    ("points_per_m2=1e30", ["points_per_m2", "Poisson limit"]),
    ("clutter_density=1e30", ["clutter_density", "4e+32 points", "Poisson limit"]),
    ("clutter_extent=1e200", ["clutter_extent", "inf points", "Poisson limit"])]


@pytest.mark.parametrize("command,names", [
    pytest.param(["train", "--set", "grid=12"], ["grid", "12"], id="train-grid"),
    pytest.param(["train", "--no-imm", "--unshared"], ["shared=false"], id="train-unshared"),
    pytest.param(["train", "--set", "batch=0"], ["batch"], id="train-batch"),
    pytest.param(TRACK + ["--set", "grid=12"], ["grid", "12"], id="track-grid"),
    *[pytest.param(cmd + bad, names, id=f"{cmd[0]}-{tag}")
      for cmd in (["train"], TRACK) for bad, names, tag in BAD_CROP],
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
def test_invalid_config_creates_no_run_dir(tmp_path, capsys, command, names):
    out = tmp_path / "o"
    _config_error(capsys, run(command + ["--out", out]), *names)
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["gen", "train"])
def test_scene_too_large_to_hold_creates_no_run_dir(tmp_path, cmd):
    # within numpy's Poisson limit, but the first frame would need exabytes:
    # the traceback stays, and every sequence is drawn before the run directory
    out = tmp_path / "o"
    with pytest.raises(MemoryError):
        run([cmd, "--set", "sequences=1", "--set", "scene_length=2",
             "--set", "points_per_m2=1e16", "--out", out])
    assert not out.exists()


def test_missing_data_exit_code_2(tmp_path):
    ck = tmp_path / "none.bin"
    ck.write_bytes(b"JUNKJUNKJUNK")
    code = run(["track", "--checkpoint", ck, "--data", tmp_path / "missing",
                "--out", tmp_path / "o"] + FAST)
    assert code == 2


def data_and_checkpoint(tmp_path):
    """Generated sequences and an initial-weights checkpoint for `track`."""
    data, ck = tmp_path / "d", tmp_path / "ck.bin"
    assert run(["gen", "--out", data, "--seed", 3] + FAST) == 0
    model = TrackerModel(from_items(dict(a.split("=", 1) for a in FAST[1::2])).model_config())
    save_checkpoint(model.store, str(ck))
    return data, ck


def test_nan_coordinate_frame_exit_code_2(tmp_path, capsys):
    data, ck = data_and_checkpoint(tmp_path)
    frame = data / "seq_000" / "frames" / "000003.bin"
    xyz = np.fromfile(frame, dtype="<f4")
    xyz[4] = np.nan
    xyz.tofile(frame)
    capsys.readouterr()
    code = run(["track", "--checkpoint", ck, "--data", data, "--out", tmp_path / "t"] + FAST)
    err = capsys.readouterr().err
    assert code == 2
    assert str(frame) in err and "non-finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("edit,named", [
    pytest.param(lambda f: f.write_bytes(f.read_bytes()[:100]), "not a multiple of 12",
                 id="truncated-frame"),
    pytest.param(lambda f: f.unlink(), "missing frame file", id="missing-frame")])
def test_track_bad_frame_file_exit_code_2(tmp_path, capsys, edit, named):
    """Every sequence's frame files are checked by size before the run
    directory is made, so a bad file in the second sequence leaves none."""
    data, ck = data_and_checkpoint(tmp_path)
    frame = data / "seq_001" / "frames" / "000002.bin"
    edit(frame)
    capsys.readouterr()
    out = tmp_path / "t"
    code = run(["track", "--checkpoint", ck, "--data", data, "--out", out] + FAST)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"data error: {frame}: ") and named in err
    assert "Traceback" not in err
    assert not out.exists()


def test_checkpoint_name_not_utf8_exit_code_2(tmp_path, capsys):
    data, ck = data_and_checkpoint(tmp_path)
    blob = bytearray(ck.read_bytes())
    blob[14] = 0xFF  # first byte of the first parameter name
    ck.write_bytes(bytes(blob))
    capsys.readouterr()
    code = run(["track", "--checkpoint", ck, "--data", data, "--out", tmp_path / "t"] + FAST)
    err = capsys.readouterr().err
    assert code == 2
    assert f"{ck}: byte 14:" in err and "utf-8" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# command suite


def test_gen_writes_sequences(tmp_path):
    out = tmp_path / "data"
    assert run(["gen", "--out", out, "--seed", 3] + FAST) == 0
    assert (out / "config.echo.cfg").exists()
    assert (out / "seq_000" / "labels.jsonl").exists()
    assert len(list((out / "seq_000" / "frames").iterdir())) == 4


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


def test_track_then_eval_pipeline(tmp_path):
    data, run_dir, trk, ev = (tmp_path / n for n in ("d", "r", "t", "e"))
    assert run(["gen", "--out", data, "--seed", 5] + FAST) == 0
    assert run(["train", "--out", run_dir, "--data", data, "--seed", 5] + FAST) == 0
    assert run(["track", "--checkpoint", run_dir / "checkpoint.bin", "--data", data,
                "--out", trk, "--seed", 5] + FAST) == 0
    tracklet = (trk / "seq_000" / "tracklet.txt").read_text().splitlines()
    assert len(tracklet) == 4
    assert run(["eval", "--pred", trk, "--gt", data, "--out", ev]) == 0
    csv = (ev / "ope_seq_000.csv").read_text()
    assert csv.splitlines()[-1].startswith("summary,")


def test_track_checkpoint_shape_mismatch_exit_1(tmp_path):
    data, run_dir = tmp_path / "d", tmp_path / "r"
    assert run(["gen", "--out", data, "--seed", 2] + FAST) == 0
    assert run(["train", "--out", run_dir, "--data", data, "--seed", 2] + FAST) == 0
    # track with an incompatible channel count
    code = run(["track", "--checkpoint", run_dir / "checkpoint.bin", "--data", data,
                "--out", tmp_path / "t", "--seed", 2] + FAST[:-4]
               + ["--set", "channels=8"])
    assert code == 1
    assert not (tmp_path / "t").exists()


def test_track_short_sequence_exit_code_2(tmp_path, capsys):
    data, ck = data_and_checkpoint(tmp_path)
    seq = generate(SceneConfig(length=2, seed=4))
    short = data / "seq_short"
    write_sequence(LabeledSequence(frames=seq.frames[:1], gt=seq.gt[:1]), str(short))
    capsys.readouterr()
    out = tmp_path / "t"
    code = run(["track", "--checkpoint", ck, "--data", data, "--out", out] + FAST)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"data error: {short}: ") and "at least 2 frames, got 1" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_eval_perfect_oracle_stub_scores_one(tmp_path):
    """Tracklets produced by a ground-truth motion stub evaluate to 1.0."""
    seq = generate(SceneConfig(length=5, seed=13))
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


def _set_field(line, i, value):
    parts = line.split()
    parts[i] = value
    return " ".join(parts) + "\n"


@pytest.mark.parametrize("target,lineno,edit,named", [
    pytest.param("pred", 4, lambda line: "", "3 boxes", id="tracklet-short"),
    pytest.param("pred", 2, lambda line: _set_field(line, 4, "0"), "line 2", id="tracklet-size-0"),
    pytest.param("pred", 2, lambda line: _set_field(line, 1, "nan"), "line 2", id="tracklet-nan"),
    pytest.param("gt", 3, lambda line: json.dumps({**json.loads(line), "yaw": float("nan")}) + "\n",
                 "line 3", id="labels-nan")])
def test_eval_malformed_input_exit_code_2(tmp_path, capsys, target, lineno, edit, named):
    seq = generate(SceneConfig(length=4, seed=3))
    write_sequence(seq, str(tmp_path / "gt" / "seq_000"))
    os.makedirs(tmp_path / "pred" / "seq_000")
    write_tracklet(seq.gt, [False] * 4, str(tmp_path / "pred" / "seq_000" / "tracklet.txt"))
    bad = tmp_path / target / "seq_000" / ("tracklet.txt" if target == "pred" else "labels.jsonl")
    lines = bad.read_text().splitlines(keepends=True)
    lines[lineno - 1] = edit(lines[lineno - 1])
    bad.write_text("".join(lines))
    code = run(["eval", "--pred", tmp_path / "pred", "--gt", tmp_path / "gt",
                "--out", tmp_path / "ev"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"data error: {bad}: ") and named in err
    assert "Traceback" not in err
    assert not (tmp_path / "ev").exists()


def test_small_outputs_are_written_whole(tmp_path, monkeypatch):
    """The config echo and the eval CSVs go through atomic_write, which
    leaves no temporary file behind."""
    written = []

    def spy(path, mode="w"):
        written.append(os.path.relpath(path, tmp_path))
        return atomic_write(path, mode)

    monkeypatch.setattr(cli, "atomic_write", spy)
    seq = generate(SceneConfig(length=4, seed=3))
    write_sequence(seq, str(tmp_path / "gt"))
    write_tracklet(seq.gt, [False] * 4, str(tmp_path / "tracklet.txt"))
    assert run(["gen", "--out", tmp_path / "g", "--set", "sequences=1",
                "--set", "scene_length=2"]) == 0
    assert run(["eval", "--pred", tmp_path / "tracklet.txt", "--gt", tmp_path / "gt",
                "--out", tmp_path / "ev"]) == 0
    assert written == [os.path.join("g", "config.echo.cfg"), os.path.join("ev", "ope_gt.csv")]
    assert (tmp_path / "ev" / "ope_gt.csv").read_text().startswith("frame,iou,center_dist\n")
    assert not list(tmp_path.rglob("*.tmp"))


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


def test_tracklet_jsonl_has_coast_flags(tmp_path):
    data, run_dir, trk = tmp_path / "d", tmp_path / "r", tmp_path / "t"
    assert run(["gen", "--out", data, "--seed", 5] + FAST) == 0
    assert run(["train", "--out", run_dir, "--data", data, "--seed", 5] + FAST) == 0
    assert run(["track", "--checkpoint", run_dir / "checkpoint.bin", "--data", data,
                "--out", trk, "--seed", 5] + FAST) == 0
    rec = json.loads((trk / "seq_000" / "tracklet.jsonl").read_text().splitlines()[0])
    assert "coasted" in rec and rec["frame"] == 1


def test_ratio_crop_mode_pipeline(tmp_path):
    data, run_dir, trk = tmp_path / "d", tmp_path / "r", tmp_path / "t"
    ratio = ["--set", "crop_mode=ratio", "--set", "crop_ratio=2.0"]
    assert run(["gen", "--out", data, "--seed", 4] + FAST) == 0
    assert run(["train", "--out", run_dir, "--data", data, "--seed", 4]
               + FAST + ratio) == 0
    assert run(["track", "--checkpoint", run_dir / "checkpoint.bin", "--data", data,
                "--out", trk, "--seed", 4] + FAST + ratio) == 0
    assert (trk / "seq_000" / "tracklet.txt").exists()


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
    box = generate(SceneConfig(length=2, seed=1)).gt[0]
    assert RunConfig().crop_spec(box) == RunConfig().crop_spec()
    cfg2 = RunConfig(crop_mode="sideways")
    with pytest.raises(ConfigError):
        cfg2.crop_spec()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numeric_failure_exit_code_3(tmp_path):
    code = run(["train", "--out", tmp_path / "r", "--seed", 1,
                "--set", "lr=1e32"] + FAST)
    assert code == 3


def test_gradcheck_impossible_tol_exit_3():
    assert run(["gradcheck", "--samples", "1", "--tol", "1e-30",
                "--set", "head_trunk=16", "--set", "scene_length=3"]) == 3


def test_gradcheck_ratio_crop_mode():
    assert run(["gradcheck", "--samples", "1", "--set", "crop_mode=ratio",
                "--set", "head_trunk=16", "--set", "scene_length=3"]) == 0


def test_ablation_toggles_shape_the_checkpoint(tmp_path):
    out = tmp_path / "no_imm"
    assert run(["train", "--out", out, "--seed", 2, "--no-imm"] + FAST) == 0
    names = set(read_checkpoint(str(out / "checkpoint.bin")))
    assert not any("alpha" in n or "gate" in n for n in names)

    out2 = tmp_path / "unshared"
    assert run(["train", "--out", out2, "--seed", 2, "--unshared",
                "--no-dwc", "--no-linear"] + FAST) == 0
    names2 = set(read_checkpoint(str(out2 / "checkpoint.bin")))
    assert any("cnn_prev" in n for n in names2)
    assert not any(".dwc." in n or ".lin." in n for n in names2)
