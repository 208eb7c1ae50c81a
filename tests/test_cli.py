"""Command-line surface: exit codes, config echo, and the command suite on
small workloads."""

import json
import os

import numpy as np
import pytest

from bevsot.cli import main
from bevsot.config import RunConfig, config_text, from_items, load_config
from bevsot.exceptions import ConfigError
from bevsot.geometry import relative_motion
from bevsot.metrics import ope
from bevsot.model import TrackerModel
from bevsot.params import read_checkpoint, save_checkpoint
from bevsot.scene import SceneConfig, generate
from bevsot.seqio import write_sequence, write_tracklet
from bevsot.track import Tracklet, track_sequence

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


# ---------------------------------------------------------------------------
# exit codes


def test_usage_error_exit_code_1(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["track"])  # missing required args
    assert exc.value.code == 1


def test_unknown_config_key_exit_code_1(tmp_path):
    assert run(["gen", "--out", tmp_path / "g", "--set", "nope=1"]) == 1


def test_missing_data_exit_code_2(tmp_path):
    ck = tmp_path / "none.bin"
    ck.write_bytes(b"JUNKJUNKJUNK")
    code = run(["track", "--checkpoint", ck, "--data", tmp_path / "missing",
                "--out", tmp_path / "o"] + FAST)
    assert code == 2


def test_nan_coordinate_frame_exit_code_2(tmp_path, capsys):
    data, ck = tmp_path / "d", tmp_path / "ck.bin"
    assert run(["gen", "--out", data, "--seed", 3] + FAST) == 0
    model = TrackerModel(from_items(dict(a.split("=", 1) for a in FAST[1::2])).model_config())
    save_checkpoint(model.store, str(ck))
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


# ---------------------------------------------------------------------------
# command suite


def test_gen_writes_sequences(tmp_path):
    out = tmp_path / "data"
    assert run(["gen", "--out", out, "--seed", 3] + FAST) == 0
    assert (out / "config.echo.cfg").exists()
    assert (out / "seq_000" / "labels.jsonl").exists()
    assert len(list((out / "seq_000" / "frames").iterdir())) == 4


def test_train_lr_zero_checkpoint_equals_init(tmp_path):
    out = tmp_path / "run"
    code = run(["train", "--out", out, "--seed", 1, "--set", "lr=0",
                "--set", "weight_decay=0", "--set", "augment=false"] + FAST)
    assert code == 0
    entries = read_checkpoint(str(out / "checkpoint.bin"))
    from bevsot.model import TrackerModel
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


def test_bench_command(tmp_path):
    out = tmp_path / "b"
    assert run(["bench", "--ns", "32,64,128,256", "--d", "4", "--repeats", "1",
                "--out", out]) == 0
    assert (out / "bench.csv").exists()
    assert "PASS" in (out / "scaling_report.txt").read_text()


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


def test_ratio_crop_requires_box():
    cfg = RunConfig(crop_mode="ratio")
    with pytest.raises(ConfigError):
        cfg.crop_spec()
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
