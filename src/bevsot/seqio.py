"""Sequence directory and tracklet file I/O.

Layout of a sequence directory::

    frames/000001.bin .. frames/NNNNNN.bin   packed little-endian float32
                                             (x, y, z) triples, 1-based
    labels.jsonl                             one box per line:
                                             {"frame", "center", "size", "yaw"}
    meta.json                                {"format_version", "num_frames",
                                              "seed"}

Tracklets are written twice: a plain text file with one ``t x y z w h l
theta`` line per frame, and a jsonl variant matching the label schema with
an added ``coasted`` flag. Every file, of a sequence or a tracklet, is
written whole or not at all: an interrupted write leaves the previous file
as it was. Text files are read as UTF-8; any other byte is a data error. A
label's numbers are JSON numbers, and a sequence has at least 2 frames.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .atomic import atomic_write
from .exceptions import DataFormatError
from .geometry import Box3D, PointCloud
from .scene import LabeledSequence


def write_sequence(seq: LabeledSequence, path: str, meta: dict | None = None):
    frames_dir = os.path.join(path, "frames")
    os.makedirs(frames_dir, exist_ok=True)
    for t, cloud in enumerate(seq.frames, start=1):
        with atomic_write(os.path.join(frames_dir, f"{t:06d}.bin"), "wb") as fh:
            fh.write(np.ascontiguousarray(cloud.xyz, dtype="<f4").tobytes())
    with atomic_write(os.path.join(path, "labels.jsonl")) as fh:
        for t, b in enumerate(seq.gt, start=1):
            fh.write(json.dumps({"frame": t, "center": [b.x, b.y, b.z],
                                 "size": [b.w, b.h, b.l], "yaw": b.theta}) + "\n")
    payload = {"format_version": 1, "num_frames": len(seq.frames)}
    payload.update(meta or {})
    with atomic_write(os.path.join(path, "meta.json")) as fh:
        json.dump(payload, fh, indent=1)


def _text_lines(path: str) -> list[str]:
    """The lines of the UTF-8 text file `path`, decoded in one piece so that
    a byte that does not decode is a DataFormatError naming its offset."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: byte {exc.start}: not UTF-8 text ({exc.reason})") from None


def read_points_bin(path: str) -> PointCloud:
    with open(path, "rb") as fh:
        blob = fh.read()
    if tail := len(blob) % 12:
        raise DataFormatError(f"{path}: byte {len(blob) - tail}: truncated point record "
                              f"(file size {len(blob)} is not a multiple of 12)")
    xyz = np.frombuffer(blob, dtype="<f4").astype(np.float64).reshape(-1, 3)
    bad = ~np.isfinite(xyz).all(axis=1)
    if bad.any():
        first = int(np.argmax(bad))
        raise DataFormatError(
            f"{path}: byte {12 * first}: non-finite coordinate in point {first} "
            f"({int(bad.sum())} such points)")
    return PointCloud(xyz)


def _checked_box(path: str, lineno: int, vals: tuple[float, ...]) -> Box3D:
    """Box3D from the (x, y, z, w, h, l, theta) read at line `lineno` of
    `path`; a non-finite value or a size <= 0 is a DataFormatError."""
    if not all(math.isfinite(v) for v in vals):
        raise DataFormatError(f"{path}: line {lineno}: non-finite box value in {vals}")
    if min(vals[3:6]) <= 0:
        raise DataFormatError(f"{path}: line {lineno}: box size {vals[3:6]} is not positive")
    return Box3D(*vals)


def _label_number(v) -> float:  # a JSON int or float: not a bool or a string
    if type(v) not in (int, float):
        raise TypeError(f"{json.dumps(v)} is not a JSON number")
    return float(v)  # OverflowError for an int that no float holds


def read_labels(path: str) -> list[Box3D]:
    boxes: list[tuple[int, Box3D]] = []
    for lineno, line in enumerate(_text_lines(path), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            if type(frame := rec["frame"]) is not int:  # not a bool, float or string
                raise TypeError(f"frame {json.dumps(frame)} is not a JSON integer")
            cx, cy, cz = (_label_number(v) for v in rec["center"])
            w, h, l = (_label_number(v) for v in rec["size"])
            vals = (cx, cy, cz, w, h, l, _label_number(rec["yaw"]))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DataFormatError(f"{path}: line {lineno}: bad label ({exc})") from exc
        boxes.append((frame, _checked_box(path, lineno, vals)))
    if len(boxes) < 2:
        raise DataFormatError(f"{path}: a sequence needs at least 2 frames, got {len(boxes)}")
    boxes.sort(key=lambda fb: fb[0])
    if [f for f, _ in boxes] != list(range(1, len(boxes) + 1)):
        raise DataFormatError(f"{path}: frame indices are not 1..{len(boxes)}")
    return [b for _, b in boxes]


def frame_paths(path: str, n_labels: int) -> list[str]:
    """The sequence's frame files: frames/000001.bin .. NNNNNN.bin exist for
    the `n_labels` labels and no other .bin file does."""
    frames_dir = os.path.join(path, "frames")
    if not os.path.isdir(frames_dir):
        raise DataFormatError(f"{path}: missing frames/ directory")
    paths = [os.path.join(frames_dir, f"{t:06d}.bin") for t in range(1, n_labels + 1)]
    for p in paths:
        if not os.path.isfile(p):
            raise DataFormatError(f"{p}: missing frame file ({n_labels} labels)")
    if (n := sum(name.endswith(".bin") for name in os.listdir(frames_dir))) != n_labels:
        raise DataFormatError(f"{path}: {n} frame files but {n_labels} labels")
    return paths


def read_sequence(path: str) -> LabeledSequence:
    labels = read_labels(os.path.join(path, "labels.jsonl"))
    frames = [read_points_bin(p) for p in frame_paths(path, len(labels))]
    return LabeledSequence(frames=frames, gt=labels)


def list_sequence_dirs(root: str) -> list[str]:
    """The root itself if it is a sequence dir, else its sequence subdirs."""
    if os.path.isdir(os.path.join(root, "frames")):
        return [root]
    subs = sorted(os.path.join(root, d) for d in os.listdir(root)
                  if os.path.isdir(os.path.join(root, d, "frames")))
    if not subs:
        raise DataFormatError(f"{root}: no sequence directories found")
    return subs


# ---------------------------------------------------------------------------
# tracklets


def write_tracklet(boxes: list[Box3D], coasted: list[bool], path_txt: str,
                   path_jsonl: str | None = None):
    with atomic_write(path_txt) as fh:
        for t, b in enumerate(boxes, start=1):
            vals = " ".join(f"{v:.17g}" for v in (b.x, b.y, b.z, b.w, b.h, b.l, b.theta))
            fh.write(f"{t} {vals}\n")
    if path_jsonl:
        with atomic_write(path_jsonl) as fh:
            for t, (b, c) in enumerate(zip(boxes, coasted), start=1):
                fh.write(json.dumps({"frame": t, "center": [b.x, b.y, b.z],
                                     "size": [b.w, b.h, b.l], "yaw": b.theta,
                                     "coasted": bool(c)}) + "\n")


def read_tracklet(path: str) -> list[Box3D]:
    boxes = []
    for lineno, line in enumerate(_text_lines(path), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 8:
            raise DataFormatError(
                f"{path}: line {lineno}: expected 8 fields, got {len(parts)}")
        try:
            t = int(parts[0])
            vals = tuple(float(v) for v in parts[1:])
        except ValueError as exc:
            raise DataFormatError(f"{path}: line {lineno}: {exc}") from exc
        if t != len(boxes) + 1:
            raise DataFormatError(f"{path}: line {lineno}: frame index {t} out of order")
        boxes.append(_checked_box(path, lineno, vals))
    return boxes
