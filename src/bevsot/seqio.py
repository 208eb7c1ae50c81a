"""Sequence directory and tracklet file I/O.

Layout of a sequence directory::

    frames/000001.bin .. frames/NNNNNN.bin   packed little-endian float32
                                             (x, y, z) triples, 1-based
    labels.jsonl                             one box per line:
                                             {"frame", "center", "size", "yaw"}
    meta.json                                {"format_version", "num_frames",
                                              "seed", "config"}

Tracklets are written twice: a plain text file with one ``t x y z w h l
theta`` line per frame, and a jsonl variant matching the label schema with
an added ``coasted`` flag. Each tracklet file is written whole or not at
all: an interrupted write leaves the previous file as it was.
"""

from __future__ import annotations

import json
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
        with open(os.path.join(frames_dir, f"{t:06d}.bin"), "wb") as fh:
            fh.write(np.ascontiguousarray(cloud.xyz, dtype="<f4").tobytes())
    with open(os.path.join(path, "labels.jsonl"), "w") as fh:
        for t, b in enumerate(seq.gt, start=1):
            fh.write(json.dumps({"frame": t, "center": [b.x, b.y, b.z],
                                 "size": [b.w, b.h, b.l], "yaw": b.theta}) + "\n")
    payload = {"format_version": 1, "num_frames": len(seq.frames)}
    payload.update(meta or {})
    with open(os.path.join(path, "meta.json"), "w") as fh:
        json.dump(payload, fh, indent=1)


def read_points_bin(path: str) -> PointCloud:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) % 12:
        raise DataFormatError(
            f"{path}: byte {len(blob) - len(blob) % 12}: truncated point record "
            f"(file size {len(blob)} is not a multiple of 12)")
    xyz = np.frombuffer(blob, dtype="<f4").astype(np.float64).reshape(-1, 3)
    bad = ~np.isfinite(xyz).all(axis=1)
    if bad.any():
        first = int(np.argmax(bad))
        raise DataFormatError(
            f"{path}: byte {12 * first}: non-finite coordinate in point {first} "
            f"({int(bad.sum())} such points)")
    return PointCloud(xyz)


def read_labels(path: str) -> list[Box3D]:
    boxes: list[tuple[int, Box3D]] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                frame = int(rec["frame"])
                cx, cy, cz = (float(v) for v in rec["center"])
                w, h, l = (float(v) for v in rec["size"])
                box = Box3D(cx, cy, cz, w, h, l, float(rec["yaw"]))
            except (KeyError, TypeError, ValueError) as exc:
                raise DataFormatError(f"{path}: line {lineno}: bad label ({exc})") from exc
            boxes.append((frame, box))
    boxes.sort(key=lambda fb: fb[0])
    if [f for f, _ in boxes] != list(range(1, len(boxes) + 1)):
        raise DataFormatError(f"{path}: frame indices are not 1..{len(boxes)}")
    return [b for _, b in boxes]


def read_sequence(path: str) -> LabeledSequence:
    frames_dir = os.path.join(path, "frames")
    if not os.path.isdir(frames_dir):
        raise DataFormatError(f"{path}: missing frames/ directory")
    names = sorted(n for n in os.listdir(frames_dir) if n.endswith(".bin"))
    frames = [read_points_bin(os.path.join(frames_dir, n)) for n in names]
    labels = read_labels(os.path.join(path, "labels.jsonl"))
    if len(labels) != len(frames):
        raise DataFormatError(
            f"{path}: {len(frames)} frame files but {len(labels)} labels")
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
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 8:
                raise DataFormatError(
                    f"{path}: line {lineno}: expected 8 fields, got {len(parts)}")
            try:
                t = int(parts[0])
                x, y, z, w, h, l, theta = (float(v) for v in parts[1:])
            except ValueError as exc:
                raise DataFormatError(f"{path}: line {lineno}: {exc}") from exc
            if t != len(boxes) + 1:
                raise DataFormatError(f"{path}: line {lineno}: frame index {t} out of order")
            boxes.append(Box3D(x, y, z, w, h, l, theta))
    return boxes
