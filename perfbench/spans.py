"""In-memory span tracer and the wrappers that put spans around calls into
bevsot's modules.

A span records a name, start, end, its parent span and the timed unit it
belongs to (a training step or a tracked sequence). Self time, a span's
duration minus the part covered by its children, is computed when the span
closes; children never overlap because the program is single-threaded, so
the covered part is the sum of the children's durations.

The wrappers are installed by replacing module and class attributes of the
already-imported package, never by editing it. A function is replaced in
every bevsot module that holds a reference to it, so ``from .pillars import
crop`` call sites are traced as well as ``T.conv2d`` ones. A target that no
longer exists is skipped, and its metrics then read zero.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from collections import defaultdict
from time import perf_counter

# ops whose backward closures get their own span, named "tensor.<op>_bw"
BACKWARD_OPS = ("conv2d", "matmul", "silu", "scatter_max")

# (module, function, span name) replaced wherever the package refers to them
FUNCTION_SPANS = (
    ("bevsot.scene", "augment", "scene.augment"),
    ("bevsot.seqio", "read_sequence", "seqio.read_sequence"),
    ("bevsot.seqio", "write_tracklet", "seqio.write_tracklet"),
    ("bevsot.pillars", "pillarize", "pillars.pillarize"),
    ("bevsot.tensor", "conv2d", "tensor.conv2d"),
    ("bevsot.tensor", "matmul", "tensor.matmul"),
    ("bevsot.tensor", "silu", "tensor.silu"),
    ("bevsot.tensor", "scatter_max", "tensor.scatter_max"),
    ("bevsot.model", "motion_loss", "model.loss"),
    ("bevsot.params", "adamw_step", "params.adamw"),
    ("bevsot.track", "track_sequence", "track.track_sequence"),
    ("bevsot.metrics", "ope", "metrics.ope"),
)

# (class path, method, span name)
METHOD_SPANS = (
    ("bevsot.model", "TrackerModel", "encode", "model.encode"),
    ("bevsot.model", "TrackerModel", "backbone_forward", "model.backbone"),
    ("bevsot.model", "TrackerModel", "head_forward", "model.head"),
    ("bevsot.params", "ParamStore", "zero_grad", "params.zero_grad"),
)

# block functions, named per stage. The per-frame helpers are wrapped rather
# than the public tokenize/preprocess pair because the motion-off path calls
# the helpers directly; both paths then report the same spans.
BLOCK_SPANS = (
    ("_tokenize_one", "tokenize"),
    ("_preprocess_one", "preprocess"),
    ("imm_weights", "imm_weights"),
    ("focus_attention", "focus_attention"),
    ("block_forward", "block_forward"),
)


class Tracer:
    """Spans and counters of one benchmark run, kept in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.unit = None  # id of the timed unit new spans belong to
        # (id, parent id, name, start s, end s, self s, unit)
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[list] = []  # [id, name, start, covered by children]
        self._next_id = 0

    def begin(self, name: str):
        self._open.append([self._next_id, name, perf_counter(), 0.0])
        self._next_id += 1

    def end(self):
        stop = perf_counter()
        sid, name, start, covered = self._open.pop()
        duration = stop - start
        parent = None
        if self._open:
            parent = self._open[-1][0]
            self._open[-1][3] += duration
        self.spans.append((sid, parent, name, start, stop, duration - covered, self.unit))

    def wrap(self, fn, name):
        """`fn` with a span around each call; `name` may be a function of
        the call's arguments."""
        name_of = name if callable(name) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.begin(name_of(args, kwargs) if name_of else name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        return traced

    def count(self, name: str, value: float):
        self.counts[name] += value

    def totals(self, units) -> dict[str, tuple[float, float, int]]:
        """name -> (inclusive s, self s, calls) over spans of the given units."""
        units = set(units)
        out: dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0])
        for _, _, name, start, stop, self_s, unit in self.spans:
            if unit in units:
                acc = out[name]
                acc[0] += stop - start
                acc[1] += self_s
                acc[2] += 1
        return {k: tuple(v) for k, v in out.items()}

    def self_time_gap(self, root: str) -> float:
        """Largest gap, over root spans, between the root's duration and the
        sum of the self times of every span in its unit. Zero up to float
        rounding when the self-time accounting is sound."""
        per_unit = defaultdict(float)
        roots = {}
        for _, parent, name, start, stop, self_s, unit in self.spans:
            per_unit[unit] += self_s
            if parent is None and name == root:
                roots[unit] = stop - start
        return max((abs(per_unit[u] - d) for u, d in roots.items()), default=0.0)

    def write(self, path: str, header: dict):
        """Write the spans as gzip-compressed JSON lines after a header line."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(dict(header, run=self.run_id, spans=len(self.spans))) + "\n")
            for sid, parent, name, start, stop, self_s, unit in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": stop, "self": self_s,
                                     "run": self.run_id, "unit": unit}) + "\n")


class Instrumentation:
    """Installs and removes the tracing wrappers on the imported package."""

    def __init__(self, tracer: Tracer, grid: int, stages: int):
        self.tracer = tracer
        self._stage_of_h = {grid >> s: s + 1 for s in range(stages)}
        self._saved: list[tuple[object, str, object]] = []

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, replacement):
        for name, mod in list(sys.modules.items()):
            if name == "bevsot" or name.startswith("bevsot."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, replacement)

    def _block_name(self, base):
        def name(args, kwargs):
            for value in (*args, *kwargs.values()):
                if hasattr(value, "H") and hasattr(value, "heads"):
                    return f"blocks.s{self._stage_of_h.get(value.H, '?')}.{base}"
            return f"blocks.s?.{base}"
        return name

    def install(self):
        tr = self.tracer
        for mod_name, attr, span in FUNCTION_SPANS:
            original = getattr(sys.modules.get(mod_name), attr, None)
            if original is not None:
                self._replace_everywhere(original, tr.wrap(original, span))
        for mod_name, cls_name, attr, span in METHOD_SPANS:
            cls = getattr(sys.modules.get(mod_name), cls_name, None)
            if cls is not None and hasattr(cls, attr):
                self._set(cls, attr, tr.wrap(getattr(cls, attr), span))
        blocks = sys.modules.get("bevsot.blocks")
        for attr, base in BLOCK_SPANS:
            original = getattr(blocks, attr, None)
            if original is not None:
                self._replace_everywhere(original, tr.wrap(original, self._block_name(base)))
        self._install_crop()
        self._install_tracker_factory()
        self._install_tape()

    def _install_crop(self):
        tr = self.tracer
        original = getattr(sys.modules.get("bevsot.pillars"), "crop", None)
        if original is None:
            return

        def crop(cloud, spec):
            tr.begin("pillars.crop")
            try:
                out = original(cloud, spec)
            finally:
                tr.end()
            tr.count("pillars.crop_points", len(out))
            return out

        self._replace_everywhere(original, crop)

    def _install_tracker_factory(self):
        tr = self.tracer
        original = getattr(sys.modules.get("bevsot.track"), "tracker_motion_model", None)
        if original is None:
            return

        def tracker_motion_model(*args, **kwargs):
            return tr.wrap(original(*args, **kwargs), "track.predict")

        self._replace_everywhere(original, tracker_motion_model)

    def _install_tape(self):
        tr = self.tracer
        tensor = sys.modules.get("bevsot.tensor")
        tape_cls = getattr(tensor, "Tape", None)
        if tape_cls is not None and hasattr(tape_cls, "backward"):
            original_backward = tape_cls.backward

            def backward(tape, loss):
                tr.count("tensor.tape_nodes", len(tape))
                tr.count("tensor.tape_bytes", _tape_bytes(tape))
                tr.begin("tensor.backward")
                try:
                    return original_backward(tape, loss)
                finally:
                    tr.end()

            self._set(tape_cls, "backward", backward)
        original_out = getattr(tensor, "_out", None)
        if original_out is not None:
            names = {op: f"tensor.{op}_bw" for op in BACKWARD_OPS}

            def out(data, op, inputs, backward_fn):
                if op in names:
                    backward_fn = tr.wrap(backward_fn, names[op])
                return original_out(data, op, inputs, backward_fn)

            self._set(tensor, "_out", out)

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def _tape_bytes(tape) -> int:
    """Bytes of the op outputs recorded on a tape, 0 if its layout moved."""
    try:
        return sum(node.out.data.nbytes for node in tape._nodes)
    except AttributeError:
        return 0
