"""End-to-end benchmark of bevsot: one closed-loop workload per run.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 20 --trace 0

Workloads are train-desk, track-desk and train-noimm (see BENCHMARK.json).
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` traced and untraced units
alternate and it carries the per-layer metrics instead. Every run also
writes a result file with the environment under ``.perfbench/results`` and,
when traced, its spans under ``.perfbench/traces``.

``--write-reference`` recomputes ``perfbench/reference.json``, the stored
values the output check compares against; do that only for a change that
is meant to alter the computed numbers, and say so.

The package is imported from ``src/`` of the checkout this file sits in;
without it the run fails with exit code 2 and prints no result.
"""

from __future__ import annotations

import os
import sys
from time import perf_counter

T_START = perf_counter()
# single-threaded BLAS: the container has 2 cores and the benchmark starts
# no threads of its own; must be set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True  # every run compiles the same way; nothing left behind

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUPS = 3  # set-ups per run; setup_s reports their median
WORKLOAD_NAMES = ("train-desk", "track-desk", "train-noimm")


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true")
    args = p.parse_args(argv)
    if not args.write_reference and args.workload is None:
        p.error("--workload is required")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_package():
    """Import numpy and bevsot from this checkout's src/, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "bevsot", "__init__.py")):
        fail(f"no bevsot package under {SRC}")
    sys.path.insert(0, SRC)
    try:
        import bevsot  # noqa: F401
        import numpy  # noqa: F401

        import workloads  # noqa: F401  (imports bevsot modules)
    except ImportError as exc:
        fail(f"cannot import the program: {exc}")
    if not os.path.abspath(bevsot.__file__).startswith(SRC + os.sep):
        fail(f"bevsot imported from {bevsot.__file__}, not from {SRC}")


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    commit = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(path):
                with open(path) as fh:
                    commit = fh.read().strip()
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threads = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "threads": threads, "machine": platform.machine(), "git_commit": commit}


def write_reference():
    import numpy as np
    import workloads as W

    ref = {"about": "outputs of perfbench/workloads.py probe(); see TOLERANCE there",
           "probe": {"imm": W.probe(True), "noimm": W.probe(False)},
           "macs": W.stage_macs(W.DESK, np.random.default_rng(0))}
    with open(W.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    print(f"wrote {W.REFERENCE_PATH}")


def run_loop(workload, state, seconds, instrumentation):
    """Closed loop with one client: the next unit starts when the last ends."""
    units = []  # (index, traced, seconds, UnitResult)
    start = perf_counter()
    i = 0
    while True:
        traced = instrumentation is not None and workload.traced(i)
        if traced:
            instrumentation.install()
            instrumentation.tracer.unit = i
            instrumentation.tracer.begin(workload.root)
        t0 = perf_counter()
        result = workload.unit(state, i)
        elapsed = perf_counter() - t0
        if traced:
            instrumentation.tracer.end()
            instrumentation.uninstall()
        units.append((i, traced, elapsed, result))
        i += 1
        if i >= workload.min_units and perf_counter() - start >= seconds:
            return units, perf_counter() - start


def end_to_end(setup_s, units, loop_s, peak_rss):
    import numpy as np

    lat = np.array([x for *_, r in units for x in r.latencies]) * 1e3
    pairs = sum(r.pairs for *_, r in units)
    return {"setup_s": (setup_s, "s"),
            "pairs_per_s": (pairs / loop_s, "1/s"),
            "latency_ms_p50": (float(np.percentile(lat, 50)) if len(lat) else float("nan"), "ms"),
            "latency_ms_p90": (float(np.percentile(lat, 90)) if len(lat) else float("nan"), "ms"),
            "peak_rss_mb": (peak_rss, "MB")}


def per_layer(tracer, units, gen_times, macs, first_pass):
    """Per-layer metrics from the traced units. Times and calls are per
    latency unit: per training step, or per frame pair the model regressed."""
    import numpy as np

    traced = [(i, dt, r) for i, t, dt, r in units if t]
    untraced = [(i, dt, r) for i, t, dt, r in units if not t]
    denom = max(1, sum(len(r.latencies) for _, _, r in traced))
    totals = tracer.totals(i for i, _, _ in traced)

    def ms(span, self_time=False):
        return 1e3 * totals.get(span, (0.0, 0.0, 0))[1 if self_time else 0] / denom, "ms"

    def calls(span):
        return totals.get(span, (0.0, 0.0, 0))[2] / denom, "count"

    def unit_time(group):
        per = [dt / len(r.latencies) for _, dt, r in group if r.latencies]
        return float(np.median(per)) if per else float("nan")

    m = {"scene.generate_ms": (1e3 * float(np.mean(gen_times)), "ms"),
         "scene.augment_ms": ms("scene.augment"),
         "seqio.read_sequence_ms": ms("seqio.read_sequence"),
         "seqio.write_tracklet_ms": ms("seqio.write_tracklet"),
         "pillars.crop_ms": ms("pillars.crop"),
         "pillars.pillarize_ms": ms("pillars.pillarize"),
         "pillars.pillarize_self_ms": ms("pillars.pillarize", True),
         "pillars.points_per_crop": (tracer.counts["pillars.crop_points"]
                                     / max(1, totals.get("pillars.crop", (0, 0, 0))[2]), "count")}
    for s in (1, 2, 3):
        for fn in ("tokenize", "preprocess", "imm_weights", "focus_attention", "block_forward"):
            m[f"blocks.s{s}.{fn}_ms"] = ms(f"blocks.s{s}.{fn}")
        for fn in ("imm_weights", "focus_attention", "block_forward"):
            m[f"blocks.s{s}.{fn}_self_ms"] = ms(f"blocks.s{s}.{fn}", True)
        for k in ("motion_map_macs", "gate_macs", "linear_core_macs"):
            m[f"blocks.s{s}.{k}"] = (macs[f"blocks.s{s}.{k}"], "count")
        m[f"blocks.s{s}.motion_map_bytes"] = (macs[f"blocks.s{s}.motion_map_bytes"], "bytes")
    for op in ("conv2d", "matmul", "silu", "scatter_max"):
        m[f"tensor.{op}_ms"] = ms(f"tensor.{op}")
        m[f"tensor.{op}_bw_ms"] = ms(f"tensor.{op}_bw")
    m.update({"tensor.conv2d_calls": calls("tensor.conv2d"),
              "tensor.matmul_calls": calls("tensor.matmul"),
              "tensor.backward_ms": ms("tensor.backward"),
              "tensor.backward_self_ms": ms("tensor.backward", True),
              "tensor.tape_nodes": (tracer.counts["tensor.tape_nodes"] / denom, "count"),
              "tensor.tape_mb": (tracer.counts["tensor.tape_bytes"] / 1e6 / denom, "MB"),
              "model.encode_ms": ms("model.encode"),
              "model.backbone_ms": ms("model.backbone"),
              "model.head_ms": ms("model.head"),
              "model.loss_ms": ms("model.loss"),
              "params.adamw_ms": ms("params.adamw"),
              "params.zero_grad_ms": ms("params.zero_grad"),
              "track.predict_ms": ms("track.predict"),
              "track.coasted": (sum(r.coasted for i, _, _, r in units if i < first_pass), "count"),
              "metrics.ope_ms": ms("metrics.ope"),
              "trace.overhead_ratio": (unit_time(traced) / unit_time(untraced), "ratio")})
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import_s = perf_counter() - T_START
    if args.write_reference:
        write_reference()
        return 0
    rss_base = max_rss_mb()

    import numpy as np
    import workloads as W
    from spans import Instrumentation, Tracer

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    workload = W.WORKLOADS[args.workload]
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, "work", f"{run_id}-{os.getpid()}")
    checks = W.Checks()
    try:
        setup_times = []
        for _ in range(SETUPS):
            shutil.rmtree(workdir, ignore_errors=True)
            os.makedirs(workdir)
            t0 = perf_counter()
            state = workload.setup(args.seed, workdir)
            warm_up = workload.unit(state, -1)  # one untimed unit
            setup_times.append(perf_counter() - t0)
            checks.check(warm_up.failed == 0, "warm-up unit failed")
        tracer = Tracer(run_id) if args.trace else None
        instrumentation = (Instrumentation(tracer, workload.cfg.grid, workload.cfg.stages)
                           if tracer else None)
        units, loop_s = run_loop(workload, state, args.seconds, instrumentation)
        peak_rss = max_rss_mb() - rss_base
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # after the peak is read: the probe trains, and would set the peak of
    # track-desk
    W.check_probe(workload.cfg.imm, checks)
    macs = W.check_macs(workload.cfg, args.seed, checks)
    if tracer is not None:
        gap = tracer.self_time_gap(workload.root)
        checks.check(gap < 1e-6, f"self times of a unit miss its duration by {gap:.3e} s")

    setup_s = import_s + statistics.median(setup_times)
    if args.trace:
        metrics = per_layer(tracer, units, state["gen_times"], macs, workload.min_units)
    else:
        metrics = end_to_end(setup_s, units, loop_s, peak_rss)
    attempted = checks.attempted + sum(r.attempted for *_, r in units)
    failed = checks.failed + sum(r.failed for *_, r in units)
    if set(metrics) != {m["name"] for m in wanted}:
        fail(f"metrics {sorted(set(metrics) ^ {m['name'] for m in wanted})} do not match "
             "BENCHMARK.json", 3)

    env = environment()
    n_lat = sum(len(r.latencies) for *_, r in units)
    pairs = sum(r.pairs for *_, r in units)
    coasted = sum(r.coasted for i, *_, r in units if i < workload.min_units)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"setup       import {import_s:.3f} s + median of set-ups "
          + " ".join(f"{t:.3f}" for t in setup_times) + " s")
    print(f"loop        {len(units)} units, {pairs} pairs, {n_lat} latency samples "
          f"in {loop_s:.3f} s; coasted pairs in the first pass: {coasted}")
    if not args.trace and n_lat < 100:
        print(f"note        p90 has {n_lat - int(np.ceil(0.9 * n_lat))} samples beyond it "
              "(fewer than 10)")
    print(f"fail_ratio  {failed / attempted:g} ({failed} of {attempted} operations failed)")
    for msg in checks.messages:
        print(f"FAILED      {msg}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value:>16.6g} {unit}")

    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": env, "import_s": import_s,
              "setup_times_s": setup_times, "loop_s": loop_s, "pairs": pairs,
              "latency_samples": n_lat, "coasted_first_pass": coasted,
              "attempted": attempted, "failed": failed, "check_failures": checks.messages,
              "unit_seconds": [dt for _, _, dt, _ in units],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(os.path.join(OUT, "results", f"{run_id}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
        tracer.write(os.path.join(OUT, "traces", f"{run_id}.jsonl.gz"),
                     {"workload": args.workload, "seed": args.seed})

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
