#!/usr/bin/env python3
"""tvbounds benchmark: end-to-end and per-layer metrics of four workloads.

Run from the root of a tvbounds source checkout; the package is imported
from ./src and nothing is installed:

    python3 perfbench/run.py --workload gibbs-draw --seed 1 --seconds 18 --trace 0

Workloads (BENCHMARK.json says why each was chosen):

  gibbs-draw   location-Gibbs and squared-LARCH curves in-process, 1 worker
  normal-hist  GARCH, AR(1) and asymmetric-ARCH (bin width 0.001) curves in-process
  repro-2w     ``tvbounds repro --curves DIR --paths 1000000 --workers 2``
  cli-cold     four fresh-interpreter CLI calls: two certificates, iters, repro

Every curve has 10**6 paths and its inputs come from ``--seed``.  The batch
is repeated with the same seed until ``--seconds`` are used (at least three
times with ``--trace 0``); every repetition must give byte-identical output.

``--trace 0`` reports the end-to-end metrics:

  setup_s      median wall of a fresh interpreter running ``import tvbounds.cli``
  wall_s       median wall of the workload's batch
  peak_rss_mb  peak resident memory of the workload's process tree
  pass_rate    operations that passed every check / operations attempted

``--trace 1`` runs the batch untraced and traced in turn, and reports the
per-layer metrics of the traced batch (``layertrace.py``) and the tracing
overhead.

The last line of standard output is the result object.  The line before it
is a report: the machine and version record, the inputs, every sample,
fail_rate, the failures, and the per-layer metrics with null and a reason
for each layer the batch never reached; the result object carries 0 there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

SETUP_RUNS = 4  # timed fresh imports for setup_s, after one warm-up
IMPORT_PROFILES = 3  # -X importtime runs for the import.* metrics, after one warm-up
MIN_REPS = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=("gibbs-draw", "normal-hist", "repro-2w", "cli-cold"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


def git_commit(root):
    """The checked-out commit, read from .git without running git; None
    outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="ascii") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def machine_record(root):
    import numpy
    import scipy
    import tvbounds

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "tvbounds": tvbounds.__version__,
        "git_commit": git_commit(root),
    }


def parse_importtime(stderr):
    """numpy and scipy: summed self time of their modules; tvbounds: the
    cumulative time of the top-level ``import tvbounds.cli``."""
    ms = {"import.numpy_ms": 0.0, "import.scipy_ms": 0.0, "import.tvbounds_ms": 0.0}
    for line in stderr.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        self_us, cum_us, raw = int(parts[0]), int(parts[1]), parts[2][1:]
        top = raw.strip().split(".")[0]
        if top in ("numpy", "scipy"):
            ms[f"import.{top}_ms"] += self_us / 1e3
        elif top == "tvbounds" and not raw.startswith(" "):
            ms["import.tvbounds_ms"] += cum_us / 1e3
    return ms


def check_determinism(ops):
    """Every operation repeated with the same seed must give the same output."""
    first = {}
    for op in ops:
        if op.output is None:
            continue
        if op.name in first and op.output != first[op.name]:
            op.failures.append("output differs from the first repetition with the same seed")
        first.setdefault(op.name, op.output)


def run_reps(workload, ctx, seconds, pattern, min_rounds):
    """Repeat ``pattern`` (traced flags) while another round fits in ``seconds``."""
    reps, rounds, t0 = [], 0, time.perf_counter()
    while True:
        for traced in pattern:
            reps.append((traced, workload.rep(ctx, traced)))
        rounds += 1
        elapsed = time.perf_counter() - t0
        if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds:
            return reps


def import_cli(ctx, *flags):
    """A fresh interpreter running ``import tvbounds.cli``: (wall, stderr, Op)."""
    from workloads import Op

    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *flags, "-c", "import tvbounds.cli"], cwd=ctx.root,
                          env=ctx.env, capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - t0
    fails = [] if proc.returncode == 0 else [f"import failed: {proc.stderr.strip()[-200:]}"]
    return wall, proc.stderr, Op("import tvbounds.cli", None, fails)


def measure_end_to_end(workload, ctx, seconds):
    setup, ops = [], []
    for i in range(1 + SETUP_RUNS):
        wall, _, op = import_cli(ctx)
        ops.append(op)
        if i:
            setup.append(wall)
    prep_ops, _, _ = workload.prepare(ctx, traced=False)
    ops += prep_ops
    reps = [rep for _, rep in run_reps(workload, ctx, seconds, [False], MIN_REPS)]
    if workload.cold_starts:
        peak = max(rep.rss_mb for rep in reps)
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    walls = [rep.wall for rep in reps]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": peak,
    }
    samples = {"setup_s": setup, "wall_s": walls}
    return metrics, samples, ops + [op for rep in reps for op in rep.ops], {}


def measure_traced(workload, ctx, seconds):
    import layertrace

    profiles, ops = [], []
    for i in range(1 + IMPORT_PROFILES):
        _, stderr, op = import_cli(ctx, "-X", "importtime")
        ops.append(op)
        if i:
            profiles.append(parse_importtime(stderr))
    imports = {k: statistics.median(p[k] for p in profiles) for k in profiles[0]}

    prep_ops, prep_spans, prep_wall = workload.prepare(ctx, traced=True)
    ops += prep_ops
    reps = run_reps(workload, ctx, seconds, [False, True], 1)
    untraced = [rep.wall for traced, rep in reps if not traced]
    traced = [rep for is_traced, rep in reps if is_traced]
    per_rep = [
        layertrace.layer_metrics(prep_spans + rep.spans, rep.missing, prep_wall + rep.wall,
                                 imports["import.tvbounds_ms"] * workload.cold_starts)
        for rep in traced
    ]
    layers, reasons = dict(imports), {}
    for name in per_rep[0]:
        values = [m[name][0] for m in per_rep if m[name][0] is not None]
        layers[name] = statistics.median(values) if values else None
        if not values:
            reasons[name] = per_rep[0][name][1]
    layers["trace_overhead_pct"] = 100.0 * (statistics.median(rep.wall for rep in traced)
                                            / statistics.median(untraced) - 1.0)
    samples = {"wall_s_untraced": untraced, "wall_s_traced": [rep.wall for rep in traced],
               "prepare_s": prep_wall}
    return layers, samples, ops + [op for _, rep in reps for op in rep.ops], reasons


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not (os.path.isfile(os.path.join(src, "tvbounds", "cli.py")) and os.path.isfile(spec_path)):
        print("error: run from the root of a tvbounds checkout (src/tvbounds and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, src)
    import tvbounds

    if os.path.dirname(os.path.dirname(os.path.abspath(tvbounds.__file__))) != src:
        print(f"error: tvbounds imported from {tvbounds.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    env = {k: v for k, v in os.environ.items() if k not in ("ONESHOT_SEED", "TVBOUNDS_PHD_DELAY_CSV")}
    env["PYTHONPATH"] = src
    tmp_parent = os.path.join(root, ".perfbench_tmp")
    os.makedirs(tmp_parent, exist_ok=True)
    ctx = workloads.Context(root, env, tempfile.mkdtemp(dir=tmp_parent), args.seed)
    workload = workloads.make_workload(args.workload)
    try:
        measure = measure_traced if args.trace else measure_end_to_end
        values, samples, ops, reasons = measure(workload, ctx, args.seconds)
    finally:
        shutil.rmtree(ctx.tmp, ignore_errors=True)
        try:
            os.rmdir(tmp_parent)
        except OSError:
            pass
    check_determinism(ops)
    failed = [op for op in ops if op.failures]
    fail_rate = len(failed) / len(ops)
    values["pass_rate"] = 1.0 - fail_rate

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {
        m["name"]: {"value": values[m["name"]] if values[m["name"]] is not None else 0, "unit": m["unit"]}
        for m in wanted
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "machine": machine_record(root),
        "inputs": workload.record(),
        "samples": {k: (v if isinstance(v, float) else {"n": len(v), "values": v}) for k, v in samples.items()},
        "fail_rate": fail_rate,
        "failures": [f"{op.name}: {f}" for op in failed for f in op.failures][:20],
        "metrics": {m["name"]: values[m["name"]] for m in wanted},
        "null_reasons": reasons,
    }
    print(json.dumps(report))
    result = {"correct": not failed, "attempted": len(ops), "failed": len(failed), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
