"""The benchmark's four workloads and the checks on their outputs.

A workload runs its batch once per repetition and returns a ``Rep``: the
batch's wall time, one ``Op`` per operation (its output, compared across
repetitions, and the checks it failed), the spans of a traced repetition
and, for subprocess workloads, the peak summed RSS of the process tree.

Every curve row that carries a bound must satisfy the floor-aware
soundness rule of the acceptance suite,

    tv_sim <= bound_clamped + 3 mc_se + noise_floor + 2 bin_width density_sup,

and the standard AR(1) rows must match the exact TV within
``3 mc_se + 0.01 + noise_floor``.  No golden digests are pinned, so the
checks stay valid across deliberate changes of the random bit stream.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Optional

from tvbounds import cli, data, models, tvlab
from tvbounds.stochastics import NoiseStream

from layertrace import Tracer

PATHS = 1_000_000
CSV_HEADER = "n,bound,bound_clamped,tv_sim,tv_exact,mc_se"
LAYERTRACE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "layertrace.py")
SUBPROCESS_TIMEOUT_S = 150


@dataclass
class Op:
    name: str
    output: Optional[str]
    failures: list


@dataclass
class Rep:
    wall: float
    ops: list
    spans: list = field(default_factory=list)  # one span list per traced process
    missing: dict = field(default_factory=dict)
    rss_mb: Optional[float] = None


@dataclass
class Context:
    root: str
    env: dict
    tmp: str
    seed: int


# ---------------------------------------------------------------- checks


def curve_failures(curve, n_max: int, bin_width: float, exact: bool) -> list:
    fails = []
    if len(curve.rows) != n_max:
        fails.append(f"{len(curve.rows)} rows, expected {n_max}")
    for r in curve.rows:
        if r.bound_clamped is not None:
            budget = r.bound_clamped + 3 * r.mc_se + r.noise_floor + 2 * bin_width * r.density_sup
            if not r.tv_sim <= budget:
                fails.append(f"n={r.n}: tv_sim {r.tv_sim:.6g} above bound budget {budget:.6g}")
        if exact:
            if r.tv_exact is None:
                fails.append(f"n={r.n}: exact TV column empty")
            elif not abs(r.tv_sim - r.tv_exact) <= 3 * r.mc_se + 0.01 + r.noise_floor:
                fails.append(f"n={r.n}: tv_sim {r.tv_sim:.6g} far from exact {r.tv_exact:.6g}")
    return fails


def csv_shape_failures(text: str, n_max: int) -> list:
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return [f"header is not {CSV_HEADER!r}"]
    fails = [f"row {i}: {len(l.split(','))} columns" for i, l in enumerate(lines[1:], 1) if len(l.split(",")) != 6]
    if len(lines) - 1 != n_max:
        fails.append(f"{len(lines) - 1} rows, expected {n_max}")
    return fails


def _error_line(exc: BaseException) -> str:
    return f"raised {type(exc).__name__}: {exc}"


# ------------------------------------------------------ in-process curves


@dataclass(frozen=True)
class CurveJob:
    stem: str
    family: str
    params: dict
    x0: float
    x0p: float
    n_max: int
    bin_width: float
    stream_id: int
    gap: Optional[float] = None
    s20: Optional[float] = None
    s20p: Optional[float] = None

    def record(self) -> dict:
        return {"curve": self.stem, "paths": PATHS, "iterations": self.n_max, "bin_width": self.bin_width}


def figure_job(stem: str, bin_width: float, stream_id: int) -> CurveJob:
    cfg = cli.FIGURE_CURVES[stem]
    return CurveJob(stem, cfg["family"], cfg["params"], cfg["x0"], cfg["x0p"], cfg["n_max"],
                    bin_width, stream_id, s20=cfg.get("s20"), s20p=cfg.get("s20p"))


def run_job(job: CurveJob, seed: int):
    cert_params = {**job.params, "x0": job.x0, "x0p": job.x0p}
    if job.s20 is not None:
        cert_params.update(s20=job.s20, s20p=job.s20p)
    else:
        cert_params["gap"] = job.gap if job.gap is not None else abs(job.x0p - job.x0)
    cert = cli.build_certificate(job.family, cert_params)
    model = models.model_from_dict({"family": job.family, "params": job.params})
    return tvlab.simulate_tv_curve(
        model, job.x0, job.x0p, n_max=job.n_max, n_paths=PATHS, bin_width=job.bin_width,
        stream=NoiseStream(seed, job.stream_id), certificate=cert, workers=1,
        s20=job.s20, s20_prime=job.s20p,
    )


class CurveWorkload:
    """Curves simulated in this process with one worker."""

    cold_starts = 0  # fresh interpreters per batch

    def __init__(self, jobs: list):
        self.jobs = jobs

    def record(self) -> dict:
        return {"mode": "in-process", "workers": 1, "curves": [j.record() for j in self.jobs]}

    def prepare(self, ctx: Context, traced: bool):
        return [], [], 0.0

    def rep(self, ctx: Context, traced: bool) -> Rep:
        results = {}
        tracer = Tracer() if traced else None
        with tracer or nullcontext():
            t0 = time.perf_counter()
            for job in self.jobs:
                try:
                    results[job.stem] = run_job(job, ctx.seed)
                except Exception as exc:  # counted as a failed operation
                    results[job.stem] = exc
            wall = time.perf_counter() - t0
        ops = []
        for job in self.jobs:
            curve = results[job.stem]
            if isinstance(curve, Exception):
                ops.append(Op(job.stem, None, [_error_line(curve)]))
            else:
                fails = curve_failures(curve, job.n_max, job.bin_width, exact=job.stem == "curve-ar1")
                ops.append(Op(job.stem, curve.to_csv(), fails))
        return Rep(wall, ops, [tracer.spans] if traced else [], tracer.missing if traced else {})


# ------------------------------------------------------------ subprocesses


def tree_rss_kb(root_pid: int) -> int:
    """Summed VmRSS of a process and its descendants (shared pages count
    once per process)."""
    total, todo = 0, [root_pid]
    while todo:
        pid = todo.pop()
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmRSS:"):
                        total += int(line.split()[1])
                        break
            for tid in os.listdir(f"/proc/{pid}/task"):
                with open(f"/proc/{pid}/task/{tid}/children", encoding="ascii") as fh:
                    todo.extend(int(c) for c in fh.read().split())
        except (OSError, ValueError):
            continue
    return total


class TreeRSSPoller:
    """Samples the summed RSS of a process tree every ``interval`` seconds."""

    def __init__(self, pid: int, interval: float = 0.05):
        self.pid, self.interval, self.peak_kb = pid, interval, 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        while not self._stop.is_set():
            self.peak_kb = max(self.peak_kb, tree_rss_kb(self.pid))
            self._stop.wait(self.interval)

    def stop(self) -> float:
        self._stop.set()
        self._thread.join()
        return self.peak_kb / 1024.0


@dataclass
class CliRun:
    code: Optional[int]
    stdout: str
    stderr: str
    wall: float
    rss_mb: float
    spans: Optional[list] = None
    missing: dict = field(default_factory=dict)


def run_cli(ctx: Context, args: list, spans_path: Optional[str] = None) -> CliRun:
    """One fresh-interpreter ``tvbounds`` call; traced when ``spans_path`` is given."""
    if spans_path is None:
        cmd = [sys.executable, "-m", "tvbounds.cli", *args]
    else:
        cmd = [sys.executable, LAYERTRACE, spans_path, *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ctx.root, env=ctx.env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    poller = TreeRSSPoller(proc.pid)
    try:
        out, err = proc.communicate(timeout=SUBPROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += f"\nkilled after {SUBPROCESS_TIMEOUT_S} s"
    finally:
        rss_mb = poller.stop()
    wall = time.perf_counter() - t0
    run = CliRun(proc.returncode, out, err, wall, rss_mb)
    if spans_path is not None and os.path.exists(spans_path):
        with open(spans_path, encoding="utf-8") as fh:
            traced = json.load(fh)
        run.spans, run.missing = traced["spans"], traced["missing"]
        os.remove(spans_path)
    return run


def exit_failures(run: CliRun) -> list:
    if run.code == 0:
        return []
    tail = run.stderr.strip().splitlines()[-1:] or [""]
    return [f"exit code {run.code}: {tail[0]}"]


def _json_checks(text: str, checks) -> list:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    return [msg for ok, msg in checks(obj) if not ok]


def check_nonlinear_ar(out: str) -> list:
    return _json_checks(out, lambda c: [
        (c.get("family") == "nonlinear-ar", f"family {c.get('family')!r}"),
        (0.808 <= c.get("details", {}).get("d", -1) <= 0.818, f"D {c.get('details')} outside [0.808, 0.818]"),
        (c.get("gap") == 1.0, f"gap {c.get('gap')!r} != 1"),
    ])


def check_garch(out: str) -> list:
    return _json_checks(out, lambda c: [
        (c.get("family") == "garch", f"family {c.get('family')!r}"),
        (abs(c.get("D", 0) - math.sqrt(0.9188)) <= 1e-8, f"D {c.get('D')!r} != sqrt(0.9188)"),
        (abs(c.get("details", {}).get("coefficient", 0) - 0.2456) <= 5e-4, "coefficient not 0.2456"),
    ])


def check_iters(out: str) -> list:
    return [] if out.strip() == "4" else [f"printed {out.strip()!r}, expected 4"]


def check_repro(out: str) -> list:
    fails = []
    if "MISMATCH" in out:
        fails.append("repro printed MISMATCH")
    if "0 mismatched" not in out:
        fails.append("repro summary line missing")
    return fails


GARCH_PARAMS = '{"alpha2":0.13,"beta2":0.1266,"gamma2":0.7922,"z":{"dist":"normal","mu":0,"sigma":1}}'


class CliColdWorkload:
    """Fresh-interpreter CLI calls: the import chain and ``bounds`` only."""

    cold_starts = 4

    def commands(self, seed):
        return (
            ("certificate-nonlinear-ar", ["certificate", "--family", "nonlinear-ar", "--gap", "1"],
             check_nonlinear_ar),
            ("certificate-garch", ["certificate", "--family", "garch", "--params", GARCH_PARAMS,
                                   "--x0", "0.1", "--x0p", "-0.1", "--s20", "0.0001", "--s20p", "0.01"],
             check_garch),
            ("iters-location-gibbs", ["iters", "--family", "location-gibbs",
                                      "--params", '{"j":31,"s":295.4374194}',
                                      "--gap", "18.12198", "--epsilon", "0.01"], check_iters),
            ("repro", ["repro", "--seed", str(seed)], check_repro),
        )

    def record(self) -> dict:
        return {"mode": "subprocess", "commands": [" ".join(a) for _, a, _ in self.commands("SEED")]}

    def prepare(self, ctx: Context, traced: bool):
        return [], [], 0.0

    def rep(self, ctx: Context, traced: bool) -> Rep:
        runs = []
        t0 = time.perf_counter()
        for i, (name, args, _) in enumerate(self.commands(ctx.seed)):
            spans_path = os.path.join(ctx.tmp, f"spans-{i}.json") if traced else None
            runs.append(run_cli(ctx, args, spans_path))
        wall = time.perf_counter() - t0
        rep = Rep(wall, [], rss_mb=max(r.rss_mb for r in runs))
        for (name, _, check), run in zip(self.commands(ctx.seed), runs):
            fails = exit_failures(run) or check(run.stdout)
            rep.ops.append(Op(name, run.stdout, fails))
            if run.spans is not None:
                rep.spans.append(run.spans)
                rep.missing.update(run.missing)
        return rep


@contextmanager
def capturing(module, name: str):
    """Record (args, kwargs, result) of every call to ``module.name``."""
    calls, fn = [], getattr(module, name)

    def recorder(*args, **kwargs):
        result = fn(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    setattr(module, name, recorder)
    try:
        yield calls
    finally:
        setattr(module, name, fn)


class ReproWorkload:
    """``tvbounds repro --curves`` with two pool workers, as users run it."""

    cold_starts = 1
    workers = 2

    def __init__(self):
        self.reference = {}

    def record(self) -> dict:
        return {
            "mode": "subprocess",
            "command": f"repro --curves DIR --paths {PATHS} --workers {self.workers} --seed SEED",
            "curves": [{"curve": s, "paths": PATHS, "iterations": c["n_max"], "bin_width": 0.01}
                       for s, c in sorted(cli.FIGURE_CURVES.items())],
            "reference": "the same four curves in-process with workers=1 (untimed)",
        }

    def prepare(self, ctx: Context, traced: bool):
        """Write the four curves in-process with one worker; check their rows
        and keep their CSVs as the reference for the subprocess output."""
        ref_dir = os.path.join(ctx.tmp, "reference")
        tracer = Tracer() if traced else None
        ops = []
        with tracer or nullcontext(), capturing(tvlab, "simulate_tv_curve") as calls:
            t0 = time.perf_counter()
            try:
                paths = cli.write_figure_curves(ref_dir, ctx.seed, PATHS, workers=1)
            except Exception as exc:  # counted as a failed operation
                paths = []
                ops.append(Op("reference", None, [_error_line(exc)]))
            wall = time.perf_counter() - t0
        for path, (args, kwargs, curve) in zip(paths, calls):
            stem = os.path.splitext(os.path.basename(path))[0]
            exact = models.model_to_dict(args[0])["family"] == "ar1"
            with open(path, encoding="utf-8") as fh:
                self.reference[stem] = fh.read()
            fails = curve_failures(curve, kwargs["n_max"], kwargs["bin_width"], exact)
            ops.append(Op(f"reference:{stem}", self.reference[stem], fails))
        shutil.rmtree(ref_dir, ignore_errors=True)
        return ops, ([tracer.spans] if traced else []), wall

    def rep(self, ctx: Context, traced: bool) -> Rep:
        out_dir = os.path.join(ctx.tmp, "curves")
        shutil.rmtree(out_dir, ignore_errors=True)
        args = ["repro", "--curves", os.path.relpath(out_dir, ctx.root), "--paths", str(PATHS),
                "--workers", str(self.workers), "--seed", str(ctx.seed)]
        spans_path = os.path.join(ctx.tmp, "spans.json") if traced else None
        run = run_cli(ctx, args, spans_path)
        fails = exit_failures(run) + check_repro(run.stdout)
        output = [run.stdout]
        for stem in sorted(cli.FIGURE_CURVES):
            path = os.path.join(out_dir, stem + ".csv")
            try:
                with open(path, encoding="utf-8") as fh:
                    text = fh.read()
            except OSError:
                fails.append(f"{stem}.csv not written")
                continue
            output.append(text)
            fails += [f"{stem}.csv: {f}" for f in csv_shape_failures(text, cli.FIGURE_CURVES[stem]["n_max"])]
            if stem in self.reference and text != self.reference[stem]:
                fails.append(f"{stem}.csv differs from the workers=1 in-process CSV")
        shutil.rmtree(out_dir, ignore_errors=True)
        rep = Rep(run.wall, [Op("repro-curves", "\n".join(output), fails)], rss_mb=run.rss_mb)
        if run.spans is not None:
            rep.spans, rep.missing = [run.spans], run.missing
        return rep


def make_workload(name: str):
    if name == "gibbs-draw":
        j, _, s = data.location_stats(data.builtin_dataset("trees-girth"))
        gibbs = CurveJob("location-gibbs", "location-gibbs", {"j": j, "s": s}, 1.0, 20.0, 10, 0.01,
                         stream_id=1, gap=19.0)
        return CurveWorkload([gibbs, figure_job("curve-larch-squared", 0.01, 2)])
    if name == "normal-hist":
        return CurveWorkload([figure_job("curve-garch", 0.01, 3), figure_job("curve-ar1", 0.01, 4),
                              figure_job("curve-asym-arch", 0.001, 5)])
    if name == "repro-2w":
        return ReproWorkload()
    if name == "cli-cold":
        return CliColdWorkload()
    raise KeyError(name)
