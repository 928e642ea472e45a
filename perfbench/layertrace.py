"""Layer spans for the tvbounds benchmark.

A ``Tracer`` wraps public functions of the tvbounds modules (the names in
each module's ``__all__``; for a module without ``__all__``, the names
without a leading underscore), records one span per call, and puts the
original functions back on exit.  Each span records the span that was open
when it started, so a layer's self time is its duration minus the
durations of its direct children.

Run as a script, it traces one ``tvbounds`` CLI invocation and writes the
spans of that process as JSON::

    python3 perfbench/layertrace.py SPANS.json repro --seed 1

Spans recorded in pool worker processes stay in those processes and are
not written.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

CHUNK = 1 << 17
SAMPLER_TAGS = ("normal", "chi-square", "gamma", "inverse-gamma")
CURVE_FAMILIES = ("location-gibbs", "larch", "garch", "ar1", "asym-arch")

# (module, public name); "*_certificate" stands for every public constructor.
HOOKS = (
    ("stochastics", "sample"),
    ("models", "draw_innovations"),
    ("models", "step"),
    ("models", "observable"),
    ("tvlab", "simulate_tv_curve"),
    ("tvlab", "tv_from_histograms"),
    ("bounds", "nonlinear_ar_D"),
    ("bounds", "mc_location_drift_fit"),
    ("bounds", "*_certificate"),
    ("cli", "reproduction_rows"),
)

# span fields
LABEL, START, END, PARENT, TAG, PATHS = range(6)


def public_names(module) -> list:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return list(names)


def _paths(result) -> int:
    """Paths in a draw, a state or a sample (first member of a tuple)."""
    if isinstance(result, tuple):
        result = result[0]
    return int(np.size(result))


def _dist_tag(stochastics, dist) -> str:
    try:
        return stochastics.dist_to_dict(dist)["dist"]
    except Exception:  # an unknown distribution still gets a span
        return type(dist).__name__


def _curve_tag(models, args, kwargs) -> str:
    try:
        family = models.model_to_dict(args[0])["family"]
    except Exception:  # an unknown model still gets a span
        family = type(args[0]).__name__
    workers = kwargs.get("workers", args[8] if len(args) > 8 else 1)
    return f"{family}@{workers}"


class Tracer:
    """Context manager that records spans of hooked tvbounds calls."""

    def __init__(self):
        self.spans = []
        self.missing = {}  # "module.name" -> why it could not be hooked
        self._stack = []
        self._saved = []

    def __enter__(self) -> "Tracer":
        mods = {m: importlib.import_module(f"tvbounds.{m}") for m, _ in HOOKS}
        tags = {
            "stochastics.sample": lambda a, k: _dist_tag(mods["stochastics"], a[0]),
            "tvlab.simulate_tv_curve": lambda a, k: _curve_tag(mods["models"], a, k),
        }
        counted = ("stochastics.sample", "models.draw_innovations", "models.step")
        for mod_name, name in HOOKS:
            module = mods[mod_name]
            public = public_names(module)
            if name.startswith("*"):
                targets = [n for n in public if n.endswith(name[1:]) and callable(getattr(module, n, None))]
                label = f"{mod_name}.certificate"
            else:
                targets = [name] if name in public and callable(getattr(module, name, None)) else []
                label = f"{mod_name}.{name}"
                if not targets:
                    self.missing[label] = f"tvbounds.{mod_name} has no public function {name}"
            for target in targets:
                fn = getattr(module, target)
                self._saved.append((module, target, fn))
                setattr(module, target, self._wrap(label, fn, tags.get(label), label in counted))
        return self

    def __exit__(self, *exc) -> None:
        for module, target, fn in reversed(self._saved):
            setattr(module, target, fn)
        self._saved.clear()

    def _wrap(self, label, fn, tag_of, count_paths):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            span = [label, clock(), None, stack[-1] if stack else -1,
                    tag_of(args, kwargs) if tag_of else None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if count_paths:
                    span[PATHS] = _paths(result)
                return result
            finally:
                stack.pop()
                span[END] = clock()

        return hooked


def layer_totals(span_lists) -> dict:
    """Sum calls, paths, inclusive and self seconds per label (and per
    label:tag) over one or more processes' span lists."""
    totals = defaultdict(lambda: {"calls": 0, "paths": 0, "incl": 0.0, "self": 0.0})
    for spans in span_lists:
        child = defaultdict(float)
        for s in spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        for i, s in enumerate(spans):
            dur = s[END] - s[START]
            keys = [s[LABEL]] + ([f"{s[LABEL]}:{s[TAG]}"] if s[TAG] is not None else [])
            for key in keys:
                t = totals[key]
                t["calls"] += 1
                t["paths"] += s[PATHS] or 0
                t["incl"] += dur
                t["self"] += dur - child[i]
    return dict(totals)


def layer_metrics(span_lists, missing, wall_s, import_ms) -> dict:
    """Per-layer metrics of one traced batch: name -> (value, reason).

    A value is None when the hooked function was never called (or could not
    be hooked); the reason says which.  ``wall_s`` is the traced batch's
    wall time and ``import_ms`` the import time of its cold starts, for the
    ``split.*`` shares.
    """
    totals = layer_totals(span_lists)
    out = {}

    def calls(label):
        return totals[label]["calls"] if label in totals else 0

    def busy(label, kind="incl"):
        return totals[label][kind] if label in totals else 0.0

    def reason(label):
        return missing.get(label.split(":")[0], f"{label} not called in this batch")

    def per_chunk(name, label):
        t = totals.get(label)
        if t and t["paths"]:
            out[name] = (1e3 * t["incl"] * CHUNK / t["paths"], None)
        else:
            out[name] = (None, reason(label))

    def total_ms(name, label, kind="incl"):
        t = totals.get(label)
        out[name] = (1e3 * t[kind], None) if t else (None, reason(label))

    per_chunk("models.draw_ms", "models.draw_innovations")
    per_chunk("models.step_ms", "models.step")
    out["models.draw_calls"] = (calls("models.draw_innovations"), None)
    for tag in SAMPLER_TAGS:
        per_chunk(f"stochastics.sample_ms.{tag}", f"stochastics.sample:{tag}")
        out[f"stochastics.sample_calls.{tag}"] = (calls(f"stochastics.sample:{tag}"), None)

    # binning, merge and chunk orchestration: curves whose chunks ran in this process
    local = [k for k in totals if k.startswith("tvlab.simulate_tv_curve:") and k.endswith("@1")]
    hist_s = sum(totals[k]["self"] for k in local)
    if local:
        out["tvlab.hist_ms"] = (1e3 * hist_s, None)
    else:
        out["tvlab.hist_ms"] = (None, "no curve simulated with workers=1 in this batch")
    t = totals.get("tvlab.tv_from_histograms")
    out["tvlab.tv_ms"] = (1e3 * t["incl"] / t["calls"], None) if t else (None, reason("tvlab.tv_from_histograms"))

    by_workers = defaultdict(float)
    for family in CURVE_FAMILIES:
        keys = [k for k in totals if k.startswith(f"tvlab.simulate_tv_curve:{family}@")]
        for k in keys:
            by_workers[k.rsplit("@", 1)[1]] += totals[k]["incl"]
        # the curve at the largest worker count run in this batch
        keys.sort(key=lambda k: int(k.rsplit("@", 1)[1]))
        if keys:
            out[f"tvlab.curve_ms.{family}"] = (1e3 * totals[keys[-1]]["incl"], None)
        else:
            out[f"tvlab.curve_ms.{family}"] = (None, f"no {family} curve in this batch")
    if by_workers.get("1") and by_workers.get("2"):
        out["tvlab.pool_speedup"] = (by_workers["1"] / by_workers["2"], None)
    else:
        out["tvlab.pool_speedup"] = (None, "curves not run at both 1 and 2 workers in this batch")

    total_ms("bounds.nonlinear_ar_D_ms", "bounds.nonlinear_ar_D")
    total_ms("bounds.mc_location_drift_fit_ms", "bounds.mc_location_drift_fit")
    total_ms("bounds.certificate_ms", "bounds.certificate", "self")
    total_ms("cli.reproduction_rows_ms", "cli.reproduction_rows", "self")

    def pct(seconds):
        return (100.0 * seconds / wall_s, None)

    out["split.draw_pct"] = pct(busy("models.draw_innovations"))
    out["split.step_pct"] = pct(busy("models.step"))
    out["split.hist_tv_pct"] = pct(hist_s + busy("tvlab.tv_from_histograms"))
    out["split.import_bounds_pct"] = pct(
        import_ms / 1e3 + busy("bounds.nonlinear_ar_D") + busy("bounds.mc_location_drift_fit")
        + busy("bounds.certificate", "self") + busy("cli.reproduction_rows", "self")
    )
    return out


def _main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    from tvbounds import cli

    tracer = Tracer()
    try:
        with tracer:
            code = cli.main(cli_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "missing": tracer.missing}, fh)
    return code


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
