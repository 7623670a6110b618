"""Per-layer tracing of zprainbow from outside the package.

The tracer replaces the public entry points of each module with thin
wrappers that record a span (layer, function, start, end, parent) and the
work the call did, counted from its arguments and result.  Spans are kept
in memory; `Tracer.metrics` turns them into per-pass layer metrics and
`Tracer.dump` writes them out when the run ends.

A layer's self time is the duration of its spans minus the part covered by
their child spans.  The workloads run single-threaded (no `workers` key is
written), so one span stack per process is enough.

A target that no longer exists under its name is reported as unwrapped;
its metrics then read 0 and the run goes on.
"""

from __future__ import annotations

import inspect
import json
import os
import statistics
import sys
import time

# (layer, module, function) - the public entry point of each pipeline stage
TARGETS = (
    ("dispersion", "dispersion", "match_down"),
    ("dispersion", "dispersion", "match_up"),
    ("coupling", "coupling", "integrate_three_wave"),
    ("coupling", "coupling", "propagate_covariance"),
    ("coupling", "coupling", "apply"),
    ("zpf", "zpf", "block_amplitudes"),
    ("zpf", "zpf", "sample_vacuum"),
    ("rainbow", "rainbow", "mc_mean_intensities"),
    ("rainbow", "rainbow", "sweep"),
    ("detection", "detection", "channel_rate"),
    ("detection", "detection", "ratio_down"),
    ("detection", "detection", "ratio_up"),
    ("detection", "detection", "threshold_counts"),
    ("detection", "detection", "dark_rate_curve"),
    ("cli", "cli", "load_config"),
    ("cli", "cli", "write_table"),
)

# name -> (unit, better); the order is the order of BENCHMARK.json
LAYER_METRICS = {
    "dispersion.match_calls": ("count", "lower"),
    "dispersion.match_s": ("s", "lower"),
    "dispersion.match_found_ratio": ("ratio", "higher"),
    "dispersion.share": ("ratio", "lower"),
    "coupling.transform_calls": ("count", "lower"),
    "coupling.transform_s": ("s", "lower"),
    "coupling.transform_ms_per_call": ("ms", "lower"),
    "coupling.propagate_s": ("s", "lower"),
    "coupling.apply_s": ("s", "lower"),
    "coupling.share": ("ratio", "lower"),
    "zpf.block_calls": ("count", "lower"),
    "zpf.sample_s": ("s", "lower"),
    "zpf.samples_per_s": ("1/s", "higher"),
    "zpf.bytes_generated": ("B", "lower"),
    "zpf.share": ("ratio", "lower"),
    "rainbow.reduce_calls": ("count", "lower"),
    "rainbow.reduce_s": ("s", "lower"),
    "rainbow.reduce_transforms_per_vacuum": ("ratio", "higher"),
    "rainbow.reduce_flops_computed": ("flop", "lower"),
    "rainbow.reduce_bytes_computed": ("B", "lower"),
    "rainbow.reduce_share": ("ratio", "lower"),
    "rainbow.sweep_self_s": ("s", "lower"),
    "rainbow.point_present_ratio": ("ratio", "higher"),
    "detection.rate_calls": ("count", "lower"),
    "detection.rate_s": ("s", "lower"),
    "cli.load_config_s": ("s", "lower"),
    "cli.write_s": ("s", "lower"),
    "cli.rows_written": ("count", "higher"),
    "cli.bytes_written": ("B", "lower"),
    "cli.write_mb_per_s": ("MB/s", "higher"),
    "cli.write_share": ("ratio", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

_COMPLEX_BYTES = 16


def _bound(fn, args, kwargs):
    """Arguments by parameter name, or {} when the signature has changed."""
    try:
        return inspect.signature(fn).bind(*args, **kwargs).arguments
    except (TypeError, ValueError):
        return {}


def _count_lines(path):
    n = 0
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            n += chunk.count(b"\n")
    return n


def _work(name, fn, args, kwargs, result, failed):
    """Work counters of one call, from its arguments and result."""
    if name in ("match_down", "match_up"):
        return {"found": 0 if failed else 1}
    if failed:
        return {}
    if name == "block_amplitudes" and hasattr(result, "size"):
        return {"samples": int(result.size)}
    if name == "mc_mean_intensities":
        a = _bound(fn, args, kwargs)
        transforms, trials = a.get("transforms"), a.get("trials")
        if not transforms or not isinstance(trials, int):
            return {}
        n_t, n = len(transforms), transforms[0].n_modes
        # per transform: two (trials x n)(n x n) complex products, an add,
        # |.|^2 and a column sum; arrays: amp, conj, then per transform
        # two products, their sum (complex) and |.|^2 (real)
        return {"transforms": n_t,
                "flops": trials * n_t * (16 * n * n + 6 * n),
                "bytes": trials * n * _COMPLEX_BYTES * (2 + 3.5 * n_t)}
    if name == "sweep" and hasattr(result, "points"):
        pts = result.points
        present = sum(p.has_main for p in pts) + sum(p.has_satellite for p in pts)
        return {"present": present, "slots": 2 * len(pts)}
    if name == "write_table":
        path = _bound(fn, args, kwargs).get("path")
        if isinstance(path, str) and os.path.exists(path):
            return {"bytes": os.path.getsize(path),
                    "rows": max(_count_lines(path) - 1, 0)}
    return {}


class Tracer:
    """Installs span-recording wrappers; collects spans for traced passes."""

    def __init__(self, package):
        self.package = package
        self.spans = []        # [layer, name, start, end, parent, pass, work]
        self.stack = []
        self.pass_id = None
        self.unwrapped = []
        self._patches = []     # (module, attribute, original)

    def install(self, pass_id):
        """Wrap every target for one traced pass."""
        self.pass_id = pass_id
        self.stack = []
        prefix = self.package.__name__
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == prefix or k.startswith(prefix + "."))]
        self.unwrapped = []
        for layer, mod_name, name in TARGETS:
            mod = sys.modules.get(f"{prefix}.{mod_name}")
            orig = getattr(mod, name, None) if mod is not None else None
            if not callable(orig):
                self.unwrapped.append(f"{mod_name}.{name}")
                continue
            wrapper = self._wrap(layer, name, orig)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapper)
                        self._patches.append((m, attr, orig))

    def uninstall(self):
        """Put the original functions back."""
        for m, attr, orig in reversed(self._patches):
            setattr(m, attr, orig)
        self._patches = []
        self.pass_id = None

    def _wrap(self, layer, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            span = [layer, name, 0.0, 0.0,
                    tracer.stack[-1] if tracer.stack else None,
                    tracer.pass_id, None]
            index = len(tracer.spans)
            tracer.spans.append(span)
            tracer.stack.append(index)
            result, failed = None, True
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                span[3] = time.perf_counter()
                tracer.stack.pop()
                span[6] = _work(name, fn, args, kwargs, result, failed)

        wrapper.__wrapped__ = fn
        return wrapper

    def metrics(self, traced_walls, untraced_walls):
        """Per-pass averages of the layer metrics over the traced passes."""
        n_pass = max(len(traced_walls), 1)
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[4] is not None:
                child[s[4]] += s[3] - s[2]
        self_s, calls, work = {}, {}, {}
        for i, s in enumerate(self.spans):
            name = s[1]
            self_s[name] = self_s.get(name, 0.0) + (s[3] - s[2]) - child[i]
            calls[name] = calls.get(name, 0) + 1
            for k, v in (s[6] or {}).items():
                work[(name, k)] = work.get((name, k), 0) + v

        def t(*names):
            return sum(self_s.get(n, 0.0) for n in names) / n_pass

        def c(*names):
            return sum(calls.get(n, 0) for n in names) / n_pass

        def w(name, key):
            return work.get((name, key), 0) / n_pass

        def ratio(a, b):
            return a / b if b else 0.0

        wall = sum(traced_walls) / n_pass
        match_calls = c("match_down", "match_up")
        transform_s = t("integrate_three_wave")
        sample_s = t("block_amplitudes", "sample_vacuum")
        samples = w("block_amplitudes", "samples")
        reduce_s = t("mc_mean_intensities")
        write_s = t("write_table")
        write_bytes = w("write_table", "bytes")
        m = {
            "dispersion.match_calls": match_calls,
            "dispersion.match_s": t("match_down", "match_up"),
            "dispersion.match_found_ratio": ratio(
                w("match_down", "found") + w("match_up", "found"), match_calls),
            "dispersion.share": ratio(t("match_down", "match_up"), wall),
            "coupling.transform_calls": c("integrate_three_wave"),
            "coupling.transform_s": transform_s,
            "coupling.transform_ms_per_call": ratio(
                1e3 * transform_s, c("integrate_three_wave")),
            "coupling.propagate_s": t("propagate_covariance"),
            "coupling.apply_s": t("apply"),
            "coupling.share": ratio(
                t("integrate_three_wave", "propagate_covariance", "apply"), wall),
            "zpf.block_calls": c("block_amplitudes"),
            "zpf.sample_s": sample_s,
            "zpf.samples_per_s": ratio(samples, sample_s),
            "zpf.bytes_generated": samples * _COMPLEX_BYTES,
            "zpf.share": ratio(sample_s, wall),
            "rainbow.reduce_calls": c("mc_mean_intensities"),
            "rainbow.reduce_s": reduce_s,
            "rainbow.reduce_transforms_per_vacuum": ratio(
                w("mc_mean_intensities", "transforms"), c("mc_mean_intensities")),
            "rainbow.reduce_flops_computed": w("mc_mean_intensities", "flops"),
            "rainbow.reduce_bytes_computed": w("mc_mean_intensities", "bytes"),
            "rainbow.reduce_share": ratio(reduce_s, wall),
            "rainbow.sweep_self_s": t("sweep"),
            "rainbow.point_present_ratio": ratio(
                w("sweep", "present"), w("sweep", "slots")),
            "detection.rate_calls": c("channel_rate", "ratio_down", "ratio_up",
                                      "threshold_counts", "dark_rate_curve"),
            "detection.rate_s": t("channel_rate", "ratio_down", "ratio_up",
                                  "threshold_counts", "dark_rate_curve"),
            "cli.load_config_s": ratio(t("load_config") * n_pass,
                                       calls.get("load_config", 0)),
            "cli.write_s": write_s,
            "cli.rows_written": w("write_table", "rows"),
            "cli.bytes_written": write_bytes,
            "cli.write_mb_per_s": ratio(write_bytes / 1e6, write_s),
            "cli.write_share": ratio(write_s, wall),
            "trace.overhead_frac": ratio(
                statistics.median(traced_walls),
                statistics.median(untraced_walls)) - 1.0
            if traced_walls and untraced_walls else 0.0,
        }
        return {k: {"value": float(m[k]), "unit": LAYER_METRICS[k][0]}
                for k in LAYER_METRICS}

    def dump(self, path, extra):
        keys = ("layer", "name", "start", "end", "parent", "pass", "work")
        with open(path, "w") as fh:
            json.dump(dict(extra, unwrapped=self.unwrapped,
                           spans=[dict(zip(keys, s)) for s in self.spans]), fh)
            fh.write("\n")
