"""Span tracing of sparseflr's public functions, installed from outside.

The tracer wraps each function listed in ``LAYERS`` in every sparseflr
namespace that binds it. Patching the defining module alone would miss
calls: ``pace_scores`` is also bound in ``sparseflr.flr`` and ``sparseflr``,
the smoothers are imported into ``fpca`` and ``flr``, and ``cli`` imports
``fit_flr``, ``load_sample``, ``save_model`` and ``load_model``. Nothing
under ``src/`` changes.

Each call records a span (name, start, end, parent span, iteration id) in
memory; spans are written out when the run ends. A span's self time is its
duration minus the time its direct child spans cover. Counts are read from
arguments and return values at the same boundary.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict

import numpy as np

# Wrapped functions per package module; the module names are the layers.
LAYERS = {
    "smoothing": (
        "local_linear_1d",
        "local_linear_2d",
        "local_diag_rotated",
        "select_bandwidth_1d",
        "select_bandwidth_2d",
        "bin_scatter_2d",
    ),
    "fpca": (
        "estimate_mean",
        "raw_covariances",
        "estimate_covariance",
        "estimate_noise_variance",
        "eigendecompose",
        "pace_scores",
        "select_ncomp",
        "fit_fpca",
    ),
    "flr": (
        "estimate_cross_covariance",
        "estimate_sigma_km",
        "estimate_beta",
        "predict_response",
        "prediction_band",
        "fit_flr",
    ),
    "simulation": ("gen_pair", "in_scores", "rmspe", "run_monte_carlo"),
    "data": ("load_sample", "save_sample", "pooled_points"),
    "serialize": ("save_model", "load_model"),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

# Counts read at a span boundary: span name -> fn(args, result) -> {metric: n}.
COUNTERS = {
    "smoothing.local_linear_1d": lambda a, r: {"smoothing.local_linear_1d.points": np.size(a[0])},
    "smoothing.local_linear_2d": lambda a, r: {"smoothing.local_linear_2d.points": np.size(a[0])},
    "smoothing.local_diag_rotated": lambda a, r: {
        "smoothing.local_diag_rotated.points": np.size(a[0])
    },
    "fpca.raw_covariances": lambda a, r: {"fpca.raw_covariances.pairs": r.n_pairs},
    "fpca.pace_scores": lambda a, r: {
        "fpca.pace_scores.ridged": int(r.ridged),
        "fpca.pace_scores.omega_clipped": int(r.omega_clipped),
    },
    "flr.fit_flr": lambda a, r: {
        "smoothing.widened_windows": r.flags.widened_windows,
        "smoothing.constant_fallbacks": r.flags.constant_fallbacks,
    },
}

# Smoother fits and the estimates (curves and surfaces) they produce; the
# ratio is the waste of the bandwidth search. The noise-variance step's two
# smoother calls produce a scalar, not a curve or surface, so they are left
# out of both sides.
_SMOOTHER_FITS = ("smoothing.local_linear_1d", "smoothing.local_linear_2d")
_ESTIMATES = ("fpca.estimate_mean", "fpca.estimate_covariance", "flr.estimate_cross_covariance")
_NOT_AN_ESTIMATE = "fpca.estimate_noise_variance"

BOUNDARY_COUNTS = (
    "smoothing.local_linear_1d.points",
    "smoothing.local_linear_2d.points",
    "smoothing.local_diag_rotated.points",
    "smoothing.widened_windows",
    "smoothing.constant_fallbacks",
    "fpca.raw_covariances.pairs",
    "fpca.pace_scores.ridged",
    "fpca.pace_scores.omega_clipped",
)
# fpca.ncomp_* come from the reference model, so they repeat exactly.
COUNT_METRICS = BOUNDARY_COUNTS + ("smoothing.fits_per_estimate", "fpca.ncomp_x", "fpca.ncomp_y")
OVERHEAD_METRICS = ("trace.untraced_iteration_s", "trace.traced_iteration_s", "trace.overhead_s")


def per_layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run emits, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    for name in COUNT_METRICS:
        units[name] = "count"
    units["smoothing.fits_per_estimate"] = "ratio"
    for name in OVERHEAD_METRICS:
        units[name] = "s"
    return units


class Tracer:
    """Wraps the functions in ``LAYERS`` and records one span per call."""

    def __init__(self):
        self.spans: list = []
        self.counts: defaultdict = defaultdict(int)
        self.iteration = -1
        self._stack: list[int] = []
        self._patched: list = []  # (module, attribute, original)

    def install(self) -> None:
        import sparseflr  # noqa: F401  (loads every submodule)

        modules = [m for n, m in list(sys.modules.items()) if n == "sparseflr" or n.startswith("sparseflr.")]
        for mod_name, fns in LAYERS.items():
            home = sys.modules[f"sparseflr.{mod_name}"]
            for fn in fns:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{mod_name}.{fn}", original)
                for mod in modules:
                    if getattr(mod, fn, None) is original:
                        setattr(mod, fn, wrapper)
                        self._patched.append((mod, fn, original))

    def uninstall(self) -> None:
        for mod, fn, original in reversed(self._patched):
            setattr(mod, fn, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.iteration)
            if counter is not None:
                for key, n in counter(args, result).items():
                    counts[key] += n
            return result

        return traced

    def self_times(self) -> list[float]:
        """Self time of each span: its duration minus its direct children's."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, child)]

    def layer_metrics(self, n_iterations: int) -> dict[str, float]:
        """Per-iteration self times, call counts and boundary counts."""
        per = 1.0 / max(n_iterations, 1)
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for (name, *_), s in zip(self.spans, self.self_times()):
            self_s[name] += s
            calls[name] += 1
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.self_s"] = self_s[name] * per
            out[f"{name}.calls"] = calls[name] * per
        for name in BOUNDARY_COUNTS:
            out[name] = self.counts[name] * per
        fits = sum(calls[n] for n in _SMOOTHER_FITS) - self._fits_under(_NOT_AN_ESTIMATE)
        estimates = sum(calls[n] for n in _ESTIMATES)
        out["smoothing.fits_per_estimate"] = fits / estimates if estimates else 0.0
        return out

    def _fits_under(self, ancestor: str) -> int:
        n = 0
        for name, _, _, parent, _ in self.spans:
            if name not in _SMOOTHER_FITS:
                continue
            while parent >= 0:
                if self.spans[parent][0] == ancestor:
                    n += 1
                    break
                parent = self.spans[parent][3]
        return n

    def write(self, path: str) -> None:
        """Write the spans as gzipped JSON lines: name, start, end, parent, iteration."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")
