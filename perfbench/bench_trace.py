"""Span tracer for the traced benchmark run.

The tracer wraps public functions of the ``pokegrasp`` package at every
module binding through which callers look them up (for example
``harness.top_heights`` and ``render.top_heights`` are the same function
object, so both names get the wrapper). No source file changes. Each call
records a span ``(name, start, end, parent, trial)``; spans stay in memory
and are reduced to per-layer metrics once the traced pass ends.

A target that the package no longer defines is reported as absent and its
metrics read 0, so a renamed or removed function never crashes a run.
"""
from __future__ import annotations

import inspect
import sys
import time

import numpy as np

PACKAGE = "pokegrasp"

# layer -> statistics reported for it, named "<module>.<function>.<stat>"
LAYERS = {
    "render.render": ("calls", "p50_ms", "p90_ms", "self_s"),
    "render.intersect_object": ("calls", "rays", "self_s"),
    "render.top_heights": ("calls", "columns", "self_s"),
    "render.contains": ("calls", "self_s"),
    "tactile.frame_from_heights": ("calls", "self_s"),
    "tactile.detect_contact": ("calls", "self_s"),
    "regions.poking_region": ("calls", "self_s"),
    "regions.height_map": ("calls", "self_s"),
    "plan.poking_point": ("calls", "self_s"),
    "plan.heuristic_grasp": ("calls", "self_s"),
    "harness.corrupt_depth": ("calls", "self_s"),
    "harness.simulate_poke": ("calls", "p50_ms", "p90_ms", "self_s"),
    "harness.simulate_grasp": ("calls", "self_s"),
    "harness.run_poke_trial": ("calls", "p50_ms", "p90_ms"),
    "harness.run_grasp_trial": ("calls", "p50_ms", "p90_ms"),
    "metrics.evaluate_ap": ("calls", "self_s"),
    "metrics.average_precision": ("calls",),
    "metrics.mask_iou": ("calls", "self_s"),
    "losses.mask_loss": ("calls", "self_s"),
    "losses.mask_loss_grad": ("calls", "self_s"),
}

# work counted from a wrapped call's arguments or result:
# layer -> (counter name, parameter name or None for the result, count function)
COUNTERS = {
    "render.intersect_object": ("rays", "origins", lambda v: int(np.shape(v)[0])),
    "render.top_heights": ("columns", "xy", lambda v: int(np.shape(v)[0])),
    "tactile.detect_contact": ("fired", None, lambda r: int(bool(r[0]))),
}

# derived and run-level metrics: name -> (unit, better)
EXTRA = {
    "harness.probes_per_poke": ("ratio", "lower"),
    "harness.contact_per_probe": ("ratio", "higher"),
    "harness.trial_errors": ("count", "lower"),
    "catalog.scene_set_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.absent": ("count", "lower"),
}

STAT_UNITS = {"calls": "count", "rays": "count", "columns": "count",
              "p50_ms": "ms", "p90_ms": "ms", "self_s": "s"}


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = [(f"{layer}.{stat}", STAT_UNITS[stat], "lower")
             for layer, stats in LAYERS.items() for stat in stats]
    specs += [(name, unit, better) for name, (unit, better) in EXTRA.items()]
    return specs


class Tracer:
    """Records spans of the wrapped layers while installed (a context manager).

    ``trial`` labels the spans recorded next; the caller sets it to the id
    of the item it is about to run.
    """

    def __init__(self, layers=tuple(LAYERS)):
        self.layers = tuple(layers)
        self.spans: list = []
        self.counts: dict = {}
        self.absent: list[str] = []
        self.trial = ""
        self._stack: list[int] = []
        self._patched: list = []

    def __enter__(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for layer in self.layers:
            mod_name, func_name = layer.split(".")
            original = getattr(sys.modules.get(f"{PACKAGE}.{mod_name}"), func_name, None)
            if not callable(original):
                self.absent.append(layer)
                continue
            wrapper = self._wrap(layer, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        return False

    def _wrap(self, layer, original):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(layer)
        signature = inspect.signature(original) if counter and counter[1] else None
        if signature is not None and counter[1] not in signature.parameters:
            counter = None  # the counted parameter was renamed: report 0

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (layer, start, end, parent, self.trial)
            if counter:
                key, param, count = counter
                value = signature.bind(*args, **kwargs).arguments[param] if param else result
                self.counts[(layer, key)] = self.counts.get((layer, key), 0) + count(value)
            return result

        traced.__wrapped__ = original
        return traced

    def self_times(self) -> dict[str, float]:
        """Per layer: span durations minus the durations of their child spans."""
        out: dict[str, float] = {}
        for name, start, end, parent, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
            if parent >= 0:
                pname = self.spans[parent][0]
                out[pname] = out.get(pname, 0.0) - (end - start)
        return out

    def durations(self, layer: str) -> list[float]:
        return [end - start for name, start, end, _, _ in self.spans if name == layer]

    def slowest(self, layer: str):
        """(trial id, seconds) of the layer's longest span, or None."""
        best = max((s for s in self.spans if s[0] == layer),
                   key=lambda s: s[2] - s[1], default=None)
        return None if best is None else (best[4], best[2] - best[1])

    def metrics(self) -> dict[str, float]:
        """Every ``LAYERS`` statistic plus the derived ratios; 0 without samples."""
        self_s = self.self_times()
        out: dict[str, float] = {}
        for layer, stats in LAYERS.items():
            ms = np.array(self.durations(layer)) * 1e3
            for stat in stats:
                if stat == "calls":
                    value = int(ms.size)
                elif stat == "self_s":
                    value = float(self_s.get(layer, 0.0))
                elif stat in ("p50_ms", "p90_ms"):
                    q = 50 if stat == "p50_ms" else 90
                    value = float(np.percentile(ms, q)) if ms.size else 0.0
                else:
                    value = int(self.counts.get((layer, stat), 0))
                out[f"{layer}.{stat}"] = value
        probes = out["tactile.detect_contact.calls"]
        pokes = out["harness.simulate_poke.calls"]
        fired = self.counts.get(("tactile.detect_contact", "fired"), 0)
        out["harness.probes_per_poke"] = probes / pokes if pokes else 0.0
        out["harness.contact_per_probe"] = fired / probes if probes else 0.0
        out["trace.absent"] = len(self.absent)
        return out
