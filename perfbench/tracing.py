"""Spans around legarray's public functions, recorded from the benchmark.

``install`` replaces each function named in ``SPANS`` by a wrapper at every
place legarray binds it: module attributes (including names one module
imported from another, such as ``cli.build_member``), the
``correlation._METHODS`` table through which ``verify_*`` reach the kernels,
and the class attributes of the two methods. The program's files stay as
they are.

A span is ``[name, start, end, parent, op, counts]``; spans live in memory
and are written out once at the end of the run. A span's self time is its
duration minus the durations of its direct children (calls are sequential).
The kernel counts (``macs``, ``cells``, ``bytes``) are computed from array
sizes, not measured, and their units say so.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


def _nbytes(*arrays) -> int:
    return sum(a.values.nbytes for a in arrays)


def _oracle_counts(args, result):
    a, b = args[0], args[1]
    return {"macs": a.size * b.size, "bytes": _nbytes(a, b, result)}


def _fft_counts(args, result):
    return {"cells": result.size, "bytes": _nbytes(args[0], args[1], result)}


# span name -> (module, attribute or "Class.method", counts(args, result) | None)
SPANS = {
    "fields.find_primitive_poly": ("fields", "find_primitive_poly", None),
    "fields.is_primitive": ("fields", "is_primitive", None),
    "fields.powers": ("fields", "ExtField.powers", None),
    "legendre.legendre_array": ("legendre", "legendre_array", None),
    "family.build_member": ("family", "build_member", None),
    "family.build_family": ("family", "build_family", None),
    "correlation.full_correlation": ("correlation", "full_correlation", _oracle_counts),
    "correlation.full_correlation_fast": ("correlation", "full_correlation_fast", _fft_counts),
    "correlation.verify_auto": (
        "correlation", "verify_autocorrelation",
        lambda args, r: {"peak_shifts": len(r.peak_shifts)},
    ),
    "correlation.verify_cross": (
        "correlation", "verify_cross_correlation",
        lambda args, r: {"peak_shifts": len(r.peak_shifts)},
    ),
    "correlation.to_json_dict": ("correlation", "CorrelationReport.to_json_dict", None),
    "cli.main": ("cli", "main", None),
    "cli.json": ("json", "dumps", lambda args, r: {"bytes": len(r)}),
    "arrays.serialize": ("arrays", "serialize", lambda args, r: {"bytes": len(r)}),
    "arrays.deserialize": ("arrays", "deserialize", lambda args, r: {"bytes": len(args[0])}),
    "images.read_pgm": ("images", "read_pgm", lambda args, r: {"bytes": len(args[0])}),
    "images.write_pgm": ("images", "write_pgm", lambda args, r: {"bytes": len(r)}),
    "watermark.embed": ("watermark", "embed", None),
    "watermark.extract": ("watermark", "extract", lambda args, r: {"tables": len(args[1])}),
}
# Both verify functions report as one layer, "correlation.verify".
_LAYER_OF = {"correlation.verify_auto": "correlation.verify",
             "correlation.verify_cross": "correlation.verify"}
LAYERS = list(dict.fromkeys(_LAYER_OF.get(name, name) for name in SPANS))

# counter name -> (unit, better)
_COUNTERS = {
    "correlation.full_correlation.macs": ("computed_MAC", "lower"),
    "correlation.full_correlation.bytes": ("computed_B", "lower"),
    "correlation.full_correlation.macs_per_s": ("computed_MAC/s", "higher"),
    "correlation.full_correlation_fast.cells": ("computed_cells", "lower"),
    "correlation.full_correlation_fast.bytes": ("computed_B", "lower"),
    "correlation.peak_shifts": ("count", "lower"),
    "cli.json.bytes": ("B", "lower"),
    "arrays.serialize.bytes": ("B", "lower"),
    "arrays.deserialize.bytes": ("B", "lower"),
    "images.read_pgm.bytes": ("B", "lower"),
    "images.write_pgm.bytes": ("B", "lower"),
    "fields.candidates_per_poly": ("count", "lower"),
    "watermark.extract.tables": ("count", "lower"),
    "watermark.extract.false_confident": ("count", "lower"),
    "watermark.extract.missed": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.unspanned_s": ("s", "lower"),
}


def layer_metric_specs() -> dict[str, tuple[str, str]]:
    """Every per-layer metric the traced run emits: name -> (unit, better)."""
    specs = {}
    for layer in LAYERS:
        specs[f"{layer}.calls"] = ("count", "lower")
        specs[f"{layer}.s"] = ("s", "lower")
        specs[f"{layer}.self_s"] = ("s", "lower")
    specs.update(_COUNTERS)
    return specs


class _JsonProxy:
    """Stands in for the json module inside cli, with dumps traced."""

    def __init__(self, module, dumps):
        self._module = module
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name, fn, counts=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if counts is not None:
                spans[idx][5] = counts(args, result)
            return result

        return traced

    def install(self) -> None:
        import legarray
        from legarray import arrays, cli, correlation, family, fields, images, legendre, watermark

        modules = {"arrays": arrays, "cli": cli, "correlation": correlation, "family": family,
                   "fields": fields, "images": images, "legendre": legendre,
                   "watermark": watermark}
        namespaces = [vars(m) for m in (legarray, *modules.values())] + [correlation._METHODS]
        for name, (mod_name, attr, counts) in SPANS.items():
            if mod_name == "json":
                cli.json = _JsonProxy(cli.json, self.wrap(name, cli.json.dumps, counts))
                continue
            owner = modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth), counts))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, counts)
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if value is original:
                        ns[key] = wrapper

    def root_seconds(self) -> float:
        return sum(end - start for _, start, end, parent, _, _ in self.spans if parent < 0)

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass calls, inclusive and self seconds per layer, plus counts."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        counts = defaultdict(int)
        candidates = 0
        for i, (name, start, end, parent, _, cnt) in enumerate(spans):
            layer = _LAYER_OF.get(name, name)
            calls[layer] += 1
            total[layer] += end - start
            self_s[layer] += end - start - child_s[i]
            for key, value in (cnt or {}).items():
                counts[f"{layer}.{key}"] += value
            if name == "fields.is_primitive" and parent >= 0 \
                    and spans[parent][0] == "fields.find_primitive_poly":
                candidates += 1
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer] / passes
            out[f"{layer}.s"] = total[layer] / passes
            out[f"{layer}.self_s"] = self_s[layer] / passes
        # derived counters and the ones the worker fills in are overwritten below
        for key in _COUNTERS:
            out[key] = counts.get(key, 0) / passes
        oracle_s = total["correlation.full_correlation"]
        out["correlation.full_correlation.macs_per_s"] = (
            counts["correlation.full_correlation.macs"] / oracle_s if oracle_s else 0.0
        )
        out["correlation.peak_shifts"] = counts["correlation.verify.peak_shifts"] / passes
        fpp = calls["fields.find_primitive_poly"]
        out["fields.candidates_per_poly"] = candidates / fpp if fpp else 0.0
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "counts"],
                       "spans": self.spans}, f)
