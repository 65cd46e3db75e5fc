"""Per-layer spans for the traced benchmark run, recorded from outside the library.

Each layer is a public function of hypermult.  While a `Tracer` is installed,
every module attribute that holds one of those functions (the names callers
look up at call time) is replaced by a wrapper that records a span: its
name, start and end, the span that was open when it started, and the id of
the request it belongs to.  Nothing under `src/` is edited; uninstalling
puts the original functions back.

A layer's `calls` and `total_ms` count outermost spans only, so a layer that
calls itself (a serializer encoding a nested report) is counted once per
entry from outside.  `self_ms` is a span's duration minus the time its
direct child spans cover.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Callable, Dict, List, Tuple

Counter = Callable[[tuple, object], int]


@dataclass(frozen=True)
class Layer:
    name: str
    targets: Tuple[str, ...]  # "module:function" inside the hypermult package
    fields: Tuple[str, ...]  # which of calls / total_ms / self_ms to report
    moves: str  # the end-to-end metric this layer should move, and where
    counters: Dict[str, Counter] = field(default_factory=dict)


def _size(value: object) -> int:
    return len(value) if hasattr(value, "__len__") else 0


CT = ("calls", "total_ms")
CTS = ("calls", "total_ms", "self_ms")

LAYERS = (
    Layer("hesselink.separation_threshold", ("hesselink:separation_threshold",), CT,
          "classify-grid latency_p50_ms and throughput_per_s; no calls elsewhere"),
    Layer("hesselink.band_contains", ("hesselink:band_contains",), CT,
          "classify-grid latency_p50_ms; hits/calls is the useful-outcome ratio",
          {"hits": lambda a, res: int(res is True)}),
    Layer("hesselink.default_frames", ("hesselink:default_frames",), CT,
          "bound-frames throughput_per_s, latency_p90_ms and peak_rss_mb",
          {"frames": lambda a, res: _size(res)}),
    Layer("hesselink.worst_frame_search", ("hesselink:worst_frame_search",), CTS,
          "bound-frames throughput_per_s, latency_p90_ms and peak_rss_mb"),
    Layer("statepoly.nearest_point", ("statepoly:nearest_point",), CT,
          "index-dense latency_p90_ms and throughput_per_s; bound-frames throughput_per_s",
          {"support_points": lambda a, res: _size(getattr(a[0], "points", a[0])),
           "corral_points": lambda a, res: len(res.hull_weights),
           "semistable": lambda a, res: int(res.dist_sq == 0)}),
    Layer("statepoly.torus_index", ("statepoly:torus_index",), CTS,
          "index-dense; self time is certificate construction and its re-check"),
    Layer("linalg.solve_consistent", ("_linalg:solve_consistent",), CT,
          "index-dense latency_p90_ms; one call per Wolfe minor step"),
    Layer("linalg.det", ("_linalg:det",), CT,
          "bound-frames throughput_per_s"),
    Layer("forms.act", ("forms:act",), CT,
          "bound-frames throughput_per_s; classify-grid requests off the origin",
          {"terms_out": lambda a, res: len(res.terms)}),
    Layer("forms.frame_moving_to_origin", ("forms:frame_moving_to_origin",), CT,
          "classify-grid latency_p50_ms"),
    Layer("forms.destabilize", ("forms:destabilize",), CT,
          "classify-grid latency_p50_ms"),
    Layer("forms.parse_form", ("forms:parse_form",), CT,
          "classify-grid latency_p50_ms and index-dense throughput_per_s",
          {"terms": lambda a, res: len(res.terms)}),
    Layer("classifier.classify_at_origin", ("classifier:classify_at_origin",), CTS,
          "classify-grid latency_p50_ms and throughput_per_s"),
    Layer("classifier.bound_check", ("classifier:bound_check",), CT,
          "bound-frames throughput_per_s"),
    Layer("serialize.encode",
          ("serialize:report_encode", "serialize:cert_encode",
           "serialize:label_encode", "serialize:bound_encode"), CT,
          "fixed per-request cost; classify-grid latency_p50_ms"),
    Layer("cli.run", ("cli:run",), ("calls", "self_ms"),
          "fixed per-request cost (argument parsing, file read, JSON dump); "
          "classify-grid latency_p50_ms"),
)

UNITS = {"calls": "count", "total_ms": "ms", "self_ms": "ms"}


def metric_names() -> List[Tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer.name}.{f}", UNITS[f]) for f in layer.fields]
        out += [(f"{layer.name}.{c}", "count") for c in layer.counters]
    return out


class Tracer:
    """Records spans of the layers in LAYERS while installed.

    Span records are tuples
    (id, parent id, request id, name, start_ns, end_ns, self_ns, outermost, counts).
    """

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.request = 0
        self.warnings: List[str] = []
        self._next_id = 0
        self._stack: List[List[int]] = []  # [span id, child ns] of open spans
        self._depth: Dict[str, int] = {}
        self._undo: List[Tuple[object, str, object]] = []

    def _wrap(self, layer: Layer, fn: Callable) -> Callable:
        name, counters = layer.name, layer.counters

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [sid, 0]
            self._stack.append(frame)
            depth = self._depth.get(name, 0)
            self._depth[name] = depth + 1
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(frame, parent, name, depth, start, perf_counter_ns(), None)
                raise
            end = perf_counter_ns()
            counts = self._count(name, counters, args, result) if counters else None
            self._close(frame, parent, name, depth, start, end, counts)
            return result

        return traced

    def _close(self, frame, parent, name, depth, start, end, counts) -> None:
        self._depth[name] = depth
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += end - start
        self.spans.append(
            (frame[0], parent, self.request, name, start, end,
             end - start - frame[1], depth == 0, counts)
        )

    def _count(self, name, counters, args, result) -> Dict[str, int]:
        counts = {}
        for key, fn in counters.items():
            try:
                counts[key] = fn(args, result)
            except (AttributeError, TypeError, IndexError) as exc:
                self._warn(f"counter {name}.{key} unavailable: {exc}")
        return counts

    def _warn(self, text: str) -> None:
        if text not in self.warnings:
            self.warnings.append(text)
            print(f"# trace: {text}", file=sys.stderr)

    def install(self) -> "Tracer":
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "hypermult"]
        for layer in LAYERS:
            for target in layer.targets:
                mod_name, fn_name = target.split(":")
                home = sys.modules.get(f"hypermult.{mod_name}")
                original = getattr(home, fn_name, None)
                if original is None:
                    self._warn(f"{target} not found; {layer.name} reports no calls")
                    continue
                wrapper = self._wrap(layer, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, attr, value))
                            setattr(mod, attr, wrapper)
        return self

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._undo):
            setattr(mod, attr, value)
        self._undo.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def metrics(self) -> Dict[str, float]:
        """Per-layer totals over every recorded span, keyed by metric name."""
        acc: Dict[str, Dict[str, float]] = {
            layer.name: {key: 0 for key in ("calls", "total_ms", "self_ms", *layer.counters)}
            for layer in LAYERS
        }
        for _, _, _, name, start, end, self_ns, outermost, counts in self.spans:
            row = acc[name]
            row["self_ms"] += self_ns / 1e6
            if outermost:
                row["calls"] += 1
                row["total_ms"] += (end - start) / 1e6
                for key, value in (counts or {}).items():
                    row[key] += value
        out: Dict[str, float] = {}
        for layer in LAYERS:
            for key in (*layer.fields, *layer.counters):
                out[f"{layer.name}.{key}"] = acc[layer.name][key]
        return out

