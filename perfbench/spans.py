"""Span tracing for the benchmark's traced run.

The traced run wraps public functions and methods of each cstrack module
at the places the pipeline calls them (module attributes and class
attributes), records one span per call, and restores the originals when
the run leaves the `installed` block. Untraced runs never enter it, so
they execute the program unmodified. No file of the program changes.

A span is [name, start, end, parent index, operation id]; spans stay in
memory and are written out once at the end of the run. Counters are read
from the values the wrapped calls return. A wrap target or counter source
that no longer exists is recorded as missing instead of failing the run.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import os
import time

import numpy as np


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: collections.Counter = collections.Counter()
        self.gauges: dict[str, float] = {}
        self.missing: set[str] = set()
        self.op: int | None = None  # id of the operation being traced
        self._stack: list[int] = []

    def call(self, name: str, fn, args, kwargs):
        if self.op is None:  # outside a traced operation: run untraced
            return fn(*args, **kwargs)
        span = [name, time.perf_counter(), 0.0,
                self._stack[-1] if self._stack else None, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def child_time(self) -> list[float]:
        """Per span: the seconds its direct children cover."""
        out = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                out[parent] += end - start
        return out

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: total seconds, self seconds and call count."""
        child_time = self.child_time()
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[i]
            entry["calls"] += 1
        return out

    def to_json(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "counters": dict(self.counters),
            "gauges": self.gauges,
            "missing": sorted(self.missing),
        }


# -- counter hooks: (tracer, result, args) -> None, run after the span ends --


def _ingest_stats(tr, result, args):
    _, stats = result
    tr.counters["ingest.records_in"] += stats.records_in
    tr.counters["ingest.records_kept"] += stats.records_kept


def _starmap_cells(tr, layers, args):
    for layer in layers:
        tr.counters["starmap.cells"] += layer.mean.size
        tr.counters["starmap.flagged_cells"] += int(layer.flagged.sum())


def _starmap_bytes(tr, result, args):
    tr.gauges["starmap.json_bytes"] = float(os.path.getsize(args[1]))


def _relation_points(tr, result, args):
    tr.counters["relations.points"] += len(args[2])


def _compiled_size(tr, result, args):
    compiled = args[0]
    tr.gauges["constitution.k"] = float(compiled.k)
    tr.gauges["constitution.n_satisfying"] = float(compiled.n_satisfying)


def _evaluate_rows(tr, result, args):
    tr.counters["constitution.evaluate.rows"] += np.atleast_2d(args[1]).shape[0]


def _clamped_points(tr, result, args):
    field, points = args[0], np.atleast_2d(np.asarray(args[1], dtype=float))
    tr.counters["field.points"] += len(points)
    tr.counters["field.clamped"] += int((~field.grid.contains(points)).sum())


def _filter_steps(tr, result, args):
    tr.counters["particlefilter.steps"] += len(result[1])


def _skipped_tracks(tr, result, args):
    _, report = result
    tr.counters["trust.skipped_tracks"] += sum(b.skipped_tracks for b in report.buckets)


def _relation_span(args) -> str:
    rel = args[1]
    return "relations." + str(getattr(rel, "value", rel))


# (module, attribute path, span name or function of the call's args, hook).
# Functions are wrapped where the pipeline looks them up: a name imported
# into cstrack.cli is wrapped in cstrack.cli, a module-internal call in its
# own module. Methods are wrapped on their class.
WRAPS = (
    ("cstrack.cli", "read_ais_csv", "ingest.read_ais_csv", _ingest_stats),
    ("cstrack.cli", "segment_tracks", "ingest.segment_tracks", None),
    ("cstrack.cli", "resample_track", "ingest.resample_track", None),
    ("cstrack.cli", "save_tracks", "ingest.save_tracks", None),
    ("cstrack.cli", "load_tracks", "ingest.load_tracks", None),
    ("cstrack.cli", "load_geojson", "vectormap.load_geojson", None),
    ("cstrack.evalbench", "load_geojson", "vectormap.load_geojson", None),
    ("cstrack.starmap", "sample_vertex_variants", "vectormap.sample_vertex_variants", None),
    ("cstrack.starmap", "eval_relation_many", _relation_span, _relation_points),
    ("cstrack.cli", "build_starmap", "starmap.build_starmap", _starmap_cells),
    ("cstrack.evalbench", "build_starmap", "starmap.build_starmap", _starmap_cells),
    ("cstrack.cli", "save_starmap", "starmap.save_starmap", _starmap_bytes),
    ("cstrack.cli", "load_starmap", "starmap.load_starmap", None),
    ("cstrack.constitution.environment", "interpolate_many", "starmap.interpolate_many", None),
    ("cstrack.starmap", "bilinear", "grids.bilinear", None),
    ("cstrack.constitution.field", "bilinear", "grids.bilinear", None),
    ("cstrack.cli", "parse", "constitution.parse", None),
    ("cstrack.evalbench", "parse", "constitution.parse", None),
    ("cstrack.constitution.environment", "ground", "constitution.ground", None),
    ("cstrack.constitution.inference", "CompiledQuery.__init__", "constitution.compile",
     _compiled_size),
    ("cstrack.constitution.inference", "CompiledQuery.evaluate", "constitution.evaluate",
     _evaluate_rows),
    ("cstrack.constitution.environment", "ConstitutionEvaluator.parameter_matrix",
     "constitution.parameter_matrix", None),
    ("cstrack.cli", "precompute_field", "constitution.precompute_field", None),
    ("cstrack.evalbench", "precompute_field", "constitution.precompute_field", None),
    ("cstrack.constitution.field", "ConstitutionField.at_clamped", "field.at_clamped",
     _clamped_points),
    ("cstrack.particlefilter", "predict", "particlefilter.predict", None),
    ("cstrack.particlefilter", "update_measurement", "particlefilter.update_measurement", None),
    ("cstrack.particlefilter", "update_constitution", "particlefilter.update_constitution",
     None),
    ("cstrack.particlefilter", "resample", "particlefilter.resample", None),
    ("cstrack.particlefilter", "estimate", "particlefilter.estimate", None),
    ("cstrack.cli", "run_filter", "particlefilter.run_filter", _filter_steps),
    ("cstrack.trust", "run_filter", "particlefilter.run_filter", _filter_steps),
    ("cstrack.evalbench", "run_filter", "particlefilter.run_filter", _filter_steps),
    ("cstrack.cli", "calibrate", "trust.calibrate", _skipped_tracks),
    ("cstrack.cli", "load_scenario", "evalbench.load_scenario", None),
    ("cstrack.evalbench", "simulate_agent", "evalbench.simulate_agent", None),
    ("cstrack.cli", "run_ablation", "evalbench.run_ablation", None),
)


def _wrapper(tracer: Tracer, original, name, hook):
    namer = name if callable(name) else None

    @functools.wraps(original)
    def traced(*args, **kwargs):
        span_name = namer(args) if namer else name
        try:
            result = tracer.call(span_name, original, args, kwargs)
        except Exception as exc:
            if (span_name == "particlefilter.run_filter"
                    and type(exc).__name__ == "DegenerateBeliefError"):
                tracer.counters["particlefilter.degenerate_runs"] += 1
            raise
        if hook is not None:
            try:
                hook(tracer, result, args)
            except (AttributeError, TypeError, ValueError, IndexError, KeyError, OSError):
                tracer.missing.add(hook.__name__)
        return result

    return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every target in WRAPS for the duration of the block."""
    restore = []
    try:
        for module_name, path, name, hook in WRAPS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            try:
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except AttributeError:
                tracer.missing.add(f"{module_name}.{path}")
                continue
            restore.append((owner, attr, original))
            setattr(owner, attr, _wrapper(tracer, original, name, hook))
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


CLI_COMMANDS = ("ingest", "build-starmap", "field", "track", "calibrate", "bench")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Per-layer metrics of the traced run (the per_layer list in BENCHMARK.json).
# A name ending in .s, .self_s or .calls is read from the spans of that
# name; the others are counters. Times and counts are per traced pass.
PER_LAYER = (
    ("vectormap.sample_vertex_variants.s", "s"),
    ("relations.over.s", "s"),
    ("relations.distance.s", "s"),
    ("relations.depth.s", "s"),
    ("relations.over.calls", "count"),
    ("relations.distance.calls", "count"),
    ("relations.depth.calls", "count"),
    ("relations.points", "count"),
    ("starmap.build_starmap.self_s", "s"),
    ("starmap.save_starmap.s", "s"),
    ("starmap.json_bytes", "B"),
    ("starmap.flagged_fraction", "ratio"),
    ("starmap.load_starmap.s", "s"),
    ("starmap.interpolate_many.s", "s"),
    ("constitution.parse.s", "s"),
    ("constitution.ground.s", "s"),
    ("constitution.compile.s", "s"),
    ("constitution.k", "count"),
    ("constitution.n_satisfying", "count"),
    ("constitution.satisfying_ratio", "ratio"),
    ("constitution.parameter_matrix.s", "s"),
    ("constitution.evaluate.s", "s"),
    ("constitution.evaluate.calls", "count"),
    ("constitution.evaluate.rows", "count"),
    ("constitution.evaluate.filter_calls", "count"),
    ("constitution.precompute_field.s", "s"),
    ("field.at_clamped.s", "s"),
    ("field.at_clamped.calls", "count"),
    ("field.clamped_fraction", "ratio"),
    ("grids.bilinear.s", "s"),
    ("grids.bilinear.calls", "count"),
    ("particlefilter.predict.s", "s"),
    ("particlefilter.update_measurement.s", "s"),
    ("particlefilter.update_constitution.s", "s"),
    ("particlefilter.resample.s", "s"),
    ("particlefilter.estimate.s", "s"),
    ("particlefilter.run_filter.self_s", "s"),
    ("particlefilter.steps", "count"),
    ("particlefilter.resample_ratio", "ratio"),
    ("particlefilter.degenerate_runs", "count"),
    ("trust.calibrate.self_s", "s"),
    ("trust.skipped_tracks", "count"),
    ("evalbench.load_scenario.s", "s"),
    ("evalbench.simulate_agent.s", "s"),
    ("evalbench.run_ablation.self_s", "s"),
    ("ingest.read_ais_csv.s", "s"),
    ("ingest.segment_tracks.s", "s"),
    ("ingest.resample_track.s", "s"),
    ("ingest.records_kept_ratio", "ratio"),
    *((f"cli.{c}.self_s", "s") for c in CLI_COMMANDS),
    *((f"cli.{c}.overhead_s", "s") for c in CLI_COMMANDS),
)


def _calls_under(tracer: Tracer, name: str, ancestor: str) -> int:
    """Spans called `name` that have an enclosing span called `ancestor`."""
    count = 0
    for span in tracer.spans:
        if span[0] != name:
            continue
        parent = span[3]
        while parent is not None and tracer.spans[parent][0] != ancestor:
            parent = tracer.spans[parent][3]
        count += parent is not None
    return count


def per_layer(tracer: Tracer, passes: int, overhead: dict[str, float]) -> dict:
    """The PER_LAYER metrics from a traced run of `passes` workload passes."""
    agg = tracer.aggregate()
    c, g = tracer.counters, tracer.gauges
    k = g.get("constitution.k")
    derived = {
        "starmap.json_bytes": g.get("starmap.json_bytes", 0.0),
        "starmap.flagged_fraction": _ratio(c["starmap.flagged_cells"], c["starmap.cells"]),
        "constitution.k": k or 0.0,
        "constitution.n_satisfying": g.get("constitution.n_satisfying", 0.0),
        "constitution.satisfying_ratio":
            _ratio(g.get("constitution.n_satisfying", 0.0), 2.0 ** k) if k else 0.0,
        "field.clamped_fraction": _ratio(c["field.clamped"], c["field.points"]),
        "particlefilter.resample_ratio": _ratio(
            agg.get("particlefilter.resample", {}).get("calls", 0),
            c["particlefilter.steps"]),
        "ingest.records_kept_ratio": _ratio(c["ingest.records_kept"], c["ingest.records_in"]),
    }
    counts = collections.Counter(c)
    counts["constitution.evaluate.filter_calls"] = _calls_under(
        tracer, "constitution.evaluate", "particlefilter.run_filter")
    per_pass = max(passes, 1)
    out = {}
    for name, unit in PER_LAYER:
        span, _, field = name.rpartition(".")
        if name.startswith("cli.") and field == "overhead_s":
            value = overhead.get(span[4:], 0.0)
        elif field in ("s", "self_s", "calls"):
            value = agg.get(span, {}).get(field, 0) / per_pass
        elif name in derived:
            value = derived[name]
        else:
            value = counts[name] / per_pass
        out[name] = {"value": float(value), "unit": unit}
    return out


def largest_shares(tracer: Tracer, top: int = 3) -> list[str]:
    """For each traced subcommand, the layers with the most self time."""
    child_time = tracer.child_time()
    wall: dict[str, float] = collections.defaultdict(float)
    own: dict[str, dict[str, float]] = collections.defaultdict(
        lambda: collections.defaultdict(float))
    roots = {}
    for name, start, end, parent, op in tracer.spans:
        if parent is None:
            roots[op] = name
            wall[name] += end - start
    for i, (name, start, end, parent, op) in enumerate(tracer.spans):
        if parent is not None:
            own[roots[op]][name] += end - start - child_time[i]
    lines = []
    for root, layers in own.items():
        ranked = sorted(layers.items(), key=lambda kv: -kv[1])[:top]
        lines.append(f"{root} self-time shares: " + ", ".join(
            f"{name} {secs / wall[root]:.0%}" for name, secs in ranked))
    return lines
