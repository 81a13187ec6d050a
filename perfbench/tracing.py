"""Span recording around the program's public entry points.

The traced run wraps the entry points of each layer from here, so no
span is added to the program itself.  Every call becomes a span
(name, start, end, parent) kept in memory; :func:`ledger` turns the
spans into per-layer self times that, with the time no span covers
(the residue), add up to the root span's wall time.

An untraced scorecard job installs only two light wrappers: the stage
timers behind ``compile_s`` (:func:`stage_timer`, two ``perf_counter``
calls per stage execution) and, in ``job.py``, the capture of each
experiment's rows for the output check.
"""

import functools
import json
import os
from time import perf_counter

#: Span name -> the self-time metric its self time is charged to.
SELF_METRIC = {
    "workloads.generate": "workloads.generate_s",
    "transform.to_rate": "transform.to_rate_s",
    "transform.nibble": "transform.nibble_s",
    "transform.stride": "transform.stride_s",
    "sim.engine_run": "sim.engine_run_s",
    "core.place": "core.place_s",
    "core.drain_model": "core.drain_model_s",
    "core.device_configure": "core.device_configure_s",
    "core.device_run": "core.device_run_s",
    "baselines.ap_model": "baselines.ap_model_s",
    "runtime.execute": "runtime.scheduler_s",
    "runtime.store_get": "runtime.store_get_s",
    "runtime.store_put": "runtime.store_put_s",
    "prefilter.build": "prefilter.build_s",
    "prefilter.scan": "prefilter.scan_s",
    "prefilter.gate": "prefilter.gate_s",
}

#: Stages whose self time is simulation work outside the engine
#: (vectorizing, building the recorder and the ``SimRun``).
SIMULATE_STAGES = ("simulate8", "simulate_strided")

ROOT = "job"

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2.0 ** 20


def resident_mb():
    """Current resident set size of this process in MB."""
    with open("/proc/self/statm", "r", encoding="ascii") as handle:
        return int(handle.read().split()[1]) * _PAGE_MB


class SpanRecorder:
    """In-memory span list plus the open-span stack of one thread."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def open(self, name):
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "start": perf_counter(), "end": None}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span["end"] = perf_counter()
        self._stack.pop()

    def wrap(self, func, name, on_result=None, rss=False):
        """``func`` recording one span per call.

        ``on_result(span, result)`` may attach counts to the span;
        ``rss`` records the resident-set growth across the call.
        """
        recorder = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = recorder.open(name)
            if rss:
                before = resident_mb()
            try:
                result = func(*args, **kwargs)
            finally:
                recorder.close(span)
            if rss:
                span["rss_growth_mb"] = resident_mb() - before
            if on_result is not None:
                on_result(span, result)
            return result
        return wrapper

    def write(self, path):
        """Write the spans as JSON lines (times relative to the first)."""
        origin = self.spans[0]["start"] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                record = dict(span)
                record["start"] -= origin
                record["end"] -= origin
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def _count(key, value_of):
    def on_result(span, result):
        span[key] = value_of(result)
    return on_result


def install(recorder):
    """Wrap every layer entry point the benchmark traces.

    Module attributes are patched where the callers look them up, so a
    function imported by name into another module is patched there too.
    """
    from repro.baselines.ap import ApReportingModel
    from repro.core import device as device_module
    from repro.core.device import SunderDevice
    from repro.core.perfmodel import ReportingPerfModel
    from repro.prefilter import gate
    from repro.runtime import graph, stages, store
    from repro.sim.engine import BitsetEngine
    from repro.transform import pipeline
    from repro.workloads import registry

    def patch(owner, attr, name, **options):
        setattr(owner, attr, recorder.wrap(getattr(owner, attr), name,
                                           **options))

    patch(registry, "generate", "workloads.generate")
    to_rate = recorder.wrap(pipeline.to_rate, "transform.to_rate",
                            on_result=_count("states_out", len))
    pipeline.to_rate = to_rate
    stages.to_rate = to_rate
    patch(pipeline, "to_nibbles", "transform.nibble")
    patch(pipeline, "stride", "transform.stride")
    for method in ("run", "run_sharded", "run_window_lanes"):
        patch(BitsetEngine, method, "sim.engine_run")
    place = recorder.wrap(stages.place, "core.place")
    stages.place = place
    device_module.place = place
    patch(ReportingPerfModel, "evaluate", "core.drain_model")
    patch(stages, "pu_fill_cycles_from_events", "core.drain_model")
    patch(stages, "sensitivity_slowdown", "core.drain_model")
    patch(SunderDevice, "configure", "core.device_configure")
    for method in ("run", "run_gated", "run_gated_lanes"):
        patch(SunderDevice, method, "core.device_run")
    patch(ApReportingModel, "evaluate", "baselines.ap_model")
    patch(graph.Runtime, "execute", "runtime.execute")
    patch(store.ArtifactStore, "get", "runtime.store_get",
          on_result=_count("hit", lambda value: value is not None))
    patch(store.ArtifactStore, "put", "runtime.store_put")
    patch(gate, "build_prefilter", "prefilter.build")
    patch(gate.Prefilter, "scan", "prefilter.scan")
    patch(gate, "gated_device_run", "prefilter.gate",
          on_result=_count("reports", lambda rec: len(rec.events)))
    for name, entry in stages.REGISTRY.items():
        entry.func = recorder.wrap(
            entry.func, "runtime.stage." + name,
            rss=name in SIMULATE_STAGES)


def stage_timer(names):
    """Accumulate host seconds spent in the named runtime stages.

    Returns a one-element list the wrapped stages add their time to.
    """
    from repro.runtime import stages

    total = [0.0]

    def timed(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                total[0] += perf_counter() - start
        return wrapper

    for name in names:
        entry = stages.REGISTRY[name]
        entry.func = timed(entry.func)
    return total


def _self_times(spans):
    """Self time of every span: its duration minus its children's."""
    own = [span["end"] - span["start"] for span in spans]
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def ledger(spans):
    """Per-layer metrics from one job's spans.

    Returns a dict of metric name -> value.  The ``*_s`` self-time
    entries named in :data:`SELF_METRIC`, ``sim.outside_engine_s``,
    ``runtime.stage_self_s`` and ``trace.residue_s`` partition the root
    span, so they add up to ``trace.wall_s``.
    """
    from repro.runtime import stages

    metrics = dict.fromkeys(sorted(set(SELF_METRIC.values())), 0.0)
    metrics.update({"sim.outside_engine_s": 0.0, "runtime.stage_self_s": 0.0,
                    "sim.simulate_s": 0.0, "sim.rss_growth_mb": 0.0,
                    "transform.states_out": 0, "runtime.store_hits": 0,
                    "runtime.store_misses": 0, "sim.decoded_reports": 0})
    for name in stages.REGISTRY:
        metrics["runtime.stage_s." + name] = 0.0
    own = _self_times(spans)
    for span, self_time in zip(spans, own):
        name = span["name"]
        duration = span["end"] - span["start"]
        if name == ROOT:
            metrics["trace.residue_s"] = self_time
            metrics["trace.wall_s"] = duration
        elif name.startswith("runtime.stage."):
            stage = name[len("runtime.stage."):]
            metrics["runtime.stage_s." + stage] += duration
            if stage in SIMULATE_STAGES:
                metrics["sim.outside_engine_s"] += self_time
                metrics["sim.simulate_s"] += duration
            else:
                metrics["runtime.stage_self_s"] += self_time
        else:
            metrics[SELF_METRIC[name]] += self_time
        metrics["sim.rss_growth_mb"] += span.get("rss_growth_mb", 0.0)
        metrics["transform.states_out"] += span.get("states_out", 0)
        metrics["sim.decoded_reports"] += span.get("reports", 0)
        if "hit" in span:
            key = "runtime.store_hits" if span["hit"] else "runtime.store_misses"
            metrics[key] += 1
    return metrics


def ledger_keys():
    """The metrics whose sum is the root span's wall time."""
    return sorted(set(SELF_METRIC.values())) + [
        "sim.outside_engine_s", "runtime.stage_self_s", "trace.residue_s"]
