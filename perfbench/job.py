"""One benchmark job, run in a fresh interpreter by ``run.py``.

Usage: ``python3 perfbench/job.py SPEC_JSON`` with ``src`` on
``PYTHONPATH``.  The spec names the job kind and its inputs; the job
writes one JSON result to ``spec["out"]``.  Kinds:

- ``scorecard`` — ``build_scorecard`` over all benchmarks against the
  (empty) artifact directory ``spec["artifact_dir"]``;
- ``scan`` — the ``repro match --prefilter`` calls (``to_rate(source,
  4)``, ``SunderDevice.configure``, ``build_prefilter``,
  ``gated_device_run``) over generated benchmark streams;
- ``oracle`` — report-set digests of the same streams from an engine
  run on the 8-bit source (``BitsetEngine`` by default, ``NaiveEngine``
  when ``spec["engine"] == "naive"``).

With ``spec["trace"]`` the job attaches the ``repro.obs`` collector and
wraps the layer entry points (``tracing.py``); the result then carries
the per-layer metrics and the spans go to ``spec["trace_out"]``.
"""

from time import perf_counter

_START = perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402

_MB = 1e6


def report_set(pairs):
    """(digest, size) of a set of ``(byte_position, report_code)``.

    The digest does not depend on the order of ``pairs``.
    """
    unique = sorted(set(pairs), key=lambda pair: (pair[0], str(pair[1])))
    digest = hashlib.sha256()
    for position, code in unique:
        digest.update(("%d\t%s\n" % (position, code)).encode("utf-8"))
    return digest.hexdigest(), len(unique)


def instances(spec):
    """The job's benchmark instances, in stream order."""
    from repro.workloads import registry
    return [registry.generate(name, scale=spec["scale"], seed=seed)
            for name, seed in spec["streams"]]


def run_scorecard(spec, recorder):
    """Scorecard from an empty store; returns (setup_s, result)."""
    from repro.experiments import (figure8, figure9, figure10, scorecard,
                                   table1, table3, table4)
    from repro.runtime import Runtime
    from repro.runtime import store as runtime_store
    from repro.transform import cache as transform_cache

    directory = spec["artifact_dir"]
    runtime_store.configure(directory=directory)
    transform_cache.configure(directory=os.path.join(directory, "transforms"))
    rows = {}
    for module in (table1, table3, table4, figure8, figure9, figure10):
        module.run = _keep_rows(module.run, module.__name__.rsplit(".")[-1],
                                rows)
    compile_seconds = tracing.stage_timer(("to_rate", "place"))
    setup = perf_counter() - _START
    root = recorder.open(tracing.ROOT) if recorder else None
    start = perf_counter()
    claims = scorecard.build_scorecard(scale=spec["scale"], seed=spec["seed"],
                                       runtime=Runtime(workers=1))
    wall = perf_counter() - start
    if root:
        recorder.close(root)
    input_bytes = sum(row["byte_cycles"] for row in rows["table4"][0])
    return setup, {
        "wall_s": wall,
        "root_s": wall,
        "compile_s": compile_seconds[0],
        "scan_mbps": input_bytes / _MB / wall,
        "input_bytes": input_bytes,
        "claims": [{"claim": claim.name, "measured": claim.measured,
                    "passed": claim.passed} for claim in claims],
        "rows_digest": hashlib.sha256(json.dumps(
            rows, sort_keys=True).encode("utf-8")).hexdigest(),
        "rows": rows,
    }


def _keep_rows(run, name, rows):
    def wrapper(*args, **kwargs):
        result = run(*args, **kwargs)
        rows[name] = result
        return result
    return wrapper


def run_scan(spec, recorder):
    """Compile and scan every stream; returns (setup_s, result)."""
    from repro.core import SunderConfig, SunderDevice
    from repro.prefilter import gate
    from repro.transform import pipeline

    # The traced root covers generation too, so the workloads layer
    # shows in the ledger; generation stays out of the measured phase.
    root = recorder.open(tracing.ROOT) if recorder else None
    generate_start = perf_counter()
    sources = instances(spec)
    generated = perf_counter()
    setup = generated - _START
    compile_s = scan_s = 0.0
    scanned = 0
    digests, reports = [], []
    for instance in sources:
        source = instance.automaton
        data = bytes(instance.input_bytes)
        start = perf_counter()
        machine = pipeline.to_rate(source, 4)
        device = SunderDevice(SunderConfig(rate_nibbles=4, report_bits=16))
        device.configure(machine)
        prefilter = gate.build_prefilter(source)
        compiled = perf_counter()
        events = gate.gated_device_run(device, machine, data, source=source,
                                       prefilter=prefilter).events
        done = perf_counter()
        compile_s += compiled - start
        scan_s += done - compiled
        scanned += len(data)
        per_byte = 8 // machine.bits
        digest, count = report_set((event.position // per_byte,
                                    event.report_code) for event in events)
        digests.append(digest)
        reports.append(count)
    if root:
        recorder.close(root)
    return setup, {
        "wall_s": compile_s + scan_s,
        "root_s": generated - generate_start + compile_s + scan_s,
        "compile_s": compile_s,
        "scan_mbps": scanned / _MB / scan_s,
        "input_bytes": scanned,
        "digests": digests,
        "reports": reports,
    }


def run_oracle(spec):
    """Reference report-set digests of the job's streams."""
    from repro.sim import BitsetEngine, NaiveEngine

    engine_class = NaiveEngine if spec.get("engine") == "naive" \
        else BitsetEngine
    digests, reports = [], []
    for instance in instances(spec):
        events = engine_class(instance.automaton).run(
            list(instance.input_bytes)).events
        digest, count = report_set((event.position, event.report_code)
                                   for event in events)
        digests.append(digest)
        reports.append(count)
    return {"digests": digests, "reports": reports}


def _counter(snapshot, name):
    """Sum of every sample of one counter in an obs snapshot."""
    for metric in snapshot["metrics"]:
        if metric["name"] == name:
            return sum(sample["value"] for sample in metric["samples"])
    raise KeyError(name)


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans, snapshot):
    """Per-layer metrics of one traced job."""
    metrics = tracing.ledger(spans)
    count = lambda name: _counter(snapshot, name)  # noqa: E731
    hits = count("repro_transform_cache_hits_total")
    metrics["transform.cache_hit_ratio"] = _ratio(
        hits, hits + count("repro_transform_cache_misses_total"))
    metrics["sim.cycles"] = count("repro_engine_cycles_total")
    metrics["sim.cycles_per_s"] = _ratio(metrics["sim.cycles"],
                                         metrics["sim.engine_run_s"])
    hits = count("repro_engine_step_cache_hits_total")
    metrics["sim.step_cache_hit_ratio"] = _ratio(
        hits, hits + count("repro_engine_step_cache_misses_total"))
    metrics["sim.reports"] = (count("repro_engine_reports_total")
                              + metrics.pop("sim.decoded_reports"))
    metrics["core.device_cycles"] = count("repro_device_cycles_total")
    hits = count("repro_device_kernel_step_cache_hits_total")
    metrics["core.device_step_cache_hit_ratio"] = _ratio(
        hits, hits + count("repro_device_kernel_step_cache_misses_total"))
    metrics["runtime.bytes_written"] = (
        count("repro_runtime_artifact_bytes_written_total")
        + count("repro_transform_cache_bytes_written_total"))
    skipped = count("repro_prefilter_skipped_cycles_total")
    metrics["prefilter.skipped_cycle_ratio"] = _ratio(
        skipped, skipped + count("repro_prefilter_gated_cycles_total"))
    metrics["prefilter.verified_window_ratio"] = _ratio(
        count("repro_prefilter_verified_windows_total"),
        count("repro_prefilter_candidate_windows_total"))
    return metrics


def main(spec):
    if spec["kind"] == "oracle":
        return run_oracle(spec)
    recorder = None
    if spec["trace"]:
        from repro import obs
        recorder = tracing.SpanRecorder()
        tracing.install(recorder)
        registry = obs.MetricsRegistry()
        obs.attach(registry=registry, trace=obs.TraceCollector())
    run = run_scorecard if spec["kind"] == "scorecard" else run_scan
    setup, result = run(spec, recorder)
    result["setup_s"] = setup
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if recorder:
        snapshot = registry.snapshot()
        obs.detach()
        result["layers"] = layer_metrics(recorder.spans, snapshot)
        recorder.write(spec["trace_out"])
    return result


if __name__ == "__main__":
    job_spec = json.loads(sys.argv[1])
    outcome = main(job_spec)
    with open(job_spec["out"], "w", encoding="utf-8") as out:
        json.dump(outcome, out)
