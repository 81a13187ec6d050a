"""Engine microbenchmark suite -> ``BENCH_engine.json`` trajectory file.

Usage:  python scripts/bench_engine.py [--scale S] [--repeats N]
                                       [--workers W] [--out PATH]

For each calibrated workload the suite measures steady-state cycles/sec
of two engine configurations:

- ``baseline``  — ``step_cache=0``: the per-active-bit successor loop
  with no memoization, kept as the comparison anchor;
- ``cached``    — the shipping default (the same loop behind the LRU
  step cache), with its measured cache hit rate.

It also times the Table 1 harness serially vs through
``ParallelRunner`` and checks the rows are identical, then writes one
JSON payload (schema below, pinned by ``validate_payload`` and the
tier-2 smoke ``benchmarks/test_bench_engine.py``).

Run via ``make bench-engine``.
"""

import argparse
import json
import math
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.experiments import table1  # noqa: E402
from repro.sim import BitsetEngine  # noqa: E402
from repro.workloads.registry import generate  # noqa: E402

#: Schema identifier written into (and required from) every payload.
SCHEMA = "repro-bench-engine"
SCHEMA_VERSION = 1

#: Default workload subset: the report-heavy, the state-dense, and the
#: sparse ends of the Table 1 suite.
DEFAULT_WORKLOADS = ("Snort", "Brill", "SPM", "Bro217", "Fermi", "Hamming")

#: The measured engine configurations, in presentation order.
KERNEL_CONFIGS = (
    ("baseline", {"step_cache": 0}),
    ("cached", {}),
)

#: ``repro bench run --quick`` overrides: the baseline's scale (speedups
#: are scale-sensitive, so the gate only compares same-scale payloads)
#: with fewer repeats and the fast end of the workload set.
QUICK_PARAMS = {"scale": 0.01, "repeats": 1, "workers": 2,
                "workloads": ("Snort", "Bro217", "Hamming")}


def _cycles_per_sec(engine, data, repeats):
    """(best cycles/sec, [worst, best] band) over ``repeats`` runs."""
    engine.run(data)  # warm-up: fills the step cache
    best = math.inf
    worst = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        engine.run(data)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        worst = max(worst, elapsed)
    return len(data) / best, [len(data) / worst, len(data) / best]


def bench_workload(name, scale, seed, repeats):
    """Cycles/sec for every kernel configuration on one workload."""
    instance = generate(name, scale=scale, seed=seed)
    data = list(instance.input_bytes)
    kernels = {}
    for label, config in KERNEL_CONFIGS:
        engine = BitsetEngine(instance.automaton, **config)
        rate, band = _cycles_per_sec(engine, data, repeats)
        kernels[label] = {
            "step_cache": engine._step_cache_limit,
            "cycles_per_sec": rate,
            "cycles_per_sec_band": band,
            "cache_hit_rate": engine.step_cache_info()["hit_rate"],
        }
    cached = kernels["cached"]
    base = kernels["baseline"]
    return {
        "name": name,
        "states": len(instance.automaton),
        "cycles": len(data),
        "kernels": kernels,
        "speedup": cached["cycles_per_sec"] / base["cycles_per_sec"],
        # Most-pessimistic to most-optimistic pairing of the repeat
        # extremes: the regression gate treats a miss inside this band
        # as noise, not a regression.
        "speedup_band": [
            cached["cycles_per_sec_band"][0] / base["cycles_per_sec_band"][1],
            cached["cycles_per_sec_band"][1] / base["cycles_per_sec_band"][0],
        ],
    }


def bench_harness(names, scale, seed, workers):
    """Serial vs parallel Table 1 wall time over ``names``."""
    start = time.perf_counter()
    serial_rows = table1.run(scale=scale, seed=seed, names=names, workers=1)
    serial_seconds = time.perf_counter() - start
    start = time.perf_counter()
    parallel_rows = table1.run(scale=scale, seed=seed, names=names,
                               workers=workers)
    parallel_seconds = time.perf_counter() - start
    return {
        "experiment": "table1",
        "benchmarks": len(names),
        "workers": workers,
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "rows_identical": serial_rows == parallel_rows,
    }


def run_suite(scale=0.01, seed=0, repeats=3, workers=4,
              workloads=DEFAULT_WORKLOADS):
    """Measure everything; returns the BENCH_engine payload dict."""
    names = tuple(workloads)
    rows = [bench_workload(name, scale, seed, repeats) for name in names]
    geomean = math.exp(
        sum(math.log(row["speedup"]) for row in rows) / len(rows))
    return {
        "version": SCHEMA_VERSION,
        "schema": SCHEMA,
        "scale": scale,
        "seed": seed,
        "repeats": repeats,
        "workloads": rows,
        "geomean_speedup": geomean,
        "harness": bench_harness(names, scale, seed, workers),
    }


def extract_metrics(payload):
    """Scale-insensitive figures of merit for the regression gate.

    Per-workload kernel speedups are self-normalized within one run
    (optimized path vs in-run baseline), so they compare meaningfully
    across machines — unlike absolute cycles/sec.
    """
    return {"speedup:%s" % row["name"]: row["speedup"]
            for row in payload["workloads"]}


def extract_bands(payload):
    """Per-metric ``[lo, hi]`` noise bands from the repeat extremes.

    Absent from payloads recorded before bands existed; the gate treats
    a missing band as "no noise allowance".
    """
    return {"speedup:%s" % row["name"]: row["speedup_band"]
            for row in payload["workloads"] if "speedup_band" in row}


def _require(condition, message):
    if not condition:
        raise ValueError("BENCH_engine payload invalid: %s" % message)


def validate_payload(payload):
    """Schema check for the trajectory file; raises ValueError on drift.

    Returns the payload unchanged so callers can chain.
    """
    _require(isinstance(payload, dict), "expected an object")
    _require(payload.get("schema") == SCHEMA, "schema != %r" % SCHEMA)
    _require(payload.get("version") == SCHEMA_VERSION,
             "version != %d" % SCHEMA_VERSION)
    for field in ("scale", "seed", "repeats", "geomean_speedup"):
        _require(isinstance(payload.get(field), (int, float)),
                 "%s must be a number" % field)
    rows = payload.get("workloads")
    _require(isinstance(rows, list) and rows, "workloads must be non-empty")
    for row in rows:
        _require(isinstance(row.get("name"), str), "workload name")
        for field in ("states", "cycles"):
            _require(isinstance(row.get(field), int) and row[field] > 0,
                     "%s must be a positive int" % field)
        _require(isinstance(row.get("speedup"), (int, float)),
                 "workload speedup")
        kernels = row.get("kernels")
        _require(isinstance(kernels, dict)
                 and set(kernels) == {label for label, _ in KERNEL_CONFIGS},
                 "kernels must cover %s" % [l for l, _ in KERNEL_CONFIGS])
        for label, stats in kernels.items():
            _require(stats.get("cycles_per_sec", 0) > 0,
                     "%s cycles_per_sec" % label)
            _require(0.0 <= stats.get("cache_hit_rate", -1) <= 1.0,
                     "%s cache_hit_rate" % label)
        # Noise bands are optional (older payloads predate them).
        band = row.get("speedup_band")
        if band is not None:
            _require(isinstance(band, list) and len(band) == 2
                     and 0 < band[0] <= band[1], "speedup_band")
    harness = payload.get("harness")
    _require(isinstance(harness, dict), "harness must be an object")
    _require(harness.get("rows_identical") is True,
             "parallel harness rows diverged from serial")
    for field in ("serial_seconds", "parallel_seconds"):
        _require(harness.get(field, 0) > 0, "harness %s" % field)
    _require(isinstance(harness.get("workers"), int)
             and harness["workers"] >= 1, "harness workers")
    return payload


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.01)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--workloads", nargs="+", default=DEFAULT_WORKLOADS)
    parser.add_argument("--out", default="BENCH_engine.json")
    args = parser.parse_args(argv)

    payload = run_suite(scale=args.scale, seed=args.seed,
                        repeats=args.repeats, workers=args.workers,
                        workloads=args.workloads)
    validate_payload(payload)
    pathlib.Path(args.out).write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    for row in payload["workloads"]:
        print("%-16s %8d states  baseline %10.0f c/s   cached "
              "%10.0f c/s  (%.2fx, hit %.1f%%)" % (
                  row["name"], row["states"],
                  row["kernels"]["baseline"]["cycles_per_sec"],
                  row["kernels"]["cached"]["cycles_per_sec"],
                  row["speedup"],
                  100 * row["kernels"]["cached"]["cache_hit_rate"]))
    harness = payload["harness"]
    print("geomean speedup: %.2fx" % payload["geomean_speedup"])
    print("table1 harness: %.2fs serial -> %.2fs with %d workers" % (
        harness["serial_seconds"], harness["parallel_seconds"],
        harness["workers"]))
    print("wrote %s" % args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
