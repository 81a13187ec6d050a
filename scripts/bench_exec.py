"""Execution-planner suite -> ``BENCH_exec.json`` trajectory.

Usage:  python scripts/bench_exec.py [--scale S] [--seed N]
                                     [--repeats N] [--out PATH]

For each regex family the suite runs one mostly-clean input stream
through a planned :class:`~repro.exec.Session` twice per manual
configuration and once auto-planned:

- **manual configs** — every hand-pickable plan that is valid for the
  family's machine: ``serial`` (the all-defaults plan), ``nocache``
  (the step cache disabled — the reliably worst choice), ``shards4`` (acyclic machines only), and ``gated`` (the
  literal prefilter; filterable machines only);
- **auto** — a plan-free session, so the
  :class:`~repro.exec.Planner` picks the strategy from the machine's
  memoized traits and the stream shape.

The acceptance figure the committed baseline pins: the auto plan's
streams/sec is >= 0.95x the *best* manual configuration and strictly
above the *worst* one on every family — i.e. the planner never costs
more than noise and always dodges the bad configuration.

The payload schema below is pinned by ``validate_payload`` and the
tier-2 smoke ``benchmarks/test_bench_exec.py``; the committed
``BENCH_exec.json`` feeds the ``repro bench`` regression gate.

Run via ``make bench-exec``.
"""

import argparse
import json
import math
import pathlib
import random
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.exec import ExecutionPlan, Session, automaton_traits  # noqa: E402
from repro.regex import compile_ruleset  # noqa: E402

#: Schema identifier written into (and required from) every payload.
SCHEMA = "repro-bench-exec"
SCHEMA_VERSION = 1

#: Benchmarked regex families (a filterable-acyclic, an alternation, and
#: a cyclic machine — one per planner strategy regime).
FAMILIES = {
    "exact": ["abc", "hello", "needle"],
    "alternation": ["q(rs|tu)v", "(foo|bar)"],
    "dotstar": ["a.*b"],
}
DEFAULT_FAMILIES = tuple(sorted(FAMILIES))

#: Clean filler the planted literals sit in (never matches the rules).
NOISE = b"KLMNOPQWRSTUVXYZ"

#: ``repro bench run --quick`` overrides: the baseline's scale (times
#: are scale-sensitive) with one repeat and one family.
QUICK_PARAMS = {"scale": 0.01, "repeats": 1, "families": ("exact",)}


def _stream(rules, length, seed):
    """A mostly-clean stream with a few planted rule literals."""
    rng = random.Random(seed)
    data = bytearray(rng.choice(NOISE) for _ in range(length))
    for index, rule in enumerate(rules):
        seed_text = rule.strip("(").split("|")[0]
        literal = "".join(ch for ch in seed_text if ch.isalnum()).encode()
        position = (index * 977 + 13) % max(1, length - 16)
        data[position:position + len(literal)] = literal
    return bytes(data)


def _manual_plans(traits):
    """Every hand-pickable plan that is valid for this machine."""
    plans = {
        "serial": ExecutionPlan(),
        "nocache": ExecutionPlan(step_cache=0),
    }
    if traits.depth_bound is not None:
        plans["shards4"] = ExecutionPlan(shards=4)
    if traits.filterable:
        plans["gated"] = ExecutionPlan(prefilter=True)
    return plans


def _best_and_band(measure, repeats):
    """(best value, [worst, best] band) over ``repeats`` calls."""
    best = 0.0
    worst = math.inf
    for _ in range(repeats):
        value = measure()
        best = max(best, value)
        worst = min(worst, value)
    return best, [worst, best]


def _streams_per_sec(machine, plan, data):
    """One full planned execution, session construction included.

    The session is rebuilt per measurement on purpose: the planner's
    pitch is end-to-end (traits lookup, plan selection, engine bind,
    run), so the auto path pays its own planning cost in the figure.
    """
    start = time.perf_counter()
    Session(machine, plan).execute([data])
    return 1.0 / (time.perf_counter() - start)


def bench_family(family, scale, seed, repeats):
    """Auto-vs-manual planner figures for one regex family."""
    rules = FAMILIES[family]
    machine = compile_ruleset(rules)
    traits = automaton_traits(machine)
    length = max(2048, int(scale * 1_000_000))
    data = _stream(rules, length, seed)

    # Warm the cross-session caches (prefilter build, trait artifacts)
    # so every configuration measures steady-state execution rather
    # than whoever happens to run first paying the cold build.
    if traits.filterable:
        Session(machine, ExecutionPlan(prefilter=True)).execute([data[:256]])

    configs = {}
    for label, plan in sorted(_manual_plans(traits).items()):
        rate, band = _best_and_band(
            lambda p=plan: _streams_per_sec(machine, p, data), repeats)
        configs[label] = {"streams_per_sec": rate, "band": band}

    auto_rate, auto_band = _best_and_band(
        lambda: _streams_per_sec(machine, None, data), repeats)
    strategy = Session(machine)
    strategy.execute([data[:64]])  # bind a plan to read its strategy

    best_label = max(configs, key=lambda k: configs[k]["streams_per_sec"])
    worst_label = min(configs, key=lambda k: configs[k]["streams_per_sec"])

    def ratio(label):
        entry = configs[label]
        return {
            "config": label,
            "speedup": auto_rate / entry["streams_per_sec"],
            "band": [auto_band[0] / entry["band"][1],
                     auto_band[1] / entry["band"][0]],
        }

    return {
        "name": family,
        "rules": rules,
        "states": len(machine),
        "cycles": length,
        "strategy": strategy.plan.strategy,
        "auto": {"streams_per_sec": auto_rate, "band": auto_band},
        "configs": configs,
        "auto_vs_best": ratio(best_label),
        "auto_vs_worst": ratio(worst_label),
    }


def run_suite(scale=0.01, seed=0, repeats=3, families=DEFAULT_FAMILIES):
    """Measure everything; returns the BENCH_exec payload dict."""
    rows = [bench_family(family, scale, seed, repeats)
            for family in families]
    ratios = [row["auto_vs_best"]["speedup"] for row in rows]
    geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    return {
        "version": SCHEMA_VERSION,
        "schema": SCHEMA,
        "scale": scale,
        "seed": seed,
        "repeats": repeats,
        "families": rows,
        "auto_vs_best_geomean": geomean,
    }


def extract_metrics(payload):
    """Scale-insensitive figures of merit for the regression gate.

    Both ratios are self-normalized within one run (auto plan vs manual
    configurations on the same machine), so they compare across hosts.
    """
    metrics = {}
    for row in payload["families"]:
        metrics["auto_vs_best:%s" % row["name"]] = \
            row["auto_vs_best"]["speedup"]
        metrics["auto_vs_worst:%s" % row["name"]] = \
            row["auto_vs_worst"]["speedup"]
    return metrics


def extract_bands(payload):
    """Per-metric ``[lo, hi]`` noise bands from the repeat extremes."""
    bands = {}
    for row in payload["families"]:
        bands["auto_vs_best:%s" % row["name"]] = row["auto_vs_best"]["band"]
        bands["auto_vs_worst:%s" % row["name"]] = \
            row["auto_vs_worst"]["band"]
    return bands


def _require(condition, message):
    if not condition:
        raise ValueError("BENCH_exec payload invalid: %s" % message)


def validate_payload(payload):
    """Schema check for the trajectory file; raises ValueError on drift.

    Returns the payload unchanged so callers can chain.
    """
    _require(isinstance(payload, dict), "expected an object")
    _require(payload.get("schema") == SCHEMA, "schema != %r" % SCHEMA)
    _require(payload.get("version") == SCHEMA_VERSION,
             "version != %d" % SCHEMA_VERSION)
    for field in ("scale", "seed", "repeats", "auto_vs_best_geomean"):
        _require(isinstance(payload.get(field), (int, float)),
                 "%s must be a number" % field)
    rows = payload.get("families")
    _require(isinstance(rows, list) and rows, "families must be non-empty")
    for row in rows:
        _require(row.get("name") in FAMILIES, "unknown family %r"
                 % row.get("name"))
        for field in ("states", "cycles"):
            _require(isinstance(row.get(field), int) and row[field] > 0,
                     "%s must be a positive int" % field)
        _require(isinstance(row.get("strategy"), str), "strategy")
        auto = row.get("auto")
        _require(isinstance(auto, dict)
                 and auto.get("streams_per_sec", 0) > 0, "auto rate")
        configs = row.get("configs")
        _require(isinstance(configs, dict)
                 and {"serial", "nocache"} <= set(configs),
                 "configs must include the serial and nocache anchors")
        for label, entry in configs.items():
            _require(entry.get("streams_per_sec", 0) > 0,
                     "configs[%s] streams_per_sec" % label)
            band = entry.get("band")
            _require(isinstance(band, list) and len(band) == 2
                     and 0 < band[0] <= band[1],
                     "configs[%s] band" % label)
        for kind in ("auto_vs_best", "auto_vs_worst"):
            entry = row.get(kind)
            _require(isinstance(entry, dict) and entry.get("speedup", 0) > 0,
                     "%s speedup" % kind)
            _require(entry.get("config") in configs,
                     "%s config must name a measured configuration" % kind)
    return payload


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.01)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--families", nargs="+", default=DEFAULT_FAMILIES,
                        choices=sorted(FAMILIES))
    parser.add_argument("--out", default="BENCH_exec.json")
    args = parser.parse_args(argv)

    payload = run_suite(scale=args.scale, seed=args.seed,
                        repeats=args.repeats, families=args.families)
    validate_payload(payload)
    pathlib.Path(args.out).write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    for row in payload["families"]:
        print("%-12s auto=%-7s vs best(%s) %.2fx  vs worst(%s) %.2fx" % (
            row["name"], row["strategy"],
            row["auto_vs_best"]["config"], row["auto_vs_best"]["speedup"],
            row["auto_vs_worst"]["config"],
            row["auto_vs_worst"]["speedup"]))
    print("auto-vs-best geomean: %.3fx" % payload["auto_vs_best_geomean"])
    print("wrote %s" % args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
