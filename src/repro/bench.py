"""Unified benchmark envelope and perf-regression gate (``repro bench``).

The benchmark suites (``scripts/bench_<name>.py`` for every name in
:data:`SUITE_NAMES`) each write their own versioned trajectory
payload.  This module gives them one front door:

- **run** — execute any subset of suites, each in a fresh interpreter,
  and wrap the per-suite payloads (still validated by each script's own
  ``validate_payload``) in a ``repro-bench/v2`` envelope;
- **compare** — diff two envelopes on each suite's *figures of merit*
  (the scale-insensitive speedup ratios exposed by the scripts'
  ``extract_metrics``), gating on the geomean of current/baseline
  ratios with a configurable tolerance;
- **check** — run fresh suites (``--quick`` by default runs each at its
  committed baseline's scale with fewer repeats/workloads) and compare
  against the committed ``BENCH_*.json`` baselines, exiting nonzero on
  regression.

Noise handling, in order of application:

1. figures of merit are speedups (optimized path vs in-run baseline),
   so machine speed and load cancel to first order;
2. the primary gate is the **geomean** of per-metric ratios, so one
   noisy figure cannot fail the suite on its own;
3. an individual metric only counts as a regression below the
   ``metric_floor`` (default :data:`DEFAULT_METRIC_FLOOR`), and even
   then a repeat-based ``[lo, hi]`` band (``extract_bands``, recorded
   from the min/max repeat timings) can clear it: if the most
   favourable repeat still reaches the floor the miss is tagged
   ``noisy`` instead;
4. suites whose payloads were recorded at a different workload scale
   are reported ``incomparable`` and skipped rather than gated —
   speedups are scale-sensitive, so the ratio would be meaningless.
"""

import importlib.util
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile

from .errors import BenchError

#: Envelope schema identifier (wraps the per-suite payload schemas).
SCHEMA = "repro-bench/v2"
SCHEMA_VERSION = 2

#: Every known suite, in the order run/compare/check process them.
SUITE_NAMES = ("engine", "transform", "runtime", "device", "batch",
               "prefilter", "exec", "scale")

#: Fail a suite when the geomean current/baseline ratio drops below this.
DEFAULT_TOLERANCE = 0.75
#: Flag an individual metric only below this ratio (see module docstring).
DEFAULT_METRIC_FLOOR = 0.5

_modules = {}


def repo_root():
    """The checkout root (``scripts/`` and ``BENCH_*.json`` live there)."""
    return pathlib.Path(__file__).resolve().parents[2]


def load_suite(name):
    """Import (and cache) ``scripts/bench_<name>.py`` as a module."""
    if name not in SUITE_NAMES:
        raise BenchError("unknown bench suite %r (choose from %s)"
                         % (name, ", ".join(SUITE_NAMES)))
    module = _modules.get(name)
    if module is None:
        path = repo_root() / "scripts" / ("bench_%s.py" % name)
        if not path.is_file():
            raise BenchError("bench suite script missing: %s" % path)
        spec = importlib.util.spec_from_file_location(
            "repro_bench_%s" % name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        _modules[name] = module
    return module


def build_envelope(suites, quick=False):
    """Wrap validated per-suite payloads in a v2 envelope dict."""
    return {
        "schema": SCHEMA,
        "version": SCHEMA_VERSION,
        "quick": bool(quick),
        "suites": dict(suites),
    }


def validate_envelope(envelope):
    """Check the envelope wrapper and every wrapped payload.

    Raises :class:`BenchError`; returns the envelope unchanged.
    """
    if not isinstance(envelope, dict):
        raise BenchError("bench envelope must be an object")
    if envelope.get("schema") != SCHEMA:
        raise BenchError("bench envelope schema %r != %r"
                         % (envelope.get("schema"), SCHEMA))
    if envelope.get("version") != SCHEMA_VERSION:
        raise BenchError("bench envelope version %r != %d"
                         % (envelope.get("version"), SCHEMA_VERSION))
    suites = envelope.get("suites")
    if not isinstance(suites, dict) or not suites:
        raise BenchError("bench envelope has no suites")
    for name, payload in suites.items():
        module = load_suite(name)
        try:
            module.validate_payload(payload)
        except ValueError as error:
            raise BenchError("suite %r: %s" % (name, error)) from error
    return envelope


def run_suites(names=None, quick=False, progress=None):
    """Execute the named suites; returns a validated v2 envelope.

    Each suite runs in a fresh interpreter (:func:`run_suite_isolated`),
    so heap size, caches and pools left behind by one suite cannot leak
    into the timings of the next, and the verdict does not depend on
    the order the suites run in.  ``quick`` applies each script's
    ``QUICK_PARAMS`` (same scale as the committed baseline, fewer
    repeats/workloads).  ``progress`` is an optional callable fed one
    status line per suite.
    """
    payloads = {}
    for name in names or SUITE_NAMES:
        if progress is not None:
            progress("running bench suite %r%s ..."
                     % (name, " (quick)" if quick else ""))
        payloads[name] = run_suite_isolated(name, quick=quick)
    return build_envelope(payloads, quick=quick)


def run_suite_isolated(name, quick=False):
    """Run one suite in a fresh interpreter; returns its validated payload.

    The child (``python -m repro.bench NAME OUT [--quick]``) writes the
    payload to a temporary file; it is validated again on this side.
    Raises :class:`BenchError` when the child fails.
    """
    module = load_suite(name)
    src = str(pathlib.Path(__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src, env.get("PYTHONPATH")) if part)
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as scratch:
        out = os.path.join(scratch, "payload.json")
        command = [sys.executable, "-m", "repro.bench", name, out]
        if quick:
            command.append("--quick")
        child = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True)
        if child.returncode != 0:
            tail = "\n".join(child.stderr.strip().splitlines()[-5:])
            raise BenchError("bench suite %r failed (exit %d): %s"
                             % (name, child.returncode, tail))
        with open(out, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    try:
        module.validate_payload(payload)
    except ValueError as error:
        raise BenchError("suite %r: %s" % (name, error)) from error
    return payload


def _run_suite_here(name, quick):
    """Run one suite in this process; returns its validated payload."""
    module = load_suite(name)
    params = dict(getattr(module, "QUICK_PARAMS", {})) if quick else {}
    payload = module.run_suite(**params)
    module.validate_payload(payload)
    return payload


def load_envelope(path):
    """Read an envelope (or a bare per-suite payload) from a JSON file.

    A single-suite ``BENCH_*.json`` payload is wrapped on the fly so
    ``compare`` accepts both shapes.
    """
    path = pathlib.Path(path)
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        raise BenchError("cannot read bench file %s: %s"
                         % (path, error)) from error
    if isinstance(document, dict) and document.get("schema") == SCHEMA:
        return validate_envelope(document)
    schema = document.get("schema", "") if isinstance(document, dict) else ""
    for name in SUITE_NAMES:
        if schema == getattr(load_suite(name), "SCHEMA", None):
            return validate_envelope(build_envelope({name: document}))
    raise BenchError("%s is neither a %s envelope nor a known suite payload"
                     % (path, SCHEMA))


def load_baseline(root=None, names=None):
    """Assemble the committed ``BENCH_*.json`` files into an envelope.

    ``root`` defaults to the checkout root.  Suites without a committed
    baseline are simply absent (compare reports them as skipped).
    """
    root = pathlib.Path(root) if root is not None else repo_root()
    if root.is_file():
        return load_envelope(root)
    payloads = {}
    for name in names or SUITE_NAMES:
        path = root / ("BENCH_%s.json" % name)
        if path.is_file():
            payloads[name] = json.loads(path.read_text(encoding="utf-8"))
    if not payloads:
        raise BenchError("no BENCH_*.json baselines found under %s" % root)
    return validate_envelope(build_envelope(payloads))


def _geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _compare_suite(name, current, baseline, tolerance, metric_floor):
    """Comparison record for one suite present in both envelopes."""
    module = load_suite(name)
    if current.get("scale") != baseline.get("scale"):
        return {
            "status": "incomparable",
            "reason": "scale %r != baseline scale %r (speedups are "
                      "scale-sensitive)" % (current.get("scale"),
                                            baseline.get("scale")),
        }
    current_metrics = module.extract_metrics(current)
    baseline_metrics = module.extract_metrics(baseline)
    bands = getattr(module, "extract_bands", lambda payload: {})(current)
    shared = sorted(set(current_metrics) & set(baseline_metrics))
    if not shared:
        return {"status": "incomparable",
                "reason": "no shared figures of merit"}
    metrics = {}
    regressions = []
    for metric in shared:
        ratio = current_metrics[metric] / baseline_metrics[metric]
        status = "ok"
        if ratio < metric_floor:
            band = bands.get(metric)
            best_case = (band[1] / baseline_metrics[metric]
                         if band else ratio)
            if best_case >= metric_floor:
                status = "noisy"
            else:
                status = "regression"
                regressions.append(metric)
        metrics[metric] = {
            "current": current_metrics[metric],
            "baseline": baseline_metrics[metric],
            "ratio": ratio,
            "status": status,
        }
    geomean = _geomean([entry["ratio"] for entry in metrics.values()])
    passed = geomean >= tolerance and not regressions
    return {
        "status": "pass" if passed else "regression",
        "geomean_ratio": geomean,
        "metrics": metrics,
        "regressions": regressions,
    }


def compare_envelopes(current, baseline, tolerance=DEFAULT_TOLERANCE,
                      metric_floor=DEFAULT_METRIC_FLOOR):
    """Diff two envelopes; returns the comparison report dict.

    ``report["passed"]`` is the gate verdict: False when any shared
    suite regressed.  Suites present in only one envelope are listed in
    ``report["skipped"]`` and do not affect the verdict.
    """
    validate_envelope(current)
    validate_envelope(baseline)
    shared = sorted(set(current["suites"]) & set(baseline["suites"]))
    skipped = sorted(set(current["suites"]) ^ set(baseline["suites"]))
    if not shared:
        raise BenchError("the two envelopes share no suites")
    suites = {
        name: _compare_suite(name, current["suites"][name],
                             baseline["suites"][name], tolerance,
                             metric_floor)
        for name in shared
    }
    return {
        "schema": "repro-bench-compare",
        "version": 1,
        "tolerance": tolerance,
        "metric_floor": metric_floor,
        "suites": suites,
        "skipped": skipped,
        "passed": all(entry["status"] != "regression"
                      for entry in suites.values()),
    }


def render_report(report):
    """Human-readable multi-line text for one comparison report."""
    lines = []
    for name, entry in sorted(report["suites"].items()):
        if entry["status"] == "incomparable":
            lines.append("%-10s SKIP  %s" % (name, entry["reason"]))
            continue
        lines.append("%-10s %s  geomean ratio %.3f (tolerance %.2f)" % (
            name, "PASS" if entry["status"] == "pass" else "FAIL",
            entry["geomean_ratio"], report["tolerance"]))
        for metric, row in sorted(entry["metrics"].items()):
            marker = {"ok": " ", "noisy": "~", "regression": "!"}[
                row["status"]]
            lines.append("  %s %-28s %8.2f -> %8.2f  (%.3fx)%s" % (
                marker, metric, row["baseline"], row["current"],
                row["ratio"],
                "  [within noise band]" if row["status"] == "noisy" else
                "  [below metric floor %.2f]" % report["metric_floor"]
                if row["status"] == "regression" else ""))
    for name in report["skipped"]:
        lines.append("%-10s SKIP  present in only one envelope" % name)
    lines.append("bench gate: %s"
                 % ("PASS" if report["passed"] else "REGRESSION"))
    return "\n".join(lines)


if __name__ == "__main__":
    # Child side of run_suite_isolated: ``NAME OUT [--quick]``.
    _payload = _run_suite_here(sys.argv[1], quick="--quick" in sys.argv[3:])
    with open(sys.argv[2], "w", encoding="utf-8") as _handle:
        json.dump(_payload, _handle)
