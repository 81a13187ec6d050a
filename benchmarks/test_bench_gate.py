"""Tier-2 smoke: the ``repro bench`` envelope and regression gate.

Exercises the v2 envelope wrapper and the compare/threshold logic on
synthetic suite payloads (no timed runs), including the injected-2x-
slowdown case the gate exists to catch: comparing a halved speedup
against its baseline must produce ``passed=False``.
"""

import json
import pathlib
import shutil
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro import bench  # noqa: E402
from repro.errors import BenchError  # noqa: E402


def _runtime_payload(warm_speedup=4.0, scale=0.01):
    """A synthetic ``repro-bench-runtime`` payload that validates."""
    served = {"hits": 4, "misses": 0}
    return {
        "version": 1,
        "schema": "repro-bench-runtime",
        "scale": scale,
        "seed": 0,
        "code_version": "synthetic",
        "cold_seconds": float(warm_speedup),
        "warm_seconds": 1.0,
        "warm_speedup": float(warm_speedup),
        "cold_stages": {"generate": {"hits": 0, "misses": 4}},
        "warm_stages": {"generate": dict(served), "simulate8": dict(served),
                        "to_rate": dict(served)},
        "disk_entries": 8,
        "disk_bytes": 4096,
        "identical": True,
    }


def _transform_payload(minimizer_speedups, bands=None, scale=0.01):
    """A synthetic ``repro-bench-transform`` payload that validates.

    ``minimizer_speedups`` maps row name -> speedup; ``bands``
    optionally maps row name -> ``[lo, hi]`` repeat band.
    """
    stage = {"cold_seconds": 1.0, "warm_seconds": 0.001,
             "warm_speedup": 1000.0}
    rows = []
    for name, speedup in minimizer_speedups.items():
        row = {
            "name": name,
            "states": 100,
            "removed_new": 10,
            "removed_legacy": 5,
            "new_seconds": 1.0,
            "legacy_seconds": float(speedup),
            "speedup": float(speedup),
        }
        if bands and name in bands:
            row["speedup_band"] = list(bands[name])
        rows.append(row)
    return {
        "version": 1,
        "schema": "repro-bench-transform",
        "scale": scale,
        "seed": 0,
        "repeats": 3,
        "code_version": "synthetic",
        "workloads": [{"name": "Snort", "states": 100,
                       "cached_identical": True,
                       "stages": {"nibble": dict(stage),
                                  "stride": dict(stage)}}],
        "warm_speedup_geomean": 1000.0,
        "minimizer": {"rows": rows, "speedup_geomean": 1.0},
    }


class TestEnvelope:
    def test_build_and_validate_synthetic_suites(self):
        envelope = bench.build_envelope(
            {"runtime": _runtime_payload()}, quick=True)
        assert bench.validate_envelope(envelope) is envelope
        assert envelope["schema"] == "repro-bench/v2"
        assert envelope["quick"] is True

    def test_validate_rejects_wrapper_drift(self):
        good = bench.build_envelope({"runtime": _runtime_payload()})
        for mutation in ({"schema": "repro-bench/v1"}, {"version": 1},
                         {"suites": {}}):
            with pytest.raises(BenchError):
                bench.validate_envelope(dict(good, **mutation))

    def test_validate_rejects_bad_suite_payload(self):
        broken = _runtime_payload()
        broken["identical"] = False
        with pytest.raises(BenchError):
            bench.validate_envelope(bench.build_envelope({"runtime": broken}))
        with pytest.raises(BenchError):
            bench.validate_envelope(
                bench.build_envelope({"nonesuch": {}}))

    def test_load_envelope_wraps_bare_suite_payload(self, tmp_path):
        path = tmp_path / "BENCH_runtime.json"
        path.write_text(json.dumps(_runtime_payload()), encoding="utf-8")
        envelope = bench.load_envelope(path)
        assert set(envelope["suites"]) == {"runtime"}

    def test_load_baseline_assembles_bench_files(self, tmp_path):
        (tmp_path / "BENCH_runtime.json").write_text(
            json.dumps(_runtime_payload()), encoding="utf-8")
        (tmp_path / "BENCH_transform.json").write_text(
            json.dumps(_transform_payload({"dup": 4.0})), encoding="utf-8")
        envelope = bench.load_baseline(tmp_path)
        assert set(envelope["suites"]) == {"runtime", "transform"}
        with pytest.raises(BenchError):
            bench.load_baseline(tmp_path / "empty")


class TestCompare:
    def _compare(self, current, baseline, **kwargs):
        return bench.compare_envelopes(
            bench.build_envelope(current),
            bench.build_envelope(baseline), **kwargs)

    def test_identical_envelopes_pass_at_ratio_one(self):
        report = self._compare({"runtime": _runtime_payload(4.0)},
                               {"runtime": _runtime_payload(4.0)})
        assert report["passed"] is True
        suite = report["suites"]["runtime"]
        assert suite["status"] == "pass"
        assert suite["geomean_ratio"] == pytest.approx(1.0)
        assert "bench gate: PASS" in bench.render_report(report)

    def test_injected_2x_slowdown_fails_the_gate(self):
        # Warm speedup halves (2x slowdown on the optimized path):
        # geomean ratio 0.5 < tolerance 0.75 must fail.
        report = self._compare({"runtime": _runtime_payload(2.0)},
                               {"runtime": _runtime_payload(4.0)})
        assert report["passed"] is False
        suite = report["suites"]["runtime"]
        assert suite["status"] == "regression"
        assert suite["geomean_ratio"] == pytest.approx(0.5)
        assert "bench gate: REGRESSION" in bench.render_report(report)

    def test_one_noisy_metric_cannot_fail_a_wide_suite(self):
        # One metric at 0.55x, four at parity: the geomean (~0.89)
        # stays above tolerance and 0.55 is above the metric floor.
        baseline = {"a": 4.0, "b": 4.0, "c": 4.0, "d": 4.0}
        current = dict(baseline, a=2.2)
        report = self._compare(
            {"transform": _transform_payload(current)},
            {"transform": _transform_payload(baseline)})
        assert report["passed"] is True
        assert report["suites"]["transform"]["metrics"][
            "minimizer:a"]["status"] == "ok"

    def test_floor_miss_inside_repeat_band_downgrades_to_noisy(self):
        baseline = {"a": 4.0, "b": 4.0, "c": 4.0, "d": 4.0}
        current = dict(baseline, a=1.6)  # ratio 0.4, below the 0.5 floor
        report = self._compare(
            {"transform": _transform_payload(
                current, bands={"a": [1.5, 2.4]})},  # best repeat: 0.6x
            {"transform": _transform_payload(baseline)})
        assert report["passed"] is True
        metric = report["suites"]["transform"]["metrics"]["minimizer:a"]
        assert metric["status"] == "noisy"
        assert "[within noise band]" in bench.render_report(report)

    def test_floor_miss_without_band_is_a_regression(self):
        baseline = {"a": 4.0, "b": 4.0, "c": 4.0, "d": 4.0}
        current = dict(baseline, a=1.6)
        report = self._compare(
            {"transform": _transform_payload(current)},
            {"transform": _transform_payload(baseline)})
        assert report["passed"] is False
        suite = report["suites"]["transform"]
        assert suite["regressions"] == ["minimizer:a"]
        # ... even though the geomean alone would have cleared tolerance.
        assert suite["geomean_ratio"] > bench.DEFAULT_TOLERANCE

    def test_scale_mismatch_is_incomparable_not_failed(self):
        report = self._compare(
            {"runtime": _runtime_payload(2.0, scale=0.002)},
            {"runtime": _runtime_payload(4.0, scale=0.01)})
        assert report["passed"] is True
        assert report["suites"]["runtime"]["status"] == "incomparable"
        assert "SKIP" in bench.render_report(report)

    def test_unshared_suites_are_skipped(self):
        report = self._compare(
            {"runtime": _runtime_payload(),
             "transform": _transform_payload({"a": 4.0})},
            {"runtime": _runtime_payload()})
        assert report["skipped"] == ["transform"]
        assert report["passed"] is True
        with pytest.raises(BenchError):
            self._compare({"runtime": _runtime_payload()},
                          {"transform": _transform_payload({"a": 4.0})})

    def test_tolerance_is_configurable(self):
        report = self._compare({"runtime": _runtime_payload(3.6)},
                               {"runtime": _runtime_payload(4.0)},
                               tolerance=0.95)
        assert report["passed"] is False
        assert report["suites"]["runtime"]["geomean_ratio"] == pytest.approx(
            0.9)


def test_committed_baselines_assemble_into_a_valid_envelope():
    """The real BENCH_*.json files must load (pins `bench check` setup)."""
    envelope = bench.load_baseline()
    assert set(envelope["suites"]) >= {"engine", "transform", "runtime",
                                       "device"}


def test_failed_suite_child_raises_bench_error(monkeypatch):
    false = shutil.which("false")
    if false is None:
        pytest.skip("no `false` executable to stand in for a failing child")
    monkeypatch.setattr(bench.sys, "executable", false)
    with pytest.raises(BenchError, match="failed"):
        bench.run_suites(["runtime"], quick=True)


#: Two cheap suites whose committed baselines sit well inside the gate.
ORDER_PAIR = ("transform", "scale")


def test_gate_verdict_does_not_depend_on_suite_order():
    """Each suite runs in its own interpreter, so no state left behind
    by one suite can move the timings, or the verdict, of the next."""
    baseline = bench.load_baseline(names=ORDER_PAIR)
    verdicts = []
    for order in (ORDER_PAIR, ORDER_PAIR[::-1]):
        current = bench.run_suites(list(order), quick=True)
        assert list(current["suites"]) == list(order)
        report = bench.compare_envelopes(current, baseline)
        verdicts.append({name: entry["status"]
                         for name, entry in report["suites"].items()})
    assert verdicts[0] == verdicts[1]
