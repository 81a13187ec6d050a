"""Smoke test of the benchmark itself.

Usage (from the repository root)::

    python3 perfbench/smoke.py

Checks, at tiny sizes, that

- every workload prints every end-to-end metric of BENCHMARK.json with
  its unit, checks its outputs against the stored references and fails
  no operation on the default seed;
- the traced run of every workload prints every per-layer metric, and
  its layer self times plus ``trace.residue_s`` add up to
  ``trace.wall_s``;
- a deliberately corrupted reference makes operations fail;
- the held-out seed repeats the FAIL verdict its reference records
  and fails no operation;
- without the program source the benchmark exits non-zero and prints
  no result.

Exits 0 when every check passes.  Takes about a minute.
"""

import json
import os
import shutil
import subprocess
import sys

import run
import tracing


def attempt(workload, trace, seed=0, size="smoke",
            reference_dir=run.REFERENCES):
    """Run one workload in this process; returns its result or None."""
    try:
        return run.run_workload(workload, seed, 1, trace, size=size,
                                reference_dir=reference_dir)
    except run.BenchmarkError as error:
        print("perfbench: %s" % error)
        return None


class Checks:
    def __init__(self):
        self.failures = []

    def expect(self, condition, message):
        print("%s %s" % ("ok  " if condition else "FAIL", message))
        if not condition:
            self.failures.append(message)


def check_metrics(checks, label, result, kind):
    declared = run.declared_units(kind)
    metrics = result["metrics"]
    wrong = sorted(
        name for name, unit in declared.items()
        if metrics.get(name, {}).get("unit") != unit
        or not isinstance(metrics[name].get("value"), (int, float)))
    checks.expect(set(metrics) == set(declared) and not wrong,
                  "%s prints all %d declared metrics with their units%s"
                  % (label, len(declared),
                     " (wrong: %s)" % ", ".join(wrong) if wrong else ""))


def check_workload(checks, workload):
    result = attempt(workload, 0)
    checks.expect(result is not None, "%s runs" % workload)
    if result is None:
        return
    check_metrics(checks, workload, result, "end_to_end")
    checks.expect(result["correct"] and result["failed"] == 0
                  and result["attempted"] > 0,
                  "%s: outputs match, %d/%d ops failed"
                  % (workload, result["failed"], result["attempted"]))
    result = attempt(workload, 1)
    checks.expect(result is not None, "%s traced run" % workload)
    if result is None:
        return
    check_metrics(checks, workload + " traced", result, "per_layer")
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    total = sum(values[name] for name in tracing.ledger_keys())
    checks.expect(abs(total - values["trace.wall_s"])
                  <= 1e-6 * values["trace.wall_s"],
                  "%s: self times + residue = %.6f s, traced wall %.6f s"
                  % (workload, total, values["trace.wall_s"]))


def corrupt(directory):
    """Alter a claim value and verdict, or a report digest, of each reference."""
    for name in os.listdir(directory):
        path = os.path.join(directory, name)
        with open(path, "r", encoding="utf-8") as handle:
            reference = json.load(handle)
        if "claims" in reference:
            reference["claims"][0]["measured"] += 1.0
            reference["claims"][1]["passed"] = not reference["claims"][1][
                "passed"]
        else:
            reference["digests"][0] = "0" * 64
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(reference, handle)


def check_corrupted(checks):
    directory = os.path.join(run.WORK, "smoke-corrupt-references")
    shutil.rmtree(directory, ignore_errors=True)
    shutil.copytree(run.REFERENCES, directory)
    corrupt(directory)
    try:
        for workload in run.WORKLOADS:
            result = attempt(workload, 0, reference_dir=directory) or {}
            checks.expect(result.get("failed", 0) > 0
                          and result.get("correct") is False,
                          "%s: a corrupted reference fails ops" % workload)
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def check_held_out(checks):
    """Seed 1 at the benchmark scale repeats its reference's verdicts.

    Its reference records a FAIL verdict; every job must repeat it, and
    repeating it is the correct output, so no op fails.
    """
    workload = run.WORKLOADS["scorecard-cold"]
    reference = run.load_reference("scorecard", workload["scale"], 1)
    result = attempt("scorecard-cold", 0, seed=1, size="full") or {}
    jobs = result.get("attempted", 0) // len(reference["claims"])
    verdicts = result.get("reference", {}).get("fail_verdicts")
    checks.expect(result.get("correct") is True and result["failed"] == 0
                  and reference["failed_claims"] > 0
                  and verdicts == jobs * reference["failed_claims"],
                  "held-out seed 1: %s failed ops, %s FAIL verdicts over %d "
                  "jobs, reference records %d per job"
                  % (result.get("failed"), verdicts, jobs,
                     reference["failed_claims"]))


def check_without_source(checks):
    """Only BENCHMARK.json and the benchmark's files: must refuse."""
    bare = os.path.join(run.WORK, "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"),
             "--workload", "scan-clean", "--seed", "0", "--seconds", "1",
             "--trace", "0"], cwd=bare, capture_output=True, text=True,
            timeout=180)
        checks.expect(done.returncode != 0 and "{" not in done.stdout,
                      "without the program source: exit %d, no result"
                      % done.returncode)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    checks = Checks()
    for workload in run.WORKLOADS:
        check_workload(checks, workload)
    check_corrupted(checks)
    check_held_out(checks)
    check_without_source(checks)
    print("%d check(s) failed" % len(checks.failures))
    return 1 if checks.failures else 0


if __name__ == "__main__":
    sys.exit(main())
