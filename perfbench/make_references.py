"""Regenerate the stored output references of the benchmark.

Usage (from the repository root)::

    python3 perfbench/make_references.py

Writes ``perfbench/references/<name>-scale<scale>-seed<seed>.json`` for
the default seed (0) and the held-out seed (1) at every workload's
benchmark scale, and for seed 0 at the smoke-test scale:

- ``scorecard-*``: the claims (name, measured value, verdict), a digest
  of every table row, the rows themselves and the number of FAIL
  verdicts, from one cold scorecard job;
- ``scan-clean-*``: per-stream report-set digests and report counts
  from the retained ``NaiveEngine`` oracle run on the 8-bit source.

Only regenerate after a change that is meant to alter outputs, and say
so in the change.
"""

import json
import os
import shutil
import sys

import run

SEEDS = (0, 1)
ORACLE_TIMEOUT = 1800


def targets():
    """(reference name, workload, scale, seed) for every stored reference."""
    for name, workload in sorted(run.WORKLOADS.items()):
        ref_name = "scorecard" if workload["kind"] == "scorecard" else name
        for seed in SEEDS:
            yield ref_name, workload, run.scale_of(name, "full"), seed
        yield ref_name, workload, run.scale_of(name, "smoke"), 0


def build(runner, workload, scale, seed):
    spec = run.job_spec(workload, scale, seed)
    if workload["kind"] == "scorecard":
        directory = runner.path("store")
        shutil.rmtree(directory, ignore_errors=True)
        result = runner.run(dict(spec, artifact_dir=directory))
        shutil.rmtree(directory, ignore_errors=True)
        return run.scorecard_reference(result)
    # The pure-Python oracle is slow; give it far longer than a job.
    oracle = runner.run(dict(spec, kind="oracle", engine="naive"),
                        timeout=ORACLE_TIMEOUT)
    return {"engine": "NaiveEngine on the 8-bit source",
            "streams": spec["streams"], "digests": oracle["digests"],
            "reports": oracle["reports"]}


def main():
    workdir = os.path.join(run.WORK, "references")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    os.makedirs(run.REFERENCES, exist_ok=True)
    runner = run.JobRunner(workdir)
    for ref_name, workload, scale, seed in targets():
        reference = build(runner, workload, scale, seed)
        reference.update(scale=scale, seed=seed)
        path = run.reference_path(ref_name, scale, seed)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(reference, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print("wrote %s" % os.path.relpath(path, run.ROOT))
    shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
