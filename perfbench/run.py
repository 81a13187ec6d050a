"""End-to-end benchmark of the Sunder reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload scorecard-cold --seed 0 \\
        --seconds 60 --trace 0

Runs one workload as a closed loop with one client: one job at a time,
each in a fresh interpreter (``job.py``), for ``--seconds`` (and at
least ``MIN_JOBS`` jobs).  The outputs of every job are checked
against the stored reference for the seed, or, for a seed without one,
against an independent engine run (scan) or the run's first job
(scorecard).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a traced job with ``--trace 1``.  The full
result, with host facts and every job's samples, goes to
``.perfbench/results/``.  See perfbench/README.md.
"""

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
REFERENCES = os.path.join(HERE, "references")

#: Seconds one job may take before the run is abandoned.
JOB_TIMEOUT = 60
MIN_JOBS = 3
WORKLOADS = {
    "scorecard-cold": {"kind": "scorecard", "scale": 0.005},
    "scan-clean": {"kind": "scan", "scale": 0.05,
                   "rulesets": ["ExactMatch", "ClamAV", "Bro217"]},
}
#: Iterations of the host-speed probe (:func:`probe`).
PROBE_LOOPS = 3000000
#: Probe time the reported end-to-end times are scaled to: about the
#: mean probe of a run on a 2-core x86-64 VM with CPython 3.11.7.
REFERENCE_PROBE_S = 0.3
#: Smaller sizes for the smoke test (``size="smoke"``).
SMOKE_SCALE = {"scorecard-cold": 0.002, "scan-clean": 0.01}


def benchmark_spec():
    """BENCHMARK.json: the declared workloads and metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r",
              encoding="utf-8") as handle:
        return json.load(handle)


def declared_units(kind):
    """Metric name -> unit of the ``end_to_end`` or ``per_layer`` list."""
    return {metric["name"]: metric["unit"]
            for metric in benchmark_spec()[kind]}


class BenchmarkError(Exception):
    """The benchmark cannot run or a job failed."""


# ----------------------------------------------------------------------
# Jobs
# ----------------------------------------------------------------------

class JobRunner:
    """Runs ``job.py`` children one at a time under the work directory."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.count = 0

    def path(self, name):
        return os.path.join(self.workdir, name)

    def run(self, spec, traced=False, timeout=JOB_TIMEOUT):
        """Run one job to completion; returns its result dict."""
        self.count += 1
        spec = dict(spec, trace=traced,
                    out=self.path("job-%d.json" % self.count),
                    trace_out=self.path("spans-%d.jsonl" % self.count))
        env = dict(os.environ, PYTHONPATH=SRC)
        env.pop("REPRO_ARTIFACT_DIR", None)
        env.pop("REPRO_TRANSFORM_CACHE", None)
        # Job output goes to our stderr: stdout carries only the result.
        process = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "job.py"), json.dumps(spec)],
            cwd=ROOT, env=env, stdout=sys.stderr)
        try:
            code = process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
            raise BenchmarkError("job %d timed out" % self.count)
        except BaseException:
            # Interrupted: never leave the job running behind us.
            process.kill()
            process.wait()
            raise
        if code != 0:
            raise BenchmarkError("job %d exited with %d" % (self.count, code))
        with open(spec["out"], "r", encoding="utf-8") as handle:
            result = json.load(handle)
        os.unlink(spec["out"])
        if traced:
            result["spans_file"] = spec["trace_out"]
        return result


def scale_of(name, size):
    """The workload's scale at ``size`` ("full" or "smoke")."""
    return WORKLOADS[name]["scale"] if size == "full" else SMOKE_SCALE[name]


def job_spec(workload, scale, seed):
    """The job spec of one workload at one scale and seed."""
    if workload["kind"] == "scorecard":
        return {"kind": "scorecard", "scale": scale, "seed": seed}
    return {"kind": "scan", "scale": scale,
            "streams": [[name, seed] for name in workload["rulesets"]]}


def probe():
    """Seconds this host takes for a fixed pure-Python loop.

    The loop is the benchmark's own code, so a change to the program
    cannot move it; only the speed of the host can.
    """
    start = perf_counter()
    total = 0
    for number in range(PROBE_LOOPS):
        total += number * number % 7
    return perf_counter() - start


def closed_loop(runner, make_spec, seconds, trace):
    """Run jobs back to back for ``seconds``; returns (untraced, traced).

    After every job the host-speed probe runs once; its time is kept in
    the job's ``probe_s``.  No job starts that would, at the median
    pace so far, end after ``seconds``.  With ``trace`` every other job
    is traced, so both sides see the same machine state over the run.
    """
    plain, traced, cycles = [], [], []
    start = perf_counter()
    minimum = MIN_JOBS + 1 if trace else MIN_JOBS
    while len(cycles) < minimum or (perf_counter() - start
                                     + statistics.median(cycles) < seconds):
        begun = perf_counter()
        is_traced = trace and len(cycles) % 2 == 1
        result = runner.run(make_spec(len(cycles)), traced=is_traced)
        result["probe_s"] = probe()
        (traced if is_traced else plain).append(result)
        cycles.append(perf_counter() - begun)
    return plain, traced


# ----------------------------------------------------------------------
# References and checks
# ----------------------------------------------------------------------

def reference_path(name, scale, seed, directory=REFERENCES):
    return os.path.join(directory, "%s-scale%s-seed%d.json"
                        % (name, scale, seed))


def load_reference(name, scale, seed, directory=REFERENCES):
    """The stored reference for (name, scale, seed), or None."""
    try:
        with open(reference_path(name, scale, seed, directory), "r",
                  encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return None


def scorecard_reference(result):
    """The reference form of one scorecard job's output."""
    return {
        "claims": result["claims"],
        "rows_digest": result["rows_digest"],
        "failed_claims": sum(1 for claim in result["claims"]
                             if not claim["passed"]),
        "rows": result["rows"],
    }


def check_scorecard(jobs, reference):
    """(attempted, failed, matches, verdicts) over scorecard jobs.

    One op per claim: it fails when its measured value, its verdict or
    any table row differs from the reference.  A FAIL verdict that the
    reference records is the program's correct output for that scale
    and seed, not a failed op; ``verdicts`` counts the FAIL verdicts of
    all jobs so that they show in the result.
    """
    attempted = failed = verdicts = 0
    expected = {claim["claim"]: (claim["measured"], claim["passed"])
                for claim in reference["claims"]}
    for job in jobs:
        rows_match = job["rows_digest"] == reference["rows_digest"]
        for claim in job["claims"]:
            attempted += 1
            verdicts += not claim["passed"]
            same = expected.get(claim["claim"]) == (claim["measured"],
                                                    claim["passed"])
            failed += not (same and rows_match)
        missing = len(expected) - len(job["claims"])
        if missing > 0:
            attempted += missing
            failed += missing
    return attempted, failed, failed == 0, verdicts


def check_scan(jobs, reference):
    """(attempted, failed, matches): one op per stream per job.

    An op fails when the stream's report set or report count differs
    from the reference.
    """
    attempted = failed = 0
    want = list(zip(reference["digests"], reference["reports"]))
    for job in jobs:
        got = list(zip(job["digests"], job["reports"]))
        for pair, expected in zip(got, want):
            attempted += 1
            failed += pair != expected
        if len(got) != len(want):
            attempted += 1
            failed += 1
    return attempted, failed, failed == 0


# ----------------------------------------------------------------------
# Host facts
# ----------------------------------------------------------------------

def host_facts():
    """Cores, memory, Python version and source revision of this run."""
    mem_total = None
    try:
        with open("/proc/meminfo", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("MemTotal:"):
                    mem_total = line.split(":", 1)[1].strip()
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for directory, subdirs, files in sorted(os.walk(os.path.join(SRC,
                                                                  "repro"))):
        subdirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(directory, name), "rb") as handle:
                    digest.update(name.encode("utf-8") + handle.read())
    return {
        "cores": os.cpu_count(),
        "mem_total": mem_total,
        "python": platform.python_version(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

def run_workload(name, seed, seconds, trace, size="full",
                 reference_dir=REFERENCES):
    """Run one workload; returns the full result dict."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchmarkError("no program source at %s" % SRC)
    # Byte-compile up front: otherwise the first job of a fresh checkout
    # also pays for compiling every module it imports lazily.
    compileall.compile_dir(os.path.join(SRC, "repro"), quiet=1)
    workload = WORKLOADS[name]
    kind = workload["kind"]
    scale = scale_of(name, size)
    spec = job_spec(workload, scale, seed)
    workdir = os.path.join(WORK, "%s-seed%d-trace%d" % (name, seed, trace))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    runner = JobRunner(workdir)
    try:
        if kind == "scorecard":
            outcome = _scorecard_workload(runner, spec, seconds, trace,
                                          reference_dir)
        else:
            outcome = _scan_workload(runner, spec, name, seed, seconds,
                                     trace, reference_dir)
    finally:
        for entry in os.listdir(workdir):
            path = os.path.join(workdir, entry)
            if os.path.isdir(path):
                shutil.rmtree(path, ignore_errors=True)
    plain, traced, attempted, failed, matches, reference = outcome
    result = {
        "workload": name, "seed": seed, "scale": scale, "size": size,
        "seconds": seconds, "trace": trace, "host": host_facts(),
        "reference": reference,
        "correct": matches, "attempted": attempted, "failed": failed,
        "jobs": [_summary(job) for job in plain],
        "traced_jobs": [_summary(job) for job in traced],
    }
    result["host_speed"] = host_speed(plain)
    if trace:
        result["metrics"] = _layer_output(plain, traced, workdir)
    else:
        result["metrics"] = _end_to_end_output(plain)
    return result


def _summary(job):
    return {key: value for key, value in job.items()
            if key not in ("rows", "layers")}


def _scorecard_workload(runner, spec, seconds, trace, reference_dir):
    reference = load_reference("scorecard", spec["scale"], spec["seed"],
                               reference_dir)
    source = "stored" if reference else None

    def make_spec(index):
        # Every job starts from an empty store of its own.
        shutil.rmtree(runner.path("store"), ignore_errors=True)
        return dict(spec, artifact_dir=runner.path("store"))

    plain, traced = closed_loop(runner, make_spec, seconds, trace)
    jobs = plain + traced
    if reference is None:
        reference, source = scorecard_reference(jobs[0]), "first job"
    attempted, failed, matches, verdicts = check_scorecard(jobs, reference)
    return (plain, traced, attempted, failed, matches,
            {"source": source, "fail_verdicts": verdicts,
             "fail_verdicts_per_job": reference["failed_claims"]})


def _scan_workload(runner, spec, name, seed, seconds, trace,
                   reference_dir):
    plain, traced = closed_loop(runner, lambda index: spec, seconds, trace)
    reference = load_reference(name, spec["scale"], seed, reference_dir)
    source = "stored NaiveEngine"
    if reference is None:
        reference = runner.run(dict(spec, kind="oracle"))
        source = "BitsetEngine on the 8-bit source"
    attempted, failed, matches = check_scan(plain + traced, reference)
    return plain, traced, attempted, failed, matches, {"source": source}


def host_speed(jobs):
    """Reference probe time over the run's mean probe time.

    Below 1 when the host ran slower than the reference.
    """
    return REFERENCE_PROBE_S / statistics.fmean(job["probe_s"]
                                                for job in jobs)


def _end_to_end_output(jobs):
    """Every end-to-end metric over the run's jobs, host speed removed.

    The jobs of a run do the same work on the same inputs.  Times (unit
    ``s``) are the mean over the jobs, multiplied by the run's host
    speed; rates (unit ``.../s``) are the jobs' total over their total
    time (the harmonic mean), divided by it.  The probes run between
    the jobs, so both sums see the same host over the run, and a slow
    spell of the host moves both alike.  Other units (``peak_rss_mb``)
    do not depend on host speed and are the median over the jobs.
    """
    speed = host_speed(jobs)
    metrics = {}
    for metric in benchmark_spec()["end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        values = [job[name] for job in jobs]
        if unit == "s":
            value = statistics.fmean(values) * speed
        elif unit.endswith("/s"):
            value = statistics.harmonic_mean(values) / speed
        else:
            value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def _layer_output(plain, traced, workdir):
    """Per-layer metrics of the median traced job, plus the overhead."""
    ordered = sorted(traced, key=lambda job: job["layers"]["trace.wall_s"])
    chosen = ordered[(len(ordered) - 1) // 2]
    layers = dict(chosen["layers"])
    untraced = statistics.median(job["root_s"] for job in plain)
    traced_wall = statistics.median(job["layers"]["trace.wall_s"]
                                    for job in traced)
    layers["trace.overhead_pct"] = 100.0 * (traced_wall / untraced - 1.0)
    kept = os.path.join(workdir, "spans.jsonl")
    os.replace(chosen["spans_file"], kept)
    for job in traced:
        if os.path.exists(job["spans_file"]):
            os.unlink(job["spans_file"])
    units = declared_units("per_layer")
    missing = set(units) - set(layers)
    if missing:
        raise BenchmarkError("traced job lacks %s" % sorted(missing))
    return {name: {"value": layers[name], "unit": unit}
            for name, unit in units.items()}


def write_result(result):
    """Keep the full result beside the work directories."""
    directory = os.path.join(WORK, "results")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "%s-seed%d-trace%d.json" % (
        result["workload"], result["seed"], result["trace"]))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
    return path


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    workloads = [workload["name"] for workload in benchmark_spec()["workloads"]]
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def _terminate(signum, frame):
    # Unwind through JobRunner.run, which stops the running job.
    sys.exit(128 + signum)


def main(argv=None):
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              args.trace)
    except BenchmarkError as error:
        print("perfbench: %s" % error, file=sys.stderr)
        return 1
    path = write_result(result)
    for name, metric in result["metrics"].items():
        print("%-40s %14.6g %s" % (name, metric["value"], metric["unit"]))
    print("ops %d, failed %d, outputs %s the %s reference; full result: %s"
          % (result["attempted"], result["failed"],
             "match" if result["correct"] else "DIFFER from",
             result["reference"]["source"], os.path.relpath(path, ROOT)))
    if "fail_verdicts" in result["reference"]:
        print("claim verdicts: %d FAIL over the run's jobs, %d per job in "
              "the reference" % (result["reference"]["fail_verdicts"],
                                 result["reference"]["fail_verdicts_per_job"]))
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
