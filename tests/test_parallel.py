"""ParallelRunner: ordering, fallback, determinism, and CLI plumbing."""

import gc

import pytest

from repro.errors import SimulationError
from repro.sim.parallel import ParallelRunner, default_workers, parallel_map
from repro import obs


def _square(job):
    return job * job


def _collector_enabled(job):
    return gc.isenabled()


class TestRunner:
    def test_serial_map_preserves_order(self):
        assert ParallelRunner(1).map(_square, [3, 1, 2]) == [9, 1, 4]

    def test_process_map_preserves_order(self):
        jobs = list(range(20))
        assert ParallelRunner(2).map(_square, jobs) == [j * j for j in jobs]

    def test_zero_means_all_cores(self):
        runner = ParallelRunner(0)
        assert runner.workers == default_workers() >= 1
        assert runner.map(_square, [2, 4]) == [4, 16]

    def test_unpicklable_function_falls_back_to_serial(self):
        captured = []

        def closure(job):  # local: unpicklable by the pool
            captured.append(job)
            return -job

        assert ParallelRunner(4).map(closure, [1, 2, 3]) == [-1, -2, -3]
        assert captured == [1, 2, 3]

    def test_job_errors_propagate(self):
        with pytest.raises(ZeroDivisionError):
            ParallelRunner(1).map(lambda job: 1 // job, [1, 0])

    def test_empty_jobs(self):
        assert ParallelRunner(4).map(_square, []) == []

    def test_negative_workers_rejected(self):
        with pytest.raises(SimulationError):
            ParallelRunner(-1)

    def test_parallel_map_convenience(self):
        assert parallel_map(_square, [5], workers=1) == [25]

    def test_workers_run_with_collector_enabled(self):
        # Pools fork from inside Runtime.execute, where the parent has
        # the collector paused; workers must not inherit that state.
        gc.disable()
        try:
            enabled = ParallelRunner(2).map(_collector_enabled, [0, 1, 2, 3])
        finally:
            gc.enable()
        assert enabled == [True] * 4

    def test_metrics_recorded_when_collecting(self):
        registry = obs.MetricsRegistry()
        with obs.collecting(registry=registry):
            ParallelRunner(1).map(_square, [1, 2, 3])
        snapshot = registry.snapshot()
        by_name = {metric["name"]: metric for metric in snapshot["metrics"]}
        jobs = by_name["repro_parallel_jobs_total"]["samples"]
        assert any(sample["labels"] == {"mode": "serial"}
                   and sample["value"] == 3 for sample in jobs)
        workers = by_name["repro_parallel_workers"]["samples"]
        assert workers and workers[0]["value"] == 1


class TestExperimentDeterminism:
    """Fanned-out experiment drivers must match their serial output."""

    NAMES = ("Bro217", "Levenshtein")

    def test_table1_rows_identical_at_any_worker_count(self):
        from repro.experiments import table1
        serial = table1.run(scale=0.002, seed=0, names=self.NAMES, workers=1)
        parallel = table1.run(scale=0.002, seed=0, names=self.NAMES, workers=2)
        assert serial == parallel
        assert table1.render(serial) == table1.render(parallel)

    def test_figure10_rows_identical_at_any_worker_count(self):
        from repro.experiments import figure10
        serial = figure10.run(workers=1)
        parallel = figure10.run(workers=2)
        assert serial == parallel
        assert figure10.render(serial) == figure10.render(parallel)

    def test_figure9_rows_identical_at_any_worker_count(self):
        from repro.experiments import figure9
        assert figure9.run(workers=1) == figure9.run(workers=2)


class TestCli:
    def test_experiment_accepts_workers_flag(self, capsys):
        from repro.cli import main
        assert main(["experiment", "figure10", "--workers", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert main(["experiment", "figure10"]) == 0
        assert capsys.readouterr().out == parallel_out
