# Convenience targets for the Sunder reproduction.

PYTHON ?= python
SCALE ?= 0.02

.PHONY: install test bench bench-engine bench-transform bench-runtime bench-device bench-batch bench-prefilter bench-exec bench-scale bench-check repro scorecard scorecard-paper profile-smoke perfbench-smoke docs clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	REPRO_BENCH_SCALE=$(SCALE) $(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-engine:
	$(PYTHON) scripts/bench_engine.py --scale $(SCALE) --out BENCH_engine.json

bench-transform:
	$(PYTHON) scripts/bench_transform.py --scale $(SCALE) --out BENCH_transform.json

bench-runtime:
	$(PYTHON) scripts/bench_runtime.py --scale $(SCALE) --out BENCH_runtime.json

# Device-fidelity comparison (literal oracle vs packed kernel); runs at
# a fixed small scale because the literal path bounds feasible sizes.
bench-device:
	$(PYTHON) scripts/bench_device.py --scale 0.01 --out BENCH_device.json

# Batched/sharded execution throughput; fixed scale for the same reason
# (speedups are scale-sensitive and gate against the committed baseline).
bench-batch:
	$(PYTHON) scripts/bench_batch.py --scale 0.01 --out BENCH_batch.json

# Prefilter match-rate sweep (gated vs ungated kernels); fixed scale for
# the same reason.
bench-prefilter:
	$(PYTHON) scripts/bench_prefilter.py --scale 0.01 --out BENCH_prefilter.json

# Auto-planner vs manual configurations (repro.exec); fixed scale for
# the same reason, extra repeats because both ratio sides are timed.
bench-exec:
	$(PYTHON) scripts/bench_exec.py --scale 0.01 --repeats 5 --out BENCH_exec.json

# Paper-scale transform trajectory (indexed kernel vs legacy oracle up
# to scale 1.0); runs its full default ladder, takes a few minutes.
bench-scale:
	$(PYTHON) scripts/bench_scale.py --out BENCH_scale.json

# Perf-regression gate: quick fresh runs of every suite with a committed
# BENCH_*.json baseline, nonzero exit when speedups regress.
bench-check:
	PYTHONPATH=src $(PYTHON) -m repro bench check --quick

repro:
	$(PYTHON) examples/reproduce_paper.py $(SCALE)

scorecard:
	$(PYTHON) -m repro experiment scorecard --scale 0.01

# Full paper-scale scorecard (the EXPERIMENTS.md wall-clock budget run);
# opt-in because it takes tens of minutes on one core.
scorecard-paper:
	$(PYTHON) -m repro experiment scorecard --scale 1.0

profile-smoke:
	$(PYTHON) scripts/check_metrics_schema.py

# Smoke test of the end-to-end benchmark (perfbench/): every workload,
# traced and untraced, against its stored references; about a minute.
perfbench-smoke:
	$(PYTHON) perfbench/smoke.py

docs:
	$(PYTHON) scripts/generate_api_docs.py

clean:
	rm -rf results .pytest_cache src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
