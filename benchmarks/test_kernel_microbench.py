"""Microbenchmarks of the simulation kernels themselves.

These time the repo's own engines (not the modelled hardware): useful
for tracking simulator performance regressions and for sizing larger
REPRO_BENCH_SCALE runs.
"""

import random

from repro.core import SunderConfig, SunderDevice
from repro.regex import compile_ruleset
from repro.sim import BitsetEngine, NaiveEngine, stream_for
from repro.transform import to_rate

RULES = ["abc", "b.d", "xy+z", "hello", "[0-9]{3}", "(ab)+c", "q(rs|tu)v"]


def _data(length, seed=0):
    rng = random.Random(seed)
    return bytes(rng.choice(b"abcdxyz hello0123qrstuv") for _ in range(length))


def test_bitset_engine_throughput(benchmark):
    machine = compile_ruleset(RULES)
    engine = BitsetEngine(machine)
    data = list(_data(20_000))
    recorder = benchmark(lambda: engine.run(data))
    assert recorder.total_reports > 0


def test_naive_engine_throughput(benchmark):
    machine = compile_ruleset(RULES)
    engine = NaiveEngine(machine)
    data = list(_data(2_000))
    recorder = benchmark(lambda: engine.run(data))
    assert recorder.total_reports > 0


def test_strided_engine_throughput(benchmark):
    machine = to_rate(compile_ruleset(RULES), 4)
    engine = BitsetEngine(machine)
    vectors, limit = stream_for(machine, _data(20_000))
    recorder = benchmark(lambda: engine.run(vectors, position_limit=limit))
    assert recorder.total_reports > 0


def test_device_cycle_throughput(benchmark):
    machine = to_rate(compile_ruleset(RULES), 4)
    config = SunderConfig(rate_nibbles=4, report_bits=16)
    device = SunderDevice(config)
    device.configure(machine)
    vectors, limit = stream_for(machine, _data(2_000))
    result = benchmark(lambda: device.run(vectors, position_limit=limit))
    assert result.cycles == len(vectors)


def test_nibble_transform_speed(benchmark):
    machine = compile_ruleset(RULES * 4)
    strided = benchmark(lambda: to_rate(machine, 4))
    assert strided.arity == 4


def test_instrumentation_overhead_when_unattached():
    """The repro.obs hooks must be near-free with no collector attached.

    Compares the shipping (instrumented) ``BitsetEngine.run`` against
    its uninstrumented core — stream normalization, ``reset()`` and the
    engine's one per-cycle loop called directly — and requires the
    min-of-N slowdown to stay under the documented 5% budget.  The two
    are timed alternately so host drift hits both sides alike.
    """
    import timeit

    from repro.obs import OBS
    from repro.sim.engine import _normalize_stream
    from repro.sim.reports import ReportRecorder

    assert not OBS.active  # the premise: nothing is collecting
    machine = compile_ruleset(RULES)
    engine = BitsetEngine(machine)
    data = list(_data(20_000))

    def instrumented():
        return engine.run(data)

    def baseline():
        recorder = ReportRecorder()
        engine.reset()
        engine._execute(_normalize_stream(engine.automaton, data), recorder,
                        engine.active_count_history)
        return recorder

    assert instrumented().total_reports == baseline().total_reports

    best_instrumented = best_baseline = float("inf")
    for _ in range(9):
        best_instrumented = min(best_instrumented,
                                timeit.timeit(instrumented, number=1))
        best_baseline = min(best_baseline, timeit.timeit(baseline, number=1))
    slowdown = best_instrumented / best_baseline
    assert slowdown < 1.05, (
        "instrumented BitsetEngine.run is %.3fx the uninstrumented loop "
        "(budget: 1.05x)" % slowdown
    )
