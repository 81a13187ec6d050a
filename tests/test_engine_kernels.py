"""Kernel/cache differential suite: every BitsetEngine configuration and
entry point must be bit-exact with NaiveEngine, including start-period
and report-offset edge cases, plus the step-cache and history
behaviours themselves."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.automata import Automaton, StartKind, SymbolSet
from repro.errors import SimulationError
from repro.regex import compile_ruleset
from repro.sim import BitsetEngine, NaiveEngine, ReportRecorder
from repro.sim.engine import DEFAULT_STEP_CACHE, _popcount
from conftest import random_automaton

#: Every (step-cache capacity, entry point) pair under differential
#: test.  "scan-cache*" and "sliced-cache4" drive whole streams through
#: ``run``; "sliced-cache0" and "sliced-cache<default capacity>" drive
#: them through per-vector ``step``.  Capacity 4 evicts constantly.
CONFIGS = [
    pytest.param(0, "run", id="scan-cache0"),
    pytest.param(DEFAULT_STEP_CACHE, "run", id="scan-cache%d"
                 % DEFAULT_STEP_CACHE),
    pytest.param(0, "step", id="sliced-cache0"),
    pytest.param(DEFAULT_STEP_CACHE, "step", id="sliced-cache%d"
                 % DEFAULT_STEP_CACHE),
    pytest.param(4, "run", id="sliced-cache4"),
]


def _edge_case_automaton(rng, start_period=1, arity=2):
    """Random vector automaton with start periods and multi-offset reports."""
    automaton = Automaton(name="edge", bits=4, arity=arity,
                          start_period=start_period)
    n_states = rng.randint(3, 10)
    ids = []
    for index in range(n_states):
        symbols = tuple(
            SymbolSet.of(4, rng.sample(range(16), rng.randint(1, 8)))
            for _ in range(arity)
        )
        start = StartKind.NONE
        if index == 0 or rng.random() < 0.2:
            start = rng.choice([StartKind.ALL_INPUT, StartKind.START_OF_DATA])
        report = rng.random() < 0.4
        automaton.new_state(
            "s%d" % index,
            symbols,
            start=start,
            report=report,
            report_code="c%d" % index if report else None,
            report_offsets=tuple(sorted(rng.sample(range(arity),
                                                   rng.randint(1, arity))))
            if report else None,
        )
        ids.append("s%d" % index)
    for src in ids:
        for dst in ids:
            if rng.random() < 0.3:
                automaton.add_transition(src, dst)
    automaton.prune_unreachable()
    return automaton


def _drive(engine, data, recorder, entry):
    """Run ``data`` through ``engine`` via ``run`` or per-vector ``step``."""
    if entry == "run":
        engine.run(data, recorder)
        return
    engine.reset()
    for item in data:
        engine.step((item,) if isinstance(item, int) else item, recorder)


def _assert_equivalent(automaton, streams, step_cache, entry):
    bitset = BitsetEngine(automaton, step_cache=step_cache)
    naive = NaiveEngine(automaton)
    for data in streams:
        r1, r2 = ReportRecorder(), ReportRecorder()
        _drive(bitset, data, r1, entry)
        naive.run(data, r2)
        assert r1.event_keys() == r2.event_keys()
        assert r1.total_reports == r2.total_reports
        assert dict(r1.reports_per_cycle) == dict(r2.reports_per_cycle)
        assert bitset.active_ids() == naive.active_ids()


class TestDifferential:
    @pytest.mark.parametrize("step_cache,entry", CONFIGS)
    @pytest.mark.parametrize("seed", range(8))
    def test_random_automata_match_naive(self, seed, step_cache, entry):
        rng = random.Random(seed)
        automaton = random_automaton(rng, n_states=9, bits=4,
                                     edge_density=0.3)
        if len(automaton) == 0:
            return
        streams = [
            [rng.randrange(16) for _ in range(rng.randint(0, 30))]
            for _ in range(4)
        ]
        _assert_equivalent(automaton, streams, step_cache, entry)

    @pytest.mark.parametrize("step_cache,entry", CONFIGS)
    @pytest.mark.parametrize("start_period", (1, 2, 3, 5))
    def test_start_period_and_offsets_match_naive(self, start_period,
                                                  step_cache, entry):
        rng = random.Random(1000 + start_period)
        automaton = _edge_case_automaton(rng, start_period=start_period)
        if len(automaton) == 0:
            return
        streams = [
            [(rng.randrange(16), rng.randrange(16))
             for _ in range(rng.randint(1, 40))]
            for _ in range(4)
        ]
        _assert_equivalent(automaton, streams, step_cache, entry)

    def test_large_automaton_matches_naive(self):
        """A 552-state machine, wider than any small-machine shortcut."""
        rng = random.Random(7)
        automaton = random_automaton(rng, n_states=552, bits=4,
                                     edge_density=0.01)
        data = [rng.randrange(16) for _ in range(120)]
        for step_cache in (0, DEFAULT_STEP_CACHE):
            recorder = BitsetEngine(automaton, step_cache=step_cache).run(data)
            reference = NaiveEngine(automaton).run(data)
            assert recorder.event_keys() == reference.event_keys()

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.binary(max_size=32),
           st.sampled_from(["run", "step"]), st.sampled_from([0, 8, 1024]))
    def test_hypothesis_configs_match_naive(self, seed, raw, entry, cache):
        rng = random.Random(seed)
        automaton = random_automaton(rng, n_states=7, bits=4,
                                     edge_density=0.35)
        if len(automaton) == 0:
            return
        data = [byte % 16 for byte in raw]
        r1 = ReportRecorder()
        _drive(BitsetEngine(automaton, step_cache=cache), data, r1, entry)
        r2 = NaiveEngine(automaton).run(data)
        assert r1.event_keys() == r2.event_keys()

    def test_warm_cache_reruns_are_identical(self):
        """A second run over the same stream (all cache hits) must match."""
        rng = random.Random(99)
        automaton = random_automaton(rng, n_states=8, bits=4)
        engine = BitsetEngine(automaton)
        data = [rng.randrange(16) for _ in range(200)]
        first = engine.run(data)
        info = engine.step_cache_info()
        second = engine.run(data)
        assert engine.step_cache_info()["hits"] > info["hits"]
        assert first.event_keys() == second.event_keys()
        assert first.total_reports == second.total_reports

    def test_step_streaming_matches_run(self):
        """Streaming step() calls equal one run() (the hoisted hot loop)."""
        rng = random.Random(5)
        automaton = random_automaton(rng, n_states=8, bits=4)
        data = [rng.randrange(16) for _ in range(150)]
        run_recorder = BitsetEngine(automaton).run(data)
        engine = BitsetEngine(automaton)
        step_recorder = ReportRecorder()
        engine.reset()
        for symbol in data:
            engine.step((symbol,), step_recorder)
        assert step_recorder.event_keys() == run_recorder.event_keys()


class TestStepCache:
    def _abc(self):
        automaton = Automaton(bits=8)
        automaton.new_state("s", SymbolSet.of(8, [1]), start="all-input",
                            report=True, report_code="s")
        return automaton

    def test_counters_and_info(self):
        engine = BitsetEngine(self._abc())
        engine.run([1, 2, 1, 2, 1])
        info = engine.step_cache_info()
        assert info["hits"] + info["misses"] == 5
        assert info["misses"] >= 1
        assert 0.0 <= info["hit_rate"] <= 1.0
        assert info["limit"] == DEFAULT_STEP_CACHE
        assert info["size"] <= info["limit"]

    def test_disabled_cache_records_nothing(self):
        """With the cache off no path looks anything up, so none counts
        a hit or a miss, and every path stays bit-exact with
        NaiveEngine."""
        machine = compile_ruleset(["abc", "b.d", "hello"])
        depth = machine.depth_bound()
        assert depth is not None  # run_sharded must really shard
        data = list(b"xxabcxbzdhello abc hellob.dxabcd")
        expected = NaiveEngine(machine).run(data).event_keys()
        engine = BitsetEngine(machine, step_cache=0)

        assert engine.run(data).event_keys() == expected
        stepped = ReportRecorder()
        engine.reset()
        for symbol in data:
            engine.step((symbol,), stepped)
        assert stepped.event_keys() == expected
        short = data[:11]
        lanes = engine.run_batch([data, short])
        assert [lane.event_keys() for lane in lanes] == [
            expected, NaiveEngine(machine).run(short).event_keys()]
        assert engine.run_sharded(data, 3).event_keys() == expected
        cut = len(data) // 2
        windows = [(0, 0, cut), (cut - depth, cut, len(data))]
        assert engine.run_windows(data, windows).event_keys() == expected

        info = engine.step_cache_info()
        assert info == {"hits": 0, "misses": 0, "hit_rate": 0.0,
                        "size": 0, "limit": 0}

    def test_tiny_cache_evicts_but_stays_exact(self):
        rng = random.Random(3)
        automaton = random_automaton(rng, n_states=8, bits=4)
        engine = BitsetEngine(automaton, step_cache=2)
        data = [rng.randrange(16) for _ in range(100)]
        recorder = engine.run(data)
        assert engine.step_cache_info()["size"] <= 2
        reference = NaiveEngine(automaton).run(data)
        assert recorder.event_keys() == reference.event_keys()

    def test_invalid_configuration_raises(self):
        with pytest.raises(SimulationError):
            BitsetEngine(self._abc(), step_cache=-1)


class TestHistoryLimit:
    def _engine(self):
        automaton = Automaton(bits=8)
        automaton.new_state("s", SymbolSet.of(8, [1]), start="all-input")
        return BitsetEngine(automaton)

    def test_default_is_unbounded_list(self):
        engine = self._engine()
        engine.run([1, 2, 1])
        assert engine.active_count_history == [1, 0, 1]
        assert isinstance(engine.active_count_history, list)


def test_popcount_matches_reference():
    rng = random.Random(0)
    for _ in range(200):
        value = rng.getrandbits(rng.randint(1, 300))
        assert _popcount(value) == bin(value).count("1")
    assert _popcount(0) == 0
