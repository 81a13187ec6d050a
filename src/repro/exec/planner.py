"""The planner: automaton traits + stream count -> execution plan.

Given one machine's memoized traits (:mod:`~repro.exec.traits`) and the
number of independent streams, :class:`Planner` picks
the execution strategy the performance docs say wins that regime:

- several independent streams -> batched lanes sharing one step cache;
- a literal-extractable acyclic machine -> prefilter-gated windows
  (the kernel only wakes where the literal scan fires);
- everything else -> the serial path.  In-process shards replay every
  serial cycle plus a warm-up prefix per block, so without a worker
  pool they cannot beat it, whatever the stream length.

Every choice carries a machine-readable reason; the selected plan is
counted on ``repro_plan_selected_total{strategy,reason}`` and traced on
an ``exec.plan`` span.  Planner output is always *executable*: it never
emits a combination :meth:`ExecutionPlan.validate_for` (or a run
variant) would reject — tests/test_exec.py holds this as a property
over random machines.
"""

from ..obs import OBS, trace_span
from .plan import TARGETS, ExecutionPlan
from .traits import automaton_traits


class Planner:
    """Auto-selects an :class:`ExecutionPlan` (see the module docstring).

    ``target`` fixes which compiled artifact the plans drive; the
    default plans for the functional engine.
    """

    def __init__(self, target="engine"):
        if target not in TARGETS:
            raise ValueError(
                "planner target must be one of %r, got %r"
                % (TARGETS, target))
        self.target = target

    def plan(self, automaton, stream_count=1):
        """The selected plan for ``automaton`` over ``stream_count``
        streams."""
        plan, _ = self.explain(automaton, stream_count=stream_count)
        return plan

    def explain(self, automaton, stream_count=1):
        """``(plan, choices)`` with one reason record per decision.

        ``choices`` is a list of ``{"choice", "value", "reason"}`` dicts
        (also attached to the plan as ``plan.reasons``); the first entry
        is always the headline strategy.
        """
        if stream_count < 1:
            raise ValueError(
                "stream_count must be >= 1, got %r" % (stream_count,))
        traits = automaton_traits(automaton)
        fields, choices = self._choose(traits, stream_count)
        plan = ExecutionPlan(target=self.target, reasons=choices, **fields)
        strategy = choices[0]["value"]
        reason = choices[0]["reason"]
        with trace_span("exec.plan", automaton=automaton.name,
                        target=self.target, strategy=strategy,
                        reason=reason, streams=stream_count):
            pass
        if OBS.active:
            OBS.instruments.plan_selected.labels(
                strategy=strategy, reason=reason).inc()
        return plan, choices

    def _choose(self, traits, stream_count):
        """Strategy decision tree over (traits, stream count); pure."""
        choices = []

        def choose(choice, value, reason):
            choices.append({"choice": choice, "value": value,
                            "reason": reason})

        fields = {}
        if stream_count > 1:
            choose("strategy", "batch", "multi-stream")
        elif traits.filterable and not traits.cyclic:
            choose("strategy", "gated", "filterable-acyclic")
            fields["prefilter"] = True
        elif traits.cyclic:
            choose("strategy", "serial", "cyclic")
        else:
            choose("strategy", "serial", "unfilterable")
        if self.target == "device":
            choose("fidelity", "auto",
                   "the packed kernel is the benchmarked default")
        choose("step_cache", None,
               "default LRU capacity; entries are pure automaton "
               "functions and survive resets")
        return fields, choices
