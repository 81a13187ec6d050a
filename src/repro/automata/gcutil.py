"""Cyclic-GC pause for allocation-heavy graph construction.

The transform kernels allocate hundreds of thousands of long-lived
containers (adjacency rows, STEs, id strings) in one burst.  None of
them form reference cycles — automata are plain trees of dicts, lists,
and immutable values — so every generational collection CPython triggers
during the burst walks a multi-million-object heap and reclaims nothing.
Measured on the squaring kernels this overhead is around half the total
runtime, and it grows with whatever else the process has on the heap,
which also made kernel timings irreproducible between processes.

:func:`bulk_alloc` pauses the collector for the duration of a kernel and
restores it afterwards.  It is re-entrant (an inner kernel sees the
collector already off and leaves state alone) and exception-safe, and it
respects callers that run with the collector disabled globally.

The collector is paused in two places:

- around the transform kernels (squaring and minimization), via
  :func:`gc_paused`;
- around the stage-graph runtime's two passes — the store probe, then
  the waves and their artifact write-back
  (:meth:`repro.runtime.graph.Runtime.execute`).  A run's results and
  the artifact store's memory tier only grow there, so each full
  collection rescanned them and freed nothing.  Worker processes forked
  from inside a wave switch the collector back on at start-up
  (:func:`repro.sim.parallel._initialize_worker`).
"""

import contextlib
import functools
import gc

__all__ = ["bulk_alloc", "gc_paused", "pausing_suspended"]

#: When true, :func:`bulk_alloc` is a no-op (see :func:`pausing_suspended`).
_suspended = False


@contextlib.contextmanager
def bulk_alloc():
    """Context manager: cyclic GC off inside, restored on exit."""
    if _suspended or not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@contextlib.contextmanager
def pausing_suspended():
    """Make :func:`bulk_alloc`/:func:`gc_paused` no-ops within the block.

    Benchmarks use this to time the legacy oracle the way the pre-indexed
    pipeline actually ran it — collector enabled throughout, including in
    nested ``gc_paused`` regions.  Production code never needs this.
    """
    global _suspended
    previous = _suspended
    _suspended = True
    try:
        yield
    finally:
        _suspended = previous


def gc_paused(fn):
    """Decorator form of :func:`bulk_alloc` for whole-kernel functions."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with bulk_alloc():
            return fn(*args, **kwargs)
    return wrapper
