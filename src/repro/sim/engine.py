"""Discrete-event simulation engine.

Time is an integer number of picoseconds.  The engine keeps events as
``(time, sequence, callback, arg)`` entries; ties are broken by
insertion order so execution is fully deterministic.

Internally there are three lanes, merged by comparing front entries so
the global ``(time, sequence)`` order is exactly what a single heap
would produce:

* an *immediate* lane for events scheduled at the current timestamp
  (scheduler wake-ups): appended at the running ``now``, its times are
  nondecreasing by construction;
* a FIFO *fast lane* for events whose timestamps arrive in
  nondecreasing order -- completions and fixed-delay re-issues usually
  do;
* a binary heap for everything scheduled out of order.

Appends to the first two lanes are O(1) against the heap's O(log n);
in the paper's workloads the heap ends up holding only the rare
out-of-pattern event.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable

#: Time unit constants, in picoseconds.
PS = 1
NS = 1_000
US = 1_000_000
MS = 1_000_000_000
SEC = 1_000_000_000_000

#: Sentinel marking an event scheduled without an argument.
_NO_ARG = object()

#: "No limit" sentinels keeping the run loop free of None checks.
_NEVER = 1 << 62

#: FIFO-lane admission horizon (ps).  Rare long-delay events (periodic
#: refresh ticks, transmission-window sleeps) would otherwise become the
#: lane tail and force the entire short-delay hot chain -- completions,
#: deliveries, probe re-issues -- onto the heap.  Far events go straight
#: to the heap, which is nearly empty and cheap at that point; the
#: cutoff is a performance heuristic only, never a correctness one (the
#: lane merge preserves global order regardless of placement).
_FIFO_HORIZON = 1 * US


class SimulationError(RuntimeError):
    """Raised for scheduling errors (e.g., scheduling into the past)."""


#: Process-wide event totals across every Simulator instance, published
#: once per ``run()`` call (never from the hot loop).  The telemetry
#: registry samples these by delta (:mod:`repro.obs.metrics`), and dist
#: workers ship their deltas home for coordinator-side aggregation.
_GLOBAL_COUNTERS = {"events_run": 0, "events_elided": 0}


def global_counters() -> dict[str, int]:
    """Snapshot of process-wide event totals (copy)."""
    return dict(_GLOBAL_COUNTERS)


def absorb_counters(delta: dict) -> None:
    """Fold a worker's counter delta into this process's totals (the
    dist coordinator calls this with the ``"m"`` field of a result
    frame, mirroring :func:`repro.sim.fastforward.absorb_totals`)."""
    for key in _GLOBAL_COUNTERS:
        value = delta.get(key)
        if isinstance(value, int) and value > 0:
            _GLOBAL_COUNTERS[key] += value


class Simulator:
    """A minimal, deterministic discrete-event simulator.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> sim.schedule(5 * NS, lambda: fired.append(sim.now))
    >>> _ = sim.run()
    >>> fired == [5 * NS]
    True
    """

    __slots__ = ("now", "_heap", "_fifo", "_fifo_head", "_imm",
                 "_imm_head", "_seq", "_events_run", "_events_elided",
                 "_elided_published", "_running", "_stop_at",
                 "_exit_hooks")

    def __init__(self) -> None:
        self.now: int = 0
        self._heap: list[tuple] = []
        self._fifo: list[tuple] = []
        self._fifo_head: int = 0
        self._imm: list[tuple] = []
        self._imm_head: int = 0
        self._seq: int = 0
        self._events_run: int = 0
        self._events_elided: int = 0
        #: Portion of ``_events_elided`` already folded into the
        #: process-wide totals (publication happens at run() exit so
        #: note_elided stays a bare increment on the ff hot path).
        self._elided_published: int = 0
        self._running = False
        #: ``until`` of the run() call currently executing (None when
        #: not running or running without a limit); see run_horizon.
        self._stop_at: int | None = None
        #: Callables run at every run() exit (see add_exit_hook).
        self._exit_hooks: list[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule_at(self, time_ps: int, callback: Callable[[], None]) -> int:
        """Schedule ``callback`` to run at absolute time ``time_ps``.

        Returns the sequence number assigned to the event.

        Lane admission (inlined in every scheduling method -- this is
        the hot path): the FIFO lane takes events at or beyond its tail
        time, the immediate lane takes events at the current timestamp,
        the heap takes the rest.
        """
        if time_ps < self.now:
            raise SimulationError(
                f"cannot schedule at {time_ps} ps; now is {self.now} ps"
            )
        seq = self._seq
        self._seq = seq + 1
        fifo = self._fifo
        if time_ps - self.now <= _FIFO_HORIZON and (
                not fifo or time_ps >= fifo[-1][0]):
            fifo.append((time_ps, seq, callback, _NO_ARG))
        elif time_ps == self.now:
            self._imm.append((time_ps, seq, callback, _NO_ARG))
        else:
            heapq.heappush(self._heap, (time_ps, seq, callback, _NO_ARG))
        return seq

    def schedule(self, delay_ps: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run ``delay_ps`` picoseconds from now."""
        time_ps = self.now + delay_ps
        if delay_ps < 0:
            raise SimulationError(
                f"cannot schedule at {time_ps} ps; now is {self.now} ps"
            )
        seq = self._seq
        self._seq = seq + 1
        fifo = self._fifo
        if delay_ps <= _FIFO_HORIZON and (
                not fifo or time_ps >= fifo[-1][0]):
            fifo.append((time_ps, seq, callback, _NO_ARG))
        elif delay_ps == 0:
            self._imm.append((time_ps, seq, callback, _NO_ARG))
        else:
            heapq.heappush(self._heap, (time_ps, seq, callback, _NO_ARG))

    def schedule_call_at(self, time_ps: int, callback: Callable,
                         arg) -> int:
        """Schedule ``callback(arg)`` at absolute time ``time_ps``.

        Equivalent to ``schedule_at(time_ps, lambda: callback(arg))``
        but allocation-free on the hot path: no closure is created, the
        argument rides along in the event entry itself.  Returns the
        assigned sequence number (see :meth:`schedule_at`).
        """
        if time_ps < self.now:
            raise SimulationError(
                f"cannot schedule at {time_ps} ps; now is {self.now} ps"
            )
        seq = self._seq
        self._seq = seq + 1
        fifo = self._fifo
        if time_ps - self.now <= _FIFO_HORIZON and (
                not fifo or time_ps >= fifo[-1][0]):
            fifo.append((time_ps, seq, callback, arg))
        elif time_ps == self.now:
            self._imm.append((time_ps, seq, callback, arg))
        else:
            heapq.heappush(self._heap, (time_ps, seq, callback, arg))
        return seq

    def schedule_call(self, delay_ps: int, callback: Callable, arg) -> None:
        """Schedule ``callback(arg)`` after ``delay_ps`` picoseconds."""
        self.schedule_call_at(self.now + delay_ps, callback, arg)

    def schedule_many(
            self,
            events: Iterable[tuple[int, Callable[[], None]]]) -> int:
        """Batch-schedule ``(time_ps, callback)`` pairs; returns the count.

        Semantically identical to calling :meth:`schedule_at` in a
        loop, with the admission state hoisted out of the per-event
        work -- pairs arriving in nondecreasing time order ride the
        FIFO fast lane with a single bounds check each.
        """
        now = self.now
        fifo = self._fifo
        imm = self._imm
        heap = self._heap
        heappush = heapq.heappush
        seq = self._seq
        tail = fifo[-1][0] if fifo else None
        count = 0
        try:
            for time_ps, callback in events:
                if time_ps < now:
                    raise SimulationError(
                        f"cannot schedule at {time_ps} ps; now is {now} ps"
                    )
                entry = (time_ps, seq, callback, _NO_ARG)
                seq += 1
                if time_ps - now <= _FIFO_HORIZON and (
                        tail is None or time_ps >= tail):
                    fifo.append(entry)
                    tail = time_ps
                elif time_ps == now:
                    imm.append(entry)
                else:
                    heappush(heap, entry)
                count += 1
        finally:
            self._seq = seq
        return count

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: int | None = None, max_events: int | None = None) -> int:
        """Run events until all lanes drain, ``until`` is reached, or
        ``max_events`` callbacks have executed.

        Events with timestamp exactly equal to ``until`` *are* executed.
        Returns the number of callbacks executed by this call.

        ``until`` may not lie in the past: simulated time never moves
        backwards, so ``run(until=T)`` with ``T < now`` raises
        :class:`SimulationError` (mirroring :meth:`schedule_at`).
        """
        if until is not None and until < self.now:
            raise SimulationError(
                f"cannot run until {until} ps; simulated time is already "
                f"{self.now} ps (time never moves backwards)"
            )
        if self._running:
            # The consumption state of the FIFO lanes lives in locals of
            # the outer run() frame; a nested run would re-execute
            # already-consumed events.  Fail loudly instead.
            raise SimulationError(
                "Simulator.run is not reentrant; do not call run() from "
                "inside an event callback")
        self._running = True
        self._stop_at = until
        stop_at = _NEVER if until is None else until
        remaining = _NEVER if max_events is None else max_events
        executed = 0
        # Hot loop: lane references live in locals; ``self.now`` is
        # still written before every callback so callbacks observe
        # correct simulated time.
        heap = self._heap
        fifo = self._fifo
        imm = self._imm  # list identities are stable (in-place deletes)
        heappop = heapq.heappop
        no_arg = _NO_ARG
        head = 0  # fifo front index (lazy popleft, compacted on exit)
        imm_head = self._imm_head  # ditto for the immediate lane
        try:
            while True:
                front = None
                src = 0
                if imm_head < len(imm):
                    front = imm[imm_head]
                if head < len(fifo):
                    candidate = fifo[head]
                    if front is None or candidate < front:
                        front = candidate
                        src = 1
                if heap:
                    candidate = heap[0]
                    if front is None or candidate < front:
                        front = candidate
                        src = 2
                if front is None:
                    break
                time_ps = front[0]
                if time_ps > stop_at:
                    self.now = stop_at
                    return executed
                if src == 1:
                    head += 1
                    if head > 512 and head * 2 >= len(fifo):
                        del fifo[:head]
                        head = 0
                elif src == 0:
                    imm_head += 1
                    if imm_head > 512 and imm_head * 2 >= len(imm):
                        del imm[:imm_head]
                        imm_head = 0
                else:
                    heappop(heap)
                # Publish consumption state so pending_events stays
                # accurate when read from inside a callback.
                self._fifo_head = head
                self._imm_head = imm_head
                self.now = time_ps
                arg = front[3]
                if arg is no_arg:
                    front[2]()
                else:
                    front[2](arg)
                executed += 1
                if executed >= remaining:
                    return executed
        finally:
            if head:
                del fifo[:head]
            if imm_head:
                del imm[:imm_head]
            self._fifo_head = 0
            self._imm_head = 0
            self._events_run += executed
            _GLOBAL_COUNTERS["events_run"] += executed
            elided_delta = self._events_elided - self._elided_published
            if elided_delta:
                _GLOBAL_COUNTERS["events_elided"] += elided_delta
                self._elided_published = self._events_elided
            self._running = False
            self._stop_at = None
            for hook in self._exit_hooks:
                hook()
        if until is not None and until > self.now:
            self.now = until
        return executed

    # ------------------------------------------------------------------
    # Quiescence introspection (steady-state fast-forward support)
    # ------------------------------------------------------------------
    def next_event_time(self) -> int | None:
        """Timestamp of the earliest pending event, or ``None`` when no
        event is pending.

        Valid between runs and from inside event callbacks (the run
        loop publishes lane consumption before every callback).  The
        fast-forward engine uses this as its *quiescence horizon*: a
        steady-state jump may only synthesize activity that completes
        strictly before this time, because the pending event -- a
        refresh tick, an RFM grid point, a back-off recovery, a stale
        controller wake -- could perturb the periodic pattern.
        """
        best = None
        imm = self._imm
        if self._imm_head < len(imm):
            best = imm[self._imm_head][0]
        fifo = self._fifo
        if self._fifo_head < len(fifo):
            t = fifo[self._fifo_head][0]
            if best is None or t < best:
                best = t
        heap = self._heap
        if heap:
            t = heap[0][0]
            if best is None or t < best:
                best = t
        return best

    def quiescent_now(self) -> bool:
        """True when no pending event is scheduled at the *current*
        timestamp.

        Lane times are nondecreasing along the run, so any unconsumed
        entry at a time <= ``now`` sits exactly at ``now``.  The
        controller's wake-event elision relies on this: when the
        instant is quiescent and the caller schedules nothing else at
        this instant, the deferred scheduler wake would run next with
        exactly one candidate request, so its selection can be resolved
        inline and the wake event elided without reordering anything.
        """
        imm = self._imm
        if self._imm_head < len(imm):
            return False
        now = self.now
        fifo = self._fifo
        if self._fifo_head < len(fifo) and fifo[self._fifo_head][0] <= now:
            return False
        heap = self._heap
        if heap and heap[0][0] <= now:
            return False
        return True

    @property
    def run_horizon(self) -> int | None:
        """``until`` of the currently executing :meth:`run` call, or
        ``None`` (no run in progress, or an unbounded run).

        The fast-forward engine clamps every jump to this horizon:
        whatever the caller does *after* a paused ``run(until=T)``
        returns -- install a blocking interval, start another agent,
        schedule an event -- must see no state synthesized beyond
        ``T``, so incremental drivers stay bit-identical too.
        """
        return self._stop_at

    def add_exit_hook(self, hook: Callable[[], None]) -> None:
        """Run ``hook()`` at every :meth:`run` exit -- how layers that
        keep per-instance counters (fast-forward) publish them to
        process-wide totals once per run, never from the hot loop."""
        self._exit_hooks.append(hook)

    def note_elided(self, n: int) -> None:
        """Account for ``n`` events that steady-state fast-forward (or
        wake elision) resolved analytically instead of dispatching."""
        self._events_elided += n

    @property
    def events_elided(self) -> int:
        """Events resolved analytically rather than dispatched (see
        :meth:`note_elided`); a fast-forward engagement diagnostic."""
        return self._events_elided

    @property
    def pending_events(self) -> int:
        """Number of events currently waiting across all lanes (valid
        between runs and from inside event callbacks)."""
        return (len(self._heap)
                + len(self._fifo) - self._fifo_head
                + len(self._imm) - self._imm_head)

    @property
    def events_run(self) -> int:
        """Total number of callbacks executed over the simulator lifetime."""
        return self._events_run
