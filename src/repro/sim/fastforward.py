"""Steady-state fast-forward: analytic jumps over periodic probe traffic.

The paper's channels ride on long stretches of perfectly periodic
closed-loop probe traffic -- the same one- or two-row access cycle
repeating until a *disturbance* (periodic refresh, RFM, PRAC back-off,
a co-running agent) perturbs it.  Simulating those stretches event by
event is the dominant cost of every experiment.  This module skips
them analytically while staying **bit-identical** to event-accurate
execution; ``python -m repro diffcheck`` machine-checks that claim
over every registered experiment plus fuzzed scenarios.

How a jump works
----------------
A :class:`LatencyProbe <repro.cpu.probe.LatencyProbe>` calls
:meth:`FastForward.consider` at every *cycle boundary* (its address
round-robin just wrapped).  The engine then:

0. **Gates on the quiescence horizon**: before paying for anything, it
   divides the distance to the engine's earliest pending event by the
   probe's last observed boundary-to-boundary period.  If that leaves
   fewer than ``_MIN_JUMP_CYCLES`` whole cycles beyond the boundaries
   detection still needs (two from scratch, none on a primed track),
   no jump reachable from here could be worth its snapshots: the
   probe's detection history is dropped and the boundary runs live.
   This is what keeps multi-agent traffic cheap -- a co-running
   agent's next wake (the covert sender's next access, a noise burst)
   is always close, so the probe stops snapshotting until the
   co-agent goes quiet (an idle symbol window, a retired agent), and
   then re-detects within three boundaries.
1. **Snapshots** the linear state of every component the cycle touches
   -- engine seq counter, probe progress, per-bank timestamps and bus
   reservations, memory-system counters, defense counters -- as tuples
   of ints, one per component (``lin``), plus an invariant tuple
   (``inv``) of values that must not change at all between boundaries
   (open rows, block counts, armed wake, ABO/cool-down flags ...).
2. **Detects steady state** from three consecutive boundary snapshots:
   the two successive ``lin`` differences must be elementwise equal
   (the dynamics are translation-invariant, i.e. exactly periodic with
   period ``P``), the ``inv`` tuples identical, and the probe's sample
   pattern (latency deltas + addresses, relative to the boundary) must
   repeat.
3. **Bounds the jump**: ``N`` whole cycles are safe iff every
   synthesized event lands strictly *before* the engine's earliest
   pending event (the quiescence horizon -- a refresh tick, RFM grid
   point, recovery event or stale wake pending in any lane), before the
   probe's own ``stop_time``, within ``max_samples``, and within the
   defense's headroom (no activation counter may reach its trigger
   threshold mid-jump; see ``Defense.ff_cycle_cap``).
4. **Applies** the jump in bulk: every ``lin`` field advances by
   ``N x`` its per-cycle delta, and the probe's sample log is extended
   with ``N`` copies of the boundary cycle's sample pattern shifted by
   multiples of ``P``.  Simulated time itself needs no touch-up -- the
   probe schedules its next issue at the post-jump timestamp and the
   event engine leaps there, which is where the dispatch savings come
   from.

Safety invariants (why this is exact, not approximate)
------------------------------------------------------
* A jump only happens when the request queue is empty, the probe is
  the only live activity, and every pending event -- including every
  co-running agent's next wake -- lies beyond the synthesized window,
  so nothing can observe or perturb the skipped iterations.  Agents
  other than the calling probe are never advanced analytically.
* A jump never synthesizes beyond the active ``run(until=T)`` horizon
  either: a caller that pauses the simulation and mutates state
  between runs (installs a block, starts an agent, schedules an
  event) sees exactly the event-accurate state at ``T``.
* Equal successive differences over a full cycle are required on
  *every* tracked field; anything non-linear (a counter reset, a block
  interval, a first-touch materialization) breaks the equality and the
  engine silently falls back to event-accurate execution.
* Trigger thresholds are never crossed inside a jump: the defense caps
  ``N`` so every counter stays strictly below its threshold, and the
  crossing iteration runs live.
* Conservative caps are always safe: jumping fewer cycles than allowed
  just leaves more iterations to run event-accurately.  The horizon
  gate is one such cap: skipping a snapshot never changes results.

Efficiency counters
-------------------
Each coordinator counts boundaries ``considered``, boundaries
``gated`` by the horizon check, ``snapshots`` taken, and ``jumps``
(with the ``cycles`` and ``samples`` they synthesized).  The counts
live on the instance and are folded into the process-wide
:func:`totals` once per ``Simulator.run()`` exit, never per boundary.

Process-wide switches
---------------------
``SystemConfig.fast_forward`` opts a single system in or out; ``None``
(the default) resolves through :func:`resolve_enabled`: a
:func:`forced` override (used by the diffcheck harness) beats the
config field, which beats the ``REPRO_FAST_FORWARD`` environment
variable (``off`` disables), which beats the default (**on** -- the
equivalence suite gates the default, see ROADMAP).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from itertools import repeat
from operator import add, mul, sub
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.system import MemorySystem

#: Environment switch consulted by :func:`resolve_enabled`.
ENV_VAR = "REPRO_FAST_FORWARD"

#: Process-wide forced override: "on", "off", or None (no override).
_forced: str | None = None

#: Process-wide engagement totals (diffcheck engagement evidence),
#: keyed like :data:`_COUNTERS`.
_totals = {"jumps": 0, "cycles": 0, "samples": 0, "considered": 0,
           "snapshots": 0, "gated": 0}

#: ``_totals`` key -> the per-instance attribute that counts it.
_COUNTERS = (("jumps", "jumps"), ("cycles", "cycles_skipped"),
             ("samples", "samples_synthesized"),
             ("considered", "considered"), ("snapshots", "snapshots"),
             ("gated", "gated"))

#: Consecutive failed steady-state checks before a probe's detection
#: backs off, and the backoff ceiling (in skipped cycle boundaries).
_BACKOFF_AFTER = 4
_BACKOFF_MAX = 64

#: Shortest jump worth detecting, in whole cycles.  A boundary whose
#: quiescence horizon leaves fewer cycles than this (beyond the
#: boundaries detection still needs) skips its snapshot: three
#: snapshots cost more than a handful of live iterations.
_MIN_JUMP_CYCLES = 4


def resolve_enabled(field: bool | None) -> bool:
    """Resolve a ``SystemConfig.fast_forward`` field to a live switch.

    Precedence: :func:`forced` override > explicit config field >
    ``REPRO_FAST_FORWARD`` env var > default (enabled).
    """
    if _forced is not None:
        return _forced == "on"
    if field is not None:
        return bool(field)
    env = os.environ.get(ENV_VAR, "").strip().lower()
    if env in ("off", "0", "false", "no"):
        return False
    return True


@contextmanager
def forced(mode: str | None):
    """Force fast-forward ``"on"``/``"off"`` for every system built
    inside the context, overriding config fields and the environment
    (how the diffcheck harness pins its baseline runs)."""
    if mode not in (None, "on", "off"):
        raise ValueError("forced mode must be 'on', 'off', or None")
    global _forced
    prev = _forced
    _forced = mode
    try:
        yield
    finally:
        _forced = prev


def forced_mode() -> str | None:
    """The active :func:`forced` override (``"on"``/``"off"``/None).

    Remote sweep backends ship this with every task so worker
    processes pin fast-forward exactly as the coordinator would."""
    return _forced


def totals() -> dict:
    """Process-wide engagement and efficiency totals since import."""
    return dict(_totals)


def absorb_totals(delta: dict) -> None:
    """Fold a worker process's per-trial totals into this process's,
    so engagement evidence (e.g. the diffcheck report's jump column)
    stays truthful when trials execute remotely."""
    for key in _totals:
        _totals[key] += int(delta.get(key, 0))


class _Track:
    """Per-probe detection state: the last snapshotted boundary, the
    period and lin difference of the window before it, the last
    observed boundary period (the horizon gate's yardstick), and
    failure backoff."""

    __slots__ = ("t1", "lin1", "inv", "period", "delta", "need", "fails",
                 "skip", "last")

    def __init__(self) -> None:
        self.reset()
        self.fails = 0
        self.skip = 0
        #: Time of the last cycle boundary seen, snapshotted or not.
        self.last = None

    def reset(self) -> None:
        self.t1 = self.lin1 = self.inv = self.period = self.delta = None
        #: Boundaries still to snapshot before one could jump.
        self.need = 2

    def push(self, t: int, lin, inv, delta=None) -> None:
        """Make ``(t, lin)`` the last snapshot; ``delta`` is the lin
        difference of the window ending there (None: unknown)."""
        self.period = None if delta is None else t - self.t1
        self.delta = delta
        self.need = 1 if delta is None else 0
        self.t1 = t
        self.lin1 = lin
        self.inv = inv

    def fail(self) -> None:
        self.fails += 1
        if self.fails >= _BACKOFF_AFTER:
            self.skip = min(self.fails, _BACKOFF_MAX)
            self.reset()


def _diff(a, b):
    """Per-segment elementwise difference ``b - a`` of two lin tuples;
    ``None`` when a segment changed length (e.g. the bus reservation
    list grew between boundaries)."""
    out = []
    for sa, sb in zip(a, b):
        if len(sa) != len(sb):
            return None
        out.append(tuple(map(sub, sb, sa)))
    return tuple(out)


def _extrapolate(lin, delta, k: int):
    """``lin`` advanced ``k`` periods along per-period deltas."""
    return tuple(tuple(map(add, seg, map(mul, dseg, repeat(k))))
                 for seg, dseg in zip(lin, delta))


class FastForward:
    """Coordinator owned by one :class:`~repro.system.MemorySystem`."""

    #: Indices into the snapshot's segment tuple.
    _ENGINE, _PROBE, _CTRL, _STATS, _DEFENSE = range(5)

    def __init__(self, system: "MemorySystem") -> None:
        self.system = system
        self.sim = system.sim
        self.controller = system.controller
        self.stats = system.stats
        self.defense = system.defense
        #: Whether the configured defense opted into analytic jumps.
        self.supported = bool(getattr(system.defense, "ff_supported",
                                      False))
        # Engagement and efficiency counters (per system; see
        # _COUNTERS for their process-wide names).
        self.jumps = 0
        self.cycles_skipped = 0
        self.samples_synthesized = 0
        self.considered = 0
        self.snapshots = 0
        self.gated = 0
        self._published = dict.fromkeys(_totals, 0)
        self.sim.add_exit_hook(self._publish)

    def _publish(self) -> None:
        """Fold the counts since the last publish into the process
        totals (the engine calls this once per ``run()`` exit)."""
        published = self._published
        for key, attr in _COUNTERS:
            value = getattr(self, attr)
            if value != published[key]:
                _totals[key] += value - published[key]
                published[key] = value

    # ------------------------------------------------------------------
    def consider(self, probe) -> None:
        """Attempt a steady-state jump at ``probe``'s cycle boundary.

        Called by the probe from its completion callback at every cycle
        boundary, *before* the next issue event is scheduled -- so the
        engine's pending events are exactly the outside world (refresh
        ticks, defense timers, other agents), which is what makes the
        quiescence horizon a sound jump bound.
        """
        if not self.supported:
            return
        self.considered += 1
        # Dynamic eligibility: cheap attribute gates, checked every
        # boundary because jitter/sleep/bounds can be (re)configured
        # after construction.  Observers no longer disqualify outright:
        # replay-safe observers (see LatencyProbe._ff_observer_guard)
        # are vetted against the cycle's sample pattern in _snapshot.
        if (probe.jitter_ps
                or probe._sleeping_until is not None
                or (probe.max_samples is None and probe.stop_time is None)):
            return
        now = self.sim.now
        track = probe._ff_track
        if track is None:
            track = probe._ff_track = _Track()
        last = track.last
        track.last = now
        if track.skip:
            track.skip -= 1
            return
        if last is not None:
            # Horizon gate (module docstring, step 0): an eligible
            # probe's most common exit, so it comes first.
            horizon = self.sim.next_event_time()
            if (horizon is not None and horizon <= now + (now - last)
                    * (_MIN_JUMP_CYCLES + track.need)):
                self.gated += 1
                if track.need != 2:
                    track.reset()
                return
        controller = self.controller
        if controller._queue_len or controller._backlog:
            return

        self.snapshots += 1
        snap = self._snapshot(probe)
        if snap is None:
            track.fail()
            return
        lin, inv = snap
        if track.lin1 is None or inv != track.inv:
            # First snapshot, or invariant churn: restart detection
            # from this boundary.
            track.push(now, lin, inv)
            return
        period = now - track.t1
        delta = _diff(track.lin1, lin)
        if (track.delta is None or delta is None
                or period != track.period or delta != track.delta):
            # Not (yet) two equal successive windows.
            if track.delta is not None:
                track.fail()
            track.push(now, lin, inv, delta)
            return

        cycle_len = len(probe.addrs) * probe.accesses_per_addr
        dp = delta[self._PROBE]
        # The probe's own progress must advance by exactly one full
        # cycle per period, or the pattern is not what we synthesize.
        # The window's stats delta must be *exactly* one probe cycle's
        # worth of read services -- L requests, L reads, no writes,
        # kinds summing to L, and command counts implied by the kinds.
        # This is what proves the detection windows contained no other
        # agent's activity: any foreign request serviced inside them
        # would inflate these counters (even when, by coincidence, it
        # does so equally in both windows -- the case a pure equal-
        # differences check cannot see).  The jump window itself is
        # foreign-free by construction (the quiescence horizon), so the
        # extrapolated deltas must be too.
        d_act, d_pre, d_rd, d_wr, d_hit, d_miss, d_conf, d_req = \
            delta[self._STATS]
        if (dp[0] != period or dp[1] != cycle_len
                or d_req != cycle_len or d_rd != cycle_len or d_wr != 0
                or d_hit + d_miss + d_conf != cycle_len
                or d_act != d_miss + d_conf or d_pre != d_conf):
            track.fail()
            track.push(now, lin, inv, delta)
            return

        n = self._max_cycles(probe, now, period, cycle_len, lin, delta)
        if n <= 0:
            track.push(now, lin, inv, delta)
            return

        self._apply(probe, now, period, cycle_len, delta, n)
        # Keep detection primed: the post-jump state sits exactly n
        # periods further along the same steady trajectory, so the next
        # live boundary can re-confirm (one diff) and jump again.
        track.fails = 0
        track.t1 = track.last = now + n * period
        track.lin1 = _extrapolate(lin, delta, n)

    # ------------------------------------------------------------------
    def _snapshot(self, probe):
        """(lin, inv) across engine, probe, controller, stats, defense;
        ``None`` when a component cannot be snapshotted right now."""
        controller = self.controller
        plan_map = controller._addr_plan
        plans = []
        for addr in probe.addrs:
            plan = plan_map.get(addr)
            if plan is None:
                return None
            plans.append(plan)
        plans = tuple(plans)
        samples = probe.samples
        cycle_len = len(probe.addrs) * probe.accesses_per_addr
        if len(samples) < cycle_len:
            return None
        base = samples[-1].end_time
        pattern = tuple((s.end_time - base, s.delta, s.addr)
                        for s in samples[-cycle_len:])
        observer = probe.on_sample
        if observer is not None:
            # Observers are only compatible with jumps when replaying
            # them over synthesized samples provably cannot feed back
            # into the physical simulation.  The probe publishes a
            # (observer, guard) pair; the guard vets the cycle's
            # latency deltas (e.g. "no BACKOFF-classified delta" for a
            # receiver that sleeps on back-off).
            guard = probe._ff_observer_guard
            if (guard is None or guard[0] is not observer
                    or not guard[1]([d for (_, d, _a) in pattern])):
                return None
        sim = self.sim
        lin_engine = (sim._seq,)
        lin_probe = (probe._prev_end, len(samples))
        inv_probe = (pattern, probe._addr_idx, probe._repeat)
        lin_ctrl, inv_ctrl = controller.ff_snapshot(plans)
        lin_stats, inv_stats = self.stats.ff_snapshot()
        defense_snap = self.defense.ff_snapshot(plans)
        if defense_snap is None:
            return None
        lin_def, inv_def = defense_snap
        lin = (lin_engine, lin_probe, lin_ctrl, lin_stats, lin_def)
        inv = (inv_probe, inv_ctrl, inv_stats, inv_def, plans)
        return lin, inv

    def _max_cycles(self, probe, now: int, period: int, cycle_len: int,
                    lin, delta) -> int:
        """Largest safe jump, in whole cycles (conservative by design)."""
        horizon = self.sim.next_event_time()
        n = None
        if horizon is not None:
            # Every synthesized event must land strictly before the
            # earliest pending event; the latest synthetic timestamp is
            # the final cycle's completion at ``now + n * period``.
            n = (horizon - 1 - now) // period
        run_horizon = self.sim.run_horizon
        if run_horizon is not None:
            # Never synthesize beyond the active run(until=T) horizon:
            # iterations completing at or before T would have executed
            # inside this run anyway, while anything later must stay
            # live so that state the caller mutates *between* runs
            # (blocks, new agents, scheduled events) is honored.
            cap = (run_horizon - now) // period
            n = cap if n is None else min(n, cap)
        if probe.stop_time is not None:
            cap = (probe.stop_time - 1 - now) // period
            n = cap if n is None else min(n, cap)
        if probe.max_samples is not None:
            cap = (probe.max_samples - len(probe.samples)) // cycle_len
            n = cap if n is None else min(n, cap)
        # Eligibility guarantees max_samples or stop_time, so n is set.
        if n <= 0:
            return 0
        acts_per_cycle = delta[self._STATS][0]
        cap = self.defense.ff_cycle_cap(lin[self._DEFENSE],
                                        delta[self._DEFENSE],
                                        acts_per_cycle)
        if cap is not None:
            n = min(n, cap)
        return n

    def _apply(self, probe, now: int, period: int, cycle_len: int,
               delta, n: int) -> None:
        """Advance every component by ``n`` cycles in bulk."""
        from repro.cpu.probe import LatencySample

        sim = self.sim
        d_seq = delta[self._ENGINE][0]
        sim._seq += d_seq * n
        # In steady state every event scheduled inside the window is
        # also dispatched inside it, so the per-cycle seq delta counts
        # the events this jump elided.
        sim._events_elided += d_seq * n

        samples = probe.samples
        pattern = [(s.end_time - now, s.delta, s.addr)
                   for s in samples[-cycle_len:]]
        base = len(samples)
        samples.extend(
            LatencySample(now + c * period + off, d, a)
            for c in range(1, n + 1) for (off, d, a) in pattern)
        probe._prev_end = now + n * period
        if probe.on_sample is not None:
            # Batched observer catch-up over the synthesized tail; the
            # guard vetted in _snapshot proved this cannot feed back.
            probe._ff_replay(samples[base:])

        plans = self._plans_of(probe)
        self.controller.ff_apply(plans, delta[self._CTRL], n)
        self.stats.ff_apply(delta[self._STATS], n)
        self.defense.ff_apply(plans, delta[self._DEFENSE], n)

        self.jumps += 1
        self.cycles_skipped += n
        self.samples_synthesized += n * cycle_len

    def _plans_of(self, probe) -> tuple:
        plan_map = self.controller._addr_plan
        return tuple(plan_map[a] for a in probe.addrs)
