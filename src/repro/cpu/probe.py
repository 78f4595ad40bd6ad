"""The memory-request latency measurement routine (paper Listing 1).

The probe allocates pointers in separate DRAM rows of one bank and
accesses them in an interleaved manner, flushing the cache line each
time, while timestamping continuously: the end of iteration *i* is the
start of iteration *i+1*, so no high-latency event between two loads is
missed.  Each recorded sample is the wall-clock delta of one loop
iteration -- loop overhead + cache bypass + DRAM service -- exactly
what a userspace attacker measures with ``rdtsc``/``m5_rpns``.
"""

from __future__ import annotations

import random
from typing import Callable, NamedTuple

from repro.cpu.agent import Agent, deterministic_seed
from repro.system import MemorySystem


class LatencySample(NamedTuple):
    """One loop-iteration measurement.

    A ``NamedTuple`` rather than a dataclass: a probe records one of
    these per loop iteration, and tuple construction is several times
    cheaper than a frozen dataclass's ``object.__setattr__`` chain.
    """

    end_time: int  #: timestamp at the end of the iteration (ps)
    delta: int  #: measured iteration latency (ps)
    addr: int  #: the address accessed


class LatencyProbe(Agent):
    """Closed-loop measurement agent alternating over a set of addresses.

    Parameters
    ----------
    addrs:
        Addresses accessed round-robin (two rows of one bank create the
        paper's row-buffer-conflict pattern).
    max_samples / stop_time:
        Stop after this many samples or at this absolute time
        (whichever comes first; either may be ``None``).
    overhead:
        Per-iteration constant cost (clflush + loop bookkeeping); taken
        from the system config when ``None``.
    accesses_per_addr:
        Consecutive accesses to each address before moving to the next
        (1 = the Listing-1 interleaved pattern; the fingerprinting
        routine of Listing 2 uses T = N_BO - 1).
    jitter_ps:
        Measurement noise: each recorded delta is perturbed by a
        seeded uniform offset in [-jitter/2, +jitter/2], modeling the
        pipeline/timer noise of real rdtsc loops (paper Section 5.1's
        "real system noise").  Physical timing is unaffected.
    """

    def __init__(self, system: MemorySystem, addrs: list[int],
                 name: str = "probe", start_time: int = 0,
                 max_samples: int | None = None,
                 stop_time: int | None = None,
                 overhead: int | None = None,
                 accesses_per_addr: int = 1,
                 on_sample: Callable[[LatencySample], None] | None = None,
                 jitter_ps: int = 0
                 ) -> None:
        super().__init__(system, name)
        if not addrs:
            raise ValueError("probe needs at least one address")
        if accesses_per_addr < 1:
            raise ValueError("accesses_per_addr must be >= 1")
        if jitter_ps < 0:
            raise ValueError("jitter must be non-negative")
        self.addrs = list(addrs)
        self.start_time = start_time
        self.max_samples = max_samples
        self.stop_time = stop_time
        self.overhead = (overhead if overhead is not None
                         else system.config.loop_overhead)
        self.accesses_per_addr = accesses_per_addr
        self.on_sample = on_sample
        self.jitter_ps = jitter_ps
        self._jitter_rng = random.Random(
            deterministic_seed(name, system.config.seed, 0x1177))
        self.samples: list[LatencySample] = []
        self._addr_idx = 0
        self._repeat = 0
        self._prev_end = start_time
        self._sleeping_until: int | None = None
        #: Observer replay contract: ``(observer, guard)`` where the
        #: guard, given the cycle's latency deltas, returns True when
        #: replaying ``observer`` over synthesized samples cannot feed
        #: back into the physical simulation (no stop, no sleep).  None
        #: means the observer is opaque and disqualifies jumps.
        self._ff_observer_guard = None
        # Stable bound-method references: attribute access creates a
        # fresh bound method object, which the per-iteration hot loop
        # must not pay for.
        self._issue_cb = self._issue
        self._complete_cb = self._complete
        # Tail submit: _issue ends with the submit call, so the
        # controller may elide its scheduler-wake event (bit-identical;
        # see MemoryController.submit_tail).
        self._submit = system.controller.submit_tail
        self._schedule_at = system.sim.schedule_at
        #: Steady-state fast-forward coordinator (None when disabled);
        #: consulted at every address-cycle boundary.
        self._ff = system.fast_forward
        #: The coordinator's detection state for this probe.
        self._ff_track = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._schedule_at(self.start_time, self._issue_cb)

    def sleep_until(self, t: int) -> None:
        """Pause the access loop until absolute time ``t`` (resets the
        timestamp origin so the sleep is not measured as latency)."""
        self._sleeping_until = max(t, self.sim.now)

    def _issue(self) -> None:
        if self.done:
            return
        if self._sleeping_until is not None:
            wake = max(self._sleeping_until, self.sim.now)
            self._sleeping_until = None
            self._prev_end = wake
            self._schedule_at(wake, self._issue_cb)
            return
        if self.stop_time is not None and self.sim.now >= self.stop_time:
            self._finish()
            return
        if (self.max_samples is not None
                and len(self.samples) >= self.max_samples):
            self._finish()
            return
        self._submit(self.addrs[self._addr_idx], self._complete_cb)

    def _complete(self, req) -> None:
        now = self.sim.now
        delta = now - self._prev_end
        if self.jitter_ps:
            half = self.jitter_ps // 2
            delta = max(0, delta + self._jitter_rng.randint(-half, half))
        sample = LatencySample(now, delta, req.addr)
        self._prev_end = now
        self.samples.append(sample)
        # Advance the round-robin index (inlined _advance_index).
        repeat = self._repeat + 1
        if repeat >= self.accesses_per_addr:
            self._repeat = 0
            at_boundary = self._addr_idx = \
                (self._addr_idx + 1) % len(self.addrs)
        else:
            self._repeat = repeat
            at_boundary = 1
        if self.on_sample is not None:
            self.on_sample(sample)
        if self.done:
            return
        ff = self._ff
        if ff is not None and at_boundary == 0:
            # Cycle boundary, next issue not yet scheduled: the
            # coordinator may bulk-advance this loop (appending
            # synthesized samples and moving _prev_end) when the
            # pattern is provably steady.
            ff.consider(self)
        self._schedule_at(self._prev_end + self.overhead, self._issue_cb)

    # ------------------------------------------------------------------
    def _ff_replay(self, new_samples) -> None:
        """Apply the observer over synthesized samples, in order.  The
        coordinator only calls this after the observer's replay guard
        proved feedback-freedom, so this is exact bookkeeping catch-up,
        not re-simulation.  Subclasses override with batched variants
        (see ``WindowedReceiver``)."""
        observe = self.on_sample
        for sample in new_samples:
            observe(sample)

    # ------------------------------------------------------------------
    @property
    def deltas(self) -> list[int]:
        return [s.delta for s in self.samples]

    def stop(self) -> None:
        """Finish the loop at the next opportunity."""
        self._finish()
