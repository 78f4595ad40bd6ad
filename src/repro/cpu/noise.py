"""Noise-generator microbenchmark (paper Section 6.3, Eq. 2).

The microbenchmark issues row activations targeting the attack bank
with sleep periods between consecutive activations; sweeping the sleep
duration from 2 us down to 0.2 us maps linearly onto the paper's
noise-intensity axis:

    intensity = (1 - (sleep - min) / (max - min)) * 99 + 1

:class:`RWNoiseAgent` extends the generator with a seeded read/write
mix: real interfering applications write as well as read, and write
draining perturbs the channel differently from pure activation noise.
"""

from __future__ import annotations

import random

from repro.cpu.agent import Agent, deterministic_seed
from repro.system import MemorySystem

MIN_SLEEP_PS = 200_000  #: 0.2 us
MAX_SLEEP_PS = 2_000_000  #: 2 us


def sleep_for_noise_intensity(intensity: float,
                              min_sleep: int = MIN_SLEEP_PS,
                              max_sleep: int = MAX_SLEEP_PS) -> int:
    """Invert Eq. 2: the sleep duration producing ``intensity`` in [1, 100]."""
    if not 1.0 <= intensity <= 100.0:
        raise ValueError("noise intensity must be within [1, 100]")
    frac = (intensity - 1.0) / 99.0
    return round(max_sleep - frac * (max_sleep - min_sleep))


def noise_intensity_for_sleep(sleep_ps: int,
                              min_sleep: int = MIN_SLEEP_PS,
                              max_sleep: int = MAX_SLEEP_PS) -> float:
    """Eq. 2 of the paper."""
    if not min_sleep <= sleep_ps <= max_sleep:
        raise ValueError("sleep duration outside the Eq. 2 range")
    return (1.0 - (sleep_ps - min_sleep) / (max_sleep - min_sleep)) * 99.0 + 1.0


class NoiseAgent(Agent):
    """Alternating-row activation generator with configurable sleeps."""

    def __init__(self, system: MemorySystem, addrs: list[int],
                 sleep_ps: int, name: str = "noise", start_time: int = 0,
                 stop_time: int | None = None, burst: int = 2) -> None:
        super().__init__(system, name)
        if len(addrs) < 2:
            raise ValueError("noise agent alternates >= 2 rows to force ACTs")
        if burst < 1:
            raise ValueError("burst must be >= 1")
        self.addrs = list(addrs)
        self.sleep_ps = sleep_ps
        self.start_time = start_time
        self.stop_time = stop_time
        #: back-to-back conflicting accesses per wake-up; the default of
        #: 2 activates both rows each round, maximizing activations per
        #: unit time like the paper's noise microbenchmark.
        self.burst = burst
        self.requests_issued = 0
        self._idx = 0
        self._in_burst = 0
        # Stable bound references for the per-access hot loop.  The
        # submit ends both _issue and (via _issue) the burst
        # continuation in _complete, so the tail-submit wake elision
        # applies (see MemoryController.submit_tail).
        self._issue_cb = self._issue
        self._complete_cb = self._complete
        self._submit = system.controller.submit_tail
        self._schedule_at = system.sim.schedule_at

    @classmethod
    def for_intensity(cls, system: MemorySystem, addrs: list[int],
                      intensity: float, **kwargs) -> "NoiseAgent":
        """Build a noise agent from a paper-style intensity in [1, 100]."""
        return cls(system, addrs, sleep_for_noise_intensity(intensity),
                   **kwargs)

    def start(self) -> None:
        self._schedule_at(self.start_time, self._issue_cb)

    def _issue(self) -> None:
        if self.done:
            return
        if self.stop_time is not None and self.sim.now >= self.stop_time:
            self._finish()
            return
        addr = self.addrs[self._idx]
        self._idx = (self._idx + 1) % len(self.addrs)
        self.requests_issued += 1
        self._submit(addr, self._complete_cb,
                     is_write=self._next_is_write())

    def _next_is_write(self) -> bool:
        """Read/write decision hook, drawn once per issued access."""
        return False

    def _complete(self, req) -> None:
        if self.done:
            return
        self._in_burst += 1
        if self._in_burst < self.burst:
            self._issue()
            return
        self._in_burst = 0
        self._schedule_at(self.sim.now + self.sleep_ps, self._issue_cb)


class RWNoiseAgent(NoiseAgent):
    """Noise generator issuing a seeded mix of reads and writes.

    Each access is a write with probability ``write_ratio``, drawn from
    a private RNG under the same cross-process determinism contract as
    the probe's jitter RNG (see :func:`repro.cpu.agent.
    deterministic_seed`).
    """

    def __init__(self, system: MemorySystem, addrs: list[int],
                 sleep_ps: int, write_ratio: float = 0.5,
                 name: str = "mixed-noise", **kwargs) -> None:
        super().__init__(system, addrs, sleep_ps, name=name, **kwargs)
        if not 0.0 <= write_ratio <= 1.0:
            raise ValueError("write_ratio must be within [0, 1]")
        self.write_ratio = write_ratio
        self.writes_issued = 0
        self._rw_rng = random.Random(
            deterministic_seed(name, system.config.seed, 0x52D7))

    def _next_is_write(self) -> bool:
        if self._rw_rng.random() < self.write_ratio:
            self.writes_issued += 1
            return True
        return False
