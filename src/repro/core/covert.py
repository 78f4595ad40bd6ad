"""Shared machinery for the window-synchronized covert channels.

Both covert channels (Sections 6 and 7) share one structure:

* the sender and receiver agree on an *epoch* and a *window duration*
  using the wall clock; one symbol is transmitted per window;
* the sender encodes a symbol by activating its private row (creating
  row-buffer conflicts with the receiver and driving the defense's
  activation counters) at a symbol-specific rate, or staying idle;
* the receiver continuously accesses its private row, timestamps every
  iteration, classifies samples, and decodes each window from the
  preventive actions it observed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.capacity import (
    channel_capacity_bps,
    error_probability,
    raw_bit_rate_bps,
)
from repro.core.probe import EventKind, LatencyClassifier
from repro.cpu.agent import Agent
from repro.cpu.probe import LatencyProbe, LatencySample
from repro.system import MemorySystem


@dataclass
class WindowObservation:
    """Receiver-side record of one transmission window."""

    index: int
    sent: int
    decoded: int
    backoffs: int = 0
    rfms: int = 0
    refreshes: int = 0
    samples: int = 0
    #: receiver accesses performed before the first back-off (multibit).
    count_to_backoff: int | None = None


@dataclass
class TransmissionResult:
    """Outcome of one covert-channel transmission."""

    sent: list[int]
    decoded: list[int]
    window_ps: int
    bits_per_symbol: float
    windows: list[WindowObservation] = field(default_factory=list)
    ground_truth_backoffs: int = 0
    ground_truth_rfms: int = 0

    @property
    def raw_bit_rate_bps(self) -> float:
        return raw_bit_rate_bps(self.window_ps, self.bits_per_symbol)

    @property
    def error_probability(self) -> float:
        return error_probability(self.sent, self.decoded)

    @property
    def capacity_bps(self) -> float:
        return channel_capacity_bps(self.raw_bit_rate_bps,
                                    self.error_probability)

    @property
    def kbps(self) -> float:
        """Capacity in Kbps (the unit the paper reports)."""
        return self.capacity_bps / 1e3

    def summary(self) -> dict:
        return {
            "bits": len(self.sent) * self.bits_per_symbol,
            "raw_bit_rate_kbps": self.raw_bit_rate_bps / 1e3,
            "error_probability": self.error_probability,
            "capacity_kbps": self.capacity_bps / 1e3,
            "ground_truth_backoffs": self.ground_truth_backoffs,
            "ground_truth_rfms": self.ground_truth_rfms,
        }


def bits_per_symbol(levels: int) -> float:
    """Information per symbol of an L-ary channel."""
    if levels < 2:
        raise ValueError("need at least two symbol levels")
    return math.log2(levels)


class WindowedSender(Agent):
    """Transmits one symbol per window by modulating its access rate.

    ``gaps[symbol]`` is the extra sleep inserted after each completed
    access (``None`` = stay idle for the window).  On detecting a
    back-off in its own measurements the sender optionally halts until
    the window ends (the paper's senders do, to stop inflating
    activation counters once the bit is already delivered).
    """

    def __init__(self, system: MemorySystem, addr: int, symbols: list[int],
                 epoch: int, window_ps: int,
                 gaps: dict[int, int | None],
                 classifier: LatencyClassifier,
                 stop_on_backoff: bool = True,
                 name: str = "sender") -> None:
        super().__init__(system, name)
        for symbol in symbols:
            if symbol not in gaps:
                raise ValueError(f"symbol {symbol} has no configured gap")
        self.addr = addr
        self.symbols = symbols
        self.epoch = epoch
        self.window_ps = window_ps
        self.gaps = gaps
        self.classifier = classifier
        self.stop_on_backoff = stop_on_backoff
        self.overhead = system.config.loop_overhead
        self.accesses = 0
        self._halted_window = -1
        self._issue_time = 0
        # Stable bound references for the per-access hot loop; the
        # submit is _tick's tail call, so wake elision applies.
        self._tick_cb = self._tick
        self._complete_cb = self._complete
        self._classify = classifier.classify
        self._submit = system.controller.submit_tail
        self._schedule_at = system.sim.schedule_at

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._schedule_at(self.epoch, self._tick_cb)

    def _window_of(self, t: int) -> int:
        return (t - self.epoch) // self.window_ps

    def _tick(self) -> None:
        if self.done:
            return
        now = self.sim.now
        if now < self.epoch:
            self._schedule_at(self.epoch, self._tick_cb)
            return
        window = self._window_of(now)
        if window >= len(self.symbols):
            self._finish()
            return
        gap = self.gaps[self.symbols[window]]
        if gap is None or window == self._halted_window:
            # Idle window: one wake at the next window's start, which is
            # what leaves a co-running receiver's horizon clear to jump.
            next_start = self.epoch + (window + 1) * self.window_ps
            self._schedule_at(next_start, self._tick_cb)
            return
        self._issue_time = now
        self.accesses += 1
        self._submit(self.addr, self._complete_cb)

    def _complete(self, req) -> None:
        now = self.sim.now
        window = self._window_of(now)
        delta = now - self._issue_time + self.overhead
        if (self.stop_on_backoff
                and self._classify(delta) is EventKind.BACKOFF
                and 0 <= window < len(self.symbols)):
            self._halted_window = window
        gap = self.gaps.get(self.symbols[min(window, len(self.symbols) - 1)]
                            ) if window < len(self.symbols) else None
        sleep = self.overhead + (gap or 0)
        self._schedule_at(now + sleep, self._tick_cb)


class WindowedReceiver(LatencyProbe):
    """Continuously measuring receiver with per-window event attribution.

    Each sample is attributed to the window containing the *midpoint*
    of the iteration (so a back-off straddling a boundary lands in the
    window where the blocking actually happened).  With
    ``sleep_on_backoff`` the receiver stops accessing until the next
    window after detecting a back-off, as the paper's PRAC receiver
    does, to avoid further inflating the activation counters.
    """

    def __init__(self, system: MemorySystem, addr: int, n_windows: int,
                 epoch: int, window_ps: int,
                 classifier: LatencyClassifier,
                 sleep_on_backoff: bool = False,
                 name: str = "receiver") -> None:
        self.n_windows = n_windows
        self.epoch = epoch
        self.window_ps = window_ps
        self.classifier = classifier
        self.sleep_on_backoff = sleep_on_backoff
        end = epoch + n_windows * window_ps
        super().__init__(system, [addr], name=name, start_time=epoch,
                         stop_time=end, on_sample=self._observe)
        #: per-window event lists: window -> list[EventKind]
        self.window_events: list[list[EventKind]] = [
            [] for _ in range(n_windows)]
        self.window_samples = [0] * n_windows
        #: receiver access count before the first back-off per window.
        self.count_to_backoff: list[int | None] = [None] * n_windows
        #: offset of the first back-off within each window (ps); the
        #: multibit decoder's symbol discriminator.
        self.time_to_backoff: list[int | None] = [None] * n_windows
        self._window_count = [0] * n_windows
        self._classify = classifier.classify
        # Observer replay contract (see LatencyProbe): _observe is pure
        # bookkeeping unless a BACKOFF-classified sample makes it sleep,
        # so a jump is safe exactly when the cycle's deltas contain no
        # BACKOFF (or the receiver never sleeps on one).
        self._ff_observer_guard = (self.on_sample, self._ff_guard)

    def _ff_guard(self, deltas: list[int]) -> bool:
        if not self.sleep_on_backoff:
            return True
        classify = self._classify
        return all(classify(d) is not EventKind.BACKOFF for d in deltas)

    def _ff_replay(self, new_samples) -> None:
        """Batched `_observe` over a synthesized sample run: classify
        each distinct delta once and update the per-window arrays
        in-place, preserving exact per-sample semantics."""
        if self.on_sample != self._observe:
            # A wrapper (e.g. a stop-on watcher) replaced the observer;
            # replay it sample-by-sample instead.
            super()._ff_replay(new_samples)
            return
        epoch = self.epoch
        window_ps = self.window_ps
        n_windows = self.n_windows
        events = self.window_events
        window_samples = self.window_samples
        counts = self._window_count
        count_to = self.count_to_backoff
        time_to = self.time_to_backoff
        classify = self._classify
        kind_of: dict[int, EventKind] = {}
        backoff = EventKind.BACKOFF
        for sample in new_samples:
            delta = sample.delta
            kind = kind_of.get(delta)
            if kind is None:
                kind = kind_of[delta] = classify(delta)
            mid = sample.end_time - delta // 2
            window = (mid - epoch) // window_ps
            if not 0 <= window < n_windows:
                continue
            events[window].append(kind)
            window_samples[window] += 1
            counts[window] += 1
            if kind is backoff and count_to[window] is None:
                count_to[window] = counts[window]
                time_to[window] = mid - (epoch + window * window_ps)

    def _observe(self, sample: LatencySample) -> None:
        delta = sample.delta
        mid = sample.end_time - delta // 2
        window = (mid - self.epoch) // self.window_ps
        if not 0 <= window < self.n_windows:
            return
        kind = self._classify(delta)
        self.window_events[window].append(kind)
        self.window_samples[window] += 1
        self._window_count[window] += 1
        if kind is EventKind.BACKOFF:
            if self.count_to_backoff[window] is None:
                self.count_to_backoff[window] = self._window_count[window]
                window_start = self.epoch + window * self.window_ps
                self.time_to_backoff[window] = mid - window_start
            if self.sleep_on_backoff:
                next_start = self.epoch + (window + 1) * self.window_ps
                self.sleep_until(next_start)

    # ------------------------------------------------------------------
    def events_of(self, window: int, kind: EventKind) -> int:
        return sum(1 for k in self.window_events[window] if k is kind)
