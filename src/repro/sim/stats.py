"""Ground-truth statistics collected by the memory system.

Tests and experiments use this log to validate that attacker-*observed*
events (back-offs, RFMs, refreshes inferred from latency) line up with
what the memory system actually did.

``blocks`` stays a plain append-only list (the public contract), but
:meth:`MemoryStats.record_block` additionally maintains per-kind lists
and a start-sorted index with a prefix-maximum of interval ends, so the
window queries that probe and fingerprint drivers issue thousands of
times per trial (:meth:`blocks_in`, :meth:`blocks_of`) cost a bisect
plus the matching slice instead of a scan over every interval ever
recorded.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import attrgetter
from typing import NamedTuple


class BlockKind(enum.Enum):
    """Why a set of banks was blocked."""

    REF = "ref"  #: periodic refresh
    RFM = "rfm"  #: refresh-management command (PRFM / FR-RFM)
    BACKOFF = "backoff"  #: PRAC ABO recovery period
    PARA = "para"  #: PARA probabilistic neighbor refresh


class BlockInterval(NamedTuple):
    """One blocking interval on a set of banks of one rank.

    A ``NamedTuple`` rather than a frozen dataclass: one of these is
    recorded per REF/RFM/back-off, and tuple construction skips the
    frozen dataclass's ``object.__setattr__`` chain.
    """

    kind: BlockKind
    start: int  #: ps
    end: int  #: ps
    rank: int
    #: Bank ids within the rank that were blocked; ``None`` = whole rank.
    banks: "frozenset[int] | None" = None

    @property
    def duration(self) -> int:
        return self.end - self.start

    def blocks_bank(self, bank_id: int) -> bool:
        """Whether the given flat bank id (within the rank) was blocked."""
        return self.banks is None or bank_id in self.banks


@dataclass(slots=True)
class MemoryStats:
    """Aggregate counters plus the blocking-event log."""

    activations: int = 0
    precharges: int = 0
    reads: int = 0
    writes: int = 0
    row_hits: int = 0
    row_misses: int = 0  #: bank was closed
    row_conflicts: int = 0  #: a different row was open
    refreshes: int = 0
    rfm_commands: int = 0
    backoffs: int = 0
    para_refreshes: int = 0
    requests_served: int = 0
    blocks: list[BlockInterval] = field(default_factory=list)
    #: Per-kind interval lists in record order (``blocks_of`` fast path).
    _by_kind: dict = field(default_factory=dict, repr=False, compare=False)
    #: Intervals sorted by start, with parallel key arrays: ``_starts``
    #: for the bisect, ``_max_ends`` as a prefix maximum of interval
    #: ends (nondecreasing, hence bisectable), and ``_rec`` holding each
    #: interval's record index so query results keep record order.
    _sorted: list = field(default_factory=list, repr=False, compare=False)
    _starts: list = field(default_factory=list, repr=False, compare=False)
    _max_ends: list = field(default_factory=list, repr=False, compare=False)
    _rec: list = field(default_factory=list, repr=False, compare=False)

    def record_block(self, interval: BlockInterval) -> None:
        rec_index = len(self.blocks)
        self.blocks.append(interval)
        kind = interval.kind
        kind_log = self._by_kind.get(kind)
        if kind_log is None:
            self._by_kind[kind] = [interval]
        else:
            kind_log.append(interval)

        starts = self._starts
        max_ends = self._max_ends
        if not starts or interval.start >= starts[-1]:
            # Common case: intervals are recorded in start order.
            starts.append(interval.start)
            self._sorted.append(interval)
            self._rec.append(rec_index)
            prev = max_ends[-1] if max_ends else interval.end
            max_ends.append(interval.end if interval.end > prev else prev)
        else:
            # Rare: an aligned block was recorded before an earlier-
            # starting one.  Insert in start order and rebuild the
            # prefix maximum from the insertion point.
            pos = bisect_right(starts, interval.start)
            starts.insert(pos, interval.start)
            self._sorted.insert(pos, interval)
            self._rec.insert(pos, rec_index)
            max_ends.insert(pos, 0)
            running = max_ends[pos - 1] if pos else self._sorted[pos].end
            for i in range(pos, len(max_ends)):
                end = self._sorted[i].end
                if end > running:
                    running = end
                max_ends[i] = running

        if kind is BlockKind.REF:
            self.refreshes += 1
        elif kind is BlockKind.RFM:
            self.rfm_commands += 1
        elif kind is BlockKind.BACKOFF:
            self.backoffs += 1
        elif kind is BlockKind.PARA:
            self.para_refreshes += 1

    def blocks_of(self, kind: BlockKind) -> list[BlockInterval]:
        """All blocking intervals of one kind, in chronological order."""
        return list(self._by_kind.get(kind, ()))

    def blocks_in(self, start: int, end: int,
                  kind: BlockKind | None = None) -> list[BlockInterval]:
        """Blocking intervals overlapping the half-open window [start, end)."""
        starts = self._starts
        # Candidates: start-sorted position range whose intervals can
        # overlap the window.  ``hi`` cuts intervals starting at/after
        # ``end``; ``lo`` uses the prefix-max of ends -- every interval
        # before the first position with max_end > start has already
        # ended by ``start``.
        hi = bisect_left(starts, end)
        lo = bisect_right(self._max_ends, start, 0, hi)
        picked = []
        seq = self._sorted
        rec = self._rec
        for i in range(lo, hi):
            interval = seq[i]
            if interval.end > start and (kind is None
                                         or interval.kind is kind):
                picked.append((rec[i], interval))
        picked.sort()
        return [interval for _, interval in picked]

    # ------------------------------------------------------------------
    # Steady-state fast-forward participation (repro.sim.fastforward):
    # counters are recorded interval-batched over a jump -- one bulk
    # add per jumped window instead of one increment per request.
    # ------------------------------------------------------------------
    #: Counters that advance linearly during a quiescent steady cycle.
    _FF_LIN = ("activations", "precharges", "reads", "writes", "row_hits",
               "row_misses", "row_conflicts", "requests_served")
    #: Counters that may only change through a blocking event, which a
    #: jump by construction never contains.
    _FF_INV = ("refreshes", "rfm_commands", "backoffs", "para_refreshes")
    _ff_lin = attrgetter(*_FF_LIN)
    _ff_inv = attrgetter(*_FF_INV)

    def ff_snapshot(self) -> tuple[tuple, tuple]:
        """(lin, inv) counter state for periodicity detection.  The
        first lin entry is ``activations`` -- the fast-forward engine
        hands its per-cycle delta to ``Defense.ff_cycle_cap``."""
        return self._ff_lin(self), self._ff_inv(self) + (len(self.blocks),)

    def ff_apply(self, delta, cycles: int) -> None:
        """Bulk-add ``cycles`` steady cycles' worth of counters."""
        for name, d in zip(self._FF_LIN, delta):
            if d:
                setattr(self, name, getattr(self, name) + d * cycles)

    @property
    def act_rate_summary(self) -> dict[str, int]:
        """Compact dict summary used by reports."""
        return {
            "activations": self.activations,
            "row_hits": self.row_hits,
            "row_misses": self.row_misses,
            "row_conflicts": self.row_conflicts,
            "refreshes": self.refreshes,
            "rfm_commands": self.rfm_commands,
            "backoffs": self.backoffs,
            "requests": self.requests_served,
        }
